//! Flush/fence counters and the flushes-per-fence histogram.
//!
//! Fig 10 of the paper plots *flushes per operation* against *fences per
//! operation*; §3 reports the median number of flushes overlapped per
//! fence. [`PmStats`] collects the raw counters and [`EpochHistogram`]
//! the per-fence overlap distribution (one "epoch" = the span between two
//! ordering points).

use std::collections::BTreeMap;

/// Histogram over the number of flushes outstanding at each fence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochHistogram {
    counts: BTreeMap<u32, u64>,
    total_epochs: u64,
}

impl EpochHistogram {
    /// Creates an empty histogram.
    pub fn new() -> EpochHistogram {
        EpochHistogram::default()
    }

    /// Records a fence that found `flushes` outstanding flushes.
    pub fn record(&mut self, flushes: u32) {
        *self.counts.entry(flushes).or_insert(0) += 1;
        self.total_epochs += 1;
    }

    /// Number of recorded epochs (= fences).
    pub fn epochs(&self) -> u64 {
        self.total_epochs
    }

    /// Mean flushes per epoch; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total_epochs == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(&k, &v)| k as u64 * v).sum();
        sum as f64 / self.total_epochs as f64
    }

    /// Median flushes per epoch; 0 if empty.
    pub fn median(&self) -> u32 {
        if self.total_epochs == 0 {
            return 0;
        }
        let mid = self.total_epochs.div_ceil(2);
        let mut seen = 0;
        for (&k, &v) in &self.counts {
            seen += v;
            if seen >= mid {
                return k;
            }
        }
        0
    }

    /// Iterates `(flushes_in_epoch, occurrences)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

/// Raw counters of simulated PM activity.
///
/// Flush requests obey the accounting identity
/// `flushes_issued == effective_flushes + flushes_deduped + flushes_avoided`:
/// every request is classified exactly once as real writeback work
/// (effective), elided by the fence-epoch flush cache (deduped), or elided
/// because the address lies in the pool's volatile range (avoided).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PmStats {
    /// Flush requests: every `clwb` the commit pipeline asked for,
    /// whether or not the instruction was ultimately issued.
    pub flushes_issued: u64,
    /// `clwb`s that actually transitioned a dirty line to in-flight
    /// (excludes redundant flushes of clean/already-flushed lines).
    pub effective_flushes: u64,
    /// Flush requests elided by the fence-epoch flush cache: the line was
    /// already in flight and not re-dirtied since the last `sfence`, was
    /// clean, or its content was bit-identical to its last-fenced image —
    /// so the writeback could not change what persists.
    pub flushes_deduped: u64,
    /// `sfence` instructions executed.
    pub fences: u64,
    /// Read accesses (of any width).
    pub reads: u64,
    /// Write accesses (of any width).
    pub writes: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// WPQ drain work (ns) that completed in the background before its
    /// fence — the stall the old charge-at-the-fence model would have
    /// paid but the overlapped model hid under compute.
    pub overlap_ns: f64,
    /// Residual stall (ns) actually paid at fences that found flushes in
    /// flight: the part of the drain calendar still in the future when
    /// the `sfence` executed.
    pub residual_stall_ns: f64,
    /// `clwb`s that targeted the pool's volatile range and were elided
    /// ("Don't Persist All" hybrid roots): flush traffic a full-
    /// persistence structure would have paid.
    pub flushes_avoided: u64,
    /// Cumulative bytes (headers included) of volatile-range blocks
    /// allocated through this handle — hybrid roots' index footprint
    /// kept out of the persistence pipeline. Counted by the allocator
    /// ([`crate::Pmem::count_volatile_alloc`]).
    pub volatile_node_bytes: u64,
    /// Distribution of flushes outstanding per fence.
    pub epoch_hist: EpochHistogram,
}

impl PmStats {
    /// Creates zeroed counters.
    pub fn new() -> PmStats {
        PmStats::default()
    }

    /// Counter-wise sum `self + other` (histograms merged by epoch
    /// count). Used to roll per-shard counters up into a pool total.
    pub fn merge(&mut self, other: &PmStats) {
        self.flushes_issued += other.flushes_issued;
        self.effective_flushes += other.effective_flushes;
        self.flushes_deduped += other.flushes_deduped;
        self.fences += other.fences;
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.overlap_ns += other.overlap_ns;
        self.residual_stall_ns += other.residual_stall_ns;
        self.flushes_avoided += other.flushes_avoided;
        self.volatile_node_bytes += other.volatile_node_bytes;
        for (flushes, occurrences) in other.epoch_hist.iter() {
            for _ in 0..occurrences {
                self.epoch_hist.record(flushes);
            }
        }
    }

    /// Counter-wise difference `self - earlier` (histogram omitted: the
    /// difference of histograms is rarely meaningful; it is left empty).
    pub fn since(&self, earlier: &PmStats) -> PmStats {
        PmStats {
            flushes_issued: self.flushes_issued - earlier.flushes_issued,
            effective_flushes: self.effective_flushes - earlier.effective_flushes,
            flushes_deduped: self.flushes_deduped - earlier.flushes_deduped,
            fences: self.fences - earlier.fences,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            overlap_ns: self.overlap_ns - earlier.overlap_ns,
            residual_stall_ns: self.residual_stall_ns - earlier.residual_stall_ns,
            flushes_avoided: self.flushes_avoided - earlier.flushes_avoided,
            volatile_node_bytes: self.volatile_node_bytes - earlier.volatile_node_bytes,
            epoch_hist: EpochHistogram::new(),
        }
    }

    /// Fraction of the WPQ drain workload that overlapped with compute
    /// instead of stalling a fence: `overlap / (overlap + residual)`,
    /// 0 when no drain work happened. 0 means every fence paid the full
    /// Amdahl stall (the old serialized model); values toward 1 mean
    /// drains finished in the background before their fence.
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.overlap_ns + self.residual_stall_ns;
        if total == 0.0 {
            0.0
        } else {
            self.overlap_ns / total
        }
    }

    /// Whether the flush classification adds up: every request must be
    /// counted exactly once as effective, deduped, or avoided.
    pub fn flush_identity_holds(&self) -> bool {
        self.flushes_issued == self.effective_flushes + self.flushes_deduped + self.flushes_avoided
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_median() {
        let mut h = EpochHistogram::new();
        for n in [1u32, 1, 2, 8, 8, 8] {
            h.record(n);
        }
        assert_eq!(h.epochs(), 6);
        assert!((h.mean() - 28.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.median(), 2);
    }

    #[test]
    fn histogram_empty() {
        let h = EpochHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.epochs(), 0);
    }

    #[test]
    fn histogram_single() {
        let mut h = EpochHistogram::new();
        h.record(5);
        assert_eq!(h.median(), 5);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn histogram_iter_sorted() {
        let mut h = EpochHistogram::new();
        h.record(3);
        h.record(1);
        h.record(3);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(1, 1), (3, 2)]);
    }

    #[test]
    fn stats_since() {
        let mut a = PmStats::new();
        a.flushes_issued = 10;
        a.fences = 2;
        a.overlap_ns = 100.0;
        let mut b = a.clone();
        b.flushes_issued = 25;
        b.flushes_deduped = 4;
        b.fences = 3;
        b.writes = 7;
        b.overlap_ns = 250.0;
        b.residual_stall_ns = 40.0;
        let d = b.since(&a);
        assert_eq!(d.flushes_issued, 15);
        assert_eq!(d.flushes_deduped, 4);
        assert_eq!(d.fences, 1);
        assert_eq!(d.writes, 7);
        assert_eq!(d.overlap_ns, 150.0);
        assert_eq!(d.residual_stall_ns, 40.0);
    }

    #[test]
    fn flush_identity() {
        let mut s = PmStats::new();
        assert!(s.flush_identity_holds(), "zeroed counters satisfy it");
        s.flushes_issued = 10;
        s.effective_flushes = 6;
        s.flushes_deduped = 3;
        s.flushes_avoided = 1;
        assert!(s.flush_identity_holds());
        s.flushes_deduped = 4;
        assert!(!s.flush_identity_holds(), "double counting must be caught");
    }

    #[test]
    fn overlap_ratio_bounds() {
        let mut s = PmStats::new();
        assert_eq!(s.overlap_ratio(), 0.0, "no drain work yet");
        s.overlap_ns = 300.0;
        s.residual_stall_ns = 100.0;
        assert!((s.overlap_ratio() - 0.75).abs() < 1e-12);
        let mut t = PmStats::new();
        t.overlap_ns = 100.0;
        t.merge(&s);
        assert!((t.overlap_ratio() - 0.8).abs() < 1e-12, "merge sums ns");
    }
}
