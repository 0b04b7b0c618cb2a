//! Measurement collection shared by every workload runner.

use crate::spec::{System, Workload};
use mod_alloc::NvHeap;
use mod_core::ModHeap;
use mod_pmem::{CacheStats, PmStats, TimeBreakdown};
use mod_stm::TxHeap;

/// Per-operation-kind counters, the data behind Fig 10's scatter plot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpProfile {
    /// Label, e.g. `map-insert`.
    pub op: String,
    /// Operations of this kind executed.
    pub count: u64,
    /// Effective `clwb`s (real writebacks scheduled) across them.
    pub flushes: u64,
    /// `sfence`s across them.
    pub fences: u64,
}

impl OpProfile {
    /// Mean flushes per operation.
    pub fn flushes_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.flushes as f64 / self.count as f64
        }
    }

    /// Mean fences per operation.
    pub fn fences_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.fences as f64 / self.count as f64
        }
    }

    /// Adds one operation's deltas.
    pub fn record(&mut self, flushes: u64, fences: u64) {
        self.count += 1;
        self.flushes += flushes;
        self.fences += fences;
    }
}

/// The full measurement of one workload run on one system.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Which workload.
    pub workload: Workload,
    /// Which system.
    pub system: System,
    /// Measured operations (excludes preload).
    pub ops: u64,
    /// Simulated time breakdown over the measured phase.
    pub time: TimeBreakdown,
    /// Effective flushes (writebacks actually scheduled) in the
    /// measured phase.
    pub flushes: u64,
    /// Flush requests elided by the fence-epoch flush cache in the
    /// measured phase.
    pub flushes_deduped: u64,
    /// Fences in the measured phase.
    pub fences: u64,
    /// Bytes stored to PM in the measured phase.
    pub bytes_written: u64,
    /// WPQ drain work hidden under compute in the measured phase (ns).
    pub overlap_ns: f64,
    /// Residual drain stall actually paid at fences (ns).
    pub residual_stall_ns: f64,
    /// L1D counters over the measured phase.
    pub cache: CacheStats,
    /// Live heap bytes at the end.
    pub live_bytes: u64,
    /// Allocation traffic during the measured phase.
    pub alloc_traffic_bytes: u64,
    /// Per-operation-kind profiles (Fig 10).
    pub profiles: Vec<OpProfile>,
}

impl RunReport {
    /// Total simulated nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.time.total_ns()
    }

    /// Simulated nanoseconds per measured operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_ns() / self.ops as f64
        }
    }

    /// Fraction of the WPQ drain workload that overlapped with compute
    /// instead of stalling a fence (see
    /// [`mod_pmem::PmStats::overlap_ratio`]).
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.overlap_ns + self.residual_stall_ns;
        if total == 0.0 {
            0.0
        } else {
            self.overlap_ns / total
        }
    }
}

/// A heap a run is measured on: MOD's [`ModHeap`] or a baseline's
/// [`TxHeap`]. Both charge the same simulated pool through an
/// [`NvHeap`].
pub trait RunHeap {
    /// The allocator heap, and through it the pool, the run charges.
    fn nv_heap(&self) -> &NvHeap;
}

impl RunHeap for ModHeap {
    fn nv_heap(&self) -> &NvHeap {
        self.nv()
    }
}

impl RunHeap for TxHeap {
    fn nv_heap(&self) -> &NvHeap {
        self.nv()
    }
}

/// One measured run: started on the heap once preload ends, it charges
/// each update's flushes and fences to that update's op label and
/// finishes into the [`RunReport`] of the span since the start.
#[derive(Debug)]
pub struct MeasuredRun {
    workload: Workload,
    system: System,
    time: TimeBreakdown,
    stats: PmStats,
    cache: CacheStats,
    alloc_cum: u64,
    profiles: Vec<OpProfile>,
}

impl MeasuredRun {
    /// Starts measuring on `nv`, with one [`OpProfile`] per label in
    /// `ops` (Fig 10's update kinds; none for a run without profiles).
    pub fn start(nv: &NvHeap, workload: Workload, system: System, ops: &[&str]) -> MeasuredRun {
        let pm = nv.pm();
        MeasuredRun {
            workload,
            system,
            time: pm.clock().breakdown(),
            stats: pm.stats().clone(),
            cache: pm.cache_stats(),
            alloc_cum: nv.stats().cumulative_alloc_bytes,
            profiles: ops
                .iter()
                .map(|&op| OpProfile {
                    op: op.to_string(),
                    ..OpProfile::default()
                })
                .collect(),
        }
    }

    /// Runs one update and charges its flushes and fences to the
    /// profile `kind` (an index into the labels given to
    /// [`MeasuredRun::start`]).
    pub fn op<H: RunHeap, R>(
        &mut self,
        kind: usize,
        heap: &mut H,
        update: impl FnOnce(&mut H) -> R,
    ) -> R {
        let before = flushes_and_fences(heap.nv_heap());
        let out = update(heap);
        self.charge(kind, heap.nv_heap(), before);
        out
    }

    /// Runs one update that returns whether it counts as one: only then
    /// are its flushes and fences charged to the profile `kind` (a MOD
    /// set insert of a present key is a no-op FASE, not an update).
    pub fn op_if<H: RunHeap>(
        &mut self,
        kind: usize,
        heap: &mut H,
        update: impl FnOnce(&mut H) -> bool,
    ) -> bool {
        let before = flushes_and_fences(heap.nv_heap());
        let counts = update(heap);
        if counts {
            self.charge(kind, heap.nv_heap(), before);
        }
        counts
    }

    fn charge(&mut self, kind: usize, nv: &NvHeap, (flushes, fences): (u64, u64)) {
        let now = flushes_and_fences(nv);
        self.profiles[kind].record(now.0 - flushes, now.1 - fences);
    }

    /// The report of the span since [`MeasuredRun::start`]: `ops`
    /// measured operations, ending on `nv`.
    pub fn finish(self, nv: &NvHeap, ops: u64) -> RunReport {
        let pm = nv.pm();
        let stats = pm.stats();
        RunReport {
            workload: self.workload,
            system: self.system,
            ops,
            time: pm.clock().breakdown().since(&self.time),
            flushes: stats.effective_flushes - self.stats.effective_flushes,
            flushes_deduped: stats.flushes_deduped - self.stats.flushes_deduped,
            fences: stats.fences - self.stats.fences,
            bytes_written: stats.bytes_written - self.stats.bytes_written,
            overlap_ns: stats.overlap_ns - self.stats.overlap_ns,
            residual_stall_ns: stats.residual_stall_ns - self.stats.residual_stall_ns,
            cache: pm.cache_stats().since(&self.cache),
            live_bytes: nv.stats().live_bytes,
            alloc_traffic_bytes: nv.stats().cumulative_alloc_bytes - self.alloc_cum,
            profiles: self.profiles,
        }
    }
}

fn flushes_and_fences(nv: &NvHeap) -> (u64, u64) {
    let stats = nv.pm().stats();
    (stats.effective_flushes, stats.fences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_funcds::PmMap;
    use mod_pmem::{Pmem, PmemConfig};

    #[test]
    fn profile_means() {
        let mut p = OpProfile {
            op: "x".into(),
            ..OpProfile::default()
        };
        p.record(10, 1);
        p.record(6, 1);
        assert_eq!(p.flushes_per_op(), 8.0);
        assert_eq!(p.fences_per_op(), 1.0);
        assert_eq!(OpProfile::default().flushes_per_op(), 0.0);
    }

    #[test]
    fn measured_run_brackets_only_what_follows_its_start() {
        let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let m0 = PmMap::empty(heap.nv_mut());
        let map = heap.publish(m0);
        heap.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"preload")));
        let mut run = MeasuredRun::start(heap.nv(), Workload::Map, System::Mod, &["insert"]);
        run.op(0, &mut heap, |h| {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 2, b"measured")))
        });
        // A no-op update is bracketed but charged to no profile.
        let counted = run.op_if(0, &mut heap, |h| {
            h.fase(|tx| tx.update_with(map, |nv, m| m.remove(nv, 3)))
        });
        assert!(!counted);
        let report = run.finish(heap.nv(), 2);
        assert_eq!(report.ops, 2);
        assert_eq!(report.fences, 1, "the preload FASE is not measured");
        assert!(report.flushes > 0);
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(report.profiles[0].count, 1);
        assert_eq!(report.profiles[0].flushes, report.flushes);
        assert_eq!(report.profiles[0].fences, report.fences);
        assert!(report.total_ns() > 0.0);
    }
}
