//! Measurement collection shared by every workload runner.

use crate::spec::{System, Workload};
use mod_pmem::{CacheStats, Pmem, TimeBreakdown};

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

/// Counter snapshot used to bracket the measured phase.
#[derive(Clone, Debug)]
pub struct Snapshot {
    time: TimeBreakdown,
    flushes: u64,
    flushes_deduped: u64,
    fences: u64,
    bytes_written: u64,
    overlap_ns: f64,
    residual_stall_ns: f64,
    cache: CacheStats,
    alloc_cum: u64,
}

impl Snapshot {
    /// Captures the current counters of a pool (+ allocator traffic).
    pub fn take(pm: &Pmem, alloc_cum: u64) -> Snapshot {
        Snapshot {
            time: pm.clock().breakdown(),
            flushes: pm.stats().effective_flushes,
            flushes_deduped: pm.stats().flushes_deduped,
            fences: pm.stats().fences,
            bytes_written: pm.stats().bytes_written,
            overlap_ns: pm.stats().overlap_ns,
            residual_stall_ns: pm.stats().residual_stall_ns,
            cache: pm.cache_stats(),
            alloc_cum,
        }
    }

    /// Builds a report for the span since this snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        pm: &Pmem,
        alloc_cum: u64,
        live_bytes: u64,
        workload: Workload,
        system: System,
        ops: u64,
        profiles: Vec<OpProfile>,
    ) -> RunReport {
        RunReport {
            workload,
            system,
            ops,
            time: pm.clock().breakdown().since(&self.time),
            flushes: pm.stats().effective_flushes - self.flushes,
            flushes_deduped: pm.stats().flushes_deduped - self.flushes_deduped,
            fences: pm.stats().fences - self.fences,
            bytes_written: pm.stats().bytes_written - self.bytes_written,
            overlap_ns: pm.stats().overlap_ns - self.overlap_ns,
            residual_stall_ns: pm.stats().residual_stall_ns - self.residual_stall_ns,
            cache: pm.cache_stats().since(&self.cache),
            live_bytes,
            alloc_traffic_bytes: alloc_cum - self.alloc_cum,
            profiles,
        }
    }
}

/// Lightweight flush/fence counter pair for per-op profiling.
#[derive(Copy, Clone, Debug)]
pub struct OpCounters {
    flushes: u64,
    fences: u64,
}

impl OpCounters {
    /// Reads the pool's counters.
    pub fn read(pm: &Pmem) -> OpCounters {
        OpCounters {
            flushes: pm.stats().effective_flushes,
            fences: pm.stats().fences,
        }
    }

    /// Delta since `earlier` as `(flushes, fences)`.
    pub fn since(&self, earlier: &OpCounters) -> (u64, u64) {
        (self.flushes - earlier.flushes, self.fences - earlier.fences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::PmemConfig;

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
    fn snapshot_brackets_activity() {
        let mut pm = Pmem::new(PmemConfig::testing());
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.sfence();
        let snap = Snapshot::take(&pm, 0);
        pm.write_u64(0x140, 2);
        pm.clwb(0x140);
        pm.sfence();
        let report = snap.finish(&pm, 0, 0, Workload::Map, System::Mod, 1, Vec::new());
        assert_eq!(report.flushes, 1);
        assert_eq!(report.fences, 1);
        assert!(report.total_ns() > 0.0);
    }
}
