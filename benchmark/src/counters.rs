//! Deltas of the product's own counters (`PmStats`, `TimeBreakdown`,
//! `CacheStats`, `AllocStats`) over a measured phase, and the metrics
//! derived from them. Counts come from the product; the benchmark only
//! subtracts and divides.

use mod_alloc::{AllocStats, NvHeap};
use mod_core::{PipelineStats, SharedModHeap};
use mod_pmem::{BackendStats, CacheStats, PmStats, TimeBreakdown};
use std::collections::BTreeMap;

/// The counters of a single-owner heap at one instant.
pub struct Snap {
    pm: PmStats,
    time: TimeBreakdown,
    l1d: CacheStats,
    alloc: AllocStats,
}

impl Snap {
    pub fn take(nv: &NvHeap) -> Snap {
        Snap {
            pm: nv.pm().stats().clone(),
            time: nv.pm().clock().breakdown(),
            l1d: nv.pm().cache_stats(),
            alloc: nv.stats().clone(),
        }
    }

    /// What happened between `self` and `later`.
    pub fn until(&self, later: &Snap) -> Counters {
        Counters {
            pm: later.pm.since(&self.pm),
            sim_ns: later.time.total_ns() - self.time.total_ns(),
            time: Some(later.time.since(&self.time)),
            l1d: Some(later.l1d.since(&self.l1d)),
            allocs: later.alloc.allocs - self.alloc.allocs,
            frees: later.alloc.frees - self.alloc.frees,
            alloc_bytes: later.alloc.cumulative_alloc_bytes - self.alloc.cumulative_alloc_bytes,
            live_bytes: later.alloc.live_bytes,
            hwm_live_bytes: later.alloc.hwm_live_bytes,
        }
    }
}

/// Counter deltas of a measured phase. A shared heap has no single
/// clock or cache to difference, so `time` and `l1d` are optional.
pub struct Counters {
    pub pm: PmStats,
    pub sim_ns: f64,
    pub time: Option<TimeBreakdown>,
    pub l1d: Option<CacheStats>,
    pub allocs: u64,
    pub frees: u64,
    pub alloc_bytes: u64,
    pub live_bytes: u64,
    pub hwm_live_bytes: u64,
}

impl Counters {
    /// The five count-based end-to-end metrics. `user_bytes` is what the
    /// measured updates carried, `live_user_bytes` what the structure
    /// holds at the end.
    pub fn end_to_end(
        &self,
        ops: u64,
        user_bytes: u64,
        live_user_bytes: u64,
    ) -> [(&'static str, f64); 5] {
        let n = ops as f64;
        [
            ("sim_ns_per_op", self.sim_ns / n),
            ("fences_per_op", self.pm.fences as f64 / n),
            ("flushes_per_op", self.pm.effective_flushes as f64 / n),
            (
                "pm_write_amp",
                self.pm.bytes_written as f64 / user_bytes as f64,
            ),
            (
                "pm_space_amp",
                self.live_bytes as f64 / live_user_bytes as f64,
            ),
        ]
    }

    /// The `pmem.*` and `alloc.*` metrics that are pure counter
    /// arithmetic.
    pub fn layer_metrics(&self, ops: u64, out: &mut BTreeMap<&'static str, f64>) {
        let n = ops as f64;
        out.insert(
            "pmem.flushes_issued_per_op",
            self.pm.flushes_issued as f64 / n,
        );
        out.insert(
            "pmem.flushes_deduped_per_op",
            self.pm.flushes_deduped as f64 / n,
        );
        out.insert(
            "pmem.flushes_avoided_per_op",
            self.pm.flushes_avoided as f64 / n,
        );
        out.insert(
            "pmem.bytes_written_per_op",
            self.pm.bytes_written as f64 / n,
        );
        out.insert("pmem.overlap_ratio", self.pm.overlap_ratio());
        out.insert(
            "pmem.residual_stall_sim_ns_per_op",
            self.pm.residual_stall_ns / n,
        );
        if let Some(t) = &self.time {
            out.insert("pmem.sim_flush_ns_per_op", t.flush_ns / n);
            out.insert("pmem.sim_other_ns_per_op", t.other_ns / n);
        }
        if let Some(c) = &self.l1d {
            out.insert("pmem.l1d_miss_ratio", c.miss_ratio());
        }
        out.insert("alloc.allocs_per_op", self.allocs as f64 / n);
        out.insert("alloc.frees_per_op", self.frees as f64 / n);
        out.insert("alloc.alloc_bytes_per_op", self.alloc_bytes as f64 / n);
        out.insert("alloc.live_bytes", self.live_bytes as f64);
        out.insert("alloc.hwm_live_bytes", self.hwm_live_bytes as f64);
    }
}

/// The counters of a shared heap at one instant: every timeline's
/// `PmStats` rolled up, the slowest timeline's clock, the pipeline's and
/// the backend's counters.
pub struct SharedSnap {
    pm: PmStats,
    sim_ns: f64,
    pipe: PipelineStats,
    backend: BackendStats,
    alloc: AllocStats,
}

/// A shared heap's measured phase.
pub struct SharedCounters {
    pub counters: Counters,
    pub pipe: PipelineStats,
    pub backend: BackendStats,
}

impl SharedSnap {
    pub fn take(shared: &SharedModHeap) -> SharedSnap {
        let (backend, alloc) =
            shared.with(|h| (h.nv().pm().backend_stats(), h.nv().stats().clone()));
        SharedSnap {
            pm: shared.lane_stats(),
            sim_ns: shared.sim_wall_ns(),
            pipe: shared.stats(),
            backend,
            alloc,
        }
    }

    pub fn until(&self, later: &SharedSnap) -> SharedCounters {
        SharedCounters {
            counters: Counters {
                pm: later.pm.since(&self.pm),
                sim_ns: later.sim_ns - self.sim_ns,
                time: None,
                l1d: None,
                allocs: later.alloc.allocs - self.alloc.allocs,
                frees: later.alloc.frees - self.alloc.frees,
                alloc_bytes: later.alloc.cumulative_alloc_bytes - self.alloc.cumulative_alloc_bytes,
                live_bytes: later.alloc.live_bytes,
                hwm_live_bytes: later.alloc.hwm_live_bytes,
            },
            pipe: PipelineStats {
                fases: later.pipe.fases - self.pipe.fases,
                batches: later.pipe.batches - self.pipe.batches,
                batched_fases: later.pipe.batched_fases - self.pipe.batched_fases,
                max_batch: later.pipe.max_batch,
                lane_conflicts: later.pipe.lane_conflicts - self.pipe.lane_conflicts,
                coalesced_lines: later.pipe.coalesced_lines - self.pipe.coalesced_lines,
            },
            backend: BackendStats {
                fence_batches: later.backend.fence_batches - self.backend.fence_batches,
                journal_bytes: later.backend.journal_bytes - self.backend.journal_bytes,
                compactions: later.backend.compactions - self.backend.compactions,
                fsyncs: later.backend.fsyncs - self.backend.fsyncs,
                fsync_rounds: later.backend.fsync_rounds - self.backend.fsync_rounds,
                ..later.backend.clone()
            },
        }
    }
}

impl SharedCounters {
    /// The `journal.*` and `core.*` metrics that are counter arithmetic
    /// (`ops` = FASEs or requests of the phase).
    pub fn layer_metrics(&self, ops: u64, out: &mut BTreeMap<&'static str, f64>) {
        let n = ops as f64;
        let (b, p) = (&self.backend, &self.pipe);
        let batches = p.batches.max(1) as f64;
        out.insert(
            "journal.bytes_per_fence",
            b.journal_bytes as f64 / b.fence_batches.max(1) as f64,
        );
        out.insert("journal_bytes_per_op", b.journal_bytes as f64 / n);
        out.insert(
            "journal.fsyncs_per_fase",
            b.fsyncs as f64 / p.fases.max(1) as f64,
        );
        out.insert(
            "journal.fsync_rounds_per_fase",
            b.fsync_rounds as f64 / p.fases.max(1) as f64,
        );
        out.insert("journal.compactions", b.compactions as f64);
        out.insert("core.fases", p.fases as f64);
        out.insert("core.batches", p.batches as f64);
        out.insert("core.mean_batch", p.batched_fases as f64 / batches);
        out.insert("core.max_batch", p.max_batch as f64);
        out.insert("core.lane_conflicts", p.lane_conflicts as f64);
        out.insert(
            "core.coalesced_lines_per_batch",
            p.coalesced_lines as f64 / batches,
        );
    }
}
