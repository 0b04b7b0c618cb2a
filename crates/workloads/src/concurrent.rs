//! Multi-threaded producer/consumer driver over the pipelined
//! [`SharedModHeap`].
//!
//! `N` worker threads share one `DurableQueue<u64>` (the work channel)
//! and one `DurableMap<u64, u64>` (the ledger). Producers move a token
//! into both structures in one FASE; consumers take a token off the
//! queue and settle its ledger entry in one FASE. Every thread runs a
//! deterministic seeded op stream and the threads are interleaved by a
//! [`SeededRoundRobin`] turnstile, so a run is a pure function of
//! `(threads, ops, seed)` — the same property the concurrent crash tests
//! rely on.
//!
//! The interesting output is *simulated* time: per-worker shard lanes
//! overlap shadow-building work, and the pipelined commit batches all
//! concurrently staged FASEs under one `sfence`, so throughput in
//! FASEs per simulated millisecond scales with threads — the
//! structure-level version of Fig 4's flush-overlap curve (the sim
//! gate's `pipeline1.*`/`pipeline8.*` keys pin its two ends).

use crate::spec::WorkloadRng;
use mod_core::{DurableMap, DurableQueue, SeededRoundRobin, SharedModHeap, Turn};
use mod_pmem::{PmStats, Pmem, PmemConfig};
use std::sync::Arc;

/// Parameters of one pipelined concurrency run.
#[derive(Clone, Debug)]
pub struct ConcurrencyConfig {
    /// Worker threads (= shards).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Ledger entries preloaded before measurement. A realistic working
    /// set makes traversal reads miss the caches — that read work is
    /// per-thread parallel work, as in the paper's workloads (Table 2
    /// preloads 1 M elements).
    pub preload: u64,
    /// Simulated application compute per operation, charged to the
    /// worker's own lane (DRAM-side work: request parsing, hashing,
    /// business logic). The paper's applications all carry such work —
    /// Fig 2 shows flushing is a *fraction* of execution time, not all
    /// of it — and it is exactly the component that overlaps across
    /// threads while the shared flush drain does not. Set 0 for a pure
    /// PM-stress profile (which is drain-bandwidth-bound and cannot
    /// scale past the WPQ bandwidth on any system).
    pub app_ns_per_op: f64,
    /// Seed for both the op streams and the scheduler interleaving.
    pub seed: u64,
    /// Pool capacity in bytes.
    pub capacity: u64,
}

impl ConcurrencyConfig {
    /// A CI-friendly configuration: ~memcached-shaped ops (request
    /// parse + key hash before the update, response assembly after,
    /// ≈ 45 DRAM accesses of app work per op) over a preloaded ledger.
    pub fn testing(threads: usize) -> ConcurrencyConfig {
        ConcurrencyConfig {
            threads,
            ops_per_thread: 300,
            preload: 4_000,
            app_ns_per_op: 3_600.0,
            seed: 42,
            capacity: 1 << 27,
        }
    }
}

/// Measurements of one pipelined concurrency run.
#[derive(Clone, Debug)]
pub struct ConcurrencyReport {
    /// Worker threads.
    pub threads: usize,
    /// FASEs staged (including no-op consumes of an empty queue).
    pub fases: u64,
    /// Batches committed — each cost exactly one ordering point.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: usize,
    /// PM activity during the measured phase (global, all shards).
    pub pm: PmStats,
    /// Worker-lane PM counters rolled up (per-lane overlap accounting).
    pub lanes: PmStats,
    /// Simulated wall-clock nanoseconds (slowest shard lane).
    pub sim_wall_ns: f64,
    /// Queue/map state after the run (consistency checks).
    pub queue_len: u64,
    /// Entries left in the ledger map.
    pub map_len: u64,
}

impl ConcurrencyReport {
    /// Structure-level FASE throughput in FASEs per simulated
    /// millisecond.
    pub fn fases_per_sim_ms(&self) -> f64 {
        self.fases as f64 / (self.sim_wall_ns / 1e6)
    }

    /// Mean FASEs per committed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.fases as f64 / self.batches as f64
        }
    }

    /// Mean fences per FASE (< 1 once batching amortizes the commit).
    pub fn fences_per_fase(&self) -> f64 {
        if self.fases == 0 {
            0.0
        } else {
            self.pm.fences as f64 / self.fases as f64
        }
    }

    /// Fraction of the workers' WPQ drain workload hidden under staging
    /// compute instead of stalled on at batch fences.
    pub fn overlap_ratio(&self) -> f64 {
        self.lanes.overlap_ratio()
    }

    /// Simulated wall nanoseconds per FASE.
    pub fn sim_ns_per_fase(&self) -> f64 {
        if self.fases == 0 {
            0.0
        } else {
            self.sim_wall_ns / self.fases as f64
        }
    }
}

/// Runs the producer/consumer workload at `cfg` and reports simulated
/// throughput. Deterministic in `cfg` (threads, ops, seed).
pub fn run_pipelined(cfg: &ConcurrencyConfig) -> ConcurrencyReport {
    let pm = Pmem::new(PmemConfig::benchmarking(cfg.capacity));
    let shared = SharedModHeap::create(pm, cfg.threads);
    let queue: DurableQueue<u64> = shared.setup(DurableQueue::create);
    let map: DurableMap<u64, u64> = shared.setup(DurableMap::create);
    // Preload the ledger so measured inserts traverse a populated trie
    // (cold lines, real read misses). Chunked FASEs keep setup cheap.
    shared.setup(|h| {
        for chunk in (0..cfg.preload).collect::<Vec<_>>().chunks(64) {
            h.fase(|tx| {
                for &i in chunk {
                    let k = 0x8000_0000_0000_0000 | i;
                    map.insert_in(tx, &k, &i);
                }
            });
        }
    });
    // Exclude setup (formatting, publishes, preload) from measurement.
    shared.setup(|h| h.nv_mut().pm_mut().reset_metrics());

    let sched = Arc::new(SeededRoundRobin::new(cfg.seed, cfg.threads));
    let mut handles = Vec::new();
    for w in 0..cfg.threads {
        let shared = shared.clone();
        let sched = Arc::clone(&sched);
        let ops = cfg.ops_per_thread;
        let cfg_app_ns = cfg.app_ns_per_op;
        let mut rng =
            WorkloadRng::new(cfg.seed ^ (w as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        handles.push(std::thread::spawn(move || {
            for i in 0..ops {
                if sched.step(w) == Turn::Halt {
                    break;
                }
                let produce = rng.percent(60);
                // App compute brackets the durable update: request
                // parsing/hashing before, response assembly after. The
                // post-update half runs while this FASE's clwbs drain in
                // the background — the interleaving that lets the batch
                // fence pay only a residual stall.
                let pre_ns = cfg_app_ns / 2.0;
                let post_ns = cfg_app_ns - pre_ns;
                if produce {
                    // Producer FASE: move a token into queue + ledger.
                    let token = (w as u64) << 32 | i;
                    shared.fase(w, |tx| {
                        tx.nv_mut().pm_mut().charge_ns(pre_ns);
                        queue.enqueue_in(tx, &token);
                        map.insert_in(tx, &token, &(token ^ 0xFFFF));
                        tx.nv_mut().pm_mut().charge_ns(post_ns);
                    });
                } else {
                    // Consumer FASE: take a token and settle its entry.
                    shared.fase(w, |tx| {
                        tx.nv_mut().pm_mut().charge_ns(pre_ns);
                        if let Some(t) = queue.dequeue_in(tx) {
                            map.remove_in(tx, &t);
                        }
                        tx.nv_mut().pm_mut().charge_ns(post_ns);
                    });
                }
            }
            sched.finish(w);
            shared.deregister(w);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    shared.flush();

    let stats = shared.stats();
    // All timelines rolled up: worker staging activity + commit fences.
    let lanes = shared.lane_stats();
    let pm_stats = lanes.clone();
    let sim_wall_ns = shared.sim_wall_ns();
    let (queue_len, map_len) = shared.with(|h| (queue.len(h), map.len(h)));
    ConcurrencyReport {
        threads: cfg.threads,
        fases: stats.fases,
        batches: stats.batches,
        max_batch: stats.max_batch,
        pm: pm_stats,
        lanes,
        sim_wall_ns,
        queue_len,
        map_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_deterministic() {
        let cfg = ConcurrencyConfig {
            threads: 4,
            ops_per_thread: 50,
            preload: 500,
            app_ns_per_op: 2_400.0,
            seed: 7,
            capacity: 1 << 26,
        };
        let a = run_pipelined(&cfg);
        let b = run_pipelined(&cfg);
        assert_eq!(a.fases, b.fases);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.queue_len, b.queue_len);
        assert_eq!(a.map_len, b.map_len);
        assert_eq!(a.pm, b.pm);
        assert!((a.sim_wall_ns - b.sim_wall_ns).abs() < 1e-9);
    }

    #[test]
    fn queue_and_ledger_stay_consistent() {
        for threads in [1, 2, 4, 8] {
            let cfg = ConcurrencyConfig::testing(threads);
            let r = run_pipelined(&cfg);
            assert_eq!(
                r.map_len,
                r.queue_len + cfg.preload,
                "{threads} threads: every queued token has a ledger entry \
                 (plus the untouched preload)"
            );
            assert!(r.fases > 0);
            assert!(r.batches > 0);
            assert!(r.sim_wall_ns > 0.0);
        }
    }

    #[test]
    fn batches_fill_up_under_concurrency() {
        let r = run_pipelined(&ConcurrencyConfig::testing(8));
        assert!(
            r.mean_batch() > 4.0,
            "8 threads should batch well, got mean {:.2}",
            r.mean_batch()
        );
        assert_eq!(r.max_batch, 8);
    }

    #[test]
    fn simulated_throughput_scales_with_threads() {
        // The acceptance bar: ≥ 2.0× simulated-time speedup at 8 threads
        // vs 1. (PR 3's bar was 2.3× against a model where all simulated
        // cores shared one L1/LLC; since the lock-free staging split,
        // every worker shard has its own private cache hierarchy — as
        // real cores do — so the 8-thread run pays honest per-core
        // misses on the shared structures and the curve sits lower.)
        let base = run_pipelined(&ConcurrencyConfig::testing(1));
        let eight = run_pipelined(&ConcurrencyConfig::testing(8));
        let speedup = eight.fases_per_sim_ms() / base.fases_per_sim_ms();
        assert!(
            speedup >= 2.0,
            "expected ≥ 2.0x simulated speedup at 8 threads, got {speedup:.2}x \
             (1t: {:.0} fases/ms, 8t: {:.0} fases/ms)",
            base.fases_per_sim_ms(),
            eight.fases_per_sim_ms()
        );
    }

    #[test]
    fn batched_commits_overlap_drain_with_staging() {
        // The other half of the acceptance bar: group commits must show
        // drain work genuinely hidden under staging compute.
        let r = run_pipelined(&ConcurrencyConfig::testing(8));
        assert!(
            r.overlap_ratio() > 0.0,
            "8-thread pipelined run reports no drain overlap"
        );
        assert!(r.lanes.overlap_ns > 0.0);
        assert!(
            r.fences_per_fase() < 0.5,
            "batching should amortize fences, got {:.3}/FASE",
            r.fences_per_fase()
        );
        // A single worker still overlaps drain with its own app compute.
        let solo = run_pipelined(&ConcurrencyConfig::testing(1));
        assert!(solo.overlap_ratio() > 0.0);
    }
}
