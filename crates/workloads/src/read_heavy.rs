//! Read-heavy (95/5) driver over MVCC snapshot reads.
//!
//! The workload models a read-mostly KV service on the pipelined
//! [`SharedModHeap`]: writer threads push puts through the commit
//! pipeline while reader threads serve gets from **epoch-stamped
//! snapshots** ([`SharedModHeap::snapshot`]) — off the commit pipeline
//! entirely (no staging lane, no handoff push, no fence).
//!
//! [`run_sim`] is deterministic: writers and one reader interleave under
//! a [`SeededRoundRobin`] turnstile, so every reported number (including
//! how often the reader's held view lagged the published epoch) is a pure
//! function of the config. These feed the sim gate's `read95.*` keys.

use crate::spec::WorkloadRng;
use mod_core::{DurableMap, SeededRoundRobin, SharedModHeap, Turn};
use mod_pmem::{Pmem, PmemConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parameters of one read-heavy run.
#[derive(Clone, Debug)]
pub struct ReadHeavyConfig {
    /// Writer threads (= heap worker shards).
    pub writers: usize,
    /// Put FASEs per writer.
    pub writer_ops: u64,
    /// Snapshot-read turns the reader takes.
    pub reader_reads: u64,
    /// Gets per reader turn — with the 1 put per writer turn this sets
    /// the read/write mix (19 ≈ 95/5 at one writer).
    pub reads_per_turn: u64,
    /// Working-set keys, preloaded before measurement.
    pub keys: u64,
    /// The reader re-pins a fresh snapshot every this many
    /// turns; in between it deliberately reads a stale view, which is
    /// what the `epochs_lagged` metric counts.
    pub refresh_every: u64,
    /// Seed for op streams and the turnstile interleaving.
    pub seed: u64,
    /// Pool capacity in bytes.
    pub capacity: u64,
}

impl ReadHeavyConfig {
    /// A CI-friendly configuration: 95/5 get/put over a preloaded map.
    pub fn testing() -> ReadHeavyConfig {
        ReadHeavyConfig {
            writers: 2,
            writer_ops: 150,
            reader_reads: 300,
            reads_per_turn: 19,
            keys: 2_000,
            refresh_every: 4,
            seed: 42,
            capacity: 1 << 27,
        }
    }
}

/// Measurements of one deterministic (turnstile) read-heavy run.
#[derive(Clone, Debug)]
pub struct ReadHeavyReport {
    /// Put FASEs staged by the writers.
    pub fases: u64,
    /// Gets served from snapshot views.
    pub reads: u64,
    /// Reader turns served from a view whose epoch lagged the published
    /// epoch (the reader held it across writer commits). Deterministic:
    /// a pure function of the config.
    pub epochs_lagged: u64,
    /// Epoch published when the run finished.
    pub final_epoch: u64,
    /// Simulated wall-clock nanoseconds (writer timelines; snapshot
    /// reads charge nothing).
    pub sim_wall_ns: f64,
}

impl ReadHeavyReport {
    /// Simulated wall nanoseconds per operation (puts + gets). Readers
    /// are free in simulated time, so this falls as the read share
    /// grows — the point of serving reads off the pipeline.
    pub fn sim_ns_per_op(&self) -> f64 {
        let ops = self.fases + self.reads;
        if ops == 0 {
            0.0
        } else {
            self.sim_wall_ns / ops as f64
        }
    }
}

/// Runs the deterministic 95/5 workload: `cfg.writers` writer threads
/// and one snapshot reader interleaved by a seeded turnstile. Every
/// field of the report is a pure function of `cfg`.
pub fn run_sim(cfg: &ReadHeavyConfig) -> ReadHeavyReport {
    let pm = Pmem::new(PmemConfig::benchmarking(cfg.capacity));
    let shared = SharedModHeap::create(pm, cfg.writers);
    let map: DurableMap<u64, u64> = shared.setup(DurableMap::create);
    shared.setup(|h| {
        for chunk in (0..cfg.keys).collect::<Vec<_>>().chunks(64) {
            h.fase(|tx| {
                for &k in chunk {
                    map.insert_in(tx, &k, &k);
                }
            });
        }
    });
    shared.setup(|h| h.nv_mut().pm_mut().reset_metrics());

    // Participants: writers 0..writers, reader = writers.
    let sched = Arc::new(SeededRoundRobin::new(cfg.seed, cfg.writers + 1));
    let reads = Arc::new(AtomicU64::new(0));
    let lagged = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..cfg.writers {
            let shared = shared.clone();
            let sched = Arc::clone(&sched);
            let mut rng = WorkloadRng::new(writer_seed(cfg.seed, w));
            let (ops, keys) = (cfg.writer_ops, cfg.keys);
            s.spawn(move || {
                for i in 0..ops {
                    if sched.step(w) == Turn::Halt {
                        break;
                    }
                    let k = rng.next_u64() % keys;
                    shared.fase(w, |tx| map.insert_in(tx, &k, &i));
                }
                sched.finish(w);
                shared.deregister(w);
            });
        }
        {
            let shared = shared.clone();
            let sched = Arc::clone(&sched);
            let (reads, lagged) = (Arc::clone(&reads), Arc::clone(&lagged));
            let mut rng = WorkloadRng::new(writer_seed(cfg.seed, cfg.writers));
            let cfg = cfg.clone();
            s.spawn(move || {
                let mut view = shared.snapshot();
                for turn in 0..cfg.reader_reads {
                    if sched.step(cfg.writers) == Turn::Halt {
                        break;
                    }
                    if turn % cfg.refresh_every == 0 {
                        drop(view);
                        view = shared.snapshot();
                    }
                    // The turnstile token freezes the commit stage while
                    // the reader runs, so this comparison is exact and
                    // deterministic: the view lags iff writers published
                    // since it was pinned.
                    if shared.snapshot_epoch() > view.epoch() {
                        lagged.fetch_add(1, Ordering::Relaxed);
                    }
                    for _ in 0..cfg.reads_per_turn {
                        let k = rng.next_u64() % cfg.keys;
                        std::hint::black_box(map.get(&view, &k));
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
                sched.finish(cfg.writers);
            });
        }
    });
    shared.flush();

    ReadHeavyReport {
        fases: shared.stats().fases,
        reads: reads.load(Ordering::Relaxed),
        epochs_lagged: lagged.load(Ordering::Relaxed),
        final_epoch: shared.snapshot_epoch(),
        sim_wall_ns: shared.sim_wall_ns(),
    }
}

fn writer_seed(seed: u64, w: usize) -> u64 {
    seed ^ (w as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_run_is_deterministic() {
        let cfg = ReadHeavyConfig::testing();
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a.fases, b.fases);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.epochs_lagged, b.epochs_lagged);
        assert_eq!(a.final_epoch, b.final_epoch);
        assert!((a.sim_wall_ns - b.sim_wall_ns).abs() < 1e-9);
    }

    #[test]
    fn reader_lags_and_refreshes() {
        let r = run_sim(&ReadHeavyConfig::testing());
        assert!(r.reads > 0);
        assert!(
            r.epochs_lagged > 0,
            "a view held across {} writer turns never lagged",
            ReadHeavyConfig::testing().refresh_every
        );
        assert!(
            r.epochs_lagged < r.reader_turns_upper_bound(),
            "every turn lagged — refresh is not re-pinning"
        );
        assert!(r.final_epoch > 0);
    }

    impl ReadHeavyReport {
        fn reader_turns_upper_bound(&self) -> u64 {
            // reads / reads_per_turn of the testing config.
            self.reads / ReadHeavyConfig::testing().reads_per_turn + 1
        }
    }
}
