//! Interleaving tests for the stage/commit handoff: staging workers
//! racing a dedicated *flusher* thread that batch-drains the pipeline
//! mid-run (the push-vs-take race on the handoff queue), driven
//! loom-style through every seeded turnstile schedule and frozen at
//! every scheduler step. Recovery must see each FASE all-or-nothing
//! across both structures, with nothing lost, nothing duplicated and each
//! worker's FASEs in its push order, and the op phase must cost exactly
//! one fence per committed batch (via `PmStats`).

use mod_core::{DurableMap, DurableQueue, ModHeap, SeededRoundRobin, SharedModHeap, Turn};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

const STAGERS: usize = 3;
const OPS_PER_STAGER: u64 = 4;
const FLUSH_STEPS: u64 = 5;

fn token(worker: usize, op: u64) -> u64 {
    (worker as u64) * 100 + op
}

struct Outcome {
    image: Pmem,
    batches: u64,
    fases: u64,
    fences: u64,
}

/// `STAGERS` workers stage producer FASEs while a dedicated flusher
/// thread batch-drains the pipeline at seeded points; the run freezes
/// before step `halt_at`.
fn run_with_flusher(seed: u64, halt_at: Option<u64>) -> Outcome {
    let shared = SharedModHeap::create(Pmem::new(PmemConfig::testing()), STAGERS);
    let queue: DurableQueue<u64> = shared.setup(DurableQueue::create);
    let map: DurableMap<u64, u64> = shared.setup(DurableMap::create);
    shared.quiesce();
    let fences_before = shared.with(|h| h.nv().pm().stats().fences);

    let sched = Arc::new(SeededRoundRobin::with_halt(seed, STAGERS + 1, halt_at));
    let mut handles = Vec::new();
    for w in 0..STAGERS {
        let shared = shared.clone();
        let sched = Arc::clone(&sched);
        handles.push(std::thread::spawn(move || {
            let mut halted = false;
            for op in 0..OPS_PER_STAGER {
                if sched.step(w) == Turn::Halt {
                    halted = true;
                    break;
                }
                let t = token(w, op);
                shared.fase(w, |tx| {
                    queue.enqueue_in(tx, &t);
                    map.insert_in(tx, &t, &(t * 7));
                });
            }
            if !halted {
                shared.deregister(w);
            }
            sched.finish(w);
        }));
    }
    {
        // The flusher races the stagers' pushes with batch drains — the
        // exact interleaving the handoff queue must survive.
        let shared = shared.clone();
        let sched = Arc::clone(&sched);
        handles.push(std::thread::spawn(move || {
            for _ in 0..FLUSH_STEPS {
                if sched.step(STAGERS) == Turn::Halt {
                    break;
                }
                shared.flush();
            }
            sched.finish(STAGERS);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = shared.stats();
    let fences = shared.with(|h| h.nv().pm().stats().fences) - fences_before;
    Outcome {
        image: shared.crash_image(CrashPolicy::OnlyFenced),
        batches: stats.batches,
        fases: stats.fases,
        fences,
    }
}

fn recover(image: Pmem) -> (Vec<u64>, BTreeSet<u64>) {
    let (mut heap, _) = ModHeap::open(image);
    let queue: DurableQueue<u64> = heap.root(0).open().unwrap();
    let map: DurableMap<u64, u64> = heap.root(1).open().unwrap();
    let qtokens = heap.current(queue.root()).to_vec(heap.nv());
    let mkeys: BTreeSet<u64> = heap
        .current(map.root())
        .to_vec(heap.nv())
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    for &k in &mkeys {
        assert_eq!(map.get(&heap, &k), Some(k * 7), "ledger value for {k}");
    }
    (qtokens, mkeys)
}

fn assert_all_or_nothing(seed: u64, k: u64, qtokens: &[u64], mkeys: &BTreeSet<u64>) {
    let qset: BTreeSet<u64> = qtokens.iter().copied().collect();
    assert_eq!(
        qset.len(),
        qtokens.len(),
        "seed {seed} step {k}: dup tokens"
    );
    assert_eq!(
        &qset, mkeys,
        "seed {seed} step {k}: FASE half-applied across queue and ledger"
    );
    for w in 0..STAGERS {
        let ops: Vec<u64> = (0..OPS_PER_STAGER)
            .filter(|&op| qset.contains(&token(w, op)))
            .collect();
        assert_eq!(
            ops,
            (0..ops.len() as u64).collect::<Vec<_>>(),
            "seed {seed} step {k}: worker {w} out of order"
        );
    }
}

#[test]
fn flusher_race_full_runs_cost_one_fence_per_batch() {
    for seed in [1u64, 2, 3] {
        let out = run_with_flusher(seed, None);
        assert_eq!(out.fases, STAGERS as u64 * OPS_PER_STAGER);
        assert_eq!(
            out.fences, out.batches,
            "seed {seed}: fences ≠ batches with a racing flusher"
        );
        let (qtokens, mkeys) = recover(out.image);
        assert_all_or_nothing(seed, u64::MAX, &qtokens, &mkeys);
    }
}

#[test]
fn flusher_race_crash_at_every_step_is_all_or_nothing() {
    for seed in [1u64, 2] {
        let total = STAGERS as u64 * OPS_PER_STAGER + FLUSH_STEPS;
        for k in 0..=total {
            let out = run_with_flusher(seed, Some(k));
            assert_eq!(
                out.fences, out.batches,
                "seed {seed} step {k}: fences ≠ batches"
            );
            let (qtokens, mkeys) = recover(out.image);
            assert_all_or_nothing(seed, k, &qtokens, &mkeys);
        }
    }
}
