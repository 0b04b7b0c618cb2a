//! Concurrent workers over a shared MOD heap with pipelined commits.
//!
//! ```text
//! cargo run --example concurrent_workers
//! ```
//!
//! Four producer/consumer threads share one durable queue and one
//! durable ledger map through a `SharedModHeap`. Each worker operation
//! is a FASE over both structures; the pipelined commit stage batches
//! concurrently staged FASEs and publishes each batch with exactly one
//! `sfence` + one pointer store. The run prints the fence amortization
//! (fences per FASE) and proves the result durable by crashing and
//! recovering the pool.

use mod_core::{DurableMap, DurableQueue, ModHeap, SeededRoundRobin, SharedModHeap, Turn};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use std::sync::Arc;

const WORKERS: usize = 4;
const OPS: u64 = 50;

fn main() {
    let pool = Pmem::new(PmemConfig::testing());
    let shared = SharedModHeap::create(pool, WORKERS);

    // Shared structures: a work channel and a ledger. Publishing happens
    // in the single-threaded setup phase; quiesce makes setup durable.
    let queue: DurableQueue<u64> = shared.setup(DurableQueue::create);
    let ledger: DurableMap<u64, u64> = shared.setup(DurableMap::create);
    shared.quiesce();
    let fences_before = shared.with(|h| h.nv().pm().stats().fences);

    // Four real threads, interleaved by the seeded round-robin
    // turnstile: that makes the run deterministic AND keeps the workers
    // in lock-step so every batch fills with one FASE per worker. (A
    // free-running fast worker would keep draining the pipeline early —
    // the default heap's lap wait is zero, so it trades batch fill for
    // never blocking.) Producers move tokens into queue + ledger in
    // one FASE; consumers settle them in one FASE. Each FASE is
    // individually failure-atomic; durability is group-commit.
    let sched = Arc::new(SeededRoundRobin::new(0xD15C0, WORKERS));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let shared = shared.clone();
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    if sched.step(w) == Turn::Halt {
                        break;
                    }
                    if w % 2 == 0 {
                        let token = (w as u64) << 32 | i;
                        shared.fase(w, |tx| {
                            queue.enqueue_in(tx, &token);
                            ledger.insert_in(tx, &token, &(token % 97));
                        });
                    } else {
                        shared.fase(w, |tx| {
                            if let Some(t) = queue.dequeue_in(tx) {
                                ledger.remove_in(tx, &t);
                            }
                        });
                    }
                }
                shared.deregister(w);
                sched.finish(w);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    shared.flush();

    let stats = shared.stats();
    let fences = shared.with(|h| h.nv().pm().stats().fences) - fences_before;
    println!(
        "{} FASEs from {WORKERS} threads committed in {} batches (largest {})",
        stats.fases, stats.batches, stats.max_batch
    );
    println!(
        "{fences} fences total -> {:.3} fences per FASE (single-threaded MOD: 1.0)",
        fences as f64 / stats.fases as f64
    );
    let (qlen, mlen) = shared.with(|h| (queue.len(h), ledger.len(h)));
    println!("queue holds {qlen} tokens, ledger {mlen} entries");
    assert_eq!(qlen, mlen, "every queued token has a ledger entry");

    // Pull the plug and recover: the committed batches survive, each
    // FASE all-or-nothing.
    shared.quiesce();
    let img = shared.crash_image(CrashPolicy::OnlyFenced);
    let (mut heap, report) = ModHeap::open(img);
    let queue: DurableQueue<u64> = heap.root(0).open().unwrap();
    let ledger: DurableMap<u64, u64> = heap.root(1).open().unwrap();
    println!(
        "after crash + recovery: {} live blocks, queue {} / ledger {}",
        report.live_blocks,
        queue.len(&heap),
        ledger.len(&heap)
    );
    assert_eq!(queue.len(&heap), qlen);
    assert_eq!(ledger.len(&heap), mlen);
    println!("recovered state consistent ✓");
}
