//! Microbenchmark drivers (Table 2: map, set, stack, queue, vector,
//! vec-swap) for MOD and the two PMDK-style baselines.
//!
//! Every run preloads the structure (excluded from measurement), then
//! executes the operation mix while profiling flushes/fences per
//! operation kind (Fig 10) and the time/cache counters (Figs 2, 9, 11).

use crate::report::{MeasuredRun, RunReport};
use crate::spec::{ScaleConfig, System, Workload, WorkloadRng};
use mod_core::{ModHeap, Root};
use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_stm::{StmHashMap, StmQueue, StmStack, StmVector, TxHeap, TxMode};

/// Minimum vector size: the paper's vector has 1 M elements, deep enough
/// (4 radix levels) that path copies and cache misses dominate — tiny
/// vectors would hide the tree-vs-array contrast of Figs 9–11.
pub const VECTOR_MIN_PRELOAD: u64 = 65_536;

/// 32-byte map/set value embedding the key (Table 2's 8 B key + 32 B
/// value configuration).
pub fn value32(key: u64) -> [u8; 32] {
    let mut v = [0xA5u8; 32];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v
}

fn tx_mode(sys: System) -> TxMode {
    match sys {
        System::Pmdk14 => TxMode::Undo,
        System::Pmdk15 => TxMode::Hybrid,
        System::Mod => unreachable!("MOD runs do not use the STM engine"),
    }
}

/// Runs one of the six microbenchmarks.
///
/// # Panics
///
/// Panics if `w` is not a microbenchmark (bfs/vacation/memcached live in
/// their own modules).
pub fn run_micro(w: Workload, sys: System, scale: &ScaleConfig) -> RunReport {
    match (w, sys) {
        (Workload::Map, System::Mod) => mod_map(scale, false),
        (Workload::Map, _) => stm_map(scale, tx_mode(sys), sys, false),
        (Workload::Set, System::Mod) => mod_map(scale, true),
        (Workload::Set, _) => stm_map(scale, tx_mode(sys), sys, true),
        (Workload::Stack, System::Mod) => mod_stack(scale),
        (Workload::Stack, _) => stm_stack(scale, tx_mode(sys), sys),
        (Workload::Queue, System::Mod) => mod_queue(scale),
        (Workload::Queue, _) => stm_queue(scale, tx_mode(sys), sys),
        (Workload::Vector, System::Mod) => mod_vector(scale, false),
        (Workload::Vector, _) => stm_vector(scale, tx_mode(sys), sys, false),
        (Workload::VecSwap, System::Mod) => mod_vector(scale, true),
        (Workload::VecSwap, _) => stm_vector(scale, tx_mode(sys), sys, true),
        _ => panic!("{w} is not a microbenchmark"),
    }
}

// ---------------------------------------------------------------------
// map / set
// ---------------------------------------------------------------------

/// One set-insert FASE: a duplicate insert builds no shadow and pays no
/// ordering point; returns whether the key was new.
fn set_insert_fase(heap: &mut ModHeap, set: Root<PmSet>, key: u64) -> bool {
    heap.fase(|tx| {
        let cur = tx.current(set);
        if cur.contains(tx.nv_mut(), key) {
            return false;
        }
        tx.update_with(set, |nv, s| s.insert(nv, key));
        true
    })
}

fn map_labels(as_set: bool) -> (Workload, &'static str) {
    if as_set {
        (Workload::Set, "set-insert")
    } else {
        (Workload::Map, "map-insert")
    }
}

fn mod_map(scale: &ScaleConfig, as_set: bool) -> RunReport {
    let (workload, label) = map_labels(as_set);
    let mut heap = ModHeap::create(scale.pmem());
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    if as_set {
        let s0 = PmSet::empty(heap.nv_mut());
        let set = heap.publish(s0);
        for _ in 0..scale.preload {
            let k = rng.below(key_space);
            set_insert_fase(&mut heap, set, k);
        }
        let mut run = MeasuredRun::start(heap.nv(), workload, System::Mod, &[label]);
        for _ in 0..scale.ops {
            let k = rng.below(key_space);
            // Fig 10 profiles update operations; duplicate inserts are
            // no-op FASEs with no flushes or fences.
            run.op_if(0, &mut heap, |h| set_insert_fase(h, set, k));
            let probe = rng.below(key_space);
            let _ = heap.current(set).contains(heap.nv_mut(), probe);
        }
        run.finish(heap.nv(), scale.ops)
    } else {
        let m0 = PmMap::empty(heap.nv_mut());
        let map = heap.publish(m0);
        for _ in 0..scale.preload {
            let k = rng.below(key_space);
            heap.fase(|tx| tx.update(map, |nv, m| m.insert(nv, k, &value32(k))));
        }
        let mut run = MeasuredRun::start(heap.nv(), workload, System::Mod, &[label]);
        for _ in 0..scale.ops {
            let k = rng.below(key_space);
            run.op(0, &mut heap, |h| {
                h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, k, &value32(k))))
            });
            let probe = rng.below(key_space);
            let _ = heap.current(map).get(heap.nv_mut(), probe);
        }
        run.finish(heap.nv(), scale.ops)
    }
}

/// The map microbenchmark on MOD under [`PersistPolicy::Hybrid`]
/// ("Don't Persist All"): same key mix and op count as the `Full` run in
/// [`run_micro`], but the interior index nodes live in the pool's
/// volatile range and only compact spine records are persisted. Fully
/// deterministic in the simulation, so its flushes/op gates bit-exactly.
///
/// [`PersistPolicy::Hybrid`]: mod_core::PersistPolicy::Hybrid
pub fn run_map_hybrid(scale: &ScaleConfig) -> RunReport {
    use mod_core::{DurableMap, PersistPolicy};
    let mut heap = ModHeap::create(scale.pmem());
    let map: DurableMap<u64, Vec<u8>> = heap.root(0).policy(PersistPolicy::Hybrid).create();
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    for _ in 0..scale.preload {
        let k = rng.below(key_space);
        map.insert(&mut heap, &k, &value32(k).to_vec());
    }
    let mut run = MeasuredRun::start(heap.nv(), Workload::Map, System::Mod, &["map-insert"]);
    for _ in 0..scale.ops {
        let k = rng.below(key_space);
        run.op(0, &mut heap, |h| map.insert(h, &k, &value32(k).to_vec()));
        let probe = rng.below(key_space);
        let _ = map.get(&mut heap, &probe); // charged probe, as in the Full run
    }
    run.finish(heap.nv(), scale.ops)
}

fn stm_map(scale: &ScaleConfig, mode: TxMode, sys: System, as_set: bool) -> RunReport {
    let (workload, label) = map_labels(as_set);
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let map = StmHashMap::create(&mut heap, scale.bucket_bits());
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    let value = |k: u64| {
        if as_set {
            Vec::new()
        } else {
            value32(k).to_vec()
        }
    };
    for _ in 0..scale.preload {
        let k = rng.below(key_space);
        map.insert(&mut heap, k, &value(k));
    }
    let mut run = MeasuredRun::start(heap.nv(), workload, sys, &[label]);
    for _ in 0..scale.ops {
        let k = rng.below(key_space);
        let v = value(k);
        run.op(0, &mut heap, |h| map.insert(h, k, &v));
        let _ = map.contains_key(&mut heap, rng.below(key_space));
    }
    run.finish(heap.nv(), scale.ops)
}

// ---------------------------------------------------------------------
// stack / queue
// ---------------------------------------------------------------------

fn mod_stack(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(scale.pmem());
    let s0 = PmStack::empty(heap.nv_mut());
    let stack = heap.publish(s0);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        heap.fase(|tx| tx.update(stack, |nv, s| s.push(nv, i)));
    }
    let labels = ["stack-push", "stack-pop"];
    let mut run = MeasuredRun::start(heap.nv(), Workload::Stack, System::Mod, &labels);
    for i in 0..scale.ops {
        let empty = heap.current(stack).is_empty(heap.nv_mut());
        if rng.percent(55) || empty {
            run.op(0, &mut heap, |h| {
                h.fase(|tx| tx.update(stack, |nv, s| s.push(nv, i)))
            });
        } else {
            run.op(1, &mut heap, |h| {
                h.fase(|tx| {
                    tx.update_with(stack, |nv, s| match s.pop(nv) {
                        Some((ns, e)) => (ns, Some(e)),
                        None => (s, None),
                    })
                })
            });
        }
    }
    run.finish(heap.nv(), scale.ops)
}

fn stm_stack(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let stack = StmStack::create(&mut heap);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        stack.push(&mut heap, i);
    }
    let mut run = MeasuredRun::start(
        heap.nv(),
        Workload::Stack,
        sys,
        &["stack-push", "stack-pop"],
    );
    for i in 0..scale.ops {
        if rng.percent(55) || stack.is_empty(&mut heap) {
            run.op(0, &mut heap, |h| stack.push(h, i));
        } else {
            run.op(1, &mut heap, |h| stack.pop(h));
        }
    }
    run.finish(heap.nv(), scale.ops)
}

fn mod_queue(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(scale.pmem());
    let q0 = PmQueue::empty(heap.nv_mut());
    let queue = heap.publish(q0);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        heap.fase(|tx| tx.update(queue, |nv, q| q.enqueue(nv, i)));
    }
    let labels = ["queue-push", "queue-pop"];
    let mut run = MeasuredRun::start(heap.nv(), Workload::Queue, System::Mod, &labels);
    for i in 0..scale.ops {
        let empty = heap.current(queue).is_empty(heap.nv_mut());
        if rng.percent(55) || empty {
            run.op(0, &mut heap, |h| {
                h.fase(|tx| tx.update(queue, |nv, q| q.enqueue(nv, i)))
            });
        } else {
            run.op(1, &mut heap, |h| {
                h.fase(|tx| {
                    tx.update_with(queue, |nv, q| match q.dequeue(nv) {
                        Some((nq, e)) => (nq, Some(e)),
                        None => (q, None),
                    })
                })
            });
        }
    }
    run.finish(heap.nv(), scale.ops)
}

fn stm_queue(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let queue = StmQueue::create(&mut heap);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        queue.enqueue(&mut heap, i);
    }
    let mut run = MeasuredRun::start(
        heap.nv(),
        Workload::Queue,
        sys,
        &["queue-push", "queue-pop"],
    );
    for i in 0..scale.ops {
        if rng.percent(55) || queue.is_empty(&mut heap) {
            run.op(0, &mut heap, |h| queue.enqueue(h, i));
        } else {
            run.op(1, &mut heap, |h| queue.dequeue(h));
        }
    }
    run.finish(heap.nv(), scale.ops)
}

// ---------------------------------------------------------------------
// vector / vec-swap
// ---------------------------------------------------------------------

fn vector_labels(swaps: bool) -> (Workload, &'static str) {
    if swaps {
        (Workload::VecSwap, "vec-swap")
    } else {
        (Workload::Vector, "vector-write")
    }
}

fn mod_vector(scale: &ScaleConfig, swaps: bool) -> RunReport {
    let n = scale.preload.max(VECTOR_MIN_PRELOAD);
    let elems: Vec<u64> = (0..n).collect();
    let mut heap = ModHeap::create(scale.pmem());
    let v0 = PmVector::from_slice(heap.nv_mut(), &elems);
    let vec = heap.publish(v0);
    let mut rng = WorkloadRng::new(scale.seed);
    let (workload, label) = vector_labels(swaps);
    let mut run = MeasuredRun::start(heap.nv(), workload, System::Mod, &[label]);
    for _ in 0..scale.ops {
        run.op(0, &mut heap, |h| {
            if swaps {
                let i = rng.below(n);
                let j = rng.below(n);
                if i != j {
                    // Fig 7b: two chained pure updates, one FASE, one fence.
                    h.fase(|tx| {
                        let cur = tx.current(vec);
                        let vi = cur.get(tx.nv_mut(), i);
                        let vj = cur.get(tx.nv_mut(), j);
                        tx.update(vec, |nv, v| v.update(nv, i, vj));
                        tx.update(vec, |nv, v| v.update(nv, j, vi));
                    });
                }
            } else {
                let i = rng.below(n);
                let e = rng.next_u64();
                h.fase(|tx| tx.update(vec, |nv, v| v.update(nv, i, e)));
            }
        });
        if !swaps {
            let probe = rng.below(n);
            let _ = heap.current(vec).get(heap.nv_mut(), probe);
        }
    }
    run.finish(heap.nv(), scale.ops)
}

fn stm_vector(scale: &ScaleConfig, mode: TxMode, sys: System, swaps: bool) -> RunReport {
    let n = scale.preload.max(VECTOR_MIN_PRELOAD);
    let elems: Vec<u64> = (0..n).collect();
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let vec = StmVector::create_from(&mut heap, &elems);
    let mut rng = WorkloadRng::new(scale.seed);
    let (workload, label) = vector_labels(swaps);
    let mut run = MeasuredRun::start(heap.nv(), workload, sys, &[label]);
    for _ in 0..scale.ops {
        run.op(0, &mut heap, |h| {
            if swaps {
                let i = rng.below(n);
                let j = rng.below(n);
                vec.swap(h, i, j);
            } else {
                vec.update(h, rng.below(n), rng.next_u64());
            }
        });
        if !swaps {
            let _ = vec.get(&mut heap, rng.below(n));
        }
    }
    run.finish(heap.nv(), scale.ops)
}
