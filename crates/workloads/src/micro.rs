//! Microbenchmark drivers (Table 2: map, set, stack, queue, vector,
//! vec-swap) for MOD and the two PMDK-style baselines.
//!
//! Every run preloads the structure (excluded from measurement), then
//! executes the operation mix while profiling flushes/fences per
//! operation kind (Fig 10) and the time/cache counters (Figs 2, 9, 11).

use crate::report::{OpCounters, OpProfile, RunReport, Snapshot};
use crate::spec::{ScaleConfig, System, Workload, WorkloadRng};
use mod_core::{ModHeap, Root};
use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_pmem::{Pmem, PmemConfig};
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

fn bench_pm(scale: &ScaleConfig) -> Pmem {
    Pmem::new(PmemConfig::benchmarking(scale.capacity))
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

fn mod_map(scale: &ScaleConfig, as_set: bool) -> RunReport {
    mod_map_on(bench_pm(scale), scale, as_set)
}

fn mod_map_on(pm: Pmem, scale: &ScaleConfig, as_set: bool) -> RunReport {
    let (workload, label) = if as_set {
        (Workload::Set, "set-insert")
    } else {
        (Workload::Map, "map-insert")
    };
    let mut heap = ModHeap::create(pm);
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    let mut profile = OpProfile {
        op: label.to_string(),
        ..OpProfile::default()
    };
    if as_set {
        let s0 = PmSet::empty(heap.nv_mut());
        let set = heap.publish(s0);
        for _ in 0..scale.preload {
            let k = rng.below(key_space);
            set_insert_fase(&mut heap, set, k);
        }
        let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
        for _ in 0..scale.ops {
            let k = rng.below(key_space);
            let before = OpCounters::read(heap.nv().pm());
            let added = set_insert_fase(&mut heap, set, k);
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            if added {
                // Fig 10 profiles update operations; duplicate inserts
                // are no-op FASEs with no flushes or fences.
                profile.record(f, s);
            }
            let probe = rng.below(key_space);
            let _ = heap.current(set).contains(heap.nv_mut(), probe);
        }
        snap.finish(
            heap.nv().pm(),
            heap.nv().stats().cumulative_alloc_bytes,
            heap.nv().stats().live_bytes,
            workload,
            System::Mod,
            scale.ops,
            vec![profile],
        )
    } else {
        let m0 = PmMap::empty(heap.nv_mut());
        let map = heap.publish(m0);
        for _ in 0..scale.preload {
            let k = rng.below(key_space);
            heap.fase(|tx| tx.update(map, |nv, m| m.insert(nv, k, &value32(k))));
        }
        let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
        for _ in 0..scale.ops {
            let k = rng.below(key_space);
            let before = OpCounters::read(heap.nv().pm());
            heap.fase(|tx| tx.update(map, |nv, m| m.insert(nv, k, &value32(k))));
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            profile.record(f, s);
            let probe = rng.below(key_space);
            let _ = heap.current(map).get(heap.nv_mut(), probe);
        }
        snap.finish(
            heap.nv().pm(),
            heap.nv().stats().cumulative_alloc_bytes,
            heap.nv().stats().live_bytes,
            workload,
            System::Mod,
            scale.ops,
            vec![profile],
        )
    }
}

/// The map microbenchmark with the fence-epoch flush cache forced on or
/// off — the A/B behind the sim gate's `coalesce.*` keys. Same key
/// mix, op count and fence schedule either way (elision drops `clwb`s,
/// never ordering points); only the effective-writeback count moves.
/// Fully deterministic in the simulation, so the on-run's flushes/op
/// gates bit-exactly.
pub fn run_map_coalesce(scale: &ScaleConfig, coalesce: bool) -> RunReport {
    let cfg = PmemConfig {
        coalesce_flushes: coalesce,
        ..PmemConfig::benchmarking(scale.capacity)
    };
    mod_map_on(Pmem::new(cfg), scale, false)
}

/// The map microbenchmark on MOD under [`PersistPolicy::Hybrid`]
/// ("Don't Persist All"): same key mix and op count as the `Full` run in
/// [`run_micro`], but the interior index nodes live in the volatile node
/// cache and only compact spine records are persisted. Fully
/// deterministic in the simulation, so its flushes/op gates bit-exactly.
///
/// [`PersistPolicy::Hybrid`]: mod_core::PersistPolicy::Hybrid
pub fn run_map_hybrid(scale: &ScaleConfig) -> RunReport {
    use mod_core::{DurableMap, PersistPolicy};
    let mut heap = ModHeap::create(bench_pm(scale));
    let map: DurableMap<u64, Vec<u8>> = heap.root(0).policy(PersistPolicy::Hybrid).create();
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    let mut profile = OpProfile {
        op: "map-insert".to_string(),
        ..OpProfile::default()
    };
    for _ in 0..scale.preload {
        let k = rng.below(key_space);
        map.insert(&mut heap, &k, &value32(k).to_vec());
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    for _ in 0..scale.ops {
        let k = rng.below(key_space);
        let before = OpCounters::read(heap.nv().pm());
        map.insert(&mut heap, &k, &value32(k).to_vec());
        let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
        profile.record(f, s);
        let probe = rng.below(key_space);
        let _ = map.get(&mut heap, &probe); // charged probe, as in the Full run
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        Workload::Map,
        System::Mod,
        scale.ops,
        vec![profile],
    )
}

fn stm_map(scale: &ScaleConfig, mode: TxMode, sys: System, as_set: bool) -> RunReport {
    let (workload, label) = if as_set {
        (Workload::Set, "set-insert")
    } else {
        (Workload::Map, "map-insert")
    };
    let mut heap = TxHeap::format(bench_pm(scale), mode);
    let map = StmHashMap::create(&mut heap, scale.bucket_bits());
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = (scale.preload * 2).max(16);
    for _ in 0..scale.preload {
        let k = rng.below(key_space);
        let v = if as_set {
            Vec::new()
        } else {
            value32(k).to_vec()
        };
        map.insert(&mut heap, k, &v);
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let mut profile = OpProfile {
        op: label.to_string(),
        ..OpProfile::default()
    };
    for _ in 0..scale.ops {
        let k = rng.below(key_space);
        let v = if as_set {
            Vec::new()
        } else {
            value32(k).to_vec()
        };
        let before = OpCounters::read(heap.nv().pm());
        map.insert(&mut heap, k, &v);
        let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
        profile.record(f, s);
        let _ = map.contains_key(&mut heap, rng.below(key_space));
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        workload,
        sys,
        scale.ops,
        vec![profile],
    )
}

// ---------------------------------------------------------------------
// stack / queue
// ---------------------------------------------------------------------

fn mod_stack(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(bench_pm(scale));
    let s0 = PmStack::empty(heap.nv_mut());
    let stack = heap.publish(s0);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        heap.fase(|tx| tx.update(stack, |nv, s| s.push(nv, i)));
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let mut push = OpProfile {
        op: "stack-push".into(),
        ..OpProfile::default()
    };
    let mut pop = OpProfile {
        op: "stack-pop".into(),
        ..OpProfile::default()
    };
    for i in 0..scale.ops {
        let empty = heap.current(stack).is_empty(heap.nv_mut());
        let before = OpCounters::read(heap.nv().pm());
        if rng.percent(55) || empty {
            heap.fase(|tx| tx.update(stack, |nv, s| s.push(nv, i)));
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            push.record(f, s);
        } else {
            heap.fase(|tx| {
                tx.update_with(stack, |nv, s| match s.pop(nv) {
                    Some((ns, e)) => (ns, Some(e)),
                    None => (s, None),
                })
            });
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            pop.record(f, s);
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        Workload::Stack,
        System::Mod,
        scale.ops,
        vec![push, pop],
    )
}

fn stm_stack(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(bench_pm(scale), mode);
    let stack = StmStack::create(&mut heap);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        stack.push(&mut heap, i);
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let mut push = OpProfile {
        op: "stack-push".into(),
        ..OpProfile::default()
    };
    let mut pop = OpProfile {
        op: "stack-pop".into(),
        ..OpProfile::default()
    };
    for i in 0..scale.ops {
        let before = OpCounters::read(heap.nv().pm());
        if rng.percent(55) || stack.is_empty(&mut heap) {
            stack.push(&mut heap, i);
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            push.record(f, s);
        } else {
            stack.pop(&mut heap);
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            pop.record(f, s);
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        Workload::Stack,
        sys,
        scale.ops,
        vec![push, pop],
    )
}

fn mod_queue(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(bench_pm(scale));
    let q0 = PmQueue::empty(heap.nv_mut());
    let queue = heap.publish(q0);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        heap.fase(|tx| tx.update(queue, |nv, q| q.enqueue(nv, i)));
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let mut push = OpProfile {
        op: "queue-push".into(),
        ..OpProfile::default()
    };
    let mut pop = OpProfile {
        op: "queue-pop".into(),
        ..OpProfile::default()
    };
    for i in 0..scale.ops {
        let empty = heap.current(queue).is_empty(heap.nv_mut());
        let before = OpCounters::read(heap.nv().pm());
        if rng.percent(55) || empty {
            heap.fase(|tx| tx.update(queue, |nv, q| q.enqueue(nv, i)));
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            push.record(f, s);
        } else {
            heap.fase(|tx| {
                tx.update_with(queue, |nv, q| match q.dequeue(nv) {
                    Some((nq, e)) => (nq, Some(e)),
                    None => (q, None),
                })
            });
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            pop.record(f, s);
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        Workload::Queue,
        System::Mod,
        scale.ops,
        vec![push, pop],
    )
}

fn stm_queue(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(bench_pm(scale), mode);
    let queue = StmQueue::create(&mut heap);
    let mut rng = WorkloadRng::new(scale.seed);
    for i in 0..scale.preload {
        queue.enqueue(&mut heap, i);
    }
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let mut push = OpProfile {
        op: "queue-push".into(),
        ..OpProfile::default()
    };
    let mut pop = OpProfile {
        op: "queue-pop".into(),
        ..OpProfile::default()
    };
    for i in 0..scale.ops {
        let before = OpCounters::read(heap.nv().pm());
        if rng.percent(55) || queue.is_empty(&mut heap) {
            queue.enqueue(&mut heap, i);
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            push.record(f, s);
        } else {
            queue.dequeue(&mut heap);
            let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
            pop.record(f, s);
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        Workload::Queue,
        sys,
        scale.ops,
        vec![push, pop],
    )
}

// ---------------------------------------------------------------------
// vector / vec-swap
// ---------------------------------------------------------------------

fn mod_vector(scale: &ScaleConfig, swaps: bool) -> RunReport {
    mod_vector_on(bench_pm(scale), scale, swaps)
}

/// The vector microbenchmark on MOD with the fence-epoch flush cache
/// disabled — the paper's Fig 9 configuration (MOD as published elides
/// nothing). The reproduction-shape test compares this against PMDK:
/// with the cache on, MOD's redundant path-copy flushes dedup away and
/// the paper's vector-favours-PMDK ordering no longer holds at CI scale.
pub fn run_vector_mod_uncoalesced(scale: &ScaleConfig) -> RunReport {
    let cfg = PmemConfig {
        coalesce_flushes: false,
        ..PmemConfig::benchmarking(scale.capacity)
    };
    mod_vector_on(Pmem::new(cfg), scale, false)
}

fn mod_vector_on(pm: Pmem, scale: &ScaleConfig, swaps: bool) -> RunReport {
    let n = scale.preload.max(VECTOR_MIN_PRELOAD);
    let elems: Vec<u64> = (0..n).collect();
    let mut heap = ModHeap::create(pm);
    let v0 = PmVector::from_slice(heap.nv_mut(), &elems);
    let vec = heap.publish(v0);
    let mut rng = WorkloadRng::new(scale.seed);
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let (workload, label) = if swaps {
        (Workload::VecSwap, "vec-swap")
    } else {
        (Workload::Vector, "vector-write")
    };
    let mut profile = OpProfile {
        op: label.to_string(),
        ..OpProfile::default()
    };
    for _ in 0..scale.ops {
        let before = OpCounters::read(heap.nv().pm());
        if swaps {
            let i = rng.below(n);
            let j = rng.below(n);
            if i != j {
                // Fig 7b: two chained pure updates, one FASE, one fence.
                heap.fase(|tx| {
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
            heap.fase(|tx| tx.update(vec, |nv, v| v.update(nv, i, e)));
        }
        let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
        profile.record(f, s);
        if !swaps {
            let probe = rng.below(n);
            let _ = heap.current(vec).get(heap.nv_mut(), probe);
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        workload,
        System::Mod,
        scale.ops,
        vec![profile],
    )
}

fn stm_vector(scale: &ScaleConfig, mode: TxMode, sys: System, swaps: bool) -> RunReport {
    let n = scale.preload.max(VECTOR_MIN_PRELOAD);
    let elems: Vec<u64> = (0..n).collect();
    let mut heap = TxHeap::format(bench_pm(scale), mode);
    let vec = StmVector::create_from(&mut heap, &elems);
    let mut rng = WorkloadRng::new(scale.seed);
    let snap = Snapshot::take(heap.nv().pm(), heap.nv().stats().cumulative_alloc_bytes);
    let (workload, label) = if swaps {
        (Workload::VecSwap, "vec-swap")
    } else {
        (Workload::Vector, "vector-write")
    };
    let mut profile = OpProfile {
        op: label.to_string(),
        ..OpProfile::default()
    };
    for _ in 0..scale.ops {
        let before = OpCounters::read(heap.nv().pm());
        if swaps {
            let i = rng.below(n);
            let j = rng.below(n);
            vec.swap(&mut heap, i, j);
        } else {
            vec.update(&mut heap, rng.below(n), rng.next_u64());
        }
        let (f, s) = OpCounters::read(heap.nv().pm()).since(&before);
        profile.record(f, s);
        if !swaps {
            let _ = vec.get(&mut heap, rng.below(n));
        }
    }
    snap.finish(
        heap.nv().pm(),
        heap.nv().stats().cumulative_alloc_bytes,
        heap.nv().stats().live_bytes,
        workload,
        sys,
        scale.ops,
        vec![profile],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ScaleConfig {
        ScaleConfig::testing()
    }

    #[test]
    fn mod_map_reports_one_fence_per_insert() {
        let r = run_micro(Workload::Map, System::Mod, &scale());
        let p = &r.profiles[0];
        assert_eq!(p.op, "map-insert");
        assert!((p.fences_per_op() - 1.0).abs() < 1e-9, "Fig 10: MOD = 1");
        assert!(p.flushes_per_op() > 1.0);
    }

    #[test]
    fn pmdk_map_fences_in_band() {
        let r = run_micro(Workload::Map, System::Pmdk15, &scale());
        let f = r.profiles[0].fences_per_op();
        assert!((5.0..=11.0).contains(&f), "v1.5 got {f}");
        let r14 = run_micro(Workload::Map, System::Pmdk14, &scale());
        assert!(
            r14.profiles[0].fences_per_op() > f,
            "v1.4 must use more fences than v1.5"
        );
    }

    #[test]
    fn mod_beats_pmdk_on_map_time() {
        let m = run_micro(Workload::Map, System::Mod, &scale());
        let p = run_micro(Workload::Map, System::Pmdk15, &scale());
        assert!(
            m.total_ns() < p.total_ns(),
            "Fig 9 shape: MOD {:.0}ns vs PMDK {:.0}ns",
            m.ns_per_op(),
            p.ns_per_op()
        );
    }

    #[test]
    fn pmdk_beats_mod_on_vector_time() {
        // The paper's Fig 9 shape holds for MOD as published — no flush
        // cache. (With coalescing on, the default everywhere else, the
        // path copies' redundant flushes dedup away and MOD edges ahead
        // of PMDK on this workload at CI scale — asserted below.)
        let m = run_vector_mod_uncoalesced(&scale());
        let p = run_micro(Workload::Vector, System::Pmdk15, &scale());
        assert!(
            p.total_ns() < m.total_ns(),
            "Fig 9 shape: vector favours PMDK ({:.0} vs {:.0} ns/op)",
            p.ns_per_op(),
            m.ns_per_op()
        );
        let coalesced = run_micro(Workload::Vector, System::Mod, &scale());
        assert!(
            coalesced.total_ns() < m.total_ns(),
            "the flush cache must narrow MOD's vector gap ({:.0} vs {:.0} ns/op)",
            coalesced.ns_per_op(),
            m.ns_per_op()
        );
    }

    #[test]
    fn queue_and_stack_run_all_systems() {
        for w in [Workload::Queue, Workload::Stack] {
            for sys in System::all() {
                let r = run_micro(w, sys, &scale());
                assert_eq!(r.ops, scale().ops);
                assert!(r.fences > 0);
                assert_eq!(r.profiles.len(), 2);
            }
        }
    }

    #[test]
    fn vec_swap_runs_all_systems() {
        for sys in System::all() {
            let r = run_micro(Workload::VecSwap, sys, &scale());
            assert!(r.total_ns() > 0.0);
        }
    }

    #[test]
    fn mod_flushes_more_on_vector_than_pmdk() {
        // Fig 10: MOD vector writes flush many more lines.
        let m = run_micro(Workload::Vector, System::Mod, &scale());
        let p = run_micro(Workload::Vector, System::Pmdk15, &scale());
        assert!(m.profiles[0].flushes_per_op() > p.profiles[0].flushes_per_op());
    }
}
