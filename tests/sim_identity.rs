//! Golden oracle for the simulator's *charged-call order contract*.
//!
//! Everything the simulator reports — the WPQ drain calendar, the LRU
//! cache model, the f64 clock sums — depends on the exact sequence of
//! charged `read`/`write`/`clwb`/`sfence`/`charge_ns` calls (address,
//! length, order) and of allocator decisions. Volatile bookkeeping under
//! `core` (refcounts, line states, cache-sim storage, node decode
//! buffers) may change representation freely, but must never move one of
//! those calls. This test runs a fixed seeded script and compares a
//! fingerprint of everything observable against recorded constants
//! (all six last re-recorded at header generation 7, when vector inner
//! nodes began storing 32-bit children — fewer stored bytes and flushed
//! lines, other block placement, the same reads, writes and fences; in
//! the `*_HYBRID` ones, whose inner nodes live in the volatile range,
//! only the issued and avoided flushes and the volatile bytes moved):
//! an FNV hash over the `Pmem::trace()` stream, the full `PmStats`, the
//! L1/LLC `CacheStats` and the `TimeBreakdown` f64 bit patterns. A
//! representation change that perturbs any of them fails here, with the
//! new fingerprint printed next to the recorded one.

use mod_core::codec::KeyRepr;
use mod_core::{
    DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector, ModHeap, PersistPolicy,
    PmKey, SeededRoundRobin, SharedModHeap, Turn,
};
use mod_pmem::{PmStats, Pmem, PmemConfig, TraceEvent};
use std::sync::Arc;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn fnv(h: &mut u64, words: &[u64]) {
    for w in words {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a over the event stream: kind tag plus every address/length.
fn trace_hash(trace: &[TraceEvent]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for e in trace {
        match *e {
            TraceEvent::Alloc { addr, len } => fnv(&mut h, &[1, addr, len]),
            TraceEvent::Free { addr, len } => fnv(&mut h, &[2, addr, len]),
            TraceEvent::Write { addr, len } => fnv(&mut h, &[3, addr, len]),
            TraceEvent::Clwb { line } => fnv(&mut h, &[4, line]),
            TraceEvent::Fence => fnv(&mut h, &[5]),
            TraceEvent::CommitBegin => fnv(&mut h, &[6]),
            TraceEvent::CommitEnd => fnv(&mut h, &[7]),
        }
    }
    h
}

fn stats_line(s: &PmStats) -> String {
    let hist: Vec<String> = s
        .epoch_hist
        .iter()
        .map(|(k, v)| format!("{k}x{v}"))
        .collect();
    format!(
        "issued={} effective={} deduped={} avoided={} fences={} reads={} writes={} bytes={} \
         overlap={:#018x} residual={:#018x} volatile_bytes={} hist={}",
        s.flushes_issued,
        s.effective_flushes,
        s.flushes_deduped,
        s.flushes_avoided,
        s.fences,
        s.reads,
        s.writes,
        s.bytes_written,
        s.overlap_ns.to_bits(),
        s.residual_stall_ns.to_bits(),
        s.volatile_node_bytes,
        hist.join(",")
    )
}

/// Everything one `Pmem` timeline lets an observer see.
fn pm_fingerprint(pm: &Pmem) -> String {
    let (l1, llc, t) = (pm.cache_stats(), pm.llc_stats(), pm.clock().breakdown());
    format!(
        "trace={:#018x}/{}\n{}\nl1={}/{}/{} llc={}/{}/{}\nother={:#018x} flush={:#018x} log={:#018x}",
        trace_hash(pm.trace()),
        pm.trace().len(),
        stats_line(pm.stats()),
        l1.accesses,
        l1.hits,
        l1.misses,
        llc.accesses,
        llc.hits,
        llc.misses,
        t.other_ns.to_bits(),
        t.flush_ns.to_bits(),
        t.log_ns.to_bits(),
    )
}

fn value(x: u64) -> Vec<u8> {
    (0..32u64).map(|i| (x.wrapping_mul(31) + i) as u8).collect()
}

/// The owner-heap script: map upsert/remove/get, vector push/update,
/// queue push/pop through the Basic interface, then 3-root FASEs.
fn owner_script(policy: PersistPolicy) -> String {
    let mut h = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(policy).create();
    let vec: DurableVector<u64> = h.root(1).policy(policy).create();
    let queue: DurableQueue<u64> = h.root(2).policy(policy).create();
    let mut rng = 0x5EED_0001u64;
    let mut queued = 0u64;
    for i in 0..4000u64 {
        let r = xorshift(&mut rng);
        let key = r % 2048;
        match r >> 60 {
            0..=6 => map.insert(&mut h, &key, &value(r)),
            7..=8 => {
                map.remove(&mut h, &key);
            }
            9 => {
                // The charged read path exists only for Full roots (a
                // Hybrid root's directory entry is its spine head).
                if policy == PersistPolicy::Full {
                    let cur = h.current(map.root());
                    let _ = cur.get(h.nv_mut(), key);
                }
                let _ = map.get(&h, &key);
            }
            10..=11 => vec.push_back(&mut h, &r),
            12 => {
                let len = vec.len(&h);
                if len > 0 {
                    vec.update(&mut h, r % len, &i);
                }
            }
            13..=14 => {
                queue.enqueue(&mut h, &r);
                queued += 1;
            }
            _ => {
                if queued > 0 && queue.dequeue(&mut h).is_some() {
                    queued -= 1;
                }
            }
        }
    }
    for i in 0..24u64 {
        let r = xorshift(&mut rng);
        h.fase(|tx| {
            map.insert_in(tx, &(r % 2048), &value(i));
            vec.push_back_in(tx, &r);
            queue.enqueue_in(tx, &i);
            if i % 3 == 0 {
                map.remove_in(tx, &(r % 7));
                let _ = queue.dequeue_in(tx);
            }
        });
    }
    h.quiesce();
    let contents = format!(
        "map_len={} vec_len={} queue_len={}",
        map.len(&h),
        vec.len(&h),
        queue.len(&h)
    );
    format!("{contents}\n{}", pm_fingerprint(h.nv().pm()))
}

/// The same kinds of ops from two workers under the seeded turnstile
/// (each worker on its own roots plus one shared map), fingerprinting
/// the rolled-up worker counters, the simulated wall clock and the
/// commit-side timeline after the workers are absorbed.
fn turnstile_script(policy: PersistPolicy) -> String {
    const WORKERS: usize = 2;
    let shared = SharedModHeap::create(Pmem::new(PmemConfig::testing()), WORKERS);
    let ledger: DurableMap<u64, Vec<u8>> = shared.setup(|h| h.root(0).policy(policy).create());
    let vecs: Vec<DurableVector<u64>> = (0..WORKERS)
        .map(|w| shared.setup(|h| h.root(1 + w).policy(policy).create()))
        .collect();
    let queues: Vec<DurableQueue<u64>> = (0..WORKERS)
        .map(|w| shared.setup(|h| h.root(1 + WORKERS + w).policy(policy).create()))
        .collect();
    // Workers only point-update their vector: a worker heap cannot
    // migrate a full tail that an earlier batch already published.
    shared.setup(|h| {
        for v in &vecs {
            for i in 0..100u64 {
                v.push_back(h, &i);
            }
        }
    });
    shared.quiesce();
    let sched = Arc::new(SeededRoundRobin::new(7, WORKERS));
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (shared, sched) = (shared.clone(), Arc::clone(&sched));
            let (vec, queue) = (vecs[w], queues[w]);
            s.spawn(move || {
                let mut rng = 0x5EED_0100u64 + w as u64;
                for i in 0..96u64 {
                    assert_eq!(sched.step(w), Turn::Run);
                    let r = xorshift(&mut rng);
                    shared.fase(w, |tx| {
                        ledger.insert_in(tx, &(r % 96), &value(r));
                        vec.update_in(tx, r % 100, &i);
                        if i % 4 == 3 {
                            ledger.remove_in(tx, &(r % 11));
                        }
                        queue.enqueue_in(tx, &i);
                        if i % 2 == 1 {
                            let _ = queue.dequeue_in(tx);
                        }
                    });
                }
                shared.deregister(w);
                sched.finish(w);
            });
        }
    });
    shared.quiesce();
    let lanes = stats_line(&shared.lane_stats());
    let wall = shared.sim_wall_ns().to_bits();
    let pipe = shared.stats();
    let heap = shared.into_heap();
    format!(
        "fases={} batches={} ledger_len={}\nlanes: {lanes}\nwall={wall:#018x}\n{}",
        pipe.fases,
        pipe.batches,
        ledger.len(&heap),
        pm_fingerprint(heap.nv().pm())
    )
}

/// A hashed key folded into 61 substrate buckets, so 64-bit hash
/// collisions (several framed keys sharing one bucket blob) are the
/// common case instead of a once-in-2^64 event.
struct Folded(u64);

impl PmKey for Folded {
    const EXACT: bool = false;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: self.0 % 61,
            bytes: format!("key-{}", self.0).into_bytes(),
        }
    }
}

/// The second owner-heap script: everything the first one skips —
/// hashed keys with collisions (upsert, remove, charged and peek reads),
/// sets, the stack, vector `pop_back`/`swap`, and the no-op ops (absent
/// remove, empty pop, duplicate set insert), alone and inside
/// multi-root FASEs. Its constants were recorded at the commit *before*
/// the wrappers moved onto one generic handle, through the per-policy
/// bodies and the `get_mut`/`contains_key_mut`/`len_mut` charged
/// accessors that commit still had.
fn wide_script(policy: PersistPolicy) -> String {
    let mut h = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let names: DurableMap<Folded, Vec<u8>> = h.root(0).policy(policy).create();
    let tags: DurableSet<Folded> = h.root(1).policy(policy).create();
    let ids: DurableSet<u64> = h.root(2).policy(policy).create();
    let vec: DurableVector<u64> = h.root(3).policy(policy).create();
    let stack: DurableStack<u64> = h.root(4).policy(policy).create();
    let plain: DurableMap<u64, Vec<u8>> = h.root(5).policy(policy).create();
    let mut rng = 0x5EED_0002u64;
    let mut replies = 0u64;
    for i in 0..3000u64 {
        let r = xorshift(&mut rng);
        let key = Folded(r % 400);
        match r >> 60 {
            0..=2 => names.insert(&mut h, &key, &value(r)),
            3 => replies += names.remove(&mut h, &key) as u64,
            4 => {
                let got = names.get(&mut h, &key);
                assert_eq!(got, names.get(&h, &key));
                replies += got.is_some() as u64;
            }
            5 => replies += tags.insert(&mut h, &Folded(r % 96)) as u64,
            6 => {
                replies += tags.remove(&mut h, &Folded(r % 96)) as u64;
                replies += ids.insert(&mut h, &(r % 48)) as u64;
                replies += ids.remove(&mut h, &((r >> 8) % 48)) as u64;
            }
            7 => vec.push_back(&mut h, &r),
            8 if r & 0x100 == 0 => vec.push_back(&mut h, &i),
            8 => replies += vec.pop_back(&mut h).is_some() as u64,
            9 => {
                let len = vec.len(&h);
                if len >= 2 {
                    vec.swap(&mut h, r % len, (r >> 8) % len);
                }
            }
            10..=11 => stack.push(&mut h, &r),
            12..=13 => replies += stack.pop(&mut h).is_some() as u64,
            14 => {
                plain.insert(&mut h, &(r % 64), &value(i));
                replies += plain.remove(&mut h, &((r >> 8) % 128)) as u64;
                replies += plain.contains_key(&mut h, &(r % 128)) as u64;
                replies += names.contains_key(&mut h, &key) as u64;
                if i % 64 == 0 {
                    replies += plain.len(&mut h) + names.len(&mut h);
                }
            }
            _ => h.fase(|tx| {
                names.insert_in(tx, &key, &value(i));
                replies += names.remove_in(tx, &Folded((r >> 8) % 400)) as u64;
                replies += tags.insert_in(tx, &Folded(r % 96)) as u64;
                replies += tags.remove_in(tx, &Folded((r >> 16) % 96)) as u64;
                stack.push_in(tx, &i);
                if i % 2 == 0 {
                    replies += stack.pop_in(tx).is_some() as u64;
                    replies += stack.pop_in(tx).is_some() as u64;
                }
                replies += names.get(&*tx, &key).is_some() as u64;
            }),
        }
    }
    // Drain the vector across its leaf boundaries and two pops past
    // empty, then the stack likewise.
    for _ in 0..vec.len(&h) + 2 {
        replies += vec.pop_back(&mut h).is_some() as u64;
    }
    while stack.pop(&mut h).is_some() {
        replies += 1;
    }
    h.quiesce();
    let contents = format!(
        "replies={replies} names={} tags={} ids={} vec={} stack={} plain={}",
        names.len(&h),
        tags.len(&h),
        ids.len(&h),
        vec.len(&h),
        stack.len(&h),
        plain.len(&h)
    );
    format!("{contents}\n{}", pm_fingerprint(h.nv().pm()))
}

const OWNER_FULL: &str = "\
map_len=1056 vec_len=536 queue_len=299\n\
trace=0xb5f451e4ee38e8ba/105361\n\
issued=30820 effective=25677 deduped=5143 avoided=0 fences=3408 reads=79579 writes=42489 bytes=1136688 overlap=0x411d70c3851e90a6 residual=0x41400253400004fc volatile_bytes=0 hist=1x2,2x167,3x465,4x320,5x204,6x161,7x272,8x362,9x473,10x433,11x301,12x173,13x40,14x9,16x1,17x2,18x3,19x5,20x4,21x5,22x1,26x1,27x2,61x1,121x1\n\
l1=154588/150156/4432 llc=4432/2449/1983\n\
other=0x4131274700000000 flush=0x4140caed400004fc log=0x0000000000000000";
const OWNER_HYBRID: &str = "\
map_len=1056 vec_len=536 queue_len=299\n\
trace=0x52272d41caea0c22/38281\n\
issued=37648 effective=10295 deduped=69 avoided=27284 fences=3408 reads=7216 writes=14179 bytes=262356 overlap=0x410f38973333248f residual=0x413516b151eb86be volatile_bytes=1328528 hist=1x2,2x506,3x2452,4x424,7x9,8x13,9x2\n\
l1=23905/19188/4717 llc=4717/0/4717\n\
other=0x4136d51b00000000 flush=0x4135b78d51eb86be log=0x0000000000000000";
const TURNSTILE_FULL: &str = "\
fases=192 batches=96 ledger_len=80\n\
lanes: issued=5775 effective=5398 deduped=377 avoided=0 fences=304 reads=15269 writes=9580 bytes=219728 overlap=0x410a3070cccccca7 residual=0x4102138d999999c1 volatile_bytes=0 hist=1x3,2x1,3x7,4x84,5x67,6x27,7x14,8x5,25x1,28x4,29x3,30x7,31x4,32x7,33x15,34x14,35x11,36x9,37x2,38x6,39x5,40x4,42x2,53x1,69x1\n\
wall=0x41368d5bb3333338\n\
trace=0xbd968f332f5f7052/20940\n\
issued=1614 effective=1296 deduped=318 avoided=0 fences=304 reads=11102 writes=3382 bytes=57520 overlap=0x410a3070cccccca7 residual=0x4102138d999999c1 volatile_bytes=0 hist=1x3,2x1,3x7,4x84,5x67,6x27,7x14,8x5,25x1,28x4,29x3,30x7,31x4,32x7,33x15,34x14,35x11,36x9,37x2,38x6,39x5,40x4,42x2,53x1,69x1\n\
l1=16158/13937/2221 llc=2221/78/2143\n\
other=0x41252f6200000000 flush=0x4127eb5566666670 log=0x0000000000000000";
const TURNSTILE_HYBRID: &str = "\
fases=192 batches=96 ledger_len=80\n\
lanes: issued=7490 effective=1931 deduped=364 avoided=5195 fences=304 reads=2962 writes=4822 bytes=68481 overlap=0x40f38b71eb851ec9 residual=0x40fb4d49eb851eae volatile_bytes=243376 hist=1x3,2x201,4x2,5x2,10x1,11x35,13x37,14x10,15x12,16x1\n\
wall=0x4113c7aa7ae147ab\n\
trace=0xdd2c898d131eac19/9114\n\
issued=2057 effective=713 deduped=310 avoided=1034 fences=304 reads=2962 writes=2770 bytes=27285 overlap=0x40f38b71eb851ec9 residual=0x40fb4d49eb851eae volatile_bytes=46768 hist=1x3,2x201,4x2,5x2,10x1,11x35,13x37,14x10,15x12,16x1\n\
l1=5932/5707/225 llc=225/0/225\n\
other=0x40f358f000000000 flush=0x410de2dcf5c28f56 log=0x0000000000000000";
const WIDE_FULL: &str = "\
replies=2391 names=261 tags=44 ids=27 vec=0 stack=0 plain=43\n\
trace=0xd320bba1f5c51e45/96846\n\
issued=28296 effective=22572 deduped=5724 avoided=0 fences=3013 reads=94685 writes=39567 bytes=1080475 overlap=0x41197b3733330f0e residual=0x413ca445f0a3e010 volatile_bytes=0 hist=1x142,2x427,3x348,4x185,5x187,6x259,7x284,8x180,9x203,10x214,11x141,12x127,13x54,14x25,15x23,16x33,17x14,18x5,19x7,20x11,21x10,22x8,23x15,24x13,25x11,26x11,27x13,28x4,29x6,30x5,31x11,32x7,33x5,34x5,35x7,36x1,37x4,38x3,39x1,40x1,42x3\n\
l1=169731/168531/1200 llc=1200/544/656\n\
other=0x41237a5000000000 flush=0x413e04f5f0a3e010 log=0x0000000000000000";
const WIDE_HYBRID: &str = "\
replies=2391 names=261 tags=44 ids=27 vec=0 stack=0 plain=43\n\
trace=0x5ef6e38655e7068b/47767\n\
issued=37658 effective=11941 deduped=1003 avoided=24714 fences=3013 reads=17350 writes=18611 bytes=419317 overlap=0x4112310251eb792c residual=0x41341a2b7ae14a94 volatile_bytes=1206512 hist=1x4,2x1052,3x977,4x296,5x254,6x155,7x77,8x16,9x9,10x14,11x28,12x21,13x19,14x19,15x25,16x25,17x9,18x7,19x5,165x1\n\
l1=40272/32117/8155 llc=8155/3953/4202\n\
other=0x4137aaee00000000 flush=0x4134d4bf7ae14a94 log=0x0000000000000000";

#[test]
fn owner_heap_full_matches_recorded_fingerprint() {
    assert_eq!(owner_script(PersistPolicy::Full), OWNER_FULL);
}

#[test]
fn owner_heap_hybrid_matches_recorded_fingerprint() {
    assert_eq!(owner_script(PersistPolicy::Hybrid), OWNER_HYBRID);
}

#[test]
fn two_worker_turnstile_full_matches_recorded_fingerprint() {
    assert_eq!(turnstile_script(PersistPolicy::Full), TURNSTILE_FULL);
}

#[test]
fn two_worker_turnstile_hybrid_matches_recorded_fingerprint() {
    assert_eq!(turnstile_script(PersistPolicy::Hybrid), TURNSTILE_HYBRID);
}

#[test]
fn owner_heap_wide_script_full_matches_recorded_fingerprint() {
    assert_eq!(wide_script(PersistPolicy::Full), WIDE_FULL);
}

#[test]
fn owner_heap_wide_script_hybrid_matches_recorded_fingerprint() {
    assert_eq!(wide_script(PersistPolicy::Hybrid), WIDE_HYBRID);
}
