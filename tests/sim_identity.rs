//! Golden oracle for the simulator's *charged-call order contract*.
//!
//! Everything the simulator reports — the WPQ drain calendar, the LRU
//! cache model, the f64 clock sums — depends on the exact sequence of
//! charged `read`/`write`/`clwb`/`sfence`/`charge_ns` calls (address,
//! length, order) and of allocator decisions. Volatile bookkeeping under
//! `core` (refcounts, line states, cache-sim storage, node decode
//! buffers) may change representation freely, but must never move one of
//! those calls. This test runs a fixed seeded script and compares a
//! fingerprint of everything observable against constants recorded
//! **before** the paged side tables landed: an FNV hash over the
//! `Pmem::trace()` stream, the full `PmStats`, the L1/LLC `CacheStats`
//! and the `TimeBreakdown` f64 bit patterns. A representation change
//! that perturbs any of them fails here, with the new fingerprint
//! printed next to the recorded one.

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
trace=0x4ae77caa656f5621/111083\n\
issued=36487 effective=29634 deduped=6853 avoided=0 fences=3408 reads=92170 writes=42522 bytes=1527944 overlap=0x41226b6cae146373 residual=0x41410698d1eb8af8 volatile_bytes=0 hist=1x2,2x105,3x308,4x413,5x250,6x140,7x175,8x243,9x331,10x318,11x278,12x252,13x218,14x178,15x113,16x46,17x7,18x6,19x2,20x2,21x7,22x3,23x2,24x3,25x1,33x1,35x1,44x1,93x1,184x1\n\
l1=184662/179129/5533 llc=5533/3281/2252\n\
other=0x413358dd00000000 flush=0x4141ee1cd1eb8af8 log=0x0000000000000000";
const OWNER_HYBRID: &str = "\
map_len=1056 vec_len=536 queue_len=299\n\
trace=0xfd24cd39dd9ff232/37411\n\
issued=36735 effective=9464 deduped=30 avoided=27241 fences=3408 reads=7216 writes=14179 bytes=262356 overlap=0x410ed4f733332838 residual=0x41345d53f0a3d848 volatile_bytes=1743424 hist=1x2,2x1130,3x2003,4x249,7x11,8x7,9x6\n\
l1=23243/18211/5032 llc=5032/0/5032\n\
other=0x413844e400000000 flush=0x4134f133f0a3d848 log=0x0000000000000000";
const TURNSTILE_FULL: &str = "\
fases=192 batches=96 ledger_len=80\n\
lanes: issued=6293 effective=5855 deduped=438 avoided=0 fences=304 reads=20703 writes=9574 bytes=254712 overlap=0x410ed4028f5c28cf residual=0x4101e8411eb85217 volatile_bytes=0 hist=1x3,2x5,3x16,4x72,5x56,6x38,7x14,8x4,27x1,32x3,33x1,34x4,35x4,36x9,37x2,38x8,39x13,40x10,41x10,42x6,43x3,44x8,45x4,47x2,48x2,49x2,50x1,52x1,67x1,90x1\n\
wall=0x413b491523d70a43\n\
trace=0xa88fbdf9b6ff4c64/21448\n\
issued=1669 effective=1285 deduped=384 avoided=0 fences=304 reads=14592 writes=3382 bytes=60816 overlap=0x410ed4028f5c28cf residual=0x4101e8411eb85217 volatile_bytes=0 hist=1x3,2x5,3x16,4x72,5x56,6x38,7x14,8x4,27x1,32x3,33x1,34x4,35x4,36x9,37x2,38x8,39x13,40x10,41x10,42x6,43x3,44x8,45x4,47x2,48x2,49x2,50x1,52x1,67x1,90x1\n\
l1=19665/16861/2804 llc=2804/101/2703\n\
other=0x412a75ba00000000 flush=0x412c1c7047ae1486 log=0x0000000000000000";
const TURNSTILE_HYBRID: &str = "\
fases=192 batches=96 ledger_len=80\n\
lanes: issued=6008 effective=1587 deduped=110 avoided=4311 fences=304 reads=2962 writes=4822 bytes=68481 overlap=0x40f2ccd33333334e residual=0x40fb4d49eb851ea6 volatile_bytes=275904 hist=1x3,2x201,4x3,5x1,11x48,13x36,14x11,15x1\n\
wall=0x41146f527ae147a9\n\
trace=0x458323a16eb2d5b2/8516\n\
issued=1614 effective=711 deduped=110 avoided=793 fences=304 reads=2962 writes=2770 bytes=27285 overlap=0x40f2ccd33333334e residual=0x40fb4d49eb851ea6 volatile_bytes=50752 hist=1x3,2x201,4x3,5x1,11x48,13x36,14x11,15x1\n\
l1=5732/5504/228 llc=228/0/228\n\
other=0x40f384e000000000 flush=0x410f1c34f5c28f52 log=0x0000000000000000";
const WIDE_FULL: &str = "\
replies=2391 names=261 tags=44 ids=27 vec=0 stack=0 plain=43\n\
trace=0x89558d9ebdbea74d/99604\n\
issued=31054 effective=25208 deduped=5846 avoided=0 fences=3013 reads=103350 writes=39567 bytes=1281539 overlap=0x411c01191eb827fa residual=0x413e9e69851ec2c6 volatile_bytes=0 hist=1x143,2x322,3x283,4x286,5x188,6x159,7x267,8x201,9x178,10x172,11x168,12x121,13x117,14x101,15x46,16x34,17x28,18x28,19x8,20x5,21x7,22x3,23x6,24x8,25x8,26x7,27x12,28x12,29x7,30x9,31x11,32x6,33x5,34x12,35x7,36x6,37x9,38x7,39x2,40x3,41x1,42x4,43x2,44x2,45x1,50x1\n\
l1=191607/190211/1396 llc=1396/700/696\n\
other=0x4124b2d000000000 flush=0x41401424c28f6163 log=0x0000000000000000";
const WIDE_HYBRID: &str = "\
replies=2391 names=261 tags=44 ids=27 vec=0 stack=0 plain=43\n\
trace=0x45ac2024e2b53d9a/46317\n\
issued=34579 effective=10947 deduped=547 avoided=23085 fences=3013 reads=17350 writes=18611 bytes=419317 overlap=0x411176effffff5a4 residual=0x413385f68a3d7334 volatile_bytes=1477440 hist=1x4,2x1578,3x600,4x180,5x237,6x142,7x73,8x17,9x15,10x16,11x24,12x28,13x20,14x13,15x25,16x21,17x10,18x6,19x1,20x2,165x1\n\
l1=39498/31576/7922 llc=7922/3687/4235\n\
other=0x4137a62f00000000 flush=0x413431028a3d7334 log=0x0000000000000000";

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
