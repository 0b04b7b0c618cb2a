//! Hybrid persistence ("Don't Persist All"): per-root [`PersistPolicy`]
//! selection through the unified `heap.root(index)` builder. A hybrid
//! root keeps its interior nodes in a volatile index (never flushed,
//! never charged) and persists only a compact op spine; recovery rebuilds
//! the index by replaying the spine. These tests pin the API contract
//! (policy recorded durably and read back on open), the
//! equivalence contract (a hybrid root is observationally identical to a
//! full one), and the rebuild contract (crash → reopen → same contents).

use mod_core::codec::KeyRepr;
use mod_core::{
    CommitMode, DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector, Fase, ModHeap,
    OpenError, PersistPolicy, PmKey, RootKind, SharedModHeap,
};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use std::collections::{BTreeMap, BTreeSet};

fn mh() -> ModHeap {
    ModHeap::create(Pmem::new(PmemConfig::testing()))
}

fn lcg(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
    *rng >> 16
}

#[test]
fn builder_creates_and_reopens_all_five_kinds_hybrid() {
    let mut h = mh();
    let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let set: DurableSet<u64> = h.root(1).policy(PersistPolicy::Hybrid).create();
    let vec: DurableVector<u64> = h.root(2).policy(PersistPolicy::Hybrid).create();
    let stack: DurableStack<u64> = h.root(3).policy(PersistPolicy::Hybrid).create();
    let queue: DurableQueue<u64> = h.root(4).policy(PersistPolicy::Hybrid).create();

    map.insert(&mut h, &1, &b"one".to_vec());
    map.insert(&mut h, &2, &b"two".to_vec());
    assert!(map.remove(&mut h, &1));
    set.insert(&mut h, &10);
    vec.push_back(&mut h, &7);
    vec.push_back(&mut h, &8);
    vec.update(&mut h, 0, &70);
    stack.push(&mut h, &5);
    stack.push(&mut h, &6);
    queue.enqueue(&mut h, &11);
    queue.enqueue(&mut h, &12);

    assert_eq!(map.get(&h, &2), Some(b"two".to_vec()));
    assert_eq!(map.get(&h, &1), None);
    assert_eq!(map.len(&h), 1);
    assert!(set.contains(&h, &10));
    assert_eq!(vec.to_vec(&h), vec![70, 8]);
    assert_eq!(stack.peek(&h), Some(6));
    assert_eq!(stack.pop(&mut h), Some(6));
    assert_eq!(queue.peek(&h), Some(11));
    assert_eq!(queue.dequeue(&mut h), Some(11));

    // Reopen every handle through the builder without a restart.
    let map2: DurableMap<u64, Vec<u8>> = h.root(0).open().unwrap();
    assert_eq!(map2.policy(), PersistPolicy::Hybrid);
    assert_eq!(map2.get(&h, &2), Some(b"two".to_vec()));
    let vec2: DurableVector<u64> = h.root(2).open().unwrap();
    assert_eq!(vec2.to_vec(&h), vec![70, 8]);
}

#[test]
fn open_or_create_opens_existing_and_rejects_gaps() {
    let mut h = mh();
    let created: DurableMap<u64, u64> = h
        .root(0)
        .policy(PersistPolicy::Hybrid)
        .open_or_create()
        .unwrap();
    created.insert(&mut h, &1, &100);
    let reopened: DurableMap<u64, u64> = h
        .root(0)
        .policy(PersistPolicy::Hybrid)
        .open_or_create()
        .unwrap();
    assert_eq!(reopened.get(&h, &1), Some(100));
    let gap: Result<DurableMap<u64, u64>, _> = h.root(5).open_or_create();
    assert!(matches!(gap, Err(OpenError::NoSuchRoot { index: 5, .. })));
}

#[test]
fn open_takes_each_roots_policy_from_the_directory() {
    let mut h = mh();
    let hybrid: DurableMap<u64, u64> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let full: DurableMap<u64, u64> = h.root(1).create();
    hybrid.insert(&mut h, &1, &10);
    full.insert(&mut h, &2, &20);
    h.quiesce();
    let (mut h, _) = ModHeap::open(h.into_pm().crash_image(CrashPolicy::OnlyFenced));

    // No `.policy(..)`: each directory entry records its root's policy.
    let hybrid: DurableMap<u64, u64> = h.root(0).open().unwrap();
    let full: DurableMap<u64, u64> = h.root(1).open().unwrap();
    assert_eq!(hybrid.policy(), PersistPolicy::Hybrid);
    assert_eq!(hybrid.get(&h, &1), Some(10));
    assert_eq!(full.policy(), PersistPolicy::Full);
    assert_eq!(full.get(&h, &2), Some(20));
    // The builder's policy is a create-time choice: an open ignores it.
    let named_full: DurableMap<u64, u64> = h.root(0).policy(PersistPolicy::Full).open().unwrap();
    assert_eq!(named_full.policy(), PersistPolicy::Hybrid);

    // The kind and codec checks still guard a hybrid root.
    let as_queue: Result<DurableQueue<u64>, _> = h.root(0).open();
    assert!(
        matches!(
            as_queue,
            Err(OpenError::KindMismatch {
                index: 0,
                stored: RootKind::Map,
                expected: RootKind::Queue,
            })
        ),
        "{as_queue:?}"
    );
    let as_bytes: Result<DurableMap<u64, Vec<u8>>, _> = h.root(0).open();
    assert!(
        matches!(as_bytes, Err(OpenError::CodecMismatch { index: 0, .. })),
        "{as_bytes:?}"
    );
}

// ---------------------------------------------------------------------
// Conformance matrix
// ---------------------------------------------------------------------

/// A `String` key whose 64-bit hash is forced into five values, so most
/// keys share a bucket blob with others (the hashed-key collision path).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Name(String);

impl PmKey for Name {
    const EXACT: bool = false;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: self.0.bytes().map(u64::from).sum::<u64>() % 5,
            bytes: self.0.clone().into_bytes(),
        }
    }
}

#[derive(Clone, Copy)]
struct Roots {
    map: DurableMap<Name, Vec<u8>>,
    set: DurableSet<Name>,
    ids: DurableSet<u64>,
    vec: DurableVector<i64>,
    stack: DurableStack<u64>,
}

impl Roots {
    fn create(h: &mut ModHeap, policy: PersistPolicy) -> Roots {
        Roots {
            map: h.root(0).policy(policy).create(),
            set: h.root(1).policy(policy).create(),
            ids: h.root(2).policy(policy).create(),
            vec: h.root(3).policy(policy).create(),
            stack: h.root(4).policy(policy).create(),
        }
    }

    fn open(h: &mut ModHeap) -> Roots {
        Roots {
            map: h.root(0).open().unwrap(),
            set: h.root(1).open().unwrap(),
            ids: h.root(2).open().unwrap(),
            vec: h.root(3).open().unwrap(),
            stack: h.root(4).open().unwrap(),
        }
    }
}

/// The std reference the durable roots must be indistinguishable from.
#[derive(Default)]
struct Model {
    map: BTreeMap<Name, Vec<u8>>,
    set: BTreeSet<Name>,
    ids: BTreeSet<u64>,
    vec: Vec<i64>,
    stack: Vec<u64>,
}

/// Everything one read context can report about the four roots.
#[derive(Debug, PartialEq)]
struct Observed {
    map_get: Option<Vec<u8>>,
    map_has: bool,
    map_len: u64,
    map_empty: bool,
    set_has: bool,
    set_len: u64,
    ids: Vec<bool>,
    ids_len: u64,
    vec: Vec<i64>,
    vec_last: Option<i64>,
    stack_top: Option<u64>,
    stack_len: u64,
    stack_empty: bool,
}

impl Model {
    fn observed(&self, probe: &Name) -> Observed {
        Observed {
            map_get: self.map.get(probe).cloned(),
            map_has: self.map.contains_key(probe),
            map_len: self.map.len() as u64,
            map_empty: self.map.is_empty(),
            set_has: self.set.contains(probe),
            set_len: self.set.len() as u64,
            ids: (0..16).map(|i| self.ids.contains(&i)).collect(),
            ids_len: self.ids.len() as u64,
            vec: self.vec.clone(),
            vec_last: self.vec.last().copied(),
            stack_top: self.stack.last().copied(),
            stack_len: self.stack.len() as u64,
            stack_empty: self.stack.is_empty(),
        }
    }
}

/// Reads every accessor through one read context. A macro, not a
/// generic function: `$ctx` is re-evaluated per accessor, so `&mut h`
/// reborrows each time.
macro_rules! observe {
    ($ctx:expr, $r:expr, $probe:expr) => {{
        let len = $r.vec.len($ctx);
        Observed {
            map_get: $r.map.get($ctx, $probe),
            map_has: $r.map.contains_key($ctx, $probe),
            map_len: $r.map.len($ctx),
            map_empty: $r.map.is_empty($ctx),
            set_has: $r.set.contains($ctx, $probe),
            set_len: $r.set.len($ctx),
            ids: (0..16).map(|i| $r.ids.contains($ctx, &i)).collect(),
            ids_len: $r.ids.len($ctx),
            vec: $r.vec.to_vec($ctx),
            vec_last: (len > 0).then(|| $r.vec.get($ctx, len - 1)),
            stack_top: $r.stack.peek($ctx),
            stack_len: $r.stack.len($ctx),
            stack_empty: $r.stack.is_empty($ctx),
        }
    }};
}

/// Who runs the FASEs: the single-owner heap, or two worker shards of a
/// shared heap taking turns (so each worker keeps chaining from blocks
/// the other one published).
enum Engine {
    Owner(Box<ModHeap>),
    Shared(SharedModHeap),
}

impl Engine {
    fn fase<R>(&mut self, step: usize, f: impl FnMut(&mut Fase<'_>) -> R) -> R {
        match self {
            Engine::Owner(h) => h.fase(f),
            Engine::Shared(sh) => {
                let out = sh.fase(step % 2, f);
                sh.flush();
                out
            }
        }
    }

    /// (fences, effective flushes, bytes written) over every timeline.
    fn cost(&self) -> (u64, u64, u64) {
        let s = match self {
            Engine::Owner(h) => h.nv().pm().stats().clone(),
            Engine::Shared(sh) => sh.lane_stats(),
        };
        (s.fences, s.effective_flushes, s.bytes_written)
    }

    /// Checks every read context this engine has against the model.
    fn check_reads(&mut self, r: &Roots, model: &Model, probe: &Name, at: &str) {
        let want = model.observed(probe);
        match self {
            Engine::Owner(h) => {
                assert_eq!(observe!(&**h, r, probe), want, "heap read, {at}");
                assert_eq!(observe!(&mut **h, r, probe), want, "charged read, {at}");
            }
            Engine::Shared(sh) => {
                assert_eq!(sh.with(|h| observe!(h, r, probe)), want, "heap read, {at}");
                let view = sh.snapshot();
                assert_eq!(observe!(&view, r, probe), want, "snapshot read, {at}");
                drop(view);
                let charged = sh.setup(|h| observe!(&mut *h, r, probe));
                assert_eq!(charged, want, "charged read, {at}");
            }
        }
    }

    fn into_heap(self) -> ModHeap {
        match self {
            Engine::Owner(h) => *h,
            Engine::Shared(sh) => sh.into_heap(),
        }
    }
}

/// One cell of the matrix: a seeded op script against std models. Every
/// reply, every read context (heap, in-FASE read-your-writes, snapshot,
/// charged) and the contents after a crash must match the model; every
/// op the model says is a no-op must cost nothing at all.
fn run_conformance_cell(policy: PersistPolicy, shared: bool) {
    let at = |step: usize| {
        format!(
            "{policy:?}/{} step {step}",
            ["owner", "shared"][shared as usize]
        )
    };
    let mut h = mh();
    let r = Roots::create(&mut h, policy);
    let mut eng = if shared {
        Engine::Shared(SharedModHeap::from_heap(h, 2))
    } else {
        Engine::Owner(Box::new(h))
    };
    let mut m = Model::default();
    let name = |x: u64| Name(format!("name-{}", x % 40));

    // Appends from alternating workers, several per FASE, past two full
    // 32-element tails: each migration re-owns a leaf the *other* worker
    // published.
    for batch in 0..15usize {
        let elems: Vec<i64> = (0..5).map(|i| (batch * 5 + i) as i64 - 30).collect();
        eng.fase(batch, |tx| {
            elems.iter().for_each(|e| r.vec.push_back_in(tx, e))
        });
        m.vec.extend(&elems);
    }
    eng.check_reads(&r, &m, &name(0), "after the append batches");

    let mut rng = 0x5EED_1234u64;
    for step in 0..500usize {
        let key = name(lcg(&mut rng));
        let x = lcg(&mut rng);
        let op = x % 14;
        // What the model says this op is before it runs: a no-op must
        // add no fence, no flush and no store (a hybrid spine record
        // would be a store).
        let noop = match op {
            1 => !m.map.contains_key(&key),
            2 => m.set.contains(&key),
            3 => !m.set.contains(&key),
            5 => m.vec.is_empty(),
            6 => m.vec.len() < 2 || x / 14 % m.vec.len() as u64 == x / 196 % m.vec.len() as u64,
            8 => m.stack.is_empty(),
            9 => m.vec.is_empty(),
            12 => m.ids.contains(&(x / 14 % 16)),
            13 => !m.ids.contains(&(x / 14 % 16)),
            _ => false,
        };
        let before = eng.cost();
        match op {
            0 => {
                let v = vec![step as u8; (x / 14 % 80) as usize];
                eng.fase(step, |tx| r.map.insert_in(tx, &key, &v));
                m.map.insert(key.clone(), v);
            }
            1 => {
                let removed = eng.fase(step, |tx| r.map.remove_in(tx, &key));
                assert_eq!(removed, m.map.remove(&key).is_some(), "{}", at(step));
            }
            2 => {
                let fresh = eng.fase(step, |tx| r.set.insert_in(tx, &key));
                assert_eq!(fresh, m.set.insert(key.clone()), "{}", at(step));
            }
            3 => {
                let removed = eng.fase(step, |tx| r.set.remove_in(tx, &key));
                assert_eq!(removed, m.set.remove(&key), "{}", at(step));
            }
            4 => {
                let e = x as i64 - (1 << 40);
                eng.fase(step, |tx| r.vec.push_back_in(tx, &e));
                m.vec.push(e);
            }
            5 => {
                let popped = eng.fase(step, |tx| r.vec.pop_back_in(tx));
                assert_eq!(popped, m.vec.pop(), "{}", at(step));
            }
            6 if m.vec.len() >= 2 => {
                let len = m.vec.len() as u64;
                let (i, j) = (x / 14 % len, x / 196 % len);
                eng.fase(step, |tx| r.vec.swap_in(tx, i, j));
                m.vec.swap(i as usize, j as usize);
            }
            7 => {
                eng.fase(step, |tx| r.stack.push_in(tx, &x));
                m.stack.push(x);
            }
            8 => {
                let popped = eng.fase(step, |tx| r.stack.pop_in(tx));
                assert_eq!(popped, m.stack.pop(), "{}", at(step));
            }
            9 if !m.vec.is_empty() => {
                let i = x / 14 % m.vec.len() as u64;
                eng.fase(step, |tx| r.vec.update_in(tx, i, &(step as i64)));
                m.vec[i as usize] = step as i64;
            }
            12 => {
                let id = x / 14 % 16;
                let fresh = eng.fase(step, |tx| r.ids.insert_in(tx, &id));
                assert_eq!(fresh, m.ids.insert(id), "{}", at(step));
            }
            13 => {
                let id = x / 14 % 16;
                let removed = eng.fase(step, |tx| r.ids.remove_in(tx, &id));
                assert_eq!(removed, m.ids.remove(&id), "{}", at(step));
            }
            10 => {
                // One FASE over four roots, reading its own writes
                // back before anything is published.
                let v = vec![0xAB; 9];
                let seen = eng.fase(step, |tx| {
                    r.map.insert_in(tx, &key, &v);
                    r.set.insert_in(tx, &key);
                    r.vec.push_back_in(tx, &-1);
                    r.stack.push_in(tx, &x);
                    r.stack.push_in(tx, &(x + 1));
                    let popped = r.stack.pop_in(tx);
                    (popped, observe!(&*tx, r, &key))
                });
                m.map.insert(key.clone(), v);
                m.set.insert(key.clone());
                m.vec.push(-1);
                m.stack.push(x);
                assert_eq!(seen.0, Some(x + 1), "{}", at(step));
                assert_eq!(seen.1, m.observed(&key), "in-FASE read, {}", at(step));
            }
            _ => {
                // Read-only FASE, then every other read context.
                let seen = eng.fase(step, |tx| observe!(&*tx, r, &key));
                assert_eq!(seen, m.observed(&key), "in-FASE read, {}", at(step));
                assert_eq!(eng.cost(), before, "read-only FASE, {}", at(step));
                eng.check_reads(&r, &m, &key, &at(step));
            }
        }
        if noop {
            assert_eq!(
                eng.cost(),
                before,
                "no-op op {op} was not free, {}",
                at(step)
            );
        }
    }

    // Drain the vector back through both tail boundaries, and the stack;
    // popping either past empty is free.
    for step in 0..m.vec.len() + m.stack.len() {
        let (v, s) = eng.fase(step, |tx| (r.vec.pop_back_in(tx), r.stack.pop_in(tx)));
        assert_eq!((v, s), (m.vec.pop(), m.stack.pop()), "drain, {}", at(step));
    }
    let before = eng.cost();
    let past_empty = eng.fase(0, |tx| (r.vec.pop_back_in(tx), r.stack.pop_in(tx)));
    assert_eq!(past_empty, (None, None));
    assert_eq!(eng.cost(), before, "pops past empty were not free");
    eng.check_reads(&r, &m, &name(1), "after the drain");

    // Crash: whatever the engine and policy, recovery lands on the model.
    let mut h = eng.into_heap();
    h.quiesce();
    let (mut h2, _) = ModHeap::open(h.into_pm().crash_image(CrashPolicy::OnlyFenced));
    let r2 = Roots::open(&mut h2);
    assert_eq!(r2.map.policy(), policy, "the directory keeps the policy");
    for k in 0..40 {
        assert_eq!(
            observe!(&h2, r2, &name(k)),
            m.observed(&name(k)),
            "after recovery"
        );
    }
}

/// The conformance matrix: (Full, Hybrid) × (owner FASEs, two-worker
/// shared-heap FASEs) × every read context, one script, std models as
/// the oracle — so Full and Hybrid replies and contents match each other
/// because both match the model.
#[test]
fn full_and_hybrid_replies_and_contents_match_under_random_ops() {
    for policy in [PersistPolicy::Full, PersistPolicy::Hybrid] {
        for shared in [false, true] {
            run_conformance_cell(policy, shared);
        }
    }
}

/// The tentpole's point: interior updates on a hybrid root skip the
/// flush pipeline entirely, and the simulator proves it.
#[test]
fn hybrid_interior_updates_avoid_flushes() {
    let run = |policy: PersistPolicy| {
        let mut h = mh();
        let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(policy).create();
        for i in 0..256u64 {
            map.insert(&mut h, &i, &vec![i as u8; 32]);
        }
        let s = h.nv().pm().stats().clone();
        (
            s.effective_flushes,
            s.flushes_avoided,
            s.volatile_node_bytes,
        )
    };
    let (full_flushes, full_avoided, full_vbytes) = run(PersistPolicy::Full);
    let (hyb_flushes, hyb_avoided, hyb_vbytes) = run(PersistPolicy::Hybrid);
    assert_eq!(full_avoided, 0);
    assert_eq!(full_vbytes, 0);
    assert!(hyb_avoided > 0, "hybrid run avoided no flushes");
    assert!(hyb_vbytes > 0, "no bytes were ever volatile");
    assert!(
        hyb_flushes * 2 <= full_flushes,
        "expected >=2x flush reduction: full={full_flushes} hybrid={hyb_flushes}"
    );
}

/// Recovery contract: a crash drops the volatile index wholesale; reopen
/// replays the spine and rebuilds bit-identical logical contents.
#[test]
fn hybrid_roots_rebuild_after_crash() {
    let mut h = mh();
    let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let vec: DurableVector<u64> = h.root(1).policy(PersistPolicy::Hybrid).create();
    let stack: DurableStack<u64> = h.root(2).policy(PersistPolicy::Hybrid).create();
    let queue: DurableQueue<u64> = h.root(3).policy(PersistPolicy::Hybrid).create();
    let full: DurableMap<u64, u64> = h.root(4).create();

    let mut model = std::collections::BTreeMap::new();
    let mut rng = 0xC0FFEEu64;
    for _ in 0..300 {
        let k = lcg(&mut rng) % 64;
        if lcg(&mut rng) % 4 == 0 {
            map.remove(&mut h, &k);
            model.remove(&k);
        } else {
            let v = vec![(k % 251) as u8; 24];
            map.insert(&mut h, &k, &v);
            model.insert(k, v);
        }
    }
    for i in 0..40 {
        vec.push_back(&mut h, &(i * 3));
        stack.push(&mut h, &i);
        queue.enqueue(&mut h, &(i + 100));
    }
    vec.pop_back(&mut h);
    stack.pop(&mut h);
    queue.dequeue(&mut h);
    full.insert(&mut h, &9, &90);
    h.quiesce();

    let pm = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h2, _report) = ModHeap::open(pm);
    assert!(h2.rebuild_ns() > 0, "rebuild was never timed");

    let map: DurableMap<u64, Vec<u8>> = h2.root(0).open().unwrap();
    let vec: DurableVector<u64> = h2.root(1).open().unwrap();
    let stack: DurableStack<u64> = h2.root(2).open().unwrap();
    let queue: DurableQueue<u64> = h2.root(3).open().unwrap();
    let full: DurableMap<u64, u64> = h2.root(4).open().unwrap();

    assert_eq!(map.len(&h2), model.len() as u64);
    for (k, v) in &model {
        assert_eq!(map.get(&h2, k).as_ref(), Some(v), "rebuilt map at key {k}");
    }
    assert_eq!(
        vec.to_vec(&h2),
        (0..39).map(|i| i * 3).collect::<Vec<u64>>()
    );
    assert_eq!(stack.len(&h2), 39);
    assert_eq!(stack.peek(&h2), Some(38));
    assert_eq!(queue.len(&h2), 39);
    assert_eq!(queue.peek(&h2), Some(101));
    assert_eq!(
        full.get(&h2, &9),
        Some(90),
        "full root untouched by rebuild"
    );

    // The rebuilt index keeps absorbing writes and another crash cycle
    // still rebuilds.
    map.insert(&mut h2, &999, &b"post-crash".to_vec());
    h2.quiesce();
    let pm = h2.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h3, _) = ModHeap::open(pm);
    let map: DurableMap<u64, Vec<u8>> = h3.root(0).open().unwrap();
    assert_eq!(map.get(&h3, &999), Some(b"post-crash".to_vec()));
}

/// Spine compaction: a long history over a small live structure folds
/// into snapshot records instead of an unbounded op chain.
#[test]
fn compaction_bounds_spine_growth_and_rebuild_still_matches() {
    let mut h = mh();
    let vec: DurableVector<u64> = h.root(0).policy(PersistPolicy::Hybrid).create();
    // 4000 ops, live length never exceeds 4.
    for round in 0..1000u64 {
        for i in 0..4 {
            vec.push_back(&mut h, &(round * 7 + i));
        }
        for _ in 0..4 {
            vec.pop_back(&mut h);
        }
    }
    vec.push_back(&mut h, &42);
    h.quiesce();
    let live = h.nv().stats().live_bytes;
    assert!(
        live < 64 * 1024,
        "spine chain grew unboundedly: {live} live bytes after 8k ops on a 4-element vector"
    );
    let pm = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h2, _) = ModHeap::open(pm);
    let vec: DurableVector<u64> = h2.root(0).open().unwrap();
    assert_eq!(vec.to_vec(&h2), vec![42]);
}

/// Hybrid roots compose with the shared engine: worker FASEs stage
/// spine records through the same lanes, snapshot readers see the
/// committed volatile head, and recovery still rebuilds.
#[test]
fn shared_mode_hybrid_ops_snapshot_reads_and_rebuild() {
    let pm = Pmem::new(PmemConfig::testing());
    let shared = SharedModHeap::create(pm, 2);
    let map: DurableMap<u64, u64> =
        shared.setup(|h| h.root(0).policy(PersistPolicy::Hybrid).create());
    let m0 = map;
    let m1 = map;
    std::thread::scope(|s| {
        let h0 = shared.clone();
        let h1 = shared.clone();
        s.spawn(move || {
            for i in 0..50u64 {
                h0.fase(0, |tx| m0.insert_in(tx, &(2 * i), &i));
            }
        });
        s.spawn(move || {
            for i in 0..50u64 {
                h1.fase(1, |tx| m1.insert_in(tx, &(2 * i + 1), &i));
            }
        });
    });
    shared.flush();
    let view = shared.snapshot();
    assert_eq!(map.len(&view), 100);
    assert_eq!(map.get(&view, &0), Some(0));
    assert_eq!(map.get(&view, &99), Some(49));
    drop(view);
    let (mut h2, _) = ModHeap::open(
        shared
            .into_heap()
            .into_pm()
            .crash_image(CrashPolicy::OnlyFenced),
    );
    let map: DurableMap<u64, u64> = h2.root(0).open().unwrap();
    assert_eq!(map.len(&h2), 100);
    for i in 0..50 {
        assert_eq!(map.get(&h2, &(2 * i)), Some(i));
        assert_eq!(map.get(&h2, &(2 * i + 1)), Some(i));
    }
}

/// The journal half of the ablation: the memcached mix (16-byte keys,
/// 512-byte values, 95 % sets) against a *file-backed* pool journals
/// strictly fewer bytes per op under Hybrid — only compact spine records
/// reach the journal, never the rewritten interior nodes — and the run
/// elides real flushes.
#[test]
fn memcached_mix_journal_bytes_per_op_drop_under_hybrid() {
    let run = |policy: PersistPolicy, name: &str| {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "mod_hybrid_journal_{}_{name}.pool",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = PmemConfig {
            capacity: 1 << 26,
            crash_sim: false,
            ..PmemConfig::default()
        };
        let mut h = ModHeap::create_file(&path, cfg).unwrap();
        let map: DurableMap<[u8; 16], Vec<u8>> = h.root(0).policy(policy).create();
        let mut rng = 0xCACE_D00Du64;
        const OPS: u64 = 400;
        for op in 0..OPS {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(lcg(&mut rng) % 64).to_le_bytes());
            if lcg(&mut rng) % 100 < 95 {
                let mut v = vec![0u8; 512];
                v[..8].copy_from_slice(&op.to_le_bytes());
                map.insert(&mut h, &key, &v);
            } else {
                let _ = map.get(&h, &key);
            }
        }
        h.quiesce();
        let journal = h.nv().pm().backend_stats().journal_bytes;
        let avoided = h.nv().pm().stats().flushes_avoided;
        drop(h.close().unwrap());
        for member in mod_pmem::FileBackend::member_paths(&path, 1) {
            let _ = std::fs::remove_file(member);
        }
        (journal / OPS, avoided)
    };
    let (full_jpo, full_avoided) = run(PersistPolicy::Full, "full");
    let (hyb_jpo, hyb_avoided) = run(PersistPolicy::Hybrid, "hybrid");
    assert_eq!(full_avoided, 0);
    assert!(hyb_avoided > 0, "memcached hybrid run avoided no flushes");
    assert!(
        hyb_jpo < full_jpo,
        "journal bytes/op did not drop: full={full_jpo} hybrid={hyb_jpo}"
    );
}

/// Satellite 6 regression: when `wait_durable` times out and forces the
/// batch itself, the watermark it returns must come from the *resolved*
/// ticket — never a stale poll.
#[test]
fn wait_durable_forced_flush_returns_the_resolved_watermark() {
    let pm = Pmem::new(PmemConfig::testing());
    let shared = SharedModHeap::create_with(
        pm,
        2,
        CommitMode::Group {
            max_batch: 64,
            timeout: std::time::Duration::from_millis(5),
        },
    );
    let map: DurableMap<u64, u64> =
        shared.setup(|h| h.root(0).policy(PersistPolicy::Hybrid).create());
    // One lone worker stages; its peer never does, so only the forced
    // flush inside wait_durable can resolve the ticket.
    let (_, ticket) = shared.fase_ticketed(0, |tx| map.insert_in(tx, &1, &10));
    let ns = shared.wait_durable(&ticket);
    assert!(ticket.is_durable());
    assert_eq!(Some(ns), ticket.fence_ns());
    assert!(ns > 0.0);
}

/// A heap sharded straight after recovery serves snapshot reads of a
/// hybrid root before its first batch commits: the epoch-0 image shows
/// the rebuilt volatile index, not the durable spine record.
#[test]
fn snapshot_before_first_commit_reads_recovered_hybrid_root() {
    let mut h = mh();
    let map: DurableMap<u64, u64> = h.root(0).policy(PersistPolicy::Hybrid).create();
    map.insert(&mut h, &1, &10);
    let (h2, _) = ModHeap::open(h.into_pm().crash_image(CrashPolicy::OnlyFenced));
    let shared = SharedModHeap::from_heap(h2, 2);
    let view = shared.snapshot();
    assert_eq!(view.epoch(), 0, "no batch has committed yet");
    assert_eq!(map.get(&view, &1), Some(10));
}
