//! Persistent-session driver: write → die → reopen → verify.
//!
//! The first workload in this repo whose durable state outlives the
//! process. A *session* is a file-backed pool (see
//! [`mod_pmem::FileBackend`]) holding three structures updated together,
//! one FASE per operation:
//!
//! * `count` (vector, root 2) — `count[0] = k + 1` after op `k`;
//! * `map` (root 0) — op `k` overwrites slot `k % SLOTS` with a value
//!   derived from `(seed, k)`;
//! * `queue` (root 1) — op `k` enqueues `k` and, once `WINDOW` deep,
//!   dequeues `k - WINDOW`.
//!
//! Because all three commit in the *same* FASE, the entire durable state
//! is a pure function of the committed op count `n` — the shadow model.
//! [`verify_session`] recomputes that model from `n = count[0]` and
//! checks every map slot and the queue's shape against it: any torn FASE
//! (one structure updated without the others), lost update, or
//! resurrected partial batch fails verification. This is what the
//! kill-test asserts after `SIGKILL`ing a writer at a random point: all
//! committed FASEs present, all-or-nothing, torn journal tail discarded.
//!
//! A session pool is created in one of the [`SessionShape`]s — one
//! buffered journal, a 4-journal fsync set, or that set with hybrid
//! roots — and the kill batteries run each of them as its own test.
//! Everything after the create reads the shape back from the pool.

use mod_core::{DurableMap, DurableQueue, DurableVector, ModHeap, PersistPolicy};
use mod_pmem::{Durability, PmemConfig};
use std::io;
use std::path::Path;

/// Map slots (op `k` writes slot `k % SLOTS`, so the map stays bounded
/// however long the session runs).
pub const SLOTS: u64 = 512;
/// Sliding-window depth of the queue.
pub const WINDOW: u64 = 64;

/// The session's three typed roots.
#[derive(Clone, Copy)]
pub struct SessionRoots {
    /// Root 0: the slot map.
    pub map: DurableMap<u64, u64>,
    /// Root 1: the sliding-window queue.
    pub queue: DurableQueue<u64>,
    /// Root 2: the committed-op counter.
    pub count: DurableVector<u64>,
}

/// An open session: the recovered heap, its roots, and how many ops were
/// already committed by previous process lifetimes.
pub struct Session {
    /// The (file-backed) heap.
    pub heap: ModHeap,
    /// The typed roots.
    pub roots: SessionRoots,
    /// Committed ops recovered from the pool.
    pub committed: u64,
    /// The value seed this session writes with.
    pub seed: u64,
}

/// The value op `k` writes under seed `seed` (SplitMix64).
pub fn value_of(seed: u64, k: u64) -> u64 {
    let mut z = (seed ^ k).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op that last wrote map slot `j`, given `n` committed ops.
fn last_writer(n: u64, j: u64) -> Option<u64> {
    if j >= n.min(SLOTS) {
        return None;
    }
    Some(j + SLOTS * ((n - 1 - j) / SLOTS))
}

/// The shapes a session pool is created in: a closed list, one entry
/// per shape the kill batteries run. A shape is a create-time choice;
/// the pool records its journal shards (header) and its roots' policy
/// (root directory), so a reopen reads both back and takes only the
/// shape's durability from here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SessionShape {
    /// One journal appended [`Durability::Buffered`], [`PersistPolicy::Full`]
    /// roots: kill-grade. The shape the sim gate's session key measures.
    #[default]
    Buffered,
    /// Four shard journals appended [`Durability::Fsync`], Full roots:
    /// power-loss grade. The session heap is owner-mode, so every fence
    /// ends in a sync round, and recovery replays the shards in parallel.
    FsyncSet,
    /// [`SessionShape::FsyncSet`] with the three roots under
    /// [`PersistPolicy::Hybrid`]: interior index nodes stay volatile,
    /// only compact op records are journaled, and recovery rebuilds the
    /// index by replay. The verifier checks the same shadow model.
    FsyncSetHybrid,
}

impl SessionShape {
    /// Every shape, in the order the batteries list them.
    pub const ALL: [SessionShape; 3] = [
        SessionShape::Buffered,
        SessionShape::FsyncSet,
        SessionShape::FsyncSetHybrid,
    ];

    /// The pool configuration of this shape. Its `journal_shards`
    /// applies only when the pool is created.
    pub fn pool_config(self) -> PmemConfig {
        let (journal_shards, durability) = match self {
            SessionShape::Buffered => (1, Durability::Buffered),
            SessionShape::FsyncSet | SessionShape::FsyncSetHybrid => (4, Durability::Fsync),
        };
        PmemConfig {
            capacity: 1 << 26,
            crash_sim: false,
            trace: false,
            journal_shards,
            durability,
            ..PmemConfig::default()
        }
    }

    /// The policy this shape creates the three roots under.
    pub fn policy(self) -> PersistPolicy {
        match self {
            SessionShape::FsyncSetHybrid => PersistPolicy::Hybrid,
            SessionShape::Buffered | SessionShape::FsyncSet => PersistPolicy::Full,
        }
    }
}

/// Opens the session at `path`, creating and initializing a fresh pool
/// in `shape` if none exists; an existing pool is recovered (journal
/// replay + typed recovery) in whatever shape it was created and
/// verified against the shadow model before the session is handed back.
/// Only `shape`'s durability applies to an existing pool.
///
/// Initialization is atomic against kills
/// ([`ModHeap::open_or_create_file`]): a verifier only ever sees "no
/// session yet" or a fully initialized one.
pub fn open_session(path: &Path, shape: SessionShape, seed: u64) -> io::Result<Session> {
    let policy = shape.policy();
    let (mut heap, _report) = ModHeap::open_or_create_file(path, shape.pool_config(), |heap| {
        let _map: DurableMap<u64, u64> = heap.root(0).policy(policy).create();
        let _queue: DurableQueue<u64> = heap.root(1).policy(policy).create();
        let count: DurableVector<u64> = heap.root(2).policy(policy).create();
        count.push_back(heap, &0);
    })?;
    let (roots, committed) = check_session(&mut heap, seed).map_err(io::Error::other)?;
    Ok(Session {
        heap,
        roots,
        committed,
        seed,
    })
}

/// Applies committed ops `[session.committed, target)`, one FASE each.
/// Every op updates all three roots atomically; interleaved dequeues are
/// checked against the model as they come out.
pub fn run_ops(session: &mut Session, target: u64) {
    let SessionRoots { map, queue, count } = session.roots;
    while session.committed < target {
        let k = session.committed;
        let v = value_of(session.seed, k);
        session.heap.fase(|tx| {
            count.update_in(tx, 0, &(k + 1));
            map.insert_in(tx, &(k % SLOTS), &v);
            queue.enqueue_in(tx, &k);
            if k >= WINDOW {
                let out = queue.dequeue_in(tx);
                assert_eq!(out, Some(k - WINDOW), "window slid out of order");
            }
        });
        session.committed = k + 1;
    }
}

/// Verifies the pool at `path`, in whatever shape it was created,
/// against the shadow model and returns the committed op count. The
/// pool is opened read-only-and-discarded (a fresh recovery, exactly
/// what a restarted process would see). A
/// missing pool file is the legal "killed before initialization
/// finished" outcome (the init rename never ran) and verifies as 0
/// committed ops.
///
/// # Errors
///
/// Returns a description of the first invariant violation: a missing or
/// wrong map slot, a queue that disagrees with the counter, or a count
/// the other structures contradict — all the ways a torn FASE could
/// manifest.
pub fn verify_session(path: &Path, seed: u64) -> io::Result<u64> {
    if !path.exists() {
        return Ok(0);
    }
    let cfg = SessionShape::default().pool_config();
    let (mut heap, _report) = ModHeap::open_file(path, cfg)?;
    let (_roots, n) = check_session(&mut heap, seed).map_err(io::Error::other)?;
    Ok(n)
}

fn check_session(heap: &mut ModHeap, seed: u64) -> Result<(SessionRoots, u64), String> {
    let roots = SessionRoots {
        map: heap
            .root(0)
            .open()
            .map_err(|e| format!("map root: {e:?}"))?,
        queue: heap
            .root(1)
            .open()
            .map_err(|e| format!("queue root: {e:?}"))?,
        count: heap
            .root(2)
            .open()
            .map_err(|e| format!("count root: {e:?}"))?,
    };
    let heap = &*heap; // checks only peek: nothing below may charge the pool
    if roots.count.len(heap) != 1 {
        return Err("count vector must hold exactly one element".into());
    }
    let n = roots.count.get(heap, 0);
    // Map: every slot the model says exists, with the exact value the
    // last writer committed; no extras.
    let live = n.min(SLOTS);
    if roots.map.len(heap) != live {
        return Err(format!(
            "count says {n} ops but map holds {} slots (want {live})",
            roots.map.len(heap)
        ));
    }
    for j in 0..live {
        let k = last_writer(n, j).expect("j < live");
        match roots.map.get(heap, &j) {
            Some(v) if v == value_of(seed, k) => {}
            got => {
                return Err(format!(
                    "map slot {j}: want value of op {k}, got {got:?} (n = {n})"
                ))
            }
        }
    }
    // Queue: the window the model predicts for n.
    let want_len = n.min(WINDOW);
    let qlen = roots.queue.len(heap);
    let want_front = n.saturating_sub(WINDOW);
    if qlen != want_len || (n > 0 && roots.queue.peek(heap) != Some(want_front)) {
        return Err(format!(
            "queue shape (len {qlen}, front {:?}) contradicts count {n}",
            roots.queue.peek(heap)
        ));
    }
    Ok((roots, n))
}
