//! The persistent spine of hybrid ("Don't Persist All") roots.
//!
//! A hybrid root keeps its logical structure — every CHAMP/RRB interior
//! node — in the pool's volatile range: DRAM addressed right above the
//! pool's capacity (see `mod_pmem::Pmem::volatile_range`), where blocks
//! allocated under [`NvHeap::begin_volatile`] take the ordinary size
//! classes from a free space of their own. Nothing there is flushed,
//! journaled or charged to the simulated timeline, and a crash image or
//! a reopened pool starts with the range empty. What *is* persisted is a
//! small spine: a refcount-linked chain of **records**, one per
//! effectful operation, each carrying the operation's bytes (the value
//! leaf). The
//! root directory entry of a hybrid root points at the head record under
//! [`crate::RootKind::Spine`], so the policy itself is durable: a pool
//! opened by a binary that only understands full persistence refuses the
//! root with a typed error instead of traversing records as trie nodes.
//!
//! Commit cost per update: one record block (flushed, journaled), one
//! directory-entry swing — the interior path copies that dominate full
//! persistence are gone. Recovery replays the chain oldest-to-newest
//! through `SpineOp::apply` — the *same* function staging uses, under
//! either policy — to rebuild the volatile index, so replay and live
//! execution cannot drift.
//!
//! The chain is bounded by compaction: once a root has accumulated
//! `COMPACT_MIN_OPS` records and the chain is `COMPACT_FACTOR`×
//! longer than the structure's live size, the next record is written as
//! a `SpineOp::Snapshot` of the full logical state with no
//! predecessor, and the old chain is reclaimed through the normal
//! deferred-release path.

use crate::erased::{ErasedDs, RootKind};
use mod_alloc::NvHeap;
use mod_funcds::node::store_bytes;
use mod_funcds::{PmMap, PmQueue, PmStack, PmVector};
use mod_pmem::PmPtr;

/// Per-root persistence policy (the "Don't Persist All" switch).
///
/// Selected at create time through [`crate::RootBuilder::policy`] and
/// recorded durably in the root directory (a hybrid root's entry has
/// kind [`RootKind::Spine`]); a reopen reads it back from there and
/// needs no policy named.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Hash)]
pub enum PersistPolicy {
    /// Every node of the functional structure is flushed and journaled
    /// (the original MOD discipline). Bit-identical to pre-policy pools.
    #[default]
    Full,
    /// Interior nodes live in the pool's volatile range; only per-op spine
    /// records (value leaves + op tags) are flushed and journaled, and
    /// recovery rebuilds the index by replaying the spine.
    Hybrid,
}

/// Minimum chain length before compaction is considered.
pub(crate) const COMPACT_MIN_OPS: u64 = 64;

/// Chain-length-to-live-size ratio that triggers compaction.
pub(crate) const COMPACT_FACTOR: u64 = 8;

/// One effectful operation on a hybrid root, as persisted in a spine
/// record and replayed at recovery. `Map` ops serve both `DurableMap`
/// and `DurableSet` (sets are maps with empty values); the word-element
/// ops serve vector/stack/queue.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum SpineOp {
    /// Insert-or-overwrite of one substrate key (value = framed bytes).
    MapInsert { key: u64, val: Vec<u8> },
    /// Removal of one substrate key.
    MapRemove { key: u64 },
    /// Append one element.
    VecPush(u64),
    /// Point-write element `index`.
    VecSet { index: u64, elem: u64 },
    /// Remove the last element.
    VecPop,
    /// Push one element.
    StackPush(u64),
    /// Pop the top element.
    StackPop,
    /// Enqueue one element.
    QueueEnq(u64),
    /// Dequeue the head element.
    QueueDeq,
    /// Full logical state (compaction point / genesis): the chain before
    /// this record is not needed for recovery.
    Snapshot(SpineState),
}

/// The full logical contents of a hybrid root, for snapshot records.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum SpineState {
    /// Map entries, unordered.
    Map(Vec<(u64, Vec<u8>)>),
    /// Word elements: vector front-to-back, stack top-to-bottom, queue
    /// front-to-back (each kind's `peek_to_vec` order).
    Words(Vec<u64>),
}

const OP_MAP_INSERT: u8 = 1;
const OP_MAP_REMOVE: u8 = 2;
const OP_VEC_PUSH: u8 = 3;
const OP_VEC_SET: u8 = 4;
const OP_VEC_POP: u8 = 5;
const OP_STACK_PUSH: u8 = 6;
const OP_STACK_POP: u8 = 7;
const OP_QUEUE_ENQ: u8 = 8;
const OP_QUEUE_DEQ: u8 = 9;
const OP_SNAPSHOT: u8 = 10;

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.bytes[self.at..self.at + 8].try_into().unwrap());
        self.at += 8;
        v
    }

    fn blob(&mut self) -> Vec<u8> {
        let len = u32::from_le_bytes(self.bytes[self.at..self.at + 4].try_into().unwrap()) as usize;
        self.at += 4;
        let v = self.bytes[self.at..self.at + len].to_vec();
        self.at += len;
        v
    }
}

impl SpineOp {
    /// Serializes the op for a spine record.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            SpineOp::MapInsert { key, val } => {
                out.push(OP_MAP_INSERT);
                push_u64(&mut out, *key);
                push_blob(&mut out, val);
            }
            SpineOp::MapRemove { key } => {
                out.push(OP_MAP_REMOVE);
                push_u64(&mut out, *key);
            }
            SpineOp::VecPush(e) => {
                out.push(OP_VEC_PUSH);
                push_u64(&mut out, *e);
            }
            SpineOp::VecSet { index, elem } => {
                out.push(OP_VEC_SET);
                push_u64(&mut out, *index);
                push_u64(&mut out, *elem);
            }
            SpineOp::VecPop => out.push(OP_VEC_POP),
            SpineOp::StackPush(e) => {
                out.push(OP_STACK_PUSH);
                push_u64(&mut out, *e);
            }
            SpineOp::StackPop => out.push(OP_STACK_POP),
            SpineOp::QueueEnq(e) => {
                out.push(OP_QUEUE_ENQ);
                push_u64(&mut out, *e);
            }
            SpineOp::QueueDeq => out.push(OP_QUEUE_DEQ),
            SpineOp::Snapshot(state) => {
                out.push(OP_SNAPSHOT);
                match state {
                    SpineState::Map(entries) => {
                        push_u64(&mut out, entries.len() as u64);
                        for (k, v) in entries {
                            push_u64(&mut out, *k);
                            push_blob(&mut out, v);
                        }
                    }
                    SpineState::Words(words) => {
                        push_u64(&mut out, words.len() as u64);
                        for w in words {
                            push_u64(&mut out, *w);
                        }
                    }
                }
            }
        }
        out
    }

    /// Deserializes a record's op bytes. `kind` disambiguates the
    /// snapshot payload (maps carry blobs, the word kinds carry words).
    ///
    /// # Panics
    ///
    /// Panics on a malformed record (corruption — records live behind
    /// the same fence-and-journal discipline as every committed block).
    pub(crate) fn decode(kind: RootKind, bytes: &[u8]) -> SpineOp {
        let mut r = Reader {
            bytes: &bytes[1..],
            at: 0,
        };
        match bytes[0] {
            OP_MAP_INSERT => SpineOp::MapInsert {
                key: r.u64(),
                val: r.blob(),
            },
            OP_MAP_REMOVE => SpineOp::MapRemove { key: r.u64() },
            OP_VEC_PUSH => SpineOp::VecPush(r.u64()),
            OP_VEC_SET => SpineOp::VecSet {
                index: r.u64(),
                elem: r.u64(),
            },
            OP_VEC_POP => SpineOp::VecPop,
            OP_STACK_PUSH => SpineOp::StackPush(r.u64()),
            OP_STACK_POP => SpineOp::StackPop,
            OP_QUEUE_ENQ => SpineOp::QueueEnq(r.u64()),
            OP_QUEUE_DEQ => SpineOp::QueueDeq,
            OP_SNAPSHOT => {
                let n = r.u64() as usize;
                SpineOp::Snapshot(match kind {
                    RootKind::Map => SpineState::Map((0..n).map(|_| (r.u64(), r.blob())).collect()),
                    _ => SpineState::Words((0..n).map(|_| r.u64()).collect()),
                })
            }
            tag => panic!("corrupt spine record op tag {tag}"),
        }
    }

    /// Applies the op to the version rooted at `cur`:
    /// `Some((new_root, taken))` if it took effect — `taken` is the
    /// element a pop or dequeue removed, 0 for every other op — or `None`
    /// for a no-op (absent key, empty structure), which allocates
    /// nothing and leaves `cur` the current version.
    ///
    /// This is the one definition of what an op does to a structure.
    /// Full staging runs it on the durable heap inside
    /// [`crate::Fase::update_with`]; hybrid staging and recovery replay
    /// run it on the volatile index, inside the volatile allocation
    /// scope — so the three cannot drift. `cur` is ignored (and may be
    /// 0) for `SpineOp::Snapshot`, which rebuilds from its own payload.
    pub(crate) fn apply(&self, nv: &mut NvHeap, kind: RootKind, cur: u64) -> Option<(u64, u64)> {
        if let SpineOp::Snapshot(state) = self {
            return Some((build_snapshot(nv, kind, state), 0));
        }
        let cur = PmPtr::from_addr(cur);
        let (new, taken) = match (kind, self) {
            (RootKind::Map, SpineOp::MapInsert { key, val }) => {
                (PmMap::from_root(cur).insert(nv, *key, val).root(), 0)
            }
            (RootKind::Map, SpineOp::MapRemove { key }) => {
                let (m, removed) = PmMap::from_root(cur).remove(nv, *key);
                if !removed {
                    return None;
                }
                (m.root(), 0)
            }
            (RootKind::Vector, SpineOp::VecPush(e)) => {
                (PmVector::from_root(cur).push_back(nv, *e).root(), 0)
            }
            (RootKind::Vector, SpineOp::VecSet { index, elem }) => {
                (PmVector::from_root(cur).update(nv, *index, *elem).root(), 0)
            }
            (RootKind::Vector, SpineOp::VecPop) => {
                let (v, e) = PmVector::from_root(cur).pop_back(nv)?;
                (v.root(), e)
            }
            (RootKind::Stack, SpineOp::StackPush(e)) => {
                (PmStack::from_root(cur).push(nv, *e).root(), 0)
            }
            (RootKind::Stack, SpineOp::StackPop) => {
                let (s, e) = PmStack::from_root(cur).pop(nv)?;
                (s.root(), e)
            }
            (RootKind::Queue, SpineOp::QueueEnq(e)) => {
                (PmQueue::from_root(cur).enqueue(nv, *e).root(), 0)
            }
            (RootKind::Queue, SpineOp::QueueDeq) => {
                let (q, e) = PmQueue::from_root(cur).dequeue(nv)?;
                (q.root(), e)
            }
            (kind, op) => panic!("spine op {op:?} on a {kind:?} root"),
        };
        Some((new.addr(), taken))
    }
}

/// Builds a fresh volatile version from a snapshot payload, releasing
/// every intermediate version the chained construction creates.
fn build_snapshot(nv: &mut NvHeap, kind: RootKind, state: &SpineState) -> u64 {
    match (kind, state) {
        (RootKind::Map, SpineState::Map(entries)) => {
            let mut m = PmMap::empty(nv);
            for (k, v) in entries {
                let next = m.insert(nv, *k, v);
                m.release(nv);
                m = next;
            }
            m.root().addr()
        }
        (RootKind::Vector, SpineState::Words(words)) => {
            PmVector::from_slice(nv, words).root().addr()
        }
        (RootKind::Stack, SpineState::Words(words)) => {
            // Stored top-to-bottom; push bottom-up to reproduce it.
            let mut s = PmStack::empty(nv);
            for w in words.iter().rev() {
                let next = s.push(nv, *w);
                s.release(nv);
                s = next;
            }
            s.root().addr()
        }
        (RootKind::Queue, SpineState::Words(words)) => {
            let mut q = PmQueue::empty(nv);
            for w in words {
                let next = q.enqueue(nv, *w);
                q.release(nv);
                q = next;
            }
            q.root().addr()
        }
        (kind, state) => panic!("spine snapshot {state:?} for a {kind:?} root"),
    }
}

/// Captures the full logical state of the volatile version at `v` as a
/// snapshot op (compaction and genesis records).
pub(crate) fn state_of(nv: &NvHeap, kind: RootKind, v: u64) -> SpineOp {
    let v = PmPtr::from_addr(v);
    SpineOp::Snapshot(match kind {
        RootKind::Map => SpineState::Map(PmMap::from_root(v).to_vec(nv)),
        RootKind::Vector => SpineState::Words(PmVector::from_root(v).to_vec(nv)),
        RootKind::Stack => SpineState::Words(PmStack::from_root(v).to_vec(nv)),
        RootKind::Queue => SpineState::Words(PmQueue::from_root(v).to_vec(nv)),
        kind => panic!("no spine state for {kind:?}"),
    })
}

/// Live element count of the volatile version (compaction trigger).
pub(crate) fn live_len(nv: &NvHeap, kind: RootKind, v: u64) -> u64 {
    let v = PmPtr::from_addr(v);
    match kind {
        RootKind::Map => PmMap::from_root(v).len(nv),
        RootKind::Vector => PmVector::from_root(v).len(nv),
        RootKind::Stack => PmStack::from_root(v).len(nv),
        RootKind::Queue => PmQueue::from_root(v).len(nv),
        kind => panic!("no spine length for {kind:?}"),
    }
}

// ---------------------------------------------------------------------
// Record blocks
// ---------------------------------------------------------------------
//
// Layout (payload words):
//   [0] prev record pointer (0 terminates the chain), left a full
//       8-byte address where nodes store a 32-bit block index
//       (`mod_alloc::pack_ptr`)
//   [1] meta: logical RootKind in bits 56..64, ops-since-snapshot count
//       in bits 0..56 (snapshot records reset it to 0)
//   [2] op byte length
//   [3..] op bytes
//
// A record owns one reference to its predecessor, exactly like a trie
// node owns its children, so the existing deferred-release and recovery
// GC machinery reclaims chains with no special cases beyond the
// dispatch in `ErasedDs`.

const META_KIND_SHIFT: u64 = 56;
const META_COUNT_MASK: u64 = (1 << META_KIND_SHIFT) - 1;

/// Allocates, writes, and flushes one spine record; takes a reference on
/// `prev` (the new record and the superseded head both own it until the
/// superseded head is reclaimed).
pub(crate) fn store_record(
    nv: &mut NvHeap,
    prev: PmPtr,
    kind: RootKind,
    count: u64,
    op: &SpineOp,
) -> PmPtr {
    debug_assert!(count <= META_COUNT_MASK);
    let bytes = op.encode();
    let mut image = Vec::with_capacity(24 + bytes.len());
    for word in [
        prev.addr(),
        (kind.to_u64() << META_KIND_SHIFT) | count,
        bytes.len() as u64,
    ] {
        image.extend_from_slice(&word.to_le_bytes());
    }
    image.extend_from_slice(&bytes);
    let rec = store_bytes(nv, &image);
    if !prev.is_null() {
        nv.rc_inc(prev);
    }
    rec
}

/// Reads a record's links and metadata (not the op bytes).
pub(crate) fn peek_record_meta(nv: &NvHeap, rec: PmPtr) -> (PmPtr, RootKind, u64) {
    let prev = PmPtr::from_addr(nv.peek_u64(rec.addr()));
    let meta = nv.peek_u64(rec.addr() + 8);
    (
        prev,
        RootKind::from_u64(meta >> META_KIND_SHIFT),
        meta & META_COUNT_MASK,
    )
}

/// Reads a record's op bytes.
pub(crate) fn peek_record_op(nv: &NvHeap, rec: PmPtr) -> Vec<u8> {
    let len = nv.peek_u64(rec.addr() + 16);
    nv.peek_vec(rec.addr() + 24, len)
}

/// Replays a spine chain into a fresh volatile version: collects the
/// records newest-to-oldest, then applies oldest-to-newest through the
/// same `SpineOp::apply` staging uses. Returns the rebuilt version under
/// the chain's logical kind.
pub(crate) fn replay(nv: &mut NvHeap, head: PmPtr) -> ErasedDs {
    let mut ops = Vec::new();
    let mut kind = None;
    let mut cur = head;
    while !cur.is_null() {
        let (prev, k, _) = peek_record_meta(nv, cur);
        kind.get_or_insert(k);
        debug_assert_eq!(kind, Some(k), "spine chain changes kind mid-way");
        ops.push(peek_record_op(nv, cur));
        cur = prev;
    }
    let kind = kind.expect("empty spine chain");
    nv.begin_volatile();
    let mut v = ErasedDs {
        kind,
        root: PmPtr::NULL,
    };
    for bytes in ops.iter().rev() {
        let op = SpineOp::decode(kind, bytes);
        // Staging never records a no-op, so a record that changes
        // nothing (a pop on an empty structure, a removal of an absent
        // key) means the chain is corrupt.
        let (next, _) = op
            .apply(nv, kind, v.root.addr())
            .unwrap_or_else(|| panic!("spine record {op:?} is a no-op on its predecessor"));
        if !v.root.is_null() {
            v.release(nv);
        }
        v.root = PmPtr::from_addr(next);
    }
    nv.end_volatile();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::PoolKind;
    use mod_alloc::Visit;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn ops_roundtrip_through_encoding() {
        let ops = [
            (
                RootKind::Map,
                SpineOp::MapInsert {
                    key: 7,
                    val: b"abc".to_vec(),
                },
            ),
            (RootKind::Map, SpineOp::MapRemove { key: 9 }),
            (RootKind::Vector, SpineOp::VecPush(11)),
            (RootKind::Vector, SpineOp::VecSet { index: 2, elem: 5 }),
            (RootKind::Vector, SpineOp::VecPop),
            (RootKind::Stack, SpineOp::StackPush(13)),
            (RootKind::Stack, SpineOp::StackPop),
            (RootKind::Queue, SpineOp::QueueEnq(17)),
            (RootKind::Queue, SpineOp::QueueDeq),
            (
                RootKind::Map,
                SpineOp::Snapshot(SpineState::Map(vec![(1, b"x".to_vec()), (2, Vec::new())])),
            ),
            (
                RootKind::Stack,
                SpineOp::Snapshot(SpineState::Words(vec![3, 2, 1])),
            ),
        ];
        for (kind, op) in ops {
            assert_eq!(SpineOp::decode(kind, &op.encode()), op, "{op:?}");
        }
    }

    #[test]
    fn records_chain_and_replay() {
        let mut nv = heap();
        let genesis = store_record(
            &mut nv,
            PmPtr::NULL,
            RootKind::Map,
            0,
            &SpineOp::Snapshot(SpineState::Map(Vec::new())),
        );
        let r1 = store_record(
            &mut nv,
            genesis,
            RootKind::Map,
            1,
            &SpineOp::MapInsert {
                key: 1,
                val: b"one".to_vec(),
            },
        );
        let r2 = store_record(
            &mut nv,
            r1,
            RootKind::Map,
            2,
            &SpineOp::MapInsert {
                key: 2,
                val: b"two".to_vec(),
            },
        );
        let (prev, kind, count) = peek_record_meta(&nv, r2);
        assert_eq!((prev, kind, count), (r1, RootKind::Map, 2));
        let v = replay(&mut nv, r2);
        assert_eq!(v.kind, RootKind::Map);
        let m = PmMap::from_root(v.root);
        assert_eq!(m.get(&nv, 1), Some(b"one".to_vec()));
        assert_eq!(m.get(&nv, 2), Some(b"two".to_vec()));
        assert_eq!(m.len(&nv), 2);
    }

    #[test]
    fn replay_applies_removals_and_word_ops() {
        let mut nv = heap();
        let g = store_record(
            &mut nv,
            PmPtr::NULL,
            RootKind::Queue,
            0,
            &SpineOp::Snapshot(SpineState::Words(vec![5, 6])),
        );
        let r1 = store_record(&mut nv, g, RootKind::Queue, 1, &SpineOp::QueueEnq(7));
        let r2 = store_record(&mut nv, r1, RootKind::Queue, 2, &SpineOp::QueueDeq);
        let q = PmQueue::from_root(replay(&mut nv, r2).root);
        assert_eq!(q.to_vec(&nv), vec![6, 7]);
    }

    #[test]
    fn snapshot_rebuild_matches_all_kinds() {
        let mut nv = heap();
        nv.begin_volatile();
        let mut m = PmMap::empty(&mut nv);
        for i in 0..10u64 {
            let next = m.insert(&mut nv, i, format!("v{i}").as_bytes());
            m.release(&mut nv);
            m = next;
        }
        let st = PmStack::empty(&mut nv).push(&mut nv, 1).push(&mut nv, 2);
        nv.end_volatile();
        for (kind, v) in [
            (RootKind::Map, m.root().addr()),
            (RootKind::Stack, st.root().addr()),
        ] {
            let snap = state_of(&nv, kind, v);
            nv.begin_volatile();
            let (rebuilt, _) = snap.apply(&mut nv, kind, 0).unwrap();
            nv.end_volatile();
            match kind {
                RootKind::Map => {
                    let r = PmMap::from_root(PmPtr::from_addr(rebuilt));
                    let mut a = r.to_vec(&nv);
                    let mut b = m.to_vec(&nv);
                    a.sort();
                    b.sort();
                    assert_eq!(a, b);
                }
                _ => {
                    let r = PmStack::from_root(PmPtr::from_addr(rebuilt));
                    assert_eq!(r.to_vec(&nv), st.to_vec(&nv));
                }
            }
        }
    }

    #[test]
    fn release_reclaims_whole_chains_iteratively() {
        let mut nv = heap();
        let mut head = store_record(
            &mut nv,
            PmPtr::NULL,
            RootKind::Vector,
            0,
            &SpineOp::Snapshot(SpineState::Words(Vec::new())),
        );
        // Long enough to smash the stack if release recursed.
        for i in 1..=4000u64 {
            let next = store_record(&mut nv, head, RootKind::Vector, i, &SpineOp::VecPush(i));
            // The superseded head's reference moves to the new record;
            // drop the "directory" reference the old head carried.
            nv.walk(Visit::Release, head, PoolKind::Spine);
            head = next;
        }
        assert_eq!(nv.stats().live_blocks, 4001);
        nv.walk(Visit::Release, head, PoolKind::Spine);
        assert_eq!(nv.stats().live_blocks, 0, "chain fully reclaimed");
    }
}
