//! The root directory: its persistent layout, both commit swings, and
//! which version a root index names. No other code knows the layout or
//! the annex word.
//!
//! Every typed root is an entry of one PM block published in root slot
//! [`ROOT_DIR_SLOT`], `[count][(kind, root) × count][tag × count]`:
//! entry `i` is root `i`'s [`RootKind`] and root pointer, tag `i` its
//! codec-discipline word (see [`crate::codec`]). The directory owns a
//! reference to each entry's root, so a FASE over any set of roots
//! commits with one ordering point (paper Fig 8): one changed root
//! swings its entry in place (Fig 8b); several, or a new root, swing a
//! fresh directory into the slot (Fig 8c).
//!
//! A hybrid ("Don't Persist All") root's entry has kind
//! [`RootKind::Spine`] and points at its op log (see [`crate::spine`]).
//! Readers traverse its volatile index instead, whose committed head the
//! pool's root annex holds under the root's logical kind. [`resolve`]
//! answers "which version does index `i` name" for both.

use crate::erased::{ErasedDs, PoolKind, RootKind};
use crate::fase::PendingUpdate;
use crate::heap::ModHeap;
use mod_alloc::layout::root_slot_offset;
use mod_alloc::{HeapRead, NvHeap, Visit, N_ROOTS};
use mod_pmem::{PmPtr, SyncRound};

/// The root slot that holds the root directory. Raw-slot code must not
/// use this slot.
pub const ROOT_DIR_SLOT: usize = N_ROOTS - 1;

/// Address of entry `index`'s kind word; its root word follows.
fn entry_addr(dir: PmPtr, index: usize) -> u64 {
    dir.addr() + 8 + 16 * index as u64
}

/// Address of tag word `index` in a directory of `count` entries.
fn tag_addr(dir: PmPtr, count: usize, index: usize) -> u64 {
    dir.addr() + 8 + 16 * count as u64 + 8 * index as u64
}

/// The published directory block (null before the first root), with the
/// reader to go on with.
fn published<'a>(read: impl Into<HeapRead<'a>>) -> (HeapRead<'a>, PmPtr) {
    let mut read = read.into();
    let dir = PmPtr::from_addr(read.u64(root_slot_offset(ROOT_DIR_SLOT)));
    (read, dir)
}

/// Published entry `index`, or `None` past the directory's end.
pub(crate) fn entry<'a>(read: impl Into<HeapRead<'a>>, index: usize) -> Option<ErasedDs> {
    let (mut read, dir) = published(read);
    (index < block_len(&mut read, dir)).then(|| read_entry(&mut read, dir, index))
}

/// Published tag word `index`, or `None` past the directory's end.
pub(crate) fn tag<'a>(read: impl Into<HeapRead<'a>>, index: usize) -> Option<u64> {
    let (mut read, dir) = published(read);
    let count = block_len(&mut read, dir);
    (index < count).then(|| read.u64(tag_addr(dir, count, index)))
}

/// Every published entry, in index order.
pub(crate) fn entries<'a>(read: impl Into<HeapRead<'a>>) -> Vec<ErasedDs> {
    let (read, dir) = published(read);
    block_entries(read, dir)
}

/// Number of entries in directory block `dir` (0 for null).
fn block_len(read: &mut HeapRead<'_>, dir: PmPtr) -> usize {
    if dir.is_null() {
        return 0;
    }
    read.u64(dir.addr()) as usize
}

fn read_entry(read: &mut HeapRead<'_>, dir: PmPtr, index: usize) -> ErasedDs {
    let base = entry_addr(dir, index);
    ErasedDs {
        kind: RootKind::from_u64(read.u64(base)),
        root: PmPtr::from_addr(read.u64(base + 8)),
    }
}

/// Every entry of directory block `dir`, in index order.
fn block_entries<'a>(read: impl Into<HeapRead<'a>>, dir: PmPtr) -> Vec<ErasedDs> {
    let mut read = read.into();
    let count = block_len(&mut read, dir);
    (0..count).map(|i| read_entry(&mut read, dir, i)).collect()
}

/// Every tag word of directory block `dir`, in index order.
fn block_tags<'a>(read: impl Into<HeapRead<'a>>, dir: PmPtr) -> Vec<u64> {
    let mut read = read.into();
    let count = block_len(&mut read, dir);
    (0..count)
        .map(|i| read.u64(tag_addr(dir, count, i)))
        .collect()
}

/// Builds and flushes a directory block holding `entries` and `tags`,
/// taking a reference to each entry's root.
///
/// # Panics
///
/// Panics if `entries` is empty or `tags.len() != entries.len()`.
fn store(nv: &mut NvHeap, entries: &[ErasedDs], tags: &[u64]) -> PmPtr {
    assert!(!entries.is_empty(), "a directory needs entries");
    assert_eq!(entries.len(), tags.len(), "one tag word per entry");
    let n = entries.len();
    let dir = nv.alloc(8 + 24 * n as u64);
    nv.write_u64(dir.addr(), n as u64);
    for (i, e) in entries.iter().enumerate() {
        let base = entry_addr(dir, i);
        nv.write_u64(base, e.kind.to_u64());
        nv.write_u64(base + 8, e.root.addr());
    }
    for (i, &t) in tags.iter().enumerate() {
        nv.write_u64(tag_addr(dir, n, i), t);
    }
    nv.flush_block(dir);
    for e in entries {
        nv.rc_inc(e.root);
    }
    dir
}

/// A directory block's children: each entry's root, in index order.
pub(crate) fn children(nv: &mut NvHeap, dir: PmPtr, push: &mut impl FnMut(PmPtr, PoolKind)) {
    let mut read = HeapRead::from(nv);
    for i in 0..block_len(&mut read, dir) {
        let e = read_entry(&mut read, dir, i);
        push(e.root, e.kind.into());
    }
}

/// Marks the published directory (if any) and, through it, every typed
/// root during recovery GC.
pub(crate) fn mark_published(nv: &mut NvHeap) {
    let dir = published(&mut *nv).1;
    nv.walk(Visit::Mark, dir, PoolKind::Directory);
}

// ---------------------------------------------------------------------
// Commit swings
// ---------------------------------------------------------------------

/// Publishes a FASE's (or a batch's) staged updates with one ordering
/// point: Fig 8b for one root (after the fence, one atomic 8-byte store
/// and one `clwb` swing its entry; no allocation), Fig 8c for several.
/// Hybrid roots then publish their volatile heads. Every superseded
/// version becomes a deferred release; `sync` is the fence's sync round.
pub(crate) fn swing(heap: &mut ModHeap, pending: &[PendingUpdate], sync: SyncRound) {
    let dir = published(heap.nv_mut()).1;
    assert!(!dir.is_null(), "FASE update with no published roots");
    if let [p] = pending {
        let root_addr = entry_addr(dir, p.index) + 8;
        let old = ErasedDs {
            kind: p.kind,
            root: PmPtr::from_addr(heap.nv_mut().read_u64(root_addr)),
        };
        heap.fence_and_drain(sync);
        commit_write(heap.nv_mut(), root_addr, p.new);
        // The FASE's temporary ownership of the shadow transfers to the
        // directory; the directory's reference to the superseded version
        // becomes a deferred release.
        heap.defer_release(old);
    } else {
        let mut all = block_entries(heap.nv_mut(), dir);
        let tags = block_tags(heap.nv(), dir);
        let mut fresh = Vec::with_capacity(pending.len());
        for p in pending {
            let e = &mut all[p.index];
            debug_assert_eq!(e.kind, p.kind, "directory kind drift");
            e.root = p.new;
            fresh.push(*e);
        }
        swing_fresh(heap, dir, &all, &fresh, &tags, sync);
    }
    // The committed spine records are durable: publish the matching
    // volatile heads and retire the superseded ones through deferred
    // release (epoch-gated under the shared engine).
    for p in pending {
        if let Some(old) = p.hybrid.and_then(|head| set_head(heap.nv(), p.index, head)) {
            heap.defer_release(old);
        }
    }
}

/// Appends `initial` as a new entry tagged `tag` (Fig 8c: a fresh
/// directory one entry longer, one fence, one slot swing) and returns
/// its index.
pub(crate) fn append(heap: &mut ModHeap, initial: ErasedDs, tag: u64) -> usize {
    let dir = published(heap.nv_mut()).1;
    let mut all = block_entries(heap.nv_mut(), dir);
    let mut tags = block_tags(heap.nv(), dir);
    let index = all.len();
    all.push(initial);
    tags.push(tag);
    swing_fresh(heap, dir, &all, &[initial], &tags, SyncRound::Now);
    index
}

/// Fig 8c: writes and flushes a fresh directory, fences once, swings the
/// directory slot, and defers the old directory's release. `fresh` names
/// the entries whose temporary FASE ownership transfers to the new
/// directory.
fn swing_fresh(
    heap: &mut ModHeap,
    old: PmPtr,
    all: &[ErasedDs],
    fresh: &[ErasedDs],
    tags: &[u64],
    sync: SyncRound,
) {
    let nv = heap.nv_mut();
    let new = store(nv, all, tags);
    for f in fresh {
        nv.rc_dec(f.root);
    }
    heap.fence_and_drain(sync);
    let slot = heap.nv().root_slot_addr(ROOT_DIR_SLOT);
    commit_write(heap.nv_mut(), slot, new);
    if !old.is_null() {
        heap.defer_release(ErasedDs {
            kind: RootKind::Directory,
            root: old,
        });
    }
}

/// The swing itself: one 8-byte store and its `clwb`, traced as a commit
/// section.
fn commit_write(nv: &mut NvHeap, addr: u64, ptr: PmPtr) {
    let pm = nv.pm_mut();
    pm.begin_commit();
    pm.write_u64(addr, ptr.addr());
    pm.clwb(addr);
    pm.end_commit();
}

// ---------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------

/// Bit position of the logical kind in an annex word; the volatile head
/// address sits below it (addresses are far below 2^56).
const HEAD_KIND_SHIFT: u64 = 56;

/// Publishes `new` as hybrid root `index`'s committed volatile head,
/// returning the head it replaces.
///
/// # Panics
///
/// Panics if `index` is past the annex: a hybrid root must sit at one of
/// the pool's first [`mod_alloc::N_ROOTS`] directory indices.
pub(crate) fn set_head(nv: &NvHeap, index: usize, new: ErasedDs) -> Option<ErasedDs> {
    assert!(
        index < N_ROOTS,
        "hybrid root {index} is past the root annex ({N_ROOTS} words)"
    );
    let addr = new.root.addr();
    debug_assert!(addr != 0 && addr < 1 << HEAD_KIND_SHIFT);
    let old = head(nv, index);
    nv.annex()
        .set(index, (new.kind.to_u64() << HEAD_KIND_SHIFT) | addr);
    old
}

/// Hybrid root `index`'s committed volatile head; `None` for any other
/// root. Reads only the annex, never PM. The annex covers the pool's
/// first [`mod_alloc::N_ROOTS`] indices; a root past them is never
/// hybrid (see [`set_head`]).
pub(crate) fn head(nv: &NvHeap, index: usize) -> Option<ErasedDs> {
    let word = if index < N_ROOTS {
        nv.annex().get(index)
    } else {
        0
    };
    (word != 0).then(|| ErasedDs {
        kind: RootKind::from_u64(word >> HEAD_KIND_SHIFT),
        root: PmPtr::from_addr(word & ((1 << HEAD_KIND_SHIFT) - 1)),
    })
}

/// The version entry `e` (at `index`) names: `e` itself, or for a Spine
/// entry the committed volatile head, under the root's logical kind.
fn resolve_entry(nv: &NvHeap, index: usize, e: ErasedDs) -> ErasedDs {
    if e.kind != RootKind::Spine {
        return e;
    }
    head(nv, index).unwrap_or_else(|| panic!("hybrid root {index} has no volatile head"))
}

/// The committed version directory index `index` names; `None` if no
/// root is published there. A Full entry costs one entry peek; a hybrid
/// root resolves to its volatile head from the annex.
pub(crate) fn resolve(nv: &NvHeap, index: usize) -> Option<ErasedDs> {
    let e = entry(nv, index)?;
    Some(resolve_entry(nv, index, e))
}

/// Every published root resolved, in index order: the image a snapshot
/// view reads.
pub(crate) fn resolve_all(nv: &NvHeap) -> Vec<ErasedDs> {
    entries(nv)
        .into_iter()
        .enumerate()
        .map(|(i, e)| resolve_entry(nv, i, e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::DurableDs;
    use crate::spine::PersistPolicy;
    use mod_funcds::{PmMap, PmQueue};
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn directory_roundtrip() {
        let mut nv = heap();
        let m = PmMap::empty(&mut nv);
        let q = PmQueue::empty(&mut nv);
        let d = store(&mut nv, &[m.erase(), q.erase()], &[0, 0]);
        let kids = block_entries(&mut nv, d);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].kind, RootKind::Map);
        assert_eq!(kids[0].root, m.root());
        assert_eq!(kids[1].kind, RootKind::Queue);
        assert_eq!(kids[1].root, q.root());
    }

    #[test]
    fn directory_owns_entries() {
        let mut nv = heap();
        let m = PmMap::empty(&mut nv);
        let d = store(&mut nv, &[m.erase()], &[0]);
        assert_eq!(nv.rc_get(m.root()), 2);
        // Dropping our handle's reference leaves the directory's.
        m.release(&mut nv);
        assert_eq!(nv.rc_get(m.root()), 1);
        nv.walk(Visit::Release, d, PoolKind::Directory);
        assert_eq!(nv.stats().live_blocks, 0);
    }

    #[test]
    #[should_panic(expected = "needs entries")]
    fn empty_directory_rejected() {
        let mut nv = heap();
        store(&mut nv, &[], &[]);
    }

    #[test]
    fn tags_roundtrip_and_default_to_zero() {
        let mut nv = heap();
        let m = PmMap::empty(&mut nv);
        let q = PmQueue::empty(&mut nv);
        let untagged = store(&mut nv, &[m.erase(), q.erase()], &[0, 0]);
        assert_eq!(block_tags(&nv, untagged), vec![0, 0]);
        let tagged = store(&mut nv, &[m.erase(), q.erase()], &[7, 0x0101]);
        assert_eq!(block_tags(&nv, tagged), vec![7, 0x0101]);
        // Tags don't disturb the entries.
        let kids = block_entries(&mut nv, tagged);
        assert_eq!(kids[0].root, m.root());
        assert_eq!(kids[1].root, q.root());
    }

    #[test]
    #[should_panic(expected = "one tag word per entry")]
    fn tag_arity_checked() {
        let mut nv = heap();
        let m = PmMap::empty(&mut nv);
        store(&mut nv, &[m.erase()], &[1, 2]);
    }

    #[test]
    fn charged_and_peek_reads_agree_but_only_charged_counts() {
        use crate::basic::{DurableMap, DurableQueue};
        let mut h = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let full: DurableMap<u64, u64> = h.root(0).open_or_create().unwrap();
        let hybrid: DurableQueue<u64> = h
            .root(1)
            .policy(PersistPolicy::Hybrid)
            .open_or_create()
            .unwrap();
        full.insert(&mut h, &1, &2);
        hybrid.enqueue(&mut h, &3);
        let nv = h.nv_mut();
        let reads = nv.pm().stats().reads;
        let tags_of = |nv: &NvHeap| (0..3).map(|i| tag(nv, i)).collect::<Vec<_>>();
        let peek = (entries(&*nv), entry(&*nv, 1), tags_of(nv));
        assert_eq!(nv.pm().stats().reads, reads, "peek reads are free");
        assert_eq!(peek.0.len(), 2);
        assert_eq!(peek.0[0].kind, RootKind::Map);
        assert_eq!(peek.0[1].kind, RootKind::Spine);
        assert_eq!(peek.1, Some(peek.0[1]));
        assert!(peek.2[..2].iter().all(|&t| t.is_some_and(|t| t != 0)));
        assert_eq!(peek.2[2], None, "past the end");
        let charged = (
            entries(&mut *nv),
            entry(&mut *nv, 1),
            (0..3).map(|i| tag(&mut *nv, i)).collect::<Vec<_>>(),
        );
        assert_eq!(charged, peek);
        assert!(nv.pm().stats().reads > reads, "charged reads count");
        assert_eq!(entry(&*nv, 2), None, "past the end");
    }

    #[test]
    fn fig8b_swing_stores_one_root_word_with_one_clwb() {
        use crate::basic::{DurableMap, DurableQueue};
        use mod_pmem::TraceEvent;
        let mut h = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let map: DurableMap<u64, u64> = h.root(0).open_or_create().unwrap();
        let _queue: DurableQueue<u64> = h.root(1).open_or_create().unwrap();
        let dir = published(h.nv()).1;
        let mark = h.nv().pm().trace().len();
        map.insert(&mut h, &1, &2);
        let events = &h.nv().pm().trace()[mark..];
        let begin = events
            .iter()
            .position(|e| *e == TraceEvent::CommitBegin)
            .unwrap();
        let end = events
            .iter()
            .position(|e| *e == TraceEvent::CommitEnd)
            .unwrap();
        let addr = entry_addr(dir, 0) + 8;
        assert_eq!(
            events[begin + 1..end],
            [
                TraceEvent::Write { addr, len: 8 },
                TraceEvent::Clwb { line: addr & !63 }
            ]
        );
        assert_eq!(published(h.nv()).1, dir, "no fresh directory");
        let e = entry(h.nv(), 0).unwrap();
        assert_eq!(e.kind, RootKind::Map);
        assert_eq!(e.root, h.current(map.root()).root());
        assert_eq!(h.nv().peek_u64(addr), e.root.addr());
    }

    #[test]
    fn annex_heads_roundtrip() {
        let nv = heap();
        let head = ErasedDs {
            kind: RootKind::Queue,
            root: PmPtr::from_addr(0xbeef0),
        };
        assert_eq!(set_head(&nv, 3, head), None);
        assert_eq!(set_head(&nv, 3, head), Some(head));
    }
}
