//! Typed root handles and the persistent root directory.
//!
//! The original MOD interface handed applications raw `usize` root slots:
//! callers had to remember which slot held which datastructure type, pass
//! the right [`crate::RootKind`] to recovery, and juggle type-erased
//! `(slot, old, new)` tuples to compose updates. A [`Root<D>`] replaces
//! all of that with a typed, `Copy` handle whose datastructure type is
//! checked against persistent metadata when a pool is reopened.
//!
//! ## The root directory
//!
//! All typed roots live in one *root directory*: a parent object
//! (Fig 8c's `CommitSiblings` machinery) published in the distinguished
//! slot [`ROOT_DIR_SLOT`], holding a `(kind, root)` entry per application
//! datastructure. Because every typed root is a child of this single
//! directory, **any** combination of structures updated in one FASE
//! commits like siblings: build the shadows, write one fresh directory,
//! fence once, swing one pointer. The paper's general unrelated-roots
//! case (Fig 8d, three ordering points) is never needed on this path —
//! a multi-structure [`crate::ModHeap::fase`] costs exactly one `sfence`,
//! and recovery is self-describing (the directory records each entry's
//! kind, so reopening a pool needs no caller-supplied root specs).

use crate::erased::{DurableDs, ErasedDs};
use crate::heap::ModHeap;
use crate::parent;
use mod_alloc::NvHeap;
use mod_pmem::SyncRound;
use std::fmt;
use std::marker::PhantomData;

/// The root slot that holds the root directory parent object. Raw-slot
/// code (e.g. legacy pools from pre-0.3 binaries) must not use this
/// slot.
pub const ROOT_DIR_SLOT: usize = mod_alloc::N_ROOTS - 1;

/// A typed handle to a persistent datastructure root: an index into the
/// root directory plus the compile-time datastructure type.
///
/// `Root<D>` is `Copy` and survives across FASEs — it names the *slot*,
/// not a version. The currently published version is read with
/// [`ModHeap::current`] (or inside a FASE with [`crate::Fase::current`]),
/// and updated through [`ModHeap::fase`].
pub struct Root<D: DurableDs> {
    index: usize,
    _ds: PhantomData<fn() -> D>,
}

impl<D: DurableDs> Root<D> {
    pub(crate) fn new(index: usize) -> Root<D> {
        Root {
            index,
            _ds: PhantomData,
        }
    }

    /// The directory index of this root (stable for the pool's lifetime;
    /// what applications persist in config to re-open roots by).
    pub fn index(&self) -> usize {
        self.index
    }
}

impl<D: DurableDs> Clone for Root<D> {
    fn clone(&self) -> Root<D> {
        *self
    }
}

impl<D: DurableDs> Copy for Root<D> {}

impl<D: DurableDs> PartialEq for Root<D> {
    fn eq(&self, other: &Root<D>) -> bool {
        self.index == other.index
    }
}

impl<D: DurableDs> Eq for Root<D> {}

impl<D: DurableDs> fmt::Debug for Root<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Root<{:?}>({})", D::KIND, self.index)
    }
}

/// Reads one directory entry without materializing the whole directory
/// (typed reads are hot: every `current`/`update` resolves a root).
pub(crate) fn peek_entry(nv: &NvHeap, index: usize) -> Option<ErasedDs> {
    let dir = nv.peek_root(ROOT_DIR_SLOT);
    if dir.is_null() {
        return None;
    }
    let count = nv.peek_u64(dir.addr()) as usize;
    if index >= count {
        return None;
    }
    let base = dir.addr() + 8 + 16 * index as u64;
    Some(ErasedDs {
        kind: crate::erased::RootKind::from_u64(nv.peek_u64(base)),
        root: mod_pmem::PmPtr::from_addr(nv.peek_u64(base + 8)),
    })
}

/// Materializes every directory entry in index order — the commit stage
/// uses this to build an immutable [`crate::snapshot::DirSnapshot`] from
/// the just-swung directory (runs under the commit lock, so the
/// directory is stable for the duration).
pub(crate) fn all_entries(nv: &NvHeap) -> Vec<ErasedDs> {
    let dir = nv.peek_root(ROOT_DIR_SLOT);
    if dir.is_null() {
        return Vec::new();
    }
    let count = nv.peek_u64(dir.addr()) as usize;
    (0..count)
        .map(|i| {
            let base = dir.addr() + 8 + 16 * i as u64;
            ErasedDs {
                kind: crate::erased::RootKind::from_u64(nv.peek_u64(base)),
                root: mod_pmem::PmPtr::from_addr(nv.peek_u64(base + 8)),
            }
        })
        .collect()
}

impl ModHeap {
    /// Publishes the initial version of a datastructure as a new typed
    /// root, returning its handle. One FASE, one ordering point.
    ///
    /// Ownership of `initial` transfers to the root directory; read it
    /// back later with [`ModHeap::current`].
    pub fn publish<D: DurableDs>(&mut self, initial: D) -> Root<D> {
        self.publish_tagged(initial, 0)
    }

    /// [`ModHeap::publish`] with a codec-discipline tag word persisted in
    /// the directory entry (see [`crate::codec::codec_word_kv`]); the
    /// typed wrappers use it so reopening with mismatched key/value
    /// codecs is rejected. Tag 0 means "no codec recorded".
    pub fn publish_tagged<D: DurableDs>(&mut self, initial: D, tag: u64) -> Root<D> {
        let dir = self.nv_mut().read_root(ROOT_DIR_SLOT);
        let (mut children, mut tags) = if dir.is_null() {
            (Vec::new(), Vec::new())
        } else {
            (
                parent::children_of(self.nv_mut(), dir),
                parent::peek_tags_of(self.nv(), dir),
            )
        };
        let index = children.len();
        children.push(initial.erase());
        tags.push(tag);
        self.swing_directory(dir, &children, &[initial.erase()], &tags, SyncRound::Now);
        Root::new(index)
    }

    /// [`ModHeap::publish_tagged`] for entries whose kind has no typed
    /// handle — hybrid roots publish their spine head under
    /// [`crate::RootKind::Spine`]. Returns the new directory index.
    pub(crate) fn publish_erased_tagged(&mut self, initial: ErasedDs, tag: u64) -> usize {
        let dir = self.nv_mut().read_root(ROOT_DIR_SLOT);
        let (mut children, mut tags) = if dir.is_null() {
            (Vec::new(), Vec::new())
        } else {
            (
                parent::children_of(self.nv_mut(), dir),
                parent::peek_tags_of(self.nv(), dir),
            )
        };
        let index = children.len();
        children.push(initial);
        tags.push(tag);
        self.swing_directory(dir, &children, &[initial], &tags, SyncRound::Now);
        index
    }

    /// The codec tag word recorded for directory entry `index` (0 when
    /// none was recorded or the index does not exist).
    pub fn root_codec_tag(&self, index: usize) -> u64 {
        let dir = self.nv().peek_root(ROOT_DIR_SLOT);
        if dir.is_null() || index >= self.root_count() {
            return 0;
        }
        parent::peek_tag_of(self.nv(), dir, index)
    }

    /// Number of published typed roots.
    pub fn root_count(&self) -> usize {
        let dir = self.nv().peek_root(ROOT_DIR_SLOT);
        if dir.is_null() {
            0
        } else {
            self.nv().peek_u64(dir.addr()) as usize
        }
    }

    /// Re-opens the typed root at `index` after recovery, checking that
    /// the persistently recorded kind matches `D`.
    ///
    /// # Panics
    ///
    /// Panics if the index was never published or the stored kind differs
    /// from `D::KIND` — opening a map as a queue is a bug, not a crash
    /// state, and is caught here instead of corrupting a traversal.
    pub fn open_root<D: DurableDs>(&self, index: usize) -> Root<D> {
        match self.try_open_root(index) {
            Some(root) => root,
            None => panic!(
                "no root published at directory index {index} ({} roots exist)",
                self.root_count()
            ),
        }
    }

    /// Re-opens the typed root at `index`, or `None` if no root was ever
    /// published there.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch (see [`ModHeap::open_root`]).
    pub fn try_open_root<D: DurableDs>(&self, index: usize) -> Option<Root<D>> {
        let entry = peek_entry(self.nv(), index)?;
        assert_eq!(
            entry.kind,
            D::KIND,
            "root {index} holds a {:?}, not a {:?}",
            entry.kind,
            D::KIND
        );
        Some(Root::new(index))
    }

    /// The currently published version of `root` (a pure, immutable
    /// handle). Reads only — no exclusive access, no simulated charges.
    pub fn current<D: DurableDs>(&self, root: Root<D>) -> D {
        current_of(self.nv(), root)
    }
}

/// Read-only view helper shared with [`crate::Fase`].
pub(crate) fn current_of<D: DurableDs>(nv: &NvHeap, root: Root<D>) -> D {
    let entry = peek_entry(nv, root.index())
        .unwrap_or_else(|| panic!("root {} not in directory", root.index()));
    debug_assert_eq!(entry.kind, D::KIND);
    D::from_root_ptr(entry.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_funcds::{PmMap, PmQueue};
    use mod_pmem::{Pmem, PmemConfig};

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn publish_returns_sequential_indices() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let q0 = PmQueue::empty(h.nv_mut());
        let m = h.publish(m0);
        let q = h.publish(q0);
        assert_eq!(m.index(), 0);
        assert_eq!(q.index(), 1);
        assert_eq!(h.root_count(), 2);
    }

    #[test]
    fn publish_costs_one_fence() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let fences = h.nv().pm().stats().fences;
        h.publish(m0);
        assert_eq!(h.nv().pm().stats().fences - fences, 1);
    }

    #[test]
    fn current_reads_published_version_without_charges() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut()).insert(h.nv_mut(), 3, b"three");
        let root = h.publish(m0);
        let reads = h.nv().pm().stats().reads;
        let cur = h.current(root);
        assert_eq!(cur.root(), m0.root());
        assert_eq!(cur.peek_get(h.nv(), 3), Some(b"three".to_vec()));
        assert_eq!(h.nv().pm().stats().reads, reads, "peek path is free");
    }

    #[test]
    fn open_root_checks_kind() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let r = h.publish(m0);
        let reopened: Root<PmMap> = h.open_root(r.index());
        assert_eq!(reopened, r);
        assert!(h.try_open_root::<PmMap>(7).is_none());
    }

    #[test]
    #[should_panic(expected = "not a")]
    fn open_root_rejects_wrong_kind() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        h.publish(m0);
        let _ = h.open_root::<PmQueue>(0);
    }
}
