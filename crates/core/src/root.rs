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
//! All typed roots live in one *root directory*: a PM block published
//! in the distinguished slot [`crate::ROOT_DIR_SLOT`], holding a
//! `(kind, root)` entry per application datastructure. Because every
//! typed root is an entry of this single directory, **any** combination
//! of structures updated in one FASE commits with one ordering point:
//! build the shadows, fence once, swing one pointer (one entry, or a
//! fresh directory). The paper's general unrelated-roots case (Fig 8d,
//! three ordering points) is never needed on this path, and recovery is
//! self-describing (the directory records each entry's kind, so
//! reopening a pool needs no caller-supplied root specs). The crate's
//! `dir` module owns the directory's layout, both swings, and which
//! version an index names.

use crate::dir;
use crate::erased::DurableDs;
use crate::heap::ModHeap;
use std::fmt;
use std::marker::PhantomData;

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
        Root::new(dir::append(self, initial.erase(), tag))
    }

    /// Number of published typed roots.
    pub fn root_count(&self) -> usize {
        dir::entries(self.nv()).len()
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
        let version = dir::resolve(self.nv(), index)?;
        assert_eq!(
            version.kind,
            D::KIND,
            "root {index} holds a {:?}, not a {:?}",
            version.kind,
            D::KIND
        );
        Some(Root::new(index))
    }

    /// The currently published version of `root` (a pure, immutable
    /// handle): the directory entry, or a hybrid root's committed
    /// volatile index. Reads only — no exclusive access, no simulated
    /// charges.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not in the directory.
    pub fn current<D: DurableDs>(&self, root: Root<D>) -> D {
        let version = dir::resolve(self.nv(), root.index())
            .unwrap_or_else(|| panic!("root {} not in directory", root.index()));
        debug_assert_eq!(version.kind, D::KIND);
        D::from_root_ptr(version.root)
    }
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
        assert_eq!(cur.get(h.nv(), 3), Some(b"three".to_vec()));
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
