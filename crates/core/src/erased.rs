//! Type-erased datastructure handles and the [`DurableDs`] trait.
//!
//! Commit protocols and recovery need to reclaim and mark datastructures
//! whose concrete types differ (a FASE can update a map and a queue).
//! [`DurableDs`] abstracts over the five MOD handle types; [`ErasedDs`]
//! carries a handle as a `(kind, root)` pair that can be persisted (root
//! directory entries) and dispatched at runtime; `PoolKind` is its kind
//! as [`NvHeap::walk`] sees it.

use mod_alloc::{BlockKind, NvHeap, Visit};
use mod_funcds::{DsKind, PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_pmem::PmPtr;
use std::cell::Cell;
use std::thread::LocalKey;

/// The persistent type of a root slot or root-directory entry.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum RootKind {
    /// [`PmMap`].
    Map,
    /// [`PmSet`].
    Set,
    /// [`PmVector`].
    Vector,
    /// [`PmStack`].
    Stack,
    /// [`PmQueue`].
    Queue,
    /// The root directory block: one `(kind, root)` entry and one tag
    /// word per typed root (Fig 8c's parent object; see
    /// [`crate::ROOT_DIR_SLOT`]).
    Directory,
    /// The persistent spine of a hybrid ("Don't Persist All") root: a
    /// chain of per-op records replayed at recovery to rebuild the
    /// volatile index (see [`crate::spine`]).
    Spine,
}

impl RootKind {
    /// Stable on-PM encoding.
    pub fn to_u64(self) -> u64 {
        match self {
            RootKind::Map => 1,
            RootKind::Set => 2,
            RootKind::Vector => 3,
            RootKind::Stack => 4,
            RootKind::Queue => 5,
            RootKind::Directory => 6,
            RootKind::Spine => 7,
        }
    }

    /// Decodes the on-PM encoding.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tag (corruption).
    pub fn from_u64(v: u64) -> RootKind {
        match v {
            1 => RootKind::Map,
            2 => RootKind::Set,
            3 => RootKind::Vector,
            4 => RootKind::Stack,
            5 => RootKind::Queue,
            6 => RootKind::Directory,
            7 => RootKind::Spine,
            _ => panic!("corrupt RootKind tag {v}"),
        }
    }
}

/// A MOD datastructure version handle: a pointer to an immutable root
/// object plus the operations commit and recovery need.
///
/// Implemented by the five `mod-funcds` handle types. Downstream crates
/// adding new MOD datastructures (per the paper's §4.2 recipe) implement
/// this to plug into the commit interfaces.
pub trait DurableDs: Copy {
    /// The runtime kind tag.
    const KIND: RootKind;

    /// Allocates a fresh, empty version.
    fn empty_version(nv: &mut NvHeap) -> Self;

    /// The version's root object pointer.
    fn root_ptr(&self) -> PmPtr;

    /// Rebuilds a handle from a root pointer.
    fn from_root_ptr(root: PmPtr) -> Self;

    /// Erases the handle for heterogeneous contexts.
    fn erase(&self) -> ErasedDs {
        ErasedDs {
            kind: Self::KIND,
            root: self.root_ptr(),
        }
    }
}

macro_rules! impl_durable_ds {
    ($ty:ty, $kind:expr) => {
        impl DurableDs for $ty {
            const KIND: RootKind = $kind;

            fn empty_version(nv: &mut NvHeap) -> Self {
                <$ty>::empty(nv)
            }

            fn root_ptr(&self) -> PmPtr {
                self.root()
            }

            fn from_root_ptr(root: PmPtr) -> Self {
                <$ty>::from_root(root)
            }
        }
    };
}

impl_durable_ds!(PmMap, RootKind::Map);
impl_durable_ds!(PmSet, RootKind::Set);
impl_durable_ds!(PmVector, RootKind::Vector);
impl_durable_ds!(PmStack, RootKind::Stack);
impl_durable_ds!(PmQueue, RootKind::Queue);

/// A type-erased version handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct ErasedDs {
    /// The datastructure's kind.
    pub kind: RootKind,
    /// The version's root object pointer.
    pub root: PmPtr,
}

impl ErasedDs {
    /// Releases the version's reference to its data.
    pub fn release(self, nv: &mut NvHeap) {
        nv.walk(Visit::Release, self.root, PoolKind::from(self.kind))
    }
}

/// The kind of a block in the pool's persistent graph.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum PoolKind {
    /// A block of a MOD datastructure version.
    Ds(DsKind),
    /// A root directory block.
    Directory,
    /// A hybrid root's spine record (see [`crate::spine`]).
    Spine,
}

impl From<RootKind> for PoolKind {
    fn from(kind: RootKind) -> PoolKind {
        match kind {
            RootKind::Map | RootKind::Set => PoolKind::Ds(DsKind::Map),
            RootKind::Vector => PoolKind::Ds(DsKind::Vector),
            RootKind::Stack => PoolKind::Ds(DsKind::Stack),
            RootKind::Queue => PoolKind::Ds(DsKind::Queue),
            RootKind::Directory => PoolKind::Directory,
            RootKind::Spine => PoolKind::Spine,
        }
    }
}

thread_local! {
    static STACK: Cell<Vec<(PmPtr, PoolKind)>> = const { Cell::new(Vec::new()) };
}

impl BlockKind for PoolKind {
    fn children(self, nv: &mut NvHeap, ptr: PmPtr, push: &mut impl FnMut(PmPtr, PoolKind)) {
        match self {
            PoolKind::Ds(kind) => kind.children(nv, ptr, &mut |p, k| push(p, PoolKind::Ds(k))),
            PoolKind::Directory => crate::dir::children(nv, ptr, push),
            // Word 0 is the predecessor record; the chain is read uncharged.
            PoolKind::Spine => push(PmPtr::from_addr(nv.peek_u64(ptr.addr())), PoolKind::Spine),
        }
    }

    fn stack() -> &'static LocalKey<Cell<Vec<(PmPtr, PoolKind)>>> {
        &STACK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in [
            RootKind::Map,
            RootKind::Set,
            RootKind::Vector,
            RootKind::Stack,
            RootKind::Queue,
            RootKind::Directory,
            RootKind::Spine,
        ] {
            assert_eq!(RootKind::from_u64(k.to_u64()), k);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt RootKind")]
    fn bad_kind_panics() {
        RootKind::from_u64(99);
    }

    #[test]
    fn erase_carries_kind_and_root() {
        use mod_pmem::{Pmem, PmemConfig};
        let mut nv = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let m = PmMap::empty(&mut nv);
        let e = m.erase();
        assert_eq!(e.kind, RootKind::Map);
        assert_eq!(e.root, m.root());
    }
}
