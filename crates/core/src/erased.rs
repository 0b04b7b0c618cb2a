//! Type-erased datastructure handles and the [`DurableDs`] trait.
//!
//! Commit protocols and recovery need to reclaim and mark datastructures
//! whose concrete types differ (a FASE can update a map and a queue).
//! [`DurableDs`] abstracts over the five MOD handle types; [`ErasedDs`]
//! carries a handle as a `(kind, root)` pair that can be persisted (root
//! directory entries) and dispatched at runtime.

use mod_alloc::NvHeap;
use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_pmem::PmPtr;

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

    /// Releases this version's reference to its data (refcounted).
    fn release_version(self, nv: &mut NvHeap);

    /// Marks this version's blocks during recovery GC.
    fn mark_version(&self, nv: &mut NvHeap);

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

            fn release_version(self, nv: &mut NvHeap) {
                self.release(nv)
            }

            fn mark_version(&self, nv: &mut NvHeap) {
                self.mark(nv)
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
        match self.kind {
            RootKind::Map => PmMap::from_root(self.root).release(nv),
            RootKind::Set => PmSet::from_root(self.root).release(nv),
            RootKind::Vector => PmVector::from_root(self.root).release(nv),
            RootKind::Stack => PmStack::from_root(self.root).release(nv),
            RootKind::Queue => PmQueue::from_root(self.root).release(nv),
            RootKind::Directory => crate::dir::release(nv, self.root),
            RootKind::Spine => crate::spine::release_record(nv, self.root),
        }
    }

    /// Marks the version's blocks during recovery GC.
    pub fn mark(&self, nv: &mut NvHeap) {
        match self.kind {
            RootKind::Map => PmMap::from_root(self.root).mark(nv),
            RootKind::Set => PmSet::from_root(self.root).mark(nv),
            RootKind::Vector => PmVector::from_root(self.root).mark(nv),
            RootKind::Stack => PmStack::from_root(self.root).mark(nv),
            RootKind::Queue => PmQueue::from_root(self.root).mark(nv),
            RootKind::Directory => crate::dir::mark(nv, self.root),
            RootKind::Spine => crate::spine::mark_record(nv, self.root),
        }
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
