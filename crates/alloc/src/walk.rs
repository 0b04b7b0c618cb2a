//! One walk over the persistent block graph (paper §5.3).
//!
//! Commit-time release and recovery marking follow the same child
//! pointers: a crate that stores blocks says once, per [`BlockKind`],
//! where a block's children are, and [`NvHeap::walk`] runs either
//! [`Visit`]. The walk's stack is explicit (a million-cell chain needs no
//! call stack) and reused per thread (a release allocates nothing). It
//! pops children in layout order, each subtree whole — a recursive
//! walk's preorder, which fixes the order of frees and charged reads.

use crate::heap::NvHeap;
use mod_pmem::PmPtr;
use std::cell::Cell;
use std::thread::LocalKey;

/// A kind of stored block, as the walk sees it.
pub trait BlockKind: Copy + 'static {
    /// Reads block `ptr` of this kind and passes each child, with its
    /// kind, to `push` in layout order: the one place a layout says where
    /// its children are. Null children are skipped by the walk.
    fn children(self, heap: &mut NvHeap, ptr: PmPtr, push: &mut impl FnMut(PmPtr, Self));

    /// This kind type's per-thread walk stack.
    fn stack() -> &'static LocalKey<Cell<Vec<(PmPtr, Self)>>>;
}

/// What [`NvHeap::walk`] does at each block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Visit {
    /// Drops one reference; a block left with none has its children
    /// read, is freed, then releases each child.
    Release,
    /// Marks the block reachable (recovery); a first mark marks its
    /// children.
    Mark,
}

impl NvHeap {
    /// Runs `visit` from block `ptr` of kind `kind` (null is a no-op).
    pub fn walk<K: BlockKind>(&mut self, visit: Visit, ptr: PmPtr, kind: K) {
        let mut stack = K::stack().take();
        stack.push((ptr, kind));
        while let Some((ptr, kind)) = stack.pop() {
            let enter = !ptr.is_null()
                && match visit {
                    Visit::Release => self.rc_dec(ptr) == 0,
                    Visit::Mark => self.mark_block(ptr),
                };
            if enter {
                let first = stack.len();
                kind.children(self, ptr, &mut |p, k| stack.push((p, k)));
                stack[first..].reverse();
                if visit == Visit::Release {
                    self.free(ptr);
                }
            }
        }
        K::stack().set(stack);
    }
}
