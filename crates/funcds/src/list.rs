//! Persistent cons list — the MOD **stack** substrate (Fig 1 of the
//! paper generalized), and the building block of the two-list queue.
//!
//! A stack is a root object `[len][head]` pointing at an immutable chain
//! of cons cells. `push`/`pop` are pure: they return a new root object;
//! cells are shared between versions and reference counted (volatile
//! counts, §5.3).
//!
//! A cell is 16 bytes, the smallest size class:
//!
//! ```text
//! [KIND_CONS | next << 32][elem]
//! ```
//!
//! `next` is a 32-bit block index ([`mod_alloc::pack_ptr`]), so the kind
//! check compares the first word's low half. The stack root keeps its
//! 8-byte `head`: `[len][head]` is already 16 bytes.

use crate::node::{check_kind, store_words, KIND_CONS};
use crate::DsKind;
use mod_alloc::{pack_ptr, unpack_ptr, HeapRead, NvHeap, Visit};
use mod_pmem::PmPtr;

/// Handle to one immutable version of a persistent stack.
///
/// The handle is a pointer to the version's root object in PM; copying the
/// handle does not copy the structure. Updates return new handles; commit
/// and reclamation of old versions are the concern of `mod-core`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmStack {
    root: PmPtr,
}

/// A cons cell pointer, exposed for the queue's reversal logic.
pub(crate) fn cons(heap: &mut NvHeap, elem: u64, next: PmPtr) -> PmPtr {
    // Ownership: `next`'s refcount must already account for this new
    // reference (callers retain before consing).
    store_words(heap, &[KIND_CONS | (pack_ptr(next) as u64) << 32, elem])
}

/// A cell's element.
///
/// # Panics
///
/// Panics "corrupt traversal" unless `cell` is a cons cell.
pub(crate) fn cell_elem<'a>(heap: impl Into<HeapRead<'a>>, cell: PmPtr) -> u64 {
    let mut heap = heap.into();
    check_kind(&mut heap, cell, KIND_CONS);
    heap.u64(cell.addr() + 8)
}

/// A cell's next pointer (null at the end of the chain).
///
/// # Panics
///
/// Panics "corrupt traversal" unless `cell` is a cons cell.
pub(crate) fn cell_next<'a>(heap: impl Into<HeapRead<'a>>, cell: PmPtr) -> PmPtr {
    unpack_ptr((check_kind(heap, cell, KIND_CONS) >> 32) as u32)
}

/// The elements of the chain from `cur`, in chain order.
pub(crate) fn chain_elems(heap: &mut HeapRead<'_>, mut cur: PmPtr) -> Vec<u64> {
    let mut out = Vec::new();
    while !cur.is_null() {
        out.push(cell_elem(&mut *heap, cur));
        cur = cell_next(&mut *heap, cur);
    }
    out
}

impl PmStack {
    /// Creates an empty stack (allocates and flushes its root object).
    pub fn empty(heap: &mut NvHeap) -> PmStack {
        Self::store_root(heap, 0, PmPtr::NULL)
    }

    /// Stores a root object `[len][head]`.
    fn store_root(heap: &mut NvHeap, len: u64, head: PmPtr) -> PmStack {
        PmStack {
            root: store_words(heap, &[len, head.addr()]),
        }
    }

    /// Rebuilds a handle from a raw root pointer (e.g. a root slot after
    /// recovery).
    pub fn from_root(root: PmPtr) -> PmStack {
        PmStack { root }
    }

    /// The version's root object pointer (what commit stores in a slot).
    pub fn root(&self) -> PmPtr {
        self.root
    }

    /// Number of elements. Like every read accessor here it charges on
    /// `&mut NvHeap` and is free on `&NvHeap` (see [`HeapRead`]).
    pub fn len<'a>(&self, heap: impl Into<HeapRead<'a>>) -> u64 {
        heap.into().u64(self.root.addr())
    }

    /// Whether the stack is empty.
    pub fn is_empty<'a>(&self, heap: impl Into<HeapRead<'a>>) -> bool {
        self.len(heap) == 0
    }

    pub(crate) fn head<'a>(&self, heap: impl Into<HeapRead<'a>>) -> PmPtr {
        PmPtr::from_addr(heap.into().u64(self.root.addr() + 8))
    }

    /// Pure push: returns a new version with `elem` on top. The original
    /// version is untouched (Fig 1c). All new data is flushed, unordered.
    pub fn push(&self, heap: &mut NvHeap, elem: u64) -> PmStack {
        let len = self.len(&mut *heap);
        let head = self.head(&mut *heap);
        if !head.is_null() {
            heap.rc_inc(head); // new cell shares the old chain
        }
        let cell = cons(heap, elem, head);
        Self::store_root(heap, len + 1, cell)
    }

    /// Top element, if any.
    pub fn peek<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Option<u64> {
        let mut heap = heap.into();
        let head = self.head(&mut heap);
        if head.is_null() {
            None
        } else {
            Some(cell_elem(heap, head))
        }
    }

    /// Pure pop: returns the new version and the popped element, or
    /// `None` if empty.
    pub fn pop(&self, heap: &mut NvHeap) -> Option<(PmStack, u64)> {
        let len = self.len(&mut *heap);
        let head = self.head(&mut *heap);
        if head.is_null() {
            return None;
        }
        let elem = cell_elem(&mut *heap, head);
        let next = cell_next(&mut *heap, head);
        if !next.is_null() {
            heap.rc_inc(next); // new root shares the tail
        }
        Some((Self::store_root(heap, len - 1, next), elem))
    }

    /// Collects the stack top-to-bottom (diagnostics and tests).
    pub fn to_vec<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<u64> {
        let mut heap = heap.into();
        let head = self.head(&mut heap);
        chain_elems(&mut heap, head)
    }

    /// Releases this version's reference to its data (used by commit to
    /// reclaim superseded versions).
    pub fn release(self, heap: &mut NvHeap) {
        heap.walk(Visit::Release, self.root, DsKind::Stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn push_pop_lifo() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let s1 = s0.push(&mut h, 1);
        let s2 = s1.push(&mut h, 2);
        let s3 = s2.push(&mut h, 3);
        assert_eq!(s3.len(&mut h), 3);
        let (s4, e) = s3.pop(&mut h).unwrap();
        assert_eq!(e, 3);
        assert_eq!(s4.to_vec(&mut h), vec![2, 1]);
    }

    #[test]
    fn old_version_untouched_by_push() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let s1 = s0.push(&mut h, 1);
        let _s2 = s1.push(&mut h, 2);
        assert_eq!(s1.to_vec(&mut h), vec![1]);
        assert_eq!(s0.to_vec(&mut h), Vec::<u64>::new());
    }

    #[test]
    fn pop_empty_is_none() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        assert!(s0.pop(&mut h).is_none());
        assert!(s0.peek(&mut h).is_none());
        assert!(s0.is_empty(&mut h));
    }

    #[test]
    fn structural_sharing_on_push() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let mut s = s0;
        for i in 0..100 {
            s = s.push(&mut h, i);
        }
        let before = h.stats().cumulative_alloc_bytes;
        let _s2 = s.push(&mut h, 100);
        let delta = h.stats().cumulative_alloc_bytes - before;
        // One cell + one root object, regardless of stack depth.
        assert!(delta <= 64, "push allocated {delta} bytes");
    }

    #[test]
    fn release_frees_exclusive_version() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let s1 = s0.push(&mut h, 1);
        let s2 = s1.push(&mut h, 2);
        // Release superseded versions like commit would.
        let live_before = h.stats().live_blocks;
        s0.release(&mut h);
        s1.release(&mut h);
        // s2 still owns its chain: both cells + 1 root left.
        assert!(h.stats().live_blocks < live_before);
        assert_eq!(s2.to_vec(&mut h), vec![2, 1]);
        s2.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "all blocks reclaimed");
    }

    #[test]
    fn release_respects_sharing() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let s1 = s0.push(&mut h, 1);
        let s2a = s1.push(&mut h, 2);
        let s2b = s1.push(&mut h, 3);
        s1.release(&mut h);
        // Cell "1" is still shared by both branches.
        assert_eq!(s2a.to_vec(&mut h), vec![2, 1]);
        assert_eq!(s2b.to_vec(&mut h), vec![3, 1]);
        s2a.release(&mut h);
        assert_eq!(s2b.to_vec(&mut h), vec![3, 1]);
        s2b.release(&mut h);
        s0.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn deep_stack_release_is_iterative() {
        // Would overflow the call stack if release recursed.
        let mut h = heap();
        let mut s = PmStack::empty(&mut h);
        for i in 0..100_000 {
            let next = s.push(&mut h, i);
            s.release(&mut h);
            s = next;
        }
        s.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn cons_cell_is_16_bytes_with_next_in_the_kind_words_high_half() {
        let mut h = heap();
        let s1 = PmStack::empty(&mut h).push(&mut h, 7);
        let before = h.pm().stats().bytes_written;
        let s2 = s1.push(&mut h, 8);
        let (first, second) = (s1.head(&h), s2.head(&h));
        // The fresh cell (header + 16) and the stack root (header + 16).
        assert_eq!(
            h.pm().stats().bytes_written - before,
            2 * (mod_alloc::HEADER_BYTES + 16)
        );
        assert_eq!(h.block_len(second), 16, "the 16-byte class");
        assert_eq!(
            h.read_u64(second.addr()),
            KIND_CONS | (pack_ptr(first) as u64) << 32
        );
        assert_eq!(h.read_u64(second.addr() + 8), 8);
        assert_eq!(h.read_u64(first.addr()), KIND_CONS, "null next");
        assert_eq!(cell_next(&h, second), first);
        assert_eq!(cell_next(&mut h, first), PmPtr::NULL);
        assert_eq!(s2.to_vec(&mut h), s2.to_vec(&h));
    }

    #[test]
    #[should_panic(expected = "corrupt traversal")]
    fn cell_with_a_wrong_low_half_kind_panics() {
        // Keep the next index in the high half, break only the kind.
        let mut h = heap();
        let s = PmStack::empty(&mut h).push(&mut h, 1).push(&mut h, 2);
        let cell = s.head(&h);
        let word = h.read_u64(cell.addr());
        h.write_u64(
            cell.addr(),
            word & !(u32::MAX as u64) | crate::node::KIND_LEAF,
        );
        s.to_vec(&mut h);
    }

    #[test]
    fn push_flushes_everything_before_fence() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let _s1 = s0.push(&mut h, 7);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }
}
