//! Persistent cons list — the MOD **stack** substrate (Fig 1 of the
//! paper generalized), and the building block of the two-list queue.
//!
//! A stack is a root object `[len][head]` pointing at an immutable chain
//! of cons cells `[kind][elem][next]`. `push`/`pop` are pure: they return
//! a new root object; cells are shared between versions and reference
//! counted (volatile counts, §5.3).

use crate::node::{check_kind, store_words, KIND_CONS};
use mod_alloc::{HeapRead, NvHeap};
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
    store_words(heap, &[KIND_CONS, elem, next.addr()])
}

pub(crate) fn cell_elem(heap: &mut NvHeap, cell: PmPtr) -> u64 {
    check_kind(heap, cell, KIND_CONS);
    heap.read_u64(cell.addr() + 8)
}

pub(crate) fn cell_next(heap: &mut NvHeap, cell: PmPtr) -> PmPtr {
    PmPtr::from_addr(heap.read_u64(cell.addr() + 16))
}

pub(crate) fn cell_elem_r(heap: &mut HeapRead<'_>, cell: PmPtr) -> u64 {
    let k = heap.u64(cell.addr());
    assert_eq!(k, KIND_CONS, "cell {cell} has kind {k} — corrupt traversal");
    heap.u64(cell.addr() + 8)
}

pub(crate) fn cell_next_r(heap: &mut HeapRead<'_>, cell: PmPtr) -> PmPtr {
    PmPtr::from_addr(heap.u64(cell.addr() + 16))
}

/// Releases one reference to a chain starting at `head`, freeing cells
/// whose count reaches zero. Iterative: chains can be millions long.
pub(crate) fn release_chain(heap: &mut NvHeap, head: PmPtr) {
    let mut cur = head;
    while !cur.is_null() {
        if heap.rc_dec(cur) > 0 {
            break; // rest of the chain is still shared
        }
        let next = cell_next(heap, cur);
        heap.free(cur);
        cur = next;
    }
}

/// Marks a chain during recovery GC, stopping at already-marked cells.
pub(crate) fn mark_chain(heap: &mut NvHeap, head: PmPtr) {
    let mut cur = head;
    while !cur.is_null() {
        if !heap.mark_block(cur) {
            break; // shared suffix already walked
        }
        cur = PmPtr::from_addr(heap.pm_mut().read_u64(cur.addr() + 16));
    }
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

    /// Number of elements.
    pub fn len(&self, heap: &mut NvHeap) -> u64 {
        heap.read_u64(self.root.addr())
    }

    /// Number of elements, without charging the cache/time model.
    pub fn peek_len(&self, heap: &NvHeap) -> u64 {
        heap.peek_u64(self.root.addr())
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self, heap: &mut NvHeap) -> bool {
        self.len(heap) == 0
    }

    /// Whether the stack is empty, without charging the cache/time model.
    pub fn peek_is_empty(&self, heap: &NvHeap) -> bool {
        self.peek_len(heap) == 0
    }

    fn head(&self, heap: &mut NvHeap) -> PmPtr {
        PmPtr::from_addr(heap.read_u64(self.root.addr() + 8))
    }

    /// Pure push: returns a new version with `elem` on top. The original
    /// version is untouched (Fig 1c). All new data is flushed, unordered.
    pub fn push(&self, heap: &mut NvHeap, elem: u64) -> PmStack {
        let len = self.len(heap);
        let head = self.head(heap);
        if !head.is_null() {
            heap.rc_inc(head); // new cell shares the old chain
        }
        let cell = cons(heap, elem, head);
        Self::store_root(heap, len + 1, cell)
    }

    /// Top element, if any.
    pub fn peek(&self, heap: &mut NvHeap) -> Option<u64> {
        let head = self.head(heap);
        if head.is_null() {
            None
        } else {
            Some(cell_elem(heap, head))
        }
    }

    /// Top element without charging the cache/time model.
    pub fn peek_top(&self, heap: &NvHeap) -> Option<u64> {
        let mut r = HeapRead::from(heap);
        let head = PmPtr::from_addr(r.u64(self.root.addr() + 8));
        if head.is_null() {
            None
        } else {
            Some(cell_elem_r(&mut r, head))
        }
    }

    /// Pure pop: returns the new version and the popped element, or
    /// `None` if empty.
    pub fn pop(&self, heap: &mut NvHeap) -> Option<(PmStack, u64)> {
        let len = self.len(heap);
        let head = self.head(heap);
        if head.is_null() {
            return None;
        }
        let elem = cell_elem(heap, head);
        let next = cell_next(heap, head);
        if !next.is_null() {
            heap.rc_inc(next); // new root shares the tail
        }
        Some((Self::store_root(heap, len - 1, next), elem))
    }

    /// Collects the stack top-to-bottom (diagnostics and tests).
    pub fn to_vec(&self, heap: &mut NvHeap) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.head(heap);
        while !cur.is_null() {
            out.push(cell_elem(heap, cur));
            cur = cell_next(heap, cur);
        }
        out
    }

    /// Collects the stack top-to-bottom on `&NvHeap` (read-only).
    pub fn peek_to_vec(&self, heap: &NvHeap) -> Vec<u64> {
        let mut r = HeapRead::from(heap);
        let mut out = Vec::new();
        let mut cur = PmPtr::from_addr(r.u64(self.root.addr() + 8));
        while !cur.is_null() {
            out.push(cell_elem_r(&mut r, cur));
            cur = cell_next_r(&mut r, cur);
        }
        out
    }

    /// Releases this version's reference to its data (used by commit to
    /// reclaim superseded versions).
    pub fn release(self, heap: &mut NvHeap) {
        if heap.rc_dec(self.root) == 0 {
            let head = self.head(heap);
            heap.free(self.root);
            if !head.is_null() {
                release_chain(heap, head);
            }
        }
    }

    /// Marks this version's blocks during recovery GC.
    pub fn mark(&self, heap: &mut NvHeap) {
        if !heap.mark_block(self.root) {
            return;
        }
        let head = PmPtr::from_addr(heap.pm_mut().read_u64(self.root.addr() + 8));
        if !head.is_null() {
            mark_chain(heap, head);
        }
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
    fn push_flushes_everything_before_fence() {
        let mut h = heap();
        let s0 = PmStack::empty(&mut h);
        let _s1 = s0.push(&mut h, 7);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }
}
