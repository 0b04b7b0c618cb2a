//! Persistent two-list (banker's) queue — the MOD **queue** substrate.
//!
//! The classic functional queue: enqueue conses onto a *rear* list; dequeue
//! pops the *front* list, and when the front is exhausted the rear is
//! reversed to become the new front. The paper notes exactly this cost
//! profile: "Pop operations in the MOD queue occasionally require a
//! reversal of one of the internal linked lists resulting in greater
//! flushing activity" (§6.4) — the reversal allocates and flushes a fresh
//! chain, all with unordered `clwb`s.

use crate::list::{
    cell_elem, cell_elem_r, cell_next, cell_next_r, cons, mark_chain, release_chain,
};
use crate::node::store_words;
use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::PmPtr;

/// Handle to one immutable version of a persistent FIFO queue.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmQueue {
    root: PmPtr,
}

struct RootImage {
    len: u64,
    front: PmPtr,
    front_len: u64,
    rear: PmPtr,
    rear_len: u64,
}

impl PmQueue {
    /// Creates an empty queue.
    pub fn empty(heap: &mut NvHeap) -> PmQueue {
        PmQueue {
            root: store_words(heap, &[0; 5]),
        }
    }

    /// Rebuilds a handle from a raw root pointer.
    pub fn from_root(root: PmPtr) -> PmQueue {
        PmQueue { root }
    }

    /// The version's root object pointer.
    pub fn root(&self) -> PmPtr {
        self.root
    }

    fn read_root(&self, heap: &mut NvHeap) -> RootImage {
        self.read_root_r(&mut heap.into())
    }

    fn read_root_r(&self, heap: &mut HeapRead<'_>) -> RootImage {
        let a = self.root.addr();
        RootImage {
            len: heap.u64(a),
            front: PmPtr::from_addr(heap.u64(a + 8)),
            front_len: heap.u64(a + 16),
            rear: PmPtr::from_addr(heap.u64(a + 24)),
            rear_len: heap.u64(a + 32),
        }
    }

    /// Stores a root object `[len][front][front_len][rear][rear_len]`.
    fn store_root(heap: &mut NvHeap, img: &RootImage) -> PmQueue {
        let words = [
            img.len,
            img.front.addr(),
            img.front_len,
            img.rear.addr(),
            img.rear_len,
        ];
        PmQueue {
            root: store_words(heap, &words),
        }
    }

    /// Number of elements.
    pub fn len(&self, heap: &mut NvHeap) -> u64 {
        heap.read_u64(self.root.addr())
    }

    /// Number of elements, without charging the cache/time model.
    pub fn peek_len(&self, heap: &NvHeap) -> u64 {
        heap.peek_u64(self.root.addr())
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self, heap: &mut NvHeap) -> bool {
        self.len(heap) == 0
    }

    /// Whether the queue is empty, without charging the cache/time model.
    pub fn peek_is_empty(&self, heap: &NvHeap) -> bool {
        self.peek_len(heap) == 0
    }

    /// Pure enqueue: new version with `elem` at the back.
    pub fn enqueue(&self, heap: &mut NvHeap, elem: u64) -> PmQueue {
        let mut img = self.read_root(heap);
        if !img.rear.is_null() {
            heap.rc_inc(img.rear);
        }
        if !img.front.is_null() {
            heap.rc_inc(img.front);
        }
        img.rear = cons(heap, elem, img.rear);
        img.rear_len += 1;
        img.len += 1;
        Self::store_root(heap, &img)
    }

    /// Pure dequeue: new version and the removed element, or `None` if
    /// empty. May reverse the rear list into a fresh front chain.
    pub fn dequeue(&self, heap: &mut NvHeap) -> Option<(PmQueue, u64)> {
        let mut img = self.read_root(heap);
        if img.len == 0 {
            return None;
        }
        // When the head cell is freshly built by a reversal, this op owns
        // it and must release it after the pop; when it belongs to the old
        // version's front chain, the old version keeps owning it.
        let mut owned_head = PmPtr::NULL;
        if img.front.is_null() {
            // Reverse the rear into a new front chain. Every new cell is
            // fresh (flushed, unordered); the old rear chain is untouched
            // and remains owned by the previous version.
            let mut reversed = PmPtr::NULL;
            let mut cur = img.rear;
            while !cur.is_null() {
                let e = cell_elem(heap, cur);
                reversed = cons(heap, e, reversed);
                cur = cell_next(heap, cur);
            }
            img.front = reversed;
            img.front_len = img.rear_len;
            img.rear = PmPtr::NULL;
            img.rear_len = 0;
            owned_head = reversed;
        } else if !img.rear.is_null() {
            heap.rc_inc(img.rear);
        }
        let elem = cell_elem(heap, img.front);
        let next = cell_next(heap, img.front);
        if !next.is_null() {
            heap.rc_inc(next);
        }
        img.front = next;
        img.front_len -= 1;
        img.len -= 1;
        if !owned_head.is_null() {
            // Drop this op's temporary ownership of the reversed head; its
            // tail keeps the reference the new root just took.
            release_chain(heap, owned_head);
        }
        Some((Self::store_root(heap, &img), elem))
    }

    /// The element at the head, if any.
    pub fn peek(&self, heap: &mut NvHeap) -> Option<u64> {
        self.peek_r(&mut heap.into())
    }

    /// Head element without charging the cache/time model.
    pub fn peek_front(&self, heap: &NvHeap) -> Option<u64> {
        self.peek_r(&mut heap.into())
    }

    fn peek_r(&self, heap: &mut HeapRead<'_>) -> Option<u64> {
        let img = self.read_root_r(heap);
        if img.len == 0 {
            return None;
        }
        if !img.front.is_null() {
            return Some(cell_elem_r(heap, img.front));
        }
        // Head is the last cell of the rear chain.
        let mut cur = img.rear;
        let mut last = 0;
        while !cur.is_null() {
            last = cell_elem_r(heap, cur);
            cur = cell_next_r(heap, cur);
        }
        Some(last)
    }

    /// Collects front-to-back (diagnostics and tests).
    pub fn to_vec(&self, heap: &mut NvHeap) -> Vec<u64> {
        self.collect_entries_r(&mut heap.into())
    }

    /// Collects front-to-back on `&NvHeap` (read-only).
    pub fn peek_to_vec(&self, heap: &NvHeap) -> Vec<u64> {
        self.collect_entries_r(&mut heap.into())
    }

    fn collect_entries_r(&self, heap: &mut HeapRead<'_>) -> Vec<u64> {
        let img = self.read_root_r(heap);
        let mut out = Vec::new();
        let mut cur = img.front;
        while !cur.is_null() {
            out.push(cell_elem_r(heap, cur));
            cur = cell_next_r(heap, cur);
        }
        let mut rear = Vec::new();
        let mut cur = img.rear;
        while !cur.is_null() {
            rear.push(cell_elem_r(heap, cur));
            cur = cell_next_r(heap, cur);
        }
        rear.reverse();
        out.extend(rear);
        out
    }

    /// Releases this version's reference to its data.
    pub fn release(self, heap: &mut NvHeap) {
        if heap.rc_dec(self.root) == 0 {
            let img = self.read_root(heap);
            heap.free(self.root);
            if !img.front.is_null() {
                release_chain(heap, img.front);
            }
            if !img.rear.is_null() {
                release_chain(heap, img.rear);
            }
        }
    }

    /// Marks this version's blocks during recovery GC.
    pub fn mark(&self, heap: &mut NvHeap) {
        if !heap.mark_block(self.root) {
            return;
        }
        let front = PmPtr::from_addr(heap.pm_mut().read_u64(self.root.addr() + 8));
        let rear = PmPtr::from_addr(heap.pm_mut().read_u64(self.root.addr() + 24));
        if !front.is_null() {
            mark_chain(heap, front);
        }
        if !rear.is_null() {
            mark_chain(heap, rear);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};
    use std::collections::VecDeque;

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn fifo_order() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        for i in 0..10 {
            q = q.enqueue(&mut h, i);
        }
        for i in 0..10 {
            let (nq, e) = q.dequeue(&mut h).unwrap();
            assert_eq!(e, i);
            q = nq;
        }
        assert!(q.dequeue(&mut h).is_none());
    }

    #[test]
    fn old_version_untouched() {
        let mut h = heap();
        let q0 = PmQueue::empty(&mut h);
        let q1 = q0.enqueue(&mut h, 1).enqueue(&mut h, 2);
        let (q2, _) = q1.dequeue(&mut h).unwrap();
        assert_eq!(q1.to_vec(&mut h), vec![1, 2]);
        assert_eq!(q2.to_vec(&mut h), vec![2]);
    }

    #[test]
    fn peek_sees_head_in_both_lists() {
        let mut h = heap();
        let q = PmQueue::empty(&mut h).enqueue(&mut h, 5).enqueue(&mut h, 6);
        // Head is in the rear (never dequeued yet).
        assert_eq!(q.peek(&mut h), Some(5));
        let (q2, _) = q.dequeue(&mut h).unwrap();
        // Now the front chain exists.
        assert_eq!(q2.peek(&mut h), Some(6));
    }

    #[test]
    fn reversal_happens_and_preserves_order() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        for i in 0..5 {
            q = q.enqueue(&mut h, i);
        }
        let flushes_before = h.pm().stats().flushes_issued;
        let (q2, e) = q.dequeue(&mut h).unwrap();
        let flushes_after = h.pm().stats().flushes_issued;
        assert_eq!(e, 0);
        // The reversal allocated 5 fresh cells → extra flushing, as §6.4
        // describes for MOD queue pops.
        assert!(flushes_after - flushes_before > 5);
        assert_eq!(q2.to_vec(&mut h), vec![1, 2, 3, 4]);
    }

    #[test]
    fn matches_vecdeque_model() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut seed = 42u64;
        for step in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !seed.is_multiple_of(3) {
                q = q.enqueue(&mut h, step);
                model.push_back(step);
            } else if let Some((nq, e)) = q.dequeue(&mut h) {
                assert_eq!(Some(e), model.pop_front());
                q = nq;
            } else {
                assert!(model.is_empty());
            }
            assert_eq!(q.len(&mut h) as usize, model.len());
        }
        assert_eq!(q.to_vec(&mut h), Vec::from(model));
    }

    #[test]
    fn release_reclaims_everything() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        for i in 0..50 {
            let nq = q.enqueue(&mut h, i);
            q.release(&mut h);
            q = nq;
        }
        while let Some((nq, _)) = q.dequeue(&mut h) {
            q.release(&mut h);
            q = nq;
        }
        q.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn everything_flushed_before_fence() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        for i in 0..20 {
            q = q.enqueue(&mut h, i);
        }
        let (_q2, _) = q.dequeue(&mut h).unwrap(); // includes a reversal
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }
}
