//! Persistent two-list (banker's) queue — the MOD **queue** substrate.
//!
//! The classic functional queue: enqueue conses onto a *rear* list; dequeue
//! pops the *front* list, and when the front is exhausted the rear is
//! reversed to become the new front. The paper notes exactly this cost
//! profile: "Pop operations in the MOD queue occasionally require a
//! reversal of one of the internal linked lists resulting in greater
//! flushing activity" (§6.4) — the reversal allocates and flushes a fresh
//! chain, all with unordered `clwb`s.
//!
//! Invariant: the front is empty only when the whole queue is. An enqueue
//! onto an empty queue conses onto the front, and the dequeue that
//! empties the front reverses the rear there and then. So the head is
//! always the front cell, and [`PmQueue::peek`] reads a constant number
//! of words whatever the queue's length.
//!
//! A version's root object is 24 bytes:
//!
//! ```text
//! [front_len][rear_len][front | rear << 32]
//! ```
//!
//! with both chain heads as 32-bit block indices ([`mod_alloc::pack_ptr`])
//! and the length as `front_len + rear_len`. Cells are the 16-byte cons
//! cells of [`crate::list`].

use crate::list::{cell_elem, cell_next, chain_elems, cons};
use crate::node::store_words;
use crate::DsKind;
use mod_alloc::{pack_ptr, unpack_ptr, HeapRead, NvHeap, Visit};
use mod_pmem::PmPtr;

/// Handle to one immutable version of a persistent FIFO queue.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmQueue {
    root: PmPtr,
}

pub(crate) struct RootImage {
    pub(crate) front: PmPtr,
    front_len: u64,
    pub(crate) rear: PmPtr,
    rear_len: u64,
}

impl PmQueue {
    /// Creates an empty queue.
    pub fn empty(heap: &mut NvHeap) -> PmQueue {
        PmQueue {
            root: store_words(heap, &[0; 3]),
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

    pub(crate) fn read_root<'a>(&self, heap: impl Into<HeapRead<'a>>) -> RootImage {
        let mut words = [0; 3];
        heap.into().words(self.root.addr(), &mut words);
        let [front_len, rear_len, ptrs] = words;
        RootImage {
            front: unpack_ptr(ptrs as u32),
            front_len,
            rear: unpack_ptr((ptrs >> 32) as u32),
            rear_len,
        }
    }

    /// Stores a root object `[front_len][rear_len][front | rear << 32]`.
    fn store_root(heap: &mut NvHeap, img: &RootImage) -> PmQueue {
        let words = [
            img.front_len,
            img.rear_len,
            pack_ptr(img.front) as u64 | (pack_ptr(img.rear) as u64) << 32,
        ];
        PmQueue {
            root: store_words(heap, &words),
        }
    }

    /// Number of elements, `front_len + rear_len`. Like every read
    /// accessor here it charges on `&mut NvHeap` and is free on `&NvHeap`
    /// (see [`HeapRead`]).
    pub fn len<'a>(&self, heap: impl Into<HeapRead<'a>>) -> u64 {
        let mut lens = [0; 2];
        heap.into().words(self.root.addr(), &mut lens);
        lens[0] + lens[1]
    }

    /// Whether the queue is empty.
    pub fn is_empty<'a>(&self, heap: impl Into<HeapRead<'a>>) -> bool {
        self.len(heap) == 0
    }

    /// Pure enqueue: new version with `elem` at the back. Onto an empty
    /// queue the element becomes the front, keeping "front empty ⇒ queue
    /// empty".
    pub fn enqueue(&self, heap: &mut NvHeap, elem: u64) -> PmQueue {
        let mut img = self.read_root(&mut *heap);
        if img.front.is_null() {
            img.front = cons(heap, elem, PmPtr::NULL);
            img.front_len = 1;
            return Self::store_root(heap, &img);
        }
        heap.rc_inc(img.front);
        if !img.rear.is_null() {
            heap.rc_inc(img.rear);
        }
        img.rear = cons(heap, elem, img.rear);
        img.rear_len += 1;
        Self::store_root(heap, &img)
    }

    /// Pure dequeue: new version and the removed element, or `None` if
    /// empty. A dequeue that empties the front reverses the rear into a
    /// fresh front chain.
    pub fn dequeue(&self, heap: &mut NvHeap) -> Option<(PmQueue, u64)> {
        let mut img = self.read_root(&mut *heap);
        if img.front.is_null() {
            return None;
        }
        let elem = cell_elem(&mut *heap, img.front);
        let next = cell_next(&mut *heap, img.front);
        if next.is_null() {
            // Every reversed cell is fresh (flushed, unordered) and the
            // chain's one reference passes to the new root; the old rear
            // chain is untouched and stays owned by the previous version.
            let mut reversed = PmPtr::NULL;
            let mut cur = img.rear;
            while !cur.is_null() {
                let e = cell_elem(&mut *heap, cur);
                reversed = cons(heap, e, reversed);
                cur = cell_next(&mut *heap, cur);
            }
            img.front = reversed;
            img.front_len = img.rear_len;
            img.rear = PmPtr::NULL;
            img.rear_len = 0;
        } else {
            heap.rc_inc(next);
            if !img.rear.is_null() {
                heap.rc_inc(img.rear);
            }
            img.front = next;
            img.front_len -= 1;
        }
        Some((Self::store_root(heap, &img), elem))
    }

    /// The element at the head, if any: the front cell's, read in a
    /// constant number of reads whatever the queue's length.
    pub fn peek<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Option<u64> {
        let mut heap = heap.into();
        let front = unpack_ptr(heap.u32(self.root.addr() + 16));
        (!front.is_null()).then(|| cell_elem(heap, front))
    }

    /// Collects front-to-back (diagnostics and tests).
    pub fn to_vec<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<u64> {
        let mut heap = heap.into();
        let img = self.read_root(&mut heap);
        let mut out = chain_elems(&mut heap, img.front);
        out.extend(chain_elems(&mut heap, img.rear).into_iter().rev());
        out
    }

    /// [`PmQueue::to_vec`] on `&NvHeap`. Kept only because the
    /// `benchmark/` crate calls it.
    pub fn peek_to_vec(&self, heap: &NvHeap) -> Vec<u64> {
        self.to_vec(heap)
    }

    /// Releases this version's reference to its data.
    pub fn release(self, heap: &mut NvHeap) {
        heap.walk(Visit::Release, self.root, DsKind::Queue)
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
    fn peek_sees_the_head_before_and_after_a_reversal() {
        let mut h = heap();
        let q = PmQueue::empty(&mut h).enqueue(&mut h, 5).enqueue(&mut h, 6);
        // 5 went onto the empty queue's front, 6 onto the rear.
        assert_eq!(q.peek(&mut h), Some(5));
        let (q2, _) = q.dequeue(&mut h).unwrap();
        // Emptying the front reversed the rear into it.
        assert_eq!(q2.peek(&mut h), Some(6));
        assert_eq!(q2.peek(&h), Some(6));
        let (q3, _) = q2.dequeue(&mut h).unwrap();
        assert_eq!(q3.peek(&mut h), None);
    }

    #[test]
    fn peek_reads_a_constant_number_of_words() {
        // 10 000 enqueues and no dequeue: the head is still the front
        // cell, so a charged peek costs what it costs on a 1-element
        // queue — it never walks the rear chain.
        let mut h = heap();
        let reads_of = |h: &mut NvHeap, q: PmQueue| {
            let before = h.pm().stats().reads;
            assert_eq!(q.peek(&mut *h), Some(0));
            h.pm().stats().reads - before
        };
        let mut q = PmQueue::empty(&mut h).enqueue(&mut h, 0);
        let one = reads_of(&mut h, q);
        for i in 1..10_000 {
            let next = q.enqueue(&mut h, i);
            q.release(&mut h);
            q = next;
        }
        assert_eq!(q.len(&h), 10_000);
        assert_eq!(reads_of(&mut h, q), one);
        assert!(one <= 3, "peek charged {one} reads");
    }

    #[test]
    fn reversal_happens_and_preserves_order() {
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        for i in 0..6 {
            q = q.enqueue(&mut h, i);
        }
        let cells_before = h.stats().live_blocks;
        let flushes_before = h.pm().stats().flushes_issued;
        let (q2, e) = q.dequeue(&mut h).unwrap();
        let flushes_after = h.pm().stats().flushes_issued;
        assert_eq!(e, 0);
        // Popping the lone front cell reversed the 5 rear cells into 5
        // fresh ones (plus the new root) → extra flushing, as §6.4
        // describes for MOD queue pops.
        assert_eq!(h.stats().live_blocks, cells_before + 6);
        assert!(flushes_after - flushes_before > 5);
        assert_eq!(q2.to_vec(&mut h), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn root_object_is_24_bytes_and_reads_back_equal_on_both_paths() {
        let mut h = heap();
        let before = h.pm().stats().bytes_written;
        let mut q = PmQueue::empty(&mut h);
        assert_eq!(
            h.pm().stats().bytes_written - before,
            mod_alloc::HEADER_BYTES + 24
        );
        for i in 0..7 {
            q = q.enqueue(&mut h, i);
        }
        let (q, _) = q.dequeue(&mut h).unwrap();
        let q = q.enqueue(&mut h, 7);
        assert_eq!(h.block_len(q.root()), 32, "24-byte root, class 32");
        let img = q.read_root(&h);
        assert_eq!((img.front_len, img.rear_len), (6, 1));
        let charged = q.read_root(&mut h);
        assert_eq!(
            (
                charged.front,
                charged.front_len,
                charged.rear,
                charged.rear_len
            ),
            (img.front, img.front_len, img.rear, img.rear_len)
        );
        assert_eq!(h.read_u64(q.root().addr()), 6);
        assert_eq!(h.read_u64(q.root().addr() + 8), 1);
        let ptrs = h.read_u64(q.root().addr() + 16);
        assert_eq!(unpack_ptr(ptrs as u32), img.front);
        assert_eq!(unpack_ptr((ptrs >> 32) as u32), img.rear);
        assert_eq!(q.len(&mut h), q.len(&h));
        assert_eq!(q.to_vec(&h), (1..8).collect::<Vec<_>>());
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
