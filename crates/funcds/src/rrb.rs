//! Radix-balanced vector — the MOD **vector** substrate.
//!
//! A persistent vector in the Relaxed-Radix-Balanced family (Stucki et
//! al., ICFP '15; Puente, which the paper cites as its vector
//! implementation), restricted to its regular case: a 32-way branching
//! tree of `u64` elements with a tail buffer.
//!
//! There are no relaxed (size-table) nodes. They exist only to make
//! concatenation and slicing cheap, and this vector offers neither: its
//! operations are `from_slice`, `push_back`, `update` and `pop_back`,
//! which keep every in-tree leaf full (32 elements) and the tree packed
//! to the left. An element's path is therefore pure radix arithmetic —
//! five index bits per level — and no operation reads a child's element
//! count.
//!
//! Stored blocks:
//! - leaf: `[KIND_LEAF][count][elem × count]`;
//! - inner: `[KIND_INNER][count][child × count]`, with `count ≤ 32` and
//!   the children 32-bit block indices packed two to a word, an odd
//!   count padding the last word with null ([`mod_alloc::pack_ptrs`]); a
//!   full node is 144 bytes. The high half of the count word is zero; a
//!   node that sets it is not this format, and reading it panics naming
//!   the node;
//! - the version's root object, 24 bytes:
//!   `[len][root | tail << 32][shift | tail_len << 32]`, tree root and
//!   tail leaf as 32-bit block indices ([`mod_alloc::pack_ptr`]).
//!
//! Every update is a pure path copy, so a `push_back`/`update` rewrites
//! O(log₃₂ n) nodes while sharing the rest — this is exactly why the
//! paper's Fig 10 shows vector writes flushing many more cachelines than
//! PMDK's flat array, and why Fig 9 shows vector as MOD's losing case.

use crate::node::{drop_temp, store_words, NodeBuf, KIND_INNER, KIND_LEAF};
use crate::DsKind;
use mod_alloc::{pack_ptr, pack_ptrs, unpack_ptr, unpack_ptrs, HeapRead, NvHeap, Visit};
use mod_pmem::PmPtr;

/// Branching factor.
const B: usize = 32;
/// Bits consumed per level.
pub(crate) const BITS: u64 = 5;

/// Handle to one immutable version of a persistent vector of `u64`s.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmVector {
    root: PmPtr,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RootImg {
    len: u64,
    pub(crate) shift: u64,
    pub(crate) root: PmPtr,
    pub(crate) tail: PmPtr,
    tail_len: u64,
}

#[derive(Clone, Debug)]
struct LeafImg {
    elems: Vec<u64>,
}

/// Child slot of `index` in a node at `shift` (shift 0 = leaf).
fn radix(index: u64, shift: u64) -> usize {
    ((index >> shift) & (B as u64 - 1)) as usize
}

fn read_leaf<'a>(heap: impl Into<HeapRead<'a>>, node: PmPtr) -> LeafImg {
    let mut heap = heap.into();
    let kind = heap.u64(node.addr());
    assert_eq!(kind, KIND_LEAF, "expected leaf at {node}, kind {kind}");
    let count = heap.u64(node.addr() + 8) as usize;
    let mut elems = vec![0; count];
    heap.words(node.addr() + 16, &mut elems);
    LeafImg { elems }
}

/// An inner node's children.
///
/// # Panics
///
/// Panics, naming the node, unless it is an inner node whose count word
/// is at most 32 (and so has a zero high half).
pub(crate) fn read_inner<'a>(heap: impl Into<HeapRead<'a>>, node: PmPtr) -> Vec<PmPtr> {
    let mut heap = heap.into();
    let kind = heap.u64(node.addr());
    assert_eq!(kind, KIND_INNER, "expected inner at {node}, kind {kind}");
    let count = heap.u64(node.addr() + 8);
    assert!(
        count <= B as u64,
        "inner node at {node} has count word {count:#x}: not a radix-balanced \
         node of at most {B} children with a zero high half"
    );
    let mut body = [0; B / 2];
    let body = &mut body[..(count as usize).div_ceil(2)];
    heap.words(node.addr() + 16, body);
    unpack_ptrs(body).take(count as usize).collect()
}

fn store_leaf(heap: &mut NvHeap, img: &LeafImg) -> PmPtr {
    debug_assert!(!img.elems.is_empty() && img.elems.len() <= B);
    let mut b = NodeBuf::new();
    b.push_u64(KIND_LEAF).push_u64(img.elems.len() as u64);
    for &e in &img.elems {
        b.push_u64(e);
    }
    b.store(heap)
}

/// Stores an inner node; owns (increments) every child pointer.
fn store_inner(heap: &mut NvHeap, children: &[PmPtr]) -> PmPtr {
    debug_assert!((1..=B).contains(&children.len()));
    let mut b = NodeBuf::new();
    b.push_u64(KIND_INNER).push_u64(children.len() as u64);
    for w in pack_ptrs(children.iter().copied()) {
        b.push_u64(w);
    }
    let ptr = b.store(heap);
    heap.rc_inc_all(children.iter().copied());
    ptr
}

/// Builds a left spine of single-child inner nodes bringing `leaf` up to
/// `shift`. Returns a temp-owned pointer.
fn make_spine(heap: &mut NvHeap, shift: u64, leaf: PmPtr) -> PmPtr {
    if shift == 0 {
        heap.rc_inc(leaf);
        return leaf;
    }
    let child = make_spine(heap, shift - BITS, leaf);
    let fresh = store_inner(heap, &[child]);
    drop_temp(heap, child);
    fresh
}

/// Appends the full `leaf` at the rightmost edge of `node` (an inner at
/// `shift`). Returns the fresh temp-owned copy, or `None` if the subtree
/// is full.
fn push_leaf_rec(heap: &mut NvHeap, node: PmPtr, shift: u64, leaf: PmPtr) -> Option<PmPtr> {
    let mut children = read_inner(&mut *heap, node);
    if shift == BITS {
        if children.len() == B {
            return None;
        }
        children.push(leaf);
        return Some(store_inner(heap, &children));
    }
    let last_idx = children.len() - 1;
    if let Some(new_last) = push_leaf_rec(heap, children[last_idx], shift - BITS, leaf) {
        children[last_idx] = new_last;
        let fresh = store_inner(heap, &children);
        drop_temp(heap, new_last);
        return Some(fresh);
    }
    if children.len() == B {
        return None;
    }
    // The rightmost child is full; start a new spine beside it.
    let spine = make_spine(heap, shift - BITS, leaf);
    children.push(spine);
    let fresh = store_inner(heap, &children);
    drop_temp(heap, spine);
    Some(fresh)
}

/// Pushes the full `leaf` into the tree, growing the root if needed.
/// Returns a temp-owned new root and the new shift.
fn push_tail(heap: &mut NvHeap, root: PmPtr, shift: u64, leaf: PmPtr) -> (PmPtr, u64) {
    if root.is_null() {
        heap.rc_inc(leaf);
        return (leaf, 0);
    }
    if shift > 0 {
        if let Some(fresh) = push_leaf_rec(heap, root, shift, leaf) {
            return (fresh, shift);
        }
    }
    // The root (or the lone root leaf) is full: grow a level.
    let spine = make_spine(heap, shift, leaf);
    let fresh = store_inner(heap, &[root, spine]);
    drop_temp(heap, spine);
    (fresh, shift + BITS)
}

/// Removes the rightmost leaf of the subtree at `node`. Returns
/// `(new_node_or_none, leaf)` with the extracted leaf temp-owned by the
/// caller; `None` when the subtree held only that leaf.
fn pop_leaf_rec(heap: &mut NvHeap, node: PmPtr, shift: u64) -> (Option<PmPtr>, PmPtr) {
    if shift == 0 {
        heap.rc_inc(node); // caller's temp ownership of the leaf
        return (None, node);
    }
    let mut children = read_inner(&mut *heap, node);
    let last = children.pop().expect("a stored inner node has a child");
    let (new_last, leaf) = pop_leaf_rec(heap, last, shift - BITS);
    children.extend(new_last);
    let fresh = (!children.is_empty()).then(|| store_inner(heap, &children));
    if let Some(nl) = new_last {
        drop_temp(heap, nl);
    }
    (fresh, leaf)
}

/// Collapses single-child root chains. Takes and returns temp ownership.
fn shrink_root(heap: &mut NvHeap, mut node: PmPtr, mut shift: u64) -> (PmPtr, u64) {
    while shift > 0 {
        let children = read_inner(&mut *heap, node);
        if children.len() != 1 {
            break;
        }
        let child = children[0];
        heap.rc_inc(child);
        heap.walk(Visit::Release, node, DsKind::VecNode(shift)); // drops our temp ownership
        node = child;
        shift -= BITS;
    }
    (node, shift)
}

impl PmVector {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates an empty vector.
    pub fn empty(heap: &mut NvHeap) -> PmVector {
        Self::store_root_obj(
            heap,
            &RootImg {
                len: 0,
                shift: 0,
                root: PmPtr::NULL,
                tail: PmPtr::NULL,
                tail_len: 0,
            },
        )
    }

    /// Bulk-loads a vector from a slice (used to set up the paper's
    /// 1 M-element workloads without a million push_back versions).
    pub fn from_slice(heap: &mut NvHeap, elems: &[u64]) -> PmVector {
        if elems.is_empty() {
            return Self::empty(heap);
        }
        let mut tail_len = elems.len() % B;
        if tail_len == 0 {
            tail_len = B;
        }
        let (tree_elems, tail_elems) = elems.split_at(elems.len() - tail_len);
        let tail = store_leaf(
            heap,
            &LeafImg {
                elems: tail_elems.to_vec(),
            },
        );
        // Build full leaves, then parent levels bottom-up.
        let mut level: Vec<PmPtr> = tree_elems
            .chunks(B)
            .map(|c| store_leaf(heap, &LeafImg { elems: c.to_vec() }))
            .collect();
        let mut shift = 0u64;
        while level.len() > 1 {
            shift += BITS;
            level = level
                .chunks(B)
                .map(|group| {
                    let fresh = store_inner(heap, group);
                    for &c in group {
                        drop_temp(heap, c);
                    }
                    fresh
                })
                .collect();
        }
        let (root, shift) = match level.len() {
            0 => (PmPtr::NULL, 0),
            _ => (level[0], shift),
        };
        let img = RootImg {
            len: elems.len() as u64,
            shift,
            root,
            tail,
            tail_len: tail_len as u64,
        };
        let v = Self::store_root_obj(heap, &img);
        if !root.is_null() {
            drop_temp(heap, root);
        }
        drop_temp(heap, tail);
        v
    }

    /// Rebuilds a handle from a raw root pointer.
    pub fn from_root(root: PmPtr) -> PmVector {
        PmVector { root }
    }

    /// The version's root object pointer.
    pub fn root(&self) -> PmPtr {
        self.root
    }

    pub(crate) fn read_root_obj<'a>(&self, heap: impl Into<HeapRead<'a>>) -> RootImg {
        let mut words = [0; 3];
        heap.into().words(self.root.addr(), &mut words);
        let [len, ptrs, sizes] = words;
        RootImg {
            len,
            root: unpack_ptr(ptrs as u32),
            tail: unpack_ptr((ptrs >> 32) as u32),
            shift: sizes & u32::MAX as u64,
            tail_len: sizes >> 32,
        }
    }

    /// Stores a root object `[len][root | tail << 32][shift | tail_len <<
    /// 32]`; owns root and tail pointers.
    fn store_root_obj(heap: &mut NvHeap, img: &RootImg) -> PmVector {
        let words = [
            img.len,
            pack_ptr(img.root) as u64 | (pack_ptr(img.tail) as u64) << 32,
            img.shift | img.tail_len << 32,
        ];
        let root = store_words(heap, &words);
        heap.rc_inc_all([img.root, img.tail]);
        PmVector { root }
    }

    /// Number of elements. Like every read accessor here it charges on
    /// `&mut NvHeap` and is free on `&NvHeap` (see [`HeapRead`]).
    pub fn len<'a>(&self, heap: impl Into<HeapRead<'a>>) -> u64 {
        heap.into().u64(self.root.addr())
    }

    /// Whether the vector is empty.
    pub fn is_empty<'a>(&self, heap: impl Into<HeapRead<'a>>) -> bool {
        self.len(heap) == 0
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get<'a>(&self, heap: impl Into<HeapRead<'a>>, index: u64) -> u64 {
        let mut heap = heap.into();
        let img = self.read_root_obj(&mut heap);
        assert!(index < img.len, "index {index} out of bounds ({})", img.len);
        let tail_offset = img.len - img.tail_len;
        if index >= tail_offset {
            return heap.u64(img.tail.addr() + 16 + 8 * (index - tail_offset));
        }
        let mut node = img.root;
        let mut shift = img.shift;
        while shift > 0 {
            node = read_inner(&mut heap, node)[radix(index, shift)];
            shift -= BITS;
        }
        heap.u64(node.addr() + 16 + 8 * radix(index, 0) as u64)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Pure append: new version with `elem` at the end.
    pub fn push_back(&self, heap: &mut NvHeap, elem: u64) -> PmVector {
        let img = self.read_root_obj(&mut *heap);
        if img.tail_len < B as u64 && img.len > 0 {
            let mut tail = read_leaf(&mut *heap, img.tail);
            tail.elems.push(elem);
            let new_tail = store_leaf(heap, &tail);
            let v = Self::store_root_obj(
                heap,
                &RootImg {
                    len: img.len + 1,
                    tail: new_tail,
                    tail_len: img.tail_len + 1,
                    ..img
                },
            );
            drop_temp(heap, new_tail);
            return v;
        }
        if img.len == 0 {
            let new_tail = store_leaf(heap, &LeafImg { elems: vec![elem] });
            let v = Self::store_root_obj(
                heap,
                &RootImg {
                    len: 1,
                    shift: 0,
                    root: PmPtr::NULL,
                    tail: new_tail,
                    tail_len: 1,
                },
            );
            drop_temp(heap, new_tail);
            return v;
        }
        // Tail full: migrate it into the tree, start a fresh tail.
        let (new_root, new_shift) = push_tail(heap, img.root, img.shift, img.tail);
        let new_tail = store_leaf(heap, &LeafImg { elems: vec![elem] });
        let v = Self::store_root_obj(
            heap,
            &RootImg {
                len: img.len + 1,
                shift: new_shift,
                root: new_root,
                tail: new_tail,
                tail_len: 1,
            },
        );
        drop_temp(heap, new_root);
        drop_temp(heap, new_tail);
        v
    }

    /// Pure point update: new version with `elem` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn update(&self, heap: &mut NvHeap, index: u64, elem: u64) -> PmVector {
        let img = self.read_root_obj(&mut *heap);
        assert!(index < img.len, "index {index} out of bounds ({})", img.len);
        let tail_offset = img.len - img.tail_len;
        if index >= tail_offset {
            let mut tail = read_leaf(&mut *heap, img.tail);
            tail.elems[(index - tail_offset) as usize] = elem;
            let new_tail = store_leaf(heap, &tail);
            let v = Self::store_root_obj(
                heap,
                &RootImg {
                    tail: new_tail,
                    ..img
                },
            );
            drop_temp(heap, new_tail);
            return v;
        }
        let new_root = update_rec(heap, img.root, img.shift, index, elem);
        let v = Self::store_root_obj(
            heap,
            &RootImg {
                root: new_root,
                ..img
            },
        );
        drop_temp(heap, new_root);
        v
    }

    /// Pure removal of the last element: `(new_version, elem)`, or `None`
    /// if empty.
    pub fn pop_back(&self, heap: &mut NvHeap) -> Option<(PmVector, u64)> {
        let img = self.read_root_obj(&mut *heap);
        if img.len == 0 {
            return None;
        }
        let last = self.get(&mut *heap, img.len - 1);
        if img.tail_len > 1 {
            let mut tail = read_leaf(&mut *heap, img.tail);
            tail.elems.pop();
            let new_tail = store_leaf(heap, &tail);
            let v = Self::store_root_obj(
                heap,
                &RootImg {
                    len: img.len - 1,
                    tail: new_tail,
                    tail_len: img.tail_len - 1,
                    ..img
                },
            );
            drop_temp(heap, new_tail);
            return Some((v, last));
        }
        if img.root.is_null() {
            return Some((Self::empty(heap), last));
        }
        // Tail exhausted: pull the rightmost tree leaf out as the new tail.
        let (new_root_opt, leaf) = pop_leaf_rec(heap, img.root, img.shift);
        let leaf_count = heap.read_u64(leaf.addr() + 8);
        let (root, shift) = match new_root_opt {
            None => (PmPtr::NULL, 0),
            Some(r) => shrink_root(heap, r, img.shift),
        };
        let v = Self::store_root_obj(
            heap,
            &RootImg {
                len: img.len - 1,
                shift,
                root,
                tail: leaf,
                tail_len: leaf_count,
            },
        );
        if !root.is_null() {
            drop_temp(heap, root);
        }
        drop_temp(heap, leaf);
        Some((v, last))
    }

    /// Collects all elements in order (tests and small vectors).
    pub fn to_vec<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<u64> {
        let mut heap = heap.into();
        let img = self.read_root_obj(&mut heap);
        let mut out = Vec::with_capacity(img.len as usize);
        if !img.root.is_null() {
            collect_rec(&mut heap, img.root, img.shift, &mut out);
        }
        if !img.tail.is_null() {
            let tail = read_leaf(heap, img.tail);
            out.extend(tail.elems);
        }
        out
    }

    /// Releases this version's reference to its data.
    pub fn release(self, heap: &mut NvHeap) {
        heap.walk(Visit::Release, self.root, DsKind::Vector)
    }
}

fn update_rec(heap: &mut NvHeap, node: PmPtr, shift: u64, index: u64, elem: u64) -> PmPtr {
    if shift == 0 {
        let mut leaf = read_leaf(&mut *heap, node);
        leaf.elems[radix(index, 0)] = elem;
        return store_leaf(heap, &leaf);
    }
    let mut children = read_inner(&mut *heap, node);
    let j = radix(index, shift);
    let new_child = update_rec(heap, children[j], shift - BITS, index, elem);
    children[j] = new_child;
    let fresh = store_inner(heap, &children);
    drop_temp(heap, new_child);
    fresh
}

fn collect_rec(heap: &mut HeapRead<'_>, node: PmPtr, shift: u64, out: &mut Vec<u64>) {
    if shift == 0 {
        let leaf = read_leaf(&mut *heap, node);
        out.extend(leaf.elems);
        return;
    }
    for c in read_inner(&mut *heap, node) {
        collect_rec(heap, c, shift - BITS, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    fn step_push(heap: &mut NvHeap, v: PmVector, e: u64) -> PmVector {
        let next = v.push_back(heap, e);
        v.release(heap);
        next
    }

    #[test]
    fn push_and_get_small() {
        let mut h = heap();
        let mut v = PmVector::empty(&mut h);
        for i in 0..10 {
            v = v.push_back(&mut h, i * 100);
        }
        assert_eq!(v.len(&mut h), 10);
        for i in 0..10 {
            assert_eq!(v.get(&mut h, i), i * 100);
        }
    }

    #[test]
    fn push_past_tail_and_levels() {
        // Crosses the 32 (tail→tree), 1024+32 (root grow) boundaries.
        let mut h = heap();
        let mut v = PmVector::empty(&mut h);
        let n = 2500u64;
        for i in 0..n {
            v = step_push(&mut h, v, i);
        }
        assert_eq!(v.len(&mut h), n);
        for i in (0..n).step_by(97) {
            assert_eq!(v.get(&mut h, i), i);
        }
        assert_eq!(v.get(&mut h, n - 1), n - 1);
    }

    #[test]
    fn from_slice_matches_pushes() {
        let mut h = heap();
        let elems: Vec<u64> = (0..1500).map(|i| i * 7).collect();
        let v = PmVector::from_slice(&mut h, &elems);
        assert_eq!(v.to_vec(&mut h), elems);
        assert_eq!(v.len(&mut h), 1500);
        assert_eq!(v.get(&mut h, 1040), 1040 * 7);
    }

    #[test]
    fn from_slice_exact_multiple_of_32() {
        let mut h = heap();
        let elems: Vec<u64> = (0..1024).collect();
        let v = PmVector::from_slice(&mut h, &elems);
        assert_eq!(v.to_vec(&mut h), elems);
    }

    #[test]
    fn update_is_pure() {
        let mut h = heap();
        let elems: Vec<u64> = (0..200).collect();
        let v1 = PmVector::from_slice(&mut h, &elems);
        let v2 = v1.update(&mut h, 50, 9999);
        let v3 = v2.update(&mut h, 199, 8888); // tail position
        assert_eq!(v1.get(&mut h, 50), 50);
        assert_eq!(v2.get(&mut h, 50), 9999);
        assert_eq!(v2.get(&mut h, 199), 199);
        assert_eq!(v3.get(&mut h, 199), 8888);
        assert_eq!(v3.get(&mut h, 50), 9999);
    }

    #[test]
    fn pop_back_reverses_pushes() {
        let mut h = heap();
        let mut v = PmVector::empty(&mut h);
        let n = 100u64;
        for i in 0..n {
            v = step_push(&mut h, v, i);
        }
        for i in (0..n).rev() {
            let (nv, e) = v.pop_back(&mut h).unwrap();
            assert_eq!(e, i, "popping index {i}");
            v.release(&mut h);
            v = nv;
        }
        assert!(v.is_empty(&mut h));
        assert!(v.pop_back(&mut h).is_none());
    }

    #[test]
    fn pop_across_tail_boundary() {
        let mut h = heap();
        let elems: Vec<u64> = (0..65).collect(); // tree: 2 leaves, tail: 1
        let mut v = PmVector::from_slice(&mut h, &elems);
        for i in (0..65u64).rev() {
            let (nv, e) = v.pop_back(&mut h).unwrap();
            assert_eq!(e, i);
            v.release(&mut h);
            v = nv;
        }
        assert_eq!(v.len(&mut h), 0);
        assert_eq!(h.stats().live_blocks, 1, "only the empty root object");
    }

    #[test]
    fn no_leaks_through_mixed_ops() {
        let mut h = heap();
        let mut v = PmVector::empty(&mut h);
        for i in 0..300u64 {
            v = step_push(&mut h, v, i);
        }
        for i in (0..300u64).step_by(3) {
            let nv = v.update(&mut h, i, i + 1_000_000);
            v.release(&mut h);
            v = nv;
        }
        for _ in 0..300 {
            let (nv, _) = v.pop_back(&mut h).unwrap();
            v.release(&mut h);
            v = nv;
        }
        v.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn structural_sharing_on_update() {
        let mut h = heap();
        let elems: Vec<u64> = (0..100_000).collect();
        let v = PmVector::from_slice(&mut h, &elems);
        let live = h.stats().live_bytes;
        let before = h.stats().cumulative_alloc_bytes;
        let v2 = v.update(&mut h, 12345, 0);
        let delta = h.stats().cumulative_alloc_bytes - before;
        // A path copy of ~4 nodes; the ratio shrinks as the vector grows
        // (the paper's <0.01% holds at 1M elements — see the table3 bench).
        assert!(
            (delta as f64) < 0.002 * live as f64,
            "update shadow {delta}B vs {live}B live"
        );
        assert_eq!(v2.get(&mut h, 12345), 0);
    }

    #[test]
    fn everything_flushed_before_fence() {
        let mut h = heap();
        let elems: Vec<u64> = (0..2000).collect();
        let v = PmVector::from_slice(&mut h, &elems);
        let _v2 = v.update(&mut h, 1234, 9);
        let _v3 = v.push_back(&mut h, 1);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let mut h = heap();
        let v = PmVector::from_slice(&mut h, &[1, 2, 3]);
        v.get(&mut h, 3);
    }

    #[test]
    fn get_update_through_deep_regular_tree() {
        // 40 000 elements: a shift-15 root over four levels of nodes,
        // its last subtree partly filled by pushes.
        let mut h = heap();
        let mut want: Vec<u64> = (0..33_000).map(|i| i * 3).collect();
        let mut acc = PmVector::from_slice(&mut h, &want);
        for i in 0..7_000u64 {
            acc = step_push(&mut h, acc, 1_000_000 + i);
            want.push(1_000_000 + i);
        }
        assert_eq!(acc.read_root_obj(&h).shift, 3 * BITS);
        assert_eq!(acc.to_vec(&mut h), want);
        let last = want.len() - 1;
        for idx in [0usize, 31, 32, 1023, 1024, 32_767, 32_768, 32_800, last] {
            assert_eq!(acc.get(&mut h, idx as u64), want[idx], "index {idx}");
        }
        let upd = acc.update(&mut h, 32_768, 42);
        assert_eq!(upd.get(&mut h, 32_768), 42);
        assert_eq!(upd.get(&mut h, 32_767), want[32_767]);
        assert_eq!(acc.get(&mut h, 32_768), want[32_768]);
    }

    /// Walks `v`'s tree on the peek path and asserts the radix-balanced
    /// shape: every inner count word is at most 32 with a zero high
    /// half, every in-tree leaf holds exactly 32 elements, an inner root
    /// has at least two children, and tree plus tail hold `len`.
    fn assert_regular(h: &NvHeap, v: PmVector) {
        fn walk(h: &NvHeap, node: PmPtr, shift: u64) -> u64 {
            let mut r = HeapRead::from(h);
            let count = r.u64(node.addr() + 8);
            if shift == 0 {
                assert_eq!(r.u64(node.addr()), KIND_LEAF, "leaf {node}");
                assert_eq!(count, B as u64, "in-tree leaf {node} is not full");
                return count;
            }
            assert_eq!(r.u64(node.addr()), KIND_INNER, "inner {node}");
            assert_eq!(count >> 32, 0, "inner {node}: count word {count:#x}");
            assert!((1..=B as u64).contains(&count), "inner {node}: {count}");
            let mut body = vec![0; count.div_ceil(2) as usize];
            r.words(node.addr() + 16, &mut body);
            if count % 2 == 1 {
                assert_eq!(body[body.len() - 1] >> 32, 0, "inner {node}: pad");
            }
            unpack_ptrs(&body)
                .take(count as usize)
                .map(|c| walk(h, c, shift - BITS))
                .sum()
        }
        let img = v.read_root_obj(h);
        let tree = if img.root.is_null() {
            0
        } else {
            walk(h, img.root, img.shift)
        };
        if img.shift > 0 {
            assert!(read_inner(h, img.root).len() >= 2, "unshrunk root");
        }
        assert_eq!(tree + img.tail_len, img.len);
        assert!(img.len == 0 || (1..=B as u64).contains(&img.tail_len));
    }

    #[test]
    fn every_op_stream_keeps_the_tree_regular() {
        // Each stream starts up to 40 below a boundary where the root
        // changes height (33: first tail migration; 1 057: shift 5 → 10;
        // 32 801: shift 10 → 15) or below B + B² + B³, climbs 40 past
        // it, falls back to its start and climbs again, with point
        // updates mixed in. The shape is checked after every step.
        for (seed, boundary) in [(1u64, 32u64), (2, 1056), (3, 32_800), (4, 33_824)] {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut h = heap();
            let start = boundary.saturating_sub(40);
            let mut model: Vec<u64> = (0..start).collect();
            let mut v = PmVector::from_slice(&mut h, &model);
            assert_regular(&h, v);
            let (mut crossed_up, mut crossed_down) = (0, 0);
            while crossed_up < 2 {
                let len = model.len() as u64;
                let climbing = crossed_up == crossed_down;
                let nv = if next() % 4 == 0 && len > 0 {
                    let (i, e) = (next() % len, next());
                    model[i as usize] = e;
                    v.update(&mut h, i, e)
                } else if climbing {
                    let e = next();
                    model.push(e);
                    v.push_back(&mut h, e)
                } else {
                    let (nv, e) = v.pop_back(&mut h).unwrap();
                    assert_eq!(Some(e), model.pop());
                    nv
                };
                v.release(&mut h);
                v = nv;
                assert_regular(&h, v);
                let len = model.len() as u64;
                if climbing && len >= boundary + 40 {
                    crossed_up += 1;
                } else if !climbing && len <= start {
                    crossed_down += 1;
                }
            }
            assert_eq!(v.to_vec(&mut h), model, "boundary {boundary}");
            v.release(&mut h);
            assert_eq!(h.stats().live_blocks, 0, "boundary {boundary}");
        }
    }

    #[test]
    fn root_object_is_24_bytes_and_reads_back_equal_on_both_paths() {
        let mut h = heap();
        let before = h.pm().stats().bytes_written;
        let empty = PmVector::empty(&mut h);
        assert_eq!(
            h.pm().stats().bytes_written - before,
            mod_alloc::HEADER_BYTES + 24
        );
        assert_eq!(h.block_len(empty.root()), 32, "24-byte root, class 32");
        for n in [0u64, 1, 40, 1100] {
            let v = PmVector::from_slice(&mut h, &(0..n).collect::<Vec<_>>());
            let peek = v.read_root_obj(&h);
            assert_eq!(v.read_root_obj(&mut h), peek, "{n} elements");
            assert_eq!(peek.len, n);
            assert_eq!(peek.tail_len, if n == 0 { 0 } else { (n - 1) % 32 + 1 });
            assert_eq!(peek.tail.is_null(), n == 0);
            assert_eq!(peek.root.is_null(), n <= 32);
            let words: Vec<u64> = (0..3)
                .map(|k| h.read_u64(v.root().addr() + 8 * k))
                .collect();
            assert_eq!(
                words,
                [
                    n,
                    pack_ptr(peek.root) as u64 | (pack_ptr(peek.tail) as u64) << 32,
                    peek.shift | peek.tail_len << 32
                ]
            );
        }
    }

    /// The formatted message of the panic `run` raises.
    fn panic_message(run: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
        *err.downcast::<String>().unwrap()
    }

    #[test]
    fn flagged_count_word_panics_naming_the_node() {
        // An inner root whose count word gets a high half by hand, fenced.
        let mut h = heap();
        let v = PmVector::from_slice(&mut h, &(0..100).collect::<Vec<_>>());
        let root = v.read_root_obj(&h).root;
        let count = h.read_u64(root.addr() + 8);
        h.write_u64(root.addr() + 8, count | 1 << 32);
        h.flush_range(root.addr() + 8, 8);
        h.sfence();
        let msg = panic_message(|| {
            v.get(&mut h, 5);
        });
        assert!(msg.contains(&format!("inner node at {root}")), "{msg}");

        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        let mut h2 = NvHeap::open(img);
        let msg = panic_message(|| h2.walk(Visit::Mark, v.root(), DsKind::Vector));
        assert!(msg.contains(&format!("inner node at {root}")), "{msg}");
    }
}
