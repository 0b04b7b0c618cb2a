//! RRB-tree vector — the MOD **vector** substrate.
//!
//! A persistent vector in the Relaxed-Radix-Balanced family (Stucki et
//! al., ICFP '15; Puente, which the paper cites as its vector
//! implementation): a 32-way branching tree of `u64` elements with a tail
//! buffer. Regular nodes use pure radix indexing; nodes produced by
//! `concat` carry cumulative *size tables* ("relaxed" nodes) that lookups
//! traverse with a prefix scan.
//!
//! Every update is a pure path copy, so a `push_back`/`update` rewrites
//! O(log₃₂ n) nodes while sharing the rest — this is exactly why the
//! paper's Fig 10 shows vector writes flushing many more cachelines than
//! PMDK's flat array, and why Fig 9 shows vector as MOD's losing case.

use crate::node::{store_words, NodeBuf, KIND_INNER, KIND_LEAF, NODE_WORDS};
use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::PmPtr;

/// Branching factor.
const B: usize = 32;
/// Bits consumed per level.
const BITS: u64 = 5;

/// Handle to one immutable version of a persistent vector of `u64`s.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmVector {
    root: PmPtr,
}

#[derive(Clone, Debug)]
struct RootImg {
    len: u64,
    shift: u64,
    root: PmPtr,
    tail: PmPtr,
    tail_len: u64,
}

#[derive(Clone, Debug)]
struct LeafImg {
    elems: Vec<u64>,
}

#[derive(Clone, Debug)]
struct InnerImg {
    children: Vec<PmPtr>,
    /// Cumulative element counts per child; present on relaxed nodes.
    sizes: Option<Vec<u64>>,
}

fn read_leaf(heap: &mut NvHeap, node: PmPtr) -> LeafImg {
    read_leaf_r(&mut heap.into(), node)
}

fn read_leaf_r(heap: &mut HeapRead<'_>, node: PmPtr) -> LeafImg {
    let kind = heap.u64(node.addr());
    assert_eq!(kind, KIND_LEAF, "expected leaf at {node}, kind {kind}");
    let count = heap.u64(node.addr() + 8) as usize;
    let mut elems = vec![0; count];
    heap.words(node.addr() + 16, &mut elems);
    LeafImg { elems }
}

fn read_inner(heap: &mut NvHeap, node: PmPtr) -> InnerImg {
    read_inner_r(&mut heap.into(), node)
}

fn read_inner_r(heap: &mut HeapRead<'_>, node: PmPtr) -> InnerImg {
    let kind = heap.u64(node.addr());
    assert_eq!(kind, KIND_INNER, "expected inner at {node}, kind {kind}");
    let meta = heap.u64(node.addr() + 8);
    let count = (meta & 0xFFFF_FFFF) as usize;
    let has_sizes = (meta >> 32) != 0;
    let words = count + if has_sizes { count } else { 0 };
    let mut body = [0; NODE_WORDS];
    let body = &mut body[..words];
    heap.words(node.addr() + 16, body);
    let children = body[..count].iter().map(|&c| PmPtr::from_addr(c)).collect();
    let sizes = has_sizes.then(|| body[count..].to_vec());
    InnerImg { children, sizes }
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
fn store_inner(heap: &mut NvHeap, img: &InnerImg) -> PmPtr {
    let count = img.children.len();
    debug_assert!((1..=B).contains(&count));
    if let Some(s) = &img.sizes {
        debug_assert_eq!(s.len(), count);
    }
    let mut b = NodeBuf::new();
    b.push_u64(KIND_INNER)
        .push_u64(count as u64 | ((img.sizes.is_some() as u64) << 32));
    for &c in &img.children {
        b.push_ptr(c);
    }
    if let Some(s) = &img.sizes {
        for &v in s {
            b.push_u64(v);
        }
    }
    let ptr = b.store(heap);
    heap.rc_inc_all(img.children.iter().copied());
    ptr
}

fn drop_temp(heap: &mut NvHeap, ptr: PmPtr) {
    let left = heap.rc_dec(ptr);
    debug_assert!(left >= 1, "temp node should be co-owned");
}

/// Total elements in the subtree rooted at `node` (shift 0 = leaf).
fn subtree_count(heap: &mut NvHeap, node: PmPtr, shift: u64) -> u64 {
    if shift == 0 {
        return heap.read_u64(node.addr() + 8);
    }
    let img = read_inner(heap, node);
    if let Some(sizes) = &img.sizes {
        return *sizes.last().unwrap();
    }
    let full = (img.children.len() as u64 - 1) << shift;
    full + subtree_count(heap, *img.children.last().unwrap(), shift - BITS)
}

/// Cumulative sizes a regular node would have, for relaxation.
fn implied_sizes(heap: &mut NvHeap, img: &InnerImg, shift: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(img.children.len());
    let mut acc = 0u64;
    for (i, &c) in img.children.iter().enumerate() {
        acc += if i + 1 < img.children.len() {
            1 << shift
        } else {
            subtree_count(heap, c, shift - BITS)
        };
        out.push(acc);
    }
    out
}

/// Builds a left spine of single-child inner nodes bringing `leaf` up to
/// `shift`. Returns a temp-owned pointer.
fn make_spine(heap: &mut NvHeap, shift: u64, leaf: PmPtr) -> PmPtr {
    if shift == 0 {
        heap.rc_inc(leaf);
        return leaf;
    }
    let child = make_spine(heap, shift - BITS, leaf);
    let fresh = store_inner(
        heap,
        &InnerImg {
            children: vec![child],
            sizes: None,
        },
    );
    drop_temp(heap, child);
    fresh
}

/// Appends `leaf` to the rightmost edge of `node` (an inner at `shift`).
/// Returns the fresh temp-owned copy, or `None` if the edge is full.
fn push_leaf_rec(heap: &mut NvHeap, node: PmPtr, shift: u64, leaf: PmPtr) -> Option<PmPtr> {
    let mut img = read_inner(heap, node);
    let leaf_count = heap.read_u64(leaf.addr() + 8);
    if shift == BITS {
        if img.children.len() == B {
            return None;
        }
        // Regularity: appending after a partial sibling, or appending a
        // partial leaf that later gains a sibling, needs size tables.
        let last_full = {
            let last = *img.children.last().unwrap();
            subtree_count(heap, last, 0) == B as u64
        };
        if img.sizes.is_none() && !last_full {
            img.sizes = Some(implied_sizes(heap, &img, shift));
        }
        if let Some(sizes) = &mut img.sizes {
            let total = *sizes.last().unwrap();
            sizes.push(total + leaf_count);
        }
        img.children.push(leaf);
        return Some(store_inner(heap, &img));
    }
    let last_idx = img.children.len() - 1;
    let last = img.children[last_idx];
    if let Some(new_last) = push_leaf_rec(heap, last, shift - BITS, leaf) {
        img.children[last_idx] = new_last;
        if let Some(sizes) = &mut img.sizes {
            sizes[last_idx] += leaf_count;
        }
        let fresh = store_inner(heap, &img);
        drop_temp(heap, new_last);
        return Some(fresh);
    }
    if img.children.len() == B {
        return None;
    }
    // The rightmost edge of `last` is full; start a new spine. If `last`
    // is not a completely full subtree (relaxed history), sizes are
    // needed for correct radix math on the new sibling.
    if img.sizes.is_none() {
        let last_total = subtree_count(heap, last, shift - BITS);
        if last_total != 1 << shift {
            img.sizes = Some(implied_sizes(heap, &img, shift));
        }
    }
    let spine = make_spine(heap, shift - BITS, leaf);
    if let Some(sizes) = &mut img.sizes {
        let total = *sizes.last().unwrap();
        sizes.push(total + leaf_count);
    }
    img.children.push(spine);
    let fresh = store_inner(heap, &img);
    drop_temp(heap, spine);
    Some(fresh)
}

/// Pushes a (possibly partial) leaf into the tree, growing the root if
/// needed. Returns a temp-owned new root and the new shift.
fn push_tail(heap: &mut NvHeap, root: PmPtr, shift: u64, leaf: PmPtr) -> (PmPtr, u64) {
    if root.is_null() {
        heap.rc_inc(leaf);
        return (leaf, 0);
    }
    if shift == 0 {
        // Root is a single leaf; grow to one inner level.
        let root_count = heap.read_u64(root.addr() + 8);
        let sizes = (root_count != B as u64).then(|| {
            let leaf_count = heap.read_u64(leaf.addr() + 8);
            vec![root_count, root_count + leaf_count]
        });
        let fresh = store_inner(
            heap,
            &InnerImg {
                children: vec![root, leaf],
                sizes,
            },
        );
        return (fresh, BITS);
    }
    if let Some(fresh) = push_leaf_rec(heap, root, shift, leaf) {
        return (fresh, shift);
    }
    // Root full along its right edge: grow a level.
    let root_total = subtree_count(heap, root, shift);
    let leaf_count = heap.read_u64(leaf.addr() + 8);
    let sizes =
        (root_total != 1 << (shift + BITS)).then(|| vec![root_total, root_total + leaf_count]);
    let spine = make_spine(heap, shift, leaf);
    let fresh = store_inner(
        heap,
        &InnerImg {
            children: vec![root, spine],
            sizes,
        },
    );
    drop_temp(heap, spine);
    (fresh, shift + BITS)
}

/// Removes the rightmost leaf. Returns `(new_node_or_none, leaf)` with the
/// extracted leaf temp-owned by the caller.
fn pop_leaf_rec(heap: &mut NvHeap, node: PmPtr, shift: u64) -> (Option<PmPtr>, PmPtr) {
    let mut img = read_inner(heap, node);
    let last_idx = img.children.len() - 1;
    let last = img.children[last_idx];
    if shift == BITS {
        heap.rc_inc(last); // caller's temp ownership of the leaf
        if last_idx == 0 {
            return (None, last);
        }
        img.children.pop();
        if let Some(s) = &mut img.sizes {
            s.pop();
        }
        return (Some(store_inner(heap, &img)), last);
    }
    let (new_last, leaf) = pop_leaf_rec(heap, last, shift - BITS);
    let leaf_count = heap.read_u64(leaf.addr() + 8);
    match new_last {
        None => {
            if last_idx == 0 {
                (None, leaf)
            } else {
                img.children.pop();
                if let Some(s) = &mut img.sizes {
                    s.pop();
                }
                (Some(store_inner(heap, &img)), leaf)
            }
        }
        Some(nl) => {
            img.children[last_idx] = nl;
            if let Some(s) = &mut img.sizes {
                s[last_idx] -= leaf_count;
            }
            let fresh = store_inner(heap, &img);
            drop_temp(heap, nl);
            (Some(fresh), leaf)
        }
    }
}

/// Collapses single-child root chains. Takes and returns temp ownership.
fn shrink_root(heap: &mut NvHeap, mut node: PmPtr, mut shift: u64) -> (PmPtr, u64) {
    while shift > 0 {
        let img = read_inner(heap, node);
        if img.children.len() != 1 {
            break;
        }
        let child = img.children[0];
        heap.rc_inc(child);
        release_vec_node(heap, node, shift); // drops our temp ownership
        node = child;
        shift -= BITS;
    }
    (node, shift)
}

fn release_vec_node(heap: &mut NvHeap, node: PmPtr, shift: u64) {
    if heap.rc_dec(node) > 0 {
        return;
    }
    if shift == 0 {
        heap.free(node);
        return;
    }
    let img = read_inner(heap, node);
    heap.free(node);
    for c in img.children {
        release_vec_node(heap, c, shift - BITS);
    }
}

fn mark_vec_node(heap: &mut NvHeap, node: PmPtr, shift: u64) {
    if !heap.mark_block(node) {
        return;
    }
    if shift == 0 {
        return;
    }
    let img = read_inner(heap, node);
    for c in img.children {
        mark_vec_node(heap, c, shift - BITS);
    }
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
                    let fresh = store_inner(
                        heap,
                        &InnerImg {
                            children: group.to_vec(),
                            sizes: None,
                        },
                    );
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

    fn read_root_obj(&self, heap: &mut NvHeap) -> RootImg {
        self.read_root_obj_r(&mut heap.into())
    }

    fn read_root_obj_r(&self, heap: &mut HeapRead<'_>) -> RootImg {
        let a = self.root.addr();
        RootImg {
            len: heap.u64(a),
            shift: heap.u64(a + 8),
            root: PmPtr::from_addr(heap.u64(a + 16)),
            tail: PmPtr::from_addr(heap.u64(a + 24)),
            tail_len: heap.u64(a + 32),
        }
    }

    /// Stores a root object `[len][shift][root][tail][tail_len]`; owns
    /// root and tail pointers.
    fn store_root_obj(heap: &mut NvHeap, img: &RootImg) -> PmVector {
        let words = [
            img.len,
            img.shift,
            img.root.addr(),
            img.tail.addr(),
            img.tail_len,
        ];
        let root = store_words(heap, &words);
        heap.rc_inc_all([img.root, img.tail]);
        PmVector { root }
    }

    /// Number of elements.
    pub fn len(&self, heap: &mut NvHeap) -> u64 {
        heap.read_u64(self.root.addr())
    }

    /// Number of elements, without charging the cache/time model.
    pub fn peek_len(&self, heap: &NvHeap) -> u64 {
        heap.peek_u64(self.root.addr())
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self, heap: &mut NvHeap) -> bool {
        self.len(heap) == 0
    }

    /// Whether the vector is empty, without charging the cache/time model.
    pub fn peek_is_empty(&self, heap: &NvHeap) -> bool {
        self.peek_len(heap) == 0
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, heap: &mut NvHeap, index: u64) -> u64 {
        self.get_r(&mut heap.into(), index)
    }

    /// Read-only indexing on `&NvHeap`: no exclusive access, no simulated
    /// cache/time charges.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn peek_get(&self, heap: &NvHeap, index: u64) -> u64 {
        self.get_r(&mut heap.into(), index)
    }

    fn get_r(&self, heap: &mut HeapRead<'_>, index: u64) -> u64 {
        let img = self.read_root_obj_r(heap);
        assert!(index < img.len, "index {index} out of bounds ({})", img.len);
        let tail_offset = img.len - img.tail_len;
        if index >= tail_offset {
            return heap.u64(img.tail.addr() + 16 + 8 * (index - tail_offset));
        }
        let mut node = img.root;
        let mut shift = img.shift;
        let mut i = index;
        while shift > 0 {
            let inner = read_inner_r(heap, node);
            let j = match &inner.sizes {
                Some(sizes) => {
                    let j = sizes.partition_point(|&s| s <= i);
                    if j > 0 {
                        i -= sizes[j - 1];
                    }
                    j
                }
                None => {
                    let j = ((i >> shift) & (B as u64 - 1)) as usize;
                    i -= (j as u64) << shift;
                    j
                }
            };
            node = inner.children[j];
            shift -= BITS;
        }
        heap.u64(node.addr() + 16 + 8 * i)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Pure append: new version with `elem` at the end.
    pub fn push_back(&self, heap: &mut NvHeap, elem: u64) -> PmVector {
        let img = self.read_root_obj(heap);
        if img.tail_len < B as u64 && img.len > 0 {
            let mut tail = read_leaf(heap, img.tail);
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
        let img = self.read_root_obj(heap);
        assert!(index < img.len, "index {index} out of bounds ({})", img.len);
        let tail_offset = img.len - img.tail_len;
        if index >= tail_offset {
            let mut tail = read_leaf(heap, img.tail);
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
        let img = self.read_root_obj(heap);
        if img.len == 0 {
            return None;
        }
        let last = self.get(heap, img.len - 1);
        if img.tail_len > 1 {
            let mut tail = read_leaf(heap, img.tail);
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
        let (new_root_opt, leaf) = if img.shift == 0 {
            heap.rc_inc(img.root);
            (None, img.root)
        } else {
            pop_leaf_rec(heap, img.root, img.shift)
        };
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

    /// Pure concatenation: `self ++ other` as a new version, in
    /// O(log n) by joining the two trees under a relaxed root.
    pub fn concat(&self, heap: &mut NvHeap, other: &PmVector) -> PmVector {
        let a = self.read_root_obj(heap);
        let b = other.read_root_obj(heap);
        if a.len == 0 {
            return Self::store_root_obj(heap, &b);
        }
        if b.len == 0 {
            return Self::store_root_obj(heap, &a);
        }
        // Flush a's tail into a's tree so concatenation is tree ++ tree.
        let (ra, sa) = push_tail(heap, a.root, a.shift, a.tail);
        let (root, shift) = if b.root.is_null() {
            (ra, sa)
        } else {
            // Equalize heights, then join under a relaxed 2-ary root.
            let hi = sa.max(b.shift);
            let wa = wrap_to(heap, ra, sa, hi); // consumes temp ra
            heap.rc_inc(b.root);
            let wb = wrap_to(heap, b.root, b.shift, hi);
            let ca = subtree_count(heap, wa, hi);
            let cb = subtree_count(heap, wb, hi);
            let joined = store_inner(
                heap,
                &InnerImg {
                    children: vec![wa, wb],
                    sizes: Some(vec![ca, ca + cb]),
                },
            );
            drop_temp(heap, wa);
            drop_temp(heap, wb);
            (joined, hi + BITS)
        };
        let v = Self::store_root_obj(
            heap,
            &RootImg {
                len: a.len + b.len,
                shift,
                root,
                tail: b.tail,
                tail_len: b.tail_len,
            },
        );
        drop_temp(heap, root);
        v
    }

    /// Collects all elements in order (tests and small vectors).
    pub fn to_vec(&self, heap: &mut NvHeap) -> Vec<u64> {
        self.collect_entries_r(&mut heap.into())
    }

    /// Collects all elements in order on `&NvHeap` (read-only).
    pub fn peek_to_vec(&self, heap: &NvHeap) -> Vec<u64> {
        self.collect_entries_r(&mut heap.into())
    }

    fn collect_entries_r(&self, heap: &mut HeapRead<'_>) -> Vec<u64> {
        let img = self.read_root_obj_r(heap);
        let mut out = Vec::with_capacity(img.len as usize);
        if !img.root.is_null() {
            collect_rec(heap, img.root, img.shift, &mut out);
        }
        if !img.tail.is_null() {
            let tail = read_leaf_r(heap, img.tail);
            out.extend(tail.elems);
        }
        out
    }

    // ------------------------------------------------------------------
    // Reclamation and recovery
    // ------------------------------------------------------------------

    /// Releases this version's reference to its data.
    pub fn release(self, heap: &mut NvHeap) {
        if heap.rc_dec(self.root) == 0 {
            let img = self.read_root_obj(heap);
            heap.free(self.root);
            if !img.root.is_null() {
                release_vec_node(heap, img.root, img.shift);
            }
            if !img.tail.is_null() {
                release_vec_node(heap, img.tail, 0);
            }
        }
    }

    /// Marks this version's blocks during recovery GC.
    pub fn mark(&self, heap: &mut NvHeap) {
        if !heap.mark_block(self.root) {
            return;
        }
        let a = self.root.addr();
        let shift = heap.pm_mut().read_u64(a + 8);
        let root = PmPtr::from_addr(heap.pm_mut().read_u64(a + 16));
        let tail = PmPtr::from_addr(heap.pm_mut().read_u64(a + 24));
        if !root.is_null() {
            mark_vec_node(heap, root, shift);
        }
        if !tail.is_null() {
            mark_vec_node(heap, tail, 0);
        }
    }
}

fn update_rec(heap: &mut NvHeap, node: PmPtr, shift: u64, index: u64, elem: u64) -> PmPtr {
    if shift == 0 {
        let mut leaf = read_leaf(heap, node);
        leaf.elems[index as usize] = elem;
        return store_leaf(heap, &leaf);
    }
    let mut img = read_inner(heap, node);
    let (j, sub_index) = match &img.sizes {
        Some(sizes) => {
            let j = sizes.partition_point(|&s| s <= index);
            let prefix = if j > 0 { sizes[j - 1] } else { 0 };
            (j, index - prefix)
        }
        None => {
            let j = ((index >> shift) & (B as u64 - 1)) as usize;
            (j, index - ((j as u64) << shift))
        }
    };
    let new_child = update_rec(heap, img.children[j], shift - BITS, sub_index, elem);
    img.children[j] = new_child;
    let fresh = store_inner(heap, &img);
    drop_temp(heap, new_child);
    fresh
}

/// Wraps `node` (temp-owned, at `from` shift) in single-child spines up to
/// `to` shift. Returns temp ownership of the result.
fn wrap_to(heap: &mut NvHeap, node: PmPtr, from: u64, to: u64) -> PmPtr {
    let mut cur = node;
    let mut s = from;
    while s < to {
        let fresh = store_inner(
            heap,
            &InnerImg {
                children: vec![cur],
                sizes: None,
            },
        );
        drop_temp(heap, cur);
        cur = fresh;
        s += BITS;
    }
    cur
}

fn collect_rec(heap: &mut HeapRead<'_>, node: PmPtr, shift: u64, out: &mut Vec<u64>) {
    if shift == 0 {
        let leaf = read_leaf_r(heap, node);
        out.extend(leaf.elems);
        return;
    }
    let img = read_inner_r(heap, node);
    for c in img.children {
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
    fn concat_small_and_large() {
        let mut h = heap();
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (1000..1077).collect();
        let va = PmVector::from_slice(&mut h, &a);
        let vb = PmVector::from_slice(&mut h, &b);
        let vc = va.concat(&mut h, &vb);
        let mut want = a.clone();
        want.extend(&b);
        assert_eq!(vc.to_vec(&mut h), want);
        assert_eq!(vc.len(&mut h), 177);
        // Indexing through the relaxed root.
        assert_eq!(vc.get(&mut h, 99), 99);
        assert_eq!(vc.get(&mut h, 100), 1000);
        assert_eq!(vc.get(&mut h, 176), 1076);
        // Originals untouched.
        assert_eq!(va.to_vec(&mut h), a);
        assert_eq!(vb.to_vec(&mut h), b);
    }

    #[test]
    fn concat_then_push_and_update() {
        let mut h = heap();
        let va = PmVector::from_slice(&mut h, &(0..40).collect::<Vec<_>>());
        let vb = PmVector::from_slice(&mut h, &(100..140).collect::<Vec<_>>());
        let mut vc = va.concat(&mut h, &vb);
        for i in 0..80u64 {
            vc = step_push(&mut h, vc, 5000 + i);
        }
        assert_eq!(vc.len(&mut h), 160);
        assert_eq!(vc.get(&mut h, 39), 39);
        assert_eq!(vc.get(&mut h, 40), 100);
        assert_eq!(vc.get(&mut h, 80), 5000);
        assert_eq!(vc.get(&mut h, 159), 5079);
        let vd = vc.update(&mut h, 40, 7);
        assert_eq!(vd.get(&mut h, 40), 7);
        assert_eq!(vc.get(&mut h, 40), 100);
    }

    #[test]
    fn concat_with_empty() {
        let mut h = heap();
        let ve = PmVector::empty(&mut h);
        let va = PmVector::from_slice(&mut h, &[1, 2, 3]);
        let r1 = ve.concat(&mut h, &va);
        let r2 = va.concat(&mut h, &ve);
        assert_eq!(r1.to_vec(&mut h), vec![1, 2, 3]);
        assert_eq!(r2.to_vec(&mut h), vec![1, 2, 3]);
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
    fn get_update_through_deep_relaxed_tree() {
        // Repeated concat creates nested relaxed nodes.
        let mut h = heap();
        let mut acc = PmVector::from_slice(&mut h, &(0..50).collect::<Vec<_>>());
        let mut want: Vec<u64> = (0..50).collect();
        for round in 0..6 {
            let chunk: Vec<u64> = (0..37).map(|i| 1000 * (round + 1) + i).collect();
            let vb = PmVector::from_slice(&mut h, &chunk);
            acc = acc.concat(&mut h, &vb);
            want.extend(&chunk);
        }
        assert_eq!(acc.to_vec(&mut h), want);
        for idx in [0usize, 49, 50, 87, 123, 200, want.len() - 1] {
            assert_eq!(acc.get(&mut h, idx as u64), want[idx], "index {idx}");
        }
        let upd = acc.update(&mut h, 123, 42);
        assert_eq!(upd.get(&mut h, 123), 42);
    }
}
