//! CHAMP trie — the MOD **map** and **set** substrate.
//!
//! A Compressed Hash-Array Mapped Prefix-tree (Steindorfer & Vinju,
//! OOPSLA '15), the functional map implementation the paper converts into
//! a durable datastructure (§4.2). Keys are `u64`; values are immutable
//! byte blobs. The trie consumes the key hash five bits per level; each
//! bitmap node packs data entries and sub-node pointers into one compact
//! block.
//!
//! There is one node kind. The hash, [`key_hash`], is a bijection on
//! `u64` ([`key_with_hash`] inverts it), so two distinct keys differ
//! somewhere in their 64 hash bits and part ways within the trie's 13
//! five-bit levels (13 × 5 = 65 ≥ 64): no two keys ever share a full
//! hash, so no collision node is needed.
//!
//! All updates are pure path copies: the handful of nodes on the root-to-
//! leaf path are rewritten out of place (flushed with unordered `clwb`s)
//! while every untouched subtree is shared with the previous version —
//! the structural sharing that keeps shadow overheads below 0.01 %/update
//! (§4.1, Table 3).
//!
//! Nodes are *half-width* in PM: keys stay 8-byte words, but value-blob
//! and child pointers are stored as 32-bit block indices (`addr / 16`,
//! see [`mod_alloc::pack_ptr`]). A bitmap node is stored as
//!
//! ```text
//! [kind][datamap | nodemap << 32][key × d][u32 × (d + n), padded to a word]
//! ```
//!
//! — the `d` value indices, then the `n` child indices. A full 32-child
//! node is 144 bytes (the 192-byte size class), where 8-byte pointers
//! would take 272 (the 384-byte class): a path copy rewrites every node
//! on the path, so a node's line count is what an upsert pays in
//! flushes. The volatile image keeps full 8-byte pointers; only
//! `BitmapImg::store` and `read_node` see the stored form.

use crate::blob::{blob_create, blob_read};
use crate::node::{drop_temp, store_words, NodeBuf, KIND_BITMAP, NODE_WORDS};
use crate::DsKind;
use mod_alloc::{pack_ptrs, unpack_ptrs, HeapRead, NvHeap, Visit};
use mod_pmem::PmPtr;

/// Hash chunking: 5 bits per level.
const BITS: u32 = 5;
/// Levels of the deepest trie: 13 × 5 bits cover the whole hash, so two
/// distinct keys part ways by the last one.
const MAX_DEPTH: u32 = 13;

const SEED: u64 = 0x9E3779B97F4A7C15;
const MUL1: u64 = 0xBF58476D1CE4E5B9;
const MUL2: u64 = 0x94D049BB133111EB;

/// The trie's key hash: SplitMix64's finalizer — an add, three
/// xor-shifts and two multiplies by odd constants. Every step is
/// invertible, so the hash is a bijection on `u64`; [`key_with_hash`]
/// is its inverse.
pub fn key_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(SEED);
    z = (z ^ (z >> 30)).wrapping_mul(MUL1);
    z = (z ^ (z >> 27)).wrapping_mul(MUL2);
    z ^ (z >> 31)
}

/// The key whose [`key_hash`] is `hash`: the finalizer's steps undone in
/// reverse. It builds tries of a chosen shape — keys whose hashes share
/// their low `5 × d` bits share a path `d` levels deep.
pub fn key_with_hash(hash: u64) -> u64 {
    let mut z = unshift(hash, 31);
    z = unshift(z.wrapping_mul(inverse(MUL2)), 27);
    z = unshift(z.wrapping_mul(inverse(MUL1)), 30);
    z.wrapping_sub(SEED)
}

/// Solves `z ^ (z >> s) == x` for `z`: each round fixes `s` more of the
/// high bits.
fn unshift(x: u64, s: u32) -> u64 {
    let mut z = x;
    for _ in 0..64 / s {
        z = x ^ (z >> s);
    }
    z
}

/// The inverse of an odd `m` modulo 2⁶⁴ by Newton's iteration: `m` is
/// its own inverse mod 8, and each round doubles the correct low bits
/// (3 → 96 in five).
fn inverse(m: u64) -> u64 {
    let mut inv = m;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    inv
}

#[inline]
fn chunk(hash: u64, depth: u32) -> u32 {
    ((hash >> (BITS * depth)) & 0x1F) as u32
}

/// Handle to one immutable version of a persistent hash map.
///
/// The handle points at the version's root object; updates return new
/// handles and never modify existing versions (Functional Shadowing).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmMap {
    root: PmPtr,
}

// ---------------------------------------------------------------------
// Volatile node images
// ---------------------------------------------------------------------

/// A bitmap node decoded into a stack buffer with full-width pointers —
/// `[kind][datamap | nodemap << 32][(key, value) × d][child × n]`, at
/// most [`NODE_WORDS`] words — and edited and stored from it: visiting or
/// copying a node allocates nothing on the host. [`BitmapImg::store`]
/// writes the half-width form of the module docs.
#[derive(Debug, Clone)]
struct BitmapImg {
    words: [u64; NODE_WORDS],
}

impl BitmapImg {
    fn empty() -> BitmapImg {
        let mut words = [0; NODE_WORDS];
        words[0] = KIND_BITMAP;
        BitmapImg { words }
    }

    /// A node holding exactly one entry, in hash chunk `chunk`.
    fn single(chunk: u32, key: u64, val: PmPtr) -> BitmapImg {
        let mut img = BitmapImg::empty();
        img.insert_entry(1 << chunk, key, val);
        img
    }

    fn datamap(&self) -> u32 {
        self.words[1] as u32
    }

    fn nodemap(&self) -> u32 {
        (self.words[1] >> 32) as u32
    }

    fn n_data(&self) -> usize {
        self.datamap().count_ones() as usize
    }

    fn n_children(&self) -> usize {
        self.nodemap().count_ones() as usize
    }

    /// Word index of the first child pointer.
    fn children_at(&self) -> usize {
        2 + 2 * self.n_data()
    }

    fn len(&self) -> usize {
        self.children_at() + self.n_children()
    }

    fn entry(&self, pos: usize) -> (u64, PmPtr) {
        (
            self.words[2 + 2 * pos],
            PmPtr::from_addr(self.words[3 + 2 * pos]),
        )
    }

    fn values(&self) -> impl Iterator<Item = PmPtr> + '_ {
        self.words[2..self.children_at()]
            .chunks_exact(2)
            .map(|e| PmPtr::from_addr(e[1]))
    }

    fn children(&self) -> impl Iterator<Item = PmPtr> + '_ {
        self.words[self.children_at()..self.len()]
            .iter()
            .map(|&c| PmPtr::from_addr(c))
    }

    /// Slot of `bit` among the set bits of `map` below it.
    fn pos(map: u32, bit: u32) -> usize {
        (map & (bit - 1)).count_ones() as usize
    }

    fn set_value(&mut self, pos: usize, val: PmPtr) {
        self.words[3 + 2 * pos] = val.addr();
    }

    fn child(&self, pos: usize) -> PmPtr {
        PmPtr::from_addr(self.words[self.children_at() + pos])
    }

    fn set_child(&mut self, pos: usize, child: PmPtr) {
        self.words[self.children_at() + pos] = child.addr();
    }

    /// Opens a gap of `n` words at word index `at`.
    fn open_gap(&mut self, at: usize, n: usize) {
        let len = self.len();
        self.words.copy_within(at..len, at + n);
    }

    /// Closes the `n`-word gap at word index `at`.
    fn close_gap(&mut self, at: usize, n: usize) {
        let len = self.len();
        self.words.copy_within(at + n..len, at);
    }

    fn insert_entry(&mut self, bit: u32, key: u64, val: PmPtr) {
        let at = 2 + 2 * Self::pos(self.datamap(), bit);
        self.open_gap(at, 2);
        self.words[at] = key;
        self.words[at + 1] = val.addr();
        self.words[1] |= bit as u64;
    }

    fn remove_entry(&mut self, bit: u32) {
        let at = 2 + 2 * Self::pos(self.datamap(), bit);
        self.close_gap(at, 2);
        self.words[1] &= !(bit as u64);
    }

    fn insert_child(&mut self, bit: u32, child: PmPtr) {
        let at = self.children_at() + Self::pos(self.nodemap(), bit);
        self.open_gap(at, 1);
        self.words[at] = child.addr();
        self.words[1] |= (bit as u64) << 32;
    }

    fn remove_child(&mut self, bit: u32) {
        let at = self.children_at() + Self::pos(self.nodemap(), bit);
        self.close_gap(at, 1);
        self.words[1] &= !((bit as u64) << 32);
    }

    /// Stores the node. Ownership rule: the stored node *owns* every
    /// pointer written into it, so this increments the refcount of each
    /// non-null value and each child, in one pass; callers drop their
    /// own temporary ownership of freshly created pointers afterwards.
    fn store(&self, heap: &mut NvHeap) -> PmPtr {
        let mut buf = NodeBuf::new();
        buf.push_u64(KIND_BITMAP).push_u64(self.words[1]);
        for pos in 0..self.n_data() {
            buf.push_u64(self.entry(pos).0);
        }
        for w in pack_ptrs(self.values().chain(self.children())) {
            buf.push_u64(w);
        }
        let ptr = buf.store(heap);
        heap.rc_inc_all(self.values().chain(self.children()));
        ptr
    }
}

/// Decodes a stored node into its full-width image: `d` keys followed by
/// the half-width pointer array (see the module docs).
fn read_node<'a>(heap: impl Into<HeapRead<'a>>, node: PmPtr) -> BitmapImg {
    let mut heap = heap.into();
    let a = node.addr();
    let kind = heap.u64(a);
    assert!(
        kind == KIND_BITMAP,
        "corrupt CHAMP node kind {kind} at {node}"
    );
    let mut img = BitmapImg::empty();
    img.words[1] = heap.u64(a + 8);
    let (d, n) = (img.n_data(), img.n_children());
    let mut body = [0; NODE_WORDS];
    let body = &mut body[..d + (d + n).div_ceil(2)];
    heap.words(a + 16, body);
    let (keys, ptrs) = body.split_at(d);
    let mut ptrs = unpack_ptrs(ptrs);
    for ((pos, &key), val) in keys.iter().enumerate().zip(&mut ptrs) {
        img.words[2 + 2 * pos] = key;
        img.words[3 + 2 * pos] = val.addr();
    }
    for (slot, child) in img.words[2 + 2 * d..2 + 2 * d + n].iter_mut().zip(ptrs) {
        *slot = child.addr();
    }
    img
}

enum RemoveResult {
    NotFound,
    /// New (fresh) node; null if the subtree vanished entirely.
    Removed(PmPtr),
    /// The subtree shrank to a single entry: inline it into the parent.
    Inlined(u64, PmPtr),
}

impl PmMap {
    // ------------------------------------------------------------------
    // Construction and handle plumbing
    // ------------------------------------------------------------------

    /// Creates an empty map.
    pub fn empty(heap: &mut NvHeap) -> PmMap {
        Self::store_root_obj(heap, 0, PmPtr::NULL)
    }

    /// Rebuilds a handle from a raw root pointer (root slot contents).
    pub fn from_root(root: PmPtr) -> PmMap {
        PmMap { root }
    }

    /// The version's root object pointer (what commit stores in a slot).
    pub fn root(&self) -> PmPtr {
        self.root
    }

    /// Reads the root object's count and root node.
    ///
    /// # Panics
    ///
    /// Panics, naming the root object, if its reserved third word is not
    /// 0: the trie was built under some other hash, and no lookup in it
    /// would find its keys.
    pub(crate) fn read_root_obj<'a>(&self, heap: impl Into<HeapRead<'a>>) -> (u64, PmPtr) {
        let mut heap = heap.into();
        let a = self.root.addr();
        let count = heap.u64(a);
        let node = PmPtr::from_addr(heap.u64(a + 8));
        let reserved = heap.u64(a + 16);
        assert!(
            reserved == 0,
            "map root object at {} holds {reserved} in its reserved word, not 0: \
             its trie was built under another hash",
            self.root
        );
        (count, node)
    }

    /// Stores a root object `[count][root node][0, reserved]`; it owns the
    /// root node.
    fn store_root_obj(heap: &mut NvHeap, count: u64, node: PmPtr) -> PmMap {
        let root = store_words(heap, &[count, node.addr(), 0]);
        heap.rc_inc_all([node]);
        PmMap { root }
    }

    /// Number of entries. Like every read accessor here it charges on
    /// `&mut NvHeap` and is free on `&NvHeap` (see [`HeapRead`]).
    pub fn len<'a>(&self, heap: impl Into<HeapRead<'a>>) -> u64 {
        heap.into().u64(self.root.addr())
    }

    /// Whether the map is empty.
    pub fn is_empty<'a>(&self, heap: impl Into<HeapRead<'a>>) -> bool {
        self.len(heap) == 0
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Looks up `key`, returning its value bytes. A present key with an
    /// empty value (set membership) yields `Some(vec![])`.
    pub fn get<'a>(&self, heap: impl Into<HeapRead<'a>>, key: u64) -> Option<Vec<u8>> {
        let mut heap = heap.into();
        self.get_ptr(&mut heap, key).map(|v| blob_read(heap, v))
    }

    /// Whether `key` is present.
    pub fn contains_key<'a>(&self, heap: impl Into<HeapRead<'a>>, key: u64) -> bool {
        self.get_ptr(heap, key).is_some()
    }

    fn get_ptr<'a>(&self, heap: impl Into<HeapRead<'a>>, key: u64) -> Option<PmPtr> {
        let mut heap = heap.into();
        let (_, mut node) = self.read_root_obj(&mut heap);
        let hash = key_hash(key);
        let mut depth = 0u32;
        while !node.is_null() {
            let img = read_node(&mut heap, node);
            let bit = 1u32 << chunk(hash, depth);
            if img.datamap() & bit != 0 {
                let (k, v) = img.entry(BitmapImg::pos(img.datamap(), bit));
                return (k == key).then_some(v);
            }
            if img.nodemap() & bit == 0 {
                return None;
            }
            node = img.child(BitmapImg::pos(img.nodemap(), bit));
            depth += 1;
        }
        None
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Pure insert/update: returns the new version. See
    /// [`PmMap::insert_query`] to learn whether the key was new.
    pub fn insert(&self, heap: &mut NvHeap, key: u64, value: &[u8]) -> PmMap {
        self.insert_query(heap, key, value).0
    }

    /// Pure insert/update returning `(new_version, was_new_key)`.
    pub fn insert_query(&self, heap: &mut NvHeap, key: u64, value: &[u8]) -> (PmMap, bool) {
        let (count, node) = self.read_root_obj(&mut *heap);
        let hash = key_hash(key);
        let val = blob_create(heap, value); // temp-owned by this op
        let (new_node, added) = insert_node(heap, node, 0, hash, key, val);
        heap.walk(Visit::Release, val, DsKind::Blob); // node(s) now own it
        let map = Self::store_root_obj(heap, count + added as u64, new_node);
        drop_temp(heap, new_node);
        (map, added)
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    /// Pure removal: returns `(new_version, removed)`. When the key is
    /// absent, the *same* handle is returned with `removed == false`; the
    /// caller must not release the old version in that case (they are the
    /// same version).
    pub fn remove(&self, heap: &mut NvHeap, key: u64) -> (PmMap, bool) {
        let (count, node) = self.read_root_obj(&mut *heap);
        if node.is_null() {
            return (*self, false);
        }
        match remove_node(heap, node, 0, key_hash(key), key) {
            RemoveResult::NotFound => (*self, false),
            RemoveResult::Removed(new_node) => {
                let map = Self::store_root_obj(heap, count - 1, new_node);
                if !new_node.is_null() {
                    drop_temp(heap, new_node);
                }
                (map, true)
            }
            RemoveResult::Inlined(k, v) => {
                // The whole trie shrank to one entry: root becomes a
                // single-entry bitmap node.
                let n = BitmapImg::single(chunk(key_hash(k), 0), k, v).store(heap);
                let map = Self::store_root_obj(heap, count - 1, n);
                drop_temp(heap, n);
                (map, true)
            }
        }
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Collects all entries (unordered). Intended for tests, recovery
    /// audits and small maps.
    pub fn to_vec<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<(u64, Vec<u8>)> {
        let mut heap = heap.into();
        let (_, node) = self.read_root_obj(&mut heap);
        let mut out = Vec::new();
        if node.is_null() {
            return out;
        }
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let img = read_node(&mut heap, n);
            for pos in 0..img.n_data() {
                let (k, v) = img.entry(pos);
                out.push((k, blob_read(&mut heap, v)));
            }
            stack.extend(img.children());
        }
        out
    }

    /// Collects all keys (unordered).
    pub fn keys<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<u64> {
        self.to_vec(heap).into_iter().map(|(k, _)| k).collect()
    }

    /// Releases this version's reference to its data (commit-time reclaim
    /// of superseded versions, §5.3).
    pub fn release(self, heap: &mut NvHeap) {
        heap.walk(Visit::Release, self.root, DsKind::Map)
    }
}

fn insert_node(
    heap: &mut NvHeap,
    node: PmPtr,
    depth: u32,
    hash: u64,
    key: u64,
    val: PmPtr,
) -> (PmPtr, bool) {
    if node.is_null() {
        let img = BitmapImg::single(chunk(hash, depth), key, val);
        return (img.store(heap), true);
    }
    let mut img = read_node(&mut *heap, node);
    let bit = 1u32 << chunk(hash, depth);
    if img.datamap() & bit != 0 {
        let pos = BitmapImg::pos(img.datamap(), bit);
        let (ekey, eval) = img.entry(pos);
        if ekey == key {
            // Replace value in place (path copy).
            img.set_value(pos, val);
            return (img.store(heap), false);
        }
        // Split: push both entries one level down.
        let ehash = key_hash(ekey);
        let sub = make_subnode(heap, depth + 1, ehash, ekey, eval, hash, key, val);
        img.remove_entry(bit);
        img.insert_child(bit, sub);
        let fresh = img.store(heap);
        drop_temp(heap, sub);
        (fresh, true)
    } else if img.nodemap() & bit != 0 {
        let pos = BitmapImg::pos(img.nodemap(), bit);
        let child = img.child(pos);
        let (new_child, added) = insert_node(heap, child, depth + 1, hash, key, val);
        img.set_child(pos, new_child);
        let fresh = img.store(heap);
        drop_temp(heap, new_child);
        (fresh, added)
    } else {
        img.insert_entry(bit, key, val);
        (img.store(heap), true)
    }
}

/// A node holding two entries whose hashes agree below `depth`: a chain
/// of single-child nodes down to the level where they part.
#[allow(clippy::too_many_arguments)]
fn make_subnode(
    heap: &mut NvHeap,
    depth: u32,
    h1: u64,
    k1: u64,
    v1: PmPtr,
    h2: u64,
    k2: u64,
    v2: PmPtr,
) -> PmPtr {
    debug_assert!(depth < MAX_DEPTH, "keys {k1} and {k2} share a full hash");
    let c1 = chunk(h1, depth);
    let c2 = chunk(h2, depth);
    if c1 != c2 {
        let mut img = BitmapImg::single(c1, k1, v1);
        img.insert_entry(1 << c2, k2, v2);
        img.store(heap)
    } else {
        let sub = make_subnode(heap, depth + 1, h1, k1, v1, h2, k2, v2);
        let mut img = BitmapImg::empty();
        img.insert_child(1 << c1, sub);
        let fresh = img.store(heap);
        drop_temp(heap, sub);
        fresh
    }
}

fn remove_node(heap: &mut NvHeap, node: PmPtr, depth: u32, hash: u64, key: u64) -> RemoveResult {
    let mut img = read_node(&mut *heap, node);
    let bit = 1u32 << chunk(hash, depth);
    if img.datamap() & bit != 0 {
        if img.entry(BitmapImg::pos(img.datamap(), bit)).0 != key {
            return RemoveResult::NotFound;
        }
        img.remove_entry(bit);
        finalize_removed(heap, img, depth)
    } else if img.nodemap() & bit != 0 {
        let pos = BitmapImg::pos(img.nodemap(), bit);
        match remove_node(heap, img.child(pos), depth + 1, hash, key) {
            RemoveResult::NotFound => RemoveResult::NotFound,
            RemoveResult::Removed(new_child) => {
                if new_child.is_null() {
                    img.remove_child(bit);
                    finalize_removed(heap, img, depth)
                } else {
                    img.set_child(pos, new_child);
                    let fresh = img.store(heap);
                    drop_temp(heap, new_child);
                    RemoveResult::Removed(fresh)
                }
            }
            RemoveResult::Inlined(k, v) => {
                // Pull the surviving entry up into this node.
                img.remove_child(bit);
                img.insert_entry(bit, k, v);
                finalize_removed(heap, img, depth)
            }
        }
    } else {
        RemoveResult::NotFound
    }
}

/// Canonicalizes a mutated bitmap image: empty → vanish; a single data
/// entry below the root → inline into the parent; otherwise store.
fn finalize_removed(heap: &mut NvHeap, img: BitmapImg, depth: u32) -> RemoveResult {
    match (img.n_data(), img.n_children()) {
        (0, 0) => RemoveResult::Removed(PmPtr::NULL),
        (1, 0) if depth > 0 => {
            let (k, v) = img.entry(0);
            RemoveResult::Inlined(k, v)
        }
        _ => RemoveResult::Removed(img.store(heap)),
    }
}

/// A trie node's children (see [`DsKind`]): value blobs, then subtrees.
pub(crate) fn node_children(heap: &mut NvHeap, node: PmPtr, push: &mut impl FnMut(PmPtr, DsKind)) {
    let img = read_node(heap, node);
    img.values().for_each(|v| push(v, DsKind::Blob));
    img.children().for_each(|c| push(c, DsKind::Champ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};
    use std::collections::HashMap;

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    /// Insert committing like the Basic interface: keep only the newest
    /// version.
    fn step_insert(heap: &mut NvHeap, m: PmMap, k: u64, v: &[u8]) -> PmMap {
        let next = m.insert(heap, k, v);
        m.release(heap);
        next
    }

    fn step_remove(heap: &mut NvHeap, m: PmMap, k: u64) -> (PmMap, bool) {
        let (next, removed) = m.remove(heap, k);
        if removed {
            m.release(heap);
        }
        (next, removed)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = heap();
        let m0 = PmMap::empty(&mut h);
        let m1 = m0.insert(&mut h, 1, b"one");
        let m2 = m1.insert(&mut h, 2, b"two");
        assert_eq!(m2.get(&mut h, 1), Some(b"one".to_vec()));
        assert_eq!(m2.get(&mut h, 2), Some(b"two".to_vec()));
        assert_eq!(m2.get(&mut h, 3), None);
        assert_eq!(m2.len(&mut h), 2);
        // Old versions unchanged.
        assert_eq!(m1.get(&mut h, 2), None);
        assert!(m0.is_empty(&mut h));
    }

    #[test]
    fn update_replaces_value() {
        let mut h = heap();
        let m = PmMap::empty(&mut h);
        let m = step_insert(&mut h, m, 7, b"a");
        let (m2, added) = m.insert_query(&mut h, 7, b"b");
        assert!(!added);
        assert_eq!(m2.get(&mut h, 7), Some(b"b".to_vec()));
        assert_eq!(m.get(&mut h, 7), Some(b"a".to_vec()));
        assert_eq!(m2.len(&mut h), 1);
    }

    #[test]
    fn empty_value_is_present() {
        let mut h = heap();
        let m = PmMap::empty(&mut h);
        let m = m.insert(&mut h, 5, b"");
        assert_eq!(m.get(&mut h, 5), Some(Vec::new()));
        assert!(m.contains_key(&mut h, 5));
        assert!(!m.contains_key(&mut h, 6));
    }

    #[test]
    fn thousand_inserts_match_hashmap() {
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        let mut model = HashMap::new();
        for i in 0..1000u64 {
            let key = i.wrapping_mul(2654435761) % 500; // forces updates
            let val = key.to_le_bytes().to_vec();
            m = step_insert(&mut h, m, key, &val);
            model.insert(key, val);
        }
        assert_eq!(m.len(&mut h) as usize, model.len());
        for (&k, v) in &model {
            assert_eq!(m.get(&mut h, k).as_ref(), Some(v));
        }
        let mut got = m.to_vec(&mut h);
        got.sort();
        let mut want: Vec<_> = model.into_iter().collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_roundtrip() {
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        for i in 0..100u64 {
            m = step_insert(&mut h, m, i, &i.to_le_bytes());
        }
        for i in (0..100u64).step_by(2) {
            let (next, removed) = step_remove(&mut h, m, i);
            assert!(removed);
            m = next;
        }
        assert_eq!(m.len(&mut h), 50);
        for i in 0..100u64 {
            assert_eq!(m.contains_key(&mut h, i), i % 2 == 1, "key {i}");
        }
        let (same, removed) = m.remove(&mut h, 0);
        assert!(!removed);
        assert_eq!(same, m, "absent-key removal returns the same version");
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        m = step_insert(&mut h, m, 1, b"x");
        let (m2, removed) = step_remove(&mut h, m, 1);
        assert!(removed);
        assert!(m2.is_empty(&mut h));
        let m3 = step_insert(&mut h, m2, 2, b"y");
        assert_eq!(m3.get(&mut h, 2), Some(b"y".to_vec()));
    }

    #[test]
    fn no_leaks_when_releasing_all_versions() {
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        for i in 0..200u64 {
            m = step_insert(&mut h, m, i, &[i as u8; 32]);
        }
        for i in 0..200u64 {
            let (next, removed) = step_remove(&mut h, m, i);
            assert!(removed);
            m = next;
        }
        m.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "every block reclaimed");
    }

    #[test]
    fn structural_sharing_keeps_update_allocations_tiny() {
        // Table 3's point: one update allocates a few path nodes,
        // independent of map size.
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        for i in 0..10_000u64 {
            m = step_insert(&mut h, m, i, &i.to_le_bytes());
        }
        let live = h.stats().live_bytes;
        let before = h.stats().cumulative_alloc_bytes;
        let m2 = m.insert(&mut h, 999_999, b"shadow");
        let delta = h.stats().cumulative_alloc_bytes - before;
        // The shadow is a constant few path nodes; at the paper's 1M scale
        // this lands below 0.01% (verified by the table3 bench). At this
        // test's 10k scale, 0.5% is the same constant cost.
        assert!(
            (delta as f64) < 0.005 * live as f64,
            "shadow cost {delta}B vs {live}B live (>0.5%)"
        );
        assert_eq!(m2.len(&mut h), 10_001);
        assert_eq!(m.len(&mut h), 10_000);
    }

    #[test]
    fn everything_flushed_before_fence() {
        let mut h = heap();
        let m = PmMap::empty(&mut h);
        let _m2 = m.insert(&mut h, 42, &[1u8; 32]);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }

    #[test]
    fn key_with_hash_inverts_key_hash() {
        for m in [MUL1, MUL2] {
            assert_eq!(m.wrapping_mul(inverse(m)), 1);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in [0, 1, u64::MAX, 1 << 63]
            .into_iter()
            .chain((0..1000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }))
        {
            assert_eq!(key_hash(key_with_hash(v)), v, "hash {v:#x}");
            assert_eq!(key_with_hash(key_hash(v)), v, "key {v:#x}");
        }
    }

    /// The level at which `key`'s entry sits in `m`.
    fn depth_of(h: &NvHeap, m: PmMap, key: u64) -> u32 {
        let (_, mut node) = m.read_root_obj(h);
        let hash = key_hash(key);
        let mut depth = 0;
        loop {
            let img = read_node(h, node);
            let bit = 1 << chunk(hash, depth);
            if img.datamap() & bit != 0 {
                return depth;
            }
            node = img.child(BitmapImg::pos(img.nodemap(), bit));
            depth += 1;
        }
    }

    #[test]
    fn deep_split_chain() {
        // `base` and twelve keys whose hashes agree with its hash below
        // chunk `j` and differ in it, plus one differing in chunk 0. The
        // first split pushes `base` and the chunk-12 key down a chain of
        // twelve single-child nodes; each later key hangs beside it.
        let mut h = heap();
        let hash = 0x0123_4567_89AB_CDEFu64;
        let base = key_with_hash(hash);
        let keys: Vec<u64> = (0..=12)
            .map(|j| key_with_hash(hash ^ 1 << (BITS * j)))
            .collect();
        let mut m = PmMap::empty(&mut h);
        m = step_insert(&mut h, m, base, b"base");
        m = step_insert(&mut h, m, keys[12], &keys[12].to_le_bytes());
        assert_eq!(depth_of(&h, m, base), 12);
        for &k in keys[..12].iter().rev() {
            m = step_insert(&mut h, m, k, &k.to_le_bytes());
        }
        assert_eq!(m.len(&mut h), 14);
        assert_eq!(depth_of(&h, m, base), 12);
        for &k in &keys {
            assert_eq!(m.get(&mut h, k), Some(k.to_le_bytes().to_vec()));
        }
        // Update at the bottom of the chain.
        m = step_insert(&mut h, m, base, b"updated");
        assert_eq!(m.get(&mut h, base), Some(b"updated".to_vec()));
        assert_eq!((m.len(&mut h), depth_of(&h, m, base)), (14, 12));
        // Each remove empties the node below `base`'s, which inlines
        // `base` one level up.
        for j in (1..=12).rev() {
            let (next, removed) = step_remove(&mut h, m, keys[j as usize]);
            assert!(removed, "key {j}");
            m = next;
            assert_eq!(depth_of(&h, m, base), j - 1, "after removing key {j}");
        }
        let (next, removed) = step_remove(&mut h, m, keys[0]);
        assert!(removed);
        m = next;
        assert_eq!((m.len(&mut h), depth_of(&h, m, base)), (1, 0));
        assert_eq!(m.get(&mut h, base), Some(b"updated".to_vec()));
        m.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }

    /// A decoded node's full-width words.
    fn image_words(img: BitmapImg) -> Vec<u64> {
        img.words[..img.len()].to_vec()
    }

    #[test]
    fn full_node_is_half_width_and_fully_flushed() {
        let mut h = heap();
        let children: Vec<PmPtr> = (0..32).map(|i| store_words(&mut h, &[i])).collect();
        let mut img = BitmapImg::empty();
        for (bit, &c) in children.iter().enumerate() {
            img.insert_child(1 << bit, c);
        }
        let p = img.store(&mut h);
        // 2 header words + 32 × 4-byte indices = 144 bytes.
        assert_eq!(h.block_len(p), 192);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
        let crashed = NvHeap::open(h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced));
        let back = read_node(&crashed, p);
        assert_eq!(back.children().collect::<Vec<_>>(), children);
    }

    #[test]
    fn stored_images_read_back_equal_charged_and_peek() {
        let mut h = heap();
        let blobs: Vec<PmPtr> = (0..2u64)
            .map(|i| blob_create(&mut h, &i.to_le_bytes()))
            .collect();
        let child = h.alloc(16);
        let mut mixed = BitmapImg::empty();
        mixed.insert_entry(1 << 20, 200, blobs[0]);
        mixed.insert_child(1 << 31, child);
        mixed.insert_entry(1 << 3, 30, blobs[1]);
        mixed.insert_child(1 << 5, child);
        mixed.insert_entry(1 << 9, 90, PmPtr::NULL); // a set member
        let m = mixed.store(&mut h);
        // 16 + 3 keys × 8 + 5 indices × 4 (padded to 24) = 64 bytes.
        assert_eq!(h.block_len(m), 64);
        let want = image_words(mixed);
        assert_eq!(image_words(read_node(&mut h, m)), want);
        assert_eq!(image_words(read_node(&h, m)), want);
    }

    #[test]
    fn chosen_hash_trie_decodes_identically_on_both_paths() {
        // `deep` shares its hash's low 60 bits with `shallow`'s: the two
        // sit twelve single-child levels down. `left` and `right` differ
        // from both in chunk 0 and sit beside the chain in the root,
        // which therefore holds data entries and a child.
        let mut h = heap();
        let hash = 0xFEDC_BA98_7654_3210u64;
        let [shallow, deep, left, right] =
            [hash, hash ^ 1 << 60, hash ^ 1, hash ^ 2].map(key_with_hash);
        let mut m = PmMap::empty(&mut h);
        for k in [shallow, left, deep, right] {
            let v = if k == deep {
                Vec::new()
            } else {
                k.to_le_bytes().to_vec()
            };
            m = step_insert(&mut h, m, k, &v);
        }
        let (_, root) = m.read_root_obj(&h);
        let (mut mixed, mut nodes) = (0, 0);
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let charged = read_node(&mut h, n);
            mixed += (charged.n_data() > 0 && charged.n_children() > 0) as usize;
            nodes += 1;
            stack.extend(charged.children());
            assert_eq!(image_words(charged), image_words(read_node(&h, n)));
        }
        assert_eq!((mixed, nodes), (1, 13));
        for k in [shallow, left, right] {
            assert_eq!(m.get(&h, k), Some(k.to_le_bytes().to_vec()));
            assert_eq!(m.get(&mut h, k), Some(k.to_le_bytes().to_vec()));
        }
        assert_eq!(m.get(&h, deep), Some(Vec::new()));
    }

    #[test]
    fn durable_after_fence_survives_crash() {
        let mut h = heap();
        let m = PmMap::empty(&mut h);
        let m = m.insert(&mut h, 11, b"hello");
        h.sfence();
        let root = m.root();
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        let mut h2 = NvHeap::open(img);
        let m2 = PmMap::from_root(root);
        h2.walk(Visit::Mark, root, DsKind::Map);
        h2.finish_recovery();
        assert_eq!(m2.get(&mut h2, 11), Some(b"hello".to_vec()));
    }
}
