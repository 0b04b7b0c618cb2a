//! CHAMP trie — the MOD **map** and **set** substrate.
//!
//! A Compressed Hash-Array Mapped Prefix-tree (Steindorfer & Vinju,
//! OOPSLA '15), the functional map implementation the paper converts into
//! a durable datastructure (§4.2). Keys are `u64`; values are immutable
//! byte blobs. The trie consumes the key hash five bits per level; each
//! bitmap node packs data entries and sub-node pointers into one compact
//! block; full 64-bit hash collisions overflow into collision nodes.
//!
//! All updates are pure path copies: the handful of nodes on the root-to-
//! leaf path are rewritten out of place (flushed with unordered `clwb`s)
//! while every untouched subtree is shared with the previous version —
//! the structural sharing that keeps shadow overheads below 0.01 %/update
//! (§4.1, Table 3).

use crate::blob::{blob_create, blob_mark, blob_read_r, blob_release};
use crate::node::{store_words, KIND_BITMAP, KIND_COLLISION, NODE_WORDS};
use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::PmPtr;

/// Hash chunking: 5 bits per level.
const BITS: u32 = 5;
/// Levels before full-hash collisions overflow into collision nodes.
const MAX_DEPTH: u32 = 13;

/// Key-hashing discipline of a map instance (stored persistently in the
/// root object so recovery rebuilds identical tries).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum HashKind {
    /// SplitMix64 mixing — the production hash.
    #[default]
    SplitMix,
    /// `key & 0xF` — pathological on purpose, to exercise deep tries and
    /// collision nodes in tests.
    WeakLow4,
}

impl HashKind {
    fn to_u64(self) -> u64 {
        match self {
            HashKind::SplitMix => 0,
            HashKind::WeakLow4 => 1,
        }
    }

    fn from_u64(v: u64) -> HashKind {
        match v {
            0 => HashKind::SplitMix,
            1 => HashKind::WeakLow4,
            _ => panic!("corrupt hash kind {v}"),
        }
    }

    fn hash(self, key: u64) -> u64 {
        match self {
            HashKind::SplitMix => {
                let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            }
            HashKind::WeakLow4 => key & 0xF,
        }
    }
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

/// A bitmap node as stored — `[kind][datamap | nodemap << 32]
/// [(key, value) × d][child × n]`, at most [`NODE_WORDS`] words — decoded
/// into, edited in and stored from a stack buffer: visiting or copying a
/// node allocates nothing on the host.
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
        let ptr = store_words(heap, &self.words[..self.len()]);
        heap.rc_inc_all(self.values().chain(self.children()));
        ptr
    }
}

/// A collision node as stored: `[kind][count][(key, value) × count]`.
/// Full 64-bit hash collisions are unbounded, so this one image lives on
/// the heap; only pathological hashes ever build one.
#[derive(Debug, Clone)]
struct CollisionImg {
    words: Vec<u64>,
}

impl CollisionImg {
    fn new(entries: &[(u64, PmPtr)]) -> CollisionImg {
        let mut img = CollisionImg {
            words: vec![KIND_COLLISION, 0],
        };
        for &(k, v) in entries {
            img.push(k, v);
        }
        img
    }

    fn count(&self) -> usize {
        self.words[1] as usize
    }

    fn entries(&self) -> impl Iterator<Item = (u64, PmPtr)> + '_ {
        self.words[2..]
            .chunks_exact(2)
            .map(|e| (e[0], PmPtr::from_addr(e[1])))
    }

    fn position(&self, key: u64) -> Option<usize> {
        self.entries().position(|(k, _)| k == key)
    }

    fn set_value(&mut self, pos: usize, val: PmPtr) {
        self.words[3 + 2 * pos] = val.addr();
    }

    fn push(&mut self, key: u64, val: PmPtr) {
        self.words.extend([key, val.addr()]);
        self.words[1] += 1;
    }

    fn remove(&mut self, pos: usize) {
        self.words.drain(2 + 2 * pos..4 + 2 * pos);
        self.words[1] -= 1;
    }

    /// Stores the node; same ownership rule as [`BitmapImg::store`].
    fn store(&self, heap: &mut NvHeap) -> PmPtr {
        let ptr = store_words(heap, &self.words);
        heap.rc_inc_all(self.entries().map(|(_, v)| v));
        ptr
    }
}

// The large variant is the common one and the whole point: boxing it
// would put the allocation back on every node visit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum NodeImg {
    Bitmap(BitmapImg),
    Collision(CollisionImg),
}

fn read_node(heap: &mut NvHeap, node: PmPtr) -> NodeImg {
    read_node_r(&mut heap.into(), node)
}

fn read_node_r(heap: &mut HeapRead<'_>, node: PmPtr) -> NodeImg {
    let a = node.addr();
    let kind = heap.u64(a);
    match kind {
        KIND_BITMAP => {
            let mut img = BitmapImg::empty();
            img.words[1] = heap.u64(a + 8);
            let len = img.len();
            heap.words(a + 16, &mut img.words[2..len]);
            NodeImg::Bitmap(img)
        }
        KIND_COLLISION => {
            let count = heap.u64(a + 8);
            let mut words = vec![0; 2 + 2 * count as usize];
            words[0] = KIND_COLLISION;
            words[1] = count;
            heap.words(a + 16, &mut words[2..]);
            NodeImg::Collision(CollisionImg { words })
        }
        k => panic!("corrupt CHAMP node kind {k} at {node}"),
    }
}

/// Drops one temporary ownership reference on a freshly stored node.
fn drop_temp(heap: &mut NvHeap, ptr: PmPtr) {
    let left = heap.rc_dec(ptr);
    debug_assert!(left >= 1, "temp node should be co-owned");
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

    /// Creates an empty map with the production hash.
    pub fn empty(heap: &mut NvHeap) -> PmMap {
        PmMap::empty_with_hash(heap, HashKind::SplitMix)
    }

    /// Creates an empty map with an explicit [`HashKind`].
    pub fn empty_with_hash(heap: &mut NvHeap, hk: HashKind) -> PmMap {
        Self::store_root_obj(heap, 0, PmPtr::NULL, hk)
    }

    /// Rebuilds a handle from a raw root pointer (root slot contents).
    pub fn from_root(root: PmPtr) -> PmMap {
        PmMap { root }
    }

    /// The version's root object pointer (what commit stores in a slot).
    pub fn root(&self) -> PmPtr {
        self.root
    }

    fn read_root_obj(&self, heap: &mut NvHeap) -> (u64, PmPtr, HashKind) {
        self.read_root_obj_r(&mut heap.into())
    }

    fn read_root_obj_r(&self, heap: &mut HeapRead<'_>) -> (u64, PmPtr, HashKind) {
        let a = self.root.addr();
        let count = heap.u64(a);
        let node = PmPtr::from_addr(heap.u64(a + 8));
        let hk = HashKind::from_u64(heap.u64(a + 16));
        (count, node, hk)
    }

    /// Stores a root object `[count][root node][hash kind]`; it owns the
    /// root node.
    fn store_root_obj(heap: &mut NvHeap, count: u64, node: PmPtr, hk: HashKind) -> PmMap {
        let root = store_words(heap, &[count, node.addr(), hk.to_u64()]);
        heap.rc_inc_all([node]);
        PmMap { root }
    }

    /// Number of entries.
    pub fn len(&self, heap: &mut NvHeap) -> u64 {
        heap.read_u64(self.root.addr())
    }

    /// Number of entries, without charging the cache/time model.
    pub fn peek_len(&self, heap: &NvHeap) -> u64 {
        heap.peek_u64(self.root.addr())
    }

    /// Whether the map is empty.
    pub fn is_empty(&self, heap: &mut NvHeap) -> bool {
        self.len(heap) == 0
    }

    /// Whether the map is empty, without charging the cache/time model.
    pub fn peek_is_empty(&self, heap: &NvHeap) -> bool {
        self.peek_len(heap) == 0
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Looks up `key`, returning its value bytes. A present key with an
    /// empty value (set membership) yields `Some(vec![])`.
    pub fn get(&self, heap: &mut NvHeap, key: u64) -> Option<Vec<u8>> {
        self.get_r(&mut heap.into(), key)
    }

    /// Read-only lookup on `&NvHeap`: no exclusive access, no simulated
    /// cache/time charges — the substrate of the typed API's shared read
    /// path.
    pub fn peek_get(&self, heap: &NvHeap, key: u64) -> Option<Vec<u8>> {
        self.get_r(&mut heap.into(), key)
    }

    fn get_r(&self, heap: &mut HeapRead<'_>, key: u64) -> Option<Vec<u8>> {
        self.get_ptr_r(heap, key).map(|v| blob_read_r(heap, v))
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, heap: &mut NvHeap, key: u64) -> bool {
        self.get_ptr_r(&mut heap.into(), key).is_some()
    }

    /// Read-only membership test on `&NvHeap`.
    pub fn peek_contains_key(&self, heap: &NvHeap, key: u64) -> bool {
        self.get_ptr_r(&mut heap.into(), key).is_some()
    }

    fn get_ptr_r(&self, heap: &mut HeapRead<'_>, key: u64) -> Option<PmPtr> {
        let (_, mut node, hk) = self.read_root_obj_r(heap);
        let hash = hk.hash(key);
        let mut depth = 0u32;
        while !node.is_null() {
            match read_node_r(heap, node) {
                NodeImg::Bitmap(img) => {
                    let bit = 1u32 << chunk(hash, depth);
                    if img.datamap() & bit != 0 {
                        let (k, v) = img.entry(BitmapImg::pos(img.datamap(), bit));
                        return (k == key).then_some(v);
                    }
                    if img.nodemap() & bit != 0 {
                        node = img.child(BitmapImg::pos(img.nodemap(), bit));
                        depth += 1;
                        continue;
                    }
                    return None;
                }
                NodeImg::Collision(img) => {
                    return img.entries().find(|&(k, _)| k == key).map(|(_, v)| v);
                }
            }
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
        let (count, node, hk) = self.read_root_obj(heap);
        let hash = hk.hash(key);
        let val = blob_create(heap, value); // temp-owned by this op
        let (new_node, added) = insert_node(heap, node, 0, hash, hk, key, val);
        blob_release(heap, val); // node(s) now own it
        let map = Self::store_root_obj(heap, count + added as u64, new_node, hk);
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
        let (count, node, hk) = self.read_root_obj(heap);
        if node.is_null() {
            return (*self, false);
        }
        let hash = hk.hash(key);
        match remove_node(heap, node, 0, hash, key) {
            RemoveResult::NotFound => (*self, false),
            RemoveResult::Removed(new_node) => {
                let map = Self::store_root_obj(heap, count - 1, new_node, hk);
                if !new_node.is_null() {
                    drop_temp(heap, new_node);
                }
                (map, true)
            }
            RemoveResult::Inlined(k, v) => {
                // The whole trie shrank to one entry: root becomes a
                // single-entry bitmap node.
                let n = BitmapImg::single(chunk(hk.hash(k), 0), k, v).store(heap);
                let map = Self::store_root_obj(heap, count - 1, n, hk);
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
    pub fn to_vec(&self, heap: &mut NvHeap) -> Vec<(u64, Vec<u8>)> {
        self.collect_entries_r(&mut heap.into())
    }

    /// Read-only collection of all entries on `&NvHeap` (unordered).
    pub fn peek_to_vec(&self, heap: &NvHeap) -> Vec<(u64, Vec<u8>)> {
        self.collect_entries_r(&mut heap.into())
    }

    fn collect_entries_r(&self, heap: &mut HeapRead<'_>) -> Vec<(u64, Vec<u8>)> {
        let (_, node, _) = self.read_root_obj_r(heap);
        let mut out = Vec::new();
        if node.is_null() {
            return out;
        }
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            match read_node_r(heap, n) {
                NodeImg::Bitmap(img) => {
                    for pos in 0..img.n_data() {
                        let (k, v) = img.entry(pos);
                        out.push((k, blob_read_r(heap, v)));
                    }
                    stack.extend(img.children());
                }
                NodeImg::Collision(img) => {
                    for (k, v) in img.entries() {
                        out.push((k, blob_read_r(heap, v)));
                    }
                }
            }
        }
        out
    }

    /// Collects all keys (unordered).
    pub fn keys(&self, heap: &mut NvHeap) -> Vec<u64> {
        self.to_vec(heap).into_iter().map(|(k, _)| k).collect()
    }

    // ------------------------------------------------------------------
    // Reclamation and recovery
    // ------------------------------------------------------------------

    /// Releases this version's reference to its data (commit-time reclaim
    /// of superseded versions, §5.3).
    pub fn release(self, heap: &mut NvHeap) {
        if heap.rc_dec(self.root) == 0 {
            let (_, node, _) = self.read_root_obj(heap);
            heap.free(self.root);
            if !node.is_null() {
                release_node(heap, node);
            }
        }
    }

    /// Marks this version's blocks during recovery GC.
    pub fn mark(&self, heap: &mut NvHeap) {
        if !heap.mark_block(self.root) {
            return;
        }
        let node = PmPtr::from_addr(heap.pm_mut().read_u64(self.root.addr() + 8));
        if !node.is_null() {
            mark_node(heap, node);
        }
    }
}

fn insert_node(
    heap: &mut NvHeap,
    node: PmPtr,
    depth: u32,
    hash: u64,
    hk: HashKind,
    key: u64,
    val: PmPtr,
) -> (PmPtr, bool) {
    if node.is_null() {
        let img = BitmapImg::single(chunk(hash, depth), key, val);
        return (img.store(heap), true);
    }
    match read_node(heap, node) {
        NodeImg::Bitmap(mut img) => {
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
                let ehash = hk.hash(ekey);
                let sub = make_subnode(heap, depth + 1, ehash, ekey, eval, hash, key, val);
                img.remove_entry(bit);
                img.insert_child(bit, sub);
                let fresh = img.store(heap);
                drop_temp(heap, sub);
                (fresh, true)
            } else if img.nodemap() & bit != 0 {
                let pos = BitmapImg::pos(img.nodemap(), bit);
                let child = img.child(pos);
                let (new_child, added) = insert_node(heap, child, depth + 1, hash, hk, key, val);
                img.set_child(pos, new_child);
                let fresh = img.store(heap);
                drop_temp(heap, new_child);
                (fresh, added)
            } else {
                img.insert_entry(bit, key, val);
                (img.store(heap), true)
            }
        }
        NodeImg::Collision(mut img) => match img.position(key) {
            Some(pos) => {
                img.set_value(pos, val);
                (img.store(heap), false)
            }
            None => {
                img.push(key, val);
                (img.store(heap), true)
            }
        },
    }
}

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
    if depth >= MAX_DEPTH {
        return CollisionImg::new(&[(k1, v1), (k2, v2)]).store(heap);
    }
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
    match read_node(heap, node) {
        NodeImg::Bitmap(mut img) => {
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
        NodeImg::Collision(mut img) => {
            let Some(pos) = img.position(key) else {
                return RemoveResult::NotFound;
            };
            img.remove(pos);
            match img.count() {
                0 => RemoveResult::Removed(PmPtr::NULL),
                1 => {
                    let (k, v) = img.entries().next().unwrap();
                    RemoveResult::Inlined(k, v)
                }
                _ => RemoveResult::Removed(img.store(heap)),
            }
        }
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

fn release_node(heap: &mut NvHeap, node: PmPtr) {
    if heap.rc_dec(node) > 0 {
        return;
    }
    match read_node(heap, node) {
        NodeImg::Bitmap(img) => {
            heap.free(node);
            for v in img.values() {
                blob_release(heap, v);
            }
            for c in img.children() {
                release_node(heap, c);
            }
        }
        NodeImg::Collision(img) => {
            heap.free(node);
            for (_, v) in img.entries() {
                blob_release(heap, v);
            }
        }
    }
}

fn mark_node(heap: &mut NvHeap, node: PmPtr) {
    if !heap.mark_block(node) {
        return;
    }
    match read_node(heap, node) {
        NodeImg::Bitmap(img) => {
            for v in img.values() {
                blob_mark(heap, v);
            }
            for c in img.children() {
                mark_node(heap, c);
            }
        }
        NodeImg::Collision(img) => {
            for (_, v) in img.entries() {
                blob_mark(heap, v);
            }
        }
    }
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
    fn weak_hash_exercises_collision_nodes() {
        let mut h = heap();
        let mut m = PmMap::empty_with_hash(&mut h, HashKind::WeakLow4);
        // Keys 0x10, 0x20, ... all hash to 0 → full-hash collisions.
        let keys: Vec<u64> = (1..=20u64).map(|i| i << 4).collect();
        for &k in &keys {
            m = step_insert(&mut h, m, k, &k.to_le_bytes());
        }
        assert_eq!(m.len(&mut h), 20);
        for &k in &keys {
            assert_eq!(m.get(&mut h, k), Some(k.to_le_bytes().to_vec()));
        }
        // Update inside a collision node.
        m = step_insert(&mut h, m, keys[3], b"updated");
        assert_eq!(m.get(&mut h, keys[3]), Some(b"updated".to_vec()));
        assert_eq!(m.len(&mut h), 20);
        // Remove down to one entry (exercises collision→inline).
        for &k in &keys[..19] {
            let (next, removed) = step_remove(&mut h, m, k);
            assert!(removed, "key {k:#x}");
            m = next;
        }
        assert_eq!(m.len(&mut h), 1);
        assert!(m.contains_key(&mut h, keys[19]));
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
    fn deep_split_chain() {
        // SplitMix keys whose hashes share leading chunks force multi-level
        // make_subnode chains; verify a bunch of random keys anyway.
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        let mut model = HashMap::new();
        let mut x = 0x12345678u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            m = step_insert(&mut h, m, x, &x.to_le_bytes());
            model.insert(x, x.to_le_bytes().to_vec());
        }
        for (&k, v) in &model {
            assert_eq!(m.get(&mut h, k).as_ref(), Some(v));
        }
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
        m2.mark(&mut h2);
        h2.finish_recovery();
        assert_eq!(m2.get(&mut h2, 11), Some(b"hello".to_vec()));
    }
}
