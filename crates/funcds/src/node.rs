//! Shared node plumbing for the functional datastructures.
//!
//! Every persistent node starts with a kind word so that traversal bugs
//! surface as assertion failures instead of silent corruption, and so that
//! debugging tools can identify blocks. Nodes are written once (out of
//! place), flushed with unordered `clwb`s, and never modified afterwards —
//! the Functional Shadowing discipline of §4.1.
//!
//! Every node stores its pointers as 32-bit *indices*
//! ([`mod_alloc::pack_ptr`]: `addr / 16`, 0 = null) rather than 8-byte
//! addresses: CHAMP value and child pointers, cons-cell next pointers,
//! vector inner-node children, and the vector and queue root objects.
//! Three root-like records keep a full 8-byte address, written as a
//! plain word: the stack root `[len][head]` (16 bytes, already the
//! smallest class), the `PmMap` root object `[count][root node][0,
//! reserved]`, and the hybrid spine record's `prev` link (`mod-core`).
//!
//! The CHAMP trie has one node kind, the bitmap node: its key hash
//! ([`crate::champ::key_hash`]) is a bijection on `u64`, so no two keys
//! share a full hash and none needs a collision node. Tag 2, which such
//! a node once used, stays unassigned.
//!
//! [`DsKind`] names every stored layout and says, once, where each one's
//! children are, for [`NvHeap::walk`]'s release and recovery marking.

use crate::champ::{self, PmMap};
use crate::rrb::{self, PmVector};
use crate::{list, PmQueue, PmStack};
use mod_alloc::{BlockKind, HeapRead, NvHeap};
use mod_pmem::PmPtr;
use std::cell::Cell;
use std::thread::LocalKey;

/// Kind tag: CHAMP bitmap node.
pub const KIND_BITMAP: u64 = 1;
/// Kind tag: vector leaf node.
pub const KIND_LEAF: u64 = 3;
/// Kind tag: vector internal node.
pub const KIND_INNER: u64 = 4;
/// Kind tag: cons-list cell.
pub const KIND_CONS: u64 = 5;

/// Words in the largest fixed-fanout node image: a CHAMP bitmap node
/// full of entries (2 header words + 32 × `(key, value)`).
pub const NODE_WORDS: usize = 66;

/// The kind of a stored datastructure block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DsKind {
    /// A [`PmMap`] or [`crate::PmSet`] root object.
    Map,
    /// A CHAMP bitmap node.
    Champ,
    /// A [`PmVector`] root object.
    Vector,
    /// A vector tree node this many bits above the elements: a leaf at
    /// 0, an inner node above.
    VecNode(u64),
    /// A [`PmStack`] root object.
    Stack,
    /// A [`PmQueue`] root object.
    Queue,
    /// A cons cell of a stack or queue chain.
    Cons,
    /// A value blob ([`crate::blob`]).
    Blob,
}

thread_local! {
    static STACK: Cell<Vec<(PmPtr, DsKind)>> = const { Cell::new(Vec::new()) };
}

impl BlockKind for DsKind {
    fn children(self, heap: &mut NvHeap, ptr: PmPtr, push: &mut impl FnMut(PmPtr, DsKind)) {
        match self {
            // All three words: release's charged reads are pinned.
            DsKind::Map => push(PmMap::from_root(ptr).read_root_obj(heap).1, DsKind::Champ),
            // Value blobs, then subtrees.
            DsKind::Champ => champ::node_children(heap, ptr, push),
            DsKind::Vector => {
                let img = PmVector::from_root(ptr).read_root_obj(heap);
                push(img.root, DsKind::VecNode(img.shift));
                push(img.tail, DsKind::VecNode(0));
            }
            // A leaf is not read.
            DsKind::VecNode(shift) if shift > 0 => rrb::read_inner(heap, ptr)
                .into_iter()
                .for_each(|c| push(c, DsKind::VecNode(shift - rrb::BITS))),
            DsKind::Stack => push(PmStack::from_root(ptr).head(heap), DsKind::Cons),
            DsKind::Queue => {
                let img = PmQueue::from_root(ptr).read_root(heap);
                push(img.front, DsKind::Cons);
                push(img.rear, DsKind::Cons);
            }
            DsKind::Cons => push(list::cell_next(heap, ptr), DsKind::Cons),
            DsKind::VecNode(_) | DsKind::Blob => {}
        }
    }

    fn stack() -> &'static LocalKey<Cell<Vec<(PmPtr, DsKind)>>> {
        &STACK
    }
}

/// A node image assembled word by word in a fixed stack buffer, then
/// stored with a single charged write — building, editing and storing a
/// node allocates nothing on the host.
#[derive(Debug)]
pub struct NodeBuf {
    words: [u64; NODE_WORDS],
    len: usize,
}

impl Default for NodeBuf {
    fn default() -> NodeBuf {
        NodeBuf::new()
    }
}

impl NodeBuf {
    /// An empty buffer.
    pub fn new() -> NodeBuf {
        NodeBuf {
            words: [0; NODE_WORDS],
            len: 0,
        }
    }

    /// Appends a `u64`.
    ///
    /// # Panics
    ///
    /// Panics past [`NODE_WORDS`] words.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.words[self.len] = v;
        self.len += 1;
        self
    }

    /// The words pushed so far.
    pub fn words(&self) -> &[u64] {
        &self.words[..self.len]
    }

    /// Stores the image as a fresh block (see [`store_words`]).
    pub fn store(&self, heap: &mut NvHeap) -> PmPtr {
        store_words(heap, self.words())
    }
}

/// Allocates a `len`-byte block, lets `write` fill it, and flushes
/// exactly the written extent (block header + payload bytes) with
/// unordered `clwb`s — not the rounded-up size class, so flush counts
/// reflect data actually produced. The block's refcount starts at 1
/// (owned by the caller).
fn store_block(heap: &mut NvHeap, len: u64, write: impl FnOnce(&mut NvHeap, u64)) -> PmPtr {
    let ptr = heap.alloc(len);
    write(heap, ptr.addr());
    heap.flush_range(
        ptr.addr() - mod_alloc::HEADER_BYTES,
        mod_alloc::HEADER_BYTES + len,
    );
    ptr
}

/// Stores `words` as a fresh, flushed (not fenced) block with a single
/// charged write; the caller owns its one reference.
pub fn store_words(heap: &mut NvHeap, words: &[u64]) -> PmPtr {
    store_block(heap, words.len() as u64 * 8, |heap, addr| {
        heap.write_words(addr, words)
    })
}

/// [`store_words`] for an image that is not a whole number of words.
pub fn store_bytes(heap: &mut NvHeap, bytes: &[u8]) -> PmPtr {
    store_block(heap, bytes.len() as u64, |heap, addr| {
        heap.write_bytes(addr, bytes)
    })
}

/// Drops one temporary ownership reference on a freshly stored node.
pub(crate) fn drop_temp(heap: &mut NvHeap, ptr: PmPtr) {
    let left = heap.rc_dec(ptr);
    debug_assert!(left >= 1, "temp node should be co-owned");
}

/// Reads the first word of a node, asserts that its low half is the
/// kind `expect`, and returns the whole word (a cons cell keeps its next
/// pointer in the high half).
///
/// # Panics
///
/// Panics on a kind mismatch — a traversal reached a block of the wrong
/// type, which indicates a datastructure bug.
pub fn check_kind<'a>(heap: impl Into<HeapRead<'a>>, node: PmPtr, expect: u64) -> u64 {
    let word = heap.into().u64(node.addr());
    let k = word as u32 as u64;
    assert_eq!(
        k, expect,
        "node {node} has kind {k}, expected {expect} — corrupt traversal"
    );
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn nodebuf_roundtrip() {
        let mut h = heap();
        let mut b = NodeBuf::new();
        b.push_u64(KIND_LEAF).push_u64(1).push_u64(42);
        assert_eq!(b.words().len(), 3);
        let p = b.store(&mut h);
        assert_eq!(h.read_u64(p.addr()), KIND_LEAF);
        assert_eq!(h.read_u64(p.addr() + 8), 1);
        assert_eq!(h.read_u64(p.addr() + 16), 42);
        assert_eq!(h.rc_get(p), 1);
    }

    #[test]
    fn stored_node_is_fully_flushed() {
        let mut h = heap();
        let mut b = NodeBuf::new();
        for i in 0..40u64 {
            b.push_u64(i);
        }
        let p = b.store(&mut h);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(p.addr() + 39 * 8), 39);
    }

    #[test]
    fn store_bytes_keeps_odd_lengths_exact() {
        let mut h = heap();
        let p = store_bytes(&mut h, b"thirteen byte");
        let mut back = [0u8; 13];
        h.read_bytes(p.addr(), &mut back);
        assert_eq!(&back, b"thirteen byte");
        assert_eq!(h.block_len(p), 16);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0);
    }

    #[test]
    fn check_kind_accepts_match() {
        let mut h = heap();
        let mut b = NodeBuf::new();
        b.push_u64(KIND_LEAF);
        let p = b.store(&mut h);
        assert_eq!(check_kind(&mut h, p, KIND_LEAF), KIND_LEAF);
    }

    #[test]
    #[should_panic(expected = "corrupt traversal")]
    fn check_kind_rejects_mismatch() {
        let mut h = heap();
        let mut b = NodeBuf::new();
        b.push_u64(KIND_LEAF);
        let p = b.store(&mut h);
        check_kind(&mut h, p, KIND_BITMAP);
    }
}
