//! Shared node plumbing for the functional datastructures.
//!
//! Every persistent node starts with a kind word so that traversal bugs
//! surface as assertion failures instead of silent corruption, and so that
//! debugging tools can identify blocks. Nodes are written once (out of
//! place), flushed with unordered `clwb`s, and never modified afterwards —
//! the Functional Shadowing discipline of §4.1.

use mod_alloc::NvHeap;
use mod_pmem::PmPtr;

/// Kind tag: CHAMP bitmap node.
pub const KIND_BITMAP: u64 = 1;
/// Kind tag: CHAMP hash-collision node.
pub const KIND_COLLISION: u64 = 2;
/// Kind tag: RRB leaf node.
pub const KIND_LEAF: u64 = 3;
/// Kind tag: RRB internal node.
pub const KIND_INNER: u64 = 4;
/// Kind tag: cons-list cell.
pub const KIND_CONS: u64 = 5;

/// Words in the largest fixed-fanout node image: a CHAMP bitmap node
/// full of entries (2 header words + 32 × `(key, value)`), or an RRB
/// inner node with its size table (2 + 32 children + 32 sizes).
pub const NODE_WORDS: usize = 66;

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

    /// Appends a pointer.
    pub fn push_ptr(&mut self, p: PmPtr) -> &mut Self {
        self.push_u64(p.addr())
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

/// Reads the kind word of a node and asserts it matches `expect`.
///
/// # Panics
///
/// Panics on a kind mismatch — a traversal reached a block of the wrong
/// type, which indicates a datastructure bug.
pub fn check_kind(heap: &mut NvHeap, node: PmPtr, expect: u64) -> u64 {
    let k = heap.read_u64(node.addr());
    assert_eq!(
        k, expect,
        "node {node} has kind {k}, expected {expect} — corrupt traversal"
    );
    k
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
        b.push_u64(KIND_CONS).push_u64(42).push_ptr(PmPtr::NULL);
        assert_eq!(b.words().len(), 3);
        let p = b.store(&mut h);
        assert_eq!(h.read_u64(p.addr()), KIND_CONS);
        assert_eq!(h.read_u64(p.addr() + 8), 42);
        assert_eq!(h.read_u64(p.addr() + 16), 0);
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
