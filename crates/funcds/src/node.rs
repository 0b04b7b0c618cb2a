//! Shared node plumbing for the functional datastructures.
//!
//! Every persistent node starts with a kind word so that traversal bugs
//! surface as assertion failures instead of silent corruption, and so that
//! debugging tools can identify blocks. Nodes are written once (out of
//! place), flushed with unordered `clwb`s, and never modified afterwards —
//! the Functional Shadowing discipline of §4.1.
//!
//! A node may store its block pointers as 32-bit *indices* instead of
//! 8-byte addresses: every block payload is 16-byte aligned and a pool is
//! at most [`mod_alloc::MAX_POOL_BYTES`] (64 GiB), so `addr / 16` fits in
//! 32 bits, with 0 standing for null (no block sits at address 0 — the
//! heap starts at [`mod_alloc::HEAP_BASE`]). `pack_ptr` and `unpack_ptr`
//! are the one place that encoding lives; CHAMP nodes use it for their
//! value and child pointers.

use mod_alloc::{HeapRead, NvHeap, MAX_POOL_BYTES};
use mod_pmem::PmPtr;

/// Kind tag: CHAMP bitmap node.
pub const KIND_BITMAP: u64 = 1;
/// Kind tag: CHAMP hash-collision node.
pub const KIND_COLLISION: u64 = 2;
/// Kind tag: vector leaf node.
pub const KIND_LEAF: u64 = 3;
/// Kind tag: vector internal node.
pub const KIND_INNER: u64 = 4;
/// Kind tag: cons-list cell.
pub const KIND_CONS: u64 = 5;

/// Words in the largest fixed-fanout node image: a CHAMP bitmap node
/// full of entries (2 header words + 32 × `(key, value)`).
pub const NODE_WORDS: usize = 66;

/// Alignment of every block payload, and so the unit of a stored index.
const INDEX_GRAIN: u64 = 16;

/// Encodes a block pointer as a stored 32-bit index: `addr / 16`, with
/// null as 0.
///
/// # Panics
///
/// Panics if the address is not 16-byte aligned or not below 2^36 (the
/// 64 GiB [`MAX_POOL_BYTES`] limit) — neither can be a block payload.
pub(crate) fn pack_ptr(p: PmPtr) -> u32 {
    let a = p.addr();
    assert!(
        a % INDEX_GRAIN == 0 && a < MAX_POOL_BYTES,
        "{p} is not a 16-byte aligned address below 64 GiB — no 32-bit block index names it"
    );
    (a / INDEX_GRAIN) as u32
}

/// Decodes a stored 32-bit index (see [`pack_ptr`]); 0 is null.
pub(crate) fn unpack_ptr(index: u32) -> PmPtr {
    PmPtr::from_addr(index as u64 * INDEX_GRAIN)
}

/// Packs `ptrs` as stored indices, two to a word with the first in the
/// low half — in the little-endian image, a plain `u32` array. An odd
/// count pads the last word's high half with null.
pub(crate) fn pack_ptrs(ptrs: impl IntoIterator<Item = PmPtr>) -> impl Iterator<Item = u64> {
    let mut ptrs = ptrs.into_iter();
    std::iter::from_fn(move || {
        let lo = pack_ptr(ptrs.next()?) as u64;
        let hi = pack_ptr(ptrs.next().unwrap_or(PmPtr::NULL)) as u64;
        Some(lo | hi << 32)
    })
}

/// Unpacks words written by [`pack_ptrs`], two pointers per word
/// (including a trailing pad, which the caller's count leaves out).
pub(crate) fn unpack_ptrs(words: &[u64]) -> impl Iterator<Item = PmPtr> + '_ {
    words
        .iter()
        .flat_map(|&w| [unpack_ptr(w as u32), unpack_ptr((w >> 32) as u32)])
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
pub fn check_kind<'a>(heap: impl Into<HeapRead<'a>>, node: PmPtr, expect: u64) -> u64 {
    let k = heap.into().u64(node.addr());
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
    fn pointer_indices_roundtrip_across_the_whole_64_gib_span() {
        // Synthetic addresses: null, the lowest heap block's payload and
        // the highest 16-aligned address below 2^36. No pool is built.
        let lowest = mod_alloc::HEAP_BASE + mod_alloc::HEADER_BYTES;
        let highest = MAX_POOL_BYTES - INDEX_GRAIN;
        assert_eq!(pack_ptr(PmPtr::NULL), 0);
        assert_eq!(pack_ptr(PmPtr::from_addr(lowest)), 65);
        assert_eq!(pack_ptr(PmPtr::from_addr(highest)), u32::MAX);
        for a in [0, lowest, highest] {
            let p = PmPtr::from_addr(a);
            assert_eq!(unpack_ptr(pack_ptr(p)), p);
        }
        // Packed two to a word, first in the low half; an odd count pads
        // with null.
        let ptrs = [lowest, highest, 4096].map(PmPtr::from_addr);
        let words: Vec<u64> = pack_ptrs(ptrs).collect();
        assert_eq!(words, [65 | (u32::MAX as u64) << 32, 256]);
        let back: Vec<PmPtr> = unpack_ptrs(&words).collect();
        assert_eq!(back, [ptrs[0], ptrs[1], ptrs[2], PmPtr::NULL]);
        assert_eq!(pack_ptrs([]).count(), 0);
    }

    #[test]
    #[should_panic(expected = "no 32-bit block index names it")]
    fn misaligned_pointer_has_no_index() {
        pack_ptr(PmPtr::from_addr(mod_alloc::HEAP_BASE + 8));
    }

    #[test]
    #[should_panic(expected = "no 32-bit block index names it")]
    fn pointer_past_64_gib_has_no_index() {
        pack_ptr(PmPtr::from_addr(MAX_POOL_BYTES));
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
