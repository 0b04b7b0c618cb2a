//! Pool layout and allocation size classes.
//!
//! The pool is laid out as:
//!
//! ```text
//! [0,   64)              pool header: magic, capacity
//! [64,  576)             64 persistent root slots (8 bytes each)
//! [1024, capacity)       heap blocks: 16-byte header + payload, 16-byte aligned
//! [capacity, capacity+V) the volatile range: DRAM, never persisted —
//!                        hybrid roots' index blocks, same block format
//! ```
//!
//! `V = min(capacity, MAX_POOL_BYTES − capacity)`: the volatile range
//! mirrors the pool's size while both fit below [`MAX_POOL_BYTES`], so
//! every block, persistent or volatile, has a 32-bit index
//! ([`pack_ptr`]); a pool above 32 GiB gets a smaller range, one of
//! 64 GiB none.
//!
//! Size classes mirror nvm_malloc's segregated bins: small classes grow
//! roughly geometrically, large requests round up to 4 KiB multiples.

use mod_pmem::PmPtr;

/// Pool magic number ("MODPOOL1").
pub const POOL_MAGIC: u64 = 0x4D4F_4450_4F4F_4C31;

/// Number of persistent root slots.
pub const N_ROOTS: usize = 64;

/// Byte offset of root slot `i`.
#[inline]
pub fn root_slot_offset(i: usize) -> u64 {
    assert!(i < N_ROOTS, "root slot {i} out of range (max {N_ROOTS})");
    64 + (i as u64) * 8
}

/// First byte of the heap region.
pub const HEAP_BASE: u64 = 1024;

/// Bytes of block header preceding each payload.
pub const HEADER_BYTES: u64 = 16;

/// Largest pool [`crate::NvHeap::format`] accepts: 64 GiB (2^36 bytes,
/// [`mod_pmem::ADDRESS_LIMIT`]). Every block payload is 16-byte aligned,
/// so a node can name any block below it — of the pool or of its
/// volatile range — with a 32-bit index (`addr / 16`, see [`pack_ptr`])
/// instead of an 8-byte address.
pub const MAX_POOL_BYTES: u64 = mod_pmem::ADDRESS_LIMIT;

/// Alignment of every block payload, and so the unit of a stored index.
const INDEX_GRAIN: u64 = 16;

/// Encodes a block pointer as a stored 32-bit index: `addr / 16`, with
/// null as 0 (no block sits at address 0 — the heap starts at
/// [`HEAP_BASE`]). This and [`unpack_ptr`] are the one place the
/// encoding lives: every block pointer stored as an index (CHAMP nodes,
/// cons cells, the vector and queue root objects) goes through them.
///
/// # Panics
///
/// Panics if the address is not 16-byte aligned or not below 2^36 (the
/// 64 GiB [`MAX_POOL_BYTES`] limit) — neither can be a block payload.
pub fn pack_ptr(p: PmPtr) -> u32 {
    let a = p.addr();
    assert!(
        a % INDEX_GRAIN == 0 && a < MAX_POOL_BYTES,
        "{p} is not a 16-byte aligned address below 64 GiB — no 32-bit block index names it"
    );
    (a / INDEX_GRAIN) as u32
}

/// Decodes a stored 32-bit index (see [`pack_ptr`]); 0 is null.
pub fn unpack_ptr(index: u32) -> PmPtr {
    PmPtr::from_addr(index as u64 * INDEX_GRAIN)
}

/// Packs `ptrs` as stored indices, two to a word with the first in the
/// low half — in the little-endian image, a plain `u32` array. An odd
/// count pads the last word's high half with null.
pub fn pack_ptrs(ptrs: impl IntoIterator<Item = PmPtr>) -> impl Iterator<Item = u64> {
    let mut ptrs = ptrs.into_iter();
    std::iter::from_fn(move || {
        let lo = pack_ptr(ptrs.next()?) as u64;
        let hi = pack_ptr(ptrs.next().unwrap_or(PmPtr::NULL)) as u64;
        Some(lo | hi << 32)
    })
}

/// Unpacks words written by [`pack_ptrs`], two pointers per word
/// (including a trailing pad, which the caller's count leaves out).
pub fn unpack_ptrs(words: &[u64]) -> impl Iterator<Item = PmPtr> + '_ {
    words
        .iter()
        .flat_map(|&w| [unpack_ptr(w as u32), unpack_ptr((w >> 32) as u32)])
}

/// Magic mixed into block headers for integrity checking.
pub const BLOCK_MAGIC: u64 = 0x4D4F_445F_424C_4B00;

/// Segregated size classes (payload bytes). Requests above the last class
/// round up to 4 KiB multiples.
pub const SIZE_CLASSES: [u64; 17] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 8192,
];

/// Smallest granule for recovered free-space regions (header + minimum
/// payload).
pub const MIN_BLOCK: u64 = HEADER_BYTES + SIZE_CLASSES[0];

/// The payload size actually allocated for a request of `len` bytes.
///
/// # Panics
///
/// Panics if `len == 0` (zero-sized persistent allocations are a logic
/// error — they would produce aliased block addresses).
pub fn class_size(len: u64) -> u64 {
    assert!(len > 0, "zero-sized persistent allocation");
    for &c in &SIZE_CLASSES {
        if len <= c {
            return c;
        }
    }
    len.div_ceil(4096) * 4096
}

/// Index into the free-list table for an exact class size, if it is one of
/// the segregated classes.
pub fn class_index(class: u64) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c == class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_up() {
        assert_eq!(class_size(1), 16);
        assert_eq!(class_size(16), 16);
        assert_eq!(class_size(17), 32);
        assert_eq!(class_size(100), 128);
        assert_eq!(class_size(4096), 4096);
        assert_eq!(class_size(8192), 8192);
        assert_eq!(class_size(8193), 12288);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        class_size(0);
    }

    #[test]
    fn class_index_roundtrip() {
        for (i, &c) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(class_index(c), Some(i));
        }
        assert_eq!(class_index(20), None);
    }

    #[test]
    fn root_slots_fit_below_heap() {
        assert!(root_slot_offset(N_ROOTS - 1) + 8 <= HEAP_BASE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn root_slot_bounds_checked() {
        root_slot_offset(N_ROOTS);
    }

    #[test]
    fn pointer_indices_roundtrip_across_the_whole_64_gib_span() {
        // Synthetic addresses: null, the lowest heap block's payload and
        // the highest 16-aligned address below 2^36. No pool is built.
        let lowest = HEAP_BASE + HEADER_BYTES;
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
        pack_ptr(PmPtr::from_addr(HEAP_BASE + 8));
    }

    #[test]
    #[should_panic(expected = "no 32-bit block index names it")]
    fn pointer_past_64_gib_has_no_index() {
        pack_ptr(PmPtr::from_addr(MAX_POOL_BYTES));
    }

    #[test]
    fn classes_are_16_aligned_and_increasing() {
        let mut prev = 0;
        for &c in &SIZE_CLASSES {
            assert_eq!(c % 16, 0);
            assert!(c > prev);
            prev = c;
        }
    }
}
