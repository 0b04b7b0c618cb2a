//! Unified read access for charged and peek paths.
//!
//! The datastructure layer traverses PM in two modes: the *charged* mode
//! (`&mut NvHeap`) routes every load through the simulated cache and time
//! model — what benchmarks measure — while the *peek* mode (`&NvHeap`)
//! reads the pool contents directly, the way a read-only lookup on real
//! hardware needs no exclusive access and no instrumentation. [`HeapRead`]
//! lets one traversal implementation serve both, so read-only accessors
//! can be offered on `&NvHeap` without duplicating every walk.

use crate::heap::NvHeap;

/// A read handle over the persistent heap: either charged (through the
/// cache/time model, requires `&mut NvHeap`) or peek (instrumentation-free
/// `&NvHeap`).
#[derive(Debug)]
pub enum HeapRead<'a> {
    /// Reads through the cache model, charging simulated time.
    Charged(&'a mut NvHeap),
    /// Reads the pool contents directly, charging nothing.
    Peek(&'a NvHeap),
}

impl HeapRead<'_> {
    /// Reads a `u64` at `addr`.
    pub fn u64(&mut self, addr: u64) -> u64 {
        match self {
            HeapRead::Charged(h) => h.read_u64(addr),
            HeapRead::Peek(h) => h.peek_u64(addr),
        }
    }

    /// Reads a `u32` at `addr`.
    pub fn u32(&mut self, addr: u64) -> u32 {
        match self {
            HeapRead::Charged(h) => h.read_u32(addr),
            HeapRead::Peek(h) => h.peek_u32(addr),
        }
    }

    /// Reads `out.len()` words at the 8-byte aligned `addr`.
    pub fn words(&mut self, addr: u64, out: &mut [u64]) {
        match self {
            HeapRead::Charged(h) => h.read_words(addr, out),
            HeapRead::Peek(h) => h.peek_words(addr, out),
        }
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn vec(&mut self, addr: u64, len: u64) -> Vec<u8> {
        match self {
            HeapRead::Charged(h) => h.read_vec(addr, len),
            HeapRead::Peek(h) => h.peek_vec(addr, len),
        }
    }
}

impl<'a> From<&'a mut NvHeap> for HeapRead<'a> {
    fn from(h: &'a mut NvHeap) -> HeapRead<'a> {
        HeapRead::Charged(h)
    }
}

impl<'a> From<&'a NvHeap> for HeapRead<'a> {
    fn from(h: &'a NvHeap) -> HeapRead<'a> {
        HeapRead::Peek(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};

    #[test]
    fn charged_and_peek_agree_but_only_charged_counts() {
        let mut h = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let p = h.alloc(32);
        h.write_u64(p.addr(), 0xFEED);
        h.write_u32(p.addr() + 8, 77);
        let reads_before = h.pm().stats().reads;
        assert_eq!(HeapRead::from(&h).u64(p.addr()), 0xFEED);
        assert_eq!(HeapRead::from(&h).u32(p.addr() + 8), 77);
        assert_eq!(HeapRead::from(&h).vec(p.addr(), 8), 0xFEEDu64.to_le_bytes());
        let mut w = [0u64; 1];
        HeapRead::from(&h).words(p.addr(), &mut w);
        assert_eq!(w, [0xFEED]);
        assert_eq!(h.pm().stats().reads, reads_before, "peek is free");
        assert_eq!(HeapRead::from(&mut h).u64(p.addr()), 0xFEED);
        assert!(h.pm().stats().reads > reads_before, "charged counts");
    }
}
