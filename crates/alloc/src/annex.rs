//! The volatile root annex: per-root-slot words shared by every heap
//! handle of one pool.
//!
//! Hybrid ("Don't Persist All") roots keep their logical structure in
//! the pool's volatile range; the persistent directory only stores the
//! spine. Readers and stagers need the *committed volatile head* of
//! such a root, and they need to agree on it across worker heaps, read
//! views and the commit-side heap — so the words live here, in one
//! `Arc` cloned into every [`crate::NvHeap`] over the pool. The typed
//! layer owns the encoding (it packs a root kind next to the address);
//! the allocator just carries the slab.
//!
//! Writes happen only under the commit path's serialization (commit
//! lock or single ownership); reads are racy relaxed loads, safe
//! because a published word is never pointed at reclaimed memory until
//! the commit stage's epoch gate says no reader can still hold it.

use crate::layout::N_ROOTS;
use std::sync::atomic::{AtomicU64, Ordering};

/// One shared word per root slot; 0 means "no volatile head".
#[derive(Debug)]
pub struct RootAnnex {
    words: [AtomicU64; N_ROOTS],
}

impl Default for RootAnnex {
    fn default() -> RootAnnex {
        RootAnnex {
            words: [0u64; N_ROOTS].map(AtomicU64::new),
        }
    }
}

impl RootAnnex {
    /// An all-zero annex.
    pub fn new() -> RootAnnex {
        RootAnnex::default()
    }

    /// The word for root slot `i` (0 when unset).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Acquire)
    }

    /// Publishes the word for root slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&self, i: usize, word: u64) {
        self.words[i].store(word, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zero_and_round_trips() {
        let a = RootAnnex::new();
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(N_ROOTS - 1), 0);
        a.set(3, 0xdead_beef);
        assert_eq!(a.get(3), 0xdead_beef);
        a.set(3, 0);
        assert_eq!(a.get(3), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        RootAnnex::new().get(N_ROOTS);
    }
}
