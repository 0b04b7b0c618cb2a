//! Persistent set — a thin wrapper over the CHAMP map with empty values.

use crate::champ::PmMap;
use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::PmPtr;

/// Handle to one immutable version of a persistent set of `u64` keys.
///
/// Internally a [`PmMap`] whose entries carry no value blobs, exactly as
/// CHAMP-based set implementations share their map's node structure.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct PmSet {
    map: PmMap,
}

impl PmSet {
    /// Creates an empty set.
    pub fn empty(heap: &mut NvHeap) -> PmSet {
        PmSet {
            map: PmMap::empty(heap),
        }
    }

    /// Rebuilds a handle from a raw root pointer.
    pub fn from_root(root: PmPtr) -> PmSet {
        PmSet {
            map: PmMap::from_root(root),
        }
    }

    /// The version's root object pointer.
    pub fn root(&self) -> PmPtr {
        self.map.root()
    }

    /// Number of elements. Like every read accessor here it charges on
    /// `&mut NvHeap` and is free on `&NvHeap` (see [`HeapRead`]).
    pub fn len<'a>(&self, heap: impl Into<HeapRead<'a>>) -> u64 {
        self.map.len(heap)
    }

    /// Whether the set is empty.
    pub fn is_empty<'a>(&self, heap: impl Into<HeapRead<'a>>) -> bool {
        self.map.is_empty(heap)
    }

    /// Pure insert: returns `(new_version, was_new)`.
    pub fn insert(&self, heap: &mut NvHeap, key: u64) -> (PmSet, bool) {
        let (map, added) = self.map.insert_query(heap, key, b"");
        (PmSet { map }, added)
    }

    /// Membership test.
    pub fn contains<'a>(&self, heap: impl Into<HeapRead<'a>>, key: u64) -> bool {
        self.map.contains_key(heap, key)
    }

    /// Pure removal: `(new_version, removed)`. Absent keys return the same
    /// version (do not release the old handle in that case).
    pub fn remove(&self, heap: &mut NvHeap, key: u64) -> (PmSet, bool) {
        let (map, removed) = self.map.remove(heap, key);
        (PmSet { map }, removed)
    }

    /// Collects all elements (unordered).
    pub fn to_vec<'a>(&self, heap: impl Into<HeapRead<'a>>) -> Vec<u64> {
        self.map.keys(heap)
    }

    /// Releases this version's reference to its data.
    pub fn release(self, heap: &mut NvHeap) {
        self.map.release(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};
    use std::collections::HashSet;

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn insert_contains() {
        let mut h = heap();
        let s = PmSet::empty(&mut h);
        let (s, new) = s.insert(&mut h, 10);
        assert!(new);
        let (s, new) = s.insert(&mut h, 10);
        assert!(!new);
        assert!(s.contains(&mut h, 10));
        assert!(!s.contains(&mut h, 11));
        assert_eq!(s.len(&mut h), 1);
    }

    #[test]
    fn matches_hashset_model() {
        let mut h = heap();
        let mut s = PmSet::empty(&mut h);
        let mut model = HashSet::new();
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x % 100;
            if x.is_multiple_of(3) {
                let (next, removed) = s.remove(&mut h, key);
                assert_eq!(removed, model.remove(&key));
                if removed {
                    s.release(&mut h);
                }
                s = next;
            } else {
                let (next, added) = s.insert(&mut h, key);
                assert_eq!(added, model.insert(key));
                s.release(&mut h);
                s = next;
            }
            assert_eq!(s.len(&mut h) as usize, model.len());
        }
        let mut got = s.to_vec(&mut h);
        got.sort_unstable();
        let mut want: Vec<u64> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn set_entries_allocate_no_value_blobs() {
        let mut h = heap();
        let s = PmSet::empty(&mut h);
        let before = h.stats().allocs;
        let (_s2, _) = s.insert(&mut h, 42);
        let delta = h.stats().allocs - before;
        // One trie node + one root object — no blob.
        assert_eq!(delta, 2);
    }

    #[test]
    fn no_leaks() {
        let mut h = heap();
        let mut s = PmSet::empty(&mut h);
        for i in 0..100 {
            let (next, _) = s.insert(&mut h, i);
            s.release(&mut h);
            s = next;
        }
        s.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0);
    }
}
