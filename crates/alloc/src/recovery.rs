//! Post-crash recovery: reachability marking, refcount reconstruction and
//! free-space rebuild (paper §5.3).
//!
//! The paper's reclamation scheme deliberately keeps reference counts and
//! free lists volatile; after a crash the recovery code (1) walks every
//! datastructure from its persistent root, marking reachable blocks and
//! counting references, and (2) treats everything unmarked as free —
//! including leaks from FASEs interrupted mid-update, whose shadow nodes
//! were never committed. The walk is driven by the typed datastructure
//! layer (which knows where the child pointers are); this module provides
//! the mark/sweep machinery.

use crate::heap::NvHeap;
use crate::layout::{BLOCK_MAGIC, HEADER_BYTES, HEAP_BASE, MIN_BLOCK};
use mod_pmem::PmPtr;
use std::collections::BTreeMap;

/// Bookkeeping for an in-progress recovery: the reachable blocks seen so
/// far. Their reference counts go straight into the heap's refcount
/// table as the marker finds them.
#[derive(Debug, Default)]
pub struct MarkState {
    /// `(header addr, header + payload class bytes)` per reachable block.
    blocks: Vec<(u64, u64)>,
}

/// Outcome of a completed recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks found reachable.
    pub live_blocks: u64,
    /// Payload bytes found reachable.
    pub live_bytes: u64,
    /// Bytes of free space (gaps, incl. leaked blocks) returned to the
    /// allocator.
    pub reclaimed_bytes: u64,
}

impl NvHeap {
    /// Marks the block at `ptr` as reachable, incrementing its rebuilt
    /// reference count. Returns `true` the first time the block is seen —
    /// the caller should then recurse into its children.
    ///
    /// # Panics
    ///
    /// Panics outside recovery mode, on a null pointer, or if the block
    /// header fails its integrity check.
    pub fn mark_block(&mut self, ptr: PmPtr) -> bool {
        assert!(!ptr.is_null(), "marking null pointer");
        assert!(self.mark.is_some(), "mark_block outside recovery");
        let hdr = ptr.addr() - HEADER_BYTES;
        // Header reads are charged: the paper includes GC time in results.
        let class = self.pm_mut().read_u64(hdr);
        let magic = self.pm_mut().read_u64(hdr + 8);
        assert_eq!(
            magic,
            BLOCK_MAGIC ^ class,
            "corrupt block header at {hdr:#x} during recovery"
        );
        let first = self.rc.update(ptr.addr(), |refs| refs + 1) == 1;
        if first {
            let mark = self.mark.as_mut().unwrap();
            mark.blocks.push((hdr, HEADER_BYTES + class));
        }
        first
    }

    /// Completes recovery: rebuilds the bump pointer, free regions and
    /// refcount table from the mark results, and re-enables allocation.
    ///
    /// # Panics
    ///
    /// Panics outside recovery mode.
    pub fn finish_recovery(&mut self) -> RecoveryReport {
        let mut blocks = self
            .mark
            .take()
            .expect("finish_recovery outside recovery mode")
            .blocks;
        blocks.sort_unstable();
        let mut regions: BTreeMap<u64, u64> = BTreeMap::new();
        let mut cursor = HEAP_BASE;
        let mut reclaimed = 0u64;
        for &(start, len) in &blocks {
            assert!(start >= cursor, "overlapping live blocks at {start:#x}");
            if start - cursor >= MIN_BLOCK {
                regions.insert(cursor, start - cursor);
                reclaimed += start - cursor;
            }
            cursor = start + len;
        }
        let bump = cursor;
        let live_blocks = blocks.len() as u64;
        let live_bytes: u64 = blocks.iter().map(|&(_, len)| len - HEADER_BYTES).sum();
        self.rebuild_free_space(regions, bump);
        let stats = self.stats_mut();
        stats.live_bytes = live_bytes;
        stats.live_blocks = live_blocks;
        stats.hwm_live_bytes = stats.hwm_live_bytes.max(live_bytes);
        RecoveryReport {
            live_blocks,
            live_bytes,
            reclaimed_bytes: reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

    /// Builds a heap with a two-node persistent "list" reachable from
    /// root 0 and one leaked (unreachable) block, then crashes it.
    fn crashed_heap_with_leak() -> (Pmem, PmPtr, PmPtr) {
        let mut h = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let n1 = h.alloc(16);
        let n2 = h.alloc(16);
        // n1.next = n2
        h.write_u64(n1.addr(), n2.addr());
        h.write_u64(n2.addr(), 0);
        h.flush_block(n1);
        h.flush_block(n2);
        h.sfence();
        // Publish n1 in root slot 0, flushed and fenced.
        let slot = h.root_slot_addr(0);
        h.write_u64(slot, n1.addr());
        h.clwb(slot);
        h.sfence();
        // Leak: allocated, flushed, but never linked anywhere.
        let leak = h.alloc(64);
        h.write_u64(leak.addr(), 0xDEAD);
        h.flush_block(leak);
        h.sfence();
        (h.into_pm(), n1, n2)
    }

    #[test]
    fn recovery_marks_live_and_reclaims_leaks() {
        let (pm, n1, n2) = crashed_heap_with_leak();
        let crashed = pm.crash_image(CrashPolicy::OnlyFenced);
        let mut h = NvHeap::open(crashed);
        let root = h.read_root(0);
        assert_eq!(root, n1);
        // Walk the list, marking.
        let mut cur = root;
        while !cur.is_null() {
            assert!(h.mark_block(cur));
            cur = PmPtr::from_addr(h.read_u64(cur.addr()));
        }
        let report = h.finish_recovery();
        assert_eq!(report.live_blocks, 2);
        assert_eq!(report.live_bytes, 32);
        // The leak sat at the heap tail, so it is reclaimed by the bump
        // pointer rather than a gap region: the next allocation of its
        // size lands exactly where the leaked block was.
        let reused = h.alloc(64);
        assert_eq!(
            reused.addr(),
            HEAP_BASE + 2 * (HEADER_BYTES + 16) + HEADER_BYTES
        );
        // Live data intact.
        assert_eq!(h.read_u64(n1.addr()), n2.addr());
        // Refcounts rebuilt.
        assert_eq!(h.rc_get(n1), 1);
        assert_eq!(h.rc_get(n2), 1);
        // And the reclaimed space is allocatable again.
        let a = h.alloc(48);
        assert!(!a.is_null());
    }

    #[test]
    fn shared_blocks_get_ref_counts_from_reachability() {
        let mut h = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let shared = h.alloc(16);
        let p1 = h.alloc(16);
        let p2 = h.alloc(16);
        h.write_u64(p1.addr(), shared.addr());
        h.write_u64(p2.addr(), shared.addr());
        for b in [shared, p1, p2] {
            h.flush_block(b);
        }
        h.sfence();
        let (s0, s1) = (h.root_slot_addr(0), h.root_slot_addr(1));
        h.write_u64(s0, p1.addr());
        h.write_u64(s1, p2.addr());
        h.clwb(s0);
        h.clwb(s1);
        h.sfence();
        let crashed = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let mut h = NvHeap::open(crashed);
        for slot in 0..2 {
            let parent = h.read_root(slot);
            assert!(h.mark_block(parent));
            let child = PmPtr::from_addr(h.read_u64(parent.addr()));
            h.mark_block(child); // second call returns false, still counts
        }
        h.finish_recovery();
        assert_eq!(h.rc_get(shared), 2, "two parents found by reachability");
    }

    #[test]
    fn empty_heap_recovery() {
        let h = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let crashed = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let mut h = NvHeap::open(crashed);
        let report = h.finish_recovery();
        assert_eq!(report.live_blocks, 0);
        let a = h.alloc(16);
        assert_eq!(a.addr(), HEAP_BASE + HEADER_BYTES);
    }

    #[test]
    fn alloc_after_recovery_fills_gaps_first() {
        let (pm, _, _) = crashed_heap_with_leak();
        let crashed = pm.crash_image(CrashPolicy::OnlyFenced);
        let mut h = NvHeap::open(crashed);
        let mut cur = h.read_root(0);
        while !cur.is_null() {
            h.mark_block(cur);
            cur = PmPtr::from_addr(h.read_u64(cur.addr()));
        }
        let bump_before = h.finish_recovery();
        // The leaked 64B block's space should satisfy this allocation
        // without growing the pool.
        let a = h.alloc(64);
        let _ = bump_before;
        assert!(
            a.addr() < HEAP_BASE + 1024,
            "allocation should land in the reclaimed gap, got {a}"
        );
    }

    #[test]
    #[should_panic(expected = "outside recovery")]
    fn mark_outside_recovery_panics() {
        let mut h = NvHeap::format(Pmem::new(PmemConfig::testing()));
        let a = h.alloc(16);
        h.mark_block(a);
    }
}
