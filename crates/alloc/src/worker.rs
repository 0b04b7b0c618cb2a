//! Worker-shard allocation state for lock-free FASE staging.
//!
//! [`crate::NvHeap::split_workers`] checks a slice of the pool — and of
//! its volatile range — out to each worker thread as a fully independent
//! `NvHeap`: the worker allocates from its own arenas (private bump
//! pointers + free lists) and
//! writes through its own [`mod_pmem::Pmem`] shard handle, so the whole
//! staging hot path runs with **no shared lock**. Everything that would
//! touch shared allocator state is either
//!
//! * **local** — fresh blocks' reference counts live in the worker's own
//!   fresh log until the FASE is handed to the commit stage;
//! * **deferred** — increments on *foreign* (already-published) blocks
//!   accumulate as deltas, and foreign frees queue up, both carried to
//!   the commit stage in a [`StagedAllocEffects`] and applied there in
//!   batch order; or
//! * **funneled through a per-shard return bin** — when the commit stage
//!   reclaims a superseded version whose blocks live in a worker arena,
//!   the block addresses go into that shard's bin (a short uncontended
//!   mutex), and the owning worker drains its bin into its free lists
//!   the next time its arena misses.
//!
//! A decrement on a foreign block is legal during staging only when it
//! cancels an increment the same FASE staged (a pure update's temporary
//! ownership of a published node); anything more would need the true
//! count, which a worker cannot know, so it can never decide to free —
//! the FASE layer defers whole-version releases to the commit stage.

use crate::heap::AllocStats;
use crate::table::BlockTable;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Per-shard return bins: block headers freed by the commit stage on
/// behalf of a worker arena, waiting for the owner to drain them back
/// into its free lists. Indexed by worker/shard id.
pub(crate) type ShardBins = Arc<Vec<Mutex<Vec<u64>>>>;

/// Signed difference between two [`AllocStats`] snapshots, so a worker's
/// traffic since the last handoff can be folded into the global roll-up
/// (Table 3 stays exact under concurrency).
#[derive(Clone, Debug, Default)]
pub struct AllocDelta {
    allocs: u64,
    frees: u64,
    cumulative_alloc_bytes: u64,
    live_bytes: i64,
    live_blocks: i64,
}

impl AllocDelta {
    /// The traffic between `earlier` and `now`.
    pub fn between(earlier: &AllocStats, now: &AllocStats) -> AllocDelta {
        AllocDelta {
            allocs: now.allocs - earlier.allocs,
            frees: now.frees - earlier.frees,
            cumulative_alloc_bytes: now.cumulative_alloc_bytes - earlier.cumulative_alloc_bytes,
            live_bytes: now.live_bytes as i64 - earlier.live_bytes as i64,
            live_blocks: now.live_blocks as i64 - earlier.live_blocks as i64,
        }
    }

    /// Folds this delta into `stats`.
    pub fn apply_to(&self, stats: &mut AllocStats) {
        stats.allocs += self.allocs;
        stats.frees += self.frees;
        stats.cumulative_alloc_bytes += self.cumulative_alloc_bytes;
        stats.live_bytes = (stats.live_bytes as i64 + self.live_bytes).max(0) as u64;
        stats.live_blocks = (stats.live_blocks as i64 + self.live_blocks).max(0) as u64;
        stats.hwm_live_bytes = stats.hwm_live_bytes.max(stats.live_bytes);
    }
}

/// Allocator side effects of one staged FASE, in transit from a worker
/// heap to the commit stage (the PM-line side travels separately as a
/// [`mod_pmem::LineHandoff`]). Applied under the commit lock, in batch
/// order, by [`crate::NvHeap::apply_staged_effects`].
#[derive(Debug, Default)]
pub struct StagedAllocEffects {
    /// Fresh blocks whose authoritative reference counts move from the
    /// worker's table to the global table (`(payload addr, count)`).
    pub(crate) rc_transfer: Vec<(u64, u32)>,
    /// Reference-count increments on foreign (already-published) blocks.
    pub(crate) rc_deltas: Vec<(u64, i64)>,
    /// Payload addresses of foreign blocks the worker freed (rare; the
    /// authoritative free runs commit-side).
    pub(crate) foreign_frees: Vec<u64>,
    /// The worker's allocation traffic since its previous handoff.
    pub(crate) stats: AllocDelta,
}

impl StagedAllocEffects {
    /// Whether the FASE had no allocator side effects at all.
    pub fn is_empty(&self) -> bool {
        self.rc_transfer.is_empty() && self.rc_deltas.is_empty() && self.foreign_frees.is_empty()
    }
}

/// Worker-mode state carried by a checked-out `NvHeap` (see module docs).
#[derive(Debug)]
pub(crate) struct WorkerMode {
    /// This worker's shard index (its bin in [`ShardBins`]).
    pub(crate) home: usize,
    pub(crate) bins: ShardBins,
    /// The worker's arenas `[start, end)`: in the pool, and in the
    /// volatile range.
    pub(crate) arenas: [Range<u64>; 2],
    /// Foreign-block rc increments accumulated this FASE.
    pub(crate) rc_deltas: HashMap<u64, i64>,
    /// `(payload, refcount)` of every block allocated this FASE and
    /// still live: the worker's local count authority, and the rollback
    /// log for conflict aborts.
    fresh: Vec<(u64, u32)>,
    /// "Fresh this FASE" mark per block: its index in `fresh` plus one,
    /// 0 for everything else (foreign blocks, blocks already handed to
    /// the commit stage). Makes the fresh/foreign split and the removal
    /// from `fresh` O(1).
    fresh_slot: BlockTable,
    /// Foreign blocks freed this FASE (deferred to the commit stage).
    pub(crate) foreign_frees: Vec<u64>,
    /// Global-stats snapshot at the last handoff (delta base).
    pub(crate) stats_mark: AllocStats,
}

impl WorkerMode {
    pub(crate) fn new(home: usize, bins: ShardBins, arenas: [Range<u64>; 2]) -> WorkerMode {
        WorkerMode {
            home,
            bins,
            arenas,
            rc_deltas: HashMap::new(),
            fresh: Vec::new(),
            fresh_slot: BlockTable::default(),
            foreign_frees: Vec::new(),
            stats_mark: AllocStats::default(),
        }
    }

    /// Whether the block whose header sits at `hdr` lies in one of this
    /// worker's arenas.
    pub(crate) fn owns(&self, hdr: u64) -> bool {
        self.arenas.iter().any(|arena| arena.contains(&hdr))
    }

    /// Records a freshly allocated block with a refcount of 1.
    pub(crate) fn note_fresh(&mut self, payload: u64) {
        self.fresh.push((payload, 1));
        self.fresh_slot.set(payload, self.fresh.len() as u32);
    }

    /// Index in `fresh` of `payload`, if this FASE allocated it.
    fn fresh_index(&self, payload: u64) -> Option<usize> {
        (self.fresh_slot.get(payload) as usize).checked_sub(1)
    }

    /// The local refcount of `payload` if this FASE allocated it.
    pub(crate) fn fresh_count(&mut self, payload: u64) -> Option<&mut u32> {
        self.fresh_index(payload).map(|i| &mut self.fresh[i].1)
    }

    /// Read-only [`WorkerMode::fresh_count`]; 0 for foreign blocks.
    pub(crate) fn peek_fresh_count(&self, payload: u64) -> u32 {
        self.fresh_index(payload).map_or(0, |i| self.fresh[i].1)
    }

    /// Increments a fresh block's count, or notes a foreign delta.
    pub(crate) fn rc_inc(&mut self, payload: u64) {
        match self.fresh_count(payload) {
            Some(c) => *c += 1,
            None => *self.rc_deltas.entry(payload).or_insert(0) += 1,
        }
    }

    /// Cancels one foreign increment this FASE staged on `payload`:
    /// `Some(1 + increments still staged)` (the publisher's own
    /// reference plus ours), or `None` if this FASE staged none.
    pub(crate) fn cancel_foreign_inc(&mut self, payload: u64) -> Option<u32> {
        let delta = self.rc_deltas.get_mut(&payload)?;
        *delta -= 1;
        let left = *delta as u32;
        if left == 0 {
            self.rc_deltas.remove(&payload);
        }
        Some(1 + left)
    }

    /// Drops `payload` from the fresh log (it was freed inside the FASE
    /// that allocated it). No-op for blocks that are not fresh.
    pub(crate) fn forget_fresh(&mut self, payload: u64) {
        let Some(i) = self.fresh_index(payload) else {
            return;
        };
        self.fresh.swap_remove(i);
        self.fresh_slot.set(payload, 0);
        if let Some(&(moved, _)) = self.fresh.get(i) {
            self.fresh_slot.set(moved, i as u32 + 1);
        }
    }

    /// Empties the fresh log, returning its `(payload, count)` entries
    /// in log order; every block becomes foreign to this worker.
    pub(crate) fn take_fresh(&mut self) -> Vec<(u64, u32)> {
        let fresh = std::mem::take(&mut self.fresh);
        for &(payload, _) in &fresh {
            self.fresh_slot.set(payload, 0);
        }
        fresh
    }
}

/// Commit-side view of a worker split: which address ranges are checked
/// out, and the bins frees to those ranges are routed through.
#[derive(Debug)]
pub(crate) struct SplitState {
    /// Per space (the pool, the volatile range), the start of worker 0's
    /// arena and the bytes per arena: worker `i` owns
    /// `[base + i·per, base + (i+1)·per)`.
    pub(crate) slices: [(u64, u64); 2],
    /// Which arenas are still checked out, indexed by shard.
    pub(crate) checked_out: Vec<bool>,
    pub(crate) bins: ShardBins,
}

impl SplitState {
    /// The worker whose arena contains `addr`, if still checked out.
    pub(crate) fn arena_of(&self, addr: u64) -> Option<usize> {
        let n = self.checked_out.len();
        let home = self.slices.iter().find_map(|&(base, per)| {
            let home = addr.checked_sub(base)?.checked_div(per)? as usize;
            (home < n).then_some(home)
        })?;
        self.checked_out[home].then_some(home)
    }
}
