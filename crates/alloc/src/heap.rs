//! The persistent heap: allocation, deallocation, root slots and the
//! volatile reference-count table.

use crate::annex::RootAnnex;
use crate::layout::{
    class_index, class_size, root_slot_offset, BLOCK_MAGIC, HEADER_BYTES, HEAP_BASE,
    MAX_POOL_BYTES, MIN_BLOCK, POOL_MAGIC, SIZE_CLASSES,
};
use crate::table::BlockTable;
use crate::worker::{AllocDelta, SplitState, StagedAllocEffects, WorkerMode};
use mod_pmem::{PmPtr, Pmem};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Allocation statistics, the data source of Table 3.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (payload class sizes, excl. headers).
    pub live_bytes: u64,
    /// Number of live blocks.
    pub live_blocks: u64,
    /// High-water mark of `live_bytes`.
    pub hwm_live_bytes: u64,
    /// Total payload bytes ever allocated (allocation traffic).
    pub cumulative_alloc_bytes: u64,
    /// Number of allocations performed.
    pub allocs: u64,
    /// Number of frees performed.
    pub frees: u64,
}

/// Free space of one address space — the persistent pool, or the
/// volatile range beside it (see [`mod_pmem::Pmem::volatile_range`]).
/// The allocator runs one algorithm over both: exact-class lists, then
/// first-fit regions, then the bump pointer.
#[derive(Debug)]
struct Space {
    /// Freed blocks' headers, per exact size class.
    free_by_class: Vec<Vec<u64>>,
    /// Coalesced free space (start → length): found by recovery, left
    /// by a rejoined worker arena, or a freed block above the classes.
    regions: BTreeMap<u64, u64>,
    /// Next never-allocated byte.
    bump: u64,
    /// End of the span the bump pointer may grow into: the space's end,
    /// or — on a worker heap — the end of the worker's arena in it.
    limit: u64,
}

impl Space {
    fn new(span: Range<u64>) -> Space {
        Space {
            free_by_class: vec![Vec::new(); SIZE_CLASSES.len()],
            regions: BTreeMap::new(),
            bump: span.start,
            limit: span.end,
        }
    }

    /// Cuts `n` equal, 64-byte aligned worker arenas off the front of
    /// the largest free span — the unallocated tail *or* a coalesced
    /// region left by recovery, whichever is larger (after a reopen the
    /// bump pointer sits above the highest live block and most free
    /// space lives in the region list) — and keeps an equal slice and
    /// the rest. Returns the first arena's start and the arena size.
    fn carve(&mut self, n: u64) -> (u64, u64) {
        let tail = (self.bump, self.limit - self.bump);
        let (base, len) = self
            .regions
            .iter()
            .map(|(&s, &l)| (s, l))
            .chain(std::iter::once(tail))
            .max_by_key(|&(_, l)| l)
            .unwrap();
        // Word-disjointness across concurrent writers requires 64-byte
        // aligned arena bounds (cacheline handoffs stay per-shard too).
        let abase = (base + 63) & !63;
        let per = (len.saturating_sub(abase - base) / (n + 1)) & !63;
        if per == 0 {
            return (abase, 0);
        }
        if base == self.bump {
            // The span was the tail: workers own the first n slices, this
            // side keeps bumping in the remainder.
            self.bump = abase + n * per;
        } else {
            self.regions.remove(&base);
            self.regions
                .insert(abase + n * per, len - (abase - base) - n * per);
        }
        (abase, per)
    }

    /// Takes back a worker's share of this space: its free lists, its
    /// regions (blocks above the classes it freed), and the unbumped rest
    /// of its arena as a region.
    fn rejoin(&mut self, share: Space) {
        for (mine, theirs) in self.free_by_class.iter_mut().zip(share.free_by_class) {
            mine.extend(theirs);
        }
        self.regions.extend(share.regions);
        if share.limit - share.bump >= MIN_BLOCK {
            self.regions.insert(share.bump, share.limit - share.bump);
        }
    }

    /// A block from the exact-class list of `class`, if one is free.
    fn pop_class(&mut self, class: u64) -> Option<u64> {
        self.free_by_class[class_index(class)?].pop()
    }

    /// `need` bytes from the bump pointer, if the span has them.
    fn bump(&mut self, need: u64) -> Option<u64> {
        let hdr = self.bump;
        (hdr + need <= self.limit).then(|| {
            self.bump += need;
            hdr
        })
    }

    /// The first region (by address) of at least `need` bytes, split.
    fn first_fit(&mut self, need: u64) -> Option<u64> {
        let (&start, &len) = self.regions.iter().find(|&(_, &len)| len >= need)?;
        self.regions.remove(&start);
        if len - need >= MIN_BLOCK {
            self.regions.insert(start + need, len - need);
        }
        Some(start)
    }

    /// Returns a free block: to its class list, or — above the classes —
    /// to the regions.
    fn recycle(&mut self, hdr: u64, class: u64) {
        match class_index(class) {
            Some(idx) => self.free_by_class[idx].push(hdr),
            None => {
                self.regions.insert(hdr, HEADER_BYTES + class);
            }
        }
    }
}

/// Refuses a pool larger than [`MAX_POOL_BYTES`]: nodes store block
/// pointers as 32-bit indices, which name at most 64 GiB.
fn assert_pool_fits(capacity: u64) {
    assert!(
        capacity <= MAX_POOL_BYTES,
        "pool of {capacity} bytes exceeds the 64 GiB limit ({MAX_POOL_BYTES} bytes): \
         nodes store block pointers as 32-bit indices"
    );
}

/// A persistent heap over a simulated PM pool: an `nvm_malloc` equivalent
/// with segregated free lists, 64 persistent root slots, and a volatile
/// reference-count table (paper §5.3 — counts are *not* stored durably;
/// they are rebuilt from reachability during recovery).
///
/// All heap metadata needed after a crash lives in PM (block headers);
/// everything else (free lists, refcounts, the bump pointer) is volatile
/// and reconstructed by recovery.
///
/// Inside a [`NvHeap::begin_volatile`] scope, blocks come from the
/// pool's volatile range instead — DRAM beside the pool, same size
/// classes, same algorithm, its own free space. A block's address alone
/// says which space it belongs to, and a free goes back there.
///
/// [`NvHeap::split_workers`] checks arenas out as independent worker
/// heaps for lock-free multi-threaded staging (see `mod-core`'s
/// `SharedModHeap` and [`crate::worker`]).
#[derive(Debug)]
pub struct NvHeap {
    pm: Pmem,
    /// Free space of the persistent pool (`[0]`) and of the volatile
    /// range (`[1]`): index a space by `volatile as usize`.
    spaces: [Space; 2],
    /// Authoritative refcounts (owner and commit-side heaps; a worker
    /// heap keeps its fresh blocks' counts in its [`WorkerMode`]).
    pub(crate) rc: BlockTable,
    stats: AllocStats,
    /// Worker-mode state (this heap is a checked-out shard; see
    /// [`NvHeap::split_workers`]).
    worker: Option<WorkerMode>,
    /// Commit-side view of a worker split (this heap issued
    /// [`NvHeap::split_workers`]).
    split: Option<SplitState>,
    /// Depth of nested [`NvHeap::begin_volatile`] scopes: while > 0,
    /// allocations land in the volatile range.
    volatile_depth: u32,
    /// Volatile heads of hybrid roots, shared by every heap handle over
    /// this pool (see [`RootAnnex`]).
    annex: Arc<RootAnnex>,
    /// During recovery, `(header addr, header + payload class bytes)` of
    /// each reachable block found so far (their reference counts go
    /// straight into the refcount table).
    pub(crate) mark: Option<Vec<(u64, u64)>>,
}

impl NvHeap {
    /// The one constructor behind every open-from-image path: fresh
    /// volatile state (free lists, refcounts, bump pointer) over an
    /// existing pool image, in recovery mode or ready to allocate.
    /// [`NvHeap::format`], [`NvHeap::open`] and the worker heaps of
    /// [`NvHeap::split_workers`] all funnel through here, so a pool
    /// image rebuilt from disk ([`mod_pmem::Pmem::open_file`]) gets the
    /// exact same heap object as one opened from a crash image. That
    /// holds for pool *sets* too: a sharded journal is replayed by
    /// parallel scan threads and merged by global batch sequence before
    /// this constructor ever sees the image, so the heap (and the typed
    /// recovery that follows) is bit-identical to a single-journal open.
    fn from_pool(pm: Pmem, recovering: bool) -> NvHeap {
        NvHeap {
            spaces: [
                Space::new(HEAP_BASE..pm.capacity()),
                Space::new(pm.volatile_range()),
            ],
            pm,
            rc: BlockTable::default(),
            stats: AllocStats::default(),
            worker: None,
            split: None,
            volatile_depth: 0,
            annex: Arc::new(RootAnnex::new()),
            mark: recovering.then(Vec::new),
        }
    }

    /// A read-only view over the same storage: a fresh heap object whose
    /// `Pmem` handle shares this heap's pool (word-atomic shared arena)
    /// but owns private volatile sim state. The view carries no free
    /// lists, refcounts, or bump authority — it exists solely so
    /// `peek_*` traversals can run on other threads without touching
    /// this heap's allocator state. Callers must only invoke `&self`
    /// peek methods on it.
    pub fn read_view(&self) -> NvHeap {
        let mut view = NvHeap::from_pool(self.pm.fork_handle(), false);
        view.annex = Arc::clone(&self.annex);
        view
    }

    /// Formats a fresh pool: writes the pool header, zeroes the root
    /// slots, and makes both durable.
    ///
    /// # Panics
    ///
    /// Panics if the pool is larger than [`MAX_POOL_BYTES`] (64 GiB):
    /// nodes store block pointers as 32-bit indices.
    pub fn format(mut pm: Pmem) -> NvHeap {
        assert_pool_fits(pm.capacity());
        pm.trace_alloc(0, HEAP_BASE); // metadata region is "allocated"
        pm.write_u64(0, POOL_MAGIC);
        pm.write_u64(8, pm.capacity());
        for i in 0..crate::layout::N_ROOTS {
            pm.write_u64(root_slot_offset(i), 0);
        }
        pm.flush_range(0, HEAP_BASE);
        pm.sfence();
        NvHeap::from_pool(pm, false)
    }

    /// Opens an existing pool after a (simulated) restart or crash. The
    /// heap starts in *recovery mode*: callers must mark every reachable
    /// block via [`NvHeap::mark_block`] and then call
    /// [`NvHeap::finish_recovery`] before allocating.
    ///
    /// # Panics
    ///
    /// Panics if the pool header magic is invalid (not a formatted pool).
    pub fn open(mut pm: Pmem) -> NvHeap {
        let magic = pm.read_u64(0);
        assert_eq!(magic, POOL_MAGIC, "not a formatted MOD pool");
        NvHeap::from_pool(pm, true)
    }

    fn assert_ready(&self) {
        assert!(
            self.mark.is_none(),
            "heap is in recovery mode; finish_recovery() first"
        );
    }

    // ------------------------------------------------------------------
    // Worker split (lock-free staging)
    // ------------------------------------------------------------------

    /// Checks one allocation arena out to each of `n` worker threads and
    /// returns the worker heaps. Each worker heap owns
    ///
    /// * a 64-byte-aligned arena carved from the largest free span of
    ///   each space — the persistent pool and the volatile range —
    ///   (private bump pointers + free lists: allocation never
    ///   contends), and
    /// * a [`Pmem`] shard handle sharing this pool's storage with a
    ///   private simulated timeline (clock, caches, line table, WPQ).
    ///
    /// This heap keeps a slice of each span past the workers' for
    /// commit-side allocation (root directories) and becomes the
    /// *commit-side* heap:
    /// its [`NvHeap::free`] routes blocks inside a worker arena to that
    /// worker's return bin, where the owner drains them on its next
    /// arena miss. Worker heaps defer all cross-shard effects to
    /// [`NvHeap::take_staged_effects`] /
    /// [`NvHeap::apply_staged_effects`] (see [`crate::worker`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, in recovery mode, if a previous split is
    /// still checked out, or if the pool's largest free span is too
    /// small to give every worker a useful arena.
    pub fn split_workers(&mut self, n: usize) -> Vec<NvHeap> {
        self.assert_ready();
        assert!(n > 0, "need at least one worker");
        assert!(self.split.is_none(), "workers already split");
        assert!(self.worker.is_none(), "cannot split a worker heap");
        let slices = self.spaces.each_mut().map(|space| space.carve(n as u64));
        let per = slices[0].1;
        assert!(
            per >= 64 * MIN_BLOCK,
            "pool too fragmented to split: largest free span gives {per} bytes per worker"
        );
        let bins: Arc<Vec<Mutex<Vec<u64>>>> =
            Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
        let workers = (0..n)
            .map(|home| {
                let arenas = slices.map(|(base, per)| {
                    let start = base + home as u64 * per;
                    start..start + per
                });
                let mut w = NvHeap::from_pool(self.pm.fork_handle(), false);
                w.spaces = arenas.clone().map(Space::new);
                w.annex = Arc::clone(&self.annex);
                w.worker = Some(WorkerMode::new(home, Arc::clone(&bins), arenas));
                w
            })
            .collect();
        self.split = Some(SplitState {
            slices,
            checked_out: vec![true; n],
            bins,
        });
        workers
    }

    /// Whether this heap is a checked-out worker shard.
    pub fn is_worker(&self) -> bool {
        self.worker.is_some()
    }

    /// The worker's shard index.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn worker_home(&self) -> usize {
        self.worker.as_ref().expect("not a worker heap").home
    }

    /// Number of worker arenas still checked out.
    pub fn split_workers_outstanding(&self) -> usize {
        self.split
            .as_ref()
            .map_or(0, |s| s.checked_out.iter().filter(|&&c| c).count())
    }

    /// Drains a worker's accumulated cross-shard side effects — fresh
    /// blocks' authoritative refcounts, foreign-block increments,
    /// deferred foreign frees and the stats delta since the previous
    /// handoff — for transfer to the commit stage. The worker's FASE log
    /// resets.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn take_staged_effects(&mut self) -> StagedAllocEffects {
        let stats_now = self.stats.clone();
        let w = self
            .worker
            .as_mut()
            .expect("take_staged_effects on non-worker");
        let fx = StagedAllocEffects {
            rc_transfer: w.take_fresh(),
            rc_deltas: w.rc_deltas.drain().collect(),
            foreign_frees: std::mem::take(&mut w.foreign_frees),
            stats: AllocDelta::between(&w.stats_mark, &stats_now),
        };
        w.stats_mark = stats_now;
        fx
    }

    /// Rolls back the current FASE on a worker heap: frees every block
    /// it allocated and discards its deferred refcount/free effects.
    /// Used when staging aborts (root-lane conflict) before a retry.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn abort_fase(&mut self) {
        let w = self.worker.as_mut().expect("abort_fase on non-worker");
        w.rc_deltas.clear();
        w.foreign_frees.clear();
        for (addr, _) in w.take_fresh() {
            self.free_untracked(PmPtr::from_addr(addr));
        }
    }

    /// Applies a worker's [`StagedAllocEffects`] to this (commit-side)
    /// heap, in batch order: refcount authority transfers, foreign
    /// increments land, deferred frees execute.
    ///
    /// # Panics
    ///
    /// Panics on refcount underflow (a release was staged against state
    /// that never transferred).
    pub fn apply_staged_effects(&mut self, fx: StagedAllocEffects) {
        for (addr, count) in fx.rc_transfer {
            debug_assert_eq!(
                self.rc.get(addr),
                0,
                "rc authority for {addr:#x} transferred twice"
            );
            self.rc.set(addr, count);
        }
        for (addr, delta) in fx.rc_deltas {
            self.rc.update(addr, |c| {
                u32::try_from(c as i64 + delta).unwrap_or_else(|_| {
                    panic!("refcount underflow at {addr:#x} applying staged delta")
                })
            });
        }
        for addr in fx.foreign_frees {
            self.free(PmPtr::from_addr(addr));
        }
        fx.stats.apply_to(&mut self.stats);
    }

    /// Absorbs a finished worker heap back into this commit-side heap:
    /// outstanding side effects apply, the arenas' remaining space and
    /// free lists (and its return bin) rejoin their spaces, and the
    /// worker's PM handle merges its leftover line states and trace.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a worker of this heap's split.
    pub fn absorb_worker(&mut self, mut w: NvHeap) {
        let home = w.worker_home();
        let fx = w.take_staged_effects();
        self.apply_staged_effects(fx);
        self.pm.absorb_lines(w.pm.take_lines());
        self.pm.append_trace(w.pm.take_trace());
        let split = self.split.as_mut().expect("absorb_worker without a split");
        assert!(
            split.checked_out.get(home).is_some_and(|&c| c),
            "worker {home} already absorbed"
        );
        split.checked_out[home] = false;
        let bin = std::mem::take(&mut *split.bins[home].lock().unwrap());
        for (space, share) in self.spaces.iter_mut().zip(w.spaces) {
            space.rejoin(share);
        }
        self.recycle_returned(bin);
        if self.split_workers_outstanding() == 0 {
            self.split = None;
        }
    }

    /// Frees a block without stats/rc bookkeeping (rollback of a block
    /// this FASE allocated: the alloc-side counters are unwound too, so
    /// the aborted attempt leaves no trace in Table 3).
    fn free_untracked(&mut self, ptr: PmPtr) {
        let class = self.block_len(ptr);
        let hdr = ptr.addr() - HEADER_BYTES;
        if !self.in_volatile_range(hdr) {
            self.pm.trace_free(hdr, HEADER_BYTES + class);
        }
        self.stats.allocs -= 1;
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= class;
        self.stats.cumulative_alloc_bytes -= class;
        self.recycle(hdr, class);
    }

    // ------------------------------------------------------------------
    // The volatile range ("Don't Persist All" hybrid roots)
    // ------------------------------------------------------------------

    /// Enters a volatile allocation scope: until the matching
    /// [`NvHeap::end_volatile`], every [`NvHeap::alloc`] takes its block
    /// from the pool's volatile range, where stores, flushes and
    /// journaling are all elided (see
    /// [`mod_pmem::Pmem::volatile_range`]). Scopes nest.
    pub fn begin_volatile(&mut self) {
        self.volatile_depth += 1;
    }

    /// Leaves a volatile allocation scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end_volatile(&mut self) {
        assert!(
            self.volatile_depth > 0,
            "end_volatile without begin_volatile"
        );
        self.volatile_depth -= 1;
    }

    /// The pool's shared volatile root annex (committed volatile heads
    /// of hybrid roots; one instance per pool, cloned into every worker
    /// heap and read view).
    pub fn annex(&self) -> &Arc<RootAnnex> {
        &self.annex
    }

    /// Whether the block whose header sits at `hdr` is a volatile-range
    /// block.
    fn in_volatile_range(&self, hdr: u64) -> bool {
        hdr >= self.pm.capacity()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `len` payload bytes, returning the payload pointer. The
    /// block header is written (but not flushed — a subsequent
    /// [`NvHeap::flush_block`] covers it). The new block starts with a
    /// volatile reference count of 1.
    ///
    /// # Panics
    ///
    /// Panics on pool exhaustion, zero-size requests, or in recovery mode.
    pub fn alloc(&mut self, len: u64) -> PmPtr {
        self.assert_ready();
        let volatile = self.volatile_depth > 0;
        let class = class_size(len);
        let hdr = self.take_block(volatile, class);
        let payload = hdr + HEADER_BYTES;
        if volatile {
            // A volatile-range block is DRAM state: nothing below charges
            // the model, and it is not §5.4 trace material either.
            self.pm.count_volatile_alloc(HEADER_BYTES + class);
        } else {
            self.pm.trace_alloc(hdr, HEADER_BYTES + class);
            // 15 ns models nvm_malloc's bin bookkeeping.
            self.pm.charge_ns(15.0);
        }
        // Header: [class size][magic ^ class] — integrity-checkable at
        // recovery.
        self.pm.write_u64(hdr, class);
        self.pm.write_u64(hdr + 8, BLOCK_MAGIC ^ class);
        match self.worker.as_mut() {
            Some(w) => w.note_fresh(payload),
            None => self.rc.set(payload, 1),
        }
        self.stats.allocs += 1;
        self.stats.live_blocks += 1;
        self.stats.live_bytes += class;
        self.stats.cumulative_alloc_bytes += class;
        self.stats.hwm_live_bytes = self.stats.hwm_live_bytes.max(self.stats.live_bytes);
        PmPtr::from_addr(payload)
    }

    /// Takes a free block of `class` from the volatile range or the
    /// pool: the class list, then — a worker — its arena's bump pointer
    /// and, that spent, its return bin; then the first region that fits;
    /// then the space's bump pointer.
    fn take_block(&mut self, volatile: bool, class: u64) -> u64 {
        let need = HEADER_BYTES + class;
        let space = &mut self.spaces[volatile as usize];
        if let Some(hdr) = space.pop_class(class) {
            return hdr;
        }
        if self.worker.is_some() {
            // A worker bumps through its arena before recycling anything
            // else, then drains its return bin — blocks of its own the
            // commit stage freed — and retries.
            if let Some(hdr) = space.bump(need) {
                return hdr;
            }
            self.drain_return_bin();
        }
        let space = &mut self.spaces[volatile as usize];
        if let Some(hdr) = space
            .pop_class(class)
            .or_else(|| space.first_fit(need))
            .or_else(|| space.bump(need))
        {
            return hdr;
        }
        let (bump, limit) = (space.bump, space.limit);
        let name = if volatile {
            let range = self.pm.volatile_range();
            format!("volatile range [{:#x}, {:#x})", range.start, range.end)
        } else {
            "persistent pool".to_string()
        };
        match self.worker {
            Some(_) => panic!(
                "worker shard arena exhausted ({need} bytes requested in the {name}): \
                 grow the pool or reduce per-worker churn"
            ),
            None => panic!("{name} exhausted: bump {bump:#x} + {need} > limit {limit:#x}"),
        }
    }

    /// Moves every block the commit stage freed on this worker's behalf
    /// from its return bin into the local free space.
    fn drain_return_bin(&mut self) {
        let w = self.worker.as_ref().expect("only workers have return bins");
        let returned = std::mem::take(&mut *w.bins[w.home].lock().unwrap());
        self.recycle_returned(returned);
    }

    /// Recycles blocks that came back through a return bin, reading each
    /// one's class from its header.
    fn recycle_returned(&mut self, headers: Vec<u64>) {
        for hdr in headers {
            let class = self.pm.peek_u64(hdr);
            self.recycle(hdr, class);
        }
    }

    /// Returns a free block to the space its address lies in.
    fn recycle(&mut self, hdr: u64, class: u64) {
        let volatile = self.in_volatile_range(hdr);
        self.spaces[volatile as usize].recycle(hdr, class);
    }

    /// Frees the block at `ptr` (payload pointer), returning its payload
    /// to the free lists. Removes any refcount entry.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is null or its header fails the integrity check.
    pub fn free(&mut self, ptr: PmPtr) {
        self.assert_ready();
        assert!(!ptr.is_null(), "freeing null PmPtr");
        let hdr = ptr.addr() - HEADER_BYTES;
        if let Some(w) = self.worker.as_mut() {
            if !w.owns(hdr) {
                // Foreign block: the authoritative free (rc removal,
                // list routing, stats) runs commit-side, in batch order.
                w.foreign_frees.push(ptr.addr());
                return;
            }
            // Own arena: the block leaves the FASE rollback log.
            w.forget_fresh(ptr.addr());
        }
        let class = self.block_len(ptr);
        // A volatile-range block frees silently: no charge, no trace.
        if !self.in_volatile_range(hdr) {
            self.pm.trace_free(hdr, HEADER_BYTES + class);
            self.pm.charge_ns(10.0);
        }
        self.rc.set(ptr.addr(), 0);
        self.stats.frees += 1;
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= class;
        if let Some(sp) = &self.split {
            if let Some(home) = sp.arena_of(hdr) {
                // Commit-side free of a block inside a checked-out
                // worker arena: the space returns via the owner's bin.
                sp.bins[home].lock().unwrap().push(hdr);
                return;
            }
        }
        self.recycle(hdr, class);
    }

    /// Payload class size of the block at `ptr`, read from its header.
    ///
    /// # Panics
    ///
    /// Panics if the header magic does not match (corruption or a stray
    /// pointer).
    pub fn block_len(&mut self, ptr: PmPtr) -> u64 {
        let hdr = ptr.addr() - HEADER_BYTES;
        let class = self.pm.read_u64(hdr);
        let magic = self.pm.read_u64(hdr + 8);
        assert_eq!(
            magic,
            BLOCK_MAGIC ^ class,
            "corrupt block header at {hdr:#x}"
        );
        class
    }

    /// Flushes the whole block (header + payload) with unordered `clwb`s.
    pub fn flush_block(&mut self, ptr: PmPtr) {
        let hdr = ptr.addr() - HEADER_BYTES;
        let class = self.pm.read_u64(hdr);
        self.pm.flush_range(hdr, HEADER_BYTES + class);
    }

    // ------------------------------------------------------------------
    // Volatile reference counts (§5.3)
    // ------------------------------------------------------------------

    /// Increments the volatile refcount of the block at `ptr`. On a
    /// worker heap, increments on foreign (already-published) blocks
    /// accumulate as deltas and apply commit-side in batch order.
    pub fn rc_inc(&mut self, ptr: PmPtr) {
        self.rc_inc_all([ptr]);
    }

    /// [`NvHeap::rc_inc`] for every non-null pointer of `ptrs`, in one
    /// pass: a freshly stored node takes ownership of all its children
    /// and values at once.
    pub fn rc_inc_all(&mut self, ptrs: impl IntoIterator<Item = PmPtr>) {
        let ptrs = ptrs.into_iter().filter(|p| !p.is_null());
        match self.worker.as_mut() {
            Some(w) => ptrs.for_each(|p| w.rc_inc(p.addr())),
            None => ptrs.for_each(|p| {
                self.rc.update(p.addr(), |c| c + 1);
            }),
        }
    }

    /// Decrements the volatile refcount; returns the new count.
    ///
    /// On a worker heap a foreign (already-published) block's true count
    /// is unknowable, so the only legal decrement is one that cancels an
    /// increment *this FASE* staged on it (a pure update's temporary
    /// ownership of a published node, taken with [`NvHeap::rc_inc`] and
    /// dropped again before the update returns). The block's publisher
    /// still holds its own reference, so the returned count is the lower
    /// bound `1 + increments still staged` — never 0, never a reason to
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero (double release, or a block
    /// that was never tracked), or — on a worker heap — if the block is
    /// foreign and this FASE holds no staged increment on it: version
    /// releases are deferred to the commit stage instead of decrementing
    /// during staging.
    pub fn rc_dec(&mut self, ptr: PmPtr) -> u32 {
        let dec = |c: u32| {
            assert!(c > 0, "refcount underflow at {ptr}");
            c - 1
        };
        match self.worker.as_mut() {
            Some(w) => match w.fresh_count(ptr.addr()) {
                Some(c) => {
                    *c = dec(*c);
                    *c
                }
                None => w.cancel_foreign_inc(ptr.addr()).unwrap_or_else(|| {
                    panic!(
                        "rc_dec on foreign block {ptr} during lock-free staging; \
                         defer the release to the commit stage"
                    )
                }),
            },
            None => self.rc.update(ptr.addr(), dec),
        }
    }

    /// Current refcount of a block (0 if untracked).
    pub fn rc_get(&self, ptr: PmPtr) -> u32 {
        match self.worker.as_ref() {
            Some(w) => w.peek_fresh_count(ptr.addr()),
            None => self.rc.get(ptr.addr()),
        }
    }

    // ------------------------------------------------------------------
    // Root slots
    // ------------------------------------------------------------------

    /// PM address of root slot `i` (for commit-time pointer writes).
    pub fn root_slot_addr(&self, i: usize) -> u64 {
        root_slot_offset(i)
    }

    /// Reads root slot `i`.
    pub fn read_root(&mut self, i: usize) -> PmPtr {
        let a = root_slot_offset(i);
        PmPtr::from_addr(self.pm.read_u64(a))
    }

    // ------------------------------------------------------------------
    // Pass-throughs to the PM device
    // ------------------------------------------------------------------

    /// The underlying simulated PM pool.
    pub fn pm(&self) -> &Pmem {
        &self.pm
    }

    /// Mutable access to the underlying simulated PM pool.
    pub fn pm_mut(&mut self) -> &mut Pmem {
        &mut self.pm
    }

    /// Consumes the heap, returning the pool (e.g. to build crash images).
    pub fn into_pm(self) -> Pmem {
        self.pm
    }

    /// Reads a `u64` through the cache model.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.pm.read_u64(addr)
    }

    /// Writes a `u64` through the cache model.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v)
    }

    /// Reads a `u32` through the cache model.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        self.pm.read_u32(addr)
    }

    /// Writes a `u32` through the cache model.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.pm.write_u32(addr, v)
    }

    /// Reads bytes through the cache model.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.pm.read_bytes(addr, buf)
    }

    /// Writes bytes through the cache model.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        self.pm.write_bytes(addr, buf)
    }

    /// Reads `len` bytes into a fresh vector through the cache model.
    pub fn read_vec(&mut self, addr: u64, len: u64) -> Vec<u8> {
        self.pm.read_vec(addr, len)
    }

    /// Reads words through the cache model (see
    /// [`mod_pmem::Pmem::read_words`]).
    pub fn read_words(&mut self, addr: u64, out: &mut [u64]) {
        self.pm.read_words(addr, out)
    }

    /// Writes words through the cache model (see
    /// [`mod_pmem::Pmem::write_words`]).
    pub fn write_words(&mut self, addr: u64, words: &[u64]) {
        self.pm.write_words(addr, words)
    }

    /// Reads a `u64` *without* charging the cache/time model.
    ///
    /// Peek reads back the read-only access path of the typed API
    /// (`&ModHeap` lookups): they need no exclusive access and no
    /// instrumentation, exactly like a load from a mapped PM pool.
    pub fn peek_u64(&self, addr: u64) -> u64 {
        self.pm.peek_u64(addr)
    }

    /// Reads a `u32` without charging the cache/time model.
    pub fn peek_u32(&self, addr: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.pm.peek_bytes(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Reads bytes without charging the cache/time model.
    pub fn peek_bytes(&self, addr: u64, buf: &mut [u8]) {
        self.pm.peek_bytes(addr, buf)
    }

    /// Reads words without charging the cache/time model.
    pub fn peek_words(&self, addr: u64, out: &mut [u64]) {
        self.pm.peek_words(addr, out)
    }

    /// Reads `len` bytes into a fresh vector without charging the
    /// cache/time model.
    pub fn peek_vec(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        self.pm.peek_bytes(addr, &mut buf);
        buf
    }

    /// Issues a `clwb` for the line containing `addr`.
    pub fn clwb(&mut self, addr: u64) {
        self.pm.clwb(addr)
    }

    /// Flushes every line covering the range.
    pub fn flush_range(&mut self, addr: u64, len: u64) {
        self.pm.flush_range(addr, len)
    }

    /// Executes the ordering point.
    pub fn sfence(&mut self) {
        self.pm.sfence()
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut AllocStats {
        &mut self.stats
    }

    /// Installs the free space recovery found (the refcount table was
    /// filled in by the marker as it went).
    pub(crate) fn rebuild_free_space(&mut self, regions: BTreeMap<u64, u64>, bump: u64) {
        self.spaces[0].regions = regions;
        self.spaces[0].bump = bump;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::PmemConfig;

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn format_writes_magic_durably() {
        let h = heap();
        assert_eq!(h.pm().peek_u64(0), POOL_MAGIC);
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0), POOL_MAGIC);
    }

    #[test]
    fn pool_limit_is_64_gib() {
        assert_pool_fits(PmemConfig::testing().capacity);
        assert_pool_fits(MAX_POOL_BYTES);
        let past = std::panic::catch_unwind(|| assert_pool_fits(MAX_POOL_BYTES + 16));
        let msg = past.unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("64 GiB limit"), "{msg}");
    }

    #[test]
    fn alloc_returns_distinct_aligned_blocks() {
        let mut h = heap();
        let a = h.alloc(24);
        let b = h.alloc(24);
        assert_ne!(a, b);
        assert_eq!(a.addr() % 16, 0);
        assert_eq!(b.addr() % 16, 0);
        assert!(a.addr() >= HEAP_BASE + HEADER_BYTES);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut h = heap();
        let a = h.alloc(100);
        h.free(a);
        let b = h.alloc(100);
        assert_eq!(a, b, "same class should reuse the freed block");
    }

    #[test]
    fn volatile_alloc_lands_in_the_volatile_range_uncharged() {
        let mut h = heap();
        let t0 = h.pm().clock().now_ns();
        let flushes0 = h.pm().stats().effective_flushes;
        h.begin_volatile();
        let a = h.alloc(24);
        h.end_volatile();
        assert_eq!(
            a.addr(),
            h.pm().capacity() + HEADER_BYTES,
            "first volatile block"
        );
        assert_eq!(h.block_len(a), 32, "the ordinary size classes");
        assert_eq!(h.pm().stats().volatile_node_bytes, HEADER_BYTES + 32);
        assert_eq!(
            h.pm().clock().now_ns(),
            t0,
            "volatile alloc charges nothing"
        );
        h.write_u64(a.addr(), 9);
        h.flush_block(a);
        h.sfence();
        assert_eq!(
            h.pm().stats().effective_flushes,
            flushes0,
            "no new real flushes"
        );
        assert!(h.pm().stats().flushes_avoided > 0);
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::PersistAll);
        assert_eq!(
            img.peek_u64(a.addr()),
            0,
            "the volatile range dies with the process"
        );
        h.free(a);
        assert_eq!(h.stats().live_blocks, 0);
    }

    /// Allocates `len` bytes, in the volatile range if `volatile`.
    fn alloc_in(h: &mut NvHeap, volatile: bool, len: u64) -> PmPtr {
        if volatile {
            h.begin_volatile();
        }
        let p = h.alloc(len);
        if volatile {
            h.end_volatile();
        }
        p
    }

    /// Interleaves volatile and persistent allocations on `h` and checks
    /// that each kind fills its own span of `arenas` (pool, volatile
    /// range) front to back, with no gap and no region left behind; then
    /// that a freed block is reused only by a request of its own kind.
    fn check_separate_spaces(h: &mut NvHeap, arenas: [Range<u64>; 2]) {
        let mut next = arenas.clone().map(|a| a.start);
        for i in 0..300u64 {
            let volatile = i % 3 != 0;
            let len = 1 + (i * 37) % 300;
            let p = alloc_in(h, volatile, len);
            let hdr = p.addr() - HEADER_BYTES;
            assert_eq!(
                hdr, next[volatile as usize],
                "block {i} bumps its own space"
            );
            assert!(arenas[volatile as usize].contains(&hdr), "block {i}");
            assert_eq!(hdr >= h.pm().capacity(), volatile, "block {i}");
            next[volatile as usize] += HEADER_BYTES + class_size(len);
        }
        for (space, end) in h.spaces.iter().zip(next) {
            assert_eq!(space.bump, end, "gap-free");
            assert!(space.regions.is_empty(), "no alignment gaps");
        }
        // A freed block of either kind serves only its own kind again.
        let v = alloc_in(h, true, 100);
        let p = alloc_in(h, false, 100);
        h.free(v);
        h.free(p);
        let p2 = alloc_in(h, false, 100);
        let v2 = alloc_in(h, true, 100);
        assert_eq!((p2, v2), (p, v));
        h.free(v2);
        let p3 = alloc_in(h, false, 100);
        assert!(p3.addr() < h.pm().capacity() && p3 != v2);
        assert_eq!(alloc_in(h, true, 100), v2);
    }

    #[test]
    fn volatile_and_persistent_blocks_live_in_separate_spaces() {
        let mut owner = heap();
        let cap = owner.pm().capacity();
        let range = owner.pm().volatile_range();
        assert_eq!(range, cap..2 * cap);
        check_separate_spaces(&mut owner, [HEAP_BASE..cap, range.clone()]);
        // A worker split slices both spaces; each worker's arenas hold
        // its blocks of each kind, with the same invariants.
        let mut workers = owner.split_workers(2);
        for w in &mut workers {
            let arenas = w.worker.as_ref().unwrap().arenas.clone();
            assert!(arenas[0].end <= cap && range.start <= arenas[1].start);
            assert!(arenas[1].end <= range.end);
            check_separate_spaces(w, arenas);
        }
        // Worker volatile blocks come back to their owner's arena when the
        // commit stage frees them, and rejoin the volatile range on absorb.
        let w1 = &mut workers[1];
        let v = alloc_in(w1, true, 64);
        owner.apply_staged_effects(w1.take_staged_effects());
        owner.free(v);
        for w in workers {
            owner.absorb_worker(w);
        }
        let idx = class_index(64).unwrap();
        assert_eq!(
            owner.spaces[1].free_by_class[idx].last(),
            Some(&(v.addr() - HEADER_BYTES))
        );
        assert_eq!(alloc_in(&mut owner, true, 64), v);
    }

    #[test]
    #[should_panic(expected = "volatile range [0x1000000000, 0x1000000000) exhausted")]
    fn volatile_alloc_past_the_range_panics_naming_it() {
        // A 64 GiB pool leaves no room for a volatile range below the
        // 32-bit index limit. Both arenas are lazy: nothing that size is
        // touched.
        let pm = Pmem::new(PmemConfig {
            capacity: MAX_POOL_BYTES,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        assert!(h.pm().volatile_range().is_empty());
        let p = h.alloc(64);
        assert!(p.addr() < MAX_POOL_BYTES, "persistent allocation works");
        alloc_in(&mut h, true, 16);
    }

    #[test]
    fn bin_returned_blocks_go_back_by_address_not_shape() {
        // Persistent class-48 blocks bumped from a 64-aligned worker arena
        // have 64-aligned headers and 64-byte footprints — the shape
        // line-exclusive volatile blocks once had. Freed by the commit
        // stage into the worker's return bin, they belong on the pool's
        // class-48 list, on both ways back: the worker's drain and the
        // absorb.
        let mut h = heap();
        let mut w = h.split_workers(1).remove(0);
        let idx = class_index(48).unwrap();
        for drain in [true, false] {
            let blocks: Vec<PmPtr> = (0..4).map(|_| w.alloc(48)).collect();
            let headers: Vec<u64> = blocks.iter().map(|p| p.addr() - HEADER_BYTES).collect();
            assert!(headers.iter().all(|hdr| hdr % 64 == 0));
            h.apply_staged_effects(w.take_staged_effects());
            for &p in &blocks {
                h.free(p);
            }
            let lists = if drain {
                w.drain_return_bin();
                &w.spaces
            } else {
                h.absorb_worker(std::mem::replace(&mut w, heap()));
                &h.spaces
            };
            assert!(headers
                .iter()
                .all(|hdr| lists[0].free_by_class[idx].contains(hdr)));
            assert!(lists[1].free_by_class.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn absorbed_worker_returns_its_freed_blocks_above_the_classes() {
        // A block above the size classes that a worker frees in its own
        // arena lands in the worker's regions; absorbing the worker must
        // hand that span back to the commit side, not drop it until the
        // next recovery.
        let mut h = heap();
        let mut w = h.split_workers(1).remove(0);
        let p = w.alloc(10_000);
        let hdr = p.addr() - HEADER_BYTES;
        let span = HEADER_BYTES + w.block_len(p);
        assert!(
            class_index(span - HEADER_BYTES).is_none(),
            "above the classes"
        );
        w.free(p);
        h.absorb_worker(w);
        let covering = h.spaces[0].regions.range(..=hdr).next_back();
        assert!(
            covering.is_some_and(|(&start, &len)| start + len >= hdr + span),
            "freed span [{hdr:#x}, +{span}) is not free space after the absorb: {:?}",
            h.spaces[0].regions
        );
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    #[should_panic(expected = "end_volatile without begin_volatile")]
    fn unbalanced_end_volatile_panics() {
        let mut h = heap();
        h.end_volatile();
    }

    #[test]
    fn block_len_reads_class() {
        let mut h = heap();
        let a = h.alloc(100);
        assert_eq!(h.block_len(a), 128);
    }

    #[test]
    fn stats_track_live_and_cumulative() {
        let mut h = heap();
        let a = h.alloc(16);
        let b = h.alloc(16);
        assert_eq!(h.stats().live_bytes, 32);
        assert_eq!(h.stats().cumulative_alloc_bytes, 32);
        h.free(a);
        assert_eq!(h.stats().live_bytes, 16);
        assert_eq!(h.stats().cumulative_alloc_bytes, 32);
        h.free(b);
        assert_eq!(h.stats().live_blocks, 0);
        assert_eq!(h.stats().hwm_live_bytes, 32);
    }

    #[test]
    fn refcounts_start_at_one() {
        let mut h = heap();
        let a = h.alloc(16);
        assert_eq!(h.rc_get(a), 1);
        h.rc_inc(a);
        assert_eq!(h.rc_get(a), 2);
        assert_eq!(h.rc_dec(a), 1);
        assert_eq!(h.rc_dec(a), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn rc_underflow_panics() {
        let mut h = heap();
        let a = h.alloc(16);
        h.rc_dec(a);
        h.rc_dec(a);
    }

    #[test]
    fn flush_block_covers_header_and_payload() {
        let mut h = heap();
        let a = h.alloc(128);
        h.write_bytes(a.addr(), &[7u8; 128]);
        h.flush_block(a);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0, "everything flushed");
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        let mut buf = [0u8; 128];
        img.peek_bytes(a.addr(), &mut buf);
        assert_eq!(buf, [7u8; 128]);
    }

    #[test]
    fn root_slots_default_null() {
        let mut h = heap();
        for i in 0..crate::layout::N_ROOTS {
            assert!(h.read_root(i).is_null());
        }
    }

    #[test]
    #[should_panic(expected = "corrupt block header")]
    fn stray_pointer_detected() {
        let mut h = heap();
        let _ = h.alloc(64);
        h.block_len(PmPtr::from_addr(HEAP_BASE + HEADER_BYTES + 8));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn pool_exhaustion_panics() {
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 16,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        for _ in 0..1000 {
            let _ = h.alloc(4096);
        }
    }

    #[test]
    #[should_panic(expected = "recovery mode")]
    fn alloc_during_recovery_panics() {
        let h = heap();
        let pm = h.into_pm();
        let mut reopened = NvHeap::open(pm);
        let _ = reopened.alloc(16);
    }

    #[test]
    fn worker_split_survives_crash_reopen_cycles() {
        // After a crash, most free space is in the recovered region
        // list, not above the bump pointer; split_workers must carve
        // from the largest free span or reopening a nearly empty pool
        // would fail after a handful of cycles.
        let pm = Pmem::new(mod_pmem::PmemConfig {
            capacity: 1 << 22,
            ..mod_pmem::PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        for cycle in 0..10 {
            let mut workers = h.split_workers(4);
            // One small live block, written by the *last* worker (the
            // worst case: its arena sits at the top of the span, so the
            // recovered bump lands near the pool's end).
            let live = workers[3].alloc(1024);
            workers[3].write_u64(live.addr(), cycle);
            workers[3].flush_block(live);
            for w in workers {
                h.absorb_worker(w);
            }
            let slot = h.root_slot_addr(0);
            h.write_u64(slot, live.addr());
            h.clwb(slot);
            h.sfence();
            let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
            h = NvHeap::open(img);
            let root = h.read_root(0);
            assert!(h.mark_block(root), "cycle {cycle}");
            assert_eq!(h.finish_recovery().live_blocks, 1);
            assert_eq!(h.read_u64(root.addr()), cycle);
        }
    }

    #[test]
    fn split_workers_allocate_in_parallel_arenas() {
        let mut h = heap();
        let mut workers = h.split_workers(4);
        assert_eq!(workers.len(), 4);
        assert_eq!(h.split_workers_outstanding(), 4);
        // Genuinely parallel host-side allocation: each worker heap is
        // moved into its own thread, no lock anywhere.
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                std::thread::spawn(move || {
                    let ptrs: Vec<u64> = (0..64).map(|_| w.alloc(48).addr()).collect();
                    (w, ptrs)
                })
            })
            .collect();
        let mut all = Vec::new();
        for t in handles {
            let (w, ptrs) = t.join().unwrap();
            assert!(w.is_worker());
            all.extend(ptrs);
            h.absorb_worker(w);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256, "worker arenas never alias");
        assert_eq!(h.split_workers_outstanding(), 0);
        // Commit-side roll-up saw every alloc via absorb.
        assert_eq!(h.stats().allocs, 256);
        assert_eq!(h.stats().live_blocks, 256);
    }

    #[test]
    fn worker_rc_deltas_and_transfer() {
        let mut h = heap();
        let published = h.alloc(32); // foreign to every worker
        let mut workers = h.split_workers(2);
        let mut w0 = workers.remove(0);
        let fresh = w0.alloc(32);
        assert_eq!(w0.rc_get(fresh), 1, "fresh blocks tracked locally");
        w0.rc_inc(fresh);
        w0.rc_inc(published); // foreign: becomes a delta
        assert_eq!(w0.rc_get(published), 0, "foreign counts invisible locally");
        let fx = w0.take_staged_effects();
        assert!(!fx.is_empty());
        h.apply_staged_effects(fx);
        assert_eq!(h.rc_get(fresh), 2, "authority transferred");
        assert_eq!(h.rc_get(published), 2, "delta applied");
        // After handoff the fresh block is foreign to its own creator.
        w0.rc_inc(fresh);
        let fx2 = w0.take_staged_effects();
        h.apply_staged_effects(fx2);
        assert_eq!(h.rc_get(fresh), 3);
    }

    #[test]
    #[should_panic(expected = "foreign block")]
    fn worker_foreign_rc_dec_panics() {
        let mut h = heap();
        let published = h.alloc(32);
        let mut workers = h.split_workers(2);
        workers[0].rc_dec(published);
    }

    #[test]
    fn worker_rc_dec_cancels_only_its_own_foreign_increments() {
        let mut h = heap();
        let published = h.alloc(32);
        let mut w = h.split_workers(1).remove(0);
        // Temp ownership of a published node inside one pure update:
        // two increments, one cancelled again.
        w.rc_inc(published);
        w.rc_inc(published);
        assert_eq!(w.rc_dec(published), 2, "publisher's ref + one staged");
        h.apply_staged_effects(w.take_staged_effects());
        assert_eq!(h.rc_get(published), 2, "net one increment reached commit");
        // A fully cancelled increment leaves no effect behind at all.
        w.rc_inc(published);
        assert_eq!(w.rc_dec(published), 1);
        assert!(w.take_staged_effects().is_empty());
        // Nothing staged any more: a further decrement would eat the
        // publisher's reference and still panics.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.rc_dec(published)));
        assert!(err.is_err(), "decrement below this FASE's own increments");
    }

    #[test]
    fn commit_side_frees_return_through_bins() {
        // Small pool: the worker arena exhausts quickly, forcing the
        // bin-drain fallback.
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 20,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        let mut workers = h.split_workers(2);
        let mut w1 = workers.remove(1);
        let a = w1.alloc(100);
        h.apply_staged_effects(w1.take_staged_effects());
        // The commit stage reclaims the block (e.g. a superseded
        // version): it lands in shard 1's bin, not a global list.
        h.free(a);
        assert_eq!(h.rc_get(a), 0);
        // Exhaust the arena path far enough that the worker drains its
        // bin: alloc until the freed block comes back.
        let mut reused = false;
        for _ in 0..100_000 {
            if w1.alloc(100) == a {
                reused = true;
                break;
            }
        }
        assert!(reused, "bin drain must recycle commit-side frees");
    }

    #[test]
    fn worker_abort_fase_rolls_back_allocations() {
        let mut h = heap();
        let mut workers = h.split_workers(1);
        let mut w = workers.remove(0);
        let base = w.stats().clone();
        let a = w.alloc(64);
        let b = w.alloc(64);
        w.rc_inc(b);
        w.abort_fase();
        assert_eq!(w.rc_get(a), 0);
        assert_eq!(w.rc_get(b), 0);
        assert_eq!(w.stats().live_blocks, base.live_blocks, "alloc unwound");
        assert_eq!(
            w.stats().cumulative_alloc_bytes,
            base.cumulative_alloc_bytes
        );
        // The space is reusable.
        let c = w.alloc(64);
        let d = w.alloc(64);
        assert!([a, b].contains(&c) && [a, b].contains(&d));
        // And the next handoff carries no trace of the aborted FASE.
        let fx = w.take_staged_effects();
        h.apply_staged_effects(fx);
        assert_eq!(h.rc_get(a), 1);
    }

    #[test]
    fn worker_fase_with_interleaved_alloc_free_abort() {
        // Frees inside the allocating FASE leave the rollback log at
        // once; abort_fase then frees exactly the surviving fresh
        // blocks, in log order (a removal moves the log's last entry
        // into the hole), and unwinds their alloc-side stats.
        let mut h = heap();
        let mut w = h.split_workers(1).remove(0);
        let base = w.stats().clone();
        let a = w.alloc(64);
        let b = w.alloc(64);
        let c = w.alloc(64);
        w.rc_inc(c);
        w.free(a); // log [a, b, c] → [c, b]
        let d = w.alloc(64); // recycles a; log [c, b, a]
        assert_eq!(d, a);
        w.free(b); // log [c, a]
        assert_eq!((w.rc_get(a), w.rc_get(b), w.rc_get(c)), (1, 0, 2));
        w.abort_fase(); // frees c, then a
        for p in [a, b, c] {
            assert_eq!(w.rc_get(p), 0);
        }
        let s = w.stats();
        assert_eq!(s.allocs - base.allocs, 2, "only the freed blocks count");
        assert_eq!(s.frees - base.frees, 2);
        assert_eq!(s.live_blocks, base.live_blocks);
        assert_eq!(s.live_bytes, base.live_bytes);
        assert_eq!(s.cumulative_alloc_bytes - base.cumulative_alloc_bytes, 128);
        // Free list, bottom to top: b (freed), then c, a (aborted).
        let again: Vec<PmPtr> = (0..3).map(|_| w.alloc(64)).collect();
        assert_eq!(again, [a, c, b]);
        // The aborted FASE hands nothing over; the retry's blocks do.
        h.apply_staged_effects(w.take_staged_effects());
        assert_eq!((h.rc_get(a), h.rc_get(b), h.rc_get(c)), (1, 1, 1));
        h.absorb_worker(w);
    }

    #[test]
    fn refcount_table_is_paged_not_capacity_sized() {
        // A 4 GiB pool with ~1 000 live blocks: the table holds a page
        // directory reaching the touched heap plus the few pages those
        // blocks fall in — nothing proportional to the capacity.
        let mut h = NvHeap::format(Pmem::new(PmemConfig::benchmarking(4 << 30)));
        let ptrs: Vec<PmPtr> = (0..1000).map(|i| h.alloc(16 + (i % 7) * 40)).collect();
        for &p in &ptrs {
            h.rc_inc(p);
        }
        assert!(
            h.rc.resident_bytes() <= 1 << 20,
            "refcount table holds {} bytes",
            h.rc.resident_bytes()
        );
        // Worker arenas sit gigabytes into the pool; their tables page
        // the same way.
        let mut workers = h.split_workers(2);
        let far = workers[1].alloc(64);
        assert!(far.addr() > 1 << 30);
        h.apply_staged_effects(workers[1].take_staged_effects());
        assert_eq!(h.rc_get(far), 1);
        assert!(h.rc.resident_bytes() <= 1 << 20);
    }

    #[test]
    fn worker_foreign_free_is_deferred() {
        let mut h = heap();
        let published = h.alloc(32);
        let frees_before = h.stats().frees;
        let mut workers = h.split_workers(1);
        let mut w = workers.remove(0);
        w.free(published);
        assert_eq!(w.stats().frees, 0, "worker did not free it");
        h.apply_staged_effects(w.take_staged_effects());
        assert_eq!(h.stats().frees, frees_before + 1, "commit stage did");
        assert_eq!(h.rc_get(published), 0);
    }

    #[test]
    #[should_panic(expected = "worker shard arena exhausted")]
    fn worker_arena_exhaustion_panics_loudly() {
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 20,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        let mut workers = h.split_workers(4);
        let w = &mut workers[0];
        for _ in 0..100_000 {
            let _ = w.alloc(4096);
        }
    }

    #[test]
    fn large_alloc_beyond_classes() {
        let mut h = heap();
        let a = h.alloc(10_000);
        assert_eq!(h.block_len(a), 12288);
        h.free(a);
        let b = h.alloc(12_000);
        assert_eq!(a, b, "large free block should be reused via regions");
    }
}
