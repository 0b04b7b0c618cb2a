//! Closure-based failure-atomic sections (FASEs).
//!
//! [`ModHeap::fase`] is the write path of the typed API: the closure
//! receives a [`Fase`] transaction handle and stages pure shadow updates
//! against any number of typed roots; when the closure returns, all
//! staged updates are published together with **exactly one ordering
//! point** (one `sfence` + one atomic 8-byte pointer store — the paper's
//! Fig 8 headline, now for arbitrary multi-structure FASEs via the root
//! directory).
//!
//! ```
//! use mod_core::ModHeap;
//! use mod_funcds::{PmMap, PmQueue};
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
//! let m0 = PmMap::empty(heap.nv_mut());
//! let q0 = PmQueue::empty(heap.nv_mut());
//! let map = heap.publish(m0);
//! let queue = heap.publish(q0);
//!
//! // One FASE over two structures: move a work item into the map.
//! heap.fase(|tx| {
//!     tx.update(map, |nv, m| m.insert(nv, 42, b"payload"));
//!     tx.update(queue, |nv, q| q.enqueue(nv, 42));
//! });
//! assert_eq!(heap.current(map).peek_get(heap.nv(), 42), Some(b"payload".to_vec()));
//! ```
//!
//! Within one FASE, repeated updates to the same root chain: the second
//! closure sees the first's shadow, and superseded intra-FASE shadows
//! (Fig 7b's `shadow_shadow` pattern) are reclaimed right after commit.
//! A FASE that stages nothing — or whose updates all return the version
//! they were given — commits nothing and costs no ordering point.
//!
//! If the closure panics, nothing is published: the staged shadows are
//! dropped (their blocks are reclaimed by GC on the next recovery, like
//! any crash-interrupted FASE) and the heap's committed state is intact.

use crate::erased::{DurableDs, ErasedDs, RootKind};
use crate::heap::ModHeap;
use crate::parent;
use crate::root::{current_of, Root, ROOT_DIR_SLOT};
use crate::spine::{self, SpineOp, COMPACT_FACTOR, COMPACT_MIN_OPS};
use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::{PmPtr, Pmem, SyncRound};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One staged root update inside a FASE (or a pipelined batch of FASEs).
#[derive(Debug)]
pub(crate) struct PendingUpdate {
    pub(crate) index: usize,
    pub(crate) kind: RootKind,
    /// The shadow that will be published for this root.
    pub(crate) new: PmPtr,
    /// Shadows superseded by later updates to the same root in this FASE
    /// (never published; reclaimed immediately after commit).
    pub(crate) intermediates: Vec<ErasedDs>,
    /// For hybrid roots (`kind == RootKind::Spine`): the volatile-index
    /// version that accompanies the staged spine record. Published to
    /// the root annex when the record commits.
    pub(crate) hybrid: Option<HybridUpdate>,
}

/// The volatile half of a staged hybrid-root update.
#[derive(Debug)]
pub(crate) struct HybridUpdate {
    /// The root's logical datastructure kind (the directory says
    /// `Spine`; this says what the spine encodes).
    pub(crate) logical: RootKind,
    /// Root address of the new volatile-index version.
    pub(crate) new_v: u64,
}

/// Maximum directory indices the concurrent staging path supports.
pub(crate) const STAGING_LANES: usize = 256;

/// Per-root staging lanes for lock-free concurrent FASEs.
///
/// Pure shadow building needs no coordination at all — each worker
/// allocates and writes in its own arena. The *only* shared staging
/// state is, per root, "which version does the next FASE chain from":
/// the lane `head`. A FASE's first update to a root takes that root's
/// lane lock and holds it until the FASE is handed to the commit queue,
/// so same-root FASEs serialize (they are inherently dependent — the
/// later one must read the earlier one's shadow), while FASEs over
/// disjoint roots never touch the same lane and stage fully in
/// parallel. Lane heads are read lock-free (a relaxed atomic load) by
/// read-only `current` lookups.
///
/// Deadlock avoidance: lanes acquire in ascending root order for free;
/// an out-of-order acquisition spins on `try_lock` and, if the lane
/// stays contended, aborts the whole FASE (the staging driver rolls the
/// worker heap back and retries the closure).
#[derive(Debug)]
pub(crate) struct RootLanes {
    lanes: Box<[RootLane]>,
}

#[derive(Debug)]
struct RootLane {
    lock: Mutex<()>,
    /// Latest staged head for this root (pointer address; 0 = nothing
    /// staged since the lanes were created or last invalidated — read
    /// the published directory entry instead). After a batch commits,
    /// the head equals the published root pointer, so stale heads are
    /// never wrong, just redundant.
    head: AtomicU64,
    /// Hybrid roots only: the volatile-index root address staged
    /// alongside `head` (0 = none staged — read the root annex). Written
    /// under the lane lock together with `head`.
    aux: AtomicU64,
}

impl RootLanes {
    pub(crate) fn new() -> RootLanes {
        RootLanes {
            lanes: (0..STAGING_LANES)
                .map(|_| RootLane {
                    lock: Mutex::new(()),
                    head: AtomicU64::new(0),
                    aux: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn head(&self, index: usize) -> Option<PmPtr> {
        // Acquire pairs with the Release in `set_head`: a lock-free
        // reader that follows this pointer must see the shadow words
        // written before the head was published.
        match self.lanes[index].head.load(Ordering::Acquire) {
            0 => None,
            a => Some(PmPtr::from_addr(a)),
        }
    }

    /// Publishes a staged head. Caller must hold the lane's lock.
    pub(crate) fn set_head(&self, index: usize, p: PmPtr) {
        self.lanes[index].head.store(p.addr(), Ordering::Release);
    }

    fn aux(&self, index: usize) -> u64 {
        self.lanes[index].aux.load(Ordering::Acquire)
    }

    /// Publishes a staged volatile head. Caller must hold the lane's lock.
    fn set_aux(&self, index: usize, addr: u64) {
        self.lanes[index].aux.store(addr, Ordering::Release);
    }

    /// Forgets all staged heads (single-threaded setup changed the
    /// published directory underneath them). Caller must guarantee no
    /// FASE is staged or in flight.
    pub(crate) fn clear_heads(&self) {
        for lane in self.lanes.iter() {
            lane.head.store(0, Ordering::Relaxed);
            lane.aux.store(0, Ordering::Relaxed);
        }
    }
}

/// Payload of the abort panic used to restart a FASE whose out-of-order
/// lane acquisition would risk deadlock.
pub(crate) struct LaneConflict;

/// An in-progress failure-atomic section over typed roots.
///
/// Created by [`ModHeap::fase`] (single-owner) or
/// [`crate::SharedModHeap::fase`] (a worker shard staging with no global
/// lock); stages pure updates via [`Fase::update`] and
/// [`Fase::update_with`]. Nothing becomes visible or durable until the
/// `fase` closure returns.
#[derive(Debug)]
pub struct Fase<'h> {
    nv: &'h mut NvHeap,
    pending: Vec<PendingUpdate>,
    staging: Option<StagingCtx<'h>>,
}

/// Worker-mode staging context: lane guards held by this FASE plus the
/// release work it must defer to the commit stage.
#[derive(Debug)]
struct StagingCtx<'h> {
    lanes: &'h RootLanes,
    held: Vec<(usize, MutexGuard<'h, ()>)>,
    /// Reverted chains to release at commit (a worker cannot touch
    /// foreign refcounts during staging).
    releases: Vec<ErasedDs>,
}

impl<'h> Fase<'h> {
    /// A single-owner FASE (the [`ModHeap::fase`] path).
    pub(crate) fn owner(nv: &'h mut NvHeap) -> Fase<'h> {
        Fase {
            nv,
            pending: Vec::new(),
            staging: None,
        }
    }

    /// A worker-shard FASE staging against `lanes` with no global lock.
    pub(crate) fn worker(nv: &'h mut NvHeap, lanes: &'h RootLanes) -> Fase<'h> {
        Fase {
            nv,
            pending: Vec::new(),
            staging: Some(StagingCtx {
                lanes,
                held: Vec::new(),
                releases: Vec::new(),
            }),
        }
    }

    /// Finishes a worker FASE: publishes the new staging-lane heads and
    /// hands back the staged updates + deferred releases. The lane
    /// guards stay held by this `Fase` — the caller pushes the handoff
    /// to the commit queue first and only then drops the `Fase`, so
    /// queue order respects per-root chaining order.
    pub(crate) fn finish_staging(&mut self) -> (Vec<PendingUpdate>, Vec<ErasedDs>) {
        let st = self.staging.as_mut().expect("finish_staging on owner FASE");
        for p in &self.pending {
            st.lanes.set_head(p.index, p.new);
            if let Some(h) = &p.hybrid {
                st.lanes.set_aux(p.index, h.new_v);
            }
        }
        (
            std::mem::take(&mut self.pending),
            std::mem::take(&mut st.releases),
        )
    }

    /// Ensures this FASE holds `index`'s staging lane (worker mode; a
    /// no-op in a single-owner FASE).
    pub(crate) fn hold_lane(&mut self, index: usize) {
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        if st.held.iter().any(|(i, _)| *i == index) {
            return;
        }
        assert!(
            index < STAGING_LANES,
            "root index {index} beyond the concurrent staging lane limit"
        );
        let max_held = st.held.iter().map(|(i, _)| *i).max();
        if max_held.is_none_or(|m| index > m) {
            // Ascending acquisition is deadlock-free: block. A conflict
            // abort unwinds through held guards, so poisoning carries no
            // information here (the guarded state is `()`).
            let g = st.lanes.lanes[index]
                .lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            st.held.push((index, g));
            return;
        }
        // Out of order: spin briefly, then abort-and-retry the FASE.
        for _ in 0..64 {
            match st.lanes.lanes[index].lock.try_lock() {
                Ok(g) => {
                    st.held.push((index, g));
                    return;
                }
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    st.held.push((index, e.into_inner()));
                    return;
                }
                Err(std::sync::TryLockError::WouldBlock) => std::thread::yield_now(),
            }
        }
        std::panic::panic_any(LaneConflict);
    }
}

impl Fase<'_> {
    /// The version of `root` this FASE currently sees: the shadow staged
    /// by an earlier [`Fase::update`] in this FASE, the latest head
    /// staged by an earlier FASE of the same pipeline, or the published
    /// version.
    pub fn current<D: DurableDs>(&self, root: Root<D>) -> D {
        match self.find(root.index()) {
            Some(p) => D::from_root_ptr(p.new),
            None => match self.lane_head(root.index()) {
                Some(p) => D::from_root_ptr(p),
                None => current_of(self.nv, root),
            },
        }
    }

    /// The version this FASE's first update to `index` chains from.
    fn baseline(&self, index: usize) -> PmPtr {
        match self.lane_head(index) {
            Some(p) => p,
            None => {
                let entry = crate::root::peek_entry(self.nv, index)
                    .unwrap_or_else(|| panic!("root {index} not in directory"));
                entry.root
            }
        }
    }

    fn lane_head(&self, index: usize) -> Option<PmPtr> {
        self.staging
            .as_ref()
            .and_then(|st| (index < STAGING_LANES).then(|| st.lanes.head(index))?)
    }

    /// Stages a pure update: `f` receives the heap and the current
    /// version and returns the new version. Returning the input version
    /// unchanged makes this a no-op (nothing staged, nothing committed).
    pub fn update<D: DurableDs>(&mut self, root: Root<D>, f: impl FnOnce(&mut NvHeap, D) -> D) {
        self.update_with(root, |nv, cur| (f(nv, cur), ()))
    }

    /// Stages a pure update that also computes a result, e.g. a dequeued
    /// element or a was-removed flag: `f` returns `(new_version, result)`.
    pub fn update_with<D: DurableDs, R>(
        &mut self,
        root: Root<D>,
        f: impl FnOnce(&mut NvHeap, D) -> (D, R),
    ) -> R {
        // Worker mode: own this root's staging lane before reading the
        // version the update chains from, and keep it until the FASE is
        // queued — same-root FASEs serialize, disjoint ones never meet.
        self.hold_lane(root.index());
        let cur = self.current(root);
        let (next, out) = f(self.nv, cur);
        if next.root_ptr() == cur.root_ptr() {
            return out; // no-op update: stage nothing
        }
        let baseline = self.baseline(root.index());
        match self.pending.iter().position(|p| p.index == root.index()) {
            Some(i) if next.root_ptr() == baseline => {
                // The chain reverted to the version it chained from (the
                // published version, or the batch head in a pipelined
                // commit): the root is back to a no-op. Unstage it and
                // reclaim every shadow this FASE built for it —
                // publishing the already-owned version as "fresh" would
                // double-release it at commit. A worker shard cannot
                // release (foreign refcounts are commit-side): it defers
                // the whole chain to the commit stage instead.
                let p = self.pending.remove(i);
                let head = ErasedDs {
                    kind: p.kind,
                    root: p.new,
                };
                match self.staging.as_mut() {
                    Some(st) => {
                        st.releases.push(head);
                        st.releases.extend(p.intermediates);
                    }
                    None => {
                        head.release(self.nv);
                        for im in p.intermediates {
                            im.release(self.nv);
                        }
                    }
                }
            }
            Some(i) => {
                let p = &mut self.pending[i];
                // If the closure resurfaced an earlier shadow, it becomes
                // the head again instead of staying an intermediate.
                p.intermediates.retain(|im| im.root != next.root_ptr());
                p.intermediates.push(ErasedDs {
                    kind: p.kind,
                    root: p.new,
                });
                p.new = next.root_ptr();
            }
            None => self.pending.push(PendingUpdate {
                index: root.index(),
                kind: D::KIND,
                new: next.root_ptr(),
                intermediates: Vec::new(),
                hybrid: None,
            }),
        }
        out
    }

    /// The volatile-index head of hybrid root `index` as this FASE sees
    /// it: a version staged earlier in this FASE, a head staged by an
    /// earlier FASE of the same pipeline, or the committed head from the
    /// root annex. Returns 0 only for a root that was never hybrid
    /// (caller bug).
    pub(crate) fn hybrid_vhead(&self, index: usize) -> u64 {
        if let Some(p) = self.find(index) {
            if let Some(h) = &p.hybrid {
                return h.new_v;
            }
        }
        if let Some(st) = &self.staging {
            if index < STAGING_LANES {
                let a = st.lanes.aux(index);
                if a != 0 {
                    return a;
                }
            }
        }
        match self.nv.annex().get(index) {
            0 => 0,
            w => spine::unpack_annex(w).1,
        }
    }

    /// Stages one op on hybrid root `index`. `lower` sees the volatile
    /// head (peek reads — the index is DRAM state) and names the
    /// substrate op, or `None` when the typed op is a no-op. The op is
    /// applied to the volatile index through [`SpineOp::apply`] inside
    /// the volatile allocation scope (nothing flushed, nothing charged)
    /// and a spine record carrying it is staged — or a compaction
    /// snapshot when the chain has outgrown the live structure. Returns
    /// what `apply` returned: `Some(taken)` iff the op took effect. A
    /// no-op stages nothing: replay would still be correct, but the
    /// chain would grow for nothing.
    pub(crate) fn apply_hybrid(
        &mut self,
        index: usize,
        logical: RootKind,
        lower: impl FnOnce(&mut HeapRead<'_>, PmPtr) -> Option<SpineOp>,
    ) -> Option<u64> {
        self.hold_lane(index);
        let vcur = self.hybrid_vhead(index);
        assert!(vcur != 0, "hybrid op on root {index} with no volatile head");
        let op = lower(&mut HeapRead::Peek(self.nv), PmPtr::from_addr(vcur))?;
        // The volatile scope must be closed even if the op panics (e.g.
        // an out-of-bounds `VecSet`): a stuck scope would silently mark
        // every later allocation volatile, and shared mode retries FASE
        // closures after catching panics.
        self.nv.begin_volatile();
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            op.apply(self.nv, logical, vcur)
        }));
        self.nv.end_volatile();
        let (new_v, taken) = match applied {
            Ok(applied) => applied?,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let head = match self.find(index) {
            Some(p) => p.new,
            None => self.baseline(index),
        };
        let count = spine::peek_record_meta(self.nv, head).2 + 1;
        let live = spine::live_len(self.nv, logical, new_v);
        let rec = if count >= COMPACT_MIN_OPS && count >= COMPACT_FACTOR * live.max(1) {
            // The chain dwarfs the structure: persist a fresh snapshot
            // with no predecessor. Committing it drops the directory's
            // reference to the old head, reclaiming the whole old chain
            // through the normal deferred-release path.
            let snap = spine::state_of(self.nv, logical, new_v);
            spine::store_record(self.nv, PmPtr::NULL, logical, 0, &snap)
        } else {
            spine::store_record(self.nv, head, logical, count, &op)
        };
        match self.pending.iter_mut().find(|p| p.index == index) {
            Some(p) => {
                let h = p.hybrid.as_mut().expect("hybrid op on non-hybrid pending");
                p.intermediates.push(ErasedDs {
                    kind: RootKind::Spine,
                    root: p.new,
                });
                p.intermediates.push(ErasedDs {
                    kind: h.logical,
                    root: PmPtr::from_addr(h.new_v),
                });
                p.new = rec;
                h.new_v = new_v;
            }
            None => self.pending.push(PendingUpdate {
                index,
                kind: RootKind::Spine,
                new: rec,
                intermediates: Vec::new(),
                hybrid: Some(HybridUpdate { logical, new_v }),
            }),
        }
        Some(taken)
    }

    /// Read access to the underlying heap (peek reads, stats).
    pub fn nv(&self) -> &NvHeap {
        self.nv
    }

    /// Mutable heap access for charged reads or hand-built shadows.
    /// Updates staged through [`Fase::update`] are the supported write
    /// path; direct writes here must follow the shadow discipline (write
    /// only to freshly allocated blocks).
    pub fn nv_mut(&mut self) -> &mut NvHeap {
        self.nv
    }

    /// The underlying simulated PM pool (crash images in tests).
    pub fn pm(&self) -> &Pmem {
        self.nv.pm()
    }

    /// Number of roots with updates staged so far.
    pub fn staged(&self) -> usize {
        self.pending.len()
    }

    fn find(&self, index: usize) -> Option<&PendingUpdate> {
        self.pending.iter().find(|p| p.index == index)
    }
}

impl ModHeap {
    /// Runs a failure-atomic section: every update staged by `f` commits
    /// atomically with exactly one ordering point (or not at all, if the
    /// process dies first). Returns the closure's result.
    pub fn fase<R>(&mut self, f: impl FnOnce(&mut Fase<'_>) -> R) -> R {
        let (pending, out) = {
            let mut tx = Fase::owner(self.nv_mut());
            let out = f(&mut tx);
            (std::mem::take(&mut tx.pending), out)
        };
        self.commit_fase(pending, SyncRound::Now);
        out
    }

    /// Publishes staged FASE updates with exactly one ordering point.
    ///
    /// Single-root FASEs take the Fig 8b path: the directory entry is an
    /// 8-byte root pointer, so after the fence one atomic in-place store
    /// (wrapped as a commit write, like a root-slot store) swings it — no
    /// directory rebuild, no allocation, one `clwb`. Multi-root FASEs
    /// build one fresh directory (Fig 8c): flush it, fence once, swing
    /// the directory slot. `sync` says whether that fence runs its sync
    /// round (the shared engine's never does: its waiters run them).
    pub(crate) fn commit_fase(&mut self, pending: Vec<PendingUpdate>, sync: SyncRound) {
        if pending.is_empty() {
            return;
        }
        let dir = self.nv_mut().read_root(ROOT_DIR_SLOT);
        assert!(!dir.is_null(), "FASE update with no published roots");
        if let [p] = pending.as_slice() {
            let entry_addr = dir.addr() + 8 + 16 * p.index as u64 + 8;
            let old = PmPtr::from_addr(self.nv_mut().read_u64(entry_addr));
            let old = ErasedDs {
                kind: p.kind,
                root: old,
            };
            self.fence_and_drain(sync);
            {
                let pm = self.nv_mut().pm_mut();
                pm.begin_commit();
                pm.write_u64(entry_addr, p.new.addr());
                pm.clwb(entry_addr);
                pm.end_commit();
            }
            // The FASE's temporary ownership of the shadow transfers to
            // the directory; the directory's reference to the superseded
            // version becomes a deferred reclaim.
            self.defer_release(old);
        } else {
            let mut children = parent::children_of(self.nv_mut(), dir);
            let tags = parent::peek_tags_of(self.nv(), dir);
            let mut fresh = Vec::with_capacity(pending.len());
            for p in &pending {
                let entry = &mut children[p.index];
                debug_assert_eq!(entry.kind, p.kind, "directory kind drift");
                entry.root = p.new;
                fresh.push(*entry);
            }
            self.swing_directory(dir, &children, &fresh, &tags, sync);
        }
        // Hybrid roots: the committed spine record is durable; publish
        // the matching volatile-index head to the annex and retire the
        // superseded one through deferred reclaim (epoch-protected in
        // shared mode, next drain in single-owner mode).
        let annex = self.nv().annex().clone();
        for p in &pending {
            if let Some(h) = &p.hybrid {
                let old = annex.get(p.index);
                annex.set(p.index, spine::pack_annex(h.logical, h.new_v));
                if old != 0 {
                    let (kind, addr) = spine::unpack_annex(old);
                    self.defer_release(ErasedDs {
                        kind,
                        root: PmPtr::from_addr(addr),
                    });
                }
            }
        }
        // Intra-FASE shadows were never published: reclaim immediately.
        for p in pending {
            for im in p.intermediates {
                im.release(self.nv_mut());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_funcds::{PmMap, PmQueue, PmStack, PmVector};
    use mod_pmem::PmemConfig;

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn single_root_fase_one_fence() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        let fences = h.nv().pm().stats().fences;
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"v")));
        assert_eq!(h.nv().pm().stats().fences - fences, 1);
        assert_eq!(h.current(map).peek_get(h.nv(), 1), Some(b"v".to_vec()));
    }

    #[test]
    fn multi_structure_fase_one_fence() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let q0 = PmQueue::empty(h.nv_mut());
        let s0 = PmStack::empty(h.nv_mut());
        let map = h.publish(m0);
        let queue = h.publish(q0);
        let stack = h.publish(s0);
        let fences = h.nv().pm().stats().fences;
        h.fase(|tx| {
            tx.update(map, |nv, m| m.insert(nv, 7, b"seven"));
            tx.update(queue, |nv, q| q.enqueue(nv, 7));
            tx.update(stack, |nv, s| s.push(nv, 7));
        });
        assert_eq!(
            h.nv().pm().stats().fences - fences,
            1,
            "three structures, still exactly one ordering point"
        );
        assert_eq!(h.current(queue).peek_front(h.nv()), Some(7));
        assert_eq!(h.current(stack).peek_top(h.nv()), Some(7));
    }

    #[test]
    fn chained_updates_reclaim_intermediates() {
        let mut h = mh();
        let v0 = PmVector::from_slice(h.nv_mut(), &[1, 2, 3, 4]);
        let vec = h.publish(v0);
        let frees = h.nv().stats().frees;
        let fences = h.nv().pm().stats().fences;
        // Fig 7b's vec-swap: two chained pure updates, one FASE.
        h.fase(|tx| {
            tx.update(vec, |nv, v| v.update(nv, 0, 4));
            tx.update(vec, |nv, v| v.update(nv, 3, 1));
        });
        assert_eq!(h.nv().pm().stats().fences - fences, 1);
        assert!(
            h.nv().stats().frees > frees,
            "intermediate shadow reclaimed immediately"
        );
        assert_eq!(h.current(vec).peek_to_vec(h.nv()), vec![4, 2, 3, 1]);
    }

    #[test]
    fn empty_fase_commits_nothing() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        let fences = h.nv().pm().stats().fences;
        let out = h.fase(|_| 41) + 1;
        h.fase(|tx| {
            // A staged no-op: the closure returns the version unchanged.
            tx.update(map, |_, m| m);
        });
        assert_eq!(h.nv().pm().stats().fences, fences, "no-op FASEs are free");
        assert_eq!(out, 42);
    }

    #[test]
    fn update_with_returns_result() {
        let mut h = mh();
        let q0 = PmQueue::empty(h.nv_mut()).enqueue(h.nv_mut(), 5);
        let queue = h.publish(q0);
        let popped = h.fase(|tx| {
            tx.update_with(queue, |nv, q| match q.dequeue(nv) {
                Some((nq, e)) => (nq, Some(e)),
                None => (q, None),
            })
        });
        assert_eq!(popped, Some(5));
        assert!(h.current(queue).peek_is_empty(h.nv()));
        // Empty queue: dequeue is a no-op FASE.
        let fences = h.nv().pm().stats().fences;
        let popped = h.fase(|tx| {
            tx.update_with(queue, |nv, q| match q.dequeue(nv) {
                Some((nq, e)) => (nq, Some(e)),
                None => (q, None),
            })
        });
        assert_eq!(popped, None);
        assert_eq!(h.nv().pm().stats().fences, fences);
    }

    #[test]
    fn fase_sees_its_own_updates() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        let (before, within) = h.fase(|tx| {
            let before = tx.current(map).contains_key(tx.nv_mut(), 9);
            tx.update(map, |nv, m| m.insert(nv, 9, b"x"));
            let within = tx.current(map).contains_key(tx.nv_mut(), 9);
            (before, within)
        });
        assert!(!before);
        assert!(within, "read-your-writes within the FASE");
    }

    #[test]
    fn deferred_reclaim_of_old_versions() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"a")));
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 2, b"b")));
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 3, b"c")));
        h.quiesce();
        // Only the live version (plus directory) remains.
        let live = h.nv().stats().live_blocks;
        let cur = h.current(map);
        assert_eq!(cur.peek_len(h.nv()), 3);
        assert!(live > 0);
        // Steady state: churn does not grow the heap.
        for i in 0..50u64 {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, i % 3, b"over")));
        }
        h.quiesce();
        let live2 = h.nv().stats().live_blocks;
        for i in 0..200u64 {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, i % 3, b"over")));
        }
        h.quiesce();
        assert_eq!(h.nv().stats().live_blocks, live2, "no leak under churn");
        let _ = live;
    }

    #[test]
    fn reverted_update_chain_is_a_noop_fase() {
        // A second update returning the originally *published* version
        // must unstage the root entirely — publishing the already-owned
        // version as fresh would double-release it (use-after-free).
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut()).insert(h.nv_mut(), 1, b"keep");
        let map = h.publish(m0);
        h.quiesce();
        let fences = h.nv().pm().stats().fences;
        let live = h.nv().stats().live_blocks;
        h.fase(|tx| {
            let orig = tx.current(map);
            tx.update(map, |nv, m| m.insert(nv, 2, b"staged"));
            tx.update(map, |nv, m| m.insert(nv, 3, b"chained"));
            tx.update(map, |_, _| orig); // revert everything
        });
        assert_eq!(h.nv().pm().stats().fences, fences, "revert = no-op FASE");
        assert_eq!(h.nv().stats().live_blocks, live, "staged shadows reclaimed");
        // The published version is intact and still owned by the directory.
        let cur = h.current(map);
        assert_eq!(cur.root(), m0.root());
        assert_eq!(cur.peek_get(h.nv(), 1), Some(b"keep".to_vec()));
        assert_eq!(h.nv().rc_get(m0.root()), 1);
        // And the heap keeps working: further FASEs publish normally.
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 4, b"after")));
        h.quiesce();
        assert_eq!(h.current(map).peek_get(h.nv(), 4), Some(b"after".to_vec()));
    }

    #[test]
    fn panicking_fase_publishes_nothing() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"committed")));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.fase(|tx| {
                tx.update(map, |nv, m| m.insert(nv, 2, b"doomed"));
                panic!("application bug mid-FASE");
            })
        }));
        assert!(result.is_err());
        let cur = h.current(map);
        assert_eq!(cur.peek_get(h.nv(), 1), Some(b"committed".to_vec()));
        assert_eq!(cur.peek_get(h.nv(), 2), None, "aborted FASE invisible");
    }
}
