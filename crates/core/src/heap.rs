//! The MOD heap: commit machinery (Fig 8) and deferred reclamation.
//!
//! A [`ModHeap`] wraps the persistent allocator and carries the commit
//! machinery behind [`ModHeap::fase`]: after pure updates have produced
//! shadows (all flushed with unordered `clwb`s, zero fences — their WPQ
//! drains running in the background from issue time), the commit fences
//! once (paying only the *residual* drain) and publishes everything with
//! one atomic pointer store: exactly **one ordering point per FASE**,
//! the paper's headline property. The pre-0.2 raw-slot `publish_root` /
//! `commit_*` shims were removed in 0.3 — `ModHeap::fase` with typed
//! [`crate::Root`] handles covers every Fig 8 case (and beats Fig 8d's
//! three-fence redo log with a single fence via the root directory).
//!
//! ## Reclamation is deferred by one commit
//!
//! Fig 8 reclaims the old version immediately after the (unfenced) pointer
//! store. Freed blocks could then be reused — and overwritten — by the
//! next FASE *before* the pointer store is durable; an adversarial crash
//! would leave the slot pointing at the old version with its nodes
//! clobbered. We therefore queue the superseded version and release it at
//! the *next* commit's fence, when the pointer store is provably durable.
//! This changes no flush/fence counts (reclamation is volatile); it makes
//! the recovery argument of §5.2 hold under any crash timing, which our
//! adversarial crash tests exercise.

use crate::erased::ErasedDs;
use crate::root::ROOT_DIR_SLOT;
use mod_alloc::NvHeap;
use mod_pmem::{PmPtr, Pmem, PmemConfig, SyncRound};
use std::io;
use std::path::Path;

/// The MOD heap: allocator + commit protocols + deferred reclamation.
#[derive(Debug)]
pub struct ModHeap {
    nv: NvHeap,
    /// Versions superseded by a committed pointer store that is not yet
    /// known durable; released after the next fence.
    pending: Vec<ErasedDs>,
    /// Wall-clock nanoseconds [`ModHeap::open`] spent replaying hybrid
    /// spines into volatile indices (0 when the pool had no hybrid
    /// roots). Host time, not simulated time: the rebuild is volatile
    /// work the paper's timeline never charges.
    rebuild_ns: u64,
}

impl ModHeap {
    /// Formats a fresh pool into a MOD heap.
    pub fn create(pm: Pmem) -> ModHeap {
        ModHeap {
            nv: NvHeap::format(pm),
            pending: Vec::new(),
            rebuild_ns: 0,
        }
    }

    /// Formats a fresh **file-backed** pool at `path`: every FASE commit
    /// appends its fence's lines to the pool file's journal, so the heap
    /// survives the death of this process and reopens with
    /// [`ModHeap::open_file`].
    pub fn create_file(path: &Path, cfg: PmemConfig) -> io::Result<ModHeap> {
        Ok(ModHeap::create(Pmem::create_file(path, cfg)?))
    }

    pub(crate) fn from_parts(nv: NvHeap) -> ModHeap {
        ModHeap {
            nv,
            pending: Vec::new(),
            rebuild_ns: 0,
        }
    }

    /// Wall-clock nanoseconds the last [`ModHeap::open`] spent rebuilding
    /// hybrid roots' volatile indices (0 if there were none).
    pub fn rebuild_ns(&self) -> u64 {
        self.rebuild_ns
    }

    /// Replays every hybrid root's spine into a fresh volatile index and
    /// publishes the heads to the root annex. Runs once per open, after
    /// the reachability sweep.
    pub(crate) fn rebuild_hybrid_roots(&mut self) {
        let t0 = std::time::Instant::now();
        let entries = crate::root::all_entries(self.nv());
        let mut any = false;
        for (i, e) in entries.iter().enumerate() {
            if e.kind == crate::erased::RootKind::Spine {
                any = true;
                let (logical, v) = crate::spine::replay(&mut self.nv, e.root);
                self.nv.annex().set(i, crate::spine::pack_annex(logical, v));
            }
        }
        if any {
            self.rebuild_ns = t0.elapsed().as_nanos() as u64;
        }
    }

    /// The committed volatile head of hybrid root `index`: its logical
    /// kind and volatile root address, or `None` if the root is not
    /// hybrid (or does not exist).
    pub(crate) fn hybrid_head(&self, index: usize) -> Option<(crate::erased::RootKind, u64)> {
        match self.nv.annex().get(index) {
            0 => None,
            w => Some(crate::spine::unpack_annex(w)),
        }
    }

    /// The underlying persistent heap.
    pub fn nv(&self) -> &NvHeap {
        &self.nv
    }

    /// Mutable access to the underlying persistent heap (pure updates take
    /// this).
    pub fn nv_mut(&mut self) -> &mut NvHeap {
        &mut self.nv
    }

    /// Consumes the heap, returning the raw pool — an *orderly* close:
    /// if version releases are still deferred (the last commit's pointer
    /// store is not yet known durable), one final fence drains them
    /// first, so the last FASE is durable and no superseded version
    /// leaves the process unreclaimed. A heap with nothing pending pays
    /// no extra fence (crash tests that quiesce and then build
    /// uncommitted state are unaffected); to model a *crash* instead of
    /// a close, take [`mod_pmem::Pmem::crash_image`] through
    /// [`ModHeap::nv`] without consuming the heap.
    pub fn into_pm(mut self) -> Pmem {
        if !self.pending.is_empty() {
            self.fence_and_drain(SyncRound::Now);
        }
        self.nv.into_pm()
    }

    /// Orderly shutdown of a file-backed heap: drains deferred
    /// reclamation (one fence), checkpoints the pool (journals
    /// drained-but-unfenced lines, writes everything journaled since the
    /// last checkpoint home into the base image, truncates the journals —
    /// all on stable storage when this returns) and returns the pool. A
    /// checkpoint I/O error surfaces here; the pool it leaves is still
    /// valid (image + journal). On a memory-backed heap the checkpoint
    /// is a no-op.
    pub fn close(mut self) -> io::Result<Pmem> {
        self.quiesce();
        let mut pm = self.nv.into_pm();
        pm.checkpoint()?;
        Ok(pm)
    }

    /// Reads a root slot (raw-slot interface; typed code uses
    /// [`ModHeap::current`] instead).
    pub fn read_root(&mut self, slot: usize) -> PmPtr {
        self.nv.read_root(slot)
    }

    /// Queues a superseded version for release after the next fence.
    pub(crate) fn defer_release(&mut self, old: ErasedDs) {
        self.pending.push(old);
    }

    /// Steals the deferred-release queue. The shared-heap commit stage
    /// calls this after every batch commit so superseded chains move to
    /// *epoch-gated* limbo instead of being freed at the next fence —
    /// a snapshot reader pinned at an older epoch may still reach them.
    /// The next `fence_and_drain` then drains an empty queue (the fence
    /// itself still runs; fence counts are unchanged).
    pub(crate) fn take_pending(&mut self) -> Vec<ErasedDs> {
        std::mem::take(&mut self.pending)
    }

    /// Fences (its sync round per `sync`), then frees what the previous
    /// commit superseded. A [`SyncRound::Now`] fence is an owner heap's
    /// acknowledgement and an orderly point for a due checkpoint; the
    /// shared engine's fences defer both until it has dropped its commit
    /// lock.
    pub(crate) fn fence_and_drain(&mut self, sync: SyncRound) {
        let pm = self.nv.pm_mut();
        pm.sfence_with(sync);
        if sync == SyncRound::Now {
            pm.checkpoint_if_due();
        }
        // The previous commit's pointer store is now durable; its old
        // version can never be observed by recovery again.
        let pending = std::mem::take(&mut self.pending);
        for e in pending {
            e.release(&mut self.nv);
        }
    }

    /// Publishes a fresh root directory (Fig 8c on the directory parent):
    /// flush the new parent, fence once, swing the directory pointer.
    /// `fresh` names the children whose temporary FASE ownership transfers
    /// to the new directory. `tags` carries one codec-discipline word per
    /// entry (see [`crate::codec`]), preserved across directory rebuilds.
    pub(crate) fn swing_directory(
        &mut self,
        old_dir: PmPtr,
        children: &[ErasedDs],
        fresh: &[ErasedDs],
        tags: &[u64],
        sync: SyncRound,
    ) {
        let new_dir = crate::parent::store_parent_tagged(&mut self.nv, children, tags);
        for f in fresh {
            self.nv.rc_dec(f.root);
        }
        self.fence_and_drain(sync);
        self.store_root_slot(ROOT_DIR_SLOT, new_dir);
        if !old_dir.is_null() {
            self.pending.push(ErasedDs {
                kind: crate::erased::RootKind::Parent,
                root: old_dir,
            });
        }
    }

    fn store_root_slot(&mut self, slot: usize, root: PmPtr) {
        let addr = self.nv.root_slot_addr(slot);
        let pm = self.nv.pm_mut();
        pm.begin_commit();
        pm.write_u64(addr, root.addr());
        pm.clwb(addr);
        pm.end_commit();
    }

    /// Forces all queued reclamation now by issuing an extra fence. Used
    /// by tests and at orderly shutdown to reach a zero-garbage state.
    pub fn quiesce(&mut self) {
        self.fence_and_drain(SyncRound::Now);
    }

    /// Number of versions awaiting deferred reclamation.
    pub fn pending_reclaims(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::root::ROOT_DIR_SLOT;
    use mod_funcds::PmMap;
    use mod_pmem::{CrashPolicy, PmemConfig};

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn fase_commit_has_one_fence() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        let fences_before = h.nv().pm().stats().fences;
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"v")));
        let fences = h.nv().pm().stats().fences - fences_before;
        assert_eq!(fences, 1, "Fig 10: MOD = one fence per operation");
    }

    #[test]
    fn commit_makes_update_durable() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 7, b"seven")));
        // One more fence so the directory-entry store itself is durable.
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (h2, _) = ModHeap::open(img);
        let map: crate::Root<PmMap> = h2.open_root(0);
        assert_eq!(
            h2.current(map).peek_get(h2.nv(), 7),
            Some(b"seven".to_vec())
        );
    }

    #[test]
    fn deferred_reclaim_waits_one_commit() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.quiesce();
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"a")));
        assert!(
            h.pending_reclaims() >= 1,
            "old version queued, not freed at its own commit"
        );
        let frees_before = h.nv().stats().frees;
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 2, b"b")));
        assert!(
            h.nv().stats().frees > frees_before,
            "previous old version reclaimed at next commit"
        );
    }

    #[test]
    fn quiesce_reaches_zero_garbage() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        for i in 0..20u64 {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, i, b"v")));
        }
        h.quiesce();
        assert_eq!(h.pending_reclaims(), 0);
        // Zero garbage = only the live version remains: more churn over
        // the same keys must not grow the heap by a single block.
        let steady = h.nv().stats().live_blocks;
        assert!(steady > 0);
        for i in 0..200u64 {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, i % 20, b"w")));
        }
        h.quiesce();
        assert_eq!(
            h.nv().stats().live_blocks,
            steady,
            "commit churn leaked blocks past quiesce"
        );
    }

    #[test]
    fn root_slot_store_is_a_commit_write() {
        // The directory swing is traced as a commit section: one store,
        // one clwb between CommitBegin/CommitEnd (crash-atomicity tests
        // key off this).
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        let trace_len = h.nv().pm().trace().len();
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"x")));
        use mod_pmem::TraceEvent;
        let t = &h.nv().pm().trace()[trace_len..];
        assert!(t.iter().any(|e| matches!(e, TraceEvent::CommitBegin)));
        assert!(t.iter().any(|e| matches!(e, TraceEvent::CommitEnd)));
    }

    #[test]
    fn directory_slot_is_reserved() {
        assert_eq!(ROOT_DIR_SLOT, mod_alloc::N_ROOTS - 1);
    }

    #[test]
    fn into_pm_drains_pending_reclaims() {
        // Pin the orderly-close fix: consuming the heap right after a
        // FASE (no quiesce) must fence the deferred releases, so the
        // final commit is durable even under the lossiest policy and no
        // superseded version leaves the process unreclaimed.
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"final")));
        assert!(h.pending_reclaims() >= 1, "deferred release outstanding");
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (h2, _) = ModHeap::open(img);
        let map: crate::Root<PmMap> = h2.open_root(0);
        assert_eq!(
            h2.current(map).peek_get(h2.nv(), 1),
            Some(b"final".to_vec()),
            "the close fence made the last FASE durable"
        );
    }

    #[test]
    fn into_pm_reopens_like_a_quiesced_close() {
        // The free state a reopened pool rebuilds must not depend on
        // whether the closing process quiesced explicitly.
        let run = |quiesce: bool| {
            let mut h = mh();
            let m0 = PmMap::empty(h.nv_mut());
            let map = h.publish(m0);
            for i in 0..10u64 {
                h.fase(|tx| tx.update(map, move |nv, m| m.insert(nv, i, b"v")));
            }
            if quiesce {
                h.quiesce();
            }
            let (h2, report) = ModHeap::open(h.into_pm().crash_image(CrashPolicy::OnlyFenced));
            (report, h2.nv().stats().clone())
        };
        let (r_plain, s_plain) = run(false);
        let (r_quiesced, s_quiesced) = run(true);
        assert_eq!(r_plain, r_quiesced, "identical recovery reports");
        assert_eq!(s_plain, s_quiesced, "identical rebuilt free state");
    }

    #[test]
    fn into_pm_without_pending_adds_no_fence() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"x")));
        h.quiesce();
        assert_eq!(h.pending_reclaims(), 0);
        let fences = h.nv().pm().stats().fences;
        let pm = h.into_pm();
        assert_eq!(
            pm.stats().fences,
            fences,
            "quiesced heaps close without extra ordering points"
        );
    }

    #[test]
    fn file_heap_survives_process_style_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("mod_core_heap_{}.pool", std::process::id()));
        {
            let mut h = ModHeap::create_file(&path, mod_pmem::PmemConfig::testing()).unwrap();
            let m0 = PmMap::empty(h.nv_mut());
            let map = h.publish(m0);
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 5, b"disk")));
            drop(h.close().unwrap());
        }
        // A "different process": nothing shared but the file.
        let (h2, report) = ModHeap::open_file(&path, mod_pmem::PmemConfig::testing()).unwrap();
        assert!(report.live_blocks > 0);
        let map: crate::Root<PmMap> = h2.open_root(0);
        assert_eq!(h2.current(map).peek_get(h2.nv(), 5), Some(b"disk".to_vec()));
        assert!(h2.nv().pm().replay_stats().is_some());
        for member in mod_pmem::FileBackend::member_paths(&path, 1) {
            std::fs::remove_file(member).unwrap();
        }
    }
}
