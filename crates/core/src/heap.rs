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
//!
//! The same queue carries the **epoch gate** of snapshot readers. Under a
//! [`crate::SharedModHeap`] the heap holds every published image a view
//! may still read ([`crate::snapshot::DirSnapshot`], oldest first, the
//! current one last), and each queued version is stamped with the
//! current image's epoch — the last image that can still reach it. A
//! fence frees only the entries stamped older than the oldest image a
//! view still holds (its `Arc` count says so); the rest wait for a later
//! fence. An owner heap publishes no images: it stamps 0 and frees its
//! whole queue at each fence.

use crate::dir;
use crate::erased::{ErasedDs, RootKind};
use crate::snapshot::DirSnapshot;
use mod_alloc::NvHeap;
use mod_pmem::{Pmem, PmemConfig, SyncRound};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

/// The MOD heap: allocator + commit protocols + deferred reclamation.
#[derive(Debug)]
pub struct ModHeap {
    nv: NvHeap,
    /// Versions superseded by a committed pointer store, each stamped
    /// with the epoch of the last image that can still reach it;
    /// released at the first fence that finds no view holding an image
    /// at or before its stamp.
    pending: Vec<(u64, ErasedDs)>,
    /// The images a [`crate::SharedModHeap`] published over this heap
    /// that a view may still hold, oldest first; the last one is the
    /// current image, which the engine's `snap` holds too. Empty on an
    /// owner heap, which has no readers.
    images: VecDeque<Arc<DirSnapshot>>,
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
            images: VecDeque::new(),
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
            images: VecDeque::new(),
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
        let entries = dir::entries(&self.nv);
        let mut any = false;
        for (i, e) in entries.iter().enumerate() {
            if e.kind == RootKind::Spine {
                any = true;
                let head = crate::spine::replay(&mut self.nv, e.root);
                dir::set_head(&self.nv, i, head);
            }
        }
        if any {
            self.rebuild_ns = t0.elapsed().as_nanos() as u64;
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

    /// Publishes `roots` as the next epoch's image (epoch 0 if it is the
    /// first) and records it as the current one.
    pub(crate) fn push_image(&mut self, roots: Vec<ErasedDs>, frontier: u64) -> Arc<DirSnapshot> {
        let image = Arc::new(DirSnapshot {
            epoch: self.images.back().map_or(0, |s| s.epoch + 1),
            roots,
            frontier,
        });
        self.images.push_back(Arc::clone(&image));
        image
    }

    /// Takes the heap back as an owner heap: no image is published any
    /// more, and queued stamps restart at 0 — they count the engine's
    /// epochs, and no view of a later engine can reach what was
    /// superseded before it.
    pub(crate) fn clear_images(&mut self) {
        self.images.clear();
        for (stamp, _) in &mut self.pending {
            *stamp = 0;
        }
    }

    /// Number of live snapshot views: every holder of a published image
    /// beyond this list, and beyond the engine's `snap` for the current
    /// image.
    pub(crate) fn live_views(&self) -> usize {
        let holders: usize = self.images.iter().map(Arc::strong_count).sum();
        holders.saturating_sub(self.images.len() + 1)
    }

    /// Queues a superseded version for release at a later fence, stamped
    /// with the current image's epoch (0 on an owner heap).
    pub(crate) fn defer_release(&mut self, old: ErasedDs) {
        let stamp = self.images.back().map_or(0, |s| s.epoch);
        self.pending.push((stamp, old));
    }

    /// Fences (its sync round per `sync`), then frees every superseded
    /// version no view can reach ([`ModHeap::drain_released`]). A
    /// [`SyncRound::Now`] fence is an owner heap's acknowledgement and an
    /// orderly point for a due checkpoint; the shared engine's fences
    /// defer both until it has dropped its commit lock.
    pub(crate) fn fence_and_drain(&mut self, sync: SyncRound) {
        let pm = self.nv.pm_mut();
        pm.sfence_with(sync);
        if sync == SyncRound::Now {
            pm.checkpoint_if_due();
        }
        self.drain_released();
    }

    /// Frees, in queue order, every queued version whose replacing
    /// pointer store a fence has covered and that no live view can
    /// reach. Called right after a fence: every queued pointer store is
    /// then durable, so recovery can never observe these versions again.
    pub(crate) fn drain_released(&mut self) {
        // Superseded images no view holds: `get_mut` proves this list is
        // the only holder, and synchronizes with the views' drops.
        while self.images.len() > 1 && Arc::get_mut(&mut self.images[0]).is_some() {
            self.images.pop_front();
        }
        // A version stamped `e` is reachable only from images of epoch
        // ≤ `e`: it is free once every held image is newer. The current
        // image has the engine's `snap` as its second holder.
        let last = self.images.len().saturating_sub(1);
        let gate = self
            .images
            .iter()
            .enumerate()
            .find(|&(i, s)| Arc::strong_count(s) > 1 + usize::from(i == last))
            .map_or(u64::MAX, |(_, s)| s.epoch);
        // Pairs with the release decrement of every view dropped before
        // the counts above were read: its reads happen before our frees.
        fence(Ordering::Acquire);
        let nv = &mut self.nv;
        self.pending.retain(|&(stamp, e)| {
            let held = stamp >= gate;
            if !held {
                e.release(nv);
            }
            held
        });
    }

    /// Forces all queued reclamation now by issuing an extra fence. Used
    /// by tests and at orderly shutdown to reach a zero-garbage state.
    pub fn quiesce(&mut self) {
        self.fence_and_drain(SyncRound::Now);
    }

    /// Number of versions awaiting deferred reclamation: those the next
    /// fence will free, plus, under a [`crate::SharedModHeap`], those held
    /// for live snapshot views.
    pub fn pending_reclaims(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::ROOT_DIR_SLOT;
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
        assert_eq!(h2.current(map).get(h2.nv(), 7), Some(b"seven".to_vec()));
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
            h2.current(map).get(h2.nv(), 1),
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
        assert_eq!(h2.current(map).get(h2.nv(), 5), Some(b"disk".to_vec()));
        assert!(h2.nv().pm().replay_stats().is_some());
        for member in mod_pmem::FileBackend::member_paths(&path, 1) {
            std::fs::remove_file(member).unwrap();
        }
    }
}
