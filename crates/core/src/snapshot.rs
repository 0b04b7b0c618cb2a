//! Epoch-stamped root-directory snapshots: wait-free MVCC readers that
//! never touch the commit pipeline.
//!
//! Every committed batch publishes an immutable [`DirSnapshot`] — the
//! root directory's `(kind, root)` entries plus a monotone epoch — with
//! one atomic pointer swing, piggybacked on the directory swing the
//! batch already paid for. A reader calls
//! [`crate::SharedModHeap::snapshot`] and receives a [`SnapshotView`]:
//! a pinned, consistent multi-root image it can traverse with **zero
//! coordination** — no staging lanes, no handoff-queue pushes, no
//! fences, no group lock, not even the commit lock. MOD's versions are
//! immutable once published, so the only thing a reader ever needed
//! protection from is *reclamation* of chains its snapshot can still
//! reach; that is handled by epoch-based deferral
//! ([`mod_alloc::EpochRegistry`]): a batch's superseded chains move to
//! limbo stamped with the epoch of the last snapshot that can reach
//! them, and are freed only once every reader pinned at that epoch (or
//! older) has dropped — and, independently, once a fence has covered
//! the swing that superseded them (the crash-safety gate inherited from
//! the single-owner deferral queue).
//!
//! ## Consistency guarantee
//!
//! All roots in one view come from the *same* published batch: the
//! snapshot is built under the commit lock from the just-swung
//! directory, so a view can never observe root A from batch `k` and
//! root B from batch `k+1` (no torn batches). Within a view, repeated
//! reads are stable — writers advancing the heap never change what a
//! held view returns.
//!
//! ## When to prefer `snapshot()` over reading the heap
//!
//! Reading through `&ModHeap` takes the global commit lock via
//! [`crate::SharedModHeap::with`] and sees the latest committed state. Use a snapshot instead when reads are hot
//! (the view costs two atomic stores to pin + one load, then traversals
//! are pure memory reads that scale linearly with reader threads), or
//! when a multi-step read sequence must observe one consistent cut
//! across several roots. The trade is staleness: a view is a consistent
//! *past* — it does not see batches published after it was taken.

use crate::basic::DurableVector;
use crate::codec::PmWord;
use crate::erased::{DurableDs, ErasedDs};
use mod_alloc::{EpochRegistry, NvHeap};

/// One published batch's immutable root-directory image.
///
/// Built by the commit stage under the commit lock and published with a
/// single atomic pointer swing; never mutated afterwards. Readers reach
/// it through [`crate::SharedModHeap::snapshot`].
#[derive(Debug)]
pub struct DirSnapshot {
    pub(crate) epoch: u64,
    pub(crate) roots: Vec<ErasedDs>,
    /// The journal sequence this image needs on the medium.
    pub(crate) frontier: u64,
}

impl DirSnapshot {
    /// The batch epoch this snapshot was published at (monotone; epoch 0
    /// is the pre-first-commit image).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of roots the directory held when this snapshot published.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }
}

/// A pinned, consistent, read-only view of every published root.
///
/// Obtained from [`crate::SharedModHeap::snapshot`]. Holding a view
/// pins its epoch in the reader registry, which defers reclamation of
/// any version chain the view can reach; **drop views promptly** —
/// a long-lived view holds superseded chains of every later batch in
/// limbo. The `Drop` impl unpins unconditionally (a reader that panics
/// mid-traversal releases its pin during unwind).
///
/// A `&SnapshotView` is a [`crate::ReadCtx`]: pass it to the typed
/// wrappers' own read accessors (`map.get(&view, &key)`,
/// `queue.len(&view)`, …), which decode through the same paths as every
/// other read context, so values round-trip identically.
///
/// # Panics
///
/// Reads through a view panic if the wrapper's root index is not in the
/// snapshot (the root was published after the view was taken) or
/// records a different datastructure kind — both are usage bugs,
/// matching the panics of [`crate::ModHeap::open_root`].
#[derive(Debug)]
pub struct SnapshotView<'h> {
    snap: &'h DirSnapshot,
    nv: &'h NvHeap,
    registry: &'h EpochRegistry,
    slot: usize,
}

impl<'h> SnapshotView<'h> {
    pub(crate) fn new(
        snap: &'h DirSnapshot,
        nv: &'h NvHeap,
        registry: &'h EpochRegistry,
        slot: usize,
    ) -> SnapshotView<'h> {
        SnapshotView {
            snap,
            nv,
            registry,
            slot,
        }
    }

    /// The epoch this view is pinned at (see [`DirSnapshot::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// Number of roots in this view.
    pub fn root_count(&self) -> usize {
        self.snap.roots.len()
    }

    /// The journal sequence this view's image needs on the medium: every
    /// batch it shows is power-loss durable once the pool's synced
    /// frontier reaches it ([`crate::SharedModHeap::wait_synced`]). A
    /// view publishes at commit, so under `Fsync` it can be ahead of the
    /// medium; under `Buffered` and on memory pools it never is.
    pub fn frontier(&self) -> u64 {
        self.snap.frontier
    }

    /// Resolves directory index `index` to a typed version handle. The
    /// snapshot stores a hybrid root's committed volatile head under its
    /// logical kind, so this serves both persistence policies.
    pub(crate) fn resolve<D: DurableDs>(&self, index: usize) -> D {
        let entry = self.snap.roots.get(index).unwrap_or_else(|| {
            panic!(
                "root {index} not in snapshot (epoch {}, {} roots — published later?)",
                self.snap.epoch,
                self.snap.roots.len()
            )
        });
        assert_eq!(
            entry.kind,
            D::KIND,
            "snapshot root {index} holds a {:?}, not a {:?}",
            entry.kind,
            D::KIND
        );
        D::from_root_ptr(entry.root)
    }

    /// The heap image this view traverses (peek reads only).
    pub(crate) fn nv(&self) -> &NvHeap {
        self.nv
    }

    /// `vec.get(&view, index)` spelled as a method of the view.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds in the snapshotted version.
    pub fn vector_get<V: PmWord>(&self, vec: &DurableVector<V>, index: u64) -> V {
        vec.get(self, index)
    }
}

impl Drop for SnapshotView<'_> {
    fn drop(&mut self) {
        // Unconditional (runs during unwind too): a reader panicking
        // mid-traversal must not leave its epoch pinned forever, or
        // reclamation of every later batch stalls.
        self.registry.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use crate::basic::{DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector};
    use crate::sched::{SeededRoundRobin, Turn};
    use crate::shared::SharedModHeap;
    use mod_pmem::{Pmem, PmemConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn shared(workers: usize) -> SharedModHeap {
        SharedModHeap::create(Pmem::new(PmemConfig::testing()), workers)
    }

    #[test]
    fn view_reads_every_root_kind_of_the_published_image() {
        let sh = shared(2);
        let map: DurableMap<String, u64> = sh.setup(DurableMap::create);
        let set: DurableSet<u64> = sh.setup(DurableSet::create);
        let vec: DurableVector<u64> = sh.setup(DurableVector::create);
        let stack: DurableStack<u64> = sh.setup(DurableStack::create);
        let queue: DurableQueue<u64> = sh.setup(DurableQueue::create);
        sh.fase(0, |tx| {
            map.insert_in(tx, &"k".to_string(), &7);
            set.insert_in(tx, &3);
            vec.push_back_in(tx, &11);
        });
        sh.fase(1, |tx| {
            stack.push_in(tx, &13);
            queue.enqueue_in(tx, &17);
        });
        sh.flush();
        let v = sh.snapshot();
        assert_eq!(v.root_count(), 5);
        assert_eq!(map.get(&v, &"k".to_string()), Some(7));
        assert!(map.contains_key(&v, &"k".to_string()));
        assert_eq!(map.len(&v), 1);
        assert!(!map.is_empty(&v));
        assert!(set.contains(&v, &3));
        assert!(!set.contains(&v, &4));
        assert_eq!(set.len(&v), 1);
        assert_eq!(v.vector_get(&vec, 0), 11);
        assert_eq!(vec.len(&v), 1);
        assert_eq!(vec.to_vec(&v), vec![11]);
        assert_eq!(stack.peek(&v), Some(13));
        assert_eq!(stack.len(&v), 1);
        assert_eq!(queue.peek(&v), Some(17));
        assert_eq!(queue.len(&v), 1);
        assert!(!queue.is_empty(&v));
    }

    #[test]
    fn view_is_stable_while_writers_advance() {
        let sh = shared(1);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.fase(0, |tx| map.insert_in(tx, &1, &100));
        let v = sh.snapshot();
        let pinned_epoch = v.epoch();
        assert_eq!(map.get(&v, &1), Some(100));
        // Writers race ahead; the held view must not move.
        for i in 0..10u64 {
            sh.fase(0, |tx| map.insert_in(tx, &1, &(200 + i)));
        }
        sh.flush();
        assert_eq!(map.get(&v, &1), Some(100), "held view moved");
        assert!(
            sh.snapshot_epoch() > pinned_epoch,
            "published epoch should have advanced past the held view"
        );
        let fresh = sh.snapshot();
        assert_eq!(map.get(&fresh, &1), Some(209));
        assert!(fresh.epoch() > v.epoch(), "old view lags the fresh one");
    }

    #[test]
    fn snapshot_traversals_touch_no_fences_and_no_handoff_queue() {
        let readers = if cfg!(miri) { 2 } else { 8 };
        let reads = if cfg!(miri) { 5 } else { 200 };
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let queue: DurableQueue<u64> = sh.setup(DurableQueue::create);
        for i in 0..8u64 {
            sh.fase((i % 2) as usize, |tx| {
                map.insert_in(tx, &i, &(i * i));
                queue.enqueue_in(tx, &i);
            });
        }
        sh.flush();
        // Baseline across every timeline (workers + commit stage) and
        // the pipeline counters; snapshot reads must perturb *nothing*:
        // zero fences, zero staged FASEs (= zero handoff-queue pushes),
        // zero PM charges of any kind.
        let pm_before = sh.lane_stats();
        let pipe_before = sh.stats();
        std::thread::scope(|s| {
            for _ in 0..readers {
                s.spawn(|| {
                    for _ in 0..reads {
                        let v = sh.snapshot();
                        for i in 0..8u64 {
                            assert_eq!(map.get(&v, &i), Some(i * i));
                        }
                        assert_eq!(queue.peek(&v), Some(0));
                        assert_eq!(queue.len(&v), 8);
                    }
                });
            }
        });
        let pm_after = sh.lane_stats();
        let pipe_after = sh.stats();
        assert_eq!(pm_after.fences, pm_before.fences, "readers paid a fence");
        assert_eq!(pm_after, pm_before, "readers charged the PM timelines");
        assert_eq!(
            pipe_after.fases, pipe_before.fases,
            "readers pushed onto the handoff queue"
        );
        assert_eq!(pipe_after, pipe_before, "readers perturbed the pipeline");
        assert_eq!(sh.live_reader_pins(), 0, "all views unpinned");
    }

    /// Seeded-turnstile race injection: three writer threads each commit
    /// FASEs that update the map AND the queue together, while a reader
    /// thread snapshots between arbitrary (seed-chosen) steps. Every
    /// batch keeps `map len == queue len`, so any view that mixed roots
    /// from two batches would be caught immediately.
    #[test]
    fn snapshot_never_observes_a_torn_batch_under_turnstile() {
        let seeds: &[u64] = if cfg!(miri) { &[7] } else { &[1, 7, 42, 1337] };
        let writer_ops = if cfg!(miri) { 4 } else { 16 };
        let reader_ops = if cfg!(miri) { 6 } else { 48 };
        for &seed in seeds {
            let sh = shared(3);
            let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
            let queue: DurableQueue<u64> = sh.setup(DurableQueue::create);
            let sched = Arc::new(SeededRoundRobin::new(seed, 4));
            let next = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for w in 0..3usize {
                    let sh = sh.clone();
                    let sched = Arc::clone(&sched);
                    let next = Arc::clone(&next);
                    s.spawn(move || {
                        for _ in 0..writer_ops {
                            if sched.step(w) == Turn::Halt {
                                break;
                            }
                            let k = next.fetch_add(1, Ordering::SeqCst);
                            sh.fase(w, |tx| {
                                map.insert_in(tx, &k, &k);
                                queue.enqueue_in(tx, &k);
                            });
                        }
                        sh.deregister(w);
                        sched.finish(w);
                    });
                }
                let sh_r = sh.clone();
                let sched_r = Arc::clone(&sched);
                s.spawn(move || {
                    for _ in 0..reader_ops {
                        if sched_r.step(3) == Turn::Halt {
                            break;
                        }
                        let v = sh_r.snapshot();
                        let m = map.len(&v);
                        let q = queue.len(&v);
                        assert_eq!(
                            m,
                            q,
                            "torn batch at epoch {}: map has {m}, queue has {q} (seed {seed})",
                            v.epoch()
                        );
                        // Every enqueued element must also be in the map.
                        if let Some(front) = queue.peek(&v) {
                            assert_eq!(map.get(&v, &front), Some(front));
                        }
                    }
                    sched_r.finish(3);
                });
            });
        }
    }

    /// Reclamation property: while a pinned view can reach a version
    /// chain, the chain is never freed — heavy same-key churn plus
    /// explicit quiesce (which reclaims everything unpinned) must leave
    /// the view's image byte-identical; unpinning then releases the
    /// held chains at the next fence.
    #[test]
    fn pinned_view_blocks_reclamation_until_dropped() {
        let churn = if cfg!(miri) { 8 } else { 64 };
        let sh = shared(1);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let queue: DurableQueue<u64> = sh.setup(DurableQueue::create);
        sh.fase(0, |tx| {
            map.insert_in(tx, &1, &100);
            queue.enqueue_in(tx, &100);
        });
        let v = sh.snapshot();
        assert_eq!(map.get(&v, &1), Some(100));
        // Churn: overwrite the key and roll the queue over and over, so
        // a buggy reclaimer would free and *reuse* the view's blocks.
        for i in 0..churn {
            sh.fase(0, |tx| {
                map.insert_in(tx, &1, &(1000 + i));
                queue.enqueue_in(tx, &(1000 + i));
                queue.dequeue_in(tx);
            });
        }
        sh.quiesce();
        assert_eq!(map.get(&v, &1), Some(100), "pinned chain was recycled");
        assert_eq!(queue.peek(&v), Some(100));
        assert_eq!(queue.len(&v), 1);
        let frees_pinned = sh.with(|h| h.nv().stats().frees);
        drop(v);
        assert_eq!(sh.live_reader_pins(), 0);
        sh.quiesce();
        let frees_unpinned = sh.with(|h| h.nv().stats().frees);
        assert!(
            frees_unpinned > frees_pinned,
            "unpinning must release the held chains ({frees_pinned} -> {frees_unpinned})"
        );
    }

    /// A view pinned across a whole generation of structural rebuilds
    /// (stack grow/shrink cycles plus queue roll-over — the
    /// compaction-like paths) keeps reading its original image.
    #[test]
    fn view_survives_structural_churn_across_batches() {
        let rounds = if cfg!(miri) { 4u64 } else { 24 };
        let sh = shared(1);
        let stack: DurableStack<u64> = sh.setup(DurableStack::create);
        let queue: DurableQueue<u64> = sh.setup(DurableQueue::create);
        for i in 0..4u64 {
            sh.fase(0, |tx| {
                stack.push_in(tx, &i);
                queue.enqueue_in(tx, &i);
            });
        }
        let v = sh.snapshot();
        assert_eq!(stack.peek(&v), Some(3));
        assert_eq!(queue.peek(&v), Some(0));
        for r in 0..rounds {
            // Grow then shrink past the pinned image's top, and roll the
            // queue one full slot — every round rebuilds the spines the
            // view is still traversing.
            sh.fase(0, |tx| {
                stack.push_in(tx, &(100 + r));
                stack.push_in(tx, &(200 + r));
            });
            sh.fase(0, |tx| {
                stack.pop_in(tx);
                stack.pop_in(tx);
                stack.pop_in(tx);
                queue.enqueue_in(tx, &(300 + r));
                queue.dequeue_in(tx);
            });
        }
        sh.quiesce();
        assert_eq!(stack.peek(&v), Some(3), "pinned stack image moved");
        assert_eq!(stack.len(&v), 4);
        assert_eq!(queue.peek(&v), Some(0), "pinned queue image moved");
        assert_eq!(queue.len(&v), 4);
        drop(v);
        sh.quiesce();
    }

    /// A snapshot taken inside the commit — after the directory swing
    /// but before the new snapshot publishes — still reads the *old*
    /// batch's consistent image (the swing alone must not leak).
    #[test]
    fn snapshot_between_swing_and_publish_reads_the_old_image() {
        let sh = shared(1);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.fase(0, |tx| map.insert_in(tx, &1, &10));
        sh.flush();
        let epoch_before = sh.snapshot_epoch();
        let observed = Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let hook_sh = sh.clone();
            let observed = Arc::clone(&observed);
            sh.set_mid_commit_hook(move || {
                let v = hook_sh.snapshot();
                observed
                    .lock()
                    .unwrap()
                    .push((v.epoch(), map.get(&v, &1), map.get(&v, &2)));
            });
        }
        sh.fase(0, |tx| map.insert_in(tx, &2, &20));
        sh.flush();
        let seen = observed.lock().unwrap().clone();
        // The hook runs on every commit-stage pass (no-op passes too);
        // only the first firing sits in the swing-to-publish window of
        // the insert(2) batch.
        assert_eq!(
            seen.first().copied(),
            Some((epoch_before, Some(10), None)),
            "mid-swing view must be the previous epoch's image"
        );
        assert_eq!(map.get(&sh.snapshot(), &2), Some(20));
    }

    /// Regression: a reader that panics while holding a view must unpin
    /// during unwind, or reclamation stalls forever.
    #[test]
    fn view_drop_unpins_during_panic_unwind() {
        let sh = shared(1);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.fase(0, |tx| map.insert_in(tx, &1, &1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let v = sh.snapshot();
            assert_eq!(map.get(&v, &1), Some(1));
            panic!("reader died mid-traversal");
        }));
        assert!(err.is_err());
        assert_eq!(sh.live_reader_pins(), 0, "unwind leaked a pin");
        // Reclamation still proceeds afterwards.
        for i in 0..4u64 {
            sh.fase(0, |tx| map.insert_in(tx, &1, &i));
        }
        sh.quiesce();
        assert_eq!(map.get(&sh.snapshot(), &1), Some(3));
    }

    /// `setup()` republishes: views taken after it see freshly published
    /// roots without any batch having committed.
    #[test]
    fn setup_republishes_the_snapshot() {
        let sh = shared(1);
        let e0 = sh.snapshot_epoch();
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        assert!(sh.snapshot_epoch() > e0, "setup must bump the epoch");
        let v = sh.snapshot();
        assert_eq!(v.root_count(), 1);
        assert!(map.is_empty(&v));
    }
}
