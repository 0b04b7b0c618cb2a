//! Crash recovery (paper §5.2, §5.3).
//!
//! Opening a pool after a crash performs **reachability GC**: every
//! datastructure named in the typed root directory is walked from its
//! entry, marking live blocks and counting references (rebuilding the
//! volatile refcounts the paper deliberately never flushes). Everything
//! unmarked — including shadow nodes leaked by a FASE the crash
//! interrupted — becomes free space. Hybrid roots then replay their
//! spines into fresh volatile indices.
//!
//! GC time is charged to the simulated clock: the paper includes recovery
//! garbage collection in its measured results.
//!
//! The root directory is self-describing, so [`ModHeap::open`] +
//! [`ModHeap::open_root`] need no caller-supplied root specs; only
//! directory-reachable structures survive GC.

use crate::heap::ModHeap;
use mod_alloc::{NvHeap, RecoveryReport};
use mod_pmem::{FileBackend, Pmem};

impl ModHeap {
    /// Opens a (possibly crashed) pool and recovers it: walks every typed
    /// root reachable from the root directory (whose entries carry their own
    /// [`crate::RootKind`] — no caller-supplied specs needed), rebuilds the
    /// volatile refcounts, and sweeps everything unreachable (including
    /// shadows leaked by an interrupted FASE) back into free space.
    ///
    /// Reattach to structures with [`ModHeap::open_root`] /
    /// [`ModHeap::try_open_root`].
    ///
    /// # Panics
    ///
    /// Panics if the pool is not a formatted MOD pool or its live blocks
    /// fail integrity checks.
    pub fn open(pm: Pmem) -> (ModHeap, RecoveryReport) {
        let mut nv = NvHeap::open(pm);
        // The typed root directory is self-describing: marking it
        // cascades to every typed root.
        crate::dir::mark_published(&mut nv);
        let report = nv.finish_recovery();
        let mut heap = ModHeap::from_parts(nv);
        // Hybrid ("Don't Persist All") roots: their interior nodes were
        // volatile and died with the crash; replay each spine into a
        // fresh volatile index (§ Don't Persist All recovery contract).
        heap.rebuild_hybrid_roots();
        (heap, report)
    }

    /// Opens and recovers a **file-backed** pool written by a previous
    /// process (or process lifetime): the pool file's snapshot and every
    /// complete journaled fence are replayed into a fresh arena (a torn
    /// tail — a record the dying process never finished — is discarded,
    /// so the image lands on the last complete fence), and then the
    /// exact same typed recovery as [`ModHeap::open`] runs against that
    /// disk image: root-directory walk, refcount rebuild, reachability
    /// sweep.
    pub fn open_file(
        path: &std::path::Path,
        cfg: mod_pmem::PmemConfig,
    ) -> std::io::Result<(ModHeap, RecoveryReport)> {
        Ok(ModHeap::open(Pmem::open_file(path, cfg)?))
    }

    /// Opens the file-backed pool at `path` like [`ModHeap::open_file`],
    /// first creating it if no pool is there: `init` publishes the fresh
    /// heap's roots, and the pool is closed under a temporary `.init`
    /// name and renamed into place, so a kill at any point leaves either
    /// no pool or a fully built one — never a half-initialized one.
    ///
    /// What the create chooses is recorded in the pool: the journal
    /// shard count (`cfg.journal_shards`) in the header, each root's
    /// [`crate::PersistPolicy`] in the root directory. A reopen reads
    /// both back; only `cfg.durability` applies to every open.
    pub fn open_or_create_file(
        path: &std::path::Path,
        cfg: mod_pmem::PmemConfig,
        init: impl FnOnce(&mut ModHeap),
    ) -> std::io::Result<(ModHeap, RecoveryReport)> {
        if !path.exists() {
            let init_path = path.with_extension("init");
            let init_members = FileBackend::member_paths(&init_path, cfg.journal_shards);
            for stale in &init_members {
                let _ = std::fs::remove_file(stale); // half-built by a kill
            }
            let mut heap = ModHeap::create_file(&init_path, cfg.clone())?;
            init(&mut heap);
            drop(heap.close()?);
            // The shard journals move first, the base last: an open keys
            // off the base file, so a kill mid-rename still reads as "no
            // pool yet" until the base lands.
            let members = FileBackend::member_paths(path, cfg.journal_shards);
            for (from, to) in init_members.iter().zip(&members).rev() {
                std::fs::rename(from, to)?;
            }
        }
        ModHeap::open_file(path, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Root;
    use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
    use mod_pmem::{CrashPolicy, PmemConfig};

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    fn crash(h: ModHeap, policy: CrashPolicy) -> Pmem {
        h.into_pm().crash_image(policy)
    }

    #[test]
    fn recover_committed_map() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 10, b"ten")));
        h.quiesce(); // directory-entry store durable
        let pm = crash(h, CrashPolicy::OnlyFenced);
        let (h2, report) = ModHeap::open(pm);
        assert!(report.live_blocks > 0);
        let map: Root<PmMap> = h2.open_root(0);
        let cur = h2.current(map);
        assert_eq!(cur.get(h2.nv(), 10), Some(b"ten".to_vec()));
        assert_eq!(cur.len(h2.nv()), 1);
    }

    #[test]
    fn crash_mid_fase_recovers_old_version_and_reclaims_shadow() {
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, 1, b"committed")));
        h.quiesce();
        let live_at_commit = h.nv().stats().live_bytes;
        // FASE interrupted: shadow built and flushed, commit never runs.
        let cur = h.current(map);
        let _shadow = cur.insert(h.nv_mut(), 2, b"lost");
        let pm = crash(h, CrashPolicy::PersistAll); // even fully persisted
        let (h2, report) = ModHeap::open(pm);
        let map: Root<PmMap> = h2.open_root(0);
        let cur = h2.current(map);
        assert_eq!(cur.get(h2.nv(), 1), Some(b"committed".to_vec()));
        assert_eq!(cur.get(h2.nv(), 2), None, "uncommitted update invisible");
        // The shadow's blocks were leaked by the crash and swept by GC.
        assert_eq!(report.live_bytes, live_at_commit);
    }

    #[test]
    fn adversarial_crash_during_fase_yields_old_or_nothing_new() {
        // Whatever subset of unfenced lines persists, recovery must see
        // the committed version only.
        let mut h = mh();
        let m0 = PmMap::empty(h.nv_mut());
        let map = h.publish(m0);
        for i in 0..10u64 {
            h.fase(|tx| tx.update(map, move |nv, m| m.insert(nv, i, &i.to_le_bytes())));
        }
        h.quiesce();
        let cur = h.current(map);
        let _shadow = cur.insert(h.nv_mut(), 99, b"inflight");
        for seed in 0..20u64 {
            let pm = h.nv().pm().crash_image(CrashPolicy::Seeded(seed));
            let (h2, _) = ModHeap::open(pm);
            let map: Root<PmMap> = h2.open_root(0);
            let cur = h2.current(map);
            assert_eq!(cur.len(h2.nv()), 10, "seed {seed}");
            for i in 0..10u64 {
                assert_eq!(
                    cur.get(h2.nv(), i),
                    Some(i.to_le_bytes().to_vec()),
                    "seed {seed} key {i}"
                );
            }
            assert_eq!(cur.get(h2.nv(), 99), None);
        }
    }

    #[test]
    fn recover_all_five_kinds() {
        let mut h = mh();
        let m = PmMap::empty(h.nv_mut()).insert(h.nv_mut(), 1, b"m");
        let s = {
            let s0 = PmSet::empty(h.nv_mut());
            s0.insert(h.nv_mut(), 2).0
        };
        let v = PmVector::from_slice(h.nv_mut(), &[10, 20, 30]);
        let st = PmStack::empty(h.nv_mut()).push(h.nv_mut(), 4);
        let q = PmQueue::empty(h.nv_mut()).enqueue(h.nv_mut(), 5);
        h.publish(m);
        h.publish(s);
        h.publish(v);
        h.publish(st);
        h.publish(q);
        h.quiesce();
        let pm = crash(h, CrashPolicy::OnlyFenced);
        let (h2, _) = ModHeap::open(pm);
        let m: Root<PmMap> = h2.open_root(0);
        let s: Root<PmSet> = h2.open_root(1);
        let v: Root<PmVector> = h2.open_root(2);
        let st: Root<PmStack> = h2.open_root(3);
        let q: Root<PmQueue> = h2.open_root(4);
        assert_eq!(h2.current(m).get(h2.nv(), 1), Some(b"m".to_vec()));
        assert!(h2.current(s).contains(h2.nv(), 2));
        assert_eq!(h2.current(v).to_vec(h2.nv()), vec![10, 20, 30]);
        assert_eq!(h2.current(st).peek(h2.nv()), Some(4));
        assert_eq!(h2.current(q).peek(h2.nv()), Some(5));
    }

    #[test]
    fn empty_pool_recovers_empty() {
        let h = mh();
        let pm = crash(h, CrashPolicy::OnlyFenced);
        let (h2, report) = ModHeap::open(pm);
        assert_eq!(report.live_blocks, 0);
        assert_eq!(h2.root_count(), 0);
        assert!(h2.try_open_root::<PmMap>(0).is_none());
    }
}
