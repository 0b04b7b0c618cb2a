//! File-backed pool lifecycle for the server: atomic creation, recovery
//! on reopen, and sharding onto worker slots.

use crate::engine::ServerRoots;
use mod_core::{CommitMode, ModHeap, PersistPolicy, SharedModHeap};
use mod_pmem::{Durability, FileBackend, PmemConfig};
use std::io;
use std::path::Path;

/// The server's pool configuration: a real file journal, no crash
/// simulation (crashes here are real process kills).
pub fn pool_config() -> PmemConfig {
    PmemConfig {
        capacity: 1 << 26,
        crash_sim: false,
        trace: false,
        ..PmemConfig::default()
    }
}

/// Opens (recovering) or creates the server pool at `path` and shards
/// it for `workers` connection slots in the given commit mode, with
/// kill-grade (buffered, one-journal) durability. See
/// [`open_or_create_with`] for power-loss-grade pool sets.
///
/// Initialization is atomic against kills: a fresh pool is built and
/// closed under a temporary `.init` name and renamed into place, so a
/// recovery only ever sees "no pool yet" or a fully formed one.
///
/// # Errors
///
/// Returns file I/O or recovery errors; an existing pool whose roots
/// are not the server's five panics (it is some other application's).
pub fn open_or_create(
    path: &Path,
    workers: usize,
    mode: CommitMode,
) -> io::Result<(SharedModHeap, ServerRoots)> {
    open_or_create_with(
        path,
        workers,
        mode,
        Durability::Buffered,
        1,
        PersistPolicy::Full,
    )
}

/// [`open_or_create`] with an explicit durability grade and journal
/// shard count. `Durability::Fsync` makes an acked `SESSION` op durable
/// across power loss, not just SIGKILL — the reply wait runs a sync
/// round, shared by every batch committed before it started — and
/// `journal_shards > 1` splits the journal across that many files,
/// replayed by parallel threads at recovery.
///
/// The shard count is a property of the *file set*: it applies when
/// this call creates the pool, while reopening an existing pool keeps
/// the on-disk layout (the header is authoritative). Durability applies
/// either way.
///
/// `policy` selects the persistence mode the roots are created under —
/// [`PersistPolicy::Hybrid`] keeps interior index nodes volatile and
/// journals only compact op records, rebuilding the index at recovery.
/// The policy is recorded durably in the root directory, so reopening
/// an existing pool under the other policy fails rather than corrupt.
///
/// # Errors
///
/// Same contract as [`open_or_create`].
pub fn open_or_create_with(
    path: &Path,
    workers: usize,
    mode: CommitMode,
    durability: Durability,
    journal_shards: u16,
    policy: PersistPolicy,
) -> io::Result<(SharedModHeap, ServerRoots)> {
    let cfg = PmemConfig {
        durability,
        journal_shards,
        ..pool_config()
    };
    if !path.exists() {
        let init = path.with_extension("init");
        let init_members = FileBackend::member_paths(&init, journal_shards);
        for stale in &init_members {
            let _ = std::fs::remove_file(stale); // half-init from a kill
        }
        let mut heap = ModHeap::create_file(&init, cfg.clone())?;
        let _ = ServerRoots::create(&mut heap, policy);
        drop(heap.close()?);
        // Move the shard journals first, the base last: recovery keys
        // off the base file, so a kill mid-rename still reads as
        // "no pool yet" until the base lands.
        let members = FileBackend::member_paths(path, journal_shards);
        for (from, to) in init_members.iter().zip(&members).rev() {
            std::fs::rename(from, to)?;
        }
    }
    let (mut heap, _report) = ModHeap::open_file(path, cfg)?;
    let roots = ServerRoots::open(&mut heap, policy).map_err(io::Error::other)?;
    Ok((SharedModHeap::from_heap_with(heap, workers, mode), roots))
}
