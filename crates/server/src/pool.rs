//! File-backed pool lifecycle for the server: atomic creation, recovery
//! on reopen, and sharding onto worker slots.

use crate::engine::ServerRoots;
use mod_core::{CommitMode, ModHeap, PersistPolicy, SharedModHeap};
use mod_pmem::{Durability, PmemConfig};
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
/// kill-grade (buffered, one-journal) durability and full-persistence
/// roots. See [`open_or_create_with`] for power-loss-grade pool sets
/// and hybrid roots.
///
/// Initialization is atomic against kills
/// ([`ModHeap::open_or_create_file`]): a recovery only ever sees "no
/// pool yet" or a fully formed one.
///
/// # Errors
///
/// Returns file I/O or recovery errors, or the [`mod_core::OpenError`]
/// of an existing pool whose roots are not the server's five (it is
/// some other application's).
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

/// [`open_or_create`] with an explicit durability grade, journal shard
/// count and persistence policy. `Durability::Fsync` makes an acked
/// `SESSION` op durable across power loss, not just SIGKILL — the reply
/// wait runs a sync round, shared by every batch committed before it
/// started — and `journal_shards > 1` splits the journal across that
/// many files, replayed by parallel threads at recovery.
/// [`PersistPolicy::Hybrid`] keeps interior index nodes volatile and
/// journals only compact op records, rebuilding the index at recovery.
///
/// The shard count and the policy are create-time choices: they apply
/// when this call creates the pool, and the pool records them (the
/// header its shards, the root directory its policy), so reopening an
/// existing pool keeps what it recorded, whatever is passed here.
/// Durability applies either way.
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
    let (mut heap, _report) = ModHeap::open_or_create_file(path, cfg, |heap| {
        ServerRoots::create(heap, policy);
    })?;
    let roots = ServerRoots::open(&mut heap).map_err(io::Error::other)?;
    Ok((SharedModHeap::from_heap_with(heap, workers, mode), roots))
}
