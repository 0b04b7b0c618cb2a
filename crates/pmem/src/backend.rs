//! Pluggable persistence backends: where a pool's durable bytes live.
//!
//! The simulator decides *what* is durable (the line-state machine in
//! [`crate::Pmem`]: dirty → in-flight → fenced); a [`PoolBackend`]
//! decides *where* that durable state lives:
//!
//! * [`MemBackend`] — volatile host memory: the durable image is the
//!   crash-sim arena and dies with the process. Every hook is a no-op.
//! * [`FileBackend`] — real files: a **home-location image** of the
//!   durable arena in the base member plus a **redo journal** sliced
//!   across one file per address shard (`pool.s0 …`; formats in
//!   [`crate::journal`]). Each `sfence` appends exactly the lines the
//!   model says became durable as one checksummed batch record per
//!   touched journal — a single `write(2)`, which a process kill either
//!   completes or tears (torn records are discarded at replay). Lines
//!   that drained without a fence are journaled as
//!   [`BatchKind::Drained`] records when the model observes them. A
//!   *different process* reopens the pool as the image plus every
//!   complete batch at or above the checkpoint mark; the journals are
//!   scanned in parallel threads and merged by global sequence,
//!   bit-identical to a one-journal replay (`journal_shards == 1` is
//!   simply the one-shard set).
//!
//! ## The sync round
//!
//! An append reaches the page cache; a sync round
//! ([`PoolBackend::sync_to`]) puts it on the medium. Under
//! [`Durability::Fsync`] a round fdatasyncs every journal dirtied since
//! the last one and advances the **synced frontier**
//! ([`PoolBackend::synced`]): every record whose global sequence lies
//! below it is on the medium. A checkpoint's step 0 advances it too.
//! Under [`Durability::Buffered`] (and without files) the frontier is
//! simply everything appended, so a caller waiting on it pays one
//! comparison.
//!
//! Only acknowledgements need the medium, so only they run rounds:
//! [`crate::Pmem::sfence`] runs one after each fence (an owner heap
//! acknowledges every FASE), a fence its caller marks
//! [`SyncRound::Deferred`] runs none, and the shared engine runs a round
//! in whichever thread waits on a ticket — outside its commit lock,
//! covering every batch appended before it started. Deferring is safe
//! because of the **frontier rule** of replay: a record replays only if
//! every lower global sequence is complete in every shard that record
//! names, so when power loss keeps a synced record but not an unsynced
//! one before it, the later record is truncated as past the frontier
//! too. Rounds serialize on the backend's state lock, so concurrent
//! waiters coalesce: the second one finds the frontier already past its
//! record and returns.
//!
//! ## The checkpoint protocol
//!
//! Every 1 MiB of journal, a checkpoint moves the journal into the
//! image. It costs what changed since the last one, never the pool:
//!
//! 0. fdatasync every dirty shard journal — the image must never run
//!    ahead of the durable journal — which advances the synced frontier
//!    like a round;
//! 1. write the lines journaled since the last checkpoint to
//!    `IMAGE_OFFSET + addr`, coalesced into address runs. The bytes are
//!    the images *the journal itself recorded* (kept last-write-wins as
//!    `append_batch` appends them), never the live durable arena, which
//!    a racing handle can have moved ahead of its journal record;
//! 2. fdatasync the base;
//! 3. write `mark = next sequence` into the older mark slot, fdatasync;
//! 4. truncate the journals.
//!
//! A kill or power loss at any step is repaired by what recovery always
//! does — load the image, replay every complete fence with `seq ≥ mark`
//! in order. Before (3) lands the old mark stands and the untouched
//! journal redoes everything, overwriting whatever a torn or partial
//! image write left (batch records hold whole lines, so redo is
//! idempotent); after it, the journal's records sit below the mark and
//! are skipped as stale whether or not (4) got to them. A checkpoint
//! that *fails* (ENOSPC, EIO) before its mark is written therefore
//! leaves a valid pool too: [`PoolBackend::checkpoint_if_due`] counts it
//! ([`BackendStats::checkpoint_failures`]), the pool keeps appending, and
//! the next threshold crossing retries. Nothing checkpoints inside a
//! fence: an owner heap calls `checkpoint_if_due` after each fence, the
//! shared engine after dropping its commit lock.

use crate::arena::SharedArena;
use crate::journal::{
    self, BatchKind, BatchRecord, LineBytes, LineImage, ReplayError, ShardReplay, HEADER_BYTES,
    IMAGE_OFFSET, MARK_SLOT_AT, MARK_SLOT_BYTES, MAX_SHARDS, SHARD_BASE,
};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which backend family a pool uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Volatile host memory ([`MemBackend`]).
    Mem,
    /// File-backed image + journal ([`FileBackend`]).
    File,
}

/// How hard a [`FileBackend`] pushes each fence toward the medium.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Append with `write(2)` only: the record survives a process kill
    /// (page cache), not a power loss. Fsync happens at checkpoints.
    #[default]
    Buffered,
    /// fdatasync every dirty shard journal before an acknowledgement
    /// relies on it: an owner heap syncs every fence, the shared engine
    /// syncs when a thread waits on a ticket (or a snapshot's frontier),
    /// never under its commit lock. An acknowledged FASE survives power
    /// loss. Everything appended before a round rides on it — drained
    /// lines, every engine fence of every batch since the last round —
    /// and the journal's frontier never replays a record above a lost
    /// one (see "The sync round" in the module docs). One round can
    /// therefore cover many batches of FASEs.
    Fsync,
}

/// Whether an `sfence` runs its pool's sync round
/// ([`PoolBackend::sync_to`]; see [`crate::Pmem::sfence_with`]).
/// Simulated PM cannot tell the two apart: same fence, same flushes,
/// same journal record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncRound {
    /// Right after the fence's journal append — what [`crate::Pmem::sfence`]
    /// does, and what an owner heap's every FASE does.
    Now,
    /// Not at all: the record waits in the page cache for whoever next
    /// needs the synced frontier past it. Every fence of the shared
    /// engine's commit stage is deferred; a ticket's waiter runs the round
    /// that covers it.
    Deferred,
}

/// Observability counters for a backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Batch records appended so far (all kinds).
    pub batches_appended: u64,
    /// [`BatchKind::Fence`] records: exactly one per `sfence` that had
    /// in-flight lines — one per FASE batch on the MOD commit path.
    pub fence_batches: u64,
    /// [`BatchKind::Drained`] records: in-flight writebacks the model
    /// observed completing without a fence (store races, checkpoints).
    pub drained_batches: u64,
    /// Total journal bytes appended.
    pub journal_bytes: u64,
    /// Checkpoints completed (the counter keeps the name it had when a
    /// checkpoint rewrote the pool as a snapshot).
    pub compactions: u64,
    /// Journal shards (0 = no journal). Also the scan parallelism a
    /// recovery of this pool uses.
    pub journal_shards: u64,
    /// Journal bytes appended per shard (len = `journal_shards`).
    pub journal_bytes_by_shard: Vec<u64>,
    /// Individual journal fdatasyncs issued by sync rounds
    /// ([`Durability::Fsync`] only; checkpoint syncs are not counted).
    pub fsyncs: u64,
    /// Sync *rounds* ([`PoolBackend::sync_to`] calls whose record was not
    /// yet covered; each syncs every dirty shard journal once). At most
    /// one per ticket wait on the shared engine, however many batches it
    /// covers; one per fence on an owner heap.
    pub fsync_rounds: u64,
    /// Bytes checkpoints wrote to the base member (image runs + mark
    /// slots): proportional to the lines journaled between checkpoints,
    /// never to the pool.
    pub checkpoint_bytes: u64,
    /// Host nanoseconds spent inside checkpoints (failed ones included).
    pub checkpoint_ns: u64,
    /// The longest single checkpoint, host nanoseconds.
    pub longest_checkpoint_ns: u64,
    /// Checkpoints that returned an I/O error. The pool stays valid
    /// (image + journal) and the next threshold crossing retries.
    pub checkpoint_failures: u64,
}

/// The storage layer behind a [`crate::Pmem`] pool.
///
/// Implementations receive *durability events* from the simulator: one
/// [`PoolBackend::append_batch`] per fence (or per drained-line
/// observation), a [`PoolBackend::sync_to`] round wherever something is
/// acknowledged, plus the checkpoint hook at orderly points. All methods
/// take `&self` — a backend is shared by every forked shard handle of
/// its pool (and by the shared engine's tickets) and must synchronize
/// internally.
pub trait PoolBackend: fmt::Debug + Send + Sync {
    /// Which backend family this is.
    fn kind(&self) -> BackendKind;

    /// Whether the pool should collect line images and deliver
    /// durability batches at all. `false` lets the volatile backend keep
    /// the fence path byte-for-byte identical to the pre-backend code
    /// (no content reads, no allocation).
    fn wants_batches(&self) -> bool {
        false
    }

    /// One durability event: `lines` became durable at simulated time
    /// `fence_ns` (see [`BatchKind`] for why). Called with the lines in
    /// ascending address order. Reaches the OS, not the medium: that is
    /// [`PoolBackend::sync_to`]'s job.
    fn append_batch(&self, _kind: BatchKind, _lines: &[LineImage], _fence_ns: f64) {}

    /// The next global record sequence: every record appended so far lies
    /// below it, so a caller that needs all of them on the medium waits
    /// for [`PoolBackend::synced`] to reach this value.
    fn appended(&self) -> u64 {
        0
    }

    /// The synced frontier: every record below it is on the medium.
    /// Lock-free, so a ticket can poll it from any thread. Equal to
    /// [`PoolBackend::appended`] under [`Durability::Buffered`] and
    /// without files, whose acknowledgements never wait.
    fn synced(&self) -> u64 {
        self.appended()
    }

    /// One sync round, unless the synced frontier already reaches `seq`
    /// (pass [`PoolBackend::appended`] for everything so far): fdatasyncs
    /// every dirty journal and advances the frontier to everything
    /// appended when the round started. A no-op under
    /// [`Durability::Buffered`] and without files.
    fn sync_to(&self, _seq: u64) {}

    /// Whether enough journal has accumulated that the caller should run
    /// a [`PoolBackend::checkpoint`] at the next orderly point.
    fn should_checkpoint(&self) -> bool {
        false
    }

    /// Runs a checkpoint if one is due. A failed one leaves image +
    /// journal a valid pool, so it must not kill the caller: the backend
    /// counts it ([`BackendStats::checkpoint_failures`]) and the next
    /// threshold crossing retries; [`crate::Pmem::checkpoint`] is where
    /// an error surfaces.
    fn checkpoint_if_due(&self) {
        if self.should_checkpoint() {
            let _ = self.checkpoint();
        }
    }

    /// Folds everything journaled so far into the pool's base image and
    /// truncates the journal, leaving the result on stable storage.
    /// Crash-safe at every step, and a returned error leaves the pool
    /// valid (see the module docs).
    fn checkpoint(&self) -> io::Result<()> {
        Ok(())
    }

    /// Total on-disk bytes of the pool's files. A backend with no files
    /// reports 0. Errors (e.g. a pool member deleted out from under the
    /// process) surface as typed io errors, never a panic.
    fn durable_file_bytes(&self) -> io::Result<u64> {
        Ok(0)
    }

    /// Observability counters.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// The volatile backend: durable state lives in the crash-sim arena and
/// dies with the process. All hooks are no-ops.
#[derive(Debug, Default)]
pub struct MemBackend;

impl PoolBackend for MemBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mem
    }
}

/// Journal bytes since the last checkpoint that make the next
/// [`PoolBackend::checkpoint_if_due`] run one.
const CHECKPOINT_BYTES: u64 = 1 << 20;
/// Largest single image write of a checkpoint (its one reused buffer).
const RUN_BYTES: usize = 256 << 10;
/// Chunk in which [`FileBackend::load_image`] streams the image.
const LOAD_CHUNK: usize = 256 << 10;

/// What [`FileBackend::open_with`] found: the caller rebuilds the arena
/// from the image ([`FileBackend::load_image`]) plus `batches`, in order.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Pool capacity from the header.
    pub capacity: u64,
    /// The checkpoint mark: every sequence below it is in the image.
    pub mark: u64,
    /// Every complete batch at or above the mark, in sequence order.
    pub batches: Vec<BatchRecord>,
    /// Journal bytes discarded (and truncated away) as torn tails or as
    /// records past the durable frontier.
    pub torn_bytes: u64,
}

#[derive(Debug)]
struct SetState {
    /// The base member: header, mark slots, home-location image.
    base: File,
    /// Per-shard journal files.
    journals: Vec<File>,
    /// Journal bytes appended since the last checkpoint attempt.
    since_checkpoint: u64,
    /// Next global batch sequence number.
    seq: u64,
    /// Which mark slot holds the current mark; a checkpoint writes the
    /// other one.
    mark_slot: usize,
    /// Bitmask of journals with appended-but-unsynced bytes. A sync round
    /// covers every dirty journal, not just the shards the last fence
    /// touched: an unsynced earlier record (drained lines, a deferred
    /// fence) holds an earlier sequence number, and losing it to
    /// power-off would recede the recovery frontier below the
    /// acknowledgement the round is for. Under `Fsync`, non-zero exactly
    /// when the synced frontier lags `seq`.
    dirty: u64,
    /// The lines journaled since the mark, last write wins: what the
    /// next checkpoint writes home. Non-empty exactly when the journal
    /// holds a record at or above the mark.
    pending: BTreeMap<u64, LineBytes>,
    stats: BackendStats,
}

/// The file-backed backend: a base member holding the home-location
/// image plus one append-only, checksummed fence journal per address
/// shard (see the module docs and [`crate::journal`] for formats and
/// crash semantics).
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    durability: Durability,
    shards: u16,
    /// Bytes of pool address space per shard (64-aligned; the last shard
    /// absorbs the remainder).
    span: u64,
    state: Mutex<SetState>,
    /// The synced frontier ([`PoolBackend::synced`]): written under the
    /// state lock, read without it.
    synced: AtomicU64,
    /// Test-only kill switch: see [`FileBackend::step`].
    #[cfg(test)]
    hook: StepHook,
}

/// Counts the checkpoint steps taken and stops the one numbered
/// `stop_at` — the test stand-in for a kill at that point.
#[cfg(test)]
#[derive(Debug)]
struct StepHook {
    taken: AtomicU64,
    stop_at: AtomicU64,
}

/// The fixed address partition of a pool set: contiguous equal 64-byte-
/// aligned ranges. Deterministic in (capacity, shards) alone, so every
/// open of the set — and every writer generation — agrees on it.
fn shard_span(capacity: u64, shards: u16) -> u64 {
    let raw = capacity.div_ceil(shards as u64);
    ((raw + 63) & !63).max(64)
}

fn shard_path(path: &Path, shard: u16) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".s{shard}"));
    PathBuf::from(os)
}

fn replay_io_err(e: ReplayError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn member_err(path: &Path, e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("pool member {}: {e}", path.display()))
}

fn open_rw(path: &Path, create: bool) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(create)
        .truncate(create)
        .open(path)
        .map_err(|e| member_err(path, &e))
}

/// Reads until `buf` is full or the file ends; returns the bytes read.
fn read_full(f: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

fn write_at(f: &mut File, offset: u64, bytes: &[u8]) -> io::Result<()> {
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(bytes)
}

impl FileBackend {
    /// Creates a fresh pool (truncating existing members) with `shards`
    /// journal files `path.s0 …` (clamped to `1..=64`: the touched-shard
    /// mask is a `u64`) and the given per-fence durability grade. The
    /// base member starts as header + two zero marks — the image is all
    /// holes until the first checkpoint.
    pub fn create_set(
        path: &Path,
        capacity: u64,
        shards: u16,
        durability: Durability,
    ) -> io::Result<FileBackend> {
        let shards = shards.clamp(1, MAX_SHARDS);
        let mut base = open_rw(path, true)?;
        base.write_all(&journal::encode_header(capacity, shards, SHARD_BASE))?;
        base.write_all(&journal::encode_mark(0))?;
        base.write_all(&journal::encode_mark(0))?;
        let mut journals = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            let mut j = open_rw(&shard_path(path, i), true)?;
            j.write_all(&journal::encode_header(capacity, shards, i))?;
            j.sync_all()?;
            journals.push(j);
        }
        base.sync_all()?;
        let state = SetState {
            base,
            journals,
            since_checkpoint: 0,
            seq: 0,
            mark_slot: 0,
            dirty: 0,
            pending: BTreeMap::new(),
            stats: BackendStats::default(),
        };
        Ok(FileBackend::assemble(
            path, durability, shards, capacity, state,
        ))
    }

    fn assemble(
        path: &Path,
        durability: Durability,
        shards: u16,
        capacity: u64,
        mut state: SetState,
    ) -> FileBackend {
        state.stats.journal_shards = shards as u64;
        state.stats.journal_bytes_by_shard = vec![0; shards as usize];
        FileBackend {
            path: path.to_path_buf(),
            durability,
            shards,
            span: shard_span(capacity, shards),
            // Nothing this handle appended is unsynced yet (`dirty` is 0).
            synced: AtomicU64::new(state.seq),
            state: Mutex::new(state),
            #[cfg(test)]
            hook: StepHook {
                taken: 0.into(),
                stop_at: u64::MAX.into(),
            },
        }
    }

    /// Opens an existing pool with [`Durability::Buffered`] appends.
    pub fn open(path: &Path) -> io::Result<(FileBackend, Replay)> {
        FileBackend::open_with(path, Durability::Buffered)
    }

    /// Opens an existing pool: reads the base member's header and mark,
    /// scans the shard journals **in parallel, one thread per journal**,
    /// and merges them by global sequence (the merged order is
    /// bit-identical to a one-journal replay). Torn tails — and complete
    /// records whose fence lost a slice in a sibling journal — are
    /// truncated away so appends resume at the durable frontier. The
    /// replayed batches also **seed the pending set**: the image has not
    /// received them, so the next checkpoint must write them before it
    /// may truncate their records.
    ///
    /// Returns the backend plus the replay; the caller rebuilds the arena
    /// with [`FileBackend::load_image`] and then `replay.batches`.
    pub fn open_with(path: &Path, durability: Durability) -> io::Result<(FileBackend, Replay)> {
        let mut base = open_rw(path, false)?;
        let mut head = [0u8; HEADER_BYTES + 2 * MARK_SLOT_BYTES];
        let n = read_full(&mut base, &mut head)?;
        let set = journal::decode_header(&head[..n]).map_err(replay_io_err)?;
        if set.shard_index != SHARD_BASE {
            return Err(replay_io_err(ReplayError::NotAPool(
                "shard journal where the base file belongs",
            )));
        }
        let slot = |i: usize| journal::decode_mark(head[..n].get(MARK_SLOT_AT[i] as usize..)?);
        let (mark, mark_slot) = journal::newest_mark([slot(0), slot(1)]).map_err(replay_io_err)?;
        if base.metadata()?.len().saturating_sub(IMAGE_OFFSET) > set.capacity {
            return Err(replay_io_err(ReplayError::NotAPool(
                "image longer than the pool capacity",
            )));
        }
        // The scans are independent (checksums, framing, decode), and
        // the merge below is a pure function of their results — so the
        // recovered image cannot depend on thread interleaving.
        let mut scans: Vec<(File, ShardReplay, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..set.shards)
                .map(|i| {
                    let p = shard_path(path, i);
                    scope.spawn(move || -> io::Result<(File, ShardReplay, u64)> {
                        let mut f = open_rw(&p, false)?;
                        let mut jbytes = Vec::new();
                        f.read_to_end(&mut jbytes)?;
                        let scan = journal::replay_shard_journal(&jbytes).map_err(replay_io_err)?;
                        let h = scan.header;
                        if (h.capacity, h.shards, h.shard_index) != (set.capacity, set.shards, i) {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("pool-set member {} does not match its base", p.display()),
                            ));
                        }
                        Ok((f, scan, jbytes.len() as u64))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard scan thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        let records = scans
            .iter_mut()
            .map(|(_, scan, _)| std::mem::take(&mut scan.records))
            .collect();
        let merged = journal::merge_shard_records(records, mark);
        // Truncate each journal back to the durable frontier: both torn
        // tails and complete records of fences that lost a slice
        // elsewhere. Journal order is sequence order, so the cut is the
        // end of the last record below the frontier.
        let mut journals = Vec::with_capacity(scans.len());
        let mut since_checkpoint = 0u64;
        let mut torn_bytes = 0u64;
        for (mut f, scan, len) in scans {
            let cut = scan
                .ends
                .iter()
                .rev()
                .find(|(seq, _)| *seq < merged.frontier)
                .map_or(HEADER_BYTES, |&(_, end)| end) as u64;
            if cut < len {
                f.set_len(cut)?;
            }
            f.seek(SeekFrom::Start(cut))?;
            since_checkpoint += cut - HEADER_BYTES as u64;
            torn_bytes += len - cut;
            journals.push(f);
        }
        let mut pending = BTreeMap::new();
        for l in merged.batches.iter().flat_map(|b| &b.lines) {
            pending.insert(l.addr, l.data);
        }
        let state = SetState {
            base,
            journals,
            since_checkpoint,
            seq: merged.frontier,
            mark_slot,
            dirty: 0,
            pending,
            stats: BackendStats::default(),
        };
        let replay = Replay {
            capacity: set.capacity,
            mark,
            batches: merged.batches,
            torn_bytes,
        };
        Ok((
            FileBackend::assemble(path, durability, set.shards, set.capacity, state),
            replay,
        ))
    }

    /// Streams the base member's home-location image into `arena` in
    /// bounded chunks, never materializing an all-zero chunk (holes of
    /// the sparse image stay holes of the arena). The image is the state
    /// as of the mark; the caller applies `Replay::batches` on top.
    pub fn load_image(&self, arena: &SharedArena) -> io::Result<()> {
        let mut st = self.lock();
        st.base.seek(SeekFrom::Start(IMAGE_OFFSET))?;
        let mut buf = vec![0u8; LOAD_CHUNK];
        let mut addr = 0u64;
        loop {
            // `open_with` bounded the file length by the capacity.
            let n = read_full(&mut st.base, &mut buf)?;
            if buf[..n].iter().any(|&b| b != 0) {
                arena.write(addr, &buf[..n]);
            }
            addr += n as u64;
            if n < buf.len() {
                return Ok(());
            }
        }
    }

    /// The files of a pool created at `path` with `shards` journals
    /// (clamped like [`FileBackend::create_set`] clamps them): the base
    /// member first, then `path.s0 …` — for callers that move or delete
    /// a pool as a whole.
    pub fn member_paths(path: &Path, shards: u16) -> Vec<PathBuf> {
        let journals = (0..shards.clamp(1, MAX_SHARDS)).map(|i| shard_path(path, i));
        std::iter::once(path.to_path_buf())
            .chain(journals)
            .collect()
    }

    /// Journal shard count. Recovery scans the journals with this many
    /// parallel threads.
    pub fn shard_count(&self) -> u16 {
        self.shards
    }

    /// The per-fence durability grade appends use.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Which journal shard owns a pool address.
    fn shard_of(&self, addr: u64) -> usize {
        ((addr / self.span) as usize).min(self.shards as usize - 1)
    }

    /// Locks the writer state, recovering the guard if a previous holder
    /// panicked: the state is consistent at every unlock (no invariant
    /// spans a panic point — a failed append already leaves its fence
    /// incomplete on disk, which recovery discards), so one worker's
    /// panic must not turn every later fence into a second one.
    fn lock(&self) -> MutexGuard<'_, SetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One checkpoint step boundary. A no-op outside this crate's unit
    /// tests, where the kill battery stops the checkpoint here — as an
    /// I/O error, which is also how a real failure surfaces.
    fn step(&self) -> io::Result<()> {
        #[cfg(test)]
        {
            use Ordering::Relaxed;
            if self.hook.taken.fetch_add(1, Relaxed) == self.hook.stop_at.load(Relaxed) {
                return Err(io::Error::other("checkpoint stopped by the test hook"));
            }
        }
        Ok(())
    }

    /// Arms the kill switch: the checkpoint step numbered `step` (counted
    /// from pool creation, see [`FileBackend::checkpoint_steps_taken`])
    /// fails instead of proceeding.
    #[cfg(test)]
    pub(crate) fn stop_checkpoint_at_step(&self, step: u64) {
        self.hook.stop_at.store(step, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn checkpoint_steps_taken(&self) -> u64 {
        self.hook.taken.load(Ordering::Relaxed)
    }

    /// Steps 0–4 of the module docs' protocol; returns the bytes written
    /// to the base member.
    fn checkpoint_locked(&self, st: &mut SetState) -> io::Result<u64> {
        let SetState {
            base,
            journals,
            pending,
            dirty,
            mark_slot,
            seq,
            ..
        } = st;
        for (i, j) in journals.iter().enumerate() {
            if *dirty & (1 << i) != 0 {
                j.sync_data()?;
            }
        }
        *dirty = 0;
        self.synced.store(*seq, Ordering::SeqCst);
        self.step()?;
        let mut written = 0u64;
        if !pending.is_empty() {
            journal::coalesce_runs(pending, RUN_BYTES, |addr, run| {
                write_at(base, IMAGE_OFFSET + addr, run)?;
                written += run.len() as u64;
                self.step()
            })?;
            base.sync_data()?;
            self.step()?;
            let slot = 1 - *mark_slot;
            write_at(base, MARK_SLOT_AT[slot], &journal::encode_mark(*seq))?;
            written += MARK_SLOT_BYTES as u64;
            self.step()?;
            base.sync_data()?;
            // The mark is durable: the journal's records are stale now,
            // whatever happens to the truncations below.
            *mark_slot = slot;
            pending.clear();
            self.step()?;
        }
        for j in journals {
            j.set_len(HEADER_BYTES as u64)?;
            j.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
            self.step()?;
        }
        Ok(written)
    }
}

impl PoolBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::File
    }

    fn wants_batches(&self) -> bool {
        true
    }

    fn append_batch(&self, kind: BatchKind, lines: &[LineImage], fence_ns: f64) {
        if lines.is_empty() {
            return;
        }
        let mut guard = self.lock();
        let st = &mut *guard;
        // Slice the (address-sorted) fence across the contiguous shard
        // ranges; every slice carries the global sequence and the full
        // touched mask so recovery can tell a complete fence from one
        // that lost a slice.
        let mut runs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut start = 0usize;
        while start < lines.len() {
            let shard = self.shard_of(lines[start].addr);
            let mut end = start + 1;
            while end < lines.len() && self.shard_of(lines[end].addr) == shard {
                end += 1;
            }
            runs.push((shard, start..end));
            start = end;
        }
        let mask: u64 = runs.iter().map(|(s, _)| 1u64 << s).sum();
        let seq = st.seq;
        st.seq += 1;
        let mut appended = 0u64;
        for (shard, range) in runs {
            let record = journal::encode_shard_batch(seq, kind, fence_ns, mask, &lines[range]);
            // One write(2) per touched journal: complete once it
            // returns, torn (and discarded at replay) if the process
            // dies inside it.
            st.journals[shard]
                .write_all(&record)
                .expect("pool journal append failed");
            appended += record.len() as u64;
            st.stats.journal_bytes_by_shard[shard] += record.len() as u64;
        }
        st.dirty |= mask;
        if self.durability == Durability::Buffered {
            // Nothing waits for the medium: the frontier is the append.
            self.synced.store(st.seq, Ordering::SeqCst);
        }
        for l in lines {
            st.pending.insert(l.addr, l.data);
        }
        st.since_checkpoint += appended;
        st.stats.journal_bytes += appended;
        st.stats.batches_appended += 1;
        match kind {
            BatchKind::Fence => st.stats.fence_batches += 1,
            BatchKind::Drained => st.stats.drained_batches += 1,
        }
    }

    fn appended(&self) -> u64 {
        self.lock().seq
    }

    fn synced(&self) -> u64 {
        self.synced.load(Ordering::SeqCst)
    }

    fn sync_to(&self, seq: u64) {
        if self.synced() >= seq {
            return; // always, under `Buffered`
        }
        let mut guard = self.lock();
        let st = &mut *guard;
        // A round that held the lock while this one waited may have
        // covered `seq` already: concurrent waiters coalesce here. No
        // round covers more than was appended.
        if self.synced() >= seq.min(st.seq) {
            return;
        }
        for (shard, j) in st.journals.iter().enumerate() {
            if st.dirty & (1u64 << shard) != 0 {
                j.sync_data().expect("pool journal fsync failed");
                st.stats.fsyncs += 1;
            }
        }
        st.dirty = 0;
        st.stats.fsync_rounds += 1;
        self.synced.store(st.seq, Ordering::SeqCst);
    }

    fn should_checkpoint(&self) -> bool {
        self.lock().since_checkpoint >= CHECKPOINT_BYTES
    }

    fn checkpoint(&self) -> io::Result<()> {
        let mut st = self.lock();
        if st.pending.is_empty() && st.since_checkpoint == 0 {
            return Ok(()); // nothing journaled since the mark
        }
        let t0 = Instant::now();
        let result = self.checkpoint_locked(&mut st);
        // Success or not, the next attempt waits for the next threshold
        // crossing: a failing disk must not be hammered at every fence.
        st.since_checkpoint = 0;
        let ns = t0.elapsed().as_nanos() as u64;
        st.stats.checkpoint_ns += ns;
        st.stats.longest_checkpoint_ns = st.stats.longest_checkpoint_ns.max(ns);
        match result {
            Ok(written) => {
                st.stats.checkpoint_bytes += written;
                st.stats.compactions += 1;
                Ok(())
            }
            Err(e) => {
                st.stats.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    fn durable_file_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for p in FileBackend::member_paths(&self.path, self.shards) {
            total += std::fs::metadata(&p).map_err(|e| member_err(&p, &e))?.len();
        }
        Ok(total)
    }

    fn stats(&self) -> BackendStats {
        self.lock().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const CAP: u64 = 1 << 20;
    const FENCE: BatchKind = BatchKind::Fence;

    fn line(addr: u64, fill: u8) -> LineImage {
        LineImage {
            addr,
            data: [fill; 64],
        }
    }

    /// A scratch pool (removed on drop) plus the serial-replay oracle of
    /// everything appended through it: a flat model of the arena, written
    /// one line at a time in append order.
    struct Scratch {
        path: PathBuf,
        shards: u16,
        oracle: Vec<u8>,
    }

    impl Scratch {
        fn create(name: &str, shards: u16, durability: Durability) -> (Scratch, FileBackend) {
            let mut path = std::env::temp_dir();
            path.push(format!("mod_backend_{}_{name}", std::process::id()));
            let be = FileBackend::create_set(&path, CAP, shards, durability).unwrap();
            let oracle = vec![0; CAP as usize];
            (
                Scratch {
                    path,
                    shards,
                    oracle,
                },
                be,
            )
        }

        /// Appends like `Pmem::sfence` does: a fence ends in a sync round.
        fn append(&mut self, be: &FileBackend, kind: BatchKind, lines: &[LineImage]) {
            be.append_batch(kind, lines, 1.0);
            if kind == FENCE {
                be.sync_to(be.appended());
            }
            for l in lines {
                self.oracle[l.addr as usize..][..64].copy_from_slice(&l.data);
            }
        }

        /// Four batches (seqs +0..+4) of address-sorted lines spread
        /// across the 4-shard partition, with fences confined to one
        /// shard, a drained batch and a line rewritten later.
        fn workload(&mut self, be: &FileBackend, salt: u8) {
            let span = shard_span(CAP, 4);
            let l = |addr, fill: u8| line(addr, salt + fill);
            self.append(be, FENCE, &[l(0, 1), l(span, 2), l(3 * span, 3)]);
            self.append(be, FENCE, &[l(64, 4), l(128, 4)]);
            let drained = [l(span + 64, 5), l(2 * span, 6)];
            self.append(be, BatchKind::Drained, &drained);
            let wide = [
                l(128, 7),
                l(span + 128, 8),
                l(2 * span + 64, 9),
                l(3 * span + 64, 10),
            ];
            self.append(be, FENCE, &wide);
        }

        /// A recovery: the reopened backend, what it replayed, and
        /// whether image + replayed batches rebuild the oracle exactly.
        fn reopen(&self) -> (FileBackend, Replay, bool) {
            let (be, replay) = FileBackend::open(&self.path).unwrap();
            let arena = SharedArena::new(replay.capacity);
            be.load_image(&arena).unwrap();
            for l in replay.batches.iter().flat_map(|b| &b.lines) {
                arena.write(l.addr, &l.data);
            }
            let mut bytes = vec![0u8; replay.capacity as usize];
            arena.read(0, &mut bytes);
            (be, replay, bytes == self.oracle)
        }

        fn members(&self) -> Vec<PathBuf> {
            FileBackend::member_paths(&self.path, self.shards)
        }

        fn read(&self) -> Vec<Vec<u8>> {
            let read = |p: &PathBuf| std::fs::read(p).unwrap();
            self.members().iter().map(read).collect()
        }

        fn write(&self, members: &[Vec<u8>]) {
            for (p, m) in self.members().iter().zip(members) {
                std::fs::write(p, m).unwrap();
            }
        }

        /// Chops `bytes` off the tail of shard journal `shard`.
        fn tear(&self, shard: usize, bytes: u64) {
            let f = open_rw(&self.members()[1 + shard], false).unwrap();
            f.set_len(f.metadata().unwrap().len() - bytes).unwrap();
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            for p in self.members() {
                let _ = std::fs::remove_file(p);
            }
        }
    }

    fn replay_error(path: &Path) -> ReplayError {
        let err = FileBackend::open(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.get_ref()
            .and_then(|e| e.downcast_ref::<ReplayError>())
            .unwrap_or_else(|| panic!("not a typed replay error: {err}"))
            .clone()
    }

    #[test]
    fn one_journal_pool_replays_truncates_a_torn_tail_and_resumes() {
        let (mut pool, be) = Scratch::create("roundtrip", 1, Durability::Buffered);
        pool.append(&be, FENCE, &[line(0, 1), line(64, 2)]);
        pool.append(&be, BatchKind::Drained, &[line(128, 3)]);
        be.append_batch(FENCE, &[line(64, 8)], 2.0); // torn away below
        drop(be);
        pool.tear(0, 10);
        let (be, replay, exact) = pool.reopen();
        assert_eq!((replay.capacity, replay.mark), (CAP, 0));
        assert_eq!(replay.batches.len(), 2, "partial batch discarded");
        assert_eq!(replay.batches[0].lines, vec![line(0, 1), line(64, 2)]);
        assert_eq!(replay.batches[1].kind, BatchKind::Drained);
        assert!(exact && replay.torn_bytes > 0);
        // The journal was truncated to the valid prefix, so appends
        // resume right behind it, at the next sequence number.
        pool.append(&be, FENCE, &[line(192, 4)]);
        drop(be);
        let (_, replay, exact) = pool.reopen();
        assert_eq!((replay.batches.len(), replay.batches[2].seq), (3, 2));
        assert!(exact && replay.torn_bytes == 0);
    }

    #[test]
    fn checkpoint_moves_the_journal_into_the_image() {
        let (mut pool, be) = Scratch::create("checkpoint", 1, Durability::Buffered);
        pool.append(&be, FENCE, &[line(0, 1), line(4096, 2)]);
        pool.append(&be, FENCE, &[line(0, 3)]);
        be.checkpoint().unwrap();
        let s = be.stats();
        assert_eq!((s.compactions, s.checkpoint_failures), (1, 0));
        assert_eq!(s.checkpoint_bytes, 2 * 64 + MARK_SLOT_BYTES as u64);
        assert!(s.checkpoint_ns > 0 && s.longest_checkpoint_ns == s.checkpoint_ns);
        assert_eq!(
            be.durable_file_bytes().unwrap(),
            IMAGE_OFFSET + 4096 + 64 + HEADER_BYTES as u64,
            "base = header page + touched high-water mark; journal = its header"
        );
        // A second checkpoint with nothing journaled does nothing.
        be.checkpoint().unwrap();
        assert_eq!(be.stats().compactions, 1);
        // The journal restarts empty after the checkpoint.
        pool.append(&be, FENCE, &[line(64, 5)]);
        drop(be);
        let (_, replay, exact) = pool.reopen();
        assert_eq!(replay.mark, 2, "pre-checkpoint batches are in the image");
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].seq, 2, "sequence survives the checkpoint");
        assert!(exact);
    }

    #[test]
    fn mem_backend_is_inert() {
        let be = MemBackend;
        assert_eq!(be.kind(), BackendKind::Mem);
        assert!(!be.wants_batches() && !be.should_checkpoint());
        be.append_batch(FENCE, &[line(0, 1)], 1.0);
        be.sync_to(be.appended());
        be.checkpoint_if_due();
        be.checkpoint().unwrap();
        assert_eq!((be.appended(), be.synced()), (0, 0), "nothing to wait for");
        assert_eq!(be.stats(), BackendStats::default());
        assert_eq!(be.durable_file_bytes().unwrap(), 0);
    }

    #[test]
    fn open_missing_garbage_or_old_generation_pool_is_a_typed_error() {
        let (pool, be) = Scratch::create("badopen", 1, Durability::Buffered);
        drop(be);
        // A shard journal is not a base member.
        let journal = &pool.members()[1];
        assert!(matches!(replay_error(journal), ReplayError::NotAPool(_)));
        std::fs::write(&pool.path, b"not a pool").unwrap();
        assert!(matches!(replay_error(&pool.path), ReplayError::NotAPool(_)));
        // The checked-in generation-3 pool: typed, never a panic.
        let gen3 = include_bytes!("../../../tests/fixtures/gen3_pool.bin");
        std::fs::write(&pool.path, gen3).unwrap();
        let (found, supported) = (3, journal::FORMAT_GENERATION);
        assert_eq!(
            replay_error(&pool.path),
            ReplayError::UnsupportedGeneration { found, supported }
        );
        // The checked-in generation-4 to generation-6 pools (base + one
        // journal each).
        let gen4 = include_bytes!("../../../tests/fixtures/gen4_pool.bin");
        let gen4_s0 = include_bytes!("../../../tests/fixtures/gen4_pool.bin.s0");
        let gen5 = include_bytes!("../../../tests/fixtures/gen5_pool.bin");
        let gen5_s0 = include_bytes!("../../../tests/fixtures/gen5_pool.bin.s0");
        let gen6 = include_bytes!("../../../tests/fixtures/gen6_pool.bin");
        let gen6_s0 = include_bytes!("../../../tests/fixtures/gen6_pool.bin.s0");
        let olds = [
            (4, &gen4[..], &gen4_s0[..]),
            (5, gen5, gen5_s0),
            (6, gen6, gen6_s0),
        ];
        for (found, base, s0) in olds {
            std::fs::write(&pool.path, base).unwrap();
            std::fs::write(journal, s0).unwrap();
            assert_eq!(
                replay_error(&pool.path),
                ReplayError::UnsupportedGeneration { found, supported }
            );
        }
        std::fs::remove_file(&pool.path).unwrap();
        let err = FileBackend::open(&pool.path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn four_shard_set_replays_bit_identically_to_the_one_shard_set() {
        // The same fence sequence through a one-journal pool and a
        // 4-shard set must replay to identical batch streams — same
        // sequences, same kinds, same line order, same bytes.
        let (mut single, b1) = Scratch::create("seteq_single", 1, Durability::Buffered);
        let (mut set, b4) = Scratch::create("seteq_set", 4, Durability::Buffered);
        single.workload(&b1, 0);
        set.workload(&b4, 0);
        drop((b1, b4));
        let (_, r1, exact1) = single.reopen();
        let (be4, r4, exact4) = set.reopen();
        assert_eq!(r1.batches, r4.batches, "merged replay == serial replay");
        assert!(exact1 && exact4);
        assert_eq!((be4.shard_count(), r4.torn_bytes), (4, 0));
        // Appends resume the global sequence.
        be4.append_batch(FENCE, &[line(0, 11)], 5.0);
        drop(be4);
        let (_, replay) = FileBackend::open(&set.path).unwrap();
        assert_eq!(replay.batches.len(), 5);
        assert_eq!(replay.batches[4].seq, 4, "global sequence resumes");
    }

    #[test]
    fn pool_set_torn_shard_tail_truncates_every_member_to_the_frontier() {
        // Tear the tail of ONE shard journal: the whole set must recover
        // to the last fence every shard holds completely, and the
        // sibling journals must be truncated back to that frontier so
        // appends resume consistently.
        let (mut pool, be) = Scratch::create("settorn", 4, Durability::Buffered);
        pool.workload(&be, 0);
        drop(be);
        // Shard 0 saw fences 0, 1 and 3: tearing its last record drops
        // fence 3 set-wide even though shards 1..3 hold their slices.
        pool.tear(0, 7);
        let (be2, replay) = FileBackend::open(&pool.path).unwrap();
        assert_eq!(replay.batches.len(), 3, "fence 3 lost its shard-0 slice");
        assert_eq!(replay.batches.last().unwrap().seq, 2);
        assert!(replay.torn_bytes > 0);
        // Appends resume at the frontier; a reopen sees 4 batches again
        // with the new fence in slot 3.
        be2.append_batch(FENCE, &[line(0, 12), line(1 << 19, 13)], 9.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&pool.path).unwrap();
        assert_eq!(replay.batches.len(), 4);
        assert_eq!(replay.batches[3].seq, 3);
        assert_eq!(replay.batches[3].lines[0].data[0], 12);
        assert_eq!(replay.torn_bytes, 0, "members were truncated consistently");
    }

    #[test]
    fn missing_member_is_a_typed_error_on_open_and_in_file_bytes() {
        let (pool, be) = Scratch::create("setmissing", 3, Durability::Buffered);
        be.append_batch(FENCE, &[line(0, 1)], 1.0);
        assert!(be.durable_file_bytes().unwrap() > 4 * HEADER_BYTES as u64);
        std::fs::remove_file(&pool.members()[2]).unwrap();
        for err in [
            be.durable_file_bytes().unwrap_err(),
            FileBackend::open(&pool.path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert!(err.to_string().contains(".s1"), "names the member: {err}");
        }
    }

    #[test]
    fn fsync_mode_counts_one_round_per_fence() {
        let (mut pool, be) = Scratch::create("fsynccount", 4, Durability::Fsync);
        assert_eq!(be.durability(), Durability::Fsync);
        pool.workload(&be, 0);
        let s = be.stats();
        assert_eq!(
            s.fsync_rounds, 3,
            "one round per FENCE append; the drained append stays buffered"
        );
        // Each round syncs the dirty members: fence 1 dirtied {0,1,3},
        // fence 2 {0}, then the drained append leaves {1,2} buffered so
        // fence 3 (touching all four shards) syncs {0,1,2,3}: 3 + 1 + 4.
        assert_eq!((s.fsyncs, s.journal_shards), (8, 4));
        assert!(s.journal_bytes_by_shard.iter().all(|&b| b > 0));
        let by_shard: u64 = s.journal_bytes_by_shard.iter().sum();
        assert_eq!(by_shard, s.journal_bytes);
        let (mut buffered, be) = Scratch::create("fsyncnot", 1, Durability::Buffered);
        buffered.workload(&be, 0);
        assert_eq!(be.stats().fsync_rounds, 0, "buffered mode never fsyncs");
        assert_eq!(be.synced(), be.appended(), "its frontier is the append");
    }

    #[test]
    fn the_frontier_orders_a_deferred_fence_before_its_covering_fence() {
        // A ticketed batch appends its data fence k and its covering
        // fence k+1 without a sync round; the waiter's round syncs both.
        // A power loss can keep k+1 and lose k — the round synced shard 0
        // first and died before shard 1. Recovery must then stop at k-1:
        // k+1 lies past the frontier and is truncated, so no record
        // survives that an unsynced earlier one should have preceded.
        let (mut pool, be) = Scratch::create("deferred", 2, Durability::Fsync);
        let span = shard_span(CAP, 2);
        pool.append(&be, FENCE, &[line(0, 1), line(span, 2)]);
        pool.append(&be, FENCE, &[line(64, 3)]);
        let k = be.appended();
        let before = be.stats();
        let shard1_len = std::fs::metadata(&pool.members()[2]).unwrap().len();
        be.append_batch(FENCE, &[line(span + 64, 4)], 3.0); // k, deferred
        be.append_batch(FENCE, &[line(128, 5)], 4.0); // k+1, covering
        assert_eq!(
            be.stats().fsync_rounds,
            before.fsync_rounds,
            "appends never sync"
        );
        assert_eq!((be.synced(), be.appended()), (k, k + 2));
        be.sync_to(k + 2);
        let after = be.stats();
        assert_eq!(after.fsync_rounds - before.fsync_rounds, 1, "one round");
        assert_eq!(after.fsyncs - before.fsyncs, 2, "covering both journals");
        assert_eq!(be.synced(), k + 2, "the round reports its frontier");
        be.sync_to(k + 1);
        assert_eq!(be.stats(), after, "a covered waiter runs no round");
        drop(be);
        // The power loss: shard 1 keeps only what was synced before k.
        let f = open_rw(&pool.members()[2], false).unwrap();
        f.set_len(shard1_len).unwrap();
        drop(f);
        let (be, replay, exact) = pool.reopen();
        assert!(exact, "image + replay = everything up to k-1");
        assert_eq!(replay.batches.len() as u64, k);
        assert_eq!(replay.batches.last().unwrap().seq, k - 1);
        assert!(replay.torn_bytes > 0, "k+1 truncated as past the frontier");
        assert_eq!(be.lock().seq, k, "appends resume at k");
    }

    #[test]
    fn power_loss_after_any_round_replays_exactly_to_its_frontier() {
        // Appends across both shards interleave with rounds, as batch
        // commits interleave with their waiters' rounds. Power loss after
        // round r keeps each journal as that round left it on the medium:
        // replay must end right below the frontier round r reported,
        // replaying nothing at or past it. If one journal also kept its
        // unsynced tail, replay may go further — but only up to the first
        // later record the other journal lost.
        let (pool, be) = Scratch::create("cuts", 2, Durability::Fsync);
        let span = shard_span(CAP, 2);
        let lens = || -> Vec<u64> {
            let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
            pool.members()[1..].iter().map(len).collect()
        };
        let mut masks = Vec::new(); // per sequence: the shards it names
        let mut rounds = Vec::new(); // per round: (frontier, journal lengths)
        for k in 0..30u64 {
            let (a, b) = (line(64 * k, k as u8 + 1), line(span + 64 * k, k as u8 + 1));
            let (lines, mask) = match k % 3 {
                0 => (vec![a], 0b01),
                1 => (vec![b], 0b10),
                _ => (vec![a, b], 0b11),
            };
            let kind = if k % 7 == 6 {
                BatchKind::Drained
            } else {
                FENCE
            };
            be.append_batch(kind, &lines, k as f64);
            masks.push(mask);
            if k % 4 == 3 {
                be.sync_to(be.appended());
                rounds.push((be.synced(), lens()));
            }
        }
        assert_eq!(be.stats().fsync_rounds, rounds.len() as u64);
        assert!(be.synced() < be.appended(), "an unsynced tail remains");
        drop(be);
        let full = pool.read();
        let replayed_through = |cut: &[u64]| {
            let mut members = full.clone();
            for (m, &len) in members[1..].iter_mut().zip(cut) {
                m.truncate(len as usize);
            }
            pool.write(&members);
            let (_, replay) = FileBackend::open(&pool.path).unwrap();
            let seqs: Vec<u64> = replay.batches.iter().map(|b| b.seq).collect();
            assert!(seqs.iter().copied().eq(0..seqs.len() as u64), "gap-free");
            seqs.len() as u64
        };
        for (r, (frontier, cut)) in rounds.iter().enumerate() {
            assert_eq!(
                replayed_through(cut),
                *frontier,
                "power loss after round {r}"
            );
            // Shard 1 kept everything it was ever written; shard 0 only
            // what round r synced.
            let full_len = full[2].len() as u64;
            let lost = (*frontier..30).find(|&s| masks[s as usize] & 0b01 != 0);
            assert_eq!(
                replayed_through(&[cut[0], full_len]),
                lost.unwrap_or(30),
                "round {r}, shard 1's tail survived"
            );
        }
    }

    #[test]
    fn checkpoint_step_zero_advances_the_frontier() {
        let (mut pool, be) = Scratch::create("ckpt_frontier", 2, Durability::Fsync);
        pool.workload(&be, 0);
        be.append_batch(FENCE, &[line(0, 9), line(CAP - 64, 9)], 9.0); // unsynced
        let before = be.stats();
        assert_eq!(be.synced() + 1, be.appended());
        be.checkpoint().unwrap();
        assert_eq!(be.synced(), be.appended(), "step 0 synced the journals");
        let after = be.stats();
        assert_eq!(after.fsync_rounds, before.fsync_rounds, "not a round");
        assert_eq!(after.compactions, before.compactions + 1);
        be.sync_to(be.appended());
        assert_eq!(be.stats().fsync_rounds, before.fsync_rounds, "nothing left");
    }

    fn checkpoint_killed_after_every_step(name: &str, shards: u16, durability: Durability) {
        // Two checkpoint generations, so the second one overwrites live
        // image lines and flips to the other mark slot. The set is
        // restored to its pre-checkpoint bytes, the checkpoint is
        // stopped after step k — for every k — and a reopen must rebuild
        // the serial-replay oracle byte for byte, then keep working.
        let (mut pool, be) = Scratch::create(name, shards, durability);
        pool.workload(&be, 0);
        be.checkpoint().unwrap();
        pool.workload(&be, 100);
        drop(be);
        let before = pool.read();
        // Count the steps of one uninterrupted checkpoint.
        let (be, _) = FileBackend::open_with(&pool.path, durability).unwrap();
        be.checkpoint().unwrap();
        let steps = be.checkpoint_steps_taken();
        assert!(steps >= 5 + shards as u64, "steps: {steps}");
        for k in 0..steps {
            pool.write(&before);
            let (be, _) = FileBackend::open_with(&pool.path, durability).unwrap();
            be.stop_checkpoint_at_step(k);
            assert!(be.checkpoint().is_err(), "step {k} stops the checkpoint");
            assert_eq!(be.stats().checkpoint_failures, 1);
            drop(be); // the kill
            let (be, replay, exact) = pool.reopen();
            assert!(exact, "{name}: killed after step {k}");
            assert_eq!(be.lock().seq, 8, "the sequence never recedes");
            let folded = replay.mark == 8 && replay.batches.is_empty();
            assert!(folded || (replay.mark, replay.batches.len()) == (4, 4));
            // The survivor finishes the job: a full checkpoint, then one
            // more fence, and the oracle still holds.
            be.checkpoint().unwrap();
            let oracle = pool.oracle.clone();
            pool.append(&be, FENCE, &[line(64, 0xEE)]);
            drop(be);
            let (_, replay, exact) = pool.reopen();
            assert!(exact, "{name}: step {k}, second life");
            pool.oracle = oracle;
            assert_eq!((replay.mark, replay.batches.len()), (8, 1));
        }
    }

    #[test]
    fn checkpoint_killed_after_every_step_one_shard_buffered() {
        checkpoint_killed_after_every_step("kill1", 1, Durability::Buffered);
    }

    #[test]
    fn checkpoint_killed_after_every_step_four_shard_fsync() {
        checkpoint_killed_after_every_step("kill4", 4, Durability::Fsync);
    }

    #[test]
    fn replayed_batches_seed_the_pending_set() {
        // Reopen an un-checkpointed pool, append past the threshold,
        // checkpoint, kill: the lines that only the *replayed* records
        // held must have reached the image, because the checkpoint
        // truncated those records.
        let (mut pool, be) = Scratch::create("seeded", 2, Durability::Buffered);
        pool.workload(&be, 0);
        drop(be); // killed un-checkpointed
        let (be, replay) = FileBackend::open(&pool.path).unwrap();
        assert_eq!(replay.batches.len(), 4);
        assert_eq!(be.lock().pending.len(), 10, "distinct replayed lines");
        let mut addr = 4096;
        while !be.should_checkpoint() {
            let lines: Vec<LineImage> = (0..64).map(|i| line(addr + i * 64, 0xAB)).collect();
            pool.append(&be, FENCE, &lines);
            addr = 4096 + (addr + 4096) % (CAP / 2);
        }
        be.checkpoint().unwrap();
        assert!(be.lock().pending.is_empty());
        drop(be);
        let (_, replay, exact) = pool.reopen();
        assert!(replay.batches.is_empty(), "the journals were truncated");
        assert!(exact, "seeded lines reached the image");
    }

    #[test]
    fn failed_checkpoint_is_counted_and_leaves_a_valid_pool() {
        // A real I/O failure: the base handle is swapped for a read-only
        // one, so the first image write fails (EBADF).
        let (mut pool, be) = Scratch::create("failing", 1, Durability::Buffered);
        pool.workload(&be, 0);
        let read_only = File::open(&pool.path).unwrap();
        let writable = std::mem::replace(&mut be.lock().base, read_only);
        assert!(be.checkpoint().is_err());
        let s = be.stats();
        assert_eq!((s.checkpoint_failures, s.compactions), (1, 0));
        assert!(!be.should_checkpoint(), "retry waits for the threshold");
        // The engine keeps appending; a kill now loses nothing.
        pool.workload(&be, 30);
        let (_, replay, exact) = pool.reopen();
        assert!(exact && replay.batches.len() == 8);
        // The disk comes back: the retry folds everything, old and new.
        be.lock().base = writable;
        be.checkpoint().unwrap();
        assert_eq!(be.stats().compactions, 1);
        drop(be);
        let (_, replay, exact) = pool.reopen();
        assert!(exact && replay.batches.is_empty());
    }

    #[test]
    fn a_poisoned_state_lock_does_not_poison_later_fences() {
        let (mut pool, be) = Scratch::create("poison", 1, Durability::Buffered);
        pool.append(&be, FENCE, &[line(0, 1)]);
        let panicked = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _held = be.lock();
                panic!("worker dies holding the backend lock");
            });
            worker.join()
        });
        assert!(panicked.is_err() && be.state.is_poisoned());
        pool.append(&be, FENCE, &[line(64, 2)]);
        assert!(!be.should_checkpoint());
        be.checkpoint().unwrap();
        assert_eq!(be.stats().fence_batches, 2);
        drop(be);
        let (_, replay, exact) = pool.reopen();
        assert!(exact && replay.mark == 2);
    }
}
