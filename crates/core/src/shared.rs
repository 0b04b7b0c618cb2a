//! `SharedModHeap`: a thread-safe, sharded front end with FASE staging
//! under no global lock and pipelined (group) commits.
//!
//! MOD's whole point is that shadow updates need almost no ordering — so
//! staging them should need almost no *locking* either. Each worker
//! thread owns a full shard of the machinery: a private allocation arena
//! ([`mod_alloc::NvHeap::split_workers`]) and a private [`mod_pmem::Pmem`]
//! handle (own simulated clock, caches, line table and WPQ calendar) over
//! the shared pool storage. Building a FASE's shadows — the entire hot
//! path — therefore runs with **no global lock**: the only coordination
//! is per-root *staging lanes* (a FASE updating root `r` owns `r`'s lane
//! until it is queued, so dependent same-root FASEs serialize while
//! disjoint-root FASEs never meet), and completed FASEs are handed to the
//! commit stage through a **handoff queue**: a `Mutex<Vec>` held only for
//! one push, which the commit stage empties in one take. Only the batch
//! publish — one root directory swing, one `sfence` — remains
//! serialized, and it is exactly one ordering point however many FASEs
//! the batch carries.
//!
//! ```text
//!  worker 0 ──┐ stage in own arena/timeline ──┐
//!  worker 1 ──┤   (no lock; per-root lanes)   ├──▶ handoff Vec ──▶ commit stage
//!  worker N ──┘                               ┘    (push; take)    one sfence +
//!                                                                  one ptr store
//! ```
//!
//! ## Commit policy
//!
//! One rule set, configured by [`CommitMode::Group`]'s `max_batch` and
//! `timeout`:
//!
//! 1. After staging, the batch publishes once `max_batch` FASEs are
//!    queued or every active worker has staged.
//! 2. A worker that laps the open batch (it already has a FASE in it)
//!    waits up to `timeout` for the batch to publish, then publishes it
//!    itself.
//! 3. [`SharedModHeap::wait_durable`] waits up to `timeout` for its
//!    ticket's batch to publish, then publishes it itself.
//!
//! `timeout` bounds how long a lapping worker or a ticket waiter waits —
//! not how old a batch may grow: no rule reads a batch's age. The default
//! ([`SharedModHeap::create`], [`SharedModHeap::from_heap`]) is
//! `max_batch = workers` with a **zero** wait: a lap force-drains the
//! batch at once and nothing ever blocks, so no outcome depends on a
//! clock and runs under a [`crate::sched::SeededRoundRobin`] turnstile
//! are deterministic — which is what the crash-injection tests drive.
//! Free-running OS threads want a nonzero wait instead: force-draining
//! would shrink their batches toward one FASE (~1 fence/FASE), while
//! waiting keeps fences/FASE near `1/max_batch`.
//!
//! ## Semantics
//!
//! * Every FASE is individually failure-atomic: the batch publishes all
//!   of its FASEs with one pointer store, so a crash leaves each FASE
//!   entirely in or entirely out — never half-applied.
//! * FASEs updating the same root serialize in lane order and see each
//!   other's staged shadows (read-your-batch); FASEs over disjoint
//!   roots stage concurrently and merge at commit.
//! * Durability is *group-commit*, twice over: `fase` returns when the
//!   update is staged; it is fenced in simulated PM at the batch's fence;
//!   and on a file pool its journal records reach the medium at the next
//!   sync round, which a thread that needs them runs — a ticket waiter
//!   ([`SharedModHeap::wait_durable`]), a snapshot-served reply
//!   ([`SharedModHeap::wait_synced`]) or [`SharedModHeap::flush`] —
//!   never the commit stage. One round covers every batch appended
//!   before it. A crash can drop a staged-but-unpublished suffix, or
//!   under `Fsync` a power loss an unsynced one — each FASE still
//!   all-or-nothing. [`SharedModHeap::flush`] forces a partial batch
//!   out.
//!
//! Determinism: `SharedModHeap` is `Send + Sync` and safe under any
//! interleaving; driving the workers through a seeded turnstile makes
//! runs bit-for-bit reproducible (the concurrent crash tests do exactly
//! that — merges happen in handoff push order, which the turnstile
//! fixes).
//!
//! ## Lock ordering and poison policy
//!
//! The lock hierarchy is `global` (commit) → per-shard → `group` (batch
//! metadata) → the pool backend's state lock: a lock may only be acquired
//! while holding locks strictly *earlier* in that list.
//! Every blocking wait respects it — the one bounded wait behind rules 2
//! and 3 **drops the group lock before** calling into `commit_now()`
//! (which takes `global`), so a reader thread forcing a batch out can
//! never invert the commit stage's `global → group` order, and the group
//! condvar's waiters park holding only `group`. The commit stage takes the backend
//! lock only to append its fences' records. Host durability work — a
//! sync round, a checkpoint — takes **only the backend lock**, and runs
//! after the thread has dropped every engine lock, so an fdatasync never
//! stalls the next batch's merge. (Only [`SharedModHeap::setup`], which
//! runs owner-mode FASEs, syncs as an owner heap does.)
//!
//! Two **leaf** locks sit below every other: the handoff `queue` (held
//! for one push, or for the commit stage's take of the whole batch) and
//! the published snapshot `snap` (write-held for one `Arc` swap, read-held
//! for one `Arc` clone). Either may be taken while holding any lock
//! above, and nothing is acquired while holding either. Snapshot readers
//! ([`SharedModHeap::snapshot`]) take only `snap`, for the clone, so a
//! view can be taken and traversed while the commit lock, the lanes or
//! any shard are held by other threads; the commit stage coordinates
//! with traversals only through the epoch gate on reclamation, which
//! reads the published images' reference counts.
//!
//! Poisoning is handled per lock, by what a panic unwinding through it
//! can leave behind:
//!
//! * **shard and group mutexes, `queue` and `snap`** — consistent at
//!   every unlock (a panicking FASE runs `abort_fase` before the unwind
//!   releases its shard; `GroupMeta`, the staged Vec and the published
//!   `Arc` are plain values). These recover silently via
//!   [`PoisonError::into_inner`] (`relock`), so one panicking worker
//!   never cascades into failures on every other server connection.
//! * **the global commit lock** — guards the multi-step batch merge in
//!   `commit_locked`; a panic there can strand a half-applied batch, so
//!   poison is surfaced as a typed [`HeapPoisoned`] /
//!   [`EngineError::Poisoned`] on the `try_*` APIs (every panicking
//!   form panics with its message) and the pool must be reopened
//!   (journal replay recovers to the last published batch). Reporters
//!   (`sim_wall_ns`, `lane_stats`, `overlap_ratio`, `live_reader_pins`)
//!   read only clocks and counters, valid even mid-commit, so they
//!   relock it instead.

use crate::erased::ErasedDs;
use crate::fase::{Fase, LaneConflict, PendingUpdate, RootLanes};
use crate::heap::ModHeap;
use crate::snapshot::{DirSnapshot, SnapshotView};
use mod_alloc::{NvHeap, StagedAllocEffects};
use mod_pmem::{CrashPolicy, LineHandoff, PmStats, Pmem, PoolBackend, SyncRound, TraceEvent};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// The two parameters of the commit policy (see the module docs' three
/// rules). It is an enum with a single variant only so that callers
/// that name `CommitMode::Group` keep compiling; the default heap is
/// `Group { max_batch: workers, timeout: Duration::ZERO }`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommitMode {
    /// Publish at `max_batch` queued FASEs or once every active worker
    /// has staged; a lapping worker or a ticket waiter waits up to
    /// `timeout` for the open batch, then publishes it itself.
    Group {
        /// Queued FASEs that publish the batch at once.
        max_batch: usize,
        /// How long a lapping worker or a ticket waiter waits for the
        /// open batch before publishing it itself (zero: at once).
        timeout: Duration,
    },
}

/// Pipeline counters (volatile, observability only). Snapshots are taken
/// lock-free from per-counter atomics — reading them never perturbs the
/// staging hot path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// FASEs staged through [`SharedModHeap::fase`].
    pub fases: u64,
    /// Batches committed (each cost exactly one ordering point).
    pub batches: u64,
    /// FASEs carried by those batches (≤ `fases`: all-no-op batches
    /// commit nothing and are free).
    pub batched_fases: u64,
    /// Largest batch committed so far.
    pub max_batch: usize,
    /// Staging attempts aborted on a discordant lane order and retried
    /// after backoff (every conflict eventually committed or surfaced as
    /// a [`LaneContention`] — this counter is the livelock-freedom
    /// witness the discordant-lock-order tests assert on).
    pub lane_conflicts: u64,
    /// Flush-set entries combined away when member FASEs' line tables
    /// merged into a batch: the line table is keyed by address, so a
    /// merged batch holds one entry per unique dirty line and its
    /// covering fence issues exactly one effective `clwb` per line, no
    /// matter how many FASEs touched it. Each unit here is a `clwb` the
    /// batch did not pay.
    pub coalesced_lines: u64,
}

#[derive(Debug, Default)]
struct AtomicPipelineStats {
    fases: AtomicU64,
    batches: AtomicU64,
    batched_fases: AtomicU64,
    max_batch: AtomicUsize,
    lane_conflicts: AtomicU64,
    coalesced_lines: AtomicU64,
}

impl AtomicPipelineStats {
    fn snapshot(&self) -> PipelineStats {
        PipelineStats {
            fases: self.fases.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            batched_fases: self.batched_fases.load(Ordering::SeqCst),
            max_batch: self.max_batch.load(Ordering::SeqCst),
            lane_conflicts: self.lane_conflicts.load(Ordering::SeqCst),
            coalesced_lines: self.coalesced_lines.load(Ordering::SeqCst),
        }
    }
}

/// Typed staging failure: a FASE's lane acquisitions kept colliding with
/// discordant lock orders until the bounded retry budget ran out. The
/// staged work was rolled back each time — the heap is unchanged, and
/// the FASE can be resubmitted (the contending FASEs hold lanes only
/// while staging, so persistent contention means a peer is stalled
/// inside its closure, not livelock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneContention {
    /// The worker whose FASE gave up.
    pub worker: usize,
    /// Staging attempts made (each aborted by a lane conflict).
    pub attempts: u32,
}

impl std::fmt::Display for LaneContention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {}: FASE aborted by lane conflicts {} times (bounded backoff exhausted)",
            self.worker, self.attempts
        )
    }
}

impl std::error::Error for LaneContention {}

/// The commit machinery is wedged: a thread panicked while holding the
/// **global commit lock** (mid-`commit_locked`), so the single-owner
/// heap may hold a half-merged batch. Unlike the shard and group
/// mutexes — whose state is consistent whenever a panic unwinds through
/// them, and which this module recovers silently (see the module docs'
/// poison policy) — the global lock guards multi-step merge state, so
/// its poison is surfaced as this typed error instead of being relocked.
/// Durable state is safe: reopening the pool replays the journal to the
/// last *published* batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapPoisoned;

impl std::fmt::Display for HeapPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared heap poisoned: a thread panicked mid-commit; reopen the pool to recover"
        )
    }
}

impl std::error::Error for HeapPoisoned {}

/// Typed failure surface of the server-facing staging APIs
/// ([`SharedModHeap::try_fase`], [`SharedModHeap::try_fase_ticketed`]).
/// Splitting the two cases matters to a front end: contention is
/// per-request and retryable, poison is engine-fatal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Bounded lane-conflict retry budget exhausted. The heap is
    /// unchanged; the FASE can be resubmitted.
    Contention(LaneContention),
    /// The commit machinery is poisoned; see [`HeapPoisoned`]. Further
    /// staging on this handle will keep failing — reopen the pool.
    Poisoned(HeapPoisoned),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Contention(e) => e.fmt(f),
            EngineError::Poisoned(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Contention(e) => Some(e),
            EngineError::Poisoned(e) => Some(e),
        }
    }
}

impl From<LaneContention> for EngineError {
    fn from(e: LaneContention) -> EngineError {
        EngineError::Contention(e)
    }
}

impl From<HeapPoisoned> for EngineError {
    fn from(e: HeapPoisoned) -> EngineError {
        EngineError::Poisoned(e)
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Only correct for locks whose invariants hold at every unlock — the
/// shard and group-metadata mutexes here (see the module docs' poison
/// policy). The global commit lock must NOT go through
/// this: its poison means a half-merged batch and is surfaced as
/// [`HeapPoisoned`] instead.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded retry budget for conflict-aborted FASEs (see
/// [`SharedModHeap::try_fase`]). With the exponential backoff below the
/// whole budget is ~50 ms of sleep — far beyond any scheduling hiccup
/// (a lane holder descheduled on a loaded host), so exhausting it means
/// a peer is genuinely parked inside its closure, not livelock.
const CONFLICT_RETRY_CAP: u32 = 32;

/// Exponential backoff between conflict retries: yield for the first few
/// attempts, then sleep `2^attempt` µs capped at ~2 ms. Bounded and
/// monotone, so two discordant FASEs cannot re-collide forever — one of
/// them always gets a full lane-hold window.
fn conflict_backoff(attempt: u32) {
    if attempt < 3 {
        std::thread::yield_now();
    } else {
        let micros = 1u64 << attempt.min(11);
        std::thread::sleep(Duration::from_micros(micros));
    }
}

/// Shared durability state behind a [`CommitTicket`]: set once, after
/// the batch's fences, by the commit stage to the journal sequence the
/// batch needs on the medium and the simulated time of the fence that
/// committed the FASE.
type TicketState = OnceLock<(u64, f64)>;

/// A durability handle for one staged FASE.
///
/// [`SharedModHeap::fase_ticketed`] returns one per FASE. The ticket
/// turns *durable* once the batch carrying the FASE has published —
/// strictly after the batch's fences have executed — **and** the pool's
/// synced frontier covers the batch's journal records. Under
/// [`mod_pmem::Durability::Fsync`] the second half needs a sync round,
/// which [`SharedModHeap::wait_durable`] runs (or finds another waiter's
/// round already ran); under `Buffered` and on memory pools it holds at
/// publish. This is the primitive a network front end needs for
/// **reply-after-fence** semantics: a response may be flushed to the
/// client only once the ticket of the FASE that produced it is durable,
/// so an acknowledged operation is guaranteed to survive a crash.
///
/// Tickets are cheap (`Arc`-backed), cloneable, and safe to poll from
/// any thread; [`SharedModHeap::wait_durable`] blocks on one (bounded by
/// the group-commit timeout — it forces the batch out rather than wait
/// forever).
#[derive(Clone, Debug)]
pub struct CommitTicket {
    state: Arc<TicketState>,
    backend: Arc<dyn PoolBackend>,
}

impl CommitTicket {
    fn new(backend: Arc<dyn PoolBackend>) -> CommitTicket {
        CommitTicket {
            state: Arc::new(TicketState::default()),
            backend,
        }
    }

    /// Whether the FASE's batch has published (its fences have executed)
    /// and a sync round has put its records on the medium. Under `Fsync`
    /// it turns true only once a round covers the ticket: a committed
    /// batch nobody waited on stays not durable.
    pub fn is_durable(&self) -> bool {
        self.fence_ns().is_some()
    }

    /// Simulated time of the fence that committed this FASE, once
    /// durable (`None` before that).
    pub fn fence_ns(&self) -> Option<f64> {
        let &(frontier, ns) = self.state.get()?;
        (self.backend.synced() >= frontier).then_some(ns)
    }
}

/// One staged FASE in transit from a worker shard to the commit stage.
#[derive(Debug)]
struct StagedFase {
    worker: usize,
    /// Durability notification slot, if the submitter asked for one.
    ticket: Option<Arc<TicketState>>,
    pending: Vec<PendingUpdate>,
    /// Reverted chains whose release was deferred to the commit stage.
    releases: Vec<ErasedDs>,
    /// Allocator side effects (refcount authority, deltas, frees).
    effects: StagedAllocEffects,
    /// PM line states (and drain watermark) the batch fence must cover.
    lines: LineHandoff,
    trace: Vec<TraceEvent>,
    /// The worker's lane clock when staging finished (fence start bound).
    stage_end_ns: f64,
}

/// One worker's checked-out shard: its worker-mode heap (arena + PM
/// handle). Behind a per-shard mutex that only its own worker takes on
/// the hot path (reporters peek briefly), so it is uncontended.
#[derive(Debug)]
struct WorkerCtx {
    nv: NvHeap,
}

/// Test-only hook run inside `commit_locked` between the directory
/// swing and the snapshot publication (manual `Debug`: closures
/// aren't).
#[cfg(test)]
#[derive(Default)]
struct MidCommitHook(Mutex<Option<Box<dyn Fn() + Send + Sync>>>);

#[cfg(test)]
impl std::fmt::Debug for MidCommitHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MidCommitHook")
    }
}

#[derive(Debug)]
struct GroupMeta {
    /// Batches drained so far — mutex-protected so condvar waiters can
    /// use it as a wake predicate with no missed-notify window.
    batch_epoch: u64,
}

#[derive(Debug)]
struct Inner {
    /// The single-owner heap the commit stage publishes through. It
    /// keeps the published images a view may hold, and gates its
    /// deferred-release queue on them.
    global: Mutex<ModHeap>,
    shards: Vec<Mutex<WorkerCtx>>,
    lanes: RootLanes,
    /// Staged FASEs in push (merge) order, awaiting the commit stage. A
    /// leaf lock: held only to push one FASE or take them all.
    queue: Mutex<Vec<StagedFase>>,
    /// Queued FASEs that publish the batch at once (rule 1).
    max_batch: usize,
    /// The bounded wait of rules 2 and 3.
    timeout: Duration,
    active: Vec<AtomicBool>,
    staged: Vec<AtomicBool>,
    /// FASEs pushed but not yet drained by a commit.
    queued: AtomicUsize,
    stats: AtomicPipelineStats,
    /// Simulated end time of the latest batch fence (f64 bits); workers
    /// sync their lane clocks to it lazily.
    last_fence_ns: AtomicU64,
    group: Mutex<GroupMeta>,
    group_cv: Condvar,
    /// The currently published snapshot, also the last of the heap's
    /// images. A leaf lock: held only to swap in a new image or to clone
    /// the current one.
    snap: RwLock<Arc<DirSnapshot>>,
    /// Read-only heap view for snapshot traversals: shares the pool
    /// storage with every shard, owns only private volatile sim state,
    /// and is never mutated (readers use `&self` peek paths only).
    read_nv: NvHeap,
    /// The pool's backend, reachable without the commit lock: sync
    /// rounds, the synced frontier, checkpoints.
    backend: Arc<dyn PoolBackend>,
    #[cfg(test)]
    mid_commit_hook: MidCommitHook,
}

impl Inner {
    fn all_active_staged(&self) -> bool {
        let any = (0..self.shards.len()).any(|w| self.staged[w].load(Ordering::SeqCst));
        any && (0..self.shards.len()).all(|w| {
            !self.active[w].load(Ordering::SeqCst) || self.staged[w].load(Ordering::SeqCst)
        })
    }

    /// Drains the handoff queue and publishes everything as one batch
    /// with one ordering point. Must be called with the commit lock held.
    fn commit_locked(&self, heap: &mut ModHeap) {
        let drained = std::mem::take(&mut *relock(&self.queue));
        if drained.is_empty() {
            return;
        }
        // The fence is a shared event: it starts once the slowest
        // participant finished staging.
        let t0 = drained
            .iter()
            .map(|sf| sf.stage_end_ns)
            .fold(heap.nv().pm().clock().now_ns(), f64::max);
        heap.nv_mut().pm_mut().sync_clock_to(t0);
        let mut batch: Vec<PendingUpdate> = Vec::new();
        let mut releases = Vec::new();
        let mut participants = Vec::with_capacity(drained.len());
        let mut tickets = Vec::new();
        // Merging the members' flush sets into the owner's line table
        // combines duplicate lines (the table is keyed by address), so
        // the batch's covering fence issues exactly one effective `clwb`
        // per unique dirty line across all member FASEs. `coalesced` is
        // the count of cross-FASE duplicates the merge eliminated.
        let mut coalesced = 0u64;
        for sf in drained {
            participants.push(sf.worker);
            tickets.extend(sf.ticket);
            heap.nv_mut().apply_staged_effects(sf.effects);
            {
                let pm = heap.nv_mut().pm_mut();
                coalesced += pm.absorb_lines(sf.lines) as u64;
                pm.append_trace(sf.trace);
            }
            merge(&mut batch, sf.pending);
            releases.extend(sf.releases);
        }
        if coalesced > 0 {
            self.stats
                .coalesced_lines
                .fetch_add(coalesced, Ordering::SeqCst);
        }
        let fases = participants.len();
        let committed = !batch.is_empty();
        // No fence here runs a sync round (nor a checkpoint): the records
        // wait in the page cache for the round of whichever thread next
        // needs them on the medium, outside this lock. The journal's
        // frontier keeps them ordered — a power loss that keeps a later
        // record but not an earlier one replays neither. The fence frees
        // what earlier batches superseded, unless a live view still
        // reaches it; this batch's superseded chains join the queue
        // stamped with the epoch of the snapshot about to be replaced.
        heap.commit_fase(batch, SyncRound::Deferred);
        // Deferred revert chains were never published: reclaim now that
        // their refcount authority has arrived.
        for r in releases {
            r.release(heap.nv_mut());
        }
        // `commit_fase` flushes the directory swing but does not fence
        // it — in the closed-loop pipeline the *next* batch's fence
        // covers it (epsilon-durability, one fence per FASE preserved).
        // A ticket is a promise to an external client, and a reply must
        // imply the swing itself is durable, so a batch carrying tickets
        // pays the covering fence now. Ticket-free batches are untouched:
        // the simulated fence counts of every existing workload are
        // bit-identical.
        let ticketed = committed && !tickets.is_empty();
        if ticketed {
            heap.nv_mut().pm_mut().sfence_with(SyncRound::Deferred);
        }
        // Mid-commit test hook: observes the window where the directory
        // has swung but the new snapshot has not yet published.
        #[cfg(test)]
        if let Some(hook) = relock(&self.mid_commit_hook.0).as_ref() {
            hook();
        }
        // What this batch needs on the medium: every record appended so
        // far, its own fences last. Its tickets — and its snapshot, whose
        // readers may reveal it — count as durable once the synced
        // frontier reaches this.
        let frontier = self.backend.appended();
        if committed {
            // Publish the batch's snapshot *before* resolving tickets:
            // once a client learns its write is durable, any snapshot
            // taken afterwards must already contain that write.
            self.publish_snapshot(heap, frontier);
            // The covering fence's releases wait for the publish: until
            // then the image that reaches this batch's superseded chains
            // is still the one a new view clones.
            if ticketed {
                heap.drain_released();
            }
            self.stats.batches.fetch_add(1, Ordering::SeqCst);
            self.stats
                .batched_fases
                .fetch_add(fases as u64, Ordering::SeqCst);
            self.stats.max_batch.fetch_max(fases, Ordering::SeqCst);
            self.last_fence_ns
                .store(heap.nv().pm().clock().now_ns().to_bits(), Ordering::SeqCst);
        }
        // The batch's fence watermark. An all-no-op batch paid no fence
        // and wrote nothing, but its FASEs may have read what earlier
        // batches committed, so their tickets wait for the same frontier:
        // a read-only reply must not reveal a write that is not yet on
        // the medium.
        let fence_ns = heap.nv().pm().clock().now_ns();
        // Reply-after-fence gate: tickets commit strictly *after* the
        // covering fence above, and turn durable once a round covers
        // `frontier`. Each ticket rides exactly one batch, so this is
        // its only write.
        for t in &tickets {
            let _ = t.set((frontier, fence_ns));
        }
        for w in participants {
            self.staged[w].store(false, Ordering::SeqCst);
        }
        self.queued.fetch_sub(fases, Ordering::SeqCst);
        // Publish the epoch and notify while *holding* the mutex: every
        // waiter either sees the new epoch before sleeping or is already
        // parked in the condvar and receives the notification — no
        // missed-notify window.
        let mut g = relock(&self.group);
        g.batch_epoch += 1;
        self.group_cv.notify_all();
    }

    /// Publishes the current root directory as the next epoch's
    /// [`DirSnapshot`], piggybacked on the directory swing the batch
    /// already paid for: the heap records it as its current image, and
    /// `snap` swaps it in for readers. `frontier` is the journal sequence
    /// the image needs on the medium. Must be called with the commit
    /// lock held.
    fn publish_snapshot(&self, heap: &mut ModHeap, frontier: u64) {
        let snap = heap.push_image(crate::dir::resolve_all(heap.nv()), frontier);
        *self.snap.write().unwrap_or_else(PoisonError::into_inner) = snap;
    }

    /// The current published image, read-locked.
    fn published(&self) -> RwLockReadGuard<'_, Arc<DirSnapshot>> {
        self.snap.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the commit stage's heap, or reports the poison a panic
    /// mid-commit left on it.
    fn lock_heap(&self) -> Result<MutexGuard<'_, ModHeap>, HeapPoisoned> {
        self.global.lock().map_err(|_| HeapPoisoned)
    }

    /// The commit stage's heap for a reporter: its clock and PM counters
    /// are plain values, valid even mid-commit, and a reporter must not
    /// turn one worker panic into a cascade — so a poisoned commit lock
    /// is relocked here, for reads only.
    fn peek_heap(&self) -> MutexGuard<'_, ModHeap> {
        self.global.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Merges one FASE's staged updates into the batch: chains on the
/// existing per-root heads (which the FASE already saw through its
/// staging lane), turning superseded heads into intra-batch
/// intermediates.
fn merge(batch: &mut Vec<PendingUpdate>, pending: Vec<PendingUpdate>) {
    for p in pending {
        match batch.iter_mut().find(|e| e.index == p.index) {
            Some(entry) => {
                debug_assert_eq!(entry.kind, p.kind, "batch kind drift");
                let old_head = ErasedDs {
                    kind: entry.kind,
                    root: entry.new,
                };
                entry.intermediates.push(old_head);
                // A hybrid root's superseded volatile head is an
                // intra-batch intermediate too: only the final head gets
                // published to the annex at commit.
                entry.intermediates.extend(entry.hybrid.take());
                entry.intermediates.extend(p.intermediates);
                entry.new = p.new;
                entry.hybrid = p.hybrid;
            }
            None => batch.push(p),
        }
    }
}

/// A thread-safe, sharded MOD heap with no-global-lock staging and pipelined
/// FASE commits (see the module docs). Cheap to clone; all clones share
/// one heap.
#[derive(Clone, Debug)]
pub struct SharedModHeap {
    inner: Arc<Inner>,
}

// `SharedModHeap` must stay shareable across worker threads; this is the
// crate's Send/Sync audit point for the whole `PmPtr`-holding tower
// (Pmem → NvHeap → ModHeap).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<SharedModHeap>();
    assert_send::<ModHeap>();
    assert_send::<crate::erased::ErasedDs>();
    // Snapshot machinery: `Inner` holds the read-only `NvHeap` *bare*
    // (readers on many threads traverse it through `&`), so `NvHeap`
    // must be `Sync` — its interior mutability is confined to the
    // word-atomic shared arena.
    assert_send_sync::<NvHeap>();
    assert_send_sync::<crate::snapshot::DirSnapshot>();
    // Typed handles cross thread boundaries by value in the workers.
    assert_send_sync::<crate::Root<mod_funcds::PmMap>>();
    assert_send_sync::<crate::DurableMap<String, Vec<u8>>>();
    assert_send_sync::<crate::DurableSet<u64>>();
    assert_send_sync::<crate::DurableVector<u64>>();
    assert_send_sync::<crate::DurableStack<u64>>();
    assert_send_sync::<crate::DurableQueue<u64>>();
    assert_send_sync::<crate::sched::SeededRoundRobin>();
};

impl SharedModHeap {
    /// Formats a fresh pool into a shared heap with one shard (arena +
    /// PM handle) per worker, under the default commit policy:
    /// `max_batch = workers` and a zero wait, so a lapping worker or a
    /// ticket waiter publishes the open batch at once (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or the pool is too small to shard.
    pub fn create(pm: Pmem, workers: usize) -> SharedModHeap {
        SharedModHeap::from_heap(ModHeap::create(pm), workers)
    }

    /// [`SharedModHeap::create`] with an explicit [`CommitMode`].
    pub fn create_with(pm: Pmem, workers: usize, mode: CommitMode) -> SharedModHeap {
        SharedModHeap::from_heap_with(ModHeap::create(pm), workers, mode)
    }

    /// Wraps an existing single-owner heap (e.g. one that just finished
    /// recovery), sharding it for `workers` worker threads under the
    /// default commit policy (`max_batch = workers`, zero wait; see
    /// [`SharedModHeap::create`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, the heap is already split, or the
    /// remaining pool space is too small to shard.
    pub fn from_heap(heap: ModHeap, workers: usize) -> SharedModHeap {
        let mode = CommitMode::Group {
            max_batch: workers,
            timeout: Duration::ZERO,
        };
        SharedModHeap::from_heap_with(heap, workers, mode)
    }

    /// [`SharedModHeap::from_heap`] with an explicit [`CommitMode`].
    pub fn from_heap_with(mut heap: ModHeap, workers: usize, mode: CommitMode) -> SharedModHeap {
        let CommitMode::Group { max_batch, timeout } = mode;
        assert!(max_batch > 0, "group commit needs max_batch >= 1");
        let worker_heaps = heap.nv_mut().split_workers(workers);
        let read_nv = heap.nv().read_view();
        // Epoch 0: the pre-first-commit image (whatever roots the heap
        // already holds, e.g. after recovery).
        let backend = heap.nv().pm().backend();
        let snap = heap.push_image(crate::dir::resolve_all(heap.nv()), backend.appended());
        SharedModHeap {
            inner: Arc::new(Inner {
                global: Mutex::new(heap),
                shards: worker_heaps
                    .into_iter()
                    .map(|nv| Mutex::new(WorkerCtx { nv }))
                    .collect(),
                lanes: RootLanes::new(),
                queue: Mutex::new(Vec::new()),
                max_batch,
                timeout,
                active: (0..workers).map(|_| AtomicBool::new(true)).collect(),
                staged: (0..workers).map(|_| AtomicBool::new(false)).collect(),
                queued: AtomicUsize::new(0),
                stats: AtomicPipelineStats::default(),
                last_fence_ns: AtomicU64::new(0f64.to_bits()),
                group: Mutex::new(GroupMeta { batch_epoch: 0 }),
                group_cv: Condvar::new(),
                snap: RwLock::new(snap),
                read_nv,
                backend,
                #[cfg(test)]
                mid_commit_hook: MidCommitHook::default(),
            }),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.inner.shards.len()
    }

    /// Runs a FASE on behalf of `worker`, staging its updates with **no
    /// global lock**: shadows build in the worker's own arena/timeline,
    /// same-root FASEs serialize on per-root staging lanes, and the
    /// finished FASE enters the commit stage's handoff queue. The batch
    /// publishes — one `sfence`, one pointer store — at `max_batch`
    /// queued FASEs or once every active worker has staged. If `worker`
    /// already has a FASE in the open batch, this first waits up to the
    /// configured `timeout` for that batch, then publishes it itself (at
    /// once under the default zero wait).
    ///
    /// The closure may run more than once: if two FASEs race to lane
    /// ownership of overlapping root sets in conflicting order, one
    /// aborts (its allocations roll back) and retries. Closures are pure
    /// update stagings, so a retry is invisible apart from the sim-time
    /// charge.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or deregistered, if lane
    /// contention exhausts the bounded retry budget, or if the commit
    /// machinery is poisoned (see [`SharedModHeap::try_fase`] for the
    /// non-panicking form).
    pub fn fase<R>(&self, worker: usize, f: impl FnMut(&mut Fase<'_>) -> R) -> R {
        match self.try_fase(worker, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}; use try_fase to handle it"),
        }
    }

    /// [`SharedModHeap::fase`], surfacing lane contention as a typed
    /// error instead of retrying forever: a staging attempt that loses a
    /// discordant lane-order race aborts (its allocations roll back),
    /// backs off exponentially (bounded — yields, then sleeps up to
    /// ~2 ms) and retries, up to a fixed retry cap. Exhausting the cap
    /// returns [`LaneContention`] with the heap unchanged; every abort
    /// increments [`PipelineStats::lane_conflicts`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Contention`] if every staging attempt in
    /// the budget was aborted by conflicting lane orders (the heap is
    /// unchanged; resubmit), or [`EngineError::Poisoned`] if a thread
    /// panicked mid-commit and wedged the commit machinery (engine-
    /// fatal; reopen the pool). In the poisoned case the FASE may be
    /// staged but unpublished — exactly like a crash before the fence,
    /// it is all-or-nothing lost unless a later commit succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or deregistered.
    pub fn try_fase<R>(
        &self,
        worker: usize,
        f: impl FnMut(&mut Fase<'_>) -> R,
    ) -> Result<R, EngineError> {
        self.try_fase_inner(worker, f, None)
    }

    /// [`SharedModHeap::fase`] returning a [`CommitTicket`] alongside the
    /// closure's result: the ticket turns durable once the batch carrying
    /// this FASE has published (its fences have executed) and its records
    /// are on the medium (see [`CommitTicket::is_durable`]). This is the
    /// building block for reply-after-fence front ends — acknowledge the
    /// operation to the client only after
    /// [`SharedModHeap::wait_durable`] on the ticket returns.
    ///
    /// # Panics
    ///
    /// Same contract as [`SharedModHeap::fase`].
    pub fn fase_ticketed<R>(
        &self,
        worker: usize,
        f: impl FnMut(&mut Fase<'_>) -> R,
    ) -> (R, CommitTicket) {
        match self.try_fase_ticketed(worker, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}; use try_fase_ticketed to handle it"),
        }
    }

    /// [`SharedModHeap::fase_ticketed`], surfacing lane contention and
    /// commit-machinery poison as typed errors (see
    /// [`SharedModHeap::try_fase`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Contention`] if every staging attempt in
    /// the budget was aborted by conflicting lane orders (no ticket
    /// exists then — nothing was staged), or [`EngineError::Poisoned`]
    /// if the commit machinery is wedged.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or deregistered.
    pub fn try_fase_ticketed<R>(
        &self,
        worker: usize,
        f: impl FnMut(&mut Fase<'_>) -> R,
    ) -> Result<(R, CommitTicket), EngineError> {
        let ticket = CommitTicket::new(Arc::clone(&self.inner.backend));
        self.try_fase_inner(worker, f, Some(Arc::clone(&ticket.state)))
            .map(|out| (out, ticket))
    }

    fn try_fase_inner<R>(
        &self,
        worker: usize,
        mut f: impl FnMut(&mut Fase<'_>) -> R,
        ticket: Option<Arc<TicketState>>,
    ) -> Result<R, EngineError> {
        let inner = &*self.inner;
        assert!(worker < inner.shards.len(), "worker {worker} out of range");
        assert!(
            inner.active[worker].load(Ordering::SeqCst),
            "worker {worker} deregistered"
        );
        if inner.staged[worker].load(Ordering::SeqCst) {
            // Rule 2: this worker lapped the open batch.
            self.wait_or_publish(|| !inner.staged[worker].load(Ordering::SeqCst))?;
        }
        // The shard mutex is safe to relock after a poison: a panicking
        // FASE runs `abort_fase` before its unwind releases the guard.
        let mut ctx = relock(&inner.shards[worker]);
        // Catch up with the latest batch fence (a shared event).
        let fence = f64::from_bits(inner.last_fence_ns.load(Ordering::SeqCst));
        ctx.nv.pm_mut().sync_clock_to(fence);
        // Stage with conflict-abort retry (see `Fase::hold_lane`). The
        // whole attempt — run the closure, publish the new lane heads,
        // hand the FASE to the commit queue, release the lanes — happens
        // with the lane guards held, so queue order respects per-root
        // chaining order.
        let mut attempts = 0u32;
        let out = loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut tx = Fase::worker(&mut ctx.nv, &inner.lanes);
                let out = f(&mut tx);
                let effects = tx.nv_mut().take_staged_effects();
                let lines = tx.nv_mut().pm_mut().take_lines();
                let trace = tx.nv_mut().pm_mut().take_trace();
                let stage_end_ns = tx.nv().pm().clock().now_ns();
                let (pending, releases) = tx.finish_staging();
                let staged = StagedFase {
                    worker,
                    ticket: ticket.clone(),
                    pending,
                    releases,
                    effects,
                    lines,
                    trace,
                    stage_end_ns,
                };
                inner.staged[worker].store(true, Ordering::SeqCst);
                inner.queued.fetch_add(1, Ordering::SeqCst);
                relock(&inner.queue).push(staged);
                drop(tx); // releases the staging lanes, after the push
                out
            }));
            match attempt {
                Ok(out) => break out,
                Err(payload) => {
                    ctx.nv.abort_fase();
                    if payload.downcast_ref::<LaneConflict>().is_some() {
                        inner.stats.lane_conflicts.fetch_add(1, Ordering::SeqCst);
                        attempts += 1;
                        if attempts >= CONFLICT_RETRY_CAP {
                            return Err(LaneContention { worker, attempts }.into());
                        }
                        conflict_backoff(attempts);
                        continue;
                    }
                    std::panic::resume_unwind(payload);
                }
            }
        };
        drop(ctx);
        inner.stats.fases.fetch_add(1, Ordering::SeqCst);
        // Rule 1.
        if inner.queued.load(Ordering::SeqCst) >= inner.max_batch || inner.all_active_staged() {
            self.commit_now()?;
        }
        Ok(out)
    }

    /// The bounded wait behind rules 2 and 3: blocks until `done` holds
    /// (a lapping worker's FASE left the queue; a ticket's batch
    /// committed), for at most the configured `timeout`, then publishes
    /// the open batch itself. Only a published batch can make `done`
    /// true, so only an epoch advance ends a sleep — a spurious wake
    /// keeps waiting out the bound. With a zero wait the deadline has
    /// passed at the first check, so the batch publishes at once.
    ///
    /// Waits holding only the group lock, and **drops it** before
    /// publishing: `commit_now` takes global → group, so committing
    /// while holding it would invert the lock order (module docs).
    fn wait_or_publish(&self, done: impl Fn() -> bool) -> Result<(), HeapPoisoned> {
        let inner = &*self.inner;
        let deadline = Instant::now() + inner.timeout;
        let mut g = relock(&inner.group);
        while !done() {
            let now = Instant::now();
            if now >= deadline {
                drop(g);
                return self.commit_now();
            }
            let epoch = g.batch_epoch;
            g = inner
                .group_cv
                .wait_timeout_while(g, deadline - now, |m| m.batch_epoch == epoch)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Ok(())
    }

    /// Commits any staged batch now (one ordering point), then runs the
    /// sync round that puts every committed batch on the medium. Used at
    /// the end of a run and by orderly shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the commit machinery is poisoned (see
    /// [`SharedModHeap::try_flush`] for the non-panicking form).
    pub fn flush(&self) {
        if let Err(e) = self.try_flush() {
            panic!("{e}");
        }
    }

    /// [`SharedModHeap::flush`], surfacing a poisoned commit lock as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`HeapPoisoned`] if a thread panicked mid-commit.
    pub fn try_flush(&self) -> Result<(), HeapPoisoned> {
        self.commit_now()?;
        self.wait_synced(self.inner.backend.appended());
        Ok(())
    }

    /// Commits the staged batch under the commit lock, then — with the
    /// lock dropped — runs a checkpoint if one is due.
    fn commit_now(&self) -> Result<(), HeapPoisoned> {
        let mut heap = self.inner.lock_heap()?;
        self.inner.commit_locked(&mut heap);
        drop(heap);
        self.inner.backend.checkpoint_if_due();
        Ok(())
    }

    /// Blocks until every journal record below `frontier` is on the
    /// medium — a [`SnapshotView::frontier`], say — running the sync
    /// round in this thread unless another thread's round already
    /// covers it. Takes no engine lock, only the backend's, on which
    /// concurrent rounds coalesce. One comparison under
    /// [`mod_pmem::Durability::Buffered`] and on memory pools.
    pub fn wait_synced(&self, frontier: u64) {
        self.inner.backend.sync_to(frontier);
    }

    /// Removes `worker` from the batch-completion quorum: its op stream
    /// is exhausted, or (in a network front end) no connection on it
    /// holds a request right now. If the remaining active workers have
    /// all staged, the batch commits — a worker that has nothing to
    /// stage never makes the others wait out the `timeout`.
    pub fn deregister(&self, worker: usize) {
        self.inner.active[worker].store(false, Ordering::SeqCst);
        if self.inner.all_active_staged() {
            // Deregistration runs on teardown paths (a connection that
            // just panicked its worker included): tolerate a poisoned
            // commit lock — the staged batch is lost either way, exactly
            // like a crash before the fence.
            let _ = self.commit_now();
        }
    }

    /// Re-adds `worker` to the batch-completion quorum (the inverse of
    /// [`SharedModHeap::deregister`]). A network front end registers a
    /// slot only while one of its connections holds a request — read but
    /// not yet answered — and deregisters it before the connection blocks
    /// in `read` again: a slot waiting on its client must not count
    /// toward the all-active-staged quorum, or a lone write would pay the
    /// full group timeout whenever another client is merely connected.
    pub fn register(&self, worker: usize) {
        assert!(
            worker < self.inner.shards.len(),
            "worker {worker} out of range"
        );
        self.inner.active[worker].store(true, Ordering::SeqCst);
    }

    /// Blocks until `ticket` is durable — i.e. the batch carrying its
    /// FASE has published, its fences have executed, and its records are
    /// on the medium. Returns the fence watermark (simulated ns).
    ///
    /// The wait is bounded: if the batch has not published within the
    /// configured `timeout` (at once under the default zero wait), this
    /// thread publishes it itself — so a lone connection on an otherwise
    /// idle server never deadlocks waiting for peers that will never
    /// stage. Once published, the batch reaches the medium through
    /// [`SharedModHeap::wait_synced`]: under `Fsync` this thread runs the
    /// sync round, outside every engine lock, unless a concurrent
    /// waiter's round already covered the batch — so one round serves
    /// every batch committed before it started.
    ///
    /// # Panics
    ///
    /// Panics if the commit machinery is poisoned (see
    /// [`SharedModHeap::try_wait_durable`] for the non-panicking form).
    pub fn wait_durable(&self, ticket: &CommitTicket) -> f64 {
        match self.try_wait_durable(ticket) {
            Ok(ns) => ns,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`SharedModHeap::wait_durable`], surfacing a poisoned commit lock
    /// as a typed error. The reply path of a network front end uses
    /// this: a wedged engine must fail the reply, not take the
    /// connection thread down with a panic.
    ///
    /// # Errors
    ///
    /// Returns [`HeapPoisoned`] if the ticket is still unresolved and
    /// draining the batch found the commit lock poisoned.
    pub fn try_wait_durable(&self, ticket: &CommitTicket) -> Result<f64, HeapPoisoned> {
        loop {
            if let Some(&(frontier, ns)) = ticket.state.get() {
                self.wait_synced(frontier);
                return Ok(ns);
            }
            // Rule 3; the loop then picks the committed ticket up.
            self.wait_or_publish(|| ticket.state.get().is_some())?;
        }
    }

    /// Single-threaded setup access to the underlying heap (publishing
    /// roots, preloading). Must not run concurrently with worker FASEs:
    /// staging takes no global lock, so exclusion is enforced by
    /// acquiring **every shard's mutex** (a worker mid-FASE holds its
    /// own), and the assert catches batches staged but not committed.
    /// Staging-lane heads are invalidated afterwards (setup may have
    /// republished roots underneath them).
    ///
    /// # Panics
    ///
    /// Panics if a batch is (partially) staged, a snapshot view is live,
    /// or the commit machinery is poisoned.
    pub fn setup<R>(&self, f: impl FnOnce(&mut ModHeap) -> R) -> R {
        let mut heap = self.inner.lock_heap().unwrap_or_else(|e| panic!("{e}"));
        // Workers never hold their shard lock while waiting on the
        // commit lock, so global → shards (in index order) cannot
        // deadlock; holding all of them means no FASE is mid-closure.
        let _shards: Vec<_> = self.inner.shards.iter().map(relock).collect();
        assert!(
            relock(&self.inner.queue).is_empty() && self.inner.queued.load(Ordering::SeqCst) == 0,
            "setup() with FASEs staged in the pipeline"
        );
        // Setup runs as the heap's single owner, so no view may be live
        // across it. Snapshot readers take no lock, so (like the
        // worker-FASE exclusion above) this is a caller contract; the
        // assert catches violations at entry.
        assert_eq!(heap.live_views(), 0, "setup() with live snapshot views");
        let out = f(&mut heap);
        self.inner.lanes.clear_heads();
        let frontier = self.inner.backend.appended();
        // Setup may have swung the directory: republish so views taken
        // after setup see the new roots immediately.
        self.inner.publish_snapshot(&mut heap, frontier);
        out
    }

    /// Read-only access to the heap (lookups, stats).
    ///
    /// # Panics
    ///
    /// Panics if the commit machinery is poisoned (see
    /// [`SharedModHeap::try_with`] for the non-panicking form).
    pub fn with<R>(&self, f: impl FnOnce(&ModHeap) -> R) -> R {
        match self.try_with(f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`SharedModHeap::with`], surfacing a poisoned commit lock as a
    /// typed error: a heap whose commit panicked midway may hold a
    /// half-merged batch, so reads must not silently proceed on it.
    ///
    /// # Errors
    ///
    /// Returns [`HeapPoisoned`] if a thread panicked mid-commit.
    pub fn try_with<R>(&self, f: impl FnOnce(&ModHeap) -> R) -> Result<R, HeapPoisoned> {
        Ok(f(&*self.inner.lock_heap()?))
    }

    /// Takes a consistent snapshot of every published root.
    ///
    /// The returned [`SnapshotView`] reads the multi-root image the
    /// most recently published batch left behind — all roots from the
    /// *same* batch, never a torn mix — and is **off the commit
    /// pipeline**: no staging lanes, no handoff push, no fences, no
    /// group lock, not the commit lock. The cost is one read-lock of the
    /// published image for an `Arc` clone — a leaf lock the commit stage
    /// write-holds only for the swap; traversals are then pure memory
    /// reads.
    ///
    /// Holding the view defers reclamation of every chain it can reach
    /// (see [`crate::snapshot`]) — drop it promptly. The view does not
    /// observe batches published after it was taken; take a fresh one
    /// for fresh data.
    ///
    /// Batches publish at commit, before any sync round, so under
    /// [`mod_pmem::Durability::Fsync`] a view may hold committed batches
    /// that are not on the medium yet. A reply that reveals what a view
    /// read must first [`SharedModHeap::wait_synced`] on
    /// [`SnapshotView::frontier`].
    pub fn snapshot(&self) -> SnapshotView<'_> {
        let snap = Arc::clone(&self.inner.published());
        SnapshotView {
            snap,
            nv: &self.inner.read_nv,
        }
    }

    /// The epoch of the most recently published snapshot (0 before the
    /// first committed batch; bumped once per committed batch and once
    /// per [`SharedModHeap::setup`]).
    pub fn snapshot_epoch(&self) -> u64 {
        self.inner.published().epoch
    }

    /// Number of currently live snapshot views, counted from the
    /// published images' reference counts under the commit lock —
    /// observability for reclamation stalls: a fence frees only what the
    /// oldest held image can no longer reach.
    pub fn live_reader_pins(&self) -> usize {
        self.inner.peek_heap().live_views()
    }

    /// Installs a hook that `commit_locked` runs between the directory
    /// swing and the snapshot publication — the race-window tests pin
    /// readers exactly there.
    #[cfg(test)]
    pub(crate) fn set_mid_commit_hook(&self, f: impl Fn() + Send + Sync + 'static) {
        *relock(&self.inner.mid_commit_hook.0) = Some(Box::new(f));
    }

    /// Pipeline counters — read lock-free from atomics, so the bench
    /// reporter never perturbs staging throughput.
    pub fn stats(&self) -> PipelineStats {
        self.inner.stats.snapshot()
    }

    /// Simulated wall-clock time: the slowest timeline (worker lanes run
    /// in parallel; batch fences synchronize them with the commit
    /// stage's clock).
    pub fn sim_wall_ns(&self) -> f64 {
        let mut wall = self.inner.peek_heap().nv().pm().clock().now_ns();
        for shard in &self.inner.shards {
            wall = wall.max(relock(shard).nv.pm().clock().now_ns());
        }
        wall
    }

    /// All timelines' PM counters rolled up into one total: each
    /// worker's staging activity (reads, writes, flushes, hidden drain
    /// overlap) plus the commit stage's fences. Snapshots are per-shard
    /// copies under each shard's own (uncontended) lock — the global
    /// commit lock is never taken.
    pub fn lane_stats(&self) -> PmStats {
        let mut total = PmStats::new();
        for shard in &self.inner.shards {
            total.merge(relock(shard).nv.pm().stats());
        }
        total.merge(self.inner.peek_heap().nv().pm().stats());
        total
    }

    /// Fraction of the workers' WPQ drain workload hidden under staging
    /// compute instead of stalled on at batch fences
    /// ([`mod_pmem::PmStats::overlap_ratio`] over all timelines). This
    /// is the number that shows group commits genuinely amortize: 0
    /// means every batch fence paid the full serialized drain, values
    /// toward 1 mean the pipelined staging hid it.
    pub fn overlap_ratio(&self) -> f64 {
        self.lane_stats().overlap_ratio()
    }

    /// Flushes the pipeline, then issues an extra fence so all deferred
    /// reclamation completes (see [`ModHeap::quiesce`]) — except chains
    /// a live snapshot view can still reach, which wait for a fence after
    /// it drops. Like every engine fence it syncs and checkpoints only
    /// after the commit lock is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the commit machinery is poisoned.
    pub fn quiesce(&self) {
        let mut heap = self.inner.lock_heap().unwrap_or_else(|e| panic!("{e}"));
        self.inner.commit_locked(&mut heap);
        heap.fence_and_drain(SyncRound::Deferred);
        drop(heap);
        self.inner.backend.checkpoint_if_due();
        self.wait_synced(self.inner.backend.appended());
    }

    /// Takes a crash image of the pool *as is* — staged-but-uncommitted
    /// FASEs are naturally lost (their lines still live in the worker
    /// handles), exactly like power failing mid-pipeline.
    ///
    /// # Panics
    ///
    /// Panics unless the pool was created with crash simulation.
    pub fn crash_image(&self, policy: CrashPolicy) -> Pmem {
        self.with(|h| h.nv().pm().crash_image(policy))
    }

    /// Unwraps the shared heap after all workers are done: flushes the
    /// pipeline and absorbs every worker shard (arena space, free lists,
    /// residual counters) back into the single-owner heap.
    ///
    /// # Panics
    ///
    /// Panics if other clones of this handle are still alive, or if the
    /// commit machinery is poisoned.
    pub fn into_heap(self) -> ModHeap {
        self.flush();
        let inner = Arc::try_unwrap(self.inner).expect("into_heap with live SharedModHeap clones");
        let mut heap = inner
            .global
            .into_inner()
            .unwrap_or_else(|_| panic!("{HeapPoisoned}"));
        for shard in inner.shards {
            // A worker that panicked (and was recovered via `relock`)
            // leaves its shard mutex poisoned but its state consistent.
            let ctx = shard.into_inner().unwrap_or_else(PoisonError::into_inner);
            heap.nv_mut().absorb_worker(ctx.nv);
        }
        // Sole owner now, so no snapshot view is live (views borrow the
        // handle this call consumed): releases still held for one go at
        // the next fence (`close`/`quiesce`).
        heap.clear_images();
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{DurableMap, DurableQueue};
    use mod_pmem::{BackendStats, Durability, PmemConfig};

    fn shared(workers: usize) -> SharedModHeap {
        SharedModHeap::create(Pmem::new(PmemConfig::testing()), workers)
    }

    #[test]
    fn batch_of_n_fases_costs_one_fence() {
        let sh = shared(4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let fences = sh.with(|h| h.nv().pm().stats().fences);
        for w in 0..4 {
            sh.fase(w, |tx| map.insert_in(tx, &(w as u64), &1));
        }
        let delta = sh.with(|h| h.nv().pm().stats().fences) - fences;
        assert_eq!(delta, 1, "four FASEs, one pipelined ordering point");
        let stats = sh.stats();
        assert_eq!(stats.fases, 4);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_fases, 4);
        assert_eq!(stats.max_batch, 4);
        // All four updates took effect (same-root FASEs chain on lanes).
        sh.with(|h| {
            for w in 0..4u64 {
                assert_eq!(map.get(h, &w), Some(1));
            }
        });
    }

    #[test]
    fn batch_fases_serialize_on_one_root() {
        // All workers increment the same key: lane chaining must
        // serialize them, not lose updates.
        let sh = shared(4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.setup(|h| map.insert(h, &0, &0));
        for _round in 0..3 {
            for w in 0..4 {
                sh.fase(w, |tx| {
                    let cur = map.get(&*tx, &0).unwrap();
                    map.insert_in(tx, &0, &(cur + 1));
                });
            }
        }
        sh.flush();
        assert_eq!(sh.with(|h| map.get(h, &0)), Some(12), "no lost updates");
    }

    #[test]
    fn fast_worker_stalls_pipeline_instead_of_overwriting() {
        let sh = shared(2);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        // Worker 0 stages twice in a row; the second fase laps the
        // half-full batch and, under the default zero wait, publishes it
        // at once instead of blocking.
        sh.fase(0, |tx| q.enqueue_in(tx, &1));
        sh.fase(0, |tx| q.enqueue_in(tx, &2));
        sh.fase(1, |tx| q.enqueue_in(tx, &3));
        let stats = sh.stats();
        assert_eq!(stats.fases, 3);
        // The stall drained {enq 1} as its own batch; {enq 2, enq 3}
        // completed the quorum and committed together.
        assert_eq!(stats.batches, 2, "stall split the batches");
        assert_eq!(stats.batched_fases, 3);
        sh.with(|h| assert_eq!(q.len(h), 3));
    }

    #[test]
    fn last_deregistering_worker_drains_the_pipeline() {
        // Worker 0 stages and leaves; worker 1 leaves without staging.
        // The moment no active worker remains, the staged batch must
        // commit — otherwise cleanly exiting workers would strand their
        // final (acknowledged) FASEs unfenced.
        let sh = shared(2);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        sh.fase(0, |tx| q.enqueue_in(tx, &1));
        sh.deregister(0);
        assert_eq!(sh.stats().batches, 0, "worker 1 still owes a FASE");
        sh.deregister(1);
        assert_eq!(sh.stats().batches, 1, "last deregister drains");
        sh.with(|h| assert_eq!(q.len(h), 1));
    }

    #[test]
    fn deregister_unblocks_partial_batch() {
        let sh = shared(3);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        sh.fase(0, |tx| q.enqueue_in(tx, &1));
        sh.fase(1, |tx| q.enqueue_in(tx, &2));
        // Worker 2 exits without staging: its deregistration completes
        // the quorum and the batch commits.
        sh.deregister(2);
        assert_eq!(sh.stats().batches, 1);
        sh.with(|h| assert_eq!(q.len(h), 2));
    }

    #[test]
    fn all_noop_batch_is_free() {
        let sh = shared(2);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        let fences = sh.with(|h| h.nv().pm().stats().fences);
        for w in 0..2 {
            sh.fase(w, |tx| {
                assert!(q.dequeue_in(tx).is_none());
            });
        }
        sh.flush();
        let delta = sh.with(|h| h.nv().pm().stats().fences) - fences;
        assert_eq!(delta, 0, "empty-queue dequeues commit nothing");
        assert_eq!(sh.stats().batches, 0);
    }

    #[test]
    fn batched_commit_is_durable_and_recoverable() {
        let sh = shared(4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        for w in 0..4u64 {
            sh.fase(w as usize, |tx| {
                q.enqueue_in(tx, &w);
                map.insert_in(tx, &w, &(w * 10));
            });
        }
        sh.quiesce();
        let img = sh.crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        let map: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        let q: DurableQueue<u64> = h2.root(1).open().unwrap();
        for w in 0..4u64 {
            assert_eq!(map.get(&h2, &w), Some(w * 10));
        }
        assert_eq!(q.len(&h2), 4);
    }

    #[test]
    fn crash_before_batch_commit_loses_whole_suffix_atomically() {
        let sh = shared(4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        // One full committed batch...
        for w in 0..4u64 {
            sh.fase(w as usize, |tx| {
                q.enqueue_in(tx, &w);
                map.insert_in(tx, &w, &w);
            });
        }
        sh.quiesce();
        // ...then a partial batch that never commits.
        for w in 0..2u64 {
            sh.fase(w as usize, |tx| {
                q.enqueue_in(tx, &(100 + w));
                map.insert_in(tx, &(100 + w), &w);
            });
        }
        let img = sh.crash_image(CrashPolicy::PersistAll);
        let (mut h2, _) = ModHeap::open(img);
        let map: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        let q: DurableQueue<u64> = h2.root(1).open().unwrap();
        assert_eq!(q.len(&h2), 4, "staged suffix gone");
        for w in 0..2u64 {
            assert!(map.get(&h2, &(100 + w)).is_none());
        }
        for w in 0..4u64 {
            assert_eq!(map.get(&h2, &w), Some(w), "committed batch intact");
        }
    }

    #[test]
    fn worker_timelines_overlap_in_simulated_time() {
        // The same total work spread over 4 worker timelines must finish
        // in less simulated wall time than on 1.
        let run = |workers: usize| {
            let sh = shared(workers);
            let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
            sh.setup(|h| h.nv_mut().pm_mut().reset_metrics());
            for i in 0..40u64 {
                sh.fase((i % workers as u64) as usize, |tx| {
                    tx.nv_mut().pm_mut().charge_ns(400.0);
                    map.insert_in(tx, &i, &i)
                });
            }
            sh.flush();
            sh.sim_wall_ns()
        };
        let solo = run(1);
        let four = run(4);
        assert!(four > 0.0);
        assert!(
            four < 0.8 * solo,
            "4-worker wall {four:.0} ns should be well under 1-worker {solo:.0} ns"
        );
    }

    #[test]
    fn batch_commit_overlaps_staging_with_drain() {
        // While workers 1..3 stage (compute + their own flushes), worker
        // 0's flushes drain in the background; the single batch fence
        // pays only the residual, so the timelines record real overlap.
        let sh = shared(4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.setup(|h| h.nv_mut().pm_mut().reset_metrics());
        for round in 0..5u64 {
            for w in 0..4 {
                sh.fase(w, |tx| {
                    tx.nv_mut().pm_mut().charge_ns(500.0); // app compute
                    map.insert_in(tx, &(round * 4 + w as u64), &(w as u64));
                });
            }
        }
        sh.flush();
        let ratio = sh.overlap_ratio();
        assert!(
            ratio > 0.0,
            "pipelined staging must hide some drain work, got {ratio:.3}"
        );
        let lanes = sh.lane_stats();
        assert!(lanes.overlap_ns > 0.0);
        assert!(lanes.residual_stall_ns >= 0.0);
    }

    #[test]
    fn lane_stats_roll_up_worker_activity() {
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.setup(|h| h.nv_mut().pm_mut().reset_metrics());
        for w in 0..2 {
            sh.fase(w, |tx| map.insert_in(tx, &(w as u64), &1));
        }
        sh.flush();
        let lanes = sh.lane_stats();
        assert!(lanes.writes > 0, "staging writes live on worker handles");
        assert_eq!(lanes.fences, 1, "the single batch fence");
        let global_writes = sh.with(|h| h.nv().pm().stats().writes);
        assert!(
            global_writes < lanes.writes,
            "commit stage writes only the directory swing"
        );
    }

    #[test]
    fn shared_heap_is_actually_shareable_across_threads() {
        let sh = shared(4);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        let mut handles = Vec::new();
        for w in 0..4 {
            let sh = sh.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    sh.fase(w, |tx| q.enqueue_in(tx, &(w as u64 * 100 + i)));
                }
                sh.deregister(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        sh.flush();
        sh.with(|h| assert_eq!(q.len(h), 100));
        // Unwrapping succeeds once the worker clones are gone.
        let mut heap = sh.into_heap();
        heap.quiesce();
        assert_eq!(heap.pending_reclaims(), 0);
    }

    #[test]
    fn disjoint_roots_stage_in_parallel_threads() {
        // One map per worker: no staging lane is ever shared, so 8
        // free-running threads stage with zero coordination and every
        // update lands. With a nonzero wait a lapping worker waits for
        // the open batch instead of force-draining it, so batches run
        // nearly full and fences/FASE stay near 1/max_batch rather than
        // degrading toward 1.
        const WORKERS: usize = 8;
        const PER_WORKER: u64 = 150;
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            WORKERS,
            CommitMode::Group {
                max_batch: WORKERS,
                timeout: Duration::from_millis(5),
            },
        );
        let maps: Vec<DurableMap<u64, u64>> =
            (0..WORKERS).map(|_| sh.setup(DurableMap::create)).collect();
        let fences = || sh.with(|h| h.nv().pm().stats().fences);
        let fences0 = fences();
        let mut handles = Vec::new();
        for (w, map) in maps.iter().enumerate() {
            let sh = sh.clone();
            let map = *map;
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WORKER {
                    sh.fase(w, |tx| map.insert_in(tx, &i, &(w as u64)));
                }
                sh.deregister(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        sh.flush();
        sh.with(|h| {
            for (w, map) in maps.iter().enumerate() {
                assert_eq!(map.len(h), PER_WORKER, "worker {w}'s map complete");
                assert_eq!(map.get(h, &7), Some(w as u64));
            }
        });
        let stats = sh.stats();
        assert_eq!(stats.fases, WORKERS as u64 * PER_WORKER);
        let per_fase = (fences() - fences0) as f64 / stats.fases as f64;
        let mean_batch = stats.batched_fases as f64 / stats.batches as f64;
        assert!(
            per_fase <= 0.2,
            "group commit must amortize fences, got {per_fase:.3}/FASE (mean batch {mean_batch:.2})"
        );
        assert!(
            mean_batch >= 5.0,
            "batches should run nearly full, got {mean_batch:.2}"
        );
    }

    #[test]
    fn group_commit_batches_without_quorum() {
        // Group mode publishes on max_batch, not on all-active-staged:
        // one fast worker's stream still amortizes fences.
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            2,
            CommitMode::Group {
                max_batch: 4,
                timeout: Duration::from_millis(50),
            },
        );
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        let fences = sh.with(|h| h.nv().pm().stats().fences);
        // Worker 0 and 1 alternate; no lap happens until 4 are staged,
        // at which point the batch publishes at once.
        sh.fase(0, |tx| q.enqueue_in(tx, &1));
        sh.fase(1, |tx| q.enqueue_in(tx, &2));
        assert_eq!(sh.stats().batches, 1, "quorum still commits a full house");
        sh.deregister(1);
        sh.fase(0, |tx| q.enqueue_in(tx, &3));
        sh.fase(0, |tx| q.enqueue_in(tx, &4));
        sh.flush();
        let delta = sh.with(|h| h.nv().pm().stats().fences) - fences;
        sh.with(|h| assert_eq!(q.len(h), 4));
        assert!(delta <= 3, "group mode amortized the commit points");
    }

    #[test]
    fn group_commit_timeout_bounds_fase_latency() {
        // A lapping worker in Group mode blocks — but no longer than
        // `timeout`, after which it publishes the batch itself. This is
        // the condvar path: nobody else ever commits here.
        let timeout = Duration::from_millis(30);
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            2,
            CommitMode::Group {
                max_batch: 8,
                timeout,
            },
        );
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        sh.fase(0, |tx| q.enqueue_in(tx, &1));
        let t0 = Instant::now();
        sh.fase(0, |tx| q.enqueue_in(tx, &2)); // laps: waits, then commits
        let waited = t0.elapsed();
        assert!(waited >= timeout, "second FASE must wait for the timeout");
        assert!(
            waited < timeout * 20,
            "timeout bounds the wait (took {waited:?})"
        );
        assert_eq!(sh.stats().batches, 1, "the lapped batch was forced out");
        sh.flush();
        sh.with(|h| assert_eq!(q.len(h), 2));
    }

    #[test]
    fn conflicting_lane_orders_retry_not_deadlock() {
        // Two threads repeatedly update the same two roots in opposite
        // orders. Ordered acquisition + conflict-abort-retry must make
        // progress and lose nothing.
        let sh = shared(2);
        let a: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let b: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.setup(|h| {
            a.insert(h, &0, &0);
            b.insert(h, &0, &0);
        });
        let mut handles = Vec::new();
        for w in 0..2usize {
            let sh = sh.clone();
            let (first, second) = if w == 0 { (a, b) } else { (b, a) };
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    sh.fase(w, |tx| {
                        // Read-modify-write: hold the lane before the read.
                        first.touch_in(tx);
                        let x = first.get(&*tx, &0).unwrap();
                        first.insert_in(tx, &0, &(x + 1));
                        second.touch_in(tx);
                        let y = second.get(&*tx, &0).unwrap();
                        second.insert_in(tx, &0, &(y + 1));
                    });
                }
                sh.deregister(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        sh.flush();
        sh.with(|h| {
            assert_eq!(a.get(h, &0), Some(100), "map a saw every increment");
            assert_eq!(b.get(h, &0), Some(100), "map b saw every increment");
        });
        // Livelock-freedom witness: every conflict-aborted attempt was
        // retried to completion (100 + 100 increments landed), and the
        // aborts are observable — never silent spinning.
        let stats = sh.stats();
        assert_eq!(stats.fases, 100, "every FASE committed despite conflicts");
        assert!(
            stats.lane_conflicts < CONFLICT_RETRY_CAP as u64 * 100,
            "bounded backoff kept retries finite: {} aborts",
            stats.lane_conflicts
        );
    }

    #[test]
    fn exhausted_conflict_budget_surfaces_typed_error() {
        // Worker 0 parks inside a FASE holding root 0's lane; worker 1
        // stages root 1 then root 0 — an out-of-order acquisition that
        // aborts, backs off and retries until the bounded budget runs
        // out and `try_fase` reports LaneContention instead of spinning
        // forever.
        use std::sync::mpsc;
        let sh = shared(2);
        let a: DurableMap<u64, u64> = sh.setup(DurableMap::create); // root 0
        let b: DurableMap<u64, u64> = sh.setup(DurableMap::create); // root 1
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let sh = sh.clone();
            std::thread::spawn(move || {
                sh.fase(0, |tx| {
                    a.insert_in(tx, &0, &1);
                    entered_tx.send(()).unwrap();
                    // Park while holding lane 0 until the peer gave up.
                    release_rx.recv().unwrap();
                });
            })
        };
        entered_rx.recv().unwrap();
        let err = sh
            .try_fase(1, |tx| {
                b.insert_in(tx, &0, &2); // lane 1: ascending, fine
                a.insert_in(tx, &0, &2); // lane 0: out of order → conflict
            })
            .unwrap_err();
        assert!(err.to_string().contains("bounded backoff"));
        let EngineError::Contention(err) = err else {
            panic!("lane exhaustion must surface as Contention, got {err:?}");
        };
        assert_eq!(err.worker, 1);
        assert_eq!(err.attempts, CONFLICT_RETRY_CAP);
        assert!(sh.stats().lane_conflicts >= CONFLICT_RETRY_CAP as u64);
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        // The aborted FASE rolled back cleanly: resubmitting it works.
        sh.fase(1, |tx| {
            b.insert_in(tx, &0, &2);
            a.insert_in(tx, &0, &2);
        });
        sh.flush();
        sh.with(|h| {
            assert_eq!(a.get(h, &0), Some(2));
            assert_eq!(b.get(h, &0), Some(2));
        });
    }

    #[test]
    fn file_backed_shared_heap_appends_one_record_per_batch_fence() {
        let mut path = std::env::temp_dir();
        path.push(format!("mod_shared_{}.pool", std::process::id()));
        let pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        let sh = SharedModHeap::create(pm, 4);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let setup_batches = sh.with(|h| h.nv().pm().backend_stats().fence_batches);
        for round in 0..3u64 {
            for w in 0..4 {
                sh.fase(w, |tx| map.insert_in(tx, &(round * 4 + w as u64), &round));
            }
        }
        let batches = sh.with(|h| h.nv().pm().backend_stats().fence_batches - setup_batches);
        assert_eq!(
            batches, 3,
            "12 FASEs in 3 batches: one fence record per group fence"
        );
        // Orderly close, then recover in a "new process" and verify.
        drop(sh.into_heap().close().unwrap());
        let (mut h2, _) = ModHeap::open_file(&path, PmemConfig::testing()).unwrap();
        let map2: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        for round in 0..3u64 {
            for w in 0..4u64 {
                assert_eq!(map2.get(&h2, &(round * 4 + w)), Some(round));
            }
        }
        for member in mod_pmem::FileBackend::member_paths(&path, 1) {
            std::fs::remove_file(member).unwrap();
        }
    }

    #[test]
    fn ticket_turns_durable_only_at_the_batch_fence() {
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let ((), ticket) = sh.fase_ticketed(0, |tx| {
            map.insert_in(tx, &1, &10);
        });
        // Staged but unpublished: an acknowledgement now would lie.
        assert!(!ticket.is_durable(), "no fence has run yet");
        assert_eq!(ticket.fence_ns(), None);
        sh.fase(1, |tx| map.insert_in(tx, &2, &20)); // completes the quorum
        assert!(ticket.is_durable(), "batch published ⇒ ticket durable");
        let fence = ticket.fence_ns().unwrap();
        assert!(fence > 0.0);
        // The watermark is the commit stage's clock at publish time.
        let last = f64::from_bits(sh.inner.last_fence_ns.load(Ordering::SeqCst));
        assert_eq!(fence.to_bits(), last.to_bits());
    }

    #[test]
    fn read_only_ticket_resolves_without_a_fence() {
        // An all-no-op batch publishes nothing (no fence) but its FASEs
        // wrote nothing either — their tickets must still resolve, or a
        // read-mostly connection would hang on replies forever.
        let sh = shared(2);
        let q: DurableQueue<u64> = sh.setup(DurableQueue::create);
        let (got, ticket) = sh.fase_ticketed(0, |tx| q.dequeue_in(tx));
        assert!(got.is_none());
        sh.fase(1, |tx| {
            assert!(q.dequeue_in(tx).is_none());
        });
        assert!(ticket.is_durable(), "no-op batch still resolves tickets");
        assert_eq!(sh.stats().batches, 0, "and it stayed free");
    }

    #[test]
    fn wait_durable_forces_the_batch_after_the_group_timeout() {
        // One connection on an otherwise idle server: nobody else will
        // ever stage, so wait_durable must publish the batch itself
        // after the mode's latency bound instead of deadlocking.
        let timeout = Duration::from_millis(20);
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            2,
            CommitMode::Group {
                max_batch: 8,
                timeout,
            },
        );
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let ((), ticket) = sh.fase_ticketed(0, |tx| {
            map.insert_in(tx, &7, &7);
        });
        assert!(!ticket.is_durable());
        let t0 = Instant::now();
        let fence = sh.wait_durable(&ticket);
        let waited = t0.elapsed();
        assert!(ticket.is_durable());
        assert_eq!(ticket.fence_ns(), Some(fence));
        assert!(waited >= timeout, "honored the group latency bound");
        assert!(waited < timeout * 20, "but not much more ({waited:?})");
        assert_eq!(sh.stats().batches, 1, "the waiter drained the batch");
        sh.with(|h| assert_eq!(map.get(h, &7), Some(7)));
    }

    #[test]
    fn tickets_turn_durable_per_batch_with_monotone_fence_watermarks() {
        // What a reply-after-fence front end relies on: a ticket resolves
        // exactly when its batch publishes, and a later batch's watermark
        // never precedes an earlier one's.
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let mut watermarks = Vec::new();
        for round in 0..3u64 {
            let ((), ticket) = sh.fase_ticketed(0, |tx| {
                map.insert_in(tx, &round, &round);
            });
            assert!(!ticket.is_durable(), "round {round}: batch still open");
            sh.fase(1, |tx| map.insert_in(tx, &(100 + round), &round));
            assert_eq!(sh.stats().batches, round + 1, "one batch per round");
            assert!(ticket.is_durable(), "round {round}: batch published");
            watermarks.push(ticket.fence_ns().unwrap());
        }
        assert!(
            watermarks.windows(2).all(|w| w[0] <= w[1]),
            "fence watermarks are monotone across batches: {watermarks:?}"
        );
    }

    #[test]
    fn early_publish_wakes_all_lapped_group_waiters() {
        // Regression for the missed-notify audit: two workers lap the
        // pipeline and park on the group condvar with a long timeout; a
        // third worker completes the quorum and the batch publishes
        // early. BOTH lapped waiters must wake promptly — if either
        // slept out the full timeout, a notify was lost.
        use std::sync::mpsc;
        let timeout = Duration::from_secs(5);
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            3,
            CommitMode::Group {
                max_batch: 64,
                timeout,
            },
        );
        let maps: Vec<DurableMap<u64, u64>> =
            (0..3).map(|_| sh.setup(DurableMap::create)).collect();
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for (w, &map) in maps.iter().enumerate().take(2) {
            let sh = sh.clone();
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                sh.fase(w, |t| map.insert_in(t, &0, &1)); // stages
                tx.send(w).unwrap();
                let t0 = Instant::now();
                sh.fase(w, |t| map.insert_in(t, &1, &2)); // laps: waits
                t0.elapsed()
            }));
        }
        // Both workers have a FASE in the open batch and are lapping.
        rx.recv().unwrap();
        rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let them park
        let t0 = Instant::now();
        sh.fase(2, |t| maps[2].insert_in(t, &0, &3)); // quorum → publish
        for h in handles {
            let waited = h.join().unwrap();
            assert!(
                waited < timeout / 2,
                "lapped waiter slept {waited:?} — missed the early publish"
            );
        }
        assert!(t0.elapsed() < timeout / 2);
        assert!(sh.stats().batches >= 1);
        sh.flush();
        sh.with(|h| {
            for map in &maps {
                assert_eq!(map.get(h, &0).map(|_| ()), Some(()));
            }
            assert_eq!(maps[0].get(h, &1), Some(2));
            assert_eq!(maps[1].get(h, &1), Some(2));
        });
    }

    #[test]
    fn worker_panic_does_not_poison_the_shard_for_later_fases() {
        // An application bug (a non-LaneConflict panic inside a FASE
        // closure) unwinds through the worker's shard guard and poisons
        // the mutex. `abort_fase` already rolled the staging back before
        // the unwind, so the shard state is consistent — later FASEs on
        // the same worker must recover the lock and commit normally
        // instead of cascading `PoisonError` panics to every caller.
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sh.fase(0, |tx| {
                map.insert_in(tx, &1, &1);
                panic!("application bug mid-FASE");
            })
        }));
        assert!(crashed.is_err(), "the app panic propagates to its caller");
        // The same worker keeps working; the aborted staging left no
        // trace.
        sh.fase(0, |tx| map.insert_in(tx, &2, &20));
        sh.fase(1, |tx| map.insert_in(tx, &3, &30));
        sh.flush();
        sh.with(|h| {
            assert_eq!(map.get(h, &1), None, "panicked FASE fully rolled back");
            assert_eq!(map.get(h, &2), Some(20));
            assert_eq!(map.get(h, &3), Some(30));
        });
        // Teardown absorbs the (recovered) poisoned shard cleanly too.
        let mut heap = sh.into_heap();
        heap.quiesce();
    }

    #[test]
    fn poisoned_commit_lock_surfaces_typed_errors_not_panics() {
        // Poison the GLOBAL commit lock (a panic while holding it, as a
        // mid-commit panic would) and verify every server-facing `try_*`
        // API degrades to a typed error instead of a panic cascade.
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        // A ticket staged before the poison: its durability wait must
        // also fail typed (the batch can never publish).
        let ((), ticket) = sh.fase_ticketed(0, |tx| map.insert_in(tx, &1, &1));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sh.setup(|_| panic!("die holding the commit lock"));
        }));
        assert!(crashed.is_err());
        assert_eq!(sh.try_with(|h| map.get(h, &1)), Err(HeapPoisoned));
        assert_eq!(sh.try_flush(), Err(HeapPoisoned));
        assert_eq!(sh.try_wait_durable(&ticket), Err(HeapPoisoned));
        // Worker 0 already has a staged FASE: its lap path hits the
        // poisoned commit. Worker 1 stages fresh and fails at the
        // commit-policy step (quorum complete, commit wedged).
        let err = sh.try_fase(0, |tx| map.insert_in(tx, &2, &2)).unwrap_err();
        assert_eq!(err, EngineError::Poisoned(HeapPoisoned));
        let err = sh
            .try_fase_ticketed(1, |tx| map.insert_in(tx, &3, &3))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, EngineError::Poisoned(HeapPoisoned));
        // Teardown paths tolerate the wedge instead of double-panicking.
        sh.deregister(0);
        sh.deregister(1);
        // Reporters still read (clocks and counters are plain values).
        let _ = sh.lane_stats();
        assert!(sh.sim_wall_ns() > 0.0);
        let _ = sh.overlap_ratio();
        // The panicking forms name the poison, not a `PoisonError`.
        fn panics_poisoned(f: impl FnOnce()) {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, HeapPoisoned.to_string());
        }
        panics_poisoned(|| sh.setup(|_| ()));
        panics_poisoned(|| sh.quiesce());
        panics_poisoned(|| drop(sh.into_heap()));
    }

    #[test]
    fn lapped_worker_and_timed_out_durability_waiters_all_release() {
        // Lock-order regression alongside
        // `early_publish_wakes_all_lapped_group_waiters`: two reader
        // threads park in `wait_durable` on tickets of an open batch
        // while a third worker laps the pipeline and parks in the group
        // wait. Nobody completes the quorum, so release depends entirely
        // on the bounded-wait fallback — each waiter must drop the group
        // lock *before* forcing the flush (group → global would
        // deadlock against the committer's global → group), and all
        // three threads must come back within a few timeouts. Worker 3
        // exists but never stages, so the quorum stays incomplete and
        // nothing publishes the batch early — release is the fallback's
        // job alone.
        use std::sync::mpsc;
        let timeout = Duration::from_millis(60);
        let sh = SharedModHeap::create_with(
            Pmem::new(PmemConfig::testing()),
            4,
            CommitMode::Group {
                max_batch: 64,
                timeout,
            },
        );
        let maps: Vec<DurableMap<u64, u64>> =
            (0..3).map(|_| sh.setup(DurableMap::create)).collect();
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for (w, &map) in maps.iter().enumerate().skip(1) {
            let sh = sh.clone();
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                let ((), ticket) = sh.fase_ticketed(w, |t| map.insert_in(t, &0, &(w as u64)));
                tx.send(()).unwrap();
                let t0 = Instant::now();
                let fence = sh.wait_durable(&ticket);
                assert!(fence > 0.0);
                assert!(ticket.is_durable());
                t0.elapsed()
            }));
        }
        rx.recv().unwrap();
        rx.recv().unwrap();
        let lapper = {
            let sh = sh.clone();
            let map = maps[0];
            std::thread::spawn(move || {
                sh.fase(0, |t| map.insert_in(t, &0, &0)); // stages batch 1
                let t0 = Instant::now();
                sh.fase(0, |t| map.insert_in(t, &1, &1)); // laps: parks
                t0.elapsed()
            })
        };
        for h in handles {
            let waited = h.join().unwrap();
            assert!(
                waited < timeout * 10,
                "durability waiter slept {waited:?} past the bounded fallback"
            );
        }
        let lapped = lapper.join().unwrap();
        assert!(
            lapped < timeout * 10,
            "lapped worker slept {lapped:?} past the group timeout"
        );
        assert!(sh.stats().batches >= 1, "someone forced the batch out");
        sh.flush();
        sh.with(|h| {
            for (w, map) in maps.iter().enumerate() {
                assert_eq!(map.get(h, &0), Some(w as u64));
            }
            assert_eq!(maps[0].get(h, &1), Some(1), "the lap's FASE landed too");
        });
    }

    #[test]
    fn fsync_group_commit_amortizes_fsync_rounds() {
        // Power-loss-grade durability at group-commit cost: with
        // `Durability::Fsync` on a 4-shard pool set and
        // `CommitMode::Group { max_batch: 4 }`, 16 FASEs commit in four
        // batches and pay no round at all — nothing acknowledged them.
        // The flush that does acknowledge pays one round for all four.
        let mut path = std::env::temp_dir();
        path.push(format!("mod_shared_fsync_{}.pool", std::process::id()));
        let cfg = PmemConfig {
            journal_shards: 4,
            durability: Durability::Fsync,
            ..PmemConfig::testing()
        };
        let pm = Pmem::create_file(&path, cfg.clone()).unwrap();
        let sh = SharedModHeap::create_with(
            pm,
            4,
            CommitMode::Group {
                max_batch: 4,
                timeout: Duration::from_millis(100),
            },
        );
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let before = sh.with(|h| h.nv().pm().backend_stats());
        assert_eq!(before.journal_shards, 4, "pool set is live");
        let fases = 16u64;
        for i in 0..fases {
            sh.fase((i % 4) as usize, |tx| map.insert_in(tx, &i, &i));
        }
        let rounds = || sh.with(|h| h.nv().pm().backend_stats().fsync_rounds) - before.fsync_rounds;
        assert_eq!(sh.stats().batches, 4);
        assert_eq!(rounds(), 0, "nothing acknowledged, nothing synced");
        sh.flush();
        assert_eq!(rounds(), 1, "one round covers all four batches");
        let after = sh.with(|h| h.nv().pm().backend_stats());
        assert!(
            after.fsyncs - before.fsyncs >= 1,
            "the round synced the dirty journals"
        );
        drop(sh.into_heap().close().unwrap());
        // The set survives reopen with everything acked present.
        let (mut h2, _) = ModHeap::open_file(&path, cfg).unwrap();
        let map2: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        for i in 0..fases {
            assert_eq!(map2.get(&h2, &i), Some(i));
        }
        drop(h2);
        for member in mod_pmem::FileBackend::member_paths(&path, 4) {
            std::fs::remove_file(member).unwrap();
        }
    }

    /// A fresh 2-shard pool set at a per-test temp path.
    fn two_shard_pool(name: &str, durability: Durability) -> (std::path::PathBuf, PmemConfig) {
        let mut path = std::env::temp_dir();
        path.push(format!("mod_shared_{name}_{}.pool", std::process::id()));
        let cfg = PmemConfig {
            journal_shards: 2,
            durability,
            ..PmemConfig::testing()
        };
        (path, cfg)
    }

    /// Two threads × `per_worker` ticketed FASEs, every `wait_every`-th
    /// waited on, through `CommitMode::Group { max_batch: 2 }` into a map
    /// at root 0. Returns the heap and the (pipeline, fence, backend)
    /// deltas of the threaded phase.
    fn ticketed_pairs(
        pm: Pmem,
        per_worker: u64,
        wait_every: u64,
    ) -> (SharedModHeap, PipelineStats, u64, BackendStats) {
        let sh = SharedModHeap::create_with(
            pm,
            2,
            CommitMode::Group {
                max_batch: 2,
                timeout: Duration::from_millis(20),
            },
        );
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        let counters = || sh.with(|h| (h.nv().pm().stats().fences, h.nv().pm().backend_stats()));
        let (fences0, be0) = counters();
        std::thread::scope(|s| {
            for w in 0..2usize {
                let sh = &sh;
                s.spawn(move || {
                    for i in 0..per_worker {
                        let key = 1000 * w as u64 + i;
                        let ((), t) = sh.fase_ticketed(w, |tx| map.insert_in(tx, &key, &i));
                        if (i + 1) % wait_every == 0 {
                            sh.wait_durable(&t);
                            assert!(t.is_durable());
                        }
                    }
                    sh.deregister(w);
                });
            }
        });
        // `setup` commits owner-mode: the pipeline counts start at zero.
        let (pipe, (fences, be)) = (sh.stats(), counters());
        let be = BackendStats {
            fsyncs: be.fsyncs - be0.fsyncs,
            fsync_rounds: be.fsync_rounds - be0.fsync_rounds,
            ..be
        };
        (sh, pipe, fences - fences0, be)
    }

    #[test]
    fn fsync_pays_at_most_one_round_per_wait() {
        // Every ticketed batch fences twice (data, then the covering
        // fence for its directory swing), but only a wait runs a sync
        // round — after the batch commits, outside the commit lock — and
        // one round covers every batch committed before it. Waiting on
        // every 8th FASE, rounds ≤ waits ≪ batches, and every acked FASE
        // is on the medium.
        const PER_WORKER: u64 = 24;
        const WAIT_EVERY: u64 = 8;
        let (path, cfg) = two_shard_pool("ticketed_fsync", Durability::Fsync);
        let pm = Pmem::create_file(&path, cfg.clone()).unwrap();
        let (sh, pipe, fences, be) = ticketed_pairs(pm, PER_WORKER, WAIT_EVERY);
        let waits = 2 * PER_WORKER / WAIT_EVERY;
        assert_eq!(pipe.fases, 2 * PER_WORKER);
        assert!(pipe.batches >= PER_WORKER, "{} batches", pipe.batches);
        assert_eq!(fences, 2 * pipe.batches, "data + covering fence per batch");
        assert!(
            (1..=waits).contains(&be.fsync_rounds),
            "{} rounds for {waits} waits",
            be.fsync_rounds
        );
        assert!(be.fsyncs >= be.fsync_rounds);
        drop(sh.into_heap().close().unwrap());
        let (mut h2, _) = ModHeap::open_file(&path, cfg).unwrap();
        let map2: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        for w in 0..2u64 {
            for i in 0..PER_WORKER {
                assert_eq!(map2.get(&h2, &(1000 * w + i)), Some(i), "acked FASE lost");
            }
        }
        drop(h2);
        for member in mod_pmem::FileBackend::member_paths(&path, 2) {
            std::fs::remove_file(member).unwrap();
        }
    }

    #[test]
    fn fsync_owner_heap_syncs_every_fence_and_buffered_never() {
        // Same pool shape, the other two cases: an owner-mode heap
        // acknowledges at every FASE, so every fence keeps its round; a
        // buffered pool set never fsyncs, ticketed batches or not.
        let (path, cfg) = two_shard_pool("owner_fsync", Durability::Fsync);
        let mut heap = ModHeap::create_file(&path, cfg).unwrap();
        let map: DurableMap<u64, u64> = heap.root(0).create();
        let counters = |h: &ModHeap| (h.nv().pm().stats().fences, h.nv().pm().backend_stats());
        let (fences0, be0) = counters(&heap);
        for i in 0..16u64 {
            map.insert(&mut heap, &i, &i);
        }
        let (fences, be) = counters(&heap);
        assert_eq!(fences - fences0, 16);
        assert_eq!(be.fsync_rounds - be0.fsync_rounds, fences - fences0);
        drop(heap);
        for member in mod_pmem::FileBackend::member_paths(&path, 2) {
            std::fs::remove_file(member).unwrap();
        }

        let (path, cfg) = two_shard_pool("buffered_pairs", Durability::Buffered);
        let pm = Pmem::create_file(&path, cfg).unwrap();
        let (sh, pipe, _, be) = ticketed_pairs(pm, 8, 1);
        assert!(pipe.batches > 0);
        assert_eq!(
            (be.fsyncs, be.fsync_rounds),
            (0, 0),
            "buffered never fsyncs"
        );
        drop(sh);
        for member in mod_pmem::FileBackend::member_paths(&path, 2) {
            std::fs::remove_file(member).unwrap();
        }
    }

    #[test]
    fn fsync_snapshot_frontier_wait_syncs_a_committed_batch_once() {
        // A committed batch nobody waited on is visible in `snapshot()`
        // at once — publication does not wait for the medium. Waiting on
        // the view's frontier runs exactly one round under `Fsync` (which
        // covers the batch's ticket too) and none under `Buffered`.
        for (name, durability, want) in [
            ("snap_fsync", Durability::Fsync, 1),
            ("snap_buffered", Durability::Buffered, 0),
        ] {
            let (path, cfg) = two_shard_pool(name, durability);
            let sh = SharedModHeap::create(Pmem::create_file(&path, cfg).unwrap(), 1);
            let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
            let rounds = || sh.with(|h| h.nv().pm().backend_stats().fsync_rounds);
            let before = rounds();
            let ((), ticket) = sh.fase_ticketed(0, |tx| map.insert_in(tx, &1, &10));
            assert_eq!(sh.stats().batches, 1, "the lone worker's batch committed");
            let buffered = durability == Durability::Buffered;
            assert_eq!(ticket.is_durable(), buffered, "{name}: before any round");
            let view = sh.snapshot();
            assert_eq!(map.get(&view, &1), Some(10), "{name}: visible unsynced");
            let frontier = view.frontier();
            drop(view);
            sh.wait_synced(frontier);
            assert_eq!(rounds() - before, want, "{name}");
            assert!(ticket.is_durable(), "{name}: the round covered the ticket");
            sh.wait_synced(frontier);
            sh.wait_durable(&ticket);
            assert_eq!(rounds() - before, want, "{name}: covered waits are free");
            drop(sh);
            for member in mod_pmem::FileBackend::member_paths(&path, 2) {
                std::fs::remove_file(member).unwrap();
            }
        }
    }

    #[test]
    fn fsync_rounds_and_checkpoints_never_run_under_the_commit_lock() {
        // The mid-commit hook runs inside `commit_locked`, after both of
        // a batch's fences. Backend counters read there must equal those
        // read just before the FASE: no round and no checkpoint ran under
        // the commit lock — although every FASE is waited on (rounds do
        // run) and the journal crosses the checkpoint threshold
        // (checkpoints do run), all after the lock is dropped.
        const FASES: u64 = 400;
        let (path, cfg) = two_shard_pool("unlocked_fsync", Durability::Fsync);
        let sh = SharedModHeap::create(Pmem::create_file(&path, cfg).unwrap(), 1);
        let map: DurableMap<u64, Vec<u8>> = sh.setup(DurableMap::create);
        let backend = Arc::clone(&sh.inner.backend);
        let counts = move || {
            let s = backend.stats();
            (s.fsync_rounds, s.compactions)
        };
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let (seen, counts) = (Arc::clone(&seen), counts.clone());
            sh.set_mid_commit_hook(move || seen.lock().unwrap().push(counts()));
        }
        let value = vec![7u8; 4096];
        for i in 0..FASES {
            let before = counts();
            let ((), t) = sh.fase_ticketed(0, |tx| map.insert_in(tx, &i, &value));
            let mid = seen.lock().unwrap().pop().expect("the batch committed");
            assert_eq!(mid, before, "FASE {i}: durability work under the lock");
            sh.wait_durable(&t);
        }
        let (rounds, compactions) = counts();
        assert!(compactions >= 1, "no checkpoint came due");
        assert!(
            rounds + compactions >= FASES,
            "each wait was covered by a round or a checkpoint's step 0"
        );
        drop(sh);
        for member in mod_pmem::FileBackend::member_paths(&path, 2) {
            std::fs::remove_file(member).unwrap();
        }
    }

    #[test]
    fn register_restores_a_slot_to_the_quorum() {
        let sh = shared(2);
        let map: DurableMap<u64, u64> = sh.setup(DurableMap::create);
        sh.deregister(1);
        // With slot 1 inactive, worker 0 alone is the quorum.
        sh.fase(0, |tx| map.insert_in(tx, &1, &1));
        assert_eq!(sh.stats().batches, 1, "solo quorum commits immediately");
        sh.register(1);
        sh.fase(0, |tx| map.insert_in(tx, &2, &2));
        assert_eq!(sh.stats().batches, 1, "slot 1 active again: batch waits");
        sh.fase(1, |tx| map.insert_in(tx, &3, &3));
        assert_eq!(sh.stats().batches, 2, "full quorum commits");
        sh.with(|h| {
            for k in 1..=3u64 {
                assert_eq!(map.get(h, &k), Some(k));
            }
        });
    }
}
