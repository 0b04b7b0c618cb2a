//! The simulated persistent-memory device and cache hierarchy.
//!
//! [`Pmem`] is the single chokepoint through which every persistent access
//! flows. It implements the semantics the paper depends on:
//!
//! * stores land in a (simulated) volatile cache and mark their cacheline
//!   *dirty* — they are **not** durable;
//! * `clwb` starts a weakly-ordered writeback: the line becomes
//!   *in-flight* and its drain is scheduled on the line's WPQ lane
//!   ([`crate::WpqDrain`]) **from issue time**, overlapping freely with
//!   other flushes and with any compute charged afterwards (§3, Fig 3);
//! * `sfence` stalls only until the latest in-flight drain completes —
//!   the *residual* of the background calendar, which saturates to the
//!   Amdahl stall of [`LatencyModel::fence_stall_ns`] when nothing
//!   overlaps — and only then is the flushed data guaranteed durable.
//!   The hidden share is accounted in [`PmStats::overlap_ns`], the paid
//!   share in [`PmStats::residual_stall_ns`];
//! * at a crash, durable data survives, and so does every in-flight line
//!   whose background drain had already completed on the global timeline
//!   (*drained-but-unfenced*: the writeback physically reached the
//!   medium). Any subset of dirty and *issued-but-undrained* lines may
//!   additionally persist (cache evictions, drains racing the failure),
//!   which [`Pmem::crash_image`] models with a pluggable [`CrashPolicy`].

use crate::arena::SharedArena;
use crate::backend::{
    BackendKind, BackendStats, Durability, FileBackend, MemBackend, PoolBackend, SyncRound,
};
use crate::cache::{CacheConfig, CacheSim, CacheStats};
use crate::clock::{SimClock, TimeCategory};
use crate::drain::WpqDrain;
use crate::journal::{BatchKind, LineImage};
use crate::line::{line_of, lines_covering, CACHELINE};
use crate::linetable::{LineState, LineTable};
use crate::model::LatencyModel;
use crate::stats::PmStats;
use crate::trace::TraceEvent;
use crate::volatile::VolatileSet;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Construction parameters for a simulated PM pool.
#[derive(Clone, Debug)]
pub struct PmemConfig {
    /// Pool capacity in bytes.
    pub capacity: u64,
    /// Maintain a durable image so crashes can be simulated. Costs one
    /// extra lazily-populated arena.
    pub crash_sim: bool,
    /// Record a [`TraceEvent`] stream (for the §5.4 checker).
    pub trace: bool,
    /// Latency parameters.
    pub latency: LatencyModel,
    /// L1D geometry.
    pub cache: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// Durability grade of a file-backed pool (ignored by memory-backed
    /// pools). Under [`Durability::Fsync`] a sync round makes everything
    /// journaled before it power-loss durable; the default
    /// [`Durability::Buffered`] is process-kill grade.
    pub durability: Durability,
    /// Journal shard count for [`Pmem::create_file`]: the pool is the base
    /// file plus this many journal files `path.s0 …` (one per contiguous
    /// address range, replayed in parallel on open). Clamped to `1..=64`;
    /// the default is 1. On [`Pmem::open_file`] the shard count comes
    /// from the file set itself, not this field.
    pub journal_shards: u16,
    /// Enable the fence-epoch flush cache: a `clwb` whose writeback could
    /// not change what persists — the line is already in flight and not
    /// re-dirtied since the last `sfence`, is clean, or its content is
    /// bit-identical to its last-fenced image — is elided: no issue
    /// charge, no WPQ slot, counted in [`PmStats::flushes_deduped`].
    /// Off restores the issue-everything pipeline (requests that schedule
    /// nothing still pay the issue charge); classification counters are
    /// maintained either way.
    pub coalesce_flushes: bool,
}

impl Default for PmemConfig {
    fn default() -> PmemConfig {
        PmemConfig {
            capacity: 1 << 30,
            crash_sim: false,
            trace: false,
            latency: LatencyModel::optane(),
            cache: CacheConfig::l1d(),
            llc: CacheConfig::llc(),
            durability: Durability::Buffered,
            journal_shards: 1,
            coalesce_flushes: true,
        }
    }
}

impl PmemConfig {
    /// A small pool with crash simulation and tracing enabled — the
    /// configuration used by most tests.
    pub fn testing() -> PmemConfig {
        PmemConfig {
            capacity: 1 << 26,
            crash_sim: true,
            trace: true,
            ..PmemConfig::default()
        }
    }

    /// A pool tuned for benchmarking: no crash image, no tracing.
    pub fn benchmarking(capacity: u64) -> PmemConfig {
        PmemConfig {
            capacity,
            crash_sim: false,
            trace: false,
            ..PmemConfig::default()
        }
    }
}

/// Which non-durable lines additionally persist at a crash.
#[derive(Copy, Clone, Debug)]
pub enum CrashPolicy {
    /// Only fenced (guaranteed-durable) data survives: the most lossy
    /// legal outcome.
    OnlyFenced,
    /// Every dirty and in-flight line happens to be written back: the most
    /// complete legal outcome.
    PersistAll,
    /// Each dirty/in-flight line persists pseudo-randomly (deterministic
    /// in the seed) — for adversarial property testing over many subsets.
    Seeded(u64),
}

impl CrashPolicy {
    fn keeps(self, line: u64) -> bool {
        match self {
            CrashPolicy::OnlyFenced => false,
            CrashPolicy::PersistAll => true,
            CrashPolicy::Seeded(seed) => {
                // SplitMix64 over (seed ^ line): decide by parity bit.
                let mut z = seed ^ line.wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) & 1 == 1
            }
        }
    }
}

/// Volatile line states in transit from a worker's shard handle to the
/// commit-stage pool (see [`Pmem::take_lines`] / [`Pmem::absorb_lines`]).
/// Opaque: the line-state machine stays private to this module.
#[derive(Debug)]
pub struct LineHandoff {
    lines: Vec<(u64, LineState)>,
    /// In-flight count among `lines` (sanity checking).
    inflight: usize,
    /// WPQ calendar watermark: completion time of the latest drain the
    /// worker scheduled, on the worker's (comparable) clock.
    drain_last_done: f64,
}

impl LineHandoff {
    /// Number of lines in transit.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the handoff carries no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// In-flight (flushed-but-unfenced) lines in transit.
    pub fn inflight(&self) -> usize {
        self.inflight
    }
}

/// How a pool file was rebuilt by [`Pmem::open_file`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Complete batch records applied.
    pub batches: u64,
    /// Line images applied from those batches.
    pub lines: u64,
    /// Bytes discarded as a torn/corrupt journal tail.
    pub torn_bytes: u64,
    /// Host (wall-clock) nanoseconds the replay took.
    pub host_ns: u64,
    /// Journal scan threads the open used: the pool's shard count.
    pub replay_parallelism: u64,
}

/// The simulated PM pool plus its cache hierarchy, clock and counters.
#[derive(Debug)]
pub struct Pmem {
    cfg: PmemConfig,
    data: SharedArena,
    durable: Option<SharedArena>,
    /// Where durable bytes live ([`MemBackend`] or [`FileBackend`]);
    /// shared with every forked shard handle.
    backend: Arc<dyn PoolBackend>,
    /// Set by [`Pmem::open_file`] on the pool it returns.
    replay: Option<ReplayStats>,
    lines: LineTable,
    cache: CacheSim,
    llc: CacheSim,
    clock: SimClock,
    stats: PmStats,
    /// WPQ drain calendar of the global timeline (also the authority for
    /// per-line drained-at-crash decisions).
    drain: WpqDrain,
    /// Volatile node-cache marks ("Don't Persist All" hybrid roots):
    /// shared by every forked handle, empty on crash images and fresh
    /// opens — volatility is process state.
    volatile: Arc<VolatileSet>,
    trace: Vec<TraceEvent>,
}

impl Pmem {
    /// Creates a zero-filled, memory-backed pool (the pool dies with the
    /// process; see [`Pmem::create_file`] for one that does not).
    pub fn new(cfg: PmemConfig) -> Pmem {
        Pmem::fresh_on(cfg, Arc::new(MemBackend))
    }

    /// Formats a fresh **file-backed** pool at `path` (truncating any
    /// existing members): the base file and its shard journals are
    /// written and synced, and from then on every `sfence` appends its
    /// durable lines to the journal.
    pub fn create_file(path: &Path, cfg: PmemConfig) -> io::Result<Pmem> {
        let backend =
            FileBackend::create_set(path, cfg.capacity, cfg.journal_shards, cfg.durability)?;
        Ok(Pmem::fresh_on(cfg, Arc::new(backend)))
    }

    /// A zero-filled pool writing through `backend`.
    fn fresh_on(cfg: PmemConfig, backend: Arc<dyn PoolBackend>) -> Pmem {
        let data = SharedArena::new(cfg.capacity);
        // The durable image is maintained unconditionally: besides crash
        // simulation it is the fence-epoch flush cache's authority for
        // "bytes already persistent" (see `clwb`). Segments materialize
        // lazily, so the cost tracks the touched working set, not
        // capacity.
        let durable = SharedArena::new(cfg.capacity);
        Pmem::from_parts(cfg, data, Some(durable), backend, None, None)
    }

    /// Opens an existing file-backed pool: the base file's image is
    /// streamed straight into a fresh arena, then every complete journal
    /// batch at or above the checkpoint mark is replayed over it; a torn
    /// tail (a record the dying process never finished writing) is
    /// discarded and truncated away, so recovery lands on the last
    /// complete fence, never a partial batch. The pool's capacity comes
    /// from the file header (overriding `cfg.capacity`); volatile state
    /// starts cold, exactly like a machine after the crash. Replay
    /// metrics are reported by [`Pmem::replay_stats`].
    pub fn open_file(path: &Path, cfg: PmemConfig) -> io::Result<Pmem> {
        let t0 = std::time::Instant::now();
        let (backend, replay) = FileBackend::open_with(path, cfg.durability)?;
        let mut cfg = cfg;
        cfg.capacity = replay.capacity;
        let data = SharedArena::new(replay.capacity);
        backend.load_image(&data)?;
        let mut lines = 0u64;
        for b in &replay.batches {
            for l in &b.lines {
                data.write(l.addr, &l.data);
                lines += 1;
            }
        }
        let durable = data.snapshot();
        let stats = ReplayStats {
            batches: replay.batches.len() as u64,
            lines,
            torn_bytes: replay.torn_bytes,
            host_ns: t0.elapsed().as_nanos() as u64,
            replay_parallelism: backend.shard_count() as u64,
        };
        Ok(Pmem::from_parts(
            cfg,
            data,
            Some(durable),
            Arc::new(backend),
            Some(stats),
            None,
        ))
    }

    fn from_parts(
        cfg: PmemConfig,
        data: SharedArena,
        durable: Option<SharedArena>,
        backend: Arc<dyn PoolBackend>,
        replay: Option<ReplayStats>,
        // The pool's shared volatile-mark set; `None` starts an empty one.
        volatile: Option<Arc<VolatileSet>>,
    ) -> Pmem {
        Pmem {
            data,
            durable,
            backend,
            replay,
            lines: LineTable::default(),
            cache: CacheSim::new(cfg.cache.clone()),
            llc: CacheSim::new(cfg.llc.clone()),
            clock: SimClock::new(),
            stats: PmStats::new(),
            drain: WpqDrain::new(),
            volatile: volatile.unwrap_or_else(|| Arc::new(VolatileSet::new(cfg.capacity))),
            trace: Vec::new(),
            cfg,
        }
    }

    /// Which persistence backend this pool writes through.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Backend observability counters (journal bytes, batches appended,
    /// checkpoints). All zero for memory-backed pools.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Replay metrics, if this pool was produced by [`Pmem::open_file`].
    pub fn replay_stats(&self) -> Option<&ReplayStats> {
        self.replay.as_ref()
    }

    /// Total on-disk bytes of the pool's file(s); 0 for memory-backed
    /// pools. A missing pool member surfaces as a typed io error naming
    /// the file — never a panic.
    pub fn backend_file_bytes(&self) -> io::Result<u64> {
        self.backend.durable_file_bytes()
    }

    /// Reads the 64 content bytes of each line in `addrs` (peek path: no
    /// cache/time charges — journal appends are not simulated work).
    fn line_images(&self, addrs: &[u64]) -> Vec<LineImage> {
        addrs
            .iter()
            .map(|&addr| {
                let mut data = [0u8; CACHELINE as usize];
                self.data.read(addr, &mut data);
                LineImage { addr, data }
            })
            .collect()
    }

    /// Orderly checkpoint of a file-backed pool: appends every
    /// *drained-but-unfenced* line to the journal (their background
    /// writebacks completed — per the crash model they reached the
    /// medium), then writes everything journaled since the last
    /// checkpoint home into the base image and truncates the journal
    /// (see [`PoolBackend::checkpoint`]); on `Ok` the pool is on stable
    /// storage. No-op (and `Ok`) on memory-backed pools.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        if !self.backend.wants_batches() {
            return Ok(());
        }
        let now = self.clock.now_ns();
        let mut drained: Vec<u64> = self
            .lines
            .iter()
            .filter(|(_, s)| matches!(s, LineState::Inflight { done_ns } if *done_ns <= now))
            .map(|(l, _)| l)
            .collect();
        drained.sort_unstable();
        if !drained.is_empty() {
            if let Some(d) = self.durable.as_ref() {
                for &l in &drained {
                    d.copy_from(&self.data, l, CACHELINE);
                }
            }
            let images = self.line_images(&drained);
            self.backend.append_batch(BatchKind::Drained, &images, now);
        }
        self.backend.checkpoint()
    }

    /// The pool configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Charges `ns` to the current attribution tag.
    fn tick_tagged(&mut self, ns: f64) {
        self.clock.advance_as(self.clock.current_tag(), ns);
    }

    // ------------------------------------------------------------------
    // Access paths
    // ------------------------------------------------------------------

    /// Two-level lookup: L1 hit, else LLC hit, else PM.
    fn access_cost(&mut self, line: u64, hit_ns: f64) -> f64 {
        if self.cache.access(line) {
            return hit_ns;
        }
        if self.llc.access(line) {
            return self.cfg.latency.llc_hit_ns;
        }
        self.cfg.latency.pm_miss_ns
    }

    /// Charges a load of `len` bytes at `addr` to the cache model.
    /// Volatile node-cache lines bypass the model: a hybrid root's
    /// interior index is DRAM state, not simulated PM traffic.
    fn charge_load(&mut self, addr: u64, len: u64) {
        if self.volatile.contains(addr) {
            return;
        }
        for l in lines_covering(addr, len) {
            let ns = self.access_cost(l, self.cfg.latency.l1_hit_ns);
            self.tick_tagged(ns);
        }
        self.stats.reads += 1;
    }

    /// Everything a store of `len` bytes at `addr` does besides moving
    /// the bytes; must run *before* the data array changes.
    fn charge_store(&mut self, addr: u64, len: u64) {
        if self.volatile.contains(addr) {
            // Volatile node-cache store: never dirty, never flushed,
            // never journaled, never charged. The line can't be in the
            // dirty/in-flight table (volatile blocks own whole lines and
            // are marked before their first store), so the raced-
            // writeback pre-image logic below can't apply either.
            debug_assert!(
                lines_covering(addr, len).all(|l| self.volatile.contains(l)),
                "write straddles a volatile/persistent block boundary"
            );
            return;
        }
        // Every covered line becomes dirty. A store that races an
        // in-flight writeback is modelled as the writeback completing
        // with the pre-store content (a legal outcome — and the one
        // `sfence` would have guaranteed): persist that content while
        // `data` still holds it, and have a file backend journal it as a
        // drained batch. The new store leaves the line dirty again.
        let mut raced: Vec<u64> = Vec::new();
        for l in lines_covering(addr, len) {
            if let Some(LineState::Inflight { .. }) = self.lines.set(l, LineState::Dirty) {
                if let Some(durable) = self.durable.as_ref() {
                    durable.copy_from(&self.data, l, CACHELINE);
                    raced.push(l);
                }
            }
        }
        if !raced.is_empty() && self.backend.wants_batches() {
            let images = self.line_images(&raced);
            self.backend
                .append_batch(BatchKind::Drained, &images, self.clock.now_ns());
        }
        for l in lines_covering(addr, len) {
            // Write-allocate: a miss performs a read-for-ownership fill.
            let ns = self.access_cost(l, self.cfg.latency.store_ns);
            self.tick_tagged(ns);
        }
        self.stats.writes += 1;
        self.stats.bytes_written += len;
        if self.cfg.trace {
            self.trace.push(TraceEvent::Write { addr, len });
        }
    }

    /// Reads `buf.len()` bytes at `addr` through the cache model.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.charge_load(addr, buf.len() as u64);
        self.data.read(addr, buf);
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_vec(&mut self, addr: u64, len: u64) -> Vec<u8> {
        let mut v = vec![0u8; len as usize];
        self.read_bytes(addr, &mut v);
        v
    }

    /// Reads `out.len()` little-endian words at the 8-byte aligned
    /// `addr`; charged exactly like [`Pmem::read_bytes`] of the same
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or the range is out of bounds.
    pub fn read_words(&mut self, addr: u64, out: &mut [u64]) {
        self.charge_load(addr, out.len() as u64 * 8);
        self.data.read_words(addr, out);
    }

    /// Writes `buf` at `addr` through the cache model (store, not flush).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        self.charge_store(addr, buf.len() as u64);
        self.data.write(addr, buf);
    }

    /// Writes `words` as little-endian `u64`s at the 8-byte aligned
    /// `addr`; charged exactly like [`Pmem::write_bytes`] of the same
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or the range is out of bounds.
    pub fn write_words(&mut self, addr: u64, words: &[u64]) {
        self.charge_store(addr, words.len() as u64 * 8);
        self.data.write_words(addr, words);
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.charge_load(addr, 8);
        self.data.read_u64(addr)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.charge_store(addr, 8);
        self.data.write_u64(addr, v);
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_bytes(addr, &[v]);
    }

    /// Debug/recovery peek that bypasses the cache model, clock and stats.
    /// Use sparingly: performance-relevant paths must use [`Pmem::read_bytes`].
    pub fn peek_bytes(&self, addr: u64, buf: &mut [u8]) {
        self.data.read(addr, buf);
    }

    /// Debug peek of a `u64`, bypassing the performance model.
    pub fn peek_u64(&self, addr: u64) -> u64 {
        self.data.read_u64(addr)
    }

    /// [`Pmem::read_words`] without the cache model, clock or stats.
    pub fn peek_words(&self, addr: u64, out: &mut [u64]) {
        self.data.read_words(addr, out);
    }

    // ------------------------------------------------------------------
    // Persistence operations
    // ------------------------------------------------------------------

    /// Whether `line`'s cached content is bit-identical to its
    /// last-fenced (durable) image: flushing such a line cannot change
    /// what persists, under any crash policy, at any point in time.
    /// Bypasses the cache/latency model — this is the software flush
    /// cache's bookkeeping, not a simulated memory access.
    fn line_matches_fenced_image(&self, line: u64) -> bool {
        let Some(durable) = self.durable.as_ref() else {
            return false;
        };
        let len = CACHELINE.min(self.cfg.capacity - line);
        self.data.range_eq(durable, line, len)
    }

    /// Issues a `clwb` for the line containing `addr`: a weakly-ordered
    /// writeback that overlaps with other flushes. The line may stay in
    /// the cache (clwb does not evict). The writeback launches as the
    /// instruction issues: its background drain is scheduled on the
    /// line's WPQ lane at the pre-issue timestamp of every timeline, so
    /// compute charged between here and the next `sfence` hides drain
    /// work.
    ///
    /// With [`PmemConfig::coalesce_flushes`] on (the default), requests
    /// pass through a **fence-epoch flush cache** first: a request whose
    /// writeback provably cannot change what persists is elided — no
    /// issue charge, no WPQ slot — and counted in
    /// [`PmStats::flushes_deduped`]. Three cases qualify:
    ///
    /// * the line is already in flight and has not been re-dirtied since
    ///   (the writeback is already scheduled);
    /// * the line is clean (there is nothing to write back);
    /// * the line is dirty but bit-identical to its last-fenced image
    ///   (the steady-state shadow-update case: a recycled block is
    ///   rewritten with mostly-unchanged content, so most of its lines
    ///   carry bytes the medium already holds).
    pub fn clwb(&mut self, addr: u64) {
        let line = line_of(addr);
        self.stats.flushes_issued += 1;
        if self.volatile.contains(line) {
            // Flush of a volatile node-cache line: the whole point of
            // the hybrid policy is that this writeback never happens.
            // Count what full persistence would have paid.
            self.stats.flushes_avoided += 1;
            return;
        }
        let coalesce = self.cfg.coalesce_flushes;
        let mut effective = matches!(self.lines.get(line), Some(LineState::Dirty));
        if effective && coalesce && self.line_matches_fenced_image(line) {
            // The dirty bytes are the bytes the medium already holds
            // (typical of shadow updates into recycled blocks): drop the
            // dirty mark instead of scheduling a no-op writeback. Every
            // later observation is unchanged — a crash that would have
            // kept this line persists the identical durable copy.
            self.lines.remove(line);
            effective = false;
        }
        if effective {
            let m = &self.cfg.latency;
            let done_ns = self.drain.schedule(
                line,
                self.clock.now_ns(),
                m.wpq_launch_ns,
                m.wpq_drain_ns,
                m.wpq_lanes,
            );
            self.lines.set(line, LineState::Inflight { done_ns });
            self.stats.effective_flushes += 1;
        } else {
            self.stats.flushes_deduped += 1;
        }
        if effective || !coalesce {
            // An elided request never issues, so it pays nothing; with
            // the cache off every request pays the issue charge, exactly
            // the pre-coalescing pipeline.
            self.clock
                .advance_as(TimeCategory::Flush, self.cfg.latency.clwb_issue_ns);
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Clwb { line });
        }
    }

    /// Flushes every line covering `[addr, addr + len)`.
    pub fn flush_range(&mut self, addr: u64, len: u64) {
        for l in lines_covering(addr, len) {
            self.clwb(l);
        }
    }

    /// Executes an `sfence`: stalls until every in-flight drain
    /// completes, after which their data is durable. The stall is the
    /// **residual** of the background drain calendar — zero extra work
    /// when everything already drained under compute, the full Amdahl
    /// stall of [`LatencyModel::fence_stall_ns`] when the flushes were
    /// issued back-to-back. The difference between those two is recorded
    /// as [`PmStats::overlap_ns`]. On a file-backed pool the fence's
    /// lines are journaled and a sync round follows
    /// ([`PoolBackend::sync_to`]). A fence never checkpoints: see
    /// [`Pmem::checkpoint_if_due`].
    pub fn sfence(&mut self) {
        self.sfence_with(SyncRound::Now);
    }

    /// [`Pmem::sfence`], choosing whether the pool's sync round runs. The
    /// round covers everything appended so far, not just this fence: a
    /// [`SyncRound::Now`] fence with nothing in flight still syncs what
    /// earlier [`SyncRound::Deferred`] ones left behind. The simulated
    /// fence is the same either way.
    pub fn sfence_with(&mut self, sync: SyncRound) {
        let n = self.lines.inflight();
        let overhead = self.cfg.latency.fence_overhead_ns;
        // The charge-at-the-fence reference: what this fence would have
        // cost before drains ran in the background.
        let serialized = self.cfg.latency.fence_stall_ns(n);
        let stall = if n == 0 {
            overhead
        } else {
            self.drain.residual_at(self.clock.now_ns()).max(overhead)
        };
        self.clock.advance_as(TimeCategory::Flush, stall);
        if n > 0 {
            self.stats.residual_stall_ns += stall;
            self.stats.overlap_ns += (serialized - stall).max(0.0);
        }
        self.drain.reset();
        self.stats.fences += 1;
        self.stats.epoch_hist.record(n as u32);
        let mut flushed = self.lines.fence();
        if !flushed.is_empty() {
            if let Some(d) = self.durable.as_ref() {
                for &l in &flushed {
                    d.copy_from(&self.data, l, CACHELINE);
                }
            }
            // The backend hook: exactly this fence's lines, as one
            // checksummed batch record — one journal append per ordering
            // point, however many FASEs the batch carried. Sorted, so the
            // journal does not depend on flush order.
            if self.backend.wants_batches() {
                flushed.sort_unstable();
                let images = self.line_images(&flushed);
                self.backend
                    .append_batch(BatchKind::Fence, &images, self.clock.now_ns());
            }
        }
        if sync == SyncRound::Now {
            self.backend.sync_to(self.backend.appended());
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Fence);
        }
    }

    /// Folds a grown journal into the base image if one is due
    /// ([`PoolBackend::checkpoint_if_due`]; a failure is counted, not
    /// returned). Not part of any fence: an owner heap calls it right
    /// after each of its fences, the shared engine after dropping its
    /// commit lock. A no-op on memory-backed pools.
    pub fn checkpoint_if_due(&self) {
        self.backend.checkpoint_if_due();
    }

    /// The pool's backend, shared: a thread holding no lock on this
    /// handle can read the synced frontier or run a sync round through
    /// it.
    pub fn backend(&self) -> Arc<dyn PoolBackend> {
        Arc::clone(&self.backend)
    }

    // ------------------------------------------------------------------
    // Volatile node cache ("Don't Persist All" hybrid roots)
    // ------------------------------------------------------------------

    /// Marks `[addr, addr + len)` as volatile node-cache lines: stores
    /// bypass the cache/latency model, `clwb` is elided (counted in
    /// [`PmStats::flushes_avoided`]) and the data is excluded from
    /// journaling, checkpoints and crash images. The range must cover
    /// whole cachelines — the allocator gives hybrid node blocks
    /// exclusive-line footprints. Marks are shared with every handle of
    /// the pool and die with the process (crash images start empty).
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `len` is not a multiple of 64.
    pub fn mark_volatile(&mut self, addr: u64, len: u64) {
        self.volatile.mark(addr, len);
        self.stats.volatile_node_bytes += len;
    }

    /// Clears the volatile marks of `[addr, addr + len)` (block freed:
    /// a recycled block must not inherit volatility).
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `len` is not a multiple of 64.
    pub fn clear_volatile(&mut self, addr: u64, len: u64) {
        self.volatile.clear(addr, len);
    }

    /// Whether `addr` lies on a volatile node-cache line.
    pub fn is_volatile(&self, addr: u64) -> bool {
        self.volatile.contains(addr)
    }

    /// Number of currently volatile node-cache lines.
    pub fn volatile_lines(&self) -> u64 {
        self.volatile.marked_lines()
    }

    /// Number of flushes issued but not yet ordered by a fence.
    pub fn inflight_flushes(&self) -> usize {
        self.lines.inflight()
    }

    /// Number of dirty (written, unflushed) lines.
    pub fn dirty_lines(&self) -> usize {
        self.lines.len() - self.lines.inflight()
    }

    /// Number of in-flight lines whose background drain has already
    /// completed on the global timeline: *drained-but-unfenced*. Their
    /// data survives any crash; only the ordering guarantee still waits
    /// for the fence.
    pub fn drained_unfenced_lines(&self) -> usize {
        let now = self.clock.now_ns();
        self.lines
            .iter()
            .filter(|(_, s)| matches!(s, LineState::Inflight { done_ns } if *done_ns <= now))
            .count()
    }

    // ------------------------------------------------------------------
    // Markers, tags and accounting
    // ------------------------------------------------------------------

    /// Marks the start of a commit section in the trace.
    pub fn begin_commit(&mut self) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::CommitBegin);
        }
    }

    /// Marks the end of a commit section in the trace.
    pub fn end_commit(&mut self) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::CommitEnd);
        }
    }

    /// Records a persistent allocation in the trace (allocator hook).
    pub fn trace_alloc(&mut self, addr: u64, len: u64) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Alloc { addr, len });
        }
    }

    /// Records a deallocation in the trace (allocator hook).
    pub fn trace_free(&mut self, addr: u64, len: u64) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Free { addr, len });
        }
    }

    /// Pushes a time-attribution tag (see [`TimeCategory`]).
    pub fn push_tag(&mut self, cat: TimeCategory) {
        self.clock.push_tag(cat);
    }

    /// Pops the most recent time-attribution tag.
    pub fn pop_tag(&mut self) {
        self.clock.pop_tag();
    }

    /// Charges `ns` of compute time to the current tag.
    pub fn charge_ns(&mut self, ns: f64) {
        self.tick_tagged(ns);
    }

    /// Charges one DRAM access (volatile-data work in workloads).
    pub fn charge_dram_access(&mut self) {
        let ns = self.cfg.latency.dram_miss_ns;
        self.tick_tagged(ns);
    }

    /// Raw activity counters.
    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// L1D counters (Fig 11's miss ratios).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Last-level cache counters.
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Resets counters, clock and cache statistics (not contents) —
    /// used to exclude setup phases from measurements. The WPQ drain
    /// calendar rebases with the clock: any still-in-flight line is
    /// treated as having drained during setup (its pre-reset completion
    /// time would be meaningless against the zeroed clocks).
    pub fn reset_metrics(&mut self) {
        self.stats = PmStats::new();
        self.clock.reset();
        self.cache.reset_stats();
        self.llc.reset_stats();
        self.drain.reset();
        self.lines.rebase_inflight();
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Takes ownership of the recorded trace, leaving it empty.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    // ------------------------------------------------------------------
    // Shard handles (host-parallel staging)
    // ------------------------------------------------------------------

    /// Forks a *shard handle*: a new `Pmem` sharing this pool's storage
    /// (data and durable image) but carrying its own private volatile
    /// simulation state — clock, caches, line table, WPQ calendar, stats
    /// and trace buffer. A worker thread owning a handle can read, write
    /// and `clwb` with **no synchronization against other handles**, as
    /// long as concurrently written ranges stay word-disjoint (each
    /// worker writes only blocks inside its own allocation arena).
    ///
    /// The handle's clock starts at this pool's current time, so times
    /// recorded by the handle are comparable with the parent timeline.
    /// Line states accumulated by the handle are moved back into the
    /// parent with [`Pmem::take_lines`] / [`Pmem::absorb_lines`] when a
    /// staged FASE is handed to the commit stage.
    pub fn fork_handle(&self) -> Pmem {
        let mut clock = SimClock::new();
        clock.sync_to_ns(self.clock.now_ns(), TimeCategory::Other);
        let mut handle = Pmem::from_parts(
            self.cfg.clone(),
            self.data.clone(),
            self.durable.clone(),
            // The backend is the pool's one durable device: handles share
            // it, so a fence on any timeline journals through it.
            Arc::clone(&self.backend),
            None,
            // One pool, one volatile-mark set: a worker's hybrid node
            // blocks must look volatile to the commit stage and to
            // every reader.
            Some(Arc::clone(&self.volatile)),
        );
        handle.clock = clock;
        handle
    }

    /// Whether `other` is a handle onto the same shared storage.
    pub fn same_storage(&self, other: &Pmem) -> bool {
        self.data.same_storage(&other.data)
    }

    /// Advances the clock to at least `t` simulated nanoseconds, charging
    /// the wait (e.g. synchronizing on a batch fence published by another
    /// handle) as flush time.
    pub fn sync_clock_to(&mut self, t: f64) {
        self.clock.sync_to_ns(t, TimeCategory::Flush);
    }

    /// Drains this handle's volatile line states (dirty and in-flight
    /// lines plus the WPQ calendar watermark) into a transferable
    /// [`LineHandoff`], leaving the handle with a clean slate. Called by
    /// a worker when its staged FASE is pushed to the commit stage: the
    /// FASE's blocks — and responsibility for fencing them — travel with
    /// it.
    pub fn take_lines(&mut self) -> LineHandoff {
        let inflight = self.lines.inflight();
        let lines = self.lines.take();
        let drain_last_done = self.drain.last_done();
        self.drain.reset();
        LineHandoff {
            lines,
            inflight,
            drain_last_done,
        }
    }

    /// Merges a worker handle's [`LineHandoff`] into this pool: the lines
    /// become this timeline's dirty/in-flight lines (the next
    /// [`Pmem::sfence`] drains and persists them), and the handed-off
    /// drain watermark joins the WPQ calendar. Shard arenas are 64-byte
    /// aligned so two handles never hand off the same line; if they ever
    /// do, the later state wins.
    ///
    /// Because the line table is keyed by line address, merging the flush
    /// sets of every FASE in a batch leaves **one entry per unique dirty
    /// line** — the batch's covering fence issues exactly one effective
    /// `clwb` per line no matter how many member FASEs touched it.
    /// Returns the number of handed-off entries that combined with an
    /// entry already present (the cross-FASE duplicates this coalescing
    /// eliminated).
    pub fn absorb_lines(&mut self, handoff: LineHandoff) -> usize {
        let mut combined = 0;
        for (line, state) in handoff.lines {
            if self.lines.set(line, state).is_some() {
                combined += 1;
            }
        }
        self.drain.note_done(handoff.drain_last_done);
        combined
    }

    /// Appends trace events recorded by a worker handle (in batch order).
    pub fn append_trace(&mut self, mut events: Vec<TraceEvent>) {
        if self.cfg.trace {
            self.trace.append(&mut events);
        }
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Produces the post-crash pool: durable data, every
    /// *drained-but-unfenced* line (its background writeback physically
    /// completed before the failure, so it persists no matter what),
    /// plus whichever dirty / *issued-but-undrained* lines `policy`
    /// chooses to persist. The returned pool starts with cold caches, a
    /// zeroed clock and no volatile line state — exactly like a machine
    /// after power loss.
    ///
    /// # Panics
    ///
    /// Panics unless the pool was created with `crash_sim: true`.
    pub fn crash_image(&self, policy: CrashPolicy) -> Pmem {
        assert!(
            self.cfg.crash_sim || self.backend.wants_batches(),
            "crash_image requires PmemConfig::crash_sim = true"
        );
        let durable = self
            .durable
            .as_ref()
            .expect("pools always keep a durable image");
        let image = durable.snapshot();
        let now = self.clock.now_ns();
        for (line, state) in self.lines.iter() {
            let drained = matches!(state, LineState::Inflight { done_ns } if done_ns <= now);
            if drained || policy.keeps(line) {
                image.copy_from(&self.data, line, CACHELINE);
            }
        }
        // Crash images are always memory-backed: they are hypothetical
        // post-crash pools (tests take many, under different policies,
        // from one live pool), not the pool file itself. Real-process
        // recovery of a file-backed pool goes through [`Pmem::open_file`].
        let durable_copy = image.snapshot();
        Pmem::from_parts(
            self.cfg.clone(),
            image,
            Some(durable_copy),
            Arc::new(MemBackend),
            None,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testing_pmem() -> Pmem {
        Pmem::new(PmemConfig::testing())
    }

    #[test]
    fn write_then_read() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 42);
        assert_eq!(pm.read_u64(0x100), 42);
    }

    #[test]
    fn unflushed_write_is_lost_on_crash() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 42);
        let crashed = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(crashed.peek_u64(0x100), 0);
    }

    #[test]
    fn flushed_but_unfenced_write_may_be_lost_or_kept() {
        // Immediately after the clwb the line is issued-but-undrained:
        // whether it persists is the crash policy's choice.
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 42);
        pm.clwb(0x100);
        assert_eq!(pm.drained_unfenced_lines(), 0);
        let lost = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(lost.peek_u64(0x100), 0);
        let kept = pm.crash_image(CrashPolicy::PersistAll);
        assert_eq!(kept.peek_u64(0x100), 42);
    }

    #[test]
    fn drained_but_unfenced_write_survives_every_policy() {
        // Once the background drain completes, the writeback physically
        // reached the medium: no crash policy can lose it, fence or not.
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 42);
        pm.clwb(0x100);
        pm.charge_ns(1_000.0); // well past launch + drain
        assert_eq!(pm.drained_unfenced_lines(), 1);
        assert_eq!(pm.inflight_flushes(), 1, "still unfenced");
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0x100), 42, "drained line persists");
    }

    #[test]
    fn fenced_write_survives_any_crash() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 42);
        pm.clwb(0x100);
        pm.sfence();
        let crashed = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(crashed.peek_u64(0x100), 42);
    }

    #[test]
    fn dirty_line_may_persist_spontaneously() {
        // Cache evictions can write back unflushed lines.
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 7);
        let evicted = pm.crash_image(CrashPolicy::PersistAll);
        assert_eq!(evicted.peek_u64(0x100), 7);
    }

    #[test]
    fn seeded_policy_is_deterministic() {
        let mut pm = testing_pmem();
        for i in 0..64u64 {
            pm.write_u64(0x1000 + i * 64, i + 1);
        }
        let a = pm.crash_image(CrashPolicy::Seeded(1));
        let b = pm.crash_image(CrashPolicy::Seeded(1));
        let c = pm.crash_image(CrashPolicy::Seeded(2));
        let read =
            |p: &Pmem| -> Vec<u64> { (0..64u64).map(|i| p.peek_u64(0x1000 + i * 64)).collect() };
        assert_eq!(read(&a), read(&b));
        assert_ne!(read(&a), read(&c), "different seeds should differ");
        // And a seeded policy should persist a strict subset.
        assert!(read(&a).contains(&0));
        assert!(read(&a).iter().any(|&v| v != 0));
    }

    #[test]
    fn fence_counts_inflight_epoch() {
        let mut pm = testing_pmem();
        for i in 0..8u64 {
            pm.write_u64(0x100 + i * 64, i + 1);
            pm.clwb(0x100 + i * 64);
        }
        assert_eq!(pm.inflight_flushes(), 8);
        pm.sfence();
        assert_eq!(pm.inflight_flushes(), 0);
        assert_eq!(pm.stats().fences, 1);
        assert_eq!(pm.stats().flushes_issued, 8);
        assert_eq!(pm.stats().epoch_hist.median(), 8);
    }

    #[test]
    fn redundant_clwb_counts_but_is_deduped() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.clwb(0x100);
        assert_eq!(pm.stats().flushes_issued, 2);
        assert_eq!(pm.stats().effective_flushes, 1);
        assert_eq!(pm.stats().flushes_deduped, 1, "second request elided");
        assert_eq!(pm.inflight_flushes(), 1);
        assert!(pm.stats().flush_identity_holds());
    }

    #[test]
    fn saturated_fence_reproduces_amdahl_stall() {
        // Back-to-back flushes give the drains nothing to hide under:
        // issue time is absorbed into the background calendar and the
        // total flush timeline lands exactly on the old charge-at-the-
        // fence Amdahl stall (the saturated limit).
        let mut pm = testing_pmem();
        let m = pm.config().latency.clone();
        for i in 0..16u64 {
            pm.write_u64(0x100 + i * 64, i + 1);
        }
        let before = pm.clock().breakdown().flush_ns;
        for i in 0..16u64 {
            pm.clwb(0x100 + i * 64);
        }
        pm.sfence();
        let flush_ns = pm.clock().breakdown().flush_ns - before;
        let expected = m.fence_stall_ns(16);
        assert!(
            (flush_ns - expected).abs() < 1e-9,
            "saturated timeline {flush_ns:.2} != Amdahl stall {expected:.2}"
        );
        // Only the clwb issue time overlapped; the drains all stalled.
        let issue_overlap = 16.0 * m.clwb_issue_ns;
        assert!((pm.stats().overlap_ns - issue_overlap).abs() < 1e-9);
        assert!(pm.stats().residual_stall_ns > 0.0);
    }

    #[test]
    fn saturated_curve_fits_the_papers_parallel_fraction() {
        // Fig 4 through the pool itself: 320 pre-dirtied lines flushed
        // with a fence every n, and the Karp–Flatt fit of the average
        // flush latency per n recovers the paper's f ≈ 0.82.
        let curve: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|n| {
                let mut pm = testing_pmem();
                for i in 0..320u64 {
                    pm.write_u64(0x1000 + i * 64, i + 1);
                }
                let before = pm.clock().breakdown().flush_ns;
                for i in 0..320u64 {
                    pm.clwb(0x1000 + i * 64);
                    if (i + 1) % n as u64 == 0 {
                        pm.sfence();
                    }
                }
                (n, (pm.clock().breakdown().flush_ns - before) / 320.0)
            })
            .collect();
        let f = crate::model::fit_parallel_fraction(&curve);
        assert!((f - 0.82).abs() < 0.02, "saturated curve fits f = {f:.3}");
    }

    #[test]
    fn single_flush_plus_fence_costs_353ns() {
        // §3's headline number now falls out of the event model exactly:
        // launch + drain = 353 ns from issue, minus nothing.
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 1);
        let before = pm.clock().breakdown().flush_ns;
        pm.clwb(0x100);
        pm.sfence();
        let flush_ns = pm.clock().breakdown().flush_ns - before;
        assert!((flush_ns - 353.0).abs() < 1e-9, "got {flush_ns:.2}");
    }

    #[test]
    fn compute_between_flush_and_fence_hides_drain() {
        let mut pm = testing_pmem();
        let m = pm.config().latency.clone();
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.charge_ns(10_000.0); // app compute while the WPQ drains
        let before = pm.clock().breakdown().flush_ns;
        pm.sfence();
        let fence_ns = pm.clock().breakdown().flush_ns - before;
        assert_eq!(
            fence_ns, m.fence_overhead_ns,
            "fully drained backlog: the fence pays only its own overhead"
        );
        assert!(pm.stats().overlap_ns > 0.0);
        assert!(pm.stats().overlap_ratio() > 0.9);
    }

    #[test]
    fn overlapped_fence_never_beats_the_drain_critical_path() {
        // Partial overlap: the fence arrives mid-drain and pays exactly
        // the remainder, so the flush timeline ends at the critical path.
        let mut pm = testing_pmem();
        let m = pm.config().latency.clone();
        let t0 = pm.clock().now_ns();
        for i in 0..4u64 {
            pm.write_u64(0x100 + i * 64, i + 1);
        }
        let issue_at = pm.clock().now_ns();
        for i in 0..4u64 {
            pm.clwb(0x100 + i * 64);
        }
        pm.charge_ns(100.0); // hides some, not all, of the drain
        pm.sfence();
        let end = pm.clock().now_ns();
        let critical_path = issue_at + m.drain_path_ns(4);
        assert!(
            (end - critical_path).abs() < 1e-9,
            "timeline end {end:.2} != drain critical path {critical_path:.2}"
        );
        let _ = t0;
    }

    #[test]
    fn write_after_flush_persists_preflush_content() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.write_u64(0x100, 2); // races the in-flight writeback
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0x100), 1, "clwb'd content must be durable");
        let img2 = pm.crash_image(CrashPolicy::PersistAll);
        assert_eq!(img2.peek_u64(0x100), 2, "eviction may persist the store");
    }

    #[test]
    fn empty_fence_charges_overhead_only() {
        let mut pm = testing_pmem();
        pm.sfence();
        let b = pm.clock().breakdown();
        assert_eq!(b.flush_ns, pm.config().latency.fence_overhead_ns);
    }

    #[test]
    fn flush_range_covers_all_lines() {
        let mut pm = testing_pmem();
        pm.write_bytes(0x100, &[1u8; 200]);
        pm.flush_range(0x100, 200);
        assert_eq!(pm.inflight_flushes(), 4); // 0x100..0x1c8 → 4 lines
    }

    #[test]
    fn volatile_lines_bypass_the_persistence_pipeline() {
        let mut pm = testing_pmem();
        pm.mark_volatile(0x1000, 64);
        let t0 = pm.clock().now_ns();
        pm.write_u64(0x1000, 77);
        pm.clwb(0x1000);
        assert_eq!(pm.clock().now_ns(), t0, "volatile traffic is uncharged");
        // The request is counted (accounting identity) but classified
        // avoided: no writeback work, no issue charge.
        assert_eq!(pm.stats().flushes_issued, 1);
        assert_eq!(pm.stats().effective_flushes, 0);
        assert_eq!(pm.stats().flushes_avoided, 1);
        assert!(pm.stats().flush_identity_holds());
        assert_eq!(pm.stats().writes, 0);
        assert_eq!(pm.stats().volatile_node_bytes, 64);
        assert_eq!(pm.inflight_flushes(), 0, "never enters the line table");
        pm.sfence();
        assert_eq!(pm.read_u64(0x1000), 77, "reads see the live value");
        assert!(pm.clock().now_ns() > t0, "the fence itself charges");
        let img = pm.crash_image(CrashPolicy::PersistAll);
        assert_eq!(
            img.peek_u64(0x1000),
            0,
            "volatile data never survives a crash"
        );
    }

    #[test]
    fn volatile_marks_are_shared_with_forked_handles() {
        let mut pm = testing_pmem();
        let mut worker = pm.fork_handle();
        worker.mark_volatile(0x2000, 128);
        assert!(
            pm.is_volatile(0x2040),
            "commit stage sees the worker's mark"
        );
        pm.write_u64(0x2040, 9);
        assert_eq!(pm.stats().writes, 0, "uncharged on the parent too");
        assert_eq!(worker.stats().volatile_node_bytes, 128);
        assert_eq!(
            pm.stats().volatile_node_bytes,
            0,
            "charged to the marking handle"
        );
    }

    #[test]
    fn cleared_volatile_line_persists_again() {
        let mut pm = testing_pmem();
        pm.mark_volatile(0x3000, 64);
        pm.clear_volatile(0x3000, 64);
        pm.write_u64(0x3000, 5);
        pm.clwb(0x3000);
        pm.sfence();
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0x3000), 5, "unmarked line is ordinary PM");
        assert_eq!(pm.stats().flushes_issued, 1);
        assert_eq!(pm.stats().flushes_avoided, 0);
    }

    #[test]
    fn crash_image_starts_with_an_empty_volatile_set() {
        let mut pm = testing_pmem();
        pm.mark_volatile(0x1000, 64);
        let mut img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert!(!img.is_volatile(0x1000));
        img.write_u64(0x1000, 3);
        assert_eq!(img.stats().writes, 1, "post-crash pool charges normally");
    }

    #[test]
    fn trace_records_all_event_kinds() {
        let mut pm = testing_pmem();
        pm.trace_alloc(0x100, 64);
        pm.write_u64(0x100, 5);
        pm.clwb(0x100);
        pm.begin_commit();
        pm.sfence();
        pm.end_commit();
        pm.trace_free(0x100, 64);
        let t = pm.take_trace();
        assert_eq!(t.len(), 7);
        assert!(matches!(t[0], TraceEvent::Alloc { .. }));
        assert!(matches!(t[6], TraceEvent::Free { .. }));
        assert!(pm.trace().is_empty());
    }

    #[test]
    fn crash_image_resets_volatile_state() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.sfence();
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.dirty_lines(), 0);
        assert_eq!(img.inflight_flushes(), 0);
        assert_eq!(img.clock().now_ns(), 0.0);
        assert_eq!(img.stats().flushes_issued, 0);
    }

    #[test]
    fn reads_hit_after_write() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 1);
        let misses_before = pm.cache_stats().misses;
        pm.read_u64(0x100);
        assert_eq!(pm.cache_stats().misses, misses_before);
    }

    #[test]
    fn log_tag_routes_write_time() {
        let mut pm = testing_pmem();
        pm.push_tag(TimeCategory::Log);
        pm.write_u64(0x100, 1);
        pm.pop_tag();
        assert!(pm.clock().breakdown().log_ns > 0.0);
        assert_eq!(pm.clock().breakdown().other_ns, 0.0);
    }

    #[test]
    fn reset_metrics_zeroes_counters_keeps_data() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 9);
        pm.reset_metrics();
        assert_eq!(pm.stats().writes, 0);
        assert_eq!(pm.clock().now_ns(), 0.0);
        assert_eq!(pm.read_u64(0x100), 9);
    }

    #[test]
    fn fork_handle_shares_storage_not_sim_state() {
        let mut pm = testing_pmem();
        pm.write_u64(0x100, 7);
        let mut h = pm.fork_handle();
        assert!(pm.same_storage(&h));
        assert_eq!(h.read_u64(0x100), 7, "handle reads the shared pool");
        h.write_u64(0x4000, 9);
        assert_eq!(pm.peek_u64(0x4000), 9, "parent sees handle writes");
        // Volatile state is private: the parent's counters/lines did not
        // move, and the handle started with the parent's clock.
        assert_eq!(pm.stats().writes, 1);
        assert_eq!(h.stats().writes, 1);
        assert_eq!(pm.dirty_lines(), 1);
        assert_eq!(h.dirty_lines(), 1);
        assert!(h.clock().now_ns() >= pm.clock().now_ns() - 1e-9 || h.clock().now_ns() > 0.0);
    }

    #[test]
    fn line_handoff_moves_persistence_responsibility() {
        let mut pm = testing_pmem();
        let mut h = pm.fork_handle();
        h.write_u64(0x4000, 42);
        h.clwb(0x4000);
        h.write_u64(0x4040, 43); // dirty, unflushed
        let handoff = h.take_lines();
        assert_eq!(handoff.len(), 2);
        assert_eq!(handoff.inflight(), 1);
        assert_eq!(h.inflight_flushes(), 0, "handle slate is clean");
        assert_eq!(h.dirty_lines(), 0);
        pm.absorb_lines(handoff);
        assert_eq!(pm.inflight_flushes(), 1);
        assert_eq!(pm.dirty_lines(), 1);
        // The parent's fence persists the handed-off flushed line.
        pm.sfence();
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0x4000), 42);
        assert_eq!(img.peek_u64(0x4040), 0, "dirty line still volatile");
    }

    #[test]
    fn handoff_drain_watermark_reaches_the_fence() {
        // A worker flushes at lane time t; the commit fence (synced past
        // t) pays only the residual of the worker's drain.
        let mut pm = testing_pmem();
        let mut h = pm.fork_handle();
        h.write_u64(0x4000, 1);
        h.clwb(0x4000);
        let stage_end = h.clock().now_ns();
        let handoff = h.take_lines();
        pm.sync_clock_to(stage_end);
        pm.absorb_lines(handoff);
        pm.charge_ns(10_000.0); // commit-side compute hides the drain
        let before = pm.clock().breakdown().flush_ns;
        pm.sfence();
        let fence_ns = pm.clock().breakdown().flush_ns - before;
        assert_eq!(
            fence_ns,
            pm.config().latency.fence_overhead_ns,
            "drain completed in the background before the fence"
        );
        assert!(pm.stats().overlap_ns > 0.0);
    }

    #[test]
    fn crash_image_ignores_unhandled_worker_lines() {
        // Staged-but-not-handed-off lines live only in the worker handle:
        // the parent's crash image must lose them under every policy
        // (legal — they are unreachable shadow blocks).
        let pm = testing_pmem();
        let mut h = pm.fork_handle();
        h.write_u64(0x4000, 5);
        h.clwb(0x4000);
        let img = pm.crash_image(CrashPolicy::PersistAll);
        assert_eq!(img.peek_u64(0x4000), 0);
    }

    #[test]
    #[should_panic(expected = "crash_sim")]
    fn crash_image_requires_crash_sim() {
        let pm = Pmem::new(PmemConfig {
            crash_sim: false,
            ..PmemConfig::testing()
        });
        let _ = pm.crash_image(CrashPolicy::OnlyFenced);
    }

    // ------------------------------------------------------------------
    // File-backed pools
    // ------------------------------------------------------------------

    fn pool_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mod_pmem_{}_{name}.pool", std::process::id()));
        p
    }

    fn remove_pool(path: &Path, shards: u16) {
        for p in FileBackend::member_paths(path, shards) {
            std::fs::remove_file(p).unwrap();
        }
    }

    /// A small file pool whose concrete backend stays reachable, for the
    /// tests that drive its checkpoint step hook.
    fn hooked_pool(name: &str, shards: u16) -> (std::path::PathBuf, Arc<FileBackend>, Pmem) {
        let path = pool_path(name);
        let cfg = PmemConfig {
            capacity: 8 << 20,
            ..PmemConfig::testing()
        };
        let be = FileBackend::create_set(&path, cfg.capacity, shards, cfg.durability).unwrap();
        let be = Arc::new(be);
        let pm = Pmem::fresh_on(cfg, be.clone());
        (path, be, pm)
    }

    /// Owner-style sweep: one store + clwb per line of `[from, from +
    /// bytes)`, a fence every 64 lines (and one at the end), each
    /// followed by a checkpoint if one is due.
    fn sweep(pm: &mut Pmem, from: u64, bytes: u64, salt: u64) {
        let fence = |pm: &mut Pmem| {
            pm.sfence();
            pm.checkpoint_if_due();
        };
        for (i, addr) in (from..from + bytes).step_by(64).enumerate() {
            pm.write_u64(addr, addr ^ salt);
            pm.clwb(addr);
            if i % 64 == 63 {
                fence(pm);
            }
        }
        fence(pm);
    }

    /// Whether a reopened pool's bytes equal `live`'s durable image.
    fn matches_durable_image(reopened: &Pmem, live: &Pmem) -> bool {
        let durable = live.durable.as_ref().unwrap();
        (0..live.capacity())
            .step_by(crate::arena::SEGMENT_BYTES as usize)
            .all(|a| durable.range_eq(&reopened.data, a, crate::arena::SEGMENT_BYTES))
    }

    #[test]
    fn mem_pools_use_the_mem_backend() {
        let pm = testing_pmem();
        assert_eq!(pm.backend_kind(), crate::backend::BackendKind::Mem);
        assert_eq!(pm.backend_stats(), crate::backend::BackendStats::default());
        assert!(pm.replay_stats().is_none());
    }

    #[test]
    fn fenced_writes_survive_reopen_in_a_fresh_pool_object() {
        let path = pool_path("reopen");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        assert_eq!(pm.backend_kind(), crate::backend::BackendKind::File);
        pm.write_u64(0x100, 42);
        pm.clwb(0x100);
        pm.sfence();
        pm.write_u64(0x140, 7); // dirty, never flushed: must not persist
        assert_eq!(pm.backend_stats().batches_appended, 1);
        drop(pm); // uncooperative: no checkpoint, like a kill
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert_eq!(pm2.peek_u64(0x100), 42, "fenced line replayed");
        assert_eq!(pm2.peek_u64(0x140), 0, "unfenced store lost");
        let rs = pm2.replay_stats().unwrap();
        assert_eq!(rs.batches, 1);
        assert_eq!(rs.torn_bytes, 0);
        remove_pool(&path, 1);
    }

    #[test]
    fn one_fence_is_one_journal_record() {
        let path = pool_path("one_record");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        for i in 0..8u64 {
            pm.write_u64(0x1000 + i * 64, i + 1);
            pm.clwb(0x1000 + i * 64);
        }
        pm.sfence();
        let st = pm.backend_stats();
        assert_eq!(st.batches_appended, 1, "8 lines, one fence, one record");
        // An empty fence appends nothing.
        pm.sfence();
        assert_eq!(pm.backend_stats().batches_appended, 1);
        remove_pool(&path, 1);
    }

    #[test]
    fn journal_bytes_are_deterministic_across_runs() {
        // Flush order must not leak into the journal.
        let run = |name: &str| {
            let path = pool_path(name);
            let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
            for i in (0..16u64).rev() {
                pm.write_u64(0x2000 + i * 64, i);
                pm.clwb(0x2000 + i * 64);
            }
            pm.sfence();
            let bytes = std::fs::read(&FileBackend::member_paths(&path, 1)[1]).unwrap();
            remove_pool(&path, 1);
            bytes
        };
        assert_eq!(run("det_a"), run("det_b"));
    }

    #[test]
    fn checkpoint_persists_drained_unfenced_lines() {
        let path = pool_path("drained");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        pm.write_u64(0x100, 42);
        pm.clwb(0x100);
        pm.charge_ns(1_000.0); // drain completes in the background
        assert_eq!(pm.drained_unfenced_lines(), 1);
        pm.checkpoint().unwrap(); // orderly close, no fence ever issued
        drop(pm);
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert_eq!(pm2.peek_u64(0x100), 42, "drained line reached the file");
        remove_pool(&path, 1);
    }

    #[test]
    fn store_racing_inflight_writeback_journals_preflush_content() {
        let path = pool_path("race");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        pm.write_u64(0x100, 1);
        pm.clwb(0x100);
        pm.write_u64(0x100, 2); // races the in-flight writeback
        drop(pm); // killed before any fence
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert_eq!(pm2.peek_u64(0x100), 1, "clwb'd content must be durable");
        remove_pool(&path, 1);
    }

    #[test]
    fn checkpoint_folds_journal_and_preserves_state() {
        let path = pool_path("compact");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        for i in 0..32u64 {
            pm.write_u64(0x3000 + i * 64, i + 100);
            pm.clwb(0x3000 + i * 64);
            pm.sfence();
        }
        pm.checkpoint().unwrap();
        assert_eq!(pm.backend_stats().compactions, 1);
        // Post-checkpoint appends still replay on top of the image.
        pm.write_u64(0x100, 5);
        pm.clwb(0x100);
        pm.sfence();
        drop(pm);
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        for i in 0..32u64 {
            assert_eq!(pm2.peek_u64(0x3000 + i * 64), i + 100);
        }
        assert_eq!(pm2.peek_u64(0x100), 5);
        remove_pool(&path, 1);
    }

    #[test]
    fn checkpoint_cost_tracks_the_dirty_lines_not_the_touched_arena() {
        // A worker-style sweep bumps through 32 MiB of arena (≈ 32
        // threshold-triggered checkpoints on the way). The checkpoints
        // after that must still write only what was journaled since the
        // previous one — the pinned count behind "a checkpoint costs
        // what changed, not the pool".
        let threshold = 1u64 << 20;
        let path = pool_path("odirty");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        sweep(&mut pm, 0, 32 << 20, 0x5EED);
        let aged = pm.backend_stats();
        assert!(aged.compactions >= 30, "{} checkpoints", aged.compactions);
        assert_eq!(aged.checkpoint_failures, 0);
        assert!(std::fs::metadata(&path).unwrap().len() >= 31 << 20);
        // Re-dirty 2 MiB in place: two more threshold crossings.
        sweep(&mut pm, 4 << 20, 2 << 20, 0xFACE);
        let after = pm.backend_stats();
        let fresh = after.compactions - aged.compactions;
        assert!(fresh >= 2, "{fresh} checkpoints on the aged pool");
        assert!(
            after.checkpoint_bytes - aged.checkpoint_bytes <= fresh * 2 * threshold,
            "aged-pool checkpoints wrote {} B over {fresh} checkpoints",
            after.checkpoint_bytes - aged.checkpoint_bytes
        );
        // ... and so did every one before: the base holds 32 MiB, yet
        // all checkpoints together wrote about what was journaled.
        assert!(after.checkpoint_bytes <= after.journal_bytes);
        assert!(after.longest_checkpoint_ns <= after.checkpoint_ns);
        // On disk: base ≤ header page + touched high-water mark, journal
        // ≤ threshold + one record (64 lines) + its header.
        let files = pm.backend_file_bytes().unwrap();
        assert!(
            files <= 4096 + (32 << 20) + threshold + 64 * 80 + 24,
            "{files} B"
        );
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert!(matches_durable_image(&pm2, &pm), "reopen == durable image");
        assert!(pm2.replay_stats().unwrap().lines <= 2 * threshold / 64);
        remove_pool(&path, 1);
    }

    #[test]
    fn a_fence_never_checkpoints_checkpoint_if_due_does() {
        let path = pool_path("ckpt_due");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        for (i, addr) in (0..2u64 << 20).step_by(64).enumerate() {
            pm.write_u64(addr, addr);
            pm.clwb(addr);
            if i % 64 == 63 {
                pm.sfence();
            }
        }
        assert!(pm.backend_stats().journal_bytes > 1 << 20);
        assert_eq!(pm.backend_stats().compactions, 0, "fences never fold");
        pm.checkpoint_if_due();
        assert_eq!(pm.backend_stats().compactions, 1);
        pm.checkpoint_if_due();
        assert_eq!(pm.backend_stats().compactions, 1, "no longer due");
        remove_pool(&path, 1);
    }

    #[test]
    fn failed_checkpoint_on_the_fence_path_is_counted_not_fatal() {
        let (path, be, mut pm) = hooked_pool("ckpt_fail", 2);
        // The first threshold-triggered checkpoint dies at its first
        // image write (an ENOSPC stand-in). The fence that offered it
        // must not panic; the engine keeps appending and the next
        // threshold crossing retries with everything still pending.
        be.stop_checkpoint_at_step(1);
        sweep(&mut pm, 0, 3 << 20, 7);
        let s = pm.backend_stats();
        assert_eq!(s.checkpoint_failures, 1);
        assert!(s.compactions >= 1, "the retry went through");
        // The explicit checkpoint is where an error surfaces.
        sweep(&mut pm, 0, 4096, 8);
        be.stop_checkpoint_at_step(be.checkpoint_steps_taken() + 2);
        assert!(pm.checkpoint().is_err());
        assert_eq!(pm.backend_stats().checkpoint_failures, 2);
        // Killed right there: nothing acknowledged is lost.
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert!(matches_durable_image(&pm2, &pm));
        pm.checkpoint().unwrap();
        remove_pool(&path, 2);
    }

    #[test]
    fn checkpoint_killed_after_every_step_reopens_to_the_durable_image() {
        // Pool level of the backend's kill battery: the oracle is the
        // live pool's durable arena, the recovery is `open_file`.
        for shards in [1u16, 4] {
            let mut step = 0;
            loop {
                let (path, be, mut pm) = hooked_pool("ckpt_kill", shards);
                sweep(&mut pm, 0, 64 << 10, 1);
                pm.checkpoint().unwrap();
                // Overwrite some checkpointed lines, add scattered new
                // ones across every shard range: several runs.
                sweep(&mut pm, 8 << 10, 16 << 10, 2);
                for i in 0..8u64 {
                    sweep(&mut pm, (i << 20) + (512 << 10) + i * 128, 64, 3);
                }
                be.stop_checkpoint_at_step(be.checkpoint_steps_taken() + step);
                let killed = pm.checkpoint().is_err();
                let mut pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
                assert!(
                    matches_durable_image(&pm2, &pm),
                    "{shards} shard(s), killed after step {step}"
                );
                // The recovered pool is a working pool: its journals
                // resume wherever the interrupted truncation left them.
                sweep(&mut pm2, 0, 4096, 4);
                let pm3 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
                assert!(matches_durable_image(&pm3, &pm2));
                remove_pool(&path, shards);
                if !killed {
                    assert!(step >= 12, "only {step} steps exercised");
                    break;
                }
                step += 1;
            }
        }
    }

    /// Every member of the pool at `path` (base first), as bytes.
    fn read_members(path: &Path, shards: u16) -> Vec<Vec<u8>> {
        let read = |p: &std::path::PathBuf| std::fs::read(p).unwrap();
        FileBackend::member_paths(path, shards)
            .iter()
            .map(read)
            .collect()
    }

    fn write_members(path: &Path, members: &[Vec<u8>]) {
        let paths = FileBackend::member_paths(path, members.len() as u16 - 1);
        for (p, m) in paths.iter().zip(members) {
            std::fs::write(p, m).unwrap();
        }
    }

    #[test]
    fn image_run_torn_at_every_byte_offset_is_repaired_by_redo() {
        // A run write that stops mid-line leaves a line that is neither
        // old nor new. The journal still holds the whole line (the mark
        // has not moved), so redo overwrites it — at every tear point.
        let (path, _be, mut pm) = hooked_pool("torn_run", 1);
        sweep(&mut pm, 0, 192, 1);
        pm.checkpoint().unwrap();
        sweep(&mut pm, 0, 192, 2); // rewrites the three checkpointed lines
        let before = read_members(&path, 1);
        pm.checkpoint().unwrap();
        let after = read_members(&path, 1);
        let at = crate::journal::IMAGE_OFFSET as usize;
        assert_ne!(before[0][at..at + 192], after[0][at..at + 192]);
        for cut in 0..=192 {
            let mut torn = before.clone();
            torn[0][at..at + cut].copy_from_slice(&after[0][at..at + cut]);
            write_members(&path, &torn);
            let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
            assert!(matches_durable_image(&pm2, &pm), "run torn at byte {cut}");
            assert!(pm2.replay_stats().unwrap().batches >= 1);
        }
        remove_pool(&path, 1);
    }

    #[test]
    fn torn_newer_mark_slot_falls_back_and_double_damage_is_typed() {
        use crate::journal::{encode_mark, ReplayError, MARK_SLOT_AT, MARK_SLOT_BYTES};
        let (path, _be, mut pm) = hooked_pool("mark_slots", 2);
        sweep(&mut pm, 0, 4096, 1);
        pm.checkpoint().unwrap(); // first mark → slot 1
        sweep(&mut pm, 2048, 4096, 2);
        // Killed after the second checkpoint's mark write, before any
        // truncation: the journals still hold what it wrote home.
        let journals = read_members(&path, 2);
        pm.checkpoint().unwrap(); // second mark → slot 0
        let mut intact = read_members(&path, 2);
        intact[1..].clone_from_slice(&journals[1..]);
        let (newer, older) = (MARK_SLOT_AT[0] as usize, MARK_SLOT_AT[1] as usize);
        // Tear the newer slot's write at every byte (new prefix, the
        // slot's previous content after it): recovery falls back to the
        // older mark, which the un-truncated journal still covers.
        for cut in 0..=MARK_SLOT_BYTES {
            let mut torn = intact.clone();
            torn[0][newer + cut..newer + MARK_SLOT_BYTES].copy_from_slice(&encode_mark(0)[cut..]);
            write_members(&path, &torn);
            let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
            assert!(matches_durable_image(&pm2, &pm), "mark torn at byte {cut}");
            let replayed = pm2.replay_stats().unwrap().batches;
            assert_eq!(replayed == 0, cut == MARK_SLOT_BYTES, "cut {cut}");
        }
        let mut both = intact.clone();
        both[0][newer + 3] ^= 1;
        both[0][older + 20] ^= 1;
        write_members(&path, &both);
        let err = Pmem::open_file(&path, PmemConfig::testing()).unwrap_err();
        let typed = err.get_ref().and_then(|e| e.downcast_ref::<ReplayError>());
        assert_eq!(typed, Some(&ReplayError::MarkDamaged), "{err}");
        remove_pool(&path, 2);
    }

    #[test]
    fn file_pool_capacity_comes_from_the_header() {
        let path = pool_path("capacity");
        let pm = Pmem::create_file(
            &path,
            PmemConfig {
                capacity: 1 << 22,
                ..PmemConfig::testing()
            },
        )
        .unwrap();
        drop(pm);
        // Caller's capacity is overridden by the file's.
        let pm2 = Pmem::open_file(
            &path,
            PmemConfig {
                capacity: 1 << 30,
                ..PmemConfig::testing()
            },
        )
        .unwrap();
        assert_eq!(pm2.capacity(), 1 << 22);
        remove_pool(&path, 1);
    }

    #[test]
    fn forked_handles_share_the_file_backend() {
        let path = pool_path("fork");
        let pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        let mut h = pm.fork_handle();
        h.write_u64(0x4000, 9);
        h.clwb(0x4000);
        h.sfence(); // a fence on any handle journals through the pool file
        assert_eq!(pm.backend_stats().batches_appended, 1);
        drop(h);
        drop(pm);
        let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
        assert_eq!(pm2.peek_u64(0x4000), 9);
        remove_pool(&path, 1);
    }

    #[test]
    fn pool_set_recovery_is_bit_identical_to_a_one_journal_pool() {
        // The same simulated workload through a 1-shard pool and a
        // 4-shard set: the recovered pools must agree word for word, and
        // the set must report its parallel replay.
        let run = |name: &str, shards: u16, durability: Durability| {
            let path = pool_path(name);
            let mut pm = Pmem::create_file(
                &path,
                PmemConfig {
                    journal_shards: shards,
                    durability,
                    ..PmemConfig::testing()
                },
            )
            .unwrap();
            // Addresses spanning all four shard ranges of a 64 MiB pool.
            for i in 0..64u64 {
                let addr = (i % 4) * (1 << 24) + (i / 4) * 64;
                pm.write_u64(addr, i + 1);
                pm.clwb(addr);
                if i % 3 == 2 {
                    pm.sfence();
                }
            }
            pm.sfence();
            drop(pm); // uncooperative: no checkpoint, like a kill
            let pm2 = Pmem::open_file(&path, PmemConfig::testing()).unwrap();
            let words: Vec<u64> = (0..64u64)
                .map(|i| pm2.peek_u64((i % 4) * (1 << 24) + (i / 4) * 64))
                .collect();
            let rs = pm2.replay_stats().unwrap().clone();
            remove_pool(&path, shards);
            (words, rs)
        };
        let (single, rs1) = run("set_single", 1, Durability::Buffered);
        let (set, rs4) = run("set_sharded", 4, Durability::Fsync);
        assert_eq!(single, set, "recovered images must be bit-identical");
        assert_eq!(rs1.replay_parallelism, 1);
        assert_eq!(rs4.replay_parallelism, 4);
        assert_eq!(rs1.batches, rs4.batches);
        assert_eq!(rs1.lines, rs4.lines);
        assert_eq!((0..64u64).map(|i| i + 1).sum::<u64>(), single.iter().sum());
    }

    #[test]
    fn fsync_pool_reports_rounds_and_file_bytes() {
        let path = pool_path("fsync_rounds");
        let mut pm = Pmem::create_file(
            &path,
            PmemConfig {
                journal_shards: 2,
                durability: Durability::Fsync,
                ..PmemConfig::testing()
            },
        )
        .unwrap();
        for i in 0..4u64 {
            pm.write_u64(i * 64, i + 1);
            pm.clwb(i * 64);
            pm.sfence();
        }
        let st = pm.backend_stats();
        assert_eq!(st.fsync_rounds, 4, "one fsync round per non-empty fence");
        assert_eq!(st.journal_shards, 2);
        assert!(pm.backend_file_bytes().unwrap() > 0);
        drop(pm);
        remove_pool(&path, 2);
    }

    #[test]
    fn a_deferred_fence_is_synced_by_the_next_fence_even_an_empty_one() {
        // The sync round follows unsynced journal state, not "this fence
        // appended": a deferred fence's record across both shards, then
        // a fence with nothing in flight, must end with every journal
        // clean — and simulate exactly like two plain fences.
        let run = |name: &str, first: SyncRound| {
            let path = pool_path(name);
            let cfg = PmemConfig {
                journal_shards: 2,
                durability: Durability::Fsync,
                ..PmemConfig::testing()
            };
            let be = FileBackend::create_set(&path, cfg.capacity, 2, cfg.durability).unwrap();
            let be = Arc::new(be);
            let mut pm = Pmem::fresh_on(cfg, be.clone());
            for addr in [0x100, (1 << 25) + 0x100] {
                pm.write_u64(addr, addr);
                pm.clwb(addr);
            }
            pm.sfence_with(first);
            let after_first = be.stats();
            assert_eq!(pm.inflight_flushes(), 0);
            pm.sfence();
            let after_second = be.stats();
            be.sync_to(be.appended());
            assert_eq!(be.stats(), after_second, "nothing left to sync");
            let sim = (pm.stats().clone(), pm.take_trace(), pm.clock().now_ns());
            drop(pm);
            remove_pool(&path, 2);
            (after_first, after_second, sim)
        };
        let (deferred, synced, sim_deferred) = run("deferred_sync", SyncRound::Deferred);
        assert_eq!((deferred.fence_batches, deferred.fsync_rounds), (1, 0));
        assert_eq!(synced.fence_batches, 1, "the empty fence appends nothing");
        assert_eq!(
            (synced.fsync_rounds, synced.fsyncs),
            (1, 2),
            "its round syncs both"
        );
        let (now, _, sim_now) = run("deferred_sync_now", SyncRound::Now);
        assert_eq!((now.fsync_rounds, now.fsyncs), (1, 2));
        assert!(
            sim_deferred == sim_now,
            "deferral is invisible to the model"
        );
    }

    #[test]
    fn crash_image_of_a_file_pool_is_memory_backed() {
        let path = pool_path("crash_img");
        let mut pm = Pmem::create_file(&path, PmemConfig::testing()).unwrap();
        pm.write_u64(0x100, 3);
        pm.clwb(0x100);
        pm.sfence();
        let img = pm.crash_image(CrashPolicy::OnlyFenced);
        assert_eq!(img.backend_kind(), crate::backend::BackendKind::Mem);
        assert_eq!(img.peek_u64(0x100), 3);
        remove_pool(&path, 1);
    }
}
