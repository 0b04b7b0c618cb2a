//! The outside-in ladder: one generated op stream entered at
//! successively lower layers, each on a pool of its own, so that a
//! layer's host time can be told apart from the layers beneath it
//! without instrumenting the product.
//!
//! | rung | entered at | through |
//! |---|---|---|
//! | 1 | `mod-core` | the typed wrappers on a single-owner `ModHeap` |
//! | 2 | `mod-funcds` | `Pm*` structures on a bare `NvHeap`, committed by hand as Fig 8b does (fence, pointer store, release the superseded version) |
//! | 3 | `mod-alloc` | rung 2's `Alloc`/`Free` events replayed through `NvHeap::alloc`/`free` |
//! | 4 | `mod-pmem` | rung 2's `Write`/`Clwb`/`Fence` events replayed through `Pmem` (and, for the journal, through file-backed pools) |
//!
//! A layer's **self time** is its rung's time per op minus the rungs
//! beneath it. Rungs run in lock-step over chunks of [`CHUNK`] ops, and
//! every per-op time is the median over chunks.

use crate::counters::{Counters, Snap};
use crate::replay::{clock_cost_ns, replay_alloc, replay_pmem, CallSamples, EventCounts, EventLog};
use crate::span::{Span, Tracer, ROOT};
use crate::stats::median;
use mod_alloc::NvHeap;
use mod_pmem::{Durability, PmStats, Pmem, PmemConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Ops per lock-step chunk: long enough that a pool's working set is
/// warm again after the other rungs ran, short enough for ≥ 11 chunks
/// in the smallest slice.
pub const CHUNK: usize = 1000;

/// One workload's ops at rungs 1 and 2. `exec` returns whether the op's
/// output was what the shadow model expects.
pub trait Rungs {
    type Op;
    type Core;
    type Bare;
    fn core_new(pm: Pmem) -> Self::Core;
    fn core_exec(c: &mut Self::Core, op: &Self::Op) -> bool;
    /// The heap rung 1 runs on (its counters are the workload's
    /// simulated-cost and allocator counts).
    fn core_nv(c: &Self::Core) -> &NvHeap;
    fn bare_new(pm: Pmem) -> Self::Bare;
    fn bare_exec(b: &mut Self::Bare, op: &Self::Op) -> bool;
    fn bare_nv(b: &mut Self::Bare) -> &mut NvHeap;
    /// Whether the op writes (lookups leave no events: the product's
    /// trace has no loads).
    fn is_update(op: &Self::Op) -> bool;
}

pub struct LadderCfg {
    /// Pool capacity of every rung.
    pub capacity: u64,
    /// Where to put the file-backed rung-4 pools; `None` skips the
    /// journal rungs (workloads with no journal on their path).
    pub journal_dir: Option<PathBuf>,
}

/// ns per op (median over chunks) unless said otherwise.
#[derive(Default)]
pub struct Ladder {
    pub ops: u64,
    pub updates: u64,
    /// Rung 1 with only chunk-level timing.
    pub t1_untraced: f64,
    /// Rung 1 with a span per op.
    pub t1_traced: f64,
    pub t2: f64,
    /// Rung 2, per update / per lookup (0 if the stream has none).
    pub t2_update: f64,
    pub t2_lookup: f64,
    /// Rung 3 including the header stores `alloc` issues to `Pmem`.
    pub alloc_incl: f64,
    /// Rung 4 on a memory-backed pool.
    pub pmem: f64,
    pub calls: CallSamples,
    /// Events of the measured phase.
    pub events: EventCounts,
    pub alloc_mismatches: u64,
    /// Outputs that disagreed with the shadow model, any rung.
    pub wrong: u64,
    /// Rung 2's capture run vs rung 4's replay: equal when the replay
    /// mirrors the run.
    pub captured: PmStats,
    pub replayed: PmStats,
    pub journal: Option<JournalRungs>,
    /// Rung 1's product counters over the measured phase.
    pub core_counters: Option<Counters>,
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

#[derive(Default)]
pub struct JournalRungs {
    /// (buffered file replay − memory replay) per fence.
    pub self_us_per_fence: f64,
    /// (fsync file replay − buffered file replay) per fsync round.
    pub fsync_us_per_round: f64,
    pub longest_fence_ms: f64,
}

impl Ladder {
    /// `alloc`'s own time: rung 3 minus the two header stores per
    /// allocation that rung 4 also replays.
    pub fn alloc_self(&self) -> f64 {
        let allocs_per_op = self.events.allocs as f64 / self.ops.max(1) as f64;
        (self.alloc_incl - 2.0 * allocs_per_op * self.calls.write8.mean_ns()).max(0.0)
    }

    pub fn funcds_self(&self) -> f64 {
        self.t2 - self.alloc_self() - self.pmem
    }

    pub fn core_self(&self) -> f64 {
        self.t1_untraced - self.t2
    }

    /// What a span per op cost rung 1 (the map workloads' tracing
    /// overhead; the others measure theirs on their real run).
    pub fn overhead_frac(&self) -> f64 {
        1.0 - self.t1_untraced / self.t1_traced
    }

    /// The per-layer metrics every ladder yields.
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let per_update = self.ops as f64 / self.updates.max(1) as f64;
        out.insert("pmem.self_host_ns_per_op", self.pmem);
        out.insert("pmem.host_ns_per_write", self.calls.write_mean_ns());
        out.insert("pmem.host_ns_per_clwb", self.calls.clwb.mean_ns());
        out.insert("pmem.host_ns_per_sfence", self.calls.sfence.mean_ns());
        out.insert("alloc.self_host_ns_per_op", self.alloc_self());
        out.insert("funcds.incl_host_ns_per_update", self.t2_update);
        out.insert(
            "funcds.self_host_ns_per_update",
            self.t2_update - (self.alloc_self() + self.pmem) * per_update,
        );
        out.insert("funcds.self_host_ns_per_lookup", self.t2_lookup);
        out.insert("core.commit_self_host_ns_per_op", self.core_self());
        if let Some(j) = &self.journal {
            out.insert("journal.self_host_us_per_fence", j.self_us_per_fence);
            out.insert("journal.fsync_host_us_per_round", j.fsync_us_per_round);
            out.insert("journal.longest_fence_ms", j.longest_fence_ms);
        }
    }

    /// The simulated-time split and cache-model ratio of rung 1 — for
    /// workloads whose real run is on a shared heap, which has no one
    /// clock or cache to read them from.
    pub fn sim_split_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let Some(c) = &self.core_counters else { return };
        let n = self.ops as f64;
        if let Some(t) = &c.time {
            out.insert("pmem.sim_flush_ns_per_op", t.flush_ns / n);
            out.insert("pmem.sim_other_ns_per_op", t.other_ns / n);
        }
        if let Some(l1d) = &c.l1d {
            out.insert("pmem.l1d_miss_ratio", l1d.miss_ratio());
        }
    }

    /// The ladder as text: each layer's self time and its share of the
    /// untraced rung-1 time the four add up to.
    pub fn describe(&self) -> Vec<String> {
        let total = self.t1_untraced;
        let row = |name: &str, ns: f64| {
            format!(
                "  {name:<8} self {ns:>10.1} ns/op  {:>5.1} %",
                100.0 * ns / total
            )
        };
        let mut lines = vec![
            format!(
                "ladder over {} ops ({} updates), host ns per op, median of {}-op chunks:",
                self.ops, self.updates, CHUNK
            ),
            format!(
                "  rung 1 (core)   {:>10.1} untraced, {:>10.1} with a span per op",
                self.t1_untraced, self.t1_traced
            ),
            format!("  rung 2 (funcds) {:>10.1}", self.t2),
            format!(
                "  rung 3 (alloc)  {:>10.1} incl. its header stores",
                self.alloc_incl
            ),
            format!("  rung 4 (pmem)   {:>10.1}", self.pmem),
            row("core", self.core_self()),
            row("funcds", self.funcds_self()),
            row("alloc", self.alloc_self()),
            row("pmem", self.pmem),
            format!(
                "  the four self times sum to {:.1} ns/op = the untraced rung-1 time; loads are \
                 not in the product trace, so read cost stays with the layer that issued it",
                self.core_self() + self.funcds_self() + self.alloc_self() + self.pmem
            ),
            format!(
                "  replay fidelity: effective flushes captured {} / replayed {}, fences {} / {}, \
                 allocator address mismatches {}",
                self.captured.effective_flushes,
                self.replayed.effective_flushes,
                self.captured.fences,
                self.replayed.fences,
                self.alloc_mismatches
            ),
        ];
        // Within 2 % of the op the rungs simply tie (the layer is too thin
        // to resolve); further below zero they disagree.
        if self.core_self().min(self.funcds_self()) < -0.02 * total {
            lines.push(
                "  WARNING: a negative self time — the rungs disagree by more than a layer costs"
                    .into(),
            );
        }
        lines
    }
}

struct FileRung {
    pm: Pmem,
    calls: CallSamples,
    total_ns: u64,
}

impl FileRung {
    fn new(dir: &std::path::Path, name: &str, capacity: u64, durability: Durability) -> FileRung {
        let cfg = PmemConfig {
            durability,
            journal_shards: 2,
            ..PmemConfig::benchmarking(capacity)
        };
        FileRung {
            pm: Pmem::create_file(&dir.join(name), cfg).expect("cannot create a rung-4 pool file"),
            calls: CallSamples {
                time_every_fence: true,
                ..CallSamples::default()
            },
            total_ns: 0,
        }
    }
}

/// Runs `preload` (untimed) then `ops` (timed) up the ladder.
pub fn run_ladder<R: Rungs>(cfg: &LadderCfg, preload: &[R::Op], ops: &[R::Op]) -> Ladder {
    let plain = PmemConfig::benchmarking(cfg.capacity);
    let traced = PmemConfig {
        trace: true,
        ..plain.clone()
    };
    let mut core = R::core_new(Pmem::new(plain.clone()));
    let mut bare = R::bare_new(Pmem::new(plain.clone()));
    let mut cap = R::bare_new(Pmem::new(traced));
    let mut r3 = NvHeap::format(Pmem::new(plain.clone()));
    let mut r4 = Pmem::new(plain);
    let mut files = cfg.journal_dir.as_ref().map(|dir| {
        [
            FileRung::new(
                dir,
                "rung4-buffered.pool",
                cfg.capacity,
                Durability::Buffered,
            ),
            FileRung::new(dir, "rung4-fsync.pool", cfg.capacity, Durability::Fsync),
        ]
    });
    let clock_ns = clock_cost_ns();
    let mut lad = Ladder::default();
    let mut log = EventLog::default();
    log.capture(R::bare_nv(&mut cap).pm_mut());

    // Preload: every rung reaches the measured phase's starting state.
    // The replays take every event since the pools were formatted, or
    // rung 3 would not hand out the captured addresses.
    let mut untimed = CallSamples::default();
    for chunk in preload.chunks(CHUNK) {
        for op in chunk {
            lad.wrong += u64::from(!R::core_exec(&mut core, op));
            lad.wrong += u64::from(!R::bare_exec(&mut bare, op));
            lad.wrong += u64::from(!R::bare_exec(&mut cap, op));
            log.capture(R::bare_nv(&mut cap).pm_mut());
        }
        lad.alloc_mismatches += replay_alloc(&mut r3, &log).1;
        replay_pmem(&mut r4, &log, &mut untimed, clock_ns);
        for f in files.iter_mut().flatten() {
            replay_pmem(&mut f.pm, &log, &mut untimed, clock_ns);
        }
        log.clear();
    }
    // With nothing to preload, the pools' own set-up events are still
    // pending: replay them before the counters are read.
    lad.alloc_mismatches += replay_alloc(&mut r3, &log).1;
    replay_pmem(&mut r4, &log, &mut untimed, clock_ns);
    for f in files.iter_mut().flatten() {
        replay_pmem(&mut f.pm, &log, &mut untimed, clock_ns);
    }
    log.clear();
    let core_before = Snap::take(R::core_nv(&core));
    let cap_before = R::bare_nv(&mut cap).pm().stats().clone();
    let r4_before = r4.stats().clone();
    let file_fences_before = files.as_ref().map(|f| f[1].pm.backend_stats().fsync_rounds);

    let epoch = Instant::now();
    let mut core_spans = Tracer::new(epoch);
    let mut bare_spans = Tracer::new(epoch);
    let mut replay_spans = Tracer::new(epoch);
    // Per chunk, ns per op (per update / lookup for t2u / t2l).
    let (mut t1u, mut t1t) = (Vec::new(), Vec::new());
    let (mut t2, mut t2u, mut t2l) = (Vec::new(), Vec::new(), Vec::new());
    let (mut a3, mut p4) = (Vec::new(), Vec::new());
    let mut r4_total_ns = 0u64;
    let mut op_id = 0u32;
    for (ci, chunk) in ops.chunks(CHUNK).enumerate() {
        let n = chunk.len() as f64;
        let updates = chunk.iter().filter(|op| R::is_update(op)).count() as f64;
        lad.ops += chunk.len() as u64;
        lad.updates += updates as u64;

        // Rung 1, alternately with and without a span per op: the two
        // see the same pool in the same states, so their difference is
        // what the spans cost.
        let t = Instant::now();
        if ci % 2 == 1 {
            let mut last = core_spans.now_ns();
            for (i, op) in chunk.iter().enumerate() {
                lad.wrong += u64::from(!R::core_exec(&mut core, op));
                let now = core_spans.now_ns();
                core_spans.record("core.op", op_id + i as u32, ROOT, last, now);
                last = now;
            }
            t1t.push(t.elapsed().as_nanos() as f64 / n);
        } else {
            for op in chunk {
                lad.wrong += u64::from(!R::core_exec(&mut core, op));
            }
            t1u.push(t.elapsed().as_nanos() as f64 / n);
        }

        // Rung 2, a span per op (lookups and updates are told apart).
        let (mut upd_ns, mut look_ns) = (0u64, 0u64);
        let mut last = bare_spans.now_ns();
        for (i, op) in chunk.iter().enumerate() {
            lad.wrong += u64::from(!R::bare_exec(&mut bare, op));
            let now = bare_spans.now_ns();
            let update = R::is_update(op);
            let name = if update {
                "funcds.update"
            } else {
                "funcds.lookup"
            };
            bare_spans.record(name, op_id + i as u32, ROOT, last, now);
            *(if update { &mut upd_ns } else { &mut look_ns }) += now - last;
            last = now;
        }
        t2.push((upd_ns + look_ns) as f64 / n);
        if updates > 0.0 {
            t2u.push(upd_ns as f64 / updates);
        }
        if updates < n {
            t2l.push(look_ns as f64 / (n - updates));
        }

        // Capture (untimed, trace on), then rungs 3 and 4.
        for op in chunk {
            lad.wrong += u64::from(!R::bare_exec(&mut cap, op));
            log.capture(R::bare_nv(&mut cap).pm_mut());
        }
        lad.events += log.counts();
        let start = replay_spans.now_ns();
        let (ns, mism) = replay_alloc(&mut r3, &log);
        lad.alloc_mismatches += mism;
        a3.push(ns as f64 / n);
        let mid = replay_spans.now_ns();
        replay_spans.record("alloc.replay", ci as u32, ROOT, start, mid);
        let ns = replay_pmem(&mut r4, &log, &mut lad.calls, clock_ns);
        r4_total_ns += ns;
        p4.push(ns as f64 / n);
        let end = replay_spans.now_ns();
        replay_spans.record("pmem.replay", ci as u32, ROOT, mid, end);
        for f in files.iter_mut().flatten() {
            f.total_ns += replay_pmem(&mut f.pm, &log, &mut f.calls, clock_ns);
        }
        log.clear();
        op_id += chunk.len() as u32;
    }

    lad.t1_untraced = median(&t1u);
    lad.t1_traced = if t1t.is_empty() {
        lad.t1_untraced
    } else {
        median(&t1t)
    };
    lad.t2 = median(&t2);
    lad.t2_update = if t2u.is_empty() { 0.0 } else { median(&t2u) };
    lad.t2_lookup = if t2l.is_empty() { 0.0 } else { median(&t2l) };
    lad.alloc_incl = median(&a3);
    lad.pmem = median(&p4);
    lad.core_counters = Some(core_before.until(&Snap::take(R::core_nv(&core))));
    lad.captured = R::bare_nv(&mut cap).pm().stats().since(&cap_before);
    lad.replayed = r4.stats().since(&r4_before);
    if let Some([buffered, fsync]) = &files {
        let fences = lad.events.fences.max(1) as f64;
        let rounds = (fsync.pm.backend_stats().fsync_rounds
            - file_fences_before.unwrap_or_default())
        .max(1) as f64;
        lad.journal = Some(JournalRungs {
            self_us_per_fence: (buffered.total_ns as f64 - r4_total_ns as f64) / fences / 1e3,
            fsync_us_per_round: (fsync.total_ns as f64 - buffered.total_ns as f64) / rounds / 1e3,
            longest_fence_ms: fsync.calls.longest_sfence_ns as f64 / 1e6,
        });
    }
    lad.spans = vec![
        ("rung1.core", core_spans.spans),
        ("rung2.funcds", bare_spans.spans),
        ("rung3+4.replay", replay_spans.spans),
    ];
    lad
}
