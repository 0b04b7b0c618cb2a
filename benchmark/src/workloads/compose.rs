//! `compose_fsync_file`: two worker threads on a `SharedModHeap` in
//! group-commit mode over a file-backed, fsync-grade pool set. Each FASE
//! goes through the Composition interface — a vector slot update plus an
//! enqueue, and on every second FASE a dequeue — on the worker's own
//! pair of roots, so no FASE is ever refused for lane contention. The
//! structures are tiny: the journal, the backend and the commit pipeline
//! do the work. The heap is then dropped without checkpoint or close and
//! reopened, which is the only place journal replay is timed.

use super::{fastest_ms, set_up, Plan};
use crate::counters::{SharedCounters, SharedSnap};
use crate::gen::{compose_ops, ComposeOp, COMPOSE_SLOTS};
use crate::ladder::{run_ladder, LadderCfg, Rungs};
use crate::report::Outcome;
use crate::span::{durations_of, Span, Tracer, ROOT};
use crate::spec;
use crate::stats::{
    latency_windows, median, quantile_sorted, second_highest, second_lowest, segment_rates,
};
use crate::sys::{self, PoolDir};
use mod_alloc::{NvHeap, RecoveryReport};
use mod_core::{CommitMode, DurableQueue, DurableVector, ModHeap, SharedModHeap};
use mod_funcds::{PmQueue, PmVector};
use mod_pmem::{Durability, Pmem, PmemConfig, ReplayStats};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CAPACITY: u64 = 1 << 26;
/// FASEs each worker stages per second of `--seconds` (sized on the
/// 2-core reference box; the count is fixed by the arguments).
const FASES_PER_WORKER_PER_SECOND: u64 = 1100;
/// FASEs per worker in the traced run's slices.
const SLICE_FASES: u64 = 5_000;
/// A worker waits for durability after every this many FASEs.
const WAIT_EVERY: usize = 16;
/// FASEs each worker leaves staged but never waits for: after the
/// un-checkpointed drop, recovery may land anywhere in this tail.
const UNWAITED_TAIL: usize = 5;
/// Set-up is a few milliseconds here: many rounds cost nothing.
const SETUP_ROUNDS: usize = 9;
const RECOVERY_ROUNDS: usize = 5;
const LADDER_FASES: usize = 20_000;
const USER_BYTES_PER_FASE: u64 = 16;

fn pool_cfg() -> PmemConfig {
    PmemConfig {
        journal_shards: 2,
        durability: Durability::Fsync,
        ..PmemConfig::benchmarking(CAPACITY)
    }
}

fn commit_mode() -> CommitMode {
    CommitMode::Group {
        max_batch: 2,
        timeout: Duration::from_millis(2),
    }
}

/// Worker `w` owns roots `2w` (vector) and `2w + 1` (queue).
#[derive(Clone, Copy)]
struct Roots {
    vecs: [DurableVector<u64>; WORKERS],
    queues: [DurableQueue<u64>; WORKERS],
}

impl Roots {
    fn create(heap: &mut ModHeap) -> Roots {
        let zeros = vec![0u64; COMPOSE_SLOTS as usize];
        let pair = |heap: &mut ModHeap| {
            (
                DurableVector::create_from(heap, &zeros),
                DurableQueue::create(heap),
            )
        };
        let (v0, q0) = pair(heap);
        let (v1, q1) = pair(heap);
        Roots {
            vecs: [v0, v1],
            queues: [q0, q1],
        }
    }

    fn open(heap: &mut ModHeap) -> Roots {
        let vec = |heap: &mut ModHeap, i| heap.root(i).open().expect("vector root");
        let queue = |heap: &mut ModHeap, i| heap.root(i).open().expect("queue root");
        Roots {
            vecs: [vec(heap, 0), vec(heap, 2)],
            queues: [queue(heap, 1), queue(heap, 3)],
        }
    }

    /// One FASE; returns what the dequeue (if any) removed.
    fn stage(&self, tx: &mut mod_core::Fase<'_>, w: usize, op: &ComposeOp) -> Option<u64> {
        self.vecs[w].update_in(tx, op.slot, &op.value);
        self.queues[w].enqueue_in(tx, &op.value);
        if op.dequeue {
            self.queues[w].dequeue_in(tx)
        } else {
            None
        }
    }
}

/// A worker's shadow model: what its vector and queue must hold.
#[derive(Clone, PartialEq, Eq)]
struct Model {
    vec: Vec<u64>,
    queue: VecDeque<u64>,
}

impl Model {
    fn new() -> Model {
        Model {
            vec: vec![0; COMPOSE_SLOTS as usize],
            queue: VecDeque::new(),
        }
    }

    /// Applies `op`; returns what its dequeue must remove.
    fn apply(&mut self, op: &ComposeOp) -> Option<u64> {
        self.vec[op.slot as usize] = op.value;
        self.queue.push_back(op.value);
        if op.dequeue {
            self.queue.pop_front()
        } else {
            None
        }
    }

    fn user_bytes(&self) -> u64 {
        8 * (self.vec.len() + self.queue.len()) as u64
    }
}

fn create_pool(path: &Path) -> (SharedModHeap, Roots) {
    let mut heap = ModHeap::create_file(path, pool_cfg()).expect("cannot create the pool set");
    let roots = Roots::create(&mut heap);
    (
        SharedModHeap::from_heap_with(heap, WORKERS, commit_mode()),
        roots,
    )
}

struct WorkerRun {
    /// Per FASE known durable: when it was staged and when its covering
    /// wait returned, ns since the phase began.
    staged_ns: Vec<u64>,
    durable_ns: Vec<u64>,
    refused: u64,
    wrong: u64,
    /// Model after each of the last `UNWAITED_TAIL + 1` prefixes, oldest
    /// first: the states recovery may legitimately land on.
    tail_models: VecDeque<Model>,
    /// Durations of whole wait groups, with and without spans.
    traced_group_ns: Vec<f64>,
    plain_group_ns: Vec<f64>,
    spans: Vec<Span>,
}

fn drive(
    shared: &SharedModHeap,
    roots: &Roots,
    w: usize,
    ops: &[ComposeOp],
    epoch: Instant,
    traced: bool,
) -> WorkerRun {
    // A traced run records spans in every second wait group only: both
    // kinds of group see the same pool in the same state, so the
    // difference of their durations is what the spans cost.
    let group_traced = |i: usize| traced && (i / WAIT_EVERY) % 2 == 1;
    let mut run = WorkerRun {
        staged_ns: Vec::with_capacity(ops.len()),
        durable_ns: Vec::with_capacity(ops.len()),
        refused: 0,
        wrong: 0,
        tail_models: VecDeque::new(),
        traced_group_ns: Vec::new(),
        plain_group_ns: Vec::new(),
        spans: Vec::new(),
    };
    let mut tracer = Tracer::new(epoch);
    let mut model = Model::new();
    let mut last_ticket = None;
    let now = || epoch.elapsed().as_nanos() as u64;
    for (i, op) in ops.iter().enumerate() {
        let start = now();
        match shared.try_fase_ticketed(w, |tx| roots.stage(tx, w, op)) {
            Ok((dequeued, ticket)) => {
                run.wrong += u64::from(dequeued != model.apply(op));
                last_ticket = Some(ticket);
            }
            Err(_) => run.refused += 1,
        }
        let staged = now();
        if group_traced(i) {
            tracer.record("core.stage", i as u32, ROOT, start, staged);
        }
        run.staged_ns.push(start);
        if (i + 1) % WAIT_EVERY == 0 {
            if let Some(t) = last_ticket.take() {
                if shared.try_wait_durable(&t).is_err() {
                    run.refused += 1;
                }
            }
            let durable = now();
            if group_traced(i) {
                tracer.record("core.wait_durable", i as u32, ROOT, staged, durable);
            }
            let group_start = run.staged_ns[i + 1 - WAIT_EVERY];
            let groups = if group_traced(i) {
                &mut run.traced_group_ns
            } else {
                &mut run.plain_group_ns
            };
            groups.push((durable - group_start) as f64);
            run.durable_ns.resize(i + 1, durable);
        }
        if i + 1 + UNWAITED_TAIL >= ops.len() {
            run.tail_models.push_back(model.clone());
        }
    }
    // Out of the batch quorum, or the other worker would wait out the
    // group timeout on every remaining FASE.
    shared.deregister(w);
    run.staged_ns.truncate(run.durable_ns.len());
    run.spans = tracer.spans;
    run
}

struct Measured {
    fases: u64,
    rate: f64,
    latencies_ns: Vec<u64>,
    shared: SharedCounters,
    file_bytes: u64,
    snapshot_epoch: u64,
    snapshot_get_ns: f64,
    live_user_bytes: u64,
    refused: u64,
    wrong: u64,
    runs: Vec<WorkerRun>,
}

/// The measured phase on a freshly created pool: both workers run their
/// streams, then the heap is **dropped** — no flush, no checkpoint.
fn measure(
    shared: SharedModHeap,
    roots: Roots,
    streams: &[Vec<ComposeOp>],
    traced: bool,
) -> Measured {
    let before = SharedSnap::take(&shared);
    let epoch = Instant::now();
    let runs: Vec<WorkerRun> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(w, ops)| {
                let shared = &shared;
                let roots = &roots;
                s.spawn(move || drive(shared, roots, w, ops, epoch, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let after = SharedSnap::take(&shared);

    // Wait-free reads off the pipeline, timed one by one.
    let mut reads: Vec<f64> = (0..2000u64)
        .map(|i| {
            let t = Instant::now();
            let view = shared.snapshot();
            std::hint::black_box(view.vector_get(&roots.vecs[0], i % COMPOSE_SLOTS));
            drop(view);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    reads.sort_by(f64::total_cmp);

    let mut done: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.durable_ns.iter().copied())
        .collect();
    done.sort_unstable();
    // Latencies in completion order, both workers merged.
    let mut lat: Vec<(u64, u64)> = runs
        .iter()
        .flat_map(|r| {
            r.durable_ns
                .iter()
                .zip(&r.staged_ns)
                .map(|(&d, &s)| (d, d - s))
        })
        .collect();
    lat.sort_unstable();
    let file_bytes = shared
        .with(|h| h.nv().pm().backend_file_bytes())
        .expect("pool file sizes");
    let m = Measured {
        fases: streams.iter().map(|s| s.len() as u64).sum(),
        rate: second_highest(&segment_rates(&done)),
        latencies_ns: lat.into_iter().map(|(_, l)| l).collect(),
        shared: before.until(&after),
        file_bytes,
        snapshot_epoch: shared.snapshot_epoch(),
        snapshot_get_ns: reads[reads.len() / 2],
        live_user_bytes: runs
            .iter()
            .map(|r| r.tail_models.back().map_or(0, Model::user_bytes))
            .sum(),
        refused: runs.iter().map(|r| r.refused).sum(),
        wrong: runs.iter().map(|r| r.wrong).sum(),
        runs,
    };
    drop(shared);
    m
}

struct Reopened {
    recovery_ms: f64,
    replay: ReplayStats,
    report: RecoveryReport,
    checks: u64,
    wrong: u64,
}

/// Reopens the dropped pool [`RECOVERY_ROUNDS`] times (each open replays
/// the same journal) and checks the recovered roots: each worker's
/// vector and queue must together equal its model after *one* prefix of
/// its FASEs, no shorter than the last one it waited for.
fn reopen_and_verify(path: &Path, runs: &[WorkerRun]) -> Reopened {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..RECOVERY_ROUNDS {
        drop(last.take());
        let t = Instant::now();
        let (mut heap, report) =
            ModHeap::open_file(path, pool_cfg()).expect("cannot reopen the pool set");
        let roots = Roots::open(&mut heap);
        std::hint::black_box(roots.vecs[0].get(&heap, 0));
        times.push(t.elapsed());
        last = Some((heap, roots, report));
    }
    let (heap, roots, report) = last.expect("at least one recovery round");
    let mut wrong = 0u64;
    for (w, run) in runs.iter().enumerate() {
        let got = Model {
            vec: roots.vecs[w].to_vec(&heap),
            queue: heap
                .current(roots.queues[w].root())
                .peek_to_vec(heap.nv())
                .into(),
        };
        wrong += u64::from(!run.tail_models.iter().any(|m| *m == got));
    }
    Reopened {
        recovery_ms: fastest_ms(&times),
        replay: heap.nv().pm().replay_stats().cloned().unwrap_or_default(),
        report,
        checks: runs.len() as u64,
        wrong,
    }
}

fn streams(plan: &Plan, per_worker: u64) -> Vec<Vec<ComposeOp>> {
    // A whole number of wait groups plus the unwaited tail.
    let per_worker = if plan.quick {
        per_worker / 10
    } else {
        per_worker
    };
    let n = per_worker / WAIT_EVERY as u64 * WAIT_EVERY as u64 + UNWAITED_TAIL as u64;
    (0..WORKERS as u64)
        .map(|w| compose_ops(plan.seed, w, n))
        .collect()
}

pub fn run_e2e(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(spec::COMPOSE, false);
    let dir = PoolDir::new(spec::COMPOSE);
    let path = dir.file("compose.pool");
    let streams = streams(plan, plan.seconds * FASES_PER_WORKER_PER_SECOND);

    let ((shared, roots), setup_s) = set_up(
        SETUP_ROUNDS,
        |previous| {
            drop(previous);
            dir.clear();
        },
        || create_pool(&path),
    );
    out.set("setup_s", setup_s);

    let m = measure(shared, roots, &streams, false);
    out.attempted += m.fases;
    out.failed += m.refused + m.wrong;
    out.set("ops_per_s", m.rate);
    let w = latency_windows(&m.latencies_ns, 0.99);
    out.set("p50_ms", second_lowest(&w.p50s) / 1e6);
    out.notes.push(format!(
        "latency: stage → durable known, {} FASEs; p99 (tail quantile {}, median window, not gated) \
         {:.3} ms; mean batch {:.3}, {} compactions",
        m.latencies_ns.len(),
        w.tail_q,
        median(&w.tails) / 1e6,
        m.shared.pipe.batched_fases as f64 / m.shared.pipe.batches.max(1) as f64,
        m.shared.backend.compactions
    ));
    for (name, v) in
        m.shared
            .counters
            .end_to_end(m.fases, m.fases * USER_BYTES_PER_FASE, m.live_user_bytes)
    {
        out.set(name, v);
    }

    let r = reopen_and_verify(&path, &m.runs);
    out.attempted += r.checks;
    out.failed += r.wrong;
    out.set("recovery_ms", r.recovery_ms);
    out.notes.push(format!(
        "recovery: fastest of {RECOVERY_ROUNDS} open_file + first read after an un-checkpointed drop \
         ({} journal batches replayed by {} threads)",
        r.replay.batches, r.replay.replay_parallelism
    ));
    out.set(
        "peak_rss_mb",
        sys::peak_rss_mib(None).expect("own /proc status"),
    );
    out
}

/// Ladder op: worker `w`'s FASE, the workers' streams interleaved on one
/// thread.
pub struct LadderOp {
    w: usize,
    op: ComposeOp,
}

/// Rung 1: the same FASEs through the Composition interface of a
/// single-owner `ModHeap` (multi-root commit: a fresh root directory).
pub struct CoreCompose {
    heap: ModHeap,
    roots: Roots,
    models: [Model; WORKERS],
}

/// Rung 2: `PmVector`/`PmQueue` on a bare heap; fence, release, then one
/// root-slot store per structure.
pub struct BareCompose {
    nv: NvHeap,
    vecs: [PmVector; WORKERS],
    queues: [PmQueue; WORKERS],
    superseded: Option<(PmVector, PmQueue)>,
    models: [Model; WORKERS],
}

pub struct ComposeRungs;

impl Rungs for ComposeRungs {
    type Op = LadderOp;
    type Core = CoreCompose;
    type Bare = BareCompose;

    fn core_new(pm: Pmem) -> CoreCompose {
        let mut heap = ModHeap::create(pm);
        let roots = Roots::create(&mut heap);
        CoreCompose {
            heap,
            roots,
            models: [Model::new(), Model::new()],
        }
    }

    fn core_exec(c: &mut CoreCompose, o: &LadderOp) -> bool {
        let roots = c.roots;
        let got = c.heap.fase(|tx| roots.stage(tx, o.w, &o.op));
        got == c.models[o.w].apply(&o.op)
    }

    fn core_nv(c: &CoreCompose) -> &NvHeap {
        c.heap.nv()
    }

    fn bare_new(pm: Pmem) -> BareCompose {
        let mut nv = NvHeap::format(pm);
        let zeros = vec![0u64; COMPOSE_SLOTS as usize];
        let vecs = [
            PmVector::from_slice(&mut nv, &zeros),
            PmVector::from_slice(&mut nv, &zeros),
        ];
        let queues = [PmQueue::empty(&mut nv), PmQueue::empty(&mut nv)];
        BareCompose {
            nv,
            vecs,
            queues,
            superseded: None,
            models: [Model::new(), Model::new()],
        }
    }

    fn bare_exec(b: &mut BareCompose, o: &LadderOp) -> bool {
        let nv = &mut b.nv;
        let new_vec = b.vecs[o.w].update(nv, o.op.slot, o.op.value);
        let enqueued = b.queues[o.w].enqueue(nv, o.op.value);
        let (new_queue, got) = if o.op.dequeue {
            match enqueued.dequeue(nv) {
                Some((q, e)) => {
                    enqueued.release(nv); // the intra-FASE intermediate
                    (q, Some(e))
                }
                None => (enqueued, None),
            }
        } else {
            (enqueued, None)
        };
        nv.sfence();
        if let Some((v, q)) = b.superseded.take() {
            v.release(nv);
            q.release(nv);
        }
        let slots = [nv.root_slot_addr(2 * o.w), nv.root_slot_addr(2 * o.w + 1)];
        let pm = nv.pm_mut();
        pm.begin_commit();
        for (slot, root) in slots.into_iter().zip([new_vec.root(), new_queue.root()]) {
            pm.write_u64(slot, root.addr());
            pm.clwb(slot);
        }
        pm.end_commit();
        b.superseded = Some((
            std::mem::replace(&mut b.vecs[o.w], new_vec),
            std::mem::replace(&mut b.queues[o.w], new_queue),
        ));
        got == b.models[o.w].apply(&o.op)
    }

    fn bare_nv(b: &mut BareCompose) -> &mut NvHeap {
        &mut b.nv
    }

    fn is_update(_: &LadderOp) -> bool {
        true
    }
}

pub fn run_layers(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(spec::COMPOSE, true);
    let dir = PoolDir::new(spec::COMPOSE);
    let path = dir.file("compose.pool");
    let streams = streams(plan, SLICE_FASES);

    // One slice on a fresh pool, a span around every call into the
    // shared heap in every second wait group.
    let (shared, roots) = create_pool(&path);
    let m = measure(shared, roots, &streams, true);
    let r = reopen_and_verify(&path, &m.runs);
    dir.clear();
    out.attempted += m.fases + r.checks;
    out.failed += m.refused + m.wrong + r.wrong;

    m.shared.counters.layer_metrics(m.fases, &mut out.metrics);
    m.shared.layer_metrics(m.fases, &mut out.metrics);
    out.set("journal.file_bytes_end", m.file_bytes as f64);
    out.set("journal.replay_host_ms", r.replay.host_ns as f64 / 1e6);
    out.set("journal.replay_batches", r.replay.batches as f64);
    out.set(
        "journal.replay_parallelism",
        r.replay.replay_parallelism as f64,
    );
    out.set(
        "alloc.recovery_reclaimed_bytes",
        r.report.reclaimed_bytes as f64,
    );
    out.set("alloc.recovery_live_blocks", r.report.live_blocks as f64);
    out.set(
        "p99_ms",
        median(&latency_windows(&m.latencies_ns, 0.99).tails) / 1e6,
    );
    out.set("core.snapshot_get_host_ns", m.snapshot_get_ns);
    out.set("core.snapshot_epoch_end", m.snapshot_epoch as f64);
    out.set(
        "core.recovery_host_ms",
        (r.recovery_ms - r.replay.host_ns as f64 / 1e6).max(0.0),
    );

    let spans: Vec<Span> = m
        .runs
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let mut stage = durations_of(&spans, "core.stage");
    let mut wait = durations_of(&spans, "core.wait_durable");
    stage.sort_unstable();
    wait.sort_unstable();
    out.set(
        "core.stage_host_us_p50",
        quantile_sorted(&stage, 0.5) as f64 / 1e3,
    );
    out.set(
        "core.wait_durable_host_us_p50",
        quantile_sorted(&wait, 0.5) as f64 / 1e3,
    );
    out.set(
        "core.wait_durable_host_us_p99",
        quantile_sorted(&wait, 0.99) as f64 / 1e3,
    );
    let group = |pick: fn(&WorkerRun) -> &Vec<f64>| {
        median(
            &m.runs
                .iter()
                .flat_map(|r| pick(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let (plain_ns, traced_ns) = (group(|r| &r.plain_group_ns), group(|r| &r.traced_group_ns));
    out.set("trace.overhead_frac", 1.0 - plain_ns / traced_ns);
    out.notes.push(format!(
        "spans: {} core.stage, {} core.wait_durable; a {WAIT_EVERY}-FASE wait group takes {:.1} us \
         without spans, {:.1} us with (medians)",
        stage.len(),
        wait.len(),
        plain_ns / 1e3,
        traced_ns / 1e3
    ));

    // The ladder below the shared heap: the two streams interleaved on
    // one thread, single-owner commits, and rung 4 replayed on memory,
    // buffered-file and fsync-file pools to price the journal.
    let per_worker = if plan.quick {
        LADDER_FASES / 20
    } else {
        LADDER_FASES / 2
    };
    let ops: Vec<LadderOp> = (0..per_worker)
        .flat_map(|i| (0..WORKERS).map(move |w| (w, i)))
        .map(|(w, i)| LadderOp {
            w,
            op: streams[w][i % streams[w].len()],
        })
        .collect();
    let lad = run_ladder::<ComposeRungs>(
        &LadderCfg {
            capacity: CAPACITY,
            journal_dir: Some(dir.file("")),
        },
        &[],
        &ops,
    );
    out.attempted += 3 * ops.len() as u64;
    out.failed += lad.wrong + lad.alloc_mismatches;
    lad.layer_metrics(&mut out.metrics);
    lad.sim_split_metrics(&mut out.metrics);
    out.notes.extend(lad.describe());
    out.notes.push(
        "ladder rungs 1-4 run the two workers' FASEs interleaved on one thread with single-owner \
         commits; trace.overhead_frac compares the shared heap's wait groups with and without spans"
            .into(),
    );
    super::finish_traced(&mut out, &[("rung1.shared-heap", spans.as_slice())], &lad);
    out
}
