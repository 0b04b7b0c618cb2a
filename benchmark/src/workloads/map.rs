//! `map_update_sim` and `map_read95_sim`: a `DurableMap<u64, [u8; 32]>`
//! (Table 2's 8 B key / 32 B value) on a memory-backed simulated pool,
//! single thread, Basic interface. The two share everything but the op
//! mix, so a change that trades lookup cost against update cost moves
//! them in opposite directions.

use super::{fastest_ms, set_up, Plan};
use crate::counters::Snap;
use crate::gen::{value32, MapOp, MapStream, ABSENT};
use crate::ladder::{run_ladder, LadderCfg, Rungs};
use crate::report::Outcome;
use crate::spec;
use crate::stats::{
    latency_windows, median, second_highest, second_lowest, segment_rates, LAT_WINDOWS,
};
use crate::sys;
use mod_alloc::NvHeap;
use mod_core::{DurableMap, ModHeap};
use mod_funcds::PmMap;
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use std::time::{Duration, Instant};

const CAPACITY: u64 = 1 << 30;
const VALUE_BYTES: u64 = 32;
const USER_BYTES_PER_ENTRY: u64 = 8 + VALUE_BYTES;
/// Fits the modelled 32 KiB L1D / LLC several times over in entries but
/// not in trie nodes: the hot lookups hit, the uniform ones miss.
const HOT_KEYS: usize = 2048;
const SETUP_ROUNDS: usize = 5;
/// Timed recoveries per batch of rounds (three batches a run).
const RECOVERY_ROUNDS: usize = 5;

pub struct Shape {
    pub name: &'static str,
    /// Share of lookups, %.
    get_pct: u64,
    /// Measured ops per second of `--seconds`: the op count is fixed by
    /// the arguments, not by how fast this machine is, so counts repeat
    /// exactly. Sized on the 2-core reference box to fill the time.
    ops_per_second: u64,
    /// Ops of the traced run's ladder slice.
    ladder_ops: u64,
}

pub const UPDATE: Shape = Shape {
    name: spec::MAP_UPDATE,
    get_pct: 0,
    ops_per_second: 45_000,
    ladder_ops: 100_000,
};

pub const READ95: Shape = Shape {
    name: spec::MAP_READ95,
    get_pct: 95,
    ops_per_second: 350_000,
    ladder_ops: 400_000,
};

struct Sizes {
    key_space: u64,
    preload: u64,
    crash_ops: usize,
}

fn sizes(plan: &Plan) -> Sizes {
    if plan.quick {
        Sizes {
            key_space: 20_000,
            preload: 10_000,
            crash_ops: 2_000,
        }
    } else {
        Sizes {
            key_space: 200_000,
            preload: 100_000,
            crash_ops: 20_000,
        }
    }
}

struct Inputs {
    preload: Vec<MapOp>,
    ops: Vec<MapOp>,
    /// The shadow model after preload + ops: key → version.
    model: Vec<u32>,
    live_keys: u64,
}

fn inputs(shape: &Shape, plan: &Plan, n_ops: u64) -> Inputs {
    let sz = sizes(plan);
    let mut stream = MapStream::new(plan.seed, sz.key_space);
    let preload = stream.upserts(sz.preload);
    let ops = if shape.get_pct == 0 {
        stream.upserts(n_ops)
    } else {
        let hot = stream.hot_set(HOT_KEYS);
        stream.mixed(n_ops, shape.get_pct, &hot)
    };
    Inputs {
        preload,
        ops,
        live_keys: stream.live_keys(),
        model: stream.versions,
    }
}

/// Rung 1: the typed wrapper on a single-owner heap. Lookups take the
/// charged read path (`PmMap::get` on `&mut NvHeap`), the one the
/// simulated clock and cache model see; `DurableMap::get` reads the
/// same nodes uncharged.
pub struct CoreMap {
    heap: ModHeap,
    map: DurableMap<u64, [u8; 32]>,
}

/// Rung 2: the same trie on a bare allocator heap, committed by hand the
/// way Fig 8b does it and in `mod-core`'s order — fence, release what
/// the previous commit superseded, store and flush the root pointer.
pub struct BareMap {
    nv: NvHeap,
    cur: PmMap,
    superseded: Option<PmMap>,
}

impl BareMap {
    pub fn new(pm: Pmem) -> BareMap {
        let mut nv = NvHeap::format(pm);
        let cur = PmMap::empty(&mut nv);
        BareMap {
            nv,
            cur,
            superseded: None,
        }
    }

    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.cur.get(&mut self.nv, key)
    }

    pub fn upsert(&mut self, key: u64, value: &[u8]) {
        let new = self.cur.insert(&mut self.nv, key, value);
        self.nv.sfence();
        if let Some(old) = self.superseded.take() {
            old.release(&mut self.nv);
        }
        let slot = self.nv.root_slot_addr(0);
        let pm = self.nv.pm_mut();
        pm.begin_commit();
        pm.write_u64(slot, new.root().addr());
        pm.clwb(slot);
        pm.end_commit();
        self.superseded = Some(std::mem::replace(&mut self.cur, new));
    }

    pub fn nv(&mut self) -> &mut NvHeap {
        &mut self.nv
    }
}

pub struct MapRungs;

impl Rungs for MapRungs {
    type Op = MapOp;
    type Core = CoreMap;
    type Bare = BareMap;

    fn core_new(pm: Pmem) -> CoreMap {
        let mut heap = ModHeap::create(pm);
        let map = DurableMap::create(&mut heap);
        CoreMap { heap, map }
    }

    fn core_exec(c: &mut CoreMap, op: &MapOp) -> bool {
        if op.is_get {
            let got = c.heap.current(c.map.root()).get(c.heap.nv_mut(), op.key);
            lookup_ok(op, got.as_deref())
        } else {
            c.map
                .insert(&mut c.heap, &op.key, &value32(op.key, op.version));
            true
        }
    }

    fn core_nv(c: &CoreMap) -> &NvHeap {
        c.heap.nv()
    }

    fn bare_new(pm: Pmem) -> BareMap {
        BareMap::new(pm)
    }

    fn bare_exec(b: &mut BareMap, op: &MapOp) -> bool {
        if op.is_get {
            let got = b.get(op.key);
            return lookup_ok(op, got.as_deref());
        }
        b.upsert(op.key, &value32(op.key, op.version));
        true
    }

    fn bare_nv(b: &mut BareMap) -> &mut NvHeap {
        b.nv()
    }

    fn is_update(op: &MapOp) -> bool {
        !op.is_get
    }
}

fn lookup_ok(op: &MapOp, got: Option<&[u8]>) -> bool {
    match got {
        None => op.version == ABSENT,
        Some(bytes) => op.version != ABSENT && bytes == value32(op.key, op.version),
    }
}

/// Every model entry against the map, plus the entry count. Returns
/// `(checks, mismatches)`.
fn verify_contents(heap: &ModHeap, map: &DurableMap<u64, [u8; 32]>, model: &[u32]) -> (u64, u64) {
    let (mut checks, mut wrong) = (1u64, 0u64);
    let live = model.iter().filter(|&&v| v != ABSENT).count() as u64;
    wrong += u64::from(map.len(heap) != live);
    for (key, &version) in model.iter().enumerate() {
        if version != ABSENT {
            checks += 1;
            let expect = value32(key as u64, version);
            wrong += u64::from(map.get(heap, &(key as u64)) != Some(expect));
        }
    }
    (checks, wrong)
}

struct CrashCheck {
    recovery_ms: f64,
    checks: u64,
    wrong: u64,
    report: mod_alloc::RecoveryReport,
}

/// An untimed pass of upserts on a `crash_sim` pool, crashed where it
/// stands — no orderly close, only fenced lines survive — and recovered
/// with `ModHeap::open`. The last FASE's pointer store is flushed but
/// not fenced, so recovery must land on the model after all ops or after
/// all but the last, nothing else.
///
/// Recovery is a few milliseconds of cache-missing pointer chasing, and
/// on this sandbox its host time sits on one of two levels ~1.6x apart
/// for seconds at a stretch (the neighbours' cache pressure). The rounds
/// are therefore spread over the whole run and the **fastest** is
/// reported: interference only ever adds time.
struct CrashProbe {
    crashed: CoreMap,
    first_key: u64,
    model: Vec<u32>,
    before_last: Vec<u32>,
    times: Vec<Duration>,
    recovered: Option<(
        ModHeap,
        DurableMap<u64, [u8; 32]>,
        mod_alloc::RecoveryReport,
    )>,
}

impl CrashProbe {
    fn new(ops: &[MapOp], key_space: usize) -> CrashProbe {
        let cfg = PmemConfig {
            crash_sim: true,
            ..PmemConfig::benchmarking(1 << 28)
        };
        let mut crashed = MapRungs::core_new(Pmem::new(cfg));
        let mut model = vec![ABSENT; key_space];
        let mut before_last = model.clone();
        for (i, op) in ops.iter().enumerate() {
            if i + 1 == ops.len() {
                before_last = model.clone();
            }
            MapRungs::core_exec(&mut crashed, op);
            model[op.key as usize] = op.version;
        }
        CrashProbe {
            crashed,
            first_key: ops[0].key,
            model,
            before_last,
            times: Vec::new(),
            recovered: None,
        }
    }

    /// [`RECOVERY_ROUNDS`] timed recoveries, each of a crash image of its
    /// own.
    fn rounds(&mut self) {
        for _ in 0..RECOVERY_ROUNDS {
            let image = self
                .crashed
                .heap
                .nv()
                .pm()
                .crash_image(CrashPolicy::OnlyFenced);
            let t = Instant::now();
            let (mut heap, report) = ModHeap::open(image);
            let map: DurableMap<u64, [u8; 32]> = heap.root(0).open().expect("recovered map root");
            std::hint::black_box(map.get(&heap, &self.first_key));
            self.times.push(t.elapsed());
            self.recovered = Some((heap, map, report));
        }
    }

    fn finish(self) -> CrashCheck {
        let (heap, map, report) = self.recovered.expect("at least one recovery round");
        let (checks, wrong_all) = verify_contents(&heap, &map, &self.model);
        let wrong = if wrong_all == 0 {
            0
        } else {
            verify_contents(&heap, &map, &self.before_last)
                .1
                .min(wrong_all)
        };
        CrashCheck {
            recovery_ms: fastest_ms(&self.times),
            checks,
            wrong,
            report,
        }
    }
}

pub fn run_e2e(shape: &Shape, plan: &Plan) -> Outcome {
    let sz = sizes(plan);
    let inp = inputs(shape, plan, plan.seconds * shape.ops_per_second);
    let mut out = Outcome::new(shape.name, false);

    let mut probe = CrashProbe::new(&inp.preload[..sz.crash_ops], sz.key_space as usize);
    probe.rounds();

    // Set-up, several times over on fresh pools; the last one is kept.
    let (mut core, setup_s) = set_up(SETUP_ROUNDS, drop, || {
        let mut c = MapRungs::core_new(Pmem::new(PmemConfig::benchmarking(CAPACITY)));
        for op in &inp.preload {
            MapRungs::core_exec(&mut c, op);
        }
        c
    });
    out.set("setup_s", setup_s);
    probe.rounds();

    // The measured phase: one clock read per op gives both the segment
    // rates and the per-op latencies.
    let before = Snap::take(core.heap.nv());
    let mut done_ns = Vec::with_capacity(inp.ops.len());
    let mut wrong = 0u64;
    let t0 = Instant::now();
    for op in &inp.ops {
        wrong += u64::from(!MapRungs::core_exec(&mut core, op));
        done_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let counters = before.until(&Snap::take(core.heap.nv()));
    out.attempted += inp.ops.len() as u64;
    out.failed += wrong;

    out.set("ops_per_s", second_highest(&segment_rates(&done_ns)));
    let mut prev = 0u64;
    let lat: Vec<u64> = done_ns
        .iter()
        .map(|&t| {
            let d = t - prev;
            prev = t;
            d
        })
        .collect();
    let w = latency_windows(&lat, 0.99);
    out.set("p50_ms", second_lowest(&w.p50s) / 1e6);
    out.notes.push(format!(
        "latency: {} samples in {LAT_WINDOWS} windows; p99 (tail quantile {}, median window, not gated) {:.6} ms",
        lat.len(),
        w.tail_q,
        median(&w.tails) / 1e6
    ));

    let updates = inp.ops.iter().filter(|op| !op.is_get).count() as u64;
    for (name, v) in counters.end_to_end(
        inp.ops.len() as u64,
        updates * USER_BYTES_PER_ENTRY,
        inp.live_keys * USER_BYTES_PER_ENTRY,
    ) {
        out.set(name, v);
    }

    let (checks, wrong) = verify_contents(&core.heap, &core.map, &inp.model);
    out.attempted += checks;
    out.failed += wrong;
    drop(core);

    probe.rounds();
    let rounds = probe.times.len();
    let crash = probe.finish();
    out.set("recovery_ms", crash.recovery_ms);
    out.attempted += crash.checks;
    out.failed += crash.wrong;
    out.notes.push(format!(
        "recovery: fastest of {rounds} ModHeap::open of an OnlyFenced crash image after {} upserts, \
         rounds spread over the run",
        sz.crash_ops
    ));
    out.set(
        "peak_rss_mb",
        sys::peak_rss_mib(None).expect("own /proc status"),
    );
    out
}

pub fn run_layers(shape: &Shape, plan: &Plan) -> Outcome {
    let sz = sizes(plan);
    let n_ops = if plan.quick {
        shape.ladder_ops / 10
    } else {
        shape.ladder_ops
    };
    let inp = inputs(shape, plan, n_ops);
    let mut out = Outcome::new(shape.name, true);

    let lad = run_ladder::<MapRungs>(
        &LadderCfg {
            capacity: CAPACITY,
            journal_dir: None,
        },
        &inp.preload,
        &inp.ops,
    );
    out.attempted += 3 * (inp.preload.len() + inp.ops.len()) as u64;
    out.failed += lad.wrong + lad.alloc_mismatches;
    lad.layer_metrics(&mut out.metrics);
    out.set("trace.overhead_frac", lad.overhead_frac());
    let counters = lad.core_counters.as_ref().expect("ladder ran");
    counters.layer_metrics(lad.ops, &mut out.metrics);
    out.notes.extend(lad.describe());

    // Single owner: every FASE is its own batch.
    out.set("core.fases", lad.updates as f64);
    out.set("core.batches", counters.pm.fences as f64);
    out.set(
        "core.mean_batch",
        lad.updates as f64 / counters.pm.fences.max(1) as f64,
    );
    out.set("core.max_batch", 1.0);

    let mut probe = CrashProbe::new(&inp.preload[..sz.crash_ops], sz.key_space as usize);
    probe.rounds();
    let crash = probe.finish();
    out.attempted += crash.checks;
    out.failed += crash.wrong;
    out.set("core.recovery_host_ms", crash.recovery_ms);
    out.set(
        "alloc.recovery_reclaimed_bytes",
        crash.report.reclaimed_bytes as f64,
    );
    out.set(
        "alloc.recovery_live_blocks",
        crash.report.live_blocks as f64,
    );

    if shape.get_pct == 0 {
        let (sim_ns, fences) = super::stm::pmdk15_reference(&inp.preload, &inp.ops, CAPACITY);
        out.set("stm.pmdk15_sim_ns_per_op", sim_ns);
        out.set("stm.pmdk15_fences_per_op", fences);
        out.notes.push(
            "stm.*: StmHashMap under TxMode::Hybrid on the same op slice — the Fig 9/10 \
             reference; the model has no hardware reference in-repo (unvalidated)"
                .into(),
        );
    }
    let per_op: Vec<u64> = lad.spans[0]
        .1
        .iter()
        .map(crate::span::Span::dur_ns)
        .collect();
    out.set(
        "p99_ms",
        median(&latency_windows(&per_op, 0.99).tails) / 1e6,
    );
    super::finish_traced(&mut out, &[], &lad);
    out
}
