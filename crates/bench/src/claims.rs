//! The paper-claims ledger: every claim of the paper's evaluation
//! (arXiv 1908.11850: Figs 2, 4, 9, 10, 11, Table 3 and §8) that this
//! reproduction checks, each stated, measured and judged in one row of
//! [`CLAIMS`].
//!
//! A row holds the paper's stated value, one measure function over an
//! [`Evidence`] set, the [`Band`] a reading must land in to reproduce
//! the claim and the [`Verdict`] recorded at CI scale
//! ([`Evidence::testing`]). `tests/paper_claims.rs` measures every row
//! once and asserts its verdict, so a verdict changes only by editing
//! its row. The figure binaries print the same rows, judged at their
//! own scale, under their tables.

use crate::{find, geomean, percent, ratio, run_everything};
use mod_core::{DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector, ModHeap};
use mod_pmem::{fit_parallel_fraction, Pmem, PmemConfig};
use mod_stm::{StmHashMap, StmQueue, StmStack, StmVector, TxHeap, TxMode};
use mod_workloads::micro::value32;
use mod_workloads::{run_workload, OpProfile, RunHeap, RunReport, ScaleConfig, System, Workload};
use Band::{Above, Below, Near, UpTo, Within};
use Better::{Higher, Lower};
use System::{Mod, Pmdk14, Pmdk15};
use Verdict::{Exceeds, Flips, Reproduces};
use Workload::{Bfs, Map, Memcached, Queue, Set, Stack, Vacation, VecSwap, Vector};

/// How a measured reading compares with the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The reading lies in the row's band.
    Reproduces,
    /// The reading lies past the band on the side that favours MOD (for
    /// a PMDK-only row: the paper's thesis that ordering is the cost).
    Exceeds,
    /// The reading lies past the band on the other side: the paper's
    /// comparison is reversed against MOD.
    Flips,
}

/// Which way a reading past the band favours MOD.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Lower readings favour MOD (time, misses, memory, flushes).
    Lower,
    /// Higher readings favour MOD (speedups, PMDK's ordering costs).
    Higher,
}

/// The readings that reproduce a claim.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Band {
    /// `x > v`.
    Above(f64),
    /// `x < v`.
    Below(f64),
    /// `lo ≤ x ≤ hi`.
    Within(f64, f64),
    /// `|x − v| < tol`.
    Near(f64, f64),
    /// `UpTo(pivot, v)`: past `pivot` in the paper's direction but not
    /// past the paper's own "~v": `pivot < x ≤ v` (or `v ≤ x < pivot`).
    UpTo(f64, f64),
}

impl Band {
    /// Whether `x` reproduces the claim.
    pub fn holds(self, x: f64) -> bool {
        match self {
            Above(v) => x > v,
            Below(v) => x < v,
            Within(lo, hi) => lo <= x && x <= hi,
            Near(v, tol) => (x - v).abs() < tol,
            UpTo(pivot, v) if pivot < v => pivot < x && x <= v,
            UpTo(pivot, v) => v <= x && x < pivot,
        }
    }

    /// Whether `x`, outside the band, lies above it.
    fn lies_above(self, x: f64) -> bool {
        match self {
            Above(_) => false,
            Below(_) => true,
            Within(_, hi) => x > hi,
            Near(v, _) => x > v,
            UpTo(pivot, v) => x > pivot.min(v),
        }
    }
}

/// One claim of the paper's evaluation.
pub struct Claim {
    /// Stable id, `figure.quantity`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub figure: &'static str,
    /// What is measured, as the binaries label it.
    pub quantity: &'static str,
    /// The paper's stated value or range.
    pub paper: &'static str,
    /// Reads the quantity from an evidence set.
    pub measure: fn(&Evidence) -> f64,
    /// Formats a reading.
    pub show: fn(f64) -> String,
    /// The readings that reproduce the claim.
    pub band: Band,
    /// Which side of the band favours MOD.
    pub better: Better,
    /// The verdict at CI scale ([`Evidence::testing`]).
    pub verdict: Verdict,
}

impl Claim {
    /// Judges a reading.
    pub fn judge(&self, x: f64) -> Verdict {
        if self.band.holds(x) {
            Reproduces
        } else if self.band.lies_above(x) == (self.better == Higher) {
            Exceeds
        } else {
            Flips
        }
    }

    /// `quantity: reading (paper: …) [verdict]`, measured on `ev`.
    pub fn line(&self, ev: &Evidence) -> String {
        let x = (self.measure)(ev);
        let (q, p, v) = (self.quantity, self.paper, self.judge(x));
        format!("{q}: {} (paper: {p}) [{v:?}]", (self.show)(x))
    }
}

/// Prints the line of every row of `figure`, measured on `ev`.
pub fn print(figure: &str, ev: &Evidence) {
    for c in CLAIMS.iter().filter(|c| c.figure == figure) {
        println!("{}", c.line(ev));
    }
}

/// What the rows read. A binary fills in what its figure's rows need;
/// a row whose input is missing panics.
#[derive(Default)]
pub struct Evidence {
    /// Table 2 runs, at most one per (workload, system) pair.
    pub reports: Vec<RunReport>,
    /// MOD's vector micro on the same scale with the flush cache off:
    /// MOD as the paper published it.
    pub vector_as_published: Option<RunReport>,
    /// Fig 4's saturated curve: (flushes per fence, ns per flush).
    pub curve: Vec<(usize, f64)>,
    /// Table 3, from [`table3_growth`].
    pub growth: Vec<Growth>,
}

impl From<Vec<RunReport>> for Evidence {
    fn from(reports: Vec<RunReport>) -> Evidence {
        Evidence {
            reports,
            ..Evidence::default()
        }
    }
}

impl Evidence {
    /// The CI ledger's evidence: every Table 2 run at
    /// [`ScaleConfig::testing`], the Fig 4 curve on the six levels
    /// 1…32, and Table 3 at N = 2 000.
    pub fn testing() -> Evidence {
        let scale = ScaleConfig::testing();
        Evidence {
            reports: run_everything(&scale),
            vector_as_published: Some(vector_as_published(&scale)),
            curve: saturated_curve(&[1, 2, 4, 8, 16, 32]),
            growth: table3_growth(2_000),
        }
    }

    fn report(&self, w: Workload, sys: System) -> &RunReport {
        find(&self.reports, w, sys)
    }

    /// `a`'s simulated time over `b`'s on `w`.
    fn time(&self, w: Workload, a: System, b: System) -> f64 {
        self.report(w, a).total_ns() / self.report(w, b).total_ns()
    }

    /// `1 − geomean(a / b)` over `ws`: how much faster `a` runs.
    fn faster(&self, ws: &[Workload], a: System, b: System) -> f64 {
        let r: Vec<f64> = ws.iter().map(|&w| self.time(w, a, b)).collect();
        1.0 - geomean(&r)
    }

    /// Mean over every workload of a PMDK v1.5 time fraction.
    fn pmdk_share(&self, share: fn(&RunReport) -> f64) -> f64 {
        let all = Workload::all();
        let sum: f64 = all.iter().map(|&w| share(self.report(w, Pmdk15))).sum();
        sum / all.len() as f64
    }

    /// The first update profile of `w` on `sys` (`map-insert`, …).
    fn op(&self, w: Workload, sys: System, label: &str) -> &OpProfile {
        let p = &self.report(w, sys).profiles[0];
        assert_eq!(p.op, label, "{w}/{sys}: first profile");
        p
    }

    /// Geomean over `ws` of MOD's L1D miss ratio over PMDK v1.5's.
    fn misses(&self, ws: &[Workload]) -> f64 {
        let miss = |w, sys| self.report(w, sys).cache.miss_ratio();
        let r: Vec<f64> = ws.iter().map(|&w| miss(w, Mod) / miss(w, Pmdk15)).collect();
        geomean(&r)
    }

    /// Average flush latency at `n` flushes per fence.
    fn latency(&self, n: usize) -> f64 {
        let level = self.curve.iter().find(|l| l.0 == n);
        level.unwrap_or_else(|| panic!("no {n}-flush level")).1
    }

    fn growth(&self, ds: &str) -> &Growth {
        let g = self.growth.iter().find(|g| g.ds == ds);
        g.unwrap_or_else(|| panic!("no Table 3 growth of {ds}"))
    }
}

/// MOD's vector micro at `scale` with the flush cache off.
pub fn vector_as_published(scale: &ScaleConfig) -> RunReport {
    let mut uncoalesced = scale.clone();
    uncoalesced.pool.coalesce_flushes = false;
    run_workload(Vector, Mod, &uncoalesced)
}

/// MOD without the flush cache over the slower of PMDK v1.5 and MOD
/// with it, on vector: above 1 only while MOD as published loses to
/// PMDK and the cache narrows that gap.
fn vector_as_published_ratio(ev: &Evidence) -> f64 {
    let uncached = ev
        .vector_as_published
        .as_ref()
        .expect("no as-published run");
    let pmdk = ev.report(Vector, Pmdk15).total_ns();
    let cached = ev.report(Vector, Mod).total_ns();
    uncached.total_ns() / pmdk.max(cached)
}

fn faster(x: f64) -> String {
    format!("{:.0}% faster", x * 100.0)
}

const MICROS: [Workload; 4] = [Map, Set, Queue, Stack];
const APPS: [Workload; 3] = [Bfs, Vacation, Memcached];

/// Table 3's MOD footprint range over map/set/stack/queue.
const TABLE3_MOD: Band = Within(1.67, 2.25);

/// Fig 11's "comparable": within the paper's smallest "higher" miss
/// ratio, 2.8×, either way.
const COMPARABLE: Band = Within(1.0 / 2.8, 2.8);

/// The ledger, in figure order. A "~v" paper value reproduces up to
/// `v` ([`Band::UpTo`]); a stated range or a comparison the repo has
/// always asserted is its own band.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim { id: "fig2.flush_share", figure: "Fig 2", quantity: "mean flush fraction", paper: "~64%",
        measure: |ev| ev.pmdk_share(|r| r.time.flush_fraction()), show: percent,
        band: UpTo(0.5, 0.64), better: Higher, verdict: Exceeds },
    Claim { id: "fig2.log_share", figure: "Fig 2", quantity: "mean log fraction", paper: "~9%",
        measure: |ev| ev.pmdk_share(|r| r.time.log_fraction()), show: percent,
        band: UpTo(0.0, 0.09), better: Higher, verdict: Exceeds },

    Claim { id: "fig4.parallel_fraction", figure: "Fig 4",
        quantity: "Karp-Flatt fit of the pmem saturated curve, parallel fraction f",
        paper: "f = 0.82, 82% parallel / 18% serial",
        measure: |ev| fit_parallel_fraction(&ev.curve), show: |x| format!("{x:.3}"),
        band: Near(0.82, 0.02), better: Higher, verdict: Reproduces },
    Claim { id: "fig4.cut16", figure: "Fig 4", quantity: "average flush latency cut by 16-way overlap",
        paper: "75%", measure: |ev| 1.0 - ev.latency(16) / ev.latency(1),
        show: |x| format!("{:.0}%", x * 100.0), band: UpTo(0.0, 0.75), better: Higher, verdict: Exceeds },

    Claim { id: "fig9.v15_vs_v14", figure: "Fig 9", quantity: "PMDK v1.5 vs v1.4 (geomean all workloads)",
        paper: "~23% faster", measure: |ev| ev.faster(&Workload::all(), Pmdk15, Pmdk14), show: faster,
        band: UpTo(0.0, 0.23), better: Higher, verdict: Reproduces },
    Claim { id: "fig9.micros", figure: "Fig 9", quantity: "MOD vs v1.5 on map/set/queue/stack (geomean)",
        paper: "~43% faster", measure: |ev| ev.faster(&MICROS, Mod, Pmdk15), show: faster,
        band: UpTo(0.0, 0.43), better: Higher, verdict: Exceeds },
    Claim { id: "fig9.map", figure: "Fig 9", quantity: "MOD vs v1.5 on map", paper: "faster",
        measure: |ev| ev.time(Map, Mod, Pmdk15), show: ratio,
        band: Below(1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig9.vector", figure: "Fig 9", quantity: "MOD vs v1.5 on vector", paper: "slower, 1.2-2.2x",
        measure: |ev| ev.time(Vector, Mod, Pmdk15), show: ratio,
        band: Above(1.0), better: Lower, verdict: Exceeds },
    // Read 1.17x with full-width vector inner-node children (header
    // generation 6); their 32-bit indices (generation 7) took it to
    // 0.97x. The paper's losing case is kept by fig9.vec_swap, and its
    // shape by fig9.worst_micros.
    Claim { id: "fig9.vector_as_published", figure: "Fig 9",
        quantity: "MOD without the flush cache vs the slower of v1.5 and MOD with it, on vector",
        paper: "slower than v1.5, 1.2-2.2x", measure: vector_as_published_ratio, show: ratio,
        band: Above(1.0), better: Lower, verdict: Exceeds },
    Claim { id: "fig9.vec_swap", figure: "Fig 9", quantity: "MOD vs v1.5 on vec-swap", paper: "slower, 1.2-2.2x",
        measure: |ev| ev.time(VecSwap, Mod, Pmdk15), show: ratio,
        band: Above(1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig9.worst_micros", figure: "Fig 9",
        quantity: "MOD vs v1.5, better of vector/vec-swap over worst of map/set/queue/stack",
        paper: "vector and vec-swap are MOD's two worst micros",
        measure: |ev| ev.time(Vector, Mod, Pmdk15).min(ev.time(VecSwap, Mod, Pmdk15))
            / MICROS.iter().map(|&w| ev.time(w, Mod, Pmdk15)).fold(0.0, f64::max),
        show: ratio, band: Above(1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig9.apps", figure: "Fig 9", quantity: "MOD vs v1.5 on bfs/vacation/memcached (geomean)",
        paper: "~36% faster", measure: |ev| ev.faster(&APPS, Mod, Pmdk15), show: faster,
        band: UpTo(0.0, 0.36), better: Higher, verdict: Exceeds },
    Claim { id: "fig9.slowest_app", figure: "Fig 9", quantity: "MOD vs v1.5, slowest of bfs/vacation/memcached",
        paper: "faster on each", measure: |ev| APPS.iter().map(|&w| ev.time(w, Mod, Pmdk15)).fold(0.0, f64::max),
        show: ratio, band: Below(1.0), better: Lower, verdict: Reproduces },

    Claim { id: "fig10.mod_fences", figure: "Fig 10", quantity: "MOD fences per map-insert", paper: "1, always",
        measure: |ev| ev.op(Map, Mod, "map-insert").fences_per_op(), show: |x| format!("{x:.1}"),
        band: Within(1.0, 1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig10.memcached_fences", figure: "Fig 10", quantity: "MOD fences per memcached-set",
        paper: "1, always", measure: |ev| ev.op(Memcached, Mod, "memcached-set").fences_per_op(),
        show: |x| format!("{x:.1}"), band: Near(1.0, 1e-9), better: Lower, verdict: Reproduces },
    Claim { id: "fig10.vacation_fences", figure: "Fig 10", quantity: "MOD fences per vacation-txn",
        paper: "1 per committed txn (a delete of an absent customer commits nothing)",
        measure: |ev| ev.op(Vacation, Mod, "vacation-txn").fences_per_op(),
        show: |x| format!("{x:.2}"), band: UpTo(0.5, 1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig10.mod_flushes", figure: "Fig 10", quantity: "MOD flushes per map-insert",
        paper: "several, under that one fence",
        measure: |ev| ev.op(Map, Mod, "map-insert").flushes_per_op(), show: |x| format!("{x:.1}"),
        band: Above(1.0), better: Lower, verdict: Reproduces },
    Claim { id: "fig10.pmdk_fences", figure: "Fig 10", quantity: "PMDK v1.5 fences per map-insert", paper: "5-11",
        measure: |ev| ev.op(Map, Pmdk15, "map-insert").fences_per_op(), show: |x| format!("{x:.1}"),
        band: Within(5.0, 11.0), better: Higher, verdict: Reproduces },
    Claim { id: "fig10.v14_fences", figure: "Fig 10", quantity: "PMDK v1.4 vs v1.5 fences per map-insert",
        paper: "v1.4 orders more",
        measure: |ev| ev.op(Map, Pmdk14, "map-insert").fences_per_op()
            / ev.op(Map, Pmdk15, "map-insert").fences_per_op(),
        show: ratio, band: Above(1.0), better: Higher, verdict: Reproduces },
    Claim { id: "fig10.vector_flushes", figure: "Fig 10", quantity: "MOD vs v1.5 flushes per vector-write",
        paper: "many more than PMDK's flat array",
        measure: |ev| ev.op(Vector, Mod, "vector-write").flushes_per_op()
            / ev.op(Vector, Pmdk15, "vector-write").flushes_per_op(),
        show: ratio, band: Above(1.0), better: Lower, verdict: Reproduces },

    Claim { id: "fig11.trees", figure: "Fig 11", quantity: "MOD/PMDK L1D misses on map/set/vector (geomean)",
        paper: "2.8-4.6x higher", measure: |ev| ev.misses(&[Map, Set, Vector]), show: |x| format!("{x:.1}x"),
        band: Above(1.0), better: Lower, verdict: Exceeds },
    Claim { id: "fig11.lists", figure: "Fig 11", quantity: "MOD/PMDK L1D misses on stack/queue/bfs (geomean)",
        paper: "comparable (pointer-based in both)",
        measure: |ev| ev.misses(&[Stack, Queue, Bfs]), show: |x| format!("{x:.1}x"),
        band: COMPARABLE, better: Lower, verdict: Flips },

    Claim { id: "table3.map", figure: "Table 3", quantity: "MOD map footprint, 2N over N", paper: "1.87x (PMDK 1.78x)",
        measure: |ev| ev.growth("map").mod_footprint, show: |x| format!("{x:.2}x"),
        band: TABLE3_MOD, better: Lower, verdict: Reproduces },
    Claim { id: "table3.set", figure: "Table 3", quantity: "MOD set footprint, 2N over N", paper: "2.08x (PMDK 1.75x)",
        measure: |ev| ev.growth("set").mod_footprint, show: |x| format!("{x:.2}x"),
        band: TABLE3_MOD, better: Lower, verdict: Reproduces },
    Claim { id: "table3.stack", figure: "Table 3", quantity: "MOD stack footprint, 2N over N",
        paper: "2.25x (PMDK 1.50x)",
        measure: |ev| ev.growth("stack").mod_footprint, show: |x| format!("{x:.2}x"),
        band: TABLE3_MOD, better: Lower, verdict: Reproduces },
    Claim { id: "table3.queue", figure: "Table 3", quantity: "MOD queue footprint, 2N over N",
        paper: "1.67x (PMDK 1.50x)",
        measure: |ev| ev.growth("queue").mod_footprint, show: |x| format!("{x:.2}x"),
        band: TABLE3_MOD, better: Lower, verdict: Reproduces },
    Claim { id: "table3.vector", figure: "Table 3",
        quantity: "MOD vector allocation traffic growing N to 2N, over live bytes at N", paper: "131x (PMDK 2x)",
        measure: |ev| ev.growth("vector").mod_traffic, show: |x| format!("{x:.0}x"),
        band: UpTo(f64::INFINITY, 131.0), better: Lower, verdict: Exceeds },

    Claim { id: "s8.bytes", figure: "§8", quantity: "MOD vs v1.5 bytes stored per map update",
        paper: "more: MOD minimizes ordering points, not data written, and still wins (fig9.map)",
        measure: |ev| ev.report(Map, Mod).bytes_written as f64 / ev.report(Map, Pmdk15).bytes_written as f64,
        show: ratio, band: Above(1.0), better: Lower, verdict: Reproduces },
];

/// Replays the paper's §3 microbenchmark against the simulated pool:
/// `total` lines flushed with an `sfence` every `per_fence` flushes.
/// With `prewrite` the lines are dirtied (and the time rebased) before
/// measuring, so the flush phase is pure back-to-back `clwb`s — the
/// saturated limit. Without it the stores interleave with the flushes
/// and their cache-miss time hides drain work in the background, which
/// is the overlap the model captures. Every line is written a nonzero
/// value, so none equals its never-written durable image and the flush
/// cache elides none of the `total` flushes. Returns the average
/// flush-timeline nanoseconds per flush.
pub fn measured_avg_flush_ns(per_fence: usize, total: usize, prewrite: bool) -> f64 {
    let mut pm = Pmem::new(PmemConfig::benchmarking(1 << 24));
    let addr_of = |line: u64| 0x1000 + line * 64;
    if prewrite {
        for line in 0..total as u64 {
            pm.write_u64(addr_of(line), line + 1);
        }
        pm.reset_metrics();
    }
    let mut line = 0u64;
    let t0 = pm.clock().breakdown().flush_ns;
    let mut flushed = 0usize;
    while flushed < total {
        let batch = per_fence.min(total - flushed);
        for _ in 0..batch {
            if !prewrite {
                pm.write_u64(addr_of(line), line + 1);
            }
            pm.clwb(addr_of(line));
            line += 1;
        }
        pm.sfence();
        flushed += batch;
    }
    (pm.clock().breakdown().flush_ns - t0) / total as f64
}

/// Fig 4's saturated curve: 320 pre-dirtied lines at each level.
pub fn saturated_curve(levels: &[usize]) -> Vec<(usize, f64)> {
    let point = |n| (n, measured_avg_flush_ns(n, 320, true));
    levels.iter().map(|&n| point(n)).collect()
}

/// One structure of Table 3 grown from N to 2N elements on MOD and
/// on PMDK v1.5. A footprint ratio is live bytes at 2N over live bytes
/// at N; a traffic ratio is bytes allocated while growing over live
/// bytes at N.
#[derive(Clone, Debug)]
pub struct Growth {
    /// The structure.
    pub ds: &'static str,
    /// MOD's footprint ratio.
    pub mod_footprint: f64,
    /// MOD's traffic ratio.
    pub mod_traffic: f64,
    /// PMDK v1.5's footprint ratio.
    pub pmdk_footprint: f64,
}

fn table3_pool(n: u64) -> Pmem {
    Pmem::new(PmemConfig::benchmarking((n * 4096).max(1 << 30)))
}

/// Runs `op(heap, i)` for i in 0..2n; returns the footprint and
/// traffic ratios of 2n over n.
fn grow<H: RunHeap>(heap: &mut H, n: u64, mut op: impl FnMut(&mut H, u64)) -> (f64, f64) {
    let live = |h: &H| {
        let s = h.nv_heap().stats();
        (s.live_bytes, s.cumulative_alloc_bytes)
    };
    (0..n).for_each(|i| op(heap, i));
    let (l1, c1) = live(heap);
    (n..2 * n).for_each(|i| op(heap, i));
    let (l2, c2) = live(heap);
    (l2 as f64 / l1 as f64, (c2 - c1) as f64 / l1 as f64)
}

/// Grows a MOD structure, quiescing every 64 ops.
fn mod_growth<D>(n: u64, new: fn(&mut ModHeap) -> D, op: fn(&D, &mut ModHeap, u64)) -> (f64, f64) {
    let mut heap = ModHeap::create(table3_pool(n));
    let ds = new(&mut heap);
    grow(&mut heap, n, |h, i| {
        op(&ds, h, i);
        if i % 64 == 0 {
            h.quiesce();
        }
    })
}

/// Grows a PMDK v1.5 structure; returns its footprint ratio.
fn pmdk_growth<D>(n: u64, new: impl FnOnce(&mut TxHeap) -> D, op: fn(&D, &mut TxHeap, u64)) -> f64 {
    let mut heap = TxHeap::format(table3_pool(n), TxMode::Hybrid);
    let ds = new(&mut heap);
    grow(&mut heap, n, |h, i| op(&ds, h, i)).0
}

/// Table 3 at N = `n`, one [`Growth`] per structure in the paper's
/// row order.
pub fn table3_growth(n: u64) -> Vec<Growth> {
    // PMDK's bucket table is sized for N (as the WHISPER hashmap would
    // be), so doubling the elements doubles chain memory only.
    let bits = (63 - n.next_power_of_two().leading_zeros()).min(20);
    let hashmap = |h: &mut TxHeap| StmHashMap::create(h, bits);
    let growth = |ds: &'static str| {
        eprintln!("  growing {ds} ...");
        let ((mod_footprint, mod_traffic), pmdk_footprint) = match ds {
            "map" => (
                mod_growth(n, DurableMap::<u64, [u8; 32]>::create, |m, h, i| {
                    m.insert(h, &i, &value32(i))
                }),
                pmdk_growth(n, hashmap, |m, h, i| _ = m.insert(h, i, &value32(i))),
            ),
            "set" => (
                mod_growth(n, DurableSet::<u64>::create, |s, h, i| _ = s.insert(h, &i)),
                pmdk_growth(n, hashmap, |m, h, i| _ = m.insert(h, i, &[])),
            ),
            "stack" => (
                mod_growth(n, DurableStack::<u64>::create, |s, h, i| s.push(h, &i)),
                pmdk_growth(n, StmStack::create, |s, h, i| s.push(h, i)),
            ),
            "queue" => (
                mod_growth(n, DurableQueue::<u64>::create, |q, h, i| q.enqueue(h, &i)),
                pmdk_growth(n, StmQueue::create, |q, h, i| q.enqueue(h, i)),
            ),
            _ => (
                mod_growth(n, DurableVector::<u64>::create, |v, h, i| {
                    v.push_back(h, &i)
                }),
                pmdk_growth(
                    n,
                    |h| StmVector::create(h, 16),
                    |v, h, i| v.push_back_growing(h, i),
                ),
            ),
        };
        Growth {
            ds,
            mod_footprint,
            mod_traffic,
            pmdk_footprint,
        }
    };
    ["map", "set", "stack", "queue", "vector"]
        .map(growth)
        .to_vec()
}
