//! Ablation: which of MOD's ingredients buys the speedup?
//!
//! The paper's thesis is that *ordering*, not write volume, is the
//! bottleneck (§8: "Rather than focusing on minimizing the amount of
//! data written, MOD datastructures minimize the ordering points").
//! This ablation isolates that claim on the Map micro of Table 2 (the
//! same run as Figs 9–11, on a pool whose latency model is swapped):
//!
//! 1. **no-overlap hardware** — rerun both systems on a machine whose
//!    flushes do not overlap (Amdahl f = 0): MOD's advantage should
//!    shrink dramatically, because its one-fence design exists precisely
//!    to exploit flush overlap;
//! 2. **write volume** — compare flushed lines and stored bytes per op
//!    (MOD's path copies store *more* bytes yet win on normal hardware —
//!    the paper's §8 point; the flush cache elides enough of their lines
//!    that MOD's flushed-line count is no longer above PMDK's).

use mod_bench::claims;
use mod_bench::{banner, ratio, TextTable};
use mod_pmem::LatencyModel;
use mod_workloads::{run_workload, RunReport, ScaleConfig, System, Workload};

/// The Map micro on `sys`, on the scale's pool with `latency` swapped in.
fn run_map(scale: &ScaleConfig, latency: &LatencyModel, sys: System) -> RunReport {
    let mut on_hw = scale.clone();
    on_hw.pool.latency = latency.clone();
    run_workload(Workload::Map, sys, &on_hw)
}

fn per_op(count: u64, r: &RunReport) -> f64 {
    count as f64 / r.ops as f64
}

fn main() {
    banner("Ablation: ordering, not write volume, is the bottleneck");
    let scale = ScaleConfig::from_env();
    println!(
        "map workload, {} ops / {} preload\n",
        scale.ops, scale.preload
    );

    let optane = LatencyModel::optane();
    // A hypothetical device whose flushes serialize completely: fencing
    // n flushes costs n full flush latencies (f = 0 ⇒ no overlap win).
    // Re-derives the WPQ launch/drain split so the background-drain
    // calendar serializes too, not just the analytical curve.
    let no_overlap = LatencyModel::with_parallel_fraction(0.0);

    let mut t = TextTable::new(vec![
        "hardware",
        "system",
        "ns/op",
        "flushes/op",
        "fences/op",
        "bytes/op",
    ]);
    let mut speedups = Vec::new();
    for (hw_name, hw) in [
        ("optane (f=0.82)", optane),
        ("no-overlap (f=0)", no_overlap),
    ] {
        let m = run_map(&scale, &hw, System::Mod);
        let p = run_map(&scale, &hw, System::Pmdk15);
        for r in [&m, &p] {
            t.row(vec![
                hw_name.to_string(),
                r.system.name().to_string(),
                format!("{:.0}", r.ns_per_op()),
                format!("{:.1}", per_op(r.flushes, r)),
                format!("{:.1}", per_op(r.fences, r)),
                format!("{:.0}", per_op(r.bytes_written, r)),
            ]);
        }
        speedups.push((hw_name, p.ns_per_op() / m.ns_per_op(), m, p));
    }
    println!("{}", t.render());
    for (hw, s, m, p) in &speedups {
        println!(
            "{hw}: MOD is {} vs PMDK, while flushing {} as many lines and storing {} as many bytes",
            ratio(*s),
            ratio(m.flushes as f64 / p.flushes as f64),
            ratio(m.bytes_written as f64 / p.bytes_written as f64)
        );
    }
    let (_, with_overlap, ref m, ref p) = speedups[0];
    let reports = vec![m.clone(), p.clone()];
    claims::print("§8", &reports.into());
    let (_, without_overlap, ..) = speedups[1];
    println!();
    println!(
        "Take away the hardware's flush overlap and MOD's advantage drops \
         from {} to {} — the design wins by *ordering less*, not by \
         writing less (it writes more).",
        ratio(with_overlap),
        ratio(without_overlap)
    );
}
