//! Figure 2: fraction of execution time spent logging and flushing in PM
//! workloads under the PMDK-style v1.5 STM.

use mod_bench::claims;
use mod_bench::{banner, percent, TextTable};
use mod_workloads::{run_workload, ScaleConfig, System, Workload};

fn main() {
    banner("Figure 2: PMDK v1.5 execution-time breakdown");
    let scale = ScaleConfig::from_env();
    println!(
        "scale: {} ops, {} preload (MOD_OPS / MOD_PRELOAD to change)\n",
        scale.ops, scale.preload
    );
    let mut t = TextTable::new(vec!["workload", "other", "flush", "log"]);
    let mut reports = Vec::new();
    for w in Workload::all() {
        eprintln!("  running {w} ...");
        let r = run_workload(w, System::Pmdk15, &scale);
        t.row(vec![
            w.name().to_string(),
            percent(r.time.other_ns / r.time.total_ns()),
            percent(r.time.flush_fraction()),
            percent(r.time.log_fraction()),
        ]);
        reports.push(r);
    }
    println!("{}", t.render());
    claims::print("Fig 2", &reports.into());
}
