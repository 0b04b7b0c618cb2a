//! Figure 2: fraction of execution time spent logging and flushing in PM
//! workloads under the PMDK-style v1.5 STM.

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
    let mut flush_sum = 0.0;
    let mut log_sum = 0.0;
    let mut n = 0.0;
    for w in Workload::all() {
        eprintln!("  running {w} ...");
        let time = run_workload(w, System::Pmdk15, &scale).time;
        t.row(vec![
            w.name().to_string(),
            percent(time.other_ns / time.total_ns()),
            percent(time.flush_fraction()),
            percent(time.log_fraction()),
        ]);
        flush_sum += time.flush_fraction();
        log_sum += time.log_fraction();
        n += 1.0;
    }
    println!("{}", t.render());
    println!(
        "mean flush fraction: {} (paper: ~64%)   mean log fraction: {} (paper: ~9%)",
        percent(flush_sum / n),
        percent(log_sum / n)
    );
}
