//! Figure 11: L1D cache miss ratios of the PM workloads, PMDK v1.5 vs
//! MOD (the pointer-chasing cost of functional structures).

use mod_bench::claims;
use mod_bench::{banner, percent, TextTable};
use mod_workloads::{run_workload, ScaleConfig, System, Workload};

fn main() {
    banner("Figure 11: L1D miss ratios");
    let scale = ScaleConfig::from_env();
    println!(
        "scale: {} ops, {} preload (MOD_OPS / MOD_PRELOAD to change)\n",
        scale.ops, scale.preload
    );
    let mut t = TextTable::new(vec!["workload", "PMDK-1.5", "MOD", "MOD/PMDK"]);
    let mut reports = Vec::new();
    for w in Workload::all() {
        eprintln!("  running {w} ...");
        let p = run_workload(w, System::Pmdk15, &scale);
        let m = run_workload(w, System::Mod, &scale);
        let pr = p.cache.miss_ratio();
        let mr = m.cache.miss_ratio();
        t.row(vec![
            w.name().to_string(),
            percent(pr),
            percent(mr),
            format!("{:.1}x", if pr > 0.0 { mr / pr } else { 0.0 }),
        ]);
        reports.extend([p, m]);
    }
    println!("{}", t.render());
    claims::print("Fig 11", &reports.into());
}
