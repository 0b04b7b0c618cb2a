//! Figure 10: flush and fence frequency per update operation — the
//! scatter of flushes/op against fences/op for MOD vs PMDK v1.5.

use mod_bench::claims;
use mod_bench::{banner, TextTable};
use mod_workloads::{run_workload, ScaleConfig, System, Workload};

fn main() {
    banner("Figure 10: flushes/op vs fences/op (update operations)");
    let scale = ScaleConfig::from_env();
    println!(
        "scale: {} ops, {} preload (MOD_OPS / MOD_PRELOAD to change)\n",
        scale.ops, scale.preload
    );
    let mut t = TextTable::new(vec!["operation", "system", "fences/op", "flushes/op"]);
    let micro = [
        Workload::Map,
        Workload::Set,
        Workload::Queue,
        Workload::Stack,
        Workload::Vector,
        Workload::VecSwap,
    ];
    let mut reports = Vec::new();
    for sys in [System::Mod, System::Pmdk15] {
        for w in micro {
            eprintln!("  running {w} on {sys} ...");
            let r = run_workload(w, sys, &scale);
            for p in &r.profiles {
                t.row(vec![
                    p.op.clone(),
                    sys.name().to_string(),
                    format!("{:.1}", p.fences_per_op()),
                    format!("{:.1}", p.flushes_per_op()),
                ]);
            }
            reports.push(r);
        }
    }
    println!("{}", t.render());
    // The ledger's Fig 10 rows also read v1.4's map and MOD's apps.
    for (w, sys) in [
        (Workload::Map, System::Pmdk14),
        (Workload::Vacation, System::Mod),
        (Workload::Memcached, System::Mod),
    ] {
        eprintln!("  running {w} on {sys} ...");
        reports.push(run_workload(w, sys, &scale));
    }
    claims::print("Fig 10", &reports.into());
}
