//! Figure 9: execution time of all Table 2 workloads under PMDK v1.4,
//! PMDK v1.5 and MOD, normalized to PMDK v1.4, with the
//! {other, flush, log} breakdown, plus the ledger's Fig 9 rows (the
//! paper's §6.3 summary numbers).

use mod_bench::claims::{self, vector_as_published, Evidence};
use mod_bench::{banner, find, run_everything, TextTable};
use mod_workloads::{ScaleConfig, System, Workload};

fn main() {
    banner("Figure 9: execution time normalized to PMDK v1.4");
    let scale = ScaleConfig::from_env();
    println!(
        "scale: {} ops, {} preload (MOD_OPS / MOD_PRELOAD to change)\n",
        scale.ops, scale.preload
    );
    let reports = run_everything(&scale);
    let mut t = TextTable::new(vec![
        "workload",
        "system",
        "norm time",
        "other",
        "flush",
        "log",
        "ns/op",
    ]);
    for w in Workload::all() {
        let base = find(&reports, w, System::Pmdk14).total_ns();
        for sys in System::all() {
            let r = find(&reports, w, sys);
            let total = r.total_ns();
            t.row(vec![
                w.name().to_string(),
                sys.name().to_string(),
                format!("{:.2}", total / base),
                format!("{:.2}", r.time.other_ns / base),
                format!("{:.2}", r.time.flush_ns / base),
                format!("{:.2}", r.time.log_ns / base),
                format!("{:.0}", r.ns_per_op()),
            ]);
        }
    }
    println!("{}", t.render());

    let mut ev = Evidence::from(reports);
    ev.vector_as_published = Some(vector_as_published(&scale));
    claims::print("Fig 9", &ev);
}
