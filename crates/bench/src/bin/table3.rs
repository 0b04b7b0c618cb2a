//! Table 3: memory consumed by each datastructure at 2N elements
//! relative to N elements, MOD vs PMDK.
//!
//! Two metrics are reported (see DESIGN.md §5): the **footprint** ratio
//! (live bytes after growth / live bytes before) and the **traffic**
//! ratio (bytes allocated while growing / live bytes before). For the
//! refcount-reclaimed structures the footprint ratio is the paper's
//! number; the paper's 131x for MOD vector is only consistent with an
//! allocation-traffic-style measurement (every push path-copies ~depth
//! nodes), so the traffic column is the one to compare there.

use mod_bench::claims::{table3_growth, CLAIMS};
use mod_bench::{banner, TextTable};

fn n_elems() -> u64 {
    std::env::var("MOD_TABLE3_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

fn main() {
    banner("Table 3: memory at 2N elements relative to N elements");
    let n = n_elems();
    println!("N = {n} (MOD_TABLE3_N to change; paper uses 1M)\n");
    let mut t = TextTable::new(vec![
        "ds",
        "MOD footprint",
        "MOD traffic",
        "PMDK footprint",
        "paper MOD (PMDK)",
    ]);
    let paper = CLAIMS.iter().filter(|c| c.figure == "Table 3");
    for (g, claim) in table3_growth(n).iter().zip(paper) {
        assert_eq!(claim.id, format!("table3.{}", g.ds));
        t.row(vec![
            g.ds.to_string(),
            format!("{:.2}x", g.mod_footprint),
            format!("{:.0}x", g.mod_traffic),
            format!("{:.2}x", g.pmdk_footprint),
            claim.paper.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("MOD footprint ratios ~2x: structural sharing + reclamation keep");
    println!("the shadow overhead negligible. The vector's paper-reported 131x");
    println!("matches the allocation-traffic metric (path copies per push),");
    println!("not live growth — see DESIGN.md / EXPERIMENTS.md.");
}
