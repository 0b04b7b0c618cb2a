//! The paper-claims ledger at CI scale: one pass over the 27 Table 2
//! runs (every workload on every system), Fig 4's saturated curve and
//! Table 3's growth, shared by the tests below. Every row of
//! `mod_bench::claims::CLAIMS` must keep its recorded verdict; a
//! verdict changes only by editing its row.

use mod_bench::claims::{Evidence, CLAIMS};
use mod_bench::find;
use mod_workloads::{ScaleConfig, System, Workload};
use std::sync::OnceLock;

fn evidence() -> &'static Evidence {
    static EVIDENCE: OnceLock<Evidence> = OnceLock::new();
    EVIDENCE.get_or_init(Evidence::testing)
}

#[test]
fn every_claim_keeps_its_verdict() {
    let ev = evidence();
    let mut moved = Vec::new();
    for c in CLAIMS {
        let line = format!("{:<26} {}", c.id, c.line(ev));
        println!("{line}");
        if c.judge((c.measure)(ev)) != c.verdict {
            moved.push(format!("{line}, recorded {:?}", c.verdict));
        }
    }
    assert!(moved.is_empty(), "verdicts moved:\n{}", moved.join("\n"));
}

/// Every workload runs on every system with sensible counters, and MOD
/// always fences less than PMDK v1.5, which fences at most as often as
/// v1.4.
#[test]
fn all_workloads_all_systems_smoke() {
    let ev = evidence();
    for w in Workload::all() {
        for sys in System::all() {
            let r = find(&ev.reports, w, sys);
            assert!(r.total_ns() > 0.0 && r.fences > 0, "{w}/{sys}: idle run");
            if w != Workload::Bfs {
                assert_eq!(r.ops, ScaleConfig::testing().ops, "{w}/{sys}");
            }
            let kinds = match (w, sys) {
                (Workload::Queue | Workload::Stack, _) => 2, // push, pop
                (Workload::Bfs, System::Pmdk14 | System::Pmdk15) => 0,
                _ => 1,
            };
            assert_eq!(r.profiles.len(), kinds, "{w}/{sys}");
            assert!(r.profiles.iter().all(|p| p.count > 0), "{w}/{sys}");
        }
        let [v14, v15, m] = System::all().map(|sys| find(&ev.reports, w, sys).fences);
        assert!(
            m < v15 && v15 <= v14,
            "{w}: fences MOD {m}, v1.5 {v15}, v1.4 {v14}"
        );
    }
}
