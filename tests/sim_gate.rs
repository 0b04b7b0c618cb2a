//! The sim gate: the simulated metrics `mod_bench::gate::collect`
//! produces must **equal** the committed `bench/baseline.json` — same
//! key set, same bits. They are a pure function of the code (no host
//! time, no thread scheduling, no build profile), so there is no
//! tolerance to tune: any delta is a real change to the cost model or to
//! what the stack writes, flushes or fences. If the change is intended,
//! regenerate the baseline and say why in the PR:
//!
//! ```text
//! cargo run --release -p mod-bench --bin bench_smoke > bench/baseline.json
//! ```

use mod_bench::gate::{collect, diff, from_json, to_json};

#[test]
fn simulated_metrics_equal_the_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/baseline.json");
    let raw = std::fs::read_to_string(path).expect("read bench/baseline.json");
    let baseline = from_json(&raw).expect("parse bench/baseline.json");
    let fresh = collect();
    let mismatches = diff(&baseline, &fresh);
    if mismatches.is_empty() {
        return;
    }
    for m in &mismatches {
        eprintln!("  {m}");
    }
    eprintln!("this run's metrics:\n{}", to_json(&fresh));
    panic!(
        "{} of {} simulated metrics differ from bench/baseline.json (see above)",
        mismatches.len(),
        baseline.len().max(fresh.len())
    );
}
