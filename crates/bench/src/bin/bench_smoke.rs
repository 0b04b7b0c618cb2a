//! `bench_smoke` — prints the sim gate's metrics ([`mod_bench::gate::collect`])
//! as JSON on stdout. No flags. `tests/sim_gate.rs` compares the same
//! collection for equality against `bench/baseline.json`; after an
//! intentional change to a simulated count, regenerate the baseline with
//!
//! ```text
//! cargo run --release -p mod-bench --bin bench_smoke > bench/baseline.json
//! ```
//!
//! and commit the diff with a justification.

fn main() {
    println!("{}", mod_bench::gate::to_json(&mod_bench::gate::collect()));
}
