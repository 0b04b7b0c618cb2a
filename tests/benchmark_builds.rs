//! Tier-1 guard for `benchmark/`: that crate is its own workspace, so
//! nothing in `cargo build`/`cargo test` of this one compiles it — a
//! `mod-core` API change could break the benchmark and only the CI
//! `benchmark-smoke` job (or the next reviewer) would notice. This test
//! type-checks it against the current sources. `benchmark/` has no
//! external dependencies and gets its own target directory, so the check
//! works offline and never contends for the outer build's lock.

use std::process::Command;

#[test]
fn benchmark_crate_checks_against_this_workspace() {
    let root = env!("CARGO_MANIFEST_DIR");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["check", "--release", "--offline", "--manifest-path"])
        .arg(format!("{root}/benchmark/Cargo.toml"))
        .env("CARGO_TARGET_DIR", format!("{root}/benchmark/target"))
        .output()
        .expect("failed to spawn cargo");
    assert!(
        out.status.success(),
        "benchmark/ no longer builds against this workspace:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
