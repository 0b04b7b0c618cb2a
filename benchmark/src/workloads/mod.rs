//! The four workloads. Each starts from a fresh pool, runs a fixed op
//! count derived from `--seconds`, checks its outputs against a shadow
//! model, and reports either the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).

pub mod compose;
pub mod map;
pub mod server;
pub mod stm;

use crate::report::Outcome;
use crate::spec;
use std::time::Duration;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Scales every measured phase's op count.
    pub seconds: u64,
    /// Smoke sizes (`--quick`): never compared with anything.
    pub quick: bool,
}

pub fn run(workload: &str, plan: &Plan, traced: bool) -> Option<Outcome> {
    Some(match (workload, traced) {
        (spec::MAP_UPDATE, false) => map::run_e2e(&map::UPDATE, plan),
        (spec::MAP_UPDATE, true) => map::run_layers(&map::UPDATE, plan),
        (spec::MAP_READ95, false) => map::run_e2e(&map::READ95, plan),
        (spec::MAP_READ95, true) => map::run_layers(&map::READ95, plan),
        (spec::COMPOSE, false) => compose::run_e2e(plan),
        (spec::COMPOSE, true) => compose::run_layers(plan),
        (spec::SERVER, false) => server::run_e2e(plan),
        (spec::SERVER, true) => server::run_layers(plan),
        _ => return None,
    })
}

/// What every traced run ends with: the failure share among the metrics
/// and the spans in `benchmark/out/<workload>.trace.json`. `first` are
/// the workload's own rungs, above the ladder's.
pub fn finish_traced(
    out: &mut Outcome,
    first: &[(&str, &[crate::span::Span])],
    ladder: &crate::ladder::Ladder,
) {
    out.set("failed_frac", out.failed as f64 / out.attempted as f64);
    let mut rungs = first.to_vec();
    rungs.extend(ladder.spans.iter().map(|(l, s)| (*l, s.as_slice())));
    let path = crate::sys::out_dir().join(format!("{}.trace.json", out.workload));
    crate::span::write_trace(&path, &rungs).expect("cannot write the trace file");
}

/// Sets up `rounds` times over and keeps the last: each round first
/// disposes of the previous one (untimed — a fresh pool per round), then
/// times `build`. Returns what the last round built and the median
/// set-up time in seconds.
pub fn set_up<T>(
    rounds: usize,
    mut dispose: impl FnMut(Option<T>),
    mut build: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..rounds {
        dispose(kept.take());
        let t = std::time::Instant::now();
        kept = Some(build());
        times.push(t.elapsed());
    }
    (
        kept.expect("at least one set-up round"),
        median_secs(&times),
    )
}

/// Median of a few durations, in seconds.
pub fn median_secs(times: &[Duration]) -> f64 {
    crate::stats::median(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// The fastest of a few repeats of a deterministic piece of work, in
/// ms: interference and cold caches only ever add time.
pub fn fastest_ms(times: &[Duration]) -> f64 {
    times
        .iter()
        .min()
        .expect("at least one repeat")
        .as_secs_f64()
        * 1e3
}
