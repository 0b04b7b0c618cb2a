//! The sim gate: [`collect`] runs a fixed, CI-sized slice of the
//! evaluation on the simulator and [`diff`] compares the result **for
//! equality, key set included**, against the committed
//! `bench/baseline.json` (`tests/sim_gate.rs` does that on every
//! `cargo test`).
//!
//! Metrics are a *flat* map — `"workload.metric" → f64` — serialized as
//! a tiny, sorted, dependency-free JSON object. Every key comes from the
//! deterministic simulation (fences/FASE, sim-ns/op, overlap ratio,
//! flush, journal-byte and sync-round counts), never from host wall-clock
//! time, so a run is bit-for-bit reproducible on any machine, in any
//! build profile, and *any* delta is a real model/code change, not
//! noise. Host-time numbers are `benchmark/`'s business.

use mod_workloads::{
    run_pipelined, run_read_heavy, run_workload, ConcurrencyConfig, ReadHeavyConfig, ScaleConfig,
    System, Workload,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A flat metric map, ordered by key for stable serialization.
pub type Metrics = BTreeMap<String, f64>;

/// Runs the gated slice: the four applications/microbenchmarks the PR
/// pipeline tracks (map, memcached, vacation, bfs on MOD), the 1- and
/// 8-thread turnstile `SharedModHeap` pipeline, the hybrid-policy and
/// flush-coalescing ablations (in simulation and against a scratch pool
/// file), the sync rounds of ticketed FASEs on a scratch fsync pool set,
/// and the 95/5 snapshot-read turnstile.
///
/// # Panics
///
/// Panics if a scratch pool file cannot be created in the system
/// temporary directory.
pub fn collect() -> Metrics {
    let mut m = Metrics::new();
    let scale = ScaleConfig::testing();
    for w in [
        Workload::Map,
        Workload::Memcached,
        Workload::Vacation,
        Workload::Bfs,
    ] {
        let r = run_workload(w, System::Mod, &scale);
        let key = w.name().replace('-', "_");
        m.insert(format!("{key}.sim_ns_per_op"), r.ns_per_op());
        m.insert(
            format!("{key}.fences_per_op"),
            r.fences as f64 / r.ops as f64,
        );
        m.insert(
            format!("{key}.flushes_per_op"),
            r.flushes as f64 / r.ops as f64,
        );
        m.insert(format!("{key}.overlap_ratio"), r.overlap_ratio());
    }

    let solo = run_pipelined(&ConcurrencyConfig::testing(1));
    let eight = run_pipelined(&ConcurrencyConfig::testing(8));
    for (key, r) in [("pipeline1", &solo), ("pipeline8", &eight)] {
        m.insert(format!("{key}.sim_ns_per_op"), r.sim_ns_per_fase());
        m.insert(format!("{key}.fences_per_op"), r.fences_per_fase());
        m.insert(format!("{key}.overlap_ratio"), r.overlap_ratio());
    }
    m.insert(
        "pipeline8.fases_speedup".to_string(),
        eight.fases_per_sim_ms() / solo.fases_per_sim_ms(),
    );
    // Batch occupancy of the deterministic 8-thread pipeline: how full
    // the group commits ran (1.0 = every batch carried all 8 workers).
    m.insert(
        "pipeline8.batch_occupancy_ratio".to_string(),
        eight.mean_batch() / eight.threads as f64,
    );

    // Hybrid-policy ablation, simulated half: the hybrid map run's
    // flushes/op must stay low (the point of "Don't Persist All"), and
    // any drift in the volatile-node accounting shows up here.
    let hyb = mod_workloads::run_map_hybrid(&scale);
    m.insert(
        "hybrid.flushes_per_op".to_string(),
        hyb.flushes as f64 / hyb.ops as f64,
    );
    m.insert("hybrid.sim_ns_per_op".to_string(), hyb.ns_per_op());
    hybrid_file_mix(&mut m);

    // Flush-coalescing ablation: the map micro with the fence-epoch
    // flush cache explicitly on and off. Drift in the on-run means the
    // elision coverage itself changed; the off-run pins the cache's
    // contribution.
    let on = mod_workloads::run_map_coalesce(&scale, true);
    let off = mod_workloads::run_map_coalesce(&scale, false);
    assert_eq!(
        on.fences, off.fences,
        "flush coalescing must never change the fence schedule"
    );
    m.insert(
        "coalesce.flushes_per_op".to_string(),
        on.flushes as f64 / on.ops as f64,
    );
    m.insert(
        "coalesce.flushes_deduped_per_op".to_string(),
        on.flushes_deduped as f64 / on.ops as f64,
    );
    m.insert(
        "coalesce.flushes_per_op_uncoalesced".to_string(),
        off.flushes as f64 / off.ops as f64,
    );
    m.insert(
        "coalesce.journal_bytes_per_fase".to_string(),
        session_journal_bytes_per_fase(),
    );
    m.insert(
        "fsync_file.fsync_rounds_per_fase".to_string(),
        ticketed_fsync_rounds_per_fase(1),
    );
    m.insert(
        "fsync_file.fsync_rounds_per_fase_wait16".to_string(),
        ticketed_fsync_rounds_per_fase(16),
    );

    let r95 = run_read_heavy(&ReadHeavyConfig::testing());
    m.insert("read95.sim_ns_per_op".to_string(), r95.sim_ns_per_op());
    // How many reader turns were served from a view that lagged the
    // published epoch. Drift means the publication or pinning discipline
    // changed.
    m.insert(
        "read95.snapshot_epochs_lagged".to_string(),
        r95.epochs_lagged as f64,
    );
    m.insert("read95.reads".to_string(), r95.reads as f64);
    m.insert("read95.final_epoch".to_string(), r95.final_epoch as f64);
    m
}

/// A scratch pool path unique to this process.
fn scratch_pool(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("mod_sim_gate_{tag}_{}.pool", std::process::id()));
    path
}

/// Deletes a scratch pool: the base file and its `shards` journals.
fn remove_pool(path: &std::path::Path, shards: u16) {
    for member in mod_pmem::FileBackend::member_paths(path, shards) {
        let _ = std::fs::remove_file(member);
    }
}

/// Hybrid-policy ablation, file-backed half: the memcached mix (16-byte
/// keys, 512-byte values, 95 % sets) on a hybrid map against a real
/// pool, recording flush and journal traffic per op.
fn hybrid_file_mix(m: &mut Metrics) {
    use mod_core::{DurableMap, ModHeap, PersistPolicy};
    use mod_workloads::WorkloadRng;
    const OPS: u64 = 1_000;
    let path = scratch_pool("hybrid");
    remove_pool(&path, 1);
    let cfg = mod_pmem::PmemConfig {
        capacity: 1 << 26,
        crash_sim: false,
        ..mod_pmem::PmemConfig::default()
    };
    let mut heap = ModHeap::create_file(&path, cfg).expect("hybrid pool");
    let map: DurableMap<[u8; 16], Vec<u8>> = heap.root(0).policy(PersistPolicy::Hybrid).create();
    let mut rng = WorkloadRng::new(0xD0_4A11);
    for op in 0..OPS {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&rng.below(256).to_le_bytes());
        if rng.percent(95) {
            let mut v = vec![0u8; 512];
            v[..8].copy_from_slice(&op.to_le_bytes());
            map.insert(&mut heap, &key, &v);
        } else {
            let _ = map.get(&heap, &key);
        }
    }
    heap.quiesce();
    let stats = heap.nv().pm().stats().clone();
    let backend = heap.nv().pm().backend_stats();
    drop(heap);
    remove_pool(&path, 1);
    m.insert(
        "hybrid_file.flushes_per_op".to_string(),
        stats.effective_flushes as f64 / OPS as f64,
    );
    m.insert(
        "hybrid_file.flushes_avoided_per_op".to_string(),
        stats.flushes_avoided as f64 / OPS as f64,
    );
    m.insert(
        "hybrid_file.journal_bytes_per_op".to_string(),
        backend.journal_bytes as f64 / OPS as f64,
    );
}

/// Journal bytes appended per FASE by the seeded persistent session on
/// a real pool file. Sim time and line contents are both deterministic,
/// so the compact journal codec's traffic is too: a regression in the
/// varint/delta encoding shows up here.
fn session_journal_bytes_per_fase() -> f64 {
    const SEED: u64 = 0xBE5E_ED05;
    const OPS: u64 = 2_000;
    let path = scratch_pool("session");
    remove_pool(&path, 1);
    let shape = mod_workloads::SessionShape::Buffered;
    let mut session = mod_workloads::open_session(&path, shape, SEED).expect("session pool");
    mod_workloads::run_ops(&mut session, OPS);
    let backend = session.heap.nv().pm().backend_stats();
    drop(session);
    remove_pool(&path, 1);
    backend.journal_bytes as f64 / OPS as f64
}

/// Fsync rounds per FASE on a 2-shard `Fsync` pool set: one worker runs
/// ticketed FASEs and waits on every `wait_every`-th ticket; every FASE
/// is its own batch (the lone worker is the whole quorum). The count is
/// a pure function of the commit path — where a round runs — not of the
/// disk.
fn ticketed_fsync_rounds_per_fase(wait_every: u64) -> f64 {
    use mod_core::{DurableMap, ModHeap, SharedModHeap};
    const FASES: u64 = 64;
    const SHARDS: u16 = 2;
    let path = scratch_pool("fsync");
    remove_pool(&path, SHARDS);
    let cfg = mod_pmem::PmemConfig {
        capacity: 1 << 26,
        journal_shards: SHARDS,
        durability: mod_pmem::Durability::Fsync,
        ..mod_pmem::PmemConfig::default()
    };
    let heap = ModHeap::create_file(&path, cfg).expect("fsync pool");
    let shared = SharedModHeap::from_heap(heap, 1);
    let map: DurableMap<u64, u64> = shared.setup(DurableMap::create);
    let rounds = || shared.with(|h| h.nv().pm().backend_stats().fsync_rounds);
    let before = rounds();
    for i in 0..FASES {
        let ((), ticket) = shared.fase_ticketed(0, |tx| map.insert_in(tx, &i, &i));
        if (i + 1) % wait_every == 0 {
            shared.wait_durable(&ticket);
        }
    }
    let synced = rounds() - before;
    drop(shared);
    remove_pool(&path, SHARDS);
    synced as f64 / FASES as f64
}

/// Serializes metrics as a pretty-printed flat JSON object with stable
/// key order and full float precision.
///
/// # Panics
///
/// Panics on a non-finite value: `NaN`/`inf` are not JSON, and a metric
/// that degenerated to one (e.g. a division by zero ops) must fail the
/// run loudly rather than poison the baseline.
pub fn to_json(metrics: &Metrics) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        assert!(v.is_finite(), "metric `{k}` is not a finite number: {v}");
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        // Shortest roundtrip-exact float formatting.
        out.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    out.push('}');
    out
}

/// Parse error for the flat JSON metric format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid metrics JSON: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses the flat JSON object emitted by [`to_json`] (also tolerant of
/// arbitrary whitespace). Only the flat `{"key": number, ...}` shape is
/// supported — nested objects and non-finite numbers are format errors.
pub fn from_json(s: &str) -> Result<Metrics, ParseError> {
    let body = s.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| ParseError("expected one top-level object".into()))?;
    let mut out = Metrics::new();
    // No nested structure or quoted commas: keys are dotted identifiers,
    // values plain numbers.
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (k, v) = entry
            .split_once(':')
            .ok_or_else(|| ParseError(format!("missing ':' in `{entry}`")))?;
        let k = k.trim();
        let k = k
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| ParseError(format!("unquoted key `{k}`")))?;
        let v = v
            .trim()
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| {
                ParseError(format!(
                    "value for `{k}` is not a finite number: `{}`",
                    v.trim()
                ))
            })?;
        if out.insert(k.to_string(), v).is_some() {
            return Err(ParseError(format!("duplicate key `{k}`")));
        }
    }
    Ok(out)
}

/// One key on which a run and the baseline disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Metric key.
    pub key: String,
    /// The baseline's value; `None` if the baseline does not know the key.
    pub baseline: Option<f64>,
    /// The run's value; `None` if the run did not produce the key.
    pub current: Option<f64>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| v.to_string());
        write!(
            f,
            "{}: baseline {}, current {}",
            self.key,
            show(self.baseline),
            show(self.current)
        )
    }
}

/// Every key on which `current` differs from `baseline`, in key order:
/// a value that is not exactly equal (or not finite), a key the run did
/// not produce, a key the baseline does not know. Empty means the two
/// maps are identical.
pub fn diff(baseline: &Metrics, current: &Metrics) -> Vec<Mismatch> {
    let keys: BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
    keys.into_iter()
        .filter_map(|key| {
            let (base, cur) = (baseline.get(key).copied(), current.get(key).copied());
            let same = matches!((base, cur), (Some(b), Some(c)) if c.is_finite() && b == c);
            (!same).then(|| Mismatch {
                key: key.clone(),
                baseline: base,
                current: cur,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, f64)]) -> Metrics {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let metrics = m(&[
            ("map.sim_ns_per_op", 1234.5678901234567),
            ("map.fences_per_op", 1.0),
            ("pipeline8.overlap_ratio", 0.34256789),
            ("tiny", f64::MIN_POSITIVE),
            ("third", 1.0 / 3.0),
        ]);
        let parsed = from_json(&to_json(&metrics)).unwrap();
        assert_eq!(parsed, metrics);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"a\": }").is_err());
        assert!(from_json("{\"a\": \"str\"}").is_err());
        assert!(from_json("{a: 1}").is_err());
        assert!(from_json("{\"a\": 1, \"a\": 2}").is_err());
        assert!(from_json("{\"a\": NaN}").is_err());
        assert!(from_json("{\"a\": inf}").is_err());
        assert_eq!(from_json("{}").unwrap(), Metrics::new());
    }

    #[test]
    fn equal_maps_have_no_diff() {
        let base = m(&[("x.sim_ns_per_op", 100.0), ("p.overlap_ratio", 0.3)]);
        assert!(diff(&base, &base.clone()).is_empty());
    }

    #[test]
    fn one_ulp_is_a_mismatch_in_either_direction() {
        let v = 1136.5712000000904f64;
        let base = m(&[("map.sim_ns_per_op", v), ("map.overlap_ratio", v)]);
        let cur = m(&[
            ("map.sim_ns_per_op", f64::from_bits(v.to_bits() - 1)),
            ("map.overlap_ratio", f64::from_bits(v.to_bits() + 1)),
        ]);
        let d = diff(&base, &cur);
        assert_eq!(d.len(), 2, "better and worse both fail: {d:?}");
        assert_eq!(d[0].key, "map.overlap_ratio");
        assert_eq!(d[1].key, "map.sim_ns_per_op");
        assert_eq!(d[1].baseline, Some(v));
    }

    #[test]
    fn key_missing_from_the_run_is_a_mismatch() {
        let base = m(&[("x.sim_ns_per_op", 100.0), ("x.fences_per_op", 1.0)]);
        let cur = m(&[("x.fences_per_op", 1.0)]);
        let d = diff(&base, &cur);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].baseline, d[0].current), (Some(100.0), None));
        assert!(d[0].to_string().contains("current absent"));
    }

    #[test]
    fn key_unknown_to_the_baseline_is_a_mismatch() {
        let base = m(&[("x.fences_per_op", 1.0)]);
        let cur = m(&[("x.fences_per_op", 1.0), ("fresh.sim_ns_per_op", 5.0)]);
        let d = diff(&base, &cur);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key, "fresh.sim_ns_per_op");
        assert_eq!((d[0].baseline, d[0].current), (None, Some(5.0)));
    }

    #[test]
    fn non_finite_value_is_a_mismatch() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let base = m(&[("x.sim_ns_per_op", 100.0), ("p.overlap_ratio", 0.5)]);
            let cur = m(&[("x.sim_ns_per_op", bad), ("p.overlap_ratio", 0.5)]);
            let d = diff(&base, &cur);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].key, "x.sim_ns_per_op");
            // Even against itself: a degenerate metric never passes.
            assert_eq!(diff(&cur, &cur).len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn to_json_rejects_nan() {
        to_json(&m(&[("x.sim_ns_per_op", f64::NAN)]));
    }
}
