//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` at the repository
//! root states the same thing for the driver; a unit test keeps the two
//! in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const MAP_UPDATE: &str = "map_update_sim";
pub const MAP_READ95: &str = "map_read95_sim";
pub const COMPOSE: &str = "compose_fsync_file";
pub const SERVER: &str = "server_kv_mixed";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: MAP_UPDATE,
        why: "Paper's map micro, upserts only at a depth where path copies dominate: funcds+alloc+pmem do ~97% of the work, core ~3%, journal and server none",
    },
    Workload {
        name: MAP_READ95,
        why: "Same map read the other way: 95% charged lookups (90% into a cache-resident hot set), 5% upserts, so a write-side gain that costs lookups shows",
    },
    Workload {
        name: COMPOSE,
        why: "2 workers, tiny vector+queue FASEs on an fsync pool set: journal/backend and the core::shared pipeline do the work, funcds little; only place recovery replay is timed",
    },
    Workload {
        name: SERVER,
        why: "mod_server child over TCP, 50/50 SET/GET closed and open loop, then SIGKILL+restart: the only workload with server::*, sockets and reply-after-fence on the path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever 0.
pub const END_TO_END: &[EndToEnd] = &[
    // pool create + preload (+ server LISTENING), median of 3 fresh set-ups; compilation excluded
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // host-time completed ops (upserts+gets / FASEs / acked closed-loop requests): second-fastest of 15
    // equal-op segments (server: the median segment — its phase slows down by design)
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // host-time latency of one op (map op / FASE stage→durable / open-loop request from its due time at 1000 req/s), second-lowest of 11 windows' p50s
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // SimClock total (sim_wall_ns on a shared heap) / measured ops: the paper's Fig 9 axis
    EndToEnd {
        name: "sim_ns_per_op",
        unit: "sim-ns",
        better: Better::Lower,
        bound: 0.03,
    },
    // PmStats.fences / ops: MOD's headline (1.0 Basic, 1/batch pipelined)
    EndToEnd {
        name: "fences_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.03,
    },
    // PmStats.effective_flushes / ops (Fig 10)
    EndToEnd {
        name: "flushes_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    // PmStats.bytes_written / user bytes of the updates (key+value, or element bytes)
    EndToEnd {
        name: "pm_write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    // AllocStats.live_bytes at end / live user bytes (Table 3)
    EndToEnd {
        name: "pm_space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    // crash image → ModHeap::open (sim) / un-checkpointed drop → open_file + first read / SIGKILL → respawn → first GET reply; median of repeats
    EndToEnd {
        name: "recovery_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // VmHWM of the benchmark process, or of the mod_server child
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by the traced run. A workload whose path does not include a
/// layer reports 0 for it: the layer did no work there.
pub const PER_LAYER: &[PerLayer] = &[
    // pmem — PmStats / TimeBreakdown / cache_stats deltas, rung 4.
    lower("pmem.flushes_issued_per_op", "count"),
    higher("pmem.flushes_deduped_per_op", "count"),
    higher("pmem.flushes_avoided_per_op", "count"),
    lower("pmem.bytes_written_per_op", "B"),
    higher("pmem.overlap_ratio", "ratio"),
    lower("pmem.residual_stall_sim_ns_per_op", "sim-ns"),
    lower("pmem.sim_flush_ns_per_op", "sim-ns"),
    lower("pmem.sim_other_ns_per_op", "sim-ns"),
    lower("pmem.l1d_miss_ratio", "ratio"),
    lower("pmem.self_host_ns_per_op", "ns"),
    lower("pmem.host_ns_per_write", "ns"),
    lower("pmem.host_ns_per_clwb", "ns"),
    lower("pmem.host_ns_per_sfence", "ns"),
    // journal — BackendStats / ReplayStats, rung 4 on file backends.
    lower("journal.bytes_per_fence", "B"),
    lower("journal.fsyncs_per_fase", "count"),
    lower("journal.fsync_rounds_per_fase", "count"),
    lower("journal.compactions", "count"),
    lower("journal.file_bytes_end", "B"),
    lower("journal.self_host_us_per_fence", "us"),
    lower("journal.fsync_host_us_per_round", "us"),
    lower("journal.longest_fence_ms", "ms"),
    lower("journal.replay_host_ms", "ms"),
    lower("journal.replay_batches", "count"),
    higher("journal.replay_parallelism", "count"),
    // alloc — AllocStats / RecoveryReport, rung 3.
    lower("alloc.allocs_per_op", "count"),
    lower("alloc.frees_per_op", "count"),
    lower("alloc.alloc_bytes_per_op", "B"),
    lower("alloc.live_bytes", "B"),
    lower("alloc.hwm_live_bytes", "B"),
    lower("alloc.self_host_ns_per_op", "ns"),
    higher("alloc.recovery_reclaimed_bytes", "B"),
    lower("alloc.recovery_live_blocks", "count"),
    // funcds — rung 2 minus rungs 3 and 4.
    lower("funcds.incl_host_ns_per_update", "ns"),
    lower("funcds.self_host_ns_per_update", "ns"),
    lower("funcds.self_host_ns_per_lookup", "ns"),
    // core — rung 1 minus rung 2, PipelineStats, spans around the
    // shared heap's calls.
    lower("core.commit_self_host_ns_per_op", "ns"),
    higher("core.fases", "count"),
    lower("core.batches", "count"),
    higher("core.mean_batch", "count"),
    higher("core.max_batch", "count"),
    lower("core.lane_conflicts", "count"),
    higher("core.coalesced_lines_per_batch", "count"),
    lower("core.stage_host_us_p50", "us"),
    lower("core.wait_durable_host_us_p50", "us"),
    lower("core.wait_durable_host_us_p99", "us"),
    lower("core.snapshot_get_host_ns", "ns"),
    lower("core.recovery_host_ms", "ms"),
    higher("core.snapshot_epoch_end", "count"),
    // server — the in-process engine rung (rung 0.5).
    lower("server.decode_host_ns_per_req", "ns"),
    lower("server.encode_host_ns_per_req", "ns"),
    lower("server.stage_host_us_per_write", "us"),
    lower("server.snapshot_get_host_ns", "ns"),
    higher("server.engine_rung_ops_per_s", "op/s"),
    lower("server.socket_share", "ratio"),
    // loadgen — the generator's own clocks: validity of the open loop.
    lower("loadgen.late_ms_p99", "ms"),
    lower("loadgen.rate1000.p50_ms", "ms"),
    lower("loadgen.rate1000.p99_ms", "ms"),
    lower("loadgen.rate2000.p50_ms", "ms"),
    lower("loadgen.rate2000.p99_ms", "ms"),
    lower("loadgen.rate3000.p50_ms", "ms"),
    lower("loadgen.rate3000.p99_ms", "ms"),
    lower("loadgen.rate4000.p50_ms", "ms"),
    lower("loadgen.rate4000.p99_ms", "ms"),
    lower("loadgen.rate6000.p50_ms", "ms"),
    lower("loadgen.rate6000.p99_ms", "ms"),
    lower("loadgen.rate8000.p50_ms", "ms"),
    lower("loadgen.rate8000.p99_ms", "ms"),
    lower("loadgen.busy_replies", "count"),
    lower("loadgen.backlog_end_max", "count"),
    // stm — the Fig 9/10 reference the MOD numbers are read against;
    // the model has no hardware reference in-repo: unvalidated.
    lower("stm.pmdk15_sim_ns_per_op", "sim-ns"),
    lower("stm.pmdk15_fences_per_op", "count"),
    // trace — validity of the ladder.
    lower("trace.overhead_frac", "ratio"),
    // End-to-end by nature but not gated: each is 0 on some workload or
    // steps between a few values, which a relative bound cannot hold.
    lower("journal_bytes_per_op", "B"),
    higher("max_rate_ok", "req/s"),
    lower("failed_frac", "ratio"),
    // Tail latency spreads 20-45 % between runs on this sandbox.
    lower("p99_ms", "ms"),
];

/// Fixed rates of the open loop's sweep, req/s over both connections.
pub const SWEEP_RATES: &[u64] = &[1000, 2000, 3000, 4000, 6000, 8000];
/// The rate `p50_ms`/`p99_ms` are reported at.
pub const REFERENCE_RATE: u64 = 1000;
/// The latency limit `max_rate_ok` holds p99 to.
pub const P99_LIMIT_MS: f64 = 100.0;

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The spec's own `&'static` copy of a per-layer metric name.
pub fn per_layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|m| m.name).find(|n| *n == name)
}

pub fn is_per_layer(name: &str) -> bool {
    per_layer_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(name_ok("loadgen.rate1000.p99_ms") && name_ok("p99_ms"));
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!name_ok(bad), "{bad:?} must be rejected");
        }
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_says_the_same() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Json::Str("benchmark".into())]
        );
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = |section: &str| doc.get(section).unwrap().as_arr().unwrap().to_vec();

        let ws = listed("workloads");
        assert_eq!(ws.len(), WORKLOADS.len());
        for (j, w) in ws.iter().zip(WORKLOADS) {
            assert_eq!(j.as_obj().unwrap().len(), 2);
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let es = listed("end_to_end");
        assert_eq!(es.len(), END_TO_END.len());
        for (j, m) in es.iter().zip(END_TO_END) {
            assert_eq!(j.as_obj().unwrap().len(), 4);
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let ls = listed("per_layer");
        assert_eq!(ls.len(), PER_LAYER.len());
        for (j, m) in ls.iter().zip(PER_LAYER) {
            assert_eq!(j.as_obj().unwrap().len(), 3);
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }
}
