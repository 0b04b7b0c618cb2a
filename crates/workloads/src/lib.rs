//! # mod-workloads — the paper's workloads (Table 2)
//!
//! Drivers for the six microbenchmarks (map, set, stack, queue, vector,
//! vec-swap) and three applications (bfs, vacation, memcached) of the MOD
//! paper, each runnable on three systems: MOD datastructures, and the
//! PMDK v1.4-/v1.5-style STM baselines. Every run returns a [`RunReport`]
//! with the measurements behind the paper's figures: the time breakdown
//! (Figs 2, 9), flush/fence profiles per operation (Fig 10), L1D miss
//! counters (Fig 11) and allocator statistics (Table 3).
//!
//! ## Example
//!
//! ```
//! use mod_workloads::{run_workload, ScaleConfig, System, Workload};
//!
//! let scale = ScaleConfig::testing();
//! let report = run_workload(Workload::Map, System::Mod, &scale);
//! assert_eq!(report.profiles[0].fences_per_op(), 1.0); // Fig 10: MOD = 1
//! ```

#![warn(missing_docs)]

pub mod concurrent;
pub mod graph;
pub mod memcached;
pub mod micro;
pub mod read_heavy;
pub mod report;
pub mod session;
pub mod spec;
pub mod vacation;

pub use concurrent::{run_pipelined, ConcurrencyConfig, ConcurrencyReport};
pub use micro::{run_map_coalesce, run_map_hybrid};
pub use read_heavy::{run_sim as run_read_heavy, ReadHeavyConfig, ReadHeavyReport};
pub use report::{OpProfile, RunReport};
pub use session::{open_session, run_ops, verify_session, Session, SessionRoots, SessionShape};
pub use spec::{ScaleConfig, System, Workload, WorkloadRng};

/// Runs any Table 2 workload on any system.
pub fn run_workload(w: Workload, sys: System, scale: &ScaleConfig) -> RunReport {
    match w {
        Workload::Bfs => graph::run_bfs(sys, scale),
        Workload::Vacation => vacation::run_vacation(sys, scale),
        Workload::Memcached => memcached::run_memcached(sys, scale),
        _ => micro::run_micro(w, sys, scale),
    }
}
