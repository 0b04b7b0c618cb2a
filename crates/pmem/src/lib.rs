//! # mod-pmem — simulated persistent memory substrate
//!
//! This crate stands in for the Intel Optane DCPMM test machine of the MOD
//! paper (Haria, Hill, Swift — ASPLOS 2020). It provides:
//!
//! * [`Pmem`] — a byte-addressable persistent pool with x86-64 persistence
//!   semantics: stores dirty cachelines in a volatile cache, [`Pmem::clwb`]
//!   starts a weakly-ordered writeback that drains in the background from
//!   issue time ([`WpqDrain`]), [`Pmem::sfence`] is the ordering point
//!   that stalls for the *residual* drain and makes flushed data durable;
//! * [`LatencyModel`] — the paper's measured constants (353 ns flush+fence,
//!   302 ns PM read, Amdahl overlap with f = 0.82) turning event counts
//!   into simulated time, split into *flush*, *log* and *other* buckets
//!   ([`SimClock`]) as in Figs 2 and 9;
//! * [`CacheSim`] — the 32 KB / 8-way L1D model behind Fig 11's miss ratios;
//! * [`trace`] — the §5.4 automated-testing trace and invariant checker;
//! * crash simulation — [`Pmem::crash_image`] builds post-crash pools under
//!   adversarial choices of which unfenced lines persisted;
//! * a **volatile range** beside the pool — addresses from the capacity
//!   up ([`Pmem::volatile_range`]) are DRAM: loads, stores and `clwb`s
//!   there are never charged, journaled or crash-imaged, which is where
//!   hybrid roots keep their index;
//! * pluggable persistence backends — [`PoolBackend`] with the volatile
//!   [`MemBackend`] and the file-backed [`FileBackend`] (home-location
//!   image + redo journal; [`Pmem::create_file`] / [`Pmem::open_file`]
//!   make pools that survive a real process kill);
//! * [`fit_parallel_fraction`] — the Karp–Flatt fit the paper applies to
//!   Fig 4's flush-latency curve.
//!
//! ## Example
//!
//! ```
//! use mod_pmem::{Pmem, PmemConfig, CrashPolicy};
//!
//! let mut pm = Pmem::new(PmemConfig::testing());
//! pm.write_u64(0x100, 7);          // store: volatile
//! pm.clwb(0x100);                  // weakly-ordered writeback
//! pm.sfence();                     // ordering point: now durable
//! let after_crash = pm.crash_image(CrashPolicy::OnlyFenced);
//! assert_eq!(after_crash.peek_u64(0x100), 7);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod backend;
pub mod cache;
pub mod clock;
pub mod drain;
pub mod journal;
pub mod line;
mod linetable;
pub mod model;
pub mod pmem;
pub mod stats;
pub mod trace;

pub use arena::SharedArena;
pub use backend::{
    BackendKind, BackendStats, Durability, FileBackend, MemBackend, PoolBackend, SyncRound,
};
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use clock::{SimClock, TimeBreakdown, TimeCategory};
pub use drain::WpqDrain;
pub use journal::{BatchKind, LineImage};
pub use line::{line_of, lines_covering, PmPtr, CACHELINE};
pub use model::{fit_parallel_fraction, karp_flatt_serial_fraction, LatencyModel};
pub use pmem::{CrashPolicy, LineHandoff, Pmem, PmemConfig, ReplayStats, ADDRESS_LIMIT};
pub use stats::{EpochHistogram, PmStats};
pub use trace::{check_trace, TraceChecker, TraceEvent, Violation};
