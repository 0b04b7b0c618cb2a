//! Workload identities and configurations (paper Table 2).

use mod_pmem::{Pmem, PmemConfig};
use std::fmt;

/// The nine workloads of Table 2.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Workload {
    /// Insert/lookup random keys in a map (8 B key, 32 B value).
    Map,
    /// Insert/lookup random keys in a set (8 B key).
    Set,
    /// Push/pop elements from the top of a stack (8 B elements).
    Stack,
    /// Enqueue/dequeue elements (8 B elements).
    Queue,
    /// Update/read random indices in a vector (8 B elements).
    Vector,
    /// Swap two random elements of a vector (canneal's kernel).
    VecSwap,
    /// Breadth-first search with a recoverable queue on a synthetic
    /// scale-free graph (stands in for the paper's Flickr crawl).
    Bfs,
    /// Travel reservation system over four recoverable maps.
    Vacation,
    /// In-memory KV store, one recoverable map, 95 % sets / 5 % gets,
    /// 16 B keys, 512 B values.
    Memcached,
}

impl Workload {
    /// All workloads in the paper's figure order.
    pub fn all() -> [Workload; 9] {
        [
            Workload::Map,
            Workload::Set,
            Workload::Queue,
            Workload::Stack,
            Workload::Vector,
            Workload::VecSwap,
            Workload::Bfs,
            Workload::Vacation,
            Workload::Memcached,
        ]
    }

    /// The figure label.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Map => "map",
            Workload::Set => "set",
            Workload::Stack => "stack",
            Workload::Queue => "queue",
            Workload::Vector => "vector",
            Workload::VecSwap => "vec-swap",
            Workload::Bfs => "bfs",
            Workload::Vacation => "vacation",
            Workload::Memcached => "memcached",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three systems under comparison (Fig 9's bars).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum System {
    /// MOD datastructures (this paper).
    Mod,
    /// PMDK v1.4-style undo-logging STM.
    Pmdk14,
    /// PMDK v1.5-style hybrid STM.
    Pmdk15,
}

impl System {
    /// All systems in Fig 9's bar order.
    pub fn all() -> [System; 3] {
        [System::Pmdk14, System::Pmdk15, System::Mod]
    }

    /// The figure label.
    pub fn name(&self) -> &'static str {
        match self {
            System::Mod => "MOD",
            System::Pmdk14 => "PMDK-1.4",
            System::Pmdk15 => "PMDK-1.5",
        }
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scale parameters and the pool a run executes on. The paper runs 1 M
/// iterations on 1 M-element structures; the default here is scaled
/// down so the full figure suite regenerates in minutes, and
/// `MOD_OPS`/`MOD_PRELOAD` environment variables restore paper scale
/// (`MOD_OPS=1000000`).
///
/// Every Table 2 driver builds its pool from [`ScaleConfig::pool`], so a
/// run on other hardware or another pool configuration is the same
/// [`crate::run_workload`] call on a config whose `pool` differs — e.g.
/// the flush cache off, or a [`mod_pmem::LatencyModel`] without flush
/// overlap:
///
/// ```
/// use mod_workloads::{run_workload, ScaleConfig, System, Workload};
///
/// let mut uncoalesced = ScaleConfig::testing();
/// uncoalesced.pool.coalesce_flushes = false;
/// let on = run_workload(Workload::Map, System::Mod, &ScaleConfig::testing());
/// let off = run_workload(Workload::Map, System::Mod, &uncoalesced);
/// assert_eq!(on.fences, off.fences); // elision never moves a fence
/// assert!(on.flushes <= off.flushes);
/// ```
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Measured operations per workload.
    pub ops: u64,
    /// Elements preloaded before measurement.
    pub preload: u64,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// The pool every run builds: [`PmemConfig::benchmarking`] (no crash
    /// image, no trace) by default.
    pub pool: PmemConfig,
}

impl ScaleConfig {
    /// The default scaled-down configuration (overridable by env): a
    /// benchmarking pool of ~1 KiB per op and preloaded element, at
    /// least 256 MiB, rounded up to a power of two.
    pub fn from_env() -> ScaleConfig {
        let ops: u64 = std::env::var("MOD_OPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000);
        let preload = std::env::var("MOD_PRELOAD")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(ops);
        let capacity = ((ops + preload) * 1024).max(256 << 20).next_power_of_two();
        ScaleConfig {
            ops,
            preload,
            seed: 0x5EED_CAFE,
            pool: PmemConfig::benchmarking(capacity),
        }
    }

    /// A small fixed configuration for tests (a 64 MiB benchmarking pool).
    pub fn testing() -> ScaleConfig {
        ScaleConfig {
            ops: 300,
            preload: 300,
            seed: 42,
            pool: PmemConfig::benchmarking(1 << 26),
        }
    }

    /// A fresh pool built from [`ScaleConfig::pool`].
    pub fn pmem(&self) -> Pmem {
        Pmem::new(self.pool.clone())
    }

    /// Bucket bits for baseline hashmaps: ~1 entry/bucket at preload.
    pub fn bucket_bits(&self) -> u32 {
        (64 - (self.preload.max(16) - 1).leading_zeros()).max(4)
    }
}

/// Deterministic xorshift* RNG for workload generation (no external
/// state, reproducible across systems so MOD and PMDK see identical
/// operation streams).
#[derive(Clone, Debug)]
pub struct WorkloadRng {
    state: u64,
}

impl WorkloadRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> WorkloadRng {
        WorkloadRng { state: seed.max(1) }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Bernoulli trial with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_figures() {
        assert_eq!(Workload::VecSwap.name(), "vec-swap");
        assert_eq!(Workload::all().len(), 9);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = WorkloadRng::new(7);
        let mut b = WorkloadRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_below_in_range() {
        let mut r = WorkloadRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn bucket_bits_reasonable() {
        let mut c = ScaleConfig::testing();
        c.preload = 1 << 15;
        assert_eq!(c.bucket_bits(), 15);
    }

    #[test]
    fn percent_extremes() {
        let mut r = WorkloadRng::new(9);
        for _ in 0..100 {
            assert!(!r.percent(0));
            assert!(r.percent(100));
        }
    }
}
