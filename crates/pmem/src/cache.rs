//! Set-associative L1D cache simulator.
//!
//! Used to reproduce Fig 11 of the paper (L1D miss ratios of PMDK vs MOD
//! workloads). Every simulated-PM access runs through this model; the
//! pointer-chasing layouts of functional datastructures show up directly
//! as extra misses, while flat PMDK-style arrays mostly hit.

use crate::line::line_of;

/// Geometry of the simulated cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The paper's L1D: 32 KB, 8-way, 64-byte lines (Table 1).
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// The paper's shared last-level cache (Table 1: 33 MB; modelled as
    /// 32 MB, 16-way). PM latency is only paid on LLC misses.
    pub fn llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::l1d()
    }
}

/// Hit/miss counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio; 0 when no accesses have occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Element-wise difference `self - earlier`.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// An LRU set-associative cache over cacheline addresses.
#[derive(Clone, Debug)]
pub struct CacheSim {
    cfg: CacheConfig,
    /// `sets × ways` entries, one run of `ways` per set in LRU order
    /// (index 0 = most recently used, occupied ways first). An entry is
    /// the line address plus one, 0 when empty — so the array starts as
    /// one zero-filled allocation the OS backs lazily: a cache nobody
    /// touches (the 4 MiB LLC of a read view, of a crash image) costs
    /// no resident memory.
    tags: Vec<u64>,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into at least one set.
    pub fn new(cfg: CacheConfig) -> CacheSim {
        let sets = cfg.num_sets();
        assert!(sets > 0, "cache too small for its associativity");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheSim {
            tags: vec![0; sets * cfg.ways],
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// Simulates an access to `addr`; returns `true` on hit. Write
    /// accesses allocate like reads (write-allocate policy).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = line_of(addr);
        let ways = self.cfg.ways;
        let sets = self.tags.len() / ways;
        let set_idx = (line / self.cfg.line_bytes as u64) as usize % sets;
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        let tag = line + 1;
        self.stats.accesses += 1;
        let hit = set.iter().position(|&t| t == tag);
        // Rotate the hit way — or, on a miss, the last way (empty, or the
        // LRU victim) — to the front; everything before it ages by one.
        set[..=hit.unwrap_or(ways - 1)].rotate_right(1);
        set[0] = tag;
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit.is_some()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters, keeping cache contents (warm cache, cold stats).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops all cached lines and counters.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.stats = CacheStats::default();
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1d_geometry() {
        let cfg = CacheConfig::l1d();
        assert_eq!(cfg.num_sets(), 64);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = CacheSim::new(CacheConfig::l1d());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008)); // same line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets, 2 ways, 64B lines → lines mapping to set 0: 0, 128, 256...
        let cfg = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        };
        let mut c = CacheSim::new(cfg);
        assert!(!c.access(0)); // set 0: [0]
        assert!(!c.access(128)); // set 0: [128, 0]
        assert!(c.access(0)); // set 0: [0, 128]
        assert!(!c.access(256)); // evicts 128 → [256, 0]
        assert!(c.access(0));
        assert!(!c.access(128)); // was evicted
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let cfg = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        };
        let mut c = CacheSim::new(cfg);
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(128); // set 0
        c.access(192); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn miss_ratio_sequential_vs_random() {
        // Sequential sweeps over a small working set should have a far
        // lower miss ratio than pointer-chasing over a large one.
        let mut seq = CacheSim::new(CacheConfig::l1d());
        for _ in 0..4 {
            for a in (0..16 * 1024u64).step_by(8) {
                seq.access(a);
            }
        }
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut random = CacheSim::new(CacheConfig::l1d());
        for _ in 0..8192 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            random.access(rng % (64 * 1024 * 1024));
        }
        assert!(seq.stats().miss_ratio() < 0.1);
        assert!(random.stats().miss_ratio() > 0.8);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = CacheSim::new(CacheConfig::l1d());
        c.access(0x40);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x40), "line should still be cached");
    }

    #[test]
    fn clear_drops_contents() {
        let mut c = CacheSim::new(CacheConfig::l1d());
        c.access(0x40);
        c.clear();
        assert!(!c.access(0x40));
    }
}
