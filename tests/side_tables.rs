//! The simulator's volatile side tables cost host memory where they are
//! touched, never by capacity: forking a PM handle or taking a read view
//! must not commit the cache simulator's storage (a 4 MiB last-level
//! array per handle) up front.
//!
//! This is one test in its own file — its own process — because it
//! measures the process's resident set. The refcount table's paging has
//! a unit test beside the allocator (`mod_alloc::heap`).

use mod_alloc::NvHeap;
use mod_pmem::{Pmem, PmemConfig};

/// Resident set size of this process in MiB.
#[cfg(target_os = "linux")]
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value");
    kib / 1024.0
}

#[cfg(target_os = "linux")]
#[test]
fn fresh_fork_handles_and_read_views_commit_no_cache_sim_storage() {
    let mut heap = NvHeap::format(Pmem::new(PmemConfig::benchmarking(1 << 26)));
    let block = heap.alloc(64);
    heap.write_u64(block.addr(), 7);
    let before = rss_mib();
    // 48 handles × (4 MiB LLC + 32 KiB L1D) would be ~194 MiB if the
    // arrays were touched at construction.
    let forks: Vec<Pmem> = (0..24).map(|_| heap.pm().fork_handle()).collect();
    let views: Vec<NvHeap> = (0..24).map(|_| heap.read_view()).collect();
    let grown = rss_mib() - before;
    assert!(
        grown < 16.0,
        "48 idle handles committed {grown:.1} MiB of simulator state"
    );
    // They are real handles: each sees the pool, and using one commits
    // only the cache sets it touches.
    for v in &views {
        assert_eq!(v.peek_u64(block.addr()), 7);
    }
    let mut forks = forks;
    assert_eq!(forks[0].read_u64(block.addr()), 7);
    assert!(rss_mib() - before < 16.0);
}
