//! The simulator's volatile side tables cost host memory where they are
//! touched, never by capacity: forking a PM handle or taking a read view
//! must not commit the cache simulator's storage (a 4 MiB last-level
//! array per handle) up front, and a pool whose roots are all Full
//! never materializes its volatile range — not while running, not in a
//! crash image, not after a reopen.
//!
//! This is one test in its own file — its own process — because it
//! measures the process's resident set. The refcount table's paging has
//! a unit test beside the allocator (`mod_alloc::heap`).

use mod_alloc::NvHeap;
use mod_core::{DurableMap, DurableQueue, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

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
    // A Full-policy workload, then a crash and a reopen: the volatile
    // range is never stored to, so no segment of it ever exists.
    let cfg = PmemConfig {
        crash_sim: true,
        ..PmemConfig::benchmarking(1 << 26)
    };
    let mut h = ModHeap::create(Pmem::new(cfg));
    let map: DurableMap<u64, Vec<u8>> = h.root(0).create();
    let queue: DurableQueue<u64> = h.root(1).create();
    for i in 0..2000u64 {
        map.insert(&mut h, &(i % 700), &vec![i as u8; 40]);
        queue.enqueue(&mut h, &i);
        if i % 3 == 0 {
            queue.dequeue(&mut h);
        }
    }
    h.quiesce();
    assert_eq!(h.nv().pm().volatile_resident_bytes(), 0, "live pool");
    let image = h.nv().pm().crash_image(CrashPolicy::OnlyFenced);
    assert_eq!(image.volatile_resident_bytes(), 0, "crash image");
    let (mut reopened, _) = ModHeap::open(image);
    assert_eq!(reopened.nv().pm().volatile_resident_bytes(), 0, "reopen");
    let map: DurableMap<u64, Vec<u8>> = reopened.root(0).open().unwrap();
    assert_eq!(map.len(&reopened), 700);

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
    assert!(forks.iter().all(|f| f.volatile_resident_bytes() == 0));
}
