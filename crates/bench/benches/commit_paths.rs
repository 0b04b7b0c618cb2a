//! Host-side bench of the FASE commit paths (Fig 8): a single-root FASE
//! and a multi-root FASE (siblings via the root directory) — the paths
//! behind MOD's one-fence claim. (The old three-fence
//! `commit_unrelated` ablation left with the raw-slot shims in 0.3; the
//! root directory commits any root combination with one fence.)
//!
//! Besides host ns/iter, each path reports its *simulated* commit
//! profile: fences per FASE, simulated ns per FASE, and the share of WPQ
//! drain work the overlapped latency model hid under the FASE's own
//! staging compute.

use mod_bench::harness::{bench, bench_main};
use mod_bench::TextTable;
use mod_core::ModHeap;
use mod_funcds::PmMap;
use mod_pmem::{Pmem, PmemConfig};
use std::hint::black_box;

/// Simulated per-FASE profile of `iters` runs of `f`.
fn sim_profile(
    heap: &mut ModHeap,
    iters: u64,
    mut f: impl FnMut(&mut ModHeap, u64),
) -> (f64, f64, f64) {
    heap.nv_mut().pm_mut().reset_metrics();
    for i in 0..iters {
        f(heap, i);
    }
    let stats = heap.nv().pm().stats().clone();
    let ns = heap.nv().pm().clock().now_ns();
    (
        stats.fences as f64 / iters as f64,
        ns / iters as f64,
        stats.overlap_ratio(),
    )
}

fn main() {
    bench_main(|| {
        let mut sim = TextTable::new(vec!["path", "fences/fase", "sim ns/fase", "overlap"]);

        let mut heap = ModHeap::create(Pmem::new(PmemConfig::benchmarking(1 << 30)));
        let m0 = PmMap::empty(heap.nv_mut());
        let map = heap.publish(m0);
        let mut i = 0u64;
        bench("fase_single_root", || {
            i += 1;
            let k = black_box(i % 10_000);
            heap.fase(|tx| tx.update(map, |nv, m| m.insert(nv, k, b"v")));
        });
        let (fpf, nspf, ov) = sim_profile(&mut heap, 2_000, |h, i| {
            h.fase(|tx| tx.update(map, |nv, m| m.insert(nv, i % 10_000, b"v")));
        });
        sim.row(vec![
            "single-root".to_string(),
            format!("{fpf:.3}"),
            format!("{nspf:.0}"),
            format!("{:.1}%", ov * 100.0),
        ]);

        let mut heap = ModHeap::create(Pmem::new(PmemConfig::benchmarking(1 << 30)));
        let a0 = PmMap::empty(heap.nv_mut());
        let b0 = PmMap::empty(heap.nv_mut());
        let a = heap.publish(a0);
        let b = heap.publish(b0);
        let mut i = 0u64;
        bench("fase_two_roots", || {
            i += 1;
            let k = black_box(i % 10_000);
            heap.fase(|tx| {
                tx.update(a, |nv, m| m.insert(nv, k, b"v"));
                tx.update(b, |nv, m| m.insert(nv, k, b"w"));
            });
        });
        let (fpf, nspf, ov) = sim_profile(&mut heap, 2_000, |h, i| {
            let k = i % 10_000;
            h.fase(|tx| {
                tx.update(a, |nv, m| m.insert(nv, k, b"v"));
                tx.update(b, |nv, m| m.insert(nv, k, b"w"));
            });
        });
        sim.row(vec![
            "two-roots".to_string(),
            format!("{fpf:.3}"),
            format!("{nspf:.0}"),
            format!("{:.1}%", ov * 100.0),
        ]);

        println!();
        println!("simulated commit profile (2000 FASEs each, shadow staging overlaps WPQ drain):");
        println!("{}", sim.render());
    });
}
