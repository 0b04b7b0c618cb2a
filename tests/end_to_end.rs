//! Cross-crate integration: MOD and PMDK-style implementations process
//! identical operation streams and agree on final contents; pools survive
//! multiple simulated process lifetimes; all Table 2 workloads run end to
//! end on all three systems.

use mod_core::{DurableMap, DurableVector, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use mod_stm::{StmHashMap, StmVector, TxHeap, TxMode};
use mod_workloads::{run_workload, ScaleConfig, System, Workload};

/// The same randomized insert/remove stream applied to MOD's map and both
/// PMDK-style maps must produce identical contents.
#[test]
fn mod_and_stm_maps_agree_on_final_contents() {
    let ops: Vec<(u64, Option<Vec<u8>>)> = {
        let mut rng = 0xABCDEFu64;
        (0..400)
            .map(|i| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = rng % 64;
                if rng.is_multiple_of(4) {
                    (k, None) // remove
                } else {
                    (k, Some(vec![(i % 251) as u8; 24]))
                }
            })
            .collect()
    };

    // MOD.
    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let dmap: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut heap);
    for (k, v) in &ops {
        match v {
            Some(v) => dmap.insert(&mut heap, k, v),
            None => {
                dmap.remove(&mut heap, k);
            }
        }
    }
    let mut mod_contents = heap.current(dmap.root()).to_vec(heap.nv_mut());
    mod_contents.sort();

    // PMDK-style, both modes.
    for mode in [TxMode::Undo, TxMode::Hybrid] {
        let mut th = TxHeap::format(Pmem::new(PmemConfig::testing()), mode);
        let smap = StmHashMap::create(&mut th, 6);
        for (k, v) in &ops {
            match v {
                Some(v) => {
                    smap.insert(&mut th, *k, v);
                }
                None => {
                    smap.remove(&mut th, *k);
                }
            }
        }
        // Collect via lookups over the key space.
        let mut stm_contents: Vec<(u64, Vec<u8>)> = Vec::new();
        for k in 0..64u64 {
            if let Some(v) = smap.get(&mut th, k) {
                stm_contents.push((k, v));
            }
        }
        stm_contents.sort();
        assert_eq!(
            mod_contents, stm_contents,
            "{mode:?} disagrees with MOD on final contents"
        );
    }
}

#[test]
fn vectors_agree_after_identical_update_streams() {
    let n = 300u64;
    let updates: Vec<(u64, u64)> = {
        let mut rng = 77u64;
        (0..200)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng % n, rng >> 32)
            })
            .collect()
    };
    let elems: Vec<u64> = (0..n).collect();

    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let dvec = DurableVector::create_from(&mut heap, &elems);
    for &(i, v) in &updates {
        dvec.update(&mut heap, i, &v);
    }
    let mod_result: Vec<u64> = dvec.to_vec(&heap);

    let mut th = TxHeap::format(Pmem::new(PmemConfig::testing()), TxMode::Hybrid);
    let svec = StmVector::create_from(&mut th, &elems);
    for &(i, v) in &updates {
        svec.update(&mut th, i, v);
    }
    assert_eq!(mod_result, svec.to_vec(&mut th));
}

/// Data survives several consecutive "process lifetimes" (crash, recover,
/// mutate, crash again, ...), with GC keeping the heap leak-free.
#[test]
fn multiple_process_lifetimes() {
    let mut pm = {
        let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let map: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut heap);
        map.insert(&mut heap, &0, &b"generation-0".to_vec());
        heap.quiesce();
        heap.into_pm().crash_image(CrashPolicy::OnlyFenced)
    };
    for generation in 1..=5u64 {
        let (mut heap, report) = ModHeap::open(pm);
        let map: DurableMap<u64, Vec<u8>> = heap.root(0).open().unwrap();
        // Everything from previous generations is present.
        for g in 0..generation {
            let want = format!("generation-{g}");
            assert_eq!(
                map.get(&heap, &g),
                Some(want.into_bytes()),
                "generation {generation} lost key {g}"
            );
        }
        assert_eq!(map.len(&heap), generation);
        // Heap stays bounded: live bytes grow only with real data.
        assert!(report.live_bytes < 64 * 1024);
        let value = format!("generation-{generation}");
        map.insert(&mut heap, &generation, &value.into_bytes());
        // Start an update that never commits (leaked by the crash).
        let _ = heap
            .current(map.root())
            .insert(heap.nv_mut(), 999, b"uncommitted");
        heap.quiesce();
        pm = heap.into_pm().crash_image(CrashPolicy::Seeded(generation));
    }
}

/// Smoke: every workload runs on every system at a small scale, produces
/// sensible counters, and MOD always uses fewer fences than PMDK.
#[test]
fn all_workloads_all_systems_smoke() {
    let scale = ScaleConfig {
        ops: 120,
        preload: 120,
        seed: 7,
        pool: PmemConfig::benchmarking(1 << 26),
    };
    for w in Workload::all() {
        let mut fences = std::collections::HashMap::new();
        for sys in System::all() {
            let r = run_workload(w, sys, &scale);
            assert!(r.total_ns() > 0.0, "{w}/{sys}: no time elapsed");
            assert!(r.fences > 0, "{w}/{sys}: no fences");
            fences.insert(sys, r.fences);
        }
        assert!(
            fences[&System::Mod] < fences[&System::Pmdk15],
            "{w}: MOD ({}) should fence less than PMDK v1.5 ({})",
            fences[&System::Mod],
            fences[&System::Pmdk15]
        );
        assert!(
            fences[&System::Pmdk15] <= fences[&System::Pmdk14],
            "{w}: v1.5 ({}) should fence at most v1.4 ({})",
            fences[&System::Pmdk15],
            fences[&System::Pmdk14]
        );
    }
}

/// The headline claim end to end: a MOD Basic-interface update is exactly
/// one epoch (one fence), and the PMDK equivalents sit in the 5–11 band.
#[test]
fn fence_counts_match_fig10_bands() {
    let scale = ScaleConfig {
        ops: 200,
        preload: 200,
        seed: 11,
        pool: PmemConfig::benchmarking(1 << 26),
    };
    let m = run_workload(Workload::Map, System::Mod, &scale);
    assert_eq!(m.profiles[0].fences_per_op(), 1.0);
    let p15 = run_workload(Workload::Map, System::Pmdk15, &scale);
    let f15 = p15.profiles[0].fences_per_op();
    assert!((5.0..=11.0).contains(&f15), "v1.5: {f15}");
    let p14 = run_workload(Workload::Map, System::Pmdk14, &scale);
    assert!(p14.profiles[0].fences_per_op() > f15);
}
