//! Cross-crate integration: MOD and PMDK-style implementations process
//! identical operation streams and agree on final contents; pools survive
//! multiple simulated process lifetimes. (Every Table 2 workload on every
//! system runs in `tests/paper_claims.rs`.)

use mod_core::{DurableMap, DurableVector, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use mod_stm::{StmHashMap, StmVector, TxHeap, TxMode};

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
