//! Randomized equivalence of the functional datastructures against
//! std-library models, including version immutability (old handles always
//! observe their original contents) and zero-leak reclamation. Every
//! substrate is read through both paths: `&mut NvHeap` charges the
//! simulator, `&NvHeap` peeks for free.
//!
//! Deterministic xorshift streams replace an external property-testing
//! framework: cases are enumerated over seeds, so failures reproduce
//! exactly.

use mod_alloc::{HeapRead, NvHeap};
use mod_funcds::champ::{key_hash, key_with_hash};
use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_pmem::{Pmem, PmemConfig};
use mod_workloads::WorkloadRng;
use std::collections::HashMap;
use std::fmt::Debug;

fn heap() -> NvHeap {
    NvHeap::format(Pmem::new(PmemConfig {
        capacity: 1 << 26,
        crash_sim: false,
        trace: false,
        ..PmemConfig::default()
    }))
}

/// Runs `read` on the charged path (`&mut NvHeap`), then on the peek
/// path (`&NvHeap`), and returns the value after asserting that both
/// paths agree and that only the charged one moved `PmStats::reads`.
fn read_both<T: PartialEq + Debug>(h: &mut NvHeap, what: &str, read: impl Fn(HeapRead) -> T) -> T {
    let before = h.pm().stats().reads;
    let charged = read(HeapRead::from(&mut *h));
    let after = h.pm().stats().reads;
    assert!(after > before, "{what}: the &mut read charged no reads");
    let peeked = read(HeapRead::from(&*h));
    assert_eq!(h.pm().stats().reads, after, "{what}: the & read charged");
    assert_eq!(charged, peeked, "{what}: the two read paths disagree");
    charged
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Remove(u8),
}

fn ops_stream(rng: &mut WorkloadRng) -> Vec<Op> {
    let n = 1 + rng.below(79) as usize;
    (0..n)
        .map(|_| {
            if rng.percent(60) {
                Op::Insert(rng.below(256) as u8, rng.below(256) as u8)
            } else {
                Op::Remove(rng.below(256) as u8)
            }
        })
        .collect()
}

/// A key whose trie hash shares its low 56 bits with every other such
/// key's and holds `k` above them, so any two of them part ways eleven or
/// more levels down, below a chain of single-child nodes.
fn deep_key(k: u8) -> u64 {
    let hash = 0x00C4_A4C4_A4C4_A4C4 | (k as u64) << 56;
    let key = key_with_hash(hash);
    assert_eq!(key_hash(key), hash);
    key
}

/// The CHAMP map and the set built on it, driven by one op stream; even
/// cases key the stream through [`deep_key`].
#[test]
fn champ_matches_hashmap() {
    for case in 0..48u64 {
        let mut rng = WorkloadRng::new(0xC4A4 + case);
        let ops = ops_stream(&mut rng);
        let key = |k: u8| if case % 2 == 0 { deep_key(k) } else { k as u64 };
        let mut h = heap();
        let mut m = PmMap::empty(&mut h);
        let mut s = PmSet::empty(&mut h);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let k = key(k);
                    let next = m.insert(&mut h, k, &[v; 4]);
                    m.release(&mut h);
                    m = next;
                    let (next, added) = s.insert(&mut h, k);
                    s.release(&mut h);
                    s = next;
                    let was = model.insert(k, vec![v; 4]);
                    assert_eq!(added, was.is_none(), "case {case}");
                }
                Op::Remove(k) => {
                    let k = key(k);
                    let (next, removed) = m.remove(&mut h, k);
                    assert_eq!(removed, model.remove(&k).is_some(), "case {case}");
                    if removed {
                        m.release(&mut h);
                        m = next;
                    }
                    let (next, removed_s) = s.remove(&mut h, k);
                    assert_eq!(removed_s, removed, "case {case}");
                    if removed_s {
                        s.release(&mut h);
                        s = next;
                    }
                }
            }
            assert_eq!(m.len(&mut h) as usize, model.len(), "case {case}");
            assert_eq!(s.len(&h) as usize, model.len(), "case {case}");
        }
        for (&k, v) in &model {
            let got = read_both(&mut h, &format!("case {case}"), |r| m.get(r, k));
            assert_eq!(got.as_ref(), Some(v), "case {case}");
        }
        for k in (0..=255).map(key) {
            let what = format!("case {case} key {k:#x}");
            let got = read_both(&mut h, &what, |r| s.contains(r, k));
            assert_eq!(got, model.contains_key(&k), "{what}");
        }
        // Releasing the last versions reclaims every block.
        m.release(&mut h);
        s.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}

#[test]
fn rrb_matches_vec() {
    for case in 0..24u64 {
        let mut rng = WorkloadRng::new(0x44B + case);
        let init: Vec<u64> = (0..rng.below(200)).map(|_| rng.next_u64()).collect();
        let pushes: Vec<u64> = (0..rng.below(64)).map(|_| rng.next_u64()).collect();
        let n_updates = rng.below(32);
        let pops = rng.below(48) as usize;

        let mut h = heap();
        let mut v = PmVector::from_slice(&mut h, &init);
        let mut model = init.clone();
        for &e in &pushes {
            let next = v.push_back(&mut h, e);
            v.release(&mut h);
            v = next;
            model.push(e);
        }
        for _ in 0..n_updates {
            if model.is_empty() {
                continue;
            }
            let idx = rng.below(model.len() as u64);
            let val = rng.next_u64();
            let next = v.update(&mut h, idx, val);
            v.release(&mut h);
            v = next;
            model[idx as usize] = val;
        }
        for _ in 0..pops {
            match v.pop_back(&mut h) {
                Some((next, e)) => {
                    assert_eq!(Some(e), model.pop(), "case {case}");
                    v.release(&mut h);
                    v = next;
                }
                None => assert!(model.is_empty(), "case {case}"),
            }
        }
        let got = read_both(&mut h, &format!("case {case}"), |r| v.to_vec(r));
        assert_eq!(got, model, "case {case}");
        v.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}

#[test]
fn old_versions_are_immutable() {
    for case in 0..12u64 {
        let mut rng = WorkloadRng::new(0x01D + case);
        let ops = ops_stream(&mut rng);
        // Keep every version alive and verify each still shows its own
        // snapshot at the end — multi-versioning done right.
        let mut h = heap();
        let mut versions = vec![(PmStack::empty(&mut h), Vec::<u64>::new())];
        for op in ops.iter().take(24) {
            let (cur, model) = versions.last().unwrap().clone();
            match *op {
                Op::Insert(_, v) => {
                    let next = cur.push(&mut h, v as u64);
                    let mut m2 = model.clone();
                    m2.insert(0, v as u64);
                    versions.push((next, m2));
                }
                Op::Remove(_) => {
                    if let Some((next, _)) = cur.pop(&mut h) {
                        let mut m2 = model.clone();
                        m2.remove(0);
                        versions.push((next, m2));
                    }
                }
            }
        }
        for (v, model) in &versions {
            let got = read_both(&mut h, &format!("case {case}"), |r| v.to_vec(r));
            assert_eq!(&got, model, "case {case}");
        }
    }
}

#[test]
fn queue_matches_vecdeque() {
    for case in 0..24u64 {
        let mut rng = WorkloadRng::new(0x0DE + case);
        let ops = ops_stream(&mut rng);
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        for op in &ops {
            match *op {
                Op::Insert(_, v) => {
                    let next = q.enqueue(&mut h, v as u64);
                    q.release(&mut h);
                    q = next;
                    model.push_back(v as u64);
                }
                Op::Remove(_) => match q.dequeue(&mut h) {
                    Some((next, e)) => {
                        assert_eq!(Some(e), model.pop_front(), "case {case}");
                        q.release(&mut h);
                        q = next;
                    }
                    None => assert!(model.is_empty(), "case {case}"),
                },
            }
            assert_eq!(q.peek(&h), model.front().copied(), "case {case}");
        }
        let want: Vec<u64> = model.into_iter().collect();
        let got = read_both(&mut h, &format!("case {case}"), |r| q.to_vec(r));
        assert_eq!(got, want, "case {case}");
        q.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}
