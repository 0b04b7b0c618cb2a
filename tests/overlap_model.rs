//! Property tests of the overlapped WPQ-drain latency model.
//!
//! Invariants, over randomized op streams (deterministic xorshift RNG,
//! like the other property suites):
//!
//! 1. **Upper bound** — the overlapped flush timeline is never longer
//!    than the serialized charge-at-the-fence timeline the old model
//!    used (`Σ clwb_issue + Σ fence_stall_ns(n)`): background drain can
//!    only hide work, never add it.
//! 2. **Lower bound** — the timeline never beats the drain critical
//!    path: every line's `launch + drain` occupancy is paid somewhere
//!    (under compute or at the fence).
//! 3. **Accounting** — `overlap_ns + residual_stall_ns` of the fences
//!    equals the serialized stall reference, and `overlap_ratio` is in
//!    `[0, 1]`.
//! 4. **Crash semantics** — issued-but-undrained lines stay
//!    policy-dependent at a crash; drained-but-unfenced lines always
//!    persist; dirty lines never persist under `OnlyFenced`.

use mod_pmem::{CrashPolicy, LatencyModel, Pmem, PmemConfig};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store to line `l` (dirties it).
    Write(u64),
    /// Flush line `l`.
    Clwb(u64),
    /// App compute of `ns`.
    Compute(f64),
    /// Ordering point.
    Fence,
}

fn random_stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng(seed | 1);
    let mut ops = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let line = rng.below(32);
        ops.push(match rng.below(10) {
            0..=3 => Op::Write(line),
            4..=6 => Op::Clwb(line),
            7..=8 => Op::Compute(rng.below(800) as f64),
            _ => Op::Fence,
        });
    }
    ops.push(Op::Fence); // always end ordered
    ops
}

/// Replays `ops` against a real pool, tracking what the serialized
/// (charge-at-the-fence) model would have charged for the same stream
/// and the drain critical path actually scheduled. Writes that would
/// race an in-flight writeback are redirected to a never-flushed shadow
/// region: the race corner is exercised separately (the old model
/// under-counted the superseded drain there, so the upper bound is only
/// exact on race-free streams). Returns
/// `(overlapped_total, serialized_total, critical_path_total)` in
/// simulated ns of the full timeline.
fn replay(ops: &[Op]) -> (f64, f64, f64) {
    use mod_pmem::WpqDrain;
    use std::collections::HashSet;

    let m = LatencyModel::optane();
    let mut pm = Pmem::new(PmemConfig::testing());
    let addr_of = |l: u64| 0x2000 + l * 64;

    // Reference replication of the old model: identical non-flush
    // charges, but each fence charges fence_stall_ns(inflight)...
    let mut serialized_extra = 0.0;
    // ...and a shadow calendar recording the completion each fence had
    // to respect (the drain critical path, a lower bound).
    let mut shadow = WpqDrain::new();
    let mut inflight: HashSet<u64> = HashSet::new();
    let mut critical = 0.0f64;

    for &op in ops {
        match op {
            Op::Write(l) => {
                if inflight.contains(&l) {
                    // Avoid the store/writeback race: park the store in
                    // a disjoint, never-flushed region instead.
                    pm.write_u64(0x40000 + l * 64, l);
                } else {
                    pm.write_u64(addr_of(l), l);
                }
            }
            Op::Clwb(l) => {
                // A request can be elided by the fence-epoch flush cache
                // (clean line, already in flight, or content-identical to
                // the fenced image) — only a grown in-flight set means a
                // writeback was actually scheduled.
                let inflight_before = pm.inflight_flushes();
                let issue_at = pm.clock().now_ns();
                pm.clwb(addr_of(l));
                if pm.inflight_flushes() > inflight_before {
                    shadow.schedule(
                        l,
                        issue_at,
                        m.wpq_launch_ns(),
                        m.wpq_drain_ns(),
                        m.wpq_lanes,
                    );
                    inflight.insert(l);
                }
            }
            Op::Compute(ns) => pm.charge_ns(ns),
            Op::Fence => {
                let n = pm.inflight_flushes();
                assert_eq!(n, inflight.len(), "mirror drifted from the pool");
                let before = pm.clock().now_ns();
                pm.sfence();
                let paid = pm.clock().now_ns() - before;
                serialized_extra += m.fence_stall_ns(n) - paid;
                critical = critical.max(shadow.last_done());
                shadow.reset();
                inflight.clear();
            }
        }
    }
    let overlapped = pm.clock().now_ns();
    let serialized = overlapped + serialized_extra;
    (overlapped, serialized, critical)
}

#[test]
fn overlapped_timeline_bounded_by_serialized_and_critical_path() {
    for seed in 1..=40u64 {
        let ops = random_stream(seed, 200);
        let (overlapped, serialized, critical) = replay(&ops);
        assert!(
            overlapped <= serialized + 1e-6,
            "seed {seed}: overlapped {overlapped:.1} ns exceeds serialized \
             (charge-at-fence) {serialized:.1} ns"
        );
        assert!(
            overlapped + 1e-6 >= critical,
            "seed {seed}: overlapped {overlapped:.1} ns beats the drain \
             critical path {critical:.1} ns"
        );
    }
}

#[test]
fn overlap_accounting_balances_against_the_serialized_reference() {
    for seed in 1..=20u64 {
        let ops = random_stream(seed ^ 0xABCD, 150);
        let m = LatencyModel::optane();
        let mut pm = Pmem::new(PmemConfig::testing());
        let addr_of = |l: u64| 0x2000 + l * 64;
        let mut serialized_stalls = 0.0;
        let mut raced = false;
        for &op in &ops {
            match op {
                Op::Write(l) => {
                    let inflight = pm.inflight_flushes();
                    pm.write_u64(addr_of(l), l);
                    // A store racing an in-flight writeback leaves its
                    // superseded drain in the queue: the next fence may
                    // wait longer than fence_stall_ns(n) says.
                    raced |= pm.inflight_flushes() < inflight;
                }
                Op::Clwb(l) => pm.clwb(addr_of(l)),
                Op::Compute(ns) => pm.charge_ns(ns),
                Op::Fence => {
                    let n = pm.inflight_flushes();
                    if n > 0 {
                        serialized_stalls += m.fence_stall_ns(n);
                    }
                    pm.sfence();
                }
            }
        }
        let stats = pm.stats();
        let ratio = stats.overlap_ratio();
        assert!((0.0..=1.0).contains(&ratio), "seed {seed}: ratio {ratio}");
        // overlap + residual covers at least the serialized reference of
        // the non-empty fences — exactly, unless a racing store left
        // superseded drains in the queue (then fences wait a bit more).
        let sum = stats.overlap_ns + stats.residual_stall_ns;
        if raced {
            assert!(
                sum >= serialized_stalls - 1e-6,
                "seed {seed}: overlap {:.1} + residual {:.1} < serialized {:.1}",
                stats.overlap_ns,
                stats.residual_stall_ns,
                serialized_stalls
            );
        } else {
            assert!(
                (sum - serialized_stalls).abs() < 1e-6,
                "seed {seed}: overlap {:.1} + residual {:.1} != serialized {:.1}",
                stats.overlap_ns,
                stats.residual_stall_ns,
                serialized_stalls
            );
        }
    }
}

#[test]
fn issued_but_undrained_lines_stay_policy_dependent() {
    // Crash injected immediately after the clwb: the drain calendar has
    // had no time to run, so the line's fate belongs to the policy.
    let mut pm = Pmem::new(PmemConfig::testing());
    pm.write_u64(0x100, 7);
    pm.clwb(0x100);
    assert_eq!(pm.inflight_flushes(), 1);
    assert_eq!(pm.drained_unfenced_lines(), 0, "no simulated time passed");
    assert_eq!(
        pm.crash_image(CrashPolicy::OnlyFenced).peek_u64(0x100),
        0,
        "issued-but-undrained may be lost"
    );
    assert_eq!(
        pm.crash_image(CrashPolicy::PersistAll).peek_u64(0x100),
        7,
        "…or persist, if the drain raced the failure"
    );
    // Two seeds that disagree about an 8-line in-flight set prove the
    // subset choice is real (not all-or-nothing).
    let mut pm = Pmem::new(PmemConfig::testing());
    for l in 0..8u64 {
        pm.write_u64(0x1000 + l * 64, l + 1);
        pm.clwb(0x1000 + l * 64);
    }
    let survivors = |img: &Pmem| -> Vec<bool> {
        (0..8u64)
            .map(|l| img.peek_u64(0x1000 + l * 64) != 0)
            .collect()
    };
    let a = survivors(&pm.crash_image(CrashPolicy::Seeded(3)));
    assert!(a.iter().any(|&s| s) && a.iter().any(|&s| !s), "true subset");
}

#[test]
fn drain_completion_flips_a_line_from_policy_dependent_to_durable() {
    // The same line, the same policy — only simulated time differs.
    let charge = LatencyModel::optane().drain_path_ns(1);
    let mut pm = Pmem::new(PmemConfig::testing());
    pm.write_u64(0x100, 7);
    pm.clwb(0x100);
    // Just short of the drain completion: still policy-dependent.
    pm.charge_ns(charge - 50.0);
    assert_eq!(pm.drained_unfenced_lines(), 0);
    assert_eq!(pm.crash_image(CrashPolicy::OnlyFenced).peek_u64(0x100), 0);
    // Past it: drained-but-unfenced, survives the lossiest policy.
    pm.charge_ns(100.0);
    assert_eq!(pm.drained_unfenced_lines(), 1);
    assert_eq!(pm.crash_image(CrashPolicy::OnlyFenced).peek_u64(0x100), 7);
    // A store racing the drained-but-unfenced line re-dirties it; the
    // pre-store content stays durable, the new store does not.
    pm.write_u64(0x100, 9);
    let img = pm.crash_image(CrashPolicy::OnlyFenced);
    assert_eq!(img.peek_u64(0x100), 7, "drained content is durable");
}

#[test]
fn recovery_sees_committed_state_regardless_of_drain_timing() {
    // End-to-end: a FASE's shadow lines may be drained or undrained when
    // the crash hits; recovery must land on the committed version either
    // way (the directory swing is what gates visibility, not the drain).
    use mod_core::{DurableMap, ModHeap};
    for drain_time in [0.0, 5_000.0] {
        let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let map: DurableMap<u64, u64> = DurableMap::create(&mut heap);
        map.insert(&mut heap, &1, &11);
        heap.quiesce();
        // Interrupted FASE: shadow built + flushed, never committed.
        let cur = heap.current(map.root());
        let _shadow = cur.insert(heap.nv_mut(), 2, &22u64.to_le_bytes());
        if drain_time > 0.0 {
            heap.nv_mut().pm_mut().charge_ns(drain_time); // shadows drain
        }
        let img = heap.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        let map: DurableMap<u64, u64> = h2.root(0).open().unwrap();
        assert_eq!(map.get(&h2, &1), Some(11), "drain_time {drain_time}");
        assert_eq!(map.get(&h2, &2), None, "uncommitted stays invisible");
    }
}
