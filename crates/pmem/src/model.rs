//! Latency model of the simulated PM system.
//!
//! Constants come from the paper's test machine (Table 1) and its flush
//! microbenchmark (§3): a single `clwb + sfence` to an L1-resident line
//! costs 353 ns, random 8-byte PM reads cost 302 ns, and overlapped
//! flushes follow Amdahl's law with parallel fraction
//! f ≈ 0.82 (Fig 4).
//!
//! The key modelling identity: flushing `n` lines then fencing costs
//! `stall(n) = fence_base_ns · (f + (1 − f)·n)`, so the *average* latency
//! per flush is `fence_base_ns · (f/n + (1 − f))` — exactly the Amdahl
//! curve the paper fits with the Karp–Flatt metric.
//!
//! Since the overlapped-drain rework, [`crate::Pmem`] no longer charges
//! that whole stall at the fence. Each `clwb` schedules a background
//! drain on its WPQ lane ([`crate::WpqDrain`]): an overlappable *launch*
//! phase of [`LatencyModel::wpq_launch_ns()`] (= `fence_base_ns · f`)
//! followed by a serialized per-line *drain* occupancy of
//! [`LatencyModel::wpq_drain_ns()`] (= `fence_base_ns · (1 − f)`), and
//! `sfence` stalls only for the **residual** — whatever of that calendar
//! is still in the future. With flushes issued back-to-back (nothing to
//! overlap), the residual equals the Amdahl stall above, so
//! [`LatencyModel::fence_stall_ns`] remains the saturated limit and the
//! charge-at-the-fence reference that [`crate::PmStats`] measures
//! overlap against.

/// Latency parameters of the simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    /// L1D hit latency per access.
    pub l1_hit_ns: f64,
    /// L1D miss that hits the last-level cache.
    pub llc_hit_ns: f64,
    /// Full miss to PM (random 8-byte read; paper Table 1: 302 ns).
    pub pm_miss_ns: f64,
    /// Store into the cache hierarchy (hit path).
    pub store_ns: f64,
    /// Issue cost of one `clwb` (commits instantly per §3; the writeback
    /// itself proceeds in the background).
    pub clwb_issue_ns: f64,
    /// Latency of one un-overlapped `clwb + sfence` pair (§3: 353 ns).
    pub fence_base_ns: f64,
    /// Amdahl parallel fraction of concurrent flushes (Fig 4: 0.82). The
    /// WPQ launch/drain split ([`LatencyModel::wpq_launch_ns()`],
    /// [`LatencyModel::wpq_drain_ns()`]) is derived from it.
    pub amdahl_f: f64,
    /// Number of independent WPQ drain lanes (line-addressed,
    /// `line % wpq_lanes`). The paper's Optane fit behaves like a single
    /// serialized channel, so the default is 1; more lanes model
    /// hypothetical devices with parallel drain bandwidth (the saturated
    /// limit then falls below the Amdahl curve).
    pub wpq_lanes: usize,
    /// Cost of an `sfence` with no in-flight flushes.
    pub fence_overhead_ns: f64,
    /// CPU bookkeeping per STM log entry (range tracking, object lookup,
    /// entry construction — the tx_add overhead of libpmemobj).
    pub log_entry_overhead_ns: f64,
}

impl LatencyModel {
    /// The paper's test machine: Cascade Lake + Optane DCPMM (Table 1, §3).
    pub fn optane() -> LatencyModel {
        LatencyModel {
            l1_hit_ns: 1.0,
            llc_hit_ns: 40.0,
            pm_miss_ns: 302.0,
            store_ns: 1.0,
            clwb_issue_ns: 4.0,
            fence_base_ns: 353.0,
            amdahl_f: 0.82,
            wpq_lanes: 1,
            fence_overhead_ns: 15.0,
            log_entry_overhead_ns: 100.0,
        }
    }

    /// The Optane model with a different Amdahl parallel fraction `f`
    /// (used by the ablation's hypothetical no-overlap device); the WPQ
    /// launch/drain split follows from it.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ f ≤ 1.0`.
    pub fn with_parallel_fraction(f: f64) -> LatencyModel {
        assert!(
            (0.0..=1.0).contains(&f),
            "parallel fraction must be in [0, 1]"
        );
        LatencyModel {
            amdahl_f: f,
            ..LatencyModel::optane()
        }
    }

    /// Overlappable launch phase of a writeback: the parallel share of
    /// the base flush latency (`fence_base_ns · amdahl_f`). Starts at
    /// `clwb` issue and overlaps with anything, including other launches.
    pub fn wpq_launch_ns(&self) -> f64 {
        self.fence_base_ns * self.amdahl_f
    }

    /// Serialized WPQ drain occupancy per line: the serial share of the
    /// base flush latency (`fence_base_ns · (1 − amdahl_f)`). Lines on
    /// the same WPQ lane drain one after another.
    pub fn wpq_drain_ns(&self) -> f64 {
        self.fence_base_ns * (1.0 - self.amdahl_f)
    }

    /// Stall time of an `sfence` with `n_inflight` weakly-ordered flushes
    /// outstanding: `fence_base_ns · (f + (1 − f)·n)`; just
    /// `fence_overhead_ns` when nothing is in flight.
    pub fn fence_stall_ns(&self, n_inflight: usize) -> f64 {
        if n_inflight == 0 {
            return self.fence_overhead_ns;
        }
        let n = n_inflight as f64;
        self.fence_base_ns * (self.amdahl_f + (1.0 - self.amdahl_f) * n)
    }

    /// Modelled *average* latency of one flush when `n` flushes share a
    /// fence (the red "amdahl" line of Fig 4).
    pub fn avg_flush_latency_ns(&self, n: usize) -> f64 {
        assert!(n > 0, "flush concurrency must be positive");
        self.fence_stall_ns(n) / n as f64
    }

    /// The amdahl curve over a set of concurrency levels.
    pub fn amdahl_curve(&self, ns: &[usize]) -> Vec<(usize, f64)> {
        ns.iter()
            .map(|&n| (n, self.avg_flush_latency_ns(n)))
            .collect()
    }

    /// Drain critical path of `n` lines issued at one instant on a
    /// single WPQ lane: `wpq_launch_ns + n · wpq_drain_ns`. This is the
    /// floor no timeline can beat — background drain can hide the work
    /// under compute but cannot shrink it — and, with the default
    /// launch/drain split, it equals [`LatencyModel::fence_stall_ns`].
    pub fn drain_path_ns(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.wpq_launch_ns() + n as f64 * self.wpq_drain_ns()
    }
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::optane()
    }
}

/// Karp–Flatt experimentally determined serial fraction.
///
/// Given measured speedup `s` at concurrency `n`, returns
/// `e = (1/s − 1/n) / (1 − 1/n)`. The parallel fraction is `1 − e`.
///
/// # Panics
///
/// Panics if `n < 2` (the metric is undefined at n = 1).
pub fn karp_flatt_serial_fraction(speedup: f64, n: usize) -> f64 {
    assert!(n >= 2, "Karp-Flatt is undefined for n < 2");
    let n = n as f64;
    (1.0 / speedup - 1.0 / n) / (1.0 - 1.0 / n)
}

/// Fits an Amdahl parallel fraction to an observed flush-latency curve
/// `(n, avg_latency_ns)` using the Karp–Flatt metric at each point with
/// `n ≥ 2`, averaged. The first point with `n == 1` (or the smallest `n`)
/// anchors the serial baseline.
pub fn fit_parallel_fraction(observed: &[(usize, f64)]) -> f64 {
    let base = observed
        .iter()
        .find(|&&(n, _)| n == 1)
        .map(|&(_, l)| l)
        .unwrap_or_else(|| observed.first().expect("empty curve").1);
    let mut acc = 0.0;
    let mut cnt = 0usize;
    for &(n, lat) in observed {
        if n < 2 {
            continue;
        }
        // Speedup of average flush latency relative to un-overlapped.
        let s = base / lat;
        let e = karp_flatt_serial_fraction(s, n);
        acc += 1.0 - e;
        cnt += 1;
    }
    assert!(cnt > 0, "need at least one point with n >= 2");
    acc / cnt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flush_costs_353ns() {
        // §3: "the latency of one clwb followed by one sfence to be 353 ns".
        let m = LatencyModel::optane();
        assert!((m.fence_stall_ns(1) - 353.0).abs() < 1e-9);
    }

    #[test]
    fn sixteen_flushes_reduce_avg_latency_by_75_percent() {
        // §3: "performing 16 flushes concurrently reduces average flush
        // latency by 75%".
        let m = LatencyModel::optane();
        let reduction = 1.0 - m.avg_flush_latency_ns(16) / m.avg_flush_latency_ns(1);
        assert!(
            (reduction - 0.75).abs() < 0.03,
            "expected ~75% reduction, got {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn thirtytwo_vs_sixteen_is_marginal() {
        // §3: 32 concurrent flushes were only ~3% better than 16 on real
        // hardware. The pure Amdahl model keeps improving a little longer
        // (~11%); both are far below the 75% gained between 1 and 16.
        let m = LatencyModel::optane();
        let improvement = 1.0 - m.avg_flush_latency_ns(32) / m.avg_flush_latency_ns(16);
        assert!(
            improvement < 0.15,
            "expected marginal improvement, got {:.1}%",
            improvement * 100.0
        );
    }

    #[test]
    fn eight_flushes_one_fence_much_faster_than_eight_fences() {
        // §1: 8 clwbs ordered by a single sfence are ~75% faster than each
        // clwb individually ordered.
        let m = LatencyModel::optane();
        let joint = m.fence_stall_ns(8);
        let separate = 8.0 * m.fence_stall_ns(1);
        let saving = 1.0 - joint / separate;
        assert!(
            saving > 0.65 && saving < 0.80,
            "expected ~75% saving, got {:.1}%",
            saving * 100.0
        );
    }

    #[test]
    fn empty_fence_costs_overhead_only() {
        let m = LatencyModel::optane();
        assert_eq!(m.fence_stall_ns(0), m.fence_overhead_ns);
    }

    #[test]
    fn karp_flatt_recovers_fraction_exactly_on_model_data() {
        let m = LatencyModel::optane();
        let ns: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
        let curve = m.amdahl_curve(&ns);
        let f = fit_parallel_fraction(&curve);
        assert!(
            (f - m.amdahl_f).abs() < 1e-9,
            "fit {f} should equal model {}",
            m.amdahl_f
        );
    }

    #[test]
    fn amdahl_curve_monotone_decreasing() {
        let m = LatencyModel::optane();
        let c = m.amdahl_curve(&[1, 2, 4, 8, 16, 32]);
        for w in c.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "undefined for n < 2")]
    fn karp_flatt_rejects_n1() {
        karp_flatt_serial_fraction(1.0, 1);
    }

    #[test]
    fn wpq_split_reconstructs_the_amdahl_stall() {
        // launch + n·drain must equal fence_base·(f + (1−f)·n): the
        // event model saturates to the analytical curve.
        let m = LatencyModel::optane();
        for n in [1usize, 2, 8, 32] {
            assert!(
                (m.drain_path_ns(n) - m.fence_stall_ns(n)).abs() < 1e-9,
                "split drifted from the Amdahl stall at n = {n}"
            );
        }
    }

    #[test]
    fn with_parallel_fraction_rederives_the_split() {
        let m = LatencyModel::with_parallel_fraction(0.0);
        assert_eq!(m.wpq_launch_ns(), 0.0);
        assert!((m.wpq_drain_ns() - m.fence_base_ns).abs() < 1e-9);
        let m = LatencyModel::with_parallel_fraction(1.0);
        assert!((m.wpq_launch_ns() - m.fence_base_ns).abs() < 1e-9);
        assert_eq!(m.wpq_drain_ns(), 0.0);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_parallel_fraction_rejected() {
        LatencyModel::with_parallel_fraction(1.5);
    }
}
