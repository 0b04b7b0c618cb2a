//! The arithmetic behind every reported number: medians of equal-op
//! segments, percentiles that say how many samples back them, and the
//! open loop's backlog test.

/// Segments a measured phase is cut into for host-time rates. A noisy
/// neighbour moves one segment, not the median of fifteen.
pub const SEGMENTS: usize = 15;

/// Windows a latency series is cut into. Fewer than the rate segments,
/// so that a window of the reference-rate phase (1000 req/s for
/// `run_seconds`) holds the ~900 samples a p98.9 with ten samples beyond
/// it needs.
pub const LAT_WINDOWS: usize = 11;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample can support: `want` (e.g. 0.99) if at
/// least [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest
/// quantile that does have that many beyond it (never below the
/// median). Returns `(value, quantile actually used)`.
pub fn tail_sorted(sorted: &[u64], want: f64) -> (u64, f64) {
    assert!(!sorted.is_empty(), "tail of nothing");
    let n = sorted.len();
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let supported_rank = n.saturating_sub(TAIL_SAMPLES).max(n.div_ceil(2));
    let rank = wanted_rank.min(supported_rank);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// Cuts `n` items into `parts` contiguous ranges whose lengths differ
/// by at most one.
pub fn equal_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(n).max(1);
    (0..parts)
        .map(|i| (i * n / parts)..((i + 1) * n / parts))
        .collect()
}

/// A latency series (in arrival order) cut into [`LAT_WINDOWS`] equal
/// windows: each window's p50 and its supported tail, plus the lowest
/// tail quantile any window had to fall back to. Callers reduce the
/// per-window values with [`median`] or [`second_lowest`].
pub struct LatencyWindows {
    pub p50s: Vec<f64>,
    pub tails: Vec<f64>,
    pub tail_q: f64,
}

pub fn latency_windows(samples_ns: &[u64], want_tail: f64) -> LatencyWindows {
    let mut out = LatencyWindows {
        p50s: Vec::new(),
        tails: Vec::new(),
        tail_q: want_tail,
    };
    for r in equal_ranges(samples_ns.len(), LAT_WINDOWS) {
        let mut w = samples_ns[r].to_vec();
        w.sort_unstable();
        out.p50s.push(quantile_sorted(&w, 0.5) as f64);
        let (t, q) = tail_sorted(&w, want_tail);
        out.tails.push(t as f64);
        out.tail_q = out.tail_q.min(q);
    }
    out
}

/// Completions per second of each of [`SEGMENTS`] equal-count segments
/// of a phase. `done_ns` holds each completion's time since the phase
/// began, ascending; the phase began at 0.
pub fn segment_rates(done_ns: &[u64]) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut start = 0u64;
    for r in equal_ranges(done_ns.len(), SEGMENTS) {
        let end = done_ns[r.end - 1];
        rates.push(r.len() as f64 / ((end - start).max(1) as f64 / 1e9));
        start = end;
    }
    rates
}

/// The second-highest of a few values — for the rate of a *stationary*
/// phase on a sandbox whose speed drops by a third for seconds at a
/// time: interference only ever takes speed away, so the fastest
/// segments are the undisturbed ones, and skipping the very fastest
/// guards against one freak segment. (A phase that slows down by design,
/// like a server on an ageing pool, keeps the median.)
pub fn second_highest(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v[1.min(v.len() - 1)]
}

/// The second-lowest of a few values: [`second_highest`] for latencies.
pub fn second_lowest(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

/// The open loop's backlog rule: a step keeps up when what is
/// outstanding at its end is no more than what was outstanding at its
/// midpoint plus one pipelining window.
pub fn backlog_grew(outstanding_mid: u64, outstanding_end: u64, window: u64) -> bool {
    outstanding_end > outstanding_mid + window
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 = rank 990: exactly ten samples beyond it.
        assert_eq!(tail_sorted(&v, 0.99), (990, 0.99));
        // 500 samples: rank 495 would leave five beyond; fall back to
        // rank 490 (= p98).
        let v: Vec<u64> = (1..=500).collect();
        assert_eq!(tail_sorted(&v, 0.99), (490, 0.98));
        // Too few samples for any tail: the median stands in.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail_sorted(&v, 0.99), (6, 0.5));
    }

    #[test]
    fn one_stalled_window_does_not_set_the_tail() {
        let mut lat = vec![1_000u64; LAT_WINDOWS * 200];
        for l in lat.iter_mut().take(200) {
            *l = 9_000_000; // the whole first window stalls
        }
        let w = latency_windows(&lat, 0.99);
        assert_eq!((median(&w.p50s), median(&w.tails)), (1_000.0, 1_000.0));
        assert_eq!(second_lowest(&w.p50s), 1_000.0);
        assert!((w.tail_q - 0.95).abs() < 1e-9, "200 samples support p95");
    }

    #[test]
    fn segment_rate_is_the_median_segment() {
        // 15 segments of 10 completions; segment 3 takes 10x longer.
        let mut t = 0u64;
        let mut done = Vec::new();
        for seg in 0..15 {
            let step = if seg == 3 { 10_000_000 } else { 1_000_000 };
            for _ in 0..10 {
                t += step;
                done.push(t);
            }
        }
        let rates = segment_rates(&done);
        assert_eq!(rates.len(), 15);
        assert!((median(&rates) - 1000.0).abs() < 1e-6);
        assert!((rates[3] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn second_best_ignores_slow_stretches_and_one_freak() {
        // Nine of fifteen segments disturbed, one freakishly fast.
        let mut rates = vec![600.0; 9];
        rates.extend([1000.0, 1001.0, 999.0, 1002.0, 998.0, 5000.0]);
        assert_eq!(second_highest(&rates), 1002.0);
        assert_eq!(second_lowest(&[9.0, 1.0, 5.0, 0.1]), 1.0);
        assert_eq!(second_highest(&[7.0]), 7.0);
    }

    #[test]
    fn backlog_growth() {
        assert!(!backlog_grew(20, 36, 16));
        assert!(backlog_grew(20, 37, 16));
    }

    #[test]
    fn ranges_cover_everything() {
        let r = equal_ranges(100, 15);
        assert_eq!(r.len(), 15);
        assert_eq!(r.first().unwrap().start, 0);
        assert_eq!(r.last().unwrap().end, 100);
        assert!(r.iter().all(|x| x.len() == 6 || x.len() == 7));
    }
}
