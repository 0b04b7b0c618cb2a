//! Figure 4: average PM cacheline flush latency vs flush concurrency,
//! measured on the simulated pool itself (its background drain calendar
//! plus residual fence stalls) against the Amdahl fit, with the
//! Karp–Flatt-estimated parallel fraction of the measured curve, as in
//! the paper's §3.

use mod_bench::{banner, TextTable};
use mod_pmem::{fit_parallel_fraction, LatencyModel, Pmem, PmemConfig};

/// Replays the paper's §3 microbenchmark against the real simulated
/// pool: `total` lines flushed with an `sfence` every `per_fence`
/// flushes. With `prewrite` the lines are dirtied (and the time
/// rebased) before measuring, so the flush phase is pure back-to-back
/// `clwb`s — the saturated limit. Without it the stores interleave with
/// the flushes and their cache-miss time hides drain work in the
/// background, which is the overlap the model now captures.
/// Returns the average flush-timeline nanoseconds per flush.
fn measured_avg_flush_ns(per_fence: usize, total: usize, prewrite: bool) -> f64 {
    let mut pm = Pmem::new(PmemConfig::benchmarking(1 << 24));
    let addr_of = |line: u64| 0x1000 + line * 64;
    if prewrite {
        for line in 0..total as u64 {
            pm.write_u64(addr_of(line), line);
        }
        pm.reset_metrics();
    }
    let mut line = 0u64;
    let t0 = pm.clock().breakdown().flush_ns;
    let mut flushed = 0usize;
    while flushed < total {
        let batch = per_fence.min(total - flushed);
        for _ in 0..batch {
            if !prewrite {
                pm.write_u64(addr_of(line), line);
            }
            pm.clwb(addr_of(line));
            line += 1;
        }
        pm.sfence();
        flushed += batch;
    }
    (pm.clock().breakdown().flush_ns - t0) / total as f64
}

fn main() {
    banner("Figure 4: flush latency vs flushes overlapped per fence");
    let model = LatencyModel::optane();
    let levels: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    let amdahl = model.amdahl_curve(&levels);
    let saturated: Vec<(usize, f64)> = levels
        .iter()
        .map(|&n| (n, measured_avg_flush_ns(n, 320, true)))
        .collect();
    let overlapped: Vec<(usize, f64)> = levels
        .iter()
        .map(|&n| (n, measured_avg_flush_ns(n, 320, false)))
        .collect();
    let mut t = TextTable::new(vec![
        "flushes/fence",
        "pmem saturated (ns)",
        "amdahl f=0.82 (ns)",
        "pmem stores+flush (ns)",
    ]);
    for ((s, a), v) in saturated.iter().zip(&amdahl).zip(&overlapped) {
        t.row(vec![
            s.0.to_string(),
            format!("{:.1}", s.1),
            format!("{:.1}", a.1),
            format!("{:.1}", v.1),
        ]);
    }
    println!("{}", t.render());
    let fit = fit_parallel_fraction(&saturated);
    println!("Karp-Flatt fit of pmem saturated curve: parallel fraction f = {fit:.3}");
    println!("Paper: f = 0.82 (82% parallel / 18% serial)");
    let l1 = saturated[0].1;
    let l16 = saturated.iter().find(|&&(n, _)| n == 16).unwrap().1;
    println!(
        "16-way overlap cuts average flush latency by {:.0}% (paper: 75%)",
        (1.0 - l16 / l1) * 100.0
    );
    println!(
        "(saturated = pure clwb trains: the background-drain calendar has \
         nothing to hide under and lands on the Amdahl stall; stores+flush = \
         the stores' own cache-miss time hides drain work, the overlap the \
         residual-stall model captures)"
    );
}
