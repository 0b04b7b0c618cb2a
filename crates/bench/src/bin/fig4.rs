//! Figure 4: average PM cacheline flush latency vs flush concurrency,
//! measured on the simulated pool itself (its background drain calendar
//! plus residual fence stalls) against the Amdahl fit, with the
//! Karp–Flatt-estimated parallel fraction of the measured curve, as in
//! the paper's §3.

use mod_bench::claims::{self, measured_avg_flush_ns, saturated_curve, Evidence};
use mod_bench::{banner, TextTable};
use mod_pmem::LatencyModel;

fn main() {
    banner("Figure 4: flush latency vs flushes overlapped per fence");
    let model = LatencyModel::optane();
    let levels: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    let amdahl = model.amdahl_curve(&levels);
    let saturated = saturated_curve(&levels);
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
    let ev = Evidence {
        curve: saturated,
        ..Evidence::default()
    };
    claims::print("Fig 4", &ev);
    println!(
        "(saturated = pure clwb trains: the background-drain calendar has \
         nothing to hide under and lands on the Amdahl stall; stores+flush = \
         the stores' own cache-miss time hides drain work, the overlap the \
         residual-stall model captures)"
    );
}
