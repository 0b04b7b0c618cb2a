//! `modbench` — the end-to-end and per-layer benchmark of the MOD stack.
//! See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! modbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//! modbench run      [--seed N] [--seconds S] [--runs R] [--out FILE] [--quick] [--no-trace]
//! modbench compare  A.json B.json
//! modbench repeat   [--sets K] [--runs R] [--seed N] [--seconds S] [--out FILE.md] [--quick]
//! modbench selfcheck
//! modbench spec-json
//! ```

mod counters;
mod gen;
mod json;
mod ladder;
mod replay;
mod report;
mod span;
mod spec;
mod stats;
mod sys;
mod workloads;

use json::Json;
use report::{compare, compare_table, ResultFile, Verdict};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use workloads::Plan;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u64 = 10;
const DEFAULT_SEED: u64 = 1;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         modbench --workload W --seed N --seconds S --trace 0|1 [--quick]\n  \
         modbench run     [--seed N] [--seconds S] [--runs R] [--out FILE] [--quick] [--no-trace]\n  \
         modbench compare A.json B.json\n  \
         modbench repeat  [--sets K] [--runs R] [--seed N] [--seconds S] [--out FILE.md] [--quick]\n  \
         modbench selfcheck\n  \
         modbench spec-json\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// `--name value` pairs, bare `--name` switches and positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    const SWITCHES: &'static [&'static str] = &["quick", "no-trace"];

    fn parse(raw: &[String]) -> Option<Args> {
        let mut a = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if Args::SWITCHES.contains(&name) => a.flags.push((name.into(), None)),
                Some(name) => a.flags.push((name.into(), Some(it.next()?.clone()))),
                None => a.positional.push(arg.clone()),
            }
        }
        Some(a)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag, or `default` when absent; `None` when malformed.
    fn num(&self, name: &str, default: u64) -> Option<u64> {
        match self.value(name) {
            None if self.has(name) => None,
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }

    fn plan(&self) -> Option<Plan> {
        let quick = self.has("quick");
        Some(Plan {
            seed: self.num("seed", DEFAULT_SEED)?,
            seconds: self
                .num("seconds", if quick { 1 } else { RUN_SECONDS })?
                .clamp(1, 60),
            quick,
        })
    }
}

/// The driver's mode: one workload, one line of JSON last.
fn contract(args: &Args) -> ExitCode {
    let (Some(workload), Some(plan)) = (args.value("workload"), args.plan()) else {
        return usage();
    };
    let traced = match args.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let Some(outcome) = workloads::run(workload, &plan, traced) else {
        return usage();
    };
    outcome.print_table();
    // A verification failure is reported in the line (`correct`,
    // `failed`), not in the exit code: the run itself completed.
    println!("{}", outcome.contract_line());
    ExitCode::SUCCESS
}

/// One workload run in a process of its own — this binary again, in the
/// driver's mode — so that no run inherits another's allocator state or
/// memory high-water mark. The child's table goes to our standard
/// output; its last line is parsed into `file`.
fn run_child(file: &mut ResultFile, workload: &str, plan: &Plan, traced: bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if plan.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("cannot start a workload run");
    let text = String::from_utf8_lossy(&out.stdout);
    let (table, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{table}");
    let parsed = Json::parse(line)
        .map_err(|e| format!("{workload}: unreadable result line ({e})"))
        .and_then(|doc| file.add_line(workload, traced, &doc));
    if let Err(e) = parsed {
        panic!("{e}; the run exited with {}", out.status);
    }
}

/// Every workload, `runs` times untraced and (unless `--no-trace`) once
/// traced, into one result file.
fn suite(plan: &Plan, runs: u64, trace: bool) -> ResultFile {
    let mut file = ResultFile {
        seed: plan.seed,
        seconds: plan.seconds,
        ..ResultFile::default()
    };
    for w in WORKLOADS {
        for _ in 0..runs {
            run_child(&mut file, w.name, plan, false);
        }
        if trace {
            run_child(&mut file, w.name, plan, true);
        }
    }
    file
}

fn write_file(path: &std::path::Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("cannot create the output directory");
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn run(args: &Args) -> ExitCode {
    let (Some(plan), Some(runs)) = (args.plan(), args.num("runs", 1)) else {
        return usage();
    };
    let file = suite(&plan, runs.max(1), !args.has("no-trace"));
    let path = args
        .value("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| sys::out_dir().join(format!("run-seed{}.json", plan.seed)));
    write_file(&path, &file.to_json().write());
    println!(
        "wrote {} — {} ops attempted, {} failed (failed_frac {})",
        path.display(),
        file.attempted,
        file.failed,
        file.failed as f64 / file.attempted.max(1) as f64
    );
    if plan.quick {
        println!("--quick sizes are a smoke test: never compare them with anything");
    }
    if file.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(args: &Args) -> ExitCode {
    let [a, b] = args.positional.as_slice() else {
        return usage();
    };
    let (a, b) = match (ResultFile::load(a), ResultFile::load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        println!(
            "note: A ran seed {} for {} s, B seed {} for {} s — counts are only comparable for equal inputs",
            a.seed, a.seconds, b.seed, b.seconds
        );
    }
    let rows = compare(&a, &b);
    print!("{}", compare_table(&rows));
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The acceptance check: the suite `sets` times on the same build and
/// seed; the medians of every end-to-end metric of every workload must
/// agree between the first set and each later one within the metric's
/// bound, whichever of the two is the worse one.
fn repeat(args: &Args) -> ExitCode {
    let (Some(plan), Some(sets), Some(runs)) =
        (args.plan(), args.num("sets", 2), args.num("runs", 3))
    else {
        return usage();
    };
    let files: Vec<ResultFile> = (0..sets.max(2))
        .map(|_| suite(&plan, runs.max(1), false))
        .collect();
    let mut md = format!(
        "# Repeat check\n\n{} sets of {} runs per workload, same build, seed {}, {} s per run{}. \
         B is judged against A: `worse` = B's median is worse than A's by more than the bound, \
         `unresolved` = a side's own runs spread (interquartile distance / median) wider than the bound \
         (informational: with few runs a side that is close to their whole range). The check fails on \
         a row whose medians differ by more than the bound in either direction.\n",
        files.len(),
        runs,
        plan.seed,
        plan.seconds,
        if plan.quick { " (**--quick: smoke sizes, not a measurement**)" } else { "" }
    );
    let mut disagreements = 0;
    for (i, later) in files.iter().enumerate().skip(1) {
        let rows = compare(&files[0], later);
        // Symmetric: B worse than A, or A worse than B.
        disagreements += rows
            .iter()
            .filter(|r| r.worse_by > r.bound || r.a_worse_by > r.bound)
            .count();
        md.push_str(&format!(
            "\n## Set 1 (A) vs set {} (B)\n\n{}",
            i + 1,
            compare_table(&rows)
        ));
    }
    let failed: u64 = files.iter().map(|f| f.failed).sum();
    md.push_str(&format!(
        "\n{disagreements} median(s) disagree beyond their bound; {failed} op(s) failed verification.\n"
    ));
    print!("{md}");
    let path = args
        .value("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| sys::out_dir().join("REPEAT.md"));
    write_file(&path, &md);
    if disagreements == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Determinism of the inputs and of the product's counters: one seed
/// twice gives bit-identical count metrics, another seed gives others.
fn selfcheck() -> ExitCode {
    const COUNTS: &[&str] = &[
        "sim_ns_per_op",
        "fences_per_op",
        "flushes_per_op",
        "pm_write_amp",
        "pm_space_amp",
    ];
    let counts = |seed| {
        let plan = Plan {
            seed,
            seconds: 1,
            quick: true,
        };
        let o = workloads::run(spec::MAP_UPDATE, &plan, false).expect("a workload of the spec");
        (
            COUNTS
                .iter()
                .map(|&m| o.metrics[m].to_bits())
                .collect::<Vec<u64>>(),
            o.failed,
        )
    };
    let (a, b, c) = (counts(11), counts(11), counts(12));
    let same = a.0 == b.0;
    let differs = a.0 != c.0;
    println!(
        "same seed twice: count metrics {}",
        if same { "bit-identical" } else { "DIFFER" }
    );
    println!(
        "another seed: op stream {}",
        if differs { "differs" } else { "IS THE SAME" }
    );
    if same && differs && a.1 + b.1 + c.1 == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from [`spec`] so the two cannot drift.
fn spec_json() -> String {
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let s = |v: &str| Json::Str(v.into()).write();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", s(w.name), s(w.why)))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                s(m.name),
                s(m.unit),
                s(m.better.as_str()),
                m.bound
            ))
            .collect()),
        list(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                s(m.name),
                s(m.unit),
                s(m.better.as_str())
            ))
            .collect()),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &raw[1..]),
        _ => ("", &raw[..]),
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    match command {
        "" if args.has("workload") => contract(&args),
        "run" => run(&args),
        "compare" => compare_cmd(&args),
        "repeat" => repeat(&args),
        "selfcheck" => selfcheck(),
        "spec-json" => {
            print!("{}", spec_json());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
