//! What a run produces and how it is shown: the driver's one-line JSON,
//! the table a person reads, result files, and the `compare` / `repeat`
//! verdicts.

use crate::json::Json;
use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// The result of one workload run in one mode.
pub struct Outcome {
    pub workload: &'static str,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub traced: bool,
    /// Ops attempted, verification reads included.
    pub attempted: u64,
    /// Error replies + refused ops + outputs that disagree with the
    /// shadow model.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, fallbacks, caveats — printed, not parsed.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.traced {
            spec::is_per_layer(name)
        } else {
            spec::end_to_end(name).is_some()
        };
        assert!(known, "metric {name} is not in the spec for this mode");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.insert(name, value);
    }

    /// `(name, unit, value)` for every metric of this mode, in spec
    /// order. An end-to-end metric must have been measured; a per-layer
    /// metric a workload does not set is 0 — the layer did no work.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.metrics.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = *self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} did not measure {}", self.workload, m.name));
                    (m.name, m.unit, v)
                })
                .collect()
        }
    }

    /// The driver's last line of standard output.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.rows().into_iter().map(|(name, unit, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
        .write()
    }

    pub fn print_table(&self) {
        let mode = if self.traced {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        println!("== {} — {mode}", self.workload);
        for (name, unit, value) in self.rows() {
            if self.traced && value == 0.0 {
                continue; // layers off this workload's path
            }
            println!("  {name:<36} {value:>18.6} {unit}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  attempted {}  failed {}  failed_frac {frac}",
            self.attempted, self.failed
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// A result file: per workload, per end-to-end metric, the values of
/// every run made (`run --runs N` appends N).
#[derive(Default)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: u64,
    pub end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub per_layer: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: u64,
    pub attempted: u64,
}

impl ResultFile {
    /// Adds one run from its result line (the driver's JSON object).
    pub fn add_line(&mut self, workload: &str, traced: bool, line: &Json) -> Result<(), String> {
        let num = |k: &str| {
            line.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: result line lacks {k}"))
        };
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: result line lacks metrics"))?;
        let section = if traced {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        let w = section.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))?;
            w.entry(name.clone()).or_default().push(value);
        }
        self.attempted += num("attempted")? as u64;
        self.failed += num("failed")? as u64;
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        let section = |s: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
            Json::obj(s.iter().map(|(w, ms)| {
                (
                    w.clone(),
                    Json::obj(ms.iter().map(|(m, vs)| {
                        (
                            m.clone(),
                            Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                        )
                    })),
                )
            }))
        };
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", section(&self.end_to_end)),
            ("per_layer", section(&self.per_layer)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result file lacks {k}"))
        };
        let section = |k: &str| -> Result<_, String> {
            let mut out = BTreeMap::new();
            let obj = doc
                .get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("result file lacks {k}"))?;
            for (w, ms) in obj {
                let mut metrics = BTreeMap::new();
                for (m, vs) in ms.as_obj().ok_or("workload entry is not an object")? {
                    let vs: Option<Vec<f64>> = vs
                        .as_arr()
                        .map(|a| a.iter().filter_map(Json::as_f64).collect());
                    metrics.insert(m.clone(), vs.ok_or("metric entry is not an array")?);
                }
                out.insert(w.clone(), metrics);
            }
            Ok(out)
        };
        Ok(ResultFile {
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            end_to_end: section("end_to_end")?,
            per_layer: section("per_layer")?,
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound: the comparison
    /// cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better).
    pub worse_by: f64,
    /// The same from the other side: A's median against B's.
    pub a_worse_by: f64,
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Share by which `b` is worse than `a` in the metric's direction.
pub fn worse_by_fn(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Option<f64>, Verdict) {
    let w = worse_by_fn(median(a), median(b), better);
    let spread = (a.len() >= 2 && b.len() >= 2).then(|| iqr_share(a).max(iqr_share(b)));
    let verdict = match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ if w > bound => Verdict::Worse,
        _ => Verdict::Ok,
    };
    (w, spread, verdict)
}

/// One row per workload × end-to-end metric, B judged against A.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for (w, ms) in &a.end_to_end {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                ms.get(m.name),
                b.end_to_end.get(w).and_then(|x| x.get(m.name)),
            ) else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(va, vb, m.better, m.bound);
            rows.push(CompareRow {
                workload: w.clone(),
                metric: m.name,
                a: median(va),
                b: median(vb),
                worse_by,
                a_worse_by: worse_by_fn(median(vb), median(va), m.better),
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// The rows as a Markdown table (also what `compare` prints).
pub fn compare_table(rows: &[CompareRow]) -> String {
    let mut out = String::from(
        "| workload | metric | A (median) | B (median) | B worse by | spread | bound | verdict |\n\
         |---|---|---:|---:|---:|---:|---:|---|\n",
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("n/a".to_string(), |s| format!("{:.2} %", 100.0 * s));
        out.push_str(&format!(
            "| {} | {} | {:.6} | {:.6} | {:+.2} % | {} | {:.0} % | {} |\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            spread,
            100.0 * r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        // Lower is better, bound 10 %: 5 % worse is ok, 15 % is worse.
        assert_eq!(
            judge(&[100.0], &[105.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[115.0], Better::Lower, 0.10).2,
            Verdict::Worse
        );
        // Higher is better: a drop is what counts.
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.10).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[130.0], Better::Higher, 0.10).2,
            Verdict::Ok
        );
        // A side whose own runs spread wider than the bound decides nothing.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        let (_, spread, v) = judge(&noisy, &[150.0, 151.0], Better::Lower, 0.10);
        assert!(spread.unwrap() > 0.10);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let mut o = Outcome::new(spec::MAP_UPDATE, false);
        for (i, m) in END_TO_END.iter().enumerate() {
            o.set(m.name, 1.5 + i as f64 / 3.0);
        }
        o.attempted = 10;
        let mut f = ResultFile {
            seed: 7,
            seconds: 3,
            ..ResultFile::default()
        };
        let line = Json::parse(&o.contract_line()).unwrap();
        f.add_line(o.workload, false, &line).unwrap();
        f.add_line(o.workload, false, &line).unwrap();
        let text = f.to_json().write();
        let g = ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!((g.seed, g.seconds, g.attempted), (7, 3, 20));
        assert_eq!(g.end_to_end, f.end_to_end);
        let rows = compare(&f, &g);
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
        assert!(compare_table(&rows).lines().count() == rows.len() + 2);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(spec::SERVER, true);
        o.attempted = 5;
        o.set("trace.overhead_frac", 0.01);
        let doc = Json::parse(&o.contract_line()).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["pmem.self_host_ns_per_op"]
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0),
            "a layer off the path reports 0"
        );
    }
}
