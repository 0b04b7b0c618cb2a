//! In-memory spans around the calls the benchmark makes into a layer's
//! public functions. Spans are recorded by the benchmark only — nothing
//! inside the product is instrumented — kept in a `Vec` while timing and
//! written out when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.stage`.
    pub name: &'static str,
    /// The op (request, FASE, replayed chunk) the span belongs to; spans
    /// of one op share it.
    pub op_id: u32,
    /// Index of the enclosing span in the same tracer, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. All tracers of a run share `epoch`, so their
/// timestamps are comparable.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (a later span's
    /// `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op_id: u32, start_ns: u64) -> u32 {
        self.record(name, op_id, ROOT, start_ns, start_ns)
    }

    pub fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }
}

/// Per span name: how many, total duration, and total **self** time —
/// a span's duration minus the part of it its direct children cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Durations of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Writes the spans of a run (one list per tracer, e.g. per thread or
/// per rung) as `{"rungs": {"<label>": [[name, op_id, parent, start_ns,
/// end_ns], ...]}}` — arrays, not objects, to keep the file small.
pub fn write_trace(path: &std::path::Path, rungs: &[(&str, &[Span])]) -> std::io::Result<()> {
    let doc = Json::obj([
        (
            "columns",
            Json::Arr(
                ["name", "op_id", "parent", "start_ns", "end_ns"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        (
            "rungs",
            Json::obj(rungs.iter().map(|(label, spans)| {
                (
                    *label,
                    Json::Arr(
                        spans
                            .iter()
                            .map(|s| {
                                Json::Arr(vec![
                                    Json::Str(s.name.into()),
                                    Json::Num(f64::from(s.op_id)),
                                    if s.parent == ROOT {
                                        Json::Null
                                    } else {
                                        Json::Num(f64::from(s.parent))
                                    },
                                    Json::Num(s.start_ns as f64),
                                    Json::Num(s.end_ns as f64),
                                ])
                            })
                            .collect(),
                    ),
                )
            })),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.write())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        // request [0,100] ⊃ decode [0,10], stage [10,70] ⊃ fence [30,60]
        let req = t.open("server.request", 1, 0);
        t.record("server.decode", 1, req, 0, 10);
        let stage = t.record("core.stage", 1, req, 10, 70);
        t.record("pmem.sfence", 1, stage, 30, 60);
        t.close(req, 100);
        let by = totals_by_name(&t.spans);
        assert_eq!(by["server.request"].total_ns, 100);
        assert_eq!(by["server.request"].self_ns, 30, "100 - 10 - 60");
        assert_eq!(by["core.stage"].self_ns, 30, "60 - 30");
        assert_eq!(by["pmem.sfence"].self_ns, 30);
        assert_eq!(by["server.decode"].self_ns, 10);
        let total_self: u64 = by.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn trace_file_round_trips() {
        let spans = [Span {
            name: "core.stage",
            op_id: 7,
            parent: ROOT,
            start_ns: 5,
            end_ns: 9,
        }];
        let dir = crate::sys::PoolDir::new("unit-span");
        let path = dir.file("t.trace.json");
        write_trace(&path, &[("rung1", &spans)]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let row = &doc
            .get("rungs")
            .unwrap()
            .get("rung1")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(row.as_arr().unwrap()[0].as_str(), Some("core.stage"));
        assert_eq!(row.as_arr().unwrap()[4].as_f64(), Some(9.0));
    }
}
