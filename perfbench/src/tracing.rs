//! The traced run's span bookkeeping: per-layer self time and the
//! Chrome trace file.
//!
//! Span rings are drained after every unit of work, so a long run never
//! overflows them; the first few complete traces are kept for export.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use obs::trace::SpanRecord;

/// Span records each rollup keeps for the Chrome trace file.
const EXPORT_CAP: usize = 20_000;

/// The layer (crate) a span belongs to, from its name's first segment.
/// Spans opened by the benchmark itself are named after the layer they
/// wrap; `bench.*` spans are the benchmark's own root spans.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "disk" | "wal" | "buffer" | "storage" => "storage",
        "rtree" | "executor" | "shared" => "rtree",
        "external" | "core" => "core",
        "extsort" => "extsort",
        "flat" => "flat",
        "lsm" => "lsm",
        "geom" => "geom",
        "datagen" => "datagen",
        _ => "bench",
    }
}

/// Self time per layer, accumulated over every drained batch of spans.
#[derive(Default)]
pub struct Rollup {
    self_ns: BTreeMap<&'static str, u64>,
    export: Vec<SpanRecord>,
    spans: u64,
}

impl Rollup {
    /// Turn span tracing and the metrics registry on or off together.
    pub fn set_enabled(on: bool) {
        obs::set_enabled(on);
        obs::trace::set_enabled(on);
    }

    /// Drain the span rings and fold the spans into the rollup.
    pub fn drain(&mut self) {
        let records = obs::trace::dump();
        obs::trace::clear();
        self.fold(&records);
    }

    fn fold(&mut self, records: &[SpanRecord]) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for r in records {
            if r.parent != 0 {
                *child_ns.entry(r.parent).or_default() += r.dur_ns;
            }
        }
        for r in records {
            let own = r
                .dur_ns
                .saturating_sub(child_ns.get(&r.span).copied().unwrap_or(0));
            *self.self_ns.entry(layer_of(r.name)).or_default() += own;
        }
        self.spans += records.len() as u64;
        self.keep_for_export(records);
    }

    /// Keep whole traces, first come first kept, up to the export cap.
    fn keep_for_export(&mut self, records: &[SpanRecord]) {
        let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for r in records {
            by_trace.entry(r.trace).or_default().push(*r);
        }
        for (_, trace) in by_trace {
            if !self.export.is_empty() && self.export.len() + trace.len() > EXPORT_CAP {
                return;
            }
            self.export.extend(trace);
        }
    }

    /// Self time of `layer` in microseconds, divided by `ops`.
    pub fn self_us_per_op(&self, layer: &str, ops: u64) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / ops.max(1) as f64
    }

    /// Set the phase's self-time metrics and print the whole table, one
    /// line per layer; `op` names the unit the times are divided by.
    pub fn report(&self, report: &mut crate::Report, phase: &str, op: &str, ops: u64) {
        for (name, layer) in crate::metrics::self_time_metrics(phase) {
            report.set(name, self.self_us_per_op(layer, ops));
        }
        print!("{}", self.render(op, ops));
    }

    fn render(&self, op: &str, ops: u64) -> String {
        let total: u64 = self.self_ns.values().sum();
        let mut out = format!("# self time per {op}, over {ops} ({} spans)\n", self.spans);
        for (layer, ns) in &self.self_ns {
            out.push_str(&format!(
                "#   {layer:<8} {:>12.2} us  {:>5.1}%\n",
                *ns as f64 / 1e3 / ops.max(1) as f64,
                100.0 * *ns as f64 / total.max(1) as f64
            ));
        }
        out
    }
}

/// Write the traces the rollups kept as one Chrome `trace_event` file and
/// check it with the repository's trace validator. Returns the event
/// count.
pub fn write_chrome(rollups: &[&Rollup], path: &Path) -> Result<usize, String> {
    let records: Vec<SpanRecord> = rollups
        .iter()
        .flat_map(|r| r.export.iter().copied())
        .collect();
    let doc = obs::trace::export_chrome(&records);
    let events = str_bench::schema::validate_chrome_trace(&doc).map_err(|e| e.0)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc).map_err(|e| e.to_string())?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: u64, parent: u64, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span,
            parent,
            name,
            thread: 0,
            start_ns: span,
            dur_ns,
            io: Default::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Rollup::default();
        r.fold(&[
            rec(1, 0, "bench.window", 100),
            rec(2, 1, "rtree.query", 80),
            rec(3, 2, "disk.read", 30),
            rec(4, 2, "disk.read", 20),
        ]);
        assert_eq!(r.self_ns["bench"], 20);
        assert_eq!(r.self_ns["rtree"], 30);
        assert_eq!(r.self_ns["storage"], 50);
        assert_eq!(r.export.len(), 4);
    }
}
