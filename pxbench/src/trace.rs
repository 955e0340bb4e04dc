//! In-memory spans for the traced run.
//!
//! A span records a layer call made from the benchmark: its name (the
//! repository module that owns the call, e.g. `training.enumerate`), start
//! and end, the span that caused it and the request it belongs to.  Spans
//! stay in memory and are written out as JSON lines when the run ends.
//!
//! Layer phases that run *inside* a public call (pair enumeration inside
//! `PerfXplain::explain_in`, say) cannot be timed in place from outside the
//! program, so the benchmark replays them through their own public
//! functions and records each replay as a child of the call that contains
//! it in the product.  A span's self time is therefore its duration minus
//! the summed durations of its children, floored at zero — for ordinary
//! nested children this equals the uncovered part of the interval.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<u64>,
    pub request: u64,
    pub id: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<u64>, request: u64) -> u64 {
        let id = self.spans.len() as u64;
        let now = self.micros(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            request,
            id,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let now = self.micros(Instant::now());
        self.spans[id as usize].end_us = now;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, request);
        let result = f();
        self.close(id);
        (result, id)
    }

    /// Re-parents a span (a replayed phase recorded before its parent).
    pub fn adopt(&mut self, child: u64, parent: u64) {
        self.spans[child as usize].parent = Some(parent);
    }

    pub fn span(&self, id: u64) -> &Span {
        &self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: span count and total self time (ms).
    pub fn self_time_by_layer(&self) -> BTreeMap<String, (usize, f64)> {
        let mut by_layer: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times_ms(&self.spans)) {
            let entry = by_layer.entry(span.name.clone()).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        by_layer
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = serde_json::to_string(span)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Duration minus the summed durations of direct children, floored at 0.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut child_ms = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ms[parent as usize] += span.duration_ms();
        }
    }
    spans
        .iter()
        .zip(child_ms)
        .map(|(span, children)| (span.duration_ms() - children).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ms: f64, end_ms: f64, parent: Option<u64>) -> Span {
        Span {
            name: format!("s{id}"),
            start_us: start_ms * 1e3,
            end_us: end_ms * 1e3,
            parent,
            request: 0,
            id,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100] ⊃ explain [10, 90] ⊃ enumerate [20, 60]; a
        // replayed featurize [100, 130] recorded outside explain's interval
        // still counts against explain.
        let spans = vec![
            span(0, 0.0, 100.0, None),
            span(1, 10.0, 90.0, Some(0)),
            span(2, 20.0, 60.0, Some(1)),
            span(3, 100.0, 130.0, Some(1)),
        ];
        let own = self_times_ms(&spans);
        assert_eq!(own, vec![20.0, 10.0, 40.0, 30.0]);
    }

    #[test]
    fn self_time_is_floored_at_zero() {
        // Replayed children that ran slower than the call they stand for.
        let spans = vec![span(0, 0.0, 10.0, None), span(1, 10.0, 25.0, Some(0))];
        assert_eq!(self_times_ms(&spans), vec![0.0, 15.0]);
    }

    #[test]
    fn tracer_records_nesting_and_adoption() {
        let mut tracer = Tracer::default();
        let root = tracer.open("request", None, 7);
        let (value, child) = tracer.time("pxql.parse", Some(root), 7, || 41 + 1);
        tracer.close(root);
        let replay = tracer.open("training.enumerate", None, 7);
        tracer.close(replay);
        tracer.adopt(replay, child);
        assert_eq!(value, 42);
        assert_eq!(tracer.span(child).parent, Some(root));
        assert_eq!(tracer.span(replay).parent, Some(child));
        assert!(tracer.span(root).end_us >= tracer.span(child).end_us);
        let layers = tracer.self_time_by_layer();
        assert_eq!(layers["request"].0, 1);
        assert_eq!(layers.len(), 3);
    }
}
