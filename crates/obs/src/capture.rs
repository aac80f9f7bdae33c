//! The schema-versioned profiling artifact: everything one capture
//! session recorded — span trees, events, and a metrics snapshot — as
//! one JSON document, plus the renderers behind `dqc-obs report`.

use crate::{EventRecord, MetricsSnapshot, RingRecorder, SpanId, SpanRecord, TraceId};
use dqc_types::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp of the capture document layout. Bump on any
/// field-shape change so old captures fail loudly instead of silently
/// misparsing.
///
/// v2: metrics snapshots carry only counters and histograms; a v1
/// capture could also hold a `gauge` entry.
pub const CAPTURE_SCHEMA_VERSION: i64 = 2;

/// One complete profiling capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// What produced the capture (e.g. `dqcbench`, `repro`).
    pub producer: String,
    /// Which clock timestamped it (`monotonic` or `tick`).
    pub clock: String,
    /// Completed spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Events, in recording order.
    pub events: Vec<EventRecord>,
    /// The metrics registry at capture time (empty when the producer
    /// has no registry).
    pub metrics: MetricsSnapshot,
}

impl Capture {
    /// Copies a ring recorder's current contents into a capture. The
    /// ring keeps its records, so two captures in a row repeat them.
    pub fn from_ring(
        producer: impl Into<String>,
        clock: impl Into<String>,
        ring: &RingRecorder,
        metrics: MetricsSnapshot,
    ) -> Self {
        Self {
            producer: producer.into(),
            clock: clock.into(),
            spans: ring.spans(),
            events: ring.events(),
            metrics,
        }
    }

    /// Serializes the capture, stamped with
    /// [`CAPTURE_SCHEMA_VERSION`].
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(CAPTURE_SCHEMA_VERSION)),
            ("producer", Json::Str(self.producer.clone())),
            ("clock", Json::Str(self.clock.clone())),
            (
                "spans",
                Json::Array(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
            (
                "events",
                Json::Array(self.events.iter().map(EventRecord::to_json).collect()),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// Exact inverse of [`Capture::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a version mismatch or any missing or
    /// mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let version = json.i64_field("schema_version")?;
        if version != CAPTURE_SCHEMA_VERSION {
            return Err(JsonError::schema(format!(
                "capture schema_version {version} is not the supported \
                 {CAPTURE_SCHEMA_VERSION}"
            )));
        }
        Ok(Self {
            producer: json.str_field("producer")?.to_string(),
            clock: json.str_field("clock")?.to_string(),
            spans: json
                .array_field("spans")?
                .iter()
                .map(SpanRecord::from_json)
                .collect::<Result<_, _>>()?,
            events: json
                .array_field("events")?
                .iter()
                .map(EventRecord::from_json)
                .collect::<Result<_, _>>()?,
            metrics: MetricsSnapshot::from_json(json.field("metrics")?)?,
        })
    }

    /// The distinct traces in the capture, in first-appearance order.
    pub fn traces(&self) -> Vec<TraceId> {
        let mut seen = Vec::new();
        for span in &self.spans {
            if !seen.contains(&span.trace) {
                seen.push(span.trace);
            }
        }
        seen
    }

    /// Renders every trace's span tree, indented, durations in
    /// milliseconds. Spans whose parent fell off the ring render as
    /// roots of their trace.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let ids: std::collections::BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: BTreeMap<TraceId, Vec<&SpanRecord>> = BTreeMap::new();
        for span in &self.spans {
            match span.parent.filter(|p| ids.contains(p)) {
                Some(parent) => children.entry(parent).or_default().push(span),
                None => roots.entry(span.trace).or_default().push(span),
            }
        }
        for list in children.values_mut().chain(roots.values_mut()) {
            list.sort_by_key(|s| (s.start_us, s.id));
        }
        for trace in self.traces() {
            let _ = writeln!(out, "trace {trace}");
            for root in roots.get(&trace).into_iter().flatten() {
                render_span(&mut out, root, &children, 1);
            }
        }
        out
    }

    /// Aggregates spans by name: `(name, count, total_ms, mean_ms,
    /// max_ms)`, sorted by total time descending, truncated to `k`.
    pub fn top_spans(&self, k: usize) -> Vec<(String, u64, f64, f64, f64)> {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = by_name.entry(&span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_us();
            entry.2 = entry.2.max(span.duration_us());
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (count, total_us, max_us))| {
                (
                    name.to_string(),
                    count,
                    total_us as f64 / 1000.0,
                    total_us as f64 / 1000.0 / count as f64,
                    max_us as f64 / 1000.0,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Renders the top-`k` table produced by [`Capture::top_spans`].
    pub fn render_top(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>10} {:>10}",
            "span", "count", "total_ms", "mean_ms", "max_ms"
        );
        for (name, count, total, mean, max) in self.top_spans(k) {
            let _ = writeln!(
                out,
                "{name:<28} {count:>8} {total:>12.3} {mean:>10.3} {max:>10.3}"
            );
        }
        out
    }
}

fn render_span(
    out: &mut String,
    span: &SpanRecord,
    children: &BTreeMap<SpanId, Vec<&SpanRecord>>,
    depth: usize,
) {
    let _ = write!(
        out,
        "{:indent$}{} {:.3}ms",
        "",
        span.name,
        span.duration_us() as f64 / 1000.0,
        indent = depth * 2
    );
    if !span.attrs.is_empty() {
        let rendered: Vec<String> = span
            .attrs
            .iter()
            .map(|(k, v)| match v {
                crate::AttrValue::U64(n) => format!("{k}={n}"),
                crate::AttrValue::F64(f) => format!("{k}={f:.3}"),
                crate::AttrValue::Str(s) => format!("{k}={s}"),
            })
            .collect();
        let _ = write!(out, " [{}]", rendered.join(" "));
    }
    let _ = writeln!(out);
    for child in children.get(&span.id).into_iter().flatten() {
        render_span(out, child, children, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, range: (u64, u64)) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.to_string(),
            start_us: range.0,
            end_us: range.1,
            attrs: Vec::new(),
        }
    }

    fn sample() -> Capture {
        Capture {
            producer: "test".to_string(),
            clock: "tick".to_string(),
            spans: vec![
                span(1, 2, Some(1), "compile", (5, 55)),
                span(1, 1, None, "request", (0, 100)),
                span(1, 3, Some(1), "replay", (60, 90)),
                span(2, 4, None, "request", (0, 30)),
                // Parent 99 fell off the ring: renders as a root.
                span(2, 5, Some(99), "orphan", (1, 2)),
            ],
            events: vec![EventRecord {
                trace: Some(TraceId(1)),
                parent: Some(SpanId(2)),
                name: "cache".to_string(),
                at_us: 6,
                attrs: vec![("hit".to_string(), AttrValue::U64(0))],
            }],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn captures_round_trip_and_pin_their_schema() {
        let capture = sample();
        let json = capture.to_json();
        assert_eq!(Capture::from_json(&json).unwrap(), capture);
        let mut wrong = json.clone();
        if let Json::Object(members) = &mut wrong {
            members[0].1 = Json::Int(999);
        }
        assert!(Capture::from_json(&wrong).is_err(), "version gate");
    }

    #[test]
    fn tree_renders_nested_and_orphaned_spans() {
        let tree = sample().render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "trace 0000000000000001");
        assert_eq!(lines[1], "  request 0.100ms");
        assert_eq!(lines[2], "    compile 0.050ms");
        assert_eq!(lines[3], "    replay 0.030ms");
        assert_eq!(lines[4], "trace 0000000000000002");
        assert!(lines[5..].iter().any(|l| l.trim() == "orphan 0.001ms"));
    }

    #[test]
    fn top_spans_sort_by_total_time() {
        let top = sample().top_spans(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "request");
        assert_eq!(top[0].1, 2);
        assert!((top[0].2 - 0.130).abs() < 1e-9);
        assert_eq!(top[1].0, "compile");
        let rendered = sample().render_top(10);
        assert!(rendered.contains("total_ms"));
        assert!(rendered.contains("orphan"));
    }

    #[test]
    fn traces_appear_in_first_seen_order() {
        assert_eq!(sample().traces(), vec![TraceId(1), TraceId(2)]);
    }
}
