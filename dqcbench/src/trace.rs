//! Reading per-layer numbers out of one [`Capture`]: span durations by
//! name and phase, self time, attributes, events, and metric histograms.
//!
//! The benchmark brackets its phases with its own spans (`bench.setup`,
//! `bench.timed`, `bench.layers`) and wraps each layer call it makes in a
//! `bench.*` span; the library's own spans (`compile`, `exec.replay`,
//! `serve.request`, ...) land in the same capture. Grid workers and
//! serving threads record their spans as parentless roots, so phase
//! membership is decided by time interval, not by ancestry.

use dqc_obs::{AttrValue, Capture, EventRecord, MetricValue, MetricsSnapshot, SpanId, SpanRecord};
use std::collections::BTreeMap;

/// A capture indexed for the queries below.
#[derive(Debug)]
pub struct Spans<'a> {
    capture: &'a Capture,
    children: BTreeMap<SpanId, Vec<&'a SpanRecord>>,
}

/// A closed time interval in clock microseconds.
pub type Interval = (u64, u64);

impl<'a> Spans<'a> {
    /// Indexes `capture`.
    pub fn new(capture: &'a Capture) -> Self {
        let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
        for span in &capture.spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push(span);
            }
        }
        Self { capture, children }
    }

    /// Every span called `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<&'a SpanRecord> {
        self.capture
            .spans
            .iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// The interval of the first span called `name` (a phase marker).
    pub fn phase(&self, name: &str) -> Option<Interval> {
        self.capture
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.start_us, s.end_us))
    }

    /// Spans called `name` that lie wholly inside `interval`.
    pub fn named_within(&self, name: &str, interval: Option<Interval>) -> Vec<&'a SpanRecord> {
        let Some((start, end)) = interval else {
            return Vec::new();
        };
        self.named(name)
            .into_iter()
            .filter(|s| s.start_us >= start && s.end_us <= end)
            .collect()
    }

    /// A span's self time: its duration minus the part of it covered by
    /// its direct children (overlapping children count once).
    pub fn self_time_us(&self, span: &SpanRecord) -> u64 {
        let mut covered: Vec<Interval> = self
            .children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = span.start_us;
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                union += e - s;
                reach = e;
            }
        }
        span.duration_us().saturating_sub(union)
    }

    /// Events called `name`, in recording order.
    pub fn events(&self, name: &str) -> Vec<&'a EventRecord> {
        self.capture
            .events
            .iter()
            .filter(|e| e.name == name)
            .collect()
    }

    /// The capture's metrics snapshot.
    pub fn metrics(&self) -> &'a MetricsSnapshot {
        &self.capture.metrics
    }
}

/// Durations in milliseconds.
pub fn durations_ms(spans: &[&SpanRecord]) -> Vec<f64> {
    spans.iter().map(|s| s.duration_us() as f64 / 1e3).collect()
}

/// Per-call milliseconds of batch spans: each span's duration divided
/// by its `calls` attribute (1 when absent).
pub fn per_call_ms(spans: &[&SpanRecord]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| {
            let calls = span_u64(s, "calls").unwrap_or(1).max(1);
            s.duration_us() as f64 / 1e3 / calls as f64
        })
        .collect()
}

fn lookup<'v>(attrs: &'v [(String, AttrValue)], key: &str) -> Option<&'v AttrValue> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A span's unsigned attribute.
pub fn span_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    match lookup(&span.attrs, key)? {
        AttrValue::U64(v) => Some(*v),
        _ => None,
    }
}

/// A span's string attribute.
pub fn span_str<'s>(span: &'s SpanRecord, key: &str) -> Option<&'s str> {
    match lookup(&span.attrs, key)? {
        AttrValue::Str(s) => Some(s),
        _ => None,
    }
}

/// An event's numeric attribute.
pub fn event_f64(event: &EventRecord, key: &str) -> Option<f64> {
    match lookup(&event.attrs, key)? {
        AttrValue::U64(v) => Some(*v as f64),
        AttrValue::F64(v) => Some(*v),
        AttrValue::Str(_) => None,
    }
}

/// Sum of one numeric attribute over events.
pub fn event_sum(events: &[&EventRecord], key: &str) -> f64 {
    // Start from +0.0: an empty f64 sum is -0.0, which would print as such.
    events
        .iter()
        .filter_map(|e| event_f64(e, key))
        .fold(0.0, |acc, v| acc + v)
}

/// Sums every histogram whose name starts with `prefix` (per-shard
/// histograms roll up to one), bucket by bucket. `None` when absent or
/// when the shards disagree on bucket bounds.
pub fn histogram_sum(metrics: &MetricsSnapshot, prefix: &str) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut acc: Option<(Vec<u64>, Vec<u64>)> = None;
    for entry in metrics
        .entries
        .iter()
        .filter(|e| e.name.starts_with(prefix))
    {
        let MetricValue::Histogram(h) = &entry.value else {
            continue;
        };
        match &mut acc {
            None => acc = Some((h.bounds_us.clone(), h.buckets.clone())),
            Some((bounds, buckets)) => {
                if *bounds != h.bounds_us || buckets.len() != h.buckets.len() {
                    return None;
                }
                for (b, add) in buckets.iter_mut().zip(&h.buckets) {
                    *b += add;
                }
            }
        }
    }
    acc
}

/// The `p`-th percentile of a bucketed histogram, interpolated linearly
/// inside the bucket that holds it (the overflow bucket reports its
/// lower bound). 0 when empty.
pub fn histogram_percentile(bounds: &[u64], buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p / 100.0) * total as f64;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let lower = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
        let Some(&upper) = bounds.get(i) else {
            return lower;
        };
        if count > 0 && seen + count as f64 >= target {
            let within = (target - seen) / count as f64;
            return lower + within * (upper as f64 - lower);
        }
        seen += count as f64;
    }
    bounds.last().map_or(0.0, |&b| b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_obs::TraceId;

    fn span(id: u64, parent: Option<u64>, name: &str, range: (u64, u64)) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.to_string(),
            start_us: range.0,
            end_us: range.1,
            attrs: vec![("calls".to_string(), AttrValue::U64(4))],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let capture = Capture {
            producer: "t".to_string(),
            clock: "tick".to_string(),
            spans: vec![
                span(1, None, "compile", (0, 100)),
                span(2, Some(1), "compile.partition", (10, 30)),
                span(3, Some(1), "compile.schedule", (20, 40)),
                span(4, Some(1), "compile.route", (90, 120)),
                span(5, None, "bench.timed", (0, 50)),
            ],
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        let spans = Spans::new(&capture);
        let compile = spans.named("compile")[0];
        // Children cover [10, 40) and [90, 100): 40 µs of 100.
        assert_eq!(spans.self_time_us(compile), 60);
        let timed = spans.phase("bench.timed");
        assert_eq!(spans.named_within("compile.partition", timed).len(), 1);
        assert!(spans.named_within("compile", timed).is_empty());
        assert_eq!(per_call_ms(&spans.named("compile")), vec![0.025]);
    }

    #[test]
    fn histogram_percentiles_interpolate_within_buckets() {
        let bounds = [10, 100];
        // 10 samples in [0, 10], 10 in (10, 100], none overflowing.
        let buckets = [10, 10, 0];
        assert!((histogram_percentile(&bounds, &buckets, 50.0) - 10.0).abs() < 1e-9);
        assert!((histogram_percentile(&bounds, &buckets, 75.0) - 55.0).abs() < 1e-9);
        assert_eq!(histogram_percentile(&bounds, &[0, 0, 0], 50.0), 0.0);
        assert_eq!(histogram_percentile(&bounds, &[0, 0, 3], 50.0), 100.0);
    }
}
