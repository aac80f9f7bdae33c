//! The typed metrics registry: counters and fixed-bucket histograms
//! with zero-alloc, lock-free increments.
//!
//! Registration (naming a metric) takes a lock once; the returned
//! handles are plain atomics, cheap enough for serving hot paths — the
//! serve layer's per-shard `ShardCounters` are these handles, and
//! `ServeStats` is a view over a [`Registry`]. A [`MetricsSnapshot`]
//! serializes the whole registry for the daemon's `metrics` wire frame
//! and `--profile` captures.

use dqc_types::{Json, JsonError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket microsecond histogram. `bounds_us` are inclusive upper
/// bounds, strictly increasing; one implicit overflow bucket catches the
/// rest. Recording is a linear scan over a handful of bounds plus three
/// relaxed atomic adds — no allocation, no locking.
#[derive(Debug)]
pub struct Histogram {
    bounds_us: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// A histogram over the given bucket bounds. Degenerate bounds
    /// (empty, unsorted, duplicated) are accepted mechanically; callers
    /// own their ladder (the serving layer's is a fixed constant).
    pub fn new(bounds_us: &[u64]) -> Self {
        Self {
            bounds_us: bounds_us.to_vec(),
            buckets: (0..=bounds_us.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one microsecond observation.
    #[inline]
    pub fn record(&self, us: u64) {
        let slot = self
            .bounds_us
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(self.bounds_us.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_us: self.bounds_us.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A serializable copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, one per finite bucket.
    pub bounds_us: Vec<u64>,
    /// Per-bucket observation counts (`bounds_us.len() + 1` entries; the
    /// last is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Largest observation, microseconds.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Each serving [`Server`] owns one (so
/// two servers in one process never share counters); the daemon
/// registers its connection counters in the same registry, and the
/// `metrics` wire frame is [`Registry::snapshot`] serialized.
///
/// [`Server`]: https://docs.rs/dqc-serve
///
/// # Examples
///
/// ```
/// use dqc_obs::Registry;
///
/// let registry = Registry::new();
/// let served = registry.counter("serve.served{point=paper}");
/// served.bump();
/// served.add(2);
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counter("serve.served{point=paper}"), Some(3));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Handle) -> Handle {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Gets or registers the named counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind —
    /// metric names are a static vocabulary, so that is a programming
    /// error worth failing loudly on.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Handle::Counter(Arc::new(Counter::default()))) {
            Handle::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers the named histogram; `bounds_us` applies only
    /// on first registration (same contract as [`Registry::counter`]).
    pub fn histogram(&self, name: &str, bounds_us: &[u64]) -> Arc<Histogram> {
        match self.register(name, || {
            Handle::Histogram(Arc::new(Histogram::new(bounds_us)))
        }) {
            Handle::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every registered metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            entries: inner
                .iter()
                .map(|(name, handle)| MetricEntry {
                    name: name.clone(),
                    value: match handle {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// Builds the conventional `name{key=value}` dimensional metric name.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}={value}}}")
}

/// One snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// The registered name (including any `{key=value}` label suffix).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A histogram's full state.
    Histogram(HistogramSnapshot),
}

/// Every metric of one [`Registry`] at one instant, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The snapshotted metrics.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// The named counter's value, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Sums every counter whose name starts with `prefix` (the way
    /// per-shard counters roll up to server totals).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Serializes the snapshot as a JSON array of metric objects.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.entries
                .iter()
                .map(|entry| match &entry.value {
                    MetricValue::Counter(v) => Json::object([
                        ("name", Json::Str(entry.name.clone())),
                        ("kind", Json::Str("counter".to_string())),
                        ("value", Json::uint(*v)),
                    ]),
                    MetricValue::Histogram(h) => Json::object([
                        ("name", Json::Str(entry.name.clone())),
                        ("kind", Json::Str("histogram".to_string())),
                        (
                            "bounds_us",
                            Json::Array(h.bounds_us.iter().map(|&b| Json::uint(b)).collect()),
                        ),
                        (
                            "buckets",
                            Json::Array(h.buckets.iter().map(|&b| Json::uint(b)).collect()),
                        ),
                        ("count", Json::uint(h.count)),
                        ("sum_us", Json::uint(h.sum_us)),
                        ("max_us", Json::uint(h.max_us)),
                    ]),
                })
                .collect(),
        )
    }

    /// Exact inverse of [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on any missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let array = json
            .as_array()
            .ok_or_else(|| JsonError::schema("metrics snapshot must be an array"))?;
        let entries = array
            .iter()
            .map(|entry| {
                let name = entry.str_field("name")?.to_string();
                let value = match entry.str_field("kind")? {
                    "counter" => MetricValue::Counter(entry.u64_field("value")?),
                    "histogram" => MetricValue::Histogram(HistogramSnapshot {
                        bounds_us: u64_array(entry, "bounds_us")?,
                        buckets: u64_array(entry, "buckets")?,
                        count: entry.u64_field("count")?,
                        sum_us: entry.u64_field("sum_us")?,
                        max_us: entry.u64_field("max_us")?,
                    }),
                    other => {
                        return Err(JsonError::schema(format!("unknown metric kind `{other}`")))
                    }
                };
                Ok(MetricEntry { name, value })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Self { entries })
    }
}

fn u64_array(json: &Json, key: &str) -> Result<Vec<u64>, JsonError> {
    json.array_field(key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| JsonError::schema(format!("`{key}` entries must be unsigned")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.bump();
        b.add(4);
        assert_eq!(a.get(), 5, "both handles hit one counter");
        assert_eq!(registry.snapshot().counter("x"), Some(5));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.histogram("x", &[10]);
    }

    #[test]
    fn histogram_buckets_count_sum_and_max() {
        let h = Histogram::new(&[10, 100, 1000]);
        for us in [5, 10, 11, 500, 5000] {
            h.record(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, [2, 1, 1, 1], "bounds are inclusive");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum_us, 5526);
        assert_eq!(snap.max_us, 5000);
        assert!((snap.mean_us() - 1105.2).abs() < 1e-9);
    }

    #[test]
    fn snapshots_round_trip_json_and_roll_up() {
        let registry = Registry::new();
        registry
            .counter(&labeled("serve.served", "point", "a"))
            .add(3);
        registry
            .counter(&labeled("serve.served", "point", "b"))
            .add(4);
        registry
            .histogram("serve.wait_us{point=a}", &[50, 500])
            .record(75);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter_sum("serve.served{"), 7);
        assert_eq!(snapshot.counter("serve.served{point=a}"), Some(3));
        let back = MetricsSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn empty_histograms_have_zero_mean() {
        assert_eq!(Histogram::new(&[1]).snapshot().mean_us(), 0.0);
    }
}
