//! Server observability: counters, latency quantiles, and the
//! JSON-serializable [`ServeStats`] snapshot.
//!
//! Since the `dqc-obs` layer landed, the per-shard counters are typed
//! handles into a per-server [`Registry`] — [`ServeStats`] is a *view*
//! over that registry (same numbers, same JSON schema), and the same
//! registry backs the daemon's `metrics` wire frame and `--profile`
//! captures.

use dqc_obs::{labeled, Counter, Gauge, Histogram, Registry};
use dqc_types::{Json, JsonError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Lock-free per-shard metric handles, updated by workers and the
/// admission path, read by [`ServeStats`] snapshots. Every handle lives
/// in the server's [`Registry`] under a `name{point=...}` label, so the
/// stats snapshot and the raw metrics exposition always agree. Relaxed
/// ordering everywhere: the counters are statistics, not
/// synchronization.
#[derive(Debug)]
pub(crate) struct ShardCounters {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) served: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) dispatches: Arc<Counter>,
    pub(crate) fused_requests: Arc<Counter>,
    pub(crate) fused_replays_saved: Arc<Counter>,
    /// Current worker target — written at spawn and by the autoscaler
    /// controller, read by snapshots. A gauge, not a counter: it moves
    /// both ways.
    pub(crate) workers: Arc<Gauge>,
    /// Submission-to-dispatch wait per request, microseconds.
    pub(crate) queue_wait: Arc<Histogram>,
    /// Dispatch-to-completion service time per request, microseconds.
    pub(crate) service: Arc<Histogram>,
}

impl ShardCounters {
    /// Registers (or re-attaches to) one shard's metric family in
    /// `registry`, labeled by hardware point.
    pub(crate) fn register(registry: &Registry, point: &str, bounds_us: &[u64]) -> Self {
        let counter = |name| registry.counter(&labeled(name, "point", point));
        Self {
            submitted: counter("serve.submitted"),
            served: counter("serve.served"),
            rejected: counter("serve.rejected"),
            errors: counter("serve.errors"),
            cache_hits: counter("serve.cache_hits"),
            cache_misses: counter("serve.cache_misses"),
            dispatches: counter("serve.dispatches"),
            fused_requests: counter("serve.fused_requests"),
            fused_replays_saved: counter("serve.fused_replays_saved"),
            workers: registry.gauge(&labeled("serve.workers", "point", point)),
            queue_wait: registry
                .histogram(&labeled("serve.queue_wait_us", "point", point), bounds_us),
            service: registry.histogram(&labeled("serve.service_us", "point", point), bounds_us),
        }
    }
}

/// A sliding window of recent request latencies (microseconds).
///
/// The capacity comes from `ServeConfig::metrics.latency_window`; a
/// zero window records nothing (every percentile reads 0 — flagged as
/// `DQC-W008` at config level).
#[derive(Debug)]
pub(crate) struct LatencyWindow {
    window: usize,
    samples: Mutex<VecDeque<u64>>,
}

impl LatencyWindow {
    pub(crate) fn new(window: usize) -> Self {
        Self {
            window,
            samples: Mutex::new(VecDeque::with_capacity(window.min(8192))),
        }
    }

    /// Records one request's submission-to-completion latency.
    pub(crate) fn record(&self, latency: Duration) {
        if self.window == 0 {
            return;
        }
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let mut samples = self.samples.lock().expect("latency lock not poisoned");
        if samples.len() == self.window {
            samples.pop_front();
        }
        samples.push_back(micros);
    }

    /// Summarizes the current window. With fewer samples than the
    /// window holds, quantiles are still exact nearest-rank over what
    /// *was* observed — the p99 of a single sample is that sample, not
    /// zero — so a freshly started server reports truthfully instead of
    /// optimistically.
    pub(crate) fn summarize(&self) -> LatencySummary {
        let samples = self.samples.lock().expect("latency lock not poisoned");
        let mut sorted: Vec<u64> = samples.iter().copied().collect();
        drop(samples);
        sorted.sort_unstable();
        let ms = |micros: u64| micros as f64 / 1e3;
        if sorted.is_empty() {
            return LatencySummary {
                window: self.window,
                ..LatencySummary::default()
            };
        }
        // Nearest-rank quantiles: rank ⌈q·n⌉ (1-based), the convention
        // that never interpolates between observed samples.
        let rank = |q: f64| {
            let n = sorted.len();
            let r = (q * n as f64).ceil() as usize;
            sorted[r.clamp(1, n) - 1]
        };
        LatencySummary {
            window: self.window,
            samples: sorted.len(),
            mean_ms: ms(sorted.iter().sum::<u64>()) / sorted.len() as f64,
            p50_ms: ms(rank(0.50)),
            p99_ms: ms(rank(0.99)),
            max_ms: ms(*sorted.last().expect("non-empty")),
        }
    }
}

/// Latency quantiles over the server's recent-request window, in
/// milliseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// The configured window capacity (`samples` saturates here). `0`
    /// means the window is disabled and every quantile reads zero.
    pub window: usize,
    /// Number of samples in the window (saturates at the window size).
    pub samples: usize,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50_ms: f64,
    /// 99th percentile (nearest-rank).
    pub p99_ms: f64,
    /// Worst latency in the window.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Serializes the summary for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("window", Json::from(self.window)),
            ("samples", Json::from(self.samples)),
            ("mean_ms", Json::float(self.mean_ms)),
            ("p50_ms", Json::float(self.p50_ms)),
            ("p99_ms", Json::float(self.p99_ms)),
            ("max_ms", Json::float(self.max_ms)),
        ])
    }

    /// Reads a summary back from [`LatencySummary::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            window: json.usize_field("window")?,
            samples: json.usize_field("samples")?,
            mean_ms: json.f64_field("mean_ms")?,
            p50_ms: json.f64_field("p50_ms")?,
            p99_ms: json.f64_field("p99_ms")?,
            max_ms: json.f64_field("max_ms")?,
        })
    }
}

/// One shard's slice of a [`ServeStats`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The hardware point this shard serves.
    pub point: String,
    /// Requests waiting in the shard's bounded queue right now.
    pub queue_depth: usize,
    /// The queue's capacity (the admission-control bound).
    pub queue_capacity: usize,
    /// Requests accepted into this shard.
    pub submitted: u64,
    /// Requests completed (successfully or with an engine error).
    pub served: u64,
    /// Requests refused with [`Overloaded`](crate::ServeError::Overloaded).
    pub rejected: u64,
    /// Served requests whose outcome was an engine error.
    pub errors: u64,
    /// Compilations served from the warm cache.
    pub cache_hits: u64,
    /// Compilations that had to be built.
    pub cache_misses: u64,
    /// Worker wake-ups; `served / dispatches` is the mean batch size.
    pub dispatches: u64,
    /// Requests served through a fused multi-request replay (groups of
    /// two or more coalesced in one dispatch).
    pub fused_requests: u64,
    /// Seed replays skipped because a fused sibling already ran them.
    pub fused_replays_saved: u64,
    /// Compilations currently warm in the cache.
    pub cached_circuits: usize,
    /// The shard's current active-worker target (static unless the
    /// autoscaler is on).
    pub workers: usize,
}

impl ShardSnapshot {
    /// Serializes the shard snapshot.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("point", Json::from(self.point.as_str())),
            ("queue_depth", Json::from(self.queue_depth)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("submitted", Json::uint(self.submitted)),
            ("served", Json::uint(self.served)),
            ("rejected", Json::uint(self.rejected)),
            ("errors", Json::uint(self.errors)),
            ("cache_hits", Json::uint(self.cache_hits)),
            ("cache_misses", Json::uint(self.cache_misses)),
            ("dispatches", Json::uint(self.dispatches)),
            ("fused_requests", Json::uint(self.fused_requests)),
            ("fused_replays_saved", Json::uint(self.fused_replays_saved)),
            ("cached_circuits", Json::from(self.cached_circuits)),
            ("workers", Json::from(self.workers)),
        ])
    }

    /// Reads a shard snapshot back from [`ShardSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            point: json.str_field("point")?.to_string(),
            queue_depth: json.usize_field("queue_depth")?,
            queue_capacity: json.usize_field("queue_capacity")?,
            submitted: json.u64_field("submitted")?,
            served: json.u64_field("served")?,
            rejected: json.u64_field("rejected")?,
            errors: json.u64_field("errors")?,
            cache_hits: json.u64_field("cache_hits")?,
            cache_misses: json.u64_field("cache_misses")?,
            dispatches: json.u64_field("dispatches")?,
            fused_requests: json.u64_field("fused_requests")?,
            fused_replays_saved: json.u64_field("fused_replays_saved")?,
            cached_circuits: json.usize_field("cached_circuits")?,
            workers: json.usize_field("workers")?,
        })
    }
}

/// A point-in-time snapshot of a running server: aggregate counters,
/// per-shard queue/cache state, latency quantiles, and throughput.
///
/// Snapshots serialize through the workspace's JSON layer, so the
/// daemon's `stats` frame and any external scraper read the same schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests accepted across all shards.
    pub submitted: u64,
    /// Requests completed across all shards.
    pub served: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Served requests that ended in an engine error.
    pub errors: u64,
    /// Cache hits across all shards.
    pub cache_hits: u64,
    /// Cache misses across all shards.
    pub cache_misses: u64,
    /// Worker dispatches across all shards.
    pub dispatches: u64,
    /// Requests served through a fused replay, across all shards.
    pub fused_requests: u64,
    /// Seed replays skipped by fusion, across all shards.
    pub fused_replays_saved: u64,
    /// Autoscaler controller samples taken (0 without a policy).
    pub autoscale_ticks: u64,
    /// Worker moves the autoscaler applied.
    pub rebalances: u64,
    /// Wall-clock milliseconds since the server started.
    pub elapsed_ms: f64,
    /// Completed requests per second since the server started.
    pub throughput_rps: f64,
    /// Latency quantiles over the recent-request window.
    pub latency: LatencySummary,
    /// Per-shard state, in hardware-point declaration order.
    pub shards: Vec<ShardSnapshot>,
}

impl ServeStats {
    /// Serializes the snapshot for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("submitted", Json::uint(self.submitted)),
            ("served", Json::uint(self.served)),
            ("rejected", Json::uint(self.rejected)),
            ("errors", Json::uint(self.errors)),
            ("cache_hits", Json::uint(self.cache_hits)),
            ("cache_misses", Json::uint(self.cache_misses)),
            ("dispatches", Json::uint(self.dispatches)),
            ("fused_requests", Json::uint(self.fused_requests)),
            ("fused_replays_saved", Json::uint(self.fused_replays_saved)),
            ("autoscale_ticks", Json::uint(self.autoscale_ticks)),
            ("rebalances", Json::uint(self.rebalances)),
            ("elapsed_ms", Json::float(self.elapsed_ms)),
            ("throughput_rps", Json::float(self.throughput_rps)),
            ("latency", self.latency.to_json()),
            (
                "shards",
                Json::Array(self.shards.iter().map(ShardSnapshot::to_json).collect()),
            ),
        ])
    }

    /// Reads a snapshot back from [`ServeStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            submitted: json.u64_field("submitted")?,
            served: json.u64_field("served")?,
            rejected: json.u64_field("rejected")?,
            errors: json.u64_field("errors")?,
            cache_hits: json.u64_field("cache_hits")?,
            cache_misses: json.u64_field("cache_misses")?,
            dispatches: json.u64_field("dispatches")?,
            fused_requests: json.u64_field("fused_requests")?,
            fused_replays_saved: json.u64_field("fused_replays_saved")?,
            autoscale_ticks: json.u64_field("autoscale_ticks")?,
            rebalances: json.u64_field("rebalances")?,
            elapsed_ms: json.f64_field("elapsed_ms")?,
            throughput_rps: json.f64_field("throughput_rps")?,
            latency: LatencySummary::from_json(json.field("latency")?)?,
            shards: json
                .array_field("shards")?
                .iter()
                .map(ShardSnapshot::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Where the workers ended up: one shard's final active-worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPlacement {
    /// The hardware point the shard serves.
    pub point: String,
    /// Active workers at shutdown (the autoscaler's final target, or
    /// the static `workers_per_shard`).
    pub workers: usize,
}

impl WorkerPlacement {
    /// Serializes the placement.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("point", Json::from(self.point.as_str())),
            ("workers", Json::from(self.workers)),
        ])
    }

    /// Reads a placement back from [`WorkerPlacement::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            point: json.str_field("point")?.to_string(),
            workers: json.usize_field("workers")?,
        })
    }
}

/// The one closing snapshot a graceful shutdown hands back: the final
/// stats plus where the autoscaler left the workers. The daemon wraps
/// this with its own wire-level counters in `dqc_served::ShutdownReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// The final serving-stats snapshot, taken after the drain.
    pub serve: ServeStats,
    /// Final per-shard worker placement, in declaration order.
    pub placement: Vec<WorkerPlacement>,
}

impl ShutdownReport {
    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("serve", self.serve.to_json()),
            (
                "placement",
                Json::Array(
                    self.placement
                        .iter()
                        .map(WorkerPlacement::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a report back from [`ShutdownReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            serve: ServeStats::from_json(json.field("serve")?)?,
            placement: json
                .array_field("placement")?
                .iter()
                .map(WorkerPlacement::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> ServeStats {
        ServeStats {
            submitted: 100,
            served: 97,
            rejected: 3,
            errors: 1,
            cache_hits: 90,
            cache_misses: 7,
            dispatches: 25,
            fused_requests: 12,
            fused_replays_saved: 30,
            autoscale_ticks: 40,
            rebalances: 2,
            elapsed_ms: 1234.5,
            throughput_rps: 78.6,
            latency: LatencySummary {
                window: 8192,
                samples: 97,
                mean_ms: 4.2,
                p50_ms: 3.1,
                p99_ms: 19.7,
                max_ms: 25.0,
            },
            shards: vec![ShardSnapshot {
                point: "paper".to_string(),
                queue_depth: 2,
                queue_capacity: 64,
                submitted: 100,
                served: 97,
                rejected: 3,
                errors: 1,
                cache_hits: 90,
                cache_misses: 7,
                dispatches: 25,
                fused_requests: 12,
                fused_replays_saved: 30,
                cached_circuits: 4,
                workers: 3,
            }],
        }
    }

    #[test]
    fn stats_round_trip_through_json_text() {
        let stats = sample_stats();
        let text = stats.to_json().to_pretty_string();
        let back = ServeStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let mut doc = sample_stats().to_json();
        if let Json::Object(members) = &mut doc {
            members.retain(|(k, _)| k != "latency");
        }
        assert!(ServeStats::from_json(&doc).is_err());
    }

    #[test]
    fn shutdown_report_round_trips_through_json_text() {
        let report = ShutdownReport {
            serve: sample_stats(),
            placement: vec![
                WorkerPlacement {
                    point: "paper".to_string(),
                    workers: 3,
                },
                WorkerPlacement {
                    point: "paper64".to_string(),
                    workers: 1,
                },
            ],
        };
        let text = report.to_json().to_pretty_string();
        let back = ShutdownReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn latency_window_quantiles_are_nearest_rank() {
        let window = LatencyWindow::new(8192);
        for micros in (1..=100).rev() {
            window.record(Duration::from_micros(micros * 1000));
        }
        let summary = window.summarize();
        assert_eq!(summary.window, 8192);
        assert_eq!(summary.samples, 100);
        assert!((summary.p50_ms - 50.0).abs() < 1e-9, "{summary:?}");
        assert!((summary.p99_ms - 99.0).abs() < 1e-9, "{summary:?}");
        assert!((summary.max_ms - 100.0).abs() < 1e-9, "{summary:?}");
        assert!((summary.mean_ms - 50.5).abs() < 1e-9, "{summary:?}");
    }

    #[test]
    fn latency_window_is_bounded() {
        let window = LatencyWindow::new(64);
        for _ in 0..(64 + 100) {
            window.record(Duration::from_micros(1000));
        }
        assert_eq!(window.summarize().samples, 64);
    }

    #[test]
    fn partially_filled_window_quantiles_cover_observed_samples_only() {
        // A freshly started server has fewer samples than its window.
        // Nearest-rank quantiles are then computed over what *was*
        // observed — the p99 of one sample is that sample, never an
        // optimistic zero — and the summary reports both the configured
        // window and how much of it is filled.
        let window = LatencyWindow::new(1000);
        window.record(Duration::from_micros(7_000));
        let one = window.summarize();
        assert_eq!((one.window, one.samples), (1000, 1));
        assert!((one.p50_ms - 7.0).abs() < 1e-9, "{one:?}");
        assert!((one.p99_ms - 7.0).abs() < 1e-9, "{one:?}");

        window.record(Duration::from_micros(1_000));
        let two = window.summarize();
        assert_eq!(two.samples, 2);
        // rank ⌈0.99·2⌉ = 2 → the worse of the two samples.
        assert!((two.p99_ms - 7.0).abs() < 1e-9, "{two:?}");
        assert!((two.p50_ms - 1.0).abs() < 1e-9, "{two:?}");
    }

    #[test]
    fn zero_window_drops_samples_instead_of_growing() {
        let window = LatencyWindow::new(0);
        window.record(Duration::from_micros(5_000));
        let summary = window.summarize();
        assert_eq!((summary.window, summary.samples), (0, 0));
        assert_eq!(summary.p99_ms, 0.0);
    }

    #[test]
    fn empty_window_summarizes_to_zeros() {
        let summary = LatencyWindow::new(16).summarize();
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.window, 16);
        assert_eq!(
            LatencySummary {
                window: 0,
                ..summary
            },
            LatencySummary::default()
        );
    }

    #[test]
    fn shard_counters_are_views_over_the_registry() {
        let registry = Registry::new();
        let counters = ShardCounters::register(&registry, "paper", &[100, 1000]);
        counters.submitted.bump();
        counters.served.add(2);
        counters.workers.set(3);
        counters.queue_wait.record(50);
        counters.service.record(5000);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("serve.submitted{point=paper}"), Some(1));
        assert_eq!(snapshot.counter("serve.served{point=paper}"), Some(2));
        assert_eq!(
            ShardCounters::register(&registry, "paper", &[100, 1000])
                .served
                .get(),
            2,
            "re-registration re-attaches to the same handles"
        );
    }
}
