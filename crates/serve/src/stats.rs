//! Server observability: per-shard counters and histograms, and the
//! [`ServeStats`] totals.
//!
//! The per-shard metrics are typed handles into a per-server
//! [`Registry`], the serving stack's only record of what it did:
//! [`ServeStats`] sums its counters over the shards, and the same
//! registry backs the daemon's `metrics` wire frame and `trace`
//! captures.

use crate::config::BUCKET_BOUNDS_US;
use dqc_obs::{labeled, Counter, Histogram, MetricsSnapshot, Registry};
use std::sync::Arc;

/// Lock-free per-shard metric handles, updated by workers and the
/// admission path. Every handle lives in the server's [`Registry`] under
/// a `name{point=...}` label, so [`ServeStats`] and the raw metrics
/// exposition always agree. Relaxed ordering everywhere: the counters
/// are statistics, not synchronization.
#[derive(Debug)]
pub(crate) struct ShardCounters {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) served: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) dispatches: Arc<Counter>,
    /// Submission-to-dispatch wait per request, microseconds.
    pub(crate) queue_wait: Arc<Histogram>,
    /// Dispatch-to-completion service time per request, microseconds.
    pub(crate) service: Arc<Histogram>,
}

impl ShardCounters {
    /// Registers (or re-attaches to) one shard's metric family in
    /// `registry`, labeled by hardware point, with histograms over
    /// [`BUCKET_BOUNDS_US`].
    pub(crate) fn register(registry: &Registry, point: &str) -> Self {
        let counter = |name| registry.counter(&labeled(name, "point", point));
        Self {
            submitted: counter("serve.submitted"),
            served: counter("serve.served"),
            rejected: counter("serve.rejected"),
            errors: counter("serve.errors"),
            cache_hits: counter("serve.cache_hits"),
            cache_misses: counter("serve.cache_misses"),
            dispatches: counter("serve.dispatches"),
            queue_wait: registry.histogram(
                &labeled("serve.queue_wait_us", "point", point),
                &BUCKET_BOUNDS_US,
            ),
            service: registry.histogram(
                &labeled("serve.service_us", "point", point),
                &BUCKET_BOUNDS_US,
            ),
        }
    }
}

/// The serving layer's counters, each summed over every shard. It is a
/// view over the server's [`Registry`]: the `metrics` wire frame carries
/// the same counters per shard under `serve.*{point=…}` names, beside
/// the queue-wait and service-time histograms.
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
    /// Worker dispatches across all shards. A worker pops one request
    /// per dispatch, so this equals `served`.
    pub dispatches: u64,
    /// Always 0: no request shares another's replay. Kept, with
    /// `dispatches`, only while the benchmark still reads it.
    pub fused_requests: u64,
}

impl ServeStats {
    /// Sums each `serve.*{point=…}` counter of `metrics` over the shards.
    pub(crate) fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let total = |name: &str| metrics.counter_sum(&format!("{name}{{point="));
        Self {
            submitted: total("serve.submitted"),
            served: total("serve.served"),
            rejected: total("serve.rejected"),
            errors: total("serve.errors"),
            cache_hits: total("serve.cache_hits"),
            cache_misses: total("serve.cache_misses"),
            dispatches: total("serve.dispatches"),
            fused_requests: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counters_are_views_over_the_registry() {
        let registry = Registry::new();
        let counters = ShardCounters::register(&registry, "paper");
        counters.submitted.bump();
        counters.served.add(2);
        counters.queue_wait.record(50);
        counters.service.record(5000);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("serve.submitted{point=paper}"), Some(1));
        assert_eq!(snapshot.counter("serve.served{point=paper}"), Some(2));
        assert_eq!(
            ShardCounters::register(&registry, "paper").served.get(),
            2,
            "re-registration re-attaches to the same handles"
        );
    }
}
