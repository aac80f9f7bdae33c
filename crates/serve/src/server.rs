//! The long-lived evaluation service: per-hardware-point shards, worker
//! pools, batched dispatch, bounded admission, cross-request replay
//! fusion, and queue-pressure autoscaling.
//!
//! A [`Server`] is built from a set of named *hardware points* (full
//! [`SystemConfig`]s) plus one [`ServeConfig`]. Each point gets one
//! **shard**: a bounded job queue, a worker pool, and a warm
//! [`CompiledCircuit`] cache. Submitted [`EvalRequest`]s are routed to
//! their point's shard; workers drain the queue in batches (coalescing
//! same-shard requests into one dispatch), serve each request
//! compile-once out of the shard cache, and stream [`EvalResponse`]s
//! back over the result channel handed out at spawn.
//!
//! Two self-scaling mechanisms ride on the dispatch path:
//!
//! * **Replay fusion** ([`ServeConfig::fusion`], on by default): within
//!   one dispatch, requests sharing a compile fingerprint and design
//!   coalesce into one multi-seed replay — each distinct seed runs once
//!   and the per-seed [`ExecutionReport`]s fan back to every requester.
//!   Byte-identical to unfused execution by construction, because a
//!   compiled circuit's run is a pure function of `(design, seed)`.
//! * **Autoscaling** ([`ServeConfig::autoscale`], off by default): a
//!   controller thread samples queue pressure every tick and shifts
//!   workers toward hot shards within a global budget; workers park and
//!   unpark on the shard queue's `Condvar` (see `autoscale.rs` for the
//!   decision rules and `queue.rs` for the parking mechanics).
//!
//! Determinism: a request's outcome depends only on the request itself
//! (circuit, point, design, runs, base seed) — never on which worker
//! served it, how requests interleaved, batch boundaries, fusion
//! grouping, or worker placement. Workers replay seeds through the same
//! [`Experiment`] engine the sweep layer uses, so a served request is
//! byte-identical to a direct in-process evaluation.

use crate::autoscale::{initial_targets, Autoscaler, QueueObservation};
use crate::cache::CompileCache;
use crate::config::{AutoscalePolicy, QuotaConfig, RateLimit, ServeConfig};
use crate::queue::{BoundedQueue, PushRefused};
use crate::stats::{
    LatencyWindow, ServeStats, ShardCounters, ShardSnapshot, ShutdownReport, WorkerPlacement,
};
use crate::{EvalOutput, EvalRequest, EvalResponse, RequestId, ServeError};
use dqc_core::{CompiledCircuit, DqcError, ExecutionReport, Experiment, SystemConfig};
use dqc_obs::{Counter, MetricsSnapshot, Registry, TraceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An accepted request travelling through a shard queue.
struct Job {
    id: RequestId,
    request: EvalRequest,
    submitted_at: Instant,
    /// Submission time on the installed observability clock, captured
    /// only while recording — lets the worker synthesize the queue-wait
    /// span in the request's trace.
    submitted_us: Option<u64>,
}

/// Everything one worker thread needs, cloned per worker.
struct WorkerContext {
    queue: Arc<BoundedQueue<Job>>,
    counters: Arc<ShardCounters>,
    cache: Arc<Mutex<CompileCache>>,
    config: Arc<SystemConfig>,
    point: String,
    results: Sender<EvalResponse>,
    latency: Arc<LatencyWindow>,
    batch_max: usize,
    fusion: bool,
    /// This worker's index within the shard — its identity for the
    /// queue's active-limit parking.
    index: usize,
}

/// One hardware point's slice of the server.
struct Shard {
    point: String,
    config: Arc<SystemConfig>,
    queue: Arc<BoundedQueue<Job>>,
    counters: Arc<ShardCounters>,
    cache: Arc<Mutex<CompileCache>>,
    workers: Vec<JoinHandle<()>>,
}

/// The autoscaler controller's shared state: the stop latch the server
/// pulls at shutdown, and the counters snapshots read (registered in
/// the server's metrics registry).
#[derive(Debug)]
struct AutoscaleShared {
    stop: Mutex<bool>,
    wake: Condvar,
    ticks: Arc<Counter>,
    rebalances: Arc<Counter>,
}

#[derive(Debug)]
struct AutoscaleHandle {
    shared: Arc<AutoscaleShared>,
    controller: Option<JoinHandle<()>>,
}

/// Configures and spawns a [`Server`]. Every knob lives in the
/// [`ServeConfig`] the builder carries; the individual setters are thin
/// shims over its fields (pass a whole config with
/// [`ServeBuilder::config`]).
///
/// # Examples
///
/// ```
/// use dqc_core::{Design, SystemConfig};
/// use dqc_serve::{EvalRequest, ServeBuilder};
/// use dqc_workloads::PaperBenchmark;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), dqc_serve::ServeError> {
/// let (server, responses) = ServeBuilder::new()
///     .hardware_point("paper", SystemConfig::paper_two_node_32())
///     .workers_per_shard(2)
///     .spawn()?;
///
/// let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
/// for seed in 0..4 {
///     server.submit(
///         EvalRequest::new("TLIM-32", Arc::clone(&circuit), "paper", Design::AdaptBuf)
///             .runs(2)
///             .base_seed(seed),
///     )?;
/// }
/// for _ in 0..4 {
///     let response = responses.recv().expect("server streams responses");
///     assert_eq!(response.outcome.unwrap().reports.len(), 2);
/// }
/// let stats = server.shutdown().serve;
/// assert_eq!(stats.served, 4);
/// // With 2 workers, at most the first request per worker misses cold.
/// assert!(stats.cache_hits >= 2, "the warm cache amortizes compilation");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeBuilder {
    points: Vec<(String, SystemConfig)>,
    config: ServeConfig,
}

impl Default for ServeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeBuilder {
    /// Starts a builder with [`ServeConfig::default`]: 2 workers per
    /// shard, a 64-request queue, a 32-compilation cache, batches of up
    /// to 8, fusion on, no autoscaling, no quotas.
    pub fn new() -> Self {
        Self {
            points: Vec::new(),
            config: ServeConfig::default(),
        }
    }

    /// Registers a named hardware point; requests target it by label.
    #[must_use]
    pub fn hardware_point(mut self, label: impl Into<String>, config: SystemConfig) -> Self {
        self.points.push((label.into(), config));
        self
    }

    /// The hardware-point labels registered so far, in declaration
    /// order (duplicates included — they are rejected at
    /// [`spawn`](ServeBuilder::spawn)).
    ///
    /// Front ends that wrap one builder — the `dqc-served` daemon
    /// reusing a shard registration for its welcome frame — read the
    /// labels here instead of re-tracking them.
    pub fn point_labels(&self) -> impl Iterator<Item = &str> {
        self.points.iter().map(|(label, _)| label.as_str())
    }

    /// Replaces the whole configuration in one move — the path
    /// `--config FILE.json` front ends take.
    #[must_use]
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
            batch_max: config.batch_max.max(1),
            ..config
        };
        self
    }

    /// The configuration as accumulated so far.
    pub fn config_ref(&self) -> &ServeConfig {
        &self.config
    }

    /// Sets the worker threads per shard. `0` is an accept-only
    /// diagnostic mode: requests queue (and overflow deterministically)
    /// but are never executed — used by admission-control tests.
    #[must_use]
    pub fn workers_per_shard(mut self, workers: usize) -> Self {
        self.config.workers_per_shard = workers;
        self
    }

    /// Sets each shard's queue capacity — the admission-control bound
    /// behind [`ServeError::Overloaded`]. Clamped to at least 1.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Sets each shard's warm-compilation cache capacity (entries). `0`
    /// disables caching — every request recompiles.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the largest number of queued requests one worker wake-up
    /// drains. Clamped to at least 1.
    #[must_use]
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max.max(1);
        self
    }

    /// Enables or disables cross-request replay fusion (on by default).
    #[must_use]
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.config.fusion = fusion;
        self
    }

    /// Enables queue-pressure autoscaling with the given policy. Without
    /// one, worker placement is static — exactly
    /// [`workers_per_shard`](ServeBuilder::workers_per_shard) workers
    /// per shard and no controller thread.
    #[must_use]
    pub fn autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.config.autoscale = Some(policy);
        self
    }

    /// Caps the total active workers across all shards under
    /// autoscaling (default: `shards × workers_per_shard`).
    #[must_use]
    pub fn worker_budget(mut self, budget: usize) -> Self {
        self.config.worker_budget = Some(budget);
        self
    }

    /// Caps each client's simultaneously in-flight requests (enforced by
    /// network front ends, carried here so one config names every knob).
    #[must_use]
    pub fn max_in_flight(mut self, max: usize) -> Self {
        self.config.quota.max_in_flight = Some(max);
        self
    }

    /// Sets the per-client sustained submission-rate limit (enforced by
    /// network front ends).
    #[must_use]
    pub fn rate_limit(mut self, per_sec: f64, burst: f64) -> Self {
        self.config.quota.rate = Some(RateLimit { per_sec, burst });
        self
    }

    /// Replaces the per-client quota terms wholesale.
    #[must_use]
    pub fn quota(mut self, quota: QuotaConfig) -> Self {
        self.config.quota = quota;
        self
    }

    /// Spawns the shards and their worker pools (and the autoscaler
    /// controller, when configured), returning the server handle and the
    /// receiving end of the result channel.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoHardwarePoints`] when no point was registered, or
    /// [`ServeError::DuplicatePoint`] when two points share a label.
    pub fn spawn(self) -> Result<(Server, Receiver<EvalResponse>), ServeError> {
        if self.points.is_empty() {
            return Err(ServeError::NoHardwarePoints);
        }
        let mut index = HashMap::new();
        for (i, (label, _)) in self.points.iter().enumerate() {
            if index.insert(label.clone(), i).is_some() {
                return Err(ServeError::DuplicatePoint {
                    point: label.clone(),
                });
            }
        }

        let shard_count = self.points.len();
        let config = self.config;
        // Worker placement: static mode spawns exactly `workers_per_shard`
        // threads per shard and never parks anyone. Autoscale mode splits
        // the budget into initial targets, spawns every thread a shard
        // could ever be granted, and parks the surplus via the queue's
        // active limit (threads are reused across rebalances, never
        // spawned mid-flight).
        let budget = config
            .worker_budget
            .unwrap_or(shard_count * config.workers_per_shard);
        let autoscaling = config.autoscale.is_some() && budget > 0;
        let targets: Vec<usize> = match config.autoscale {
            Some(policy) => initial_targets(budget, shard_count, policy.min_workers),
            None => vec![config.workers_per_shard; shard_count],
        };
        let spawn_counts: Vec<usize> = if autoscaling {
            let min = config.autoscale.expect("checked").min_workers;
            let reachable = if budget >= shard_count * min {
                budget - (shard_count - 1) * min
            } else {
                0
            };
            targets.iter().map(|&t| t.max(reachable)).collect()
        } else {
            targets.clone()
        };

        let (results, receiver) = channel();
        let registry = Arc::new(Registry::new());
        let bounds_us = config.metrics.bucket_bounds_us();
        let latency = Arc::new(LatencyWindow::new(config.metrics.latency_window));
        let shards: Vec<Shard> = self
            .points
            .into_iter()
            .zip(targets.iter().zip(&spawn_counts))
            .map(|((point, system), (&target, &spawn_count))| {
                let system = Arc::new(system);
                let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
                if autoscaling {
                    queue.set_active(target);
                }
                let counters = Arc::new(ShardCounters::register(&registry, &point, &bounds_us));
                counters.workers.set(target as u64);
                let cache = Arc::new(Mutex::new(CompileCache::new(config.cache_capacity)));
                let workers = (0..spawn_count)
                    .map(|worker_index| {
                        let ctx = WorkerContext {
                            queue: Arc::clone(&queue),
                            counters: Arc::clone(&counters),
                            cache: Arc::clone(&cache),
                            config: Arc::clone(&system),
                            point: point.clone(),
                            results: results.clone(),
                            latency: Arc::clone(&latency),
                            batch_max: config.batch_max,
                            fusion: config.fusion,
                            index: worker_index,
                        };
                        std::thread::spawn(move || worker_loop(ctx))
                    })
                    .collect();
                Shard {
                    point,
                    config: system,
                    queue,
                    counters,
                    cache,
                    workers,
                }
            })
            .collect();

        let autoscale = if autoscaling {
            let policy = config.autoscale.expect("checked");
            let shared = Arc::new(AutoscaleShared {
                stop: Mutex::new(false),
                wake: Condvar::new(),
                ticks: registry.counter("serve.autoscale_ticks"),
                rebalances: registry.counter("serve.rebalances"),
            });
            let scaler = Autoscaler::new(policy, targets);
            let watched: Vec<(Arc<BoundedQueue<Job>>, Arc<ShardCounters>)> = shards
                .iter()
                .map(|s| (Arc::clone(&s.queue), Arc::clone(&s.counters)))
                .collect();
            let controller = {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || controller_loop(policy, scaler, watched, shared))
            };
            Some(AutoscaleHandle {
                shared,
                controller: Some(controller),
            })
        } else {
            None
        };

        // `results` drops here: once every worker exits, the receiver
        // disconnects — the client's end-of-stream signal.
        Ok((
            Server {
                shards,
                index,
                config,
                next_id: AtomicU64::new(0),
                started: Instant::now(),
                latency,
                registry,
                autoscale,
            },
            receiver,
        ))
    }
}

/// A running sharded evaluation service. See the [crate docs](crate)
/// for the architecture and [`ServeBuilder`] for a usage example.
///
/// Dropping the server closes every shard queue, drains the work already
/// accepted, and joins the workers; [`Server::shutdown`] does the same
/// but hands back the final [`ShutdownReport`].
#[derive(Debug)]
pub struct Server {
    shards: Vec<Shard>,
    index: HashMap<String, usize>,
    config: ServeConfig,
    next_id: AtomicU64,
    started: Instant,
    latency: Arc<LatencyWindow>,
    registry: Arc<Registry>,
    autoscale: Option<AutoscaleHandle>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("point", &self.point)
            .field("queue_depth", &self.queue.depth())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Starts a [`ServeBuilder`].
    pub fn builder() -> ServeBuilder {
        ServeBuilder::new()
    }

    /// The configuration this server was spawned with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The registered hardware-point labels, in declaration order.
    pub fn points(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().map(|s| s.point.as_str())
    }

    /// The configuration behind a hardware point, if registered.
    pub fn point_config(&self, point: &str) -> Option<&SystemConfig> {
        self.index.get(point).map(|&i| &*self.shards[i].config)
    }

    /// Submits a request to its hardware point's shard.
    ///
    /// Returns the request's id immediately; the outcome arrives on the
    /// result channel as an [`EvalResponse`] carrying the same id.
    /// Responses arrive in *completion* order, not submission order.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownPoint`] — no shard serves `request.point`.
    /// * [`ServeError::Engine`]([`DqcError::ZeroRuns`]) — `runs == 0` is
    ///   rejected here rather than poisoning a worker.
    /// * [`ServeError::Overloaded`] — the shard queue is full; the
    ///   admission controller refused the request (backpressure).
    /// * [`ServeError::ShuttingDown`] — the server is draining.
    ///
    /// [`DqcError::ZeroRuns`]: dqc_core::DqcError::ZeroRuns
    pub fn submit(&self, mut request: EvalRequest) -> Result<RequestId, ServeError> {
        let Some(&shard_idx) = self.index.get(&request.point) else {
            return Err(ServeError::UnknownPoint {
                point: request.point,
            });
        };
        if request.runs == 0 {
            return Err(ServeError::Engine(dqc_core::DqcError::ZeroRuns));
        }
        // While recording, every accepted request gets a trace identity
        // (kept if the caller already minted one) and an admission
        // timestamp, so the worker can reconstruct queue-wait spans.
        // `now_micros` is `None` when no recorder is installed, making
        // all of this free on the default path.
        let submitted_us = dqc_obs::now_micros();
        if submitted_us.is_some() && request.trace.is_none() {
            request.trace = Some(TraceId::mint());
        }
        let shard = &self.shards[shard_idx];
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let job = Job {
            id,
            request,
            submitted_at: Instant::now(),
            submitted_us,
        };
        match shard.queue.try_push(job) {
            Ok(()) => {
                shard.counters.submitted.bump();
                Ok(id)
            }
            Err(PushRefused::Full) => {
                shard.counters.rejected.bump();
                dqc_obs::event("serve.rejected", || {
                    vec![("point", shard.point.as_str().into())]
                });
                Err(ServeError::Overloaded {
                    point: shard.point.clone(),
                    capacity: shard.queue.capacity(),
                })
            }
            Err(PushRefused::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// A point-in-time snapshot of counters, queue depths, cache state,
    /// fusion/autoscale activity, latency quantiles, and throughput.
    pub fn stats(&self) -> ServeStats {
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .map(|s| ShardSnapshot {
                point: s.point.clone(),
                queue_depth: s.queue.depth(),
                queue_capacity: s.queue.capacity(),
                submitted: s.counters.submitted.get(),
                served: s.counters.served.get(),
                rejected: s.counters.rejected.get(),
                errors: s.counters.errors.get(),
                cache_hits: s.counters.cache_hits.get(),
                cache_misses: s.counters.cache_misses.get(),
                dispatches: s.counters.dispatches.get(),
                fused_requests: s.counters.fused_requests.get(),
                fused_replays_saved: s.counters.fused_replays_saved.get(),
                cached_circuits: s.cache.lock().expect("cache lock not poisoned").len(),
                workers: s.counters.workers.get() as usize,
            })
            .collect();
        let total = |f: fn(&ShardSnapshot) -> u64| shards.iter().map(f).sum();
        let served: u64 = total(|s| s.served);
        let elapsed = self.started.elapsed();
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let (autoscale_ticks, rebalances) = self.autoscale.as_ref().map_or((0, 0), |handle| {
            (handle.shared.ticks.get(), handle.shared.rebalances.get())
        });
        ServeStats {
            submitted: total(|s| s.submitted),
            served,
            rejected: total(|s| s.rejected),
            errors: total(|s| s.errors),
            cache_hits: total(|s| s.cache_hits),
            cache_misses: total(|s| s.cache_misses),
            dispatches: total(|s| s.dispatches),
            fused_requests: total(|s| s.fused_requests),
            fused_replays_saved: total(|s| s.fused_replays_saved),
            autoscale_ticks,
            rebalances,
            elapsed_ms,
            throughput_rps: if elapsed_ms > 0.0 {
                served as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            latency: self.latency.summarize(),
            shards,
        }
    }

    /// A raw snapshot of the server's metrics registry: the same
    /// per-shard counters [`Server::stats`] rolls up, plus the
    /// queue-wait and service-time histograms the rolled-up view elides.
    /// This is what the daemon's `metrics` wire frame serializes.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The server's metrics registry. Front ends register their own
    /// counters here (the daemon's wire-level counters live alongside
    /// the serve counters) so one `metrics` exposition covers the whole
    /// process.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Gracefully shuts down: stops the autoscaler, closes every queue
    /// (refusing new submissions), lets the workers drain what was
    /// already accepted, joins them, and returns the closing
    /// [`ShutdownReport`] — final stats plus worker placement.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.close_and_join();
        let serve = self.stats();
        let placement = serve
            .shards
            .iter()
            .map(|s| WorkerPlacement {
                point: s.point.clone(),
                workers: s.workers,
            })
            .collect();
        ShutdownReport { serve, placement }
    }

    fn close_and_join(&mut self) {
        // The controller first: a rebalance racing the close could
        // otherwise re-park a worker that still owes a drain.
        if let Some(handle) = &mut self.autoscale {
            *handle
                .shared
                .stop
                .lock()
                .expect("autoscale lock not poisoned") = true;
            handle.shared.wake.notify_all();
            if let Some(controller) = handle.controller.take() {
                let _ = controller.join();
            }
        }
        for shard in &self.shards {
            shard.queue.close();
        }
        for shard in &mut self.shards {
            for worker in shard.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The autoscaler controller: sample queue pressure every tick, apply at
/// most one worker move, and publish the new placement — until the stop
/// latch is pulled at shutdown.
fn controller_loop(
    policy: AutoscalePolicy,
    mut scaler: Autoscaler,
    shards: Vec<(Arc<BoundedQueue<Job>>, Arc<ShardCounters>)>,
    shared: Arc<AutoscaleShared>,
) {
    let tick = Duration::from_millis(policy.tick_ms.max(1));
    let mut stopped = shared.stop.lock().expect("autoscale lock not poisoned");
    while !*stopped {
        let (guard, wait) = shared
            .wake
            .wait_timeout(stopped, tick)
            .expect("autoscale lock not poisoned");
        stopped = guard;
        if *stopped || !wait.timed_out() {
            continue;
        }
        shared.ticks.bump();
        let observations: Vec<QueueObservation> = shards
            .iter()
            .map(|(queue, _)| QueueObservation {
                depth: queue.depth(),
                capacity: queue.capacity(),
            })
            .collect();
        if let Some(mv) = scaler.tick(&observations) {
            shared.rebalances.bump();
            let targets = scaler.targets();
            dqc_obs::event("serve.autoscale_move", || {
                // Reconstruct the pre-move placement: the donor had one
                // more worker, the winner one fewer.
                let mut before = targets.to_vec();
                before[mv.from] += 1;
                before[mv.to] -= 1;
                vec![
                    ("from", (mv.from as u64).into()),
                    ("to", (mv.to as u64).into()),
                    ("before", placement_string(&before).into()),
                    ("after", placement_string(targets).into()),
                ]
            });
            // Publish the donor's shrink before the winner's growth so
            // the budget is never transiently exceeded.
            shards[mv.from].0.set_active(targets[mv.from]);
            shards[mv.to].0.set_active(targets[mv.to]);
            for ((_, counters), &target) in shards.iter().zip(targets) {
                counters.workers.set(target as u64);
            }
        }
    }
}

/// Turns a worker placement into the compact `a,b,c` attr form.
fn placement_string(targets: &[usize]) -> String {
    let mut out = String::new();
    for (i, t) in targets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out
}

/// One worker's lifetime: drain batches until the queue closes empty,
/// fusing same-fingerprint requests within each batch when enabled.
fn worker_loop(ctx: WorkerContext) {
    while let Some(batch) = ctx.queue.pop_batch_as(ctx.index, ctx.batch_max) {
        ctx.counters.dispatches.bump();
        let mut dispatch = dqc_obs::span("serve.dispatch");
        if dispatch.enabled() {
            dispatch.attr("point", ctx.point.as_str());
            dispatch.attr("batch", batch.len() as u64);
        }
        if ctx.fusion && batch.len() > 1 {
            for group in fuse_batch(&ctx, batch) {
                serve_group(&ctx, group);
            }
        } else {
            for job in batch {
                serve_job(&ctx, job);
            }
        }
    }
}

/// Serves one unfused job end to end: request span, evaluation, and
/// completion accounting.
fn serve_job(ctx: &WorkerContext, job: Job) {
    let service_started = Instant::now();
    let _request_span = open_request_span(ctx, &job);
    let (outcome, cache_hit) = serve_one(ctx, &job.request);
    finish_job(ctx, job, outcome, cache_hit, service_started);
}

/// Opens the per-request span while recording: a `serve.request` root
/// adopting the trace and admission time stamped at submit, plus a
/// synthesized `serve.queue` child covering the time spent waiting in
/// the shard queue. Inert (no allocation) when nothing is installed.
fn open_request_span(ctx: &WorkerContext, job: &Job) -> dqc_obs::SpanGuard {
    let mut span = match (job.request.trace, job.submitted_us) {
        (Some(trace), Some(start)) => dqc_obs::root_span_at("serve.request", trace, start),
        (Some(trace), None) => dqc_obs::root_span("serve.request", trace),
        _ => dqc_obs::span("serve.request"),
    };
    if span.enabled() {
        span.attr("point", ctx.point.as_str());
        span.attr("runs", job.request.runs as u64);
        span.attr("seed", job.request.base_seed);
        if let (Some((trace, parent)), Some(start), Some(now)) =
            (span.ids(), job.submitted_us, dqc_obs::now_micros())
        {
            dqc_obs::record_span(
                "serve.queue",
                trace,
                Some(parent),
                start,
                now.max(start),
                Vec::new(),
            );
        }
    }
    span
}

/// Splits one dispatch batch into fusion groups: jobs sharing a compile
/// cache key **and** design **and** structurally equal circuits (the
/// equality guard demotes a fingerprint collision to separate groups,
/// never to a shared replay). Jobs stay in submission order within and
/// across groups, so a group of one is served exactly like today.
fn fuse_batch(ctx: &WorkerContext, batch: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<(u64, Vec<Job>)> = Vec::new();
    for job in batch {
        let key = CompiledCircuit::cache_key(&job.request.circuit, &ctx.config);
        let home = groups.iter_mut().find(|(group_key, members)| {
            *group_key == key && {
                let rep = &members[0].request;
                rep.design == job.request.design
                    && (Arc::ptr_eq(&rep.circuit, &job.request.circuit)
                        || rep.circuit == job.request.circuit)
            }
        });
        match home {
            Some((_, members)) => members.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Serves one fusion group as a single multi-seed replay: every distinct
/// seed in the group runs once (memoized), and each job assembles its
/// reports from the memo in its own seed order — byte-identical to
/// serving each job alone, because a compiled circuit's run is a pure
/// function of `(design, seed)`. Cache accounting stays per job, exactly
/// as the unfused path counts it.
fn serve_group(ctx: &WorkerContext, group: Vec<Job>) {
    if group.len() == 1 {
        let job = group.into_iter().next().expect("one job");
        serve_job(ctx, job);
        return;
    }
    let fused = group.len() as u64;
    let mut saved = 0u64;
    let mut memo: HashMap<u64, Result<ExecutionReport, DqcError>> = HashMap::new();
    let mut shared_compiled: Option<Arc<CompiledCircuit>> = None;
    for job in group {
        let service_started = Instant::now();
        let request_span = open_request_span(ctx, &job);
        let (outcome, cache_hit) = match resolve_compiled(ctx, &job.request) {
            Err(e) => (Err(e), false),
            Ok((compiled, cache_hit)) => {
                // Replay through the group's first compilation; every
                // member compiles equal (same circuit, same config), so
                // the choice cannot change any report.
                let compiled = shared_compiled.get_or_insert(compiled);
                let mut reports = Vec::with_capacity(job.request.runs);
                let mut failure = None;
                for i in 0..job.request.runs {
                    let seed = job.request.base_seed.wrapping_add(i as u64);
                    let result = match memo.get(&seed) {
                        Some(result) => {
                            saved += 1;
                            result
                        }
                        None => {
                            let result = compiled.run(job.request.design, seed);
                            memo.entry(seed).or_insert(result)
                        }
                    };
                    match result {
                        Ok(report) => reports.push(report.clone()),
                        Err(e) => {
                            failure = Some(e.clone());
                            break;
                        }
                    }
                }
                match failure {
                    // The first failing seed aborts the job's replay with
                    // that error — the same contract as `Experiment::reports`.
                    Some(e) => (Err(ServeError::Engine(e)), cache_hit),
                    None => (Ok(EvalOutput { reports }), cache_hit),
                }
            }
        };
        finish_job(ctx, job, outcome, cache_hit, service_started);
        drop(request_span);
    }
    ctx.counters.fused_requests.add(fused);
    ctx.counters.fused_replays_saved.add(saved);
    dqc_obs::event("serve.fusion_group", || {
        vec![
            ("point", ctx.point.as_str().into()),
            ("members", fused.into()),
            ("replays_saved", saved.into()),
        ]
    });
}

/// Completes one job: counters, histograms, latency, and the response
/// send.
fn finish_job(
    ctx: &WorkerContext,
    job: Job,
    outcome: Result<EvalOutput, ServeError>,
    cache_hit: bool,
    service_started: Instant,
) {
    if outcome.is_err() {
        ctx.counters.errors.bump();
    }
    ctx.counters.served.bump();
    let latency = job.submitted_at.elapsed();
    let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    ctx.counters.queue_wait.record(micros(
        service_started.saturating_duration_since(job.submitted_at),
    ));
    ctx.counters
        .service
        .record(micros(service_started.elapsed()));
    ctx.latency.record(latency);
    // A gone receiver means the client stopped listening; keep
    // draining so shutdown still completes.
    let _ = ctx.results.send(EvalResponse {
        id: job.id,
        circuit_label: job.request.circuit_label,
        point: ctx.point.clone(),
        outcome,
        cache_hit,
        latency,
    });
}

/// Serves one request compile-once: warm-cache lookup (equality-verified),
/// compile-and-fill on miss, then deterministic per-request seed replay.
fn serve_one(ctx: &WorkerContext, request: &EvalRequest) -> (Result<EvalOutput, ServeError>, bool) {
    let (compiled, cache_hit) = match resolve_compiled(ctx, request) {
        Ok(resolved) => resolved,
        Err(e) => return (Err(e), false),
    };
    let reports = Experiment::with_compiled(compiled)
        .design(request.design)
        .runs(request.runs)
        .base_seed(request.base_seed)
        .reports();
    match reports {
        Ok(reports) => (Ok(EvalOutput { reports }), cache_hit),
        Err(e) => (Err(ServeError::Engine(e)), cache_hit),
    }
}

/// The compile-once half of serving: warm-cache lookup, compile-and-fill
/// on miss, per-request hit/miss accounting.
fn resolve_compiled(
    ctx: &WorkerContext,
    request: &EvalRequest,
) -> Result<(Arc<CompiledCircuit>, bool), ServeError> {
    let key = CompiledCircuit::cache_key(&request.circuit, &ctx.config);
    let cached = ctx
        .cache
        .lock()
        .expect("cache lock not poisoned")
        .get(key, &request.circuit);
    match cached {
        Some(compiled) => {
            ctx.counters.cache_hits.bump();
            Ok((compiled, true))
        }
        None => {
            // Two workers can miss the same circuit concurrently and both
            // compile; the duplicate insert collapses in the cache. That
            // wastes one compilation in a rare race — cheaper than
            // serializing every miss behind a single-flight lock.
            ctx.counters.cache_misses.bump();
            match CompiledCircuit::compile(&request.circuit, &ctx.config) {
                Ok(compiled) => {
                    let compiled = Arc::new(compiled);
                    ctx.cache
                        .lock()
                        .expect("cache lock not poisoned")
                        .insert(key, Arc::clone(&compiled));
                    Ok((compiled, false))
                }
                Err(e) => Err(ServeError::Engine(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::Design;

    /// Fusion saves replays, counted exactly: `JOBS` identical requests
    /// queued before the worker starts leave in one `pop_batch_as`, fuse
    /// into one group, and replay each of their `RUNS` seeds once — yet
    /// every requester still gets the reports direct evaluation gives.
    #[test]
    fn one_batch_of_identical_jobs_replays_each_seed_once() {
        const JOBS: usize = 5;
        const RUNS: usize = 3;
        let system = SystemConfig::paper_two_node_32();
        let circuit = Arc::new(dqc_workloads::qft(16));
        let request = EvalRequest::new("QFT-16", Arc::clone(&circuit), "paper", Design::AdaptBuf)
            .runs(RUNS)
            .base_seed(11);

        let queue = Arc::new(BoundedQueue::new(JOBS));
        for id in 0..JOBS as u64 {
            let job = Job {
                id: RequestId(id),
                request: request.clone(),
                submitted_at: Instant::now(),
                submitted_us: None,
            };
            assert!(queue.try_push(job).is_ok(), "queue holds every job");
        }
        // Closed and full: the worker drains it in one batch, then exits
        // on this thread.
        queue.close();
        let registry = Registry::new();
        let bounds_us = ServeConfig::default().metrics.bucket_bounds_us();
        let counters = Arc::new(ShardCounters::register(&registry, "paper", &bounds_us));
        let (results, responses) = channel();
        worker_loop(WorkerContext {
            queue,
            counters: Arc::clone(&counters),
            cache: Arc::new(Mutex::new(CompileCache::new(1))),
            config: Arc::new(system.clone()),
            point: "paper".to_string(),
            results,
            latency: Arc::new(LatencyWindow::new(JOBS)),
            batch_max: JOBS,
            fusion: true,
            index: 0,
        });

        assert_eq!(counters.dispatches.get(), 1, "one pop took the batch");
        assert_eq!(counters.fused_requests.get(), JOBS as u64);
        assert_eq!(
            counters.fused_replays_saved.get(),
            ((JOBS - 1) * RUNS) as u64,
            "only the first job replays its seeds"
        );
        let direct = Experiment::new(&circuit, &system)
            .unwrap()
            .design(Design::AdaptBuf)
            .runs(RUNS)
            .base_seed(11)
            .reports()
            .unwrap();
        let served: Vec<EvalResponse> = responses.iter().collect();
        assert_eq!(served.len(), JOBS);
        for response in served {
            let output = response.outcome.expect("fused job succeeds");
            assert_eq!(output.reports, direct, "request {:?}", response.id);
        }
    }
}
