//! The long-lived evaluation service: per-hardware-point shards, worker
//! pools, batched dispatch, bounded admission, and cross-request replay
//! fusion.
//!
//! A [`Server`] is built from a set of named *hardware points* (full
//! [`SystemConfig`]s) plus one [`ServeConfig`]. Each point gets one
//! **shard**: a bounded job queue, exactly
//! [`workers_per_shard`](ServeConfig::workers_per_shard) worker threads,
//! and a warm [`CompiledCircuit`] cache. Submitted [`EvalRequest`]s are
//! routed to their point's shard; workers drain the queue in batches of
//! up to [`BATCH_MAX`] (coalescing same-shard requests into one
//! dispatch), serve each request compile-once out of the shard cache,
//! and stream [`EvalResponse`]s back over the result channel handed out
//! at spawn.
//!
//! **Replay fusion** (always on) rides on the dispatch path: every
//! dispatch is split into groups of requests sharing a compile
//! fingerprint and design, and each group is served as one multi-seed
//! replay — each distinct seed runs once and the per-seed
//! [`ExecutionReport`]s fan back to every requester. A group of one is
//! simply a request served alone, so there is one dispatch path.
//! Byte-identical to direct evaluation by construction, because a
//! compiled circuit's run is a pure function of `(design, seed)`.
//!
//! Determinism: a request's outcome depends only on the request itself
//! (circuit, point, design, runs, base seed) — never on which worker
//! served it, how requests interleaved, batch boundaries, or fusion
//! grouping. Workers replay seeds through the same
//! [`CompiledCircuit::run`] the [`Experiment`] engine uses, so a served
//! request is byte-identical to a direct in-process evaluation.

use crate::cache::CompileCache;
use crate::config::{ServeConfig, BATCH_MAX, LATENCY_WINDOW};
use crate::queue::{BoundedQueue, PushRefused};
use crate::stats::{LatencyWindow, ServeStats, ShardCounters, ShardSnapshot};
use crate::{EvalOutput, EvalRequest, EvalResponse, RequestId, ServeError};
use dqc_core::{CompiledCircuit, DqcError, ExecutionReport, SystemConfig};
use dqc_obs::{MetricsSnapshot, Registry, TraceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
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
/// let stats = server.shutdown();
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
    /// shard, a 64-request queue, a 32-compilation cache, no quotas.
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
        self.config = config;
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
    /// behind [`ServeError::Overloaded`]. `0` is refused at
    /// [`spawn`](ServeBuilder::spawn) (`DQC-E009`).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets each shard's warm-compilation cache capacity (entries). `0`
    /// disables caching — every request recompiles.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Spawns the shards and their worker pools, returning the server
    /// handle and the receiving end of the result channel.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoHardwarePoints`] when no point was registered,
    /// [`ServeError::DuplicatePoint`] when two points share a label, or
    /// [`ServeError::InvalidConfig`] when
    /// [`ServeConfig::validate`] finds an error.
    pub fn spawn(self) -> Result<(Server, Receiver<EvalResponse>), ServeError> {
        self.config.check()?;
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

        let config = self.config;
        let (results, receiver) = channel();
        let registry = Arc::new(Registry::new());
        let latency = Arc::new(LatencyWindow::new(LATENCY_WINDOW));
        let shards: Vec<Shard> = self
            .points
            .into_iter()
            .map(|(point, system)| {
                let system = Arc::new(system);
                let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
                let counters = Arc::new(ShardCounters::register(&registry, &point));
                let cache = Arc::new(Mutex::new(CompileCache::new(config.cache_capacity)));
                let workers = (0..config.workers_per_shard)
                    .map(|_| {
                        let ctx = WorkerContext {
                            queue: Arc::clone(&queue),
                            counters: Arc::clone(&counters),
                            cache: Arc::clone(&cache),
                            config: Arc::clone(&system),
                            point: point.clone(),
                            results: results.clone(),
                            latency: Arc::clone(&latency),
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
/// but hands back the final [`ServeStats`].
#[derive(Debug)]
pub struct Server {
    shards: Vec<Shard>,
    index: HashMap<String, usize>,
    config: ServeConfig,
    next_id: AtomicU64,
    started: Instant,
    latency: Arc<LatencyWindow>,
    registry: Arc<Registry>,
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
    /// fusion activity, latency quantiles, and throughput.
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
            })
            .collect();
        let total = |f: fn(&ShardSnapshot) -> u64| shards.iter().map(f).sum();
        let served: u64 = total(|s| s.served);
        let elapsed = self.started.elapsed();
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
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

    /// Gracefully shuts down: closes every queue (refusing new
    /// submissions), lets the workers drain what was already accepted,
    /// joins them, and returns the final [`ServeStats`].
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
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

/// One worker's lifetime: drain batches until the queue closes empty,
/// serving each batch as its fusion groups.
fn worker_loop(ctx: WorkerContext) {
    while let Some(batch) = ctx.queue.pop_batch(BATCH_MAX) {
        ctx.counters.dispatches.bump();
        let mut dispatch = dqc_obs::span("serve.dispatch");
        if dispatch.enabled() {
            dispatch.attr("point", ctx.point.as_str());
            dispatch.attr("batch", batch.len() as u64);
        }
        for (key, group) in fuse_batch(&ctx, batch) {
            serve_group(&ctx, key, group);
        }
    }
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

/// Splits one dispatch batch into fusion groups, each with its compile
/// cache key: jobs sharing a key **and** design **and** structurally
/// equal circuits (the equality guard demotes a fingerprint collision to
/// separate groups, never to a shared replay). Jobs stay in submission
/// order within and across groups.
fn fuse_batch(ctx: &WorkerContext, batch: Vec<Job>) -> Vec<(u64, Vec<Job>)> {
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
    groups
}

/// Serves one fusion group as a single multi-seed replay: every distinct
/// seed in the group runs once (memoized), and each job assembles its
/// reports from the memo in its own seed order — byte-identical to
/// serving each job alone, because a compiled circuit's run is a pure
/// function of `(design, seed)`. Cache accounting stays per job. A group
/// of one is a request served alone: it memoizes nothing, counts as
/// nothing fused and emits no `serve.fusion_group` event.
fn serve_group(ctx: &WorkerContext, key: u64, group: Vec<Job>) {
    let members = group.len() as u64;
    let mut saved = 0u64;
    let mut memo: HashMap<u64, Result<ExecutionReport, DqcError>> = HashMap::new();
    let mut shared_compiled: Option<Arc<CompiledCircuit>> = None;
    for job in group {
        let service_started = Instant::now();
        let request_span = open_request_span(ctx, &job);
        let (outcome, cache_hit) = match resolve_compiled(ctx, key, &job.request) {
            Err(e) => (Err(e), false),
            Ok((compiled, cache_hit)) => {
                // Replay through the group's first compilation; every
                // member compiles equal (same circuit, same config), so
                // the choice cannot change any report.
                let compiled = shared_compiled.get_or_insert(compiled);
                // The first failing seed aborts the job's replay with that
                // error — the same contract as `Experiment::reports`. A
                // group of one has no sibling to share with, so it skips
                // the memo.
                let reports: Result<Vec<ExecutionReport>, DqcError> = (0..job.request.runs)
                    .map(|i| {
                        let seed = job.request.base_seed.wrapping_add(i as u64);
                        if let Some(result) = memo.get(&seed) {
                            saved += 1;
                            return result.clone();
                        }
                        let result = compiled.run(job.request.design, seed);
                        if members > 1 {
                            memo.insert(seed, result.clone());
                        }
                        result
                    })
                    .collect();
                match reports {
                    Ok(reports) => (Ok(EvalOutput { reports }), cache_hit),
                    Err(e) => (Err(ServeError::Engine(e)), cache_hit),
                }
            }
        };
        finish_job(ctx, job, outcome, cache_hit, service_started);
        drop(request_span);
    }
    if members > 1 {
        ctx.counters.fused_requests.add(members);
        ctx.counters.fused_replays_saved.add(saved);
        dqc_obs::event("serve.fusion_group", || {
            vec![
                ("point", ctx.point.as_str().into()),
                ("members", members.into()),
                ("replays_saved", saved.into()),
            ]
        });
    }
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

/// The compile-once half of serving: warm-cache lookup under the
/// request's cache `key` (equality-verified), compile-and-fill on miss,
/// per-request hit/miss accounting.
fn resolve_compiled(
    ctx: &WorkerContext,
    key: u64,
    request: &EvalRequest,
) -> Result<(Arc<CompiledCircuit>, bool), ServeError> {
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
    use dqc_core::{Design, Experiment};
    use dqc_obs::{AttrValue, RingRecorder, TickClock};

    /// Fusion saves replays, counted exactly: `JOBS` identical requests
    /// queued before the worker starts leave in one `pop_batch`, fuse
    /// into one group, and replay each of their `RUNS` seeds once — yet
    /// every requester still gets the reports direct evaluation gives.
    /// A batch of distinct jobs takes the same path as groups of one,
    /// which count as nothing fused and emit no `serve.fusion_group`.
    #[test]
    fn one_batch_of_identical_jobs_replays_each_seed_once() {
        const JOBS: usize = 5;
        const RUNS: usize = 3;
        let system = SystemConfig::paper_two_node_32();
        let qft16 = Arc::new(dqc_workloads::qft(16));
        let identical: Vec<_> = (0..JOBS).map(|_| Arc::clone(&qft16)).collect();
        let distinct: Vec<_> = (0..JOBS as u32)
            .map(|i| Arc::new(dqc_workloads::qft(8 + 2 * i)))
            .collect();
        // Events carry their shard's point, so a label per case keeps
        // fusion groups from concurrently running tests out of the count.
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let _recording = dqc_obs::install(ring.clone(), Arc::new(TickClock::new()));
        for (point, circuits, fused, saved, groups) in [
            ("identical", identical, JOBS, (JOBS - 1) * RUNS, 1),
            ("distinct", distinct, 0, 0, 0),
        ] {
            let queue = Arc::new(BoundedQueue::new(JOBS));
            for (id, circuit) in (0u64..).zip(&circuits) {
                let job = Job {
                    id: RequestId(id),
                    request: EvalRequest::new("QFT", Arc::clone(circuit), point, Design::AdaptBuf)
                        .runs(RUNS)
                        .base_seed(11),
                    submitted_at: Instant::now(),
                    submitted_us: None,
                };
                assert!(queue.try_push(job).is_ok(), "queue holds every job");
            }
            // Closed and full: the worker drains it in one batch, then
            // exits on this thread.
            queue.close();
            let registry = Registry::new();
            let counters = Arc::new(ShardCounters::register(&registry, point));
            let (results, responses) = channel();
            worker_loop(WorkerContext {
                queue,
                counters: Arc::clone(&counters),
                cache: Arc::new(Mutex::new(CompileCache::new(JOBS))),
                config: Arc::new(system.clone()),
                point: point.to_string(),
                results,
                latency: Arc::new(LatencyWindow::new(JOBS)),
            });

            assert_eq!(counters.dispatches.get(), 1, "{point}: one pop");
            assert_eq!(counters.fused_requests.get(), fused as u64, "{point}");
            assert_eq!(
                counters.fused_replays_saved.get(),
                saved as u64,
                "{point}: only the first of identical jobs replays its seeds"
            );
            let fusion_groups = ring
                .events()
                .iter()
                .filter(|e| {
                    e.name == "serve.fusion_group"
                        && e.attrs
                            .iter()
                            .any(|(k, v)| k == "point" && *v == AttrValue::from(point))
                })
                .count();
            assert_eq!(fusion_groups, groups, "{point}: fusion_group events");
            let served: Vec<EvalResponse> = responses.iter().collect();
            assert_eq!(served.len(), JOBS);
            for response in served {
                let direct = Experiment::new(&circuits[response.id.0 as usize], &system)
                    .unwrap()
                    .design(Design::AdaptBuf)
                    .runs(RUNS)
                    .base_seed(11)
                    .reports()
                    .unwrap();
                let output = response.outcome.expect("job succeeds");
                assert_eq!(output.reports, direct, "{point}: {:?}", response.id);
            }
        }
    }
}
