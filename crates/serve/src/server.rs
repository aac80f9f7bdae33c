//! The long-lived evaluation service: per-hardware-point shards, worker
//! pools, one-job dispatch, and bounded admission.
//!
//! A [`Server`] is built from a set of named *hardware points* (full
//! [`SystemConfig`]s) plus one [`ServeConfig`]. Each point gets one
//! **shard**: a bounded job queue, exactly
//! [`workers_per_shard`](ServeConfig::workers_per_shard) worker threads,
//! and a warm [`CompiledCircuit`] cache. Submitted [`EvalRequest`]s are
//! routed to their point's shard; a worker pops one request at a time,
//! serves it compile-once out of the shard cache, replays its seeds in
//! order, and hands its [`EvalResponse`] to the reply it was submitted
//! with. No request waits behind another's cold compile while a sibling
//! worker is free.
//!
//! Determinism: a request's outcome depends only on the request itself
//! (circuit, point, design, runs, base seed) — never on which worker
//! served it or how requests interleaved. Workers replay seeds through
//! the same [`CompiledCircuit::run`] the [`Experiment`] engine uses, so a
//! served request is byte-identical to a direct in-process evaluation.

use crate::cache::CompileCache;
use crate::config::ServeConfig;
use crate::queue::{BoundedQueue, PushRefused};
use crate::stats::{ServeStats, ShardCounters};
use crate::{EvalOutput, EvalRequest, EvalResponse, ServeError};
use dqc_core::{CompiledCircuit, SystemConfig};
use dqc_obs::{MetricsSnapshot, Registry, TraceId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where an accepted request's [`EvalResponse`] goes: called once, by
/// the worker that serves the request.
type Reply = Box<dyn FnOnce(EvalResponse) + Send>;

/// An accepted request travelling through a shard queue.
struct Job {
    request: EvalRequest,
    reply: Reply,
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
}

/// One hardware point's slice of the server.
struct Shard {
    point: String,
    config: Arc<SystemConfig>,
    queue: Arc<BoundedQueue<Job>>,
    counters: Arc<ShardCounters>,
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
/// let server = ServeBuilder::new()
///     .hardware_point("paper", SystemConfig::paper_two_node_32())
///     .workers_per_shard(2)
///     .spawn()?;
///
/// let (tx, responses) = std::sync::mpsc::channel();
/// let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
/// for seed in 0..4 {
///     let tx = tx.clone();
///     server.submit(
///         EvalRequest::new("TLIM-32", Arc::clone(&circuit), "paper", Design::AdaptBuf)
///             .runs(2)
///             .base_seed(seed),
///         move |response| drop(tx.send(response)),
///     )?;
/// }
/// for _ in 0..4 {
///     let response = responses.recv().expect("every request is answered");
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
    /// handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoHardwarePoints`] when no point was registered,
    /// [`ServeError::DuplicatePoint`] when two points share a label, or
    /// [`ServeError::InvalidConfig`] when
    /// [`ServeConfig::validate`] finds an error.
    pub fn spawn(self) -> Result<Server, ServeError> {
        self.config.check()?;
        if self.points.is_empty() {
            return Err(ServeError::NoHardwarePoints);
        }
        let mut index = BTreeMap::new();
        for (i, (label, _)) in self.points.iter().enumerate() {
            if index.insert(label.clone(), i).is_some() {
                return Err(ServeError::DuplicatePoint {
                    point: label.clone(),
                });
            }
        }

        let config = self.config;
        let registry = Arc::new(Registry::new());
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
                        };
                        std::thread::spawn(move || worker_loop(ctx))
                    })
                    .collect();
                Shard {
                    point,
                    config: system,
                    queue,
                    counters,
                    workers,
                }
            })
            .collect();

        Ok(Server {
            shards,
            index,
            config,
            registry,
        })
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
    index: BTreeMap<String, usize>,
    config: ServeConfig,
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

    /// Submits a request to its hardware point's shard, with the reply
    /// that receives its outcome.
    ///
    /// Returns as soon as the request is queued. The worker that serves
    /// it calls `reply` once with the [`EvalResponse`], so replies come
    /// in *completion* order, not submission order. `reply` runs on that
    /// worker's thread, so it should hand the response off quickly and
    /// must not panic. When `submit` refuses the request, `reply` is
    /// dropped uncalled. A caller that wants a stream passes
    /// `move |r| drop(tx.send(r))` over an `mpsc` channel.
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
    pub fn submit(
        &self,
        mut request: EvalRequest,
        reply: impl FnOnce(EvalResponse) + Send + 'static,
    ) -> Result<(), ServeError> {
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
        let job = Job {
            request,
            reply: Box::new(reply),
            submitted_at: Instant::now(),
            submitted_us,
        };
        match shard.queue.try_push(job) {
            Ok(()) => {
                shard.counters.submitted.bump();
                Ok(())
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

    /// The serving counters, each summed over every shard from the
    /// metrics registry.
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_metrics(&self.metrics())
    }

    /// A raw snapshot of the server's metrics registry: the per-shard
    /// counters [`Server::stats`] sums, plus the queue-wait and
    /// service-time histograms. This is what the daemon's `metrics` wire
    /// frame serializes.
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
    /// joins them, and returns the final [`ServeStats`]. With zero
    /// workers nothing drains: the queued requests' replies are dropped
    /// uncalled with the queues.
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

/// One worker's lifetime: serve one job per pop until the queue closes
/// empty.
fn worker_loop(ctx: WorkerContext) {
    while let Some(job) = ctx.queue.pop() {
        ctx.counters.dispatches.bump();
        let mut dispatch = dqc_obs::span("serve.dispatch");
        if dispatch.enabled() {
            dispatch.attr("point", ctx.point.as_str());
        }
        serve_job(&ctx, job);
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

/// Serves one job: resolves its compilation through the warm cache and
/// replays its seeds in order. The first failing seed aborts the replay
/// with that error — the same contract as `Experiment::reports`.
fn serve_job(ctx: &WorkerContext, job: Job) {
    let service_started = Instant::now();
    let request_span = open_request_span(ctx, &job);
    let request = &job.request;
    let (outcome, cache_hit) = match resolve_compiled(ctx, request) {
        Err(e) => (Err(e), false),
        Ok((compiled, cache_hit)) => {
            let reports = (0..request.runs)
                .map(|i| compiled.run(request.design, request.base_seed.wrapping_add(i as u64)))
                .collect::<Result<_, _>>();
            let outcome = reports
                .map(|reports| EvalOutput { reports })
                .map_err(ServeError::Engine);
            (outcome, cache_hit)
        }
    };
    // The span covers serving; the reply runs after it ends.
    drop(request_span);
    finish_job(ctx, job, outcome, cache_hit, service_started);
}

/// Completes one job: counters, histograms, and the reply.
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
    (job.reply)(EvalResponse {
        circuit_label: job.request.circuit_label,
        point: ctx.point.clone(),
        outcome,
        cache_hit,
        latency,
    });
}

/// The compile-once half of serving: warm-cache lookup of the
/// request's circuit, compile-and-fill on miss, per-request hit/miss
/// accounting.
fn resolve_compiled(
    ctx: &WorkerContext,
    request: &EvalRequest,
) -> Result<(Arc<CompiledCircuit>, bool), ServeError> {
    let cached = ctx
        .cache
        .lock()
        .expect("cache lock not poisoned")
        .get(&request.circuit);
    match cached {
        Some(compiled) => {
            ctx.counters.cache_hits.bump();
            Ok((compiled, true))
        }
        None => {
            // Two workers can miss equal circuits concurrently and both
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
                        .insert(Arc::clone(&compiled));
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

    /// The warm cache finds a compilation by the circuit itself: a
    /// second request whose circuit is `==` to the first's but sits in
    /// its own `Arc` reuses the first compilation, and both answer with
    /// the reports direct evaluation gives, byte for byte.
    #[test]
    fn an_equal_circuit_in_another_arc_compiles_once() {
        let system = SystemConfig::paper_two_node_32();
        let direct: Vec<String> = Experiment::new(&dqc_workloads::qft(12), &system)
            .unwrap()
            .design(Design::AdaptBuf)
            .runs(3)
            .base_seed(7)
            .reports()
            .unwrap()
            .iter()
            .map(|r| r.to_json().to_compact_string())
            .collect();
        let server = ServeBuilder::new()
            .hardware_point("paper", system)
            .workers_per_shard(1)
            .spawn()
            .unwrap();
        let mut cache_hits = Vec::new();
        for _ in 0..2 {
            let circuit = Arc::new(dqc_workloads::qft(12));
            let request = EvalRequest::new("QFT", circuit, "paper", Design::AdaptBuf)
                .runs(3)
                .base_seed(7);
            let (tx, rx) = std::sync::mpsc::channel();
            server.submit(request, move |r| drop(tx.send(r))).unwrap();
            let response = rx.recv().expect("the request is served");
            cache_hits.push(response.cache_hit);
            let served: Vec<String> = response
                .outcome
                .expect("the request succeeds")
                .reports
                .iter()
                .map(|r| r.to_json().to_compact_string())
                .collect();
            assert_eq!(served, direct);
        }
        assert_eq!(cache_hits, [false, true]);
        let stats = server.shutdown();
        assert_eq!(
            (stats.cache_misses, stats.cache_hits),
            (1, 1),
            "one compile"
        );
    }

    /// One pop takes one job: a closed queue of `JOBS` jobs, exact
    /// duplicates beside distinct circuits, drains on one worker in
    /// `JOBS` dispatches, and every reply equals direct evaluation.
    #[test]
    fn a_closed_queue_of_n_jobs_takes_n_dispatches() {
        const RUNS: usize = 3;
        let system = SystemConfig::paper_two_node_32();
        let qft16 = Arc::new(dqc_workloads::qft(16));
        let circuits: Vec<Arc<dqc_circuit::Circuit>> = vec![
            Arc::clone(&qft16),
            Arc::new(dqc_workloads::qft(8)),
            Arc::clone(&qft16),
            Arc::new(dqc_workloads::qft(16)),
            Arc::new(dqc_workloads::ghz_chain(12)),
            Arc::clone(&qft16),
        ];
        let jobs = circuits.len();
        let queue = Arc::new(BoundedQueue::new(jobs));
        let (results, responses) = std::sync::mpsc::channel();
        for (index, circuit) in circuits.iter().enumerate() {
            let results = results.clone();
            let job = Job {
                request: EvalRequest::new("job", Arc::clone(circuit), "paper", Design::AdaptBuf)
                    .runs(RUNS)
                    .base_seed(11),
                reply: Box::new(move |response| drop(results.send((index, response)))),
                submitted_at: Instant::now(),
                submitted_us: None,
            };
            assert!(queue.try_push(job).is_ok(), "queue holds every job");
        }
        drop(results);
        // Closed and full: the worker drains it, then exits on this thread.
        queue.close();
        let registry = Registry::new();
        let counters = Arc::new(ShardCounters::register(&registry, "paper"));
        worker_loop(WorkerContext {
            queue,
            counters: Arc::clone(&counters),
            cache: Arc::new(Mutex::new(CompileCache::new(jobs))),
            config: Arc::new(system.clone()),
            point: "paper".to_string(),
        });

        assert_eq!(counters.dispatches.get(), jobs as u64, "one pop per job");
        assert_eq!(counters.served.get(), counters.dispatches.get());
        assert_eq!(
            (counters.cache_misses.get(), counters.cache_hits.get()),
            (3, 3),
            "three distinct circuits compile once each"
        );
        let served: Vec<(usize, EvalResponse)> = responses.iter().collect();
        let order: Vec<usize> = served.iter().map(|(index, _)| *index).collect();
        assert_eq!(
            order,
            (0..jobs).collect::<Vec<_>>(),
            "one worker replies in FIFO order"
        );
        for (index, response) in served {
            let direct = Experiment::new(&circuits[index], &system)
                .unwrap()
                .design(Design::AdaptBuf)
                .runs(RUNS)
                .base_seed(11)
                .reports()
                .unwrap();
            let output = response.outcome.expect("job succeeds");
            assert_eq!(output.reports, direct, "job {index}");
        }
    }
}
