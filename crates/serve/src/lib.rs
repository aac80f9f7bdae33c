//! `dqc-serve` — the sharded, compile-once serving layer over the
//! evaluation engine.
//!
//! The grid engine in `dqc-core` answers *closed-world* questions: a
//! sweep knows its whole workload up front. A production service does
//! not — it faces an **open-ended stream** of independent evaluation
//! requests and must amortize compilation across whatever arrives, keep
//! latency bounded under load, and report what it is doing. This crate
//! is that machine, built from `std` threads and channels only:
//!
//! * **[`Server`]** — a long-lived service holding one *shard* per
//!   registered hardware point ([`SystemConfig`](dqc_core::SystemConfig)),
//!   each with exactly [`ServeBuilder::workers_per_shard`] worker threads.
//! * **[`EvalRequest`] / [`EvalResponse`]** — each request is submitted
//!   with its reply, and the worker that serves it calls the reply once
//!   with the response, in completion order.
//! * **Warm compile caches** — each shard holds an LRU-bounded cache of
//!   [`CompiledCircuit`](dqc_core::CompiledCircuit)s. A shard serves one
//!   hardware point, so a lookup finds the entry whose circuit is
//!   structurally equal (`==`) to the request's, and a circuit seen
//!   twice never compiles twice.
//! * **One-job dispatch** — a worker pops one request at a time and
//!   replays its seeds in order, so no request waits behind another's
//!   cold compile while a sibling worker is free.
//! * **Admission control** — shard queues are bounded
//!   ([`ServeBuilder::queue_capacity`]); a full queue refuses the
//!   request with the typed [`ServeError::Overloaded`] backpressure
//!   signal instead of letting latency grow without bound. Every
//!   server-owned structure is bounded (queues, caches); where a reply
//!   sends its response is up to the caller.
//! * **Metrics** — one registry per server holds every counter and the
//!   queue-wait and service-time histograms, per shard
//!   ([`Server::metrics`]). [`ServeStats`] sums the seven counters over
//!   the shards; each request's latency rides on its [`EvalResponse`].
//!
//! Determinism survives concurrency: each request carries its own seed
//! range and replays through the same [`Experiment`](dqc_core::Experiment)
//! engine as a direct evaluation, so the response for a given request is
//! byte-identical no matter the worker count or submission order
//! (`tests/serve_determinism.rs` pins this).
//!
//! # Examples
//!
//! Serve a small mixed workload against the paper's machine:
//!
//! ```
//! use dqc_core::{Design, SystemConfig};
//! use dqc_serve::{EvalRequest, ServeBuilder};
//! use dqc_workloads::PaperBenchmark;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), dqc_serve::ServeError> {
//! let server = ServeBuilder::new()
//!     .hardware_point("paper", SystemConfig::paper_two_node_32())
//!     .workers_per_shard(1) // exact hit/miss counts below need one worker
//!     .spawn()?;
//!
//! let (tx, responses) = std::sync::mpsc::channel();
//! let qaoa = Arc::new(PaperBenchmark::QaoaR4_32.circuit());
//! let tlim = Arc::new(PaperBenchmark::Tlim32.circuit());
//! for (label, circuit) in [("QAOA-r4-32", &qaoa), ("TLIM-32", &tlim)] {
//!     for seed in 0..3 {
//!         let tx = tx.clone();
//!         server.submit(
//!             EvalRequest::new(label, Arc::clone(circuit), "paper", Design::AdaptBuf)
//!                 .runs(2)
//!                 .base_seed(seed),
//!             move |response| drop(tx.send(response)),
//!         )?;
//!     }
//! }
//! drop(tx);
//! let ok = responses.iter().filter(|r| r.outcome.is_ok()).count();
//! assert_eq!(ok, 6);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.served, 6);
//! assert_eq!(stats.cache_misses, 2, "two distinct circuits");
//! assert_eq!(stats.cache_hits, 4, "everything else was warm");
//! # Ok(())
//! # }
//! ```
//!
//! Every knob — worker count, queue and cache sizes, per-client quotas —
//! lives in one typed, JSON-round-tripping [`ServeConfig`] shared with
//! the network daemon; the builder setters above are shims over its
//! fields. The histogram ladder, which could never change an answer, is
//! a constant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod error;
mod queue;
mod request;
mod server;
mod stats;

pub use config::{QuotaConfig, RateLimit, ServeConfig};
pub use error::ServeError;
pub use request::{EvalOutput, EvalRequest, EvalResponse};
pub use server::{ServeBuilder, Server};
pub use stats::ServeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::{Design, DqcError, SystemConfig};
    use dqc_obs::MetricsSnapshot;
    use dqc_workloads::{qft, PaperBenchmark};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Arc;

    fn paper_server() -> Server {
        ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .spawn()
            .unwrap()
    }

    /// A reply that forwards the response into `tx`.
    fn to(tx: &Sender<EvalResponse>) -> impl FnOnce(EvalResponse) + Send + 'static {
        let tx = tx.clone();
        move |response| drop(tx.send(response))
    }

    #[test]
    fn spawn_rejects_empty_and_duplicate_points() {
        assert_eq!(
            ServeBuilder::new().spawn().unwrap_err(),
            ServeError::NoHardwarePoints
        );
        let err = ServeBuilder::new()
            .hardware_point("p", SystemConfig::paper_two_node_32())
            .hardware_point("p", SystemConfig::paper_two_node_64())
            .spawn()
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::DuplicatePoint {
                point: "p".to_string()
            }
        );
    }

    #[test]
    fn submit_rejects_unknown_points_and_zero_runs() {
        let server = paper_server();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        let err = server
            .submit(
                EvalRequest::new("t", Arc::clone(&circuit), "warp", Design::AdaptBuf),
                drop,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownPoint {
                point: "warp".to_string()
            }
        );
        let err = server
            .submit(
                EvalRequest::new("t", circuit, "paper", Design::AdaptBuf).runs(0),
                drop,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::Engine(DqcError::ZeroRuns));
    }

    #[test]
    fn overload_is_deterministic_in_accept_only_mode() {
        // Zero workers: nothing drains, so the third submission must hit
        // the 2-deep queue's admission bound — no timing involved.
        let server = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(0)
            .queue_capacity(2)
            .spawn()
            .unwrap();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        let request = EvalRequest::new("t", circuit, "paper", Design::AdaptBuf);
        server.submit(request.clone(), drop).unwrap();
        server.submit(request.clone(), drop).unwrap();
        let err = server.submit(request.clone(), drop).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                point: "paper".to_string(),
                capacity: 2
            }
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn engine_errors_arrive_as_responses_not_panics() {
        let server = paper_server();
        let (tx, rx) = channel();
        // 64 qubits cannot fit the paper's 32-data-qubit system.
        let too_wide = Arc::new(qft(64));
        server
            .submit(
                EvalRequest::new("qft64", too_wide, "paper", Design::AdaptBuf),
                to(&tx),
            )
            .unwrap();
        let response = rx.recv().unwrap();
        assert_eq!(response.circuit_label, "qft64");
        assert!(matches!(
            response.outcome,
            Err(ServeError::Engine(DqcError::CircuitTooWide { .. }))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn responses_match_direct_evaluation() {
        let server = paper_server();
        let (tx, rx) = channel();
        let circuit = Arc::new(PaperBenchmark::QaoaR4_32.circuit());
        server
            .submit(
                EvalRequest::new("qaoa", Arc::clone(&circuit), "paper", Design::AsyncBuf)
                    .runs(3)
                    .base_seed(7),
                to(&tx),
            )
            .unwrap();
        let response = rx.recv().unwrap();
        assert_eq!(response.circuit_label, "qaoa");
        let output = response.outcome.unwrap();
        let direct = dqc_core::Experiment::new(&circuit, &SystemConfig::paper_two_node_32())
            .unwrap()
            .design(Design::AsyncBuf)
            .runs(3)
            .base_seed(7)
            .reports()
            .unwrap();
        assert_eq!(output.reports, direct);
        assert_eq!(output.averaged().runs, 3);
        drop(server);
    }

    #[test]
    fn shards_route_by_point_and_cache_independently() {
        let server = ServeBuilder::new()
            .hardware_point("small", SystemConfig::paper_two_node_32())
            .hardware_point("large", SystemConfig::paper_two_node_64())
            // Two same-shard workers can both miss the same circuit
            // concurrently; one worker makes the hit/miss counts exact.
            .workers_per_shard(1)
            .spawn()
            .unwrap();
        assert_eq!(server.points().collect::<Vec<_>>(), vec!["small", "large"]);
        assert_eq!(
            server.point_config("large").unwrap().data_qubits_per_node,
            32
        );
        let (tx, rx) = channel();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for point in ["small", "large", "small", "large"] {
            server
                .submit(
                    EvalRequest::new("t", Arc::clone(&circuit), point, Design::AdaptBuf),
                    to(&tx),
                )
                .unwrap();
        }
        let mut points: Vec<String> = (0..4).map(|_| rx.recv().unwrap().point).collect();
        points.sort();
        assert_eq!(points, vec!["large", "large", "small", "small"]);
        let metrics = server.metrics();
        let stats = server.shutdown();
        // One compilation per shard: the same circuit is a different
        // hardware point (and cache key) on each.
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 2);
        for point in ["small", "large"] {
            let misses = metrics.counter(&format!("serve.cache_misses{{point={point}}}"));
            assert_eq!(misses, Some(1), "{point}");
        }
    }

    #[test]
    fn stats_snapshot_counts_and_serializes() {
        let server = paper_server();
        let (tx, rx) = channel();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for seed in 0..5 {
            server
                .submit(
                    EvalRequest::new("t", Arc::clone(&circuit), "paper", Design::AdaptBuf)
                        .base_seed(seed),
                    to(&tx),
                )
                .unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        // The counters survive the metrics JSON a `metrics` frame
        // carries, and the totals are their sums over the shards.
        let text = server.metrics().to_json().to_compact_string();
        let metrics = MetricsSnapshot::from_json(&dqc_types::Json::parse(&text).unwrap()).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 5);
        assert_eq!(stats.dispatches, stats.served, "one request per dispatch");
        assert_eq!(metrics.counter("serve.served{point=paper}"), Some(5));
        assert_eq!(
            metrics.counter("serve.dispatches{point=paper}"),
            Some(stats.dispatches)
        );
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let server = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(1)
            .spawn()
            .unwrap();
        let (tx, rx) = channel();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for seed in 0..8 {
            server
                .submit(
                    EvalRequest::new("t", Arc::clone(&circuit), "paper", Design::AdaptBuf)
                        .base_seed(seed),
                    to(&tx),
                )
                .unwrap();
        }
        drop(tx);
        let stats = server.shutdown();
        assert_eq!(stats.served, 8, "accepted work completes before exit");
        assert_eq!(rx.iter().count(), 8, "…and every reply was called");
    }
}
