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
//!   registered hardware point ([`SystemConfig`](dqc_core::SystemConfig)).
//! * **[`EvalRequest`] / [`EvalResponse`]** — the request stream in, the
//!   result stream out (an `mpsc` channel; responses arrive in
//!   completion order, matched by [`RequestId`]).
//! * **Warm compile caches** — each shard holds an LRU-bounded cache of
//!   [`CompiledCircuit`](dqc_core::CompiledCircuit)s keyed by stable
//!   circuit × configuration fingerprints, so a circuit seen twice never
//!   compiles twice (hits are equality-verified, so a fingerprint
//!   collision degrades to a miss, never to a wrong answer).
//! * **Batching and replay fusion** — workers drain their shard queue in
//!   batches of up to eight, coalescing same-shard requests into one
//!   dispatch; batch-mates that share a compilation and design replay
//!   each distinct seed once.
//! * **Admission control** — shard queues are bounded
//!   ([`ServeBuilder::queue_capacity`]); a full queue refuses the
//!   request with the typed [`ServeError::Overloaded`] backpressure
//!   signal instead of letting latency grow without bound. Every
//!   *server-owned* structure is bounded (queues, caches, the latency
//!   window); the result channel is the one deliberate exception — it is
//!   unbounded and owned by the client, whose job is to drain it. A
//!   client that submits without ever receiving accumulates its own
//!   responses.
//! * **[`ServeStats`]** — a JSON-serializable snapshot: requests
//!   served/rejected, cache hits/misses, per-shard queue depth, p50/p99
//!   latency, and throughput.
//!
//! Determinism survives concurrency: each request carries its own seed
//! range and replays through the same [`Experiment`](dqc_core::Experiment)
//! engine as a direct evaluation, so the response for a given request is
//! byte-identical no matter the worker count, batch boundaries, fusion
//! grouping, or submission order (`tests/serve_determinism.rs` pins
//! this).
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
//! let (server, responses) = ServeBuilder::new()
//!     .hardware_point("paper", SystemConfig::paper_two_node_32())
//!     .workers_per_shard(1) // exact hit/miss counts below need one worker
//!     .spawn()?;
//!
//! let qaoa = Arc::new(PaperBenchmark::QaoaR4_32.circuit());
//! let tlim = Arc::new(PaperBenchmark::Tlim32.circuit());
//! for (label, circuit) in [("QAOA-r4-32", &qaoa), ("TLIM-32", &tlim)] {
//!     for seed in 0..3 {
//!         server.submit(
//!             EvalRequest::new(label, Arc::clone(circuit), "paper", Design::AdaptBuf)
//!                 .runs(2)
//!                 .base_seed(seed),
//!         )?;
//!     }
//! }
//! let mut ok = 0;
//! for _ in 0..6 {
//!     let response = responses.recv().expect("stream stays open");
//!     ok += usize::from(response.outcome.is_ok());
//! }
//! assert_eq!(ok, 6);
//!
//! let stats = server.shutdown().serve;
//! assert_eq!(stats.served, 6);
//! assert_eq!(stats.cache_misses, 2, "two distinct circuits");
//! assert_eq!(stats.cache_hits, 4, "everything else was warm");
//! # Ok(())
//! # }
//! ```
//!
//! Every knob — worker count, queue and cache sizes, autoscaling on or
//! off, per-client quotas — lives in one typed, JSON-round-tripping
//! [`ServeConfig`] shared with the network daemon; the builder setters
//! above are shims over its fields. Settings that could only change
//! speed, never an answer (the batch bound, the autoscale policy, the
//! telemetry window), are constants, and fusion is always on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod cache;
mod config;
mod error;
mod queue;
mod request;
mod server;
mod stats;

pub use config::{QuotaConfig, RateLimit, ServeConfig};
pub use error::ServeError;
pub use request::{EvalOutput, EvalRequest, EvalResponse, RequestId};
pub use server::{ServeBuilder, Server};
pub use stats::{LatencySummary, ServeStats, ShardSnapshot, ShutdownReport, WorkerPlacement};

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::{Design, DqcError, SystemConfig};
    use dqc_workloads::{qft, PaperBenchmark};
    use std::sync::Arc;

    fn paper_server() -> (Server, std::sync::mpsc::Receiver<EvalResponse>) {
        ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .spawn()
            .unwrap()
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
        let (server, _rx) = paper_server();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        let err = server
            .submit(EvalRequest::new(
                "t",
                Arc::clone(&circuit),
                "warp",
                Design::AdaptBuf,
            ))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownPoint {
                point: "warp".to_string()
            }
        );
        let err = server
            .submit(EvalRequest::new("t", circuit, "paper", Design::AdaptBuf).runs(0))
            .unwrap_err();
        assert_eq!(err, ServeError::Engine(DqcError::ZeroRuns));
    }

    #[test]
    fn overload_is_deterministic_in_accept_only_mode() {
        // Zero workers: nothing drains, so the third submission must hit
        // the 2-deep queue's admission bound — no timing involved.
        let (server, _rx) = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(0)
            .queue_capacity(2)
            .spawn()
            .unwrap();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        let request = EvalRequest::new("t", circuit, "paper", Design::AdaptBuf);
        server.submit(request.clone()).unwrap();
        server.submit(request.clone()).unwrap();
        let err = server.submit(request.clone()).unwrap_err();
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
        assert_eq!(stats.shards[0].queue_depth, 2);
    }

    #[test]
    fn engine_errors_arrive_as_responses_not_panics() {
        let (server, rx) = paper_server();
        // 64 qubits cannot fit the paper's 32-data-qubit system.
        let too_wide = Arc::new(qft(64));
        let id = server
            .submit(EvalRequest::new(
                "qft64",
                too_wide,
                "paper",
                Design::AdaptBuf,
            ))
            .unwrap();
        let response = rx.recv().unwrap();
        assert_eq!(response.id, id);
        assert!(matches!(
            response.outcome,
            Err(ServeError::Engine(DqcError::CircuitTooWide { .. }))
        ));
        let stats = server.shutdown().serve;
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn responses_match_direct_evaluation() {
        let (server, rx) = paper_server();
        let circuit = Arc::new(PaperBenchmark::QaoaR4_32.circuit());
        let id = server
            .submit(
                EvalRequest::new("qaoa", Arc::clone(&circuit), "paper", Design::AsyncBuf)
                    .runs(3)
                    .base_seed(7),
            )
            .unwrap();
        let response = rx.recv().unwrap();
        assert_eq!(response.id, id);
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
        let (server, rx) = ServeBuilder::new()
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
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for point in ["small", "large", "small", "large"] {
            server
                .submit(EvalRequest::new(
                    "t",
                    Arc::clone(&circuit),
                    point,
                    Design::AdaptBuf,
                ))
                .unwrap();
        }
        let mut points: Vec<String> = (0..4).map(|_| rx.recv().unwrap().point).collect();
        points.sort();
        assert_eq!(points, vec!["large", "large", "small", "small"]);
        let stats = server.shutdown().serve;
        // One compilation per shard: the same circuit is a different
        // hardware point (and cache key) on each.
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 2);
        for shard in &stats.shards {
            assert_eq!(shard.cache_misses, 1, "{}", shard.point);
            assert_eq!(shard.cached_circuits, 1, "{}", shard.point);
        }
    }

    #[test]
    fn stats_snapshot_counts_and_serializes() {
        let (server, rx) = paper_server();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for seed in 0..5 {
            server
                .submit(
                    EvalRequest::new("t", Arc::clone(&circuit), "paper", Design::AdaptBuf)
                        .base_seed(seed),
                )
                .unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        let stats = server.shutdown().serve;
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 5);
        assert!(stats.dispatches >= 1);
        assert_eq!(stats.latency.samples, 5);
        assert!(stats.latency.p99_ms >= stats.latency.p50_ms);
        assert!(stats.throughput_rps > 0.0);
        // The snapshot round-trips through the JSON pipeline.
        let back = ServeStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let (server, rx) = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(1)
            .spawn()
            .unwrap();
        let circuit = Arc::new(PaperBenchmark::Tlim32.circuit());
        for seed in 0..8 {
            server
                .submit(
                    EvalRequest::new("t", Arc::clone(&circuit), "paper", Design::AdaptBuf)
                        .base_seed(seed),
                )
                .unwrap();
        }
        let stats = server.shutdown().serve;
        assert_eq!(stats.served, 8, "accepted work completes before exit");
        assert_eq!(rx.iter().count(), 8, "…and every response was streamed");
    }
}
