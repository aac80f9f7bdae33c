//! The serving layer: stream a mixed workload through a sharded,
//! compile-once evaluation service.
//!
//! ```sh
//! cargo run --release --example serve
//! ```
//!
//! Spawns a [`dqc::Server`] with two hardware points (the paper's
//! two-node 32- and 64-qubit machines), submits a mixed QAOA/QFT/GHZ
//! request stream against both, and prints the per-request results and
//! latencies as they complete, followed by the server's counters —
//! cache amortization and admission — and each shard's slice of them
//! from the metrics registry. Finally it overfills a deliberately tiny queue
//! to show the typed `Overloaded` backpressure signal.

use dqc::workloads::{ghz_chain, qft, PaperBenchmark};
use dqc::{Design, EvalRequest, ServeBuilder, ServeError, SystemConfig};
use std::sync::mpsc::channel;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = ServeBuilder::new()
        .hardware_point("paper-32", SystemConfig::paper_two_node_32())
        .hardware_point("paper-64", SystemConfig::paper_two_node_64())
        .workers_per_shard(2)
        .queue_capacity(64)
        .cache_capacity(16)
        .spawn()?;

    // A mixed request stream: three circuits, both hardware points,
    // several seeds each. The circuits travel behind `Arc`s — submitting
    // one a thousand times would copy nothing. Each request carries its
    // reply; here every reply forwards its response into one channel.
    let (tx, responses) = channel();
    let workload = [
        ("QAOA-r4-32", Arc::new(PaperBenchmark::QaoaR4_32.circuit())),
        ("QFT-32", Arc::new(qft(32))),
        ("GHZ-32", Arc::new(ghz_chain(32))),
    ];
    let mut submitted = 0;
    for (label, circuit) in &workload {
        for point in ["paper-32", "paper-64"] {
            for seed in 0..3 {
                let tx = tx.clone();
                server.submit(
                    EvalRequest::new(*label, Arc::clone(circuit), point, Design::AdaptBuf)
                        .runs(5)
                        .base_seed(seed * 1000),
                    move |response| drop(tx.send(response)),
                )?;
                submitted += 1;
            }
        }
    }

    println!("submitted {submitted} requests; responses in completion order:\n");
    for done in 1..=submitted {
        let response = responses.recv()?;
        let output = response.outcome?;
        let avg = output.averaged();
        println!(
            "  {done:>2}. {:<10} on {:<8} {} depth {:>7.1} ({:>5.2}x ideal)  fidelity {:.4}  [{:.2} ms]",
            response.circuit_label,
            response.point,
            if response.cache_hit { "warm" } else { "cold" },
            avg.mean_depth,
            avg.mean_depth_relative,
            avg.mean_fidelity,
            response.latency.as_secs_f64() * 1e3,
        );
    }

    let stats = server.stats();
    println!(
        "\nserved {} requests: {} cache hits / {} misses, {} errors",
        stats.served, stats.cache_hits, stats.cache_misses, stats.errors,
    );
    // The same counters per shard, as the daemon's `metrics` frame
    // carries them.
    let metrics = server.metrics();
    for point in server.points() {
        let counter = |name: &str| {
            metrics
                .counter(&format!("{name}{{point={point}}}"))
                .unwrap_or(0)
        };
        println!(
            "  shard {point:<8} served {}  cache misses {}",
            counter("serve.served"),
            counter("serve.cache_misses"),
        );
    }
    server.shutdown();

    // Admission control: a queue of 2 with no workers fills after two
    // requests; the third is refused with a typed backpressure error
    // instead of queueing unboundedly.
    let tiny = ServeBuilder::new()
        .hardware_point("tiny", SystemConfig::paper_two_node_32())
        .workers_per_shard(0)
        .queue_capacity(2)
        .spawn()?;
    let bell = Arc::new(ghz_chain(2));
    let request = EvalRequest::new("bell", bell, "tiny", Design::AdaptBuf);
    tiny.submit(request.clone(), drop)?;
    tiny.submit(request.clone(), drop)?;
    match tiny.submit(request, drop) {
        Err(ServeError::Overloaded { point, capacity }) => {
            println!("\nbackpressure: shard `{point}` refused request (queue capacity {capacity})");
        }
        other => println!("\nunexpected admission outcome: {other:?}"),
    }
    Ok(())
}
