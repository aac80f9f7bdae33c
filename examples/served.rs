//! The network daemon: serve evaluations over TCP with a QASM front
//! door and per-client quotas.
//!
//! ```sh
//! cargo run --release --example served
//! ```
//!
//! Binds a [`dqc::Served`] daemon on a loopback port, then connects a
//! [`dqc::ServedClient`] and submits the same circuit twice — once as an
//! in-memory circuit, once as OpenQASM 2.0 text, both sent as QASM —
//! showing that both land on one warm compile-cache entry. A second,
//! quota-capped scenario shows a greedy client throttled with a typed
//! `QuotaExceeded` while the daemon's counters keep the ledger.
//!
//! Everything here also works from outside the process: launch
//! `cargo run --release --bin dqc-served` and point any frame-speaking
//! client (such as [`dqc::ServedClient`]) at it.

use dqc::circuit::to_qasm;
use dqc::served::{QuotaScope, Submission, WireError};
use dqc::workloads::qft;
use dqc::{Design, ServedBuilder, ServedClient, SystemConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A daemon on an OS-assigned loopback port: one hardware point, two
    // workers, everything else at serving defaults.
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(2)
        .bind("127.0.0.1:0")?;
    let addr = daemon.local_addr().to_string();
    println!("daemon listening on {addr}");

    let mut client = ServedClient::connect(&addr, "example")?;
    let welcome = client.welcome();
    println!(
        "connected to {} (protocol v{}), points {:?}\n",
        welcome.server, welcome.protocol, welcome.points
    );

    // The same circuit in memory and as QASM text. The client renders
    // the first as QASM too, and the daemon parses both to equal
    // circuits, so the second submission is a cache hit on the entry the
    // first one warmed.
    let circuit = Arc::new(qft(16));
    let structured =
        Submission::structured("qft-16", Arc::clone(&circuit), "paper", Design::AdaptBuf)
            .runs(3)
            .base_seed(7);
    let qasm = Submission::qasm("qft-16", to_qasm(&circuit), "paper", Design::AdaptBuf)
        .runs(3)
        .base_seed(7);
    for submission in [structured, qasm] {
        client.submit(&submission)?;
        let reply = client.recv_reply()?;
        let output = reply.outcome?;
        let avg = output.reports[0].fidelity.value();
        println!(
            "  {:<8} {}  first-seed fidelity {:.4}  [{:.2} ms]",
            output.label,
            if output.cache_hit { "warm" } else { "cold" },
            avg,
            output.latency_ms,
        );
    }

    // Every counter travels in the `metrics` frame, per shard for the
    // serving layer (`serve.*{point=…}`) and daemon-wide (`served.*`).
    let metrics = client.metrics()?;
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    println!(
        "\nserved {} requests, {} cache hits / {} misses, {} connections\n",
        counter("serve.served{point=paper}"),
        counter("serve.cache_hits{point=paper}"),
        counter("serve.cache_misses{point=paper}"),
        counter("served.connections_accepted"),
    );
    client.bye()?;
    daemon.shutdown();

    // Multi-tenant admission: cap each client at 2 in-flight requests
    // on an accept-only daemon, then pile on. The third submission is
    // refused with a typed, retryable quota error naming the client.
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(0)
        .max_in_flight(2)
        .bind("127.0.0.1:0")?;
    let mut greedy = ServedClient::connect(daemon.local_addr().to_string(), "greedy")?;
    let submission = Submission::structured("qft-16", circuit, "paper", Design::AdaptBuf);
    greedy.submit(&submission)?;
    greedy.submit(&submission)?;
    greedy.submit(&submission)?;
    match greedy.recv_reply()?.outcome {
        Err(WireError::QuotaExceeded {
            client,
            scope,
            limit,
        }) => {
            debug_assert_eq!(scope, QuotaScope::InFlight);
            println!("quota: client `{client}` throttled at {limit} in-flight requests");
        }
        other => println!("unexpected admission outcome: {other:?}"),
    }
    drop(greedy);
    let wire = daemon.shutdown().daemon;
    println!("daemon ledger: {} quota rejections", wire.quota_rejected);
    Ok(())
}
