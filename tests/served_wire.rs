//! Wire-level contracts of the `dqc-served` daemon: crossing the TCP
//! frame protocol never changes results (byte-identical per-seed reports
//! versus direct in-process evaluation, from concurrent connections, via
//! both circuit travel formats), per-client quotas throttle a greedy
//! client without touching a polite one, malformed QASM is refused with
//! its 1-based source line intact, and a full shard queue surfaces as a
//! typed retryable `Overloaded` — all on loopback sockets the tests own.

use dqc::served::{QuotaScope, ServedBuilder, Submission, WireError, WireOutput};
use dqc::{Design, EvalRequest, Experiment, ServedClient, SystemConfig};
use std::collections::HashMap;

/// The shared request list: every portfolio circuit, alternating
/// designs, distinct seeds.
fn wire_requests() -> Vec<EvalRequest> {
    dqc_bench::portfolio_requests(
        dqc_bench::serve_portfolio().len(),
        2,
        4242,
        "paper",
        &[Design::AdaptBuf, Design::AsyncBuf],
    )
}

/// Ground truth: the same requests evaluated directly by the engine.
fn direct_report_json(requests: &[EvalRequest]) -> Vec<Vec<String>> {
    let config = SystemConfig::paper_two_node_32();
    requests
        .iter()
        .map(|request| {
            Experiment::new(&request.circuit, &config)
                .expect("portfolio circuits compile")
                .design(request.design)
                .runs(request.runs)
                .base_seed(request.base_seed)
                .reports()
                .expect("direct evaluation succeeds")
                .iter()
                .map(|report| report.to_json().to_compact_string())
                .collect()
        })
        .collect()
}

/// Pipelines every request over one connection (structured JSON or QASM
/// text) and returns the outputs in request order.
fn drive(addr: &str, client_id: &str, requests: &[EvalRequest], as_qasm: bool) -> Vec<WireOutput> {
    let mut client = ServedClient::connect(addr, client_id).expect("client connects");
    let mut tags = Vec::new();
    for request in requests {
        let submission = if as_qasm {
            Submission::qasm(
                request.circuit_label.clone(),
                dqc::circuit::to_qasm(&request.circuit),
                request.point.clone(),
                request.design,
            )
            .runs(request.runs)
            .base_seed(request.base_seed)
        } else {
            Submission::from_request(request)
        };
        tags.push(client.submit(&submission).expect("submit succeeds"));
    }
    let mut by_tag = HashMap::new();
    for _ in 0..requests.len() {
        let reply = client.recv_reply().expect("reply arrives");
        let output = reply.outcome.expect("request is admitted and succeeds");
        by_tag.insert(reply.tag, output);
    }
    client.bye().expect("clean goodbye");
    tags.into_iter()
        .map(|tag| {
            by_tag
                .remove(&tag)
                .expect("every tag answered exactly once")
        })
        .collect()
}

/// The headline contract: two concurrent connections — one speaking
/// structured JSON, one speaking OpenQASM text — both receive per-seed
/// reports byte-identical to direct in-process evaluation.
#[test]
fn wire_results_are_byte_identical_from_concurrent_connections() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(2)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let addr = daemon.local_addr().to_string();
    let requests = wire_requests();
    let expected = direct_report_json(&requests);

    let (json_outputs, qasm_outputs) = std::thread::scope(|scope| {
        let json = scope.spawn(|| drive(&addr, "json-client", &requests, false));
        let qasm = scope.spawn(|| drive(&addr, "qasm-client", &requests, true));
        (
            json.join().expect("json client"),
            qasm.join().expect("qasm client"),
        )
    });

    for (which, outputs) in [("json", &json_outputs), ("qasm", &qasm_outputs)] {
        for ((request, output), expected) in requests.iter().zip(outputs).zip(&expected) {
            let got: Vec<String> = output
                .reports
                .iter()
                .map(|report| report.to_json().to_compact_string())
                .collect();
            assert_eq!(
                &got, expected,
                "{which} path altered reports for {}",
                request.circuit_label,
            );
            assert_eq!(output.label, request.circuit_label);
            assert_eq!(output.point, "paper");
        }
    }

    let report = daemon.shutdown();
    let (serve, wire) = (report.serve, report.daemon);
    assert_eq!(serve.served, 2 * requests.len() as u64);
    assert_eq!(serve.errors, 0);
    assert_eq!(wire.connections_accepted, 2);
    assert_eq!(wire.quota_rejected, 0);
    assert_eq!(wire.bad_requests, 0);
    assert_eq!(wire.protocol_errors, 0);
}

/// The protocol v3 observability surface, scraped from a live daemon:
/// the `metrics` frame carries both layers' registered metrics (the
/// serving layer's per-shard `serve.*` family and the daemon's
/// `served.*` connection counters), two scrapes bracketing real traffic
/// are monotone on every counter, each result echoes a distinct
/// `trace_id`, and the final scrape's totals match the shutdown report.
#[test]
fn metrics_frames_are_monotone_and_match_shutdown_totals() {
    use dqc::obs::MetricValue;

    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(2)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let addr = daemon.local_addr().to_string();
    let requests = wire_requests();

    let mut client = ServedClient::connect(addr.as_str(), "scraper").expect("client connects");
    let first = client.metrics().expect("first metrics scrape");
    for name in [
        "served.connections_accepted",
        "served.connections_closed",
        "served.quota_rejected",
        "served.bad_requests",
        "served.protocol_errors",
        "serve.submitted{point=paper}",
        "serve.served{point=paper}",
        "serve.rejected{point=paper}",
        "serve.errors{point=paper}",
        "serve.cache_hits{point=paper}",
        "serve.cache_misses{point=paper}",
        "serve.dispatches{point=paper}",
        "serve.fused_requests{point=paper}",
        "serve.fused_replays_saved{point=paper}",
    ] {
        assert!(
            first.counter(name).is_some(),
            "`{name}` missing from the metrics frame"
        );
    }
    assert!(
        matches!(
            first.get("serve.workers{point=paper}"),
            Some(MetricValue::Gauge(_))
        ),
        "worker gauge missing"
    );
    for name in [
        "serve.queue_wait_us{point=paper}",
        "serve.service_us{point=paper}",
    ] {
        assert!(
            matches!(first.get(name), Some(MetricValue::Histogram(_))),
            "`{name}` histogram missing"
        );
    }

    let mut tags = Vec::new();
    for request in &requests {
        tags.push(
            client
                .submit(&Submission::from_request(request))
                .expect("submit succeeds"),
        );
    }
    let mut traces = Vec::new();
    for _ in 0..requests.len() {
        let reply = client.recv_reply().expect("reply arrives");
        let output = reply.outcome.expect("request succeeds");
        traces.push(output.trace_id.expect("v3 results carry a trace id"));
    }
    let mut unique = traces.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), traces.len(), "trace ids are distinct");

    let second = client.metrics().expect("second metrics scrape");
    for entry in &first.entries {
        if let MetricValue::Counter(before) = entry.value {
            let after = second
                .counter(&entry.name)
                .expect("registered counters never disappear");
            assert!(
                after >= before,
                "`{}` went backwards across scrapes: {before} -> {after}",
                entry.name
            );
        }
    }
    let served = requests.len() as u64;
    assert_eq!(second.counter("serve.served{point=paper}"), Some(served));
    match second.get("serve.service_us{point=paper}") {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, served, "service histogram saw every request");
        }
        other => panic!("expected a service histogram, got {other:?}"),
    }

    client.bye().expect("clean goodbye");
    let report = daemon.shutdown();
    assert_eq!(
        second.counter("serve.served{point=paper}"),
        Some(report.serve.served),
        "metrics frame total matches the shutdown report"
    );
    assert_eq!(
        second.counter("served.connections_accepted"),
        Some(report.daemon.connections_accepted),
    );
    assert_eq!(
        second.counter("serve.cache_hits{point=paper}"),
        Some(report.serve.cache_hits),
    );
    assert_eq!(
        second.counter("serve.cache_misses{point=paper}"),
        Some(report.serve.cache_misses),
    );
}

/// Multi-tenant admission: with a per-client in-flight cap of 2 on an
/// accept-only daemon (no workers, so nothing ever completes), a greedy
/// client's pile-on is refused with typed `QuotaExceeded` while a second
/// client's requests are all admitted untouched.
#[test]
fn greedy_client_is_throttled_while_polite_client_is_admitted() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(0)
        .queue_capacity(16)
        .max_in_flight(2)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let addr = daemon.local_addr().to_string();
    let requests = wire_requests();

    let mut greedy = ServedClient::connect(&addr, "greedy").expect("greedy connects");
    assert_eq!(greedy.welcome().max_in_flight, Some(2));
    for request in requests.iter().take(5) {
        greedy
            .submit(&Submission::from_request(request))
            .expect("submit");
    }
    // The two admitted requests sit in the queue forever; the three over
    // quota are refused immediately, each with the client's identity,
    // the tripped scope, and the configured limit.
    for _ in 0..3 {
        let reply = greedy.recv_reply().expect("refusal arrives");
        let error = reply.outcome.expect_err("over-quota submit is refused");
        assert!(error.is_backpressure(), "quota refusals are retryable");
        match error {
            WireError::QuotaExceeded {
                client,
                scope,
                limit,
            } => {
                assert_eq!(client, "greedy");
                assert_eq!(scope, QuotaScope::InFlight);
                assert_eq!(limit, 2.0);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
    }

    let mut polite = ServedClient::connect(&addr, "polite").expect("polite connects");
    for request in requests.iter().take(2) {
        polite
            .submit(&Submission::from_request(request))
            .expect("submit");
    }
    // Quotas are per-client: the polite client's submissions are both
    // admitted even though the greedy client is pinned at its cap.
    let (serve, wire) = polite.stats().expect("stats round trip");
    assert_eq!(serve.submitted, 4, "2 greedy + 2 polite admitted");
    assert_eq!(wire.quota_rejected, 3, "exactly the greedy overflow");
    assert_eq!(wire.connections_active, 2);

    drop(greedy);
    drop(polite);
    daemon.shutdown();
}

/// Broken QASM is refused as `BadRequest` carrying the 1-based line of
/// the parse failure across the wire, and the connection stays usable.
#[test]
fn malformed_qasm_is_refused_with_its_source_line() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(1)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let mut client =
        ServedClient::connect(daemon.local_addr().to_string(), "tester").expect("connects");

    let broken = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nfrobnicate q[0];\n";
    let submission = Submission::qasm("broken", broken, "paper", Design::AdaptBuf);
    client.submit(&submission).expect("submit");
    let reply = client.recv_reply().expect("refusal arrives");
    match reply.outcome.expect_err("broken QASM is refused") {
        WireError::BadRequest { line, message } => {
            assert_eq!(line, Some(4), "the offending statement's line");
            assert!(!message.is_empty());
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // The refusal is per-request, not per-connection: a good submission
    // on the same socket still completes.
    let good = &wire_requests()[0];
    client
        .submit(&Submission::from_request(good))
        .expect("submit");
    let reply = client.recv_reply().expect("result arrives");
    assert!(reply.outcome.is_ok(), "connection survives a bad request");
    client.bye().expect("clean goodbye");

    let wire = daemon.shutdown().daemon;
    assert_eq!(wire.bad_requests, 1);
    assert_eq!(wire.protocol_errors, 0);
}

/// A submission the static analyzer can prove will never execute on its
/// target point is refused before it costs queue space, as a typed
/// `Rejected` carrying the structured diagnostics — and the refusal is
/// per-request: the connection stays usable.
#[test]
fn statically_infeasible_submission_is_rejected_with_diagnostics() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(1)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let mut client =
        ServedClient::connect(daemon.local_addr().to_string(), "prover").expect("connects");

    // 40 data qubits can never fit the paper machine's 32: DQC-E001.
    let wide = dqc::workloads::ghz_chain(40);
    let submission = Submission::qasm(
        "ghz-40",
        dqc::circuit::to_qasm(&wide),
        "paper",
        Design::AdaptBuf,
    );
    client.submit(&submission).expect("submit");
    let reply = client.recv_reply().expect("refusal arrives");
    let error = reply.outcome.expect_err("infeasible submit is refused");
    assert!(
        !error.is_backpressure(),
        "a static proof of infeasibility is never retryable"
    );
    match error {
        WireError::Rejected { point, diagnostics } => {
            assert_eq!(point, "paper");
            assert_eq!(diagnostics.len(), 1);
            assert_eq!(diagnostics[0].code, "DQC-E001");
            assert!(diagnostics[0].is_error());
            // The diagnostics crossed the wire structurally, not as a
            // flattened string: they re-serialize losslessly.
            let json = diagnostics[0].to_json();
            assert_eq!(
                dqc::types::Diagnostic::from_json(&json).unwrap(),
                diagnostics[0]
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // The same circuit against nothing wrong still serves fine.
    let good = &wire_requests()[0];
    client
        .submit(&Submission::from_request(good))
        .expect("submit");
    let reply = client.recv_reply().expect("result arrives");
    assert!(reply.outcome.is_ok(), "connection survives a rejection");
    client.bye().expect("clean goodbye");

    let wire = daemon.shutdown().daemon;
    assert_eq!(wire.bad_requests, 1, "rejections count as bad requests");
    assert_eq!(wire.protocol_errors, 0);
}

/// A full shard queue surfaces over the wire as the same typed
/// `Overloaded` the in-process API raises, marked retryable.
#[test]
fn full_queue_is_reported_as_overloaded() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(0)
        .queue_capacity(2)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let mut client =
        ServedClient::connect(daemon.local_addr().to_string(), "flood").expect("connects");

    let requests = wire_requests();
    for request in requests.iter().take(3) {
        client
            .submit(&Submission::from_request(request))
            .expect("submit");
    }
    let reply = client.recv_reply().expect("refusal arrives");
    let error = reply.outcome.expect_err("third submit overflows the queue");
    assert!(error.is_backpressure());
    match error {
        WireError::Overloaded { point, capacity } => {
            assert_eq!(point, "paper");
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    drop(client);
    daemon.shutdown();
}
