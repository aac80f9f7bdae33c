//! Wire-level contracts of the `dqc-served` daemon: crossing the TCP
//! frame protocol never changes results (byte-identical per-seed reports
//! versus direct in-process evaluation, from concurrent connections, for
//! in-memory circuits and QASM text alike, both sent as QASM), tags and
//! seeds keep every bit of their `u64` range, per-client quotas throttle
//! a greedy client without touching a polite one, malformed QASM is
//! refused with its 1-based source line intact, a full shard queue
//! surfaces as a typed retryable `Overloaded`, a client speaking another
//! protocol version is turned away at the handshake, and a configuration
//! that could serve nobody never binds — all on loopback sockets the
//! tests own.

use dqc::served::protocol::{hello_frame, parse_server_frame, ServerFrame};
use dqc::served::{
    read_frame, write_frame, FrameError, QuotaScope, ServedBuilder, ServedError, Submission,
    WireError, WireOutput, PROTOCOL_VERSION,
};
use dqc::types::Json;
use dqc::{
    CompiledCircuit, Design, EvalRequest, Experiment, ServeError, ServedClient, SystemConfig,
};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

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

/// Pipelines every request over one connection (as the in-memory
/// circuit or as QASM text) and returns the outputs in request order.
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

/// The headline contract: two concurrent connections — one submitting
/// in-memory circuits, one submitting OpenQASM text — both receive
/// per-seed reports byte-identical to direct in-process evaluation.
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

    let (circuit_outputs, qasm_outputs) = std::thread::scope(|scope| {
        let circuit = scope.spawn(|| drive(&addr, "circuit-client", &requests, false));
        let qasm = scope.spawn(|| drive(&addr, "qasm-client", &requests, true));
        (
            circuit.join().expect("circuit client"),
            qasm.join().expect("qasm client"),
        )
    });

    for (which, outputs) in [("circuit", &circuit_outputs), ("qasm", &qasm_outputs)] {
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
            // A kept reply holds no spare report slots.
            assert_eq!(output.reports.capacity(), output.reports.len());
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
    assert_eq!(greedy.welcome().config.quota.max_in_flight, Some(2));
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
    let metrics = polite.metrics().expect("metrics round trip");
    let counter = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(
        counter("serve.submitted{point=paper}"),
        4,
        "2 greedy + 2 polite admitted"
    );
    assert_eq!(
        counter("served.quota_rejected"),
        3,
        "exactly the greedy overflow"
    );
    let open = counter("served.connections_accepted") - counter("served.connections_closed");
    assert_eq!(open, 2);

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
            // The daemon refuses with exactly the engine's own refusal.
            let refusal = CompiledCircuit::compile(&wide, &SystemConfig::paper_two_node_32())
                .expect_err("the engine refuses the same pair");
            assert_eq!(Some(diagnostics[0].code), refusal.code());
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

/// The handshake's version gate, driven by a raw socket: a `hello` for
/// protocol v6 gets one fatal, untagged `protocol` error naming both
/// versions, then end-of-stream, and counts as one protocol error.
#[test]
fn hello_for_an_older_protocol_is_refused_then_closed() {
    assert_eq!(PROTOCOL_VERSION, 7);
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(1)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connects");
    // A refusal that never arrives fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let hello = Json::parse(r#"{"type":"hello","protocol":6,"client":"v6-client"}"#).unwrap();
    write_frame(&mut stream, &hello).expect("hello is sent");

    let frame = read_frame(&mut stream).expect("the refusal arrives");
    match parse_server_frame(&frame).expect("a well-formed server frame") {
        ServerFrame::Error {
            tag: None,
            error: WireError::Protocol { message },
            ..
        } => {
            assert!(message.contains("client speaks 6"), "{message}");
            assert!(message.contains("server speaks 7"), "{message}");
        }
        other => panic!("expected an untagged protocol error, got {other:?}"),
    }
    match read_frame(&mut stream) {
        Err(FrameError::Closed) => {}
        other => panic!("expected end-of-stream after the refusal, got {other:?}"),
    }

    let wire = daemon.shutdown().daemon;
    assert_eq!(wire.protocol_errors, 1);
    assert_eq!(wire.connections_accepted, 1);
}

/// Raw `submit` frames keep every bit of a `u64`, and a circuit that is
/// not QASM text is refused per request. A structured circuit object (the
/// pre-v7 encoding) gets a `bad_request` under its own tag; the next
/// `submit` on the same connection — tag `u64::MAX - 5`, `base_seed`
/// `u64::MAX - 1`, one run — is answered under that exact tag with the
/// reports of direct evaluation at that exact seed.
#[test]
fn raw_submits_keep_full_range_tags_and_seeds_and_refuse_non_text_circuits() {
    let daemon = ServedBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(1)
        .bind("127.0.0.1:0")
        .expect("daemon binds");
    let stream = TcpStream::connect(daemon.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let next_frame = || {
        let frame = read_frame(&mut &stream).expect("a frame");
        parse_server_frame(&frame).expect("a well-formed server frame")
    };
    write_frame(&mut &stream, &hello_frame("raw-client")).expect("hello is sent");
    assert!(matches!(next_frame(), ServerFrame::Welcome(_)));

    let (tag, seed) = (u64::MAX - 5, u64::MAX - 1);
    let at = |seed| wire_requests()[0].clone().runs(1).base_seed(seed);
    let request = at(seed);
    let expected = direct_report_json(&[at(seed), at(u64::MAX)]);
    // The neighbouring seed answers differently, so a seed rounded on
    // the way in could not pass.
    assert_ne!(expected[0], expected[1]);
    let submit = |tag: u64, circuit: Json| {
        Json::object([
            ("type", Json::from("submit")),
            ("tag", Json::uint(tag)),
            ("label", Json::from(request.circuit_label.as_str())),
            ("point", Json::from("paper")),
            ("design", Json::from(request.design.name())),
            ("runs", Json::from(request.runs)),
            ("base_seed", Json::uint(seed)),
            ("circuit", circuit),
        ])
    };
    let structured = Json::object([("num_qubits", Json::uint(2)), ("ops", Json::Array(vec![]))]);
    write_frame(&mut &stream, &submit(tag - 2, structured)).expect("submit is sent");
    let qasm = Json::from(dqc::circuit::to_qasm(&request.circuit));
    write_frame(&mut &stream, &submit(tag, qasm)).expect("submit is sent");

    match next_frame() {
        ServerFrame::Error {
            tag: Some(refused),
            error: WireError::BadRequest { message, line },
            ..
        } => {
            assert_eq!(refused, tag - 2);
            assert_eq!(line, None);
            assert!(message.contains("`circuit`"), "{message}");
        }
        other => panic!("expected a tagged bad_request, got {other:?}"),
    }
    match next_frame() {
        ServerFrame::Result {
            tag: answered,
            output,
        } => {
            assert_eq!(answered, tag);
            let got: Vec<String> = output
                .reports
                .iter()
                .map(|report| report.to_json().to_compact_string())
                .collect();
            assert_eq!(got, expected[0]);
        }
        other => panic!("expected the result, got {other:?}"),
    }

    let wire = daemon.shutdown().daemon;
    assert_eq!(wire.bad_requests, 1);
    assert_eq!(wire.protocol_errors, 0);
}

/// A builder-made configuration that could serve nobody — a zero queue,
/// a zero in-flight quota, a zero rate — is refused at bind with the
/// typed error carrying its diagnostic, exactly as a config file with
/// the same values is refused at load.
#[test]
fn degenerate_builder_configs_are_refused_at_bind() {
    let builder =
        || ServedBuilder::new().hardware_point("paper", SystemConfig::paper_two_node_32());
    for (builder, code) in [
        (builder().queue_capacity(0), "DQC-E009"),
        (builder().rate_limit(0.0, 8.0), "DQC-E010"),
        (builder().max_in_flight(0), "DQC-E012"),
    ] {
        let error = match builder.bind("127.0.0.1:0") {
            Ok(daemon) => {
                daemon.shutdown();
                panic!("{code}: the daemon bound anyway");
            }
            Err(error) => error,
        };
        assert!(error.to_string().contains(code), "{error}");
        match error {
            ServedError::Serve(ServeError::InvalidConfig { diagnostics }) => {
                let codes: Vec<&str> = diagnostics.iter().map(|d| d.code).collect();
                assert_eq!(codes, [code]);
            }
            other => panic!("{code}: expected InvalidConfig, got {other}"),
        }
    }
}
