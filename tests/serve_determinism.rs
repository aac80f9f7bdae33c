//! The serving layer's central correctness contract: **concurrency never
//! changes results**. The same request produces byte-identical
//! [`ExecutionReport`]s whether it is evaluated directly in-process or
//! served by a [`Server`] — at any worker count, under any submission
//! order, among many duplicates of one evaluation, and beside an idle
//! second shard. Also pins the collision-freedom of the stable circuit
//! fingerprints over the full workload suite.

use dqc::workloads::PaperBenchmark;
use dqc::{Design, EvalRequest, ExecutionReport, Experiment, ServeBuilder, SystemConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// The fixed request set: the serving portfolio × two designs × two seed
/// bases, two runs each — 24 distinct requests.
fn request_set() -> Vec<EvalRequest> {
    let portfolio = dqc_bench::serve_portfolio();
    let mut requests = Vec::new();
    for (label, circuit) in &portfolio {
        for design in [Design::AdaptBuf, Design::AsyncBuf] {
            for base_seed in [11u64, 5000] {
                requests.push(
                    EvalRequest::new(label.clone(), Arc::clone(circuit), "paper", design)
                        .runs(2)
                        .base_seed(base_seed),
                );
            }
        }
    }
    requests
}

/// Ground truth: every request evaluated directly through the engine,
/// sharing one compilation per circuit exactly as any caller would.
fn direct_reports(requests: &[EvalRequest]) -> Vec<Vec<ExecutionReport>> {
    let config = SystemConfig::paper_two_node_32();
    let mut compiled = HashMap::new();
    requests
        .iter()
        .map(|request| {
            let shared = compiled
                .entry(request.circuit.fingerprint())
                .or_insert_with(|| {
                    Experiment::new(&request.circuit, &config)
                        .expect("portfolio circuits compile")
                        .compiled()
                        .clone()
                });
            Experiment::with_compiled(Arc::clone(shared))
                .design(request.design)
                .runs(request.runs)
                .base_seed(request.base_seed)
                .reports()
                .expect("portfolio circuits evaluate")
        })
        .collect()
}

/// Duplicate-heavy traffic, the shape of many tenants asking one popular
/// question: `count` copies of one evaluation (the portfolio's QFT-32,
/// its heaviest replay, with one design and one base seed). Every other
/// copy carries its own `Arc` of an equal circuit, so both ways the warm
/// cache can match a circuit are exercised.
fn duplicate_requests(count: usize) -> Vec<EvalRequest> {
    let portfolio = dqc_bench::serve_portfolio();
    let (label, circuit) = &portfolio[2];
    assert_eq!(label, "QFT-32");
    (0..count)
        .map(|i| {
            let circuit = if i % 2 == 0 {
                Arc::clone(circuit)
            } else {
                Arc::new((**circuit).clone())
            };
            EvalRequest::new(label.clone(), circuit, "paper", Design::AdaptBuf)
                .runs(2)
                .base_seed(41)
        })
        .collect()
}

/// Serves `requests` on `workers` workers, submitted in an order shuffled
/// by `shuffle_seed`, beside a second, idle shard on the same hardware
/// (its workers share the registry, and must neither serve nor perturb
/// anything). Asserts every reply equals `expected`, and that the stats
/// count one dispatch per request and a warm cache that both missed and
/// hit `requests`' 6 distinct circuits.
fn serve_shuffled(
    requests: &[EvalRequest],
    expected: &[Vec<ExecutionReport>],
    workers: usize,
    shuffle_seed: u64,
) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));

    let server = ServeBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .hardware_point("spare", SystemConfig::paper_two_node_32())
        .workers_per_shard(workers)
        .queue_capacity(requests.len())
        .spawn()
        .unwrap();
    let (tx, responses) = channel();
    for &request_idx in &order {
        let tx = tx.clone();
        server
            .submit(requests[request_idx].clone(), move |r| {
                drop(tx.send((request_idx, r)))
            })
            .unwrap();
    }
    for _ in 0..requests.len() {
        let (request_idx, response) = responses.recv().expect("every request is answered");
        let output = response
            .outcome
            .unwrap_or_else(|e| panic!("request {request_idx} failed with {workers} workers: {e}"));
        assert_eq!(
            output.reports, expected[request_idx],
            "request {request_idx} ({}) diverged with {workers} workers",
            requests[request_idx].circuit_label
        );
    }
    assert_eq!(
        server.points().collect::<Vec<_>>(),
        ["paper", "spare"],
        "registration order"
    );
    let spare = server.metrics().counter("serve.served{point=spare}");
    assert_eq!(spare, Some(0), "the spare shard stays idle");
    let stats = server.shutdown();
    assert_eq!(stats.served, requests.len() as u64);
    assert_eq!(stats.dispatches, stats.served, "one request per dispatch");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.cache_hits + stats.cache_misses, requests.len() as u64);
    // Each of the 6 distinct circuits must miss cold at least once;
    // concurrent workers may race a few extra misses, never fewer.
    assert!(
        stats.cache_misses >= 6,
        "6 distinct circuits cannot miss fewer than 6 times (got {})",
        stats.cache_misses
    );
    assert!(
        stats.cache_hits > 0,
        "repeated circuits must hit the warm cache"
    );
}

#[test]
fn shuffled_concurrent_serving_is_byte_identical_to_direct_evaluation() {
    let requests = request_set();
    let expected = direct_reports(&requests);

    // A different submission order per worker count: determinism must
    // hold across *both* axes at once.
    for (workers, shuffle_seed) in [(1usize, 7u64), (2, 8), (4, 9)] {
        serve_shuffled(&requests, &expected, workers, shuffle_seed);
    }
}

#[test]
fn fused_serving_is_byte_identical_to_direct_evaluation() {
    // Duplicate-heavy traffic, the shape shard workers once fused into
    // one replay: 3 of every 4 requests are the *same* evaluation, and
    // every 4th is a distinct one, each of the 6 portfolio circuits once.
    // Served one request per dispatch, at any worker count and under
    // shuffled submission, the bytes must match direct evaluation.
    let distinct = request_set();
    let mut duplicates = duplicate_requests(18).into_iter();
    let requests: Vec<EvalRequest> = (0..24)
        .map(|i| {
            if (i + 1) % 4 == 0 {
                distinct[i].clone()
            } else {
                duplicates.next().unwrap()
            }
        })
        .collect();
    let expected = direct_reports(&requests);

    for (workers, shuffle_seed) in [(1usize, 21u64), (2, 22), (4, 23)] {
        serve_shuffled(&requests, &expected, workers, shuffle_seed);
    }
}

#[test]
fn observability_recording_never_changes_served_bytes() {
    // The tracing layer's contract with this suite: instrumentation is
    // inert by default (no recorder installed — the hot path is one
    // relaxed atomic load), and even with a live recorder capturing
    // every span, the served bytes stay identical to direct evaluation.
    let requests = request_set();
    let expected = direct_reports(&requests);

    let serve_all = |requests: &[EvalRequest]| -> Vec<Vec<ExecutionReport>> {
        let server = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(2)
            .queue_capacity(requests.len())
            .spawn()
            .unwrap();
        let (tx, responses) = channel();
        for (request_idx, request) in requests.iter().enumerate() {
            let tx = tx.clone();
            server
                .submit(request.clone(), move |r| drop(tx.send((request_idx, r))))
                .unwrap();
        }
        let mut outputs = vec![Vec::new(); requests.len()];
        for _ in 0..requests.len() {
            let (request_idx, response) = responses.recv().expect("every request is answered");
            outputs[request_idx] = response.outcome.expect("request succeeds").reports;
        }
        server.shutdown();
        outputs
    };

    // Pass 1: the default — nothing installed, nothing recorded.
    assert!(
        !dqc::obs::recording(),
        "no recorder is installed by default"
    );
    assert_eq!(serve_all(&requests), expected, "uninstrumented pass");

    // Pass 2: a ring recorder capturing every span. Same bytes.
    let ring = Arc::new(dqc::obs::RingRecorder::new(262_144));
    let session = dqc::obs::install(ring.clone(), Arc::new(dqc::obs::MonotonicClock::new()));
    assert_eq!(serve_all(&requests), expected, "recorded pass");
    drop(session);
    assert!(
        !dqc::obs::recording(),
        "dropping the session disarms recording"
    );

    // The recorder was genuinely live: every request's span tree landed.
    let spans = ring.spans();
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    assert!(
        roots >= requests.len(),
        "expected a root span per served request, got {roots} for {}",
        requests.len()
    );
    assert!(
        spans.iter().any(|s| s.name == "compile"),
        "compile spans present"
    );
    assert!(
        spans.iter().any(|s| s.name == "exec.replay"),
        "replay spans present"
    );
    // dqcbench's `core.exec.analytic_us_p50` selects replays by this
    // attribute; without it that number would quietly read 0.
    let analytic = dqc::obs::AttrValue::Str("analytic".to_string());
    for span in spans.iter().filter(|s| s.name == "exec.replay") {
        assert!(
            span.attrs
                .iter()
                .any(|(key, value)| key == "backend" && *value == analytic),
            "replay span without `backend = \"analytic\"`: {:?}",
            span.attrs
        );
    }
}

#[test]
fn repeated_serving_of_one_request_is_self_consistent() {
    // The same request submitted many times — interleaved with other
    // traffic — always returns the same bytes (cold or warm cache).
    let requests = request_set();
    let probe = requests[3].clone();
    let server = ServeBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(3)
        .queue_capacity(2 * requests.len())
        .spawn()
        .unwrap();
    let (tx, responses) = channel();
    for request in &requests {
        for (is_probe, request) in [(true, &probe), (false, request)] {
            let tx = tx.clone();
            server
                .submit(request.clone(), move |r| drop(tx.send((is_probe, r))))
                .unwrap();
        }
    }
    let mut probe_outputs = Vec::new();
    for _ in 0..2 * requests.len() {
        let (is_probe, response) = responses.recv().unwrap();
        if is_probe {
            probe_outputs.push(response.outcome.unwrap().reports);
        }
    }
    assert_eq!(probe_outputs.len(), requests.len());
    for output in &probe_outputs[1..] {
        assert_eq!(output, &probe_outputs[0]);
    }
    server.shutdown();
}

#[test]
fn circuit_fingerprints_are_collision_free_across_the_workload_suite() {
    // Every circuit the repository's benchmarks and serving portfolio
    // exercise, plus size ladders of the generators: all fingerprints
    // must be pairwise distinct (and distinct from each other's).
    let mut circuits = Vec::new();
    for bench in PaperBenchmark::ALL {
        circuits.push((bench.to_string(), bench.circuit()));
    }
    for (label, circuit) in dqc_bench::serve_portfolio() {
        circuits.push((format!("portfolio/{label}"), (*circuit).clone()));
    }
    for n in 2..=16 {
        circuits.push((format!("qft-{n}"), dqc::workloads::qft(n)));
        circuits.push((format!("ghz-chain-{n}"), dqc::workloads::ghz_chain(n)));
        circuits.push((format!("ghz-tree-{n}"), dqc::workloads::ghz_tree(n)));
    }
    let mut seen: HashMap<u64, &str> = HashMap::new();
    for (label, circuit) in &circuits {
        if let Some(previous) = seen.insert(circuit.fingerprint(), label) {
            // Identical circuits are allowed to collide (ghz chain/tree
            // agree at tiny sizes); structurally different ones are not.
            let twin = circuits
                .iter()
                .find(|(l, _)| l == previous)
                .map(|(_, c)| c)
                .unwrap();
            assert_eq!(
                twin, circuit,
                "`{previous}` and `{label}` collide without being equal"
            );
        }
    }
}
