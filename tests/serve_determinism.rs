//! The serving layer's central correctness contract: **concurrency never
//! changes results**. The same request produces byte-identical
//! [`ExecutionReport`]s whether it is evaluated directly in-process or
//! served by a [`Server`] — at any worker count, under any submission
//! order, across any batch boundaries and fusion groups, and beside an
//! idle second shard. Also pins the collision-freedom of the stable
//! fingerprints the serve cache keys by, over the full workload suite
//! and a grid of hardware points.

use dqc::workloads::PaperBenchmark;
use dqc::{
    Backend, CompiledCircuit, Design, EvalRequest, ExecutionReport, Experiment, ServeBuilder,
    SystemConfig, TopologyFamily,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
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

#[test]
fn shuffled_concurrent_serving_is_byte_identical_to_direct_evaluation() {
    let requests = request_set();
    let expected = direct_reports(&requests);

    for (workers, shuffle_seed) in [(1usize, 7u64), (2, 8), (4, 9)] {
        // A different submission order per worker count: determinism must
        // hold across *both* axes at once.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));

        // A second, idle shard on the same hardware: its workers share
        // the result channel and the registry, and must neither serve
        // nor perturb anything.
        let (server, responses) = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .hardware_point("spare", SystemConfig::paper_two_node_32())
            .workers_per_shard(workers)
            .queue_capacity(requests.len())
            .spawn()
            .unwrap();
        let mut by_id = HashMap::new();
        for &request_idx in &order {
            let id = server.submit(requests[request_idx].clone()).unwrap();
            by_id.insert(id, request_idx);
        }
        for _ in 0..requests.len() {
            let response = responses.recv().expect("server streams every response");
            let request_idx = by_id.remove(&response.id).expect("ids are unique");
            let output = response.outcome.unwrap_or_else(|e| {
                panic!("request {request_idx} failed with {workers} workers: {e}")
            });
            assert_eq!(
                output.reports, expected[request_idx],
                "request {request_idx} ({}) diverged with {workers} workers",
                requests[request_idx].circuit_label
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, requests.len() as u64);
        assert_eq!(stats.rejected, 0);
        let points: Vec<&str> = stats.shards.iter().map(|s| s.point.as_str()).collect();
        assert_eq!(points, ["paper", "spare"], "registration order");
        assert_eq!(stats.shards[1].served, 0, "the spare shard stays idle");
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
}

#[test]
fn fused_serving_is_byte_identical_to_direct_evaluation() {
    // Duplicate-heavy traffic — 3 of every 4 requests are the *same*
    // evaluation — is exactly what cross-request replay fusion coalesces.
    // At any worker count, under shuffled submission, however the
    // batches happen to group, the bytes must match direct evaluation.
    let requests = dqc_bench::skewed_requests(24, 2, 41, "paper", 4);
    let expected = direct_reports(&requests);

    for (workers, shuffle_seed) in [(1usize, 21u64), (2, 22), (4, 23)] {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));

        let (server, responses) = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(workers)
            .queue_capacity(requests.len())
            .spawn()
            .unwrap();
        let mut by_id = HashMap::new();
        for &request_idx in &order {
            let id = server.submit(requests[request_idx].clone()).unwrap();
            by_id.insert(id, request_idx);
        }
        for _ in 0..requests.len() {
            let response = responses.recv().expect("server streams every response");
            let request_idx = by_id.remove(&response.id).expect("ids are unique");
            let output = response
                .outcome
                .unwrap_or_else(|e| panic!("request {request_idx} failed: {e}"));
            assert_eq!(
                output.reports, expected[request_idx],
                "request {request_idx} diverged with {workers} workers"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, requests.len() as u64);
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
        let (server, responses) = ServeBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(2)
            .queue_capacity(requests.len())
            .spawn()
            .unwrap();
        let mut by_id = HashMap::new();
        for (request_idx, request) in requests.iter().enumerate() {
            by_id.insert(server.submit(request.clone()).unwrap(), request_idx);
        }
        let mut outputs = vec![Vec::new(); requests.len()];
        for _ in 0..requests.len() {
            let response = responses.recv().expect("server streams every response");
            let request_idx = by_id.remove(&response.id).expect("ids are unique");
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
}

#[test]
fn repeated_serving_of_one_request_is_self_consistent() {
    // The same request submitted many times — interleaved with other
    // traffic — always returns the same bytes (cold or warm cache).
    let requests = request_set();
    let probe = requests[3].clone();
    let (server, responses) = ServeBuilder::new()
        .hardware_point("paper", SystemConfig::paper_two_node_32())
        .workers_per_shard(3)
        .queue_capacity(2 * requests.len())
        .spawn()
        .unwrap();
    let mut probe_ids = HashSet::new();
    for request in &requests {
        probe_ids.insert(server.submit(probe.clone()).unwrap());
        server.submit(request.clone()).unwrap();
    }
    let mut probe_outputs = Vec::new();
    for _ in 0..2 * requests.len() {
        let response = responses.recv().unwrap();
        if probe_ids.contains(&response.id) {
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

#[test]
fn config_fingerprints_separate_hardware_points() {
    // A grid of hardware points around the paper configuration — every
    // knob the design space sweeps — must fingerprint distinctly.
    let base = SystemConfig::paper_two_node_32();
    let mut configs = vec![base.clone(), SystemConfig::paper_two_node_64()];
    for n in 1..=20 {
        configs.push(base.with_comm_and_buffer(n));
    }
    for f in [0.9, 0.95, 0.97, 0.99, 0.995] {
        configs.push(base.with_epr_fidelity(f));
    }
    for family in [
        TopologyFamily::Chain { nodes: 4 },
        TopologyFamily::Ring { nodes: 4 },
        TopologyFamily::Star { nodes: 4 },
        TopologyFamily::AllToAll { nodes: 4 },
    ] {
        configs.push(base.with_topology(family.build()));
    }
    for backend in Backend::ALL {
        // `with_backend(Analytic)` deliberately revisits the base point.
        configs.push(base.clone().with_backend(backend));
    }
    let mut seen: HashMap<u64, &SystemConfig> = HashMap::new();
    for config in &configs {
        if let Some(previous) = seen.insert(config.fingerprint(), config) {
            // The grid deliberately revisits the base point (e.g.
            // `with_epr_fidelity(0.99)` is the paper default): equal
            // configurations must agree; unequal ones must not collide.
            assert_eq!(
                previous, config,
                "hardware-point fingerprint collision between distinct configs"
            );
        }
        assert_eq!(config.fingerprint(), config.clone().fingerprint());
    }
}

#[test]
fn backends_never_share_a_cache_entry() {
    // The backend is folded into the configuration fingerprint, so the
    // serve cache key for the same circuit on the same hardware point
    // differs across backends — a stabilizer compilation can never be
    // handed to a density request or vice versa.
    let circuit = Arc::new(dqc::workloads::ghz_chain(32));
    let base = SystemConfig::paper_two_node_32();
    let keys: Vec<u64> = Backend::ALL
        .into_iter()
        .map(|b| CompiledCircuit::cache_key(&circuit, &base.clone().with_backend(b)))
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "two backends share a cache key");
        }
    }

    // End to end: one server, one shard per backend, the same circuit.
    // Each shard compiles its own entry (one cold miss each), and on a
    // Clifford circuit every engine agrees bit-for-bit.
    let (server, responses) = ServeBuilder::new()
        .hardware_point("analytic", base.clone())
        .hardware_point("stabilizer", base.clone().with_backend(Backend::Stabilizer))
        .hardware_point("auto", base.clone().with_backend(Backend::Auto))
        .workers_per_shard(1)
        .spawn()
        .unwrap();
    let mut point_of = HashMap::new();
    for point in ["analytic", "stabilizer", "auto"] {
        for base_seed in [3u64, 90] {
            let id = server
                .submit(
                    EvalRequest::new(
                        "ghz-chain-32",
                        Arc::clone(&circuit),
                        point,
                        Design::AsyncBuf,
                    )
                    .runs(2)
                    .base_seed(base_seed),
                )
                .unwrap();
            point_of.insert(id, (point, base_seed));
        }
    }
    let mut reports: HashMap<(&str, u64), Vec<ExecutionReport>> = HashMap::new();
    for _ in 0..6 {
        let response = responses.recv().unwrap();
        let key = point_of.remove(&response.id).unwrap();
        reports.insert(key, response.outcome.unwrap().reports);
    }
    for base_seed in [3u64, 90] {
        let analytic = &reports[&("analytic", base_seed)];
        assert_eq!(analytic, &reports[&("stabilizer", base_seed)]);
        assert_eq!(analytic, &reports[&("auto", base_seed)]);
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 6);
    assert_eq!(
        stats.cache_misses, 3,
        "one cold compilation per backend shard"
    );
    assert_eq!(stats.cache_hits, 3);
}
