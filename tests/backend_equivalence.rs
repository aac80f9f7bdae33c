//! Cross-backend differential harness: every compiled circuit must mean
//! the same thing on every engine that can execute it.
//!
//! The stabilizer fast path replays the analytic engine's schedule and
//! RNG streams, so stabilizer-eligible circuits must agree **bit for
//! bit** with the analytic reference (and `auto` must equal whatever
//! engine it selects).
//!
//! The suite replays the full serving portfolio plus a Clifford suite
//! through every eligible backend pair, across shuffled seed orders and
//! multi-run matrices, and closes with seeded property-style loops
//! pinning the compile-time tableau certification against the dense
//! statevector oracle.

use dqc::circuit::Circuit;
use dqc::sim::Statevector;
use dqc::workloads::{clifford_blocks, ghz_chain, ghz_tree, qft, random_clifford};
use dqc::{Backend, CompiledCircuit, Design, DqcError, ExecutionReport, SystemConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tolerance of the dense-oracle probability checks.
const ORACLE_TOL: f64 = 1e-9;

/// The designs the matrices replay: the bare baseline, the buffered
/// event-driven path, and the adaptive path (where the stabilizer engine
/// must *decline* and fall back without changing results).
const DESIGNS: [Design; 3] = [Design::Original, Design::AsyncBuf, Design::AdaptBuf];

fn is_clifford(circuit: &Circuit) -> bool {
    circuit
        .operations()
        .iter()
        .all(|op| op.gate().is_clifford())
}

/// Every backend that can legally execute `circuit`: `analytic` and
/// `auto` always, `stabilizer` for Clifford-only circuits.
fn eligible_backends(circuit: &Circuit) -> Vec<Backend> {
    let mut backends = vec![Backend::Analytic, Backend::Auto];
    if is_clifford(circuit) {
        backends.push(Backend::Stabilizer);
    }
    backends
}

/// Runs `circuit` through every eligible backend over a shuffled seed
/// order and asserts pairwise bit-for-bit agreement on every cell.
/// Shuffling the replay order per backend proves runs are independent:
/// the report of seed `s` cannot depend on which seeds were evaluated
/// before it.
fn differential_matrix(label: &str, circuit: &Circuit, config: &SystemConfig, shuffle: u64) {
    let backends = eligible_backends(circuit);
    let compiled: Vec<(Backend, CompiledCircuit)> = backends
        .iter()
        .map(|&backend| {
            let compiled = CompiledCircuit::compile(circuit, &config.clone().with_backend(backend))
                .unwrap_or_else(|e| panic!("{label}: {backend} must compile: {e}"));
            (backend, compiled)
        })
        .collect();
    let seeds: Vec<u64> = vec![0, 7, 41, 2025];
    for design in DESIGNS {
        // Each backend replays the seed matrix in a different order.
        let per_backend: Vec<(Backend, Vec<(u64, ExecutionReport)>)> = compiled
            .iter()
            .enumerate()
            .map(|(i, (backend, compiled))| {
                let mut order = seeds.clone();
                order.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle ^ ((i as u64) << 8)));
                let mut cells: Vec<(u64, ExecutionReport)> = order
                    .into_iter()
                    .map(|seed| {
                        let report = compiled
                            .run(design, seed)
                            .unwrap_or_else(|e| panic!("{label} / {backend}: {e}"));
                        (seed, report)
                    })
                    .collect();
                cells.sort_by_key(|(seed, _)| *seed);
                (*backend, cells)
            })
            .collect();
        for (i, (ba, cells_a)) in per_backend.iter().enumerate() {
            for (bb, cells_b) in &per_backend[i + 1..] {
                for ((seed, a), (_, b)) in cells_a.iter().zip(cells_b) {
                    assert_eq!(a, b, "{label} / {design} / seed {seed}: {ba} vs {bb}");
                }
            }
        }
    }
}

/// The Clifford suite: circuits where the stabilizer fast path is
/// eligible, wide and at 8 qubits, plus QFT-8, where `auto` must fall
/// back to the analytic walk.
fn clifford_suite() -> Vec<(String, Circuit, SystemConfig)> {
    let paper = SystemConfig::paper_two_node_32();
    let mut small = paper.clone();
    small.data_qubits_per_node = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(0xC11F);
    vec![
        ("GHZ-chain-32".into(), ghz_chain(32), paper.clone()),
        ("GHZ-tree-32".into(), ghz_tree(32), paper.clone()),
        (
            "Clifford-32".into(),
            random_clifford(32, 300, 0.0, &mut rng),
            paper.clone(),
        ),
        (
            "Clifford-blocks-32".into(),
            clifford_blocks(32, 150, 4, &mut rng),
            paper,
        ),
        (
            "Clifford-8".into(),
            random_clifford(8, 120, 0.0, &mut rng),
            small.clone(),
        ),
        ("GHZ-chain-8".into(), ghz_chain(8), small.clone()),
        ("GHZ-tree-8".into(), ghz_tree(8), small.clone()),
        ("QFT-8".into(), qft(8), small),
    ]
}

#[test]
fn serve_portfolio_agrees_across_eligible_backends() {
    // The exact traffic mix the serving layer is benchmarked on: QAOA
    // and QFT stay analytic-only (non-Clifford), the GHZ circuits
    // additionally exercise the stabilizer path.
    let config = SystemConfig::paper_two_node_32();
    for (label, circuit) in dqc_bench::serve_portfolio() {
        differential_matrix(&label, &circuit, &config, 0x9087 ^ circuit.fingerprint());
    }
}

#[test]
fn clifford_suite_agrees_across_every_backend_pair() {
    for (i, (label, circuit, config)) in clifford_suite().into_iter().enumerate() {
        differential_matrix(&label, &circuit, &config, 0xC1_0000 + i as u64);
    }
}

#[test]
fn multi_run_matrices_agree_across_backends() {
    // The Experiment path (compile once, replay a contiguous seed range)
    // through every backend: same run counts, same base seeds, same
    // reports — including a window that straddles seed 0.
    let circuit = ghz_chain(32);
    let config = SystemConfig::paper_two_node_32();
    for backend in [Backend::Stabilizer, Backend::Auto] {
        let reference = dqc::Experiment::new(&circuit, &config).unwrap();
        let subject =
            dqc::Experiment::new(&circuit, &config.clone().with_backend(backend)).unwrap();
        for (runs, base_seed) in [(1usize, 5u64), (3, 0), (5, u64::MAX - 2)] {
            let expected = reference
                .clone()
                .design(Design::AsyncBuf)
                .runs(runs)
                .base_seed(base_seed)
                .reports()
                .unwrap();
            let got = subject
                .clone()
                .design(Design::AsyncBuf)
                .runs(runs)
                .base_seed(base_seed)
                .reports()
                .unwrap();
            assert_eq!(expected, got, "{backend}, runs {runs}, base {base_seed}");
        }
    }
}

#[test]
fn explicit_stabilizer_is_rejected_on_non_clifford_portfolio_circuits() {
    let config = SystemConfig::paper_two_node_32().with_backend(Backend::Stabilizer);
    for (label, circuit) in dqc_bench::serve_portfolio() {
        if is_clifford(&circuit) {
            continue;
        }
        let err = CompiledCircuit::compile(&circuit, &config)
            .expect_err("non-Clifford circuits must not compile for the stabilizer engine");
        match err {
            DqcError::BackendUnsupported { backend, reason } => {
                assert_eq!(backend, "stabilizer", "{label}");
                assert!(reason.contains("non-Clifford"), "{label}: {reason}");
            }
            other => panic!("{label}: expected BackendUnsupported, got {other}"),
        }
    }
}

// ----------------------------------------------------- property-style

/// Seeded property loop: for random Clifford circuits, the compile-time
/// tableau certification (`stabilizer_outcomes`) must match the dense
/// oracle — every certified-deterministic qubit measures its certified
/// value with probability 1 in the statevector, and every uncertified
/// qubit is exactly unbiased (stabilizer states admit no third case).
#[test]
fn random_clifford_outcomes_match_the_dense_oracle() {
    let mut config = SystemConfig::paper_two_node_32();
    config.data_qubits_per_node = 4;
    config = config.with_backend(Backend::Auto);
    for trial in 0..25u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ trial);
        let circuit = random_clifford(8, 90, 0.0, &mut rng);
        let compiled = CompiledCircuit::compile(&circuit, &config).unwrap();
        let outcomes = compiled
            .stabilizer_outcomes()
            .expect("Clifford circuits are certified under auto");
        let mut sv = Statevector::zero_state(8);
        sv.apply_circuit(&circuit).unwrap();
        for (q, outcome) in outcomes.iter().enumerate() {
            let p1 = sv.prob_one(q);
            match outcome {
                Some(bit) => {
                    let expected = if *bit { 1.0 } else { 0.0 };
                    assert!(
                        (p1 - expected).abs() <= ORACLE_TOL,
                        "trial {trial}, qubit {q}: certified {bit}, dense p1 = {p1}"
                    );
                }
                None => assert!(
                    (p1 - 0.5).abs() <= ORACLE_TOL,
                    "trial {trial}, qubit {q}: uncertified but dense p1 = {p1}"
                ),
            }
        }
    }
}

/// Seeded property loop: random Clifford circuits agree bit for bit
/// between the stabilizer and analytic engines, across random designs
/// and seeds.
#[test]
fn random_cliffords_agree_across_engines() {
    let mut config = SystemConfig::paper_two_node_32();
    config.data_qubits_per_node = 4;
    for trial in 0..10u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1CE ^ trial);
        let circuit = random_clifford(8, 70, 0.0, &mut rng);
        differential_matrix(
            &format!("random-clifford[{trial}]"),
            &circuit,
            &config,
            trial,
        );
    }
}

/// Negative property: one non-Clifford gate anywhere disqualifies the
/// stabilizer path under `auto` — the compilation silently falls back to
/// the analytic engine instead of failing or mis-certifying.
#[test]
fn one_non_clifford_gate_disqualifies_auto_stabilizer() {
    let auto = SystemConfig::paper_two_node_32().with_backend(Backend::Auto);
    for trial in 0..10u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7AB0 ^ trial);
        let clifford = random_clifford(32, 80, 0.0, &mut rng);
        let mut spoiled = clifford.clone();
        spoiled.t((trial % 32) as u32);

        let eligible = CompiledCircuit::compile(&clifford, &auto).unwrap();
        assert!(eligible.stabilizer_eligible(), "trial {trial}");
        assert_eq!(
            eligible.selected_backend(Design::AsyncBuf),
            Backend::Stabilizer,
            "trial {trial}"
        );

        let fallback = CompiledCircuit::compile(&spoiled, &auto).unwrap();
        assert!(!fallback.stabilizer_eligible(), "trial {trial}");
        assert_eq!(
            fallback.selected_backend(Design::AsyncBuf),
            Backend::Analytic,
            "trial {trial}"
        );
        // And the fallback is the analytic engine, not a near miss.
        let analytic =
            CompiledCircuit::compile(&spoiled, &SystemConfig::paper_two_node_32()).unwrap();
        assert_eq!(
            fallback.run(Design::AsyncBuf, trial).unwrap(),
            analytic.run(Design::AsyncBuf, trial).unwrap(),
            "trial {trial}"
        );
    }
}
