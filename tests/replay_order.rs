//! Replay independence: a seeded run of a compiled circuit is a pure
//! function of (compilation, design, seed).
//!
//! The same compilation is replayed in seed order and in a shuffled
//! order, and every seed's report must match, so no run can leak state
//! into the next. An [`Experiment`] window must equal the per-seed
//! [`CompiledCircuit::run`] calls it stands for, even where its seed
//! range wraps past `u64::MAX`. The file closes with a seeded loop that
//! pins the `dqc-sim` stabilizer tableau against the dense statevector
//! oracle on random Clifford circuits.

use dqc::circuit::Circuit;
use dqc::sim::{Statevector, Tableau};
use dqc::workloads::{clifford_blocks, ghz_chain, ghz_tree, qft, random_clifford};
use dqc::{CompiledCircuit, Design, ExecutionReport, Experiment, SystemConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tolerance of the dense-oracle probability checks.
const ORACLE_TOL: f64 = 1e-9;

/// The bare baseline, the buffered event-driven path, and the adaptive
/// path, whose controller probes the live buffer level mid-run.
const DESIGNS: [Design; 3] = [Design::Original, Design::AsyncBuf, Design::AdaptBuf];

/// The Clifford circuits, wide and at 8 qubits, plus QFT-8, each on a
/// point that hosts it.
fn clifford_suite() -> Vec<(String, Circuit, SystemConfig)> {
    let paper = SystemConfig::paper_two_node_32();
    let mut small = paper.clone();
    small.data_qubits_per_node = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(0xC11F);
    vec![
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

/// Replays each subject's compilation over a seed set in seed order and
/// in a shuffled order, for every design, and asserts that each seed's
/// report is the same both times.
fn assert_shuffled_replays_match(subjects: Vec<(String, Circuit, SystemConfig)>, shuffle: u64) {
    let seeds = [0u64, 7, 41, 2025];
    for (i, (label, circuit, config)) in subjects.into_iter().enumerate() {
        let compiled = CompiledCircuit::compile(&circuit, &config)
            .unwrap_or_else(|e| panic!("{label} must compile: {e}"));
        for design in DESIGNS {
            let replay = |seed: u64| -> (u64, ExecutionReport) {
                let report = compiled
                    .run(design, seed)
                    .unwrap_or_else(|e| panic!("{label} / {design}: {e}"));
                (seed, report)
            };
            let in_order: Vec<_> = seeds.iter().map(|&seed| replay(seed)).collect();
            let mut order = seeds.to_vec();
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle ^ i as u64));
            let mut shuffled: Vec<_> = order.into_iter().map(replay).collect();
            shuffled.sort_by_key(|(seed, _)| *seed);
            for ((seed, a), (_, b)) in in_order.iter().zip(&shuffled) {
                assert_eq!(a, b, "{label} / {design} / seed {seed}");
            }
        }
    }
}

#[test]
fn serve_portfolio_replays_the_same_reports_in_shuffled_seed_order() {
    let config = SystemConfig::paper_two_node_32();
    let portfolio = dqc_bench::serve_portfolio()
        .into_iter()
        .map(|(label, circuit)| (label, (*circuit).clone(), config.clone()))
        .collect();
    assert_shuffled_replays_match(portfolio, 0x9087);
}

#[test]
fn clifford_suite_replays_the_same_reports_in_shuffled_seed_order() {
    assert_shuffled_replays_match(clifford_suite(), 0xC1_0000);
}

#[test]
fn experiment_window_wrapping_past_u64_max_matches_per_seed_runs() {
    let config = SystemConfig::paper_two_node_32();
    let experiment = Experiment::new(&ghz_chain(32), &config)
        .unwrap()
        .design(Design::AsyncBuf)
        .runs(5)
        .base_seed(u64::MAX - 2);
    let compiled = CompiledCircuit::compile(&ghz_chain(32), &config).unwrap();
    let expected: Vec<ExecutionReport> = [u64::MAX - 2, u64::MAX - 1, u64::MAX, 0, 1]
        .into_iter()
        .map(|seed| compiled.run(Design::AsyncBuf, seed).unwrap())
        .collect();
    assert_eq!(experiment.reports().unwrap(), expected);
}

/// Seeded property loop: on random Clifford circuits, every qubit the
/// tableau certifies deterministic measures that value with probability
/// 1 in the statevector, and every other qubit is exactly unbiased
/// (stabilizer states admit no third case).
#[test]
fn random_clifford_outcomes_match_the_dense_oracle() {
    for trial in 0..25u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ trial);
        let circuit = random_clifford(8, 90, 0.0, &mut rng);
        let mut tableau = Tableau::new(8);
        for op in circuit.operations() {
            tableau.apply(op).unwrap();
        }
        let mut sv = Statevector::zero_state(8);
        sv.apply_circuit(&circuit).unwrap();
        for q in 0..8 {
            let p1 = sv.prob_one(q);
            let expected = match tableau.deterministic_outcome(q) {
                Some(bit) => f64::from(u8::from(bit)),
                None => 0.5,
            };
            assert!(
                (p1 - expected).abs() <= ORACLE_TOL,
                "trial {trial}, qubit {q}: tableau says {expected}, dense p1 = {p1}"
            );
        }
    }
}
