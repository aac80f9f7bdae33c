//! Integration tests for the compile-once/run-many evaluation engine:
//! determinism, bit-for-bit equivalence between shared and per-seed
//! fresh compilations, parallel sweep ordering, and the compile-once
//! guarantee.

use dqc::workloads::PaperBenchmark;
use dqc::{CompiledCircuit, Design, DqcError, Experiment, Sweep, SystemConfig};

const SWEEP_BENCHES: [PaperBenchmark; 2] = [PaperBenchmark::Tlim32, PaperBenchmark::QaoaR8_32];
const RUNS: usize = 5;
const SEED: u64 = 2025;

#[test]
fn same_seed_yields_identical_reports() {
    let circuit = PaperBenchmark::QaoaR8_32.circuit();
    let config = SystemConfig::paper_two_node_32();
    let compiled = CompiledCircuit::compile(&circuit, &config).unwrap();
    let again = CompiledCircuit::compile(&circuit, &config).unwrap();
    for design in Design::ALL {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = compiled.run(design, seed).unwrap();
            let b = compiled.run(design, seed).unwrap();
            let c = again.run(design, seed).unwrap();
            assert_eq!(a, b, "{design} seed {seed}: rerun on one compilation");
            assert_eq!(a, c, "{design} seed {seed}: independent compilations");
        }
    }
}

#[test]
fn compiled_path_matches_legacy_per_seed_path_bit_for_bit() {
    // The removed legacy free function re-partitioned the circuit and
    // re-compiled every segment variant on every call. Its exact code
    // path — compile fresh, run once — must still produce bit-for-bit
    // the reports a single shared compilation does, or compile-once
    // would be changing results rather than just hoisting work.
    let config = SystemConfig::paper_two_node_32();
    for bench in SWEEP_BENCHES {
        let circuit = bench.circuit();
        let compiled = CompiledCircuit::compile(&circuit, &config).unwrap();
        for design in Design::ALL {
            for seed in 0..4u64 {
                let legacy = CompiledCircuit::compile(&circuit, &config)
                    .unwrap()
                    .run(design, seed)
                    .unwrap();
                let fast = compiled.run(design, seed).unwrap();
                assert_eq!(legacy, fast, "{bench}/{design} seed {seed}");
            }
        }
    }
}

#[test]
fn parallel_sweep_matches_sequential_evaluate_calls() {
    // Acceptance: a Sweep over ≥2 benchmarks × all 6 designs through the
    // parallel runner produces results identical to sequential per-seed
    // compile-and-run calls with the same seeds.
    let config = SystemConfig::paper_two_node_32();
    let result = Sweep::new()
        .benchmarks(SWEEP_BENCHES)
        .config("paper", config.clone())
        .designs(&Design::ALL)
        .runs(RUNS)
        .base_seed(SEED)
        .threads(8)
        .run()
        .unwrap();
    assert_eq!(result.cells.len(), SWEEP_BENCHES.len() * Design::ALL.len());

    let mut cell = result.cells.iter();
    for bench in SWEEP_BENCHES {
        let circuit = bench.circuit();
        for design in Design::ALL {
            let got = cell.next().expect("cells are in grid order");
            assert_eq!(got.circuit, bench.to_string());
            assert_eq!(got.design, design);
            // Rebuild the cell average from sequential per-seed calls
            // over the same seeds (fresh compilation every time).
            let reports: Vec<_> = (0..RUNS)
                .map(|i| {
                    CompiledCircuit::compile(&circuit, &config)
                        .unwrap()
                        .run(design, SEED + i as u64)
                        .unwrap()
                })
                .collect();
            let expected = dqc::AveragedReport::from_runs(&reports);
            assert_eq!(got.report, expected, "{bench}/{design}");
        }
    }
}

#[test]
fn sweep_reports_one_compilation_per_cell() {
    // `SweepResult::compilations` is exact and race-free; the exact
    // process-global `compile_count()` delta is asserted in
    // tests/compile_once.rs, which runs as its own single-test process
    // (the counter is shared by every test in a binary, so exact deltas
    // here would race under parallel test threads).
    let result = Sweep::new()
        .benchmarks(SWEEP_BENCHES)
        .config("c10", SystemConfig::paper_two_node_32())
        .config(
            "c20",
            SystemConfig::paper_two_node_32().with_comm_and_buffer(20),
        )
        .designs(&Design::ALL)
        .runs(RUNS)
        .base_seed(SEED)
        .run()
        .unwrap();
    assert_eq!(
        result.compilations,
        SWEEP_BENCHES.len() * 2,
        "2 benchmarks × 2 configs compile 4 times — not once per seed or design"
    );
}

#[test]
fn experiment_shares_one_compilation_across_designs() {
    use std::sync::Arc;
    let circuit = PaperBenchmark::Tlim32.circuit();
    let config = SystemConfig::paper_two_node_32();
    let experiment = Experiment::new(&circuit, &config).unwrap();
    for design in Design::ALL {
        let per_design = experiment.clone().design(design).runs(RUNS).base_seed(SEED);
        // Cloned experiments point at the *same* compilation — no copy,
        // no recompile.
        assert!(
            Arc::ptr_eq(experiment.compiled(), per_design.compiled()),
            "{design} must share the original compilation"
        );
        let _ = per_design.run().unwrap();
    }
}

#[test]
fn sweep_ordering_is_independent_of_thread_count() {
    let grid = |threads| {
        Sweep::new()
            .benchmarks(SWEEP_BENCHES)
            .config("paper", SystemConfig::paper_two_node_32())
            .designs(&Design::ALL)
            .runs(2)
            .base_seed(7)
            .threads(threads)
            .run()
            .unwrap()
    };
    let one = grid(1);
    let many = grid(8);
    for (a, b) in one.cells.iter().zip(&many.cells) {
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.design, b.design);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn zero_runs_surface_as_errors_everywhere() {
    let circuit = PaperBenchmark::Tlim32.circuit();
    let config = SystemConfig::paper_two_node_32();
    let from_experiment = Experiment::new(&circuit, &config)
        .unwrap()
        .runs(0)
        .run()
        .unwrap_err();
    assert_eq!(from_experiment, DqcError::ZeroRuns);
    let from_sweep = Sweep::new()
        .benchmark(PaperBenchmark::Tlim32)
        .config("paper", config.clone())
        .designs(&Design::ALL)
        .runs(0)
        .run()
        .unwrap_err();
    assert_eq!(from_sweep, DqcError::ZeroRuns);
    let from_space = dqc::DesignSpace::new(config)
        .designs(&[Design::AsyncBuf])
        .evaluate(&circuit, &[0], 0, 0, 0)
        .unwrap_err();
    assert_eq!(from_space, DqcError::ZeroRuns);
}
