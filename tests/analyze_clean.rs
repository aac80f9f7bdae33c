//! The static analyzer's two-sided contract, pinned against the shipped
//! corpus and a fixture per diagnostic code:
//!
//! * **No false positives** — everything the repo ships (every paper
//!   benchmark on its matching hardware point, the committed daemon
//!   configuration, the default `ServeConfig`) analyzes completely
//!   clean, warnings included.
//! * **No dead codes** — every code in `dqc_types::diag::REGISTRY` has a
//!   minimal fixture here that triggers exactly it, and a coverage
//!   assertion fails the suite if a registered code has no fixture.
//! * **No invented refusals** — on every circuit × hardware subject, the
//!   analyzer's errors are exactly the codes the engine itself refuses
//!   with, at compile time or on replay.

use dqc::analyze::{AnalysisReport, Analyzer};
use dqc::circuit::Circuit;
use dqc::core::{CompiledCircuit, RemoteProtocol};
use dqc::entanglement::NetworkTopology;
use dqc::serve::{QuotaConfig, RateLimit};
use dqc::types::diag::REGISTRY;
use dqc::workloads::{ghz_tree, qft, PaperBenchmark};
use dqc::{Design, ServeConfig, SystemConfig};
use std::collections::BTreeSet;

fn paper_config(bench: PaperBenchmark) -> SystemConfig {
    match bench.num_qubits() {
        32 => SystemConfig::paper_two_node_32(),
        _ => SystemConfig::paper_two_node_64(),
    }
}

// ------------------------------------------------------ no false positives

#[test]
fn shipped_benchmarks_analyze_clean_on_their_points() {
    let analyzer = Analyzer::new();
    for bench in PaperBenchmark::ALL {
        let report =
            analyzer.analyze_circuit(&bench.to_string(), &bench.circuit(), &paper_config(bench));
        assert!(report.is_clean(), "{bench} has findings: {report}");
    }
}

#[test]
fn committed_daemon_config_analyzes_clean() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/served.json");
    let text = std::fs::read_to_string(path).expect("configs/served.json is committed");
    let json = dqc::types::Json::parse(&text).expect("valid JSON");
    let config = ServeConfig::from_json(&json).expect("valid serving configuration");
    let report = Analyzer::new().analyze_serve_config(&config);
    assert!(report.is_clean(), "configs/served.json: {report}");
}

#[test]
fn default_serve_config_analyzes_clean() {
    let report = Analyzer::new().analyze_serve_config(&ServeConfig::default());
    assert!(report.is_clean(), "default ServeConfig: {report}");
}

// ----------------------------------------------------------- no dead codes

/// The circuit × hardware subject of each code the circuit passes
/// report, as (label, circuit, config).
fn circuit_fixture(code: &str) -> Option<(&'static str, Circuit, SystemConfig)> {
    let paper = SystemConfig::paper_two_node_32;
    let subject = match code {
        // 40 data qubits can never fit 2 × 16. (Tree, not chain — a
        // chain would also trip the serialization lint.)
        "DQC-E001" => ("ghz-40", ghz_tree(40), paper()),
        // A 3-node graph contradicts the declared 2-node system.
        "DQC-E004" => {
            let mut config = paper();
            config.topology = Some(NetworkTopology::chain(3));
            ("ghz-32", ghz_tree(32), config)
        }
        // Node 2 has no route to anyone.
        "DQC-E005" => {
            let disconnected = NetworkTopology::from_edges(3, &[(0, 1)]);
            ("ghz-32", ghz_tree(32), paper().with_topology(disconnected))
        }
        // Remote gates with zero communication qubits.
        "DQC-E006" => {
            let mut config = paper();
            config.comm_qubits_per_node = 0;
            ("ghz-32", ghz_tree(32), config)
        }
        // A readout fidelity above 1 is no probability.
        "DQC-E013" => {
            let mut config = paper();
            config.fidelities.measurement = 1.5;
            ("ghz-32", ghz_tree(32), config)
        }
        // One comm qubit at 40% success against QFT-32's ~256 remote
        // gates: generation dwarfs the critical path ~100-fold.
        "DQC-W003" => {
            let mut config = paper();
            config.comm_qubits_per_node = 1;
            ("qft-32", qft(32), config)
        }
        _ => return None,
    };
    Some(subject)
}

/// Each fixture returns the report that must contain its code (and may
/// contain nothing *else* unless noted — asserted per fixture).
fn fixture(code: &str) -> AnalysisReport {
    let analyzer = Analyzer::new();
    if let Some((label, circuit, config)) = circuit_fixture(code) {
        return analyzer.analyze_circuit(label, &circuit, &config);
    }
    match code {
        "DQC-E009" => {
            let config = ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            };
            analyzer.analyze_serve_config(&config)
        }
        "DQC-E010" => {
            let config = ServeConfig {
                quota: QuotaConfig {
                    rate: Some(RateLimit {
                        per_sec: 0.0,
                        burst: 8.0,
                    }),
                    ..QuotaConfig::default()
                },
                ..ServeConfig::default()
            };
            analyzer.analyze_serve_config(&config)
        }
        "DQC-E012" => {
            let config = ServeConfig {
                quota: QuotaConfig {
                    max_in_flight: Some(0),
                    ..QuotaConfig::default()
                },
                ..ServeConfig::default()
            };
            analyzer.analyze_serve_config(&config)
        }
        "DQC-W001" => {
            // Qubit 2 is declared but untouched.
            let mut circuit = Circuit::new(3);
            circuit.h(0).cx(0, 1);
            analyzer.lint_circuit("wasteful", &circuit)
        }
        "DQC-W002" => {
            // A gate lands on qubit 0 after its measurement.
            let mut circuit = Circuit::new(2);
            circuit.h(0).measure(0).cx(0, 1);
            analyzer.lint_circuit("post-measure", &circuit)
        }
        "DQC-W004" => {
            // A GHZ chain is one serial dependency chain.
            analyzer.lint_circuit("ghz-8", &dqc::workloads::ghz_chain(8))
        }
        "DQC-W006" => {
            let config = ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            };
            analyzer.analyze_serve_config(&config)
        }
        other => panic!("no fixture for `{other}` — add one to tests/analyze_clean.rs"),
    }
}

#[test]
fn every_registered_code_has_a_triggering_fixture() {
    let mut covered = BTreeSet::new();
    for info in REGISTRY {
        let report = fixture(info.code);
        assert!(
            report.codes().any(|c| c == info.code),
            "fixture for {} produced {report}",
            info.code
        );
        // Fixtures are minimal: exactly one finding, with the right
        // severity, that survives a JSON round trip.
        assert_eq!(
            report.diagnostics().len(),
            1,
            "{} fixture is not minimal: {report}",
            info.code
        );
        let diagnostic = &report.diagnostics()[0];
        assert_eq!(diagnostic.severity, info.severity, "{}", info.code);
        let json = diagnostic.to_json();
        assert_eq!(
            dqc::types::Diagnostic::from_json(&json).unwrap(),
            *diagnostic,
            "{} does not round-trip",
            info.code
        );
        covered.insert(info.code);
    }
    assert_eq!(covered.len(), REGISTRY.len(), "a code ran no fixture");
}

// ---------------------------------------------------- no invented refusals

/// The codes the engine itself refuses a pair with: the compile refusal,
/// or else every design's replay refusal.
fn engine_refusal_codes(circuit: &Circuit, config: &SystemConfig) -> Vec<&'static str> {
    let refusals = match CompiledCircuit::compile(circuit, config) {
        Err(refusal) => vec![refusal],
        Ok(compiled) => Design::ALL
            .into_iter()
            .filter_map(|design| compiled.run(design, 7).err())
            .collect(),
    };
    let mut codes: Vec<&'static str> = refusals
        .iter()
        .map(|e| e.code().unwrap_or_else(|| panic!("uncoded refusal: {e}")))
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

#[test]
fn analyzer_errors_are_exactly_the_engine_refusals() {
    let paper = SystemConfig::paper_two_node_32;
    // Teledata holds two pairs per remote gate, but a node with one comm
    // and no buffer qubit still serves it, one pair at a time.
    let teledata = SystemConfig {
        remote_protocol: RemoteProtocol::StateTeleport,
        comm_qubits_per_node: 1,
        buffer_qubits_per_node: 0,
        ..paper()
    };
    let qaoa = PaperBenchmark::QaoaR8_32.circuit();
    let mut subjects: Vec<(&str, Circuit, SystemConfig)> = REGISTRY
        .iter()
        .filter_map(|info| circuit_fixture(info.code))
        .collect();
    subjects.extend([
        ("ghz-32", ghz_tree(32), teledata.clone()),
        ("qft-32", qft(32), teledata),
        ("QAOA-r8-32", qaoa.clone(), paper()),
        (
            "QAOA-r8-32",
            qaoa,
            paper().with_topology(NetworkTopology::ring(4)),
        ),
    ]);
    for (label, circuit, config) in &subjects {
        let report = Analyzer::new().analyze_circuit(label, circuit, config);
        let mut errors: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code)
            .collect();
        errors.sort_unstable();
        assert_eq!(
            errors,
            engine_refusal_codes(circuit, config),
            "{label} on {config:?}: {report}"
        );
    }
}
