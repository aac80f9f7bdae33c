//! `dqc-analyze` — the static diagnostics engine.
//!
//! Every other layer of this workspace discovers misconfiguration
//! *dynamically*: a circuit wider than the hardware point fails inside
//! `CompiledCircuit::compile`, an entanglement-starved
//! hardware point stretches a live engine run, a degenerate `ServeConfig`
//! surprises a running daemon. This crate reports those properties
//! **before any simulation budget is spent**, over circuits,
//! [`SystemConfig`] hardware points, [`DesignSpace`] points and
//! [`ServeConfig`]s, as the coded, JSON-round-tripping [`Diagnostic`]
//! taxonomy from `dqc_types::diag`.
//!
//! The analyzer writes no refusal rule of its own. What the engine
//! refuses, it asks the engine: [`CompiledCircuit::refusals`] for the
//! static checks, [`CompiledCircuit::supports`] for the
//! communication-qubit rule, and [`DqcError::diagnostic`] to turn a
//! refusal into a finding — so a refused compile and an analyzer error
//! always carry the same code and text.
//!
//! The passes:
//!
//! * **Circuit lints** — unused qubits (`DQC-W001`), gates applied after
//!   a qubit's measurement (`DQC-W002`), fully serialized multi-qubit
//!   circuits with zero schedule slack (`DQC-W004`).
//! * **Admission** — the compiler's static refusals, O(ops): width vs.
//!   data capacity (`DQC-E001`), topology node-count mismatch
//!   (`DQC-E004`), disconnected multi-node topology (`DQC-E005`), an
//!   operation fidelity outside `[0, 1]` (`DQC-E013`).
//! * **Link feasibility** — on the compilation the engine itself builds:
//!   remote gates with no communication qubits (`DQC-E006`), and per-link
//!   EPR demand so far beyond generation capacity that entanglement
//!   dominates the schedule (`DQC-W003`).
//! * **Serve-config validation** — re-exported from
//!   [`ServeConfig::validate`]: queue, quota and rate invariants
//!   (`DQC-E009`, `DQC-E010`, `DQC-E012`) and a disabled compile cache
//!   (`DQC-W006`).
//!
//! # Examples
//!
//! Prove a width refusal without compiling:
//!
//! ```
//! use dqc_analyze::Analyzer;
//! use dqc_core::SystemConfig;
//! use dqc_workloads::PaperBenchmark;
//!
//! let config = SystemConfig::paper_two_node_32(); // 2 × 16 data qubits
//! let circuit = PaperBenchmark::QaoaR4_64.circuit(); // 64 qubits
//! let report = Analyzer::new().analyze_circuit("QAOA-r4-64", &circuit, &config);
//! assert!(report.codes().any(|c| c == "DQC-E001"));
//! ```

use dqc_circuit::{Circuit, Gate};
use dqc_core::{CompiledCircuit, Design, DesignSpace, DqcError, SystemConfig};
use dqc_serve::ServeConfig;
use dqc_types::{Diagnostic, Site};
use std::collections::BTreeMap;

mod report;

pub use report::AnalysisReport;

/// `DQC-W003` fires when the estimated entanglement-generation time
/// exceeds the circuit's critical path by this factor. 32× sits ~3×
/// above the paper corpus's worst case (QFT-32 at ~10×), so the shipped
/// benchmarks analyze clean while an entanglement-starved configuration
/// is still caught.
const EPR_STRETCH_THRESHOLD: f64 = 32.0;

/// `DQC-W004` ignores circuits shorter than this (a handful of serial
/// gates is not a scheduling hazard).
const MIN_SERIALIZED_OPS: usize = 8;

/// The static analyzer: a bundle of pure passes over circuits, system
/// configurations, design spaces, and serve configs. Stateless; its
/// thresholds are constants.
///
/// Every `analyze_*` method returns an [`AnalysisReport`]; reports
/// merge, so a front end can fold many subjects into one document.
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    /// The analyzer.
    pub fn new() -> Self {
        Self
    }

    /// Runs every circuit-level pass: lints, admission, and (when the
    /// circuit can compile on a multi-node system) link feasibility.
    pub fn analyze_circuit(
        &self,
        label: &str,
        circuit: &Circuit,
        config: &SystemConfig,
    ) -> AnalysisReport {
        let mut report = self.lint_circuit(label, circuit);
        report.merge(self.analyze_admission(label, circuit, config));
        // The link pass compiles; skip it when admission already proves
        // the compile would be refused.
        if !report.has_errors() && config.num_nodes > 1 {
            report.merge(self.check_links(label, circuit, config));
        }
        report
    }

    /// The cheap O(ops) admission subset: every static refusal of
    /// [`CompiledCircuit::refusals`] (`DQC-E001`, `DQC-E004`,
    /// `DQC-E005`, `DQC-E013`), without partitioning or scheduling
    /// anything. This is what the `dqc-served` daemon runs on its wire
    /// path before spending queue space on a submission.
    pub fn analyze_admission(
        &self,
        label: &str,
        circuit: &Circuit,
        config: &SystemConfig,
    ) -> AnalysisReport {
        findings(label, CompiledCircuit::refusals(circuit, config))
    }

    /// The execution-free circuit lints: `DQC-W001` (unused qubit),
    /// `DQC-W002` (gate after measurement), `DQC-W004` (zero slack).
    pub fn lint_circuit(&self, label: &str, circuit: &Circuit) -> AnalysisReport {
        let mut report = AnalysisReport::default();
        let mut touched = vec![false; circuit.num_qubits() as usize];
        let mut measured_at: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];
        let mut flagged_after_measure = vec![false; circuit.num_qubits() as usize];
        for (index, op) in circuit.operations().iter().enumerate() {
            for &qubit in op.qubits() {
                let q = qubit.index() as usize;
                touched[q] = true;
                if let Some(measure_index) = measured_at[q] {
                    if !flagged_after_measure[q] {
                        flagged_after_measure[q] = true;
                        report.push(Diagnostic::new(
                            "DQC-W002",
                            Site::Gate {
                                circuit: label.to_string(),
                                index,
                            },
                            format!(
                                "{} acts on qubit {q} after its measurement at op #{measure_index}",
                                op.gate()
                            ),
                            "move the measurement after the qubit's last gate, or drop it",
                        ));
                    }
                }
                if op.gate() == Gate::Measure {
                    measured_at[q].get_or_insert(index);
                }
            }
        }
        for (q, touched) in touched.iter().enumerate() {
            if !touched {
                report.push(Diagnostic::new(
                    "DQC-W001",
                    Site::Qubit {
                        circuit: label.to_string(),
                        qubit: q as u32,
                    },
                    format!("qubit {q} is declared but never operated on"),
                    "narrow the circuit width or add the missing operations",
                ));
            }
        }
        // Zero slack: every operation sits alone in its dependency layer,
        // so nothing can ever run in parallel and distribution buys no
        // depth. `depth()` is the DAG's critical-path length in layers.
        if circuit.num_qubits() >= 2
            && circuit.len() >= MIN_SERIALIZED_OPS
            && circuit.depth() == circuit.len()
        {
            report.push(Diagnostic::new(
                "DQC-W004",
                Site::Circuit(label.to_string()),
                format!(
                    "all {} operations form one serial chain (critical path = circuit \
                     length, zero schedule slack)",
                    circuit.len()
                ),
                "restructure for parallelism (e.g. a tree instead of a chain)",
            ));
        }
        report
    }

    /// The link-feasibility pass, on the engine's own compilation:
    /// `DQC-E006` when a design is unsupported (remote gates but no
    /// communication qubits), else `DQC-W003` when the busiest link's
    /// EPR demand far outruns its generation.
    fn check_links(&self, label: &str, circuit: &Circuit, config: &SystemConfig) -> AnalysisReport {
        let Ok(compiled) = CompiledCircuit::compile(circuit, config) else {
            return AnalysisReport::default(); // a partitioner failure proves nothing
        };
        if Design::ALL
            .into_iter()
            .any(|design| !compiled.supports(design))
        {
            return findings(label, [DqcError::NoEntanglementPossible]);
        }
        let mut report = AnalysisReport::default();
        let map = compiled.qubit_map();
        let links_per_gate = config.remote_protocol.links_per_gate();
        // Demand per physical link: every remote gate consumes
        // `links_per_gate` end-to-end pairs; over a sparse topology each
        // pair is built by swap chains that occupy every edge of the
        // route. A link generates at most one attempt per comm qubit per
        // EPR cycle, each succeeding with `success_probability`.
        let mut demand: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for op in circuit.operations() {
            if !map.is_remote(op) {
                continue;
            }
            let a = map.node_of(op.qubits()[0]);
            let b = map.node_of(op.qubits()[1]);
            match compiled.routing() {
                Some(table) => {
                    if let Some(route) = table.route(a, b) {
                        for (x, y) in route.edges() {
                            let key = ordered(x.index() as usize, y.index() as usize);
                            *demand.entry(key).or_insert(0) += links_per_gate;
                        }
                    }
                }
                None => {
                    let key = ordered(a.index() as usize, b.index() as usize);
                    *demand.entry(key).or_insert(0) += links_per_gate;
                }
            }
        }
        let Some((&(a, b), &peak)) = demand.iter().max_by_key(|(_, &count)| count) else {
            return report;
        };
        let rate = config.comm_qubits_per_node as f64 * config.success_probability;
        let generation_ticks =
            peak as f64 * config.latencies.epr_cycle.ticks() as f64 / rate.max(f64::MIN_POSITIVE);
        let critical_path_ticks = (circuit.timed_depth().ticks() as f64).max(1.0);
        let stretch = generation_ticks / critical_path_ticks;
        if stretch > EPR_STRETCH_THRESHOLD {
            report.push(Diagnostic::new(
                "DQC-W003",
                Site::Link { a, b },
                format!(
                    "link {a}-{b} must supply {peak} EPR pairs, ~{generation_ticks:.0} ticks \
                     of generation against a {critical_path_ticks:.0}-tick critical path \
                     ({stretch:.1}x stretch) for `{label}`"
                ),
                "add comm qubits, raise the success probability, or cut fewer gates \
                 across this link",
            ));
        }
        report
    }

    /// Analyzes every point of a design space against a circuit,
    /// error-level checks only — the prefilter `dqc-codesign` runs before
    /// spending replay budget. Returns the statically infeasible point
    /// indices with the proof for each.
    pub fn infeasible_points(
        &self,
        space: &DesignSpace,
        circuit_label: &str,
        circuit: &Circuit,
        indices: &[usize],
    ) -> Vec<(usize, AnalysisReport)> {
        let mut pruned = Vec::new();
        for &index in indices {
            let Ok(point) = space.point(index) else {
                continue; // out-of-range indices fail in the sweep itself
            };
            let refusals = CompiledCircuit::refusals(circuit, &space.realize(&point).config);
            if !refusals.is_empty() {
                pruned.push((
                    index,
                    findings(&format!("{circuit_label}@{index}"), refusals),
                ));
            }
        }
        pruned
    }

    /// Validates a serving configuration (delegates to
    /// [`ServeConfig::validate`], which owns the invariants).
    pub fn analyze_serve_config(&self, config: &ServeConfig) -> AnalysisReport {
        AnalysisReport::from(config.validate())
    }
}

/// Turns engine refusals into findings about the circuit `label`.
fn findings(label: &str, refusals: impl IntoIterator<Item = DqcError>) -> AnalysisReport {
    AnalysisReport::from(
        refusals
            .into_iter()
            .filter_map(|refusal| refusal.diagnostic(label))
            .collect::<Vec<_>>(),
    )
}

/// Orders a node pair so links hash consistently regardless of gate
/// direction.
fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}
