//! Cartesian evaluation grids with a thread-based parallel runner.
//!
//! The paper's evaluation is a grid: {benchmark × design × configuration}
//! × 50 seeds. [`Sweep`] executes that grid with three guarantees:
//!
//! 1. **Compile-once** — each (circuit, config) pair is compiled into a
//!    [`crate::CompiledCircuit`] exactly once and shared by every design
//!    and seed that uses it.
//! 2. **Deterministic seeding** — every cell runs seeds
//!    `base_seed .. base_seed + runs` whatever the thread count, so
//!    parallel results are identical to sequential ones.
//! 3. **Ordered collection** — results come back in grid order (circuit ×
//!    config × design, row-major) no matter which worker finished first.
//!
//! `Sweep` is the free-form, string-labeled front end: any
//! [`SystemConfig`] under any label, over the shared grid engine in
//! [`crate::grid`]. The typed layer reaches the same engine through
//! [`crate::DesignSpace::evaluate`], which evaluates the points of a
//! space of standard co-design axes on one circuit.

use crate::grid::GridPlan;
use crate::{AveragedReport, Design, DqcError, SystemConfig};
use dqc_circuit::Circuit;
use dqc_types::{Json, JsonError};

/// One completed cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Label of the circuit axis entry (e.g. the benchmark name).
    pub circuit: String,
    /// Label of the configuration axis entry.
    pub config: String,
    /// The design this cell evaluated.
    pub design: Design,
    /// The averaged result over the cell's seed range.
    pub report: AveragedReport,
}

/// Results of a completed sweep, in grid order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One cell per (circuit, config, design), row-major in that order.
    pub cells: Vec<SweepCell>,
    /// Number of `CompiledCircuit`s built: always exactly
    /// `circuits × configs`, independent of designs, runs, and threads.
    pub compilations: usize,
}

impl SweepCell {
    /// Serializes the cell for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("circuit", Json::from(self.circuit.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("design", Json::from(self.design.name())),
            ("report", self.report.to_json()),
        ])
    }

    /// Reads a cell back from [`SweepCell::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            circuit: json.str_field("circuit")?.to_string(),
            config: json.str_field("config")?.to_string(),
            design: crate::report::design_field(json)?,
            report: AveragedReport::from_json(json.field("report")?)?,
        })
    }
}

impl SweepResult {
    /// Serializes the full grid (cells in grid order, plus the
    /// compilation count) for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("compilations", Json::from(self.compilations)),
            (
                "cells",
                Json::Array(self.cells.iter().map(SweepCell::to_json).collect()),
            ),
        ])
    }

    /// Reads a grid back from [`SweepResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            compilations: json.usize_field("compilations")?,
            cells: json
                .array_field("cells")?
                .iter()
                .map(SweepCell::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The cells of one (circuit, config) panel, in design order — one
    /// figure panel of the paper.
    pub fn panel(&self, circuit: &str, config: &str) -> Vec<&SweepCell> {
        self.cells
            .iter()
            .filter(|c| c.circuit == circuit && c.config == config)
            .collect()
    }

    /// Looks up a single cell.
    pub fn cell(&self, circuit: &str, config: &str, design: Design) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.circuit == circuit && c.config == config && c.design == design)
    }
}

/// A cartesian grid of benchmarks × configurations × designs, executed by
/// a thread pool with deterministic per-cell seeding.
///
/// # Examples
///
/// ```
/// use dqc_core::{Design, Sweep, SystemConfig};
/// use dqc_workloads::PaperBenchmark;
///
/// # fn main() -> Result<(), dqc_core::DqcError> {
/// let result = Sweep::new()
///     .benchmark(PaperBenchmark::Tlim32)
///     .config("paper", SystemConfig::paper_two_node_32())
///     .designs(&[Design::Original, Design::AsyncBuf, Design::Ideal])
///     .runs(5)
///     .run()?;
/// assert_eq!(result.cells.len(), 3);
/// assert_eq!(result.compilations, 1); // one circuit × one config
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    circuits: Vec<(String, Circuit)>,
    configs: Vec<(String, SystemConfig)>,
    designs: Vec<Design>,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl Default for Sweep {
    /// Same as [`Sweep::new`] — in particular, one run per cell, so a
    /// default-constructed sweep is runnable once its axes are filled.
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// Starts an empty sweep: no axes, one run per cell, base seed 0,
    /// thread count chosen from the machine's available parallelism.
    pub fn new() -> Self {
        Self {
            circuits: Vec::new(),
            configs: Vec::new(),
            designs: Vec::new(),
            runs: 1,
            base_seed: 0,
            threads: 0,
        }
    }

    /// Adds a labelled circuit to the benchmark axis.
    #[must_use]
    pub fn circuit(mut self, label: impl Into<String>, circuit: Circuit) -> Self {
        self.circuits.push((label.into(), circuit));
        self
    }

    /// Adds a paper benchmark to the benchmark axis (label = paper name).
    #[must_use]
    pub fn benchmark(self, bench: dqc_workloads::PaperBenchmark) -> Self {
        self.circuit(bench.to_string(), bench.circuit())
    }

    /// Adds several paper benchmarks.
    #[must_use]
    pub fn benchmarks(
        mut self,
        benches: impl IntoIterator<Item = dqc_workloads::PaperBenchmark>,
    ) -> Self {
        for b in benches {
            self = self.benchmark(b);
        }
        self
    }

    /// Adds a labelled system configuration to the config axis.
    #[must_use]
    pub fn config(mut self, label: impl Into<String>, config: SystemConfig) -> Self {
        self.configs.push((label.into(), config));
        self
    }

    /// Sets the design axis.
    #[must_use]
    pub fn designs(mut self, designs: &[Design]) -> Self {
        self.designs = designs.to_vec();
        self
    }

    /// Sets the seeded runs averaged per cell.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed; every cell runs seeds
    /// `base_seed .. base_seed + runs`.
    #[must_use]
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Caps the worker thread count (0 = use available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Executes the grid and collects results in grid order.
    ///
    /// # Errors
    ///
    /// [`DqcError::EmptySweep`] when an axis is empty,
    /// [`DqcError::ZeroRuns`] when `runs == 0`, any compile error from the
    /// compile phase, and otherwise the first cell error **in grid order**
    /// (deterministic regardless of thread scheduling).
    pub fn run(&self) -> Result<SweepResult, DqcError> {
        if self.circuits.is_empty() {
            return Err(DqcError::EmptySweep { axis: "circuits" });
        }
        if self.configs.is_empty() {
            return Err(DqcError::EmptySweep { axis: "configs" });
        }
        if self.designs.is_empty() {
            return Err(DqcError::EmptySweep { axis: "designs" });
        }
        if self.runs == 0 {
            return Err(DqcError::ZeroRuns);
        }

        // Reduce the string-labeled grid to a plan for the shared engine:
        // every (circuit, config) pair is one compile unit (row-major),
        // every (pair, design) one cell; the goldens under `tests/golden/`
        // pin the results.
        let pairs: Vec<(usize, usize)> = (0..self.circuits.len())
            .flat_map(|ci| (0..self.configs.len()).map(move |ki| (ci, ki)))
            .collect();
        let cells: Vec<(usize, Design)> = (0..pairs.len())
            .flat_map(|pair_idx| self.designs.iter().map(move |&design| (pair_idx, design)))
            .collect();
        let plan = GridPlan {
            circuits: self.circuits.iter().map(|(_, c)| c).collect(),
            configs: self.configs.iter().map(|(_, c)| c).collect(),
            pairs,
            cells,
            runs: self.runs,
            base_seed: self.base_seed,
            threads: self.threads,
        };
        let compilations = plan.pairs.len();
        let reports = plan.execute()?;

        let mut out = Vec::with_capacity(reports.len());
        let mut report_iter = reports.into_iter();
        for (circuit_label, _) in &self.circuits {
            for (config_label, _) in &self.configs {
                for &design in &self.designs {
                    out.push(SweepCell {
                        circuit: circuit_label.clone(),
                        config: config_label.clone(),
                        design,
                        report: report_iter.next().expect("one report per cell"),
                    });
                }
            }
        }
        Ok(SweepResult {
            cells: out,
            compilations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::PaperBenchmark;

    #[test]
    fn empty_axes_are_rejected() {
        let base = Sweep::new()
            .benchmark(PaperBenchmark::Tlim32)
            .config("paper", SystemConfig::paper_two_node_32())
            .designs(&[Design::Ideal]);
        assert_eq!(
            Sweep::new().run().unwrap_err(),
            DqcError::EmptySweep { axis: "circuits" }
        );
        assert_eq!(
            base.clone().designs(&[]).run().unwrap_err(),
            DqcError::EmptySweep { axis: "designs" }
        );
        assert_eq!(base.runs(0).run().unwrap_err(), DqcError::ZeroRuns);
    }

    #[test]
    fn grid_order_is_row_major() {
        let result = Sweep::new()
            .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::Qft32])
            .config("paper", SystemConfig::paper_two_node_32())
            .designs(&[Design::Original, Design::Ideal])
            .runs(1)
            .run()
            .unwrap();
        let order: Vec<(String, Design)> = result
            .cells
            .iter()
            .map(|c| (c.circuit.clone(), c.design))
            .collect();
        assert_eq!(
            order,
            vec![
                ("TLIM-32".to_string(), Design::Original),
                ("TLIM-32".to_string(), Design::Ideal),
                ("QFT-32".to_string(), Design::Original),
                ("QFT-32".to_string(), Design::Ideal),
            ]
        );
        assert_eq!(result.compilations, 2);
    }

    #[test]
    fn parallel_and_single_threaded_agree() {
        // Two remote-fidelity tables: the paper's local fidelities and
        // degraded ones, so workers fill four table halves.
        let mut degraded = SystemConfig::paper_two_node_32();
        degraded.fidelities.two_qubit = 0.98;
        let grid = || {
            Sweep::new()
                .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::QaoaR4_32])
                .config("paper", SystemConfig::paper_two_node_32())
                .config("degraded", degraded.clone())
                .designs(&Design::ALL)
                .runs(3)
                .base_seed(11)
        };
        let serial = grid().threads(1).run().unwrap();
        for threads in [2, 8] {
            let parallel = grid().threads(threads).run().unwrap();
            assert_eq!(parallel.cells.len(), serial.cells.len());
            for (p, s) in parallel.cells.iter().zip(&serial.cells) {
                assert_eq!(p.design, s.design);
                assert_eq!(
                    p.report, s.report,
                    "{}/{}/{} at {threads} threads",
                    p.circuit, p.config, p.design
                );
            }
        }
    }

    #[test]
    fn first_error_in_grid_order_wins() {
        // QFT-64 does not fit the 32-qubit system: its cells fail at
        // compile time, before any thread runs.
        let err = Sweep::new()
            .circuit("qft64", dqc_workloads::qft(64))
            .config("small", SystemConfig::paper_two_node_32())
            .designs(&[Design::Ideal])
            .run()
            .unwrap_err();
        assert!(matches!(err, DqcError::CircuitTooWide { qubits: 64, .. }));
    }

    #[test]
    fn sweep_result_json_round_trips_through_text() {
        let result = Sweep::new()
            .benchmark(PaperBenchmark::Tlim32)
            .config("paper", SystemConfig::paper_two_node_32())
            .designs(&[Design::Original, Design::Ideal])
            .runs(2)
            .run()
            .unwrap();
        let text = result.to_json().to_pretty_string();
        let back = SweepResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.compilations, result.compilations);
        assert_eq!(back.cells.len(), result.cells.len());
        for (a, b) in result.cells.iter().zip(&back.cells) {
            assert_eq!(a.circuit, b.circuit);
            assert_eq!(a.config, b.config);
            assert_eq!(a.design, b.design);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn panel_lookup_filters_cells() {
        let result = Sweep::new()
            .benchmark(PaperBenchmark::Tlim32)
            .config("a", SystemConfig::paper_two_node_32())
            .config(
                "b",
                SystemConfig::paper_two_node_32().with_comm_and_buffer(20),
            )
            .designs(&[Design::AsyncBuf, Design::Ideal])
            .runs(2)
            .run()
            .unwrap();
        let panel = result.panel("TLIM-32", "b");
        assert_eq!(panel.len(), 2);
        assert!(result.cell("TLIM-32", "a", Design::AsyncBuf).is_some());
        assert!(result.cell("TLIM-32", "a", Design::AdaptBuf).is_none());
    }
}
