//! # dqc — hardware-software co-design for distributed quantum computing
//!
//! A full-system reproduction of *"Hardware-Software Co-design for
//! Distributed Quantum Computing"* (DAC 2025): entanglement **buffering**,
//! **asynchronous** remote entanglement generation, and **adaptive**
//! remote-gate scheduling, evaluated by discrete-event simulation under the
//! paper's Table II device model.
//!
//! This facade crate re-exports the entire workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `dqc-types` | ids, [`types::Tick`], [`types::Fidelity`] |
//! | [`circuit`] | `dqc-circuit` | circuit IR, commutation, QASM |
//! | [`workloads`] | `dqc-workloads` | TLIM / QAOA / QFT generators |
//! | [`partition`] | `dqc-partition` | METIS-style multilevel partitioner |
//! | [`sim`] | `dqc-sim` | statevector / density / stabilizer simulators |
//! | [`entanglement`] | `dqc-entanglement` | EPR generation + buffer service |
//! | [`core`] | `dqc-core` | the co-designed architecture + engine |
//! | [`analyze`] | `dqc-analyze` | static diagnostics: coded lints + feasibility proofs |
//! | [`codesign`] | `dqc-codesign` | design-space search + Pareto frontier |
//! | [`serve`] | `dqc-serve` | sharded compile-once serving layer |
//! | [`served`] | `dqc-served` | TCP daemon: frame protocol, QASM front door, quotas |
//! | [`obs`] | `dqc-obs` | tracing spans, metrics registry, profiling captures |
//!
//! The evaluation engine's main types — [`CompiledCircuit`],
//! [`Experiment`], [`Sweep`], [`Design`], [`SystemConfig`], [`DqcError`] —
//! the typed co-design layer ([`DesignSpace`], [`ScenarioKey`],
//! [`Codesign`], [`CostModel`]), and the
//! network-topology types ([`NetworkTopology`], [`TopologyFamily`],
//! [`RoutingTable`]), and the serving layer
//! ([`Server`], [`ServeBuilder`], [`ServeConfig`], [`EvalRequest`],
//! [`ServeStats`], plus the network daemon's
//! [`Served`], [`ServedClient`], [`Submission`], and the static
//! analyzer's [`Analyzer`] and [`AnalysisReport`]) are additionally
//! re-exported at the crate root.
//!
//! # Quickstart
//!
//! Compile a benchmark once, then run any design over any seed range:
//!
//! ```
//! use dqc::workloads::PaperBenchmark;
//! use dqc::{Design, Experiment, SystemConfig};
//!
//! # fn main() -> Result<(), dqc::DqcError> {
//! let circuit = PaperBenchmark::QaoaR4_32.circuit();
//! let config = SystemConfig::paper_two_node_32();
//! let experiment = Experiment::new(&circuit, &config)?; // compiles once
//! let avg = experiment.clone().design(Design::AdaptBuf).runs(20).run()?;
//! println!(
//!     "adapt_buf: depth {:.1} CNOT-units ({:.2}x ideal), fidelity {:.3}",
//!     avg.mean_depth, avg.mean_depth_relative, avg.mean_fidelity
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Reproduce a whole paper figure as one parallel [`Sweep`]:
//!
//! ```
//! use dqc::workloads::PaperBenchmark;
//! use dqc::{Design, Sweep, SystemConfig};
//!
//! # fn main() -> Result<(), dqc::DqcError> {
//! let result = Sweep::new()
//!     .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::QaoaR4_32])
//!     .config("paper", SystemConfig::paper_two_node_32())
//!     .designs(&Design::ALL)
//!     .runs(5)
//!     .run()?; // thread-parallel, deterministic, ordered
//! for cell in &result.cells {
//!     println!("{} / {}: {}", cell.circuit, cell.design, cell.report);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dqc_analyze as analyze;
pub use dqc_circuit as circuit;
pub use dqc_codesign as codesign;
pub use dqc_core as core;
pub use dqc_entanglement as entanglement;
pub use dqc_obs as obs;
pub use dqc_partition as partition;
pub use dqc_serve as serve;
pub use dqc_served as served;
pub use dqc_sim as sim;
pub use dqc_types as types;
pub use dqc_workloads as workloads;

pub use dqc_analyze::{AnalysisReport, Analyzer};
pub use dqc_codesign::{Codesign, CodesignResult, CostModel, Objectives, SearchStrategy};
pub use dqc_core::{
    AveragedReport, Axis, AxisValue, CompiledCircuit, Design, DesignSpace, DqcError,
    ExecutionReport, Experiment, ScenarioKey, Sweep, SweepCell, SweepResult, SystemConfig,
};
pub use dqc_entanglement::{NetworkTopology, Route, RoutingTable, TopologyFamily};
pub use dqc_serve::{
    EvalOutput, EvalRequest, EvalResponse, QuotaConfig, RateLimit, ServeBuilder, ServeConfig,
    ServeError, ServeStats, Server,
};
pub use dqc_served::{Served, ServedBuilder, ServedClient, Submission, WireError};
