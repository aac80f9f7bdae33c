//! The paper's primary contribution: a distributed-quantum-computing
//! architecture co-designing **entanglement buffering**, **asynchronous
//! generation**, and **adaptive remote-gate scheduling**, with the
//! compile-once/run-many evaluation engine that measures it.
//!
//! The crate models the full §III architecture:
//!
//! * [`SystemConfig`] — node layout, Table II latencies/fidelities,
//!   `psucc`, κ (§IV-A).
//! * [`Design`] — the six §V designs (`original`, `sync_buf`, `async_buf`,
//!   `adapt_buf`, `init_buf`, `ideal`).
//! * [`CompiledCircuit`] — everything about a (circuit, config) pair that
//!   is seed- and design-independent: partition map, §III-D segments,
//!   pre-compiled ASAP/ALAP [`SegmentVariants`], the ideal schedule. Built
//!   once, shared immutably.
//! * [`Experiment`] — builder running one design over a seed range against
//!   one compilation, yielding [`ExecutionReport`]s / an
//!   [`AveragedReport`].
//! * [`Sweep`] — a cartesian {benchmark × config × design} grid executed
//!   by a thread-based parallel runner with deterministic per-cell seeding
//!   and ordered collection.
//! * [`DesignSpace`] — the typed co-design layer: every tunable knob
//!   (hardware: EPR fidelity, κ, EPR cycle, comm/buffer qubits, topology;
//!   software: design, protocol, partitioner) is a first-class [`Axis`]
//!   with typed values, a scenario is a structured [`ScenarioKey`], and
//!   [`DesignSpace::evaluate`] runs a list of points on one circuit with
//!   one compilation per realized configuration (design-axis neighbours
//!   never recompile). `Sweep` is the string-labeled front end over the
//!   same engine.
//! * [`RemoteFidelityTable`] — the §IV-C remote-gate fidelity from the
//!   density-matrix teleportation evaluation, via the exact affine law.
//! * One replay engine — [`CompiledCircuit::run`] walks every operation
//!   of the circuit per seed, which the §III-D adaptive controller needs
//!   (it probes the live buffer level before each segment). [`Backend`]
//!   and [`SystemConfig::with_backend`] choose nothing; they remain only
//!   for dqcbench, whose next change deletes them.
//! * Network topology — [`SystemConfig::with_topology`] attaches a
//!   `dqc-entanglement` device graph; remote gates between non-adjacent
//!   nodes then consume routed multi-hop swap chains, and the partitioner
//!   weights cut edges by hop distance. The default (no topology) is the
//!   paper's implicit all-to-all network, bit-for-bit.
//! * [`DqcError`] — the unified error type of the whole engine.
//!
//! # Examples
//!
//! Reproduce one bar of the paper's Figure 5 (compile once, run 10 seeds):
//!
//! ```
//! use dqc_core::{Design, Experiment, SystemConfig};
//! use dqc_workloads::PaperBenchmark;
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let circuit = PaperBenchmark::QaoaR4_32.circuit();
//! let config = SystemConfig::paper_two_node_32();
//! let avg = Experiment::new(&circuit, &config)?
//!     .design(Design::AsyncBuf)
//!     .runs(10)
//!     .run()?;
//! println!("async_buf: {:.2}x ideal depth", avg.mean_depth_relative);
//! # Ok(())
//! # }
//! ```
//!
//! Reproduce a whole figure as one parallel [`Sweep`]:
//!
//! ```
//! use dqc_core::{Design, Sweep, SystemConfig};
//! use dqc_workloads::PaperBenchmark;
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let result = Sweep::new()
//!     .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::QaoaR4_32])
//!     .config("paper", SystemConfig::paper_two_node_32())
//!     .designs(&Design::ALL)
//!     .runs(5)
//!     .run()?;
//! assert_eq!(result.cells.len(), 2 * 6);
//! assert_eq!(result.compilations, 2); // one per (circuit, config)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod compile;
mod config;
mod design;
mod error;
mod executor;
mod experiment;
mod grid;
mod remote;
mod report;
mod segment;
mod space;
mod sweep;
mod variants;

pub use axis::{Axis, AxisValue, ScenarioKey};
pub use compile::{compile_count, CompiledCircuit};
pub use config::{
    Backend, OperationFidelities, OperationLatencies, PartitionStrategy, RemoteProtocol,
    SystemConfig,
};
pub use design::Design;
pub use error::DqcError;
pub use experiment::Experiment;
pub use remote::RemoteFidelityTable;
pub use report::{AveragedReport, ExecutionReport};
pub use segment::{remote_count, segment_sequence};
pub use space::{DesignPoint, DesignSpace, Scenario};
pub use sweep::{Sweep, SweepCell, SweepResult};
pub use variants::{alap_variant, asap_variant, SegmentVariants, VariantKind};
