//! Quantum circuit intermediate representation for the `dqc` workspace.
//!
//! This crate provides everything the distributed-quantum-computing stack
//! needs to *describe* computations:
//!
//! * [`Gate`] — the gate set (Cliffords, rotations, the controlled-phase
//!   family, measurement) with structural predicates (`is_z_diagonal`,
//!   `is_clifford`) and Table II durations.
//! * [`Operation`] / [`Circuit`] — gates bound to qubits, with a fluent
//!   builder, validation, gate counts, and unit / latency-weighted depth.
//! * [`commutes`] — conservative commutation rules that power the paper's
//!   ASAP/ALAP segment-variant generation (§III-D).
//! * [`to_qasm`] / [`from_qasm`] — OpenQASM 2.0 interchange, exact
//!   inverses (fingerprint-preserving) and the one circuit encoding the
//!   `dqc-served` wire carries, plus ASCII rendering via [`render`].
//!
//! # Examples
//!
//! ```
//! use dqc_circuit::{commutes, Circuit};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).rzz(1, 2, 0.5);
//! assert_eq!(c.depth(), 3);
//!
//! let ops = c.operations();
//! assert!(!commutes(&ops[1], &ops[2])); // cx target feeds rzz
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod commute;
mod counts;
mod error;
mod gate;
mod op;
mod qasm;
mod qasm_parse;
mod render;

pub use circuit::Circuit;
pub use commute::{commutes, commutes_with_all};
pub use counts::GateCounts;
pub use error::CircuitError;
pub use gate::Gate;
pub use op::Operation;
pub use qasm::to_qasm;
pub use qasm_parse::{from_qasm, ParseQasmError};
pub use render::render;
