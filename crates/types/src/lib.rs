//! Core typed quantities shared across the `dqc` workspace.
//!
//! This crate defines the small, dependency-free vocabulary types that
//! every other crate in the workspace builds upon:
//!
//! * [`QubitId`], [`NodeId`], [`GateId`] — strongly typed identifiers that
//!   make it impossible to confuse a circuit qubit index with a node index.
//! * [`Tick`] — the integer simulation clock. One tick is a tenth of a
//!   local CNOT latency, so every entry of the paper's Table II is an exact
//!   integer (1Q gate = 1 tick, CNOT = 10, measurement = 50, one
//!   entanglement-generation attempt cycle = 100).
//! * [`Fidelity`] — a probability-like quality metric clamped to `[0, 1]`
//!   that multiplies like independent error channels compose.
//! * [`json`] — a hand-rolled JSON document model (writer, parser,
//!   tolerance-aware diff) backing the machine-readable results pipeline;
//!   the build environment is offline, so there is no `serde`.
//! * [`Fnv64`] — a stable FNV-1a fingerprint hasher whose output never
//!   changes across runs, platforms, or toolchains, backing the circuit
//!   fingerprint and the benchmark's reply digests.
//! * [`diag`] — the coded diagnostic taxonomy ([`Diagnostic`],
//!   [`Severity`], [`Site`], the [`diag::REGISTRY`] of every code) shared
//!   by the `dqc-analyze` static analyzer and every layer that refuses
//!   work on static grounds (config loading, the wire daemon, the
//!   co-design prefilter).
//! * [`AxisId`] — the identities of the hardware/software co-design axes
//!   (EPR fidelity, κ, qubit counts, topology, design, protocol, …) that
//!   the typed `DesignSpace` layer in `dqc-core` and the search engine in
//!   `dqc-codesign` are built on, plus the shared [`UnknownName`] parse
//!   error.
//!
//! # Examples
//!
//! ```
//! use dqc_types::{Fidelity, QubitId, Tick};
//!
//! let q = QubitId::new(3);
//! assert_eq!(q.index(), 3);
//!
//! let cnot = Tick::CNOT;
//! assert_eq!((cnot + cnot).as_cnot_units(), 2.0);
//!
//! let f = Fidelity::new(0.99) * Fidelity::new(0.98);
//! assert!((f.value() - 0.9702).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
pub mod diag;
mod fidelity;
mod hash;
mod ids;
pub mod json;
mod tick;

pub use axis::{AxisId, UnknownName};
pub use diag::{Diagnostic, Severity, Site};
pub use fidelity::Fidelity;
pub use hash::{fnv64, Fnv64};
pub use ids::{GateId, NodeId, QubitId};
pub use json::{Json, JsonError};
pub use tick::Tick;
