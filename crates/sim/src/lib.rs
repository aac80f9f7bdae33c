//! Quantum simulation substrate for the `dqc` workspace.
//!
//! Everything the DAC 2025 DQC co-design evaluation needs to compute
//! *quantum-mechanical* quantities lives here, implemented from scratch:
//!
//! * [`C64`] / [`Matrix`] — complex arithmetic and small dense operators.
//! * [`gate_matrix`] — unitaries for the `dqc-circuit` gate set, with tests
//!   that cross-validate the circuit crate's commutation rules.
//! * [`Statevector`] — dense pure-state simulation (QFT-verified).
//! * [`DensityMatrix`] + [`KrausChannel`] — mixed states and standard noise
//!   channels (depolarizing, Pauli, damping).
//! * [`BellState`], [`werner`], [`werner_fidelity_after`] — entanglement
//!   resources and the paper's buffer-idling decay law
//!   `F(t) = F₀·e^{−2κt} + (1 − e^{−2κt})/4`.
//! * [`teleported_cnot_fidelity`] / [`state_teleportation_fidelity`] — the
//!   paper's §IV-C remote-gate fidelity evaluation (noisy Bell pair, noisy
//!   local CNOTs, noisy measurement) via Choi states.
//! * [`swap_werner_fidelity`] / [`entanglement_swap_chain_fidelity`] — the
//!   Werner composition law under entanglement swapping and its
//!   density-matrix verification, the ground truth for multi-hop routing.
//! * [`Tableau`] — a CHP stabilizer simulator that verifies the
//!   teleportation protocols with live Pauli-frame corrections.
//!
//! # Examples
//!
//! ```
//! use dqc_sim::{teleported_cnot_fidelity, werner_fidelity_after, TeleportNoise};
//!
//! // A Bell pair that idled in a buffer decays...
//! let decayed = werner_fidelity_after(0.99, 0.02);
//! // ...and the remote CNOT consuming it inherits the loss:
//! let noise = TeleportNoise::table_ii().with_bell_fidelity(decayed);
//! let f = teleported_cnot_fidelity(&noise);
//! assert!(f.value() < 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bell;
mod c64;
mod channel;
mod density;
mod gates;
mod matrix;
mod purify;
mod state;
mod swap;
mod tableau;
mod teleport;

pub use bell::{two_qubit_pauli, werner, werner_fidelity_after, BellState};
pub use c64::C64;
pub use channel::{depolarizing_prob_for_fidelity, KrausChannel};
pub use density::{embed_unitary, DensityMatrix};
pub use gates::gate_matrix;
pub use matrix::Matrix;
pub use purify::{purification_rounds, purify_werner, purify_werner_numeric, PurificationOutcome};
pub use state::Statevector;
pub use swap::{
    entanglement_swap_chain_fidelity, entanglement_swap_fidelity, swap_werner_fidelity,
};
pub use tableau::Tableau;
pub use teleport::{
    average_gate_fidelity, state_teleportation_fidelity, teleported_cnot_fidelity, TeleportNoise,
};
