//! The gate set understood by the `dqc` workspace.

use dqc_types::Tick;
use std::fmt;

/// A quantum gate (without operands).
///
/// The set covers everything the paper's benchmarks need — Clifford gates,
/// axis rotations, the controlled-phase family used by QFT/QAOA, and
/// measurement — plus the identity for padding.
///
/// Two-qubit gates written `Cx(control, target)` etc. take their operand
/// order from the [`Operation`](crate::Operation) they are attached to.
///
/// # Examples
///
/// ```
/// use dqc_circuit::Gate;
///
/// assert_eq!(Gate::Cx.arity(), 2);
/// assert!(Gate::Cz.is_z_diagonal());
/// assert!(!Gate::Cx.is_z_diagonal());
/// assert!(Gate::H.is_clifford());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (single-qubit no-op placeholder).
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// `T† = diag(1, e^{-iπ/4})`.
    Tdg,
    /// Rotation about the X axis by the given angle (radians).
    Rx(f64),
    /// Rotation about the Y axis by the given angle (radians).
    Ry(f64),
    /// Rotation about the Z axis by the given angle (radians).
    Rz(f64),
    /// Diagonal phase `diag(1, e^{iθ})` (OpenQASM `u1`/`p`).
    Phase(f64),
    /// Controlled-X (CNOT); operand order is `(control, target)`.
    Cx,
    /// Controlled-Z; symmetric in its operands.
    Cz,
    /// Controlled-phase `diag(1, 1, 1, e^{iθ})`; symmetric in its operands.
    CPhase(f64),
    /// Ising coupling `exp(-i θ/2 · Z⊗Z)`; symmetric in its operands.
    Rzz(f64),
    /// SWAP of two qubits.
    Swap,
    /// Projective measurement in the computational basis.
    Measure,
}

impl Gate {
    /// Number of qubit operands this gate takes (1 or 2).
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Gate;
    /// assert_eq!(Gate::Rz(0.5).arity(), 1);
    /// assert_eq!(Gate::Rzz(0.5).arity(), 2);
    /// ```
    pub const fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::Measure => 1,
            Gate::Cx | Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) | Gate::Swap => 2,
        }
    }

    /// Returns true for two-qubit gates.
    pub const fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// Returns true for the measurement pseudo-gate.
    pub const fn is_measurement(&self) -> bool {
        matches!(self, Gate::Measure)
    }

    /// Returns true when the gate's unitary is diagonal in the
    /// computational (Z) basis. Any two Z-diagonal gates commute, which is
    /// the workhorse rule behind the paper's ASAP/ALAP segment variants.
    pub const fn is_z_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::Phase(_)
                | Gate::Cz
                | Gate::CPhase(_)
                | Gate::Rzz(_)
        )
    }

    /// Returns true when the gate's unitary is diagonal in the X basis
    /// (commutes with Pauli-X on its qubit). Such a gate slides through the
    /// *target* leg of a CNOT.
    pub const fn is_x_diagonal(&self) -> bool {
        matches!(self, Gate::I | Gate::X | Gate::Rx(_))
    }

    /// Returns true for gates in the Clifford group, which the stabilizer
    /// tableau simulator in `dqc-sim` can track efficiently.
    pub const fn is_clifford(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::H
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::Cx
                | Gate::Cz
                | Gate::Swap
        )
    }

    /// Returns the gate's continuous parameter (rotation angle), if any.
    pub const fn param(&self) -> Option<f64> {
        match self {
            Gate::Rx(t)
            | Gate::Ry(t)
            | Gate::Rz(t)
            | Gate::Phase(t)
            | Gate::CPhase(t)
            | Gate::Rzz(t) => Some(*t),
            _ => None,
        }
    }

    /// Returns the gate implementing the inverse unitary.
    ///
    /// [`Gate::Measure`] has no inverse and is returned unchanged; callers
    /// inverting whole circuits should reject measurements first.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Gate;
    /// assert_eq!(Gate::S.dagger(), Gate::Sdg);
    /// assert_eq!(Gate::Rz(0.3).dagger(), Gate::Rz(-0.3));
    /// assert_eq!(Gate::Cx.dagger(), Gate::Cx);
    /// ```
    pub fn dagger(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::CPhase(t) => Gate::CPhase(-t),
            Gate::Rzz(t) => Gate::Rzz(-t),
            g => g,
        }
    }

    /// Returns true when the gate is symmetric under exchanging its two
    /// operands (only meaningful for two-qubit gates).
    pub const fn is_symmetric(&self) -> bool {
        matches!(self, Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) | Gate::Swap)
    }

    /// Nominal execution latency of the gate on local hardware, following
    /// the paper's Table II (1Q = 0.1, CNOT-class = 1, measurement = 5, in
    /// CNOT units). SWAP is costed as its three-CNOT decomposition.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Gate;
    /// use dqc_types::Tick;
    /// assert_eq!(Gate::H.duration(), Tick::ONE_QUBIT);
    /// assert_eq!(Gate::Cx.duration(), Tick::CNOT);
    /// assert_eq!(Gate::Swap.duration(), Tick::SWAP);
    /// assert_eq!(Gate::Measure.duration(), Tick::MEASUREMENT);
    /// ```
    pub const fn duration(&self) -> Tick {
        match self {
            Gate::Measure => Tick::MEASUREMENT,
            Gate::Swap => Tick::SWAP,
            g if g.arity() == 2 => Tick::CNOT,
            _ => Tick::ONE_QUBIT,
        }
    }

    /// The inverse of [`Gate::name`] + [`Gate::param`]: builds the gate
    /// named `name` carrying the optional angle `param`.
    ///
    /// Returns `None` for unknown mnemonics and for parameter mismatches
    /// (an angle on a discrete gate, or a rotation without one) — the
    /// QASM importer leans on that strictness to reject malformed input
    /// instead of guessing.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Gate;
    /// assert_eq!(Gate::from_name("rz", Some(0.5)), Some(Gate::Rz(0.5)));
    /// assert_eq!(Gate::from_name("cx", None), Some(Gate::Cx));
    /// assert_eq!(Gate::from_name("cx", Some(0.5)), None);
    /// assert_eq!(Gate::from_name("rz", None), None);
    /// assert_eq!(Gate::from_name("warp", None), None);
    /// ```
    pub fn from_name(name: &str, param: Option<f64>) -> Option<Gate> {
        Some(match (name, param) {
            ("id", None) => Gate::I,
            ("h", None) => Gate::H,
            ("x", None) => Gate::X,
            ("y", None) => Gate::Y,
            ("z", None) => Gate::Z,
            ("s", None) => Gate::S,
            ("sdg", None) => Gate::Sdg,
            ("t", None) => Gate::T,
            ("tdg", None) => Gate::Tdg,
            ("rx", Some(a)) => Gate::Rx(a),
            ("ry", Some(a)) => Gate::Ry(a),
            ("rz", Some(a)) => Gate::Rz(a),
            ("p", Some(a)) => Gate::Phase(a),
            ("cx", None) => Gate::Cx,
            ("cz", None) => Gate::Cz,
            ("cp", Some(a)) => Gate::CPhase(a),
            ("rzz", Some(a)) => Gate::Rzz(a),
            ("swap", None) => Gate::Swap,
            ("measure", None) => Gate::Measure,
            _ => return None,
        })
    }

    /// The gate's lowercase mnemonic, matching OpenQASM 2.0 where the gate
    /// exists there.
    pub const fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::CPhase(_) => "cp",
            Gate::Rzz(_) => "rzz",
            Gate::Swap => "swap",
            Gate::Measure => "measure",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param() {
            Some(theta) => write!(f, "{}({:.4})", self.name(), theta),
            None => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Gate; 20] = [
        Gate::I,
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Rx(0.3),
        Gate::Ry(0.3),
        Gate::Rz(0.3),
        Gate::Phase(0.3),
        Gate::Cx,
        Gate::Cz,
        Gate::CPhase(0.3),
        Gate::Rzz(0.3),
        Gate::Swap,
        Gate::Measure,
        Gate::Rz(-1.2),
    ];

    #[test]
    fn arity_is_one_or_two() {
        for g in ALL {
            assert!(matches!(g.arity(), 1 | 2), "{g}");
        }
    }

    #[test]
    fn dagger_is_involutive() {
        for g in ALL {
            assert_eq!(g.dagger().dagger(), g, "{g}");
        }
    }

    #[test]
    fn z_diagonal_and_x_diagonal_overlap_only_in_identity() {
        for g in ALL {
            if g.is_z_diagonal() && g.is_x_diagonal() {
                assert_eq!(g, Gate::I);
            }
        }
    }

    #[test]
    fn durations_follow_table_ii() {
        assert_eq!(Gate::Rz(0.1).duration(), Tick::ONE_QUBIT);
        assert_eq!(Gate::Cz.duration(), Tick::CNOT);
        assert_eq!(Gate::Rzz(0.2).duration(), Tick::CNOT);
        assert_eq!(Gate::Measure.duration(), Tick::MEASUREMENT);
        assert_eq!(Gate::Swap.duration(), Tick::SWAP);
    }

    #[test]
    fn clifford_set_excludes_rotations() {
        assert!(Gate::Cx.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(!Gate::Rz(0.7).is_clifford());
        assert!(!Gate::CPhase(0.7).is_clifford());
    }

    #[test]
    fn symmetric_gates() {
        assert!(Gate::Cz.is_symmetric());
        assert!(Gate::Rzz(1.0).is_symmetric());
        assert!(!Gate::Cx.is_symmetric());
    }

    #[test]
    fn display_includes_angle() {
        assert_eq!(Gate::Rz(0.5).to_string(), "rz(0.5000)");
        assert_eq!(Gate::H.to_string(), "h");
    }

    #[test]
    fn from_name_inverts_name_and_param() {
        for g in ALL {
            assert_eq!(Gate::from_name(g.name(), g.param()), Some(g), "{g}");
        }
        assert_eq!(Gate::from_name("h", Some(0.5)), None);
        assert_eq!(Gate::from_name("rzz", None), None);
        assert_eq!(Gate::from_name("frobnicate", None), None);
    }

    #[test]
    fn param_present_only_for_rotations() {
        assert_eq!(Gate::Rz(0.25).param(), Some(0.25));
        assert_eq!(Gate::H.param(), None);
        assert_eq!(Gate::Cx.param(), None);
    }
}
