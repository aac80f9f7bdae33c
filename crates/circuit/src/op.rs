//! A gate applied to concrete qubit operands.

use crate::Gate;
use dqc_types::QubitId;
use std::fmt;

/// A gate bound to its operand qubits.
///
/// For two-qubit controlled gates the operand order is `(control, target)`.
/// Equality (`==`) is structural: the same gate on the same operands in
/// the same order, so `cz(0, 1) != cz(1, 0)` even though a symmetric gate
/// ([`Gate::is_symmetric`]) acts the same either way;
/// [`same_unitary`](Operation::same_unitary) is the exchange-aware check.
///
/// # Examples
///
/// ```
/// use dqc_circuit::{Gate, Operation};
/// use dqc_types::QubitId;
///
/// let cx = Operation::two(Gate::Cx, QubitId::new(0), QubitId::new(1));
/// assert_eq!(cx.qubits(), &[QubitId::new(0), QubitId::new(1)]);
/// assert_eq!(cx.control(), Some(QubitId::new(0)));
/// assert_eq!(cx.target(), Some(QubitId::new(1)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Operation {
    gate: Gate,
    qubits: [QubitId; 2],
}

impl Operation {
    /// Creates a single-qubit operation.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not single-qubit; use
    /// [`Circuit::push`](crate::Circuit::push) for checked construction.
    pub fn one(gate: Gate, qubit: QubitId) -> Self {
        assert_eq!(gate.arity(), 1, "gate {gate} is not single-qubit");
        Self {
            gate,
            qubits: [qubit, qubit],
        }
    }

    /// Creates a two-qubit operation; for controlled gates `a` is the
    /// control and `b` the target.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not two-qubit or if the operands coincide; use
    /// [`Circuit::push`](crate::Circuit::push) for checked construction.
    pub fn two(gate: Gate, a: QubitId, b: QubitId) -> Self {
        assert_eq!(gate.arity(), 2, "gate {gate} is not two-qubit");
        assert_ne!(a, b, "two-qubit gate operands must be distinct");
        Self {
            gate,
            qubits: [a, b],
        }
    }

    /// The gate being applied.
    #[inline]
    pub fn gate(&self) -> Gate {
        self.gate
    }

    /// The operand qubits, in `(control, target)` order for controlled
    /// gates.
    #[inline]
    pub fn qubits(&self) -> &[QubitId] {
        &self.qubits[..self.gate.arity()]
    }

    /// The control qubit of a two-qubit controlled gate, if applicable.
    ///
    /// Symmetric gates ([`Gate::Cz`] etc.) report their first operand.
    #[inline]
    pub fn control(&self) -> Option<QubitId> {
        self.gate.is_two_qubit().then_some(self.qubits[0])
    }

    /// The target qubit of a two-qubit gate, if applicable.
    #[inline]
    pub fn target(&self) -> Option<QubitId> {
        self.gate.is_two_qubit().then_some(self.qubits[1])
    }

    /// Returns true when the operation acts on `qubit`.
    #[inline]
    pub fn acts_on(&self, qubit: QubitId) -> bool {
        self.qubits().contains(&qubit)
    }

    /// Returns true when the two operations share at least one qubit.
    pub fn overlaps(&self, other: &Operation) -> bool {
        self.qubits().iter().any(|q| other.acts_on(*q))
    }

    /// Returns true when both operations denote the same unitary on the
    /// same qubits (treating symmetric gates as unordered).
    pub fn same_unitary(&self, other: &Operation) -> bool {
        if self.gate != other.gate {
            return false;
        }
        if self.qubits() == other.qubits() {
            return true;
        }
        self.gate.is_symmetric()
            && self.gate.is_two_qubit()
            && self.qubits[0] == other.qubits[1]
            && self.qubits[1] == other.qubits[0]
    }
}

impl PartialEq for Operation {
    fn eq(&self, other: &Self) -> bool {
        self.gate == other.gate && self.qubits() == other.qubits()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.gate)?;
        for (i, q) in self.qubits().iter().enumerate() {
            write!(f, "{}{}", if i == 0 { " " } else { ", " }, q)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn one_qubit_operand_access() {
        let op = Operation::one(Gate::H, q(5));
        assert_eq!(op.qubits(), &[q(5)]);
        assert_eq!(op.control(), None);
        assert_eq!(op.target(), None);
        assert!(op.acts_on(q(5)));
        assert!(!op.acts_on(q(4)));
    }

    #[test]
    fn two_qubit_control_target() {
        let op = Operation::two(Gate::Cx, q(1), q(2));
        assert_eq!(op.control(), Some(q(1)));
        assert_eq!(op.target(), Some(q(2)));
    }

    #[test]
    #[should_panic(expected = "not single-qubit")]
    fn one_rejects_two_qubit_gate() {
        let _ = Operation::one(Gate::Cx, q(0));
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn two_rejects_duplicate_operands() {
        let _ = Operation::two(Gate::Cz, q(3), q(3));
    }

    #[test]
    fn overlap_detection() {
        let a = Operation::two(Gate::Cx, q(0), q(1));
        let b = Operation::two(Gate::Cx, q(1), q(2));
        let c = Operation::two(Gate::Cx, q(2), q(3));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn same_unitary_respects_symmetry() {
        let ab = Operation::two(Gate::Cz, q(0), q(1));
        let ba = Operation::two(Gate::Cz, q(1), q(0));
        assert!(ab.same_unitary(&ba));
        // `==` keeps operand order, symmetric gate or not.
        assert_ne!(ab, ba);
        assert_eq!(ab, Operation::two(Gate::Cz, q(0), q(1)));

        let cx = Operation::two(Gate::Cx, q(0), q(1));
        let xc = Operation::two(Gate::Cx, q(1), q(0));
        assert!(!cx.same_unitary(&xc));
        assert!(cx.same_unitary(&cx));
    }

    #[test]
    fn display_formats_operands() {
        let op = Operation::two(Gate::Rzz(0.5), q(0), q(3));
        assert_eq!(op.to_string(), "rzz(0.5000) q0, q3");
    }
}
