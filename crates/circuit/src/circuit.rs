//! The circuit container and fluent builder.

use crate::{CircuitError, Gate, GateCounts, Operation};
use dqc_types::{GateId, QubitId, Tick};
use std::fmt;

/// An ordered list of gate applications on a fixed qubit register.
///
/// `Circuit` is the exchange format of the whole workspace: workload
/// generators produce circuits, the partitioner reads their interaction
/// graph, and the `dqc-core` executor schedules them onto distributed
/// hardware.
///
/// Gates are stored in program order; [`GateId`]s index into that order.
/// Convenience builder methods (`h`, `cx`, `rz`, …) panic on invalid
/// operands — use [`Circuit::push`] for checked construction from untrusted
/// input.
///
/// # Examples
///
/// Build a Bell-pair circuit and inspect it:
///
/// ```
/// use dqc_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.len(), 2);
/// assert_eq!(bell.depth(), 2);
/// assert_eq!(bell.counts().two_qubit, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: u32,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` wires.
    pub fn new(num_qubits: u32) -> Self {
        Self {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Creates an empty circuit with space reserved for `capacity` gates.
    pub fn with_capacity(num_qubits: u32, capacity: usize) -> Self {
        Self {
            num_qubits,
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Number of qubit wires.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns true when the circuit contains no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    #[inline]
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Looks up an operation by its gate id.
    #[inline]
    pub fn operation(&self, id: GateId) -> Option<&Operation> {
        self.ops.get(id.as_usize())
    }

    /// Iterates over `(GateId, &Operation)` pairs in program order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Operation)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (GateId::new(i as u32), op))
    }

    /// Appends a gate with checked operands.
    ///
    /// Returns the new operation's [`GateId`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the operand count does not match the
    /// gate arity, an operand is out of range, or a two-qubit gate repeats
    /// an operand.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::{Circuit, Gate};
    /// use dqc_types::QubitId;
    ///
    /// # fn main() -> Result<(), dqc_circuit::CircuitError> {
    /// let mut c = Circuit::new(2);
    /// let id = c.push(Gate::Cx, &[QubitId::new(0), QubitId::new(1)])?;
    /// assert_eq!(id.index(), 0);
    /// assert!(c.push(Gate::H, &[QubitId::new(7)]).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn push(&mut self, gate: Gate, qubits: &[QubitId]) -> Result<GateId, CircuitError> {
        if qubits.len() != gate.arity() {
            return Err(CircuitError::ArityMismatch {
                expected: gate.arity(),
                got: qubits.len(),
            });
        }
        for &q in qubits {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        let op = match *qubits {
            [q] => Operation::one(gate, q),
            [a, b] => {
                if a == b {
                    return Err(CircuitError::DuplicateOperand { qubit: a });
                }
                Operation::two(gate, a, b)
            }
            _ => unreachable!("arity checked above"),
        };
        self.ops.push(op);
        Ok(GateId::new((self.ops.len() - 1) as u32))
    }

    /// Appends an already-validated operation (used by transformation
    /// passes that permute existing circuits).
    ///
    /// # Panics
    ///
    /// Panics if the operation references a qubit outside this circuit.
    pub fn push_operation(&mut self, op: Operation) -> GateId {
        for q in op.qubits() {
            assert!(
                q.index() < self.num_qubits,
                "operation {op} references {q} outside {}-qubit register",
                self.num_qubits
            );
        }
        self.ops.push(op);
        GateId::new((self.ops.len() - 1) as u32)
    }

    /// Appends all operations of `other` (which must fit in this register).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit has.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "appended circuit too wide"
        );
        self.ops.extend_from_slice(&other.ops);
        self
    }

    // ----- fluent builders (panic on misuse; for hand-written circuits) -----

    fn push_unwrap(&mut self, gate: Gate, qubits: &[QubitId]) -> &mut Self {
        if let Err(e) = self.push(gate, qubits) {
            panic!("invalid gate application: {e}");
        }
        self
    }

    /// Applies a Hadamard. See [`Circuit::push`] for checked construction.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::H, &[QubitId::new(q)])
    }

    /// Applies a Pauli-X.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::X, &[QubitId::new(q)])
    }

    /// Applies a Pauli-Y.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::Y, &[QubitId::new(q)])
    }

    /// Applies a Pauli-Z.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::Z, &[QubitId::new(q)])
    }

    /// Applies an S gate.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::S, &[QubitId::new(q)])
    }

    /// Applies a T gate.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::T, &[QubitId::new(q)])
    }

    /// Applies an X rotation.
    pub fn rx(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::Rx(theta), &[QubitId::new(q)])
    }

    /// Applies a Y rotation.
    pub fn ry(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::Ry(theta), &[QubitId::new(q)])
    }

    /// Applies a Z rotation.
    pub fn rz(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::Rz(theta), &[QubitId::new(q)])
    }

    /// Applies a phase gate `diag(1, e^{iθ})`.
    pub fn p(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::Phase(theta), &[QubitId::new(q)])
    }

    /// Applies a CNOT with the given control and target.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.push_unwrap(Gate::Cx, &[QubitId::new(control), QubitId::new(target)])
    }

    /// Applies a controlled-Z.
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.push_unwrap(Gate::Cz, &[QubitId::new(a), QubitId::new(b)])
    }

    /// Applies a controlled phase.
    pub fn cp(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::CPhase(theta), &[QubitId::new(a), QubitId::new(b)])
    }

    /// Applies an Ising ZZ coupling.
    pub fn rzz(&mut self, a: u32, b: u32, theta: f64) -> &mut Self {
        self.push_unwrap(Gate::Rzz(theta), &[QubitId::new(a), QubitId::new(b)])
    }

    /// Applies a SWAP.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.push_unwrap(Gate::Swap, &[QubitId::new(a), QubitId::new(b)])
    }

    /// Measures a qubit in the computational basis.
    pub fn measure(&mut self, q: u32) -> &mut Self {
        self.push_unwrap(Gate::Measure, &[QubitId::new(q)])
    }

    /// Returns the inverse circuit: gates reversed and each replaced by
    /// its dagger. Applying `self` then `self.inverse()` is the identity.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IrreversibleOperation`] if the circuit
    /// contains a measurement.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Circuit;
    ///
    /// # fn main() -> Result<(), dqc_circuit::CircuitError> {
    /// let mut c = Circuit::new(2);
    /// c.h(0).t(0).cx(0, 1).rz(1, 0.7);
    /// let inv = c.inverse()?;
    /// assert_eq!(inv.len(), c.len());
    /// assert_eq!(inv.operations()[0].gate().name(), "rz");
    /// # Ok(())
    /// # }
    /// ```
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut inv = Circuit::with_capacity(self.num_qubits, self.ops.len());
        for op in self.ops.iter().rev() {
            if op.gate().is_measurement() {
                return Err(CircuitError::IrreversibleOperation);
            }
            let qs = op.qubits();
            let daggered = match *qs {
                [q] => Operation::one(op.gate().dagger(), q),
                [a, b] => Operation::two(op.gate().dagger(), a, b),
                _ => unreachable!("arity is 1 or 2"),
            };
            inv.ops.push(daggered);
        }
        Ok(inv)
    }

    // ----- analysis -----

    /// A stable 64-bit fingerprint of the circuit: the same circuit
    /// produces the same fingerprint on every run, platform, and
    /// toolchain, and any change to the register width, gate sequence,
    /// gate parameters, or operand wiring changes it.
    ///
    /// It is a compact identity for digests and benchmark records, and
    /// the QASM round trip preserves it. Angles fold in by bit pattern,
    /// so unlike `==` it tells `0.0` from `-0.0` and matches a NaN angle
    /// to itself. It is non-cryptographic (FNV-1a), so a consumer whose
    /// correctness depends on identity compares circuits with `==`, as
    /// the `dqc-serve` compile cache does.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Circuit;
    ///
    /// let mut a = Circuit::new(2);
    /// a.h(0).cx(0, 1);
    /// let mut b = Circuit::new(2);
    /// b.h(0).cx(0, 1);
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(1, 0); // same gates, different wiring
    /// assert_ne!(a.fingerprint(), c.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut h = dqc_types::Fnv64::new();
        h.write_u32(self.num_qubits);
        h.write_usize(self.ops.len());
        for op in &self.ops {
            let gate = op.gate();
            h.write_str(gate.name());
            // The parameter distinguishes rotations by angle; parameterless
            // gates fold a fixed marker so rx(θ) never aliases a gate
            // stream that happens to follow `rx` with the bits of θ.
            match gate.param() {
                Some(theta) => {
                    h.write_u8(1);
                    h.write_f64(theta);
                }
                None => h.write_u8(0),
            }
            for q in op.qubits() {
                h.write_u32(q.index());
            }
        }
        h.finish()
    }

    /// Aggregated gate counts (single-qubit, two-qubit, measurements).
    pub fn counts(&self) -> GateCounts {
        GateCounts::of(self)
    }

    /// Unit-depth of the circuit: the number of layers when every gate
    /// occupies exactly one layer and gates in a layer are disjoint. This
    /// is the depth convention of the paper's Table I (QFT-32 → 63,
    /// TLIM-32 → 40).
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Circuit;
    /// let mut c = Circuit::new(3);
    /// c.h(0).h(1).h(2).cx(0, 1).cx(1, 2);
    /// assert_eq!(c.depth(), 3);
    /// ```
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits as usize];
        let mut depth = 0;
        for op in &self.ops {
            let l = op
                .qubits()
                .iter()
                .map(|q| level[q.as_usize()])
                .max()
                .unwrap_or(0)
                + 1;
            for q in op.qubits() {
                level[q.as_usize()] = l;
            }
            depth = depth.max(l);
        }
        depth
    }

    /// Latency-weighted depth: the critical-path length when each gate
    /// takes its Table II duration ([`Gate::duration`]). This equals the
    /// makespan of an ideal monolithic device with unbounded parallelism,
    /// reported in [`Tick`]s.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_circuit::Circuit;
    /// use dqc_types::Tick;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1); // 1 tick + 10 ticks on the critical path
    /// assert_eq!(c.timed_depth(), Tick::new(11));
    /// ```
    pub fn timed_depth(&self) -> Tick {
        let mut ready = vec![Tick::ZERO; self.num_qubits as usize];
        let mut makespan = Tick::ZERO;
        for op in &self.ops {
            let start = op
                .qubits()
                .iter()
                .map(|q| ready[q.as_usize()])
                .max()
                .unwrap_or(Tick::ZERO);
            let end = start + op.gate().duration();
            for q in op.qubits() {
                ready[q.as_usize()] = end;
            }
            makespan = makespan.max(end);
        }
        makespan
    }

    /// Splits the circuit into unit-depth layers of mutually disjoint
    /// gates (ASAP levelization). The concatenation of all layers is a
    /// permutation of the original program order that preserves per-qubit
    /// order.
    pub fn layers(&self) -> Vec<Vec<GateId>> {
        let mut level = vec![0usize; self.num_qubits as usize];
        let mut layers: Vec<Vec<GateId>> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let l = op
                .qubits()
                .iter()
                .map(|q| level[q.as_usize()])
                .max()
                .unwrap_or(0);
            for q in op.qubits() {
                level[q.as_usize()] = l + 1;
            }
            if l >= layers.len() {
                layers.resize_with(l + 1, Vec::new);
            }
            layers[l].push(GateId::new(i as u32));
        }
        layers
    }

    /// Returns the set of two-qubit interactions `(min_q, max_q, count)`
    /// aggregated over the circuit — the weighted interaction graph that
    /// the partitioner cuts.
    pub fn interactions(&self) -> Vec<(QubitId, QubitId, u64)> {
        let mut map = std::collections::BTreeMap::<(QubitId, QubitId), u64>::new();
        for op in &self.ops {
            if let [a, b] = *op.qubits() {
                let key = if a <= b { (a, b) } else { (b, a) };
                *map.entry(key).or_insert(0) += 1;
            }
        }
        map.into_iter().map(|((a, b), w)| (a, b, w)).collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} ops]",
            self.num_qubits,
            self.ops.len()
        )?;
        for (id, op) in self.iter() {
            writeln!(f, "  {id}: {op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_range() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::H, &[QubitId::new(2)]).unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
    }

    #[test]
    fn push_validates_arity() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::Cx, &[QubitId::new(0)]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn push_validates_duplicates() {
        let mut c = Circuit::new(2);
        let err = c
            .push(Gate::Cx, &[QubitId::new(1), QubitId::new(1)])
            .unwrap_err();
        assert_eq!(
            err,
            CircuitError::DuplicateOperand {
                qubit: QubitId::new(1)
            }
        );
    }

    #[test]
    fn gate_ids_are_program_order() {
        let mut c = Circuit::new(2);
        let a = c.push(Gate::H, &[QubitId::new(0)]).unwrap();
        let b = c.push(Gate::H, &[QubitId::new(1)]).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.operation(a).unwrap().gate(), Gate::H);
    }

    #[test]
    fn depth_of_parallel_gates_is_one() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn depth_of_serial_chain() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn ghz_depth_is_linear() {
        let n = 8;
        let mut c = Circuit::new(n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        assert_eq!(c.depth(), n as usize);
    }

    #[test]
    fn layers_partition_all_gates_disjointly() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).cx(1, 2).h(3);
        let layers = c.layers();
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, c.len());
        for layer in &layers {
            // Gates within one layer are qubit-disjoint.
            let mut seen = std::collections::HashSet::new();
            for id in layer {
                for q in c.operation(*id).unwrap().qubits() {
                    assert!(seen.insert(*q), "layer reuses {q}");
                }
            }
        }
        assert_eq!(layers.len(), c.depth());
    }

    #[test]
    fn timed_depth_accounts_for_durations() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        assert_eq!(c.timed_depth(), Tick::new(51));
    }

    #[test]
    fn interactions_aggregate_with_weights() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 0).cz(1, 2);
        let ints = c.interactions();
        assert_eq!(
            ints,
            vec![
                (QubitId::new(0), QubitId::new(1), 2),
                (QubitId::new(1), QubitId::new(2), 1)
            ]
        );
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn append_rejects_wider_circuit() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.append(&b);
    }

    #[test]
    fn inverse_reverses_and_daggers() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).cx(0, 1);
        let inv = c.inverse().unwrap();
        let names: Vec<&str> = inv.operations().iter().map(|o| o.gate().name()).collect();
        assert_eq!(names, vec!["cx", "sdg", "h"]);
    }

    #[test]
    fn inverse_rejects_measurements() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        assert_eq!(
            c.inverse().unwrap_err(),
            CircuitError::IrreversibleOperation
        );
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).rz(2, 0.25).rzz(2, 3, 1.5);
        // Deterministic across calls (and, by construction, across runs:
        // the hasher is FNV-1a over explicit field encodings, with no
        // per-process state).
        assert_eq!(c.fingerprint(), c.fingerprint());
        // A separately built but equal circuit agrees.
        let mut d = Circuit::new(4);
        d.h(0).cx(0, 1).rz(2, 0.25).rzz(2, 3, 1.5);
        assert_eq!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_near_misses() {
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).rz(1, 0.5);
        let fp = base.fingerprint();

        // Wider register, same gates.
        let mut wider = Circuit::new(4);
        wider.h(0).cx(0, 1).rz(1, 0.5);
        assert_ne!(fp, wider.fingerprint());

        // Different rotation angle.
        let mut angle = Circuit::new(3);
        angle.h(0).cx(0, 1).rz(1, 0.25);
        assert_ne!(fp, angle.fingerprint());

        // Swapped control/target.
        let mut swapped = Circuit::new(3);
        swapped.h(0).cx(1, 0).rz(1, 0.5);
        assert_ne!(fp, swapped.fingerprint());

        // Reordered gate sequence.
        let mut reordered = Circuit::new(3);
        reordered.cx(0, 1).h(0).rz(1, 0.5);
        assert_ne!(fp, reordered.fingerprint());

        // A gate dropped from the tail.
        let mut shorter = Circuit::new(3);
        shorter.h(0).cx(0, 1);
        assert_ne!(fp, shorter.fingerprint());

        // Empty circuits of different widths still differ.
        assert_ne!(Circuit::new(1).fingerprint(), Circuit::new(2).fingerprint());
    }

    #[test]
    fn display_lists_operations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let text = c.to_string();
        assert!(text.contains("g0: h q0"));
        assert!(text.contains("g1: cx q0, q1"));
    }
}
