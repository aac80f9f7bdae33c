//! Mixed-state (density matrix) simulator.

use crate::{gate_matrix, Matrix, Statevector, C64};
use dqc_circuit::{Gate, Operation};
use std::fmt;

/// A mixed quantum state over `n` qubits as a dense `2ⁿ × 2ⁿ` density
/// operator.
///
/// Indexing follows the statevector convention (qubit 0 = most significant
/// bit). The density engine is the workhorse behind the paper's remote-gate
/// fidelity evaluation (§IV-C): noisy Bell pairs, depolarizing local gates,
/// and noisy measurements are all completely positive maps applied here.
///
/// Each state owns one set of four `2ⁿ × 2ⁿ` work buffers, allocated by
/// its first [`DensityMatrix::apply_unitary`] or
/// [`DensityMatrix::apply_kraus`] and dropped with it, so conjugating by an
/// operator allocates nothing: a 6-qubit telegate evaluation makes 54 such
/// conjugations on one 64 KiB operator. The buffers hold no state between
/// calls; `==`, [`Clone`] and [`fmt::Debug`] ignore them, and a clone
/// starts without any.
///
/// # Examples
///
/// ```
/// use dqc_sim::{DensityMatrix, Statevector};
///
/// let rho = DensityMatrix::from_pure(&Statevector::zero_state(2));
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// assert!((rho.trace_real() - 1.0).abs() < 1e-12);
/// ```
pub struct DensityMatrix {
    num_qubits: u32,
    rho: Matrix,
    scratch: Scratch,
}

/// Work space for one conjugation `ρ → FρF†`, where `F` is an operator
/// embedded in the full space. Every buffer is overwritten before it is
/// read, so none carries a value from one call to the next.
#[derive(Default)]
struct Scratch {
    /// The embedded operator `F`, then the product `FρF†`.
    op: Matrix,
    /// `F†`.
    op_dagger: Matrix,
    /// `Fρ`.
    left: Matrix,
    /// The running Kraus sum `Σᵢ FᵢρFᵢ†`.
    sum: Matrix,
}

impl Scratch {
    /// Leaves `FρF†` in `self.op`, with `F` the operator `u` acting on
    /// `qubits` of an `n`-qubit space; the products run in the order
    /// `&(&F * ρ) * &F.dagger()` does.
    fn conjugate(&mut self, rho: &Matrix, u: &Matrix, qubits: &[usize], n: usize) {
        embed_into(u, qubits, n, &mut self.op);
        self.op.dagger_into(&mut self.op_dagger);
        self.op.mul_into(rho, &mut self.left);
        self.left.mul_into(&self.op_dagger, &mut self.op);
    }
}

impl Clone for DensityMatrix {
    fn clone(&self) -> Self {
        Self::from_operator(self.num_qubits, self.rho.clone())
    }
}

impl PartialEq for DensityMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.rho == other.rho
    }
}

impl fmt::Debug for DensityMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DensityMatrix")
            .field("num_qubits", &self.num_qubits)
            .field("rho", &self.rho)
            .finish()
    }
}

impl DensityMatrix {
    /// The pure density operator `|ψ⟩⟨ψ|` of a statevector.
    pub fn from_pure(psi: &Statevector) -> Self {
        let n = psi.amplitudes().len();
        let mut rho = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                rho[(r, c)] = psi.amplitudes()[r] * psi.amplitudes()[c].conj();
            }
        }
        Self::from_operator(psi.num_qubits(), rho)
    }

    /// The maximally mixed state `I / 2ⁿ`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 13 (the dense operator would exceed
    /// a gigabyte).
    pub fn maximally_mixed(num_qubits: u32) -> Self {
        assert!(
            num_qubits <= 13,
            "density matrix too large: {num_qubits} qubits"
        );
        let dim = 1usize << num_qubits;
        Self::from_operator(
            num_qubits,
            Matrix::identity(dim).scale(C64::real(1.0 / dim as f64)),
        )
    }

    /// Builds a state from a raw operator (trusted constructor for tests
    /// and channels; trace and positivity are the caller's responsibility).
    pub fn from_operator(num_qubits: u32, rho: Matrix) -> Self {
        assert_eq!(
            rho.dim(),
            1usize << num_qubits,
            "operator dimension mismatch"
        );
        Self {
            num_qubits,
            rho,
            scratch: Scratch::default(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The underlying operator.
    #[inline]
    pub fn operator(&self) -> &Matrix {
        &self.rho
    }

    /// Real part of the trace (1 for a valid state).
    pub fn trace_real(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2ⁿ` for maximally mixed.
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// Tensor product `self ⊗ other` (other's qubits are appended after
    /// — i.e. less significant than — self's).
    pub fn tensor(&self, other: &Self) -> Self {
        Self::from_operator(
            self.num_qubits + other.num_qubits,
            self.rho.kron(&other.rho),
        )
    }

    /// Embeds a 1- or 2-qubit unitary on the given qubits into the full
    /// space and applies `ρ → UρU†`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate qubits, or when `u`'s dimension
    /// does not match `qubits.len()`.
    pub fn apply_unitary(&mut self, u: &Matrix, qubits: &[usize]) {
        let scratch = &mut self.scratch;
        scratch.conjugate(&self.rho, u, qubits, self.num_qubits as usize);
        std::mem::swap(&mut self.rho, &mut scratch.op);
    }

    /// Applies a circuit operation as a unitary.
    ///
    /// # Panics
    ///
    /// Panics for measurements — model those as channels plus
    /// [`DensityMatrix::partial_trace`] instead.
    pub fn apply_op(&mut self, op: &Operation) {
        assert!(op.gate() != Gate::Measure, "use channels for measurements");
        let u = gate_matrix(op.gate());
        let qubits: Vec<usize> = op.qubits().iter().map(|q| q.as_usize()).collect();
        self.apply_unitary(&u, &qubits);
    }

    /// Applies a completely positive map given by Kraus operators acting
    /// on `qubits`: `ρ → Σᵢ Kᵢ ρ Kᵢ†`.
    ///
    /// # Panics
    ///
    /// Panics when Kraus dimensions do not match `qubits.len()`.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], qubits: &[usize]) {
        let scratch = &mut self.scratch;
        scratch.sum.set_zeros(self.rho.dim());
        for k in kraus {
            scratch.conjugate(&self.rho, k, qubits, self.num_qubits as usize);
            scratch.sum += &scratch.op;
        }
        std::mem::swap(&mut self.rho, &mut scratch.sum);
    }

    /// Traces out the given qubits, returning the reduced state over the
    /// remaining qubits (which keep their relative order).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate qubits.
    pub fn partial_trace(&self, traced: &[usize]) -> Self {
        let n = self.num_qubits as usize;
        for &q in traced {
            assert!(q < n, "traced qubit {q} out of range");
        }
        let keep: Vec<usize> = (0..n).filter(|q| !traced.contains(q)).collect();
        assert_eq!(keep.len() + traced.len(), n, "duplicate traced qubit");
        let kn = keep.len();
        let kdim = 1usize << kn;
        let tdim = 1usize << traced.len();
        let mut out = Matrix::zeros(kdim);
        // Build a full index from (kept sub-index, traced sub-index).
        let compose = |kidx: usize, tidx: usize| -> usize {
            let mut full = 0usize;
            for (pos, &q) in keep.iter().enumerate() {
                let bit = (kidx >> (kn - 1 - pos)) & 1;
                full |= bit << (n - 1 - q);
            }
            for (pos, &q) in traced.iter().enumerate() {
                let bit = (tidx >> (traced.len() - 1 - pos)) & 1;
                full |= bit << (n - 1 - q);
            }
            full
        };
        for r in 0..kdim {
            for c in 0..kdim {
                let mut acc = C64::ZERO;
                for t in 0..tdim {
                    acc += self.rho[(compose(r, t), compose(c, t))];
                }
                out[(r, c)] = acc;
            }
        }
        Self::from_operator(kn as u32, out)
    }

    /// Applies a (not necessarily trace-preserving) operator `m` on the
    /// given qubits and renormalizes: returns the outcome probability
    /// `Tr(MρM†)` and the conditioned state `MρM†/Tr(·)`.
    ///
    /// Typical use: post-selecting a measurement pattern, with `m` the
    /// projector onto the accepted subspace.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or when the outcome probability is
    /// numerically zero.
    pub fn postselect(&self, m: &Matrix, qubits: &[usize]) -> (f64, Self) {
        let full = embed_unitary(m, qubits, self.num_qubits as usize);
        let unnormalized = &(&full * &self.rho) * &full.dagger();
        let probability = unnormalized.trace().re;
        assert!(
            probability > 1e-15,
            "post-selected outcome has zero probability"
        );
        let rho = unnormalized.scale(C64::real(1.0 / probability));
        (
            probability.clamp(0.0, 1.0),
            Self::from_operator(self.num_qubits, rho),
        )
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` against a pure reference state.
    ///
    /// # Panics
    ///
    /// Panics when the qubit counts differ.
    pub fn fidelity_with_pure(&self, psi: &Statevector) -> f64 {
        assert_eq!(self.num_qubits, psi.num_qubits(), "qubit count mismatch");
        let dim = self.rho.dim();
        let mut acc = C64::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                acc += psi.amplitudes()[r].conj() * self.rho[(r, c)] * psi.amplitudes()[c];
            }
        }
        acc.re.clamp(0.0, 1.0)
    }
}

/// Embeds a unitary (or Kraus operator) acting on `qubits` into the full
/// `n`-qubit space, with `qubits[0]` the most significant sub-index.
///
/// # Panics
///
/// Panics on dimension mismatch, duplicate, or out-of-range qubits.
pub fn embed_unitary(u: &Matrix, qubits: &[usize], n: usize) -> Matrix {
    let mut out = Matrix::default();
    embed_into(u, qubits, n, &mut out);
    out
}

/// [`embed_unitary`] writing into `out`, reusing its storage.
fn embed_into(u: &Matrix, qubits: &[usize], n: usize, out: &mut Matrix) {
    assert_eq!(u.dim(), 1usize << qubits.len(), "operator/qubit mismatch");
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < n, "qubit {q} out of range");
        assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
    }
    let dim = 1usize << n;
    let k = qubits.len();
    out.set_zeros(dim);
    let bit = |x: usize, q: usize| (x >> (n - 1 - q)) & 1;
    for row in 0..dim {
        // Sub-index of the row on the operator's qubits.
        let mut r_sub = 0usize;
        for (pos, &q) in qubits.iter().enumerate() {
            r_sub |= bit(row, q) << (k - 1 - pos);
        }
        for c_sub in 0..(1usize << k) {
            let v = u[(r_sub, c_sub)];
            if v == C64::ZERO {
                continue;
            }
            // Column index: same bits as row except on the operator qubits.
            let mut col = row;
            for (pos, &q) in qubits.iter().enumerate() {
                let b = (c_sub >> (k - 1 - pos)) & 1;
                let mask = 1usize << (n - 1 - q);
                if b == 1 {
                    col |= mask;
                } else {
                    col &= !mask;
                }
            }
            out[(row, col)] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KrausChannel;
    use dqc_circuit::Circuit;
    use dqc_types::QubitId;

    const TOL: f64 = 1e-10;

    fn bell_pure() -> Statevector {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut sv = Statevector::zero_state(2);
        sv.apply_circuit(&c).unwrap();
        sv
    }

    #[test]
    fn pure_state_has_unit_purity() {
        let rho = DensityMatrix::from_pure(&bell_pure());
        assert!((rho.purity() - 1.0).abs() < TOL);
        assert!((rho.trace_real() - 1.0).abs() < TOL);
    }

    #[test]
    fn maximally_mixed_purity() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.purity() - 0.25).abs() < TOL);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.3).cz(0, 1);
        let mut sv = Statevector::zero_state(2);
        sv.apply_circuit(&c).unwrap();
        let mut rho = DensityMatrix::from_pure(&Statevector::zero_state(2));
        for op in c.operations() {
            rho.apply_op(op);
        }
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_bell_is_maximally_mixed() {
        let rho = DensityMatrix::from_pure(&bell_pure());
        for traced in [0usize, 1] {
            let reduced = rho.partial_trace(&[traced]);
            assert_eq!(reduced.num_qubits(), 1);
            assert!(
                (reduced.purity() - 0.5).abs() < TOL,
                "tracing qubit {traced}"
            );
        }
    }

    #[test]
    fn partial_trace_of_product_keeps_factor() {
        // |1⟩⟨1| ⊗ I/2: tracing the mixed qubit leaves |1⟩⟨1|.
        let one = DensityMatrix::from_pure(&Statevector::basis_state(1, 1));
        let prod = one.tensor(&DensityMatrix::maximally_mixed(1));
        let reduced = prod.partial_trace(&[1]);
        let expect = Statevector::basis_state(1, 1);
        assert!((reduced.fidelity_with_pure(&expect) - 1.0).abs() < TOL);
    }

    #[test]
    fn embed_unitary_matches_direct_kron() {
        // X on qubit 1 of 2 = I ⊗ X.
        let x = Matrix::pauli_x();
        let embedded = embed_unitary(&x, &[1], 2);
        let direct = Matrix::identity(2).kron(&x);
        assert!(embedded.approx_eq(&direct, TOL));
        // X on qubit 0 of 2 = X ⊗ I.
        let embedded = embed_unitary(&x, &[0], 2);
        let direct = x.kron(&Matrix::identity(2));
        assert!(embedded.approx_eq(&direct, TOL));
    }

    #[test]
    fn embed_two_qubit_reversed_operands() {
        // cx acting on (1, 0): control = qubit 1 (LSB), target = qubit 0.
        let cx = gate_matrix(Gate::Cx);
        let embedded = embed_unitary(&cx, &[1, 0], 2);
        // |01⟩ (q0=0, q1=1) → |11⟩.
        let mut sv = Statevector::basis_state(2, 0b01);
        let mut rho = DensityMatrix::from_pure(&sv);
        rho.apply_unitary(&cx, &[1, 0]);
        sv = Statevector::basis_state(2, 0b11);
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < TOL);
        assert!(embedded.is_unitary(TOL));
    }

    #[test]
    fn kraus_identity_channel_is_noop() {
        let mut rho = DensityMatrix::from_pure(&bell_pure());
        let before = rho.clone();
        rho.apply_kraus(&[Matrix::identity(2)], &[0]);
        assert!(rho.operator().approx_eq(before.operator(), TOL));
    }

    #[test]
    fn full_dephasing_kills_coherences() {
        // Kraus {|0><0|, |1><1|} on qubit 0 of a Bell pair halves purity.
        let mut rho = DensityMatrix::from_pure(&bell_pure());
        let p0 = Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        let p1 = Matrix::from_real_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
        rho.apply_kraus(&[p0, p1], &[0]);
        assert!((rho.trace_real() - 1.0).abs() < TOL);
        assert!((rho.purity() - 0.5).abs() < TOL);
    }

    #[test]
    fn apply_op_matches_apply_unitary() {
        let mut a = DensityMatrix::from_pure(&Statevector::zero_state(3));
        let mut b = a.clone();
        let op = Operation::two(Gate::Cx, QubitId::new(2), QubitId::new(0));
        a.apply_op(&op);
        b.apply_unitary(&gate_matrix(Gate::Cx), &[2, 0]);
        assert!(a.operator().approx_eq(b.operator(), TOL));
    }

    fn operator_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
        let m = rho.operator();
        (0..m.dim())
            .flat_map(|r| (0..m.dim()).map(move |c| (r, c)))
            .map(|rc| (m[rc].re.to_bits(), m[rc].im.to_bits()))
            .collect()
    }

    #[test]
    fn work_buffers_carry_no_state_between_operators() {
        // The telegate's sequence (qubits r0 d0 r1 d1 b0 b1), noisy enough
        // that every channel keeps all its Kraus operators; a one-element
        // step is a unitary.
        let [cx, cz, h] = [Gate::Cx, Gate::Cz, Gate::H].map(|g| [gate_matrix(g)]);
        let cnot_noise = KrausChannel::depolarizing2(0.05);
        let oneq_noise = KrausChannel::depolarizing1(0.02);
        let meas_noise = KrausChannel::bit_flip(0.1);
        let steps: [(&[Matrix], &[usize]); 13] = [
            (&cx, &[1, 4]),
            (cnot_noise.kraus(), &[1, 4]),
            (meas_noise.kraus(), &[4]),
            (&cx, &[4, 5]),
            (oneq_noise.kraus(), &[5]),
            (&cx, &[5, 3]),
            (cnot_noise.kraus(), &[5, 3]),
            (&h, &[5]),
            (oneq_noise.kraus(), &[5]),
            (meas_noise.kraus(), &[5]),
            (&cz, &[5, 1]),
            (oneq_noise.kraus(), &[1]),
            (&cx, &[1, 3]),
        ];
        let phi = crate::BellState::PhiPlus.density();
        let mut driven = phi.tensor(&phi).tensor(&crate::werner(0.9));
        let mut twin = driven.clone();
        for (ops, qubits) in steps {
            for rho in [&mut driven, &mut twin] {
                match ops {
                    [u] => rho.apply_unitary(u, qubits),
                    kraus => rho.apply_kraus(kraus, qubits),
                }
            }
            let fresh = twin.clone();
            assert_eq!(fresh.scratch.op.dim(), 0, "a clone starts without buffers");
            assert_eq!(twin.scratch.op.dim(), 64);
            assert_eq!(fresh, twin, "== ignores the buffers");
            assert_eq!(format!("{fresh:?}"), format!("{twin:?}"));
            twin = fresh;
            assert_eq!(operator_bits(&driven), operator_bits(&twin));
        }
        assert!((driven.trace_real() - 1.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn embed_rejects_duplicates() {
        let _ = embed_unitary(&gate_matrix(Gate::Cx), &[1, 1], 2);
    }
}
