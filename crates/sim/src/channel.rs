//! Standard noise channels in Kraus form.

use crate::{Matrix, C64};

/// A completely positive trace-preserving map in Kraus representation.
///
/// # Examples
///
/// ```
/// use dqc_sim::KrausChannel;
///
/// let depol = KrausChannel::depolarizing1(0.01);
/// assert!(depol.is_trace_preserving(1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct KrausChannel {
    ops: Vec<Matrix>,
    arity: usize,
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators. An operator that
    /// is exactly zero (a Pauli term of weight 0) contributes nothing to
    /// any state, so it is dropped here rather than multiplied on every
    /// application.
    ///
    /// # Panics
    ///
    /// Panics when no operator is nonzero, the operators have mismatched
    /// dimensions, or the dimension is not 2 or 4.
    pub fn from_kraus(mut ops: Vec<Matrix>) -> Self {
        assert!(!ops.is_empty(), "channel needs at least one Kraus operator");
        let dim = ops[0].dim();
        assert!(
            dim == 2 || dim == 4,
            "only 1- and 2-qubit channels supported"
        );
        assert!(
            ops.iter().all(|k| k.dim() == dim),
            "mismatched Kraus dimensions"
        );
        let zero = Matrix::zeros(dim);
        ops.retain(|k| *k != zero);
        assert!(!ops.is_empty(), "channel needs a nonzero Kraus operator");
        Self {
            arity: dim.trailing_zeros() as usize,
            ops,
        }
    }

    /// The identity (no-noise) channel on one qubit.
    pub fn identity1() -> Self {
        Self::from_kraus(vec![Matrix::identity(2)])
    }

    /// Single-qubit depolarizing channel: with probability `p` one of the
    /// three Pauli errors occurs (each with probability `p/3`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn depolarizing1(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let s0 = (1.0 - p).sqrt();
        let s = (p / 3.0).sqrt();
        Self::from_kraus(vec![
            Matrix::identity(2).scale(C64::real(s0)),
            Matrix::pauli_x().scale(C64::real(s)),
            Matrix::pauli_y().scale(C64::real(s)),
            Matrix::pauli_z().scale(C64::real(s)),
        ])
    }

    /// Two-qubit depolarizing channel: with probability `p` one of the 15
    /// non-identity two-qubit Paulis occurs (each with probability `p/15`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn depolarizing2(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let paulis = [
            Matrix::identity(2),
            Matrix::pauli_x(),
            Matrix::pauli_y(),
            Matrix::pauli_z(),
        ];
        let mut ops = Vec::with_capacity(16);
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let weight = if i == 0 && j == 0 {
                    (1.0 - p).sqrt()
                } else {
                    (p / 15.0).sqrt()
                };
                ops.push(a.kron(b).scale(C64::real(weight)));
            }
        }
        Self::from_kraus(ops)
    }

    /// General single-qubit Pauli channel with the given X/Y/Z error
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics when any probability is negative or they sum past 1.
    pub fn pauli(px: f64, py: f64, pz: f64) -> Self {
        assert!(px >= 0.0 && py >= 0.0 && pz >= 0.0, "negative probability");
        let pi = 1.0 - px - py - pz;
        assert!(pi >= -1e-12, "pauli probabilities exceed 1");
        Self::from_kraus(vec![
            Matrix::identity(2).scale(C64::real(pi.max(0.0).sqrt())),
            Matrix::pauli_x().scale(C64::real(px.sqrt())),
            Matrix::pauli_y().scale(C64::real(py.sqrt())),
            Matrix::pauli_z().scale(C64::real(pz.sqrt())),
        ])
    }

    /// Bit-flip channel (X error with probability `p`) — the model used
    /// for noisy measurement readout.
    pub fn bit_flip(p: f64) -> Self {
        Self::pauli(p, 0.0, 0.0)
    }

    /// Phase-flip (dephasing) channel.
    pub fn dephasing(p: f64) -> Self {
        Self::pauli(0.0, 0.0, p)
    }

    /// Amplitude damping with decay probability `gamma`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ gamma ≤ 1`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range: {gamma}");
        let k0 = Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, (1.0 - gamma).sqrt()]]);
        let mut k1 = Matrix::zeros(2);
        k1[(0, 1)] = C64::real(gamma.sqrt());
        Self::from_kraus(vec![k0, k1])
    }

    /// Number of qubits the channel acts on (1 or 2).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The Kraus operators.
    pub fn kraus(&self) -> &[Matrix] {
        &self.ops
    }

    /// Checks the completeness relation `Σ K†K = I` to within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let dim = self.ops[0].dim();
        let mut acc = Matrix::zeros(dim);
        for k in &self.ops {
            acc = &acc + &(&k.dagger() * k);
        }
        acc.approx_eq(&Matrix::identity(dim), tol)
    }

    /// Applies the channel to `rho` on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics when `qubits.len()` does not match the channel arity.
    pub fn apply(&self, rho: &mut crate::DensityMatrix, qubits: &[usize]) {
        assert_eq!(qubits.len(), self.arity, "channel arity mismatch");
        rho.apply_kraus(&self.ops, qubits);
    }
}

/// Converts a gate *fidelity* (e.g. Table II's 99.9 % CNOT) into the error
/// probability of a depolarizing channel whose average gate fidelity equals
/// it: for a `d`-dimensional system, `F_avg = 1 - p·d/(d+1)`.
///
/// # Examples
///
/// ```
/// use dqc_sim::depolarizing_prob_for_fidelity;
/// let p = depolarizing_prob_for_fidelity(0.999, 2);
/// assert!((p - 0.0015).abs() < 1e-12);
/// ```
pub fn depolarizing_prob_for_fidelity(fidelity: f64, dim: usize) -> f64 {
    let d = dim as f64;
    ((1.0 - fidelity) * (d + 1.0) / d).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DensityMatrix, Statevector};
    use dqc_circuit::Circuit;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const TOL: f64 = 1e-10;

    fn bell_rho() -> DensityMatrix {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut sv = Statevector::zero_state(2);
        sv.apply_circuit(&c).unwrap();
        DensityMatrix::from_pure(&sv)
    }

    #[test]
    fn all_channels_are_trace_preserving() {
        for ch in [
            KrausChannel::identity1(),
            KrausChannel::depolarizing1(0.1),
            KrausChannel::depolarizing2(0.2),
            KrausChannel::pauli(0.05, 0.02, 0.03),
            KrausChannel::bit_flip(0.3),
            KrausChannel::dephasing(0.25),
            KrausChannel::amplitude_damping(0.4),
        ] {
            assert!(ch.is_trace_preserving(TOL));
        }
    }

    #[test]
    fn weight_zero_operators_are_dropped() {
        for (ch, kept) in [
            (KrausChannel::bit_flip(0.1), 2),
            (KrausChannel::depolarizing1(0.0), 1),
            (KrausChannel::amplitude_damping(0.0), 1),
            (KrausChannel::depolarizing2(0.0), 1),
            (KrausChannel::depolarizing1(0.1), 4),
        ] {
            assert_eq!(ch.kraus().len(), kept);
            assert!(ch.is_trace_preserving(TOL));
        }
    }

    #[test]
    fn depolarizing_with_p_one_fully_mixes() {
        let mut rho = DensityMatrix::from_pure(&Statevector::zero_state(1));
        // p = 1 means a uniformly random Pauli error, i.e. the state
        // becomes (ρ + XρX + YρY + ZρZ)/3 — for |0⟩⟨0| that is not quite
        // I/2; full mixing needs p = 3/4 in this parameterization.
        KrausChannel::depolarizing1(0.75).apply(&mut rho, &[0]);
        assert!(rho
            .operator()
            .approx_eq(DensityMatrix::maximally_mixed(1).operator(), TOL));
    }

    #[test]
    fn bit_flip_flips_population() {
        let mut rho = DensityMatrix::from_pure(&Statevector::zero_state(1));
        KrausChannel::bit_flip(0.2).apply(&mut rho, &[0]);
        // P(1) should now be 0.2.
        let p1 = rho.operator()[(1, 1)].re;
        assert!((p1 - 0.2).abs() < TOL);
    }

    #[test]
    fn dephasing_preserves_populations() {
        let mut sv = Statevector::zero_state(1);
        sv.apply_1q(&Matrix::hadamard(), 0);
        let mut rho = DensityMatrix::from_pure(&sv);
        KrausChannel::dephasing(0.5).apply(&mut rho, &[0]);
        assert!((rho.operator()[(0, 0)].re - 0.5).abs() < TOL);
        assert!((rho.operator()[(1, 1)].re - 0.5).abs() < TOL);
        // Coherence shrinks by (1 - 2p) = 0.
        assert!(rho.operator()[(0, 1)].norm() < TOL);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::from_pure(&Statevector::basis_state(1, 1));
        KrausChannel::amplitude_damping(0.3).apply(&mut rho, &[0]);
        assert!((rho.operator()[(1, 1)].re - 0.7).abs() < TOL);
        assert!((rho.operator()[(0, 0)].re - 0.3).abs() < TOL);
    }

    #[test]
    fn two_qubit_depolarizing_on_bell_pair() {
        let mut rho = bell_rho();
        let ideal = rho.clone();
        KrausChannel::depolarizing2(0.15).apply(&mut rho, &[0, 1]);
        assert!((rho.trace_real() - 1.0).abs() < TOL);
        // Fidelity with the ideal Bell pair drops as expected:
        // F = (1-p) + p/15 · (number of Paulis fixing |Φ+⟩ among the 15) —
        // exactly 3 non-identity Paulis (XX, -YY, ZZ) stabilize |Φ+⟩.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut bell = Statevector::zero_state(2);
        bell.apply_circuit(&c).unwrap();
        let f = rho.fidelity_with_pure(&bell);
        let expect = (1.0 - 0.15) + 0.15 / 15.0 * 3.0;
        assert!((f - expect).abs() < TOL, "f = {f}, expect {expect}");
        drop(ideal);
    }

    #[test]
    fn fidelity_probability_conversion() {
        assert!((depolarizing_prob_for_fidelity(1.0, 2) - 0.0).abs() < TOL);
        // 1-qubit: F = 1 - p/2 · (d=2: p·d/(d+1) = 2p/3)
        let p = depolarizing_prob_for_fidelity(0.9999, 2);
        assert!((p - 0.0001 * 1.5).abs() < 1e-12);
        let p4 = depolarizing_prob_for_fidelity(0.999, 4);
        assert!((p4 - 0.001 * 1.25).abs() < 1e-12);
    }

    #[test]
    fn channels_preserve_trace_on_random_states() {
        let mut rng = StdRng::seed_from_u64(0xC4A9);
        for _ in 0..128 {
            let p = rng.random_range(0.0f64..=1.0);
            let theta = rng.random_range(0.0f64..6.2);
            let mut sv = Statevector::zero_state(2);
            let mut c = Circuit::new(2);
            c.ry(0, theta).cx(0, 1);
            sv.apply_circuit(&c).unwrap();
            let mut rho = DensityMatrix::from_pure(&sv);
            KrausChannel::depolarizing1(p).apply(&mut rho, &[1]);
            assert!((rho.trace_real() - 1.0).abs() < 1e-9);
            assert!(rho.purity() <= 1.0 + 1e-9);
        }
    }
}
