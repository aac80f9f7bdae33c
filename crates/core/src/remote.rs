//! Remote-gate fidelity as a function of the consumed link's fidelity.

use crate::OperationFidelities;
use dqc_sim::{state_teleportation_fidelity, teleported_cnot_fidelity, TeleportNoise};
use dqc_types::Fidelity;

/// Precomputed map from Bell-link fidelity to the process fidelity of the
/// teleported remote gate (paper §IV-C).
///
/// The teleportation pipeline is a completely positive map that is
/// **linear in the resource state**, and a Werner state is affine in its
/// fidelity parameter, so the teleported gate's process fidelity is an
/// *affine* function of the link fidelity:
/// `F_gate(F_link) = slope · F_link + intercept`, and likewise for one
/// state-teleportation hop. Each law is fixed exactly by its values at
/// the two Werner extremes `F_link = 1` and `F_link = 0.25` — no
/// interpolation error.
///
/// A table therefore costs four density-matrix evaluations, in two
/// independent *halves*: the telegate and state-teleport evaluations at
/// `F_link = 1`, and the same two at `F_link = 0.25`. The two telegate
/// evaluations, on a 6-qubit (64 × 64) operator, are nearly all of it:
/// a state teleport is a 4-qubit evaluation about 30 times cheaper. Each
/// evaluation allocates its operator's work buffers once
/// ([`dqc_sim::DensityMatrix`]), not per gate or Kraus operator. One
/// assembly step fits both laws from the halves.
/// [`RemoteFidelityTable::new`] runs both halves on the calling thread;
/// that is how the serving worker,
/// [`crate::Experiment::new`] and every direct
/// [`crate::CompiledCircuit::compile`] build theirs. The grid engine
/// behind [`crate::Sweep`] and [`crate::DesignSpace::evaluate`] instead
/// builds one table per distinct local-fidelity triple of its plan: its
/// first phase evaluates every table's two halves in parallel on the
/// plan's own workers, and its compile phase then shares each assembled
/// table with every pair that reads those fidelities. Both routes
/// assemble the same halves, so their tables are bit-identical.
///
/// # Examples
///
/// ```
/// use dqc_core::{OperationFidelities, RemoteFidelityTable};
///
/// let table = RemoteFidelityTable::new(&OperationFidelities::default());
/// let fresh = table.gate_fidelity(0.99);
/// let stale = table.gate_fidelity(0.90);
/// assert!(fresh > stale);
/// assert!(fresh.value() > 0.95);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteFidelityTable {
    slope: f64,
    intercept: f64,
    st_slope: f64,
    st_intercept: f64,
}

/// One half of a [`RemoteFidelityTable`]: the telegate and
/// state-teleport process fidelities at one Werner extreme.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableHalf {
    telegate: f64,
    state_teleport: f64,
}

impl RemoteFidelityTable {
    /// The link fidelities of the two halves, in the order
    /// [`RemoteFidelityTable::assemble`] takes them.
    pub(crate) const WERNER_EXTREMES: [f64; 2] = [1.0, 0.25];

    /// Evaluates the teleportation circuits at the two Werner extremes and
    /// fits the exact affine laws (for both the telegate and the
    /// state-teleportation hop), all on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics when `measurement` is outside `[0, 1]` or any of the three
    /// local fidelities is NaN: each makes an out-of-range noise-channel
    /// probability. [`crate::CompiledCircuit::refusals`] refuses such a
    /// configuration with [`crate::DqcError::FidelityOutOfRange`], so no
    /// compile builds a table from it.
    pub fn new(fidelities: &OperationFidelities) -> Self {
        Self::assemble(Self::WERNER_EXTREMES.map(|link| Self::half(fidelities, link)))
    }

    /// The bit patterns of the inputs a table reads: two fidelity sets
    /// with equal keys build bit-identical tables. The EPR fidelity is
    /// not an input.
    pub(crate) fn key(fidelities: &OperationFidelities) -> [u64; 3] {
        [
            fidelities.one_qubit.to_bits(),
            fidelities.two_qubit.to_bits(),
            fidelities.measurement.to_bits(),
        ]
    }

    /// Evaluates one half: both teleportation circuits consuming a Werner
    /// link of fidelity `link_fidelity` (one of
    /// [`RemoteFidelityTable::WERNER_EXTREMES`]).
    pub(crate) fn half(fidelities: &OperationFidelities, link_fidelity: f64) -> TableHalf {
        let noise = TeleportNoise {
            bell_fidelity: link_fidelity,
            local_cnot_fidelity: fidelities.two_qubit,
            measurement_fidelity: fidelities.measurement,
            single_qubit_fidelity: fidelities.one_qubit,
        };
        TableHalf {
            telegate: teleported_cnot_fidelity(&noise).value(),
            state_teleport: state_teleportation_fidelity(&noise).value(),
        }
    }

    /// Fits both affine laws from the halves at `F_link = 1` and
    /// `F_link = 0.25`, in that order.
    pub(crate) fn assemble([at_one, at_quarter]: [TableHalf; 2]) -> Self {
        let slope = (at_one.telegate - at_quarter.telegate) / 0.75;
        let st_slope = (at_one.state_teleport - at_quarter.state_teleport) / 0.75;
        Self {
            slope,
            intercept: at_one.telegate - slope,
            st_slope,
            st_intercept: at_one.state_teleport - st_slope,
        }
    }

    /// Process fidelity of a telegate remote gate consuming a link of the
    /// given fidelity (clamped to the valid Werner range `[0.25, 1]`).
    pub fn gate_fidelity(&self, link_fidelity: f64) -> Fidelity {
        let f = link_fidelity.clamp(0.25, 1.0);
        Fidelity::new(self.slope * f + self.intercept)
    }

    /// Process fidelity of one state-teleportation hop over a link of the
    /// given fidelity.
    pub fn state_teleport_fidelity(&self, link_fidelity: f64) -> Fidelity {
        let f = link_fidelity.clamp(0.25, 1.0);
        Fidelity::new(self.st_slope * f + self.st_intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RemoteFidelityTable {
        RemoteFidelityTable::new(&OperationFidelities::default())
    }

    #[test]
    fn affine_law_matches_direct_evaluation() {
        // The linearity argument must hold against the dense oracle
        // across the whole Werner range, for both laws, on Table II and
        // on degraded local operations.
        let degraded = OperationFidelities {
            one_qubit: 0.999,
            two_qubit: 0.98,
            measurement: 0.97,
            epr: 0.9,
        };
        for fidelities in [OperationFidelities::default(), degraded] {
            let t = RemoteFidelityTable::new(&fidelities);
            let noise = TeleportNoise {
                bell_fidelity: 1.0,
                local_cnot_fidelity: fidelities.two_qubit,
                measurement_fidelity: fidelities.measurement,
                single_qubit_fidelity: fidelities.one_qubit,
            };
            for i in 0..=12 {
                let link = 0.25 + 0.75 * f64::from(i) / 12.0;
                let noise = noise.with_bell_fidelity(link);
                let pairs = [
                    (t.gate_fidelity(link), teleported_cnot_fidelity(&noise)),
                    (
                        t.state_teleport_fidelity(link),
                        state_teleportation_fidelity(&noise),
                    ),
                ];
                for (via_table, direct) in pairs {
                    let (via_table, direct) = (via_table.value(), direct.value());
                    assert!(
                        (direct - via_table).abs() < 1e-12,
                        "{fidelities:?} at link {link}: affine {via_table}, direct {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_table_ii_link_fidelity_band() {
        let f = table().gate_fidelity(0.99).value();
        assert!(f > 0.97 && f < 0.995, "f = {f}");
    }

    #[test]
    fn monotone_in_link_fidelity() {
        let t = table();
        let mut prev = 0.0;
        for i in 0..=20 {
            let link = 0.25 + 0.75 * i as f64 / 20.0;
            let f = t.gate_fidelity(link).value();
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn clamps_out_of_range_links() {
        let t = table();
        assert_eq!(t.gate_fidelity(0.1), t.gate_fidelity(0.25));
        assert_eq!(t.gate_fidelity(1.5), t.gate_fidelity(1.0));
    }

    /// FNV-64 of the `to_bits` of both teleportation fidelities over a
    /// 7 × 4 × 3 × 3 noise grid (504 values), and the default table's four
    /// coefficients, both recorded at commit c6a4d62. Any change to the
    /// density kernel that moves one bit of a fidelity fails here.
    #[test]
    fn teleport_fidelities_and_default_table_keep_their_bits() {
        let mut digest = dqc_types::Fnv64::new();
        for bell_fidelity in [0.25, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0] {
            for local_cnot_fidelity in [0.9, 0.98, 0.999, 1.0] {
                for single_qubit_fidelity in [0.99, 0.9999, 1.0] {
                    for measurement_fidelity in [0.9, 0.998, 1.0] {
                        let noise = TeleportNoise {
                            bell_fidelity,
                            local_cnot_fidelity,
                            measurement_fidelity,
                            single_qubit_fidelity,
                        };
                        digest.write_f64(teleported_cnot_fidelity(&noise).value());
                        digest.write_f64(state_teleportation_fidelity(&noise).value());
                    }
                }
            }
        }
        assert_eq!(digest.finish(), 0x7114_3a70_16d5_f13c);

        let t = table();
        assert_eq!(
            [t.slope, t.intercept, t.st_slope, t.st_intercept].map(f64::to_bits),
            [
                0.99152551735614,
                0.0017604484165207879,
                0.9928161673425452,
                0.0017959581643639533
            ]
            .map(f64::to_bits)
        );
    }

    #[test]
    fn perfect_operations_give_identity_law() {
        let perfect = OperationFidelities {
            one_qubit: 1.0,
            two_qubit: 1.0,
            measurement: 1.0,
            epr: 1.0,
        };
        let t = RemoteFidelityTable::new(&perfect);
        for link in [0.25, 0.5, 0.75, 1.0] {
            assert!(
                (t.gate_fidelity(link).value() - link).abs() < 1e-9,
                "perfect locals: F_gate = F_link"
            );
        }
    }
}
