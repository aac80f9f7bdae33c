//! The workspace-wide evaluation error type.

use dqc_partition::PartitionError;
use dqc_types::{Diagnostic, Site};
use std::error::Error;
use std::fmt;

/// Unified error for the evaluation engine: everything that can go wrong
/// between accepting a circuit and producing an [`crate::ExecutionReport`],
/// the partitioner's [`PartitionError`] included, behind one
/// workspace-facade type.
#[derive(Debug, Clone, PartialEq)]
pub enum DqcError {
    /// The circuit uses more qubits than the system hosts.
    CircuitTooWide {
        /// Qubits the circuit needs.
        qubits: u32,
        /// Data qubits the system provides.
        capacity: usize,
    },
    /// The qubit partitioner failed.
    Partition(PartitionError),
    /// A remote gate can never be served (no communication qubits).
    NoEntanglementPossible,
    /// An experiment or sweep was asked for zero runs.
    ///
    /// The engine rejects `runs == 0` rather than running once, because a
    /// silently invented run is indistinguishable from a real measurement
    /// in downstream averages.
    ZeroRuns,
    /// A sweep grid axis is empty, so the grid contains no cells.
    EmptySweep {
        /// Which axis was empty: `"circuits"`, `"configs"`, `"designs"`,
        /// a design-space axis name, or `"points"` for an empty subset.
        axis: &'static str,
    },
    /// A design space declares the same axis more than once, so a point
    /// would carry two coordinates for one knob.
    DuplicateAxis {
        /// Name of the repeated axis.
        axis: &'static str,
    },
    /// A design-point index does not exist in the space being evaluated.
    PointOutOfRange {
        /// The requested flat point index.
        index: usize,
        /// Number of points in the space.
        len: usize,
    },
    /// The configured [`NetworkTopology`](dqc_entanglement::NetworkTopology)
    /// covers a different number of nodes than the system hosts.
    TopologyMismatch {
        /// Nodes in the topology graph.
        topology_nodes: usize,
        /// Nodes in the system configuration.
        config_nodes: usize,
    },
    /// The configured network topology is not connected, so some node
    /// pairs could never establish end-to-end entanglement.
    DisconnectedTopology,
    /// An operation fidelity of the configuration is not a number in
    /// `[0, 1]` (NaN included).
    FidelityOutOfRange {
        /// The [`crate::OperationFidelities`] field: `"one_qubit"`,
        /// `"two_qubit"`, `"measurement"` or `"epr"`.
        operation: &'static str,
        /// The configured value.
        value: f64,
    },
}

impl fmt::Display for DqcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DqcError::CircuitTooWide { qubits, capacity } => {
                write!(
                    f,
                    "circuit needs {qubits} qubits but the system hosts {capacity}"
                )
            }
            DqcError::Partition(e) => write!(f, "partitioning failed: {e}"),
            DqcError::NoEntanglementPossible => {
                write!(
                    f,
                    "remote gates present but no communication qubits configured"
                )
            }
            DqcError::ZeroRuns => {
                write!(
                    f,
                    "experiment requested zero runs; at least one is required"
                )
            }
            DqcError::EmptySweep { axis } => {
                write!(f, "sweep grid has no cells: the `{axis}` axis is empty")
            }
            DqcError::DuplicateAxis { axis } => {
                write!(f, "design space declares the `{axis}` axis more than once")
            }
            DqcError::PointOutOfRange { index, len } => {
                write!(
                    f,
                    "design point {index} is out of range for a space of {len} points"
                )
            }
            DqcError::TopologyMismatch {
                topology_nodes,
                config_nodes,
            } => {
                write!(
                    f,
                    "network topology spans {topology_nodes} nodes but the system \
                     configures {config_nodes}"
                )
            }
            DqcError::DisconnectedTopology => {
                write!(
                    f,
                    "network topology is disconnected: some node pairs can never \
                     share entanglement"
                )
            }
            DqcError::FidelityOutOfRange { operation, value } => {
                write!(f, "the {operation} fidelity {value} is not in [0, 1]")
            }
        }
    }
}

impl DqcError {
    /// The registered diagnostic code (`dqc_types::diag::REGISTRY`) of an
    /// engine refusal: `DQC-E001`, `DQC-E004`…`DQC-E006` or `DQC-E013`.
    /// `None` for failures no static analysis can prove (partitioning,
    /// sweep declarations).
    pub fn code(&self) -> Option<&'static str> {
        self.refusal().map(|(code, _)| code)
    }

    /// The refusal as a coded finding about the circuit `label`, with
    /// this error's text as the message — how the static analyzer
    /// reports what the engine would refuse. `None` where
    /// [`DqcError::code`] is.
    pub fn diagnostic(&self, label: &str) -> Option<Diagnostic> {
        let (code, help) = self.refusal()?;
        let site = match self {
            DqcError::TopologyMismatch { .. } | DqcError::DisconnectedTopology => {
                Site::Field("topology".to_string())
            }
            DqcError::FidelityOutOfRange { operation, .. } => {
                Site::Field(format!("fidelities.{operation}"))
            }
            _ => Site::Circuit(label.to_string()),
        };
        Some(Diagnostic::new(code, site, self.to_string(), help))
    }

    /// The (code, help) pair of each refusal variant.
    fn refusal(&self) -> Option<(&'static str, &'static str)> {
        Some(match self {
            DqcError::CircuitTooWide { .. } => {
                ("DQC-E001", "shrink the circuit or add nodes/data qubits")
            }
            DqcError::TopologyMismatch { .. } => {
                ("DQC-E004", "make the topology and `num_nodes` agree")
            }
            DqcError::DisconnectedTopology => {
                ("DQC-E005", "add links until every node is reachable")
            }
            DqcError::NoEntanglementPossible => (
                "DQC-E006",
                "provision communication qubits or repartition onto one node",
            ),
            DqcError::FidelityOutOfRange { .. } => (
                "DQC-E013",
                "set every operation fidelity to a number in [0, 1]",
            ),
            _ => return None,
        })
    }
}

impl Error for DqcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DqcError::Partition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for DqcError {
    fn from(e: PartitionError) -> Self {
        DqcError::Partition(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = DqcError::CircuitTooWide {
            qubits: 64,
            capacity: 32,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("32"));
        assert!(DqcError::ZeroRuns.to_string().contains("zero runs"));
        assert!(DqcError::EmptySweep { axis: "designs" }
            .to_string()
            .contains("designs"));
        let e = DqcError::TopologyMismatch {
            topology_nodes: 4,
            config_nodes: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        assert!(DqcError::DisconnectedTopology
            .to_string()
            .contains("disconnected"));
        assert!(DqcError::DuplicateAxis { axis: "topology" }
            .to_string()
            .contains("topology"));
        let e = DqcError::PointOutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = DqcError::FidelityOutOfRange {
            operation: "measurement",
            value: 1.5,
        };
        assert!(e.to_string().contains("measurement") && e.to_string().contains("1.5"));
    }

    #[test]
    fn refusals_map_to_registered_codes() {
        let refusals = [
            DqcError::CircuitTooWide {
                qubits: 40,
                capacity: 32,
            },
            DqcError::TopologyMismatch {
                topology_nodes: 3,
                config_nodes: 2,
            },
            DqcError::DisconnectedTopology,
            DqcError::NoEntanglementPossible,
            DqcError::FidelityOutOfRange {
                operation: "epr",
                value: -0.1,
            },
        ];
        let codes = ["DQC-E001", "DQC-E004", "DQC-E005", "DQC-E006", "DQC-E013"];
        for (refusal, code) in refusals.iter().zip(codes) {
            // `Diagnostic::new` panics on an unregistered code.
            let diagnostic = refusal.diagnostic("qft-32").unwrap();
            assert_eq!(diagnostic.code, code);
            assert_eq!(Some(diagnostic.code), refusal.code());
            assert_eq!(diagnostic.message, refusal.to_string());
            assert!(diagnostic.is_error());
        }
        assert_eq!(
            refusals[2].diagnostic("qft-32").unwrap().site,
            Site::Field("topology".to_string())
        );
        assert_eq!(
            refusals[4].diagnostic("qft-32").unwrap().site,
            Site::Field("fidelities.epr".to_string())
        );
        assert_eq!(DqcError::ZeroRuns.code(), None);
        assert!(DqcError::Partition(PartitionError::EmptyGraph)
            .diagnostic("qft-32")
            .is_none());
    }

    #[test]
    fn partition_errors_chain_as_source() {
        use std::error::Error;
        let e = DqcError::Partition(PartitionError::EmptyGraph);
        assert!(e.source().is_some());
        assert!(DqcError::NoEntanglementPossible.source().is_none());
    }
}
