//! Compile-once circuit preparation: everything about a (circuit, config)
//! pair that is independent of the design and the random seed.
//!
//! A [`CompiledCircuit`] holds the partition map, segmentation,
//! pre-compiled [`SegmentVariants`], the ideal-device schedule, and the
//! remote-gate fidelity table, computed once and shared immutably across
//! every design and every seed, so a 50-run paper sweep pays the compiler
//! once per (circuit, config) pair.

use crate::{
    segment_sequence, Design, DqcError, ExecutionReport, PartitionStrategy, RemoteFidelityTable,
    SegmentVariants, SystemConfig,
};
use dqc_circuit::Circuit;
use dqc_entanglement::{NetworkTopology, RoutingTable};
use dqc_partition::{partition_circuit, partition_circuit_weighted, QubitMap};
use dqc_types::Tick;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of compilations since process start.
///
/// Diagnostic counter, exposed so tests (and capacity planners) can verify
/// the engine's compile-once guarantee: a sweep over S seeds and D designs
/// of the same (circuit, config) cell must increment this exactly once.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide count of compilations: every
/// [`CompiledCircuit::compile`] call and every pair a [`crate::Sweep`] or
/// [`crate::DesignSpace::evaluate`] call compiles.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// A circuit prepared for repeated execution on one [`SystemConfig`]:
/// the seed- and design-independent half of an evaluation.
///
/// Construction performs the capacity check, the multilevel partition, the
/// §III-D segmentation, ASAP/ALAP variant pre-compilation for every
/// segment, the ideal monolithic schedule, and the remote-gate fidelity
/// table. [`CompiledCircuit::run`] then replays any design with any seed
/// against this immutable data; the goldens under `tests/golden/` pin its
/// results.
///
/// # Examples
///
/// ```
/// use dqc_core::{CompiledCircuit, Design, SystemConfig};
/// use dqc_workloads::PaperBenchmark;
///
/// # fn main() -> Result<(), dqc_core::DqcError> {
/// let circuit = PaperBenchmark::QaoaR4_32.circuit();
/// let config = SystemConfig::paper_two_node_32();
/// let compiled = CompiledCircuit::compile(&circuit, &config)?;
/// // Compile once, run many: the seed loop never re-partitions.
/// for seed in 0..10 {
///     let report = compiled.run(Design::AdaptBuf, seed)?;
///     assert!(report.makespan >= report.ideal_makespan);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) circuit: Circuit,
    pub(crate) config: SystemConfig,
    pub(crate) map: QubitMap,
    pub(crate) table: RemoteFidelityTable,
    pub(crate) segments: Vec<Range<usize>>,
    pub(crate) variants: Vec<SegmentVariants>,
    pub(crate) remote_gates: usize,
    pub(crate) ideal_report: ExecutionReport,
    /// All-pairs shortest routes over the configured topology; `None`
    /// with the default all-to-all network (direct links everywhere).
    pub(crate) routing: Option<RoutingTable>,
}

impl CompiledCircuit {
    /// Prepares `circuit` for repeated execution on `config`, building
    /// its remote-fidelity table on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the first of [`CompiledCircuit::refusals`] when the pair
    /// can never compile, and [`DqcError::Partition`] when the multilevel
    /// partitioner fails.
    pub fn compile(circuit: &Circuit, config: &SystemConfig) -> Result<Self, DqcError> {
        Self::compile_with(circuit, config, || {
            let _table_span = dqc_obs::span("compile.fidelity_table");
            RemoteFidelityTable::new(&config.fidelities)
        })
    }

    /// The one compile body: [`CompiledCircuit::compile`] with the
    /// remote-fidelity table supplied by `table`, which runs last, once
    /// the refusals and the partition have passed. The grid engine passes
    /// the table it built once for every pair sharing `config`'s local
    /// fidelities; it must equal `RemoteFidelityTable::new(&config.fidelities)`.
    pub(crate) fn compile_with(
        circuit: &Circuit,
        config: &SystemConfig,
        table: impl FnOnce() -> RemoteFidelityTable,
    ) -> Result<Self, DqcError> {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut compile_span = dqc_obs::span("compile");
        if compile_span.enabled() {
            compile_span.attr("qubits", u64::from(circuit.num_qubits()));
        }
        if let Some(refusal) = Self::refusals(circuit, config).into_iter().next() {
            return Err(refusal);
        }
        let ideal_report = crate::executor::ideal_report(circuit, config);
        let routing = {
            let _route_span = dqc_obs::span("compile.route");
            config.topology.as_ref().map(RoutingTable::new)
        };
        // `Auto` keeps the historical rule: weight cut edges by hop
        // distance exactly when a sparse topology is configured, so
        // chatty qubit groups land on adjacent nodes (the matrix is
        // derived from the routing table the executor will follow, so
        // partitioner and router agree by construction). No caller in the
        // workspace sets the explicit strategies; they stay because the
        // benchmark's compile probe names them: `Unweighted` ignores hop
        // distances even on a sparse network, `HopWeighted` forces the
        // weighted objective (degenerating to the unweighted one on the
        // default all-to-all graph, where every pair is one hop apart).
        let weighted_by = |matrix: Vec<Vec<u64>>| {
            partition_circuit_weighted(circuit, config.num_nodes, config.partition_seed, &matrix)
        };
        let unweighted = || partition_circuit(circuit, config.num_nodes, config.partition_seed);
        let map = {
            let mut partition_span = dqc_obs::span("compile.partition");
            if partition_span.enabled() {
                partition_span.attr("nodes", config.num_nodes);
            }
            match (config.partitioner, &routing) {
                (PartitionStrategy::Auto | PartitionStrategy::HopWeighted, Some(table)) => {
                    weighted_by(table.hop_distance_matrix())?
                }
                (PartitionStrategy::Auto | PartitionStrategy::Unweighted, None) => unweighted()?,
                (PartitionStrategy::Unweighted, Some(_)) => unweighted()?,
                (PartitionStrategy::HopWeighted, None) => weighted_by(
                    NetworkTopology::all_to_all(config.num_nodes).hop_distance_matrix(),
                )?,
            }
        };
        let remote_gates = map.count_remote(circuit);
        let mut schedule_span = dqc_obs::span("compile.schedule");
        if schedule_span.enabled() {
            schedule_span.attr("remote_gates", remote_gates);
        }
        let m = config.segment_remote_gates();
        let ops = circuit.operations();
        let segments = segment_sequence(ops, &map, m);
        let variants: Vec<SegmentVariants> = segments
            .iter()
            .map(|seg| SegmentVariants::compile(&ops[seg.clone()], &map))
            .collect();
        if schedule_span.enabled() {
            schedule_span.attr("segments", segments.len());
        }
        drop(schedule_span);
        Ok(Self {
            circuit: circuit.clone(),
            config: config.clone(),
            map,
            table: table(),
            segments,
            variants,
            remote_gates,
            ideal_report,
            routing,
        })
    }

    /// Every static refusal of the pair, in the order
    /// [`CompiledCircuit::compile`] checks them (it returns the first):
    ///
    /// 1. [`DqcError::CircuitTooWide`] — more qubits than data capacity;
    /// 2. [`DqcError::TopologyMismatch`] — the network spans a different
    ///    node count — or else [`DqcError::DisconnectedTopology`];
    /// 3. [`DqcError::FidelityOutOfRange`] — for each of the `one_qubit`,
    ///    `two_qubit`, `measurement` and `epr` fidelities that is not a
    ///    number in `[0, 1]`.
    ///
    /// O(ops): nothing is partitioned, routed or scheduled, so admission
    /// paths can ask per request.
    pub fn refusals(circuit: &Circuit, config: &SystemConfig) -> Vec<DqcError> {
        let mut refusals = Vec::new();
        let capacity = config.total_data_qubits();
        if circuit.num_qubits() as usize > capacity {
            refusals.push(DqcError::CircuitTooWide {
                qubits: circuit.num_qubits(),
                capacity,
            });
        }
        if let Some(topology) = &config.topology {
            if topology.num_nodes() != config.num_nodes {
                refusals.push(DqcError::TopologyMismatch {
                    topology_nodes: topology.num_nodes(),
                    config_nodes: config.num_nodes,
                });
            } else if config.num_nodes > 1 && !topology.is_connected() {
                refusals.push(DqcError::DisconnectedTopology);
            }
        }
        let f = &config.fidelities;
        for (operation, value) in [
            ("one_qubit", f.one_qubit),
            ("two_qubit", f.two_qubit),
            ("measurement", f.measurement),
            ("epr", f.epr),
        ] {
            if !(0.0..=1.0).contains(&value) {
                refusals.push(DqcError::FidelityOutOfRange { operation, value });
            }
        }
        refusals
    }

    /// The circuit this compilation prepared.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The system configuration this compilation targets.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The qubit-to-node assignment chosen by the partitioner.
    pub fn qubit_map(&self) -> &QubitMap {
        &self.map
    }

    /// Number of two-qubit gates crossing the node cut.
    pub fn remote_gates(&self) -> usize {
        self.remote_gates
    }

    /// The §III-D segment boundaries (each holding at most `m` remote
    /// gates) used by the adaptive designs.
    pub fn segments(&self) -> &[Range<usize>] {
        &self.segments
    }

    /// Makespan of the circuit on an ideal monolithic device.
    pub fn ideal_makespan(&self) -> Tick {
        self.ideal_report.ideal_makespan
    }

    /// The routing table over the configured network topology; `None`
    /// with the default all-to-all network.
    pub fn routing(&self) -> Option<&RoutingTable> {
        self.routing.as_ref()
    }

    /// Whether `design` can execute at all on this compilation — the
    /// distributed designs need communication qubits once any gate
    /// crosses the cut. Every replay path refuses an unsupported design
    /// with [`DqcError::NoEntanglementPossible`].
    pub fn supports(&self, design: Design) -> bool {
        design == Design::Ideal || self.remote_gates == 0 || self.config.comm_qubits_per_node > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::{qft, PaperBenchmark};

    fn config() -> SystemConfig {
        SystemConfig::paper_two_node_32()
    }

    /// Where a test writes one of a configuration's fidelities.
    type FidelityField = fn(&mut SystemConfig) -> &mut f64;

    #[test]
    fn compile_precomputes_segments_and_variants() {
        let c = PaperBenchmark::QaoaR8_32.circuit();
        let compiled = CompiledCircuit::compile(&c, &config()).unwrap();
        assert_eq!(compiled.segments().len(), compiled.variants.len());
        assert!(!compiled.segments().is_empty());
        assert!(compiled.remote_gates() > 0);
        assert_eq!(compiled.circuit().len(), c.len());
        // Segments tile the whole operation sequence.
        assert_eq!(compiled.segments()[0].start, 0);
        assert_eq!(compiled.segments().last().unwrap().end, c.len());
    }

    #[test]
    fn compile_rejects_too_wide_circuits() {
        let err = CompiledCircuit::compile(&qft(64), &config()).unwrap_err();
        assert!(matches!(
            err,
            DqcError::CircuitTooWide {
                qubits: 64,
                capacity: 32
            }
        ));
    }

    #[test]
    fn refusals_list_every_static_refusal_and_compile_returns_the_first() {
        let mut cfg = config();
        cfg.topology = Some(NetworkTopology::chain(3));
        let circuit = qft(40);
        let refusals = CompiledCircuit::refusals(&circuit, &cfg);
        let codes: Vec<_> = refusals.iter().map(|e| e.code()).collect();
        assert_eq!(codes, [Some("DQC-E001"), Some("DQC-E004")], "{refusals:?}");
        let err = CompiledCircuit::compile(&circuit, &cfg).unwrap_err();
        assert_eq!(err, refusals[0]);
        assert!(CompiledCircuit::refusals(&qft(32), &config()).is_empty());

        // Each fidelity must be a number in [0, 1]: out-of-range values
        // are refused, one refusal per field, and the bounds compile.
        let fields: [(&str, FidelityField); 4] = [
            ("one_qubit", |c| &mut c.fidelities.one_qubit),
            ("two_qubit", |c| &mut c.fidelities.two_qubit),
            ("measurement", |c| &mut c.fidelities.measurement),
            ("epr", |c| &mut c.fidelities.epr),
        ];
        let circuit = qft(8);
        for (operation, field) in fields {
            for value in [1.5, -0.1, f64::NAN] {
                let mut cfg = config();
                *field(&mut cfg) = value;
                let refusals = CompiledCircuit::refusals(&circuit, &cfg);
                assert!(
                    matches!(
                        refusals[..],
                        [DqcError::FidelityOutOfRange { operation: o, value: v }]
                            if o == operation && v.to_bits() == value.to_bits()
                    ),
                    "{operation} = {value}: {refusals:?}"
                );
                let err = CompiledCircuit::compile(&circuit, &cfg).unwrap_err();
                assert_eq!(err.code(), Some("DQC-E013"), "{err}");
            }
            for value in [0.0, 1.0] {
                let mut cfg = config();
                *field(&mut cfg) = value;
                assert!(CompiledCircuit::refusals(&circuit, &cfg).is_empty());
                CompiledCircuit::compile(&circuit, &cfg)
                    .unwrap_or_else(|e| panic!("{operation} = {value}: {e}"));
            }
        }
    }

    #[test]
    fn compile_count_advances_with_compilation() {
        // The counter is process-global and other tests in this binary
        // compile concurrently, so only monotonicity is asserted here;
        // the exact once-per-cell delta lives in the single-test
        // tests/compile_once.rs binary where nothing else can race it.
        let c = PaperBenchmark::Tlim32.circuit();
        let before = compile_count();
        let compiled = CompiledCircuit::compile(&c, &config()).unwrap();
        assert!(compile_count() > before);
        for seed in 0..5 {
            for design in Design::ALL {
                let _ = compiled.run(design, seed).unwrap();
            }
        }
    }

    #[test]
    fn supports_reflects_comm_availability() {
        let c = PaperBenchmark::Tlim32.circuit();
        let compiled = CompiledCircuit::compile(&c, &config()).unwrap();
        assert!(compiled.supports(Design::AsyncBuf));
        let mut bare = config();
        bare.comm_qubits_per_node = 0;
        let compiled = CompiledCircuit::compile(&c, &bare).unwrap();
        assert!(!compiled.supports(Design::AsyncBuf));
        assert!(compiled.supports(Design::Ideal));
    }
}
