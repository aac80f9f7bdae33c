//! System configuration (the paper's §IV-A and Table II).

use dqc_entanglement::{CutoffPolicy, GenerationPattern, NetworkTopology, ServiceConfig};
use dqc_types::{Fnv64, Tick};
use std::fmt;

/// How a remote two-qubit gate is implemented (paper §II-C). The paper's
/// evaluation assumes gate teleportation (following AutoComm) and leaves
/// the combination with state teleportation as future work; this enum
/// models both protocols so the `ablate-protocol` target can quantify the
/// trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RemoteProtocol {
    /// Telegate (Fig. 1(c)): one Bell pair teleports the *gate*.
    #[default]
    GateTeleport,
    /// Teledata: teleport the control qubit to the remote node (one Bell
    /// pair), apply the gate locally, teleport it back (a second pair).
    StateTeleport,
}

impl RemoteProtocol {
    /// Bell pairs consumed per remote gate.
    pub const fn links_per_gate(self) -> usize {
        match self {
            RemoteProtocol::GateTeleport => 1,
            RemoteProtocol::StateTeleport => 2,
        }
    }

    /// The snake_case name used in labels and serialized results.
    pub const fn name(self) -> &'static str {
        match self {
            RemoteProtocol::GateTeleport => "gate_teleport",
            RemoteProtocol::StateTeleport => "state_teleport",
        }
    }
}

impl fmt::Display for RemoteProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which qubit partitioner maps data qubits onto nodes at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionStrategy {
    /// Pick automatically from the configuration: hop-distance-weighted
    /// cuts when a sparse topology is configured, the unweighted
    /// multilevel partitioner otherwise. This is the historical behavior
    /// and the default.
    #[default]
    Auto,
    /// Always the unweighted multilevel partitioner, even on a sparse
    /// topology (cut edges all cost the same regardless of hop count).
    Unweighted,
    /// Always hop-distance-weighted cuts; on the default all-to-all
    /// network every pair is one hop apart, so this degenerates to the
    /// unweighted objective.
    HopWeighted,
}

impl PartitionStrategy {
    /// The snake_case name [`SystemConfig::fingerprint`] folds in.
    pub const fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Auto => "auto",
            PartitionStrategy::Unweighted => "unweighted",
            PartitionStrategy::HopWeighted => "hop_weighted",
        }
    }
}

/// The name dqcbench's layer probe passes to [`SystemConfig::with_backend`].
///
/// There is one replay engine, the per-operation walk, so this value
/// chooses nothing. It stays only because dqcbench calls
/// `with_backend(Backend::Auto)`; the benchmark's next change deletes
/// both.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// The walk, the only engine.
    Auto,
}

/// Latencies of the primitive operations, following Table II (in ticks;
/// one tick = 0.1 local-CNOT latency = 30 ns with the paper's numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationLatencies {
    /// Single-qubit gate (Table II: 0.1).
    pub one_qubit: Tick,
    /// Local CNOT-class two-qubit gate (Table II: 1).
    pub two_qubit: Tick,
    /// Measurement (Table II: 5).
    pub measurement: Tick,
    /// One heralded entanglement-generation attempt cycle (Table II: 10).
    pub epr_cycle: Tick,
}

impl Default for OperationLatencies {
    fn default() -> Self {
        Self {
            one_qubit: Tick::ONE_QUBIT,
            two_qubit: Tick::CNOT,
            measurement: Tick::MEASUREMENT,
            epr_cycle: Tick::EPR_CYCLE,
        }
    }
}

/// Fidelities of the primitive operations (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationFidelities {
    /// Single-qubit gates: 99.99 %.
    pub one_qubit: f64,
    /// Local CNOT-class gates: 99.9 %.
    pub two_qubit: f64,
    /// Measurement: 99.8 %.
    pub measurement: f64,
    /// Freshly prepared EPR pair: 99 %.
    pub epr: f64,
}

impl Default for OperationFidelities {
    fn default() -> Self {
        Self {
            one_qubit: 0.9999,
            two_qubit: 0.999,
            measurement: 0.998,
            epr: 0.99,
        }
    }
}

/// Full system configuration of a two-node (or k-node) DQC system.
///
/// # Examples
///
/// ```
/// use dqc_core::SystemConfig;
///
/// let cfg = SystemConfig::paper_two_node_32();
/// assert_eq!(cfg.num_nodes, 2);
/// assert_eq!(cfg.data_qubits_per_node, 16);
/// assert_eq!(cfg.comm_qubits_per_node, 10);
///
/// let bigger = cfg.with_comm_and_buffer(20);
/// assert_eq!(bigger.comm_qubits_per_node, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of QPU nodes (the paper evaluates 2).
    pub num_nodes: usize,
    /// Data qubits hosted per node.
    pub data_qubits_per_node: usize,
    /// Communication qubits per node (= inter-node attempt pairs for a
    /// two-node system).
    pub comm_qubits_per_node: usize,
    /// Buffer qubits per node.
    pub buffer_qubits_per_node: usize,
    /// Operation latencies (Table II).
    pub latencies: OperationLatencies,
    /// Operation fidelities (Table II).
    pub fidelities: OperationFidelities,
    /// Success probability of one entanglement-generation attempt
    /// (§IV-A: 0.4).
    pub success_probability: f64,
    /// Idling decoherence rate κ per tick (§IV-A: `1/κ = 150 µs` =
    /// 5000 ticks).
    pub kappa_per_tick: f64,
    /// Number of stagger groups for asynchronous generation.
    pub async_groups: usize,
    /// Buffer cutoff policy (§III-C).
    pub cutoff: CutoffPolicy,
    /// Remote-gate implementation protocol.
    pub remote_protocol: RemoteProtocol,
    /// When true, every remote gate consumes *two* links and performs one
    /// BBPSSW purification round first (retrying, at one bilateral-CNOT +
    /// measurement latency per round, until the parity check succeeds) —
    /// an extension trading entanglement rate for link quality.
    pub purify_links: bool,
    /// Seed for the qubit partitioner.
    pub partition_seed: u64,
    /// Which partitioner maps qubits onto nodes at compile time.
    pub partitioner: PartitionStrategy,
    /// The inter-node network. `None` (the default) means every node pair
    /// shares a direct link — the paper's implicit all-to-all assumption,
    /// and byte-for-byte the legacy behavior. With `Some(topology)`,
    /// remote gates between non-adjacent nodes consume multi-hop swap
    /// chains routed by `dqc-entanglement`, and the partitioner weights
    /// cut edges by hop distance.
    pub topology: Option<NetworkTopology>,
}

impl SystemConfig {
    /// The paper's main configuration (§V-A): 2 nodes × (16 data + 10
    /// communication + 10 buffer) qubits.
    pub fn paper_two_node_32() -> Self {
        Self {
            num_nodes: 2,
            data_qubits_per_node: 16,
            comm_qubits_per_node: 10,
            buffer_qubits_per_node: 10,
            latencies: OperationLatencies::default(),
            fidelities: OperationFidelities::default(),
            success_probability: 0.4,
            kappa_per_tick: 2e-4,
            async_groups: 10,
            cutoff: CutoffPolicy::MaxAge(Tick::new(150)),
            remote_protocol: RemoteProtocol::GateTeleport,
            purify_links: false,
            partition_seed: 0xDAC5,
            partitioner: PartitionStrategy::Auto,
            topology: None,
        }
    }

    /// The paper's larger system (§V-C): 2 nodes × (32 data + 20
    /// communication + 20 buffer) qubits.
    pub fn paper_two_node_64() -> Self {
        Self {
            data_qubits_per_node: 32,
            comm_qubits_per_node: 20,
            buffer_qubits_per_node: 20,
            ..Self::paper_two_node_32()
        }
    }

    /// Returns a copy with `n` communication and `n` buffer qubits per
    /// node (the Fig. 7 sweep).
    pub fn with_comm_and_buffer(&self, n: usize) -> Self {
        Self {
            comm_qubits_per_node: n,
            buffer_qubits_per_node: n,
            ..self.clone()
        }
    }

    /// Returns a copy with the given network topology, adjusting
    /// `num_nodes` to match the device graph. Data, communication, and
    /// buffer qubit counts are left untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_core::SystemConfig;
    /// use dqc_entanglement::NetworkTopology;
    ///
    /// let cfg = SystemConfig::paper_two_node_32().with_topology(NetworkTopology::chain(4));
    /// assert_eq!(cfg.num_nodes, 4);
    /// ```
    #[must_use]
    pub fn with_topology(&self, topology: NetworkTopology) -> Self {
        Self {
            num_nodes: topology.num_nodes(),
            topology: Some(topology),
            ..self.clone()
        }
    }

    /// Returns a copy with the given initial EPR-pair fidelity.
    #[must_use]
    pub fn with_epr_fidelity(&self, fidelity: f64) -> Self {
        let mut config = self.clone();
        config.fidelities.epr = fidelity;
        config
    }

    /// Returns a copy with the given entanglement-attempt cycle latency.
    #[must_use]
    pub fn with_epr_cycle(&self, epr_cycle: Tick) -> Self {
        let mut config = self.clone();
        config.latencies.epr_cycle = epr_cycle;
        config
    }

    /// Returns an unchanged copy: [`Backend`] chooses nothing. Kept only
    /// for dqcbench's layer probe, and deleted with the benchmark's next
    /// change.
    #[must_use]
    pub fn with_backend(&self, _backend: Backend) -> Self {
        self.clone()
    }

    /// Total data qubits across all nodes.
    pub fn total_data_qubits(&self) -> usize {
        self.num_nodes * self.data_qubits_per_node
    }

    /// A stable 64-bit fingerprint of the full configuration — the
    /// *hardware point* identity the serving layer shards by.
    ///
    /// Every field that influences compilation or execution is folded in
    /// (qubit counts, Table II latencies and fidelities, `psucc`, κ, the
    /// cutoff policy, protocol, partitioner, partition seed, and the
    /// complete topology), so two configurations share a fingerprint
    /// exactly when they are `==`, modulo the astronomically unlikely
    /// FNV-1a collision. Unlike `Hash`-derived values, the fingerprint
    /// never changes across runs, platforms, or toolchains.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_core::SystemConfig;
    ///
    /// let paper = SystemConfig::paper_two_node_32();
    /// assert_eq!(paper.fingerprint(), paper.clone().fingerprint());
    /// assert_ne!(
    ///     paper.fingerprint(),
    ///     paper.with_comm_and_buffer(20).fingerprint()
    /// );
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.num_nodes);
        h.write_usize(self.data_qubits_per_node);
        h.write_usize(self.comm_qubits_per_node);
        h.write_usize(self.buffer_qubits_per_node);
        h.write_i64(self.latencies.one_qubit.ticks());
        h.write_i64(self.latencies.two_qubit.ticks());
        h.write_i64(self.latencies.measurement.ticks());
        h.write_i64(self.latencies.epr_cycle.ticks());
        h.write_f64(self.fidelities.one_qubit);
        h.write_f64(self.fidelities.two_qubit);
        h.write_f64(self.fidelities.measurement);
        h.write_f64(self.fidelities.epr);
        h.write_f64(self.success_probability);
        h.write_f64(self.kappa_per_tick);
        h.write_usize(self.async_groups);
        match self.cutoff {
            CutoffPolicy::Keep => h.write_u8(0),
            CutoffPolicy::MaxAge(age) => {
                h.write_u8(1);
                h.write_i64(age.ticks());
            }
        }
        h.write_str(self.remote_protocol.name());
        h.write_bool(self.purify_links);
        h.write_u64(self.partition_seed);
        h.write_str(self.partitioner.name());
        match &self.topology {
            Some(topology) => {
                h.write_u8(1);
                topology.fold_fingerprint(&mut h);
            }
            None => h.write_u8(0),
        }
        h.finish()
    }

    /// End-to-end latency of a remote gate once its Bell pair is in hand:
    /// one local CNOT layer, one measurement round, and the classically
    /// conditioned Pauli correction (the two halves of the telegate
    /// protocol pipeline across the nodes).
    pub fn remote_gate_latency(&self) -> Tick {
        self.latencies.two_qubit + self.latencies.measurement + self.latencies.one_qubit
    }

    /// Latency of one BBPSSW purification round: bilateral CNOT plus the
    /// parity measurement.
    pub fn purification_latency(&self) -> Tick {
        self.latencies.two_qubit + self.latencies.measurement
    }

    /// Latency of one state-teleportation hop (Bell measurement = CNOT +
    /// H + readout, then the classically conditioned Pauli corrections).
    pub fn state_teleport_latency(&self) -> Tick {
        self.latencies.two_qubit
            + self.latencies.one_qubit
            + self.latencies.measurement
            + self.latencies.one_qubit
    }

    /// Latency of one entanglement swap at an intermediate routing node:
    /// the repeater Bell-measures its two link halves and the endpoint
    /// applies the classically conditioned Paulis — the same circuit as a
    /// state-teleportation hop.
    pub fn entanglement_swap_latency(&self) -> Tick {
        self.state_teleport_latency()
    }

    /// Number of comm→buffer SWAP operations a node's control system can
    /// drive concurrently. Sized so the *expected* success rate never
    /// saturates the swap channels (bursts above the expectation still
    /// queue — the synchronous pattern's penalty), with one extra channel
    /// of headroom.
    pub fn swap_concurrency(&self) -> usize {
        let expected_per_cycle = self.comm_qubits_per_node as f64 * self.success_probability;
        let swap_ticks = (self.latencies.two_qubit * 3).ticks() as f64;
        let cycle_ticks = self.latencies.epr_cycle.ticks() as f64;
        ((expected_per_cycle * swap_ticks / cycle_ticks).ceil() as usize).max(1)
    }

    /// The adaptive controller's segment size `m` (§III-D): the expected
    /// number of EPR pairs generated per cycle, `⌈n_comm · psucc⌉`.
    pub fn segment_remote_gates(&self) -> usize {
        ((self.comm_qubits_per_node as f64 * self.success_probability).ceil() as usize).max(1)
    }

    /// Builds the buffered entanglement-service configuration for this
    /// system under the given generation pattern.
    pub fn service_config(&self, pattern: GenerationPattern) -> ServiceConfig {
        ServiceConfig {
            num_comm_pairs: self.comm_qubits_per_node,
            buffer_capacity: self.buffer_qubits_per_node,
            success_probability: self.success_probability,
            attempt_cycle: self.latencies.epr_cycle,
            initial_fidelity: self.fidelities.epr,
            swap_latency: self.latencies.two_qubit * 3,
            swap_concurrency: self.swap_concurrency(),
            kappa_per_tick: self.kappa_per_tick,
            pattern,
            cutoff: self.cutoff,
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_two_node_32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.latencies.one_qubit, Tick::new(1));
        assert_eq!(cfg.latencies.two_qubit, Tick::new(10));
        assert_eq!(cfg.latencies.measurement, Tick::new(50));
        assert_eq!(cfg.latencies.epr_cycle, Tick::new(100));
        assert_eq!(cfg.fidelities.one_qubit, 0.9999);
        assert_eq!(cfg.fidelities.two_qubit, 0.999);
        assert_eq!(cfg.fidelities.measurement, 0.998);
        assert_eq!(cfg.fidelities.epr, 0.99);
        assert_eq!(cfg.success_probability, 0.4);
    }

    #[test]
    fn kappa_matches_150_microseconds() {
        // 1/κ = 150 µs; one tick = 30 ns → 1/κ = 5000 ticks.
        let cfg = SystemConfig::default();
        assert!((1.0 / cfg.kappa_per_tick - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn remote_gate_latency_is_61_ticks() {
        assert_eq!(SystemConfig::default().remote_gate_latency(), Tick::new(61));
    }

    #[test]
    fn segment_size_is_four_for_paper_config() {
        // m = n_comm · psucc = 10 · 0.4 = 4 (§III-D).
        assert_eq!(SystemConfig::paper_two_node_32().segment_remote_gates(), 4);
        assert_eq!(SystemConfig::paper_two_node_64().segment_remote_gates(), 8);
    }

    #[test]
    fn larger_system_dimensions() {
        let cfg = SystemConfig::paper_two_node_64();
        assert_eq!(cfg.total_data_qubits(), 64);
        assert_eq!(cfg.comm_qubits_per_node, 20);
    }

    #[test]
    fn with_topology_syncs_node_count() {
        let cfg = SystemConfig::paper_two_node_32().with_topology(NetworkTopology::ring(4));
        assert_eq!(cfg.num_nodes, 4);
        assert_eq!(cfg.topology.as_ref().unwrap().num_edges(), 4);
        assert_eq!(cfg.data_qubits_per_node, 16, "qubit counts untouched");
        assert!(SystemConfig::default().topology.is_none());
    }

    #[test]
    fn swap_latency_matches_teleport_hop() {
        let cfg = SystemConfig::default();
        assert_eq!(
            cfg.entanglement_swap_latency(),
            cfg.state_teleport_latency()
        );
        assert_eq!(cfg.entanglement_swap_latency(), Tick::new(62));
    }

    #[test]
    fn typed_with_helpers_change_one_knob() {
        let base = SystemConfig::paper_two_node_32();
        assert_eq!(base.with_epr_fidelity(0.95).fidelities.epr, 0.95);
        assert_eq!(
            base.with_epr_cycle(Tick::new(250)).latencies.epr_cycle,
            Tick::new(250)
        );
        // The engine name chooses nothing: the copy is the same point.
        assert_eq!(base.with_backend(Backend::Auto), base);
        assert_eq!(
            base.with_backend(Backend::Auto).fingerprint(),
            base.fingerprint()
        );
        // Everything else is untouched.
        assert_eq!(base.with_epr_fidelity(0.95).latencies, base.latencies);
        assert_eq!(
            base.with_epr_cycle(Tick::new(250)).fidelities,
            base.fidelities
        );
    }

    #[test]
    fn service_config_buffered_vs_not() {
        let cfg = SystemConfig::default();
        let buffered = cfg.service_config(GenerationPattern::Synchronous);
        assert_eq!(buffered.buffer_capacity, 10);
        assert_eq!(buffered.num_comm_pairs, 10);
        assert_eq!(buffered.swap_latency, Tick::SWAP);
    }
}
