//! Topology-layer guarantees, tested end to end through the facade:
//!
//! 1. **Default regression** — an explicit all-to-all topology is
//!    bit-for-bit identical to the default (no topology), for every
//!    design, across `Experiment` and `Sweep`.
//! 2. **Routing math** — the Werner swap-composition law used by the
//!    executor matches a direct density-matrix simulation of the swap
//!    protocol for 2- and 3-hop chains.
//! 3. **Route selection** — shortest-path ties resolve deterministically.

use dqc::workloads::PaperBenchmark;
use dqc::{Design, Experiment, NetworkTopology, RoutingTable, Sweep, SystemConfig};
use dqc_types::NodeId;

#[test]
fn all_to_all_topology_reports_are_bit_for_bit_default() {
    let baseline = SystemConfig::paper_two_node_32();
    let explicit = baseline.with_topology(NetworkTopology::all_to_all(2));
    for bench in [
        PaperBenchmark::Tlim32,
        PaperBenchmark::QaoaR8_32,
        PaperBenchmark::Qft32,
    ] {
        let circuit = bench.circuit();
        for design in Design::ALL {
            let a = Experiment::new(&circuit, &baseline)
                .unwrap()
                .design(design)
                .runs(6)
                .base_seed(2025)
                .run()
                .unwrap();
            let b = Experiment::new(&circuit, &explicit)
                .unwrap()
                .design(design)
                .runs(6)
                .base_seed(2025)
                .run()
                .unwrap();
            assert_eq!(a, b, "{bench}/{design}: topology default must be invisible");
        }
    }
}

#[test]
fn all_to_all_topology_sweeps_are_bit_for_bit_default() {
    let grid = |config: SystemConfig| {
        Sweep::new()
            .benchmarks([PaperBenchmark::Tlim32, PaperBenchmark::QaoaR4_32])
            .config("paper", config)
            .designs(&Design::ALL)
            .runs(3)
            .base_seed(11)
            .run()
            .unwrap()
    };
    let baseline = grid(SystemConfig::paper_two_node_32());
    let explicit =
        grid(SystemConfig::paper_two_node_32().with_topology(NetworkTopology::all_to_all(2)));
    assert_eq!(baseline.cells.len(), explicit.cells.len());
    for (a, b) in baseline.cells.iter().zip(&explicit.cells) {
        assert_eq!(a.report, b.report, "{}/{}", a.circuit, a.design);
    }
}

#[test]
fn four_node_all_to_all_matches_implicit_complete_graph() {
    let circuit = dqc::workloads::ising_2d(8, 4, 3, dqc::workloads::TlimParams::default());
    let mut baseline = SystemConfig::paper_two_node_64();
    baseline.num_nodes = 4;
    baseline.data_qubits_per_node = 8;
    let explicit = baseline.with_topology(NetworkTopology::all_to_all(4));
    for design in [Design::Original, Design::AsyncBuf, Design::AdaptBuf] {
        let a = Experiment::new(&circuit, &baseline)
            .unwrap()
            .design(design)
            .runs(4)
            .run()
            .unwrap();
        let b = Experiment::new(&circuit, &explicit)
            .unwrap()
            .design(design)
            .runs(4)
            .run()
            .unwrap();
        assert_eq!(a, b, "{design}: 4-node all-to-all must match default");
    }
}

#[test]
fn swap_chain_law_matches_density_matrix_for_two_hops() {
    for f1 in [0.25, 0.7, 0.9, 0.99, 1.0] {
        for f2 in [0.3, 0.8, 0.95, 1.0] {
            let routed = dqc::entanglement::swap_chain_fidelity(&[f1, f2]);
            let density = dqc::sim::entanglement_swap_chain_fidelity(&[f1, f2]);
            assert!(
                (routed - density).abs() < 1e-9,
                "2-hop ({f1}, {f2}): routing {routed} vs density {density}"
            );
        }
    }
}

#[test]
fn swap_chain_law_matches_density_matrix_for_three_hops() {
    for fs in [
        [0.99, 0.99, 0.99],
        [0.97, 0.9, 0.85],
        [0.6, 0.95, 0.8],
        [0.25, 0.99, 0.99],
    ] {
        let routed = dqc::entanglement::swap_chain_fidelity(&fs);
        let density = dqc::sim::entanglement_swap_chain_fidelity(&fs);
        assert!(
            (routed - density).abs() < 1e-9,
            "3-hop {fs:?}: routing {routed} vs density {density}"
        );
    }
}

#[test]
fn route_selection_is_deterministic_under_equal_cost_ties() {
    // ring(6): 0 → 3 has two 3-hop routes; the tie must always break the
    // same way (via ascending BFS neighbor order), and rebuilt tables
    // must agree exactly.
    let topo = NetworkTopology::ring(6);
    let table = RoutingTable::new(&topo);
    let route = table.route(NodeId::new(0), NodeId::new(3)).unwrap();
    let via: Vec<u16> = route.nodes().iter().map(|n| n.index()).collect();
    assert_eq!(via, vec![0, 1, 2, 3]);
    for _ in 0..5 {
        assert_eq!(RoutingTable::new(&topo), table);
    }
    // And a compiled circuit over a tied topology reproduces itself.
    let circuit = PaperBenchmark::QaoaR4_32.circuit();
    let mut config = SystemConfig::paper_two_node_32();
    config.data_qubits_per_node = 8;
    let config = config.with_topology(NetworkTopology::ring(4));
    let run = || {
        dqc::CompiledCircuit::compile(&circuit, &config)
            .unwrap()
            .run(Design::AsyncBuf, 3)
            .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn remote_heavy_fidelity_rises_with_connectivity() {
    // The acceptance ordering, at the facade level: chain < grid <
    // all-to-all end-to-end fidelity on the remote-heavy benchmark.
    let circuit = PaperBenchmark::QaoaR8_32.circuit();
    let mut base = SystemConfig::paper_two_node_32();
    base.data_qubits_per_node = 8;
    let fidelity = |topology: NetworkTopology| {
        Experiment::new(&circuit, &base.with_topology(topology))
            .unwrap()
            .design(Design::AsyncBuf)
            .runs(5)
            .base_seed(2025)
            .run()
            .unwrap()
            .mean_fidelity
    };
    let chain = fidelity(NetworkTopology::chain(4));
    let grid = fidelity(NetworkTopology::grid2d(2, 2));
    let full = fidelity(NetworkTopology::all_to_all(4));
    assert!(chain < grid, "chain {chain} < grid {grid}");
    assert!(grid < full, "grid {grid} < all-to-all {full}");
}
