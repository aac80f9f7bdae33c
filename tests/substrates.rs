//! Cross-crate substrate invariants: the partitioner against workload
//! interaction graphs, the entanglement service under arbitrary
//! configurations, and the teleportation fidelity law.

use dqc::core::{OperationFidelities, RemoteFidelityTable};
use dqc::entanglement::{CutoffPolicy, EntanglementService, GenerationPattern, ServiceConfig};
use dqc::partition::{partition_circuit, QubitMap};
use dqc::sim::{teleported_cnot_fidelity, TeleportNoise};
use dqc::types::Tick;
use dqc::workloads::{ghz_chain, qft, random_brickwork, tlim, PaperBenchmark, TlimParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn partitioner_never_loses_to_contiguous_on_paper_benchmarks() {
    for bench in PaperBenchmark::ALL {
        let circuit = bench.circuit();
        let smart = partition_circuit(&circuit, 2, 3).unwrap();
        let naive = QubitMap::contiguous(circuit.num_qubits(), 2);
        assert!(
            smart.count_remote(&circuit) <= naive.count_remote(&circuit),
            "{bench}: partitioner {} vs contiguous {}",
            smart.count_remote(&circuit),
            naive.count_remote(&circuit)
        );
    }
}

#[test]
fn chain_workloads_cut_minimally() {
    // GHZ chains and TLIM chains have 1-bond cuts; the multilevel
    // partitioner must find them.
    let ghz = ghz_chain(32);
    let map = partition_circuit(&ghz, 2, 1).unwrap();
    assert_eq!(map.count_remote(&ghz), 1, "GHZ chain cuts a single CNOT");

    let chain = tlim(32, 1, TlimParams::default());
    let map = partition_circuit(&chain, 2, 1).unwrap();
    assert_eq!(
        map.count_remote(&chain),
        1,
        "one Trotter step cuts one bond"
    );
}

#[test]
fn qft_cut_is_invariant_to_partition() {
    // The QFT interaction graph is complete and unit-weight: every exact
    // bisection cuts exactly (n/2)² pairs, so the partitioner's output is
    // optimal by construction.
    for n in [8u32, 16, 32] {
        let circuit = qft(n);
        let map = partition_circuit(&circuit, 2, 9).unwrap();
        assert_eq!(map.count_remote(&circuit), ((n / 2) * (n / 2)) as usize);
    }
}

/// Randomized property checks, driven by a seeded generator (the workspace
/// carries no property-testing framework).
#[test]
fn partition_balance_and_consistency_on_random_brickwork() {
    // Partitions of random brickwork circuits are always exactly balanced
    // and classify every gate consistently.
    let mut gen = ChaCha8Rng::seed_from_u64(0x5B57);
    for _ in 0..24 {
        let n = gen.random_range(4u32..24) * 2; // even qubit counts
        let layers = gen.random_range(2u32..8);
        let seed = gen.random_range(0u64..1000);
        let circuit = random_brickwork(n, layers, &mut ChaCha8Rng::seed_from_u64(seed));
        let map = partition_circuit(&circuit, 2, seed).unwrap();
        let per = map.qubits_per_node();
        assert_eq!(per[0], per[1], "exact balance for even n = {n}");
        let remote = map.count_remote(&circuit);
        let local = map.count_local_2q(&circuit);
        assert_eq!(remote + local, circuit.counts().two_qubit);
    }
}

/// The entanglement service never double-books: consumed + wasted never
/// exceeds successes, and availability is never negative after arbitrary
/// advance/take interleavings.
#[test]
fn service_conservation_under_random_configurations() {
    let mut gen = ChaCha8Rng::seed_from_u64(0x5EED);
    for case in 0..24 {
        let comm = gen.random_range(1usize..12);
        let buffer = gen.random_range(0usize..12);
        let psucc = gen.random_range(0.05f64..0.95);
        let sync = gen.random_bool(0.5);
        let cutoff = if gen.random_bool(0.5) {
            Some(gen.random_range(50i64..400))
        } else {
            None
        };
        let steps = gen.random_range(1usize..40);
        let seed = gen.random_range(0u64..500);
        let config = ServiceConfig {
            num_comm_pairs: comm,
            buffer_capacity: buffer,
            success_probability: psucc,
            pattern: if sync {
                GenerationPattern::Synchronous
            } else {
                GenerationPattern::Asynchronous {
                    groups: comm.min(10),
                }
            },
            cutoff: cutoff.map_or(CutoffPolicy::Keep, |t| CutoffPolicy::MaxAge(Tick::new(t))),
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(config, seed);
        let mut taken = 0u64;
        let mut t = Tick::ZERO;
        for i in 0..steps {
            t += Tick::new(37 * (1 + (i as i64 % 5)));
            if svc.try_take(t).is_some() {
                taken += 1;
            }
        }
        let s = *svc.stats();
        assert_eq!(s.consumed, taken, "case {case}");
        assert!(s.successes >= s.consumed + s.wasted, "case {case}");
        assert!(s.attempts >= s.successes, "case {case}");
        assert!(svc.available() <= buffer + comm, "case {case}");
    }
}

/// Consumed link fidelity is always within the physical Werner range and
/// never exceeds the fresh fidelity.
#[test]
fn consumed_fidelity_stays_physical() {
    let mut gen = ChaCha8Rng::seed_from_u64(0xF1D3);
    for _ in 0..24 {
        let seed = gen.random_range(0u64..300);
        let delay = gen.random_range(0i64..2000);
        let mut svc = EntanglementService::new(ServiceConfig::default(), seed);
        let t = svc.time_of_next_available(Tick::new(delay));
        if t != Tick::MAX {
            if let Some(link) = svc.try_take(t) {
                assert!(link.fidelity <= 0.99 + 1e-12);
                assert!(link.fidelity >= 0.25 - 1e-12);
            }
        }
    }
}

#[test]
fn remote_fidelity_table_interpolates_exactly() {
    // The affine shortcut must agree with the full density-matrix
    // evaluation at several interior points (linearity of CP maps).
    let fidelities = OperationFidelities::default();
    let table = RemoteFidelityTable::new(&fidelities);
    for link in [0.3, 0.55, 0.8, 0.95] {
        let direct = teleported_cnot_fidelity(&TeleportNoise {
            bell_fidelity: link,
            local_cnot_fidelity: fidelities.two_qubit,
            measurement_fidelity: fidelities.measurement,
            single_qubit_fidelity: fidelities.one_qubit,
        });
        let fast = table.gate_fidelity(link);
        assert!(
            (direct.value() - fast.value()).abs() < 1e-9,
            "link {link}: direct {} vs table {}",
            direct.value(),
            fast.value()
        );
    }
}

#[test]
fn degraded_hardware_degrades_remote_gates_monotonically() {
    let base = RemoteFidelityTable::new(&OperationFidelities::default());
    let worse = RemoteFidelityTable::new(&OperationFidelities {
        two_qubit: 0.99,
        measurement: 0.99,
        ..OperationFidelities::default()
    });
    for link in [0.8, 0.9, 0.99] {
        assert!(worse.gate_fidelity(link) < base.gate_fidelity(link));
    }
}
