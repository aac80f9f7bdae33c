//! QASM interchange is lossless: `to_qasm → from_qasm` reproduces the
//! exact circuit and [`Circuit::fingerprint`] for the full QAOA/QFT/GHZ
//! serve portfolio and for seeded random circuits over the whole gate
//! set, edge angles included. QASM is the one circuit encoding on the
//! wire, so a submitted circuit hits the same warm compile-cache entry
//! as the in-memory original. The QASM text itself is a fixed point
//! after one round trip.

use dqc::circuit::{from_qasm, to_qasm, Circuit, Gate};
use dqc::types::QubitId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// The property the serve cache depends on: text round trip preserves
/// the fingerprint, per portfolio circuit.
#[test]
fn qasm_round_trip_preserves_fingerprint_for_serve_portfolio() {
    let portfolio = dqc_bench::serve_portfolio();
    assert!(!portfolio.is_empty(), "portfolio must cover real workloads");
    for (label, circuit) in &portfolio {
        let text = to_qasm(circuit);
        let parsed = from_qasm(&text)
            .unwrap_or_else(|e| panic!("{label}: emitted QASM failed to parse: {e}"));
        assert_eq!(
            parsed.fingerprint(),
            circuit.fingerprint(),
            "{label}: QASM round trip changed the fingerprint",
        );
        assert_eq!(
            parsed.num_qubits(),
            circuit.num_qubits(),
            "{label}: QASM round trip changed the qubit count",
        );
        assert_eq!(
            parsed.operations().len(),
            circuit.operations().len(),
            "{label}: QASM round trip changed the operation count",
        );
    }
}

/// The emitted text is already canonical: emitting the parsed circuit
/// again produces byte-identical QASM, so repeated hops cannot drift.
#[test]
fn qasm_emission_is_a_fixed_point() {
    for (label, circuit) in &dqc_bench::serve_portfolio() {
        let once = to_qasm(circuit);
        let twice = to_qasm(&from_qasm(&once).expect("emitted QASM parses"));
        assert_eq!(once, twice, "{label}: QASM text is not stable");
    }
}

/// Angles that stress the printer and the parser: signed zeros, the
/// smallest subnormal and normal, and the largest magnitudes.
const EDGE_ANGLES: [f64; 9] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    f64::MAX,
    -f64::MAX,
];

/// Half the angles are uniform, half are edge values or multiples of π.
fn angle(rng: &mut ChaCha8Rng) -> f64 {
    if rng.random_bool(0.5) {
        rng.random_range(-4.0 * PI..4.0 * PI)
    } else if rng.random_bool(0.5) {
        EDGE_ANGLES[rng.random_range(0..EDGE_ANGLES.len())]
    } else {
        f64::from(rng.random_range(-8i32..=8)) * PI
    }
}

/// A circuit of 1–8 qubits drawing from all 19 gate kinds: the 14
/// one-qubit kinds come first, so a one-qubit register skips the five
/// two-qubit kinds.
fn random_circuit(rng: &mut ChaCha8Rng) -> Circuit {
    let num_qubits = rng.random_range(1u32..=8);
    let mut circuit = Circuit::new(num_qubits);
    for _ in 0..rng.random_range(0..40) {
        let kinds = if num_qubits == 1 { 14 } else { 19 };
        let gate = match rng.random_range(0..kinds) {
            0 => Gate::I,
            1 => Gate::H,
            2 => Gate::X,
            3 => Gate::Y,
            4 => Gate::Z,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => Gate::Measure,
            10 => Gate::Rx(angle(rng)),
            11 => Gate::Ry(angle(rng)),
            12 => Gate::Rz(angle(rng)),
            13 => Gate::Phase(angle(rng)),
            14 => Gate::Cx,
            15 => Gate::Cz,
            16 => Gate::Swap,
            17 => Gate::CPhase(angle(rng)),
            _ => Gate::Rzz(angle(rng)),
        };
        let a = rng.random_range(0..num_qubits);
        let b = (a + rng.random_range(1..num_qubits.max(2))) % num_qubits;
        let qubits = [QubitId::new(a), QubitId::new(b)];
        circuit
            .push(gate, &qubits[..gate.arity()])
            .expect("operands are distinct and in range");
    }
    circuit
}

/// The wire's one encoding loses nothing: on seeded random circuits over
/// the whole gate set, a QASM round trip returns the same circuit and
/// fingerprint, and a second round trip leaves the text unchanged.
#[test]
fn qasm_round_trip_is_exact_on_random_circuits() {
    let mut kinds = std::collections::BTreeSet::new();
    for seed in 0..500u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng);
        kinds.extend(circuit.operations().iter().map(|op| op.gate().name()));
        let text = to_qasm(&circuit);
        let back = from_qasm(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: emitted QASM failed to parse: {e}"));
        assert_eq!(
            back, circuit,
            "seed {seed}: QASM round trip changed the circuit"
        );
        assert_eq!(
            back.fingerprint(),
            circuit.fingerprint(),
            "seed {seed}: QASM round trip changed the fingerprint",
        );
        assert_eq!(to_qasm(&back), text, "seed {seed}: QASM text is not stable");
    }
    assert_eq!(kinds.len(), 19, "every gate kind was drawn: {kinds:?}");
}
