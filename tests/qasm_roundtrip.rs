//! QASM interchange is lossless: `to_qasm → from_qasm` reproduces the
//! exact circuit and [`Circuit::fingerprint`] for the full QAOA/QFT/GHZ
//! serve portfolio and for seeded random circuits over the whole gate
//! set, edge angles included. QASM is the one circuit encoding on the
//! wire, so a submitted circuit hits the same warm compile-cache entry
//! as the in-memory original. The QASM text itself is a fixed point
//! after one round trip, and its exact bytes are pinned.

use dqc::circuit::{from_qasm, to_qasm, Circuit, Gate};
use dqc::types::{fnv64, QubitId};
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

/// `to_qasm`'s exact bytes for the serve portfolio: each text's length
/// and FNV-1a digest. A wire client sends this text and the daemon's
/// parse cache matches it byte for byte, so the writer must not drift.
#[test]
fn qasm_text_of_the_serve_portfolio_is_pinned() {
    let pinned: [(&str, usize, u64); 6] = [
        ("QAOA-r4-32", 2261, 0x924c67e3491ab418),
        ("QAOA-r8-32", 3629, 0xfc13a94abb6d5e6a),
        ("QFT-32", 19783, 0x73ba6187747edda9),
        ("QFT-16", 4627, 0x8f216f737410a219),
        ("GHZ-chain-32", 545, 0x8a5f073f02bce311),
        ("GHZ-tree-32", 530, 0x01b3198fa32de73c),
    ];
    let emitted: Vec<(String, usize, u64)> = dqc_bench::serve_portfolio()
        .iter()
        .map(|(label, circuit)| {
            let text = to_qasm(circuit);
            (label.clone(), text.len(), fnv64(text.as_bytes()))
        })
        .collect();
    let pinned: Vec<(String, usize, u64)> = pinned
        .iter()
        .map(|&(label, len, digest)| (label.to_string(), len, digest))
        .collect();
    assert_eq!(emitted, pinned);
}

/// The verbatim text of one small circuit that uses every gate kind,
/// with angles in each printed form (fraction, integer, π, tiny, huge,
/// negative zero) and multi-digit qubit indices.
#[test]
fn qasm_text_of_every_gate_kind_is_pinned() {
    let mut circuit = Circuit::new(12);
    let gates = [
        (Gate::I, [0, 0]),
        (Gate::H, [1, 0]),
        (Gate::X, [2, 0]),
        (Gate::Y, [3, 0]),
        (Gate::Z, [4, 0]),
        (Gate::S, [5, 0]),
        (Gate::Sdg, [6, 0]),
        (Gate::T, [7, 0]),
        (Gate::Tdg, [8, 0]),
        (Gate::Rx(0.25), [9, 0]),
        (Gate::Ry(-1.5), [10, 0]),
        (Gate::Rz(PI), [11, 0]),
        (Gate::Phase(1e-7), [0, 0]),
        (Gate::Cx, [0, 11]),
        (Gate::Cz, [10, 1]),
        (Gate::CPhase(12.0), [2, 9]),
        (Gate::Rzz(-0.0), [11, 10]),
        (Gate::Rzz(1e21), [3, 4]),
        (Gate::Swap, [5, 6]),
        (Gate::Measure, [11, 0]),
    ];
    for (gate, [a, b]) in gates {
        let qubits = [QubitId::new(a), QubitId::new(b)];
        circuit
            .push(gate, &qubits[..gate.arity()])
            .expect("operands are distinct and in range");
    }
    let expected = concat!(
        "OPENQASM 2.0;\n",
        "include \"qelib1.inc\";\n",
        "gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\n",
        "qreg q[12];\n",
        "creg c[12];\n",
        "id q[0];\n",
        "h q[1];\n",
        "x q[2];\n",
        "y q[3];\n",
        "z q[4];\n",
        "s q[5];\n",
        "sdg q[6];\n",
        "t q[7];\n",
        "tdg q[8];\n",
        "rx(0.25) q[9];\n",
        "ry(-1.5) q[10];\n",
        "rz(3.141592653589793) q[11];\n",
        "u1(0.0000001) q[0];\n",
        "cx q[0],q[11];\n",
        "cz q[10],q[1];\n",
        "cu1(12) q[2],q[9];\n",
        "rzz(-0) q[11],q[10];\n",
        "rzz(1000000000000000000000) q[3],q[4];\n",
        "swap q[5],q[6];\n",
        "measure q[11] -> c[11];\n",
    );
    assert_eq!(to_qasm(&circuit), expected);
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
