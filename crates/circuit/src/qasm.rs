//! OpenQASM 2.0 export.

use crate::{Circuit, Gate};
use std::fmt::Write as _;

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// Every gate round-trips through [`from_qasm`](crate::from_qasm) as
/// itself, so `from_qasm(to_qasm(c))` reproduces `c` — including its
/// [`fingerprint`](Circuit::fingerprint) — exactly, for every circuit
/// whose angles are finite (`from_qasm` refuses a `NaN` or `inf`).
/// `rzz`, which qelib1 does not define, is emitted natively after an
/// inline `gate` definition carrying its canonical `cx; rz; cx`
/// decomposition, which keeps the program valid for standard OpenQASM
/// 2.0 consumers without destroying the gate's identity on re-import. Angles print in Rust's
/// shortest round-trip form, so re-parsing recovers the exact bits.
/// Measurements target a classical register of the same width as the
/// qubit register.
///
/// Each operation is written straight into one buffer, reserved from
/// the operation count and trimmed to the text at the end.
///
/// # Examples
///
/// ```
/// use dqc_circuit::{to_qasm, Circuit};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure(0).measure(1);
/// let qasm = to_qasm(&bell);
/// assert!(qasm.starts_with("OPENQASM 2.0;"));
/// assert!(qasm.contains("cx q[0],q[1];"));
/// assert!(qasm.contains("measure q[0] -> c[0];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let ops = circuit.operations();
    let angles = ops.iter().filter(|op| op.gate().param().is_some()).count();
    let mut out = String::with_capacity(HEADER_BYTES + OP_BYTES * ops.len() + ANGLE_BYTES * angles);
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    if ops.iter().any(|op| matches!(op.gate(), Gate::Rzz(_))) {
        // qelib1 has no rzz; define it (canonical decomposition) so the
        // native emission below stays standard OpenQASM 2.0.
        out.push_str("gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\n");
    }
    let n = circuit.num_qubits();
    push_indexed(&mut out, "qreg q", n);
    out.push_str(";\n");
    push_indexed(&mut out, "creg c", n);
    out.push_str(";\n");
    for op in ops {
        let gate = op.gate();
        out.push_str(match gate {
            Gate::Phase(_) => "u1",
            Gate::CPhase(_) => "cu1",
            g => g.name(),
        });
        if let Some(theta) = gate.param() {
            let _ = write!(out, "({theta})");
        }
        let qubits = op.qubits();
        if matches!(gate, Gate::Measure) {
            let q = qubits[0].index();
            push_indexed(&mut out, " q", q);
            push_indexed(&mut out, " -> c", q);
        } else {
            for (i, q) in qubits.iter().enumerate() {
                push_indexed(&mut out, if i == 0 { " q" } else { ",q" }, q.index());
            }
        }
        out.push_str(";\n");
    }
    out.shrink_to_fit();
    out
}

/// The header, the `rzz` definition and both register declarations fit
/// in this many bytes for registers of up to nine-digit width.
const HEADER_BYTES: usize = 128;

/// Bytes reserved per operation without its angle: the longest line,
/// `measure q[10] -> c[10];`, with its newline.
const OP_BYTES: usize = 24;

/// Extra bytes reserved per angle: its parentheses and the 17
/// significant digits, sign and point of a typical rotation. A longer
/// angle grows the buffer.
const ANGLE_BYTES: usize = 24;

/// Appends `{prefix}[{index}]`, with the index in decimal.
fn push_indexed(out: &mut String, prefix: &str, index: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    let mut rest = index;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(prefix);
    out.push('[');
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_declares_registers() {
        let qasm = to_qasm(&Circuit::new(5));
        assert!(qasm.contains("qreg q[5];"));
        assert!(qasm.contains("creg c[5];"));
        assert!(qasm.contains("include \"qelib1.inc\";"));
    }

    #[test]
    fn rotations_carry_angles() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.25);
        assert!(to_qasm(&c).contains("rz(0.25) q[0];"));
    }

    #[test]
    fn rzz_is_native_behind_an_inline_definition() {
        let mut c = Circuit::new(2);
        c.rzz(0, 1, 0.5);
        let qasm = to_qasm(&c);
        assert!(
            qasm.contains("gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }"),
            "missing rzz definition in:\n{qasm}"
        );
        assert_eq!(qasm.lines().last(), Some("rzz(0.5) q[0],q[1];"));
    }

    #[test]
    fn rzz_free_circuits_omit_the_definition() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert!(!to_qasm(&c).contains("gate rzz"));
    }

    #[test]
    fn cphase_uses_cu1() {
        let mut c = Circuit::new(2);
        c.cp(1, 0, 0.125);
        assert!(to_qasm(&c).contains("cu1(0.125) q[1],q[0];"));
    }

    #[test]
    fn every_gate_kind_serializes() {
        let mut c = Circuit::new(3);
        c.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .t(2)
            .rx(0, 0.1)
            .ry(1, 0.2)
            .rz(2, 0.3);
        c.p(0, 0.4)
            .cx(0, 1)
            .cz(1, 2)
            .cp(0, 2, 0.5)
            .rzz(0, 1, 0.6)
            .swap(1, 2);
        c.measure(0);
        let qasm = to_qasm(&c);
        for needle in [
            "h q[0];",
            "x q[1];",
            "swap q[1],q[2];",
            "cu1(0.5)",
            "u1(0.4)",
            "measure q[0] -> c[0];",
        ] {
            assert!(qasm.contains(needle), "missing {needle} in:\n{qasm}");
        }
    }
}
