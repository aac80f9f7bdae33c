//! Random circuit generators for stress tests and benchmarks.

use dqc_circuit::Circuit;
use rand::Rng;

/// Builds a random brickwork circuit: alternating layers of random
/// single-qubit rotations and nearest-neighbour entanglers — a common
/// stand-in for "generic" workloads when stress-testing schedulers.
///
/// # Panics
///
/// Panics when `n < 2`.
///
/// # Examples
///
/// ```
/// use dqc_workloads::random_brickwork;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let c = random_brickwork(8, 6, &mut rng);
/// assert_eq!(c.num_qubits(), 8);
/// assert!(c.depth() >= 6);
/// ```
pub fn random_brickwork<R: Rng + ?Sized>(n: u32, layers: u32, rng: &mut R) -> Circuit {
    assert!(n >= 2, "brickwork needs at least 2 qubits");
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            match rng.random_range(0..3u8) {
                0 => c.rx(q, rng.random_range(0.0..std::f64::consts::TAU)),
                1 => c.ry(q, rng.random_range(0.0..std::f64::consts::TAU)),
                _ => c.rz(q, rng.random_range(0.0..std::f64::consts::TAU)),
            };
        }
        let start = layer % 2;
        let mut q = start;
        while q + 1 < n {
            c.cx(q, q + 1);
            q += 2;
        }
    }
    c
}

/// Builds a random Clifford(+optional T) circuit, useful for exercising the
/// stabilizer simulator and the commutation machinery.
///
/// When `t_density > 0`, each slot injects a T gate with that probability,
/// leaving the Clifford-only case (`t_density = 0`) exactly verifiable by
/// `dqc_sim::Tableau`.
///
/// # Panics
///
/// Panics when `n < 2` or `t_density` is outside `[0, 1]`.
pub fn random_clifford<R: Rng + ?Sized>(
    n: u32,
    gates: u32,
    t_density: f64,
    rng: &mut R,
) -> Circuit {
    assert!(n >= 2, "need at least 2 qubits");
    assert!((0.0..=1.0).contains(&t_density), "t_density out of range");
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        if t_density > 0.0 && rng.random_bool(t_density) {
            c.t(rng.random_range(0..n));
            continue;
        }
        match rng.random_range(0..5u8) {
            0 => {
                c.h(rng.random_range(0..n));
            }
            1 => {
                c.s(rng.random_range(0..n));
            }
            2 => {
                c.x(rng.random_range(0..n));
            }
            3 => {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                while b == a {
                    b = rng.random_range(0..n);
                }
                c.cx(a, b);
            }
            _ => {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                while b == a {
                    b = rng.random_range(0..n);
                }
                c.cz(a, b);
            }
        }
    }
    c
}

/// Builds a partition-friendly Clifford workload: `bridges` cross-half CX
/// gates issued up front, followed by two dense random Clifford blocks on
/// the lower and upper halves of the register.
///
/// A bisecting partitioner cuts only the bridges, and the remote phase
/// completes at the start of the schedule — entangle early, then compute
/// locally.
///
/// # Panics
///
/// Panics when `n < 4` (each half needs at least 2 qubits).
pub fn clifford_blocks<R: Rng + ?Sized>(
    n: u32,
    gates_per_block: u32,
    bridges: u32,
    rng: &mut R,
) -> Circuit {
    assert!(n >= 4, "each half needs at least 2 qubits");
    let half = n / 2;
    let mut c = Circuit::new(n);
    let block = |c: &mut Circuit, lo: u32, hi: u32, rng: &mut R| {
        let width = hi - lo;
        for _ in 0..gates_per_block {
            match rng.random_range(0..5u8) {
                0 => {
                    c.h(lo + rng.random_range(0..width));
                }
                1 => {
                    c.s(lo + rng.random_range(0..width));
                }
                2 => {
                    c.x(lo + rng.random_range(0..width));
                }
                3 => {
                    let a = rng.random_range(0..width);
                    let mut b = rng.random_range(0..width);
                    while b == a {
                        b = rng.random_range(0..width);
                    }
                    c.cx(lo + a, lo + b);
                }
                _ => {
                    let a = rng.random_range(0..width);
                    let mut b = rng.random_range(0..width);
                    while b == a {
                        b = rng.random_range(0..width);
                    }
                    c.cz(lo + a, lo + b);
                }
            }
        }
    };
    for i in 0..bridges {
        c.cx(i % half, half + (i % (n - half)));
    }
    block(&mut c, 0, half, rng);
    block(&mut c, half, n, rng);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn brickwork_is_deterministic_per_seed() {
        let a = random_brickwork(6, 4, &mut ChaCha8Rng::seed_from_u64(1));
        let b = random_brickwork(6, 4, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn brickwork_gate_budget() {
        let c = random_brickwork(8, 4, &mut ChaCha8Rng::seed_from_u64(2));
        // 8 rotations per layer + 3-4 entanglers per layer.
        assert_eq!(c.counts().single_qubit, 32);
        assert!(c.counts().two_qubit >= 12);
    }

    #[test]
    fn clifford_only_contains_no_t() {
        let c = random_clifford(5, 100, 0.0, &mut ChaCha8Rng::seed_from_u64(3));
        assert!(c.operations().iter().all(|op| op.gate().is_clifford()));
    }

    #[test]
    fn t_density_injects_t_gates() {
        let c = random_clifford(5, 200, 0.5, &mut ChaCha8Rng::seed_from_u64(4));
        let t_count = c.counts().by_name.get("t").copied().unwrap_or(0);
        assert!(t_count > 50, "expected many T gates, got {t_count}");
    }

    #[test]
    fn clifford_blocks_is_clifford_with_few_cross_half_gates() {
        let n = 16u32;
        let c = clifford_blocks(n, 200, 3, &mut ChaCha8Rng::seed_from_u64(7));
        assert!(c.operations().iter().all(|op| op.gate().is_clifford()));
        let half = n / 2;
        let cross = c
            .operations()
            .iter()
            .filter(|op| {
                let qs = op.qubits();
                qs.len() == 2 && (qs[0].index() < half) != (qs[1].index() < half)
            })
            .count();
        assert_eq!(cross, 3, "only the bridges cross the halves");
        assert!(c.operations().len() > 400);
    }

    #[test]
    fn clifford_circuit_runs_on_tableau() {
        let c = random_clifford(6, 150, 0.0, &mut ChaCha8Rng::seed_from_u64(5));
        let mut t = dqc_sim::Tableau::new(6);
        for op in c.operations() {
            t.apply(op).unwrap();
        }
        // State remains a valid stabilizer state: measuring all qubits
        // works without panics.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for q in 0..6 {
            let _ = t.measure(q, &mut rng);
        }
    }
}
