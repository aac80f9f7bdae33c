//! Executor simulation backends.
//!
//! The executor replays a compiled circuit through one of two engines,
//! which produce bit-for-bit identical reports:
//!
//! * **analytic** — the paper's Werner/affine fidelity path. Walks every
//!   operation of the circuit per seed. The default, bit-for-bit the
//!   historical behavior.
//! * **stabilizer** — a Clifford fast path. At compile time the circuit is
//!   certified Clifford by running it through the `dqc-sim` stabilizer
//!   tableau, and the entire local schedule is folded into a symbolic
//!   max-plus [`SchedulePlan`] over the remote-gate completion times. A
//!   seeded run then replays *only* the remote gates against the
//!   entanglement service, at a cost proportional to the number of
//!   remote gates instead of the number of gates.
//!
//! Both engines take every remote gate's fidelity from the exact affine
//! law of [`RemoteFidelityTable`](crate::RemoteFidelityTable). The engine
//! only changes how fast an answer is computed, so it is chosen in code
//! through [`SystemConfig::backend`](crate::SystemConfig::backend), not by
//! users; `Backend::Auto` picks the stabilizer engine whenever the
//! compiled circuit is Clifford-only and falls back to the analytic
//! engine otherwise.

use dqc_circuit::Circuit;
use dqc_partition::QubitMap;
use dqc_sim::Tableau;
use dqc_types::{Fidelity, NodeId, Tick};
use std::fmt;

/// Which simulation engine executes a compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Pick automatically: the stabilizer engine when the compiled
    /// circuit is Clifford-only (and the design is non-adaptive), the
    /// analytic engine otherwise.
    Auto,
    /// The analytic Werner/affine fidelity path — the paper's model and
    /// the default.
    #[default]
    Analytic,
    /// The tableau-certified Clifford fast path. Compilation fails with
    /// [`DqcError::BackendUnsupported`](crate::DqcError::BackendUnsupported)
    /// when the circuit contains a non-Clifford gate.
    Stabilizer,
}

impl Backend {
    /// Every backend.
    pub const ALL: [Backend; 3] = [Backend::Auto, Backend::Analytic, Backend::Stabilizer];

    /// The snake_case name used in labels, cache keys, and spans.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Analytic => "analytic",
            Backend::Stabilizer => "stabilizer",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A symbolic time in the max-plus algebra over remote-gate end times:
/// `value(ends) = max(base, max_j(ends[j] + offset_j))`.
///
/// Local schedules are pure max-plus systems — every operation starts at
/// the max of its qubits' ready times and finishes a fixed duration later
/// — so with the remote-gate completion times as the only unknowns, every
/// ready time (and the makespan) is exactly representable in this form.
#[derive(Debug, Clone)]
pub(crate) struct MaxPlus {
    base: Tick,
    /// `(remote gate index, offset)`, sorted by index, one entry per
    /// referenced gate (the max of colliding offsets is kept).
    offs: Vec<(usize, Tick)>,
}

impl MaxPlus {
    fn zero() -> Self {
        Self {
            base: Tick::ZERO,
            offs: Vec::new(),
        }
    }

    /// The end time of remote gate `j`, exactly.
    fn remote(j: usize) -> Self {
        Self {
            base: Tick::ZERO,
            offs: vec![(j, Tick::ZERO)],
        }
    }

    /// `self = max(self, other)` (all times are non-negative, so folding
    /// in a concrete base of zero never changes the value).
    fn merge(&mut self, other: &MaxPlus) {
        self.base = self.base.max(other.base);
        let mut merged = Vec::with_capacity(self.offs.len() + other.offs.len());
        let (mut a, mut b) = (self.offs.iter().peekable(), other.offs.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ja, wa)), Some(&&(jb, wb))) => {
                    if ja == jb {
                        merged.push((ja, wa.max(wb)));
                        a.next();
                        b.next();
                    } else if ja < jb {
                        merged.push((ja, wa));
                        a.next();
                    } else {
                        merged.push((jb, wb));
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.offs = merged;
    }

    /// `self = self + d` (distributes over the max).
    fn add(&mut self, d: Tick) {
        self.base += d;
        for (_, w) in &mut self.offs {
            *w += d;
        }
    }

    /// Evaluates against concrete remote-gate end times.
    pub(crate) fn eval(&self, ends: &[Tick]) -> Tick {
        let mut t = self.base;
        for &(j, w) in &self.offs {
            t = t.max(ends[j] + w);
        }
        t
    }
}

/// One remote gate of a [`SchedulePlan`], with its dependency time as a
/// symbolic function of the earlier remote gates' end times.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRemoteGate {
    /// When the gate's data-qubit dependencies are ready.
    pub(crate) deps: MaxPlus,
    /// The (ordered) node pair whose entanglement supply serves the gate.
    pub(crate) pair: (NodeId, NodeId),
    /// The two data-qubit indices the gate occupies.
    pub(crate) qubits: [usize; 2],
}

/// The stabilizer engine's compile-time artifact: the entire local
/// schedule folded into max-plus form, leaving only the remote gates (and
/// their entanglement-service interaction) for the per-seed replay.
#[derive(Debug, Clone)]
pub(crate) struct SchedulePlan {
    /// Remote gates in circuit order.
    pub(crate) remote: Vec<PlannedRemoteGate>,
    /// The schedule makespan as a function of remote-gate end times.
    pub(crate) makespan: MaxPlus,
    /// Per-qubit busy time from local operations only; the replay adds
    /// each remote gate's (seed-dependent) occupancy on top.
    pub(crate) local_busy: Vec<Tick>,
    /// Which qubits participate in the circuit.
    pub(crate) used: Vec<bool>,
    /// Product of all local-gate fidelity factors, in circuit order.
    pub(crate) local_fidelity: Fidelity,
    /// Tableau certification by-product: the deterministic computational-
    /// basis outcome per qubit after the circuit, `None` where a
    /// measurement would be genuinely random.
    pub(crate) outcomes: Vec<Option<bool>>,
}

impl SchedulePlan {
    /// Folds the circuit's local schedule into max-plus form, certifying
    /// it Clifford by simulating it on the stabilizer tableau.
    ///
    /// # Panics
    ///
    /// Panics when the circuit contains a non-Clifford gate; callers must
    /// check [`Circuit`] eligibility (`Gate::is_clifford` on every
    /// operation) first.
    pub(crate) fn build(circuit: &Circuit, map: &QubitMap, config: &crate::SystemConfig) -> Self {
        let n = circuit.num_qubits() as usize;
        let mut ready = vec![MaxPlus::zero(); n];
        let mut local_busy = vec![Tick::ZERO; n];
        let mut used = vec![false; n];
        let mut makespan = MaxPlus::zero();
        let mut local_fidelity = Fidelity::PERFECT;
        let mut remote = Vec::new();
        let mut tableau = Tableau::new(n);
        for op in circuit.operations() {
            tableau
                .apply(op)
                .expect("schedule plans are only built for Clifford circuits");
            let qs = op.qubits();
            if map.is_remote(op) {
                let j = remote.len();
                let mut deps = ready[qs[0].as_usize()].clone();
                deps.merge(&ready[qs[1].as_usize()]);
                remote.push(PlannedRemoteGate {
                    deps,
                    pair: crate::executor::node_pair(map, op),
                    qubits: [qs[0].as_usize(), qs[1].as_usize()],
                });
                let end = MaxPlus::remote(j);
                for q in qs {
                    ready[q.as_usize()] = end.clone();
                    used[q.as_usize()] = true;
                }
                makespan.merge(&end);
            } else {
                let (duration, fidelity) = crate::executor::local_gate_cost(op.gate(), config);
                let mut end = match qs {
                    [a] => ready[a.as_usize()].clone(),
                    [a, b] => {
                        let mut m = ready[a.as_usize()].clone();
                        m.merge(&ready[b.as_usize()]);
                        m
                    }
                    _ => {
                        let mut m = MaxPlus::zero();
                        for q in qs {
                            m.merge(&ready[q.as_usize()]);
                        }
                        m
                    }
                };
                end.add(duration);
                for q in qs {
                    ready[q.as_usize()] = end.clone();
                    local_busy[q.as_usize()] += duration;
                    used[q.as_usize()] = true;
                }
                makespan.merge(&end);
                local_fidelity *= Fidelity::new(fidelity);
            }
        }
        let outcomes = (0..n).map(|q| tableau.deterministic_outcome(q)).collect();
        Self {
            remote,
            makespan,
            local_busy,
            used,
            local_fidelity,
            outcomes,
        }
    }
}

/// The index of the first non-Clifford operation of `circuit`, if any —
/// the stabilizer engine's eligibility rule.
pub(crate) fn first_non_clifford(circuit: &Circuit) -> Option<usize> {
    circuit
        .operations()
        .iter()
        .position(|op| !op.gate().is_clifford())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_plus_merge_add_eval() {
        let ends = [Tick::new(100), Tick::new(40)];
        let mut a = MaxPlus::remote(0); // ends[0] = 100
        a.add(Tick::new(7)); // 107
        let mut b = MaxPlus::remote(1); // 40
        b.add(Tick::new(50)); // 90
        a.merge(&b);
        assert_eq!(a.eval(&ends), Tick::new(107));
        a.add(Tick::new(10));
        assert_eq!(a.eval(&ends), Tick::new(117));
        // A concrete base participates in the max.
        let mut c = MaxPlus::zero();
        c.add(Tick::new(500));
        a.merge(&c);
        assert_eq!(a.eval(&ends), Tick::new(500));
    }

    #[test]
    fn max_plus_merge_keeps_larger_offset_per_gate() {
        let mut a = MaxPlus::remote(3);
        a.add(Tick::new(5));
        let mut b = MaxPlus::remote(3);
        b.add(Tick::new(9));
        a.merge(&b);
        let mut ends = vec![Tick::ZERO; 4];
        ends[3] = Tick::new(100);
        assert_eq!(a.eval(&ends), Tick::new(109));
    }
}
