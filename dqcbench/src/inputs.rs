//! Seeded input generators. Each is a pure function of the seed: the same
//! seed yields the same circuits, design spaces, and request lists, and
//! the program under test only ever sees what these return.

use dqc_circuit::{from_qasm, to_qasm, Circuit};
use dqc_core::{Design, DesignSpace, SystemConfig};
use dqc_entanglement::TopologyFamily;
use dqc_served::Submission;
use dqc_workloads::{qaoa_regular, PaperBenchmark};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The four buildable distributed designs: `ideal` is the monolithic
/// reference and `init_buf` assumes buffers fill for free.
pub const BUILDABLE: [Design; 4] = [
    Design::Original,
    Design::SyncBuf,
    Design::AsyncBuf,
    Design::AdaptBuf,
];

/// An independent stream per use, so adding draws to one generator never
/// shifts another's inputs.
fn stream(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// An engine seed below 2^62, exact through every JSON integer path.
fn draw_seed(rng: &mut ChaCha8Rng) -> u64 {
    rng.next_u64() >> 2
}

/// A seeded QAOA MaxCut circuit on a random `degree`-regular graph.
fn seeded_qaoa(qubits: u32, degree: usize, rng: &mut ChaCha8Rng) -> Circuit {
    qaoa_regular(qubits, degree, rng)
        .expect("qubits * degree is even and degree < qubits, so the graph exists")
}

// ------------------------------------------------------------- codesign

/// Seeded runs averaged per design point: compile dominates, replays
/// stay cheap.
pub const CODESIGN_RUNS: usize = 1;

/// EPR fidelities searched (one per job).
pub const CODESIGN_EPR: [f64; 2] = [0.95, 0.99];

/// Communication/buffer provisioning searched within every job.
pub const CODESIGN_COMM: [usize; 2] = [5, 10];

/// Four-node network families (one per job); 4 × 8 data qubits hold the
/// 32-qubit circuits.
pub const CODESIGN_FAMILIES: [TopologyFamily; 3] = [
    TopologyFamily::AllToAll { nodes: 4 },
    TopologyFamily::Chain { nodes: 4 },
    TopologyFamily::Ring { nodes: 4 },
];

/// A three-node chain holds only 24 data qubits, so every 32-qubit point
/// on it is statically infeasible: each search hands the analyzer
/// prefilter points to prune.
pub const UNDERSIZED: TopologyFamily = TopologyFamily::Chain { nodes: 3 };

/// One co-design search: a circuit and the hardware slice it explores.
#[derive(Debug, Clone)]
pub struct CodesignJob {
    /// Circuit label.
    pub label: String,
    /// The circuit.
    pub circuit: Circuit,
    /// EPR fidelity × comm/buffer × {family, undersized chain} × designs.
    pub space: DesignSpace,
    /// Base simulation seed.
    pub base_seed: u64,
    /// Whether the circuit was generated from the seed rather than taken
    /// from [`CODESIGN_PAPER`].
    pub seeded: bool,
}

/// The paper benchmarks every seed's co-design search shares.
pub const CODESIGN_PAPER: [PaperBenchmark; 3] = [
    PaperBenchmark::Tlim32,
    PaperBenchmark::QaoaR4_32,
    PaperBenchmark::QaoaR8_32,
];

/// The [`CODESIGN_PAPER`] benchmarks, then seeded QAOA circuits on
/// random 3-, 4-, and 5-regular graphs. Degrees are fixed so that seeds
/// change the graphs, not how much work a search does.
pub fn codesign_circuits(seed: u64) -> Vec<(String, Circuit)> {
    let mut rng = stream(seed, 1);
    let mut circuits: Vec<(String, Circuit)> = CODESIGN_PAPER
        .into_iter()
        .map(|b| (b.to_string(), b.circuit()))
        .collect();
    for degree in 3..6 {
        circuits.push((
            format!("QAOA-r{degree}-32-s{seed}"),
            seeded_qaoa(32, degree, &mut rng),
        ));
    }
    circuits
}

/// Every (circuit × EPR fidelity × network family) search, in the fixed
/// order the timed loop cycles through.
pub fn codesign_jobs(seed: u64) -> Vec<CodesignJob> {
    let mut rng = stream(seed, 2);
    let base = SystemConfig {
        data_qubits_per_node: 8,
        ..SystemConfig::paper_two_node_32()
    };
    let mut jobs = Vec::new();
    for (i, (label, circuit)) in codesign_circuits(seed).into_iter().enumerate() {
        for epr in CODESIGN_EPR {
            for family in CODESIGN_FAMILIES {
                jobs.push(CodesignJob {
                    label: label.clone(),
                    circuit: circuit.clone(),
                    space: DesignSpace::new(base.clone())
                        .epr_fidelities(&[epr])
                        .comm_and_buffer(&CODESIGN_COMM)
                        .topologies(&[family, UNDERSIZED])
                        .designs(&BUILDABLE),
                    base_seed: draw_seed(&mut rng),
                    seeded: i >= CODESIGN_PAPER.len(),
                });
            }
        }
    }
    jobs
}

/// The small co-design space the layer probes search: the codesign
/// base system, all-to-all versus the undersized chain, both
/// provisioning levels, the buildable designs.
pub fn probe_space() -> DesignSpace {
    DesignSpace::new(SystemConfig {
        data_qubits_per_node: 8,
        ..SystemConfig::paper_two_node_32()
    })
    .comm_and_buffer(&CODESIGN_COMM)
    .topologies(&[CODESIGN_FAMILIES[0], UNDERSIZED])
    .designs(&BUILDABLE)
}

/// The distinct circuits of a job list, in first-appearance order.
pub fn codesign_circuits_of(jobs: &[CodesignJob]) -> Vec<(&str, &Circuit)> {
    let mut distinct: Vec<(&str, &Circuit)> = Vec::new();
    for job in jobs {
        if !distinct.iter().any(|(label, _)| *label == job.label) {
            distinct.push((&job.label, &job.circuit));
        }
    }
    distinct
}

// ----------------------------------------------------------- serve wire

/// The daemon's one hardware point.
pub const POINT: &str = "paper";

/// Seeded runs per wire request.
pub const SERVE_RUNS: usize = 2;

/// One request in twenty is a novel circuit (a cold compile).
pub const COLD_EVERY: usize = 20;

/// Chance that a warm request is followed by an exact duplicate.
pub const DUPLICATE_CHANCE: f64 = 0.1;

/// What a request exercises in the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A portfolio circuit already in the warm compile cache.
    Warm,
    /// An exact repeat of the previous warm request (fusion can fire).
    Duplicate,
    /// A never-seen circuit sent as QASM text: parse, cold compile,
    /// cache insert and eviction.
    Novel,
}

/// One generated wire request.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// What it exercises.
    pub kind: Kind,
    /// Circuit label.
    pub label: String,
    /// The circuit the daemon will evaluate (parsed back from the QASM
    /// text for novel requests).
    pub circuit: Arc<Circuit>,
    /// The QASM text novel requests travel as.
    pub qasm: Option<String>,
    /// Design to run.
    pub design: Design,
    /// First seed.
    pub base_seed: u64,
}

impl WireRequest {
    /// The submission as a client sends it: structured JSON for warm and
    /// duplicate requests, QASM text for novel ones.
    pub fn submission(&self) -> Submission {
        let submission = match &self.qasm {
            Some(text) => Submission::qasm(self.label.clone(), text.clone(), POINT, self.design),
            None => Submission::structured(
                self.label.clone(),
                Arc::clone(&self.circuit),
                POINT,
                self.design,
            ),
        };
        submission.runs(SERVE_RUNS).base_seed(self.base_seed)
    }
}

/// The serving portfolio the warm cache holds.
pub fn portfolio() -> Vec<(String, Arc<Circuit>)> {
    dqc_bench::serve_portfolio()
}

/// The first `count` requests of the seed's stream. Prefix-stable: the
/// first `n` requests never depend on `count`. Warm requests cycle the
/// portfolio round-robin (so every cached circuit is touched more
/// recently than any earlier novel one, and LRU eviction only ever drops
/// novel circuits) with designs rotated per pass and distinct seeds.
pub fn serve_requests(seed: u64, count: usize) -> Vec<WireRequest> {
    let portfolio = portfolio();
    let mut rng = stream(seed, 5);
    let mut warm = 0usize;
    let mut requests: Vec<WireRequest> = Vec::with_capacity(count);
    for i in 0..count {
        let request = if i % COLD_EVERY == COLD_EVERY - 1 {
            let qubits = [16, 20, 24][rng.random_range(0..3usize)];
            let degree = rng.random_range(3..5usize);
            let text = to_qasm(&seeded_qaoa(qubits, degree, &mut rng));
            let circuit = from_qasm(&text).expect("the QASM exporter's output parses");
            WireRequest {
                kind: Kind::Novel,
                label: format!("novel-{i}"),
                circuit: Arc::new(circuit),
                qasm: Some(text),
                design: BUILDABLE[rng.random_range(0..BUILDABLE.len())],
                base_seed: draw_seed(&mut rng),
            }
        } else {
            match requests.last() {
                Some(prev) if prev.kind == Kind::Warm && rng.random_bool(DUPLICATE_CHANCE) => {
                    WireRequest {
                        kind: Kind::Duplicate,
                        ..prev.clone()
                    }
                }
                _ => {
                    let (label, circuit) = &portfolio[warm % portfolio.len()];
                    let design = BUILDABLE[(warm / portfolio.len()) % BUILDABLE.len()];
                    warm += 1;
                    WireRequest {
                        kind: Kind::Warm,
                        label: label.clone(),
                        circuit: Arc::clone(circuit),
                        qasm: None,
                        design,
                        base_seed: draw_seed(&mut rng),
                    }
                }
            }
        };
        requests.push(request);
    }
    requests
}
