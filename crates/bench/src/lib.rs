//! Reproduction harness for every table and figure of the paper's
//! evaluation (§IV–V).
//!
//! Each `*_data` function regenerates the numbers behind one artifact;
//! each `print_*` function renders them in the layout of the paper. Every
//! figure and ablation runner is one [`Sweep`] — the grid of {benchmark ×
//! design × config} cells runs through the engine's thread-parallel,
//! compile-once runner, so a full `repro all` compiles each benchmark
//! once per configuration instead of once per seed. The
//! [`repro` binary](../repro/index.html) drives them from the command
//! line. Timing is not this crate's job: the workspace benchmark
//! (`dqcbench/`, declared in `BENCHMARK.json`) measures the layers
//! underneath, and checks its outputs against the goldens
//! [`Artifact`] regenerates.
//!
//! # Examples
//!
//! ```no_run
//! // Regenerate Table I (runs the partitioner on all six benchmarks):
//! let rows = dqc_bench::table1_data();
//! dqc_bench::print_table1(&rows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dqc_circuit::Circuit;
use dqc_core::{
    AveragedReport, Backend, Design, DqcError, Experiment, Sweep, SweepResult, SystemConfig,
};
use dqc_entanglement::{EntanglementService, GenerationPattern, NetworkTopology};
use dqc_partition::partition_circuit;
use dqc_types::{Json, JsonError, Tick};
use dqc_workloads::PaperBenchmark;

mod artifact;

pub use artifact::{target_data, target_names, Artifact, SCHEMA_VERSION};

/// Number of randomized runs the paper averages per bar.
pub const PAPER_RUNS: usize = 50;

/// Base seed for all reproduction sweeps (any value reproduces the same
/// output; this one is fixed so EXPERIMENTS.md numbers are stable).
pub const BASE_SEED: u64 = 2025;

// ------------------------------------------------------ Backend override

/// Process-wide backend override, as an index into [`Backend::ALL`];
/// `usize::MAX` means "no override" (the engine default, `analytic`).
static BACKEND_OVERRIDE: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(usize::MAX);

/// Selects the simulation backend every reproduction target runs on
/// (`repro --backend`'s hook). The default, [`Backend::Analytic`], is
/// bit-for-bit the pre-backend engine, so goldens are unaffected unless
/// a caller opts in. Targets that sweep backends explicitly (the
/// backend matrix) ignore the override.
pub fn set_backend(backend: Backend) {
    let index = Backend::ALL
        .iter()
        .position(|b| *b == backend)
        .expect("Backend::ALL lists every backend");
    BACKEND_OVERRIDE.store(index, std::sync::atomic::Ordering::Relaxed);
}

/// The backend selected by [`set_backend`], or the engine default.
pub fn backend_override() -> Backend {
    match BACKEND_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        usize::MAX => Backend::default(),
        index => Backend::ALL[index],
    }
}

/// The paper's two-node 32-qubit point with the process-wide backend
/// override applied — the base configuration of every 32-qubit target.
pub fn paper_config_32() -> SystemConfig {
    SystemConfig::paper_two_node_32().with_backend(backend_override())
}

/// The 64-qubit sibling of [`paper_config_32`].
pub fn paper_config_64() -> SystemConfig {
    SystemConfig::paper_two_node_64().with_backend(backend_override())
}

// ---------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Benchmark name as printed in the paper.
    pub name: String,
    /// Data-qubit count.
    pub qubits: u32,
    /// Two-qubit gates that stay within a node after partitioning.
    pub local_2q: usize,
    /// Two-qubit gates that cross the node cut.
    pub remote_2q: usize,
    /// Single-qubit gates.
    pub one_q: usize,
    /// Unit circuit depth.
    pub depth: usize,
}

impl Table1Row {
    /// Serializes the row for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("qubits", Json::Int(i64::from(self.qubits))),
            ("local_2q", Json::from(self.local_2q)),
            ("remote_2q", Json::from(self.remote_2q)),
            ("one_q", Json::from(self.one_q)),
            ("depth", Json::from(self.depth)),
        ])
    }

    /// Reads a row back from [`Table1Row::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: json.str_field("name")?.to_string(),
            qubits: u32::try_from(json.i64_field("qubits")?)
                .map_err(|_| JsonError::schema("field `qubits`: out of range"))?,
            local_2q: json.usize_field("local_2q")?,
            remote_2q: json.usize_field("remote_2q")?,
            one_q: json.usize_field("one_q")?,
            depth: json.usize_field("depth")?,
        })
    }
}

/// Regenerates Table I: benchmark properties under the 2-node METIS-style
/// partition.
pub fn table1_data() -> Vec<Table1Row> {
    PaperBenchmark::ALL
        .iter()
        .map(|bench| {
            let circuit = bench.circuit();
            let map = partition_circuit(&circuit, 2, SystemConfig::default().partition_seed)
                .expect("paper benchmarks partition cleanly");
            Table1Row {
                name: bench.to_string(),
                qubits: circuit.num_qubits(),
                local_2q: map.count_local_2q(&circuit),
                remote_2q: map.count_remote(&circuit),
                one_q: circuit.counts().single_qubit,
                depth: circuit.depth(),
            }
        })
        .collect()
}

/// Prints Table I in the paper's column layout.
pub fn print_table1(rows: &[Table1Row]) {
    println!("TABLE I: BENCHMARK PROPERTIES (2-node multilevel partition)");
    println!(
        "{:<12} {:>7} {:>10} {:>11} {:>7} {:>7}",
        "Name", "#qubits", "#local 2Q", "#remote 2Q", "#1Q", "depth"
    );
    for r in rows {
        println!(
            "{:<12} {:>7} {:>10} {:>11} {:>7} {:>7}",
            r.name, r.qubits, r.local_2q, r.remote_2q, r.one_q, r.depth
        );
    }
}

// --------------------------------------------------------------- Table II

/// One operation row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Operation name as printed in the paper.
    pub name: String,
    /// Latency in CNOT units.
    pub latency_cnot_units: f64,
    /// Operation fidelity in `[0, 1]`.
    pub fidelity: f64,
}

/// Table II plus the footnote constants, extracted from a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Data {
    /// The four operation rows.
    pub rows: Vec<Table2Row>,
    /// Per-attempt entanglement success probability.
    pub psucc: f64,
    /// Idling coherence time `1/κ` in CNOT units.
    pub inv_kappa_cnot_units: f64,
}

/// Regenerates Table II — the operation latencies/fidelities actually used
/// by the executor under `config`.
pub fn table2_data(config: &SystemConfig) -> Table2Data {
    let rows = [
        (
            "1Q gates",
            config.latencies.one_qubit,
            config.fidelities.one_qubit,
        ),
        (
            "Local CNOT gates",
            config.latencies.two_qubit,
            config.fidelities.two_qubit,
        ),
        (
            "Measurement",
            config.latencies.measurement,
            config.fidelities.measurement,
        ),
        (
            "EPR pair preparation",
            config.latencies.epr_cycle,
            config.fidelities.epr,
        ),
    ];
    Table2Data {
        rows: rows
            .into_iter()
            .map(|(name, latency, fidelity)| Table2Row {
                name: name.to_string(),
                latency_cnot_units: latency.as_cnot_units(),
                fidelity,
            })
            .collect(),
        psucc: config.success_probability,
        inv_kappa_cnot_units: 1.0 / (config.kappa_per_tick * Tick::TICKS_PER_CNOT as f64),
    }
}

impl Table2Data {
    /// Serializes the table for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("name", Json::from(r.name.as_str())),
                                ("latency_cnot_units", Json::float(r.latency_cnot_units)),
                                ("fidelity", Json::float(r.fidelity)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("psucc", Json::float(self.psucc)),
            (
                "inv_kappa_cnot_units",
                Json::float(self.inv_kappa_cnot_units),
            ),
        ])
    }

    /// Reads the table back from [`Table2Data::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            rows: json
                .array_field("rows")?
                .iter()
                .map(|r| {
                    Ok(Table2Row {
                        name: r.str_field("name")?.to_string(),
                        latency_cnot_units: r.f64_field("latency_cnot_units")?,
                        fidelity: r.f64_field("fidelity")?,
                    })
                })
                .collect::<Result<_, JsonError>>()?,
            psucc: json.f64_field("psucc")?,
            inv_kappa_cnot_units: json.f64_field("inv_kappa_cnot_units")?,
        })
    }
}

/// Prints Table II — the operation latencies/fidelities actually used by
/// the executor.
pub fn print_table2(config: &SystemConfig) {
    print_table2_from(&table2_data(config));
}

/// Prints Table II from pre-extracted data.
pub fn print_table2_from(data: &Table2Data) {
    println!("TABLE II: QUANTUM OPERATION PROPERTIES");
    println!("{:<22} {:>9} {:>10}", "Name", "Latency", "Fidelity");
    for row in &data.rows {
        println!(
            "{:<22} {:>9.1} {:>9.2}%",
            row.name,
            row.latency_cnot_units,
            row.fidelity * 100.0
        );
    }
    println!(
        "psucc = {}, 1/kappa = {:.0} CNOT units, local CNOT = 300 ns",
        data.psucc, data.inv_kappa_cnot_units
    );
}

// ----------------------------------------------------------------- Fig. 3

/// Arrival histogram of successful generations, in links per `T_local`
/// bucket, for the first `cycles` attempt cycles.
pub fn fig3_data(pattern: GenerationPattern, cycles: usize, seed: u64) -> Vec<usize> {
    let config = SystemConfig::default().service_config(pattern, true);
    let horizon = config.attempt_cycle * cycles as i64;
    let mut service = EntanglementService::new(
        dqc_entanglement::ServiceConfig {
            buffer_capacity: 10_000, // observe raw arrivals without stalls
            cutoff: dqc_entanglement::CutoffPolicy::Keep,
            ..config
        },
        seed,
    );
    service.advance_to(horizon);
    let bucket = Tick::CNOT; // one T_local
    let n_buckets = (horizon.ticks() / bucket.ticks()) as usize;
    let mut histogram = vec![0usize; n_buckets];
    for &arrival in service.arrivals() {
        let idx = (arrival.ticks() / bucket.ticks()) as usize;
        if idx < n_buckets {
            histogram[idx] += 1;
        }
    }
    histogram
}

/// Both Fig. 3 arrival histograms (links per `T_local` bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig3Histograms {
    /// Attempt cycles simulated.
    pub cycles: usize,
    /// Arrivals under lockstep (synchronous) generation.
    pub synchronous: Vec<usize>,
    /// Arrivals under staggered (asynchronous, 10 groups) generation.
    pub asynchronous: Vec<usize>,
}

/// Regenerates both Fig. 3 panels over the first `cycles` attempt cycles.
pub fn fig3_histograms(cycles: usize, seed: u64) -> Fig3Histograms {
    Fig3Histograms {
        cycles,
        synchronous: fig3_data(GenerationPattern::Synchronous, cycles, seed),
        asynchronous: fig3_data(GenerationPattern::Asynchronous { groups: 10 }, cycles, seed),
    }
}

impl Fig3Histograms {
    /// Serializes the histograms for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        let hist = |h: &[usize]| Json::Array(h.iter().map(|&c| Json::from(c)).collect());
        Json::object([
            ("cycles", Json::from(self.cycles)),
            ("synchronous", hist(&self.synchronous)),
            ("asynchronous", hist(&self.asynchronous)),
        ])
    }

    /// Reads histograms back from [`Fig3Histograms::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let hist = |key: &str| -> Result<Vec<usize>, JsonError> {
            json.array_field(key)?
                .iter()
                .map(|v| {
                    v.as_i64()
                        .and_then(|i| usize::try_from(i).ok())
                        .ok_or_else(|| JsonError::schema(format!("field `{key}`: expected counts")))
                })
                .collect()
        };
        Ok(Self {
            cycles: json.usize_field("cycles")?,
            synchronous: hist("synchronous")?,
            asynchronous: hist("asynchronous")?,
        })
    }
}

/// Prints the Fig. 3 sync-vs-async arrival comparison as text sparklines.
pub fn print_fig3(seed: u64) {
    print_fig3_from(&fig3_histograms(10, seed));
}

/// Prints Fig. 3 from pre-computed histograms.
pub fn print_fig3_from(data: &Fig3Histograms) {
    println!("FIG 3: ENTANGLEMENT ARRIVALS PER T_local (10 comm pairs, psucc = 0.4)");
    for (label, hist) in [
        ("synchronous", &data.synchronous),
        ("asynchronous", &data.asynchronous),
    ] {
        let line: String = hist
            .iter()
            .map(|&c| char::from_digit(c.min(9) as u32, 10).unwrap_or('9'))
            .collect();
        let total: usize = hist.iter().sum();
        let occupied = hist.iter().filter(|c| **c > 0).count();
        println!("{label:>13}: {line}");
        println!(
            "{:>13}  total {total} links in {} buckets ({} buckets occupied)",
            "",
            hist.len(),
            occupied
        );
    }
}

// ------------------------------------------------------------- Fig. 5 / 6

/// Depth and fidelity of every design on one benchmark (one panel of
/// Figures 5 and 6): one compilation shared by all designs.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn design_sweep(
    bench: PaperBenchmark,
    config: &SystemConfig,
    designs: &[Design],
    runs: usize,
    seed: u64,
) -> Result<Vec<AveragedReport>, DqcError> {
    let experiment = Experiment::new(&bench.circuit(), config)?
        .runs(runs)
        .base_seed(seed);
    designs
        .iter()
        .map(|&design| experiment.clone().design(design).run())
        .collect()
}

/// Extracts one benchmark panel (all designs, grid order) from a sweep.
fn panel_reports(result: &SweepResult, bench: PaperBenchmark, config: &str) -> Vec<AveragedReport> {
    result
        .panel(&bench.to_string(), config)
        .into_iter()
        .map(|cell| cell.report.clone())
        .collect()
}

/// Prints one Fig. 5 panel: absolute depth and depth relative to ideal.
pub fn print_depth_panel(bench: PaperBenchmark, reports: &[AveragedReport]) {
    println!("-- {bench}");
    for r in reports {
        println!(
            "  {:<9} depth {:>8.1}  ({:>6.2}x ideal)   link-wait {:>6.1}t  wasted {:>6.1}",
            r.design.name(),
            r.mean_depth,
            r.mean_depth_relative,
            r.mean_link_wait,
            r.mean_wasted
        );
    }
}

/// Prints one Fig. 6 panel: absolute output fidelity.
pub fn print_fidelity_panel(bench: PaperBenchmark, reports: &[AveragedReport]) {
    println!("-- {bench}");
    for r in reports {
        println!(
            "  {:<9} fidelity {}   (relative to ideal {})",
            r.design.name(),
            format_fidelity(r.mean_fidelity),
            format_fidelity(relative_to_ideal(reports, r))
        );
    }
}

/// Formats a fidelity with fixed decimals, switching to scientific
/// notation when the value would round to zero (QFT's collapse remains
/// comparable across designs).
fn format_fidelity(f: f64) -> String {
    if f == 0.0 || f >= 5e-4 {
        format!("{f:.4}")
    } else {
        format!("{f:.2e}")
    }
}

fn relative_to_ideal(reports: &[AveragedReport], r: &AveragedReport) -> f64 {
    let ideal = reports
        .iter()
        .find(|x| x.design == Design::Ideal)
        .map_or(1.0, |x| x.mean_fidelity);
    if ideal > 0.0 {
        r.mean_fidelity / ideal
    } else {
        0.0
    }
}

/// The shared Fig. 5/6 grid: the four 32-qubit benchmarks × all six
/// designs on the paper configuration, as one parallel sweep.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn fig56_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    Sweep::new()
        .benchmarks(PaperBenchmark::FIG5)
        .config("paper", paper_config_32())
        .designs(&Design::ALL)
        .runs(runs)
        .base_seed(seed)
        .run()
}

/// Prints Figure 5 from a completed [`fig56_sweep`] grid.
pub fn print_fig5_from(result: &SweepResult, runs: usize) {
    println!("FIG 5: CIRCUIT DEPTH ACROSS DESIGNS ({runs}-run averages)");
    for bench in PaperBenchmark::FIG5 {
        print_depth_panel(bench, &panel_reports(result, bench, "paper"));
    }
}

/// Prints Figure 6 from a completed [`fig56_sweep`] grid.
pub fn print_fig6_from(result: &SweepResult, runs: usize) {
    println!("FIG 6: CIRCUIT FIDELITY ACROSS DESIGNS ({runs}-run averages)");
    for bench in PaperBenchmark::FIG5 {
        print_fidelity_panel(bench, &panel_reports(result, bench, "paper"));
    }
}

/// Runs and prints the full Figure 5 (depth, 4 × 32-qubit benchmarks).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_fig5(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_fig5_from(&fig56_sweep(runs, seed)?, runs);
    Ok(())
}

/// Runs and prints the full Figure 6 (fidelity, 4 × 32-qubit benchmarks).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_fig6(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_fig6_from(&fig56_sweep(runs, seed)?, runs);
    Ok(())
}

/// Runs the shared Fig. 5/6 grid **once** and prints both figures —
/// Figures 5 and 6 are two renderings of the same experiments, so the
/// `all` reproduction path uses this instead of paying the sweep twice.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_fig56(runs: usize, seed: u64) -> Result<(), DqcError> {
    let result = fig56_sweep(runs, seed)?;
    print_fig5_from(&result, runs);
    println!();
    print_fig6_from(&result, runs);
    Ok(())
}

// ----------------------------------------------------------------- Fig. 7

/// The communication/buffer-qubit counts swept by Figure 7.
const FIG7_COMM_COUNTS: [usize; 3] = [10, 15, 20];

/// The sweep grid behind Figure 7: QAOA-r8-32 with 10/15/20 communication
/// and buffer qubits (buffered designs + ideal), one configuration axis.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn fig7_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut designs = Design::BUFFERED.to_vec();
    designs.push(Design::Ideal);
    let mut sweep = Sweep::new()
        .benchmark(PaperBenchmark::QaoaR8_32)
        .designs(&designs)
        .runs(runs)
        .base_seed(seed);
    for n in FIG7_COMM_COUNTS {
        sweep = sweep.config(
            format!("comm{n}"),
            paper_config_32().with_comm_and_buffer(n),
        );
    }
    sweep.run()
}

/// Prints Figure 7 from a completed [`fig7_sweep`] grid.
pub fn print_fig7_from(result: &SweepResult, runs: usize) {
    println!("FIG 7: QAOA-r8-32 DEPTH vs COMMUNICATION/BUFFER QUBITS ({runs}-run averages)");
    for n in FIG7_COMM_COUNTS {
        println!("-- #comm_qb = {n}, #buff_qb = {n}");
        for cell in result.panel(&PaperBenchmark::QaoaR8_32.to_string(), &format!("comm{n}")) {
            let r = &cell.report;
            println!(
                "  {:<9} depth {:>8.1}  ({:>6.2}x ideal)  fidelity {:.4}",
                r.design.name(),
                r.mean_depth,
                r.mean_depth_relative,
                r.mean_fidelity
            );
        }
    }
}

/// Runs and prints Figure 7: QAOA-r8-32 depth with 10/15/20 communication
/// and buffer qubits (buffered designs + ideal), as one sweep over the
/// configuration axis.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_fig7(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_fig7_from(&fig7_sweep(runs, seed)?, runs);
    Ok(())
}

// ----------------------------------------------------------------- Fig. 8

/// Runs and prints Figure 8: the 64-qubit system (32 data + 20 comm + 20
/// buffer per node) on QAOA-r4-64 and QAOA-r8-64.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_fig8(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_fig8_from(&fig8_sweep(runs, seed)?, runs);
    Ok(())
}

/// The sweep grid behind Figure 8: QAOA-r4-64 / QAOA-r8-64 × all designs
/// on the 64-qubit system configuration.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn fig8_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    Sweep::new()
        .benchmarks(PaperBenchmark::FIG8)
        .config("paper64", paper_config_64())
        .designs(&Design::ALL)
        .runs(runs)
        .base_seed(seed)
        .run()
}

/// Prints Figure 8 from a completed [`fig8_sweep`] grid.
pub fn print_fig8_from(result: &SweepResult, runs: usize) {
    println!("FIG 8: 64-QUBIT SYSTEM DEPTH ACROSS DESIGNS ({runs}-run averages)");
    for bench in PaperBenchmark::FIG8 {
        print_depth_panel(bench, &panel_reports(result, bench, "paper64"));
    }
}

// --------------------------------------------------------- Topology sweep

/// The topology families swept by [`run_topology_sweep`], with their
/// device graphs for a given node count.
fn topology_axis(nodes: usize) -> Vec<(&'static str, NetworkTopology)> {
    let grid = match nodes {
        4 => NetworkTopology::grid2d(2, 2),
        8 => NetworkTopology::grid2d(2, 4),
        n => NetworkTopology::grid2d(1, n),
    };
    vec![
        ("chain", NetworkTopology::chain(nodes)),
        ("ring", NetworkTopology::ring(nodes)),
        ("grid", grid),
        ("all_to_all", NetworkTopology::all_to_all(nodes)),
    ]
}

/// The sweep grid behind the topology figure: the remote-heavy QAOA-r8-32
/// benchmark on {chain, ring, grid, all-to-all} × node-count
/// configurations, async-buffered design, as one compile-once [`Sweep`].
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn topology_sweep(nodes: usize, runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut base = paper_config_32();
    base.data_qubits_per_node = 32 / nodes;
    let mut sweep = Sweep::new()
        .benchmark(PaperBenchmark::QaoaR8_32)
        .designs(&[Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for (name, topology) in topology_axis(nodes) {
        sweep = sweep.config(name, base.with_topology(topology));
    }
    sweep.run()
}

/// Runs and prints the network-topology sweep (extension beyond the
/// paper): end-to-end depth and fidelity of the remote-heavy QAOA-r8-32
/// benchmark when the implicit all-to-all network is replaced by sparse
/// device graphs whose non-adjacent remote gates pay multi-hop swap
/// chains.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_topology_sweep(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_topology_from(&topology_sweep_all(runs, seed)?, runs);
    Ok(())
}

/// The node counts covered by the topology-sweep target.
pub const TOPOLOGY_NODE_COUNTS: [usize; 2] = [2, 4];

/// Runs the topology sweep for every node count in
/// [`TOPOLOGY_NODE_COUNTS`], pairing each count with its grid.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn topology_sweep_all(runs: usize, seed: u64) -> Result<Vec<(usize, SweepResult)>, DqcError> {
    TOPOLOGY_NODE_COUNTS
        .into_iter()
        .map(|nodes| Ok((nodes, topology_sweep(nodes, runs, seed)?)))
        .collect()
}

/// Prints the topology sweep from completed [`topology_sweep_all`] grids.
pub fn print_topology_from(results: &[(usize, SweepResult)], runs: usize) {
    println!("TOPOLOGY SWEEP: QAOA-r8-32 ACROSS NETWORK TOPOLOGIES ({runs}-run averages)");
    for (nodes, result) in results {
        println!("-- {nodes} nodes x {} data qubits", 32 / nodes);
        for cell in &result.cells {
            let r = &cell.report;
            println!(
                "  {:<10} depth {:>8.1}  ({:>6.2}x ideal)  fidelity {:.4}  link-wait {:>6.1}t",
                cell.config, r.mean_depth, r.mean_depth_relative, r.mean_fidelity, r.mean_link_wait
            );
        }
    }
}

// --------------------------------------------------------------- Codesign

/// The communication/buffer counts searched by the codesign target.
const CODESIGN_COMM_AXIS: [usize; 3] = [5, 10, 20];

/// The initial EPR fidelities searched by the codesign target.
const CODESIGN_EPR_AXIS: [f64; 2] = [0.95, 0.99];

/// The designs searched by the codesign target: the paper's buildable
/// distributed designs. `ideal` is the monolithic reference (not a
/// distributed design one could provision), and `init_buf` assumes
/// pre-execution idle time that fills every buffer for free — neither is
/// a fair candidate under a hardware-cost objective.
const CODESIGN_DESIGNS: [Design; 4] = [
    Design::Original,
    Design::SyncBuf,
    Design::AsyncBuf,
    Design::AdaptBuf,
];

/// The design space behind the `codesign` repro target: EPR fidelity ×
/// comm/buffer provisioning × buildable designs around the paper's
/// two-node 32-qubit base system.
pub fn codesign_space() -> dqc_core::DesignSpace {
    dqc_core::DesignSpace::new(paper_config_32())
        .epr_fidelities(&CODESIGN_EPR_AXIS)
        .comm_and_buffer(&CODESIGN_COMM_AXIS)
        .designs(&CODESIGN_DESIGNS)
}

/// The paper's recommended operating point as a structured scenario key:
/// `adapt_buf` on the two-node 32-qubit system (10 comm + 10 buffer
/// qubits per node, 99 % EPR fidelity) running the remote-heavy
/// QAOA-r8-32 benchmark.
pub fn codesign_paper_point() -> dqc_core::ScenarioKey {
    dqc_core::ScenarioKey {
        circuit: PaperBenchmark::QaoaR8_32.to_string(),
        values: vec![
            dqc_core::AxisValue::EprFidelity(0.99),
            dqc_core::AxisValue::CommAndBuffer(10),
            dqc_core::AxisValue::Design(Design::AdaptBuf),
        ],
    }
}

/// Runs the codesign search behind the `codesign` repro target: an
/// exhaustive grid over [`codesign_space`] on QAOA-r8-32, priced by the
/// default cost model, with Pareto-frontier extraction over (fidelity ↑,
/// relative depth ↓, hardware cost ↓).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn codesign_search(runs: usize, seed: u64) -> Result<dqc_codesign::CodesignResult, DqcError> {
    dqc_codesign::Codesign::benchmark(PaperBenchmark::QaoaR8_32, codesign_space())
        .runs(runs)
        .base_seed(seed)
        .run()
}

/// Prints a completed codesign search: one row per frontier point (the
/// paper operating point flagged), then the dominated-point count.
pub fn print_codesign_from(result: &dqc_codesign::CodesignResult, runs: usize) {
    println!(
        "CODESIGN SEARCH: {} over {} design points ({runs}-run averages, {} compilations)",
        result.circuit,
        result.candidates.len(),
        result.compilations
    );
    println!("Pareto frontier (fidelity max, depth-vs-ideal min, hardware cost min):");
    let paper_point = codesign_paper_point();
    for c in result.frontier_candidates() {
        let marker = if c.key == paper_point {
            "  <- paper operating point"
        } else {
            ""
        };
        println!(
            "  * {:<55} depth {:>6.2}x  fidelity {:.4}  cost {:>6.1}{marker}",
            c.key.point_label(),
            c.objectives.depth_relative,
            c.objectives.fidelity,
            c.objectives.hardware_cost
        );
    }
    let dominated = result.candidates.len() - result.frontier.len();
    println!(
        "dominated: {dominated} of {} points",
        result.candidates.len()
    );
}

/// Runs and prints the codesign search (the paper's co-design loop as a
/// reproduction target).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_codesign(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_codesign_from(&codesign_search(runs, seed)?, runs);
    Ok(())
}

// -------------------------------------------------------------- Ablations

/// Sweeps the buffer cutoff age and reports depth/fidelity/waste for one
/// design (extension beyond the paper: quantifies §III-C's cutoff remark).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_cutoff_ablation(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_cutoff_ablation_from(&cutoff_ablation_sweep(runs, seed)?, runs);
    Ok(())
}

/// The sweep grid behind the cutoff ablation (config labels are the
/// cutoff ages in ticks).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn cutoff_ablation_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let cutoffs = [50i64, 100, 150, 250, 500, 1000];
    let mut sweep = Sweep::new()
        .benchmark(PaperBenchmark::QaoaR8_32)
        .designs(&[Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for t in cutoffs {
        let mut config = paper_config_32();
        config.cutoff = dqc_entanglement::CutoffPolicy::MaxAge(Tick::new(t));
        sweep = sweep.config(format!("{t}"), config);
    }
    sweep.run()
}

/// Prints the cutoff ablation from a completed
/// [`cutoff_ablation_sweep`] grid.
pub fn print_cutoff_ablation_from(result: &SweepResult, runs: usize) {
    println!("ABLATION: BUFFER CUTOFF AGE (QAOA-r8-32, async_buf, {runs}-run averages)");
    for cell in &result.cells {
        let r = &cell.report;
        println!(
            "  cutoff {:>5}t: depth {:>7.1}  fidelity {:.4}  wasted {:>6.1}",
            cell.config, r.mean_depth, r.mean_fidelity, r.mean_wasted
        );
    }
}

/// Sweeps the per-attempt success probability, showing where buffering
/// stops mattering (extension).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_psucc_ablation(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_psucc_ablation_from(&psucc_ablation_sweep(runs, seed)?, runs);
    Ok(())
}

/// The success probabilities swept by the psucc ablation.
const PSUCC_AXIS: [f64; 5] = [0.1, 0.2, 0.4, 0.6, 0.8];

/// The sweep grid behind the psucc ablation (config labels are the
/// probabilities).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn psucc_ablation_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut sweep = Sweep::new()
        .benchmark(PaperBenchmark::QaoaR8_32)
        .designs(&[Design::Original, Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for p in PSUCC_AXIS {
        let mut config = paper_config_32();
        config.success_probability = p;
        sweep = sweep.config(format!("{p}"), config);
    }
    sweep.run()
}

/// Prints the psucc ablation from a completed [`psucc_ablation_sweep`]
/// grid.
pub fn print_psucc_ablation_from(result: &SweepResult, runs: usize) {
    println!("ABLATION: SUCCESS PROBABILITY (QAOA-r8-32, {runs}-run averages)");
    let name = PaperBenchmark::QaoaR8_32.to_string();
    for p in PSUCC_AXIS {
        let orig = &result
            .cell(&name, &format!("{p}"), Design::Original)
            .expect("psucc sweep covers every probability")
            .report;
        let asyn = &result
            .cell(&name, &format!("{p}"), Design::AsyncBuf)
            .expect("psucc sweep covers every probability")
            .report;
        println!(
            "  psucc {p:.1}: original {:>7.1}  async_buf {:>7.1}  (gain {:>5.2}x)",
            orig.mean_depth,
            asyn.mean_depth,
            orig.mean_depth / asyn.mean_depth
        );
    }
}

/// Compares the two remote-gate protocols (extension: the paper's stated
/// future work of combining gate and state teleportation).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_protocol_ablation(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_protocol_ablation_from(&protocol_ablation_sweep(runs, seed)?, runs);
    Ok(())
}

/// The two protocols compared by the protocol ablation.
const PROTOCOL_AXIS: [dqc_core::RemoteProtocol; 2] = [
    dqc_core::RemoteProtocol::GateTeleport,
    dqc_core::RemoteProtocol::StateTeleport,
];

/// The sweep grid behind the protocol ablation (config labels are the
/// protocol debug names).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn protocol_ablation_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut sweep = Sweep::new()
        .benchmarks([PaperBenchmark::QaoaR4_32, PaperBenchmark::QaoaR8_32])
        .designs(&[Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for protocol in PROTOCOL_AXIS {
        let mut config = paper_config_32();
        config.remote_protocol = protocol;
        sweep = sweep.config(format!("{protocol:?}"), config);
    }
    sweep.run()
}

/// Prints the protocol ablation from a completed
/// [`protocol_ablation_sweep`] grid.
pub fn print_protocol_ablation_from(result: &SweepResult, runs: usize) {
    println!("ABLATION: REMOTE-GATE PROTOCOL (async_buf, {runs}-run averages)");
    for bench in [PaperBenchmark::QaoaR4_32, PaperBenchmark::QaoaR8_32] {
        for protocol in PROTOCOL_AXIS {
            let r = &result
                .cell(
                    &bench.to_string(),
                    &format!("{protocol:?}"),
                    Design::AsyncBuf,
                )
                .expect("protocol sweep covers every benchmark × protocol")
                .report;
            println!(
                "  {bench:<11} {:?}: depth {:>7.1}  fidelity {:.4}  ({} links/gate)",
                protocol,
                r.mean_depth,
                r.mean_fidelity,
                protocol.links_per_gate()
            );
        }
    }
}

/// Compares plain consumption against purify-on-consume (extension built
/// on the paper's citation \[53\]: purification trades entanglement rate
/// for link quality).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_purification_ablation(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_purification_ablation_from(&purification_ablation_sweep(runs, seed)?, runs);
    Ok(())
}

/// The sweep grid behind the purification ablation (config labels are
/// `false`/`true`).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn purification_ablation_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut sweep = Sweep::new()
        .benchmarks([PaperBenchmark::QaoaR4_32, PaperBenchmark::QaoaR8_32])
        .designs(&[Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for purify in [false, true] {
        let mut config = paper_config_32();
        config.purify_links = purify;
        sweep = sweep.config(format!("{purify}"), config);
    }
    sweep.run()
}

/// Prints the purification ablation from a completed
/// [`purification_ablation_sweep`] grid.
pub fn print_purification_ablation_from(result: &SweepResult, runs: usize) {
    println!("ABLATION: BBPSSW PURIFY-ON-CONSUME (async_buf, {runs}-run averages)");
    for bench in [PaperBenchmark::QaoaR4_32, PaperBenchmark::QaoaR8_32] {
        for purify in [false, true] {
            let r = &result
                .cell(&bench.to_string(), &format!("{purify}"), Design::AsyncBuf)
                .expect("purification sweep covers every benchmark × mode")
                .report;
            println!(
                "  {bench:<11} purify={purify:<5}: depth {:>7.1}  fidelity {:.4}",
                r.mean_depth, r.mean_fidelity
            );
        }
    }
}

/// Sweeps the adaptive segment size `m` (extension beyond the paper's
/// fixed `m = n_comm · psucc`).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_segment_ablation(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_segment_ablation_from(&segment_ablation_sweep(runs, seed)?, runs);
    Ok(())
}

/// The segment sizes swept by the segment ablation.
const SEGMENT_AXIS: [usize; 5] = [1, 2, 4, 8, 16];

/// The `(m, comm_qubits, config)` axis behind the segment ablation: comm
/// qubits are scaled so `m = ceil(comm · psucc)` hits each target size.
fn segment_axis() -> Vec<(usize, usize, SystemConfig)> {
    let base = paper_config_32();
    SEGMENT_AXIS
        .into_iter()
        .map(|m| {
            let mut config = base.clone();
            config.comm_qubits_per_node = (m as f64 / config.success_probability).ceil() as usize;
            config.buffer_qubits_per_node = config.comm_qubits_per_node;
            let comm = config.comm_qubits_per_node;
            (m, comm, config)
        })
        .collect()
}

/// The sweep grid behind the segment ablation (config labels are `m1`,
/// `m2`, …).
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn segment_ablation_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut sweep = Sweep::new()
        .benchmark(PaperBenchmark::Qft32)
        .designs(&[Design::AdaptBuf])
        .runs(runs)
        .base_seed(seed);
    for (m, _, config) in segment_axis() {
        sweep = sweep.config(format!("m{m}"), config);
    }
    sweep.run()
}

/// Prints the segment ablation from a completed
/// [`segment_ablation_sweep`] grid.
pub fn print_segment_ablation_from(result: &SweepResult, runs: usize) {
    println!("ABLATION: ADAPTIVE SEGMENT SIZE m (QFT-32, adapt_buf, {runs}-run averages)");
    println!(
        "  (paper default m = {})",
        SystemConfig::paper_two_node_32().segment_remote_gates()
    );
    for ((m, comm, _), cell) in segment_axis().into_iter().zip(&result.cells) {
        let r = &cell.report;
        println!(
            "  m = {:>2} (comm = {:>2}): depth {:>8.1}  fidelity {:.4}",
            m, comm, r.mean_depth, r.mean_fidelity
        );
    }
}

// -------------------------------------------------------- Backend matrix

/// The concrete engines compared by the backend matrix (`Auto` is a
/// selection policy, not a fourth engine, so it is not a column).
pub const BACKEND_MATRIX_BACKENDS: [Backend; 3] =
    [Backend::Analytic, Backend::Stabilizer, Backend::Density];

/// The circuits of the backend matrix: three Clifford-only 8-qubit
/// workloads — narrow enough for the density backend's
/// [`DENSITY_MAX_QUBITS`](dqc_core::DENSITY_MAX_QUBITS) oracle, Clifford
/// so the stabilizer fast path is eligible on all of them.
pub fn backend_matrix_circuits() -> Vec<(String, Circuit)> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(BASE_SEED);
    vec![
        ("GHZ-chain-8".to_string(), dqc_workloads::ghz_chain(8)),
        ("GHZ-tree-8".to_string(), dqc_workloads::ghz_tree(8)),
        (
            "Clifford-8".to_string(),
            dqc_workloads::random_clifford(8, 120, 0.0, &mut rng),
        ),
    ]
}

/// The hardware point of the backend matrix: the paper machine scaled to
/// 4 data qubits per node, so the two-node system carries exactly the 8
/// data qubits the density backend can represent.
fn backend_matrix_config() -> SystemConfig {
    let mut config = SystemConfig::paper_two_node_32();
    config.data_qubits_per_node = 4;
    config
}

/// The sweep grid behind the backend matrix: every matrix circuit on
/// every concrete engine (config labels are the backend names). The
/// process-wide backend override is deliberately ignored — the whole
/// point of the target is to pin all engines against each other.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn backend_matrix_sweep(runs: usize, seed: u64) -> Result<SweepResult, DqcError> {
    let mut sweep = Sweep::new()
        .designs(&[Design::AsyncBuf])
        .runs(runs)
        .base_seed(seed);
    for (label, circuit) in backend_matrix_circuits() {
        sweep = sweep.circuit(label, circuit);
    }
    for backend in BACKEND_MATRIX_BACKENDS {
        sweep = sweep.config(
            backend.name(),
            backend_matrix_config().with_backend(backend),
        );
    }
    sweep.run()
}

/// Prints the backend matrix from a completed [`backend_matrix_sweep`]
/// grid.
pub fn print_backend_matrix_from(result: &SweepResult, runs: usize) {
    println!("BACKEND MATRIX (async_buf, 8 data qubits, {runs}-run averages)");
    for (label, _) in backend_matrix_circuits() {
        for backend in BACKEND_MATRIX_BACKENDS {
            let r = &result
                .cell(&label, backend.name(), Design::AsyncBuf)
                .expect("backend matrix covers every circuit × engine")
                .report;
            println!(
                "  {label:<12} {:<10}: depth {:>6.1}  fidelity {:.4}",
                backend.name(),
                r.mean_depth,
                r.mean_fidelity
            );
        }
    }
}

/// Runs the three-circuit × three-backend differential matrix.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
pub fn run_backend_matrix(runs: usize, seed: u64) -> Result<(), DqcError> {
    print_backend_matrix_from(&backend_matrix_sweep(runs, seed)?, runs);
    Ok(())
}

// ------------------------------------------------------ Serving portfolio

/// The mixed workload portfolio the serving layer is benchmarked on:
/// QAOA (both densities), QFT (two widths), and GHZ (chain and tree) —
/// six circuits of very different compile cost and remote-gate pressure,
/// all fitting the paper's 32-data-qubit two-node machine.
///
/// The `serve_wire` benchmark's warm traffic, the serving and wire
/// determinism tests, and the `analyze` target all draw from this
/// portfolio, so they describe the same traffic mix. Circuits come
/// wrapped in [`Arc`](std::sync::Arc): a load generator submits each one
/// many times without copying it.
pub fn serve_portfolio() -> Vec<(String, std::sync::Arc<Circuit>)> {
    use std::sync::Arc;
    vec![
        (
            PaperBenchmark::QaoaR4_32.to_string(),
            Arc::new(PaperBenchmark::QaoaR4_32.circuit()),
        ),
        (
            PaperBenchmark::QaoaR8_32.to_string(),
            Arc::new(PaperBenchmark::QaoaR8_32.circuit()),
        ),
        (
            PaperBenchmark::Qft32.to_string(),
            Arc::new(dqc_workloads::qft(32)),
        ),
        ("QFT-16".to_string(), Arc::new(dqc_workloads::qft(16))),
        (
            "GHZ-chain-32".to_string(),
            Arc::new(dqc_workloads::ghz_chain(32)),
        ),
        (
            "GHZ-tree-32".to_string(),
            Arc::new(dqc_workloads::ghz_tree(32)),
        ),
    ]
}

/// Builds a deterministic request list over [`serve_portfolio`]:
/// circuits tiled round-robin, `designs` rotated once per full portfolio
/// pass, and per-request seeds `base_seed + i` — a pure function of its
/// arguments, so every caller that needs "N portfolio requests" (the
/// `analyze` target's portfolio audit, the wire and admission tests)
/// gets the exact same traffic.
///
/// # Panics
///
/// Panics when `designs` is empty.
pub fn portfolio_requests(
    count: usize,
    runs: usize,
    base_seed: u64,
    point: &str,
    designs: &[Design],
) -> Vec<dqc_serve::EvalRequest> {
    assert!(!designs.is_empty(), "need at least one design");
    let portfolio = serve_portfolio();
    (0..count)
        .map(|i| {
            let (label, circuit) = &portfolio[i % portfolio.len()];
            dqc_serve::EvalRequest::new(
                label.clone(),
                std::sync::Arc::clone(circuit),
                point,
                designs[(i / portfolio.len()) % designs.len()],
            )
            .runs(runs)
            .base_seed(base_seed + i as u64)
        })
        .collect()
}

/// The portfolio index of the hot circuit [`skewed_requests`] duplicates:
/// QFT-32, the portfolio's heaviest replay (256 remote gates), so the
/// runs fusion saves are the runs that actually cost something.
const SKEW_HOT: usize = 2;

/// Builds the duplicate-heavy request list the fusion determinism test
/// serves: most requests are the *same* evaluation (the portfolio's
/// QFT-32, same design, same base seed — the traffic shape of many
/// tenants asking one popular question), with every `cold_every`-th
/// request a distinct background evaluation drawn from the rest of the
/// portfolio. Cross-request replay fusion coalesces the duplicates that
/// land in one worker batch into a single replay; the unfused server
/// re-runs every one. Pure function of its arguments, like
/// [`portfolio_requests`].
///
/// `cold_every = 0` makes every request the hot duplicate.
pub fn skewed_requests(
    count: usize,
    runs: usize,
    base_seed: u64,
    point: &str,
    cold_every: usize,
) -> Vec<dqc_serve::EvalRequest> {
    let portfolio = serve_portfolio();
    (0..count)
        .map(|i| {
            let cold = cold_every > 0 && (i + 1) % cold_every == 0;
            if cold {
                let offset = (i / cold_every) % (portfolio.len() - 1);
                let (label, circuit) = &portfolio[(SKEW_HOT + 1 + offset) % portfolio.len()];
                dqc_serve::EvalRequest::new(
                    label.clone(),
                    std::sync::Arc::clone(circuit),
                    point,
                    Design::AsyncBuf,
                )
                .runs(runs)
                .base_seed(base_seed + i as u64)
            } else {
                let (label, circuit) = &portfolio[SKEW_HOT];
                dqc_serve::EvalRequest::new(
                    label.clone(),
                    std::sync::Arc::clone(circuit),
                    point,
                    Design::AdaptBuf,
                )
                .runs(runs)
                .base_seed(base_seed)
            }
        })
        .collect()
}

// ------------------------------------------------------- Static analysis

/// The corpus the `analyze` repro target audits: every paper benchmark
/// against its matching hardware point, the default serving
/// configuration, and a 12-request portfolio audit — everything the
/// repo ships, proven clean by the static analyzer on every CI run.
/// Fully deterministic (no simulation happens), so the payload diffs
/// exactly against its golden file.
pub fn analyze_data() -> Json {
    let analyzer = dqc_analyze::Analyzer::new();
    let mut subjects: Vec<Json> = Vec::new();
    for bench in PaperBenchmark::ALL {
        let (point, config) = match bench.num_qubits() {
            32 => ("paper32", SystemConfig::paper_two_node_32()),
            _ => ("paper64", SystemConfig::paper_two_node_64()),
        };
        let report = analyzer.analyze_circuit(&bench.to_string(), &bench.circuit(), &config);
        subjects.push(analyze_subject(&bench.to_string(), point, &report));
    }
    let serve_config = dqc_serve::ServeConfig::default();
    subjects.push(analyze_subject(
        "default ServeConfig",
        "-",
        &analyzer.analyze_serve_config(&serve_config),
    ));
    let requests = portfolio_requests(12, 1, BASE_SEED, "paper", &[Design::AdaptBuf]);
    let items: Vec<dqc_analyze::PortfolioItem<'_>> = requests
        .iter()
        .map(|r| dqc_analyze::PortfolioItem {
            label: &r.circuit_label,
            circuit: r.circuit.as_ref(),
            point: &r.point,
            design: r.design,
        })
        .collect();
    subjects.push(analyze_subject(
        "serve portfolio (12 requests)",
        "paper",
        &analyzer.analyze_portfolio(&items, &serve_config),
    ));
    Json::Array(subjects)
}

/// One row of the `analyze` payload.
fn analyze_subject(label: &str, point: &str, report: &dqc_analyze::AnalysisReport) -> Json {
    Json::object([
        ("label", Json::from(label)),
        ("point", Json::from(point)),
        ("report", report.to_json()),
    ])
}

/// Prints the static-analysis audit of the shipped corpus.
pub fn run_analyze(_runs: usize, _seed: u64) -> Result<(), DqcError> {
    println!("STATIC ANALYSIS (shipped corpus, no execution)");
    for subject in analyze_data().as_array().expect("analyze payload is rows") {
        let label = subject.str_field("label").expect("row has a label");
        let report = dqc_analyze::AnalysisReport::from_json(
            subject.field("report").expect("row has a report"),
        )
        .expect("payload reports are well-formed");
        let (errors, warnings) = report.counts();
        if report.is_clean() {
            println!("  {label:<28} clean");
        } else {
            println!("  {label:<28} {errors} error(s), {warnings} warning(s)");
            for diagnostic in report.diagnostics() {
                println!("    {diagnostic}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_for_deterministic_benchmarks() {
        let rows = table1_data();
        let tlim = rows.iter().find(|r| r.name == "TLIM-32").unwrap();
        assert_eq!(tlim.local_2q, 300);
        assert_eq!(tlim.remote_2q, 10);
        assert_eq!(tlim.one_q, 640);
        assert_eq!(tlim.depth, 40);
        let qft = rows.iter().find(|r| r.name == "QFT-32").unwrap();
        assert_eq!(qft.local_2q, 240);
        assert_eq!(qft.remote_2q, 256);
        assert_eq!(qft.depth, 63);
    }

    #[test]
    fn fig3_sync_is_burstier_than_async() {
        let sync = fig3_data(GenerationPattern::Synchronous, 20, 1);
        let asyn = fig3_data(GenerationPattern::Asynchronous { groups: 10 }, 20, 1);
        let occupied = |h: &[usize]| h.iter().filter(|c| **c > 0).count();
        assert!(
            occupied(&asyn) > 2 * occupied(&sync),
            "async arrivals spread over many more buckets: {} vs {}",
            occupied(&asyn),
            occupied(&sync)
        );
        let peak = |h: &[usize]| h.iter().copied().max().unwrap_or(0);
        assert!(peak(&sync) > peak(&asyn), "sync peaks higher");
    }

    #[test]
    fn design_sweep_produces_one_report_per_design() {
        let config = SystemConfig::paper_two_node_32();
        let reports = design_sweep(PaperBenchmark::Tlim32, &config, &Design::ALL, 2, 0).unwrap();
        assert_eq!(reports.len(), Design::ALL.len());
        assert!(reports.iter().all(|r| r.runs == 2));
    }

    #[test]
    fn fig56_sweep_compiles_once_per_benchmark() {
        let result = fig56_sweep(1, 0).unwrap();
        assert_eq!(result.compilations, PaperBenchmark::FIG5.len());
        assert_eq!(
            result.cells.len(),
            PaperBenchmark::FIG5.len() * Design::ALL.len()
        );
    }

    #[test]
    fn topology_sweep_orders_fidelity_by_connectivity() {
        // The acceptance ordering: on the remote-heavy benchmark a chain
        // pays the most swap chains, a grid fewer, the complete graph
        // none — so end-to-end fidelity must rise with connectivity.
        let result = topology_sweep(4, 4, BASE_SEED).unwrap();
        let fidelity = |config: &str| {
            result
                .cell(
                    &PaperBenchmark::QaoaR8_32.to_string(),
                    config,
                    Design::AsyncBuf,
                )
                .unwrap()
                .report
                .mean_fidelity
        };
        let (chain, grid, full) = (fidelity("chain"), fidelity("grid"), fidelity("all_to_all"));
        assert!(chain < grid, "chain {chain} must trail grid {grid}");
        assert!(grid < full, "grid {grid} must trail all-to-all {full}");
    }

    #[test]
    fn two_node_topologies_coincide() {
        // Every 2-node family is the single edge, so all four configs
        // must produce identical reports.
        let result = topology_sweep(2, 2, 7).unwrap();
        let first = &result.cells[0].report;
        for cell in &result.cells[1..] {
            assert_eq!(&cell.report, first, "{}", cell.config);
        }
    }

    #[test]
    fn skewed_requests_are_mostly_one_hot_duplicate() {
        let requests = skewed_requests(16, 2, 99, "paper", 4);
        let hot = &requests[0];
        let duplicates = requests
            .iter()
            .filter(|r| {
                r.circuit_label == hot.circuit_label
                    && r.base_seed == hot.base_seed
                    && r.design == hot.design
            })
            .count();
        assert_eq!(duplicates, 12, "3 of every 4 requests are the hot one");
        let cold: Vec<_> = requests
            .iter()
            .filter(|r| r.circuit_label != hot.circuit_label)
            .collect();
        assert_eq!(cold.len(), 4);
        // Background requests never collide in seed, so they can't fuse.
        for pair in cold.windows(2) {
            assert_ne!(pair[0].base_seed, pair[1].base_seed);
        }
    }

    #[test]
    fn sweep_panels_match_design_sweep() {
        // The Sweep-based figure path and the Experiment-based panel path
        // must agree exactly: same engine, same seeds.
        let result = fig56_sweep(2, 7).unwrap();
        let config = SystemConfig::paper_two_node_32();
        for bench in PaperBenchmark::FIG5 {
            let direct = design_sweep(bench, &config, &Design::ALL, 2, 7).unwrap();
            let from_sweep = panel_reports(&result, bench, "paper");
            assert_eq!(direct, from_sweep, "{bench}");
        }
    }
}
