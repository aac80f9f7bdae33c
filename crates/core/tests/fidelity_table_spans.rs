//! How many remote-fidelity tables a compile builds, counted as
//! `compile.fidelity_table` spans in a ring capture.
//!
//! Recording is process-wide, so a span from any concurrently running
//! test would land in the count. Every test here therefore installs its
//! ring before it compiles anything: installations serialize, so no two
//! of these tests ever run their compiles at the same time, and nothing
//! else in this binary compiles.

use dqc_core::{CompiledCircuit, Design, DesignSpace, DqcError, Sweep, SystemConfig};
use dqc_entanglement::NetworkTopology;
use dqc_obs::{AttrValue, RingRecorder, SpanRecord, TickClock};
use dqc_workloads::{qft, PaperBenchmark};
use std::sync::Arc;

/// Runs `work` under a fresh capture and returns its result with every
/// `compile.fidelity_table` span recorded meanwhile.
fn table_spans<T>(work: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let recording = dqc_obs::install(ring.clone(), Arc::new(TickClock::new()));
    let out = work();
    drop(recording);
    let spans = ring
        .spans()
        .into_iter()
        .filter(|s| s.name == "compile.fidelity_table")
        .collect();
    (out, spans)
}

fn attr<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a AttrValue> {
    span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `(bell_fidelity, pairs)` of every plan half span, sorted.
fn halves(spans: &[SpanRecord]) -> Vec<(f64, u64)> {
    let mut halves: Vec<(f64, u64)> = spans
        .iter()
        .map(|s| match (attr(s, "bell_fidelity"), attr(s, "pairs")) {
            (Some(AttrValue::F64(link)), Some(AttrValue::U64(pairs))) => (*link, *pairs),
            other => panic!("a plan's table span carries bell_fidelity and pairs: {other:?}"),
        })
        .collect();
    halves.sort_by(|a, b| a.partial_cmp(b).expect("no NaN attributes"));
    halves
}

#[test]
fn a_direct_compile_builds_its_own_table_inside_its_compile_span() {
    let circuit = PaperBenchmark::Tlim32.circuit();
    let config = SystemConfig::paper_two_node_32();
    let (compiled, spans) = table_spans(|| CompiledCircuit::compile(&circuit, &config));
    compiled.unwrap();
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert!(spans[0].parent.is_some(), "nested in the compile span");
    assert!(spans[0].attrs.is_empty());
}

#[test]
fn a_plan_whose_configs_share_local_fidelities_builds_one_table() {
    // Four hardware points: the EPR fidelity and the provisioning vary,
    // the local gate fidelities the table reads do not.
    let space = DesignSpace::new(SystemConfig::paper_two_node_32())
        .epr_fidelities(&[0.95, 0.99])
        .comm_and_buffer(&[5, 10])
        .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
    let circuit = PaperBenchmark::QaoaR4_32.circuit();
    let indices: Vec<usize> = (0..space.len()).collect();
    for threads in [1, 2] {
        let (evaluated, spans) = table_spans(|| space.evaluate(&circuit, &indices, 1, 0, threads));
        assert_eq!(evaluated.unwrap().1, 4, "four compilations");
        assert_eq!(
            halves(&spans),
            [(0.25, 4), (1.0, 4)],
            "one table of two halves at {threads} threads"
        );
    }
}

#[test]
fn a_plan_mixing_default_and_degraded_fidelities_builds_two_tables() {
    let paper = SystemConfig::paper_two_node_32();
    let mut degraded = paper.clone();
    degraded.fidelities.one_qubit = 0.999;
    degraded.fidelities.two_qubit = 0.98;
    degraded.fidelities.measurement = 0.97;
    let sweep = Sweep::new()
        .benchmark(PaperBenchmark::Tlim32)
        .config("paper", paper.clone())
        .config("degraded", degraded)
        .config("paper-20", paper.with_comm_and_buffer(20))
        .designs(&[Design::AdaptBuf])
        .runs(1)
        .threads(2);
    let (result, spans) = table_spans(|| sweep.run());
    assert_eq!(result.unwrap().compilations, 3);
    // The paper table serves two pairs, the degraded one serves one.
    assert_eq!(halves(&spans), [(0.25, 1), (0.25, 2), (1.0, 1), (1.0, 2)]);
}

#[test]
fn a_plan_of_refused_pairs_builds_no_table_and_returns_the_first_refusal() {
    // QFT-40 is too wide for 2 × 16 data qubits; on 3 × 16 it fits, but
    // the 2-node chain does not span that network, and a readout fidelity
    // of 1.5 is out of range.
    let narrow = SystemConfig::paper_two_node_32();
    let mut wide = SystemConfig::paper_two_node_32();
    wide.num_nodes = 3;
    let mut mismatched = wide.clone();
    mismatched.topology = Some(NetworkTopology::chain(2));
    let mut out_of_range = wide;
    out_of_range.fidelities.measurement = 1.5;
    let sweep = Sweep::new()
        .circuit("qft40", qft(40))
        .config("narrow", narrow)
        .config("mismatched", mismatched)
        .config("out-of-range", out_of_range)
        .designs(&[Design::AdaptBuf])
        .threads(8);
    let (result, spans) = table_spans(|| sweep.run());
    assert_eq!(
        result.unwrap_err(),
        DqcError::CircuitTooWide {
            qubits: 40,
            capacity: 32
        }
    );
    assert!(spans.is_empty(), "{spans:?}");
}
