//! The traced run's layer probes and the per-layer numbers derived from
//! its capture.
//!
//! Each probe calls one layer through its public functions inside a
//! `bench.*` span, so the capture times the layer from outside: a whole
//! `CompiledCircuit::compile` (with the library's own `compile*` spans
//! nested in it) next to its stages called one by one, a dense
//! teleportation evaluation, QASM export/import and fingerprinting.

use crate::metrics::{Outcome, PER_LAYER};
use crate::stats::{median, ratio};
use crate::trace::{durations_ms, event_f64, event_sum, per_call_ms, span_str, span_u64, Spans};
use dqc_circuit::{from_qasm, to_qasm, Circuit};
use dqc_core::{
    segment_sequence, CompiledCircuit, ExecutionReport, PartitionStrategy, RemoteFidelityTable,
    SegmentVariants, SystemConfig,
};
use dqc_entanglement::{NetworkTopology, RoutingTable};
use dqc_obs::{span, Capture, MonotonicClock, RingRecorder};
use dqc_partition::{partition_circuit, partition_circuit_weighted};
use dqc_sim::{teleported_cnot_fidelity, TeleportNoise};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Calls per span for operations too quick to time singly at the
/// capture clock's microsecond resolution.
pub const BATCH: u64 = 64;

/// Ring capacity of a traced run: every span of the bounded traced work
/// fits, so nothing falls off.
pub const RING_CAPACITY: usize = 1 << 18;

/// Starts recording into a fresh ring; recording stops when the returned
/// guard drops.
pub fn start_capture() -> (Arc<RingRecorder>, dqc_obs::Installed) {
    let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
    let session = dqc_obs::install(ring.clone(), Arc::new(MonotonicClock::new()));
    (ring, session)
}

/// Records the untraced wall time of the work the traced run repeats,
/// for `obs.trace_overhead`.
pub fn record_untraced(wall: Duration) {
    let micros = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    dqc_obs::event("bench.untraced", || vec![("us", micros.into())]);
}

/// Compiles `circuit` for `config` whole (`bench.compile`), then stage by
/// stage through the public stage functions: `bench.fidelity_table`,
/// `bench.route` (batched), `bench.partition` (the strategy `compile`
/// picks), and `bench.variants` (segmentation plus ASAP/ALAP variants).
///
/// # Errors
///
/// Engine or partitioner failures, as text.
pub fn probe_compile(circuit: &Circuit, config: &SystemConfig) -> Result<CompiledCircuit, String> {
    let compiled = {
        let _s = span("bench.compile");
        CompiledCircuit::compile(circuit, config).map_err(|e| e.to_string())?
    };
    {
        let _s = span("bench.fidelity_table");
        black_box(RemoteFidelityTable::new(black_box(&config.fidelities)));
    }
    let routing = config.topology.as_ref().map(|topology| {
        let mut s = span("bench.route");
        s.attr("calls", BATCH);
        for _ in 1..BATCH {
            black_box(RoutingTable::new(black_box(topology)));
        }
        RoutingTable::new(topology)
    });
    let map = {
        let mut s = span("bench.partition");
        let n = config.num_nodes;
        let seed = config.partition_seed;
        let map = match (config.partitioner, &routing) {
            (PartitionStrategy::Auto | PartitionStrategy::HopWeighted, Some(table)) => {
                partition_circuit_weighted(circuit, n, seed, &table.hop_distance_matrix())
            }
            (PartitionStrategy::HopWeighted, None) => partition_circuit_weighted(
                circuit,
                n,
                seed,
                &NetworkTopology::all_to_all(n).hop_distance_matrix(),
            ),
            (PartitionStrategy::Auto | PartitionStrategy::Unweighted, _) => {
                partition_circuit(circuit, n, seed)
            }
        }
        .map_err(|e| e.to_string())?;
        s.attr("remote_gates", map.count_remote(circuit));
        map
    };
    {
        let mut s = span("bench.variants");
        let ops = circuit.operations();
        let segments = segment_sequence(ops, &map, config.segment_remote_gates());
        let variants: Vec<SegmentVariants> = segments
            .iter()
            .map(|segment| SegmentVariants::compile(&ops[segment.clone()], &map))
            .collect();
        s.attr("segments", variants.len());
        black_box(variants);
    }
    Ok(compiled)
}

/// One dense teleported-CNOT evaluation (`bench.teleport_eval`): the
/// density-matrix simulation four of which build each fidelity table.
pub fn probe_teleport(config: &SystemConfig) {
    let noise = TeleportNoise {
        bell_fidelity: 1.0,
        local_cnot_fidelity: config.fidelities.two_qubit,
        measurement_fidelity: config.fidelities.measurement,
        single_qubit_fidelity: config.fidelities.one_qubit,
    };
    let _s = span("bench.teleport_eval");
    black_box(teleported_cnot_fidelity(black_box(&noise)));
}

/// QASM export (`bench.to_qasm`), import (`bench.qasm_parse`), and a
/// batch of fingerprints (`bench.fingerprint`).
///
/// # Errors
///
/// A parse failure or a round trip that changes the circuit.
pub fn probe_circuit(label: &str, circuit: &Circuit) -> Result<(), String> {
    let text = {
        let _s = span("bench.to_qasm");
        to_qasm(circuit)
    };
    let parsed = {
        let _s = span("bench.qasm_parse");
        from_qasm(&text).map_err(|e| format!("{label}: QASM re-import failed: {e}"))?
    };
    {
        let mut s = span("bench.fingerprint");
        s.attr("calls", BATCH);
        for _ in 0..BATCH {
            black_box(black_box(circuit).fingerprint());
        }
    }
    if parsed.fingerprint() == circuit.fingerprint() {
        Ok(())
    } else {
        Err(format!("{label}: QASM round trip changed the circuit"))
    }
}

/// Probes the layers a workload's own traffic may not reach, so every
/// per-layer number is measured on every workload: a routing table on a
/// four-node chain (`bench.route`), a small co-design search around
/// `circuit` with its analyzer prefilter (`bench.prefilter`) and Pareto
/// frontier (`bench.frontier`), and stabilizer replays of a Clifford
/// circuit under `Backend::Auto`.
///
/// # Errors
///
/// Engine failures, as text.
pub fn probe_common(label: &str, circuit: &Circuit) -> Result<(), String> {
    let chain = NetworkTopology::chain(4);
    {
        let mut s = span("bench.route");
        s.attr("calls", BATCH);
        for _ in 0..BATCH {
            black_box(RoutingTable::new(black_box(&chain)));
        }
    }
    let space = crate::inputs::probe_space();
    let indices: Vec<usize> = (0..space.len()).collect();
    {
        let mut s = span("bench.prefilter");
        let infeasible =
            dqc_analyze::Analyzer::new().infeasible_points(&space, label, circuit, &indices);
        s.attr("pruned", infeasible.len());
    }
    let result = dqc_codesign::Codesign::new(label, circuit.clone(), space)
        .run()
        .map_err(|e| format!("{label}: {e}"))?;
    let objectives: Vec<dqc_codesign::Objectives> =
        result.candidates.iter().map(|c| c.objectives).collect();
    {
        let mut s = span("bench.frontier");
        s.attr("calls", BATCH);
        for _ in 0..BATCH {
            black_box(dqc_codesign::pareto_frontier(black_box(&objectives)));
        }
    }
    let clifford = dqc_workloads::ghz_chain(32);
    let config = SystemConfig::paper_two_node_32().with_backend(dqc_core::Backend::Auto);
    let compiled = CompiledCircuit::compile(&clifford, &config).map_err(|e| e.to_string())?;
    for design in [
        dqc_core::Design::Original,
        dqc_core::Design::SyncBuf,
        dqc_core::Design::AsyncBuf,
    ] {
        for seed in 0..8 {
            compiled.run(design, seed).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Sums the entanglement-service counters of `reports` into one
/// `bench.service` event.
pub fn record_service(reports: &[ExecutionReport]) {
    let (mut attempts, mut successes, mut consumed, mut wasted, mut peak) = (0, 0, 0, 0, 0);
    let mut link_wait = 0.0;
    for r in reports {
        if let Some(s) = &r.service_stats {
            attempts += s.attempts;
            successes += s.successes;
            consumed += s.consumed;
            wasted += s.wasted;
            peak = peak.max(s.peak_buffered);
        }
        link_wait += r.mean_link_wait;
    }
    dqc_obs::event("bench.service", || {
        vec![
            ("reports", reports.len().into()),
            ("attempts", attempts.into()),
            ("successes", successes.into()),
            ("consumed", consumed.into()),
            ("wasted", wasted.into()),
            ("peak_buffered", peak.into()),
            ("link_wait_sum", link_wait.into()),
        ]
    });
}

/// Records the simulated remote gates the traced timed phase executed,
/// the denominator of `core.exec.us_per_remote_gate`.
pub fn record_remote_gates(remote_gates: u64) {
    dqc_obs::event("bench.remote_gates", || {
        vec![("remote_gates", remote_gates.into())]
    });
}

/// Drains `ring` into the capture the per-layer numbers come from.
pub fn capture(ring: &RingRecorder, metrics: dqc_obs::MetricsSnapshot) -> Capture {
    Capture::from_ring("dqcbench", "monotonic", ring, metrics)
}

/// Derives every per-layer number except the `serve.*`, `served.*`, and
/// `loadgen.*` ones, which `serve_wire::derive_serving` adds. Numbers
/// the capture holds no spans or events for read 0.
pub fn derive(capture: &Capture, out: &mut Outcome) {
    for def in PER_LAYER {
        out.set(def.name, 0.0);
    }
    let spans = Spans::new(capture);
    let timed = spans.phase("bench.timed");
    let layers = spans.phase("bench.layers");
    let median_ms = |name: &str| median(&durations_ms(&spans.named(name)));
    let median_per_call_ms = |name: &str| median(&per_call_ms(&spans.named(name)));

    out.set(
        "core.compile.count",
        spans.named_within("compile", timed).len() as f64,
    );
    out.set(
        "core.compile.ms_p50",
        median(&durations_ms(&spans.named_within("compile", layers))),
    );
    out.set(
        "core.compile.fidelity_table_ms",
        median_ms("bench.fidelity_table"),
    );
    out.set("core.compile.variants_ms", median_ms("bench.variants"));
    let compiles = spans.named("compile");
    let total: u64 = compiles.iter().map(|s| s.duration_us()).sum();
    let own: u64 = compiles.iter().map(|s| spans.self_time_us(s)).sum();
    out.set(
        "core.compile.unattributed_share",
        ratio(own as f64, total as f64),
    );
    out.set("sim.teleport_eval_ms", median_ms("bench.teleport_eval"));
    out.set("partition.ms_p50", median_ms("bench.partition"));
    out.set(
        "partition.remote_gates",
        spans
            .named("bench.partition")
            .iter()
            .filter_map(|s| span_u64(s, "remote_gates"))
            .sum::<u64>() as f64,
    );
    out.set("analyze.prefilter_ms", median_ms("bench.prefilter"));
    out.set(
        "codesign.pruned",
        event_sum(&spans.events("bench.codesign"), "pruned"),
    );
    out.set("codesign.frontier_ms", median_per_call_ms("bench.frontier"));
    if let (Some(serial), Some(parallel)) = (
        spans.phase("bench.grid.serial"),
        spans.phase("bench.grid.parallel"),
    ) {
        out.set(
            "core.grid.parallel_speedup",
            ratio(
                (serial.1 - serial.0) as f64,
                (parallel.1 - parallel.0) as f64,
            ),
        );
    }

    let replays = spans.named_within("exec.replay", timed);
    out.set("core.exec.replays", replays.len() as f64);
    let replay_us = |replays: &[&dqc_obs::SpanRecord], backend: &str| {
        let us: Vec<f64> = replays
            .iter()
            .filter(|s| span_str(s, "backend") == Some(backend))
            .map(|s| s.duration_us() as f64)
            .collect();
        median(&us)
    };
    out.set("core.exec.analytic_us_p50", replay_us(&replays, "analytic"));
    // Workloads without Clifford traffic time the stabilizer engine on
    // the layer probe's replays.
    let stabilizer = match replay_us(&replays, "stabilizer") {
        0.0 => replay_us(&spans.named_within("exec.replay", layers), "stabilizer"),
        us => us,
    };
    out.set("core.exec.stabilizer_us_p50", stabilizer);
    let replay_total_us: u64 = replays.iter().map(|s| s.duration_us()).sum();
    out.set(
        "core.exec.us_per_remote_gate",
        ratio(
            replay_total_us as f64,
            event_sum(&spans.events("bench.remote_gates"), "remote_gates"),
        ),
    );

    out.set("entanglement.route_ms", median_per_call_ms("bench.route"));
    let service = spans.events("bench.service");
    let sum = |key: &str| event_sum(&service, key);
    out.set(
        "entanglement.success_ratio",
        ratio(sum("successes"), sum("attempts")),
    );
    out.set(
        "entanglement.useful_ratio",
        ratio(sum("consumed"), sum("successes")),
    );
    out.set("entanglement.wasted", sum("wasted"));
    out.set(
        "entanglement.peak_buffered",
        service
            .iter()
            .filter_map(|e| event_f64(e, "peak_buffered"))
            .fold(0.0, f64::max),
    );
    out.set(
        "entanglement.link_wait_ticks",
        ratio(sum("link_wait_sum"), sum("reports")),
    );

    out.set(
        "circuit.qasm_parse_us_p50",
        median_ms("bench.qasm_parse") * 1e3,
    );
    out.set("circuit.to_qasm_us_p50", median_ms("bench.to_qasm") * 1e3);
    out.set(
        "circuit.fingerprint_us_p50",
        median_per_call_ms("bench.fingerprint") * 1e3,
    );

    let untraced_us = event_sum(&spans.events("bench.untraced"), "us");
    let traced_us = spans
        .phase("bench.traced_work")
        .or(timed)
        .map_or(0.0, |(s, e)| (e - s) as f64);
    out.set("obs.trace_overhead", ratio(traced_us, untraced_us));
    out.note(format!(
        "capture: {} spans, {} events; compile p50 {:.3} ms vs table {:.3} + partition {:.3} + variants {:.3} ms",
        capture.spans.len(),
        capture.events.len(),
        out.get("core.compile.ms_p50").unwrap_or(0.0),
        out.get("core.compile.fidelity_table_ms").unwrap_or(0.0),
        out.get("partition.ms_p50").unwrap_or(0.0),
        out.get("core.compile.variants_ms").unwrap_or(0.0),
    ));
}
