//! The metric vocabulary (mirrored by `BENCHMARK.json`, which a test
//! keeps in sync) and the result every run prints.

use dqc_types::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, waste).
    Lower,
    /// Larger is better (throughput, ratios of useful work).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric: what it is called, its unit, and which way is up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["codesign", "serve_wire"];

/// What a user of the system sees, printed by every untraced run
/// (`--trace 0`). On `codesign` a "job" is one `Codesign::run`; on
/// `serve_wire` it is one wire request (README.md defines each metric
/// per workload).
pub const END_TO_END: [MetricDef; 10] = [
    def("setup_s", "s", Lower),
    def("evals_per_s", "1/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p99_ms", "ms", Lower),
    def("cold_latency_p50_ms", "ms", Lower),
    def("saturation_rps", "1/s", Higher),
    def("success_rate", "ratio", Higher),
    def("peak_rss_mb", "MiB", Lower),
    def("sim_depth_rel", "ratio", Lower),
    def("sim_fidelity", "ratio", Higher),
];

/// Per-layer numbers, printed by every traced run (`--trace 1`) and
/// derived from that run's one capture. Every workload probes every
/// layer; counts of events that did not happen read 0.
pub const PER_LAYER: [MetricDef; 41] = [
    def("core.compile.count", "count", Lower),
    def("core.compile.ms_p50", "ms", Lower),
    def("core.compile.fidelity_table_ms", "ms", Lower),
    def("core.compile.variants_ms", "ms", Lower),
    def("core.compile.unattributed_share", "ratio", Lower),
    def("sim.teleport_eval_ms", "ms", Lower),
    def("partition.ms_p50", "ms", Lower),
    def("partition.remote_gates", "count", Lower),
    def("analyze.prefilter_ms", "ms", Lower),
    def("codesign.pruned", "count", Higher),
    def("codesign.frontier_ms", "ms", Lower),
    def("core.grid.parallel_speedup", "x", Higher),
    def("core.exec.replays", "count", Lower),
    def("core.exec.analytic_us_p50", "us", Lower),
    def("core.exec.stabilizer_us_p50", "us", Lower),
    def("core.exec.us_per_remote_gate", "us", Lower),
    def("entanglement.route_ms", "ms", Lower),
    def("entanglement.success_ratio", "ratio", Higher),
    def("entanglement.useful_ratio", "ratio", Higher),
    def("entanglement.wasted", "count", Lower),
    def("entanglement.peak_buffered", "count", Lower),
    def("entanglement.link_wait_ticks", "ticks", Lower),
    def("circuit.qasm_parse_us_p50", "us", Lower),
    def("circuit.to_qasm_us_p50", "us", Lower),
    def("circuit.fingerprint_us_p50", "us", Lower),
    def("serve.server_latency_p50_ms", "ms", Lower),
    def("serve.queue_wait_us_p50", "us", Lower),
    def("serve.cache_hit_ratio", "ratio", Higher),
    def("serve.fused_share", "ratio", Higher),
    def("serve.batch_mean", "count", Higher),
    def("serve.rejected", "count", Lower),
    def("served.wire_overhead_ms_p50", "ms", Lower),
    def("served.submit_encode_us", "us", Lower),
    def("served.result_decode_us", "us", Lower),
    def("served.result_frame_bytes", "bytes", Lower),
    def("served.protocol_errors", "count", Lower),
    def("served.bad_requests", "count", Lower),
    def("obs.trace_overhead", "x", Lower),
    def("loadgen.late_p99_ms", "ms", Lower),
    def("loadgen.sent", "count", Higher),
    def("loadgen.completed", "count", Higher),
];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs or requests, plus output checks.
    pub attempted: u64,
    /// Failed operations: engine errors, refusals, missing replies, and
    /// verification mismatches.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines (sample counts, checks) for the log.
    pub notes: Vec<String>,
    /// Workload-specific provenance entries.
    pub provenance: Vec<(&'static str, Json)>,
    /// The traced run's capture, written beside the result.
    pub capture: Option<dqc_obs::Capture>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Counts one attempted operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a log line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, and
/// `metrics`, with every metric of `defs` in order. A metric the run did
/// not record, or recorded as a non-finite number, makes the run
/// incorrect (it would otherwise print a made-up value).
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> (Json, Vec<String>) {
    let mut problems = Vec::new();
    let metrics = defs
        .iter()
        .map(|d| {
            let value = match outcome.get(d.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    problems.push(format!("metric {} is not finite ({v})", d.name));
                    0.0
                }
                None => {
                    problems.push(format!("metric {} was not measured", d.name));
                    0.0
                }
            };
            (
                d.name,
                Json::object([("value", Json::Float(value)), ("unit", Json::from(d.unit))]),
            )
        })
        .collect::<Vec<_>>();
    let correct = outcome.failed == 0 && outcome.attempted > 0 && problems.is_empty();
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(outcome.attempted.max(1))),
        ("failed", Json::uint(outcome.failed)),
        ("metrics", Json::object(metrics)),
    ]);
    (line, problems)
}
