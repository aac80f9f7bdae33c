//! `dqcbench` — the workspace's one benchmark: end-to-end metrics for
//! two workloads (`codesign`, `serve_wire`) and, from a
//! separate traced run, per-layer numbers by crate. See README.md beside
//! this package for what each workload isolates and how every metric is
//! defined.

#![forbid(unsafe_code)]

pub mod codesign;
pub mod golden;
pub mod inputs;
pub mod layers;
pub mod machine;
pub mod metrics;
pub mod serve_wire;
pub mod stats;
pub mod trace;

use machine::StealLog;
use metrics::Outcome;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of [`metrics::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: dqcbench --workload codesign|serve_wire \
                         [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    ///
    /// # Errors
    ///
    /// A message naming the unknown flag or the malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20,
            trace: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = value()?,
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !metrics::WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!("unknown workload `{}`", parsed.workload));
        }
        if !(1..=3600).contains(&parsed.seconds) {
            return Err("--seconds must be between 1 and 3600".to_string());
        }
        Ok(parsed)
    }
}

/// Runs the selected workload.
///
/// # Errors
///
/// Failures that leave nothing to measure (a daemon that cannot bind, a
/// set-up that cannot compile); everything measurable is reported through
/// the outcome's failure count instead.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    match args.workload.as_str() {
        "codesign" => codesign::run(args, out),
        "serve_wire" => serve_wire::run(args, out),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a digest of a document's compact JSON text.
pub fn digest_json(json: &dqc_types::Json) -> u64 {
    dqc_types::fnv64(json.to_compact_string().as_bytes())
}

/// Records percentile `p` of `values` as `metric`, logging it with its
/// sample count. The value is recorded even when fewer than ten samples
/// lie beyond it (the result line must carry every metric); the log line
/// flags it.
pub fn set_percentile(out: &mut Outcome, metric: &'static str, what: &str, values: &[f64], p: f64) {
    let pct = stats::percentile(values, p);
    out.set(metric, pct.value);
    out.note(format!("{metric}: {what} {}", pct.describe()));
}

/// Width of the windows the timed phase's rates and medians are taken
/// over.
pub const WINDOW_S: f64 = 1.0;

/// Windows need this many samples for their median latency to count.
const MIN_WINDOW_SAMPLES: usize = 20;

/// Set-up repetitions. The first runs before the timed phase and builds
/// what it measures; the rest run after it, so `setup_s` is a median
/// and no repetition disturbs the timed work.
#[derive(Debug)]
pub struct SetupRepeats {
    times: Vec<f64>,
    total: usize,
}

impl SetupRepeats {
    /// Runs the first of `total` set-ups and returns what it built.
    ///
    /// # Errors
    ///
    /// The error `build` returns.
    pub fn first<T>(
        total: usize,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Self, T), String> {
        let mut repeats = Self {
            times: Vec::with_capacity(total),
            total: total.max(1),
        };
        let value = repeats.time(build)?;
        Ok((repeats, value))
    }

    /// Times one repetition of `build`.
    ///
    /// # Errors
    ///
    /// The error `build` returns.
    fn time<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let began = Instant::now();
        let value = build()?;
        self.times.push(began.elapsed().as_secs_f64());
        Ok(value)
    }

    /// Runs the repetitions still outstanding, discarding what they
    /// build, and records the median as `setup_s`.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn finish<T>(
        mut self,
        out: &mut Outcome,
        mut build: impl FnMut() -> Result<T, String>,
        mut discard: impl FnMut(T),
    ) -> Result<(), String> {
        while self.times.len() < self.total {
            let value = self.time(&mut build)?;
            discard(value);
        }
        out.set("setup_s", stats::median(&self.times));
        out.note(format!("setup_s: median of {} set-ups", self.times.len()));
        Ok(())
    }
}

/// Windows in which the host stole more than this share of the CPUs'
/// time are left out of `latency_p99_ms` (while at least half the
/// windows remain). On two CPUs this is two 10 ms steal ticks a second:
/// a second with more already slows every search it overlaps.
pub const MAX_STEAL_SHARE: f64 = 0.01;

/// Per-job samples of a timed phase.
#[derive(Debug, Default)]
pub struct Samples {
    at_s: Vec<f64>,
    done: Vec<Instant>,
    latency_ms: Vec<f64>,
    evals: Vec<f64>,
}

/// The samples that completed in one window of a phase.
#[derive(Debug, Default)]
struct Window {
    jobs: f64,
    evals: f64,
    latency_ms: Vec<f64>,
    /// Wall time from the earliest start to the latest completion.
    span: Option<(Instant, Instant)>,
}

impl Samples {
    /// Records a job that completed at wall time `done` (phase time
    /// `at_s`) after `latency_ms`.
    pub fn push(&mut self, at_s: f64, done: Instant, latency_ms: f64, evals: usize) {
        self.at_s.push(at_s);
        self.done.push(done);
        self.latency_ms.push(latency_ms);
        self.evals.push(evals as f64);
    }

    /// Jobs completed.
    pub fn len(&self) -> usize {
        self.at_s.len()
    }

    /// Whether nothing completed.
    pub fn is_empty(&self) -> bool {
        self.at_s.is_empty()
    }

    /// Each full window of a phase that lasted `elapsed_s`.
    fn windows(&self, elapsed_s: f64) -> Vec<Window> {
        let full = (elapsed_s / WINDOW_S).floor() as usize;
        let mut windows: Vec<Window> = (0..full).map(|_| Window::default()).collect();
        for (i, at) in self.at_s.iter().enumerate() {
            let Some(w) = windows.get_mut((at / WINDOW_S) as usize) else {
                continue;
            };
            let latency = self.latency_ms[i];
            w.jobs += 1.0;
            w.evals += self.evals[i];
            w.latency_ms.push(latency);
            let done = self.done[i];
            let began = done
                .checked_sub(Duration::from_secs_f64(latency.max(0.0) / 1e3))
                .unwrap_or(done);
            w.span = Some(
                w.span
                    .map_or((began, done), |(from, to)| (from.min(began), to.max(done))),
            );
        }
        windows
    }

    /// Records the phase's job and evaluation rates under the given
    /// names: the median of the per-window rates, so a few windows of
    /// host contention (which on a shared machine slows this code by up
    /// to 40% for seconds at a time) do not move the result. The
    /// whole-run rates go to the log.
    pub fn report_rates(
        &self,
        out: &mut Outcome,
        elapsed_s: f64,
        jobs: &'static str,
        evals: &'static str,
    ) {
        let windows = self.windows(elapsed_s);
        let whole_evals: f64 = self.evals.iter().sum();
        for (name, pick_evals, whole) in [
            (jobs, false, self.len() as f64 / elapsed_s),
            (evals, true, whole_evals / elapsed_s),
        ] {
            let value = if windows.len() < 4 {
                whole
            } else {
                let per_s: Vec<f64> = windows
                    .iter()
                    .map(|w| if pick_evals { w.evals } else { w.jobs } / WINDOW_S)
                    .collect();
                stats::median(&per_s)
            };
            out.set(name, value);
            out.note(format!(
                "{name}: median of {} {WINDOW_S} s windows; whole run {whole:.3}",
                windows.len()
            ));
        }
    }

    /// Records `metric` as the median of the per-window median latencies
    /// (for the reason [`Samples::report_rates`] gives), or as the
    /// pooled median when fewer than four windows hold enough samples.
    pub fn report_median(
        &self,
        out: &mut Outcome,
        metric: &'static str,
        elapsed_s: f64,
        what: &str,
    ) {
        let medians: Vec<f64> = self
            .windows(elapsed_s)
            .into_iter()
            .filter(|w| w.latency_ms.len() >= MIN_WINDOW_SAMPLES)
            .map(|w| stats::median(&w.latency_ms))
            .collect();
        let pooled = stats::percentile(&self.latency_ms, 50.0);
        if medians.len() < 4 {
            out.set(metric, pooled.value);
            out.note(format!("{metric}: {what} {}", pooled.describe()));
            return;
        }
        out.set(metric, stats::median(&medians));
        out.note(format!(
            "{metric}: {what}, median of {} window medians; whole run {}",
            medians.len(),
            pooled.describe()
        ));
    }

    /// Records `latency_p50_ms` with [`Samples::report_median`], and
    /// `latency_p99_ms` over the samples of every window in which the
    /// host stole less than [`MAX_STEAL_SHARE`] of the `cpus` CPUs' time.
    /// Steal is measured apart from the program (`steal`, sampled while
    /// the phase ran), so a stall of the program's own stays in the
    /// tail; only windows in which the hypervisor held the CPUs back are
    /// left out. Where no steal was sampled, every sample counts.
    pub fn report_latency(
        &self,
        out: &mut Outcome,
        elapsed_s: f64,
        what: &str,
        steal: &StealLog,
        cpus: usize,
    ) {
        self.report_median(out, "latency_p50_ms", elapsed_s, what);
        let whole = stats::percentile(&self.latency_ms, 99.0);
        if steal.is_empty() {
            set_percentile(out, "latency_p99_ms", what, &self.latency_ms, 99.0);
            out.note("latency_p99_ms: host steal time is not reported here");
            return;
        }
        let mut windows: Vec<(f64, Window)> = self
            .windows(elapsed_s)
            .into_iter()
            .filter_map(|w| {
                let (from, to) = w.span?;
                let capacity = (to - from).as_secs_f64() * cpus.max(1) as f64;
                Some((stats::ratio(steal.between(from, to), capacity), w))
            })
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = windows
            .iter()
            .filter(|(share, _)| *share <= MAX_STEAL_SHARE)
            .count()
            .max(windows.len().div_ceil(2));
        let tail: Vec<f64> = windows[..keep]
            .iter()
            .flat_map(|(_, w)| w.latency_ms.iter().copied())
            .collect();
        set_percentile(
            out,
            "latency_p99_ms",
            &format!(
                "{what}, {keep} of {} windows (the rest had host steal above {MAX_STEAL_SHARE} of CPU time)",
                windows.len()
            ),
            &tail,
            99.0,
        );
        out.note(format!("latency_p99_ms whole run: {}", whole.describe()));
    }
}
