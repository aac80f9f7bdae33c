//! Command-line driver that regenerates every table and figure of the
//! paper's evaluation, as human-readable tables or machine-readable JSON
//! artifacts, and diffs artifacts against golden files.
//!
//! ```text
//! repro [TARGET...] [--runs N] [--seed S] [--format table|json] [--out DIR]
//!       [--profile DIR]
//! repro diff <a.json> <b.json> [--tol EPS]
//!
//! TARGET: table1 | table2 | fig3 | fig5 | fig6 | fig56 | fig7 | fig8
//!       | topology-sweep | codesign
//!       | ablate-cutoff | ablate-psucc | ablate-segment
//!       | ablate-protocol | ablate-purification
//!       | analyze
//!       | ablations (all five) | all
//!
//! `fig56` prints Figures 5 and 6 from one shared sweep; `all` uses it
//! in place of running `fig5` and `fig6` separately. `analyze` runs the
//! static analyzer over the shipped corpus without executing anything.
//! Every target runs on the default (`analytic`) simulation engine; the
//! engine never changes a number, so there is no flag to pick one.
//! ```
//!
//! Without arguments it runs everything with the paper's 50-run averages
//! in table format. Each target builds one [`dqc_bench::Artifact`]: table
//! mode prints its payload with [`dqc_bench::print_artifact`], and
//! `--format json` writes the artifact itself — to stdout, or to
//! `DIR/<target>.json` when `--out` is given. `repro diff` compares two
//! artifacts structurally, treating numbers within `EPS` (mixed
//! absolute/relative, default 1e-9) as equal; it exits non-zero when they
//! differ, which is the CI golden-file regression gate.
//!
//! `--profile DIR` runs the selected targets with a span recorder and
//! the monotonic clock installed and writes the resulting capture
//! (compile and replay span trees) to `DIR/profile_repro.json`,
//! readable by `dqc-obs report`. Recording never changes any computed
//! number — the workspace's determinism tests pin that — but it does
//! add tracing overhead, so profile runs are not timing-representative.

use dqc_bench::Artifact;
use dqc_types::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Output rendering selected by `--format`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The paper's pretty-printed terminal tables (default).
    Table,
    /// One JSON artifact per target.
    Json,
}

/// Expands one CLI word into the targets it names.
fn expand(name: &str) -> Option<Vec<&'static str>> {
    let names = dqc_bench::target_names();
    let expanded: Vec<&'static str> = match name {
        // Figures 5 and 6 render the same sweep, so `all` takes the
        // combined `fig56` target and pays for that grid only once.
        "all" => names.filter(|n| *n != "fig5" && *n != "fig6").collect(),
        "ablations" => names.filter(|n| n.starts_with("ablate-")).collect(),
        _ => names.filter(|n| *n == name).collect(),
    };
    (!expanded.is_empty()).then_some(expanded)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return run_diff(&args[1..]);
    }

    let mut targets: Vec<&'static str> = Vec::new();
    let mut runs = dqc_bench::PAPER_RUNS;
    let mut seed = dqc_bench::BASE_SEED;
    let mut format = Format::Table;
    let mut out_dir: Option<PathBuf> = None;
    let mut profile_dir: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--runs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => runs = v,
                None => return usage("--runs needs an integer"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                // Capped at i64::MAX: larger seeds would lose precision
                // through the artifact envelope's integer encoding, so
                // the recorded provenance could not regenerate the data.
                Some(v) if v <= i64::MAX as u64 => seed = v,
                Some(_) => return usage("--seed must fit a signed 64-bit integer"),
                None => return usage("--seed needs an integer"),
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("table") => format = Format::Table,
                Some("json") => format = Format::Json,
                _ => return usage("--format needs `table` or `json`"),
            },
            "--out" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            "--profile" => match iter.next() {
                Some(dir) => profile_dir = Some(PathBuf::from(dir)),
                None => return usage("--profile needs a directory"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            other => match expand(other) {
                Some(expanded) => targets.extend(expanded),
                None => return usage(&format!("unknown target {other}")),
            },
        }
    }
    if out_dir.is_some() && format == Format::Table {
        // `--out` only makes sense for artifacts; writing silently nothing
        // would look like success.
        return usage("--out requires --format json");
    }
    if targets.is_empty() {
        targets = expand("all").expect("all is always a target");
    }
    if format == Format::Json && out_dir.is_none() && targets.len() > 1 {
        // Concatenated pretty documents would not be parseable JSON.
        return usage("multiple --format json targets need --out (one file per target)");
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // With `--profile`, the targets below run under an installed span
    // recorder; recording changes no computed number, only captures the
    // compile/replay span trees as they happen.
    let recording = profile_dir.as_ref().map(|_| {
        let ring = std::sync::Arc::new(dqc_obs::RingRecorder::new(262_144));
        let session = dqc_obs::install(
            std::sync::Arc::clone(&ring) as std::sync::Arc<dyn dqc_obs::Recorder>,
            std::sync::Arc::new(dqc_obs::MonotonicClock::new()),
        );
        (ring, session)
    });

    for (i, target) in targets.iter().enumerate() {
        if format == Format::Table && i > 0 {
            println!();
        }
        let outcome = Artifact::build(target, runs, seed)
            .map_err(|e| e.to_string())
            .and_then(|artifact| match format {
                Format::Table => dqc_bench::print_artifact(&artifact).map_err(|e| e.to_string()),
                Format::Json => emit_artifact(&artifact, out_dir.as_deref()),
            });
        if let Err(e) = outcome {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let (Some(dir), Some((ring, session))) = (profile_dir, recording) {
        drop(session);
        let capture = dqc_obs::Capture::from_ring(
            "repro",
            "monotonic",
            &ring,
            dqc_obs::MetricsSnapshot::default(),
        );
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("profile_repro.json");
        if let Err(e) = std::fs::write(&path, capture.to_json().to_pretty_string()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Writes one artifact to `DIR/<target>.json`, or prints it to stdout
/// when no directory was given.
fn emit_artifact(artifact: &Artifact, out_dir: Option<&Path>) -> Result<(), String> {
    match out_dir {
        Some(dir) => {
            let path = dir.join(artifact.file_name());
            std::fs::write(&path, artifact.to_pretty_string())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        None => print!("{}", artifact.to_pretty_string()),
    }
    Ok(())
}

/// `repro diff a.json b.json [--tol EPS]`: the golden-file gate.
fn run_diff(args: &[String]) -> ExitCode {
    let mut files: Vec<&str> = Vec::new();
    let mut tol = 1e-9f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tol" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 0.0 => tol = v,
                _ => return usage("--tol needs a non-negative number"),
            },
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            other => files.push(other),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return usage("diff needs exactly two artifact files");
    };

    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let diffs = json::diff(&a, &b, tol);
    if diffs.is_empty() {
        println!("{a_path} and {b_path} match within tolerance {tol:e}");
        return ExitCode::SUCCESS;
    }
    const SHOWN: usize = 25;
    eprintln!(
        "{a_path} and {b_path} differ ({} sites, tolerance {tol:e}):",
        diffs.len()
    );
    for d in diffs.iter().take(SHOWN) {
        eprintln!("  {d}");
    }
    if diffs.len() > SHOWN {
        eprintln!("  ... and {} more", diffs.len() - SHOWN);
    }
    ExitCode::FAILURE
}

/// Reads one artifact file and extracts what `diff` compares: the target
/// name and the payload. The envelope's `runs`/`seed` are provenance,
/// not results — a deterministic target emitted at different run counts
/// is still the same data, and for sweep targets every averaged report
/// carries its own `runs` field inside the payload — so they are
/// deliberately left out of the comparison. The schema version is
/// validated here, so version skew is reported as such rather than as
/// field-level noise.
fn load(path: &str) -> Result<dqc_types::Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    match Artifact::parse(&text) {
        Ok(artifact) => Ok(dqc_types::Json::object([
            ("target", dqc_types::Json::from(artifact.target.as_str())),
            ("data", artifact.data),
        ])),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn usage(message: &str) -> ExitCode {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: repro [TARGET...] [--runs N] [--seed S] [--format table|json] [--out DIR]\n\
         \x20             [--profile DIR]\n\
         \x20      repro diff <a.json> <b.json> [--tol EPS]\n\
         targets: table1 table2 fig3 fig5 fig6 fig56 fig7 fig8\n\
         \x20        topology-sweep codesign\n\
         \x20        ablate-cutoff ablate-psucc ablate-segment\n\
         \x20        ablate-protocol ablate-purification analyze\n\
         \x20        ablations (all five ablations) | all (everything)"
    );
    if message.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
