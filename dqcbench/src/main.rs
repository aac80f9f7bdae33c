//! `dqcbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints the run's provenance and log, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). The same
//! record, plus the traced run's capture, is written under `.bench_out/`.
//! Exits 1 when any check failed.

use dqc_types::Json;
use dqcbench::metrics::{result_line, Outcome, END_TO_END, PER_LAYER};
use dqcbench::{machine, Args, USAGE};
use std::process::ExitCode;

const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = dqcbench::run(&args, &mut out) {
        eprintln!("error: {e}");
        out.attempt(false);
        out.note(format!("aborted: {e}"));
    }
    if !args.trace {
        out.set("peak_rss_mb", machine::peak_rss_mb());
        let rate = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.set("success_rate", rate);
    }
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let (line, problems) = result_line(&out, defs);
    for problem in &problems {
        out.note(format!("problem: {problem}"));
    }

    let provenance = machine::provenance(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &out.provenance,
    );
    println!("provenance {}", provenance.to_compact_string());
    for note in &out.notes {
        println!("  {note}");
    }
    for def in defs {
        println!(
            "  {:<36} {:>16.6} {}",
            def.name,
            out.get(def.name).unwrap_or(0.0),
            def.unit
        );
    }
    write_record(&args, &provenance, &out, &line);
    println!("{}", line.to_compact_string());
    if line.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the result record (and the traced run's capture, readable by
/// `dqc-obs report`) under `.bench_out/`. Failing to write is logged,
/// not fatal: the printed result is the record of the run.
fn write_record(args: &Args, provenance: &Json, out: &Outcome, line: &Json) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::object([
        ("provenance", provenance.clone()),
        (
            "log",
            Json::Array(out.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        ("result", line.clone()),
    ]);
    let mut files = vec![(format!("{stem}.json"), record.to_pretty_string())];
    if let Some(capture) = &out.capture {
        files.push((
            format!("{stem}.capture.json"),
            capture.to_json().to_compact_string(),
        ));
    }
    for (path, text) in files {
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
}
