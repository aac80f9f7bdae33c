//! `dqc-obs` — inspect profiling captures.
//!
//! ```text
//! dqc-obs report CAPTURE.json [--top N] [--min-spans N]
//! ```
//!
//! `report` parses a capture produced by `repro --profile` or
//! `dqcbench --trace 1` (or scraped from a live daemon's `trace`
//! frame), prints every trace's span tree and the top-N table, and
//! exits non-zero when the capture fails to parse or holds fewer than
//! `--min-spans` spans — which is exactly the gate CI's `bench-smoke`
//! job runs on every capture it records.

use dqc_obs::Capture;
use dqc_types::Json;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: dqc-obs report CAPTURE.json [--top N] [--min-spans N]");
    std::process::exit(2);
}

fn parse_count(args: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
    match args.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("error: `{flag}` needs an unsigned integer");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("report") => {}
        _ => usage(),
    }
    let Some(path) = iter.next() else { usage() };
    let mut top = 10usize;
    let mut min_spans = 1usize;
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--top" => top = parse_count(&mut iter, "--top"),
            "--min-spans" => min_spans = parse_count(&mut iter, "--min-spans"),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage();
            }
        }
    }

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let capture = match Json::parse(&text).and_then(|json| Capture::from_json(&json)) {
        Ok(capture) => capture,
        Err(e) => {
            eprintln!("error: `{path}` is not a valid capture: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "capture: producer={} clock={} spans={} events={} traces={} metrics={}",
        capture.producer,
        capture.clock,
        capture.spans.len(),
        capture.events.len(),
        capture.traces().len(),
        capture.metrics.entries.len(),
    );
    println!();
    print!("{}", capture.render_tree());
    println!();
    print!("{}", capture.render_top(top));

    if capture.spans.len() < min_spans {
        eprintln!(
            "error: capture holds {} spans, below the --min-spans gate of {min_spans}",
            capture.spans.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
