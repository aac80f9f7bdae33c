//! `dqc-obs report` into a reader that stops early (`| head`): the
//! report ends without a panic, and the exit status is still the
//! `--min-spans` gate's.

use dqc_obs::{Capture, MetricsSnapshot, SpanId, SpanRecord, TraceId};
use std::process::{Command, Stdio};

/// Spans enough that the rendered report outgrows a 64 KiB pipe buffer,
/// so the binary cannot finish before its reader is gone.
const SPANS: u64 = 5_000;

fn large_capture() -> Capture {
    let spans = (0..SPANS)
        .map(|i| SpanRecord {
            trace: TraceId(1),
            id: SpanId(i + 1),
            parent: None,
            name: format!("bench.span_{i}"),
            start_us: i,
            end_us: i + 1,
            attrs: Vec::new(),
        })
        .collect();
    Capture {
        producer: "report_pipe".to_string(),
        clock: "tick".to_string(),
        spans,
        events: Vec::new(),
        metrics: MetricsSnapshot::default(),
    }
}

#[test]
fn a_closed_stdout_ends_the_report_without_a_panic() {
    let capture = large_capture();
    assert!(capture.render_tree().len() > 64 * 1024, "outgrows a pipe");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("report_pipe-{}.json", std::process::id()));
    std::fs::write(&path, capture.to_json().to_compact_string()).unwrap();

    for (min_spans, gate_passes) in [(SPANS, true), (SPANS + 1, false)] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dqc-obs"))
            .arg("report")
            .arg(&path)
            .args(["--min-spans", &min_spans.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("dqc-obs starts");
        // The reader goes away without reading a byte.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("dqc-obs exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(output.status.success(), gate_passes, "{stderr}");
        assert_eq!(output.status.code(), Some(if gate_passes { 0 } else { 1 }));
    }
    std::fs::remove_file(&path).unwrap();
}
