//! The `repro` binary refuses the removed engine selectors: the engine
//! never changes a reproduced number, so neither a flag nor a target
//! picks one.

use std::process::Command;

/// Runs `repro` with `args`, returning (exit code, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(output.stdout.is_empty(), "nothing ran: {output:?}");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn removed_backend_flag_is_refused() {
    let (code, stderr) = repro(&["table1", "--backend", "auto"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --backend"), "{stderr}");
}

#[test]
fn removed_backend_matrix_target_is_refused() {
    let (code, stderr) = repro(&["backend-matrix"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown target backend-matrix"), "{stderr}");
}
