//! Output checks against the committed goldens: re-derive a target
//! through the same public entry point the golden test uses and diff it
//! at the golden tolerance. The golden files are only read.

use crate::metrics::Outcome;
use dqc_bench::Artifact;
use dqc_types::json;

/// The tolerance the golden regression test and CI apply.
pub const GOLDEN_TOL: f64 = 1e-9;

/// Re-derives `tests/golden/<target>.json` at its recorded runs and seed
/// and counts one attempted check, failed on any difference.
pub fn check(out: &mut Outcome, target: &str) {
    let path = format!("tests/golden/{target}.json");
    let verdict = (|| -> Result<(), String> {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let golden = Artifact::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let fresh = Artifact::build(target, golden.runs, golden.seed)
            .map_err(|e| format!("recomputing {target}: {e}"))?;
        let diffs = json::diff(&golden.to_json(), &fresh.to_json(), GOLDEN_TOL);
        match diffs.first() {
            None => Ok(()),
            Some(first) => Err(format!("{} sites differ, first {first}", diffs.len())),
        }
    })();
    out.attempt(verdict.is_ok());
    out.note(match verdict {
        Ok(()) => format!("check: {path} re-derived, identical at {GOLDEN_TOL:e}"),
        Err(e) => format!("check FAILED: {e}"),
    });
}
