//! Golden-file regression gate: the committed artifacts under
//! `tests/golden/` pin the paper-claims numbers at fixed seeds; this test
//! recomputes each pinned target in-process and diffs the fresh artifact
//! against the golden document with the same tolerance CI uses for
//! `repro diff`.
//!
//! The engine is deterministic (integer tick clock, seeded ChaCha
//! streams, ordered parallel collection), so the tolerance only has to
//! absorb float-formatting round-trips — which are exact — and is
//! correspondingly tight.
//!
//! To re-pin after a deliberate behavior change (the golden files name
//! their own targets, so the list lives in `PINNED` and the directory
//! only):
//!
//! ```text
//! cargo run --release --bin repro -- $(basename -s .json tests/golden/*.json) \
//!     --runs 2 --format json --out tests/golden
//! ```

use dqc_bench::Artifact;
use dqc_types::json;
use std::path::PathBuf;

/// Runs/seed the golden artifacts were generated with (seed is
/// [`dqc_bench::BASE_SEED`], the repro default).
const GOLDEN_RUNS: usize = 2;

/// The tolerance CI applies via `repro diff --tol`.
const GOLDEN_TOL: f64 = 1e-9;

/// The pinned targets: deterministic table plus one representative of
/// each expensive sweep family (figures, topology, ablations).
const PINNED: &[&str] = &[
    "table1",
    "fig5",
    "topology-sweep",
    "codesign",
    "ablate-protocol",
    "analyze",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_target(target: &str) {
    let path = golden_dir().join(format!("{target}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden = Artifact::parse(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid artifact: {e}", path.display()));
    assert_eq!(golden.target, target, "{}", path.display());

    let fresh = Artifact::build(target, golden.runs, golden.seed)
        .unwrap_or_else(|e| panic!("recomputing {target}: {e}"));
    let diffs = json::diff(&golden.to_json(), &fresh.to_json(), GOLDEN_TOL);
    assert!(
        diffs.is_empty(),
        "{target} drifted from tests/golden/{target}.json ({} sites):\n  {}\n\
         If this change is intentional, regenerate the golden files (see \
         this file's module docs) and review the numeric diff in the PR.",
        diffs.len(),
        diffs
            .iter()
            .take(10)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

#[test]
fn golden_dir_holds_exactly_the_pinned_targets() {
    // CI and the regenerate command take the target list from the file
    // names, so a stale golden (one whose target is gone or unpinned)
    // must fail here rather than linger unchecked.
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden is readable")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 file name")
        })
        .collect();
    files.sort();
    let mut pinned: Vec<String> = PINNED.iter().map(|t| format!("{t}.json")).collect();
    pinned.sort();
    assert_eq!(files, pinned);
}

#[test]
fn golden_artifacts_use_the_documented_provenance() {
    for target in PINNED {
        let path = golden_dir().join(format!("{target}.json"));
        let golden = Artifact::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(golden.runs, GOLDEN_RUNS, "{target}: unexpected run count");
        assert_eq!(
            golden.seed,
            dqc_bench::BASE_SEED,
            "{target}: unexpected seed"
        );
    }
}

#[test]
fn table1_matches_golden() {
    check_target("table1");
}

#[test]
fn fig5_matches_golden() {
    check_target("fig5");
}

#[test]
fn topology_sweep_matches_golden() {
    check_target("topology-sweep");
}

#[test]
fn ablate_protocol_matches_golden() {
    check_target("ablate-protocol");
}

#[test]
fn codesign_matches_golden() {
    check_target("codesign");
}

#[test]
fn analyze_matches_golden() {
    check_target("analyze");
}

#[test]
fn golden_analyze_corpus_is_clean() {
    // The acceptance claim of the analyze target, asserted from the
    // committed golden itself: the static analyzer finds nothing — not
    // even a warning — in anything the repo ships (paper benchmarks on
    // their matching points and the default serving configuration).
    let text = std::fs::read_to_string(golden_dir().join("analyze.json")).unwrap();
    let artifact = Artifact::parse(&text).unwrap();
    let rows = artifact.data.as_array().expect("analyze payload is rows");
    assert_eq!(
        rows.len(),
        dqc::workloads::PaperBenchmark::ALL.len() + 1,
        "every paper benchmark plus the default ServeConfig"
    );
    for row in rows {
        let label = row.str_field("label").unwrap();
        let report = dqc::analyze::AnalysisReport::from_json(row.field("report").unwrap()).unwrap();
        assert!(
            report.is_clean(),
            "shipped subject `{label}` has findings: {report}"
        );
    }
}

#[test]
fn golden_codesign_frontier_contains_the_paper_operating_point() {
    // The acceptance claim of the codesign target, asserted from the
    // committed golden itself (not just the generator): the paper's
    // recommended operating point — adapt_buf on the two-node 32-qubit
    // system (10 comm + 10 buffer per node, 99 % EPR fidelity) — lies on
    // the Pareto frontier over (fidelity, relative depth, hardware cost).
    let text = std::fs::read_to_string(golden_dir().join("codesign.json")).unwrap();
    let artifact = Artifact::parse(&text).unwrap();
    let result = dqc_codesign::CodesignResult::from_json(&artifact.data)
        .expect("codesign payload parses back");
    let paper_point = dqc_bench::codesign_paper_point();
    assert!(
        result.frontier_contains(&paper_point),
        "frontier must contain {paper_point}; frontier is {:?}",
        result
            .frontier_candidates()
            .iter()
            .map(|c| c.key.to_string())
            .collect::<Vec<_>>()
    );
    // And the frontier is a genuine trade-off surface, not a single
    // winner: it keeps both cheaper-but-slower and costlier-but-denser
    // neighbours of the paper point.
    assert!(result.frontier.len() >= 3, "{:?}", result.frontier);
}

#[test]
fn golden_table1_pins_the_paper_claims() {
    // Belt and braces: the golden file itself (not just the generator)
    // carries the paper's Table I numbers for the deterministic
    // benchmarks, so a silently regenerated golden cannot hide a claims
    // regression.
    let text = std::fs::read_to_string(golden_dir().join("table1.json")).unwrap();
    let artifact = Artifact::parse(&text).unwrap();
    let rows: Vec<dqc_bench::Table1Row> = artifact
        .data
        .as_array()
        .expect("table1 payload is an array")
        .iter()
        .map(|r| dqc_bench::Table1Row::from_json(r).unwrap())
        .collect();
    let tlim = rows.iter().find(|r| r.name == "TLIM-32").unwrap();
    assert_eq!((tlim.local_2q, tlim.remote_2q), (300, 10));
    let qft = rows.iter().find(|r| r.name == "QFT-32").unwrap();
    assert_eq!((qft.local_2q, qft.remote_2q, qft.depth), (240, 256, 63));
}
