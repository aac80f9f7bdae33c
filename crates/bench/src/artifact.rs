//! Machine-readable result artifacts: one JSON document per repro target.
//!
//! Every reproduction target (`table1` … `analyze`) computes its numbers
//! as an [`Artifact`] — a stable envelope around the target-specific
//! payload from [`target_data`] — and [`print_artifact`] renders that
//! payload as the paper's table, so a table is always a rendering of the
//! artifact the JSON mode writes. CI runs the targets at fixed
//! `--runs`/`--seed`, writes the artifacts, and gates them against the
//! committed golden files under `tests/golden/` with `repro diff`; the
//! same envelope is what `tests/golden_regression.rs` rebuilds
//! in-process.
//!
//! The envelope is versioned ([`SCHEMA_VERSION`]) so a deliberate schema
//! change (bump) is distinguishable from accidental drift (diff failure).

use crate::{Fig3Histograms, Table1Row, Table2Data};
use dqc_codesign::CodesignResult;
use dqc_core::{DqcError, SweepResult, SystemConfig};
use dqc_types::{Json, JsonError};

/// Version of the artifact envelope and of every payload schema below it.
/// Bump when a serialized field is added, removed, or re-interpreted, and
/// regenerate the golden files in the same commit.
pub const SCHEMA_VERSION: u32 = 1;

/// Computes a target's payload from `(runs, seed)`.
type DataFn = fn(usize, u64) -> Result<Json, DqcError>;

/// Prints a target's payload in the layout of the paper; the run count
/// is the one the table's header names.
type PrintFn = fn(&Json, usize) -> Result<(), JsonError>;

/// Every repro target, in `repro`'s execution order: its name, the
/// payload it computes, and the printer that renders that payload.
/// `fig5`, `fig6` and `fig56` share one payload (the combined Fig. 5/6
/// sweep grid): the figures are two renderings of the same experiments.
const TARGETS: &[(&str, DataFn, PrintFn)] = &[
    (
        "table1",
        |_, _| {
            let table = crate::table1_data();
            Ok(Json::Array(table.iter().map(Table1Row::to_json).collect()))
        },
        |data, _| {
            let table: Vec<Table1Row> = rows(data)?
                .iter()
                .map(Table1Row::from_json)
                .collect::<Result<_, _>>()?;
            crate::print_table1(&table);
            Ok(())
        },
    ),
    (
        "table2",
        |_, _| Ok(crate::table2_data(&SystemConfig::paper_two_node_32()).to_json()),
        |data, _| {
            crate::print_table2_from(&Table2Data::from_json(data)?);
            Ok(())
        },
    ),
    (
        "fig3",
        |_, seed| Ok(crate::fig3_histograms(10, seed).to_json()),
        |data, _| {
            crate::print_fig3_from(&Fig3Histograms::from_json(data)?);
            Ok(())
        },
    ),
    ("fig5", fig56_data, |data, runs| {
        print_sweep(data, runs, crate::print_fig5_from)
    }),
    ("fig6", fig56_data, |data, runs| {
        print_sweep(data, runs, crate::print_fig6_from)
    }),
    ("fig56", fig56_data, |data, runs| {
        let result = SweepResult::from_json(data)?;
        crate::print_fig5_from(&result, runs);
        println!();
        crate::print_fig6_from(&result, runs);
        Ok(())
    }),
    (
        "fig7",
        |runs, seed| Ok(crate::fig7_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_fig7_from),
    ),
    (
        "fig8",
        |runs, seed| Ok(crate::fig8_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_fig8_from),
    ),
    (
        "topology-sweep",
        |runs, seed| {
            let results = crate::topology_sweep_all(runs, seed)?;
            Ok(Json::Array(
                results
                    .iter()
                    .map(|(nodes, result)| {
                        Json::object([("nodes", Json::from(*nodes)), ("result", result.to_json())])
                    })
                    .collect(),
            ))
        },
        |data, runs| {
            let results: Vec<(usize, SweepResult)> = rows(data)?
                .iter()
                .map(|row| {
                    let result = SweepResult::from_json(row.field("result")?)?;
                    Ok((row.usize_field("nodes")?, result))
                })
                .collect::<Result<_, JsonError>>()?;
            crate::print_topology_from(&results, runs);
            Ok(())
        },
    ),
    (
        "codesign",
        |runs, seed| Ok(crate::codesign_search(runs, seed)?.to_json()),
        |data, runs| {
            crate::print_codesign_from(&CodesignResult::from_json(data)?, runs);
            Ok(())
        },
    ),
    (
        "ablate-cutoff",
        |runs, seed| Ok(crate::cutoff_ablation_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_cutoff_ablation_from),
    ),
    (
        "ablate-psucc",
        |runs, seed| Ok(crate::psucc_ablation_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_psucc_ablation_from),
    ),
    (
        "ablate-segment",
        |runs, seed| Ok(crate::segment_ablation_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_segment_ablation_from),
    ),
    (
        "ablate-protocol",
        |runs, seed| Ok(crate::protocol_ablation_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_protocol_ablation_from),
    ),
    (
        "ablate-purification",
        |runs, seed| Ok(crate::purification_ablation_sweep(runs, seed)?.to_json()),
        |data, runs| print_sweep(data, runs, crate::print_purification_ablation_from),
    ),
    (
        "analyze",
        |_, _| Ok(crate::analyze_data()),
        |data, _| crate::print_analyze_from(data),
    ),
];

/// The payload `fig5`, `fig6` and `fig56` share.
fn fig56_data(runs: usize, seed: u64) -> Result<Json, DqcError> {
    Ok(crate::fig56_sweep(runs, seed)?.to_json())
}

/// Parses a [`SweepResult`] payload and prints it with `print`.
fn print_sweep(data: &Json, runs: usize, print: fn(&SweepResult, usize)) -> Result<(), JsonError> {
    print(&SweepResult::from_json(data)?, runs);
    Ok(())
}

/// The rows of a payload that is a JSON array.
pub(crate) fn rows(data: &Json) -> Result<&[Json], JsonError> {
    data.as_array()
        .ok_or_else(|| JsonError::schema("payload: expected an array of rows"))
}

/// The table entry of the target called `name`.
fn entry(name: &str) -> Option<&'static (&'static str, DataFn, PrintFn)> {
    TARGETS.iter().find(|(n, _, _)| *n == name)
}

/// The names of every repro target, in `repro`'s execution order.
pub fn target_names() -> impl Iterator<Item = &'static str> {
    TARGETS.iter().map(|(name, _, _)| *name)
}

/// One serialized run of one repro target: the payload from
/// [`target_data`] plus the provenance needed to regenerate it exactly
/// (target name, run count, base seed) and the schema version needed to
/// compare it safely.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The repro target that produced the payload.
    pub target: String,
    /// Seeded runs averaged per cell.
    pub runs: usize,
    /// Base seed of the run (see [`crate::BASE_SEED`]).
    pub seed: u64,
    /// The target-specific payload.
    pub data: Json,
}

impl Artifact {
    /// Computes the artifact for `target` by running it.
    ///
    /// # Errors
    ///
    /// Propagates [`DqcError`] from the engine.
    ///
    /// # Panics
    ///
    /// Panics when `target` is not one of [`target_names`]; the CLI
    /// validates names before dispatching here.
    pub fn build(target: &str, runs: usize, seed: u64) -> Result<Self, DqcError> {
        Ok(Self {
            target: target.to_string(),
            runs,
            seed,
            data: target_data(target, runs, seed)?,
        })
    }

    /// The conventional file name for this artifact: `<target>.json`.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.target)
    }

    /// Serializes the envelope plus payload.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(i64::from(SCHEMA_VERSION))),
            ("target", Json::from(self.target.as_str())),
            ("runs", Json::from(self.runs)),
            ("seed", Json::uint(self.seed)),
            ("data", self.data.clone()),
        ])
    }

    /// The pretty-printed document written to disk.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Reads an artifact back from [`Artifact::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field, or when the
    /// document was written under a different [`SCHEMA_VERSION`].
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let version = json.u64_field("schema_version")?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(JsonError::schema(format!(
                "artifact schema version {version} (this binary understands {SCHEMA_VERSION})"
            )));
        }
        Ok(Self {
            target: json.str_field("target")?.to_string(),
            runs: json.usize_field("runs")?,
            seed: json.u64_field("seed")?,
            data: json.field("data")?.clone(),
        })
    }

    /// Parses an artifact from document text.
    ///
    /// # Errors
    ///
    /// [`JsonError::Parse`] on invalid JSON, [`JsonError::Schema`] on a
    /// valid document with the wrong shape.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Computes the JSON payload of one repro target — the data
/// [`print_artifact`] renders as the target's table.
///
/// # Errors
///
/// Propagates [`DqcError`] from the engine.
///
/// # Panics
///
/// Panics when `target` is not one of [`target_names`]; the CLI validates
/// names before dispatching here.
pub fn target_data(target: &str, runs: usize, seed: u64) -> Result<Json, DqcError> {
    let (_, data, _) =
        entry(target).unwrap_or_else(|| panic!("unknown artifact target `{target}`"));
    data(runs, seed)
}

/// Prints an artifact's payload as its target's table, in the layout of
/// the paper — what `repro` shows in table mode for the same target,
/// runs and seed.
///
/// # Errors
///
/// [`JsonError::Schema`] when the target is unknown or the payload does
/// not have the target's shape.
pub fn print_artifact(artifact: &Artifact) -> Result<(), JsonError> {
    let (_, _, print) = entry(&artifact.target).ok_or_else(|| {
        JsonError::schema(format!("unknown artifact target `{}`", artifact.target))
    })?;
    print(&artifact.data, artifact.runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_types::json;

    #[test]
    fn envelope_round_trips_through_text() {
        let artifact = Artifact {
            target: "table1".to_string(),
            runs: 2,
            seed: 2025,
            data: Json::Array(vec![Json::Int(1)]),
        };
        let back = Artifact::parse(&artifact.to_pretty_string()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.file_name(), "table1.json");
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut doc = Artifact {
            target: "table1".to_string(),
            runs: 1,
            seed: 0,
            data: Json::Null,
        }
        .to_json();
        if let Json::Object(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "schema_version" {
                    *v = Json::Int(99);
                }
            }
        }
        let err = Artifact::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("schema version 99"), "{err}");
    }

    #[test]
    fn cheap_targets_build_diffable_artifacts() {
        // The fully deterministic targets are fast enough to build in a
        // unit test; sweep-heavy targets are covered by the golden
        // regression integration test. Every reparsed artifact must also
        // print: table mode renders exactly this payload.
        for target in ["table1", "table2", "fig3", "analyze"] {
            let artifact = Artifact::build(target, 1, 7).unwrap();
            let reparsed = Artifact::parse(&artifact.to_pretty_string()).unwrap();
            assert!(
                json::diff(&artifact.to_json(), &reparsed.to_json(), 0.0).is_empty(),
                "{target} must survive a write/parse cycle exactly"
            );
            print_artifact(&reparsed).unwrap();
        }
    }

    #[test]
    fn table1_artifact_rows_parse_back() {
        let artifact = Artifact::build("table1", 1, 0).unwrap();
        let rows: Vec<crate::Table1Row> = artifact
            .data
            .as_array()
            .unwrap()
            .iter()
            .map(|r| crate::Table1Row::from_json(r).unwrap())
            .collect();
        assert_eq!(rows, crate::table1_data());
    }
}
