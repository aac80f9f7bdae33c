//! Execution reports and multi-run aggregation.

use crate::Design;
use dqc_entanglement::ServiceStats;
use dqc_types::{Fidelity, Json, JsonError, Tick};
use std::fmt;

/// Reads a `Design` out of a report object's `design` member.
pub(crate) fn design_field(json: &Json) -> Result<Design, JsonError> {
    let name = json.str_field("design")?;
    Design::from_name(name)
        .ok_or_else(|| JsonError::schema(format!("field `design`: unknown design `{name}`")))
}

/// Outcome of executing one circuit on one design (one random run).
///
/// Depths are in ticks; use [`ExecutionReport::depth_cnot_units`] for the
/// paper's unit (one local CNOT).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The design that was executed.
    pub design: Design,
    /// Total makespan.
    pub makespan: Tick,
    /// Makespan of the same circuit on the ideal monolithic device.
    pub ideal_makespan: Tick,
    /// Estimated output fidelity (product of all factors below).
    pub fidelity: Fidelity,
    /// Product of local gate fidelities.
    pub local_fidelity: Fidelity,
    /// Product of remote (teleported) gate fidelities.
    pub remote_fidelity: Fidelity,
    /// Idling-decoherence factor `exp(−κ · mean data-qubit idle)`.
    pub idle_fidelity: Fidelity,
    /// Number of remote gates executed.
    pub remote_gates: usize,
    /// Entanglement-service counters (absent for the ideal design).
    pub service_stats: Option<ServiceStats>,
    /// Mean time a remote gate waited for a link, in ticks.
    pub mean_link_wait: f64,
    /// Number of segments scheduled per variant `(original, asap, alap)`
    /// — all zeros for non-adaptive designs.
    pub variant_counts: (usize, usize, usize),
}

impl ExecutionReport {
    /// Makespan in the paper's depth unit (local CNOT latency).
    pub fn depth_cnot_units(&self) -> f64 {
        self.makespan.as_cnot_units()
    }

    /// Depth relative to the ideal monolithic execution (the y-axis of
    /// Figures 5, 7, 8).
    pub fn depth_relative_to_ideal(&self) -> f64 {
        if self.ideal_makespan.is_zero() {
            1.0
        } else {
            self.makespan.ticks() as f64 / self.ideal_makespan.ticks() as f64
        }
    }

    /// Output fidelity.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Serializes the report for the machine-readable results pipeline.
    ///
    /// Times are stored in raw integer ticks (exact), fidelities as their
    /// `[0, 1]` float values; [`ExecutionReport::from_json`] is the exact
    /// inverse.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("design", Json::from(self.design.name())),
            ("makespan_ticks", Json::from(self.makespan.ticks())),
            (
                "ideal_makespan_ticks",
                Json::from(self.ideal_makespan.ticks()),
            ),
            ("fidelity", Json::float(self.fidelity.value())),
            ("local_fidelity", Json::float(self.local_fidelity.value())),
            ("remote_fidelity", Json::float(self.remote_fidelity.value())),
            ("idle_fidelity", Json::float(self.idle_fidelity.value())),
            ("remote_gates", Json::from(self.remote_gates)),
            (
                "service_stats",
                self.service_stats
                    .as_ref()
                    .map_or(Json::Null, ServiceStats::to_json),
            ),
            ("mean_link_wait", Json::float(self.mean_link_wait)),
            (
                "variant_counts",
                Json::Array(vec![
                    Json::from(self.variant_counts.0),
                    Json::from(self.variant_counts.1),
                    Json::from(self.variant_counts.2),
                ]),
            ),
        ])
    }

    /// Reads a report back from [`ExecutionReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let variants = json.array_field("variant_counts")?;
        let variant_at = |i: usize| -> Result<usize, JsonError> {
            variants
                .get(i)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| JsonError::schema("field `variant_counts`: expected 3 counts"))
        };
        let stats = json.field("service_stats")?;
        Ok(Self {
            design: design_field(json)?,
            makespan: Tick::new(json.i64_field("makespan_ticks")?),
            ideal_makespan: Tick::new(json.i64_field("ideal_makespan_ticks")?),
            fidelity: Fidelity::new(json.f64_field("fidelity")?),
            local_fidelity: Fidelity::new(json.f64_field("local_fidelity")?),
            remote_fidelity: Fidelity::new(json.f64_field("remote_fidelity")?),
            idle_fidelity: Fidelity::new(json.f64_field("idle_fidelity")?),
            remote_gates: json.usize_field("remote_gates")?,
            service_stats: if stats.is_null() {
                None
            } else {
                Some(ServiceStats::from_json(stats)?)
            },
            mean_link_wait: json.f64_field("mean_link_wait")?,
            variant_counts: (variant_at(0)?, variant_at(1)?, variant_at(2)?),
        })
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: depth {:.1} ({}x ideal), fidelity {:.4} ({} remote gates)",
            self.design,
            self.depth_cnot_units(),
            format_args!("{:.2}", self.depth_relative_to_ideal()),
            self.fidelity.value(),
            self.remote_gates
        )
    }
}

/// Mean metrics across many seeded runs (the paper averages 50).
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedReport {
    /// The design evaluated.
    pub design: Design,
    /// Number of runs averaged.
    pub runs: usize,
    /// Mean makespan in CNOT units.
    pub mean_depth: f64,
    /// Mean depth relative to ideal.
    pub mean_depth_relative: f64,
    /// Mean output fidelity.
    pub mean_fidelity: f64,
    /// Mean remote-gate count (constant across seeds for a fixed map).
    pub mean_remote_gates: f64,
    /// Mean link wait per remote gate, in ticks.
    pub mean_link_wait: f64,
    /// Mean number of links wasted by cutoff per run.
    pub mean_wasted: f64,
}

impl AveragedReport {
    /// Averages a non-empty set of reports.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mixed designs.
    pub fn from_runs(reports: &[ExecutionReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one run");
        let design = reports[0].design;
        assert!(
            reports.iter().all(|r| r.design == design),
            "cannot average across designs"
        );
        let n = reports.len() as f64;
        Self {
            design,
            runs: reports.len(),
            mean_depth: reports.iter().map(|r| r.depth_cnot_units()).sum::<f64>() / n,
            mean_depth_relative: reports
                .iter()
                .map(|r| r.depth_relative_to_ideal())
                .sum::<f64>()
                / n,
            mean_fidelity: reports.iter().map(|r| r.fidelity.value()).sum::<f64>() / n,
            mean_remote_gates: reports.iter().map(|r| r.remote_gates as f64).sum::<f64>() / n,
            mean_link_wait: reports.iter().map(|r| r.mean_link_wait).sum::<f64>() / n,
            mean_wasted: reports
                .iter()
                .map(|r| r.service_stats.map_or(0.0, |s| s.wasted as f64))
                .sum::<f64>()
                / n,
        }
    }

    /// Serializes the averages for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("design", Json::from(self.design.name())),
            ("runs", Json::from(self.runs)),
            ("mean_depth", Json::float(self.mean_depth)),
            ("mean_depth_relative", Json::float(self.mean_depth_relative)),
            ("mean_fidelity", Json::float(self.mean_fidelity)),
            ("mean_remote_gates", Json::float(self.mean_remote_gates)),
            ("mean_link_wait", Json::float(self.mean_link_wait)),
            ("mean_wasted", Json::float(self.mean_wasted)),
        ])
    }

    /// Reads averages back from [`AveragedReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            design: design_field(json)?,
            runs: json.usize_field("runs")?,
            mean_depth: json.f64_field("mean_depth")?,
            mean_depth_relative: json.f64_field("mean_depth_relative")?,
            mean_fidelity: json.f64_field("mean_fidelity")?,
            mean_remote_gates: json.f64_field("mean_remote_gates")?,
            mean_link_wait: json.f64_field("mean_link_wait")?,
            mean_wasted: json.f64_field("mean_wasted")?,
        })
    }
}

impl fmt::Display for AveragedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} depth {:>8.1} ({:>5.2}x ideal)  fidelity {:.4}  [{} runs]",
            self.design.name(),
            self.mean_depth,
            self.mean_depth_relative,
            self.mean_fidelity,
            self.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(design: Design, makespan: i64, fidelity: f64) -> ExecutionReport {
        ExecutionReport {
            design,
            makespan: Tick::new(makespan),
            ideal_makespan: Tick::new(100),
            fidelity: Fidelity::new(fidelity),
            local_fidelity: Fidelity::new(fidelity),
            remote_fidelity: Fidelity::PERFECT,
            idle_fidelity: Fidelity::PERFECT,
            remote_gates: 5,
            service_stats: None,
            mean_link_wait: 10.0,
            variant_counts: (0, 0, 0),
        }
    }

    #[test]
    fn relative_depth_ratio() {
        let r = report(Design::SyncBuf, 250, 0.9);
        assert!((r.depth_relative_to_ideal() - 2.5).abs() < 1e-12);
        assert!((r.depth_cnot_units() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn averaging_means() {
        let runs = vec![
            report(Design::SyncBuf, 200, 0.8),
            report(Design::SyncBuf, 400, 0.6),
        ];
        let avg = AveragedReport::from_runs(&runs);
        assert_eq!(avg.runs, 2);
        assert!((avg.mean_depth - 30.0).abs() < 1e-12);
        assert!((avg.mean_fidelity - 0.7).abs() < 1e-12);
        assert!((avg.mean_depth_relative - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "across designs")]
    fn averaging_rejects_mixed_designs() {
        let _ = AveragedReport::from_runs(&[
            report(Design::SyncBuf, 200, 0.8),
            report(Design::AsyncBuf, 200, 0.8),
        ]);
    }

    #[test]
    fn execution_report_json_round_trips() {
        let mut r = report(Design::AdaptBuf, 321, 0.875);
        r.variant_counts = (1, 2, 3);
        assert_eq!(ExecutionReport::from_json(&r.to_json()).unwrap(), r);

        r.service_stats = Some(ServiceStats {
            attempts: 100,
            successes: 40,
            consumed: 38,
            wasted: 2,
            preinitialized: 10,
            total_consumed_age: Tick::new(950),
            peak_buffered: 7,
        });
        let json = r.to_json();
        assert_eq!(ExecutionReport::from_json(&json).unwrap(), r);
        // And through actual text, not just the tree.
        let reparsed = dqc_types::Json::parse(&json.to_pretty_string()).unwrap();
        assert_eq!(ExecutionReport::from_json(&reparsed).unwrap(), r);
    }

    #[test]
    fn averaged_report_json_round_trips() {
        let avg = AveragedReport::from_runs(&[
            report(Design::SyncBuf, 200, 0.8),
            report(Design::SyncBuf, 400, 0.6),
        ]);
        let json = avg.to_json();
        assert_eq!(AveragedReport::from_json(&json).unwrap(), avg);
        let reparsed = dqc_types::Json::parse(&json.to_compact_string()).unwrap();
        assert_eq!(AveragedReport::from_json(&reparsed).unwrap(), avg);
    }

    #[test]
    fn report_from_json_rejects_bad_documents() {
        let good = report(Design::Ideal, 100, 0.5).to_json();
        let mut missing = good.clone();
        if let dqc_types::Json::Object(members) = &mut missing {
            members.retain(|(k, _)| k != "fidelity");
        }
        assert!(ExecutionReport::from_json(&missing).is_err());

        let mut bad_design = good;
        if let dqc_types::Json::Object(members) = &mut bad_design {
            for (k, v) in members.iter_mut() {
                if k == "design" {
                    *v = dqc_types::Json::from("warp_drive");
                }
            }
        }
        let err = ExecutionReport::from_json(&bad_design).unwrap_err();
        assert!(err.to_string().contains("warp_drive"));
    }

    #[test]
    fn display_is_informative() {
        let text = report(Design::AdaptBuf, 300, 0.75).to_string();
        assert!(text.contains("adapt_buf"));
        assert!(text.contains("30.0"));
    }
}
