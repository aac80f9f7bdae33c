//! The paper's co-design loop as a search API.
//!
//! The headline contribution of *Hardware-Software Co-design for
//! Distributed Quantum Computing* is not any single buffering design but
//! the *loop* that jointly tunes hardware provisioning (EPR fidelity,
//! communication/buffer qubit counts, network topology) against the
//! buffering design. This crate turns that loop into an API:
//!
//! * [`Codesign`] — a builder pairing a benchmark circuit with a typed
//!   [`DesignSpace`], a [`SearchStrategy`] (exhaustive grid or seeded
//!   random sampling), and a [`CostModel`];
//! * [`CostModel`] — prices the hardware side of every point
//!   (comm/buffer qubit count, sustained EPR rate demand, link quality);
//! * [`pareto_frontier`] — extracts the non-dominated set over
//!   ([`Objectives::fidelity`] ↑, [`Objectives::depth_relative`] ↓,
//!   [`Objectives::hardware_cost`] ↓);
//! * [`CodesignResult`] — every evaluated candidate plus the frontier,
//!   serializable through the workspace JSON layer.
//!
//! # Examples
//!
//! ```
//! use dqc_codesign::Codesign;
//! use dqc_core::{Design, DesignSpace, SystemConfig};
//! use dqc_workloads::PaperBenchmark;
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let space = DesignSpace::new(SystemConfig::paper_two_node_32())
//!     .comm_and_buffer(&[5, 10])
//!     .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
//! let result = Codesign::benchmark(PaperBenchmark::Tlim32, space)
//!     .runs(2)
//!     .run()?;
//! assert_eq!(result.candidates.len(), 4);
//! assert!(!result.frontier.is_empty());
//! // Frontier candidates are mutually non-dominated.
//! for a in result.frontier_candidates() {
//!     for b in result.frontier_candidates() {
//!         assert!(!a.objectives.dominates(&b.objectives));
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod pareto;
mod search;

pub use cost::CostModel;
pub use pareto::{pareto_frontier, Objectives};
pub use search::SearchStrategy;

use dqc_circuit::Circuit;
use dqc_core::{AveragedReport, CompiledCircuit, DesignSpace, DqcError, ScenarioKey};
use dqc_types::{Json, JsonError};

/// One evaluated design point: its structured identity, its objective
/// vector, and the full averaged report behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Structured identity of the scenario.
    pub key: ScenarioKey,
    /// Flat index of the point in the searched [`DesignSpace`].
    pub point_index: usize,
    /// The three co-design objectives.
    pub objectives: Objectives,
    /// The averaged simulation report the objectives were read from.
    pub report: AveragedReport,
}

impl Candidate {
    /// Serializes the candidate for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", self.key.to_json()),
            ("point_index", Json::from(self.point_index)),
            ("objectives", self.objectives.to_json()),
            ("report", self.report.to_json()),
        ])
    }

    /// Reads a candidate back from [`Candidate::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            key: ScenarioKey::from_json(json.field("key")?)?,
            point_index: json.usize_field("point_index")?,
            objectives: Objectives::from_json(json.field("objectives")?)?,
            report: AveragedReport::from_json(json.field("report")?)?,
        })
    }
}

/// The outcome of one co-design search: every evaluated candidate (in
/// point order) and the indices of the Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignResult {
    /// Label of the benchmark the search evaluated.
    pub circuit: String,
    /// The strategy that selected the evaluated points.
    pub strategy: SearchStrategy,
    /// The cost model that priced the hardware objective.
    pub cost_model: CostModel,
    /// Every evaluated point, ascending by `point_index`.
    pub candidates: Vec<Candidate>,
    /// Indices into [`CodesignResult::candidates`] of the non-dominated
    /// points, ascending.
    pub frontier: Vec<usize>,
    /// `CompiledCircuit`s built: one per distinct hardware configuration.
    pub compilations: usize,
    /// Points the static analyzer proved infeasible and the search never
    /// evaluated (budget returned to the caller for free).
    pub pruned: usize,
}

impl CodesignResult {
    /// The frontier candidates, in candidate order.
    pub fn frontier_candidates(&self) -> Vec<&Candidate> {
        self.frontier.iter().map(|&i| &self.candidates[i]).collect()
    }

    /// Whether the frontier contains a candidate with exactly this key.
    pub fn frontier_contains(&self, key: &ScenarioKey) -> bool {
        self.frontier_candidates().iter().any(|c| c.key == *key)
    }

    /// The frontier candidate with the highest fidelity (ties broken by
    /// candidate order), if the frontier is non-empty — a simple
    /// "recommended operating point" accessor for consumers that need a
    /// single answer rather than the whole frontier.
    pub fn best_fidelity(&self) -> Option<&Candidate> {
        self.frontier_candidates().into_iter().max_by(|a, b| {
            a.objectives
                .fidelity
                .partial_cmp(&b.objectives.fidelity)
                .expect("engine fidelities are finite")
        })
    }

    /// Serializes the result for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("circuit", Json::from(self.circuit.as_str())),
            ("strategy", self.strategy.to_json()),
            ("cost_model", self.cost_model.to_json()),
            (
                "candidates",
                Json::Array(self.candidates.iter().map(Candidate::to_json).collect()),
            ),
            (
                "frontier",
                Json::Array(self.frontier.iter().map(|&i| Json::from(i)).collect()),
            ),
            ("compilations", Json::from(self.compilations)),
            ("pruned", Json::from(self.pruned)),
        ])
    }

    /// Reads a result back from [`CodesignResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field, or when a
    /// frontier index does not point into the candidate list (frontier
    /// accessors index candidates directly, so a malformed document must
    /// be rejected here rather than panic later).
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let candidates: Vec<Candidate> = json
            .array_field("candidates")?
            .iter()
            .map(Candidate::from_json)
            .collect::<Result<_, _>>()?;
        let frontier: Vec<usize> = json
            .array_field("frontier")?
            .iter()
            .map(|v| {
                v.as_i64()
                    .and_then(|i| usize::try_from(i).ok())
                    .filter(|&i| i < candidates.len())
                    .ok_or_else(|| {
                        JsonError::schema(format!(
                            "field `frontier`: expected indices below {}",
                            candidates.len()
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            circuit: json.str_field("circuit")?.to_string(),
            strategy: SearchStrategy::from_json(json.field("strategy")?)?,
            cost_model: CostModel::from_json(json.field("cost_model")?)?,
            candidates,
            frontier,
            compilations: json.usize_field("compilations")?,
            pruned: json.usize_field("pruned")?,
        })
    }
}

/// A configured co-design search: one benchmark, one typed design space,
/// one strategy, one cost model.
///
/// The search selects its points, drops those the static analyzer proves
/// infeasible, evaluates the rest with one [`DesignSpace::evaluate`] call
/// (points differing only in the design axis share a compilation), prices
/// each point's hardware, and extracts the Pareto frontier over
/// (fidelity ↑, relative depth ↓, hardware cost ↓).
#[derive(Debug, Clone)]
pub struct Codesign {
    circuit_label: String,
    circuit: Circuit,
    space: DesignSpace,
    strategy: SearchStrategy,
    cost_model: CostModel,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl Codesign {
    /// Starts a search of `space` on a labelled circuit, with the
    /// defaults: exhaustive strategy, default cost model, one run per
    /// point, base seed 0, machine-chosen parallelism.
    pub fn new(label: impl Into<String>, circuit: Circuit, space: DesignSpace) -> Self {
        Self {
            circuit_label: label.into(),
            circuit,
            space,
            strategy: SearchStrategy::Exhaustive,
            cost_model: CostModel::default(),
            runs: 1,
            base_seed: 0,
            threads: 0,
        }
    }

    /// Starts a search on a paper benchmark (label = paper name).
    pub fn benchmark(bench: dqc_workloads::PaperBenchmark, space: DesignSpace) -> Self {
        Self::new(bench.to_string(), bench.circuit(), space)
    }

    /// Sets the search strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the hardware cost model.
    #[must_use]
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Sets the seeded runs averaged per point.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base simulation seed (independent of any sampling seed).
    #[must_use]
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Caps the worker thread count (0 = available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Executes the search.
    ///
    /// # Errors
    ///
    /// Propagates every [`DqcError`] of [`DesignSpace::evaluate`]:
    /// invalid space declarations, zero runs, empty selections, and
    /// engine failures. When the static prefilter prunes every selected
    /// point, returns the first [`CompiledCircuit::refusals`] entry of the
    /// first pruned point — the error compiling that point gives.
    pub fn run(&self) -> Result<CodesignResult, DqcError> {
        self.space.validate()?;
        let mut indices = self.strategy.select(self.space.len());
        // Static prefilter: points the analyzer proves can never compile
        // (width, broken topology) are dropped
        // before they consume replay budget. Warnings never prune.
        let infeasible = dqc_analyze::Analyzer::new().infeasible_points(
            &self.space,
            &self.circuit_label,
            &self.circuit,
            &indices,
        );
        let pruned = infeasible.len();
        if let Some(&(first, _)) = infeasible.first() {
            let dropped: std::collections::BTreeSet<usize> =
                infeasible.into_iter().map(|(index, _)| index).collect();
            indices.retain(|index| !dropped.contains(index));
            if indices.is_empty() {
                let config = self.space.realize(&self.space.point(first)?).config;
                if let Some(refusal) = CompiledCircuit::refusals(&self.circuit, &config)
                    .into_iter()
                    .next()
                {
                    return Err(refusal);
                }
            }
        }
        let (reports, compilations) = self.space.evaluate(
            &self.circuit,
            &indices,
            self.runs,
            self.base_seed,
            self.threads,
        )?;
        let mut candidates = Vec::with_capacity(reports.len());
        for (point_index, report) in indices.into_iter().zip(reports) {
            let point = self.space.point(point_index)?;
            let scenario = self.space.realize(&point);
            candidates.push(Candidate {
                objectives: Objectives {
                    fidelity: report.mean_fidelity,
                    depth_relative: report.mean_depth_relative,
                    hardware_cost: self.cost_model.cost(&scenario.config),
                },
                key: ScenarioKey {
                    circuit: self.circuit_label.clone(),
                    values: point.values,
                },
                point_index,
                report,
            });
        }
        let objectives: Vec<Objectives> = candidates.iter().map(|c| c.objectives).collect();
        let frontier = pareto_frontier(&objectives);
        Ok(CodesignResult {
            circuit: self.circuit_label.clone(),
            strategy: self.strategy,
            cost_model: self.cost_model,
            candidates,
            frontier,
            compilations,
            pruned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::{AxisValue, Design, SystemConfig};
    use dqc_workloads::PaperBenchmark;

    fn small_space() -> DesignSpace {
        DesignSpace::new(SystemConfig::paper_two_node_32())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::Original, Design::AsyncBuf, Design::AdaptBuf])
    }

    fn small_search() -> Codesign {
        Codesign::benchmark(PaperBenchmark::Tlim32, small_space())
            .runs(2)
            .base_seed(11)
    }

    #[test]
    fn frontier_invariants_hold_on_a_real_search() {
        let result = small_search().run().unwrap();
        assert_eq!(result.candidates.len(), 6);
        assert!(!result.frontier.is_empty());
        // Mutual non-domination on the frontier.
        for a in result.frontier_candidates() {
            for b in result.frontier_candidates() {
                assert!(
                    !a.objectives.dominates(&b.objectives),
                    "{} dominates {}",
                    a.key,
                    b.key
                );
            }
        }
        // Every excluded point is dominated by some frontier point, and
        // no frontier point is dominated by anything.
        for (i, c) in result.candidates.iter().enumerate() {
            let dominated = result
                .candidates
                .iter()
                .any(|other| other.objectives.dominates(&c.objectives));
            assert_eq!(
                !result.frontier.contains(&i),
                dominated,
                "{}: frontier membership must equal non-domination",
                c.key
            );
        }
    }

    #[test]
    fn grid_and_full_random_search_agree_on_the_frontier() {
        let grid = small_search().run().unwrap();
        let sampled = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 6, // covers the whole 6-point space
                seed: 303,
            })
            .run()
            .unwrap();
        assert_eq!(grid.candidates.len(), sampled.candidates.len());
        assert_eq!(grid.frontier, sampled.frontier);
        for (g, s) in grid.candidates.iter().zip(&sampled.candidates) {
            assert_eq!(g.key, s.key);
            assert_eq!(g.objectives, s.objectives);
            assert_eq!(g.report, s.report);
        }
    }

    #[test]
    fn random_subsample_frontier_is_within_the_grid_frontier_geometry() {
        // A sampled search sees fewer points, so its frontier can only
        // contain points that are non-dominated among the sample — every
        // sampled frontier key must be either on the full frontier or
        // dominated in the grid only by points the sample never saw.
        let grid = small_search().run().unwrap();
        let sampled = small_search()
            .strategy(SearchStrategy::RandomSample {
                samples: 4,
                seed: 7,
            })
            .run()
            .unwrap();
        assert_eq!(sampled.candidates.len(), 4);
        let sampled_points: Vec<usize> = sampled.candidates.iter().map(|c| c.point_index).collect();
        for c in sampled.frontier_candidates() {
            if grid.frontier_contains(&c.key) {
                continue;
            }
            // Not on the full frontier: every grid candidate dominating
            // it must lie outside the sample, or the sampled search
            // wrongly kept a dominated point.
            let dominators: Vec<&Candidate> = grid
                .candidates
                .iter()
                .filter(|g| g.objectives.dominates(&c.objectives))
                .collect();
            assert!(
                !dominators.is_empty(),
                "{}: off-frontier yet undominated",
                c.key
            );
            for d in dominators {
                assert!(
                    !sampled_points.contains(&d.point_index),
                    "{} kept on the sampled frontier despite sampled dominator {}",
                    c.key,
                    d.key
                );
            }
        }
    }

    #[test]
    fn software_points_share_hardware_compilations() {
        let result = small_search().run().unwrap();
        // 2 hardware points (comm 5, 10) × 3 designs → 2 compilations.
        assert_eq!(result.compilations, 2);
    }

    #[test]
    fn dominated_rich_hardware_is_priced_off_the_frontier() {
        // Identical performance axes (single design), richer hardware
        // strictly dominated on cost when performance does not improve:
        // TLIM-32 has only 10 remote gates, so going from 10 to 20
        // comm/buffer qubits cannot buy much — the expensive point should
        // not beat the paper point on every objective.
        let result = Codesign::benchmark(
            PaperBenchmark::Tlim32,
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .comm_and_buffer(&[10, 20])
                .designs(&[Design::AdaptBuf]),
        )
        .runs(2)
        .run()
        .unwrap();
        let cheap = &result.candidates[0];
        let rich = &result.candidates[1];
        assert!(rich.objectives.hardware_cost > cheap.objectives.hardware_cost);
        assert!(
            !rich.objectives.dominates(&cheap.objectives),
            "richer hardware cannot dominate once cost is priced"
        );
        assert!(result.frontier.contains(&0));
    }

    #[test]
    fn result_json_round_trips_through_text() {
        let result = small_search().run().unwrap();
        let text = result.to_json().to_pretty_string();
        let back = CodesignResult::from_json(&dqc_types::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        assert!(back
            .frontier_candidates()
            .iter()
            .all(|c| c.key.design().is_some()));
    }

    #[test]
    fn from_json_rejects_out_of_range_frontier_indices() {
        // A truncated or hand-edited document whose frontier points past
        // the candidate list must fail parsing, not panic in accessors.
        let mut doc = small_search().run().unwrap().to_json();
        if let dqc_types::Json::Object(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "frontier" {
                    *v = dqc_types::Json::Array(vec![dqc_types::Json::Int(99)]);
                }
            }
        }
        let err = CodesignResult::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("frontier"), "{err}");
    }

    #[test]
    fn statically_infeasible_points_are_pruned_before_evaluation() {
        // With 8 data qubits per node, QFT-32 fits four nodes but not
        // two, so the two-node point can never compile (DQC-E001): the
        // prefilter must drop it without touching the engine, and the
        // surviving point's evaluation must be exactly what a search
        // without the doomed axis value produces.
        use dqc_entanglement::TopologyFamily;
        use dqc_types::AxisId;
        let mut base = SystemConfig::paper_two_node_32();
        base.data_qubits_per_node = 8;
        let search = |families: &[TopologyFamily]| {
            Codesign::benchmark(
                PaperBenchmark::Qft32,
                DesignSpace::new(base.clone())
                    .topologies(families)
                    .designs(&[Design::AsyncBuf]),
            )
            .base_seed(11)
            .run()
            .unwrap()
        };
        let four = TopologyFamily::Chain { nodes: 4 };
        let mixed = search(&[four, TopologyFamily::Chain { nodes: 2 }]);
        assert_eq!(mixed.pruned, 1);
        assert_eq!(mixed.candidates.len(), 1);
        assert_eq!(mixed.compilations, 1);
        assert_eq!(
            mixed.candidates[0].key.get(AxisId::Topology),
            Some(&AxisValue::Topology(four))
        );
        let clean = search(&[four]);
        assert_eq!(clean.pruned, 0);
        assert_eq!(mixed.candidates[0].key, clean.candidates[0].key);
        assert_eq!(mixed.candidates[0].report, clean.candidates[0].report);
        assert_eq!(
            mixed.candidates[0].objectives,
            clean.candidates[0].objectives
        );
        assert_eq!(mixed.frontier, clean.frontier);
    }

    #[test]
    fn a_search_that_prunes_every_point_names_the_refusal() {
        // Every point is too narrow for QFT-64: the search fails with the
        // error compiling the first point gives, not an empty sweep.
        let err = Codesign::new(
            "qft-64",
            dqc_workloads::qft(64),
            DesignSpace::new(SystemConfig::paper_two_node_32())
                .comm_and_buffer(&[5, 10])
                .designs(&[Design::AsyncBuf]),
        )
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            DqcError::CircuitTooWide {
                qubits: 64,
                capacity: 32
            }
        );
    }

    #[test]
    fn frontier_contains_matches_exact_keys() {
        let result = small_search().run().unwrap();
        let on = result.frontier_candidates()[0].key.clone();
        assert!(result.frontier_contains(&on));
        let off = ScenarioKey {
            circuit: "nope".to_string(),
            values: vec![AxisValue::CommAndBuffer(5)],
        };
        assert!(!result.frontier_contains(&off));
        assert!(result.best_fidelity().is_some());
    }
}
