//! The typed co-design space and its sweep runner.
//!
//! A [`DesignSpace`] is a base [`SystemConfig`] plus a list of typed
//! [`Axis`] declarations — the cartesian product of their candidate
//! values is the set of *design points* the paper's co-design loop
//! searches. [`DesignSpace::realize`] turns a point into a concrete
//! [`Scenario`] (configuration + design); [`SpaceSweep`] evaluates points
//! against benchmarks through the same compile-once, thread-parallel
//! engine as [`crate::Sweep`], keying every result by a structured
//! [`ScenarioKey`] instead of free-form string labels.
//!
//! # Examples
//!
//! ```
//! use dqc_core::{Design, DesignSpace, SystemConfig};
//! use dqc_workloads::PaperBenchmark;
//!
//! # fn main() -> Result<(), dqc_core::DqcError> {
//! let space = DesignSpace::new(SystemConfig::paper_two_node_32())
//!     .comm_and_buffer(&[5, 10])
//!     .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
//! assert_eq!(space.len(), 4);
//!
//! let result = space
//!     .sweep()
//!     .benchmark(PaperBenchmark::Tlim32)
//!     .runs(2)
//!     .run()?;
//! assert_eq!(result.cells.len(), 4);
//! assert_eq!(result.compilations, 2); // one per circuit × hardware point
//! # Ok(())
//! # }
//! ```

use crate::grid::GridPlan;
use crate::{
    AveragedReport, Axis, AxisValue, Design, DqcError, PartitionStrategy, RemoteProtocol,
    ScenarioKey, SystemConfig,
};
use dqc_circuit::Circuit;
use dqc_entanglement::TopologyFamily;
use dqc_types::{AxisId, Json, JsonError, Tick};

/// A typed hardware/software design space: a base configuration plus the
/// axes being searched over.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    base: SystemConfig,
    axes: Vec<Axis>,
}

/// One point of a [`DesignSpace`]: its flat index plus the typed
/// coordinate on every axis, in axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Flat index in `0 .. space.len()`, row-major (first axis slowest).
    pub index: usize,
    /// One coordinate per axis, in axis order.
    pub values: Vec<AxisValue>,
}

/// A realized design point: the concrete system configuration and the
/// software design to execute on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The fully applied system configuration (hardware point).
    pub config: SystemConfig,
    /// The architecture design to run ([`Design::AdaptBuf`] — the paper's
    /// proposal — when the space has no design axis).
    pub design: Design,
}

impl DesignSpace {
    /// Starts a space around `base` with no axes — a single-point space
    /// evaluating `base` itself.
    pub fn new(base: SystemConfig) -> Self {
        Self {
            base,
            axes: Vec::new(),
        }
    }

    /// The base configuration every point is derived from.
    pub fn base(&self) -> &SystemConfig {
        &self.base
    }

    /// The declared axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Adds one typed axis.
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Adds an initial-EPR-fidelity axis.
    #[must_use]
    pub fn epr_fidelities(self, values: &[f64]) -> Self {
        self.axis(Axis::EprFidelity(values.to_vec()))
    }

    /// Adds a κ-per-tick axis.
    #[must_use]
    pub fn kappas(self, values: &[f64]) -> Self {
        self.axis(Axis::Kappa(values.to_vec()))
    }

    /// Adds an EPR-attempt-cycle latency axis.
    #[must_use]
    pub fn epr_cycles(self, values: &[Tick]) -> Self {
        self.axis(Axis::EprCycle(values.to_vec()))
    }

    /// Adds a communication-qubits-per-node axis.
    #[must_use]
    pub fn comm_qubits(self, values: &[usize]) -> Self {
        self.axis(Axis::CommQubits(values.to_vec()))
    }

    /// Adds a buffer-qubits-per-node axis.
    #[must_use]
    pub fn buffer_qubits(self, values: &[usize]) -> Self {
        self.axis(Axis::BufferQubits(values.to_vec()))
    }

    /// Adds a linked communication+buffer axis (both counts set to the
    /// same value — the paper's Fig. 7 convention).
    #[must_use]
    pub fn comm_and_buffer(self, values: &[usize]) -> Self {
        self.axis(Axis::CommAndBuffer(values.to_vec()))
    }

    /// Adds a network-topology axis.
    #[must_use]
    pub fn topologies(self, values: &[TopologyFamily]) -> Self {
        self.axis(Axis::Topology(values.to_vec()))
    }

    /// Adds an architecture-design axis.
    #[must_use]
    pub fn designs(self, values: &[Design]) -> Self {
        self.axis(Axis::Design(values.to_vec()))
    }

    /// Adds a remote-gate-protocol axis.
    #[must_use]
    pub fn protocols(self, values: &[RemoteProtocol]) -> Self {
        self.axis(Axis::Protocol(values.to_vec()))
    }

    /// Adds a partitioner axis.
    #[must_use]
    pub fn partitioners(self, values: &[PartitionStrategy]) -> Self {
        self.axis(Axis::Partitioner(values.to_vec()))
    }

    /// Number of points: the product of the axis lengths (1 for an
    /// axis-free space, 0 when any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the space contains no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the declaration for empty axes, duplicate axis ids, and
    /// axes that set the same underlying knob (the linked
    /// `comm_and_buffer` axis conflicts with `comm_qubits` and
    /// `buffer_qubits` — combining them would let one coordinate
    /// silently overwrite the other, leaving scenario keys that
    /// misdescribe the realized configuration).
    ///
    /// # Errors
    ///
    /// [`DqcError::EmptySweep`] naming the empty axis,
    /// [`DqcError::DuplicateAxis`] naming the repeated one, or
    /// [`DqcError::ConflictingAxes`] naming the overlapping pair.
    pub fn validate(&self) -> Result<(), DqcError> {
        let conflicts = |a: AxisId, b: AxisId| {
            a == AxisId::CommAndBuffer && matches!(b, AxisId::CommQubits | AxisId::BufferQubits)
        };
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return Err(DqcError::EmptySweep {
                    axis: axis.id().name(),
                });
            }
            for prior in &self.axes[..i] {
                if prior.id() == axis.id() {
                    return Err(DqcError::DuplicateAxis {
                        axis: axis.id().name(),
                    });
                }
                if conflicts(prior.id(), axis.id()) || conflicts(axis.id(), prior.id()) {
                    return Err(DqcError::ConflictingAxes {
                        first: prior.id().name(),
                        second: axis.id().name(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Decodes the point at `index` (row-major: the first axis varies
    /// slowest).
    ///
    /// # Errors
    ///
    /// [`DqcError::PointOutOfRange`] when `index >= self.len()`.
    pub fn point(&self, index: usize) -> Result<DesignPoint, DqcError> {
        let len = self.len();
        if index >= len {
            return Err(DqcError::PointOutOfRange { index, len });
        }
        let mut values = vec![None; self.axes.len()];
        let mut rest = index;
        for (slot, axis) in values.iter_mut().zip(&self.axes).rev() {
            *slot = Some(axis.value(rest % axis.len()));
            rest /= axis.len();
        }
        Ok(DesignPoint {
            index,
            values: values.into_iter().map(Option::unwrap).collect(),
        })
    }

    /// Iterates every point in index order.
    pub fn points(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len()).map(|i| self.point(i).expect("index bounded by len"))
    }

    /// Applies a point's coordinates to the base configuration.
    pub fn realize(&self, point: &DesignPoint) -> Scenario {
        let mut config = self.base.clone();
        let mut design = Design::AdaptBuf;
        for value in &point.values {
            match *value {
                AxisValue::EprFidelity(f) => config.fidelities.epr = f,
                AxisValue::Kappa(k) => config.kappa_per_tick = k,
                AxisValue::EprCycle(t) => config.latencies.epr_cycle = t,
                AxisValue::CommQubits(n) => config.comm_qubits_per_node = n,
                AxisValue::BufferQubits(n) => config.buffer_qubits_per_node = n,
                AxisValue::CommAndBuffer(n) => {
                    config.comm_qubits_per_node = n;
                    config.buffer_qubits_per_node = n;
                }
                AxisValue::Topology(family) => config = config.with_topology(family.build()),
                AxisValue::Design(d) => design = d,
                AxisValue::Protocol(p) => config.remote_protocol = p,
                AxisValue::Partitioner(s) => config.partitioner = s,
            }
        }
        Scenario { config, design }
    }

    /// The structured identity of `point` evaluated on `circuit`.
    pub fn key(&self, circuit: &str, point: &DesignPoint) -> ScenarioKey {
        ScenarioKey {
            circuit: circuit.to_string(),
            values: point.values.clone(),
        }
    }

    /// Starts a sweep over this space.
    pub fn sweep(&self) -> SpaceSweep {
        SpaceSweep::new(self.clone())
    }
}

/// One completed cell of a design-space sweep.
#[derive(Debug, Clone)]
pub struct SpaceCell {
    /// Structured identity of the scenario.
    pub key: ScenarioKey,
    /// Flat index of the design point in its space.
    pub point_index: usize,
    /// The averaged result over the cell's seed range.
    pub report: AveragedReport,
}

/// Results of a completed design-space sweep, in (circuit, point) order.
#[derive(Debug, Clone)]
pub struct SpaceResult {
    /// One cell per (circuit, evaluated point), circuit-major.
    pub cells: Vec<SpaceCell>,
    /// `CompiledCircuit`s built: one per circuit × distinct realized
    /// hardware configuration.
    pub compilations: usize,
}

impl SpaceCell {
    /// Serializes the cell for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", self.key.to_json()),
            ("point_index", Json::from(self.point_index)),
            ("report", self.report.to_json()),
        ])
    }

    /// Reads a cell back from [`SpaceCell::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            key: ScenarioKey::from_json(json.field("key")?)?,
            point_index: json.usize_field("point_index")?,
            report: AveragedReport::from_json(json.field("report")?)?,
        })
    }
}

impl SpaceResult {
    /// Serializes the full result for the machine-readable pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("compilations", Json::from(self.compilations)),
            (
                "cells",
                Json::Array(self.cells.iter().map(SpaceCell::to_json).collect()),
            ),
        ])
    }

    /// Reads a result back from [`SpaceResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            compilations: json.usize_field("compilations")?,
            cells: json
                .array_field("cells")?
                .iter()
                .map(SpaceCell::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Looks up one circuit × point cell.
    pub fn cell(&self, circuit: &str, point_index: usize) -> Option<&SpaceCell> {
        self.cells
            .iter()
            .find(|c| c.key.circuit == circuit && c.point_index == point_index)
    }
}

/// A design-space sweep: benchmarks × (a subset of) the space's points,
/// executed by the shared compile-once, thread-parallel grid engine.
///
/// Circuits are compiled once per distinct realized [`SystemConfig`] —
/// points that differ only in the design axis (a pure runtime choice)
/// share one compilation. Protocol and partitioner values are part of
/// the configuration the circuit is compiled for, so they do not share.
#[derive(Debug, Clone)]
pub struct SpaceSweep {
    space: DesignSpace,
    circuits: Vec<(String, Circuit)>,
    subset: Option<Vec<usize>>,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl SpaceSweep {
    /// Starts a sweep over `space` with no circuits, one run per cell,
    /// base seed 0, and machine-chosen parallelism.
    pub fn new(space: DesignSpace) -> Self {
        Self {
            space,
            circuits: Vec::new(),
            subset: None,
            runs: 1,
            base_seed: 0,
            threads: 0,
        }
    }

    /// Adds a labelled circuit to the benchmark axis.
    #[must_use]
    pub fn circuit(mut self, label: impl Into<String>, circuit: Circuit) -> Self {
        self.circuits.push((label.into(), circuit));
        self
    }

    /// Adds a paper benchmark (label = paper name).
    #[must_use]
    pub fn benchmark(self, bench: dqc_workloads::PaperBenchmark) -> Self {
        self.circuit(bench.to_string(), bench.circuit())
    }

    /// Adds several paper benchmarks.
    #[must_use]
    pub fn benchmarks(
        mut self,
        benches: impl IntoIterator<Item = dqc_workloads::PaperBenchmark>,
    ) -> Self {
        for b in benches {
            self = self.benchmark(b);
        }
        self
    }

    /// Restricts the sweep to the given point indices (the hook used by
    /// sampling search strategies). `None` — the default — evaluates
    /// every point.
    #[must_use]
    pub fn subset(mut self, indices: Vec<usize>) -> Self {
        self.subset = Some(indices);
        self
    }

    /// Sets the seeded runs averaged per cell.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed; every cell runs seeds
    /// `base_seed .. base_seed + runs`.
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

    /// Executes the sweep: realize every selected point, compile each
    /// circuit once per distinct hardware configuration, run all cells in
    /// parallel, and collect results in (circuit, point) order.
    ///
    /// # Errors
    ///
    /// [`DqcError::EmptySweep`] when there are no circuits, no axes with
    /// values, or an empty subset; [`DqcError::DuplicateAxis`] on a
    /// repeated axis; [`DqcError::PointOutOfRange`] on a bad subset
    /// index; [`DqcError::ZeroRuns`] when `runs == 0`; otherwise the
    /// first engine error in grid order.
    pub fn run(&self) -> Result<SpaceResult, DqcError> {
        self.space.validate()?;
        if self.circuits.is_empty() {
            return Err(DqcError::EmptySweep { axis: "circuits" });
        }
        if self.runs == 0 {
            return Err(DqcError::ZeroRuns);
        }
        let indices: Vec<usize> = match &self.subset {
            Some(subset) => subset.clone(),
            None => (0..self.space.len()).collect(),
        };
        if indices.is_empty() {
            return Err(DqcError::EmptySweep { axis: "points" });
        }

        // Realize every selected point, deduplicating realized
        // configurations so design-axis neighbours share a compilation.
        let mut scenarios: Vec<(DesignPoint, Scenario, usize)> = Vec::with_capacity(indices.len());
        let mut configs: Vec<SystemConfig> = Vec::new();
        for &index in &indices {
            let point = self.space.point(index)?;
            let scenario = self.space.realize(&point);
            let config_idx = match configs.iter().position(|c| *c == scenario.config) {
                Some(i) => i,
                None => {
                    configs.push(scenario.config.clone());
                    configs.len() - 1
                }
            };
            scenarios.push((point, scenario, config_idx));
        }

        // Compile pairs: circuit-major over the distinct configurations.
        let num_configs = configs.len();
        let pairs: Vec<(usize, usize)> = (0..self.circuits.len())
            .flat_map(|ci| (0..num_configs).map(move |ki| (ci, ki)))
            .collect();
        let cells: Vec<(usize, Design)> = (0..self.circuits.len())
            .flat_map(|ci| {
                scenarios.iter().map(move |(_, scenario, config_idx)| {
                    (ci * num_configs + config_idx, scenario.design)
                })
            })
            .collect();
        let plan = GridPlan {
            circuits: self.circuits.iter().map(|(_, c)| c).collect(),
            configs: configs.iter().collect(),
            pairs,
            cells,
            runs: self.runs,
            base_seed: self.base_seed,
            threads: self.threads,
        };
        let compilations = plan.pairs.len();
        let reports = plan.execute()?;

        let mut out = Vec::with_capacity(reports.len());
        let mut report_iter = reports.into_iter();
        for (label, _) in &self.circuits {
            for (point, _, _) in &scenarios {
                out.push(SpaceCell {
                    key: self.space.key(label, point),
                    point_index: point.index,
                    report: report_iter.next().expect("one report per cell"),
                });
            }
        }
        Ok(SpaceResult {
            cells: out,
            compilations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::PaperBenchmark;

    fn base() -> SystemConfig {
        SystemConfig::paper_two_node_32()
    }

    #[test]
    fn point_decoding_is_row_major() {
        let space = DesignSpace::new(base())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::Original, Design::AsyncBuf, Design::AdaptBuf]);
        assert_eq!(space.len(), 6);
        let p = space.point(4).unwrap();
        assert_eq!(
            p.values,
            vec![
                AxisValue::CommAndBuffer(10),
                AxisValue::Design(Design::AsyncBuf)
            ]
        );
        let all: Vec<usize> = space.points().map(|p| p.index).collect();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        assert_eq!(
            space.point(6).unwrap_err(),
            DqcError::PointOutOfRange { index: 6, len: 6 }
        );
    }

    #[test]
    fn axis_free_space_is_the_base_point() {
        let space = DesignSpace::new(base());
        assert_eq!(space.len(), 1);
        let scenario = space.realize(&space.point(0).unwrap());
        assert_eq!(scenario.config, base());
        assert_eq!(scenario.design, Design::AdaptBuf, "paper default");
    }

    #[test]
    fn realize_applies_every_axis_kind() {
        let space = DesignSpace::new(base())
            .epr_fidelities(&[0.95])
            .kappas(&[1e-3])
            .epr_cycles(&[Tick::new(200)])
            .comm_and_buffer(&[7])
            .topologies(&[TopologyFamily::Chain { nodes: 4 }])
            .designs(&[Design::SyncBuf])
            .protocols(&[RemoteProtocol::StateTeleport])
            .partitioners(&[PartitionStrategy::Unweighted]);
        let scenario = space.realize(&space.point(0).unwrap());
        assert_eq!(scenario.config.fidelities.epr, 0.95);
        assert_eq!(scenario.config.kappa_per_tick, 1e-3);
        assert_eq!(scenario.config.latencies.epr_cycle, Tick::new(200));
        assert_eq!(scenario.config.comm_qubits_per_node, 7);
        assert_eq!(scenario.config.buffer_qubits_per_node, 7);
        assert_eq!(scenario.config.num_nodes, 4);
        assert_eq!(
            scenario.config.remote_protocol,
            RemoteProtocol::StateTeleport
        );
        assert_eq!(scenario.config.partitioner, PartitionStrategy::Unweighted);
        assert_eq!(scenario.design, Design::SyncBuf);
    }

    #[test]
    fn validation_catches_empty_and_duplicate_axes() {
        let empty = DesignSpace::new(base()).designs(&[]);
        assert_eq!(
            empty.validate().unwrap_err(),
            DqcError::EmptySweep { axis: "design" }
        );
        let dup = DesignSpace::new(base())
            .comm_qubits(&[5])
            .comm_qubits(&[10]);
        assert_eq!(
            dup.validate().unwrap_err(),
            DqcError::DuplicateAxis {
                axis: "comm_qubits"
            }
        );
        // The linked comm+buffer axis overlaps either split axis: one
        // coordinate would silently overwrite the other at realize time.
        for conflicted in [
            DesignSpace::new(base())
                .comm_qubits(&[4, 8])
                .comm_and_buffer(&[10]),
            DesignSpace::new(base())
                .comm_and_buffer(&[10])
                .buffer_qubits(&[4]),
        ] {
            assert!(
                matches!(
                    conflicted.validate().unwrap_err(),
                    DqcError::ConflictingAxes { .. }
                ),
                "{conflicted:?}"
            );
        }
        // The split axes together are fine — they set different knobs.
        DesignSpace::new(base())
            .comm_qubits(&[4, 8])
            .buffer_qubits(&[4, 8])
            .validate()
            .unwrap();
    }

    #[test]
    fn software_only_axes_share_one_compilation() {
        let result = DesignSpace::new(base())
            .designs(&[Design::Original, Design::AsyncBuf, Design::AdaptBuf])
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .runs(2)
            .run()
            .unwrap();
        assert_eq!(result.cells.len(), 3);
        assert_eq!(result.compilations, 1, "one hardware point");
        for cell in &result.cells {
            assert_eq!(cell.key.circuit, "TLIM-32");
            assert_eq!(cell.key.design(), Some(cell.report.design));
        }
    }

    #[test]
    fn space_sweep_matches_string_sweep_bit_for_bit() {
        // The same grid expressed through the legacy string-labeled
        // builder and through the typed space must produce identical
        // averaged reports: both front ends reduce to the same engine.
        let designs = [Design::SyncBuf, Design::AdaptBuf];
        let typed = DesignSpace::new(base())
            .comm_and_buffer(&[10, 15])
            .designs(&designs)
            .sweep()
            .benchmark(PaperBenchmark::QaoaR4_32)
            .runs(2)
            .base_seed(7)
            .run()
            .unwrap();
        let stringly = crate::Sweep::new()
            .benchmark(PaperBenchmark::QaoaR4_32)
            .config("n10", base().with_comm_and_buffer(10))
            .config("n15", base().with_comm_and_buffer(15))
            .designs(&designs)
            .runs(2)
            .base_seed(7)
            .run()
            .unwrap();
        assert_eq!(typed.compilations, stringly.compilations);
        assert_eq!(typed.cells.len(), stringly.cells.len());
        // Typed order is point-major (comm outer, design inner) — the
        // same grid order as config-major × design in the string sweep.
        for (t, s) in typed.cells.iter().zip(&stringly.cells) {
            assert_eq!(t.report, s.report, "{}", t.key);
        }
    }

    #[test]
    fn subset_evaluates_only_selected_points() {
        let space = DesignSpace::new(base())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
        let full = space
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .runs(1)
            .run()
            .unwrap();
        let sub = space
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .subset(vec![1, 3])
            .runs(1)
            .run()
            .unwrap();
        assert_eq!(sub.cells.len(), 2);
        // Points 1 and 3 are (comm5, adapt) and (comm10, adapt): two
        // distinct hardware configs → two compilations.
        assert_eq!(sub.compilations, 2);
        assert_eq!(sub.cells[0].report, full.cell("TLIM-32", 1).unwrap().report);
        assert_eq!(sub.cells[1].report, full.cell("TLIM-32", 3).unwrap().report);
        let bad = space
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .subset(vec![9])
            .run()
            .unwrap_err();
        assert_eq!(bad, DqcError::PointOutOfRange { index: 9, len: 4 });
        let none = space
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .subset(vec![])
            .run()
            .unwrap_err();
        assert_eq!(none, DqcError::EmptySweep { axis: "points" });
    }

    #[test]
    fn space_result_json_round_trips() {
        let result = DesignSpace::new(base())
            .epr_fidelities(&[0.95, 0.99])
            .designs(&[Design::AsyncBuf])
            .sweep()
            .benchmark(PaperBenchmark::Tlim32)
            .runs(2)
            .run()
            .unwrap();
        let text = result.to_json().to_pretty_string();
        let back = SpaceResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.compilations, result.compilations);
        for (a, b) in result.cells.iter().zip(&back.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.point_index, b.point_index);
            assert_eq!(a.report, b.report);
        }
        let key = &result.cells[0].key;
        assert_eq!(
            key.get(AxisId::EprFidelity),
            Some(&AxisValue::EprFidelity(0.95))
        );
    }
}
