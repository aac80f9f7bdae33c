//! The typed co-design space and its evaluation call.
//!
//! A [`DesignSpace`] is a base [`SystemConfig`] plus a list of typed
//! [`Axis`] declarations — the cartesian product of their candidate
//! values is the set of *design points* the paper's co-design loop
//! searches. [`DesignSpace::realize`] turns a point into a concrete
//! [`Scenario`] (configuration + design); [`DesignSpace::evaluate`] runs
//! a list of points on one circuit through the same compile-once,
//! thread-parallel engine as [`crate::Sweep`], returning one averaged
//! report per point.
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
//! let circuit = PaperBenchmark::Tlim32.circuit();
//! let (reports, compilations) = space.evaluate(&circuit, &[0, 1, 2, 3], 2, 0, 0)?;
//! assert_eq!(reports.len(), 4);
//! assert_eq!(compilations, 2); // one per hardware point
//! # Ok(())
//! # }
//! ```

use crate::grid::GridPlan;
use crate::{AveragedReport, Axis, AxisValue, Design, DqcError, SystemConfig};
use dqc_circuit::Circuit;
use dqc_entanglement::TopologyFamily;

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

    /// The declared axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Adds one typed axis.
    fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Adds an initial-EPR-fidelity axis.
    #[must_use]
    pub fn epr_fidelities(self, values: &[f64]) -> Self {
        self.axis(Axis::EprFidelity(values.to_vec()))
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

    /// Number of points: the product of the axis lengths (1 for an
    /// axis-free space, 0 when any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the space contains no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the declaration for empty axes and duplicate axis ids (a
    /// repeated axis would give a point two coordinates for one knob).
    ///
    /// # Errors
    ///
    /// [`DqcError::EmptySweep`] naming the empty axis, or
    /// [`DqcError::DuplicateAxis`] naming the repeated one.
    pub fn validate(&self) -> Result<(), DqcError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return Err(DqcError::EmptySweep {
                    axis: axis.id().name(),
                });
            }
            if self.axes[..i].iter().any(|prior| prior.id() == axis.id()) {
                return Err(DqcError::DuplicateAxis {
                    axis: axis.id().name(),
                });
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
                AxisValue::CommAndBuffer(n) => {
                    config.comm_qubits_per_node = n;
                    config.buffer_qubits_per_node = n;
                }
                AxisValue::Topology(family) => config = config.with_topology(family.build()),
                AxisValue::Design(d) => design = d,
            }
        }
        Scenario { config, design }
    }

    /// Evaluates the points at `indices` on `circuit` through the shared
    /// compile-once, thread-parallel grid engine, averaging seeds
    /// `base_seed .. base_seed + runs` per point on at most `threads`
    /// workers (0 = available parallelism).
    ///
    /// Returns one report per index, in `indices` order, and the number
    /// of compilations: one per distinct realized [`SystemConfig`]. Points
    /// that differ only in the design axis (a pure runtime choice) share
    /// one compilation.
    ///
    /// # Errors
    ///
    /// In this order: the [`DesignSpace::validate`] errors;
    /// [`DqcError::ZeroRuns`] when `runs == 0`; [`DqcError::EmptySweep`]
    /// (`points`) when `indices` is empty; [`DqcError::PointOutOfRange`]
    /// on a bad index; otherwise the first engine error, compile errors
    /// before replay errors, each in index order.
    pub fn evaluate(
        &self,
        circuit: &Circuit,
        indices: &[usize],
        runs: usize,
        base_seed: u64,
        threads: usize,
    ) -> Result<(Vec<AveragedReport>, usize), DqcError> {
        self.validate()?;
        if runs == 0 {
            return Err(DqcError::ZeroRuns);
        }
        if indices.is_empty() {
            return Err(DqcError::EmptySweep { axis: "points" });
        }
        let mut configs: Vec<SystemConfig> = Vec::new();
        let mut cells = Vec::with_capacity(indices.len());
        for &index in indices {
            let Scenario { config, design } = self.realize(&self.point(index)?);
            let pair = match configs.iter().position(|c| *c == config) {
                Some(i) => i,
                None => {
                    configs.push(config);
                    configs.len() - 1
                }
            };
            cells.push((pair, design));
        }
        let plan = GridPlan {
            circuits: vec![circuit],
            configs: configs.iter().collect(),
            pairs: (0..configs.len()).map(|ki| (0, ki)).collect(),
            cells,
            runs,
            base_seed,
            threads,
        };
        Ok((plan.execute()?, plan.pairs.len()))
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
            .comm_and_buffer(&[7])
            .topologies(&[TopologyFamily::Chain { nodes: 4 }])
            .designs(&[Design::SyncBuf]);
        let scenario = space.realize(&space.point(0).unwrap());
        assert_eq!(scenario.config.fidelities.epr, 0.95);
        assert_eq!(scenario.config.comm_qubits_per_node, 7);
        assert_eq!(scenario.config.buffer_qubits_per_node, 7);
        assert_eq!(scenario.config.num_nodes, 4);
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
            .comm_and_buffer(&[5])
            .comm_and_buffer(&[10]);
        assert_eq!(
            dup.validate().unwrap_err(),
            DqcError::DuplicateAxis {
                axis: "comm_and_buffer"
            }
        );
    }

    #[test]
    fn software_only_axes_share_one_compilation() {
        let designs = [Design::Original, Design::AsyncBuf, Design::AdaptBuf];
        let (reports, compilations) = DesignSpace::new(base())
            .designs(&designs)
            .evaluate(&PaperBenchmark::Tlim32.circuit(), &[0, 1, 2], 2, 0, 0)
            .unwrap();
        assert_eq!(compilations, 1, "one hardware point");
        let evaluated: Vec<Design> = reports.iter().map(|r| r.design).collect();
        assert_eq!(evaluated, designs);
    }

    #[test]
    fn space_sweep_matches_string_sweep_bit_for_bit() {
        // The same grid expressed through the string-labeled builder and
        // through the typed space must produce identical averaged
        // reports: both front ends reduce to the same engine.
        let designs = [Design::SyncBuf, Design::AdaptBuf];
        let (typed, compilations) = DesignSpace::new(base())
            .comm_and_buffer(&[10, 15])
            .designs(&designs)
            .evaluate(&PaperBenchmark::QaoaR4_32.circuit(), &[0, 1, 2, 3], 2, 7, 0)
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
        assert_eq!(compilations, stringly.compilations);
        assert_eq!(typed.len(), stringly.cells.len());
        // Point order (comm outer, design inner) is the string sweep's
        // config-major × design grid order.
        for (t, s) in typed.iter().zip(&stringly.cells) {
            assert_eq!(*t, s.report, "{} {}", s.config, s.design);
        }
    }

    #[test]
    fn subset_evaluates_only_selected_points() {
        let space = DesignSpace::new(base())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::AsyncBuf, Design::AdaptBuf]);
        let circuit = PaperBenchmark::Tlim32.circuit();
        let (full, _) = space.evaluate(&circuit, &[0, 1, 2, 3], 1, 0, 0).unwrap();
        let (sub, compilations) = space.evaluate(&circuit, &[3, 1], 1, 0, 0).unwrap();
        // Points 3 and 1 are (comm10, adapt) and (comm5, adapt): two
        // distinct hardware configs → two compilations, reports in the
        // order the indices were given.
        assert_eq!(compilations, 2);
        assert_eq!(sub, [full[3].clone(), full[1].clone()]);
    }

    #[test]
    fn evaluate_errors_come_in_documented_order() {
        let space = DesignSpace::new(base())
            .comm_and_buffer(&[5, 10])
            .designs(&[Design::AsyncBuf]);
        let tlim = PaperBenchmark::Tlim32.circuit();
        let too_wide = dqc_workloads::qft(64);
        let invalid = space.clone().designs(&[Design::AdaptBuf]);
        // validate → zero runs → empty selection → bad index → engine.
        assert_eq!(
            invalid.evaluate(&tlim, &[], 0, 0, 0).unwrap_err(),
            DqcError::DuplicateAxis { axis: "design" }
        );
        assert_eq!(
            space.evaluate(&tlim, &[], 0, 0, 0).unwrap_err(),
            DqcError::ZeroRuns
        );
        assert_eq!(
            space.evaluate(&tlim, &[], 1, 0, 0).unwrap_err(),
            DqcError::EmptySweep { axis: "points" }
        );
        assert_eq!(
            space.evaluate(&too_wide, &[0, 9], 1, 0, 0).unwrap_err(),
            DqcError::PointOutOfRange { index: 9, len: 2 }
        );
        assert_eq!(
            space.evaluate(&too_wide, &[1, 0], 1, 0, 0).unwrap_err(),
            DqcError::CircuitTooWide {
                qubits: 64,
                capacity: 32
            }
        );
    }
}
