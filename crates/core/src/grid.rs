//! The shared grid-execution engine behind [`crate::Sweep`] and
//! [`crate::DesignSpace::evaluate`].
//!
//! Both front ends reduce their grids to the same plan: a list of
//! *compile pairs* (circuit × configuration — each compiled into one
//! shared [`CompiledCircuit`]) and a list of *cells* (pair × design —
//! each an averaged seed range). The engine executes the plan with three
//! guarantees, inherited verbatim from the original sweep runner:
//!
//! 1. **Compile-once** — every pair is compiled exactly once and shared
//!    (via [`Arc`]) by all of its cells.
//! 2. **Deterministic seeding** — every cell runs seeds
//!    `base_seed .. base_seed + runs`.
//! 3. **Ordered collection** — results come back in plan order no matter
//!    which worker finished first; the first error in plan order wins.

use crate::{AveragedReport, CompiledCircuit, Design, DqcError, Experiment, SystemConfig};
use dqc_circuit::Circuit;
use std::sync::{Arc, Mutex};

/// A worker-pool result slot: `None` until the owning worker fills it.
type Slot<T> = Mutex<Option<Result<T, DqcError>>>;

/// An executable grid: what to compile and what to run, in final order.
pub(crate) struct GridPlan<'a> {
    /// The circuit axis.
    pub circuits: Vec<&'a Circuit>,
    /// The (deduplicated) configuration axis.
    pub configs: Vec<&'a SystemConfig>,
    /// Compile units `(circuit index, config index)`, in compile order.
    pub pairs: Vec<(usize, usize)>,
    /// Result cells `(pair index, design)`, in collection order.
    pub cells: Vec<(usize, Design)>,
    /// Seeded runs averaged per cell.
    pub runs: usize,
    /// First seed of every cell's range.
    pub base_seed: u64,
    /// Worker-thread cap (0 = available parallelism).
    pub threads: usize,
}

impl GridPlan<'_> {
    /// Executes the plan: compile every pair (in parallel), then run every
    /// cell (in parallel), collecting reports in cell order. The number of
    /// compilations performed is always exactly `pairs.len()`; callers
    /// read it off the plan.
    pub(crate) fn execute(&self) -> Result<Vec<AveragedReport>, DqcError> {
        // Compile phase: exactly once per (circuit, config) pair. The
        // compilations are independent and dominate wall-clock for small
        // run counts, so they go through the same worker-pool pattern as
        // the cells; errors still surface in plan order.
        let compile_slots: Vec<Slot<Arc<CompiledCircuit>>> =
            self.pairs.iter().map(|_| Mutex::new(None)).collect();
        let next_pair = std::sync::atomic::AtomicUsize::new(0);
        let compile_workers = self.worker_count(self.pairs.len());
        std::thread::scope(|scope| {
            for _ in 0..compile_workers {
                scope.spawn(|| loop {
                    let i = next_pair.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(ci, ki)) = self.pairs.get(i) else {
                        break;
                    };
                    let outcome =
                        CompiledCircuit::compile(self.circuits[ci], self.configs[ki]).map(Arc::new);
                    *compile_slots[i]
                        .lock()
                        .expect("no worker panics while holding the slot") = Some(outcome);
                });
            }
        });
        let mut compiled: Vec<Arc<CompiledCircuit>> = Vec::with_capacity(self.pairs.len());
        for slot in compile_slots {
            compiled.push(
                slot.into_inner()
                    .expect("slot lock cannot be poisoned after scope join")
                    .expect("every pair was claimed by a worker")?,
            );
        }

        // Run phase: workers fill `slots` by index, so collection order
        // never depends on scheduling.
        let slots: Vec<Slot<AveragedReport>> =
            self.cells.iter().map(|_| Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = self.worker_count(self.cells.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(pair_idx, design)) = self.cells.get(i) else {
                        break;
                    };
                    let outcome = Experiment::with_compiled(compiled[pair_idx].clone())
                        .design(design)
                        .runs(self.runs)
                        .base_seed(self.base_seed)
                        .run();
                    *slots[i]
                        .lock()
                        .expect("no worker panics while holding the slot") = Some(outcome);
                });
            }
        });

        let mut out = Vec::with_capacity(self.cells.len());
        for slot in slots {
            out.push(
                slot.into_inner()
                    .expect("slot lock cannot be poisoned after scope join")
                    .expect("every cell was claimed by a worker")?,
            );
        }
        Ok(out)
    }

    fn worker_count(&self, tasks: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.clamp(1, tasks.max(1))
    }
}
