//! The shared grid-execution engine behind [`crate::Sweep`] and
//! [`crate::DesignSpace::evaluate`].
//!
//! Both front ends reduce their grids to the same plan: a list of
//! *compile pairs* (circuit × configuration — each compiled into one
//! shared [`CompiledCircuit`]) and a list of *cells* (pair × design —
//! each an averaged seed range). The engine executes the plan in three
//! barriered phases, each one ordered parallel map over the plan's
//! workers (`GridPlan::par_map`), with four guarantees:
//!
//! 1. **Compile-once** — every pair is compiled exactly once and shared
//!    (via [`Arc`]) by all of its cells.
//! 2. **Deterministic seeding** — every cell runs seeds
//!    `base_seed .. base_seed + runs`.
//! 3. **Ordered collection** — results come back in plan order no matter
//!    which worker finished first; the first error in plan order wins.
//! 4. **One table per distinct local-fidelity triple** — pairs whose
//!    configurations carry bit-identical `(one_qubit, two_qubit,
//!    measurement)` fidelities compile against one [`RemoteFidelityTable`].
//!    The plan's first phase evaluates the two halves of every such table;
//!    the second compiles every pair against its assembled table; the
//!    third runs the cells. A pair refused statically reads no table, so
//!    a plan of refused pairs builds none. Every shared table equals
//!    [`RemoteFidelityTable::new`]'s output bit for bit.

use crate::{
    AveragedReport, CompiledCircuit, Design, DqcError, Experiment, OperationFidelities,
    RemoteFidelityTable, SystemConfig,
};
use dqc_circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// Executes the plan: compile every pair, then run every cell,
    /// collecting reports in cell order. The number of compilations
    /// performed is always exactly `pairs.len()`; callers read it off the
    /// plan.
    pub(crate) fn execute(&self) -> Result<Vec<AveragedReport>, DqcError> {
        let compiled = self.compile_pairs()?;
        self.par_map(&self.cells, |&(pair, design)| {
            Experiment::with_compiled(compiled[pair].clone())
                .design(design)
                .runs(self.runs)
                .base_seed(self.base_seed)
                .run()
        })
        .into_iter()
        .collect()
    }

    /// The table and compile phases: both halves of every distinct table
    /// among the unrefused pairs, then every pair exactly once against
    /// its table. Errors surface in plan order.
    pub(crate) fn compile_pairs(&self) -> Result<Vec<Arc<CompiledCircuit>>, DqcError> {
        // `(fidelities, pairs sharing it)` per table; `table` per pair.
        let mut tables: Vec<(&OperationFidelities, usize)> = Vec::new();
        let units: Vec<(&Circuit, &SystemConfig, Option<usize>)> = self
            .pairs
            .iter()
            .map(|&(ci, ki)| {
                let (circuit, config) = (self.circuits[ci], self.configs[ki]);
                if !CompiledCircuit::refusals(circuit, config).is_empty() {
                    return (circuit, config, None);
                }
                let key = RemoteFidelityTable::key(&config.fidelities);
                let shared = tables
                    .iter()
                    .position(|&(fidelities, _)| RemoteFidelityTable::key(fidelities) == key);
                let t = shared.unwrap_or_else(|| {
                    tables.push((&config.fidelities, 0));
                    tables.len() - 1
                });
                tables[t].1 += 1;
                (circuit, config, Some(t))
            })
            .collect();

        let halves: Vec<(&OperationFidelities, usize, f64)> = tables
            .iter()
            .flat_map(|&(fidelities, pairs)| {
                RemoteFidelityTable::WERNER_EXTREMES.map(|link| (fidelities, pairs, link))
            })
            .collect();
        let halves = self.par_map(&halves, |&(fidelities, pairs, link)| {
            let mut table_span = dqc_obs::span("compile.fidelity_table");
            if table_span.enabled() {
                table_span.attr("bell_fidelity", link);
                table_span.attr("pairs", pairs);
            }
            RemoteFidelityTable::half(fidelities, link)
        });
        let tables: Vec<RemoteFidelityTable> = halves
            .chunks_exact(2)
            .map(|halves| RemoteFidelityTable::assemble([halves[0], halves[1]]))
            .collect();

        self.par_map(&units, |&(circuit, config, table)| {
            CompiledCircuit::compile_with(circuit, config, || {
                let t = table.expect("compile refuses a pair without a table before reading it");
                tables[t].clone()
            })
            .map(Arc::new)
        })
        .into_iter()
        .collect()
    }

    /// The plan's one worker loop: maps `f` over `tasks` on at most
    /// `threads` scoped workers (0 = available parallelism), which claim
    /// tasks from one counter, and returns the results in task order. A
    /// task that panics panics the call once the other workers finish.
    fn par_map<T: Sync, R: Send>(&self, tasks: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let cap = match self.threads {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            threads => threads,
        };
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..cap.min(tasks.len()))
                .map(|_| {
                    scope.spawn(|| {
                        std::iter::from_fn(|| {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            tasks.get(i).map(|task| (i, f(task)))
                        })
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("a grid task panicked"))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::{qft, PaperBenchmark};
    use std::sync::atomic::AtomicBool;

    /// A plan with nothing to compile or run, for calling `par_map`.
    fn workers(threads: usize) -> GridPlan<'static> {
        GridPlan {
            circuits: Vec::new(),
            configs: Vec::new(),
            pairs: Vec::new(),
            cells: Vec::new(),
            runs: 1,
            base_seed: 0,
            threads,
        }
    }

    /// A plan compiling `circuit` on every config; it runs no cells.
    fn plan<'a>(circuit: &'a Circuit, configs: &'a [SystemConfig], threads: usize) -> GridPlan<'a> {
        GridPlan {
            circuits: vec![circuit],
            configs: configs.iter().collect(),
            pairs: (0..configs.len()).map(|ki| (0, ki)).collect(),
            cells: Vec::new(),
            runs: 1,
            base_seed: 0,
            threads,
        }
    }

    #[test]
    fn par_map_returns_results_in_task_order() {
        let tasks: Vec<usize> = (0..16).collect();
        let squares: Vec<usize> = tasks.iter().map(|t| t * t).collect();
        for threads in [1, 2, 8] {
            // With two or more workers every even task waits until the
            // odd task after it has finished, so tasks finish out of order.
            let finished: Vec<AtomicBool> = tasks.iter().map(|_| AtomicBool::new(false)).collect();
            let out = workers(threads).par_map(&tasks, |&t| {
                if threads > 1 && t % 2 == 0 {
                    while !finished[t + 1].load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                finished[t].store(true, Ordering::Release);
                t * t
            });
            assert_eq!(out, squares, "{threads} threads");
        }
        let none: Vec<usize> = workers(2).par_map(&[], |&t: &usize| t);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "a grid task panicked")]
    fn a_panicking_task_panics_par_map_once_the_other_workers_finish() {
        // The tasks beside task 1 are still running when it panics: they
        // wait for it to start panicking. The call must wait for them and
        // then panic, neither hanging nor returning.
        let panicking = AtomicBool::new(false);
        let tasks: Vec<usize> = (0..8).collect();
        workers(4).par_map(&tasks, |&t| {
            if t == 1 {
                panicking.store(true, Ordering::Release);
                panic!("task 1 panics");
            }
            while !panicking.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn every_pair_compiles_against_the_table_new_builds() {
        let paper = SystemConfig::paper_two_node_32();
        let mut degraded = paper.clone();
        degraded.fidelities = OperationFidelities {
            one_qubit: 0.999,
            two_qubit: 0.98,
            measurement: 0.97,
            ..paper.fidelities
        };
        let configs = [paper.clone(), degraded, paper.with_comm_and_buffer(20)];
        let circuit = PaperBenchmark::Tlim32.circuit();
        let compiled = plan(&circuit, &configs, 2).compile_pairs().unwrap();
        assert_eq!(compiled.len(), configs.len());
        for (compiled, config) in compiled.iter().zip(&configs) {
            assert_eq!(compiled.table, RemoteFidelityTable::new(&config.fidelities));
        }
        assert_ne!(compiled[0].table, compiled[1].table);
        assert_eq!(compiled[0].table, compiled[2].table);
    }

    #[test]
    fn an_out_of_range_fidelity_fails_the_plan_with_pair_0s_refusal() {
        // A measurement fidelity above 1 would be an out-of-range
        // bit-flip probability in the table's halves. Every pair is
        // refused first, so no half runs and pair 0's refusal wins.
        let mut bad = SystemConfig::paper_two_node_32();
        bad.fidelities.measurement = 1.5;
        let configs: Vec<SystemConfig> = (1..=6).map(|n| bad.with_comm_and_buffer(n)).collect();
        let circuit = qft(8);
        assert_eq!(
            plan(&circuit, &configs, 8).compile_pairs().unwrap_err(),
            DqcError::FidelityOutOfRange {
                operation: "measurement",
                value: 1.5
            }
        );
    }
}
