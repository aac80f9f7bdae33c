//! The shared grid-execution engine behind [`crate::Sweep`] and
//! [`crate::DesignSpace::evaluate`].
//!
//! Both front ends reduce their grids to the same plan: a list of
//! *compile pairs* (circuit × configuration — each compiled into one
//! shared [`CompiledCircuit`]) and a list of *cells* (pair × design —
//! each an averaged seed range). The engine executes the plan with four
//! guarantees, the first three inherited verbatim from the original
//! sweep runner:
//!
//! 1. **Compile-once** — every pair is compiled exactly once and shared
//!    (via [`Arc`]) by all of its cells.
//! 2. **Deterministic seeding** — every cell runs seeds
//!    `base_seed .. base_seed + runs`.
//! 3. **Ordered collection** — results come back in plan order no matter
//!    which worker finished first; the first error in plan order wins.
//! 4. **One table per distinct local-fidelity triple** — pairs whose
//!    configurations carry bit-identical `(one_qubit, two_qubit,
//!    measurement)` fidelities compile against one [`RemoteFidelityTable`],
//!    built before their compiles as two half tasks on the plan's own
//!    workers. A pair refused statically reads no table, so a plan of
//!    refused pairs builds none. Every shared table equals
//!    [`RemoteFidelityTable::new`]'s output bit for bit.

use crate::remote::TableHalf;
use crate::{
    AveragedReport, CompiledCircuit, Design, DqcError, Experiment, OperationFidelities,
    RemoteFidelityTable, SystemConfig,
};
use dqc_circuit::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A worker-pool result slot: `None` until the owning worker fills it.
type Slot<T> = Mutex<Option<Result<T, DqcError>>>;

const HALF_PANICKED: &str = "a fidelity-table half panicked";

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

/// One remote-fidelity table of a plan, shared by every pair whose
/// configuration has its local fidelities. Whichever workers claim its
/// two halves fill them; the pairs wait until both are in.
struct SharedTable<'a> {
    fidelities: &'a OperationFidelities,
    /// Pairs that compile against this table.
    pairs: usize,
    /// The halves at [`RemoteFidelityTable::WERNER_EXTREMES`], in order.
    halves: Mutex<[Option<TableHalf>; 2]>,
    filled: Condvar,
}

impl SharedTable<'_> {
    /// Evaluates half `half` on the calling worker.
    fn fill(&self, half: usize) {
        let link = RemoteFidelityTable::WERNER_EXTREMES[half];
        let evaluated = std::panic::catch_unwind(|| {
            let mut table_span = dqc_obs::span("compile.fidelity_table");
            if table_span.enabled() {
                table_span.attr("bell_fidelity", link);
                table_span.attr("pairs", self.pairs);
            }
            RemoteFidelityTable::half(self.fidelities, link)
        });
        let mut halves = self.halves.lock().expect(HALF_PANICKED);
        self.filled.notify_all();
        // A panicked evaluation resumes unwinding with the lock held,
        // poisoning it: the pairs waiting on this table then panic too,
        // instead of waiting for a half that never comes.
        halves[half] = Some(evaluated.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
    }

    /// Blocks until both halves are in, then assembles the table.
    fn wait(&self) -> RemoteFidelityTable {
        let halves = self
            .filled
            .wait_while(self.halves.lock().expect(HALF_PANICKED), |halves| {
                halves.contains(&None)
            })
            .expect(HALF_PANICKED);
        RemoteFidelityTable::assemble(halves.map(|half| half.expect("both halves are in")))
    }
}

impl GridPlan<'_> {
    /// Executes the plan: compile every pair (in parallel), then run every
    /// cell (in parallel), collecting reports in cell order. The number of
    /// compilations performed is always exactly `pairs.len()`; callers
    /// read it off the plan.
    pub(crate) fn execute(&self) -> Result<Vec<AveragedReport>, DqcError> {
        let compiled = self.compile_pairs()?;

        // Run phase: workers fill `slots` by index, so collection order
        // never depends on scheduling.
        let slots: Vec<Slot<AveragedReport>> =
            self.cells.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.worker_count(self.cells.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
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

    /// The compile phase: exactly once per (circuit, config) pair, each
    /// against its plan-wide table. The compilations are independent and
    /// dominate wall-clock for small run counts, so they go through the
    /// same worker-pool pattern as the cells; errors still surface in
    /// plan order.
    ///
    /// One counter hands out every task: first the two halves of each
    /// table, then the pairs. A worker that claims a pair has seen every
    /// half claimed, so it waits only on halves already running.
    pub(crate) fn compile_pairs(&self) -> Result<Vec<Arc<CompiledCircuit>>, DqcError> {
        let mut tables: Vec<SharedTable> = Vec::new();
        let table_of: Vec<Option<usize>> = self
            .pairs
            .iter()
            .map(|&(ci, ki)| {
                let config = self.configs[ki];
                if !CompiledCircuit::refusals(self.circuits[ci], config).is_empty() {
                    return None;
                }
                let key = RemoteFidelityTable::key(&config.fidelities);
                let shared = tables
                    .iter()
                    .position(|t| RemoteFidelityTable::key(t.fidelities) == key);
                let t = shared.unwrap_or_else(|| {
                    tables.push(SharedTable {
                        fidelities: &config.fidelities,
                        pairs: 0,
                        halves: Mutex::new([None; 2]),
                        filled: Condvar::new(),
                    });
                    tables.len() - 1
                });
                tables[t].pairs += 1;
                Some(t)
            })
            .collect();

        let halves = 2 * tables.len();
        let slots: Vec<Slot<Arc<CompiledCircuit>>> =
            self.pairs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.worker_count(halves.max(self.pairs.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task < halves {
                        tables[task / 2].fill(task % 2);
                        continue;
                    }
                    let i = task - halves;
                    let Some(&(ci, ki)) = self.pairs.get(i) else {
                        break;
                    };
                    let table = table_of[i].map(|t| tables[t].wait());
                    let outcome =
                        CompiledCircuit::compile_with(self.circuits[ci], self.configs[ki], || {
                            table.expect("compile refuses a pair without a table before reading it")
                        })
                        .map(Arc::new);
                    *slots[i]
                        .lock()
                        .expect("no worker panics while holding the slot") = Some(outcome);
                });
            }
        });
        let mut compiled = Vec::with_capacity(self.pairs.len());
        for slot in slots {
            compiled.push(
                slot.into_inner()
                    .expect("slot lock cannot be poisoned after scope join")
                    .expect("every pair was claimed by a worker")?,
            );
        }
        Ok(compiled)
    }

    fn worker_count(&self, tasks: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.clamp(1, tasks.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::{qft, PaperBenchmark};

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
    #[should_panic]
    fn a_panicking_half_fails_the_plan_instead_of_hanging_it() {
        // A measurement fidelity above 1 is an out-of-range bit-flip
        // probability, so both halves of the one table panic. Six workers
        // run: two claim the halves and four claim pairs of that table,
        // which must panic too, whether they wait before or after the
        // halves fail.
        let mut bad = SystemConfig::paper_two_node_32();
        bad.fidelities.measurement = 1.5;
        let configs: Vec<SystemConfig> = (1..=6).map(|n| bad.with_comm_and_buffer(n)).collect();
        let circuit = qft(8);
        let _ = plan(&circuit, &configs, 8).compile_pairs();
    }
}
