//! `codesign`: compile-heavy offline search.
//!
//! The timed loop runs `Codesign::run` with `threads = nproc` over every
//! (circuit × EPR fidelity × network family) slice of the hardware space,
//! cycling until the run length is spent. Every hardware point is a fresh
//! compile and each point replays one seed, so compile work dominates:
//! fidelity table, partition, the analyzer prefilter, grid parallelism.

use crate::inputs::{self, CodesignJob, CODESIGN_COMM, CODESIGN_RUNS};
use crate::layers::{self, probe_circuit, probe_compile, probe_teleport, BATCH};
use crate::machine::StealLog;
use crate::metrics::Outcome;
use crate::stats::mean;
use crate::{digest_json, ms, Args, Samples, SetupRepeats};
use dqc_codesign::{pareto_frontier, Codesign, CodesignResult, Objectives};
use dqc_core::{CompiledCircuit, DqcError, Experiment};
use dqc_obs::span;
use std::hint::black_box;
use std::time::Instant;

/// Feasible hardware points per job: comm/buffer provisioning on the
/// job's four-node family (the undersized chain's points are pruned).
const FEASIBLE_POINTS: usize = CODESIGN_COMM.len();

/// Every `VERIFY_EVERY`-th first-pass job has a candidate recomputed
/// directly through `Experiment` after the timed phase.
const VERIFY_EVERY: usize = 6;

/// Jobs whose layers the traced run probes (spread over the job list,
/// so every circuit is probed), and that it times at `threads = 1` and
/// `threads = nproc` for the grid speedup.
const PROBE_JOBS: usize = 6;

/// Every `probe_step(jobs)`-th job is probed.
fn probe_step(jobs: &[CodesignJob]) -> usize {
    jobs.len().div_ceil(PROBE_JOBS).max(1)
}

/// Set-up generates the inputs and cold-starts each circuit. It runs
/// once before the timed phase and repeats after it, so `setup_s` is a
/// median; no repetition runs between two timed searches, where it
/// would leave the next search slower.
const SETUP_REPEATS: usize = 25;

fn run_job(job: &CodesignJob, threads: usize) -> Result<CodesignResult, DqcError> {
    Codesign::new(job.label.clone(), job.circuit.clone(), job.space.clone())
        .runs(CODESIGN_RUNS)
        .base_seed(job.base_seed)
        .threads(threads)
        .run()
}

/// The shape every job must produce: each feasible point × design
/// evaluated once, each undersized point pruned.
fn well_formed(job: &CodesignJob, result: &CodesignResult) -> bool {
    let designs = inputs::BUILDABLE.len();
    result.candidates.len() == FEASIBLE_POINTS * designs
        && result.pruned == job.space.len() - FEASIBLE_POINTS * designs
        && result.compilations == FEASIBLE_POINTS
}

/// Takes a job's circuit from nothing to its first report on the job's
/// first hardware point.
fn cold_start(job: &CodesignJob) -> Result<(), String> {
    let scenario = job
        .space
        .realize(&job.space.point(0).map_err(|e| e.to_string())?);
    CompiledCircuit::compile(&job.circuit, &scenario.config)
        .and_then(|compiled| compiled.run(scenario.design, job.base_seed))
        .map(drop)
        .map_err(|e| format!("{}: {e}", job.label))
}

/// Generates the jobs, then cold-starts each distinct circuit on its
/// first job, `threads` circuits at a time, as the searches use the
/// cores.
fn setup(seed: u64, threads: usize) -> Result<Vec<CodesignJob>, String> {
    let jobs = inputs::codesign_jobs(seed);
    let firsts: Vec<&CodesignJob> = inputs::codesign_circuits_of(&jobs)
        .into_iter()
        .map(|(label, _)| {
            jobs.iter()
                .find(|j| j.label == label)
                .expect("the label came from a job")
        })
        .collect();
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let firsts = &firsts;
                scope.spawn(move || {
                    firsts
                        .iter()
                        .skip(w)
                        .step_by(threads)
                        .try_for_each(|job| cold_start(job))
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("set-up workers do not panic"))
    })?;
    Ok(jobs)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let nproc = crate::machine::nproc();
    out.provenance
        .push(("grid_threads", dqc_types::Json::from(nproc)));
    for target in ["codesign", "fig5", "topology-sweep"] {
        crate::golden::check(out, target);
    }
    let (repeats, jobs) = SetupRepeats::first(SETUP_REPEATS, || setup(args.seed, nproc))?;
    if args.trace {
        return traced(args.seed, &jobs, nproc, out);
    }
    timed(args, &jobs, nproc, repeats, out)
}

fn timed(
    args: &Args,
    jobs: &[CodesignJob],
    nproc: usize,
    repeats: SetupRepeats,
    out: &mut Outcome,
) -> Result<(), String> {
    let budget = args.seconds as f64;
    let mut first_pass: Vec<CodesignResult> = Vec::with_capacity(jobs.len());
    let mut digests = Vec::with_capacity(jobs.len());
    let mut samples = Samples::default();
    // Searches of the seed's generated circuits, which no other seed's
    // inputs hold: the cold latencies.
    let mut novel = Samples::default();
    let clock = Instant::now();
    // Pass 0 always completes: its results are the simulated metrics and
    // the reference every later pass must match.
    let (passes, steal) = StealLog::record(|| -> Result<(), String> {
        'passes: for pass in 0usize.. {
            for (i, job) in jobs.iter().enumerate() {
                if pass > 0 && clock.elapsed().as_secs_f64() >= budget {
                    break 'passes;
                }
                let began = Instant::now();
                let result = run_job(job, nproc);
                let done = Instant::now();
                let latency = ms(done - began);
                let result = match result {
                    Ok(result) => result,
                    Err(e) => {
                        out.attempt(false);
                        out.note(format!("job {} failed: {e}", job.label));
                        continue;
                    }
                };
                let digest = digest_json(&result.to_json());
                let ok = well_formed(job, &result)
                    && match pass {
                        0 => {
                            digests.push(digest);
                            true
                        }
                        _ => digests.get(i) == Some(&digest),
                    };
                out.attempt(ok);
                if !ok {
                    out.note(format!("job {} (pass {pass}) did not reproduce", job.label));
                    continue;
                }
                let at_s = (done - clock).as_secs_f64();
                let evals = result.candidates.len() * CODESIGN_RUNS;
                samples.push(at_s, done, latency, evals);
                if job.seeded {
                    novel.push(at_s, done, latency, evals);
                }
                if pass == 0 {
                    first_pass.push(result);
                }
            }
        }
        Ok(())
    });
    passes?;
    let elapsed = clock.elapsed().as_secs_f64();
    samples.report_rates(out, elapsed, "saturation_rps", "evals_per_s");
    samples.report_latency(out, elapsed, "search latency", &steal, nproc);
    novel.report_median(
        out,
        "cold_latency_p50_ms",
        elapsed,
        "search latency on the seed's generated circuits",
    );
    let candidates = first_pass.iter().flat_map(|r| &r.candidates);
    let depth: Vec<f64> = candidates
        .clone()
        .map(|c| c.report.mean_depth_relative)
        .collect();
    let fidelity: Vec<f64> = candidates.map(|c| c.report.mean_fidelity).collect();
    out.set("sim_depth_rel", mean(&depth));
    out.set("sim_fidelity", mean(&fidelity));
    out.note(format!(
        "timed: {} searches over {} jobs in {elapsed:.2} s",
        samples.len(),
        jobs.len()
    ));
    verify_directly(jobs, &first_pass, out);
    repeats.finish(out, || setup(args.seed, nproc), drop)
}

/// Recomputes one candidate of every `VERIFY_EVERY`-th first-pass job
/// through `Experiment`, independently of the search and grid engine.
fn verify_directly(jobs: &[CodesignJob], first_pass: &[CodesignResult], out: &mut Outcome) {
    for (job, result) in jobs.iter().zip(first_pass).step_by(VERIFY_EVERY) {
        let verdict = (|| -> Result<bool, DqcError> {
            let candidate = &result.candidates[result.candidates.len() / 2];
            let scenario = job.space.realize(&job.space.point(candidate.point_index)?);
            let direct = Experiment::new(&job.circuit, &scenario.config)?
                .design(scenario.design)
                .runs(CODESIGN_RUNS)
                .base_seed(job.base_seed)
                .run()?;
            Ok(direct == candidate.report)
        })();
        let ok = matches!(verdict, Ok(true));
        out.attempt(ok);
        if !ok {
            out.note(format!(
                "direct recomputation of {} disagrees: {verdict:?}",
                job.label
            ));
        }
    }
}

fn traced(seed: u64, jobs: &[CodesignJob], nproc: usize, out: &mut Outcome) -> Result<(), String> {
    let run_all = |threads: usize| -> Result<Vec<CodesignResult>, String> {
        jobs.iter()
            .map(|job| run_job(job, threads).map_err(|e| format!("{}: {e}", job.label)))
            .collect()
    };
    // The first untraced pass warms the process; the second is the
    // untraced time the traced pass is compared with.
    let reference = run_all(nproc)?;
    let began = Instant::now();
    run_all(nproc)?;
    let untraced = began.elapsed();

    let (ring, session) = layers::start_capture();
    layers::record_untraced(untraced);
    let results = {
        let _timed = span("bench.timed");
        run_all(nproc)?
    };
    for ((job, traced), untraced) in jobs.iter().zip(&results).zip(&reference) {
        out.attempt(well_formed(job, traced) && traced == untraced);
    }
    let pruned: usize = results.iter().map(|r| r.pruned).sum();
    let remote_gates: f64 = results
        .iter()
        .flat_map(|r| &r.candidates)
        .map(|c| c.report.mean_remote_gates * CODESIGN_RUNS as f64)
        .sum();
    dqc_obs::event("bench.codesign", || vec![("pruned", pruned.into())]);
    layers::record_remote_gates(remote_gates.round() as u64);

    {
        let _layers = span("bench.layers");
        let mut reports = Vec::new();
        for (job, result) in jobs.iter().zip(&results).step_by(probe_step(jobs)) {
            for candidate in result.candidates.iter().step_by(inputs::BUILDABLE.len()) {
                let point = job
                    .space
                    .point(candidate.point_index)
                    .map_err(|e| e.to_string())?;
                let config = job.space.realize(&point).config;
                let compiled = probe_compile(&job.circuit, &config)?;
                probe_teleport(&config);
                for design in inputs::BUILDABLE {
                    reports.push(
                        compiled
                            .run(design, job.base_seed)
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
            let indices: Vec<usize> = (0..job.space.len()).collect();
            let mut prefilter = span("bench.prefilter");
            let infeasible = dqc_analyze::Analyzer::new().infeasible_points(
                &job.space,
                &job.label,
                &job.circuit,
                &indices,
            );
            prefilter.attr("pruned", infeasible.len());
            drop(prefilter);
            let objectives: Vec<Objectives> =
                result.candidates.iter().map(|c| c.objectives).collect();
            let mut frontier = span("bench.frontier");
            frontier.attr("calls", BATCH);
            for _ in 0..BATCH {
                black_box(pareto_frontier(black_box(&objectives)));
            }
        }
        layers::record_service(&reports);
        for (label, circuit) in inputs::codesign_circuits_of(jobs) {
            probe_circuit(label, circuit)?;
        }
        layers::probe_common(&jobs[0].label, &jobs[0].circuit)?;
    }
    let metrics = crate::serve_wire::probe(seed, nproc)?;
    {
        let _grid = span("bench.grid.serial");
        for job in jobs.iter().step_by(probe_step(jobs)) {
            run_job(job, 1).map_err(|e| e.to_string())?;
        }
    }
    {
        let _grid = span("bench.grid.parallel");
        for job in jobs.iter().step_by(probe_step(jobs)) {
            run_job(job, nproc).map_err(|e| e.to_string())?;
        }
    }
    drop(session);
    let capture = layers::capture(&ring, metrics);
    layers::derive(&capture, out);
    crate::serve_wire::derive_serving(&capture, out);
    out.capture = Some(capture);
    Ok(())
}
