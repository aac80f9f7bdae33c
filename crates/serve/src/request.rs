//! The request/response vocabulary of the serving layer.

use crate::ServeError;
use dqc_circuit::Circuit;
use dqc_core::{AveragedReport, Design, ExecutionReport};
use std::sync::Arc;
use std::time::Duration;

/// One unit of work for the serving layer: evaluate `circuit` on the
/// named hardware point under `design`, averaging `runs` seeded runs
/// starting at `base_seed`.
///
/// The circuit travels behind an [`Arc`], so a workload portfolio can
/// submit the same circuit thousands of times without copying it — and a
/// clone kept by the caller makes retry-after-
/// [`Overloaded`](crate::ServeError::Overloaded) free.
///
/// Seeding is per-request and deterministic: run `i` uses
/// `base_seed + i`, exactly like
/// [`Experiment`](dqc_core::Experiment), so the same request produces
/// byte-identical [`ExecutionReport`]s no matter which worker serves it,
/// how requests were interleaved, or how many workers the server runs.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The circuit to evaluate.
    pub circuit: Arc<Circuit>,
    /// Caller-chosen circuit label, echoed on the response.
    pub circuit_label: String,
    /// Label of the hardware point (shard) to execute on.
    pub point: String,
    /// The architecture design to run.
    pub design: Design,
    /// Seeded runs to execute (must be at least 1).
    pub runs: usize,
    /// First seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Observability trace identity, threaded through the worker's span
    /// tree when a recorder is installed. `None` (the default) lets the
    /// server mint one at admission while recording; it never affects
    /// the evaluation result.
    pub trace: Option<dqc_obs::TraceId>,
}

impl EvalRequest {
    /// Builds a request with one run at base seed 0.
    pub fn new(
        circuit_label: impl Into<String>,
        circuit: Arc<Circuit>,
        point: impl Into<String>,
        design: Design,
    ) -> Self {
        Self {
            circuit,
            circuit_label: circuit_label.into(),
            point: point.into(),
            design,
            runs: 1,
            base_seed: 0,
            trace: None,
        }
    }

    /// Tags the request with an existing observability trace (the
    /// daemon threads its per-request wire trace through here).
    #[must_use]
    pub fn trace(mut self, trace: dqc_obs::TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the number of seeded runs.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the first seed of the request's range.
    #[must_use]
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }
}

/// The successful payload of an [`EvalResponse`]: one
/// [`ExecutionReport`] per seeded run, in seed order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutput {
    /// Per-seed reports, in seed order (`base_seed`, `base_seed + 1`, …).
    pub reports: Vec<ExecutionReport>,
}

impl EvalOutput {
    /// Averages the per-seed reports (the paper's aggregation).
    ///
    /// # Panics
    ///
    /// Panics on an empty report list; the server never produces one
    /// (zero-run requests are rejected at submission).
    pub fn averaged(&self) -> AveragedReport {
        AveragedReport::from_runs(&self.reports)
    }
}

/// One completed (or failed) request, handed to the reply it was
/// submitted with.
#[derive(Debug, Clone)]
pub struct EvalResponse {
    /// The request's circuit label, echoed back.
    pub circuit_label: String,
    /// The hardware point that served the request.
    pub point: String,
    /// The per-seed reports, or the engine error that stopped them.
    pub outcome: Result<EvalOutput, ServeError>,
    /// Whether the compilation came out of the shard's warm cache.
    pub cache_hit: bool,
    /// Wall-clock time from submission to completion (queueing included).
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_sets_seed_range() {
        let circuit = Arc::new(Circuit::new(2));
        let req = EvalRequest::new("bell", circuit, "paper", Design::AdaptBuf)
            .runs(5)
            .base_seed(42);
        assert_eq!(req.runs, 5);
        assert_eq!(req.base_seed, 42);
        assert_eq!(req.circuit_label, "bell");
        assert_eq!(req.point, "paper");
    }
}
