//! `dqc-obs` — structured tracing, metrics, and profiling for the whole
//! workspace.
//!
//! Every layer of the stack (compile, executor, serve, daemon) is
//! instrumented against this crate's three small surfaces:
//!
//! * **Tracing** — [`span`] / [`root_span`] open named intervals with
//!   stable [`TraceId`]/[`SpanId`] identities and thread-local
//!   parenting; [`event`] records point-in-time facts (fusion groups,
//!   admission refusals). Records flow to a pluggable [`Recorder`].
//!   **Nothing is installed by default**: the disabled path is one
//!   relaxed atomic load, no allocation — instrumented code stays
//!   byte-identical to uninstrumented code, which the serving layer's
//!   determinism suite pins.
//! * **Metrics** — a [`Registry`] of typed [`Counter`]s and
//!   fixed-bucket [`Histogram`]s with zero-alloc increments. The
//!   serve layer's per-shard counters are these handles, `ServeStats`
//!   is a view over a registry, and the daemon's `metrics` wire frame
//!   is a [`MetricsSnapshot`].
//! * **Profiling** — a [`RingRecorder`] buffers records in memory; a
//!   [`Capture`] serializes spans + events + metrics as one
//!   schema-versioned JSON artifact (`repro --profile`, the
//!   benchmark's `dqcbench --trace 1` run), and the `dqc-obs report`
//!   binary renders any capture's span tree and top-k table.
//!
//! Timestamps come from a [`Clock`] installed alongside the recorder —
//! never from ambient wall-clock reads. Production uses
//! [`MonotonicClock`] (backed by the one real-clock read the
//! determinism lint allowlists, in [`wall`]); tests use the
//! explicit-tick [`TickClock`].
//!
//! # Examples
//!
//! Capture a little span tree deterministically:
//!
//! ```
//! use dqc_obs::{install, Capture, MetricsSnapshot, RingRecorder, TickClock, TraceId};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingRecorder::new(1024));
//! let clock = Arc::new(TickClock::new());
//! let session = install(ring.clone(), clock.clone());
//!
//! let trace = TraceId::mint();
//! {
//!     let _request = dqc_obs::root_span("request", trace);
//!     clock.advance(250);
//!     {
//!         let mut compile = dqc_obs::span("compile");
//!         compile.attr("cached", 0u64);
//!         clock.advance(1000);
//!     }
//! }
//! drop(session); // recording off again
//!
//! let capture = Capture::from_ring("example", "tick", &ring, MetricsSnapshot::default());
//! assert_eq!(capture.spans.len(), 2);
//! assert!(capture.render_tree().contains("compile 1.000ms"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod clock;
mod context;
mod id;
mod metrics;
mod record;
mod recorder;
pub mod wall;

pub use capture::{Capture, CAPTURE_SCHEMA_VERSION};
pub use clock::{Clock, TickClock};
pub use context::{current, event, record_span, root_span, root_span_at, span, SpanGuard};
pub use id::{SpanId, TraceId};
pub use metrics::{
    labeled, Counter, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot,
    Registry,
};
pub use record::{AttrValue, Attrs, EventRecord, SpanRecord};
pub use recorder::{install, now_micros, recording, Installed, Recorder, RingRecorder};
pub use wall::MonotonicClock;
