//! The versioned wire vocabulary: every frame either direction, typed.
//!
//! One handshake, four commands, and their replies:
//!
//! | client → server | server → client |
//! |---|---|
//! | `hello` (identity + protocol) | `welcome` (points, designs, config) or fatal `error` |
//! | `submit` (tagged evaluation) | tagged `result` or tagged `error` |
//! | `metrics` (tagged) | tagged `metrics` (the registry: every counter and histogram) |
//! | `trace` (tagged) | tagged `trace` (recent spans and events, plus the metrics) |
//! | `bye` | `bye`, then close |
//!
//! A client hands [`Submission`] an in-memory circuit or QASM text, and
//! either one is sent as QASM: `submit.circuit` is an OpenQASM 2.0
//! program string ([`to_qasm`] renders an in-memory circuit when the
//! frame is built). The daemon parses it with [`from_qasm`] after quota
//! admission. The round trip preserves the circuit's
//! [`fingerprint`](Circuit::fingerprint), so wire submissions hit the
//! same warm compile caches as in-process requests.
//!
//! Errors are typed end-to-end: [`WireError`] carries the admission
//! backpressure signals (`overloaded` straight from
//! [`ServeError::Overloaded`](dqc_serve::ServeError#variant.Overloaded),
//! `quota_exceeded` from the daemon's multi-tenant ledger) and
//! `bad_request` with the QASM parse line, forwarded verbatim from
//! [`ParseQasmError`](dqc_circuit::ParseQasmError).

use dqc_circuit::{from_qasm, to_qasm, Circuit};
use dqc_core::{Design, ExecutionReport};
use dqc_obs::{Capture, MetricsSnapshot, TraceId};
use dqc_serve::{EvalRequest, ServeConfig, ServeError};
use dqc_types::{Diagnostic, Json, JsonError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Version of the frame vocabulary. A mismatching `hello` is refused
/// with a fatal `protocol` error naming both versions.
///
/// v2: `welcome` carries a `config` echo (the daemon's full
/// [`ServeConfig`]) so clients can introspect limits; the `stats` reply's
/// serve snapshot gained fusion/autoscale counters and per-shard worker
/// placements.
///
/// v3: observability. Every admitted submission gets a server-minted
/// trace identity, echoed as an optional `trace_id` on its `result` or
/// `error` reply; two new tagged commands — `metrics` (the raw
/// [`MetricsSnapshot`] behind the stats roll-up, histograms included)
/// and `trace` (the daemon's recent span/event ring as a
/// [`Capture`]) — expose the live registry and trace buffer.
///
/// v4: the `welcome` config echo lost the knobs that never changed an
/// answer (`batch_max`, `fusion`, `worker_budget`, `metrics`), and its
/// `autoscale` is a boolean instead of a policy object; `welcome` no
/// longer repeats `max_in_flight`/`rate_per_sec` beside `config.quota`.
///
/// v5: the autoscaler is gone. The `welcome` config echo lost
/// `autoscale`; the `stats` reply's serve snapshot lost
/// `autoscale_ticks`, `rebalances` and each shard's `workers`.
///
/// v6: the `stats` command and its reply are gone. The `metrics` reply
/// carries every counter they rolled up, and each request's latency
/// rides on its `result`.
///
/// v7: one circuit encoding. `submit.circuit` is the OpenQASM 2.0
/// program string; the structured-JSON layout and the `format` member
/// are gone.
pub const PROTOCOL_VERSION: i64 = 7;

/// The server identity string sent in `welcome`.
pub const SERVER_NAME: &str = concat!("dqc-served/", env!("CARGO_PKG_VERSION"));

// ------------------------------------------------------------- errors

/// Which per-client quota refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaScope {
    /// Too many of the client's requests are in flight at once.
    InFlight,
    /// The client's sustained submission rate exceeded its token bucket.
    Rate,
}

impl QuotaScope {
    /// The wire spelling of the scope.
    pub const fn name(self) -> &'static str {
        match self {
            QuotaScope::InFlight => "in_flight",
            QuotaScope::Rate => "rate",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "in_flight" => Some(QuotaScope::InFlight),
            "rate" => Some(QuotaScope::Rate),
            _ => None,
        }
    }
}

/// A typed wire-level error, serialized under `error.kind`.
///
/// The first three variants are the visible ends of the admission
/// pipeline: `Overloaded` is the shard queue saying no (global
/// backpressure), `QuotaExceeded` is the multi-tenant ledger saying no
/// (one client asking for more than its share), and `BadRequest` is the
/// front door saying no (malformed circuit, unknown design, zero runs)
/// — with the QASM parse line forwarded verbatim when there is one.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The target shard's queue is at capacity (retryable backpressure).
    Overloaded {
        /// The hardware point whose shard refused the request.
        point: String,
        /// The shard's queue capacity.
        capacity: usize,
    },
    /// A per-client quota refused the submission.
    QuotaExceeded {
        /// The client identity (from the `hello` frame) that was over.
        client: String,
        /// Which quota tripped.
        scope: QuotaScope,
        /// The configured limit (requests for `in_flight`, requests per
        /// second for `rate`).
        limit: f64,
    },
    /// The request itself is malformed and will never succeed as sent.
    BadRequest {
        /// What was wrong, verbatim from the decoder that rejected it.
        message: String,
        /// 1-based source line for QASM parse errors, absent otherwise.
        line: Option<usize>,
    },
    /// The request names a hardware point the daemon does not serve.
    UnknownPoint {
        /// The unrecognized point label.
        point: String,
    },
    /// Static analysis proved the submission can never execute on its
    /// target point (for example a circuit wider than the point's data
    /// qubits). Carries the full structured findings so
    /// clients can render or machine-triage them; never retryable.
    Rejected {
        /// The hardware point the submission targeted.
        point: String,
        /// The analyzer's findings, every one error-severity.
        diagnostics: Vec<Diagnostic>,
    },
    /// The evaluation engine failed the request after admission.
    Engine {
        /// The engine error, stringified.
        message: String,
    },
    /// The conversation itself is broken (bad handshake, unknown frame
    /// type, version mismatch). Fatal: the sender closes after this.
    Protocol {
        /// What broke.
        message: String,
    },
}

impl WireError {
    /// The wire spelling of the error kind.
    pub const fn kind(&self) -> &'static str {
        match self {
            WireError::Overloaded { .. } => "overloaded",
            WireError::QuotaExceeded { .. } => "quota_exceeded",
            WireError::BadRequest { .. } => "bad_request",
            WireError::UnknownPoint { .. } => "unknown_point",
            WireError::Rejected { .. } => "rejected",
            WireError::Engine { .. } => "engine",
            WireError::Protocol { .. } => "protocol",
        }
    }

    /// Whether retrying the same request later can succeed (admission
    /// backpressure) as opposed to a request that will always fail.
    pub const fn is_backpressure(&self) -> bool {
        matches!(
            self,
            WireError::Overloaded { .. } | WireError::QuotaExceeded { .. }
        )
    }

    /// Serializes the error as the wire's `error` object.
    pub fn to_json(&self) -> Json {
        match self {
            WireError::Overloaded { point, capacity } => Json::object([
                ("kind", Json::from(self.kind())),
                ("point", Json::from(point.as_str())),
                ("capacity", Json::from(*capacity)),
            ]),
            WireError::QuotaExceeded {
                client,
                scope,
                limit,
            } => Json::object([
                ("kind", Json::from(self.kind())),
                ("client", Json::from(client.as_str())),
                ("scope", Json::from(scope.name())),
                ("limit", Json::float(*limit)),
            ]),
            WireError::BadRequest { message, line } => Json::object([
                ("kind", Json::from(self.kind())),
                ("message", Json::from(message.as_str())),
                ("line", line.map_or(Json::Null, Json::from)),
            ]),
            WireError::UnknownPoint { point } => Json::object([
                ("kind", Json::from(self.kind())),
                ("point", Json::from(point.as_str())),
            ]),
            WireError::Rejected { point, diagnostics } => Json::object([
                ("kind", Json::from(self.kind())),
                ("point", Json::from(point.as_str())),
                (
                    "diagnostics",
                    Json::from(
                        diagnostics
                            .iter()
                            .map(Diagnostic::to_json)
                            .collect::<Vec<_>>(),
                    ),
                ),
            ]),
            WireError::Engine { message } | WireError::Protocol { message } => Json::object([
                ("kind", Json::from(self.kind())),
                ("message", Json::from(message.as_str())),
            ]),
        }
    }

    /// Reads an error back from [`WireError::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on an unknown kind or missing field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let kind = json.str_field("kind")?;
        Ok(match kind {
            "overloaded" => WireError::Overloaded {
                point: json.str_field("point")?.to_string(),
                capacity: json.usize_field("capacity")?,
            },
            "quota_exceeded" => WireError::QuotaExceeded {
                client: json.str_field("client")?.to_string(),
                scope: {
                    let scope = json.str_field("scope")?;
                    QuotaScope::from_name(scope).ok_or_else(|| {
                        JsonError::schema(format!("unknown quota scope `{scope}`"))
                    })?
                },
                limit: json.f64_field("limit")?,
            },
            "bad_request" => WireError::BadRequest {
                message: json.str_field("message")?.to_string(),
                line: match json.field("line")? {
                    Json::Null => None,
                    value => Some(
                        value
                            .as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| {
                                JsonError::schema("field `line`: expected a line number or null")
                            })?,
                    ),
                },
            },
            "unknown_point" => WireError::UnknownPoint {
                point: json.str_field("point")?.to_string(),
            },
            "rejected" => WireError::Rejected {
                point: json.str_field("point")?.to_string(),
                diagnostics: json
                    .array_field("diagnostics")?
                    .iter()
                    .map(Diagnostic::from_json)
                    .collect::<Result<_, _>>()?,
            },
            "engine" => WireError::Engine {
                message: json.str_field("message")?.to_string(),
            },
            "protocol" => WireError::Protocol {
                message: json.str_field("message")?.to_string(),
            },
            other => return Err(JsonError::schema(format!("unknown error kind `{other}`"))),
        })
    }

    /// Maps a serving-layer refusal onto its wire form.
    pub fn from_serve(e: ServeError) -> Self {
        match e {
            ServeError::Overloaded { point, capacity } => WireError::Overloaded { point, capacity },
            ServeError::UnknownPoint { point } => WireError::UnknownPoint { point },
            ServeError::Engine(e) => WireError::Engine {
                message: e.to_string(),
            },
            other => WireError::Protocol {
                message: other.to_string(),
            },
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overloaded { point, capacity } => write!(
                f,
                "shard `{point}` is overloaded (queue at capacity {capacity}); retry later"
            ),
            WireError::QuotaExceeded {
                client,
                scope,
                limit,
            } => write!(
                f,
                "client `{client}` exceeded its {} quota of {limit}",
                scope.name()
            ),
            WireError::BadRequest {
                message,
                line: Some(line),
            } => write!(f, "bad request at line {line}: {message}"),
            WireError::BadRequest {
                message,
                line: None,
            } => write!(f, "bad request: {message}"),
            WireError::UnknownPoint { point } => {
                write!(f, "no shard serves hardware point `{point}`")
            }
            WireError::Rejected { point, diagnostics } => {
                write!(
                    f,
                    "submission statically rejected for point `{point}`: {} finding(s)",
                    diagnostics.len()
                )?;
                for diagnostic in diagnostics {
                    write!(f, "; {diagnostic}")?;
                }
                Ok(())
            }
            WireError::Engine { message } => write!(f, "evaluation failed: {message}"),
            WireError::Protocol { message } => write!(f, "protocol error: {message}"),
        }
    }
}

impl Error for WireError {}

// -------------------------------------------------------- submissions

/// A submission's circuit as the client holds it. Either form is sent
/// as OpenQASM 2.0 text, and the daemon always receives
/// [`CircuitPayload::Qasm`].
#[derive(Debug, Clone)]
pub enum CircuitPayload {
    /// An in-memory circuit, rendered with [`to_qasm`] when its frame is
    /// built.
    Circuit(Arc<Circuit>),
    /// OpenQASM 2.0 source text, parsed server-side by [`from_qasm`].
    Qasm(String),
}

/// Parses submitted QASM text, mapping a parse failure onto the
/// `bad_request` that carries its message and 1-based line.
pub(crate) fn parse_qasm(source: &str) -> Result<Circuit, WireError> {
    from_qasm(source).map_err(|e| WireError::BadRequest {
        message: e.message().to_string(),
        line: Some(e.line()),
    })
}

fn bad_request(e: impl fmt::Display) -> WireError {
    WireError::BadRequest {
        message: e.to_string(),
        line: None,
    }
}

/// One wire-level evaluation request: everything an
/// [`EvalRequest`] holds, with the circuit in memory or as QASM text.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Caller-chosen circuit label, echoed on the reply.
    pub label: String,
    /// Hardware point (shard) to execute on.
    pub point: String,
    /// Architecture design to run.
    pub design: Design,
    /// Seeded runs to execute (must be at least 1).
    pub runs: usize,
    /// First seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// The circuit, in memory or as QASM text.
    pub circuit: CircuitPayload,
}

impl Submission {
    /// Builds a submission of an in-memory circuit, with one run at seed
    /// 0. Its frame carries the circuit as QASM text.
    pub fn structured(
        label: impl Into<String>,
        circuit: Arc<Circuit>,
        point: impl Into<String>,
        design: Design,
    ) -> Self {
        Self {
            label: label.into(),
            point: point.into(),
            design,
            runs: 1,
            base_seed: 0,
            circuit: CircuitPayload::Circuit(circuit),
        }
    }

    /// Builds a QASM-text submission with one run at seed 0.
    pub fn qasm(
        label: impl Into<String>,
        source: impl Into<String>,
        point: impl Into<String>,
        design: Design,
    ) -> Self {
        Self {
            label: label.into(),
            point: point.into(),
            design,
            runs: 1,
            base_seed: 0,
            circuit: CircuitPayload::Qasm(source.into()),
        }
    }

    /// Lifts an in-process [`EvalRequest`] onto the wire, sharing the
    /// circuit `Arc`. This is what lets one request list drive both the
    /// in-process server and the daemon.
    pub fn from_request(request: &EvalRequest) -> Self {
        Self {
            label: request.circuit_label.clone(),
            point: request.point.clone(),
            design: request.design,
            runs: request.runs,
            base_seed: request.base_seed,
            circuit: CircuitPayload::Circuit(Arc::clone(&request.circuit)),
        }
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

    /// Converts the submission into the serving layer's request form.
    ///
    /// # Errors
    ///
    /// [`WireError::BadRequest`] if `runs` is zero or the QASM text does
    /// not parse (its line attached).
    pub fn to_eval_request(&self) -> Result<EvalRequest, WireError> {
        self.clone()
            .into_eval_request(|source| parse_qasm(&source).map(Arc::new))
    }

    /// [`Submission::to_eval_request`] by value, with QASM text turned
    /// into a circuit by `parse`: the daemon passes its parse cache, which
    /// keeps the text it is handed.
    pub(crate) fn into_eval_request(
        self,
        parse: impl FnOnce(String) -> Result<Arc<Circuit>, WireError>,
    ) -> Result<EvalRequest, WireError> {
        if self.runs == 0 {
            return Err(WireError::BadRequest {
                message: "runs must be at least 1".to_string(),
                line: None,
            });
        }
        let circuit = match self.circuit {
            CircuitPayload::Circuit(circuit) => circuit,
            CircuitPayload::Qasm(source) => parse(source)?,
        };
        Ok(
            EvalRequest::new(self.label, circuit, self.point, self.design)
                .runs(self.runs)
                .base_seed(self.base_seed),
        )
    }
}

// ------------------------------------------------------------- frames

/// Builds the client's opening `hello` frame.
pub fn hello_frame(client: &str) -> Json {
    Json::object([
        ("type", Json::from("hello")),
        ("protocol", Json::from(PROTOCOL_VERSION)),
        ("client", Json::from(client)),
    ])
}

/// Builds a tagged `submit` frame. An in-memory circuit is rendered as
/// QASM text here.
pub fn submit_frame(tag: u64, submission: &Submission) -> Json {
    let circuit = match &submission.circuit {
        CircuitPayload::Circuit(circuit) => to_qasm(circuit),
        CircuitPayload::Qasm(source) => source.clone(),
    };
    Json::object([
        ("type", Json::from("submit")),
        ("tag", Json::uint(tag)),
        ("label", Json::from(submission.label.as_str())),
        ("point", Json::from(submission.point.as_str())),
        ("design", Json::from(submission.design.name())),
        ("runs", Json::from(submission.runs)),
        ("base_seed", Json::uint(submission.base_seed)),
        ("circuit", Json::Str(circuit)),
    ])
}

/// Builds a tagged `metrics` request frame (v3).
pub fn metrics_frame(tag: u64) -> Json {
    Json::object([("type", Json::from("metrics")), ("tag", Json::uint(tag))])
}

/// Builds a tagged `trace` request frame (v3).
pub fn trace_frame(tag: u64) -> Json {
    Json::object([("type", Json::from("trace")), ("tag", Json::uint(tag))])
}

/// Builds the farewell `bye` frame (either direction).
pub fn bye_frame() -> Json {
    Json::object([("type", Json::from("bye"))])
}

/// Builds a server `error` frame; `tag` is echoed when the error is
/// tied to one request, and absent for fatal connection-level errors.
/// `trace_id` (v3) carries the request's trace identity when one was
/// minted before the failure.
pub fn error_frame(tag: Option<u64>, error: &WireError, trace_id: Option<TraceId>) -> Json {
    Json::object([
        ("type", Json::from("error")),
        ("tag", tag.map_or(Json::Null, Json::uint)),
        (
            "trace_id",
            trace_id.map_or(Json::Null, |t| Json::Str(t.to_string())),
        ),
        ("error", error.to_json()),
    ])
}

/// One decoded client → server frame.
#[derive(Debug, Clone)]
pub enum ClientFrame {
    /// The opening handshake.
    Hello {
        /// Protocol version the client speaks.
        protocol: i64,
        /// Self-declared client identity (the quota ledger's key).
        client: String,
    },
    /// A tagged evaluation request.
    Submit {
        /// Client-chosen tag echoed on the reply.
        tag: u64,
        /// The request body.
        submission: Submission,
    },
    /// A tagged request for the raw metrics registry snapshot (v3).
    Metrics {
        /// Client-chosen tag echoed on the reply.
        tag: u64,
    },
    /// A tagged request for the daemon's recent span/event capture (v3).
    Trace {
        /// Client-chosen tag echoed on the reply.
        tag: u64,
    },
    /// Orderly goodbye: the server drains in-flight replies, answers
    /// `bye`, and closes.
    Bye,
}

/// Decodes one client → server frame. The frame is taken by value so a
/// submit's circuit text moves out of it instead of being copied.
///
/// # Errors
///
/// [`WireError::Protocol`] for an unknown or untagged frame shape;
/// [`WireError::BadRequest`] for a well-shaped `submit` with bad
/// contents. A caller that answers errors by tag reads the frame's `tag`
/// field before handing the frame over.
pub fn parse_client_frame(mut json: Json) -> Result<ClientFrame, WireError> {
    let frame_type = json.str_field("type").map_err(protocol_err)?;
    match frame_type {
        "hello" => Ok(ClientFrame::Hello {
            protocol: json.i64_field("protocol").map_err(protocol_err)?,
            client: json.str_field("client").map_err(protocol_err)?.to_string(),
        }),
        "submit" => {
            let tag = json.u64_field("tag").map_err(protocol_err)?;
            let design_name = json.str_field("design").map_err(bad_request)?;
            let design = design_name.parse::<Design>().map_err(bad_request)?;
            let submission = Submission {
                label: json.str_field("label").map_err(bad_request)?.to_string(),
                point: json.str_field("point").map_err(bad_request)?.to_string(),
                design,
                runs: json.usize_field("runs").map_err(bad_request)?,
                base_seed: json.u64_field("base_seed").map_err(bad_request)?,
                circuit: CircuitPayload::Qasm(
                    take_str_field(&mut json, "circuit").map_err(bad_request)?,
                ),
            };
            Ok(ClientFrame::Submit { tag, submission })
        }
        "metrics" => Ok(ClientFrame::Metrics {
            tag: json.u64_field("tag").map_err(protocol_err)?,
        }),
        "trace" => Ok(ClientFrame::Trace {
            tag: json.u64_field("tag").map_err(protocol_err)?,
        }),
        "bye" => Ok(ClientFrame::Bye),
        other => Err(WireError::Protocol {
            message: format!("unknown frame type `{other}`"),
        }),
    }
}

fn protocol_err(e: impl fmt::Display) -> WireError {
    WireError::Protocol {
        message: e.to_string(),
    }
}

/// Moves the string member `key` out of `json`: the member
/// [`Json::str_field`] reads, and its error when there is none.
fn take_str_field(json: &mut Json, key: &str) -> Result<String, JsonError> {
    if let Json::Object(members) = json {
        if let Some((_, Json::Str(text))) = members.iter_mut().find(|(name, _)| name == key) {
            return Ok(std::mem::take(text));
        }
    }
    json.str_field(key).map(str::to_string)
}

// ------------------------------------------------- server-side frames

/// The server's `welcome` reply: what this daemon serves and the
/// configuration — quota terms included — the client is admitted under.
#[derive(Debug, Clone)]
pub struct Welcome {
    /// Protocol version the server speaks.
    pub protocol: i64,
    /// Server identity string ([`SERVER_NAME`]).
    pub server: String,
    /// Hardware points with a running shard, in registration order.
    pub points: Vec<String>,
    /// Accepted design names ([`Design::ALL`] spellings).
    pub designs: Vec<String>,
    /// The daemon's full serving configuration — worker, queue and cache
    /// sizes, quota terms — so clients can introspect the limits they
    /// are admitted under.
    pub config: ServeConfig,
}

impl Welcome {
    /// Serializes the frame.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("type", Json::from("welcome")),
            ("protocol", Json::from(self.protocol)),
            ("server", Json::from(self.server.as_str())),
            (
                "points",
                Json::Array(self.points.iter().map(|p| Json::from(p.as_str())).collect()),
            ),
            (
                "designs",
                Json::Array(
                    self.designs
                        .iter()
                        .map(|d| Json::from(d.as_str()))
                        .collect(),
                ),
            ),
            ("config", self.config.to_json()),
        ])
    }

    /// Reads a `welcome` frame back.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_list = |key: &str| -> Result<Vec<String>, JsonError> {
            json.array_field(key)?
                .iter()
                .map(|v| {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        JsonError::schema(format!("field `{key}`: expected strings"))
                    })
                })
                .collect()
        };
        Ok(Self {
            protocol: json.i64_field("protocol")?,
            server: json.str_field("server")?.to_string(),
            points: str_list("points")?,
            designs: str_list("designs")?,
            config: ServeConfig::from_json(json.field("config")?)?,
        })
    }
}

/// The successful payload of a wire reply: the response fields of an
/// [`EvalResponse`](dqc_serve::EvalResponse) that survive serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutput {
    /// The request's circuit label, echoed back.
    pub label: String,
    /// The hardware point that served the request.
    pub point: String,
    /// Whether compilation came out of the shard's warm cache.
    pub cache_hit: bool,
    /// Server-side wall-clock latency in milliseconds (submission to
    /// completion, queueing included).
    pub latency_ms: f64,
    /// The trace identity the daemon minted at admission (v3), usable
    /// to correlate this request with a `trace` capture. Absent from
    /// pre-v3 peers.
    pub trace_id: Option<TraceId>,
    /// Per-seed reports, in seed order.
    pub reports: Vec<ExecutionReport>,
}

/// One tagged reply to a `submit`: the output, or the typed refusal.
#[derive(Debug, Clone)]
pub struct WireReply {
    /// The client's tag, echoed back.
    pub tag: u64,
    /// The evaluation result or the error that stopped it.
    pub outcome: Result<WireOutput, WireError>,
}

/// Builds a tagged `result` frame from a completed evaluation.
pub fn result_frame(tag: u64, output: &WireOutput) -> Json {
    Json::object([
        ("type", Json::from("result")),
        ("tag", Json::uint(tag)),
        ("label", Json::from(output.label.as_str())),
        ("point", Json::from(output.point.as_str())),
        ("cache_hit", Json::from(output.cache_hit)),
        ("latency_ms", Json::float(output.latency_ms)),
        (
            "trace_id",
            output
                .trace_id
                .map_or(Json::Null, |t| Json::Str(t.to_string())),
        ),
        (
            "reports",
            Json::Array(
                output
                    .reports
                    .iter()
                    .map(ExecutionReport::to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Builds a tagged `metrics` reply frame (v3): the daemon's metrics
/// registry, every `serve.*` and `served.*` metric.
pub fn metrics_reply_frame(tag: u64, metrics: &MetricsSnapshot) -> Json {
    Json::object([
        ("type", Json::from("metrics")),
        ("tag", Json::uint(tag)),
        ("metrics", metrics.to_json()),
    ])
}

/// Builds a tagged `trace` reply frame (v3): the daemon's recent
/// span/event ring as a schema-versioned capture document.
pub fn trace_reply_frame(tag: u64, capture: &Capture) -> Json {
    Json::object([
        ("type", Json::from("trace")),
        ("tag", Json::uint(tag)),
        ("capture", capture.to_json()),
    ])
}

/// One decoded server → client frame.
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// The handshake acceptance. Boxed for the same reason as `Trace`:
    /// the full config echo dominates the enum's footprint.
    Welcome(Box<Welcome>),
    /// A tagged evaluation result.
    Result {
        /// The client's tag, echoed back.
        tag: u64,
        /// The evaluation output.
        output: WireOutput,
    },
    /// A typed error, tagged when tied to one request.
    Error {
        /// The offending request's tag, or `None` for connection-fatal
        /// errors.
        tag: Option<u64>,
        /// The request's trace identity, when one was minted (v3).
        trace_id: Option<TraceId>,
        /// The error itself.
        error: WireError,
    },
    /// A tagged raw metrics snapshot (v3).
    Metrics {
        /// The client's tag, echoed back.
        tag: u64,
        /// The registry snapshot, histograms included.
        metrics: MetricsSnapshot,
    },
    /// A tagged span/event capture (v3). Boxed: a capture dwarfs every
    /// other variant, and frames travel through `Result<_, ServerFrame>`
    /// plumbing on the client.
    Trace {
        /// The client's tag, echoed back.
        tag: u64,
        /// The daemon's recent span/event ring.
        capture: Box<Capture>,
    },
    /// The server's goodbye; the connection closes after this.
    Bye,
}

/// Decodes one server → client frame.
///
/// # Errors
///
/// [`JsonError::Schema`] when the frame does not match the vocabulary —
/// on the client this means the peer is not a `dqc-served` daemon.
pub fn parse_server_frame(json: &Json) -> Result<ServerFrame, JsonError> {
    let frame_type = json.str_field("type")?;
    Ok(match frame_type {
        "welcome" => ServerFrame::Welcome(Box::new(Welcome::from_json(json)?)),
        "result" => ServerFrame::Result {
            tag: json.u64_field("tag")?,
            output: WireOutput {
                label: json.str_field("label")?.to_string(),
                point: json.str_field("point")?.to_string(),
                cache_hit: json
                    .field("cache_hit")?
                    .as_bool()
                    .ok_or_else(|| JsonError::schema("field `cache_hit`: expected a bool"))?,
                latency_ms: json.f64_field("latency_ms")?,
                trace_id: optional_trace_id(json)?,
                reports: reports_from_json(json.array_field("reports")?)?,
            },
        },
        "error" => ServerFrame::Error {
            tag: match json.field("tag")? {
                Json::Null => None,
                value => Some(
                    value
                        .as_u64()
                        .ok_or_else(|| JsonError::schema("field `tag`: expected a tag or null"))?,
                ),
            },
            trace_id: optional_trace_id(json)?,
            error: WireError::from_json(json.field("error")?)?,
        },
        "metrics" => ServerFrame::Metrics {
            tag: json.u64_field("tag")?,
            metrics: MetricsSnapshot::from_json(json.field("metrics")?)?,
        },
        "trace" => ServerFrame::Trace {
            tag: json.u64_field("tag")?,
            capture: Box::new(Capture::from_json(json.field("capture")?)?),
        },
        "bye" => ServerFrame::Bye,
        other => return Err(JsonError::schema(format!("unknown frame type `{other}`"))),
    })
}

/// Decodes a reply's reports into a vector of exactly their number. A
/// `collect` through `Result` starts at capacity 4, so a client that
/// keeps its replies would hold twice the report memory of a two-run
/// request.
fn reports_from_json(items: &[Json]) -> Result<Vec<ExecutionReport>, JsonError> {
    let mut reports = Vec::with_capacity(items.len());
    for item in items {
        reports.push(ExecutionReport::from_json(item)?);
    }
    Ok(reports)
}

/// Reads the optional v3 `trace_id` field: absent or `null` means none
/// (a pre-v3 peer), a present string must parse as a trace identity.
fn optional_trace_id(json: &Json) -> Result<Option<TraceId>, JsonError> {
    match json.get("trace_id") {
        None | Some(Json::Null) => Ok(None),
        Some(value) => {
            let text = value
                .as_str()
                .ok_or_else(|| JsonError::schema("field `trace_id`: expected a string or null"))?;
            TraceId::parse(text)
                .map(Some)
                .ok_or_else(|| JsonError::schema("field `trace_id`: expected 16 hex digits"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_serve::QuotaConfig;

    fn sample_circuit() -> Arc<Circuit> {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rzz(1, 2, 0.37).rz(2, -1.25);
        Arc::new(c)
    }

    #[test]
    fn submit_frames_round_trip_structured_circuits() {
        let circuit = sample_circuit();
        let submission =
            Submission::structured("probe", Arc::clone(&circuit), "paper", Design::AdaptBuf)
                .runs(4)
                .base_seed(99);
        let frame = submit_frame(7, &submission);
        // The in-memory circuit travels as its QASM text.
        let qasm = dqc_circuit::to_qasm(&circuit);
        assert_eq!(
            frame.get("circuit").and_then(Json::as_str),
            Some(qasm.as_str())
        );
        let reparsed = Json::parse(&frame.to_compact_string()).unwrap();
        match parse_client_frame(reparsed).unwrap() {
            ClientFrame::Submit { tag, submission } => {
                assert_eq!(tag, 7);
                assert_eq!(submission.label, "probe");
                assert_eq!(submission.point, "paper");
                assert_eq!(submission.design, Design::AdaptBuf);
                assert_eq!(submission.runs, 4);
                assert_eq!(submission.base_seed, 99);
                let realized = submission.to_eval_request().unwrap().circuit;
                assert_eq!(realized.fingerprint(), circuit.fingerprint());
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn qasm_submissions_realize_to_the_same_fingerprint() {
        let circuit = sample_circuit();
        let submission = Submission::qasm(
            "probe",
            dqc_circuit::to_qasm(&circuit),
            "paper",
            Design::Original,
        );
        let frame = submit_frame(1, &submission);
        match parse_client_frame(frame).unwrap() {
            ClientFrame::Submit { submission, .. } => {
                let realized = submission.to_eval_request().unwrap().circuit;
                assert_eq!(realized.fingerprint(), circuit.fingerprint());
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn broken_qasm_surfaces_its_line_through_realize() {
        let submission = Submission::qasm(
            "broken",
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
            "paper",
            Design::Original,
        );
        let err = submission.to_eval_request().unwrap_err();
        match &err {
            WireError::BadRequest { line, .. } => assert_eq!(*line, Some(3)),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // And the error survives the wire.
        let back = WireError::from_json(&err.to_json()).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn zero_runs_are_refused_before_reaching_the_server() {
        let submission =
            Submission::structured("z", sample_circuit(), "paper", Design::Original).runs(0);
        let err = submission.to_eval_request().unwrap_err();
        assert!(matches!(err, WireError::BadRequest { .. }), "{err}");
    }

    #[test]
    fn every_error_kind_round_trips() {
        let errors = [
            WireError::Overloaded {
                point: "paper".into(),
                capacity: 64,
            },
            WireError::QuotaExceeded {
                client: "greedy".into(),
                scope: QuotaScope::InFlight,
                limit: 2.0,
            },
            WireError::QuotaExceeded {
                client: "greedy".into(),
                scope: QuotaScope::Rate,
                limit: 0.5,
            },
            WireError::BadRequest {
                message: "unsupported gate frobnicate".into(),
                line: Some(3),
            },
            WireError::BadRequest {
                message: "runs must be at least 1".into(),
                line: None,
            },
            WireError::UnknownPoint {
                point: "paper128".into(),
            },
            WireError::Rejected {
                point: "paper".into(),
                diagnostics: vec![Diagnostic::new(
                    "DQC-E001",
                    dqc_types::Site::Circuit("wide".to_string()),
                    "40 qubits exceed 32",
                    "shrink the circuit",
                )],
            },
            WireError::Engine {
                message: "boom".into(),
            },
            WireError::Protocol {
                message: "unknown frame type `nope`".into(),
            },
        ];
        for err in errors {
            let json = Json::parse(&err.to_json().to_compact_string()).unwrap();
            assert_eq!(WireError::from_json(&json).unwrap(), err);
            assert!(!err.to_string().is_empty());
        }
        let retryable = WireError::Overloaded {
            point: "p".into(),
            capacity: 1,
        };
        assert!(retryable.is_backpressure());
        assert!(!bad_request("x").is_backpressure());
    }

    #[test]
    fn hello_and_welcome_round_trip() {
        let hello = hello_frame("bench-0");
        match parse_client_frame(hello).unwrap() {
            ClientFrame::Hello { protocol, client } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(client, "bench-0");
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        let welcome = Welcome {
            protocol: PROTOCOL_VERSION,
            server: SERVER_NAME.to_string(),
            points: vec!["paper".into(), "paper64".into()],
            designs: Design::ALL.iter().map(|d| d.name().to_string()).collect(),
            config: ServeConfig {
                workers_per_shard: 3,
                quota: QuotaConfig {
                    max_in_flight: Some(8),
                    rate: None,
                },
                ..ServeConfig::default()
            },
        };
        let reparsed = Json::parse(&welcome.to_json().to_compact_string()).unwrap();
        match parse_server_frame(&reparsed).unwrap() {
            ServerFrame::Welcome(back) => {
                assert_eq!(back.protocol, welcome.protocol);
                assert_eq!(back.points, welcome.points);
                assert_eq!(back.designs, welcome.designs);
                assert_eq!(back.config.quota.max_in_flight, Some(8));
                assert_eq!(back.config, welcome.config);
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_types_are_protocol_errors() {
        let teleport = Json::object([("type", Json::from("teleport"))]);
        // `stats` was a command until v6; the `metrics` frame replaced it.
        let stats = Json::parse(r#"{"type":"stats","tag":1}"#).unwrap();
        for frame in [teleport, stats] {
            assert!(parse_server_frame(&frame).is_err());
            let err = parse_client_frame(frame).unwrap_err();
            assert!(matches!(err, WireError::Protocol { .. }), "{err}");
        }
    }

    #[test]
    fn metrics_and_trace_requests_parse() {
        match parse_client_frame(metrics_frame(4)).unwrap() {
            ClientFrame::Metrics { tag } => assert_eq!(tag, 4),
            other => panic!("expected Metrics, got {other:?}"),
        }
        match parse_client_frame(trace_frame(9)).unwrap() {
            ClientFrame::Trace { tag } => assert_eq!(tag, 9),
            other => panic!("expected Trace, got {other:?}"),
        }
    }

    #[test]
    fn metrics_reply_round_trips_the_snapshot() {
        let registry = dqc_obs::Registry::new();
        registry.counter("served.connections_accepted").add(3);
        registry
            .histogram("serve.service_us{point=paper}", &[100, 1000])
            .record(250);
        let snapshot = registry.snapshot();
        let frame = metrics_reply_frame(11, &snapshot);
        let reparsed = Json::parse(&frame.to_compact_string()).unwrap();
        match parse_server_frame(&reparsed).unwrap() {
            ServerFrame::Metrics { tag, metrics } => {
                assert_eq!(tag, 11);
                assert_eq!(metrics, snapshot);
                assert_eq!(metrics.counter("served.connections_accepted"), Some(3));
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn trace_reply_round_trips_the_capture() {
        use dqc_obs::Recorder as _;
        let ring = dqc_obs::RingRecorder::new(8);
        ring.record_span(dqc_obs::SpanRecord {
            trace: TraceId(0x1234),
            id: dqc_obs::SpanId(1),
            parent: None,
            name: "serve.request".to_string(),
            start_us: 10,
            end_us: 90,
            attrs: vec![("point".to_string(), dqc_obs::AttrValue::Str("paper".into()))],
        });
        let capture =
            Capture::from_ring(SERVER_NAME, "monotonic", &ring, MetricsSnapshot::default());
        let frame = trace_reply_frame(2, &capture);
        let reparsed = Json::parse(&frame.to_compact_string()).unwrap();
        match parse_server_frame(&reparsed).unwrap() {
            ServerFrame::Trace { tag, capture: back } => {
                assert_eq!(tag, 2);
                assert_eq!(*back, capture);
                assert_eq!(back.traces(), vec![TraceId(0x1234)]);
            }
            other => panic!("expected Trace, got {other:?}"),
        }
    }

    #[test]
    fn results_and_errors_echo_their_trace_id() {
        let trace = TraceId(0xabcdef);
        let output = WireOutput {
            label: "bell".into(),
            point: "paper".into(),
            cache_hit: true,
            latency_ms: 1.5,
            trace_id: Some(trace),
            reports: Vec::new(),
        };
        let reparsed = Json::parse(&result_frame(3, &output).to_compact_string()).unwrap();
        match parse_server_frame(&reparsed).unwrap() {
            ServerFrame::Result { tag, output } => {
                assert_eq!(tag, 3);
                assert_eq!(output.trace_id, Some(trace));
            }
            other => panic!("expected Result, got {other:?}"),
        }

        let err = bad_request("nope");
        let with =
            Json::parse(&error_frame(Some(8), &err, Some(trace)).to_compact_string()).unwrap();
        match parse_server_frame(&with).unwrap() {
            ServerFrame::Error { tag, trace_id, .. } => {
                assert_eq!(tag, Some(8));
                assert_eq!(trace_id, Some(trace));
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // Absent and null both mean "no trace" (pre-v3 peers).
        let without = Json::parse(&error_frame(None, &err, None).to_compact_string()).unwrap();
        match parse_server_frame(&without).unwrap() {
            ServerFrame::Error { trace_id, .. } => assert_eq!(trace_id, None),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_trace_ids_are_schema_errors() {
        let mut frame = error_frame(Some(1), &bad_request("x"), None);
        if let Json::Object(members) = &mut frame {
            for (key, value) in members.iter_mut() {
                if key == "trace_id" {
                    *value = Json::from("not-hex");
                }
            }
        }
        assert!(parse_server_frame(&frame).is_err());
    }
}
