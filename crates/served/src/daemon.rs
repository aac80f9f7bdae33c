//! The daemon itself: a TCP front door on the serving layer.
//!
//! [`ServedBuilder`] wraps [`ServeBuilder`] — same shard registration,
//! same worker/queue/cache knobs — and adds the network surface (a bound
//! listener) and the multi-tenant [`QuotaConfig`](crate::QuotaConfig).
//! [`bind`] spawns, beside the serving layer's workers:
//!
//! * one **accept thread** handing sockets to per-connection threads,
//! * per connection, a **reader thread** (handshake, frame dispatch,
//!   quota admission, submission) and a **writer thread** (serializing
//!   outbound frames, so a slow client never blocks a worker).
//!
//! Each accepted submission carries its reply: the worker that serves
//! it releases the client's quota slot and queues the `result` frame on
//! the connection's writer. Everything is plain `std` threads and
//! channels — no async runtime — matching the serving layer underneath.
//!
//! A submit's QASM text is parsed on its reader thread, after quota
//! admission. Most submits resend a text the daemon has parsed before,
//! so the daemon keeps a bounded parse cache beside its shards' compile
//! caches (see `parse_cache`): a text equal byte for byte to a cached
//! one reuses that circuit, parse-free. It holds at most
//! `cache_capacity × points` texts of up to 64 KiB each, and never a
//! failed parse.
//!
//! Ordering: replies to one connection arrive in *completion* order;
//! clients correlate by tag. Admission errors (`quota_exceeded`,
//! `overloaded`, `bad_request`) are answered inline from the reader
//! thread, so a refused request never consumes shard-queue space.
//!
//! Every accepted socket has `TCP_NODELAY` set, as [`ServedClient`]
//! sets it on its end, so each frame leaves when the writer flushes it.
//! With Nagle's algorithm on, a small frame written while an earlier one
//! is still unacknowledged waits for that ACK, which the client delays
//! until its next submit; that wait was most of a warm request's round
//! trip.
//!
//! [`bind`]: ServedBuilder::bind
//! [`ServedClient`]: crate::ServedClient

use crate::frame::{read_frame, write_frame, FrameError};
use crate::parse_cache::ParseCache;
use crate::protocol::{
    bye_frame, error_frame, metrics_reply_frame, parse_client_frame, parse_qasm, result_frame,
    trace_reply_frame, ClientFrame, Submission, Welcome, WireError, WireOutput, PROTOCOL_VERSION,
    SERVER_NAME,
};
use crate::quota::AdmissionLedger;
use dqc_circuit::Circuit;
use dqc_core::{Design, SystemConfig};
use dqc_obs::{Capture, Counter, Registry, RingRecorder, TraceId};
use dqc_serve::{
    EvalResponse, RateLimit, ServeBuilder, ServeConfig, ServeError, ServeStats, Server,
};
use dqc_types::Json;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything that can stop a daemon from coming up.
#[derive(Debug)]
pub enum ServedError {
    /// Binding the listener (or cloning a socket) failed.
    Io(io::Error),
    /// The serving layer refused to spawn (no points, duplicate label,
    /// an invalid configuration).
    Serve(ServeError),
}

impl fmt::Display for ServedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServedError::Io(e) => write!(f, "daemon i/o failed: {e}"),
            ServedError::Serve(e) => write!(f, "serving layer failed: {e}"),
        }
    }
}

impl Error for ServedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServedError::Io(e) => Some(e),
            ServedError::Serve(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServedError {
    fn from(e: io::Error) -> Self {
        ServedError::Io(e)
    }
}

impl From<ServeError> for ServedError {
    fn from(e: ServeError) -> Self {
        ServedError::Serve(e)
    }
}

/// Configures and binds a [`Served`] daemon.
///
/// # Examples
///
/// ```
/// use dqc_core::SystemConfig;
/// use dqc_served::ServedBuilder;
///
/// # fn main() -> Result<(), dqc_served::ServedError> {
/// let daemon = ServedBuilder::new()
///     .hardware_point("paper", SystemConfig::paper_two_node_32())
///     .workers_per_shard(2)
///     .max_in_flight(8)
///     .bind("127.0.0.1:0")?;
/// println!("listening on {}", daemon.local_addr());
/// let report = daemon.shutdown();
/// assert_eq!(report.serve.served, 0);
/// assert_eq!(report.daemon.connections_accepted, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServedBuilder {
    serve: ServeBuilder,
    trace_ring: Option<Arc<RingRecorder>>,
}

impl Default for ServedBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServedBuilder {
    /// Starts a builder with the serving layer's defaults and no quotas.
    /// Every knob — including the daemon-enforced quotas — lives in the
    /// wrapped [`ServeBuilder`]'s [`ServeConfig`]; the setters here are
    /// shims over it.
    pub fn new() -> Self {
        Self {
            serve: ServeBuilder::new(),
            trace_ring: None,
        }
    }

    /// Replaces the whole serving configuration in one move — the
    /// `--config FILE.json` path.
    #[must_use]
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.serve = self.serve.config(config);
        self
    }

    /// The configuration as accumulated so far.
    pub fn config_ref(&self) -> &ServeConfig {
        self.serve.config_ref()
    }

    /// Registers a named hardware point; submissions target it by label.
    #[must_use]
    pub fn hardware_point(mut self, label: impl Into<String>, config: SystemConfig) -> Self {
        self.serve = self.serve.hardware_point(label, config);
        self
    }

    /// Sets the worker threads per shard (see
    /// [`ServeBuilder::workers_per_shard`]; `0` is the accept-only
    /// diagnostic mode admission tests rely on).
    #[must_use]
    pub fn workers_per_shard(mut self, workers: usize) -> Self {
        self.serve = self.serve.workers_per_shard(workers);
        self
    }

    /// Sets each shard's queue capacity (the `overloaded` bound).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.serve = self.serve.queue_capacity(capacity);
        self
    }

    /// Sets each shard's warm-compilation cache capacity.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.serve = self.serve.cache_capacity(capacity);
        self
    }

    /// Caps each client identity at `max` simultaneously in-flight
    /// requests (`quota_exceeded` / `in_flight` beyond it).
    #[must_use]
    pub fn max_in_flight(self, max: usize) -> Self {
        let mut config = *self.config_ref();
        config.quota.max_in_flight = Some(max);
        self.config(config)
    }

    /// Rate-limits each client identity to `per_sec` sustained
    /// submissions per second with an instantaneous burst of `burst`
    /// (`quota_exceeded` / `rate` beyond it).
    #[must_use]
    pub fn rate_limit(self, per_sec: f64, burst: f64) -> Self {
        let mut config = *self.config_ref();
        config.quota.rate = Some(RateLimit { per_sec, burst });
        self.config(config)
    }

    /// Attaches the span ring the daemon copies to answer `trace`
    /// frames. The daemon does **not** install it: the caller decides
    /// when recording is on by pairing the same ring with
    /// [`dqc_obs::install`]. Without a ring, `trace` replies carry an
    /// empty capture (metrics only).
    #[must_use]
    pub fn trace_ring(mut self, ring: Arc<RingRecorder>) -> Self {
        self.trace_ring = Some(ring);
        self
    }

    /// Binds the listener, spawns the serving layer and the daemon's
    /// threads, and returns the running daemon.
    ///
    /// Bind to port `0` to let the OS pick a free port;
    /// [`Served::local_addr`] reports the resolved address.
    ///
    /// # Errors
    ///
    /// [`ServedError::Io`] if the listener cannot bind,
    /// [`ServedError::Serve`] if the shard registration or the
    /// configuration is invalid (see [`ServeBuilder::spawn`]).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<Served, ServedError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let quota = self.serve.config_ref().quota;
        let server = Arc::new(self.serve.spawn()?);
        // The daemon's counters live in the serving layer's registry, so
        // the `metrics` wire frame is one snapshot covering both layers.
        let counters = Counters::register(&server.registry());
        // As many parsed texts as the shards hold compilations.
        let parses = server
            .config()
            .cache_capacity
            .saturating_mul(server.points().count());
        let shared = Arc::new(Shared {
            ledger: AdmissionLedger::new(quota),
            parses: Mutex::new(ParseCache::new(parses)),
            counters,
            trace_ring: self.trace_ring,
            closing: AtomicBool::new(false),
            epoch: Instant::now(),
            conns: Mutex::new(BTreeMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            let server = Arc::clone(&server);
            std::thread::spawn(move || accept_loop(&listener, &server, &shared))
        };

        Ok(Served {
            local_addr,
            server,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running daemon. Keep the handle; [`shutdown`](Served::shutdown) is
/// the only orderly way down (dropping the handle without it leaves the
/// accept thread parked until process exit).
#[derive(Debug)]
pub struct Served {
    local_addr: SocketAddr,
    server: Arc<Server>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Served {
    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving layer's counters, summed over its shards.
    pub fn serve_stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// The daemon's own live counters.
    pub fn daemon_stats(&self) -> DaemonStats {
        self.shared.counters.snapshot()
    }

    /// One snapshot of the shared metrics registry: the serving layer's
    /// per-shard `serve.*` metrics plus the daemon's `served.*`
    /// connection counters — exactly what the `metrics` wire frame
    /// returns.
    pub fn metrics(&self) -> dqc_obs::MetricsSnapshot {
        self.server.metrics()
    }

    /// Gracefully shuts the daemon down: stops accepting, severs open
    /// connections, drains the serving layer, and returns the final
    /// [`ShutdownReport`]. Each drained request's reply releases its
    /// quota slot; its frame finds the connection gone and is dropped.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.closing.store(true, Ordering::SeqCst);
        // Wake the accept thread; the drop of this probe connection is
        // what it sees.
        drop(TcpStream::connect(self.local_addr));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Sever every connection; readers see EOF and exit.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .expect("connection registry poisoned"),
        );
        for stream in conns.into_values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let conn_threads: Vec<_> = self
            .shared
            .conn_threads
            .lock()
            .expect("connection threads poisoned")
            .drain(..)
            .collect();
        for thread in conn_threads {
            let _ = thread.join();
        }
        let server = Arc::try_unwrap(self.server)
            .expect("accept and connection threads released their server handles");
        // Draining calls every queued reply, and shutdown drops the
        // queues with their writer handles, so the writer threads exit.
        let serve = server.shutdown();
        ShutdownReport {
            serve,
            daemon: self.shared.counters.snapshot(),
        }
    }
}

/// Everything [`Served::shutdown`] hands back: the serving layer's final
/// stats and the daemon's own counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// Final serving-layer counters.
    pub serve: ServeStats,
    /// Final daemon counters.
    pub daemon: DaemonStats,
}

/// State shared by the accept and reader threads and by the replies of
/// accepted submissions (the writer threads deliberately hold none of
/// it, so they can outlive shutdown briefly without pinning the daemon).
///
/// The parse cache (`parses`) is the daemon's, not a connection's, so a
/// text parsed for one client is reused for every other.
///
/// The connection registry (`conns`) exists so shutdown can sever live
/// sockets; each entry is a dup'd descriptor, so a connection *must*
/// remove its entry when it ends — otherwise the kernel keeps the
/// socket open (no FIN for the peer) and the daemon leaks a descriptor
/// per connection for its whole lifetime.
#[derive(Debug)]
struct Shared {
    ledger: AdmissionLedger,
    parses: Mutex<ParseCache>,
    counters: Counters,
    trace_ring: Option<Arc<RingRecorder>>,
    closing: AtomicBool,
    epoch: Instant,
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The circuit a submitted QASM text describes: the cached parse of
    /// an identical text, or a fresh parse, cached when it succeeds. The
    /// lock is not held while parsing.
    fn parse(&self, text: String) -> Result<Arc<Circuit>, WireError> {
        let cached = self.parses.lock().expect("parse cache poisoned").get(&text);
        if let Some(circuit) = cached {
            return Ok(circuit);
        }
        let circuit = Arc::new(parse_qasm(&text)?);
        self.parses
            .lock()
            .expect("parse cache poisoned")
            .insert(text, Arc::clone(&circuit));
        Ok(circuit)
    }
}

/// The daemon's own counters, read by [`Served::daemon_stats`] and
/// carried by the `metrics` frame under the same `served.*` names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonStats {
    /// Connections accepted since the daemon started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Submissions refused by a per-client quota.
    pub quota_rejected: u64,
    /// Submissions refused as malformed (`bad_request`).
    pub bad_requests: u64,
    /// Frames that broke the protocol (connection then closed).
    pub protocol_errors: u64,
}

/// The daemon's counters, as handles into the serving layer's metrics
/// registry (`served.*` names). `connections_active` is derived from the
/// two monotone counters so every registered metric stays monotone —
/// the metrics-frame regression tests rely on that.
#[derive(Debug)]
struct Counters {
    connections_accepted: Arc<Counter>,
    connections_closed: Arc<Counter>,
    quota_rejected: Arc<Counter>,
    bad_requests: Arc<Counter>,
    protocol_errors: Arc<Counter>,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Self {
            connections_accepted: registry.counter("served.connections_accepted"),
            connections_closed: registry.counter("served.connections_closed"),
            quota_rejected: registry.counter("served.quota_rejected"),
            bad_requests: registry.counter("served.bad_requests"),
            protocol_errors: registry.counter("served.protocol_errors"),
        }
    }

    fn snapshot(&self) -> DaemonStats {
        // Read `closed` first: a connection retiring between the two
        // loads can only make `active` read high, never underflow.
        let closed = self.connections_closed.get();
        let accepted = self.connections_accepted.get();
        DaemonStats {
            connections_accepted: accepted,
            connections_active: accepted.saturating_sub(closed),
            quota_rejected: self.quota_rejected.get(),
            bad_requests: self.bad_requests.get(),
            protocol_errors: self.protocol_errors.get(),
        }
    }
}

/// The reply an accepted submission carries. The worker that serves the
/// request calls it: it releases the client's quota slot and queues the
/// `result` (or engine `error`) frame, stamped with the request's tag
/// and trace, on the connection's writer.
fn reply(
    shared: &Arc<Shared>,
    client: &str,
    tag: u64,
    trace: TraceId,
    writer: &Sender<Json>,
) -> impl FnOnce(EvalResponse) + Send + 'static {
    let (shared, client, writer) = (Arc::clone(shared), client.to_string(), writer.clone());
    move |response| {
        shared.ledger.release(&client);
        let frame = match response.outcome {
            Ok(output) => result_frame(
                tag,
                &WireOutput {
                    label: response.circuit_label,
                    point: response.point,
                    cache_hit: response.cache_hit,
                    latency_ms: response.latency.as_secs_f64() * 1e3,
                    trace_id: Some(trace),
                    reports: output.reports,
                },
            ),
            Err(e) => error_frame(Some(tag), &WireError::from_serve(e), Some(trace)),
        };
        // A send failure means the connection is gone; the result is
        // simply dropped.
        let _ = writer.send(frame);
    }
}

fn accept_loop(listener: &TcpListener, server: &Arc<Server>, shared: &Arc<Shared>) {
    let mut next_conn_id = 0u64;
    for stream in listener.incoming() {
        if shared.closing.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Nagle off, so each frame leaves when the writer flushes it (see
        // the module docs). The option is the socket's, so the clones
        // below share it; failing to set it costs latency, never an answer.
        let _ = stream.set_nodelay(true);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared.counters.connections_accepted.bump();
        shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .insert(conn_id, registered);
        let server = Arc::clone(server);
        let shared_for_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            connection_loop(stream, &server, &shared_for_conn);
            // Drop the registry's descriptor so the socket actually
            // closes (FIN) once the reader and writer halves are gone.
            shared_for_conn
                .conns
                .lock()
                .expect("connection registry poisoned")
                .remove(&conn_id);
            shared_for_conn.counters.connections_closed.bump();
        });
        let mut threads = shared
            .conn_threads
            .lock()
            .expect("connection threads poisoned");
        // Reap finished connection threads as new ones arrive, so a
        // long-lived daemon's bookkeeping stays proportional to *live*
        // connections, not to every connection it ever served.
        let mut live = Vec::with_capacity(threads.len() + 1);
        for thread in threads.drain(..) {
            if thread.is_finished() {
                let _ = thread.join();
            } else {
                live.push(thread);
            }
        }
        live.push(handle);
        *threads = live;
    }
}

/// One connection's reader side: handshake, then frame dispatch until
/// `bye`, disconnect, or a fatal protocol error.
fn connection_loop(stream: TcpStream, server: &Arc<Server>, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = channel::<Json>();
    // The writer owns the outbound half so a slow or dead client never
    // blocks a serving worker; it exits when every reply handle drops or
    // the socket breaks. It holds no daemon state.
    std::thread::spawn(move || {
        let mut writer = BufWriter::new(write_half);
        while let Ok(frame) = reply_rx.recv() {
            if write_frame(&mut writer, &frame).is_err() {
                break;
            }
        }
    });

    let mut reader = BufReader::new(stream);

    // Handshake: the first frame must be a matching `hello`.
    let Ok(first) = read_frame(&mut reader) else {
        return;
    };
    let client = match parse_client_frame(first) {
        Ok(ClientFrame::Hello { protocol, client }) => {
            if protocol == PROTOCOL_VERSION {
                client
            } else {
                let error = WireError::Protocol {
                    message: format!(
                        "protocol version mismatch: client speaks {protocol}, server speaks {PROTOCOL_VERSION}"
                    ),
                };
                shared.counters.protocol_errors.bump();
                let _ = reply_tx.send(error_frame(None, &error, None));
                return;
            }
        }
        _ => {
            shared.counters.protocol_errors.bump();
            let error = WireError::Protocol {
                message: "expected a `hello` frame first".to_string(),
            };
            let _ = reply_tx.send(error_frame(None, &error, None));
            return;
        }
    };
    let welcome = Welcome {
        protocol: PROTOCOL_VERSION,
        server: SERVER_NAME.to_string(),
        points: server.points().map(str::to_string).collect(),
        designs: Design::ALL.iter().map(|d| d.name().to_string()).collect(),
        config: *server.config(),
    };
    if reply_tx.send(welcome.to_json()).is_err() {
        return;
    }

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => break,
            Err(FrameError::Io(_)) => break,
            Err(e @ (FrameError::TooLarge { .. } | FrameError::BadPayload(_))) => {
                shared.counters.protocol_errors.bump();
                let error = WireError::Protocol {
                    message: e.to_string(),
                };
                let _ = reply_tx.send(error_frame(None, &error, None));
                break;
            }
        };
        // Recover the tag even from frames that fail to parse, so the
        // error reply still lands on the right request.
        let tag_hint = frame.get("tag").and_then(Json::as_u64);
        match parse_client_frame(frame) {
            Ok(ClientFrame::Submit { tag, submission }) => {
                handle_submit(tag, submission, &client, &reply_tx, server, shared);
            }
            Ok(ClientFrame::Metrics { tag }) => {
                let frame = metrics_reply_frame(tag, &server.metrics());
                if reply_tx.send(frame).is_err() {
                    break;
                }
            }
            Ok(ClientFrame::Trace { tag }) => {
                // Without a configured ring the capture is still well
                // formed — just span-free — so `trace` never errors.
                let capture = match &shared.trace_ring {
                    Some(ring) => {
                        Capture::from_ring(SERVER_NAME, "monotonic", ring, server.metrics())
                    }
                    None => Capture {
                        producer: SERVER_NAME.to_string(),
                        clock: "none".to_string(),
                        spans: Vec::new(),
                        events: Vec::new(),
                        metrics: server.metrics(),
                    },
                };
                if reply_tx.send(trace_reply_frame(tag, &capture)).is_err() {
                    break;
                }
            }
            Ok(ClientFrame::Bye) => {
                let _ = reply_tx.send(bye_frame());
                break;
            }
            Ok(ClientFrame::Hello { .. }) => {
                shared.counters.protocol_errors.bump();
                let error = WireError::Protocol {
                    message: "duplicate `hello`".to_string(),
                };
                let _ = reply_tx.send(error_frame(None, &error, None));
                break;
            }
            Err(error @ WireError::Protocol { .. }) => {
                shared.counters.protocol_errors.bump();
                let _ = reply_tx.send(error_frame(tag_hint, &error, None));
                break;
            }
            Err(error) => {
                // A malformed submit is an answerable mistake, not a
                // broken conversation: reply and keep the session.
                shared.counters.bad_requests.bump();
                if reply_tx.send(error_frame(tag_hint, &error, None)).is_err() {
                    break;
                }
            }
        }
    }
}

/// Admission pipeline for one submission: quota, then decode/parse
/// (through the parse cache), then the shard queue. Refusals are
/// answered inline; an accepted submission carries its [`reply`] into
/// the queue.
fn handle_submit(
    tag: u64,
    submission: Submission,
    client: &str,
    reply_tx: &Sender<Json>,
    server: &Arc<Server>,
    shared: &Arc<Shared>,
) {
    if let Err(error) = shared.ledger.admit(client, shared.now_micros()) {
        shared.counters.quota_rejected.bump();
        let _ = reply_tx.send(error_frame(Some(tag), &error, None));
        return;
    }
    // Admitted: the submission owns a trace identity from here on —
    // echoed on its eventual `result` or `error` frame and threaded
    // through the serving layer's span tree when a recorder is
    // installed. Every exit below either hands the slot to the reply
    // (released when the request is served) or releases it itself.
    let trace = TraceId::mint();
    let request = match submission.into_eval_request(|text| shared.parse(text)) {
        Ok(request) => request.trace(trace),
        Err(error) => {
            shared.ledger.release(client);
            shared.counters.bad_requests.bump();
            let _ = reply_tx.send(error_frame(Some(tag), &error, Some(trace)));
            return;
        }
    };
    // Static admission analysis: prove the submission can compile on its
    // target point before it costs queue space or a worker. Only the
    // cheap O(ops) subset runs on the wire path.
    if let Some(config) = server.point_config(&request.point) {
        let report = dqc_analyze::Analyzer::new().analyze_admission(
            &request.circuit_label,
            request.circuit.as_ref(),
            config,
        );
        if report.has_errors() {
            shared.ledger.release(client);
            shared.counters.bad_requests.bump();
            let mut errors = report;
            errors.retain_errors();
            let error = WireError::Rejected {
                point: request.point.clone(),
                diagnostics: errors.into_diagnostics(),
            };
            let _ = reply_tx.send(error_frame(Some(tag), &error, Some(trace)));
            return;
        }
    }
    if let Err(e) = server.submit(request, reply(shared, client, tag, trace, reply_tx)) {
        shared.ledger.release(client);
        let _ = reply_tx.send(error_frame(
            Some(tag),
            &WireError::from_serve(e),
            Some(trace),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServedClient;

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let daemon = ServedBuilder::new()
            .hardware_point("paper", SystemConfig::paper_two_node_32())
            .workers_per_shard(0)
            .bind("127.0.0.1:0")
            .unwrap();
        // The accept thread registers a socket before its connection
        // thread sends `welcome`, so a finished handshake means the
        // registry holds it.
        let client = ServedClient::connect(daemon.local_addr(), "nodelay").unwrap();
        let nodelay: Vec<_> = daemon
            .shared
            .conns
            .lock()
            .unwrap()
            .values()
            .map(|stream| stream.nodelay().ok())
            .collect();
        assert_eq!(nodelay, [Some(true)], "accepted socket keeps Nagle on");
        client.bye().unwrap();
        daemon.shutdown();
    }

    /// A daemon serving `points` (each the paper's two-node machine).
    fn daemon(points: &[&str], cache_capacity: usize, workers: usize) -> Served {
        points
            .iter()
            .fold(ServedBuilder::new(), |builder, point| {
                builder.hardware_point(*point, SystemConfig::paper_two_node_32())
            })
            .cache_capacity(cache_capacity)
            .workers_per_shard(workers)
            .bind("127.0.0.1:0")
            .unwrap()
    }

    /// A one-qubit program whose `rz` angle is `angle`, written verbatim.
    fn rz_program(angle: &str) -> String {
        format!("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];\nmeasure q[0] -> c[0];\n")
    }

    fn cached(daemon: &Served) -> usize {
        daemon.shared.parses.lock().unwrap().len()
    }

    #[test]
    fn a_resubmitted_text_reuses_its_circuit_and_reply() {
        let daemon = daemon(&["paper"], 4, 1);
        let text = dqc_circuit::to_qasm(&dqc_workloads::qft(6));
        let first = daemon.shared.parse(text.clone()).unwrap();
        let again = daemon.shared.parse(text.clone()).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a cached text is parsed again");

        let mut client = ServedClient::connect(daemon.local_addr(), "resubmit").unwrap();
        let submission = Submission::qasm("qft6", text, "paper", Design::AdaptBuf)
            .runs(2)
            .base_seed(7);
        let mut outputs = Vec::new();
        for _ in 0..3 {
            client.submit(&submission).unwrap();
            outputs.push(client.recv_reply().unwrap().outcome.unwrap());
        }
        // The first submit compiled the circuit; the next two are warm
        // and answer alike, down to every report.
        let warm = |o: &WireOutput| (o.label.clone(), o.cache_hit, o.reports.clone());
        assert_eq!(warm(&outputs[1]), warm(&outputs[2]));
        assert!(outputs[2].cache_hit);
        assert_eq!(outputs[0].reports, outputs[2].reports);
        assert_eq!(cached(&daemon), 1);
        client.bye().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn texts_differing_in_one_angle_digit_are_two_circuits() {
        let daemon = daemon(&["paper"], 4, 0);
        let (low, high) = (rz_program("0.25"), rz_program("0.35"));
        assert_eq!(low.len(), high.len());
        let a = daemon.shared.parse(low.clone()).unwrap();
        let b = daemon.shared.parse(high).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.operations(), b.operations());
        assert_eq!(cached(&daemon), 2);
        assert!(Arc::ptr_eq(&a, &daemon.shared.parse(low).unwrap()));
        daemon.shutdown();
    }

    #[test]
    fn a_failed_parse_is_answered_with_its_line_every_time_and_never_cached() {
        let daemon = daemon(&["paper"], 4, 1);
        let mut client = ServedClient::connect(daemon.local_addr(), "broken").unwrap();
        let broken = Submission::qasm(
            "broken",
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
            "paper",
            Design::Original,
        );
        for _ in 0..2 {
            client.submit(&broken).unwrap();
            match client.recv_reply().unwrap().outcome {
                Err(WireError::BadRequest { message, line }) => {
                    assert_eq!(message, "unsupported gate frobnicate");
                    assert_eq!(line, Some(3));
                }
                other => panic!("expected a bad_request, got {other:?}"),
            }
        }
        assert_eq!(cached(&daemon), 0);
        client.bye().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn the_cache_holds_at_most_cache_capacity_times_points() {
        let daemon = daemon(&["paper", "twin"], 2, 0);
        let texts: Vec<String> = (0..10).map(|i| rz_program(&format!("0.{i}"))).collect();
        for text in &texts {
            daemon.shared.parse(text.clone()).unwrap();
            assert!(cached(&daemon) <= 4);
        }
        // The least recently used went first: the last four stay.
        let mut parses = daemon.shared.parses.lock().unwrap();
        let kept: Vec<bool> = texts.iter().map(|t| parses.get(t).is_some()).collect();
        assert_eq!(kept, [[false; 6].as_slice(), &[true; 4]].concat());
        drop(parses);
        daemon.shutdown();
    }

    #[test]
    fn texts_over_64_kib_are_not_cached() {
        let daemon = daemon(&["paper"], 4, 0);
        let mut text = String::from("OPENQASM 2.0;\nqreg q[1];\n");
        while text.len() <= crate::parse_cache::MAX_CACHED_TEXT_BYTES {
            text.push_str("h q[0];\n");
        }
        let first = daemon.shared.parse(text.clone()).unwrap();
        let again = daemon.shared.parse(text).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first, again);
        assert_eq!(cached(&daemon), 0);
        daemon.shutdown();
    }

    #[test]
    fn zero_cache_capacity_caches_nothing() {
        let daemon = daemon(&["paper"], 0, 0);
        let text = rz_program("0.5");
        let first = daemon.shared.parse(text.clone()).unwrap();
        let again = daemon.shared.parse(text).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(cached(&daemon), 0);
        daemon.shutdown();
    }
}
