//! A blocking client for the daemon's frame protocol.
//!
//! [`ServedClient`] is deliberately minimal: it speaks exactly the wire
//! vocabulary in [`protocol`](crate::protocol), pipelines submissions
//! (send many, then collect), and surfaces every refusal as the typed
//! [`WireError`] the daemon sent. The `serve_wire` benchmark and the
//! daemon tests drive their traffic through this type.
//!
//! Replies arrive in *completion* order, not submission order; correlate
//! them by the tag [`submit`](ServedClient::submit) returned.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{
    bye_frame, hello_frame, metrics_frame, parse_server_frame, submit_frame, trace_frame,
    ServerFrame, Submission, Welcome, WireError, WireReply,
};
use dqc_obs::{Capture, MetricsSnapshot};
use dqc_types::JsonError;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (I/O, framing, or payload garbage).
    Frame(FrameError),
    /// The server sent a frame outside the vocabulary — the peer is not
    /// a compatible daemon.
    Schema(JsonError),
    /// The server refused the *connection* (untagged fatal error, e.g. a
    /// protocol-version mismatch). Request-level errors are not this —
    /// they arrive as the `Err` side of a [`WireReply`].
    Fatal(WireError),
    /// The server said `bye` (or closed) while a reply was still awaited.
    ClosedByServer,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport failed: {e}"),
            ClientError::Schema(e) => write!(f, "unintelligible server frame: {e}"),
            ClientError::Fatal(e) => write!(f, "server refused the connection: {e}"),
            ClientError::ClosedByServer => f.write_str("server closed the connection"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            ClientError::Schema(e) => Some(e),
            ClientError::Fatal(e) => Some(e),
            ClientError::ClosedByServer => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Schema(e)
    }
}

/// A connected, handshaken session with a `dqc-served` daemon.
///
/// # Examples
///
/// Connect, submit one circuit twice (the second hits the daemon's warm
/// compile cache), and collect both replies:
///
/// ```no_run
/// use dqc_circuit::Circuit;
/// use dqc_core::Design;
/// use dqc_served::{ServedClient, Submission};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), dqc_served::ClientError> {
/// let mut client = ServedClient::connect("127.0.0.1:7878", "example")?;
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let submission =
///     Submission::structured("bell", Arc::new(bell), "paper", Design::AdaptBuf).runs(3);
/// client.submit(&submission)?;
/// client.submit(&submission.clone().base_seed(7))?;
/// for _ in 0..2 {
///     let reply = client.recv_reply()?;
///     let output = reply.outcome.expect("daemon served the request");
///     assert_eq!(output.reports.len(), 3);
/// }
/// client.bye()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    welcome: Welcome,
    next_tag: u64,
    pending: VecDeque<WireReply>,
}

impl ServedClient {
    /// Connects, sends `hello` under the given client identity (the
    /// daemon's quota key), and completes the handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Fatal`] if the daemon refuses the handshake, or a
    /// transport error.
    pub fn connect(addr: impl ToSocketAddrs, client_id: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        // Frames are small and latency-sensitive; don't let Nagle batch
        // them behind unrelated traffic.
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().map_err(FrameError::Io)?;
        let mut writer = BufWriter::new(write_half);
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, &hello_frame(client_id))?;
        let first = read_frame(&mut reader)?;
        match parse_server_frame(&first)? {
            ServerFrame::Welcome(welcome) => Ok(Self {
                reader,
                writer,
                welcome: *welcome,
                next_tag: 0,
                pending: VecDeque::new(),
            }),
            ServerFrame::Error { error, .. } => Err(ClientError::Fatal(error)),
            _ => Err(ClientError::Schema(JsonError::schema(
                "expected `welcome` or `error` after hello",
            ))),
        }
    }

    /// The daemon's `welcome` frame: served points, accepted designs,
    /// and the quota terms this client is admitted under.
    pub fn welcome(&self) -> &Welcome {
        &self.welcome
    }

    /// Sends one submission and returns the tag its reply will carry.
    /// Does not wait: pipeline as many as the quota allows, then collect
    /// with [`recv_reply`](ServedClient::recv_reply).
    ///
    /// # Errors
    ///
    /// Transport errors only; refusals arrive as the reply's `Err` side.
    pub fn submit(&mut self, submission: &Submission) -> Result<u64, ClientError> {
        let tag = self.next_tag;
        self.next_tag += 1;
        write_frame(&mut self.writer, &submit_frame(tag, submission))?;
        Ok(tag)
    }

    /// Receives the next reply (result or per-request error), in the
    /// daemon's completion order.
    ///
    /// # Errors
    ///
    /// [`ClientError::ClosedByServer`] if the daemon says `bye` first,
    /// [`ClientError::Fatal`] for untagged errors, or a transport error.
    pub fn recv_reply(&mut self) -> Result<WireReply, ClientError> {
        if let Some(reply) = self.pending.pop_front() {
            return Ok(reply);
        }
        loop {
            match self.read_server_frame()? {
                ServerFrame::Result { tag, output } => {
                    return Ok(WireReply {
                        tag,
                        outcome: Ok(output),
                    })
                }
                ServerFrame::Error {
                    tag: Some(tag),
                    error,
                    ..
                } => {
                    return Ok(WireReply {
                        tag,
                        outcome: Err(error),
                    })
                }
                ServerFrame::Error {
                    tag: None, error, ..
                } => return Err(ClientError::Fatal(error)),
                ServerFrame::Bye => return Err(ClientError::ClosedByServer),
                // A metrics/trace reply racing ahead of results is dropped
                // here; `metrics()` and `trace()` are the only senders of
                // those requests and each drains its own reply before
                // returning.
                ServerFrame::Metrics { .. }
                | ServerFrame::Trace { .. }
                | ServerFrame::Welcome(_) => {}
            }
        }
    }

    /// Requests and returns one snapshot of the daemon's metrics
    /// registry: the serving layer's per-shard `serve.*` metrics plus
    /// the daemon's `served.*` connection counters (protocol v3).
    /// Replies to earlier submissions that arrive first are buffered
    /// for [`recv_reply`](ServedClient::recv_reply).
    ///
    /// # Errors
    ///
    /// Same failure surface as [`recv_reply`](ServedClient::recv_reply).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let tag = self.next_tag;
        self.next_tag += 1;
        write_frame(&mut self.writer, &metrics_frame(tag))?;
        self.drain_until(tag, |frame, tag| match frame {
            ServerFrame::Metrics {
                tag: reply_tag,
                metrics,
            } if reply_tag == tag => ControlFlow::Break(metrics),
            other => ControlFlow::Continue(other),
        })
    }

    /// Requests and returns the daemon's current trace capture: the
    /// spans and events buffered in its configured trace ring, plus a
    /// metrics snapshot (protocol v3). Span-free when the daemon has no
    /// ring or no recorder is installed.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`recv_reply`](ServedClient::recv_reply).
    pub fn trace(&mut self) -> Result<Capture, ClientError> {
        let tag = self.next_tag;
        self.next_tag += 1;
        write_frame(&mut self.writer, &trace_frame(tag))?;
        self.drain_until(tag, |frame, tag| match frame {
            ServerFrame::Trace {
                tag: reply_tag,
                capture,
            } if reply_tag == tag => ControlFlow::Break(*capture),
            other => ControlFlow::Continue(other),
        })
    }

    /// Reads frames until `matches` claims one (an out-of-band reply to
    /// the request tagged `tag`), buffering submit replies that race
    /// ahead for [`recv_reply`](ServedClient::recv_reply). An unmatched
    /// frame is not an error — `ControlFlow::Continue` hands it back to
    /// keep draining.
    fn drain_until<T>(
        &mut self,
        tag: u64,
        matches: impl Fn(ServerFrame, u64) -> ControlFlow<T, ServerFrame>,
    ) -> Result<T, ClientError> {
        loop {
            let frame = self.read_server_frame()?;
            let unmatched = match matches(frame, tag) {
                ControlFlow::Break(value) => return Ok(value),
                ControlFlow::Continue(frame) => frame,
            };
            match unmatched {
                ServerFrame::Result { tag, output } => self.pending.push_back(WireReply {
                    tag,
                    outcome: Ok(output),
                }),
                ServerFrame::Error {
                    tag: Some(tag),
                    error,
                    ..
                } => self.pending.push_back(WireReply {
                    tag,
                    outcome: Err(error),
                }),
                ServerFrame::Error {
                    tag: None, error, ..
                } => return Err(ClientError::Fatal(error)),
                ServerFrame::Bye => return Err(ClientError::ClosedByServer),
                ServerFrame::Metrics { .. }
                | ServerFrame::Trace { .. }
                | ServerFrame::Welcome(_) => {}
            }
        }
    }

    /// Says `bye` and waits for the daemon's `bye` (or close), ending
    /// the session cleanly. Outstanding replies still in the pipe are
    /// discarded.
    ///
    /// # Errors
    ///
    /// Transport errors other than the expected close.
    pub fn bye(mut self) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &bye_frame())?;
        loop {
            match read_frame(&mut self.reader) {
                Ok(frame) => {
                    if matches!(parse_server_frame(&frame)?, ServerFrame::Bye) {
                        return Ok(());
                    }
                }
                Err(FrameError::Closed) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn read_server_frame(&mut self) -> Result<ServerFrame, ClientError> {
        let frame = read_frame(&mut self.reader)?;
        Ok(parse_server_frame(&frame)?)
    }
}
