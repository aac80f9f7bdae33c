//! `dqc-served` — the network front door of the serving stack.
//!
//! The serving layer (`dqc-serve`) is a library: shards, worker pools,
//! warm compile caches, bounded admission — all in-process. This crate
//! puts a wire on it, turning the co-design evaluation engine into a
//! long-lived daemon that remote tenants share:
//!
//! * **Transport** ([`frame`]) — TCP, 4-byte big-endian length prefix,
//!   UTF-8 JSON payloads over the workspace's dependency-free
//!   `dqc-types::json`, each frame handed to the socket in one write.
//!   No async runtime, no wire-format crates: plain `std` sockets and
//!   threads, like the layer underneath.
//! * **Vocabulary** ([`protocol`]) — a versioned handshake
//!   (`hello`/`welcome`), tagged pipelined submissions, typed errors,
//!   and live `metrics` and `trace` commands. A submission holds an
//!   in-memory circuit or QASM text, sent as OpenQASM 2.0 text either
//!   way; it parses to a fingerprint-identical
//!   [`Circuit`](dqc_circuit::Circuit), so wire traffic shares the
//!   in-process compile caches.
//! * **Multi-tenancy** ([`quota`]) — per-client in-flight caps and
//!   token-bucket rate limits keyed by the `hello` identity, layered on
//!   the serve layer's global `overloaded` backpressure so one greedy
//!   tenant cannot starve the rest.
//! * **Daemon** ([`daemon`]) — [`ServedBuilder`] → [`Served`]: accept
//!   thread, reader/writer pair per connection, each accepted submission
//!   carrying its reply to the connection's writer, orderly
//!   [`shutdown`](Served::shutdown). One bounded parse cache serves
//!   every connection: a submit whose QASM text equals, byte for byte,
//!   a text the daemon has parsed reuses that circuit instead of
//!   parsing again (at most `cache_capacity × points` texts of up to
//!   64 KiB, never a failed parse, no knob of its own).
//! * **Client** ([`client`]) — [`ServedClient`], the blocking client the
//!   `serve_wire` benchmark and the daemon tests drive.
//!
//! Determinism survives the wire: a request's outcome depends only on
//! the request (circuit, point, design, runs, base seed), so replies are
//! byte-identical to direct in-process evaluation — the workspace's
//! integration tests pin exactly that, at multiple concurrent
//! connections, for in-memory circuits and QASM text alike.
//!
//! # Examples
//!
//! Daemon up, client round trip, daemon down:
//!
//! ```
//! use dqc_circuit::Circuit;
//! use dqc_core::{Design, SystemConfig};
//! use dqc_served::{ServedBuilder, ServedClient, Submission};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let daemon = ServedBuilder::new()
//!     .hardware_point("paper", SystemConfig::paper_two_node_32())
//!     .workers_per_shard(1)
//!     .bind("127.0.0.1:0")?; // port 0: the OS picks
//!
//! let mut client = ServedClient::connect(daemon.local_addr(), "doc-example")?;
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let tag = client.submit(&Submission::structured(
//!     "bell",
//!     Arc::new(bell),
//!     "paper",
//!     Design::AdaptBuf,
//! ))?;
//! let reply = client.recv_reply()?;
//! assert_eq!(reply.tag, tag);
//! assert_eq!(reply.outcome.unwrap().reports.len(), 1);
//! client.bye()?;
//!
//! let report = daemon.shutdown();
//! assert_eq!(report.serve.served, 1);
//! assert_eq!(report.daemon.connections_accepted, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod frame;
mod parse_cache;
pub mod protocol;
pub mod quota;

pub use client::{ClientError, ServedClient};
pub use daemon::{DaemonStats, Served, ServedBuilder, ServedError, ShutdownReport};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use protocol::{
    CircuitPayload, QuotaScope, Submission, Welcome, WireError, WireOutput, WireReply,
    PROTOCOL_VERSION, SERVER_NAME,
};
pub use quota::{QuotaConfig, RateLimit};
