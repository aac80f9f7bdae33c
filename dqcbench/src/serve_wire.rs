//! `serve_wire`: the daemon, measured the way remote users see it.
//!
//! An in-process `dqc-served` daemon on a loopback port, `nproc` workers,
//! a warm compile cache holding the serving portfolio. Two phases over
//! one seeded request stream:
//!
//! 1. **closed loop** — one connection keeps `2·nproc` requests in
//!    flight for a share of the run; its completion rate is the
//!    saturation throughput;
//! 2. **open loop** — one connection offers requests at half that rate,
//!    a writer thread and a reader thread sharing the socket through the
//!    public frame functions; every request is timed from when it was
//!    due, so generator stalls count against latency.
//!
//! Traffic is mostly warm portfolio submissions (JSON), some exact
//! duplicates (fusion), and one novel QASM circuit in twenty (parse, cold
//! compile, cache insert and eviction). After the timed phases every
//! reply is recomputed directly with `Experiment` and compared by digest.

use crate::inputs::{self, Kind, WireRequest, POINT, SERVE_RUNS};
use crate::layers::{self, probe_circuit, probe_compile, probe_teleport};
use crate::machine::StealLog;
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{event_f64, event_sum, histogram_percentile, histogram_sum, Spans};
use crate::{ms, set_percentile, Args, Samples, SetupRepeats};
use dqc_core::{Design, ExecutionReport, Experiment, SystemConfig};
use dqc_obs::{span, Capture, MetricsSnapshot, RingRecorder};
use dqc_serve::ServeStats;
use dqc_served::protocol::{bye_frame, hello_frame, parse_server_frame, submit_frame, ServerFrame};
use dqc_served::{
    read_frame, write_frame, DaemonStats, Served, ServedBuilder, ServedClient, Submission,
};
use dqc_types::{Fnv64, Json};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up (bind, warm the cache) is repeated for a steady median, once
/// before the phases and the rest after them; every daemon but the one
/// measured is shut down.
const SETUP_REPEATS: usize = 15;

/// Share of the run length spent in the closed-loop saturation phase.
const CLOSED_SHARE: f64 = 0.3;

/// The open loop offers this fraction of the measured saturation rate.
const OPEN_LOAD: f64 = 0.5;

/// Requests generated per second of the closed-loop phase: about seven
/// times the saturation rate measured over loopback on two cores. A
/// closed loop that uses them all before its time is up counts as a
/// failure, naming this constant. The open loop's share is generated
/// once the saturation rate is known.
const CLOSED_POOL_PER_SECOND: f64 = 10_000.0;

/// Open-loop sends of every traced run at least: enough for the writer
/// lateness p99 to have ten samples beyond it.
const MIN_OPEN_SENDS: usize = 1000;

/// Shard queue bound: far above any backlog half-load traffic builds, so
/// admission control never refuses a benchmark request.
const QUEUE_CAPACITY: usize = 4096;

/// The simulated metrics come from the replies to the stream's first
/// requests, which the closed-loop phase always serves.
const SIM_PREFIX: usize = 200;

/// How long a reader waits for the next reply before declaring the
/// rest missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Closed-loop requests of the traced run (repeated untraced, on a
/// separate daemon, for the overhead ratio).
const TRACED_REQUESTS: usize = 1200;

/// Seconds of open-loop traffic in the traced run.
const TRACED_OPEN_SECONDS: f64 = 3.0;

/// Samples of the encode, decode, compile, and circuit probes.
const PROBE_SAMPLES: usize = 64;

/// Closed-loop requests of an offline workload's serving probe (its
/// open loop sends [`MIN_OPEN_SENDS`]).
const PROBE_REQUESTS: usize = 300;

/// A reply as the client saw it.
struct Answer {
    digest: u64,
    server_ms: f64,
    reports: Vec<ExecutionReport>,
    frame: Option<String>,
}

/// One request's fate.
struct Reply {
    /// Position in the request stream (also the wire tag).
    index: usize,
    /// When it was due: the send time in the closed loop, the schedule
    /// slot in the open loop.
    due: Instant,
    /// When it was written.
    sent: Instant,
    received: Instant,
    outcome: Result<Answer, String>,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        ms(self.received.saturating_duration_since(self.due))
    }
}

/// One load phase.
struct Phase {
    replies: Vec<Reply>,
    started: Instant,
    elapsed: Duration,
    /// How late the open-loop writer sent each request.
    lateness_ms: Vec<f64>,
}

impl Phase {
    fn ok(&self) -> usize {
        self.replies.iter().filter(|r| r.outcome.is_ok()).count()
    }
}

fn reports_digest(reports: &[ExecutionReport]) -> u64 {
    let mut h = Fnv64::new();
    for r in reports {
        h.write_str(&r.to_json().to_compact_string());
    }
    h.finish()
}

fn start_daemon(nproc: usize, ring: Option<Arc<RingRecorder>>) -> Result<Served, String> {
    let mut builder = ServedBuilder::new()
        .hardware_point(POINT, SystemConfig::paper_two_node_32())
        .workers_per_shard(nproc)
        .queue_capacity(QUEUE_CAPACITY)
        // The portfolio plus two: novel circuits evict each other, never
        // a portfolio entry (see `inputs::serve_requests`).
        .cache_capacity(inputs::portfolio().len() + 2);
    if let Some(ring) = ring {
        builder = builder.trace_ring(ring);
    }
    builder
        .bind("127.0.0.1:0")
        .map_err(|e| format!("daemon failed to start: {e}"))
}

/// Compiles every portfolio circuit into the daemon's cache over
/// `connections` clients, each warming its own share of the portfolio
/// one request at a time, so the workers compile side by side and no
/// two race on the same miss.
fn warm(addr: SocketAddr, connections: usize) -> Result<(), String> {
    let portfolio = inputs::portfolio();
    let connections = connections.max(1);
    let warm_share = |share: usize| -> Result<(), String> {
        let fail = |e: dqc_served::ClientError| format!("warm-up: {e}");
        let mut client = ServedClient::connect(addr, "dqcbench-warmup").map_err(fail)?;
        for (label, circuit) in portfolio.iter().skip(share).step_by(connections) {
            client
                .submit(&Submission::structured(
                    label.clone(),
                    Arc::clone(circuit),
                    POINT,
                    Design::AsyncBuf,
                ))
                .map_err(fail)?;
            client
                .recv_reply()
                .map_err(fail)?
                .outcome
                .map_err(|e| format!("warm-up refused: {e}"))?;
        }
        client.bye().map_err(fail)
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|share| scope.spawn(move || warm_share(share)))
            .collect();
        clients
            .into_iter()
            .try_for_each(|c| c.join().expect("warm-up clients do not panic"))
    })
}

/// The program's set-up: bind a daemon and warm its cache over `nproc`
/// connections. The request stream is the benchmark's input, generated
/// beforehand and not timed here.
fn setup(nproc: usize, ring: Option<Arc<RingRecorder>>) -> Result<Served, String> {
    let served = start_daemon(nproc, ring)?;
    if let Err(e) = warm(served.local_addr(), nproc) {
        served.shutdown();
        return Err(e);
    }
    Ok(served)
}

/// Regenerates the seed's stream longer when `pool` holds fewer than
/// `needed` requests. The generator is prefix-stable, so every request
/// already sent keeps its place.
fn extend(pool: &mut Vec<WireRequest>, seed: u64, needed: usize) {
    if pool.len() < needed {
        *pool = inputs::serve_requests(seed, needed);
    }
}

type Conn = (BufReader<TcpStream>, BufWriter<TcpStream>);

fn connect(addr: SocketAddr, client: &str) -> Result<Conn, String> {
    let io = |e: std::io::Error| format!("connection: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(io)?);
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, &hello_frame(client)).map_err(|e| e.to_string())?;
    let welcome = read_frame(&mut reader).map_err(|e| e.to_string())?;
    match parse_server_frame(&welcome).map_err(|e| e.to_string())? {
        ServerFrame::Welcome(_) => Ok((reader, writer)),
        _ => Err("the daemon refused the handshake".to_string()),
    }
}

fn goodbye((mut reader, mut writer): Conn) {
    if write_frame(&mut writer, &bye_frame()).is_err() {
        return;
    }
    while let Ok(frame) = read_frame(&mut reader) {
        if matches!(parse_server_frame(&frame), Ok(ServerFrame::Bye)) {
            break;
        }
    }
}

fn send(
    writer: &mut BufWriter<TcpStream>,
    pool: &[WireRequest],
    index: usize,
) -> Result<(), String> {
    write_frame(
        writer,
        &submit_frame(index as u64, &pool[index].submission()),
    )
    .map_err(|e| e.to_string())
}

/// Reads the next reply: its tag, arrival time, and outcome. `Err` when
/// the stream ends or stays silent past [`REPLY_TIMEOUT`].
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    keep_frame: bool,
) -> Result<(u64, Instant, Result<Answer, String>), String> {
    loop {
        let frame = read_frame(reader).map_err(|e| e.to_string())?;
        let received = Instant::now();
        match parse_server_frame(&frame).map_err(|e| e.to_string())? {
            ServerFrame::Result { tag, output } => {
                let answer = Answer {
                    digest: reports_digest(&output.reports),
                    server_ms: output.latency_ms,
                    reports: output.reports,
                    frame: keep_frame.then(|| frame.to_compact_string()),
                };
                return Ok((tag, received, Ok(answer)));
            }
            ServerFrame::Error {
                tag: Some(tag),
                error,
                ..
            } => {
                return Ok((tag, received, Err(error.to_string())));
            }
            ServerFrame::Error {
                tag: None, error, ..
            } => return Err(error.to_string()),
            ServerFrame::Bye => return Err("the daemon closed the connection".to_string()),
            _ => {}
        }
    }
}

/// Keeps `window` requests in flight from `pool[first..first + limit]`
/// until `budget` runs out (or the slice does), then drains.
fn closed_loop(
    addr: SocketAddr,
    pool: &[WireRequest],
    (first, limit): (usize, usize),
    window: usize,
    budget: Option<Duration>,
    keep_frames: bool,
) -> Result<Phase, String> {
    let (mut reader, mut writer) = connect(addr, "dqcbench-closed")?;
    let end = first.saturating_add(limit).min(pool.len());
    let mut in_flight: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut replies = Vec::new();
    let start = Instant::now();
    let mut next = first;
    while next < end && in_flight.len() < window {
        send(&mut writer, pool, next)?;
        in_flight.insert(next as u64, Instant::now());
        next += 1;
    }
    while !in_flight.is_empty() {
        let (tag, received, outcome) = match read_reply(&mut reader, keep_frames) {
            Ok(reply) => reply,
            Err(e) => {
                let now = Instant::now();
                for (tag, sent) in std::mem::take(&mut in_flight) {
                    replies.push(Reply {
                        index: tag as usize,
                        due: sent,
                        sent,
                        received: now,
                        outcome: Err(format!("no reply: {e}")),
                    });
                }
                break;
            }
        };
        let Some(sent) = in_flight.remove(&tag) else {
            continue;
        };
        replies.push(Reply {
            index: tag as usize,
            due: sent,
            sent,
            received,
            outcome,
        });
        if next < end && budget.is_none_or(|b| start.elapsed() < b) {
            send(&mut writer, pool, next)?;
            in_flight.insert(next as u64, Instant::now());
            next += 1;
        }
    }
    let elapsed = start.elapsed();
    goodbye((reader, writer));
    Ok(Phase {
        replies,
        started: start,
        elapsed,
        lateness_ms: Vec::new(),
    })
}

/// Offers `pool[first..first + count]` at `rate` requests per second on
/// one connection: a writer thread keeps the schedule, a reader thread
/// collects replies.
fn open_loop(
    addr: SocketAddr,
    pool: &[WireRequest],
    (first, count): (usize, usize),
    rate: f64,
    keep_frames: bool,
) -> Result<Phase, String> {
    let (mut reader, mut writer) = connect(addr, "dqcbench-open")?;
    let n = first.saturating_add(count).min(pool.len()) - first;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let (written, received) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            for k in 0..n {
                let slot = due(k);
                let now = Instant::now();
                if slot > now {
                    std::thread::sleep(slot - now);
                }
                sent.push(Instant::now());
                if send(&mut writer, pool, first + k).is_err() {
                    sent.pop();
                    break;
                }
            }
            (sent, writer)
        });
        let reader_thread = scope.spawn(move || {
            let mut got: Vec<Option<(Instant, Result<Answer, String>)>> =
                (0..n).map(|_| None).collect();
            let mut remaining = n;
            while remaining > 0 {
                let Ok((tag, at, outcome)) = read_reply(&mut reader, keep_frames) else {
                    break;
                };
                let slot = (tag as usize)
                    .checked_sub(first)
                    .and_then(|k| got.get_mut(k));
                if let Some(slot @ None) = slot {
                    *slot = Some((at, outcome));
                    remaining -= 1;
                }
            }
            (got, reader)
        });
        (
            writer_thread
                .join()
                .expect("the writer thread does not panic"),
            reader_thread
                .join()
                .expect("the reader thread does not panic"),
        )
    });
    let ((sent, writer), (got, reader)) = (written, received);
    let elapsed = start.elapsed();
    goodbye((reader, writer));
    let lateness_ms = sent
        .iter()
        .enumerate()
        .map(|(k, at)| ms(at.saturating_duration_since(due(k))))
        .collect();
    let end = Instant::now();
    let replies = got
        .into_iter()
        .enumerate()
        .map(|(k, reply)| {
            let (received, outcome) = reply.unwrap_or_else(|| (end, Err("no reply".to_string())));
            Reply {
                index: first + k,
                due: due(k),
                sent: sent.get(k).copied().unwrap_or(end),
                received,
                outcome,
            }
        })
        .collect();
    Ok(Phase {
        replies,
        started: start,
        elapsed,
        lateness_ms,
    })
}

/// Recomputes every successful reply directly with `Experiment` (one
/// compilation per distinct circuit, `threads` workers) and returns, per
/// reply, whether it was served and matched.
fn verify(pool: &[WireRequest], replies: &[&Reply], threads: usize) -> Vec<bool> {
    let config = SystemConfig::paper_two_node_32();
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (pos, reply) in replies.iter().enumerate() {
        if reply.outcome.is_ok() {
            groups
                .entry(pool[reply.index].circuit.fingerprint())
                .or_default()
                .push(pos);
        }
    }
    let groups: Vec<Vec<usize>> = groups.into_values().collect();
    let threads = threads.max(1);
    let matched: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let groups = &groups;
                let config = &config;
                scope.spawn(move || {
                    let mut matched = Vec::new();
                    for group in groups.iter().skip(w).step_by(threads) {
                        let circuit = &pool[replies[group[0]].index].circuit;
                        let Ok(experiment) = Experiment::new(circuit, config) else {
                            continue;
                        };
                        for &pos in group {
                            let request = &pool[replies[pos].index];
                            let direct = experiment
                                .clone()
                                .design(request.design)
                                .runs(SERVE_RUNS)
                                .base_seed(request.base_seed)
                                .reports();
                            let served = replies[pos].outcome.as_ref().map(|a| a.digest);
                            if direct.map(|r| reports_digest(&r)).ok() == served.ok() {
                                matched.push(pos);
                            }
                        }
                    }
                    matched
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verification workers do not panic"))
            .collect()
    });
    let mut ok = vec![false; replies.len()];
    for pos in matched.into_iter().flatten() {
        ok[pos] = true;
    }
    ok
}

/// Serving-layer and daemon counters, as deltas over a phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    served: u64,
    hits: u64,
    misses: u64,
    dispatches: u64,
    fused: u64,
    rejected: u64,
    bad_requests: u64,
    protocol_errors: u64,
}

impl Counters {
    fn read(serve: &ServeStats, daemon: &DaemonStats) -> Self {
        Self {
            served: serve.served,
            hits: serve.cache_hits,
            misses: serve.cache_misses,
            dispatches: serve.dispatches,
            fused: serve.fused_requests,
            rejected: serve.rejected + daemon.quota_rejected,
            bad_requests: daemon.bad_requests,
            protocol_errors: daemon.protocol_errors,
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            served: self.served - before.served,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            dispatches: self.dispatches - before.dispatches,
            fused: self.fused - before.fused,
            rejected: self.rejected - before.rejected,
            bad_requests: self.bad_requests - before.bad_requests,
            protocol_errors: self.protocol_errors - before.protocol_errors,
        }
    }
}

fn counters(served: &Served) -> Counters {
    Counters::read(&served.serve_stats(), &served.daemon_stats())
}

/// Checks the serving counters against the generated mix: every warm or
/// duplicate request a cache hit, every novel one a miss, nothing
/// refused or malformed.
fn check_mix(out: &mut Outcome, pool: &[WireRequest], replies: &[&Reply], delta: Counters) {
    let novel = replies
        .iter()
        .filter(|r| pool[r.index].kind == Kind::Novel)
        .count() as u64;
    let total = replies.len() as u64;
    let ok = delta.misses == novel
        && delta.hits == total - novel
        && delta.rejected == 0
        && delta.bad_requests == 0
        && delta.protocol_errors == 0;
    out.attempt(ok);
    out.note(format!(
        "mix check{}: {} hits / {} misses (generated {} warm or duplicate / {novel} novel), \
         {} fused, {} dispatches, {} refused, {} bad requests, {} protocol errors",
        if ok { "" } else { " FAILED" },
        delta.hits,
        delta.misses,
        total - novel,
        delta.fused,
        delta.dispatches,
        delta.rejected,
        delta.bad_requests,
        delta.protocol_errors
    ));
}

/// Verifies every reply and counts each request once: failed when it was
/// refused, lost, or differs from direct evaluation. Returns the verdict
/// per reply.
fn account(
    out: &mut Outcome,
    pool: &[WireRequest],
    replies: &[&Reply],
    threads: usize,
) -> Vec<bool> {
    let verified = verify(pool, replies, threads);
    for ok in &verified {
        out.attempt(*ok);
    }
    let failed = verified.iter().filter(|ok| !**ok).count();
    out.note(format!(
        "verified {} replies against direct Experiment evaluation: {failed} failed",
        replies.len()
    ));
    verified
}

fn sim_metrics(out: &mut Outcome, replies: &[&Reply]) {
    let reports: Vec<&ExecutionReport> = replies
        .iter()
        .filter(|r| r.index < SIM_PREFIX)
        .filter_map(|r| r.outcome.as_ref().ok())
        .flat_map(|a| &a.reports)
        .collect();
    let depth: Vec<f64> = reports
        .iter()
        .map(|r| r.depth_relative_to_ideal())
        .collect();
    let fidelity: Vec<f64> = reports.iter().map(|r| r.fidelity.value()).collect();
    out.set("sim_depth_rel", mean(&depth));
    out.set("sim_fidelity", mean(&fidelity));
    if reports.len() != SIM_PREFIX * SERVE_RUNS {
        out.note(format!(
            "warning: simulated metrics cover {} reports, not {}",
            reports.len(),
            SIM_PREFIX * SERVE_RUNS
        ));
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A daemon that cannot start or a connection that cannot be made.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let nproc = crate::machine::nproc();
    out.provenance.push(("daemon_workers", Json::from(nproc)));
    if args.trace {
        return traced(args, nproc, out);
    }
    let closed_s = args.seconds as f64 * CLOSED_SHARE;
    let pool_size = (CLOSED_POOL_PER_SECOND * closed_s).ceil() as usize;
    let mut pool = inputs::serve_requests(args.seed, pool_size);
    let build = || setup(nproc, None);
    let (repeats, served) = SetupRepeats::first(SETUP_REPEATS, build)?;
    let addr = served.local_addr();
    let before = counters(&served);
    let phases = (|| -> Result<(Phase, Phase, StealLog, f64, usize), String> {
        let budget = Duration::from_secs_f64(closed_s);
        let closed = closed_loop(addr, &pool, (0, pool.len()), 2 * nproc, Some(budget), false)?;
        let saturation = closed.ok() as f64 / closed.elapsed.as_secs_f64();
        let rate = (OPEN_LOAD * saturation).max(1.0);
        let count = (rate * (args.seconds as f64 - closed_s)).ceil() as usize;
        extend(&mut pool, args.seed, closed.replies.len() + count);
        let (open, steal) =
            StealLog::record(|| open_loop(addr, &pool, (closed.replies.len(), count), rate, false));
        Ok((closed, open?, steal, rate, count))
    })();
    let delta = counters(&served).since(before);
    served.shutdown();
    let (closed, open, steal, rate, count) = phases?;
    out.provenance.push(("offered_rate_rps", Json::float(rate)));
    let exhausted = closed.elapsed.as_secs_f64() < closed_s;
    out.attempt(!exhausted && open.replies.len() == count);
    if exhausted {
        out.note(format!(
            "FAILED: the closed loop used all {pool_size} requests in {:.2} s of its {closed_s:.2} s; \
             raise CLOSED_POOL_PER_SECOND",
            closed.elapsed.as_secs_f64()
        ));
    }
    if open.replies.len() != count {
        out.note(format!(
            "FAILED: the open loop offered {} requests of the {count} planned",
            open.replies.len()
        ));
    }
    out.note(format!(
        "closed loop: {} requests, {} in flight, {:.2} s; open loop: {} requests offered at {rate:.1}/s over {:.2} s",
        closed.replies.len(),
        2 * nproc,
        closed.elapsed.as_secs_f64(),
        open.replies.len(),
        open.elapsed.as_secs_f64()
    ));
    let replies: Vec<&Reply> = closed.replies.iter().chain(&open.replies).collect();
    check_mix(out, &pool, &replies, delta);
    sim_metrics(out, &replies);
    let verified = account(out, &pool, &replies, nproc);

    // Saturation: the closed loop's verified replies and evaluations.
    let since = |phase: &Phase, reply: &Reply| {
        reply
            .received
            .saturating_duration_since(phase.started)
            .as_secs_f64()
    };
    let mut saturated = Samples::default();
    for (reply, ok) in closed.replies.iter().zip(&verified) {
        if let (true, Ok(answer)) = (ok, &reply.outcome) {
            saturated.push(
                since(&closed, reply),
                reply.received,
                reply.latency_ms(),
                answer.reports.len(),
            );
        }
    }
    saturated.report_rates(
        out,
        closed.elapsed.as_secs_f64(),
        "saturation_rps",
        "evals_per_s",
    );
    // Latency: every open-loop request from when it was due; a refused
    // or lost request counts at the time its failure was known.
    let mut offered = Samples::default();
    for reply in &open.replies {
        offered.push(since(&open, reply), reply.received, reply.latency_ms(), 0);
    }
    offered.report_latency(
        out,
        open.elapsed.as_secs_f64(),
        "open-loop latency from due time",
        &steal,
        nproc,
    );
    let cold: Vec<f64> = open
        .replies
        .iter()
        .filter(|r| pool[r.index].kind == Kind::Novel)
        .map(Reply::latency_ms)
        .collect();
    set_percentile(
        out,
        "cold_latency_p50_ms",
        "novel-circuit latency",
        &cold,
        50.0,
    );
    let late = percentile(&open.lateness_ms, 99.0);
    out.note(format!(
        "loadgen.late_p99_ms: writer lateness {}",
        late.describe()
    ));
    repeats.finish(out, build, |served| {
        served.shutdown();
    })
}

fn traced(args: &Args, nproc: usize, out: &mut Outcome) -> Result<(), String> {
    let window = 2 * nproc;
    // The untraced comparator runs on a daemon of its own, so both
    // daemons start from the same warm cache and see the same requests.
    // It runs twice: the first warms the process, the second is timed.
    let mut pool = inputs::serve_requests(args.seed, TRACED_REQUESTS + MIN_OPEN_SENDS);
    let mut untraced = Duration::ZERO;
    for _ in 0..2 {
        let served = setup(nproc, None)?;
        let comparator = closed_loop(
            served.local_addr(),
            &pool,
            (0, TRACED_REQUESTS),
            window,
            None,
            false,
        );
        served.shutdown();
        untraced = comparator?.elapsed;
    }

    let (ring, session) = layers::start_capture();
    layers::record_untraced(untraced);
    let served = {
        let _setup = span("bench.setup");
        setup(nproc, Some(Arc::clone(&ring)))?
    };
    let addr = served.local_addr();
    let before = counters(&served);
    let result = (|| -> Result<(Phase, Phase, Capture, Counters), String> {
        let (closed, open) = {
            let _timed = span("bench.timed");
            let closed = {
                let _work = span("bench.traced_work");
                closed_loop(addr, &pool, (0, TRACED_REQUESTS), window, None, true)?
            };
            let rate = (OPEN_LOAD * closed.ok() as f64 / closed.elapsed.as_secs_f64()).max(1.0);
            let count = ((rate * TRACED_OPEN_SECONDS).ceil() as usize).max(MIN_OPEN_SENDS);
            extend(&mut pool, args.seed, TRACED_REQUESTS + count);
            let open = open_loop(addr, &pool, (TRACED_REQUESTS, count), rate, true)?;
            (closed, open)
        };
        let delta = counters(&served).since(before);
        record_wire(&pool, &closed, &open, delta);
        let reports: Vec<ExecutionReport> = closed
            .replies
            .iter()
            .chain(&open.replies)
            .filter_map(|r| r.outcome.as_ref().ok())
            .flat_map(|a| a.reports.iter().cloned())
            .collect();
        layers::record_remote_gates(reports.iter().map(|r| r.remote_gates as u64).sum());
        layers::record_service(&reports);
        {
            let _layers = span("bench.layers");
            probe_layers(&pool[..TRACED_REQUESTS])?;
            probe_codec(&pool[..TRACED_REQUESTS], &closed)?;
            layers::probe_common(&pool[0].label, &pool[0].circuit)?;
        }
        let mut admin = ServedClient::connect(addr, "dqcbench-admin").map_err(|e| e.to_string())?;
        let capture = admin.trace().map_err(|e| e.to_string())?;
        admin.bye().map_err(|e| e.to_string())?;
        Ok((closed, open, capture, delta))
    })();
    drop(session);
    served.shutdown();
    let (closed, open, capture, delta) = result?;

    layers::derive(&capture, out);
    derive_serving(&capture, out);
    let replies: Vec<&Reply> = closed.replies.iter().chain(&open.replies).collect();
    check_mix(out, &pool, &replies, delta);
    account(out, &pool, &replies, nproc);
    out.capture = Some(capture);
    Ok(())
}

/// Records what the traced phases saw on the wire as capture events:
/// one `bench.reply` per reply, one `bench.send` per open-loop send, the
/// counter deltas, and the load generator's totals.
fn record_wire(pool: &[WireRequest], closed: &Phase, open: &Phase, delta: Counters) {
    for reply in closed.replies.iter().chain(&open.replies) {
        let Ok(answer) = &reply.outcome else {
            continue;
        };
        let client_ms = ms(reply.received.saturating_duration_since(reply.sent));
        let bytes = answer.frame.as_ref().map_or(0, String::len);
        dqc_obs::event("bench.reply", || {
            vec![
                ("client_ms", client_ms.into()),
                ("server_ms", answer.server_ms.into()),
                ("bytes", bytes.into()),
                (
                    "novel",
                    u64::from(pool[reply.index].kind == Kind::Novel).into(),
                ),
            ]
        });
    }
    for late in &open.lateness_ms {
        dqc_obs::event("bench.send", || vec![("late_ms", (*late).into())]);
    }
    dqc_obs::event("bench.loadgen", || {
        vec![
            ("sent", open.lateness_ms.len().into()),
            ("completed", open.ok().into()),
        ]
    });
    dqc_obs::event("bench.serve", || {
        vec![
            ("served", delta.served.into()),
            ("hits", delta.hits.into()),
            ("misses", delta.misses.into()),
            ("dispatches", delta.dispatches.into()),
            ("fused", delta.fused.into()),
            ("rejected", delta.rejected.into()),
            ("bad_requests", delta.bad_requests.into()),
            ("protocol_errors", delta.protocol_errors.into()),
        ]
    });
}

/// The serving workload's compile and circuit probes, on the novel
/// circuits.
fn probe_layers(pool: &[WireRequest]) -> Result<(), String> {
    let config = SystemConfig::paper_two_node_32();
    let novel: Vec<&WireRequest> = pool.iter().filter(|r| r.kind == Kind::Novel).collect();
    for request in novel.iter().take(PROBE_SAMPLES / 8) {
        probe_compile(&request.circuit, &config)?;
        probe_teleport(&config);
    }
    for request in novel.iter().take(PROBE_SAMPLES / 4) {
        probe_circuit(&request.label, &request.circuit)?;
    }
    Ok(())
}

/// The wire codec probes: submit frames encoded from `pool`, and the
/// result frames the closed loop received, decoded again.
fn probe_codec(pool: &[WireRequest], closed: &Phase) -> Result<(), String> {
    for (index, request) in pool.iter().enumerate().take(PROBE_SAMPLES) {
        let submission = request.submission();
        let _s = span("bench.submit_encode");
        std::hint::black_box(submit_frame(index as u64, &submission).to_compact_string());
    }
    let frames = closed
        .replies
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok()?.frame.as_deref())
        .take(PROBE_SAMPLES);
    for text in frames {
        let _s = span("bench.result_decode");
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        std::hint::black_box(parse_server_frame(&json).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// The serving layers, probed from an offline workload's traced run so
/// that every per-layer number is measured on every workload: a fresh
/// daemon, then a short closed loop and a short open loop over the
/// seed's request stream. Returns the daemon's metrics snapshot for the
/// capture.
///
/// # Errors
///
/// A daemon that cannot start or a connection that cannot be made.
pub fn probe(seed: u64, nproc: usize) -> Result<MetricsSnapshot, String> {
    let pool = inputs::serve_requests(seed, PROBE_REQUESTS + MIN_OPEN_SENDS);
    let served = setup(nproc, None)?;
    let addr = served.local_addr();
    let before = counters(&served);
    let result = (|| -> Result<(), String> {
        let _probe = span("bench.serving_probe");
        let closed = closed_loop(addr, &pool, (0, PROBE_REQUESTS), 2 * nproc, None, true)?;
        let rate = (OPEN_LOAD * closed.ok() as f64 / closed.elapsed.as_secs_f64()).max(1.0);
        let open = open_loop(addr, &pool, (PROBE_REQUESTS, MIN_OPEN_SENDS), rate, true)?;
        record_wire(&pool, &closed, &open, counters(&served).since(before));
        probe_codec(&pool[..PROBE_REQUESTS], &closed)
    })();
    let metrics = served.metrics();
    served.shutdown();
    result.map(|()| metrics)
}

/// The `serve.*`, `served.*`, and `loadgen.*` numbers, from the capture's
/// events, codec probe spans, and the daemon's metrics snapshot.
pub fn derive_serving(capture: &Capture, out: &mut Outcome) {
    let spans = Spans::new(capture);
    let replies = spans.events("bench.reply");
    let values =
        |key: &str| -> Vec<f64> { replies.iter().filter_map(|e| event_f64(e, key)).collect() };
    let server_ms = values("server_ms");
    let overhead: Vec<f64> = values("client_ms")
        .iter()
        .zip(&server_ms)
        .map(|(client, server)| client - server)
        .collect();
    out.set("serve.server_latency_p50_ms", median(&server_ms));
    out.set("served.wire_overhead_ms_p50", median(&overhead));
    out.set("served.result_frame_bytes", median(&values("bytes")));
    if let Some((bounds, buckets)) = histogram_sum(spans.metrics(), "serve.queue_wait_us") {
        out.set(
            "serve.queue_wait_us_p50",
            histogram_percentile(&bounds, &buckets, 50.0),
        );
    }
    let serve = spans.events("bench.serve");
    let sum = |key: &str| event_sum(&serve, key);
    out.set(
        "serve.cache_hit_ratio",
        ratio(sum("hits"), sum("hits") + sum("misses")),
    );
    out.set("serve.fused_share", ratio(sum("fused"), sum("served")));
    out.set("serve.batch_mean", ratio(sum("served"), sum("dispatches")));
    out.set("serve.rejected", sum("rejected"));
    out.set("served.protocol_errors", sum("protocol_errors"));
    out.set("served.bad_requests", sum("bad_requests"));
    let us = |name: &str| median(&crate::trace::durations_ms(&spans.named(name))) * 1e3;
    out.set("served.submit_encode_us", us("bench.submit_encode"));
    out.set("served.result_decode_us", us("bench.result_decode"));
    let late: Vec<f64> = spans
        .events("bench.send")
        .iter()
        .filter_map(|e| event_f64(e, "late_ms"))
        .collect();
    let late = percentile(&late, 99.0);
    out.set("loadgen.late_p99_ms", late.value);
    out.note(format!("loadgen.late_p99_ms: {}", late.describe()));
    let loadgen = spans.events("bench.loadgen");
    out.set("loadgen.sent", event_sum(&loadgen, "sent"));
    out.set("loadgen.completed", event_sum(&loadgen, "completed"));
}
