//! The entanglement-generation service: communication-qubit pairs
//! attempting heralded generation, plus the buffer pool.

use crate::{CutoffPolicy, EntangledLink, GenerationPattern};
use dqc_types::Tick;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the entanglement service between one pair of nodes.
///
/// The defaults reproduce the paper's §IV-A system: 10 communication-qubit
/// pairs, 10 buffer qubits per node, `psucc = 0.4`, `T_EG = 10 T_local`,
/// fresh-link fidelity 99 %, SWAP = 3 CNOTs, `1/κ = 500` CNOT units.
///
/// Setting `buffer_capacity = 0` models the paper's `original` design:
/// successful links pin their communication pair (which therefore stops
/// attempting) until consumed or discarded — the Fig. 2(c) pathology.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of communication-qubit pairs attempting in parallel.
    pub num_comm_pairs: usize,
    /// Buffer qubits per node (= bufferable links); 0 disables buffering.
    pub buffer_capacity: usize,
    /// Success probability of one generation attempt.
    pub success_probability: f64,
    /// Duration of one attempt cycle (`T_EG`).
    pub attempt_cycle: Tick,
    /// Werner fidelity of a freshly heralded link.
    pub initial_fidelity: f64,
    /// Latency of swapping a fresh link from the communication pair into
    /// buffer qubits.
    pub swap_latency: Tick,
    /// Number of comm→buffer SWAPs a node can drive simultaneously.
    /// Control electronics typically serialize these; a burst of
    /// simultaneous successes (synchronous generation) therefore queues
    /// for the swap channel, while staggered successes do not — the
    /// mechanism behind the paper's Fig. 3 argument.
    pub swap_concurrency: usize,
    /// Idling decoherence rate per tick (`κ`).
    pub kappa_per_tick: f64,
    /// Synchronous or staggered attempt scheduling.
    pub pattern: GenerationPattern,
    /// Buffer cutoff policy.
    pub cutoff: CutoffPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            num_comm_pairs: 10,
            buffer_capacity: 10,
            success_probability: 0.4,
            attempt_cycle: Tick::EPR_CYCLE,
            initial_fidelity: 0.99,
            swap_latency: Tick::SWAP,
            swap_concurrency: 1,
            kappa_per_tick: 2e-4,
            pattern: GenerationPattern::Asynchronous { groups: 10 },
            cutoff: CutoffPolicy::Keep,
        }
    }
}

/// Counters accumulated by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Generation attempts completed.
    pub attempts: u64,
    /// Successful attempts (links heralded).
    pub successes: u64,
    /// Links handed to remote gates.
    pub consumed: u64,
    /// Links discarded by the cutoff policy.
    pub wasted: u64,
    /// Links injected by [`EntanglementService::preinitialize`] (counted
    /// separately from heralded successes).
    pub preinitialized: u64,
    /// Total idle age of consumed links (for mean-age-at-consumption).
    pub total_consumed_age: Tick,
    /// Highest simultaneous buffer occupancy observed.
    pub peak_buffered: usize,
}

impl ServiceStats {
    /// Serializes the counters for the machine-readable results pipeline.
    pub fn to_json(&self) -> dqc_types::Json {
        use dqc_types::Json;
        Json::object([
            ("attempts", Json::uint(self.attempts)),
            ("successes", Json::uint(self.successes)),
            ("consumed", Json::uint(self.consumed)),
            ("wasted", Json::uint(self.wasted)),
            ("preinitialized", Json::uint(self.preinitialized)),
            (
                "total_consumed_age_ticks",
                Json::from(self.total_consumed_age.ticks()),
            ),
            ("peak_buffered", Json::from(self.peak_buffered)),
        ])
    }

    /// Reads counters back from [`ServiceStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`dqc_types::JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &dqc_types::Json) -> Result<Self, dqc_types::JsonError> {
        Ok(Self {
            attempts: json.u64_field("attempts")?,
            successes: json.u64_field("successes")?,
            consumed: json.u64_field("consumed")?,
            wasted: json.u64_field("wasted")?,
            preinitialized: json.u64_field("preinitialized")?,
            total_consumed_age: Tick::new(json.i64_field("total_consumed_age_ticks")?),
            peak_buffered: json.usize_field("peak_buffered")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PairState {
    /// An attempt is in flight, completing at the associated time.
    Attempting(Tick),
    /// A success is parked on the communication pair (no buffer slot);
    /// the pair cannot attempt until the link is consumed or discarded.
    Holding(EntangledLink),
}

#[derive(Debug, Clone, Copy)]
struct BufferedLink {
    link: EntangledLink,
    ready_at: Tick,
}

/// A consumed link, as handed to a remote gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TakenLink {
    /// The Werner fidelity at the moment of consumption.
    pub fidelity: f64,
    /// Idle time between heralding and consumption.
    pub age: Tick,
}

/// Discrete-event simulation of heralded entanglement generation between
/// two nodes (the paper's §III architecture), supporting every design of
/// §V: buffered or not, synchronous or asynchronous, with optional
/// pre-initialization and cutoff.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::{EntanglementService, ServiceConfig};
/// use dqc_types::Tick;
///
/// let mut svc = EntanglementService::new(ServiceConfig::default(), 7);
/// // Ask for a link as soon as one exists:
/// let t = svc.time_of_next_available(Tick::ZERO);
/// let link = svc.try_take(t).expect("a link is available at t");
/// assert!(link.fidelity > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct EntanglementService {
    config: ServiceConfig,
    pairs: Vec<PairState>,
    offsets: Vec<Tick>,
    buffer: Vec<BufferedLink>,
    now: Tick,
    stats: ServiceStats,
    arrivals: Vec<Tick>,
    swap_free_at: Vec<Tick>,
    rng: ChaCha8Rng,
}

impl EntanglementService {
    /// Creates a service at time zero; all pairs start their first attempt
    /// at their pattern offset.
    pub fn new(config: ServiceConfig, seed: u64) -> Self {
        let offsets: Vec<Tick> = (0..config.num_comm_pairs)
            .map(|i| config.pattern.offset(i, config.attempt_cycle))
            .collect();
        let pairs = offsets
            .iter()
            .map(|&off| PairState::Attempting(off + config.attempt_cycle))
            .collect();
        Self {
            pairs,
            offsets,
            buffer: Vec::with_capacity(config.buffer_capacity),
            now: Tick::ZERO,
            stats: ServiceStats::default(),
            arrivals: Vec::new(),
            swap_free_at: vec![Tick::ZERO; config.swap_concurrency.max(1)],
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Heralding timestamps of every link generated so far (used by the
    /// Fig. 3 arrival-pattern reproduction).
    pub fn arrivals(&self) -> &[Tick] {
        &self.arrivals
    }

    /// Current simulation time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Pre-fills the buffer with `n` fresh links at time zero (the
    /// `init_buf` design). Links beyond the buffer capacity are ignored.
    ///
    /// # Panics
    ///
    /// Panics if called after time has advanced.
    pub fn preinitialize(&mut self, n: usize) {
        assert!(self.now.is_zero(), "preinitialization must happen at t = 0");
        let room = self
            .config
            .buffer_capacity
            .saturating_sub(self.buffer.len());
        for _ in 0..n.min(room) {
            self.buffer.push(BufferedLink {
                link: EntangledLink::new(Tick::ZERO, self.config.initial_fidelity),
                ready_at: Tick::ZERO,
            });
            self.stats.preinitialized += 1;
        }
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
    }

    /// Advances the simulation clock to `t`, processing every attempt
    /// completion and cutoff expiry in chronological order.
    pub fn advance_to(&mut self, t: Tick) {
        while let Some((event_time, kind)) = self.next_event() {
            if event_time > t {
                break;
            }
            self.process_event(event_time, kind);
        }
        self.now = self.now.max(t);
    }

    /// Number of links consumable right now.
    pub fn available(&self) -> usize {
        let buffered = self
            .buffer
            .iter()
            .filter(|b| b.ready_at <= self.now)
            .count();
        let held = self
            .pairs
            .iter()
            .filter(|p| matches!(p, PairState::Holding(_)))
            .count();
        buffered + held
    }

    /// Advances to `t` and consumes the oldest available link, if any
    /// (draining the queue in order minimizes cutoff waste).
    pub fn try_take(&mut self, t: Tick) -> Option<TakenLink> {
        self.advance_to(t);
        // Candidates: (created_at, source) with source = buffer index or
        // pair index.
        let mut candidates: Vec<(Tick, bool, usize)> = Vec::new();
        for (i, b) in self.buffer.iter().enumerate() {
            if b.ready_at <= self.now {
                candidates.push((b.link.created_at(), false, i));
            }
        }
        for (i, p) in self.pairs.iter().enumerate() {
            if let PairState::Holding(link) = p {
                candidates.push((link.created_at(), true, i));
            }
        }
        let (_, from_pair, idx) = candidates.into_iter().min()?;
        let link = if from_pair {
            let PairState::Holding(link) = self.pairs[idx] else {
                unreachable!("candidate source checked above")
            };
            self.resume_pair(idx, self.now);
            link
        } else {
            let b = self.buffer.swap_remove(idx);
            self.unpark_held_links();
            b.link
        };
        let age = link.age(self.now);
        self.stats.consumed += 1;
        self.stats.total_consumed_age += age;
        Some(TakenLink {
            fidelity: link.fidelity_at(self.now, self.config.kappa_per_tick),
            age,
        })
    }

    /// Returns the earliest time `≥ from` at which a link is available,
    /// advancing the simulation there. Returns [`Tick::MAX`] when no link
    /// can ever be produced (no communication pairs).
    pub fn time_of_next_available(&mut self, from: Tick) -> Tick {
        self.advance_to(from);
        loop {
            if self.available() > 0 {
                return self.now.max(from);
            }
            let Some((event_time, kind)) = self.next_event() else {
                return Tick::MAX;
            };
            self.process_event(event_time, kind);
            self.now = self.now.max(event_time);
        }
    }

    // ----- internals -----

    fn next_event(&self) -> Option<(Tick, EventKind)> {
        let mut best: Option<(Tick, EventKind)> = None;
        let mut consider = |time: Tick, kind: EventKind| {
            if best.is_none_or(|(bt, bk)| (time, kind) < (bt, bk)) {
                best = Some((time, kind));
            }
        };
        for (i, p) in self.pairs.iter().enumerate() {
            match *p {
                PairState::Attempting(done) => consider(done, EventKind::Completion(i)),
                PairState::Holding(link) => {
                    if let Some(at) = self.config.cutoff.discard_at(link.created_at()) {
                        consider(at, EventKind::HeldExpiry(i));
                    }
                }
            }
        }
        for (i, b) in self.buffer.iter().enumerate() {
            if let Some(at) = self.config.cutoff.discard_at(b.link.created_at()) {
                consider(at, EventKind::BufferExpiry(i));
            }
        }
        // Buffered links still being swapped in become available later;
        // that is an "event" for time_of_next_available.
        for (i, b) in self.buffer.iter().enumerate() {
            if b.ready_at > self.now {
                consider(b.ready_at, EventKind::SwapDone(i));
            }
        }
        best
    }

    fn process_event(&mut self, time: Tick, kind: EventKind) {
        self.now = self.now.max(time);
        match kind {
            EventKind::Completion(i) => self.complete_attempt(i, time),
            EventKind::HeldExpiry(i) => {
                self.stats.wasted += 1;
                self.resume_pair(i, time);
            }
            EventKind::BufferExpiry(i) => {
                self.stats.wasted += 1;
                self.buffer.swap_remove(i);
                self.unpark_held_links();
            }
            EventKind::SwapDone(_) => {}
        }
    }

    fn complete_attempt(&mut self, i: usize, time: Tick) {
        self.stats.attempts += 1;
        let success = self
            .rng
            .random_bool(self.config.success_probability.clamp(0.0, 1.0));
        if !success {
            self.pairs[i] = PairState::Attempting(time + self.config.attempt_cycle);
            return;
        }
        self.stats.successes += 1;
        self.arrivals.push(time);
        let link = EntangledLink::new(time, self.config.initial_fidelity);
        if self.buffer.len() < self.config.buffer_capacity {
            let ready_at = self.allocate_swap(time);
            self.buffer.push(BufferedLink { link, ready_at });
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
            // The communication pair is busy for the swap, then resumes at
            // the next slot of its pattern.
            self.resume_pair(i, ready_at);
        } else {
            // No buffer slot: the pair parks the link and stalls.
            self.pairs[i] = PairState::Holding(link);
        }
    }

    /// Reserves the earliest-free swap channel starting no earlier than
    /// `at`; returns the swap completion time. Simultaneous successes
    /// (synchronous bursts) queue here.
    fn allocate_swap(&mut self, at: Tick) -> Tick {
        let channel = self
            .swap_free_at
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("at least one swap channel");
        let start = at.max(*channel);
        let done = start + self.config.swap_latency;
        *channel = done;
        done
    }

    /// Restarts attempts on pair `i`, aligned to its pattern slot at or
    /// after `at`.
    fn resume_pair(&mut self, i: usize, at: Tick) {
        let cycle = self.config.attempt_cycle;
        let offset = self.offsets[i];
        // First slot start ≥ at with start ≡ offset (mod cycle).
        let shifted = at.saturating_sub(offset);
        let start = offset + shifted.next_multiple_of(cycle);
        self.pairs[i] = PairState::Attempting(start + cycle);
    }

    /// After a buffer slot frees, move the oldest parked link (if any)
    /// into the buffer.
    fn unpark_held_links(&mut self) {
        if self.buffer.len() >= self.config.buffer_capacity {
            return;
        }
        let held = self
            .pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PairState::Holding(link) => Some((link.created_at(), i, *link)),
                PairState::Attempting(_) => None,
            })
            .min_by_key(|(created, i, _)| (*created, *i));
        if let Some((_, i, link)) = held {
            let ready = self.allocate_swap(self.now);
            self.buffer.push(BufferedLink {
                link,
                ready_at: ready,
            });
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
            self.resume_pair(i, ready);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Completion(usize),
    HeldExpiry(usize),
    BufferExpiry(usize),
    SwapDone(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_config() -> ServiceConfig {
        ServiceConfig {
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn first_links_arrive_after_one_cycle() {
        let mut svc = EntanglementService::new(sync_config(), 1);
        svc.advance_to(Tick::new(99));
        assert_eq!(svc.available(), 0, "nothing before the first completion");
        let t = svc.time_of_next_available(Tick::ZERO);
        // Synchronous: every attempt completes at t=100; with psucc=0.4 and
        // 10 pairs a success at 100 is near-certain; availability follows
        // after the swap.
        assert_eq!(t, Tick::new(100 + 30));
    }

    #[test]
    fn synchronous_arrivals_are_bursty() {
        // Large buffer so pairs never stall while nobody consumes.
        let cfg = ServiceConfig {
            buffer_capacity: 1000,
            ..sync_config()
        };
        let mut svc = EntanglementService::new(cfg, 2);
        svc.advance_to(Tick::new(2000));
        for &a in svc.arrivals() {
            assert_eq!(a.ticks() % 100, 0, "sync arrivals only at cycle boundaries");
        }
        assert!(svc.stats().successes > 20, "got {}", svc.stats().successes);
    }

    #[test]
    fn full_buffer_stalls_pairs() {
        // Default capacity 10 and no consumption: 10 buffered + 10 held
        // saturate the service and successes stop.
        let mut svc = EntanglementService::new(sync_config(), 2);
        svc.advance_to(Tick::new(20_000));
        assert_eq!(svc.available(), 20);
        let frozen = svc.stats().successes;
        svc.advance_to(Tick::new(40_000));
        assert_eq!(svc.stats().successes, frozen, "saturated service stops");
    }

    #[test]
    fn asynchronous_arrivals_are_spread() {
        let cfg = ServiceConfig {
            pattern: GenerationPattern::Asynchronous { groups: 10 },
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 3);
        svc.advance_to(Tick::new(5000));
        let mut seen_offsets: std::collections::HashSet<i64> = std::collections::HashSet::new();
        for &a in svc.arrivals() {
            seen_offsets.insert(a.ticks() % 100);
        }
        assert!(
            seen_offsets.len() >= 5,
            "staggered groups should populate many phases: {seen_offsets:?}"
        );
    }

    #[test]
    fn statistics_balance() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 4);
        let mut taken = 0;
        let mut t = Tick::ZERO;
        for _ in 0..20 {
            t = svc.time_of_next_available(t);
            if svc.try_take(t).is_some() {
                taken += 1;
            }
        }
        let s = *svc.stats();
        assert_eq!(s.consumed, taken);
        assert!(s.successes >= s.consumed + s.wasted);
        assert!(s.attempts >= s.successes);
    }

    #[test]
    fn bufferless_pairs_stall_while_holding() {
        let cfg = ServiceConfig {
            buffer_capacity: 0,
            num_comm_pairs: 2,
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 5);
        // Run long enough that both pairs have succeeded once.
        svc.advance_to(Tick::new(3000));
        let held = svc.available();
        assert_eq!(held, 2, "both pairs should be parked on successes");
        let attempts_frozen = svc.stats().attempts;
        svc.advance_to(Tick::new(6000));
        assert_eq!(
            svc.stats().attempts,
            attempts_frozen,
            "holding pairs must not keep attempting"
        );
        // Consuming frees a pair, which resumes attempting.
        let _ = svc.try_take(Tick::new(6000)).expect("held link");
        svc.advance_to(Tick::new(9000));
        assert!(svc.stats().attempts > attempts_frozen);
    }

    #[test]
    fn buffered_pairs_keep_attempting() {
        let cfg = ServiceConfig {
            num_comm_pairs: 4,
            buffer_capacity: 100,
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 6);
        svc.advance_to(Tick::new(10_000));
        // A failure retries next cycle; a success also costs the swap, so
        // the expected attempt spacing is ≈ 0.6·T + 0.4·2T = 1.4·T, giving
        // ≈ 4 · 10000/140 ≈ 285 attempts. The point: no long-term stall.
        assert!(
            svc.stats().attempts >= 240,
            "attempts = {}",
            svc.stats().attempts
        );
        assert!(svc.available() > 10);
    }

    #[test]
    fn cutoff_discards_and_counts_waste() {
        let cfg = ServiceConfig {
            num_comm_pairs: 4,
            buffer_capacity: 10,
            cutoff: CutoffPolicy::MaxAge(Tick::new(200)),
            pattern: GenerationPattern::Synchronous,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 7);
        svc.advance_to(Tick::new(5000));
        assert!(svc.stats().wasted > 0, "idle links must expire");
        // All remaining available links are younger than the cutoff.
        assert!(svc.available() <= 10);
    }

    #[test]
    fn preinitialized_links_available_at_time_zero() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 8);
        svc.preinitialize(10);
        assert_eq!(svc.available(), 10);
        let link = svc.try_take(Tick::ZERO).unwrap();
        assert_eq!(link.fidelity, 0.99, "no decay at t = 0");
        assert_eq!(svc.available(), 9);
    }

    #[test]
    fn preinitialize_caps_at_capacity() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 9);
        svc.preinitialize(50);
        assert_eq!(svc.available(), 10);
    }

    #[test]
    fn consumed_fidelity_decays_with_wait() {
        // No generation: only the two pre-initialized links exist.
        let cfg = ServiceConfig {
            num_comm_pairs: 0,
            ..ServiceConfig::default()
        };
        let mut svc = EntanglementService::new(cfg, 10);
        svc.preinitialize(2);
        let fresh = svc.try_take(Tick::ZERO).unwrap();
        let stale = svc.try_take(Tick::new(5000)).unwrap();
        assert!(stale.fidelity < fresh.fidelity);
        assert_eq!(stale.age, Tick::new(5000));
    }

    #[test]
    fn oldest_first_ordering() {
        let mut svc = EntanglementService::new(ServiceConfig::default(), 11);
        let t1 = svc.time_of_next_available(Tick::ZERO);
        let t2 = svc.time_of_next_available(t1 + Tick::new(500));
        let taken = svc.try_take(t2).unwrap();
        // The first-generated link is consumed first, so its age is the
        // larger of the two.
        assert!(taken.age >= Tick::new(500) || svc.stats().successes == 1);
    }

    #[test]
    fn no_pairs_means_never_available() {
        let cfg = ServiceConfig {
            num_comm_pairs: 0,
            ..Default::default()
        };
        let mut svc = EntanglementService::new(cfg, 12);
        assert_eq!(svc.time_of_next_available(Tick::ZERO), Tick::MAX);
        assert!(svc.try_take(Tick::new(100)).is_none());
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut svc = EntanglementService::new(ServiceConfig::default(), seed);
            svc.advance_to(Tick::new(3000));
            (svc.stats().successes, svc.arrivals().to_vec())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn async_smooths_peak_buffer_occupancy() {
        // The paper's Fig. 3 claim, measured: with the same consumption
        // pattern, async arrivals keep fewer links waiting at once.
        let consume_every = Tick::new(25);
        let run = |pattern| {
            let cfg = ServiceConfig {
                pattern,
                buffer_capacity: 40,
                ..ServiceConfig::default()
            };
            let mut svc = EntanglementService::new(cfg, 99);
            let mut t = Tick::ZERO;
            for _ in 0..200 {
                t += consume_every;
                let _ = svc.try_take(t);
            }
            svc.stats().peak_buffered
        };
        let sync_peak = run(GenerationPattern::Synchronous);
        let async_peak = run(GenerationPattern::Asynchronous { groups: 10 });
        assert!(
            async_peak <= sync_peak,
            "async peak {async_peak} should not exceed sync peak {sync_peak}"
        );
    }
}
