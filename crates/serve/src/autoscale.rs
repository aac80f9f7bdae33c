//! The queue-pressure autoscaler: a pure, deterministically tickable
//! rebalancing brain.
//!
//! The controller thread in `server.rs` owns the *clock* (it samples
//! shard queues every [`TICK`]); this module owns the *decision*.
//! [`Autoscaler::tick`] is a pure function of the observations fed to
//! it, so the unit tests below drive a synthetic clock and prove the two
//! invariants the serving layer depends on:
//!
//! 1. **Budget conservation** — the sum of per-shard worker targets
//!    never changes; a rebalance only ever moves one worker from a cold
//!    shard to a hot one.
//! 2. **Hysteresis** — a shard must stay hot for [`HYSTERESIS_TICKS`]
//!    *consecutive* ticks before a move fires, and no donor ever drops
//!    below [`MIN_WORKERS`].
//!
//! The policy is fixed: placement changes only speed, never an answer,
//! so it is not a user-facing knob. Every tick the controller computes
//! each shard's *pressure* — queue depth as a fraction of capacity. A
//! shard at or above [`HOT_FRACTION`] for [`HYSTERESIS_TICKS`] ticks in a
//! row is hot; the coldest shard at or below [`COLD_FRACTION`] that still
//! has more than [`MIN_WORKERS`] workers donates one worker to it. One
//! move per tick, so placement changes slowly and deterministically
//! relative to the observations.
//!
//! Determinism note: the decision depends only on the observation
//! sequence, with index-order tie breaking — two controllers fed the
//! same samples make the same moves.

use std::time::Duration;

/// Time between controller samples.
pub(crate) const TICK: Duration = Duration::from_millis(20);

/// Queue pressure (depth / capacity) at or above which a shard is hot.
const HOT_FRACTION: f64 = 0.5;

/// Queue pressure at or below which a shard may donate a worker.
const COLD_FRACTION: f64 = 0.125;

/// Consecutive hot ticks required before a rebalance fires — the
/// hysteresis that keeps one bursty sample from thrashing placement.
const HYSTERESIS_TICKS: u32 = 2;

/// Floor on any shard's active workers; donors never drop below it.
pub(crate) const MIN_WORKERS: usize = 1;

/// One shard's queue state at a controller tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueObservation {
    /// Requests waiting in the shard queue.
    pub(crate) depth: usize,
    /// The queue's capacity.
    pub(crate) capacity: usize,
}

impl QueueObservation {
    /// Queue pressure in `[0, 1]`: depth as a fraction of capacity.
    fn pressure(self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.depth as f64 / self.capacity as f64
        }
    }
}

/// A single rebalance: move one worker from shard `from` to shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rebalance {
    pub(crate) from: usize,
    pub(crate) to: usize,
}

/// The rebalancing state machine. Holds the per-shard worker targets
/// (initially the spawn-time placement) and the hot-streak counters
/// behind the hysteresis.
#[derive(Debug)]
pub(crate) struct Autoscaler {
    targets: Vec<usize>,
    hot_streak: Vec<u32>,
}

impl Autoscaler {
    pub(crate) fn new(initial_targets: Vec<usize>) -> Self {
        let shards = initial_targets.len();
        Self {
            targets: initial_targets,
            hot_streak: vec![0; shards],
        }
    }

    /// The current per-shard worker targets.
    pub(crate) fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Feeds one tick of queue observations (one per shard, in shard
    /// order) and returns the rebalance to apply, if any. At most one
    /// worker moves per tick.
    pub(crate) fn tick(&mut self, observations: &[QueueObservation]) -> Option<Rebalance> {
        debug_assert_eq!(observations.len(), self.targets.len());
        // Update hot streaks first: hysteresis counts *consecutive* hot
        // ticks, so one cool sample resets the shard's streak.
        for (streak, obs) in self.hot_streak.iter_mut().zip(observations) {
            if obs.pressure() >= HOT_FRACTION {
                *streak += 1;
            } else {
                *streak = 0;
            }
        }
        // The hottest shard whose streak has cleared the hysteresis bar;
        // ties break toward the lowest index for determinism.
        let hot = (0..self.targets.len())
            .filter(|&i| self.hot_streak[i] >= HYSTERESIS_TICKS)
            .max_by(|&a, &b| {
                observations[a]
                    .pressure()
                    .partial_cmp(&observations[b].pressure())
                    .expect("pressures are finite")
                    .then(b.cmp(&a))
            })?;
        // The coldest shard still above the worker floor that is idle
        // enough to donate; again lowest index on ties.
        let donor = (0..self.targets.len())
            .filter(|&i| {
                i != hot
                    && self.targets[i] > MIN_WORKERS
                    && observations[i].pressure() <= COLD_FRACTION
            })
            .min_by(|&a, &b| {
                observations[a]
                    .pressure()
                    .partial_cmp(&observations[b].pressure())
                    .expect("pressures are finite")
                    .then(a.cmp(&b))
            })?;
        self.targets[donor] -= 1;
        self.targets[hot] += 1;
        // The move consumed the streak; the hot shard re-earns its next
        // worker from scratch.
        self.hot_streak[hot] = 0;
        Some(Rebalance {
            from: donor,
            to: hot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(depths_over_16: &[usize]) -> Vec<QueueObservation> {
        depths_over_16
            .iter()
            .map(|&depth| QueueObservation {
                depth,
                capacity: 16,
            })
            .collect()
    }

    #[test]
    fn rebalance_respects_budget_and_hysteresis() {
        let mut scaler = Autoscaler::new(vec![2, 2]);
        let budget: usize = scaler.targets().iter().sum();
        // Tick 1: shard 0 hot, shard 1 idle — hysteresis (2 ticks) holds.
        assert_eq!(scaler.tick(&obs(&[12, 0])), None);
        assert_eq!(scaler.targets(), &[2, 2]);
        // Tick 2: still hot — the move fires, one worker, budget intact.
        assert_eq!(
            scaler.tick(&obs(&[12, 0])),
            Some(Rebalance { from: 1, to: 0 })
        );
        assert_eq!(scaler.targets(), &[3, 1]);
        assert_eq!(scaler.targets().iter().sum::<usize>(), budget);
        // The streak was consumed: the next hot tick alone cannot move.
        assert_eq!(scaler.tick(&obs(&[12, 0])), None);
        // But a sustained hot queue cannot drain the donor below its
        // floor of 1, no matter how long it stays hot.
        for _ in 0..20 {
            scaler.tick(&obs(&[16, 0]));
        }
        assert_eq!(scaler.targets(), &[3, 1], "donor pinned at min_workers");
        assert_eq!(scaler.targets().iter().sum::<usize>(), budget);
    }

    #[test]
    fn a_cool_tick_resets_the_hot_streak() {
        let mut scaler = Autoscaler::new(vec![2, 2]);
        assert_eq!(scaler.tick(&obs(&[12, 0])), None);
        // Pressure dips below hot_fraction: streak back to zero…
        assert_eq!(scaler.tick(&obs(&[2, 0])), None);
        // …so two more hot ticks are needed, not one.
        assert_eq!(scaler.tick(&obs(&[12, 0])), None);
        assert_eq!(
            scaler.tick(&obs(&[12, 0])),
            Some(Rebalance { from: 1, to: 0 })
        );
    }

    #[test]
    fn no_move_without_a_cold_donor() {
        let mut scaler = Autoscaler::new(vec![2, 2]);
        // Both shards hot: nobody donates, placement holds.
        for _ in 0..10 {
            assert_eq!(scaler.tick(&obs(&[12, 12])), None);
        }
        assert_eq!(scaler.targets(), &[2, 2]);
        // Warm-but-not-cold (between the thresholds) also refuses.
        for _ in 0..10 {
            assert_eq!(scaler.tick(&obs(&[12, 6])), None);
        }
        assert_eq!(scaler.targets(), &[2, 2]);
    }

    #[test]
    fn hottest_shard_wins_and_ties_break_by_index() {
        let mut scaler = Autoscaler::new(vec![2, 2, 2]);
        // Shards 0 and 1 both hot, 1 hotter; 2 idle → 2 donates to 1.
        scaler.tick(&obs(&[9, 14, 0]));
        assert_eq!(
            scaler.tick(&obs(&[9, 14, 0])),
            Some(Rebalance { from: 2, to: 1 })
        );
        // Equal pressures: the lower index wins the worker.
        let mut scaler = Autoscaler::new(vec![2, 2, 2]);
        scaler.tick(&obs(&[14, 14, 0]));
        assert_eq!(
            scaler.tick(&obs(&[14, 14, 0])),
            Some(Rebalance { from: 2, to: 0 })
        );
    }

    #[test]
    fn moves_can_reverse_when_the_hot_spot_migrates() {
        let mut scaler = Autoscaler::new(vec![2, 2]);
        scaler.tick(&obs(&[12, 0]));
        scaler.tick(&obs(&[12, 0]));
        assert_eq!(scaler.targets(), &[3, 1]);
        // Traffic flips: shard 1 heats up, shard 0 goes idle.
        scaler.tick(&obs(&[0, 12]));
        assert_eq!(
            scaler.tick(&obs(&[0, 12])),
            Some(Rebalance { from: 0, to: 1 })
        );
        assert_eq!(scaler.targets(), &[2, 2]);
    }
}
