//! Generation and buffering policies.

use dqc_types::Tick;

/// Temporal pattern of entanglement-generation attempts across the
/// communication-qubit pairs (paper §III-C, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerationPattern {
    /// All pairs attempt in lockstep: successes arrive in bursts every
    /// `T_EG`.
    Synchronous,
    /// Pairs are divided into `groups` sub-groups whose attempt cycles are
    /// offset by `T_EG / groups`, spreading arrivals uniformly in time.
    Asynchronous {
        /// Number of stagger groups (the paper's Fig. 3 shows 4; with
        /// `T_EG = 10·T_local` a natural choice is 10).
        groups: usize,
    },
}

impl GenerationPattern {
    /// Attempt-start offset of communication pair `index` within the
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics for an asynchronous pattern with zero groups.
    pub fn offset(&self, index: usize, cycle: Tick) -> Tick {
        match *self {
            GenerationPattern::Synchronous => Tick::ZERO,
            GenerationPattern::Asynchronous { groups } => {
                assert!(groups > 0, "need at least one group");
                let g = index % groups;
                Tick::new(cycle.ticks() * g as i64 / groups as i64)
            }
        }
    }
}

/// Buffer cutoff policy (§III-C): links that idle longer than the cutoff
/// are reset to avoid consuming remote gates on badly decohered pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutoffPolicy {
    /// Keep links indefinitely.
    #[default]
    Keep,
    /// Discard links older than the given age.
    MaxAge(Tick),
}

impl CutoffPolicy {
    /// The tick at which a link heralded at `created_at` is discarded:
    /// the first tick at which its age exceeds the cutoff, so a link
    /// exactly at the cutoff age is still consumable. `None` under
    /// [`CutoffPolicy::Keep`].
    pub fn discard_at(&self, created_at: Tick) -> Option<Tick> {
        match *self {
            CutoffPolicy::Keep => None,
            CutoffPolicy::MaxAge(max) => Some(created_at + max + Tick::new(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_has_zero_offsets() {
        let p = GenerationPattern::Synchronous;
        for i in 0..10 {
            assert_eq!(p.offset(i, Tick::EPR_CYCLE), Tick::ZERO);
        }
    }

    #[test]
    fn asynchronous_staggers_uniformly() {
        let p = GenerationPattern::Asynchronous { groups: 4 };
        let cycle = Tick::new(100);
        let offsets: Vec<i64> = (0..8).map(|i| p.offset(i, cycle).ticks()).collect();
        assert_eq!(offsets, vec![0, 25, 50, 75, 0, 25, 50, 75]);
    }

    #[test]
    fn asynchronous_ten_groups_matches_tlocal_spacing() {
        // T_EG = 10 T_local: 10 groups space attempts one T_local apart.
        let p = GenerationPattern::Asynchronous { groups: 10 };
        for i in 0..10 {
            assert_eq!(p.offset(i, Tick::EPR_CYCLE), Tick::new(10 * i as i64));
        }
    }

    #[test]
    fn cutoff_keep_never_expires() {
        assert_eq!(CutoffPolicy::Keep.discard_at(Tick::new(1_000_000)), None);
    }

    #[test]
    fn cutoff_max_age_boundary() {
        let p = CutoffPolicy::MaxAge(Tick::new(100));
        // Age 100 (tick 140) survives; age 101 is the first discarded.
        assert_eq!(
            p.discard_at(Tick::new(40)),
            Some(Tick::new(141)),
            "exactly at cutoff survives"
        );
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        let _ = GenerationPattern::Asynchronous { groups: 0 }.offset(0, Tick::EPR_CYCLE);
    }
}
