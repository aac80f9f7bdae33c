//! Per-client admission quotas: the multi-tenant layer on top of the
//! serving layer's global [`Overloaded`](dqc_serve::ServeError::Overloaded)
//! backpressure.
//!
//! The serving layer protects the *shards* — its bounded queues refuse
//! work when the system as a whole is saturated. That alone lets one
//! greedy client starve everyone: it can occupy every queue slot before
//! politer tenants get a word in. The daemon therefore meters each
//! client identity (the `client` string from the `hello` frame) with
//! two independent quotas, checked at submission *before* the request
//! touches a shard queue:
//!
//! * **In-flight cap** — at most `max_in_flight` of the client's
//!   requests may be unanswered at once. Released when the reply (result
//!   or engine error) is routed back, or when the request is refused
//!   downstream.
//! * **Rate limit** — a token bucket of `burst` capacity refilled at
//!   `per_sec` tokens per second. Each admitted submission takes one
//!   token; an empty bucket refuses with `quota_exceeded` / `rate`.
//!
//! Time enters only through explicit microsecond timestamps, so the
//! bucket's behaviour is exactly testable without sleeping.

use crate::protocol::{QuotaScope, WireError};
use std::collections::HashMap;
use std::sync::Mutex;

// The quota *terms* live in `dqc_serve::ServeConfig` (one typed config
// names every serving knob); this module keeps the *enforcement* — the
// ledger is daemon-only machinery. Re-exported so `dqc_served::{QuotaConfig,
// RateLimit}` keeps working.
pub use dqc_serve::{QuotaConfig, RateLimit};

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last_micros: u64,
}

impl TokenBucket {
    fn new(limit: RateLimit, now_micros: u64) -> Self {
        Self {
            tokens: limit.burst,
            last_micros: now_micros,
        }
    }

    fn try_take(&mut self, limit: RateLimit, now_micros: u64) -> bool {
        let elapsed = now_micros.saturating_sub(self.last_micros);
        self.last_micros = now_micros;
        self.tokens = limit
            .burst
            .min(self.tokens + elapsed as f64 * 1e-6 * limit.per_sec);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Default)]
struct ClientState {
    in_flight: usize,
    bucket: Option<TokenBucket>,
}

/// The daemon's admission ledger: one [`ClientState`] per client
/// identity, shared across that client's connections.
#[derive(Debug)]
pub(crate) struct AdmissionLedger {
    config: QuotaConfig,
    clients: Mutex<HashMap<String, ClientState>>,
}

impl AdmissionLedger {
    pub(crate) fn new(config: QuotaConfig) -> Self {
        Self {
            config,
            clients: Mutex::new(HashMap::new()),
        }
    }

    /// Admits one submission for `client` at `now_micros`, or returns
    /// the typed refusal. On success the client's in-flight count has
    /// been incremented and one rate token consumed; the caller must
    /// [`release`](AdmissionLedger::release) when the request completes
    /// or is refused downstream.
    pub(crate) fn admit(&self, client: &str, now_micros: u64) -> Result<(), WireError> {
        if !self.config.is_enforcing() {
            return Ok(());
        }
        let mut clients = self.clients.lock().expect("quota ledger poisoned");
        let state = clients.entry(client.to_string()).or_default();
        if let Some(cap) = self.config.max_in_flight {
            if state.in_flight >= cap {
                return Err(WireError::QuotaExceeded {
                    client: client.to_string(),
                    scope: QuotaScope::InFlight,
                    limit: cap as f64,
                });
            }
        }
        if let Some(limit) = self.config.rate {
            let bucket = state
                .bucket
                .get_or_insert_with(|| TokenBucket::new(limit, now_micros));
            if !bucket.try_take(limit, now_micros) {
                return Err(WireError::QuotaExceeded {
                    client: client.to_string(),
                    scope: QuotaScope::Rate,
                    limit: limit.per_sec,
                });
            }
        }
        state.in_flight += 1;
        Ok(())
    }

    /// Returns one in-flight slot to `client` (request completed or was
    /// refused after admission).
    pub(crate) fn release(&self, client: &str) {
        if !self.config.is_enforcing() {
            return;
        }
        let mut clients = self.clients.lock().expect("quota ledger poisoned");
        if let Some(state) = clients.get_mut(client) {
            state.in_flight = state.in_flight.saturating_sub(1);
        }
    }

    /// The client's current in-flight count (tests and stats).
    #[cfg(test)]
    fn in_flight(&self, client: &str) -> usize {
        self.clients
            .lock()
            .expect("quota ledger poisoned")
            .get(client)
            .map_or(0, |s| s.in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000;

    #[test]
    fn unconfigured_ledger_admits_everything() {
        let ledger = AdmissionLedger::new(QuotaConfig::default());
        for i in 0..1_000 {
            ledger.admit("anyone", i).unwrap();
        }
        assert_eq!(ledger.in_flight("anyone"), 0); // not even tracked
    }

    #[test]
    fn in_flight_cap_refuses_the_excess_and_releases_restore_it() {
        let ledger = AdmissionLedger::new(QuotaConfig {
            max_in_flight: Some(2),
            rate: None,
        });
        ledger.admit("greedy", 0).unwrap();
        ledger.admit("greedy", 0).unwrap();
        let err = ledger.admit("greedy", 0).unwrap_err();
        match err {
            WireError::QuotaExceeded { scope, limit, .. } => {
                assert_eq!(scope, QuotaScope::InFlight);
                assert_eq!(limit, 2.0);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // A different identity has its own budget.
        ledger.admit("polite", 0).unwrap();
        assert_eq!(ledger.in_flight("greedy"), 2);
        ledger.release("greedy");
        ledger.admit("greedy", 0).unwrap();
        assert_eq!(ledger.in_flight("greedy"), 2);
    }

    #[test]
    fn token_bucket_enforces_burst_then_sustained_rate() {
        let ledger = AdmissionLedger::new(QuotaConfig {
            max_in_flight: None,
            rate: Some(RateLimit {
                per_sec: 2.0,
                burst: 3.0,
            }),
        });
        // Burst of 3 admitted instantly…
        for _ in 0..3 {
            ledger.admit("c", 0).unwrap();
        }
        // …then the bucket is dry.
        let err = ledger.admit("c", 0).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::QuotaExceeded {
                    scope: QuotaScope::Rate,
                    ..
                }
            ),
            "{err}"
        );
        // Half a second refills one token at 2/s.
        ledger.admit("c", SEC / 2).unwrap();
        assert!(ledger.admit("c", SEC / 2).is_err());
        // Long idle refills only to the burst cap.
        for _ in 0..3 {
            ledger.admit("c", 100 * SEC).unwrap();
        }
        assert!(ledger.admit("c", 100 * SEC).is_err());
    }

    #[test]
    fn release_never_underflows() {
        let ledger = AdmissionLedger::new(QuotaConfig {
            max_in_flight: Some(1),
            rate: None,
        });
        ledger.release("ghost");
        ledger.admit("ghost", 0).unwrap();
        assert_eq!(ledger.in_flight("ghost"), 1);
    }
}
