//! The unified serving configuration: one typed, JSON-round-tripping
//! [`ServeConfig`] consumed by every front end.
//!
//! Before this module, the in-process [`ServeBuilder`](crate::ServeBuilder)
//! and the daemon's `ServedBuilder` each re-declared the same knobs as
//! copy-pasted setter pairs, and the quota terms lived in a third place.
//! [`ServeConfig`] is the single source of truth: builders hold one,
//! setters are thin shims over its fields, the daemon echoes it in the
//! `welcome` frame, and `dqc-served --config FILE.json` deserializes
//! straight into it.
//!
//! It holds only knobs that change what a server admits or how much
//! work it keeps warm. Settings that could only change speed, never an
//! answer, are constants: the batch bound ([`BATCH_MAX`]), the latency
//! window ([`LATENCY_WINDOW`]), the histogram ladder
//! ([`BUCKET_BOUNDS_US`]), and replay fusion, which is always on.
//!
//! JSON semantics are deliberately **lenient on absence, strict on type
//! and on names**: a hand-written config file may name only the knobs it
//! wants to change (every missing field takes its default), but a field
//! that is present with the wrong type, or a member this schema does not
//! know, is a schema error — a typo'd name or value never silently
//! becomes a default.

use crate::ServeError;
use dqc_types::{Diagnostic, Json, JsonError, Site};

/// The largest number of queued requests one worker wake-up drains.
pub(crate) const BATCH_MAX: usize = 8;

/// How many recent per-request latencies the server retains for the
/// p50/p99 summary in [`ServeStats`](crate::ServeStats).
pub(crate) const LATENCY_WINDOW: usize = 8192;

/// Inclusive upper bounds, in whole microseconds, of the queue-wait and
/// service-time histogram buckets (an overflow bucket is always
/// appended): 50 µs – 250 ms, covering sub-millisecond replays through
/// slow cold compiles.
pub(crate) const BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// A sustained-rate limit: a token bucket refilled at `per_sec`, capped
/// at `burst` tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admissions per second.
    pub per_sec: f64,
    /// Maximum tokens banked while idle (instantaneous burst size).
    pub burst: f64,
}

impl RateLimit {
    /// Serializes the limit.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("per_sec", Json::float(self.per_sec)),
            ("burst", Json::float(self.burst)),
        ])
    }

    /// Reads a limit back from [`RateLimit::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing, mistyped or unknown field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        known_members(json, "quota.rate", &["per_sec", "burst"])?;
        Ok(Self {
            per_sec: json.f64_field("per_sec")?,
            burst: json.f64_field("burst")?,
        })
    }
}

/// The per-client quota terms, applied uniformly to every client
/// identity. `None` disables that quota. Enforced by the daemon's
/// admission ledger; the in-process server ignores them (its callers
/// are not adversarial tenants).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuotaConfig {
    /// Cap on a client's simultaneously in-flight requests.
    pub max_in_flight: Option<usize>,
    /// Sustained submission-rate limit.
    pub rate: Option<RateLimit>,
}

impl QuotaConfig {
    /// Whether any quota is active at all.
    pub fn is_enforcing(&self) -> bool {
        self.max_in_flight.is_some() || self.rate.is_some()
    }

    /// Serializes the quota terms. Disabled quotas serialize as `null`,
    /// so the document always names both knobs.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "max_in_flight",
                self.max_in_flight.map_or(Json::Null, Json::from),
            ),
            (
                "rate",
                self.rate.as_ref().map_or(Json::Null, RateLimit::to_json),
            ),
        ])
    }

    /// Reads quota terms back from [`QuotaConfig::to_json`] output.
    /// Missing or `null` members disable that quota.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a mistyped or unknown field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        known_members(json, "quota", &["max_in_flight", "rate"])?;
        let rate = match json.get("rate") {
            None | Some(Json::Null) => None,
            Some(value) => Some(RateLimit::from_json(value)?),
        };
        Ok(Self {
            max_in_flight: opt_usize(json, "max_in_flight")?,
            rate,
        })
    }
}

/// Every serving knob in one typed, JSON-round-tripping struct.
///
/// [`ServeBuilder`](crate::ServeBuilder) and the daemon's `ServedBuilder`
/// both consume a `ServeConfig`; their individual setters are forwarding
/// shims over these fields. See the module docs at the top of this file
/// for the JSON contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads per shard, each shard running exactly this many.
    /// `0` is an accept-only diagnostic mode.
    pub workers_per_shard: usize,
    /// Each shard's bounded queue capacity (admission-control bound).
    pub queue_capacity: usize,
    /// Each shard's warm-compilation cache capacity; `0` disables.
    pub cache_capacity: usize,
    /// Per-client admission quotas (enforced by network front ends).
    pub quota: QuotaConfig,
}

impl Default for ServeConfig {
    /// The historical builder defaults: 2 workers per shard, a
    /// 64-request queue, a 32-compilation cache, no quotas.
    fn default() -> Self {
        Self {
            workers_per_shard: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            quota: QuotaConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Serializes every knob (disabled quotas as `null`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("workers_per_shard", Json::from(self.workers_per_shard)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("cache_capacity", Json::from(self.cache_capacity)),
            ("quota", self.quota.to_json()),
        ])
    }

    /// Reads a config back from [`ServeConfig::to_json`] output — or
    /// from a hand-written partial document: missing or `null` members
    /// take their defaults, mistyped or unknown members are schema
    /// errors, and a document whose *values* violate an invariant
    /// ([`ServeConfig::validate`] at error level — a zero-capacity
    /// queue, a zero in-flight quota, a non-positive rate limit) is
    /// refused with the offending diagnostic codes instead of being
    /// silently repaired.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a mistyped or unknown field or an
    /// error-level validation finding.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        known_members(
            json,
            "",
            &[
                "workers_per_shard",
                "queue_capacity",
                "cache_capacity",
                "quota",
            ],
        )?;
        let defaults = Self::default();
        let quota = match json.get("quota") {
            None | Some(Json::Null) => QuotaConfig::default(),
            Some(value) => QuotaConfig::from_json(value)?,
        };
        let config = Self {
            workers_per_shard: opt_usize(json, "workers_per_shard")?
                .unwrap_or(defaults.workers_per_shard),
            queue_capacity: opt_usize(json, "queue_capacity")?.unwrap_or(defaults.queue_capacity),
            cache_capacity: opt_usize(json, "cache_capacity")?.unwrap_or(defaults.cache_capacity),
            quota,
        };
        config
            .check()
            .map_err(|e| JsonError::schema(e.to_string()))?;
        Ok(config)
    }

    /// Statically validates the configuration, returning every finding
    /// as a coded diagnostic (see `dqc_types::diag::REGISTRY`).
    ///
    /// Errors are invariant violations under which the server cannot do
    /// useful work — a queue bound of zero (`DQC-E009`), an in-flight
    /// quota of zero that blocks every submission (`DQC-E012`), or a
    /// non-positive or non-finite rate limit (`DQC-E010`). The warning
    /// flags a legal but surprising setting: a disabled compile cache
    /// (`DQC-W006`).
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut findings = Vec::new();
        let field = |path: &str| Site::Field(path.to_string());
        if self.queue_capacity == 0 {
            findings.push(Diagnostic::new(
                "DQC-E009",
                field("queue_capacity"),
                "a zero-capacity shard queue can never admit a request",
                "set `queue_capacity` to at least 1",
            ));
        }
        if self.cache_capacity == 0 {
            findings.push(Diagnostic::new(
                "DQC-W006",
                field("cache_capacity"),
                "the warm compile cache is disabled: every request recompiles",
                "set `cache_capacity` > 0 unless benchmarking the cold path",
            ));
        }
        if self.quota.max_in_flight == Some(0) {
            findings.push(Diagnostic::new(
                "DQC-E012",
                field("quota.max_in_flight"),
                "an in-flight quota of 0 refuses every submission from every client",
                "raise the quota or set it to null to disable",
            ));
        }
        if let Some(rate) = &self.quota.rate {
            for (value, path) in [
                (rate.per_sec, "quota.rate.per_sec"),
                (rate.burst, "quota.rate.burst"),
            ] {
                if !(value.is_finite() && value > 0.0) {
                    findings.push(Diagnostic::new(
                        "DQC-E010",
                        field(path),
                        format!("rate-limit term {value} admits no requests"),
                        "use a finite, positive rate, or null to disable the limit",
                    ));
                }
            }
        }
        findings
    }

    /// Refuses the configuration when [`ServeConfig::validate`] finds an
    /// error. The one enforcement point: both the JSON loader and
    /// [`ServeBuilder::spawn`](crate::ServeBuilder::spawn) call it.
    pub(crate) fn check(&self) -> Result<(), ServeError> {
        let diagnostics: Vec<Diagnostic> = self
            .validate()
            .into_iter()
            .filter(Diagnostic::is_error)
            .collect();
        if diagnostics.is_empty() {
            Ok(())
        } else {
            Err(ServeError::InvalidConfig { diagnostics })
        }
    }
}

/// Refuses a document that is not an object or that carries a member
/// outside `known`, naming the member by its dotted path under `path`.
fn known_members(json: &Json, path: &str, known: &[&str]) -> Result<(), JsonError> {
    let Json::Object(members) = json else {
        let what = if path.is_empty() { "config" } else { path };
        return Err(JsonError::schema(format!(
            "`{what}`: expected object, got {}",
            json.type_name()
        )));
    };
    match members
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        None => Ok(()),
        Some((key, _)) if path.is_empty() => {
            Err(JsonError::schema(format!("unknown member `{key}`")))
        }
        Some((key, _)) => Err(JsonError::schema(format!("unknown member `{path}.{key}`"))),
    }
}

/// Optional-field reader: absent (or `null`) means "use the default",
/// present-but-mistyped is a schema error.
fn opt_usize(json: &Json, key: &str) -> Result<Option<usize>, JsonError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => json.usize_field(key).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_config() -> ServeConfig {
        ServeConfig {
            workers_per_shard: 3,
            queue_capacity: 128,
            cache_capacity: 16,
            quota: QuotaConfig {
                max_in_flight: Some(8),
                rate: Some(RateLimit {
                    per_sec: 100.0,
                    burst: 20.0,
                }),
            },
        }
    }

    #[test]
    fn config_round_trips_through_json_text() {
        for config in [ServeConfig::default(), full_config()] {
            let text = config.to_json().to_pretty_string();
            let back = ServeConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn empty_document_yields_defaults() {
        let parsed = Json::parse("{}").unwrap();
        assert_eq!(
            ServeConfig::from_json(&parsed).unwrap(),
            ServeConfig::default()
        );
    }

    #[test]
    fn partial_document_overrides_only_named_knobs() {
        let parsed = Json::parse(r#"{"workers_per_shard": 7, "cache_capacity": 5}"#).unwrap();
        let config = ServeConfig::from_json(&parsed).unwrap();
        assert_eq!(config.workers_per_shard, 7);
        assert_eq!(config.cache_capacity, 5);
        let defaults = ServeConfig::default();
        assert_eq!(config.queue_capacity, defaults.queue_capacity);
        assert_eq!(config.quota, QuotaConfig::default());
    }

    #[test]
    fn mistyped_fields_are_schema_errors_not_defaults() {
        for doc in [
            r#"{"workers_per_shard": "two"}"#,
            r#"{"queue_capacity": 1.5}"#,
            r#"{"quota": {"max_in_flight": true}}"#,
            r#"{"quota": {"rate": {"per_sec": 5.0}}}"#,
            r#"{"quota": 4}"#,
            "[]",
        ] {
            let parsed = Json::parse(doc).unwrap();
            assert!(ServeConfig::from_json(&parsed).is_err(), "{doc}");
        }
    }

    #[test]
    fn unknown_members_are_refused_by_name() {
        // Knobs this schema no longer has, and plain typos, at every
        // nesting level: each fails at load naming the member instead of
        // silently running on defaults.
        for (doc, named) in [
            (r#"{"fusion": false}"#, "`fusion`"),
            (r#"{"batch_max": 8}"#, "`batch_max`"),
            (r#"{"worker_budget": 4}"#, "`worker_budget`"),
            (r#"{"metrics": {"latency_window": 64}}"#, "`metrics`"),
            (r#"{"autoscale": {"tick_ms": 20}}"#, "`autoscale`"),
            (r#"{"autoscale": false}"#, "`autoscale`"),
            (r#"{"workers_per_shrd": 4}"#, "`workers_per_shrd`"),
            (r#"{"quota": {"max_inflight": 4}}"#, "`quota.max_inflight`"),
            (
                r#"{"quota": {"rate": {"per_sec": 5.0, "burst": 2.0, "brust": 1.0}}}"#,
                "`quota.rate.brust`",
            ),
        ] {
            let parsed = Json::parse(doc).unwrap();
            let error = ServeConfig::from_json(&parsed).unwrap_err().to_string();
            assert!(error.contains(named), "{doc}: {error}");
        }
    }

    #[test]
    fn degenerate_bounds_are_typed_load_errors_not_silent_repairs() {
        // A hand-written config with a zero queue bound used to be
        // clamped to 1; it is now refused with the diagnostic codes.
        for (doc, code) in [
            (r#"{"queue_capacity": 0}"#, "DQC-E009"),
            (r#"{"quota": {"max_in_flight": 0}}"#, "DQC-E012"),
            (
                r#"{"quota": {"rate": {"per_sec": 0.0, "burst": 4.0}}}"#,
                "DQC-E010",
            ),
        ] {
            let parsed = Json::parse(doc).unwrap();
            let error = ServeConfig::from_json(&parsed).unwrap_err();
            assert!(error.to_string().contains(code), "{doc}: {error}");
        }
    }

    #[test]
    fn validate_separates_warnings_from_errors() {
        let defaults = ServeConfig::default();
        assert!(defaults.validate().is_empty(), "defaults analyze clean");

        let warned = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let findings = warned.validate();
        let codes: Vec<&str> = findings.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["DQC-W006"]);
        assert!(findings.iter().all(|d| !d.is_error()));
        // Warnings do not block loading.
        let text = warned.to_json().to_pretty_string();
        let back = ServeConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, warned);
    }

    #[test]
    fn bucket_bounds_convert_to_whole_microseconds() {
        // The 50 µs – 250 ms ladder, positive and strictly increasing.
        assert_eq!(BUCKET_BOUNDS_US.first(), Some(&50));
        assert_eq!(BUCKET_BOUNDS_US.last(), Some(&250_000));
        assert!(BUCKET_BOUNDS_US.windows(2).all(|w| 0 < w[0] && w[0] < w[1]));
    }

    #[test]
    fn quota_round_trips_and_reports_enforcement() {
        assert!(!QuotaConfig::default().is_enforcing());
        let quota = QuotaConfig {
            max_in_flight: Some(4),
            rate: None,
        };
        assert!(quota.is_enforcing());
        let back = QuotaConfig::from_json(&quota.to_json()).unwrap();
        assert_eq!(back, quota);
    }
}
