//! The records a [`Recorder`](crate::Recorder) receives: completed spans
//! and point-in-time events, with a small typed attribute vocabulary.
//!
//! Records serialize over the workspace's dependency-free
//! [`dqc_types::Json`] layer with the usual exact-inverse
//! `to_json`/`from_json` convention, so captures survive the profiling
//! pipeline and the daemon's `trace` wire frame byte-for-byte.

use crate::{SpanId, TraceId};
use dqc_types::{Json, JsonError};

/// One typed attribute value on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counters, sizes, seeds, cache keys).
    U64(u64),
    /// A float (ratios, milliseconds).
    F64(f64),
    /// A string (labels, backend names, hardware points).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(value: u64) -> Self {
        AttrValue::U64(value)
    }
}

impl From<usize> for AttrValue {
    fn from(value: usize) -> Self {
        AttrValue::U64(value as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(value: f64) -> Self {
        AttrValue::F64(value)
    }
}

impl From<&str> for AttrValue {
    fn from(value: &str) -> Self {
        AttrValue::Str(value.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(value: String) -> Self {
        AttrValue::Str(value)
    }
}

impl AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::uint(*v),
            AttrValue::F64(v) => Json::float(*v),
            AttrValue::Str(v) => Json::Str(v.clone()),
        }
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Int(v) => Ok(match u64::try_from(*v) {
                Ok(u) => AttrValue::U64(u),
                Err(_) => AttrValue::F64(*v as f64),
            }),
            Json::Float(v) => Ok(AttrValue::F64(*v)),
            Json::Str(s) => Ok(AttrValue::Str(s.clone())),
            other => Err(JsonError::schema(format!(
                "attribute value must be a number or string, got {}",
                other.type_name()
            ))),
        }
    }
}

/// A named attribute list, shared by spans and events.
pub type Attrs = Vec<(&'static str, AttrValue)>;

fn attrs_from_json(json: &Json) -> Result<Vec<(String, AttrValue)>, JsonError> {
    match json {
        Json::Object(members) => members
            .iter()
            .map(|(k, v)| Ok((k.clone(), AttrValue::from_json(v)?)))
            .collect(),
        other => Err(JsonError::schema(format!(
            "`attrs` must be an object, got {}",
            other.type_name()
        ))),
    }
}

/// One completed span: a named interval inside a trace, with optional
/// parent and typed attributes. Timestamps are microseconds on the
/// installed [`Clock`](crate::Clock) (monotonic in production, explicit
/// ticks under test) — never wall-clock dates.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's identity.
    pub id: SpanId,
    /// The enclosing span, if any (`None` marks a trace root).
    pub parent: Option<SpanId>,
    /// The span's name (e.g. `compile.partition`, `serve.dispatch`).
    pub name: String,
    /// Start, in clock microseconds.
    pub start_us: u64,
    /// End, in clock microseconds (`end_us >= start_us`).
    pub end_us: u64,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Serializes the record.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("trace", Json::Str(self.trace.to_string())),
            ("id", Json::uint(self.id.0)),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::uint(p.0),
                    None => Json::Null,
                },
            ),
            ("name", Json::Str(self.name.clone())),
            ("start_us", Json::uint(self.start_us)),
            ("end_us", Json::uint(self.end_us)),
            (
                "attrs",
                Json::object(self.attrs.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
        ])
    }

    /// Exact inverse of [`SpanRecord::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on any missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let trace = TraceId::parse(json.str_field("trace")?)
            .ok_or_else(|| JsonError::schema("`trace` is not a 16-digit hex trace id"))?;
        let parent = match json.field("parent")? {
            Json::Null => None,
            other => Some(SpanId(other.as_u64().ok_or_else(|| {
                JsonError::schema("`parent` must be null or an unsigned integer")
            })?)),
        };
        Ok(Self {
            trace,
            id: SpanId(json.u64_field("id")?),
            parent,
            name: json.str_field("name")?.to_string(),
            start_us: json.u64_field("start_us")?,
            end_us: json.u64_field("end_us")?,
            attrs: attrs_from_json(json.field("attrs")?)?,
        })
    }
}

/// One point-in-time event (a request refused at admission), optionally
/// attached to an enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The trace the event belongs to, if it happened inside one.
    pub trace: Option<TraceId>,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The event's name (e.g. `serve.rejected`).
    pub name: String,
    /// When it happened, in clock microseconds.
    pub at_us: u64,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl EventRecord {
    /// Serializes the record.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "trace",
                match self.trace {
                    Some(t) => Json::Str(t.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::uint(p.0),
                    None => Json::Null,
                },
            ),
            ("name", Json::Str(self.name.clone())),
            ("at_us", Json::uint(self.at_us)),
            (
                "attrs",
                Json::object(self.attrs.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
        ])
    }

    /// Exact inverse of [`EventRecord::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on any missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let trace = match json.field("trace")? {
            Json::Null => None,
            other => Some(
                other
                    .as_str()
                    .and_then(TraceId::parse)
                    .ok_or_else(|| JsonError::schema("`trace` is not a hex trace id"))?,
            ),
        };
        let parent = match json.field("parent")? {
            Json::Null => None,
            other => Some(SpanId(other.as_u64().ok_or_else(|| {
                JsonError::schema("`parent` must be null or an unsigned integer")
            })?)),
        };
        Ok(Self {
            trace,
            parent,
            name: json.str_field("name")?.to_string(),
            at_us: json.u64_field("at_us")?,
            attrs: attrs_from_json(json.field("attrs")?)?,
        })
    }
}

/// Builds the live-side attribute list into the stored form.
pub(crate) fn own_attrs(attrs: Attrs) -> Vec<(String, AttrValue)> {
    attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_round_trip() {
        let record = SpanRecord {
            trace: TraceId(9),
            id: SpanId(4),
            parent: Some(SpanId(2)),
            name: "compile.partition".to_string(),
            start_us: 10,
            end_us: 35,
            attrs: vec![
                ("nodes".to_string(), AttrValue::U64(2)),
                ("strategy".to_string(), AttrValue::Str("auto".to_string())),
                ("stretch".to_string(), AttrValue::F64(1.5)),
            ],
        };
        assert_eq!(record.duration_us(), 25);
        let back = SpanRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn root_spans_and_bare_events_round_trip() {
        let span = SpanRecord {
            trace: TraceId(1),
            id: SpanId(1),
            parent: None,
            name: "request".to_string(),
            start_us: 0,
            end_us: 7,
            attrs: Vec::new(),
        };
        assert_eq!(SpanRecord::from_json(&span.to_json()).unwrap(), span);
        let event = EventRecord {
            trace: None,
            parent: None,
            name: "serve.rejected".to_string(),
            at_us: 99,
            attrs: vec![("point".to_string(), AttrValue::Str("a".to_string()))],
        };
        assert_eq!(EventRecord::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn malformed_records_are_schema_errors() {
        assert!(SpanRecord::from_json(&Json::Null).is_err());
        let json = Json::object([("trace", Json::Str("zz".into()))]);
        assert!(SpanRecord::from_json(&json).is_err());
    }
}
