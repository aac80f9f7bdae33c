//! Typed axes of the hardware/software co-design space.
//!
//! Every knob the paper's co-design loop searches — hardware: EPR
//! fidelity, communication/buffer qubit counts, network topology;
//! software: the buffering [`Design`] — is a first-class [`Axis`]
//! carrying *typed* candidate values. A point of the space is identified
//! by a [`ScenarioKey`]: the benchmark plus one typed [`AxisValue`] per
//! axis.

use crate::Design;
use dqc_entanglement::TopologyFamily;
use dqc_types::{AxisId, Json, JsonError};
use std::fmt;

/// One axis of a design space: the knob's identity plus every candidate
/// value it takes in the search.
///
/// # Examples
///
/// ```
/// use dqc_core::{Axis, Design};
/// use dqc_types::AxisId;
///
/// let axis = Axis::Design(vec![Design::AsyncBuf, Design::AdaptBuf]);
/// assert_eq!(axis.id(), AxisId::Design);
/// assert_eq!(axis.len(), 2);
/// assert_eq!(axis.value(1).to_string(), "adapt_buf");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Initial fidelity of a freshly generated EPR pair.
    EprFidelity(Vec<f64>),
    /// Communication and buffer qubits per node, varied together (the
    /// paper's Fig. 7 convention).
    CommAndBuffer(Vec<usize>),
    /// Inter-node network topology family.
    Topology(Vec<TopologyFamily>),
    /// Buffering/scheduling architecture design.
    Design(Vec<Design>),
}

impl Axis {
    /// The knob this axis varies.
    pub const fn id(&self) -> AxisId {
        match self {
            Axis::EprFidelity(_) => AxisId::EprFidelity,
            Axis::CommAndBuffer(_) => AxisId::CommAndBuffer,
            Axis::Topology(_) => AxisId::Topology,
            Axis::Design(_) => AxisId::Design,
        }
    }

    /// Number of candidate values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::EprFidelity(v) => v.len(),
            Axis::CommAndBuffer(v) => v.len(),
            Axis::Topology(v) => v.len(),
            Axis::Design(v) => v.len(),
        }
    }

    /// Whether the axis has no candidate values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th candidate value.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn value(&self, i: usize) -> AxisValue {
        match self {
            Axis::EprFidelity(v) => AxisValue::EprFidelity(v[i]),
            Axis::CommAndBuffer(v) => AxisValue::CommAndBuffer(v[i]),
            Axis::Topology(v) => AxisValue::Topology(v[i]),
            Axis::Design(v) => AxisValue::Design(v[i]),
        }
    }
}

/// One typed value of one axis — a coordinate of a design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// Initial EPR-pair fidelity.
    EprFidelity(f64),
    /// Communication and buffer qubits per node, set together.
    CommAndBuffer(usize),
    /// Network topology family.
    Topology(TopologyFamily),
    /// Architecture design.
    Design(Design),
}

impl AxisValue {
    /// The axis this value belongs to.
    pub const fn id(&self) -> AxisId {
        match self {
            AxisValue::EprFidelity(_) => AxisId::EprFidelity,
            AxisValue::CommAndBuffer(_) => AxisId::CommAndBuffer,
            AxisValue::Topology(_) => AxisId::Topology,
            AxisValue::Design(_) => AxisId::Design,
        }
    }

    /// The design, when this is a [`AxisValue::Design`] coordinate.
    pub const fn as_design(&self) -> Option<Design> {
        match self {
            AxisValue::Design(d) => Some(*d),
            _ => None,
        }
    }

    /// Serializes the coordinate as `{"axis": …, "value": …}` — a float
    /// for the fidelity, an integer for the qubit count, canonical names
    /// for the enumerated knobs.
    pub fn to_json(&self) -> Json {
        let value = match *self {
            AxisValue::EprFidelity(f) => Json::float(f),
            AxisValue::CommAndBuffer(n) => Json::from(n),
            AxisValue::Topology(t) => Json::from(t.to_string()),
            AxisValue::Design(d) => Json::from(d.name()),
        };
        Json::object([("axis", self.id().to_json()), ("value", value)])
    }

    /// Reads a coordinate back from [`AxisValue::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on an unknown axis or a mistyped value.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let id = AxisId::from_json(json.field("axis")?)?;
        let value = json.field("value")?;
        let name = |kind: &'static str| {
            value
                .as_str()
                .ok_or_else(|| mistyped(id, kind))
                .map(str::to_string)
        };
        Ok(match id {
            AxisId::EprFidelity => {
                AxisValue::EprFidelity(value.as_f64().ok_or_else(|| mistyped(id, "a number"))?)
            }
            AxisId::CommAndBuffer => AxisValue::CommAndBuffer(
                value
                    .as_i64()
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or_else(|| mistyped(id, "a count"))?,
            ),
            AxisId::Topology => AxisValue::Topology(
                name("a topology label")?
                    .parse()
                    .map_err(|e| JsonError::schema(format!("axis `topology`: {e}")))?,
            ),
            AxisId::Design => AxisValue::Design(
                name("a design name")?
                    .parse()
                    .map_err(|e| JsonError::schema(format!("axis `design`: {e}")))?,
            ),
        })
    }
}

fn mistyped(id: AxisId, expected: &str) -> JsonError {
    JsonError::schema(format!("axis `{id}`: expected {expected}"))
}

impl fmt::Display for AxisValue {
    /// The bare value, formatted canonically (floats use Rust's shortest
    /// round-trip form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AxisValue::EprFidelity(v) => write!(f, "{v}"),
            AxisValue::CommAndBuffer(n) => write!(f, "{n}"),
            AxisValue::Topology(t) => write!(f, "{t}"),
            AxisValue::Design(d) => f.write_str(d.name()),
        }
    }
}

/// Structured identity of one evaluated scenario: the benchmark plus one
/// typed coordinate per axis of the design space, in axis order.
///
/// # Examples
///
/// ```
/// use dqc_core::{AxisValue, Design, ScenarioKey};
/// use dqc_types::AxisId;
///
/// let key = ScenarioKey {
///     circuit: "QAOA-r8-32".to_string(),
///     values: vec![
///         AxisValue::CommAndBuffer(10),
///         AxisValue::Design(Design::AdaptBuf),
///     ],
/// };
/// assert_eq!(key.design(), Some(Design::AdaptBuf));
/// assert_eq!(key.to_string(), "QAOA-r8-32[comm_and_buffer=10,design=adapt_buf]");
/// assert!(key.get(AxisId::Topology).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioKey {
    /// Label of the evaluated circuit (benchmark name).
    pub circuit: String,
    /// One coordinate per design-space axis, in axis order.
    pub values: Vec<AxisValue>,
}

impl ScenarioKey {
    /// The coordinate on the given axis, when present.
    pub fn get(&self, id: AxisId) -> Option<&AxisValue> {
        self.values.iter().find(|v| v.id() == id)
    }

    /// The design coordinate, when a design axis is present.
    pub fn design(&self) -> Option<Design> {
        self.values.iter().find_map(AxisValue::as_design)
    }

    /// The `axis=value,…` part of the label, without the circuit.
    pub fn point_label(&self) -> String {
        self.values
            .iter()
            .map(|v| format!("{}={v}", v.id()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Serializes the key for the machine-readable results pipeline.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("circuit", Json::from(self.circuit.as_str())),
            (
                "values",
                Json::Array(self.values.iter().map(AxisValue::to_json).collect()),
            ),
        ])
    }

    /// Reads a key back from [`ScenarioKey::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            circuit: json.str_field("circuit")?.to_string(),
            values: json
                .array_field("values")?
                .iter()
                .map(AxisValue::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.circuit, self.point_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<AxisValue> {
        vec![
            AxisValue::EprFidelity(0.97),
            AxisValue::CommAndBuffer(10),
            AxisValue::Topology(TopologyFamily::Grid2d { rows: 2, cols: 2 }),
            AxisValue::Design(Design::AdaptBuf),
        ]
    }

    #[test]
    fn every_axis_value_round_trips_through_json() {
        for value in sample_values() {
            let json = value.to_json();
            assert_eq!(AxisValue::from_json(&json).unwrap(), value, "{value}");
            // Through actual text too.
            let reparsed = Json::parse(&json.to_pretty_string()).unwrap();
            assert_eq!(AxisValue::from_json(&reparsed).unwrap(), value);
        }
    }

    #[test]
    fn ids_cover_every_variant_in_axis_order() {
        let ids: Vec<AxisId> = sample_values().iter().map(AxisValue::id).collect();
        assert_eq!(ids, AxisId::ALL.to_vec());
    }

    #[test]
    fn axis_reports_id_and_values() {
        let axis = Axis::CommAndBuffer(vec![5, 10, 20]);
        assert_eq!(axis.id(), AxisId::CommAndBuffer);
        assert_eq!(axis.len(), 3);
        assert!(!axis.is_empty());
        assert_eq!(axis.value(2), AxisValue::CommAndBuffer(20));
        assert!(Axis::Design(vec![]).is_empty());
    }

    #[test]
    fn scenario_key_accessors_and_json() {
        let key = ScenarioKey {
            circuit: "QFT-32".to_string(),
            values: vec![
                AxisValue::EprFidelity(0.99),
                AxisValue::Design(Design::AsyncBuf),
            ],
        };
        assert_eq!(key.design(), Some(Design::AsyncBuf));
        assert_eq!(
            key.get(AxisId::EprFidelity),
            Some(&AxisValue::EprFidelity(0.99))
        );
        assert_eq!(
            key.to_string(),
            "QFT-32[epr_fidelity=0.99,design=async_buf]"
        );
        let back = ScenarioKey::from_json(&key.to_json()).unwrap();
        assert_eq!(back, key);
    }

    #[test]
    fn from_json_rejects_mistyped_values() {
        let bad = Json::object([("axis", Json::from("design")), ("value", Json::Int(7))]);
        assert!(AxisValue::from_json(&bad).is_err());
        let unknown = Json::object([
            ("axis", Json::from("design")),
            ("value", Json::from("warp_drive")),
        ]);
        let err = AxisValue::from_json(&unknown).unwrap_err();
        assert!(err.to_string().contains("warp_drive"), "{err}");
        // Knobs no search varies are not design-space axes: the
        // simulation engine, the split qubit counts, κ, the EPR cycle,
        // the protocol and the partitioner.
        for (axis, value) in [
            ("backend", Json::from("auto")),
            ("kappa", Json::float(2e-4)),
            ("epr_cycle", Json::Int(100)),
            ("comm_qubits", Json::from(8usize)),
            ("buffer_qubits", Json::from(12usize)),
            ("protocol", Json::from("state_teleport")),
            ("partitioner", Json::from("hop_weighted")),
        ] {
            let removed = Json::object([("axis", Json::from(axis)), ("value", value)]);
            let err = AxisValue::from_json(&removed).unwrap_err();
            assert!(matches!(err, JsonError::Schema { .. }), "{err}");
            assert!(
                err.to_string().contains(&format!("unknown axis `{axis}`")),
                "{err}"
            );
        }
    }
}
