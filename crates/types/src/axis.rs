//! Identities of the co-design search axes.
//!
//! The paper's co-design loop trades hardware provisioning (EPR fidelity,
//! communication/buffer qubit counts, network topology) against the
//! buffering design. [`AxisId`] names each searched knob once, at the
//! bottom of the crate graph, so every layer — the typed axis values in
//! `dqc-core`, the search engine in `dqc-codesign`, and the JSON results
//! pipeline — agrees on the same identities and spellings.

use crate::{Json, JsonError};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error returned when parsing a name that belongs to no known variant of
/// an enumeration (a design, an axis, a topology family, …).
///
/// Shared by the `FromStr` implementations across the workspace so every
/// "unknown name" failure renders the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// What kind of name was being parsed (e.g. `"design"`, `"axis"`).
    pub kind: &'static str,
    /// The name that failed to parse.
    pub given: String,
}

impl UnknownName {
    /// Builds the error for a failed parse of `given` as a `kind`.
    pub fn new(kind: &'static str, given: impl Into<String>) -> Self {
        Self {
            kind,
            given: given.into(),
        }
    }
}

impl fmt::Display for UnknownName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.kind, self.given)
    }
}

impl Error for UnknownName {}

/// Identity of one searched knob of the hardware/software design space.
///
/// The three hardware axes describe the machine being provisioned; the
/// design is the one software axis, a pure runtime choice, so the
/// evaluation engine shares one compilation per circuit × realized
/// configuration across design-axis values. The simulation engine is no
/// axis: it never changes an answer, only how fast one is computed.
///
/// # Examples
///
/// ```
/// use dqc_types::AxisId;
///
/// assert_eq!(AxisId::EprFidelity.name(), "epr_fidelity");
/// assert_eq!("design".parse::<AxisId>(), Ok(AxisId::Design));
/// assert!("kappa".parse::<AxisId>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisId {
    /// Initial fidelity of a freshly generated EPR pair (hardware).
    EprFidelity,
    /// Communication and buffer qubits per node, varied together — the
    /// paper's Fig. 7 convention (hardware).
    CommAndBuffer,
    /// Inter-node network topology (hardware).
    Topology,
    /// Buffering/scheduling architecture design (software).
    Design,
}

impl AxisId {
    /// Every axis, hardware first, in canonical presentation order.
    pub const ALL: [AxisId; 4] = [
        AxisId::EprFidelity,
        AxisId::CommAndBuffer,
        AxisId::Topology,
        AxisId::Design,
    ];

    /// The snake_case name used in labels, JSON, and the CLI.
    pub const fn name(self) -> &'static str {
        match self {
            AxisId::EprFidelity => "epr_fidelity",
            AxisId::CommAndBuffer => "comm_and_buffer",
            AxisId::Topology => "topology",
            AxisId::Design => "design",
        }
    }

    /// Serializes the identity as its canonical name.
    pub fn to_json(self) -> Json {
        Json::from(self.name())
    }

    /// Reads an identity back from [`AxisId::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when the value is not a known axis name.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let name = json
            .as_str()
            .ok_or_else(|| JsonError::schema("axis id: expected a string"))?;
        name.parse()
            .map_err(|e: UnknownName| JsonError::schema(e.to_string()))
    }
}

impl fmt::Display for AxisId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AxisId {
    type Err = UnknownName;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AxisId::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownName::new("axis", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for id in AxisId::ALL {
            assert_eq!(id.name().parse::<AxisId>(), Ok(id));
            assert_eq!(id.to_string(), id.name());
        }
        let err = "warp_factor".parse::<AxisId>().unwrap_err();
        assert_eq!(err, UnknownName::new("axis", "warp_factor"));
        assert!(err.to_string().contains("unknown axis `warp_factor`"));
    }

    #[test]
    fn json_round_trips() {
        for id in AxisId::ALL {
            assert_eq!(AxisId::from_json(&id.to_json()).unwrap(), id);
        }
        assert!(AxisId::from_json(&Json::Int(3)).is_err());
        assert!(AxisId::from_json(&Json::from("nope")).is_err());
    }

    #[test]
    fn names_are_unique() {
        for a in AxisId::ALL {
            assert_eq!(
                AxisId::ALL.iter().filter(|b| b.name() == a.name()).count(),
                1
            );
        }
    }
}
