//! The coded diagnostic taxonomy shared by the static analyzer and every
//! layer that refuses work on static grounds.
//!
//! A [`Diagnostic`] is one finding: a stable code (`DQC-E001`,
//! `DQC-W004`), a [`Severity`], the [`Site`] it anchors to, a
//! human-readable message, and a `help` line saying what to change. The
//! full taxonomy lives in [`REGISTRY`] so tooling (and the test suite)
//! can enumerate every code that exists — a code outside the registry is
//! a bug, and a registry code no pass can emit is dead.
//!
//! The type lives here, not in `dqc-analyze`, because producers span the
//! whole stack: `dqc-core` maps each compile refusal to its code,
//! `dqc-serve` validates a `ServeConfig` at load, the `dqc-served`
//! daemon attaches diagnostics to wire refusals, and `dqc-codesign`
//! reports statically pruned design points — none of which may depend
//! on the analyzer crate.

use crate::json::{Json, JsonError};
use std::fmt;

/// How severe a finding is: errors are statically proven failures
/// (execution *cannot* succeed as configured), warnings are likely
/// mistakes or performance hazards that still execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable; deniable via `--deny warnings`.
    Warning,
    /// Statically proven to fail or hang; always refused.
    Error,
}

impl Severity {
    /// The severity's lowercase wire name.
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a diagnostic anchors: the circuit, gate, qubit, network link,
/// configuration field, or portfolio slice the finding is about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Site {
    /// A whole circuit, by label.
    Circuit(String),
    /// One operation: the circuit label and the gate's index.
    Gate {
        /// The circuit's label.
        circuit: String,
        /// The operation's index in program order.
        index: usize,
    },
    /// One qubit of a circuit.
    Qubit {
        /// The circuit's label.
        circuit: String,
        /// The qubit's index.
        qubit: u32,
    },
    /// One inter-node link of the network topology.
    Link {
        /// The lower-numbered endpoint.
        a: usize,
        /// The higher-numbered endpoint.
        b: usize,
    },
    /// A configuration field, by dotted path (`"quota.rate.per_sec"`).
    Field(String),
    /// A design-space point or serving hardware point, by name/index.
    Point(String),
}

impl Site {
    /// Serializes the site as a tagged object.
    pub fn to_json(&self) -> Json {
        match self {
            Site::Circuit(label) => Json::object([
                ("kind", Json::from("circuit")),
                ("circuit", Json::from(label.as_str())),
            ]),
            Site::Gate { circuit, index } => Json::object([
                ("kind", Json::from("gate")),
                ("circuit", Json::from(circuit.as_str())),
                ("index", Json::from(*index)),
            ]),
            Site::Qubit { circuit, qubit } => Json::object([
                ("kind", Json::from("qubit")),
                ("circuit", Json::from(circuit.as_str())),
                ("qubit", Json::uint(u64::from(*qubit))),
            ]),
            Site::Link { a, b } => Json::object([
                ("kind", Json::from("link")),
                ("a", Json::from(*a)),
                ("b", Json::from(*b)),
            ]),
            Site::Field(path) => Json::object([
                ("kind", Json::from("field")),
                ("field", Json::from(path.as_str())),
            ]),
            Site::Point(name) => Json::object([
                ("kind", Json::from("point")),
                ("point", Json::from(name.as_str())),
            ]),
        }
    }

    /// Reads a site back from [`Site::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on an unknown kind or a missing field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.str_field("kind")? {
            "circuit" => Ok(Site::Circuit(json.str_field("circuit")?.to_string())),
            "gate" => Ok(Site::Gate {
                circuit: json.str_field("circuit")?.to_string(),
                index: json.usize_field("index")?,
            }),
            "qubit" => Ok(Site::Qubit {
                circuit: json.str_field("circuit")?.to_string(),
                qubit: u32::try_from(json.u64_field("qubit")?)
                    .map_err(|_| JsonError::schema("qubit index exceeds u32"))?,
            }),
            "link" => Ok(Site::Link {
                a: json.usize_field("a")?,
                b: json.usize_field("b")?,
            }),
            "field" => Ok(Site::Field(json.str_field("field")?.to_string())),
            "point" => Ok(Site::Point(json.str_field("point")?.to_string())),
            other => Err(JsonError::schema(format!("unknown site kind `{other}`"))),
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Circuit(label) => write!(f, "circuit `{label}`"),
            Site::Gate { circuit, index } => write!(f, "circuit `{circuit}` op #{index}"),
            Site::Qubit { circuit, qubit } => write!(f, "circuit `{circuit}` qubit {qubit}"),
            Site::Link { a, b } => write!(f, "link {a}-{b}"),
            Site::Field(path) => write!(f, "config field `{path}`"),
            Site::Point(name) => write!(f, "point `{name}`"),
        }
    }
}

/// One static-analysis finding. Construct through [`Diagnostic::new`] so
/// the severity always matches the code's letter.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable taxonomy code, e.g. `DQC-E001` (see [`REGISTRY`]).
    pub code: &'static str,
    /// Derived from the code's letter: `E` ⇒ error, `W` ⇒ warning.
    pub severity: Severity,
    /// What the finding anchors to.
    pub site: Site,
    /// What is wrong, in one sentence with concrete numbers.
    pub message: String,
    /// What to change to resolve it.
    pub help: String,
}

impl Diagnostic {
    /// Creates a finding for a registered code.
    ///
    /// # Panics
    ///
    /// Panics when `code` is not in [`REGISTRY`] — an unregistered code
    /// is a bug in the emitting pass, not a runtime condition.
    pub fn new(
        code: &str,
        site: Site,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Self {
        let info = code_info(code)
            .unwrap_or_else(|| panic!("diagnostic code `{code}` is not in the registry"));
        Self {
            code: info.code,
            severity: info.severity,
            site,
            message: message.into(),
            help: help.into(),
        }
    }

    /// Whether this finding is an [`Severity::Error`].
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Serializes the finding.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("code", Json::from(self.code)),
            ("severity", Json::from(self.severity.name())),
            ("site", self.site.to_json()),
            ("message", Json::from(self.message.as_str())),
            ("help", Json::from(self.help.as_str())),
        ])
    }

    /// Reads a finding back from [`Diagnostic::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] on an unregistered code, a severity that
    /// contradicts the code, or a missing/mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let code = json.str_field("code")?;
        let info = code_info(code)
            .ok_or_else(|| JsonError::schema(format!("unknown diagnostic code `{code}`")))?;
        let severity = json.str_field("severity")?;
        if severity != info.severity.name() {
            return Err(JsonError::schema(format!(
                "severity `{severity}` contradicts code `{code}`"
            )));
        }
        Ok(Self {
            code: info.code,
            severity: info.severity,
            site: Site::from_json(json.field("site")?)?,
            message: json.str_field("message")?.to_string(),
            help: json.str_field("help")?.to_string(),
        })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {} (help: {})",
            self.severity, self.code, self.site, self.message, self.help
        )
    }
}

/// One registered diagnostic code: its identity, severity, and a
/// one-line summary of the condition it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code string, e.g. `DQC-W003`.
    pub code: &'static str,
    /// The severity every finding with this code carries.
    pub severity: Severity,
    /// One line describing the condition.
    pub summary: &'static str,
}

/// Every diagnostic code that exists, in code order. The analyzer's
/// fixture suite asserts each entry is reachable (no dead codes) and the
/// shipped corpus triggers none of them (no false positives).
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: "DQC-E001",
        severity: Severity::Error,
        summary: "circuit is wider than the system's data-qubit capacity",
    },
    // DQC-E002 ("stabilizer backend selected for a non-Clifford circuit")
    // is retired: the stabilizer engine is deleted. Never reuse the code.
    // DQC-E003 ("density-matrix backend selected beyond its qubit limit")
    // is retired: the density engine is deleted. Never reuse the code.
    CodeInfo {
        code: "DQC-E004",
        severity: Severity::Error,
        summary: "topology node count contradicts the system configuration",
    },
    CodeInfo {
        code: "DQC-E005",
        severity: Severity::Error,
        summary: "multi-node topology is disconnected",
    },
    CodeInfo {
        code: "DQC-E006",
        severity: Severity::Error,
        summary: "remote gates required but no communication qubits exist",
    },
    // DQC-E007 ("one remote gate needs more links than a node can hold")
    // is retired: the engine serves teledata one pair at a time, so no
    // refusal stood behind it. Never reuse the code.
    // DQC-E008 ("autoscale worker floor exceeds the worker budget") is
    // retired: the floor is a constant and the budget is derived from
    // the worker count. Never reuse the code.
    CodeInfo {
        code: "DQC-E009",
        severity: Severity::Error,
        summary: "shard queue capacity is zero (no request can ever be admitted)",
    },
    CodeInfo {
        code: "DQC-E010",
        severity: Severity::Error,
        summary: "rate limit is non-positive or non-finite",
    },
    // DQC-E011 ("autoscale pressure thresholds are inverted or out of
    // range") is retired: the thresholds are constants. Never reuse the
    // code.
    CodeInfo {
        code: "DQC-E012",
        severity: Severity::Error,
        summary: "in-flight quota of zero blocks every submission",
    },
    CodeInfo {
        code: "DQC-E013",
        severity: Severity::Error,
        summary: "an operation fidelity is not a number in [0, 1]",
    },
    CodeInfo {
        code: "DQC-W001",
        severity: Severity::Warning,
        summary: "declared qubit is never operated on",
    },
    CodeInfo {
        code: "DQC-W002",
        severity: Severity::Warning,
        summary: "gate applied to a qubit after its measurement",
    },
    CodeInfo {
        code: "DQC-W003",
        severity: Severity::Warning,
        summary: "EPR demand far exceeds link generation capacity over the critical path",
    },
    CodeInfo {
        code: "DQC-W004",
        severity: Severity::Warning,
        summary: "multi-qubit circuit is fully serialized (zero schedule slack)",
    },
    // DQC-W005 ("portfolio contains fusable duplicates but replay fusion
    // is disabled") is retired, and so is replay fusion itself. Never
    // reuse the code.
    CodeInfo {
        code: "DQC-W006",
        severity: Severity::Warning,
        summary: "warm compile cache is disabled (every request recompiles)",
    },
    // DQC-W007 ("autoscale hysteresis is zero") and DQC-W008 ("metrics
    // window disabled or histogram buckets degenerate") are retired: the
    // hysteresis and the latency window are gone, and the bucket ladder
    // is a constant. Never reuse the codes.
];

/// Looks a code up in [`REGISTRY`].
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|info| info.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_well_formed_and_sorted() {
        for info in REGISTRY {
            let (prefix, number) = info.code.split_at(5);
            let letter = match info.severity {
                Severity::Warning => "DQC-W",
                Severity::Error => "DQC-E",
            };
            assert_eq!(prefix, letter, "{}", info.code);
            assert_eq!(number.len(), 3, "{}", info.code);
            assert!(number.chars().all(|c| c.is_ascii_digit()), "{}", info.code);
            assert!(!info.summary.is_empty());
        }
        let mut codes: Vec<&str> = REGISTRY.iter().map(|i| i.code).collect();
        let sorted = {
            let mut s = codes.clone();
            s.sort_unstable();
            s
        };
        codes.dedup();
        assert_eq!(codes.len(), REGISTRY.len(), "duplicate code");
        assert_eq!(
            codes, sorted,
            "registry must stay in code order for readable docs"
        );
    }

    #[test]
    fn diagnostics_round_trip_through_json_text() {
        let sites = [
            Site::Circuit("qft-32".to_string()),
            Site::Gate {
                circuit: "qft-32".to_string(),
                index: 7,
            },
            Site::Qubit {
                circuit: "ghz".to_string(),
                qubit: 3,
            },
            Site::Link { a: 0, b: 1 },
            Site::Field("quota.rate.per_sec".to_string()),
            Site::Point("paper".to_string()),
        ];
        for (info, site) in REGISTRY.iter().zip(sites.iter().cycle()) {
            let diag = Diagnostic::new(info.code, site.clone(), "message", "help");
            assert_eq!(diag.severity, info.severity);
            let text = diag.to_json().to_pretty_string();
            let back = Diagnostic::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, diag);
        }
    }

    #[test]
    fn mismatched_severity_and_unknown_code_are_schema_errors() {
        let diag = Diagnostic::new("DQC-E001", Site::Circuit("c".to_string()), "m", "h");
        let mut json = diag.to_json();
        if let Json::Object(members) = &mut json {
            for (key, value) in members.iter_mut() {
                if key == "severity" {
                    *value = Json::from("warning");
                }
            }
        }
        assert!(Diagnostic::from_json(&json).is_err());

        let unknown = Json::object([
            ("code", Json::from("DQC-E999")),
            ("severity", Json::from("error")),
            ("site", Site::Circuit("c".to_string()).to_json()),
            ("message", Json::from("m")),
            ("help", Json::from("h")),
        ]);
        assert!(Diagnostic::from_json(&unknown).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn constructing_an_unregistered_code_panics() {
        let _ = Diagnostic::new("DQC-X000", Site::Circuit("c".to_string()), "m", "h");
    }
}
