//! A hand-rolled, dependency-free JSON document model.
//!
//! The build environment is offline, so the workspace cannot pull in
//! `serde`; this module provides the small subset the results pipeline
//! needs instead: an ordered document tree ([`Json`]), a writer whose
//! float formatting is round-trip exact and never emits `NaN`/`inf`
//! (non-finite floats serialize as `null`), a recursive-descent parser,
//! and a tolerance-aware structural [`diff`] used by the `repro diff`
//! golden-file gate.
//!
//! # Examples
//!
//! ```
//! use dqc_types::json::Json;
//!
//! let doc = Json::Object(vec![
//!     ("depth".to_string(), Json::float(41.5)),
//!     ("runs".to_string(), Json::Int(50)),
//! ]);
//! let text = doc.to_pretty_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("depth").and_then(Json::as_f64), Some(41.5));
//! ```

use std::error::Error;
use std::fmt::{self, Write as _};

/// One JSON value: the document tree produced by [`Json::parse`] and
/// consumed by the writers.
///
/// Object members are an ordered `Vec` (not a map) so that serialized
/// artifacts are byte-stable and diff cleanly under version control;
/// lookup ([`Json::get`]) is linear, which is fine at report sizes.
/// Integers and floats are kept distinct so counters round-trip exactly:
/// the parser yields [`Json::Int`] for literals without a fraction or
/// exponent in `i64::MIN..=u64::MAX`, and [`Json::Float`] otherwise, so
/// every `i64` and every `u64` survives write → parse unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent) in
    /// `i64::MIN..=u64::MAX`.
    Int(i128),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Object(Vec<(String, Json)>),
}

/// Failure of JSON parsing ([`JsonError::Parse`]) or of mapping a parsed
/// tree onto a typed struct ([`JsonError::Schema`], produced by the
/// `from_json` constructors across the workspace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input text is not valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// The document is valid JSON but does not match the expected schema.
    Schema {
        /// What was missing or mistyped (includes the offending key).
        message: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            JsonError::Schema { message } => write!(f, "JSON schema mismatch: {message}"),
        }
    }
}

impl Error for JsonError {}

impl JsonError {
    /// Builds a schema error for a missing or mistyped field.
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError::Schema {
            message: message.into(),
        }
    }
}

// ------------------------------------------------------------ constructors

impl Json {
    /// Wraps a float, mapping non-finite values to [`Json::Null`] so the
    /// writer can never emit `NaN` or `inf` (which are not JSON).
    #[inline]
    pub fn float(value: f64) -> Json {
        if value.is_finite() {
            Json::Float(value)
        } else {
            Json::Null
        }
    }

    /// Wraps an unsigned counter exactly, across the whole `u64` range.
    #[inline]
    pub fn uint(value: u64) -> Json {
        Json::Int(value.into())
    }

    /// Builds an object from `(key, value)` pairs in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::uint(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

// --------------------------------------------------------------- accessors

impl Json {
    /// Looks up an object member by key (linear scan; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Some` for both [`Json::Int`] and [`Json::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats with integral values do not coerce).
    pub fn as_i64(&self) -> Option<i64> {
        self.as_int()
    }

    /// Unsigned view of an integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int()
    }

    fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Json::Int(i) => T::try_from(*i).ok(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The JSON type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    // Schema helpers: `field`/typed variants back every `from_json` in the
    // workspace, so their error messages are uniform.

    /// Required object member.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::schema(format!("missing field `{key}`")))
    }

    /// Required numeric member (int or float). `null` reads back as
    /// `NaN` — the inverse of [`Json::float`]'s non-finite-to-null
    /// writing policy — so a document containing a degenerate metric is
    /// still loadable instead of failing far from the root cause.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing or non-numeric.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        let v = self.field(key)?;
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| {
            JsonError::schema(format!(
                "field `{key}`: expected number, got {}",
                v.type_name()
            ))
        })
    }

    /// Required integer member.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing, not an integer, or outside
    /// `i64`.
    pub fn i64_field(&self, key: &str) -> Result<i64, JsonError> {
        self.int_field(key, "integer")
    }

    /// Required unsigned-integer member, exact across the whole `u64`
    /// range that [`Json::uint`] writes.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing, not an integer, or outside
    /// `u64`.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.int_field(key, "unsigned integer")
    }

    /// Required `usize` member.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing, not an integer, or out of range.
    pub fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        self.int_field(key, "usize")
    }

    fn int_field<T: TryFrom<i128>>(&self, key: &str, expected: &str) -> Result<T, JsonError> {
        let got = match self.field(key)? {
            Json::Int(i) => match T::try_from(*i) {
                Ok(value) => return Ok(value),
                Err(_) => i.to_string(),
            },
            v => v.type_name().to_string(),
        };
        Err(JsonError::schema(format!(
            "field `{key}`: expected {expected}, got {got}"
        )))
    }

    /// Required string member.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        let v = self.field(key)?;
        v.as_str().ok_or_else(|| {
            JsonError::schema(format!(
                "field `{key}`: expected string, got {}",
                v.type_name()
            ))
        })
    }

    /// Required array member.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when missing or not an array.
    pub fn array_field(&self, key: &str) -> Result<&[Json], JsonError> {
        let v = self.field(key)?;
        v.as_array().ok_or_else(|| {
            JsonError::schema(format!(
                "field `{key}`: expected array, got {}",
                v.type_name()
            ))
        })
    }
}

// ----------------------------------------------------------------- writing

impl Json {
    /// Serializes compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact serialization to `out`, so a caller can put
    /// the document after bytes of its own (a frame's length prefix)
    /// without copying it.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// format of every committed golden file, chosen to diff line-by-line
    /// under version control.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    items.len(),
                    '[',
                    ']',
                    |out, i, depth| {
                        items[i].write(out, indent, depth);
                    },
                );
            }
            Json::Object(members) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    members.len(),
                    '{',
                    '}',
                    |out, i, depth| {
                        let (key, value) = &members[i];
                        write_string(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        value.write(out, indent, depth);
                    },
                );
            }
        }
    }
}

/// Writes `n` comma-separated items between `open`/`close`, with optional
/// per-item indentation.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    n: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

/// Writes a float with Rust's shortest round-trip formatting (`{:?}`),
/// straight into `out`; it always includes a decimal point or exponent
/// so the value parses back as [`Json::Float`]. Non-finite values
/// (unreachable through [`Json::float`]) degrade to `null` rather than
/// producing invalid JSON.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes a quoted string, copying each run of characters that need no
/// escape in one append. Only ASCII bytes are escaped, so every run
/// boundary is a character boundary.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ----------------------------------------------------------------- parsing

/// Parser depth cap: golden artifacts nest a handful of levels, so
/// anything deeper is hostile or corrupt input, not data.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json {
    /// Parses a JSON document (one value plus surrounding whitespace).
    ///
    /// # Errors
    ///
    /// [`JsonError::Parse`] with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal run of plain (unescaped, ASCII-safe or
            // multi-byte UTF-8) content in one slice append.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: require the paired low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let second = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            c => return Err(self.err(format!("invalid escape `\\{}`", c as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&i) {
                    return Ok(Json::Int(i));
                }
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            Ok(_) => Err(self.err("number overflows f64")),
            Err(_) => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

// -------------------------------------------------------------------- diff

/// One structural difference found by [`diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonDiff {
    /// JSONPath-style location, e.g. `$.data.cells[3].report.mean_depth`.
    pub path: String,
    /// What differs at that location.
    pub message: String,
}

impl fmt::Display for JsonDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Compares two documents structurally, collecting every difference.
///
/// Numbers (ints and floats interchangeably) are equal when
/// `|a − b| ≤ tol · max(1, |a|, |b|)` — a mixed absolute/relative
/// criterion, so `tol` bounds both the absolute error of small metrics
/// (fidelities near zero) and the relative error of large ones (depths in
/// the thousands). With `tol = 0` the comparison is exact. Everything
/// else (strings, bools, nulls, object key sets, array lengths) must
/// match exactly; object member *order* is ignored so semantically equal
/// documents never diff.
///
/// # Examples
///
/// ```
/// use dqc_types::json::{diff, Json};
///
/// let a = Json::parse(r#"{"depth": 100.0}"#).unwrap();
/// let b = Json::parse(r#"{"depth": 100.00001}"#).unwrap();
/// assert!(diff(&a, &b, 1e-6).is_empty());
/// assert_eq!(diff(&a, &b, 1e-9).len(), 1);
/// ```
pub fn diff(a: &Json, b: &Json, tol: f64) -> Vec<JsonDiff> {
    let mut out = Vec::new();
    diff_at(a, b, tol, "$", &mut out);
    out
}

/// Whether two numbers agree within [`diff`]'s tolerance criterion.
pub fn numbers_match(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol.max(0.0) * a.abs().max(b.abs()).max(1.0)
}

fn diff_at(a: &Json, b: &Json, tol: f64, path: &str, out: &mut Vec<JsonDiff>) {
    // Numeric comparison first, so Int(5) and Float(5.0) compare equal.
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        if !numbers_match(x, y, tol) {
            out.push(JsonDiff {
                path: path.to_string(),
                message: format!("{x:?} vs {y:?} (beyond tolerance {tol:e})"),
            });
        }
        return;
    }
    match (a, b) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(x), Json::Bool(y)) => {
            if x != y {
                out.push(JsonDiff {
                    path: path.to_string(),
                    message: format!("{x} vs {y}"),
                });
            }
        }
        (Json::Str(x), Json::Str(y)) => {
            if x != y {
                out.push(JsonDiff {
                    path: path.to_string(),
                    message: format!("{x:?} vs {y:?}"),
                });
            }
        }
        (Json::Array(xs), Json::Array(ys)) => {
            if xs.len() != ys.len() {
                out.push(JsonDiff {
                    path: path.to_string(),
                    message: format!("array length {} vs {}", xs.len(), ys.len()),
                });
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                diff_at(x, y, tol, &format!("{path}[{i}]"), out);
            }
        }
        (Json::Object(xs), Json::Object(ys)) => {
            for (key, x) in xs {
                match b.get(key) {
                    Some(y) => diff_at(x, y, tol, &format!("{path}.{key}"), out),
                    None => out.push(JsonDiff {
                        path: format!("{path}.{key}"),
                        message: "missing on the right".to_string(),
                    }),
                }
            }
            for (key, _) in ys {
                if a.get(key).is_none() {
                    out.push(JsonDiff {
                        path: format!("{path}.{key}"),
                        message: "missing on the left".to_string(),
                    });
                }
            }
        }
        _ => out.push(JsonDiff {
            path: path.to_string(),
            message: format!("type {} vs {}", a.type_name(), b.type_name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "12345678901234"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_compact_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.9702, f64::MIN_POSITIVE] {
            let v = Json::float(f);
            let back = Json::parse(&v.to_compact_string()).unwrap();
            assert_eq!(back.as_f64(), Some(f), "{f}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert!(Json::float(f64::NAN).is_null());
        assert!(Json::float(f64::INFINITY).is_null());
        assert!(Json::float(f64::NEG_INFINITY).is_null());
        // Even a directly constructed Float never serializes as NaN.
        assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
    }

    #[test]
    fn serialized_floats_stay_floats() {
        // `2.0` must not collapse to the integer `2`, or round-tripping
        // would change the variant and typed readers would misparse.
        assert_eq!(Json::float(2.0).to_compact_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::parse("2e0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn huge_integer_literals_degrade_to_float() {
        // Just past `u64::MAX` and just below `i64::MIN`, too.
        for text in [
            "99999999999999999999",
            "18446744073709551616",
            "-9223372036854775809",
        ] {
            let v = Json::parse(text).unwrap();
            assert!(matches!(v, Json::Float(_)), "{text}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "tab\t quote\" slash\\ newline\n nul\u{1} emoji🦀";
        let v = Json::Str(original.to_string());
        let text = v.to_compact_string();
        assert!(!text.contains('\n'), "newline must be escaped: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let doc = Json::object([
            (
                "s",
                Json::from(
                    "tab\t quote\" slash\\ cr\r bs\u{08} ff\u{0C} nl\n nul\u{0} us\u{1f} é€🦀 end",
                ),
            ),
            (
                "i",
                Json::Array(vec![
                    Json::Int(0),
                    Json::Int(-7),
                    Json::uint(u64::MAX),
                    Json::from(i64::MIN),
                ]),
            ),
            (
                "f",
                Json::Array(vec![
                    Json::float(2.0),
                    Json::float(-0.0),
                    Json::float(1e-300),
                    Json::float(0.1),
                    Json::float(1e21),
                ]),
            ),
        ]);
        assert_eq!(
            doc.to_compact_string(),
            concat!(
                r#"{"s":"tab\t quote\" slash\\ cr\r bs\b ff\f nl\n nul\u0000 us\u001f é€🦀 end","#,
                r#""i":[0,-7,18446744073709551615,-9223372036854775808],"#,
                r#""f":[2.0,-0.0,1e-300,0.1,1e21]}"#,
            )
        );
        let mut framed = String::from("head:");
        doc.write_compact(&mut framed);
        assert_eq!(framed, format!("head:{}", doc.to_compact_string()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""Aé🦀""#).unwrap(),
            Json::Str("Aé🦀".to_string())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn nested_documents_round_trip_both_formats() {
        let doc = Json::object([
            ("name", Json::from("fig5")),
            ("runs", Json::Int(50)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "cells",
                Json::Array(vec![
                    Json::object([("depth", Json::float(41.5))]),
                    Json::Array(vec![]),
                    Json::Object(vec![]),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&doc.to_compact_string()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty_string()).unwrap(), doc);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (text, expect) in [
            ("", "end of input"),
            ("{\"a\":}", "unexpected character"),
            ("[1,2", "expected `,` or `]`"),
            ("[1 2]", "expected `,` or `]`"),
            ("{\"a\" 1}", "expected `:`"),
            ("nul", "expected `null`"),
            ("1.5 x", "trailing characters"),
            ("\"ab", "unterminated string"),
            ("1e999", "overflows"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "{text:?} gave {err}, wanted {expect:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let text = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&text).is_err());
    }

    #[test]
    fn field_helpers_describe_failures() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "f": 1.5, "neg": -1}"#).unwrap();
        assert_eq!(v.i64_field("n").unwrap(), 3);
        assert_eq!(v.f64_field("n").unwrap(), 3.0);
        // The writer's NaN→null policy inverts on read.
        let degenerate = Json::object([("v", Json::float(f64::NAN))]);
        assert!(degenerate.f64_field("v").unwrap().is_nan());
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert!(v
            .field("missing")
            .unwrap_err()
            .to_string()
            .contains("missing"));
        assert!(v
            .i64_field("f")
            .unwrap_err()
            .to_string()
            .contains("expected integer"));
        assert!(v.u64_field("neg").is_err());
        assert!(v
            .str_field("n")
            .unwrap_err()
            .to_string()
            .contains("expected string"));
    }

    #[test]
    fn diff_tolerates_within_eps_only() {
        let a = Json::parse(r#"{"d": 1000.0, "f": 0.5}"#).unwrap();
        let b = Json::parse(r#"{"d": 1000.4, "f": 0.5000001}"#).unwrap();
        // Relative criterion: 0.4/1000 = 4e-4.
        assert!(diff(&a, &b, 1e-3).is_empty());
        let diffs = diff(&a, &b, 1e-5);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "$.d");
    }

    #[test]
    fn diff_zero_tolerance_is_exact() {
        let a = Json::parse("[1.0, 2.0]").unwrap();
        assert!(diff(&a, &a, 0.0).is_empty());
        let b = Json::parse("[1.0, 2.0000000000000004]").unwrap();
        assert_eq!(diff(&a, &b, 0.0).len(), 1);
    }

    #[test]
    fn diff_treats_int_and_float_as_numbers() {
        let a = Json::parse("5").unwrap();
        let b = Json::parse("5.0").unwrap();
        assert!(diff(&a, &b, 0.0).is_empty());
    }

    #[test]
    fn diff_small_values_use_absolute_floor() {
        // Near zero the criterion degrades to absolute: |a-b| <= tol.
        let a = Json::float(1e-12);
        let b = Json::float(3e-12);
        assert!(diff(&a, &b, 1e-9).is_empty());
        assert!(!diff(&a, &b, 1e-13).is_empty());
    }

    #[test]
    fn diff_reports_structure_mismatches_with_paths() {
        let a = Json::parse(r#"{"cells": [{"x": 1}], "n": 1}"#).unwrap();
        let b = Json::parse(r#"{"cells": [{"x": 1}, {"x": 2}], "m": 1}"#).unwrap();
        let diffs = diff(&a, &b, 0.0);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"$.cells"), "{paths:?}");
        assert!(paths.contains(&"$.n"), "{paths:?}");
        assert!(paths.contains(&"$.m"), "{paths:?}");
    }

    #[test]
    fn diff_ignores_member_order() {
        let a = Json::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let b = Json::parse(r#"{"b": 2, "a": 1}"#).unwrap();
        assert!(diff(&a, &b, 0.0).is_empty());
    }

    #[test]
    fn diff_reports_bool_values_not_types() {
        let diffs = diff(&Json::Bool(true), &Json::Bool(false), 0.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].message, "true vs false");
        assert!(diff(&Json::Bool(true), &Json::Bool(true), 0.0).is_empty());
    }

    #[test]
    fn diff_catches_type_changes() {
        let a = Json::parse(r#"{"v": "1"}"#).unwrap();
        let b = Json::parse(r#"{"v": 1}"#).unwrap();
        let diffs = diff(&a, &b, 0.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].message.contains("type"));
    }

    #[test]
    fn uint_preserves_exactness_where_possible() {
        assert_eq!(Json::uint(42), Json::Int(42));
        assert_eq!(Json::uint(u64::MAX), Json::Int(u64::MAX.into()));
        assert_eq!(
            Json::uint(u64::MAX).to_compact_string(),
            u64::MAX.to_string()
        );
    }

    #[test]
    fn u64_field_round_trips_the_full_range() {
        // Every value reads back exactly, including through actual
        // document text: a seed or tag of `u64::MAX - 1` must not come
        // back as its nearest float.
        let i64_max = i64::MAX as u64;
        for v in [
            0,
            42,
            i64_max,
            i64_max + 1,
            u64::MAX - 5,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let doc = Json::object([("v", Json::uint(v))]);
            let reparsed = Json::parse(&doc.to_compact_string()).unwrap();
            assert_eq!(reparsed.u64_field("v").unwrap(), v, "{v}");
            assert_eq!(reparsed.get("v").and_then(Json::as_u64), Some(v), "{v}");
        }
        // Integers outside i64 read as u64 but never as i64, and the
        // signed extreme reads as i64 but never as u64.
        let wide =
            Json::parse(r#"{"v": 18446744073709551615, "n": -9223372036854775808}"#).unwrap();
        assert!(wide.i64_field("v").is_err());
        assert_eq!(wide.i64_field("n").unwrap(), i64::MIN);
        assert!(wide.u64_field("n").is_err());
        let bad = Json::parse(r#"{"v": -1, "w": 1.5, "x": "9", "y": 1e19}"#).unwrap();
        for key in ["v", "w", "x", "y"] {
            assert!(bad.u64_field(key).is_err(), "{key}");
        }
    }
}
