//! Minimal JSON tree, writer and parser.
//!
//! The workspace's `serde` is an offline no-op stand-in (see
//! `vendor/serde`), so the observability layer's machine-readable exports
//! — JSONL event streams, [`crate::stats::SimReport`] dumps and
//! [`crate::profile::RunProfile`] artifacts — serialize through this
//! hand-rolled module instead. It supports exactly the JSON subset those
//! schemas need: objects with ordered keys, arrays, strings, booleans,
//! `null`, exact unsigned integers and finite floats. The parser exists
//! so round-trip tests and CI smoke checks can read the artifacts back
//! without any external dependency.

use std::fmt::Write as _;

/// Version stamped into every JSON artifact this crate emits
/// ([`crate::stats::SimReport`], [`crate::metrics::Metrics`],
/// [`crate::profile::RunProfile`] and the `results/BENCH_*.json` files
/// built from them). Bump it whenever a schema changes shape so stale
/// artifacts are rejected with a clear error instead of misparsed.
///
/// History: v1 = unstamped pre-latency artifacts (through the mobility
/// rewrite); v2 = `schema_version` stamps + the latency section.
pub const SCHEMA_VERSION: u64 = 2;

/// An artifact failed schema validation: wrong or missing
/// `schema_version`, or a malformed/absent required field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl SchemaError {
    /// Builds an error from any printable message.
    pub fn new(message: impl Into<String>) -> Self {
        SchemaError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SchemaError {}

/// Validates the `schema_version` stamp of an artifact object named
/// `what` (used in the error text).
///
/// # Errors
///
/// Returns a [`SchemaError`] naming the artifact when the stamp is
/// missing (a pre-v2 artifact) or does not equal [`SCHEMA_VERSION`] —
/// the fix is to regenerate the artifact with the current binaries.
pub fn check_schema_version(v: &Json, what: &str) -> Result<(), SchemaError> {
    match v.get("schema_version").and_then(Json::as_u64) {
        Some(found) if found == SCHEMA_VERSION => Ok(()),
        Some(found) => Err(SchemaError::new(format!(
            "{what}: schema_version {found}, expected {SCHEMA_VERSION} — \
             regenerate the artifact with the current binaries"
        ))),
        None => Err(SchemaError::new(format!(
            "{what}: missing schema_version (pre-v{SCHEMA_VERSION} artifact) — \
             regenerate the artifact with the current binaries"
        ))),
    }
}

/// A JSON value.
///
/// Unsigned integers get their own variant so `u64` counters survive a
/// round trip exactly — an `f64` mantissa only holds 53 bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written without a decimal point.
    Uint(u64),
    /// A finite floating-point number (non-finite values write `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as a `u64`, accepting only exact integers.
    #[expect(
        clippy::float_cmp,
        reason = "for finite f, f == f.trunc() is the exact \"is an integer\" test"
    )]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(u) => Some(u),
            // `u64::MAX as f64` rounds up to 2^64, which `as` would
            // saturate to a different number, so the bound is strict.
            Json::Num(f) if f >= 0.0 && f == f.trunc() && f < u64::MAX as f64 => Some(f as u64),
            Json::Null
            | Json::Bool(_)
            | Json::Num(_)
            | Json::Str(_)
            | Json::Arr(_)
            | Json::Obj(_) => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(u) => Some(u as f64),
            Json::Num(f) => Some(f),
            Json::Null | Json::Bool(_) | Json::Str(_) | Json::Arr(_) | Json::Obj(_) => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        if let Json::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        if let Json::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// Serializes the value on one line (no trailing newline).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // `{}` prints the shortest representation that parses
                    // back to the same f64; force a decimal point so the
                    // reader can tell floats from integers.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first offending byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at("trailing characters", pos));
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what was expected and the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl JsonError {
    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(format!("expected `{lit}`"), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::at("expected `:`", *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError::at("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        // Surrogate pairs are not needed by our schemas;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let start = *pos;
                let mut end = start + 1;
                while end < bytes.len() && (bytes[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                let s = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| JsonError::at("invalid UTF-8", start))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid number", start))?;
    if *pos == start {
        return Err(JsonError::at("expected value", start));
    }
    if !is_float && !text.starts_with('-') {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::Uint(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at("invalid number", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::str("fig02")),
            ("events", Json::Uint(u64::MAX)),
            ("rate", Json::Num(5.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("k", Json::Uint(0))])),
        ]);
        let text = v.to_string_compact();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back, v);
        assert_eq!(back.get("events").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(back.get("rate").and_then(Json::as_f64), Some(5.5));
    }

    #[test]
    fn escapes_special_characters() {
        let v = Json::str("a\"b\\c\nd\u{0001}");
        let text = v.to_string_compact();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let text = Json::Num(3.0).to_string_compact();
        assert_eq!(text, "3.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Num(3.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        assert_eq!(Json::parse("-4.5").unwrap(), Json::Num(-4.5));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Uint(42));
    }

    #[test]
    fn as_u64_accepts_only_representable_integers() {
        // 2^64 overflows `u64`, so it parses as a float; a saturating
        // cast would turn it into u64::MAX, a different number.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }
}
