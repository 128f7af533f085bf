//! Minimal JSON tree, writer and parser.
//!
//! The workspace's `serde` is an offline no-op stand-in (see
//! `vendor/serde`), so the observability layer's machine-readable exports
//! — JSONL event streams, [`crate::stats::SimReport`] dumps and
//! [`crate::profile::RunProfile`] artifacts — serialize through this
//! hand-rolled module instead. It supports exactly the JSON subset those
//! schemas need: objects with ordered keys, arrays, strings, booleans,
//! `null`, exact unsigned integers and finite floats.
//!
//! Reports, their metrics and latency sections and the JSONL event
//! stream are write-only: no program reads one back, and tests pin
//! their exact bytes. The parser serves the two artifacts that are read
//! back — a [`RunProfile`] and the bench envelope wrapping one (which
//! `bench_diff` reads from files it is given) — and the tests that check
//! written text is JSON. It takes RFC 8259 JSON only: a number outside
//! the JSON grammar or one that overflows `f64`, a `\u` escape without
//! four hex digits, a raw control character in a string and a lone
//! surrogate are each a [`JsonError`]; a surrogate pair decodes to its
//! one character.
//!
//! [`RunProfile`]: crate::profile::RunProfile

use std::fmt::Write as _;

/// Version stamped into the JSON objects this crate emits
/// ([`crate::stats::SimReport`], its nested [`crate::metrics::Metrics`]
/// section, [`crate::profile::RunProfile`] and the `results/BENCH_*.json`
/// files built from them). Bump it whenever a schema changes shape.
/// Readers check it ([`check_schema_version`]) only where something is
/// read back — the profile and the bench envelope — so a stale artifact
/// there is rejected with a clear error instead of misparsed; in a
/// write-only report it tells a human reader which shape they hold.
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
            Json::Uint(u) => write_u64(out, *u),
            Json::Num(f) => write_f64(out, *f),
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
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at("trailing characters", pos));
        }
        Ok(value)
    }
}

/// Appends `u` in decimal. With [`write_f64`] this is the one number
/// renderer of every JSON artifact: the [`Json`] writer and the JSONL
/// event sink both call it. The digits are laid out back to front in a
/// stack buffer and appended in one copy, bypassing `fmt`: the JSONL
/// sink writes several integers per event.
pub(crate) fn write_u64(out: &mut String, mut u: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `f` in the shortest `{}` form that parses back to the same
/// `f64`, with `.0` added when that form has no `.`, `e` or `E` so the
/// reader can tell floats from integers; a non-finite `f` writes `null`.
/// Formats in place: no temporary string.
pub(crate) fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
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

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// overflowing the stack; the deepest artifact the repo writes (a
/// `SimReport` with a latency section) nests 8 levels.
const MAX_DEPTH: usize = 64;

/// Parses one value nested inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(JsonError::at(
            format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        ));
    }
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
                items.push(parse_value(bytes, pos, depth + 1)?);
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
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
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
                        let at = *pos;
                        let mut code = hex4(bytes, at + 1)?;
                        *pos += 4;
                        // A high surrogate joins the low one escaped right
                        // after it into one character; any other surrogate
                        // is lone, and RFC 8259 text cannot hold one.
                        if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            let low = hex4(bytes, *pos + 3)?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::at("lone surrogate in \\u escape", at))?;
                        out.push(c);
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError::at("unescaped control character", *pos));
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

/// The code unit of the four hex digits of a `\u` escape at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let digits = bytes
        .get(at..at + 4)
        .ok_or_else(|| JsonError::at("truncated \\u escape", at))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| JsonError::at("bad \\u escape", at))?;
        Ok(code * 16 + digit)
    })
}

/// Parses one number by RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, into a
/// `Uint` when it is a non-negative integer that fits, else a finite
/// `Num`. A value out of `f64` range (`1e999`) is an error, never
/// `inf`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    let int_start = *pos;
    match digits(pos) {
        0 if !negative => return Err(JsonError::at("expected value", start)),
        0 => return Err(JsonError::at("invalid number", start)),
        n if n > 1 && bytes[int_start] == b'0' => {
            return Err(JsonError::at("leading zero in number", int_start))
        }
        _ => {}
    }
    let mut is_float = negative;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(JsonError::at("expected digit after `.`", *pos));
        }
        is_float = true;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(JsonError::at("expected digit in exponent", *pos));
        }
        is_float = true;
    }
    // The grammar above admits only ASCII.
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid number", start))?;
    if !is_float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::Uint(u));
        }
    }
    match text.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(Json::Num(f)),
        _ => Err(JsonError::at("number out of range", start)),
    }
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
        // Nesting past the depth bound is an error, not a stack overflow.
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        assert_eq!(Json::parse("-4.5").unwrap(), Json::Num(-4.5));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Uint(42));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "+1", ".5", "01", "00", "1.", "-01", "-", "1e", "1e+", "1.e3", "-.5", "1e999", "-1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} is not a JSON number");
        }
        assert_eq!(Json::parse("0").unwrap(), Json::Uint(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("10").unwrap(), Json::Uint(10));
        assert_eq!(Json::parse("2.5E-1").unwrap(), Json::Num(0.25));
        assert_eq!(Json::parse("1e+2").unwrap(), Json::Num(100.0));
        assert!(Json::parse("[0,-0.0,1e0]").is_ok());
    }

    #[test]
    fn strings_follow_the_json_grammar() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            "\"a\u{0}b\"",
            "\"a\u{1f}b\"",
            "\"line\nbreak\"",
            "\"tab\there\"",
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} is not a JSON string");
        }
        let parsed = |text: &str| Json::parse(text).unwrap().as_str().map(str::to_owned);
        assert_eq!(parsed(r#""\ud83d\ude00""#).as_deref(), Some("\u{1F600}"));
        assert_eq!(parsed(r#""\uD83D\uDE00!""#).as_deref(), Some("\u{1F600}!"));
        assert_eq!(
            parsed(r#""\u0041\u00e9\u007F""#).as_deref(),
            Some("A\u{e9}\u{7f}")
        );
        assert_eq!(
            parsed("\"\u{7f}\u{1F600}\"").as_deref(),
            Some("\u{7f}\u{1F600}")
        );
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
