//! Minimal JSON: one syntax implementation with two front ends, and a
//! strict parser used by tests (and `--metrics` consumers) to validate
//! output.
//!
//! The workspace serializes by hand rather than through serde, so this
//! module is the single place JSON syntax lives. The two front ends:
//! - [`JsonValue`], an owned tree, for documents that are parsed, diffed
//!   or validated — traces, metrics, bench and saturation documents.
//! - [`Writer`], which streams values straight into a `String`, for
//!   output that would otherwise build a tree only to print and drop
//!   it: sweep records and the server's predict replies. A streamed
//!   object takes its keys in strictly ascending order, so it prints
//!   what the same tree prints.
//!
//! The tree renders through the writer, so escaping, number format and
//! separators exist once.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An owned JSON value. Object keys are ordered (BTreeMap) so output is
/// deterministic across runs — important for diffing metrics files.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; stored as f64 (trace durations and counters all
    /// fit in 53 bits of mantissa).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with deterministic key order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().collect())
    }

    /// Convenience: object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value at a dotted path of object keys (`"knee.conns"`).
    pub fn at(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// Convenience: numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Convenience: string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: array elements.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out).value(self);
        out
    }

    fn write(&self, w: Writer<'_>) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Number(n) => w.number(*n),
            JsonValue::String(s) => w.string(s),
            JsonValue::Array(items) => w.array(|a| {
                for item in items {
                    item.write(a.item());
                }
            }),
            JsonValue::Object(map) => w.object(|o| {
                for (k, v) in map {
                    v.write(o.field(k));
                }
            }),
        }
    }
}

/// Writes exactly one JSON value at the end of a `String`.
///
/// Arrays and objects take a closure that writes their members, so the
/// closing bracket cannot be forgotten. Every [`ArrayWriter::item`] and
/// [`ObjectWriter::field`] must be given its value.
pub struct Writer<'a> {
    out: &'a mut String,
}

impl<'a> Writer<'a> {
    /// A writer that appends its value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out }
    }

    /// `null`
    pub(crate) fn null(self) {
        self.out.push_str("null");
    }

    /// `true` / `false`
    pub fn bool(self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A number: integral values below 9e15 without a fraction, NaN and
    /// ±inf as `null`.
    pub fn number(self, n: f64) {
        write_number(n, self.out);
    }

    /// An escaped string.
    pub fn string(self, s: &str) {
        write_string(s, self.out);
    }

    /// A whole tree, printed as [`JsonValue::to_json`] prints it.
    pub fn value(self, v: &JsonValue) {
        v.write(self);
    }

    /// An array whose items `items` writes.
    pub fn array(self, items: impl FnOnce(&mut ArrayWriter<'_>)) {
        self.out.push('[');
        let mut a = ArrayWriter {
            out: self.out,
            empty: true,
        };
        items(&mut a);
        a.out.push(']');
    }

    /// An object whose fields `fields` writes, in strictly ascending key
    /// order (checked in debug builds): the order a [`JsonValue::Object`]
    /// prints in.
    pub fn object(self, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
        self.out.push('{');
        let mut o = ObjectWriter {
            out: self.out,
            empty: true,
            #[cfg(debug_assertions)]
            last_key: String::new(),
        };
        fields(&mut o);
        o.out.push('}');
    }
}

/// The items of an array being written; see [`Writer::array`].
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ArrayWriter<'_> {
    /// The writer for the next item.
    pub fn item(&mut self) -> Writer<'_> {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        Writer { out: self.out }
    }
}

/// The fields of an object being written; see [`Writer::object`].
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
    #[cfg(debug_assertions)]
    last_key: String,
}

impl ObjectWriter<'_> {
    /// The writer for the value of field `key`, which must sort after
    /// every key written before it.
    pub fn field(&mut self, key: &str) -> Writer<'_> {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.empty || self.last_key.as_str() < key,
                "streamed JSON object keys must be strictly ascending: {:?} after {:?}",
                key,
                self.last_key
            );
            self.last_key.clear();
            self.last_key.push_str(key);
        }
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(key, self.out);
        self.out.push(':');
        Writer { out: self.out }
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional encoding.
        out.push_str("null");
    } else if n.abs() < 9e15 && (n as i64) as f64 == n {
        // Below 9e15 the cast truncates exactly, so the round trip is the
        // integrality test — without `f64::trunc`, a libm call on
        // baseline x86-64.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy the runs between the bytes that need escaping. Those are all
    // ASCII, so they never fall inside a multi-byte character and every
    // run boundary is a char boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse error with byte offset, for test diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// Parse a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

/// Read and parse a JSON file. The error names the path and says whether
/// the file could not be read or is not valid JSON; callers pick the exit
/// code.
pub fn read(path: impl AsRef<std::path::Path>) -> Result<JsonValue, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

fn err(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::String),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so they never fall inside a multi-byte
                // character and the run is checked as UTF-8 exactly once.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid UTF-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = JsonValue::object([
            ("name".to_string(), JsonValue::from("barrier-wait")),
            ("dur".to_string(), JsonValue::from(12.5f64)),
            (
                "args".to_string(),
                JsonValue::object([("tid".to_string(), JsonValue::from(3u64))]),
            ),
            (
                "tags".to_string(),
                JsonValue::from(vec!["a", "b\"quoted\""]),
            ),
            (
                "flags".to_string(),
                JsonValue::Array(vec![
                    JsonValue::Bool(true),
                    JsonValue::Bool(false),
                    JsonValue::Null,
                    JsonValue::Array(vec![]),
                    JsonValue::object([]),
                ]),
            ),
            ("count".to_string(), JsonValue::from(-0.0f64)),
        ]);
        let text = doc.to_json();
        assert_eq!(
            text,
            r#"{"args":{"tid":3},"count":0,"dur":12.5,"flags":[true,false,null,[],{}],"name":"barrier-wait","tags":["a","b\"quoted\""]}"#
        );
        let back = parse(&text).expect("parses");
        assert_eq!(back.to_json(), text);
        assert_eq!(back.get("name"), doc.get("name"));
    }

    /// The integrality test before it dropped `f64::trunc`.
    fn write_number_with_trunc(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n == n.trunc() && n.abs() < 9e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    }

    #[test]
    fn numbers_print_as_they_did_with_trunc() {
        let e300 = format!("1{}", "0".repeat(300));
        for (n, want) in [
            (-0.0, "0"),
            (0.5, "0.5"),
            (-3.0, "-3"),
            (-2.5, "-2.5"),
            (2f64.powi(53), "9007199254740992"),
            (9e15 - 1.0, "8999999999999999"),
            (1.0 - 9e15, "-8999999999999999"),
            (9e15, "9000000000000000"),
            (2f64.powi(60), "1152921504606847000"),
            (1e300, &e300),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let (mut new, mut old) = (String::new(), String::new());
            write_number(n, &mut new);
            write_number_with_trunc(n, &mut old);
            assert_eq!(new, want, "{n}");
            assert_eq!(old, want, "{n}");
        }
    }

    /// The string writer before it copied runs: one `char` at a time.
    fn write_string_by_char(s: &str, out: &mut String) {
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

    #[test]
    fn strings_print_as_they_did_char_by_char() {
        let controls: String = (0u8..0x20).chain([0x7f]).map(char::from).collect();
        let mut inputs = vec![
            String::new(),
            "plain ascii, nothing to escape".to_string(),
            "µs · 走 · 𝄞".to_string(),
            controls.clone(),
            format!("a{controls}b"),
            "\"quoted\"".to_string(),
            "\\back\\".to_string(),
            "\"\\mid\"dle\\\"".to_string(),
            "走\"𝄞\\µ\n".to_string(),
        ];
        inputs.extend((0u8..0x20).chain([0x7f]).map(|b| char::from(b).to_string()));
        for s in &inputs {
            let (mut new, mut old) = (String::new(), String::new());
            write_string(s, &mut new);
            write_string_by_char(s, &mut old);
            assert_eq!(new, old, "{s:?}");
            assert_eq!(parse(&new).expect("parses").as_str(), Some(s.as_str()));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_object_rejects_keys_out_of_order() {
        let mut out = String::new();
        Writer::new(&mut out).object(|o| {
            o.field("machine").null();
            o.field("bench").null();
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_object_rejects_a_repeated_key() {
        let mut out = String::new();
        Writer::new(&mut out).object(|o| {
            o.field("mops").null();
            o.field("mops").null();
        });
    }

    #[test]
    fn integers_print_without_exponent_or_fraction() {
        assert_eq!(JsonValue::from(1_000_000u64).to_json(), "1000000");
        assert_eq!(JsonValue::from(0.25f64).to_json(), "0.25");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn control_characters_are_escaped() {
        let text = JsonValue::from("a\nb\u{1}c").to_json();
        assert_eq!(text, "\"a\\nb\\u0001c\"");
        assert_eq!(parse(&text).expect("parses").as_str(), Some("a\nb\u{1}c"));
    }

    /// Strings are copied run by run between quotes and backslashes;
    /// what sits in and between the runs must come out unchanged.
    #[test]
    fn string_runs_keep_escapes_multibyte_and_raw_control_characters() {
        for (text, want) in [
            (r#""""#, ""),
            (r#""\\""#, "\\"),
            (r#""a\"b\\c\/d""#, "a\"b\\c/d"),
            (r#""\n\r\t\b\f""#, "\n\r\t\u{8}\u{c}"),
            (r#""x\u00e9y\u20acz""#, "xéy€z"),
            (r#""\ud800""#, "\u{fffd}"),
            ("\"µs · 走 · 𝄞\\n€\"", "µs · 走 · 𝄞\n€"),
            (
                "\"raw\ttab and\nnewline\u{1}\"",
                "raw\ttab and\nnewline\u{1}",
            ),
        ] {
            assert_eq!(parse(text).expect(text).as_str(), Some(want), "{text}");
        }
        for text in [r#""a\x""#, r#""a\u12""#, r#""a\u12g4""#, "\"a\\", "\"µ"] {
            assert!(parse(text).is_err(), "{text}");
        }
        let s = "a\"b\\c\n\u{1}é€𝄞";
        let rendered = JsonValue::from(s).to_json();
        assert_eq!(parse(&rendered).expect("parses").as_str(), Some(s));
    }

    /// Parsing a string used to re-validate the rest of the document at
    /// every character (274 µs/KiB at 50 KiB, growing with the length).
    /// Two 4 MiB strings, one plain and one where every run is two bytes
    /// between escapes, take milliseconds when the work is linear.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let plain = format!("\"{}\"", "prediction µs, ".repeat(1 << 18));
        let escaped = format!("\"{}\"", "ab\\n".repeat(1 << 20));
        assert_eq!((plain.len(), escaped.len()), ((4 << 20) + 2, (4 << 20) + 2));
        let start = std::time::Instant::now();
        let plain_len = parse(&plain).expect("parses").as_str().map(str::len);
        let escaped_len = parse(&escaped).expect("parses").as_str().map(str::len);
        let took = start.elapsed();
        assert_eq!(plain_len, Some(4 << 20));
        assert_eq!(escaped_len, Some(3 << 20));
        assert!(
            took < std::time::Duration::from_secs(5),
            "8 MiB of strings took {took:?}"
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn dotted_paths_walk_objects_only() {
        let doc = parse(r#"{"knee":{"conns":8},"steps":[{"conns":2}]}"#).unwrap();
        assert_eq!(doc.at("knee.conns").and_then(JsonValue::as_f64), Some(8.0));
        assert_eq!(doc.at("knee"), doc.get("knee"));
        assert_eq!(doc.at("knee.p99_us"), None);
        assert_eq!(doc.at("steps.conns"), None);
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let doc = JsonValue::object([
            ("zeta".to_string(), JsonValue::Null),
            ("alpha".to_string(), JsonValue::Null),
        ]);
        assert_eq!(doc.to_json(), "{\"alpha\":null,\"zeta\":null}");
    }
}
