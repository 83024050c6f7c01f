//! The workspace's one JSON value type: a strict parser, a compact frame
//! writer, a document layout for reports, and one key list per statistics
//! record.
//!
//! The workspace has no serde dependency.  Every JSON surface goes through
//! this module: the `qpl-decompose --json` output, the `mpl-bench`
//! `BENCH_*.json` reports and the `mpl-serve` wire protocol, which both
//! writes and reads it.
//!
//! * [`Json`] — null, bool, f64 numbers, strings, arrays and objects.
//!   Objects preserve insertion order (they are association lists, not
//!   maps), so re-serialising a parsed document is stable and golden tests
//!   can pin key order.  `From` impls turn counts, floats, flags, strings
//!   and `Option`s (`None` is `null`) into values.
//! * [`Json::parse`] — a strict recursive-descent parser: rejects trailing
//!   garbage, unescaped control characters, bad `\u` escapes (including
//!   broken surrogate pairs) and guards against deep nesting.
//! * `Display` — `{}` writes the compact form of the wire frames
//!   (`{"a":1,"b":[2,3]}`).  `{:#}` writes the document layout of every
//!   report: containers at depth 0 and 1 put one child per line with a
//!   two-space indent, deeper values stay inline (`{"a": 1, "b": [2, 3]}`),
//!   and empty containers print `[]` and `{}`.  Both escape strings the
//!   same way.
//! * [`JsonRecord`] and [`json_record!`](crate::json_record) — a flat
//!   record of counters declares its keys once, and the generated
//!   encode/decode pair serves every surface that writes or reads it.

use std::fmt::{self, Write as _};

/// Maximum nesting depth [`Json::parse`] accepts; deeper documents are
/// rejected instead of risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

/// Containers at depths below this put one child per line under `{:#}`.
const DOCUMENT_LINE_DEPTH: usize = 2;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as an `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as an insertion-ordered association list.  Duplicate keys
    /// are preserved verbatim; [`Json::get`] returns the first match.
    Object(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// A record field that is absent or not a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// A field without a default is absent.
    Missing(&'static str),
    /// A field is present but not a non-negative integer of its type's
    /// range.
    NotACount(&'static str),
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing(key) => write!(f, "missing field {key:?}"),
            FieldError::NotACount(key) => {
                write!(f, "field {key:?} must be a non-negative integer")
            }
        }
    }
}

impl std::error::Error for FieldError {}

/// A flat record of counters whose keys are listed once, in a
/// [`json_record!`](crate::json_record) invocation next to its declaration.
///
/// The CLI's `--json`, the `mpl-bench` reports and the `mpl-serve`
/// frames all write such a record through [`fields`](JsonRecord::fields) —
/// as an object of its own ([`to_json`](JsonRecord::to_json)) or spliced
/// flat into an enclosing object — and the wire decoder reads it back
/// through [`from_fields`](JsonRecord::from_fields), so a new field is a
/// one-file change.
pub trait JsonRecord: Sized {
    /// One `(key, value)` pair per field, in key-list order.
    fn fields(&self) -> Vec<(&'static str, Json)>;

    /// Reads every field back from the object `json`; keys it does not
    /// list are ignored.
    ///
    /// # Errors
    ///
    /// The first field that is absent without a default, or not a count.
    fn from_fields(json: &Json) -> Result<Self, FieldError>;

    /// The record as a JSON object of its own.
    fn to_json(&self) -> Json {
        Json::object(self.fields())
    }
}

/// Implements [`JsonRecord`] for a struct of counters from one key list.
///
/// `json_record!(Stats { a, b = 0, c })` writes `a`, `b` and `c` in that
/// order and reads them back.  `= 0` marks a field that decodes as zero
/// when absent or `null`; every other field is required.  The list must
/// name every field of the struct, so a field left out of it does not
/// compile.  Field types are counts (`usize`, `u64`).
///
/// ```
/// use mpl_core::{json_record, Json, JsonRecord};
///
/// #[derive(Debug, PartialEq)]
/// struct Counts {
///     hits: u64,
///     misses: usize,
/// }
/// json_record!(Counts { hits, misses = 0 });
///
/// let counts = Counts { hits: 3, misses: 1 };
/// assert_eq!(counts.to_json().to_string(), r#"{"hits":3,"misses":1}"#);
/// let decoded = Counts::from_fields(&Json::parse(r#"{"hits":3}"#)?)?;
/// assert_eq!(decoded, Counts { hits: 3, misses: 0 });
/// let error = Counts::from_fields(&Json::parse("{}")?).unwrap_err();
/// assert_eq!(error.to_string(), r#"missing field "hits""#);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[macro_export]
macro_rules! json_record {
    ($record:ty { $($field:ident $(= $default:literal)?),+ $(,)? }) => {
        impl $crate::JsonRecord for $record {
            fn fields(&self) -> ::std::vec::Vec<(&'static str, $crate::Json)> {
                ::std::vec![$((::std::stringify!($field), $crate::Json::from(self.$field))),+]
            }

            fn from_fields(
                json: &$crate::Json,
            ) -> ::std::result::Result<Self, $crate::FieldError> {
                ::std::result::Result::Ok(Self {
                    $($field: json.count_field(
                        ::std::stringify!($field),
                        ::std::option::Option::None
                            $(.or(::std::option::Option::Some($default)))?,
                    )?,)+
                })
            }
        }
    };
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(
            pairs
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn string(text: impl Into<String>) -> Json {
        Json::String(text.into())
    }

    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, when this is a number
    /// that is one (rejects fractions, negatives and values beyond the
    /// contiguous integer range of `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        let value = self.as_f64()?;
        (value.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&value))
            .then_some(value as u64)
    }

    /// [`as_u64`](Json::as_u64) as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|value| usize::try_from(value).ok())
    }

    /// The boolean value, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The count under `key`, converted to the field type `T` — the decode
    /// side of [`json_record!`](crate::json_record).  An absent or `null`
    /// key yields `default` when there is one.
    ///
    /// # Errors
    ///
    /// [`FieldError::Missing`] for an absent key without a default,
    /// [`FieldError::NotACount`] for a value that is not a count of `T`'s
    /// range (a `null` included, when there is no default).
    pub fn count_field<T: TryFrom<u64>>(
        &self,
        key: &'static str,
        default: Option<T>,
    ) -> Result<T, FieldError> {
        match (self.get(key), default) {
            (None | Some(Json::Null), Some(default)) => Ok(default),
            (None, None) => Err(FieldError::Missing(key)),
            (Some(value), _) => value
                .as_u64()
                .and_then(|count| T::try_from(count).ok())
                .ok_or(FieldError::NotACount(key)),
        }
    }

    /// Parses one JSON document, rejecting trailing non-whitespace.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] carrying the byte offset of the first
    /// problem.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            offset: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.offset != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Writes the value on one line with `style`'s separators.
    fn write(&self, out: &mut fmt::Formatter<'_>, style: &Style) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(value) => write!(out, "{value}"),
            Json::Number(value) => write_number(*value, out),
            Json::String(text) => write_string(text, out),
            Json::Array(items) => {
                out.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.write_str(style.item)?;
                    }
                    item.write(out, style)?;
                }
                out.write_char(']')
            }
            Json::Object(pairs) => {
                out.write_char('{')?;
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.write_str(style.item)?;
                    }
                    write_string(key, out)?;
                    out.write_str(style.key)?;
                    value.write(out, style)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Writes the document layout of a value at nesting `depth`: a
    /// non-empty container at a depth below [`DOCUMENT_LINE_DEPTH`] puts
    /// each child on its own line, indented two spaces per level; anything
    /// else is written inline.
    fn write_document(&self, out: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let children: Vec<(Option<&str>, &Json)> = match self {
            Json::Array(items) if depth < DOCUMENT_LINE_DEPTH => {
                items.iter().map(|item| (None, item)).collect()
            }
            Json::Object(pairs) if depth < DOCUMENT_LINE_DEPTH => pairs
                .iter()
                .map(|(key, value)| (Some(key.as_str()), value))
                .collect(),
            _ => Vec::new(),
        };
        if children.is_empty() {
            return self.write(out, &INLINE);
        }
        let (open, close) = match self {
            Json::Array(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        out.write_char(open)?;
        for (index, (key, value)) in children.into_iter().enumerate() {
            out.write_str(if index == 0 { "\n" } else { ",\n" })?;
            out.write_str(&"  ".repeat(depth + 1))?;
            if let Some(key) = key {
                write_string(key, out)?;
                out.write_str(INLINE.key)?;
            }
            value.write_document(out, depth + 1)?;
        }
        write!(out, "\n{}{close}", "  ".repeat(depth))
    }
}

/// The separators between items and between a key and its value.
struct Style {
    item: &'static str,
    key: &'static str,
}

/// The wire frames' separators.
const COMPACT: Style = Style {
    item: ",",
    key: ":",
};

/// The separators of values written inline by the document layout.
const INLINE: Style = Style {
    item: ", ",
    key: ": ",
};

/// Minimal JSON string escaping: quotes, backslashes and the control
/// characters U+0000..=U+001F; everything else passes through as UTF-8.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_string(text: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(out, "\"{}\"", json_escape(text))
}

/// Writes a number the way the protocol needs it: integral values in the
/// exact range print without a fractional part, everything else uses Rust's
/// shortest-round-trip `f64` formatting (non-finite values, which JSON
/// cannot represent, degrade to `null`).
fn write_number(value: f64, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    if !value.is_finite() {
        out.write_str("null")
    } else if value.fract() == 0.0 && value.abs() <= 9_007_199_254_740_992.0 {
        write!(out, "{}", value as i64)
    } else {
        write!(out, "{value}")
    }
}

impl fmt::Display for Json {
    /// `{}` is the compact frame form, `{:#}` the document layout (see the
    /// module docs).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            self.write_document(f, 0)
        } else {
            self.write(f, &COMPACT)
        }
    }
}

macro_rules! number_from {
    ($($number:ty),*) => {
        $(impl From<$number> for Json {
            fn from(value: $number) -> Json {
                Json::Number(value as f64)
            }
        })*
    };
}

number_from!(usize, u64, i64);

impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::Number(value)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<&str> for Json {
    fn from(text: &str) -> Json {
        Json::String(text.to_string())
    }
}

impl From<String> for Json {
    fn from(text: String) -> Json {
        Json::String(text)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.offset,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.offset..].starts_with(literal.as_bytes()) {
            self.offset += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        let digits_start = self.offset;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.offset += 1;
        }
        if self.offset == digits_start {
            return Err(self.error("expected digits in number"));
        }
        // RFC 8259: the integer part is `0` or a non-zero digit followed
        // by digits — `01` is not a JSON number.
        if self.offset - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(self.error("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.offset += 1;
            let fraction_start = self.offset;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
            if self.offset == fraction_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.offset += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.offset += 1;
            }
            let exponent_start = self.offset;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
            if self.offset == exponent_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.offset]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("unparsable number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    out.push(self.parse_escape()?);
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go.  The run ends on an ASCII
                    // byte or at the end of the input, so both ends are
                    // char boundaries of the &str input, and parsing stays
                    // linear in the string's length.
                    let start = self.offset;
                    while let Some(byte) = self.peek() {
                        if byte < 0x20 || byte == b'"' || byte == b'\\' {
                            break;
                        }
                        self.offset += 1;
                    }
                    out.push_str(&self.text[start..self.offset]);
                }
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, JsonParseError> {
        let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.offset += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() == Some(b'\\') {
                        self.offset += 1;
                        self.expect(b'u')
                            .map_err(|_| self.error("high surrogate not followed by \\u"))?;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(first).ok_or_else(|| self.error("invalid code point"))?
                }
            }
            other => {
                return Err(self.error(format!("invalid escape \\{}", other as char)));
            }
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let byte = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.offset += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::string("hi"));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let parsed = Json::parse(r#"{"b": [1, {"x": null}], "a": "y"}"#).unwrap();
        let Json::Object(pairs) = &parsed else {
            panic!("expected object");
        };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(parsed.get("a").and_then(Json::as_str), Some("y"));
        assert_eq!(
            parsed.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#""a\"b\\c\/d\n\t\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "a\"b\\c/d\n\tAé😀");
        // Writer output re-parses to the same value.
        let rewritten = Json::parse(&parsed.to_string()).unwrap();
        assert_eq!(rewritten, parsed);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // About 3 MB of mixed ASCII and multi-byte text on each side of an
        // escape: re-validating the rest of the input per character would
        // take minutes here, one pass takes milliseconds.
        let text = "ab 😀 é ".repeat(1 << 18);
        let parsed = Json::parse(&format!("[\"{text}\\\"{text}\"]")).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0].as_str().unwrap(), format!("{text}\"{text}"));
        // Errors still point at the offending byte after a long run.
        let error = Json::parse(&format!("\"{text}\u{1}\"")).unwrap_err();
        assert_eq!(error.offset, 1 + text.len());
    }

    #[test]
    fn writer_uses_shared_escaping_and_compact_numbers() {
        let value = Json::object(vec![
            ("s", Json::string("a\"b\n😀")),
            ("i", Json::Number(7.0)),
            ("f", Json::Number(0.1)),
            ("l", Json::Array(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(
            value.to_string(),
            "{\"s\":\"a\\\"b\\u000a😀\",\"i\":7,\"f\":0.1,\"l\":[null,false]}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "\"",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "01x",
            "1.",
            "1e",
            "--1",
            "{} {}",
            "[1]]",
            "01",
            "007",
            "-01.5",
            "[01]",
            "{\"k\":007}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(Json::parse("\"\u{1}\"").is_err(), "raw control character");
        // Zero itself (and fractions/exponents on it) stay legal.
        assert_eq!(Json::parse("0").unwrap(), Json::Number(0.0));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Number(-0.5));
        assert_eq!(Json::parse("0.25e2").unwrap(), Json::Number(25.0));
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err());
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Json::parse(r#"{"n": 3, "neg": -1, "frac": 1.5}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("neg").unwrap().as_usize(), None);
        assert_eq!(value.get("frac").unwrap().as_usize(), None);
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn values_convert_from_rust_scalars() {
        assert_eq!(Json::from(3usize), Json::Number(3.0));
        assert_eq!(Json::from(4u64), Json::Number(4.0));
        assert_eq!(Json::from(-5i64), Json::Number(-5.0));
        assert_eq!(Json::from(0.5), Json::Number(0.5));
        assert_eq!(Json::from(true), Json::Bool(true));
        assert_eq!(Json::from("a"), Json::string("a"));
        assert_eq!(Json::from("b".to_string()), Json::string("b"));
        assert_eq!(Json::from(Some(7u64)), Json::Number(7.0));
        assert_eq!(Json::from(None::<f64>), Json::Null);
    }

    #[test]
    fn document_layout_breaks_lines_at_depth_zero_and_one_only() {
        let value = Json::object(vec![
            ("n", Json::from(1usize)),
            (
                "rows",
                Json::Array(vec![
                    Json::object(vec![
                        ("a", Json::from(2usize)),
                        ("deep", Json::Array(vec![Json::Null, Json::from(0.5)])),
                    ]),
                    Json::from("x"),
                ]),
            ),
            (
                "batch",
                Json::object(vec![(
                    "memo",
                    Json::object(vec![("hits", Json::from(3usize))]),
                )]),
            ),
        ]);
        assert_eq!(
            format!("{value:#}"),
            "{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\": 2, \"deep\": [null, 0.5]},\n    \"x\"\n  ],\n  \"batch\": {\n    \"memo\": {\"hits\": 3}\n  }\n}"
        );
        // `{}` stays the compact frame form.
        assert_eq!(
            value.to_string(),
            r#"{"n":1,"rows":[{"a":2,"deep":[null,0.5]},"x"],"batch":{"memo":{"hits":3}}}"#
        );
        // A scalar document is just the scalar.
        assert_eq!(format!("{:#}", Json::from(2usize)), "2");
    }

    #[test]
    fn document_layout_prints_empty_containers_inline() {
        assert_eq!(format!("{:#}", Json::Array(Vec::new())), "[]");
        assert_eq!(format!("{:#}", Json::Object(Vec::new())), "{}");
        let value = Json::object(vec![
            ("list", Json::Array(Vec::new())),
            ("map", Json::Object(Vec::new())),
        ]);
        assert_eq!(format!("{value:#}"), "{\n  \"list\": [],\n  \"map\": {}\n}");
    }

    #[test]
    fn document_layout_escapes_keys_like_values() {
        let value = Json::object(vec![(
            "a\"b\n",
            Json::object(vec![("c\\d", Json::from("e\u{1}"))]),
        )]);
        let text = format!("{value:#}");
        assert_eq!(
            text,
            "{\n  \"a\\\"b\\u000a\": {\n    \"c\\\\d\": \"e\\u0001\"\n  }\n}"
        );
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        kept: usize,
        big: u64,
        optional: usize,
    }
    crate::json_record!(Sample {
        kept,
        big,
        optional = 0
    });

    #[test]
    fn records_write_and_read_one_key_list() {
        let sample = Sample {
            kept: 1,
            big: 2,
            optional: 3,
        };
        assert_eq!(
            sample.to_json().to_string(),
            r#"{"kept":1,"big":2,"optional":3}"#
        );
        assert_eq!(Sample::from_fields(&sample.to_json()), Ok(sample));
        // Defaults apply to absent and null fields only.
        for text in [
            r#"{"kept":1,"big":2}"#,
            r#"{"kept":1,"big":2,"optional":null}"#,
        ] {
            let decoded = Sample::from_fields(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(decoded.optional, 0, "{text}");
        }
        for (text, error) in [
            (r#"{"big":2}"#, FieldError::Missing("kept")),
            (r#"{"kept":null,"big":2}"#, FieldError::NotACount("kept")),
            (r#"{"kept":-1,"big":2}"#, FieldError::NotACount("kept")),
            (
                r#"{"kept":1,"big":2,"optional":"x"}"#,
                FieldError::NotACount("optional"),
            ),
        ] {
            assert_eq!(
                Sample::from_fields(&Json::parse(text).unwrap()),
                Err(error),
                "{text}"
            );
        }
        assert_eq!(
            FieldError::Missing("kept").to_string(),
            "missing field \"kept\""
        );
        assert_eq!(
            FieldError::NotACount("kept").to_string(),
            "field \"kept\" must be a non-negative integer"
        );
    }

    #[test]
    fn json_escape_escapes_every_control_character() {
        // RFC 8259 requires escaping exactly U+0000..=U+001F (plus quote
        // and backslash); everything in that range must come out as a
        // four-digit \u escape, never raw.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("control characters are chars");
            let escaped = json_escape(&c.to_string());
            assert_eq!(escaped, format!("\\u{code:04x}"), "U+{code:04X}");
            assert!(!escaped.contains(c), "raw U+{code:04X} leaked through");
        }
        assert_eq!(json_escape("\t"), "\\u0009");
        assert_eq!(json_escape("\n"), "\\u000a");
        assert_eq!(json_escape("\r"), "\\u000d");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn json_escape_escapes_quotes_and_backslashes_only_once() {
        assert_eq!(json_escape("\""), "\\\"");
        assert_eq!(json_escape("\\"), "\\\\");
        assert_eq!(json_escape("\\\""), "\\\\\\\"");
        assert_eq!(json_escape(r"C:\path"), r"C:\\path");
    }

    #[test]
    fn json_escape_passes_non_bmp_and_printable_unicode_through_raw() {
        // JSON strings are Unicode: anything outside the mandatory escape
        // set may appear literally.  Non-BMP code points must NOT be split
        // into \u surrogate pairs by this escaper (it emits UTF-8), and
        // must survive unmodified.
        assert_eq!(json_escape("😀"), "😀");
        assert_eq!(json_escape("\u{10FFFF}"), "\u{10FFFF}");
        assert_eq!(json_escape("éß漢"), "éß漢");
        // DEL (U+007F) and the line/paragraph separators are not in the
        // mandatory escape set; they pass through raw.
        assert_eq!(json_escape("\u{7f}"), "\u{7f}");
        assert_eq!(json_escape("\u{2028}\u{2029}"), "\u{2028}\u{2029}");
        // Mixed: escapes and raw text interleave without disturbing either.
        assert_eq!(
            json_escape("a\"b\\c\u{1}😀\n"),
            "a\\\"b\\\\c\\u0001😀\\u000a"
        );
    }
}
