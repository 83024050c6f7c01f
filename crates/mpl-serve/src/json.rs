//! A minimal JSON value model with a strict parser and a compact writer.
//!
//! The workspace has no serde dependency, and until this crate nothing ever
//! needed to *read* JSON — the CLI and benchmark reports only emit it.  A
//! wire protocol needs both directions, so this module implements the small
//! subset of JSON handling the protocol (and the golden-file tests pinning
//! the CLI schemas) relies on:
//!
//! * [`Json`] — null, bool, f64 numbers, strings, arrays and objects.
//!   Objects preserve insertion order (they are association lists, not
//!   maps), so re-serialising a parsed document is stable and golden tests
//!   can pin key order.
//! * [`Json::parse`] — a strict recursive-descent parser: rejects trailing
//!   garbage, unescaped control characters, bad `\u` escapes (including
//!   broken surrogate pairs) and guards against deep nesting.
//! * the `Display` impl — a compact writer using the shared
//!   [`mpl_core::json_escape`] helper, so the service emits exactly the
//!   same string escaping as the CLI and benchmark reports.

use mpl_core::json_escape;
use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts; deeper documents are
/// rejected instead of risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

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
    pub fn as_usize(&self) -> Option<usize> {
        let value = self.as_f64()?;
        if value.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&value) {
            Some(value as usize)
        } else {
            None
        }
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

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(value) => write_number(*value, out),
            Json::String(text) => {
                out.push('"');
                out.push_str(&json_escape(text));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number the way the protocol needs it: integral values in the
/// exact range print without a fractional part, everything else uses Rust's
/// shortest-round-trip `f64` formatting (non-finite values, which JSON
/// cannot represent, degrade to `null`).
fn write_number(value: f64, out: &mut String) {
    if !value.is_finite() {
        out.push_str("null");
    } else if value.fract() == 0.0 && value.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
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
        assert_eq!(value.get("neg").unwrap().as_usize(), None);
        assert_eq!(value.get("frac").unwrap().as_usize(), None);
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_str(), None);
    }
}
