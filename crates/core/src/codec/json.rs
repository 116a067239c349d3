//! A complete, hand-rolled JSON deserializer.
//!
//! This is the parse side of the crate's JSON format: the writers (e.g.
//! [`SweepReport::to_json`](crate::report::SweepReport::to_json)) are
//! hand-rolled for byte-determinism, and this module is their inverse. It
//! implements the full RFC 8259 grammar — every escape (including
//! `\uXXXX` surrogate pairs), fraction/exponent numbers, arbitrarily nested
//! containers — with byte-offset error reporting and a recursion-depth
//! guard. A key repeated within one object is an error: the document
//! would otherwise have two readings (first match or last write).
//!
//! Two deliberate departures from `serde_json`'s data model, both in the
//! service of *lossless round-trips*:
//!
//! * [`Number`] keeps the **raw literal text** of every number alongside
//!   nothing else. `as_f64` parses on demand (Rust's `str::parse::<f64>` is
//!   correctly rounded, so a shortest-round-trip float written with
//!   `format!("{v}")` parses back to the identical bits), and `as_u64`
//!   accepts the full 64-bit range — a `u64` seed above 2^53 survives a
//!   round-trip that an f64-only model would corrupt.
//! * [`Value::Object`] is an **order-preserving** association list, so
//!   re-emitting a parsed document can reproduce the writer's key order.
//!
//! ```
//! use disagg_core::codec::json::{parse, Value};
//!
//! let v = parse(r#"{"name":"sweep","seeds":[18446744073709551615],"ok":true}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("sweep"));
//! let seeds = v.get("seeds").and_then(Value::as_array).unwrap();
//! assert_eq!(seeds[0].as_u64(), Some(u64::MAX));
//! assert!(parse("{\"trailing\":1} garbage").is_err());
//! ```

use std::collections::HashSet;
use std::fmt;

/// Maximum container nesting depth accepted by [`parse`]; prevents stack
/// exhaustion on adversarial input (e.g. ten thousand `[`s).
const MAX_DEPTH: usize = 128;

/// Objects up to this many fields check for a repeated key by a linear
/// scan; wider ones switch to a hash set, so a hostile object with many
/// keys still parses in linear time.
const LINEAR_KEY_SCAN: usize = 32;

/// A JSON number, stored as its raw literal text.
///
/// Keeping the text (rather than eagerly converting to `f64`) makes the
/// parser lossless: integers use the full `u64`/`i64` range and floats
/// re-parse to the exact bits the writer formatted.
#[derive(Debug, Clone, PartialEq)]
pub struct Number {
    text: String,
}

impl Number {
    /// The raw literal as it appeared in the document (e.g. `"-1.5e-9"`).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The number as an `f64`. JSON number syntax is a subset of Rust's
    /// float grammar, so this cannot fail for a parsed [`Number`]; values
    /// beyond f64 range round to infinity per IEEE 754.
    pub fn as_f64(&self) -> f64 {
        self.text.parse().expect("valid JSON number parses as f64")
    }

    /// The number as a `u64`, if it is a non-negative integer literal in
    /// range (no sign, fraction, or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        self.text.parse().ok()
    }

    /// The number as an `i64`, if it is an integer literal in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.text.parse().ok()
    }
}

/// A parsed JSON document.
///
/// Objects are order-preserving `(key, value)` lists; [`parse`] rejects a
/// key that repeats within one object, so every key is unique.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number literal; see [`Number`].
    Number(Number),
    /// A string with all escapes resolved.
    String(String),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `{ ... }` in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `None` on non-objects or a missing key. Keys of
    /// a parsed object are unique, so there is at most one match.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// The number as `u64`, if this is an in-range non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number().and_then(Number::as_u64)
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON document. Leading/trailing whitespace is
/// allowed; anything else after the document is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut wide_keys = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            let repeated = if fields.len() < LINEAR_KEY_SCAN {
                fields.iter().any(|(k, _)| *k == key)
            } else {
                if wide_keys.is_empty() {
                    wide_keys.extend(fields.iter().map(|(k, _)| k.clone()));
                }
                !wide_keys.insert(key.clone())
            };
            if repeated {
                return Err(ParseError {
                    offset: key_at,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // Unescaped runs are valid UTF-8 sub-slices of the input
                    // (quotes and backslashes are ASCII, so they never split
                    // a multi-byte sequence).
                    out.push_str(self.run_since(run_start));
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.run_since(run_start));
                    self.pos += 1;
                    out.push(self.escape()?);
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn run_since(&self, start: usize) -> &str {
        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input slice is valid UTF-8")
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => {
                self.pos -= 1;
                return Err(self.err(format!("invalid escape '\\{}'", c as char)));
            }
        })
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: must be followed by `\uXXXX` low surrogate.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&high) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
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

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            self.digits();
        }
        Ok(Value::Number(Number {
            text: self.run_since(start).to_string(),
        }))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(
            parse("-17").unwrap().as_number().unwrap().as_i64(),
            Some(-17)
        );
    }

    #[test]
    fn numbers_keep_raw_text_and_full_integer_range() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_number().unwrap().text(), "18446744073709551615");
        // Shortest-round-trip floats parse back to identical bits.
        for x in [0.1f64, 1.0 / 3.0, 1e-9, 2.5e300, -0.0] {
            let text = format!("{x}");
            let parsed = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "round-trip of {text}");
        }
        assert_eq!(parse("1.5e-9").unwrap().as_f64(), Some(1.5e-9));
        assert_eq!(parse("1E+2").unwrap().as_f64(), Some(100.0));
        // Fractions and exponents are not integers.
        assert_eq!(parse("1.0").unwrap().as_u64(), None);
    }

    #[test]
    fn invalid_numbers_rejected() {
        for bad in ["01", "-", "1.", ".5", "1e", "1e+", "+1", "NaN", "Infinity"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn strings_resolve_every_escape() {
        let v = parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        // BMP escape, literal UTF-8, and a surrogate pair.
        let v = parse(r#""\u00e9 é \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é é 😀"));
    }

    #[test]
    fn bad_strings_rejected() {
        for bad in [
            "\"unterminated",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn containers_nest_and_preserve_order() {
        let v = parse(r#"{"b":1,"a":[true,null,{"x":2}],"c":3}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(fields[2].0, "c");
        assert_eq!(v.get("b").and_then(Value::as_u64), Some(1));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert!(a[1].is_null());
        assert_eq!(a[2].get("x").and_then(Value::as_u64), Some(2));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{ }").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn duplicate_keys_rejected_at_the_repeat() {
        let e = parse(r#"{"rows_per_shard":3,"rows_per_shard":7}"#).unwrap_err();
        assert_eq!(e.offset, 20);
        assert_eq!(
            e.to_string(),
            r#"duplicate key "rows_per_shard" at byte 20"#
        );
        // Escapes are resolved before comparing, in nested objects too.
        assert!(parse(r#"[{"x":{"a":1,"\u0061":2}}]"#).is_err());
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a":1},{"a":2}]"#).is_ok());
        // Wide objects switch to a hash set and still catch the repeat.
        let wide: Vec<String> = (0..100).map(|i| format!("\"k{i}\":{i}")).collect();
        let doc = format!("{{{}}}", wide.join(","));
        assert_eq!(parse(&doc).unwrap().as_object().unwrap().len(), 100);
        let doc = format!("{{{},\"k7\":0}}", wide.join(","));
        assert!(parse(&doc).unwrap_err().message.contains("\"k7\""));
    }

    #[test]
    fn structural_errors_carry_offsets() {
        let e = parse("{\"a\":1,}").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(parse("[1,2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1] []").is_err());
        assert!(format!("{}", parse("nope").unwrap_err()).contains("byte 0"));
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = "[".repeat(400) + &"]".repeat(400);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }
}
