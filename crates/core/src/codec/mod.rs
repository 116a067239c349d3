//! The workspace's JSON format, read and written in one place.
//!
//! Every artifact this crate emits — sweep reports, grids, job files and
//! shards, the paper-artifact summaries — is JSON written by hand so that
//! its bytes are deterministic: collections are ordered and floats use
//! Rust's shortest-round-trip formatting. This module owns the three layers
//! of that format:
//!
//! * **parse** — [`json::parse`] turns text into an order-preserving
//!   [`Value`] tree with raw-text numbers;
//! * **decode** — the field helpers below turn a tree into typed
//!   structures, reporting errors as plain strings carrying the field path
//!   that failed (good enough to debug a malformed job file, with no
//!   error-type machinery to maintain);
//! * **write** — `json_string` and `json_number` are the literal
//!   writers every hand-rolled `to_json` shares.

pub mod json;

use json::Value;

/// A decode failure: the field path and what was wrong with it.
pub type DecodeError = String;

/// Required object field.
pub(crate) fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, DecodeError> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field {key:?}"))
}

/// A JSON string.
pub(crate) fn as_str<'a>(v: &'a Value, ctx: &str) -> Result<&'a str, DecodeError> {
    v.as_str().ok_or_else(|| format!("{ctx}: expected string"))
}

/// A finite-or-NaN number: JSON `null` decodes as NaN, mirroring the
/// writers' convention of emitting `null` for non-finite values.
pub(crate) fn as_f64(v: &Value, ctx: &str) -> Result<f64, DecodeError> {
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64().ok_or_else(|| format!("{ctx}: expected number"))
}

/// A non-negative integer in `u64` range.
pub(crate) fn as_u64(v: &Value, ctx: &str) -> Result<u64, DecodeError> {
    v.as_u64()
        .ok_or_else(|| format!("{ctx}: expected unsigned integer"))
}

/// A non-negative integer in `u32` range.
pub(crate) fn as_u32(v: &Value, ctx: &str) -> Result<u32, DecodeError> {
    u32::try_from(as_u64(v, ctx)?).map_err(|_| format!("{ctx}: integer out of u32 range"))
}

/// A non-negative integer in `usize` range.
pub(crate) fn as_usize(v: &Value, ctx: &str) -> Result<usize, DecodeError> {
    usize::try_from(as_u64(v, ctx)?).map_err(|_| format!("{ctx}: integer out of usize range"))
}

/// A JSON boolean.
pub(crate) fn as_bool(v: &Value, ctx: &str) -> Result<bool, DecodeError> {
    v.as_bool().ok_or_else(|| format!("{ctx}: expected bool"))
}

/// A JSON array.
pub(crate) fn as_array<'a>(v: &'a Value, ctx: &str) -> Result<&'a [Value], DecodeError> {
    v.as_array().ok_or_else(|| format!("{ctx}: expected array"))
}

/// A JSON object (ordered field list).
pub(crate) fn as_object<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], DecodeError> {
    v.as_object()
        .ok_or_else(|| format!("{ctx}: expected object"))
}

/// Required `f64` field of an object.
pub(crate) fn f64_field(v: &Value, key: &str, ctx: &str) -> Result<f64, DecodeError> {
    as_f64(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}

/// Required `u32` field of an object.
pub(crate) fn u32_field(v: &Value, key: &str, ctx: &str) -> Result<u32, DecodeError> {
    as_u32(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}

/// Required string field of an object.
pub(crate) fn str_field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, DecodeError> {
    as_str(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}

/// Append a JSON string literal.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a JSON number: shortest-round-trip for finite values (so parsing
/// recovers identical bits), `null` for non-finite.
pub(crate) fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}
