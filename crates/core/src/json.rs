//! Minimal flat-JSON writer/parser shared by the telemetry schema
//! ([`crate::obs`]) and the service layer (`hfl-serve`'s `JobSpec` and
//! status documents).
//!
//! The workspace is offline (no serde), so every JSON document in the
//! system is a **single-level object** of string/number/bool/null values
//! written and parsed by hand. Numbers keep their raw token through
//! parsing so 64-bit integers survive; 64-bit values that must not lose
//! precision in other readers are serialised as 16-digit hex strings
//! (see [`ObjectWriter::hex_opt`]).

use std::fmt::Write as _;

/// Incremental writer for one flat JSON object.
///
/// # Examples
///
/// ```
/// use hfl::json::ObjectWriter;
///
/// let mut w = ObjectWriter::with_type("job");
/// w.num("id", 7);
/// w.str("status", "queued");
/// assert_eq!(w.finish(), r#"{"type":"job","id":7,"status":"queued"}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// An empty object (`{}` until fields are appended).
    #[must_use]
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    /// An object whose first field is `"type": kind` — the discriminant
    /// convention every schema in this workspace uses.
    #[must_use]
    pub fn with_type(kind: &str) -> ObjectWriter {
        let mut w = ObjectWriter::new();
        w.str("type", kind);
        w
    }

    fn key(&mut self, key: &str) {
        if self.first {
            self.first = false;
        } else {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_json_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Appends an unsigned integer field.
    pub fn num(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a float field (NaN/inf are not JSON; they clamp to 0).
    pub fn float(&mut self, key: &str, value: f64) {
        self.key(key);
        let v = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.buf, "{v}");
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push('"');
        escape_json_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Appends a `u64` as a 16-digit hex string, or `null` — full 64-bit
    /// precision survives any JSON reader this way.
    pub fn hex_opt(&mut self, key: &str, value: Option<u64>) {
        self.key(key);
        match value {
            Some(v) => {
                let _ = write!(self.buf, "\"{v:016x}\"");
            }
            None => self.buf.push_str("null"),
        }
    }

    /// Closes the object and returns it (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

/// A parsed flat JSON value (the only shapes the workspace's schemas
/// use).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// Numbers keep their raw token so 64-bit integers survive parsing.
    Num(String),
    /// A JSON string, unescaped.
    Str(String),
}

impl JsonValue {
    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an unsigned integer that fits.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `value` for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through).
fn escape_json_into(buf: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\t' => buf.push_str("\\t"),
            '\r' => buf.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// Scans a JSON string literal starting just after its opening quote;
/// returns the unescaped contents and the remainder after the closing
/// quote.
fn scan_json_string(s: &str) -> Option<(String, &str)> {
    let bytes = s.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((out, &s[i + 1..])),
            b'\\' => {
                let escape = *bytes.get(i + 1)?;
                i += 2;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = s.get(i..i + 4)?;
                        out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                        i += 4;
                    }
                    _ => return None,
                }
            }
            _ => {
                let c = s[i..].chars().next()?;
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    None
}

/// Parses a single-level JSON object with string/number/bool/null values
/// (nested containers are not part of any schema here). Returns the
/// fields in document order; `None` if the line is not such an object.
fn parse_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = body.trim();
    if rest.is_empty() {
        return Some(fields);
    }
    loop {
        rest = rest.trim_start().strip_prefix('"')?;
        let (key, after_key) = scan_json_string(rest)?;
        rest = after_key.trim_start().strip_prefix(':')?.trim_start();
        let after = if let Some(r) = rest.strip_prefix('"') {
            let (value, after_value) = scan_json_string(r)?;
            fields.push((key, JsonValue::Str(value)));
            after_value
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            let value = match token {
                "null" => JsonValue::Null,
                "true" => JsonValue::Bool(true),
                "false" => JsonValue::Bool(false),
                _ => {
                    // Validate it is number-shaped so garbage fails early.
                    token.parse::<f64>().ok()?;
                    JsonValue::Num(token.to_owned())
                }
            };
            fields.push((key, value));
            &rest[end..]
        };
        let after = after.trim_start();
        if after.is_empty() {
            return Some(fields);
        }
        rest = after.strip_prefix(',')?;
    }
}

/// Convenience view over a parsed object: field lookup by name.
#[derive(Debug)]
pub struct Fields(pub Vec<(String, JsonValue)>);

impl Fields {
    /// Parses `line` into a field table.
    #[must_use]
    pub fn parse(line: &str) -> Option<Fields> {
        parse_object(line).map(Fields)
    }

    /// The named field's value, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The named field as a string.
    #[must_use]
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(JsonValue::as_str)
    }

    /// The named field as a `u64`.
    #[must_use]
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(JsonValue::as_u64)
    }

    /// The named field as a `usize`.
    #[must_use]
    pub fn usize(&self, name: &str) -> Option<usize> {
        self.get(name).and_then(JsonValue::as_usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = ObjectWriter::with_type("demo");
        w.num("count", u64::MAX);
        w.float("ratio", 0.5);
        w.str("name", "a \"quoted\"\nvalue");
        w.bool("flag", true);
        w.hex_opt("sig", Some(0xdead_beef_0000_0001));
        w.hex_opt("none", None);
        let line = w.finish();
        let fields = Fields::parse(&line).expect("parses");
        assert_eq!(fields.str("type"), Some("demo"));
        assert_eq!(fields.u64("count"), Some(u64::MAX));
        assert_eq!(fields.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(fields.str("name"), Some("a \"quoted\"\nvalue"));
        assert_eq!(fields.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(
            u64::from_str_radix(fields.str("sig").unwrap(), 16).unwrap(),
            0xdead_beef_0000_0001
        );
        assert_eq!(fields.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn empty_and_malformed_objects() {
        assert_eq!(parse_object("{}"), Some(Vec::new()));
        assert_eq!(ObjectWriter::new().finish(), "{}");
        for bad in ["", "{", "}", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "[1]"] {
            assert!(parse_object(bad).is_none(), "{bad:?}");
        }
    }
}
