//! A tiny deterministic JSON emitter and the matching reader.
//!
//! Snapshots must be byte-stable across shard counts and platforms, so we
//! hand-roll the (small, fixed-schema) JSON instead of pulling in a serde
//! stack: keys are emitted in sorted order by construction and numbers are
//! plain integers — no float formatting ambiguity anywhere.
//!
//! [`parse_json`] is the inverse: a recursive-descent reader for exactly
//! the dialect the emitter produces (objects, arrays, strings with the
//! emitter's escapes, unsigned integers, booleans, null). Checkpoint
//! files are round-tripped through it, so a corrupted or truncated file
//! surfaces as a positioned [`JsonError`], never a panic. Object members
//! are kept as an ordered `Vec` of pairs — document order is part of the
//! canonical-bytes contract and hash-map iteration order must not leak
//! into anything rendered from a parsed value.

use std::fmt::Write;

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
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

/// Append `"key":` to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_str_literal(out, key);
    out.push(':');
}

/// Append a `"key":value` pair for an unsigned integer.
pub fn push_u64_field(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    let _ = write!(out, "{value}");
}

/// Append a `"key":true|false` pair.
pub fn push_bool_field(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

/// A parsed JSON value (the emitter's dialect; see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer — the only number shape the emitter produces.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as `(key, value)` pairs in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's array elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Where and why parsing failed. Byte offsets index the input text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What was expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        // A depth cap keeps adversarial inputs from overflowing the stack.
        if depth > 64 {
            return self.err("nesting deeper than 64 levels");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(c) => self.err(format!("unexpected byte `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return self.err("expected `,` or `}` in object"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected `,` or `]` in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x80 => {
                    if c < 0x20 {
                        return self.err("raw control byte in string");
                    }
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the full scalar from the source.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            at: self.pos,
                            message: "invalid UTF-8 in string".to_owned(),
                        })?;
                    match rest.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return self.err("unterminated string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.err("non-integer numbers are not part of the dialect");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<u64>() {
            Ok(n) => Ok(JsonValue::Num(n)),
            Err(_) => self.err("integer does not fit in u64"),
        }
    }
}

/// Parse `text` as a single JSON value (see module docs for the dialect).
/// Trailing garbage after the value is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing bytes after the value");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_literal(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn plain_fields() {
        let mut s = String::new();
        push_u64_field(&mut s, "count", 42);
        assert_eq!(s, "\"count\":42");
    }

    #[test]
    fn parses_the_emitted_dialect() {
        let text = "{\"a\":1,\"b\":[true,false,null],\"c\":{\"d\":\"x\\n\\\"y\\u0001\"}}";
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], JsonValue::Null);
        let d = v.get("c").and_then(|c| c.get("d")).unwrap();
        assert_eq!(d.as_str(), Some("x\n\"y\u{1}"));
    }

    #[test]
    fn round_trips_emitter_strings() {
        for s in ["plain", "q\"uote", "tab\tnl\n", "uni £ ↑", "\u{2}ctl"] {
            let mut emitted = String::new();
            push_str_literal(&mut emitted, s);
            assert_eq!(parse_json(&emitted).unwrap(), JsonValue::Str(s.to_owned()));
        }
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "1.5",
            "-3",
            "18446744073709551616", // u64::MAX + 1
            "{\"a\":1} trailing",
            "nul",
            "{\"bad\\escape\":1}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn depth_cap_rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse_json(&ok).is_ok());
    }
}
