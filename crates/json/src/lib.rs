//! Dependency-free JSON for swhybrid.
//!
//! One value type ([`Json`]), a recursive-descent parser ([`Json::parse`]),
//! and a compact writer (`Display` / [`Json::to_string_pretty`]). Used by
//! the `core::net` newline-delimited wire protocol, the `core::trace`
//! event export, and the bench table dumps — everywhere the workspace
//! previously reached for `serde_json`, which is unavailable in offline
//! builds.
//!
//! Scope notes: numbers are `f64` (integers up to 2^53 round-trip
//! exactly, which covers cell counts and indices here); non-finite
//! numbers serialize as `null`; object keys keep insertion order.

use std::fmt;

/// A parsed or under-construction JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`]: a message and the byte offset it refers to.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and its input arrives from sockets, so an
/// unbounded depth lets one line of `[` overflow the stack; no protocol
/// message in this workspace nests deeper than 4.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Nesting beyond [`MAX_DEPTH`] is a [`ParseError`].
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Convenience constructor for object values.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object field lookup (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl fmt::Display for Json {
    /// Compact single-line serialization (the wire format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                let mut out = String::new();
                write_string(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut out = String::new();
                    write_string(&mut out, key);
                    f.write_str(&out)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Invariant: a `&str` cut at ASCII bytes is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require the low half.
                                self.pos += 1; // past last hex digit of first
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads 4 hex digits; on success `pos` is on the LAST digit (the
    /// caller's shared `self.pos += 1` advances past it).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for i in 0..4 {
            let b = self
                .bytes
                .get(self.pos + i)
                .copied()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 3;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Invariant: the span holds only ASCII signs, digits, '.' and 'e'/'E'.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let doc = r#"{"type":"finished","task":3,"gcups":1.25,"hits":[{"db_index":0,"id":"q","score":-7,"ok":true,"note":null}]}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.to_string(), doc);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true, "e": -9}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("e").and_then(Json::as_i64), Some(-9));
        assert_eq!(v.get("e").and_then(Json::as_u64), None);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::str("line1\nline2\t\"quoted\" back\\slash \u{1}");
        let reparsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé🦀""#).unwrap(), Json::str("Aé🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        let big = 9.007199254740992e15; // 2^53: printed in float form, reparses equal
        assert_eq!(
            Json::parse(&Json::Num(big).to_string()).unwrap(),
            Json::Num(big)
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "{'a': 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH - 1)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Objects count against the same limit as arrays.
        let objects = format!("{}1{}", "{\"k\":[".repeat(40), "]}".repeat(40));
        assert!(Json::parse(&objects).is_err());
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
        // 1 MB of '[' returns an error instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn pretty_print_is_reparseable() {
        let v = Json::obj([
            ("rows", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::str("v"))])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }
}
