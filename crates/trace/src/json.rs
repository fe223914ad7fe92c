//! Std-only lossless JSON: the workspace's one value type, parser and
//! writer.
//!
//! Every JSON document the simulator reads or writes goes through here:
//! run-report snapshots and repro specs (`scalesim-core`), checkpoint
//! records, run manifests and campaign specs (`scalesim-experiments`),
//! `analytics.json`, and the CI validators in [`crate::check`].
//!
//! Unsigned integers that fit in a `u64` are held exactly
//! ([`JsonValue::U64`]): checkpoint records must round-trip `u64::MAX`
//! sentinels bit-exactly, which an `f64` cannot (it rounds above 2^53).
//! Any other number — negative, fractional, with an exponent, or wider
//! than `u64` — parses to [`JsonValue::Num`], which the validators read
//! through [`JsonValue::as_num`]. The snapshot layer reads every numeric
//! field through [`JsonValue::as_u64`], so a lossy number where an exact
//! one belongs is rejected there. The writer ([`fmt::Display`]) and the
//! parser are exact inverses on every finite value.

use std::fmt;

/// A parsed JSON value. Object keys keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer that fits in a `u64`, held exactly.
    U64(u64),
    /// Any other finite number (negative, fractional, exponent, or wider
    /// than `u64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    #[must_use]
    pub fn obj<'k>(pairs: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact integer payload, if this is a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload of any number, widened to `f64`.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::U64(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem,
    /// including numbers whose value is not finite (`1e999`).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing data after document"));
        }
        Ok(value)
    }
}

/// Parses one JSON document; the free-function spelling of
/// [`JsonValue::parse`].
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    JsonValue::parse(text)
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::U64(n) => write!(f, "{n}"),
            // `{:?}` is the shortest exact rendering and always keeps a
            // `.` or exponent, so the value parses back as a `Num`.
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n:?}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(item, f)?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(value, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string. Runs of bytes that need no
/// escape go out in one `write_str`; every escaped byte is ASCII, so
/// the slice boundaries always fall on UTF-8 character boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\t' => f.write_str("\\t")?,
            b'\r' => f.write_str("\\r")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("json byte {}: {}", self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips a run of ASCII digits and returns how many there were.
    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.error("expected `:` in object"));
            }
            pairs.push((key, self.parse_value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(JsonValue::Obj(pairs)),
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.bump() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| self.error("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.error("bad \\u escape"))?;
                        self.pos += 4;
                        // The writer never emits surrogate pairs.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.error("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.error("raw control byte in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Re-assemble multi-byte UTF-8 by copying raw bytes.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`: a plain unsigned
    /// integer that fits becomes a `U64`, anything else a finite `Num`.
    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut plain = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            plain = false;
        }
        if self.skip_digits() == 0 {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            plain = false;
            if self.skip_digits() == 0 {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            plain = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return Err(self.error("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if plain {
            if let Ok(n) = raw.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        match raw.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(self.error(&format!("number out of range `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_shape() {
        let doc = JsonValue::Obj(vec![
            ("max".to_owned(), JsonValue::U64(u64::MAX)),
            ("zero".to_owned(), JsonValue::U64(0)),
            ("flag".to_owned(), JsonValue::Bool(true)),
            ("none".to_owned(), JsonValue::Null),
            (
                "nums".to_owned(),
                JsonValue::Arr(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Num(-3.0),
                    JsonValue::Num(3.0),
                    JsonValue::Num(1e300),
                    JsonValue::Num(-2.5e-9),
                ]),
            ),
            (
                "text".to_owned(),
                JsonValue::Str("quote \" slash \\ nl \n tab \t café — ok".to_owned()),
            ),
            (
                "arr".to_owned(),
                JsonValue::Arr(vec![JsonValue::U64(1), JsonValue::Obj(vec![])]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_max_survives_exactly() {
        let text = JsonValue::U64(u64::MAX).to_string();
        assert_eq!(text, u64::MAX.to_string());
        assert_eq!(JsonValue::parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse_json(r#"{"a":[1,-2.5,true,null,"x\n"],"b":{"c":"d"}}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::U64(1),
                JsonValue::Num(-2.5),
                JsonValue::Bool(true),
                JsonValue::Null,
                JsonValue::Str("x\n".to_owned()),
            ])
        );
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn only_plain_unsigned_integers_stay_exact() {
        let parse = |t: &str| JsonValue::parse(t).unwrap();
        assert_eq!(parse("7"), JsonValue::U64(7));
        assert_eq!(parse("1.5"), JsonValue::Num(1.5));
        assert_eq!(parse("-3"), JsonValue::Num(-3.0));
        assert_eq!(parse("1e3"), JsonValue::Num(1000.0));
        assert_eq!(parse("2E-2"), JsonValue::Num(0.02));
        // u64::MAX + 1 no longer fits, so it widens instead of wrapping.
        assert_eq!(
            parse("18446744073709551616"),
            JsonValue::Num(18_446_744_073_709_551_616.0)
        );
        for lossy in ["1.5", "-3", "1e3", "null", "18446744073709551616"] {
            assert_eq!(parse(lossy).as_u64(), None, "{lossy}");
        }
        assert_eq!(parse("7").as_num(), Some(7.0));
        assert_eq!(parse("-3").as_num(), Some(-3.0));
        assert_eq!(parse("\"7\"").as_num(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "12 3",
            "\"unterminated",
            r#""bad \q escape""#,
            "1e999",
            "-1e999",
            "-",
            "1.",
            "1e",
            "nul",
            "",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn control_chars_escape_and_decode() {
        let doc = JsonValue::Str("\u{1} bell \u{7} cr \r".to_owned());
        let text = doc.to_string();
        assert!(text.contains("\\u0001"));
        assert!(text.contains("\\r"));
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    /// The string writer, byte for byte, on every escape class and on
    /// multi-byte UTF-8 next to escapes (where a run slice could split a
    /// character if escaping were not byte-exact).
    #[test]
    fn escaping_matches_the_golden_bytes() {
        let long_a = "a".repeat(300);
        let long_b = "b".repeat(300);
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases: Vec<(String, String)> = vec![
            (String::new(), r#""""#.to_owned()),
            ("\"".to_owned(), r#""\"""#.to_owned()),
            ("\\".to_owned(), r#""\\""#.to_owned()),
            (
                controls,
                concat!(
                    r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
                    r#"\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
                    r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
                    r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
                )
                .to_owned(),
            ),
            ("\u{7f}".to_owned(), "\"\u{7f}\"".to_owned()),
            ("é".to_owned(), "\"é\"".to_owned()),
            ("—€".to_owned(), "\"—€\"".to_owned()),
            ("𝄞".to_owned(), "\"𝄞\"".to_owned()),
            (
                "é\"€\n𝄞\\ü\u{1}".to_owned(),
                r#""é\"€\n𝄞\\ü\u0001""#.to_owned(),
            ),
            (
                format!("{long_a}\"{long_b}"),
                format!("\"{long_a}\\\"{long_b}\""),
            ),
            (long_a.clone(), format!("\"{long_a}\"")),
        ];
        for (raw, expected) in cases {
            let written = JsonValue::Str(raw.clone()).to_string();
            assert_eq!(written, expected, "{raw:?}");
            assert_eq!(JsonValue::parse(&written).unwrap().as_str(), Some(&*raw));
        }
        // Keys go through the same writer.
        let obj = JsonValue::obj([("k\"\u{1f}é", JsonValue::Null)]);
        assert_eq!(obj.to_string(), r#"{"k\"\u001fé":null}"#);
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = JsonValue::parse(r#"{"a":7,"b":"x","c":[true]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("c").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(doc.get("missing").is_none());
    }
}
