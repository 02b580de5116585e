//! A minimal JSON value — render and parse, no dependencies.
//!
//! This is deliberately tiny: object keys keep insertion order, numbers
//! are `f64`, and non-finite numbers render as `null` (JSON has no
//! `NaN`). It exists so the JSONL sink, the bench run manifests, and the
//! tests that validate both share one implementation instead of pulling
//! in a serializer the workspace does not otherwise need.

/// The deepest array/object nesting [`JsonValue::parse`] accepts.
///
/// The parser recurses once per nesting level, and the serve protocol
/// parses every client frame with it, so without a cap one frame of
/// ~10k `[` bytes overflows a connection thread's stack and aborts the
/// process. Every document this workspace writes (events, manifests,
/// swap specs, profiles) nests fewer than 10 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => render_number(*v, out),
            JsonValue::String(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object; `None` on other node kinds or missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this node is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this node is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses JSON text. The whole input must be one value (trailing
    /// whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// or of nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<f32> for JsonValue {
    fn from(v: f32) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => JsonValue::Null,
        }
    }
}

/// Ordered-field object builder.
///
/// # Example
///
/// ```
/// use flight_telemetry::json::JsonObject;
///
/// let v = JsonObject::new().field("a", 1u64).field("b", "x").build();
/// assert_eq!(v.render(), r#"{"a":1,"b":"x"}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject(Vec<(String, JsonValue)>);

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject(Vec::new())
    }

    /// Appends one field.
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

fn render_number(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn render_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs one container parser one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8 in number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: try to combine; lone
                            // surrogates become the replacement char.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one complete UTF-8 scalar. `pos` sits on a
                    // char boundary of the (already valid) input, so this
                    // decodes one char without rescanning the rest.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| "invalid utf-8 in string".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        // self.pos points at the 'u'; the four hex digits follow it.
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape '{hex}'"))?;
        self.pos = end - 1; // caller advances past the final digit
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Number(3.0).render(), "3");
        assert_eq!(JsonValue::Number(0.25).render(), "0.25");
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn renders_nested_structures() {
        let v = JsonObject::new()
            .field("name", "train.epoch")
            .field("values", JsonValue::Array(vec![1u64.into(), 2u64.into()]))
            .field("none", JsonValue::Null)
            .build();
        assert_eq!(
            v.render(),
            r#"{"name":"train.epoch","values":[1,2],"none":null}"#
        );
    }

    #[test]
    fn parse_round_trips_render() {
        let v = JsonObject::new()
            .field("a", 1.5f64)
            .field("b", "x\ty")
            .field(
                "c",
                JsonValue::Array(vec![JsonValue::Bool(false), JsonValue::Null]),
            )
            .field("d", JsonObject::new().field("nested", 7u64).build())
            .build();
        let text = v.render();
        let back = JsonValue::parse(&text).expect("rendered JSON parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" ] } ").expect("valid JSON");
        let items = v.get("k").and_then(JsonValue::as_array).expect("array");
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-25.0));
        assert_eq!(items[2].as_str(), Some("A"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn control_chars_render_as_unicode_escapes() {
        let v = JsonValue::from("a\u{0001}b");
        assert_eq!(v.render(), "\"a\\u0001b\"");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn object_lookup() {
        let v = JsonObject::new().field("x", 2u64).build();
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(2.0));
        assert!(v.get("y").is_none());
    }

    // ------------------------------------------------------------------
    // Adversarial coverage: this parser now backs both the sinks and the
    // flightctl trace readers, so its behavior on hostile input is API.
    // ------------------------------------------------------------------

    #[test]
    fn every_escape_round_trips() {
        // All escapes JSON defines, plus raw multibyte UTF-8.
        let text = r#""q\" b\\ s\/ n\n r\r t\t bs\b ff\f ué é 漢""#;
        let v = JsonValue::parse(text).expect("escapes parse");
        let s = v.as_str().expect("string");
        assert_eq!(s, "q\" b\\ s/ n\n r\r t\t bs\u{8} ff\u{c} ué é 漢");
        // Render → parse is the identity on the decoded value.
        assert_eq!(JsonValue::parse(&JsonValue::from(s).render()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_replaced() {
        let pair = JsonValue::parse(r#""😀""#).expect("surrogate pair");
        assert_eq!(pair.as_str(), Some("😀"));
        let lone = JsonValue::parse(r#""a\ud800b""#).expect("lone surrogate tolerated");
        assert_eq!(lone.as_str(), Some("a\u{FFFD}b"));
        // Truncated \u escapes are syntax errors, not panics.
        assert!(JsonValue::parse(r#""\u12"#).is_err());
        assert!(JsonValue::parse(r#""\uzzzz""#).is_err());
    }

    #[test]
    fn deeply_nested_arrays_parse_and_round_trip() {
        let mut text = String::new();
        let depth = 64;
        for _ in 0..depth {
            text.push('[');
        }
        text.push('1');
        for _ in 0..depth {
            text.push(']');
        }
        let mut v = JsonValue::parse(&text).expect("nested arrays parse");
        let rendered_matches = v.render() == text;
        assert!(rendered_matches);
        for _ in 0..depth {
            let items = v.as_array().expect("array at every depth");
            assert_eq!(items.len(), 1);
            v = items[0].clone();
        }
        assert_eq!(v.as_f64(), Some(1.0));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Objects count toward the same budget as arrays.
        let mixed = "{\"k\":[".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(JsonValue::parse(&mixed).is_ok());
        let deeper = "[".to_string() + &mixed + "]";
        assert!(JsonValue::parse(&deeper).is_err());
        // A hostile frame's worth of open brackets fails on the default
        // 2 MiB test-thread stack instead of overflowing it.
        assert!(JsonValue::parse(&"[".repeat(1_000_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn non_finite_policy_renders_null_and_rejects_keywords() {
        // Render side: JSON has no NaN/Inf — they become null.
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Number(f64::NEG_INFINITY).render(), "null");
        let obj = JsonObject::new().field("v", f64::NAN).build();
        let back = JsonValue::parse(&obj.render()).expect("nan field round-trips as null");
        assert!(matches!(back.get("v"), Some(JsonValue::Null)));
        // Parse side: the JS-flavored keywords are not JSON.
        for bad in ["NaN", "Infinity", "-Infinity", "{\"v\":NaN}", "[Infinity]"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Overflowing literals saturate to f64 infinity on parse; the
        // value is accepted (f64::from_str's behavior) but re-renders as
        // null under the same non-finite policy.
        let big = JsonValue::parse("1e999").expect("overflow saturates");
        assert_eq!(big.as_f64(), Some(f64::INFINITY));
        assert_eq!(big.render(), "null");
    }

    #[test]
    fn number_grammar_edges() {
        for (text, want) in [
            ("-0", 0.0),
            ("0.0001", 0.0001),
            ("1E+2", 100.0),
            ("2.5e-3", 0.0025),
            ("9007199254740993", 9007199254740992.0), // f64 rounds 2^53+1
        ] {
            assert_eq!(JsonValue::parse(text).unwrap().as_f64(), Some(want));
        }
        for bad in ["1.2.3", "--1", "1e", "0x10", "+1", ".5"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn duplicate_keys_keep_insertion_order_and_first_wins_on_get() {
        let v = JsonValue::parse(r#"{"k":1,"k":2}"#).expect("duplicates tolerated");
        assert_eq!(v.get("k").and_then(JsonValue::as_f64), Some(1.0));
        match &v {
            JsonValue::Object(fields) => assert_eq!(fields.len(), 2),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn truncated_event_lines_fail_cleanly() {
        // Prefixes of a real JSONL event line — what a killed run leaves
        // behind. Every prefix must error (never panic, never succeed).
        let line = r#"{"seq":7,"name":"train.k_hist","kind":"histogram","value":4,"unit":"count","buckets":{"1":3,"2":1}}"#;
        for cut in 1..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            assert!(
                JsonValue::parse(&line[..cut]).is_err(),
                "prefix of length {cut} must not parse"
            );
        }
        assert!(JsonValue::parse(line).is_ok());
    }
}
