//! The one JSON codec behind every persisted format: NDJSON traces and
//! bench records, sweep checkpoints and robustness-campaign checkpoints.
//!
//! [`JsonLine`] writes one object per line; [`parse`] reads a line back
//! into a [`JsonValue`] tree. The subset is exactly what the writer emits
//! — objects, arrays, strings with RFC 8259 escapes, numbers, booleans,
//! null — and deliberately nothing more exotic (no comments, no trailing
//! commas, no duplicate-key policy).
//!
//! Numbers keep the writer's integer/float distinction: the writer renders
//! integral floats as `2.0`, never `2`, and the parser reads a token
//! without `.`/`e`/`E` as [`JsonValue::Int`], everything else as
//! [`JsonValue::Float`]. That is what lets a re-parsed trace reconstruct
//! `FieldValue::U64` vs `FieldValue::F64` losslessly. Floats render with
//! Rust's shortest round-trip formatting, so a parsed float is bit-exact.

use std::fmt;

use crate::span::FieldValue;

/// Builder for a single JSON object, rendered as one NDJSON line.
///
/// ```
/// use printed_telemetry::JsonLine;
/// let line = JsonLine::new()
///     .str("kind", "candidate")
///     .u64("depth", 4)
///     .f64("tau", 0.005)
///     .finish();
/// assert_eq!(line, r#"{"kind":"candidate","depth":4,"tau":0.005}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonLine {
    buf: String,
    empty: bool,
}

impl Default for JsonLine {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonLine {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        push_quoted(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_quoted(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(key, &FieldValue::U64(value))
    }

    /// Adds a float field (non-finite values render as `null`, which JSON
    /// requires).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.field(key, &FieldValue::F64(value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, &FieldValue::Bool(value))
    }

    /// Adds a field from a trace [`FieldValue`].
    pub fn field(mut self, key: &str, value: &FieldValue) -> Self {
        self.key(key);
        self.value(value);
        self
    }

    /// Adds an array field, each element rendered as its scalar field
    /// would be (`2.0` keeps its `.0`, so float arrays stay float arrays).
    pub fn array<T: Into<FieldValue>>(
        mut self,
        key: &str,
        values: impl IntoIterator<Item = T>,
    ) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, value) in values.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.value(&value.into());
        }
        self.buf.push(']');
        self
    }

    fn value(&mut self, value: &FieldValue) {
        match value {
            FieldValue::U64(v) => self.buf.push_str(&v.to_string()),
            FieldValue::F64(v) => push_f64(&mut self.buf, *v),
            FieldValue::Bool(v) => self.buf.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(v) => push_quoted(&mut self.buf, v),
        }
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders `value` as a JSON number, or `null` for NaN/±inf.
///
/// Integral floats keep a `.0` suffix (`2.0` renders as `"2.0"`, not
/// `"2"`) so NDJSON consumers can distinguish float fields from integer
/// fields and round-trip [`FieldValue`]s losslessly.
fn push_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        let rendered = value.to_string();
        let integral = !rendered.contains(['.', 'e', 'E']);
        buf.push_str(&rendered);
        if integral {
            buf.push_str(".0");
        }
    } else {
        buf.push_str("null");
    }
}

/// Writes `s` into `buf` as a JSON string: quoted, with RFC 8259
/// escapes (quotes, backslash, control chars).
fn push_quoted(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value. Object members keep source order, which the trace
/// parser relies on to rebuild span/event field vectors exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (the writer emits it for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, in `u64` range.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup (first match) for objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as text, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members in source order, if this is an object.
    pub fn members(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error
/// (NDJSON lines hold exactly one object).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue; // unicode_escape advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the char's byte length).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (surrogate pairs for the
    /// emitter's output never occur: it only escapes control characters).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // past 'u'
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if token.is_empty() || token == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        token
            .parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let line = JsonLine::new().str("msg", "a\"b\\c\nd\te\u{1}").finish();
        assert_eq!(line, r#"{"msg":"a\"b\\c\nd\te\u0001"}"#);
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let line = JsonLine::new()
            .f64("a", 2.0)
            .f64("b", -3.0)
            .f64("c", 0.005)
            .finish();
        assert_eq!(line, r#"{"a":2.0,"b":-3.0,"c":0.005}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonLine::new()
            .f64("x", f64::NAN)
            .f64("y", f64::INFINITY)
            .finish();
        assert_eq!(line, r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn empty_object_and_arrays() {
        assert_eq!(JsonLine::new().finish(), "{}");
        let line = JsonLine::new()
            .array("xs", [1u64, 2])
            .array("ys", [2.0, 0.005, f64::NAN])
            .array("zs", Vec::<u64>::new())
            .array("ss", ["a\"b", "c"])
            .finish();
        assert_eq!(
            line,
            r#"{"xs":[1,2],"ys":[2.0,0.005,null],"zs":[],"ss":["a\"b","c"]}"#
        );
    }

    #[test]
    fn written_lines_parse_back_exactly() {
        let text = "a\"b\\c\nd\te\u{1}f µW";
        let floats = [0.1 + 0.2, 1e-300, -0.0, 2.0, 123_456_789.123_456_79, 5e-324];
        let mut line = JsonLine::new().str("text", text).u64("max", u64::MAX);
        for (i, x) in floats.iter().enumerate() {
            line = line.f64(&format!("f{i}"), *x);
        }
        let value = parse(&line.finish()).unwrap();
        assert_eq!(value.get("text").and_then(JsonValue::as_str), Some(text));
        assert_eq!(value.get("max").and_then(JsonValue::as_u64), Some(u64::MAX));
        for (i, x) in floats.iter().enumerate() {
            let back = value.get(&format!("f{i}")).and_then(JsonValue::as_f64);
            assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{x}");
        }
    }

    #[test]
    fn parses_a_trace_line() {
        let v = parse(r#"{"kind":"candidate","depth":4,"tau":0.005,"ok":true}"#).unwrap();
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("candidate"));
        assert_eq!(v.get("depth").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("tau"), Some(&JsonValue::Float(0.005)));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integer_vs_float_distinction_survives() {
        let v = parse(r#"{"a":2,"b":2.0,"c":-3.5,"d":1e3}"#).unwrap();
        assert_eq!(v.get("a"), Some(&JsonValue::Int(2)));
        assert_eq!(v.get("b"), Some(&JsonValue::Float(2.0)));
        assert_eq!(v.get("c"), Some(&JsonValue::Float(-3.5)));
        assert_eq!(v.get("d"), Some(&JsonValue::Float(1000.0)));
    }

    #[test]
    fn member_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn nested_arrays_and_escapes() {
        let v = parse(r#"{"buckets":[[8,2],[16,1]],"msg":"a\"b\\c\nd"}"#).unwrap();
        let buckets = v.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].as_arr().unwrap()[0], JsonValue::Int(8));
        assert_eq!(v.get("msg").and_then(JsonValue::as_str), Some("a\"b\\c\nd"));
        let u = parse("{\"ctl\":\"x\\u0001y\"}").unwrap();
        assert_eq!(u.get("ctl").and_then(JsonValue::as_str), Some("x\u{1}y"));
    }

    #[test]
    fn null_and_empty_containers() {
        let v = parse(r#"{"x":null,"arr":[],"obj":{}}"#).unwrap();
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
        assert_eq!(v.get("arr"), Some(&JsonValue::Arr(vec![])));
        assert_eq!(v.get("obj"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse("nope").is_err());
        assert!(parse(r#"{"a":--1}"#).is_err());
    }

    #[test]
    fn error_carries_position() {
        let err = parse(r#"{"a":@}"#).unwrap_err();
        assert_eq!(err.at, 5);
        assert!(err.to_string().contains("byte 5"));
    }
}
