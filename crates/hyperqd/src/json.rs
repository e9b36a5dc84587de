//! A minimal JSON value type, parser and serializer for the wire protocol.
//!
//! The build environment has no registry access, so `hyperqd` carries its
//! own JSON layer instead of depending on `serde`.  It is deliberately
//! small but complete for the protocol's needs:
//!
//! * objects preserve key order, so `parse ∘ serialize` is the identity on
//!   every frame the protocol emits (the protocol proptests pin this);
//! * integers are kept exact as `i64` (tuple values are integers or
//!   strings, never floats); non-integral numbers parse as [`Json::Float`];
//! * parsing is recursive descent over bytes with a hard depth limit, so a
//!   hostile frame (`[[[[…`) errors out instead of overflowing the stack;
//! * every failure is a [`JsonError`] with a byte offset — the server turns
//!   these into structured error responses, never panics.

use std::fmt;
use std::io::Write as _;

/// Nesting depth above which the parser refuses to descend.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.  Object members keep their textual order so serialization
/// is deterministic and round-trips.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number, kept exact.
    Int(i64),
    /// A non-integral (or out-of-`i64`-range) number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (later duplicates win on
    /// lookup, but all pairs are preserved for round-tripping).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Looks a key up in an object (last duplicate wins); `None` for
    /// missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends the compact serialization of this value to `out` — what
    /// [`Display`](fmt::Display) prints, as the bytes that go on the wire.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(n) => write_int(*n, out),
            Json::Float(x) => {
                if x.is_finite() {
                    let text = format!("{x}");
                    // `{}` prints integral floats without a dot; keep the
                    // value unambiguously a float on the wire.
                    let needs_dot = !text.contains(['.', 'e', 'E']);
                    out.extend_from_slice(text.as_bytes());
                    if needs_dot {
                        out.extend_from_slice(b".0");
                    }
                } else {
                    out.extend_from_slice(b"null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write_to(out);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// Why the writers `expect` their `write!`s.
pub(crate) const INFALLIBLE: &str = "writing to a Vec cannot fail";

/// The text the writers of this crate produced: they only ever append whole
/// `str`s and ASCII, so the bytes are UTF-8.
pub(crate) fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the JSON writers emit UTF-8")
}

/// Serializes to compact JSON (no whitespace), deterministically — the
/// canonical wire form the protocol round-trip tests pin.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_to(&mut out);
        f.write_str(&into_text(out))
    }
}

/// `"00"`, `"01"`, …, `"99"`, back to back: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `n` to `out` in decimal, as `{n}` formats it, without going
/// through `fmt`: digits are produced two at a time from the right into a
/// stack buffer, then copied once.
pub(crate) fn write_int(n: i64, out: &mut Vec<u8>) {
    // u64::MAX has 20 digits; |i64::MIN| has 19.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    if n < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            '\u{08}' => out.extend_from_slice(b"\\b"),
            '\u{0C}' => out.extend_from_slice(b"\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect(INFALLIBLE),
            c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
        }
    }
    out.push(b'"');
}

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the failure was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing content (other than whitespace) is an
/// error, so a frame is exactly one value.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err(format!("bad escape \\{}", esc as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slicing a &str at scalar boundaries"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number {text:?}"),
            }),
        }
    }
}

/// Builder shorthand: an object from pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_write_as_format_prints_them() {
        let mut cases = vec![0i64, 1, -1, i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1];
        let mut power = 1i64;
        loop {
            for n in [power - 1, power, power + 1] {
                cases.extend([n, -n]);
            }
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        assert!(cases.contains(&1_000_000_000_000_000_000));
        for n in cases {
            let mut out = b"x".to_vec();
            write_int(n, &mut out);
            assert_eq!(out, format!("x{n}").into_bytes(), "{n}");
            assert_eq!(Json::Int(n).to_string(), format!("{n}"));
        }
    }

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "9223372036854775807",
            "\"hi\"",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"op":"query","select":["A","B"],"n":3,"deep":{"x":[1,2,{"y":null}]}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::str("a\"b\\c\nd\te\u{08}\u{0C}\u{1F}π");
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "[,]",
            "--1",
            "1e",
            "\u{7f}",
            "{\"a\":1}garbage",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_keep_last_on_lookup() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(2)));
    }

    #[test]
    fn floats_parse_and_serialize_unambiguously() {
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }
}
