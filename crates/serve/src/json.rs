//! The JSON value model and parser the wire protocol reads requests with.
//!
//! The workspace is dependency-free by policy (the build environment is
//! offline), so the server parses its own JSON. The model is deliberately
//! small: numbers are `f64`, objects preserve insertion order, and
//! parsing is a plain recursive-descent scanner with a depth cap. Every
//! byte the server writes goes through `sfet_telemetry::json`, the
//! workspace's one writer; [`Json::to_json`] walks a value through it.

use sfet_telemetry::json::{self as writer, Array, Object};

/// Maximum nesting depth the parser accepts; beyond it the input is
/// rejected rather than risking a stack overflow on hostile payloads.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// # Example
///
/// ```
/// use sfet_serve::json::Json;
///
/// let v = Json::parse(r#"{"scenario":"rc_step","params":{"tstop":1e-11}}"#).unwrap();
/// assert_eq!(v.get("scenario").and_then(Json::as_str), Some("rc_step"));
/// assert_eq!(
///     v.get("params").and_then(|p| p.get("tstop")).and_then(Json::as_f64),
///     Some(1e-11)
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order (serialisation is
    /// deterministic, and duplicate keys are rejected at parse time).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value to compact JSON through
    /// `sfet_telemetry::json`. Object order is preserved; floats use the
    /// shortest round-trippable form (so a value serialised and re-parsed
    /// is bitwise the same `f64`); non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => writer::write_bool(out, *b),
            Json::Num(n) => writer::write_f64(out, *n),
            Json::Str(s) => writer::write_str(out, s),
            Json::Arr(items) => {
                let mut array = Array::new(out);
                for item in items {
                    item.write(array.item());
                }
            }
            Json::Obj(pairs) => {
                let mut object = Object::new(out);
                for (k, v) in pairs {
                    v.write(object.key(k));
                }
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c).ok_or("invalid surrogate pair")?
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else {
                                char::from_u32(cp).ok_or("invalid \\u escape")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                _ => {
                    // Re-scan from the byte position as UTF-8: step back
                    // and take the full multi-byte character.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    if (ch as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(chunk).map_err(|_| "invalid \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape")?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        let value: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !value.is_finite() {
            return Err(format!("number {text:?} overflows f64"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0.5",
            "-3.25e-12",
            r#""hi there""#,
            r#"[1.0,2.0,[true,null]]"#,
            r#"{"a":1.0,"b":{"c":"d"},"e":[]}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [
            1.5e-12,
            0.1,
            f64::MIN_POSITIVE,
            1234567890.123456,
            // Integral values render without the `.0` suffix but must
            // still round-trip exactly — signed zero included.
            5.0,
            -3.0,
            0.0,
            -0.0,
            1e300,
        ] {
            let v = Json::parse(&Json::Num(x).to_json()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(Json::Num(5.0).to_json(), "5");
        assert_eq!(Json::Num(-0.0).to_json(), "-0");
        assert_eq!(Json::Num(1e300).to_json(), "1e300");
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            r#"{"a":1,"a":2}"#,
            "nul",
            "1.0 x",
            "\"\\q\"",
            "\"unterminated",
            "1e999",
            "[,]",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""a\"b\\c\nd \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd é 😀");
        let back = Json::parse(&v.to_json()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn object_lookup_and_order() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.get("z").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("missing"), None);
        // Serialisation preserves insertion order, not sort order.
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }
}
