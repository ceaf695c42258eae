//! The workspace's one JSON writer.
//!
//! Every JSON byte the crates emit — served result documents, status and
//! error bodies, SSE payloads, JSONL traces, benchmark summaries — is
//! appended by this module into a caller-owned `String`. The spelling is
//! fixed, with no options:
//!
//! - **strings** are quoted; `"` and `\` are backslash-escaped, `\n`,
//!   `\r` and `\t` by name, any other control character as `\u00XX`, and
//!   everything else is copied as UTF-8;
//! - **`f64`** is Rust's shortest round-trip `{:?}` form with the `.0` of
//!   an integral value dropped (`5`, `-0`, `1e-7`), and `null` for NaN
//!   and ±inf, which JSON cannot represent — every finite value parses
//!   back to the same bits;
//! - **`u64`** is its exact decimal;
//! - **objects and arrays** are compact (no whitespace), in call order.
//!
//! [`Object`] and [`Array`] write their opening bracket when created and
//! their closing one when dropped, so a one-statement chain writes a
//! whole object, and nesting follows Rust scopes. Nothing is allocated
//! per value.
//!
//! # Examples
//!
//! ```
//! use sfet_telemetry::json::Object;
//!
//! let mut out = String::new();
//! {
//!     let mut doc = Object::new(&mut out);
//!     doc.str("name", "tab\there").u64("steps", 42).f64("dt", 2.0);
//!     doc.f64s("v", &[0.5, 1e-12, f64::NAN]);
//!     doc.object("ok").bool("done", true);
//! }
//! assert_eq!(
//!     out,
//!     r#"{"name":"tab\there","steps":42,"dt":2,"v":[0.5,1e-12,null],"ok":{"done":true}}"#
//! );
//! ```

use std::fmt::Write as _;

/// Longest text [`write_f64`] can append: 17 significant digits, a sign,
/// a point and a three-digit exponent (`-2.2250738585072014e-308`).
pub const MAX_F64_LEN: usize = 24;

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Appends an `f64` as a JSON number: `{:?}` with the `.0` of an
/// integral value dropped, `null` for NaN/±inf.
pub fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let start = out.len();
        let _ = write!(out, "{value:?}");
        // `{:?}` spells integral values `5.0`; the bare integer is one
        // byte shorter and parses back to the same bits (`-0` included),
        // so trim the suffix — of the appended text only, never of what
        // `out` already held.
        if out[start..].ends_with(".0") {
            out.truncate(out.len() - 2);
        }
    } else {
        out.push_str("null");
    }
}

/// Appends a `u64` as an exact JSON integer.
pub fn write_u64(out: &mut String, value: u64) {
    let _ = write!(out, "{value}");
}

/// Appends `true` or `false`.
pub fn write_bool(out: &mut String, value: bool) {
    out.push_str(if value { "true" } else { "false" });
}

/// A JSON object being appended to a `String`: `{` on creation, `}` on
/// drop.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, empty: true }
    }

    /// Writes the separator and `"key":`, and returns the buffer, to
    /// which the caller appends exactly one JSON value.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_str(self.key(key), value);
        self
    }

    /// A number member, spelled by [`write_f64`].
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(self.key(key), value);
        self
    }

    /// An integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        write_u64(self.key(key), value);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        write_bool(self.key(key), value);
        self
    }

    /// An array-of-numbers member.
    pub fn f64s(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let mut array = self.array(key);
        for &v in values {
            write_f64(array.item(), v);
        }
        drop(array);
        self
    }

    /// Opens an object member; it closes when the returned writer drops.
    pub fn object(&mut self, key: &str) -> Object<'_> {
        Object::new(self.key(key))
    }

    /// Opens an array member; it closes when the returned writer drops.
    pub fn array(&mut self, key: &str) -> Array<'_> {
        Array::new(self.key(key))
    }
}

impl Drop for Object<'_> {
    fn drop(&mut self) {
        self.out.push('}');
    }
}

/// A JSON array being appended to a `String`: `[` on creation, `]` on
/// drop.
#[derive(Debug)]
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Array<'a> {
    /// Opens an array at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('[');
        Array { out, empty: true }
    }

    /// Writes the separator and returns the buffer, to which the caller
    /// appends exactly one JSON value.
    pub fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// A string element.
    pub fn str(&mut self, value: &str) -> &mut Self {
        write_str(self.item(), value);
        self
    }

    /// An integer element.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        write_u64(self.item(), value);
        self
    }

    /// Opens an object element; it closes when the returned writer drops.
    pub fn object(&mut self) -> Object<'_> {
        Object::new(self.item())
    }
}

impl Drop for Array<'_> {
    fn drop(&mut self) {
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spelled(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn strings_are_escaped() {
        let s = |text: &str| spelled(|out| write_str(out, text));
        assert_eq!(s(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(s("x\ny\r\tz"), r#""x\ny\r\tz""#);
        assert_eq!(s("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(s("é 😀 \u{7f}"), "\"é 😀 \u{7f}\"");
    }

    #[test]
    fn integers_and_floats_spell_exactly() {
        assert_eq!(
            spelled(|out| write_u64(out, u64::MAX)),
            "18446744073709551615"
        );
        let f = |v: f64| spelled(|out| write_f64(out, v));
        assert_eq!(f(5.0), "5");
        assert_eq!(f(-0.0), "-0");
        assert_eq!(f(1e300), "1e300");
        assert_eq!(f(1e-7), "1e-7");
        assert_eq!(f(0.1), "0.1");
        assert_eq!(f(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn nesting_and_separators() {
        let out = spelled(|out| {
            let mut doc = Object::new(out);
            doc.f64s("empty", &[]).object("o");
            {
                let mut list = doc.array("list");
                list.str("a").u64(1);
                list.object().bool("t", false).str("k", "v");
                Array::new(list.item()).u64(2);
            }
            doc.key("raw").push_str("null");
        });
        assert_eq!(
            out,
            r#"{"empty":[],"o":{},"list":["a",1,{"t":false,"k":"v"},[2]],"raw":null}"#
        );
    }

    /// The spelling `write_f64` must reproduce byte for byte: `{:?}` into
    /// its own `String`, a trailing `.0` trimmed, `null` for non-finite
    /// values.
    fn reference_spelling(value: f64) -> String {
        if value.is_finite() {
            let mut text = format!("{value:?}");
            if text.ends_with(".0") {
                text.truncate(text.len() - 2);
            }
            text
        } else {
            "null".to_owned()
        }
    }

    fn assert_spelled_as_reference(value: f64) {
        const PREFIX: &str = "[1.0,";
        let expected = reference_spelling(value);
        let mut out = String::from(PREFIX);
        write_f64(&mut out, value);
        let bits = value.to_bits();
        assert_eq!(
            &out[..PREFIX.len()],
            PREFIX,
            "prefix trimmed at {bits:#018x}"
        );
        assert_eq!(&out[PREFIX.len()..], expected, "spelling of {bits:#018x}");
        assert!(
            expected.len() <= MAX_F64_LEN,
            "{expected} exceeds MAX_F64_LEN"
        );
    }

    #[test]
    fn write_f64_matches_the_reference_spelling() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        for x in [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -3.0,
            1e15,
            9007199254740992.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            // `{:?}` switches between decimal and exponent form at 1e-4
            // and 1e16.
            1e-4,
            below(1e-4),
            above(1e-4),
            1e16,
            below(1e16),
            above(1e16),
            -below(1e16),
        ] {
            assert_spelled_as_reference(x);
        }
        // One million bit patterns from a SplitMix64 stream.
        let mut state: u64 = 0x5eed;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            assert_spelled_as_reference(f64::from_bits(z ^ (z >> 31)));
        }
    }
}
