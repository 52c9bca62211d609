//! Offline stand-in for `serde_json` (API subset used by this workspace):
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`to_value`],
//! [`Value`], [`Error`], and a [`json!`] macro subset.
//!
//! [`Value`] is the serde shim's `Content` tree re-exported; it prints as
//! JSON. Numbers parse to `i64`/`u64` when integral and `f64` otherwise;
//! non-finite floats serialize as `null` (matching upstream's default).

use serde::__private::{from_content, to_content, Content};
use serde::{Deserialize, Serialize};
use std::fmt;

/// JSON value tree (alias of the serde shim's content model).
pub type Value = Content;

/// Errors from serialization, deserialization, or parsing.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error { msg: msg.to_string() }
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error { msg: msg.to_string() }
    }
}

fn err(msg: impl Into<String>) -> Error {
    Error { msg: msg.into() }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let content = to_content(value).map_err(|e| err(e.0))?;
    let mut out = String::new();
    write_json(&content, &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let content = to_content(value).map_err(|e| err(e.0))?;
    let mut out = String::new();
    write_json(&content, &mut out, Some(2), 0);
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    to_content(value).map_err(|e| err(e.0))
}

/// Deserializes a value from JSON text.
pub fn from_str<T>(s: &str) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    let mut parser = Parser { bytes: s.as_bytes(), pos: 0 };
    parser.skip_ws();
    let content = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(err(format!("trailing characters at offset {}", parser.pos)));
    }
    from_content(content).map_err(|e| err(e.0))
}

/// Converts a [`Value`] tree into any deserializable type.
pub fn from_value<T>(value: Value) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    from_content(value).map_err(|e| err(e.0))
}

/// Builds a [`Value`] from JSON-ish syntax. Subset: `null`, arrays of
/// expressions, and single-level objects with literal string keys and
/// expression values (nested literals go through expressions returning
/// `Value`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Seq(vec![ $( $crate::to_value(&$elem).expect("json! value") ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Map(vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val).expect("json! value")) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other).expect("json! value") };
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_json(c: &Content, out: &mut String, indent: Option<usize>, level: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                // `{}` on f64 produces the shortest round-trippable form.
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(v, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts. The parser
/// recurses once per level, so without a cap a long run of `[` would
/// overflow the thread's stack and abort the process; deeper input is a
/// parse error instead.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected `{}` at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parses one value nested inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Content, Error> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return Err(err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(err(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(err(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(err(format!(
                "unexpected character {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"`, `\` or raw
            // control character in one step. Every stop byte is ASCII and
            // the input is a `&str`, so the run ends on a char boundary,
            // and validating each run once keeps the whole scan linear in
            // the string's length.
            let start = self.pos;
            self.pos = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes.len(), |n| start + n);
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| err("invalid utf-8"))?;
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b) if b < 0x20 => {
                    return Err(err(format!(
                        "unescaped control character {b:#04x} in string at offset {}",
                        self.pos
                    )));
                }
                Some(_) => {
                    // The run stopped on a backslash.
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: expect a \uXXXX low half.
                                if !self.eat_keyword("\\u") {
                                    return Err(err("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(err("high surrogate not followed by a low one"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err("invalid unicode escape"))?,
                            );
                        }
                        other => return Err(err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                None => return Err(err("unterminated string")),
            }
        }
    }

    /// Reads exactly four hex digits (no sign, no shorter form).
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char).to_digit(16).ok_or_else(|| err("bad \\u escape"))?;
            v = v << 4 | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Skips a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number in exactly JSON's grammar: `-? (0 | [1-9][0-9]*)
    /// (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — no leading zeros, no bare or
    /// trailing point.
    fn number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let bad = |pos: usize, what: &str| err(format!("invalid number at offset {pos}: {what}"));
        match self.digits() {
            0 => return Err(bad(start, "no integer digits")),
            n if n > 1 && self.bytes[self.pos - n] == b'0' => {
                return Err(bad(start, "leading zero"));
            }
            _ => {}
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(bad(start, "no digits after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad(start, "no exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| err("bad number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>().map(Content::F64).map_err(|_| err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_scalars_and_nesting() {
        let v: Vec<Vec<f64>> = from_str("[[1, 2.5], [-3e2]]").unwrap();
        assert_eq!(v, vec![vec![1.0, 2.5], vec![-300.0]]);
        assert_eq!(to_string(&v).unwrap(), "[[1,2.5],[-300]]");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s: String = from_str(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(s, "a\"b\\c\ndA");
        assert_eq!(to_string(&s).unwrap(), r#""a\"b\\c\ndA""#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<f64>("{").is_err());
        assert!(from_str::<Vec<f64>>("[1,]").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        // What JSON forbids: raw control characters inside strings,
        // leading zeros, and a bare or trailing decimal point.
        for raw in ["\"a\u{0}b\"", "\"tab\there\"", "\"line\nbreak\"", "\"\u{1f}\""] {
            assert!(from_str::<String>(raw).is_err(), "{raw:?}");
        }
        for number in
            ["01", "-01", "00", "1.", "1.e5", ".5", "-", "-.5", "1e", "1e+", "--1", "1.5.2"]
        {
            assert!(from_str::<f64>(number).is_err(), "{number}");
        }
        for number in ["0", "-0", "10", "0.5", "-0.5e-3", "1E+2", "1e5"] {
            assert!(from_str::<f64>(number).is_ok(), "{number}");
        }
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({"a": 1, "b": true, "c": "x"});
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":true,"c":"x"}"#);
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = json!({"rows": vec![1u64, 2], "name": "bstc"});
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(to_string(&back).unwrap(), to_string(&v).unwrap());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let objects = |d: usize| format!("{}0{}", "{\"k\":".repeat(d), "}".repeat(d));
        assert!(from_str::<Value>(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&objects(MAX_DEPTH)).is_ok());
        let too_deep = from_str::<Value>(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(too_deep.to_string().contains("nesting deeper than 128"), "{too_deep}");
        assert!(from_str::<Value>(&objects(MAX_DEPTH + 1)).is_err());
        // A megabyte of `[` is a parse error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn surrogate_escapes_must_pair_up() {
        let s: String = from_str(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(s, "\u{1F600}");
        // A high surrogate followed by an escape that is not a low one.
        let e = from_str::<String>(r#""\uD800\u0041""#).unwrap_err();
        assert!(e.to_string().contains("not followed by a low"), "{e}");
        assert!(from_str::<String>(r#""\uD800""#).is_err(), "lone high surrogate");
        assert!(from_str::<String>(r#""\uDC00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041\u00e9""#).unwrap(), "A\u{e9}");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04g1""#, r#""\u041""#] {
            assert!(from_str::<String>(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn string_runs_split_cleanly_around_escapes() {
        assert_eq!(from_str::<String>(r#""""#).unwrap(), "");
        assert_eq!(from_str::<String>(r#""é\nü€""#).unwrap(), "é\nü€");
        assert_eq!(from_str::<String>(r#""\t😀\u00e9😀\\""#).unwrap(), "\t😀é😀\\");
        assert_eq!(from_str::<String>(r#""ends in an escape\"""#).unwrap(), "ends in an escape\"");
        let keyed: Value = from_str(r#"{"ké\"y":"v"}"#).unwrap();
        assert_eq!(keyed.get("ké\"y").and_then(Value::as_str), Some("v"));
        for unterminated in [r#""abc"#, r#""ab€c"#, r#""ab\"#, r#""ab\""#] {
            let e = from_str::<String>(unterminated).unwrap_err();
            assert!(e.to_string().contains("unterminated"), "{unterminated}: {e}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan takes minutes on this input.
        let text = format!("[{}]", vec![format!("\"{}\"", "x".repeat(64)); 1 << 14].join(","));
        let started = std::time::Instant::now();
        let parsed: Vec<String> = from_str(&text).unwrap();
        assert_eq!(parsed.len(), 1 << 14);
        let big: String = from_str(&format!("\"{}\"", "y".repeat(1 << 20))).unwrap();
        assert_eq!(big.len(), 1 << 20);
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "{:?}", started.elapsed());
    }

    /// Arbitrary strings drawn from code-point classes that stress the
    /// writer's escape table and the reader's run splitting: ASCII
    /// (controls, `"` and `\` included), the rest of the BMP, and the
    /// astral planes.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u32..3, 0u32..0x11_0000), 0..48).prop_map(|points| {
            points
                .into_iter()
                .map(|(class, x)| match class {
                    0 => char::from(x as u8 & 0x7f),
                    1 => char::from_u32(x % 0x1_0000).unwrap_or('\u{fffd}'),
                    _ => char::from_u32(x).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn to_string_then_from_str_round_trips_strings(s in arbitrary_string()) {
            let text = to_string(&s).unwrap();
            prop_assert_eq!(from_str::<String>(&text).unwrap(), s.clone());
            let keyed = to_string(&json!({"k": s.clone()})).unwrap();
            let back: Value = from_str(&keyed).unwrap();
            prop_assert_eq!(back.get("k").and_then(Value::as_str), Some(s.as_str()));
        }
    }
}
