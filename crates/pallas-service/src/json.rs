//! Minimal JSON for the daemon protocol.
//!
//! The build environment vendors no serde, so the protocol carries its
//! own value model: parse a line into [`Value`], render a [`Value`]
//! back to a line. Objects preserve insertion order (responses are
//! byte-deterministic), numbers are kept as `f64` with integer
//! rendering when exact, and string escapes cover the full JSON set
//! including `\uXXXX` with surrogate pairs.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_quoted(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_quoted(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    pallas_core::json_escape_into(f, s)?;
    f.write_char('"')
}

/// Nesting depth beyond which [`parse`] rejects a document. Requests
/// and responses nest a handful of levels; the limit keeps a hostile
/// line of brackets from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to span the whole input
/// (surrounding whitespace allowed). Runs in time linear in the input
/// length and rejects documents nested deeper than 128 levels.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {}", c as char, *pos))
    }
}

/// Parses the value at `pos`; `depth` counts the arrays and objects
/// around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at offset {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number `{text}`"))
}

/// Parses a string literal. Text up to the next `"` or `\` is appended
/// as one run, so each input byte is looked at a bounded number of
/// times.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        let text = std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
        out.push_str(text);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        let escaped = match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                *pos += 1;
                out.push(parse_unicode_escape(bytes, pos)?);
                continue; // already past the hex digits
            }
            _ => return Err(format!("invalid escape at offset {}", *pos)),
        };
        out.push(escaped);
        *pos += 1;
    }
}

/// Decodes the `XXXX` of a `\uXXXX` escape at `pos`, joining it with a
/// following `\uXXXX` low surrogate when it is a high one. A surrogate
/// without its partner decodes to U+FFFD; an escape after a high
/// surrogate that is not a low one is left for the caller to decode on
/// its own.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let high = parse_hex4(bytes, pos)?;
    if (0xD800..0xDC00).contains(&high) && bytes[*pos..].starts_with(b"\\u") {
        let mut after_low = *pos + 2;
        let low = parse_hex4(bytes, &mut after_low)?;
        if (0xDC00..=0xDFFF).contains(&low) {
            *pos = after_low;
            let combined = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            return Ok(char::from_u32(combined).expect("a surrogate pair encodes a scalar value"));
        }
    }
    Ok(char::from_u32(high).unwrap_or('\u{FFFD}'))
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
    let mut code = 0;
    for &digit in digits {
        let value = char::from(digit).to_digit(16).ok_or_else(|| {
            format!("bad \\u escape `{}`", String::from_utf8_lossy(digits))
        })?;
        code = code * 16 + value;
    }
    *pos += 4;
    Ok(code)
}

/// Convenience constructors used by the protocol builders.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// A numeric value from any unsigned integer.
pub fn n(num: u64) -> Value {
    Value::Num(num as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// The char-by-char escaper that `pallas_core::json_escape_into`
    /// replaced, kept as the reference its output must match.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Every control character, the two characters JSON always
    /// escapes, DEL, and 1- to 4-byte UTF-8 text.
    fn pieces() -> Vec<String> {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        pieces.extend(["\"", "\\", "\u{7f}", "a", "/", "\\u0041", "é", "€", "😀"].map(String::from));
        pieces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn string_values_roundtrip_and_escape_like_the_reference(
            picks in collection::vec(0..pieces().len(), 0..64)
        ) {
            let pieces = pieces();
            let text: String = picks.iter().map(|&i| pieces[i].as_str()).collect();
            let line = Value::Str(text.clone()).to_string();
            prop_assert_eq!(&line, &format!("\"{}\"", reference_escape(&text)));
            prop_assert_eq!(pallas_core::json_escape(&text), reference_escape(&text));
            prop_assert_eq!(parse(&line).unwrap(), Value::Str(text));
        }
    }

    #[test]
    fn four_mib_string_parses() {
        let piece = "fast path \"é\" \\ 😀\n";
        let text = piece.repeat((4 << 20) / piece.len() + 1);
        assert!(text.len() >= 4 << 20);
        let line = Value::Str(text.clone()).to_string();
        assert_eq!(parse(&line).unwrap(), Value::Str(text));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn roundtrips_nested_document() {
        let text = r#"{"op":"check","unit":{"name":"mm/x","files":[{"name":"a.c","contents":"int f(void) {\n  return 0;\n}"}],"spec":"fastpath f;"},"n":42,"flag":true,"none":null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("op").and_then(Value::as_str), Some("check"));
        assert_eq!(value.get("n").and_then(Value::as_u64), Some(42));
        let reprinted = value.to_string();
        assert_eq!(parse(&reprinted).unwrap(), value);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Value::Str("quote \" slash \\ newline \n tab \t unicode é".into());
        let parsed = parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
        assert_eq!(parse(r#""😀 raw""#).unwrap(), Value::Str("😀 raw".into()));
    }

    #[test]
    fn unpaired_surrogates_decode_to_replacement_characters() {
        for (line, want) in [
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{FFFD}😀"),
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ud83dx""#, "\u{FFFD}x"),
            (r#""\ude00\ud83d""#, "\u{FFFD}\u{FFFD}"),
        ] {
            assert_eq!(parse(line).unwrap(), Value::Str(want.into()), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,",
            "\"open",
            "tru",
            "{\"a\":1}x",
            "nan",
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""\ud83d\u+041""#,
            r#""\u00"#,
            r#""\x""#,
            r#""tail\"#,
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(-2.5).to_string(), "-2.5");
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn object_lookup_and_order() {
        let v = obj(vec![("b", n(1)), ("a", n(2))]);
        assert_eq!(v.to_string(), "{\"b\":1,\"a\":2}");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
    }
}
