//! Minimal dependency-free JSON: a value model, a stable writer and a
//! strict parser.
//!
//! The workspace builds offline, so snapshot exports and the `benchmark/`
//! package cannot pull in `serde`. This module covers exactly the JSON
//! subset those producers need — objects, arrays, strings, finite numbers,
//! booleans and `null` — with two properties the rest of the repo relies
//! on:
//!
//! * **Deterministic output**: rendering is insertion-ordered and numbers
//!   use Rust's shortest round-trip formatting, so identical values give
//!   byte-identical documents (the same property [`crate::Snapshot`]'s text
//!   exports have).
//! * **Strict round-trip**: [`JsonValue::parse`] accepts standard JSON and
//!   rejects trailing garbage, so `parse(render(v)) == v` for every value
//!   this writer can produce.

use std::fmt::Write as _;

/// A parsed or to-be-rendered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers included; rendered via `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved and rendered as-is.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an object from key/value pairs.
    pub fn obj(fields: Vec<(String, JsonValue)>) -> Self {
        JsonValue::Obj(fields)
    }

    /// Member lookup on objects (`None` on other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as a compact single-line document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with `indent`-space pretty-printing (for
    /// artifacts that humans diff, like `benchmark/run.sh`'s `--out` file).
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(n) => ("\n", " ".repeat(n * depth), " ".repeat(n * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, including trailing
    /// non-whitespace after the document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the safe spelling.
        return;
    }
    if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = JsonValue::Obj(vec![
            ("a".into(), JsonValue::Num(1.0)),
            ("b".into(), JsonValue::Str("x\"y".into())),
            ("c".into(), JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null])),
        ]);
        assert_eq!(v.render(), r#"{"a":1,"b":"x\"y","c":[true,null]}"#);
        let pretty = v.render_pretty(2);
        assert!(pretty.contains("\n  \"a\": 1,"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(JsonValue::Num(1234567.0).render(), "1234567");
        assert_eq!(JsonValue::Num(0.5).render(), "0.5");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn round_trips() {
        let v = JsonValue::Obj(vec![
            (
                "metrics".into(),
                JsonValue::Obj(vec![
                    ("lazy.read_ops_per_sec".into(), JsonValue::Num(12345.678)),
                    ("n".into(), JsonValue::Num(-3.0)),
                ]),
            ),
            ("smoke".into(), JsonValue::Bool(false)),
            ("note".into(), JsonValue::Str("tabs\tand\nnewlines".into())),
        ]);
        let parsed = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        let parsed_pretty = JsonValue::parse(&v.render_pretty(2)).unwrap();
        assert_eq!(parsed_pretty, v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse(r#"{"a":}"#).is_err());
        assert!(JsonValue::parse("[1,2,").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::parse(r#"{"m":{"k":2.5},"s":"hi"}"#).unwrap();
        assert_eq!(v.get("m").and_then(|m| m.get("k")).and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert!(v.get("missing").is_none());
        assert_eq!(v.get("m").and_then(JsonValue::as_obj).map(|o| o.len()), Some(1));
    }

    #[test]
    fn parses_standard_escapes_and_unicode() {
        let v = JsonValue::parse(r#""aA\n\t\\""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\\"));
    }
}
