//! Minimal JSON reader/writer shared by every report and request schema.
//!
//! The workspace is dependency-free, so trace export, the daemon's request
//! bodies and the lint-side schema checker all rely on this small
//! recursive-descent parser. It supports exactly the JSON subset the tools emit: objects,
//! arrays (nested at most 64 deep), UTF-8 strings (with `\"`/`\\`/`\/`/`\n`/
//! `\t`/`\r`/`\uXXXX` escapes), finite numbers, booleans and `null`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number (all numbers read as `f64`).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Reports and requests
/// nest five levels at most; the bound keeps a hostile body of `[[[[…`
/// from overflowing the stack of the thread that parses it.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

/// `depth` counts the containers already open around this value.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'"') => parse_str(text, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_str(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece: both
        // are ASCII, so the run starts and ends on UTF-8 char boundaries.
        let run = *pos;
        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                let esc = bytes.get(*pos + 1).copied().ok_or("unterminated escape")?;
                *pos += 2;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'u' => parse_unicode_escape(bytes, pos)?,
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
            }
        }
    }
}

/// The character of a `\uXXXX` escape whose `\u` is already consumed. A
/// high surrogate must be followed by a `\uXXXX` low surrogate (together
/// one code point past the BMP); a surrogate on its own is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let start = *pos;
    let mut code = parse_hex4(bytes, pos)?;
    if (0xD800..0xDC00).contains(&code) && bytes.get(*pos..*pos + 2) == Some(b"\\u") {
        *pos += 2;
        let low = parse_hex4(bytes, pos)?;
        if (0xDC00..0xE000).contains(&low) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
    }
    char::from_u32(code).ok_or_else(|| format!("lone surrogate in \\u escape at byte {start}"))
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
    let mut code = 0;
    for &d in digits {
        let d = char::from(d).to_digit(16);
        code = code * 16 + d.ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
    }
    *pos += 4;
    Ok(code)
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out
}

/// Escapes `s` as a complete JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_report_shapes() {
        let doc = r#"{"schema": "panorama-trace-v1", "threads": 4,
                      "events": [{"phase": "spr.route", "candidate": null,
                                  "stable": true, "counters": {"ii": 3}}],
                      "note": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("panorama-trace-v1")
        );
        assert_eq!(v.get("threads").and_then(Json::as_f64), Some(4.0));
        let events = v.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("candidate"), Some(&Json::Null));
        assert_eq!(events[0].get("stable").and_then(Json::as_bool), Some(true));
        let counters = events[0].get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters[0].0, "ii");
        assert_eq!(v.get("note"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{}extra").is_err());
    }

    #[test]
    fn reads_back_what_the_writer_emits() {
        // non-ASCII, a control character (`escape` writes it as `\u0001`),
        // and every short escape
        for s in ["a\"b\\c\nd", "é→\u{1}\"\\\n", "\t\r/𝄞"] {
            assert_eq!(parse(&string(s)).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn strings_decode_as_utf8_not_latin1() {
        let v = parse(r#"{"é": "naïve → 𝄞"}"#).unwrap();
        assert_eq!(v.get("é").and_then(Json::as_str), Some("naïve → 𝄞"));
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_are_errors() {
        let ok = [
            (r#""\u00e9""#, "é"),
            (r#""\u2192x""#, "→x"),
            (r#""\uD834\uDD1E""#, "𝄞"),
        ];
        for (doc, want) in ok {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        for doc in [
            r#""\uD834""#,
            r#""\uD834x""#,
            r#""\uD834\u0041""#,
            r#""\uDD1E""#,
            r#""\u12""#,
            r#""\u12g4""#,
        ] {
            assert!(parse(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_further() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // the hostile shape: far deeper than any stack, never closed
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        for doc in ["1e999", "-1e999", "[1e999]"] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("invalid number"), "{doc}: {err}");
        }
    }
}
