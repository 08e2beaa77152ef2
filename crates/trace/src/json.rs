//! Minimal JSON reader/writer shared by every report and request schema.
//!
//! The workspace is dependency-free, so trace export, the daemon's request
//! bodies and the lint-side schema checker all rely on this small
//! recursive-descent parser. It supports exactly the JSON subset the tools emit: objects
//! (a repeated key is an error), arrays (nested at most 64 deep), UTF-8
//! strings (with `\"`/`\\`/`\/`/`\n`/`\t`/`\r`/`\uXXXX` escapes), finite
//! numbers (integer literals that fit `u64` are kept exactly), booleans
//! and `null`. [`Writer`] is the one emitter: it writes a document of the
//! [`schema`](crate::schema) table in that table's order and layout.

use crate::schema::{Layout, Schema, Ty};
use std::collections::HashSet;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// An unsigned integer literal that fits `u64`, kept exactly.
    Int(u64),
    /// Any other number.
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

    /// The numeric payload, if this is a number (rounded to the nearest
    /// `f64` for an integer literal above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of an unsigned integer literal that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
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
    // `get` answers with the first match, so a repeated key would let two
    // readers of one body see two different requests
    let mut seen = HashSet::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let at = *pos;
        let key = parse_str(text, pos)?;
        if !seen.insert(key.clone()) {
            return Err(format!("duplicate key {key:?} at byte {at}"));
        }
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
    let literal = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    // a leading digit rules out the `+` that `u64::from_str` would take
    if bytes[start].is_ascii_digit() {
        if let Ok(n) = literal.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    literal
        .parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs an escape is ASCII, so the runs between them
    // start and end on char boundaries and are copied in one piece.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for embedding in emitted JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Escapes `s` as a complete JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// One open container of a [`Writer`].
struct Frame {
    /// The table's type for it: `Obj`, `Section`, `Map` or `Arr`.
    ty: &'static Ty,
    /// Table fields already written or skipped as optional (objects only).
    next: usize,
    /// Nothing written into it yet.
    empty: bool,
    /// Laid out one key or item per line (the `Lines` layout's root,
    /// sections and row arrays).
    open: bool,
}

/// The streaming emitter behind every document of the
/// [`schema`](crate::schema) table. It owns quotes, commas, colons,
/// brackets, indentation, escaping and number formatting; the caller
/// names keys and hands over values in table order, and the table
/// supplies each value's type, so which containers break across lines,
/// how many decimals a float gets and whether `null` may stand there are
/// not the caller's to choose.
///
/// Debug builds assert that the keys written are exactly the table's, in
/// its order (optional fields may be left out), and that every value has
/// the declared type; release builds write what they are given.
pub struct Writer {
    out: String,
    schema: &'static Schema,
    stack: Vec<Frame>,
    /// The declared type of the value the last [`Writer::key`] announced.
    pending: Option<&'static Ty>,
}

impl Writer {
    /// Starts a `schema` document: opens its root and, when that is an
    /// object, writes the `schema` tag.
    pub fn new(schema: &'static Schema) -> Self {
        let mut w = Writer {
            out: String::with_capacity(1024),
            schema,
            stack: Vec::new(),
            pending: Some(&schema.root),
        };
        w.open();
        if matches!(schema.root, Ty::Obj(_)) {
            w.item();
            w.quoted("schema");
            w.colon();
            w.quoted(schema.id);
        }
        w
    }

    /// Names the next field of the innermost object.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.item();
        let frame = self.stack.last_mut().expect("the root is open");
        self.pending = Some(match frame.ty {
            Ty::Obj(fields) | Ty::Section(fields) => {
                let skipped = fields[frame.next..].iter().position(|f| f.name == name);
                debug_assert!(
                    skipped.is_some_and(|n| fields[frame.next..][..n].iter().all(|f| f.optional)),
                    "`{name}` is not the next field of this `{}` object",
                    self.schema.id
                );
                frame.next += skipped.unwrap_or(0) + 1;
                fields.get(frame.next - 1).map_or(&Ty::Doc, |f| &f.ty)
            }
            Ty::Map(value) => value,
            other => {
                debug_assert!(false, "key `{name}` written into {other:?}");
                &Ty::Doc
            }
        });
        self.quoted(name);
        self.colon();
        self
    }

    /// Writes a string (or one of an enum's literals).
    pub fn str(&mut self, v: &str) {
        let ty = self.value("a string", |ty| matches!(ty, Ty::Str | Ty::Enum(_)));
        debug_assert!(
            !matches!(ty, Ty::Enum(literals) if !literals.contains(&v)),
            "`{v}` is not a literal of {ty:?}"
        );
        self.quoted(v);
    }

    /// Writes an unsigned integer.
    ///
    /// # Panics
    ///
    /// When `v` does not fit `u64`, which no unsigned type can do.
    pub fn uint(&mut self, v: impl TryInto<u64>) {
        self.value("an unsigned integer", |ty| matches!(ty, Ty::U64));
        let v = v.try_into().ok().expect("unsigned values fit u64");
        let _ = write!(self.out, "{v}");
    }

    /// Writes a signed integer.
    pub fn int(&mut self, v: i64) {
        self.value("an integer", |ty| matches!(ty, Ty::I64));
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float with the table's number of decimals. JSON has no
    /// NaN or infinity: a non-finite `v` is a debug panic and `null` in
    /// release builds.
    pub fn fixed(&mut self, v: f64) {
        let ty = self.value("a float", |ty| matches!(ty, Ty::Fixed(_)));
        debug_assert!(v.is_finite(), "{v} has no JSON spelling");
        match ty {
            Ty::Fixed(decimals) if v.is_finite() => {
                let _ = write!(self.out, "{:.*}", *decimals, v);
            }
            _ => self.out.push_str("null"),
        }
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.value("a boolean", |ty| matches!(ty, Ty::Bool));
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null` where the table allows it.
    pub fn null(&mut self) {
        let declared = self.declared();
        debug_assert!(
            matches!(declared, Ty::Nullable(_)),
            "null written where the table says {declared:?}"
        );
        self.out.push_str("null");
    }

    /// Embeds `document`, a complete JSON value rendered elsewhere, as is.
    pub fn doc(&mut self, document: &str) {
        self.value("a document", |ty| matches!(ty, Ty::Doc));
        self.out.push_str(document);
    }

    /// Opens the object or array the table puts here.
    pub fn open(&mut self) {
        let parent_open = self.stack.last().map(|parent| parent.open);
        let ty = self.value("a container", |ty| {
            matches!(ty, Ty::Obj(_) | Ty::Section(_) | Ty::Map(_) | Ty::Arr(_))
        });
        let open = match parent_open {
            None => true,
            Some(parent) => parent && matches!(ty, Ty::Section(_) | Ty::Arr(Ty::Obj(_))),
        };
        let bracket = if matches!(ty, Ty::Arr(_)) { '[' } else { '{' };
        self.out.push(bracket);
        self.stack.push(Frame {
            ty,
            next: 0,
            empty: true,
            open: open && self.schema.layout == Layout::Lines,
        });
    }

    /// Closes the innermost container.
    pub fn close(&mut self) {
        let frame = self.stack.pop().expect("a container is open");
        if let Ty::Obj(fields) | Ty::Section(fields) = frame.ty {
            debug_assert!(
                fields[frame.next..].iter().all(|f| f.optional),
                "a `{}` object closed before `{}`",
                self.schema.id,
                fields[frame.next].name
            );
        }
        if frame.open && !frame.empty {
            self.line(self.stack.len());
        }
        let bracket = if matches!(frame.ty, Ty::Arr(_)) {
            ']'
        } else {
            '}'
        };
        self.out.push(bracket);
    }

    /// Closes the root and returns the document.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.stack.len(), 1, "containers left open");
        self.close();
        if self.schema.newline {
            self.out.push('\n');
        }
        self.out
    }

    /// The declared type of the value about to be written: what the last
    /// key announced, or the element type of the innermost array (whose
    /// separator is then due).
    fn declared(&mut self) -> &'static Ty {
        if let Some(ty) = self.pending.take() {
            return ty;
        }
        let element = match self.stack.last().map(|frame| frame.ty) {
            Some(Ty::Arr(element)) => *element,
            other => {
                debug_assert!(false, "a value without a key written into {other:?}");
                &Ty::Doc
            }
        };
        self.item();
        element
    }

    /// [`declared`](Self::declared) with `Nullable` looked through.
    fn value(&mut self, what: &str, accepts: fn(&Ty) -> bool) -> &'static Ty {
        let declared = self.declared();
        let ty = match declared {
            Ty::Nullable(inner) => *inner,
            other => other,
        };
        debug_assert!(
            accepts(ty),
            "{what} written where the table says {declared:?}"
        );
        ty
    }

    /// The separator, line break and indent due before the next key or
    /// item of the innermost container.
    fn item(&mut self) {
        let depth = self.stack.len();
        let frame = self.stack.last_mut().expect("the root is open");
        let (first, open) = (std::mem::take(&mut frame.empty), frame.open);
        if !first {
            self.out.push(',');
        }
        if open {
            self.line(depth);
        } else if !first && self.schema.layout != Layout::Compact {
            self.out.push(' ');
        }
    }

    fn line(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.schema.layout != Layout::Compact {
            self.out.push(' ');
        }
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;

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
            let mut w = Writer::new(&schema::ERROR);
            w.key("error").str(s);
            w.key("detail").str("");
            let doc = parse(&w.finish()).unwrap();
            assert_eq!(doc.get("error").and_then(Json::as_str), Some(s), "{s:?}");
        }
    }

    /// A compile document written up to and including its `qom`.
    fn compile_doc_with_qom(qom: f64) -> String {
        let mut w = Writer::new(&schema::COMPILE);
        w.key("kernel").str("k");
        w.key("arch").str("4x4");
        w.key("mapper").str("SPR*");
        w.key("guided").bool(false);
        w.key("ii").uint(2usize);
        w.key("mii").uint(2u32);
        w.key("qom").fixed(qom);
        w.out
    }

    #[test]
    fn floats_get_the_tables_decimals() {
        assert!(compile_doc_with_qom(2.0 / 3.0).ends_with(",\"qom\":0.6667"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "has no JSON spelling")]
    fn a_non_finite_float_is_a_debug_panic() {
        compile_doc_with_qom(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_non_finite_float_is_null_in_release() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(compile_doc_with_qom(v).ends_with(",\"qom\":null"));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`detail` is not the next field of this `panorama-error-v1` object")]
    fn a_key_out_of_table_order_is_a_debug_panic() {
        Writer::new(&schema::ERROR).key("detail");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "closed before `detail`")]
    fn a_missing_field_is_a_debug_panic() {
        let mut w = Writer::new(&schema::ERROR);
        w.key("error").str("e");
        w.finish();
    }

    #[test]
    fn integer_literals_are_exact_over_all_of_u64() {
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(max.as_f64(), Some(u64::MAX as f64));
        // neighbours above 2^53 stay apart; as `f64` they collapse
        let (a, b) = (
            parse("9007199254740992").unwrap(),
            parse("9007199254740993").unwrap(),
        );
        assert_ne!(a, b);
        assert_eq!(b.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(a.as_f64(), b.as_f64());
        // not unsigned integer literals that fit: still numbers, not `u64`s
        for doc in ["18446744073709551616", "-1", "1.0", "1e3", "+5"] {
            let v = parse(doc).unwrap();
            assert_eq!(v.as_u64(), None, "{doc}");
            assert!(v.as_f64().is_some(), "{doc}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(r#"{"kernel":"fir","kernel":"edn"}"#).unwrap_err();
        assert_eq!(err, r#"duplicate key "kernel" at byte 16"#);
        // keys compare decoded, at any depth; siblings may reuse a key
        assert!(parse(r#"[{"a":1,"\u0061":2}]"#).is_err());
        assert!(parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
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
