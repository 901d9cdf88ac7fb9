//! The workspace's one JSON reader/writer: campaign records, and the
//! repository benchmark's trace spans (`perfbench/` includes this file).
//!
//! The workspace has no serde dependency, and campaign merge records nest
//! (a chunk record carries an array of per-cell segments), so this module
//! is a small recursive-descent parser over a strict JSON subset: objects,
//! arrays, strings (with `\"`, `\\`, `\n`, `\t` and `\uXXXX` escapes),
//! integers, and the literals `true`/`false`/`null`. Numbers are kept as
//! decimal strings so `u128` sums round-trip exactly without a float
//! detour.
//!
//! The writer always emits keys in a fixed order with no whitespace, so a
//! record's serialised form is canonical — checksums over the emitted bytes
//! are reproducible across runs.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers stay as the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// Object: ordered key/value pairs as written.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String (unescaped).
    Str(String),
    /// Number, as its decimal source text.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u128`, accepting either a number or a decimal string
    /// (the writer emits `u128` sums as strings for consumers that only do
    /// doubles).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(s) | Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", b as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b'0'..=b'9') | Some(b'-') => parse_num(bytes, pos),
        Some(b't') => parse_lit(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null").map(|_| Json::Null),
        _ => Err(format!("unexpected byte at offset {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).unwrap_or_default();
                        let c = std::str::from_utf8(hex)
                            .ok()
                            .filter(|h| h.len() == 4 && h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at offset {pos}"))?;
                        *pos += 4;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    _ => return Err(format!("unsupported escape at offset {pos}")),
                }
            }
            _ => out.push(b),
        }
    }
    Err("unterminated string".into())
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("bad number at offset {start}"));
    }
    Ok(Json::Num(std::str::from_utf8(&bytes[start..*pos]).unwrap().to_string()))
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out
}

/// Incremental canonical-JSON writer: fixed key order, no whitespace.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (as a value).
    pub fn obj(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (as a value).
    pub fn arr(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push(']');
        self
    }

    /// Writes an object key (the next write is its value).
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "\"{}\":", escape(key));
        // The key's value must not emit a comma before itself.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Writes a `u64` value.
    pub fn num(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a `u128` value as a decimal **string**, so consumers limited
    /// to doubles cannot silently round it.
    pub fn big(&mut self, v: u128) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "\"{v}\"");
        self
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Consumes the writer, returning the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_then_parser_round_trips() {
        let mut w = JsonWriter::new();
        w.obj()
            .key("name")
            .str("table3-sweep")
            .key("chunk")
            .num(16)
            .key("sum")
            .big(340_282_366_920_938_463_463u128)
            .key("cells")
            .arr();
        for i in 0..2u64 {
            w.obj().key("cell").num(i).key("ok").num(1).end_obj();
        }
        w.end_arr().end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"name":"table3-sweep","chunk":16,"sum":"340282366920938463463","cells":[{"cell":0,"ok":1},{"cell":1,"ok":1}]}"#
        );
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("table3-sweep"));
        assert_eq!(v.get("chunk").and_then(Json::as_u64), Some(16));
        assert_eq!(v.get("sum").and_then(Json::as_u128), Some(340_282_366_920_938_463_463));
        assert_eq!(v.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse(r#"{"a":1} trailing"#).is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse(r#"{"a":1,}"#).is_err());
    }

    #[test]
    fn booleans_round_trip() {
        let mut w = JsonWriter::new();
        w.obj().key("yes").boolean(true).key("no").boolean(false).end_obj();
        let text = w.finish();
        assert_eq!(text, r#"{"yes":true,"no":false}"#);
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("yes").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("no").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("yes").and_then(Json::as_u64), None);
    }

    #[test]
    fn escapes_round_trip() {
        let mut w = JsonWriter::new();
        w.obj().key("s").str("a\"b\\c\nd\te\r").end_obj();
        let text = w.finish();
        assert!(text.ends_with(r#"e\u000d"}"#), "{text}");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\nd\te\r"));
        // `\uXXXX` for any character, as other JSON writers may emit it.
        let v = Json::parse(r#"{"s":"x\u000ay\u00e9"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\nyé"));
        assert!(Json::parse(r#"{"s":"\u00g0"}"#).is_err());
        assert!(Json::parse(r#"{"s":"\u+041"}"#).is_err());
    }
}
