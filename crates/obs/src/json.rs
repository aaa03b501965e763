//! The workspace's one JSON format. Every machine-readable report
//! renders through [`Writer`] and is read back through [`parse`]; the
//! escape table ([`write_string`]) and the float rule ([`Writer::f64`])
//! live here and nowhere else.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_string(out: &mut String, s: &str) {
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

/// Appends `x` to `out`: the shortest decimal that reads back as the
/// same `f64`, or `null` for NaN and the infinities, which JSON cannot
/// represent.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per nesting level; an
    /// empty container is `{}` or `[]`.
    Block,
    /// All members on one line: `{"k": v, "k2": v2}` or `[a, b]`.
    /// Everything nested inside an inline container is inline too.
    Inline,
}

#[derive(Debug)]
struct Open {
    close: char,
    layout: Layout,
    empty: bool,
}

/// An ordered JSON writer. Containers are opened with [`Writer::object`]
/// or [`Writer::array`] and closed with [`Writer::end`]; object members
/// are a [`Writer::key`] followed by one value. [`Writer::finish`]
/// returns the document with a trailing newline.
///
/// ```
/// use marauder_obs::json::{Layout, Writer};
/// let mut w = Writer::new();
/// w.object(Layout::Block);
/// w.key("seed").u64(7);
/// w.key("cells").array(Layout::Inline).u64(1).u64(2).end();
/// w.end();
/// assert_eq!(w.finish(), "{\n  \"seed\": 7,\n  \"cells\": [1, 2]\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    open: Vec<Open>,
    /// A key was just written; the next value is its member's value.
    keyed: bool,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Opens an object.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open_container('{', '}', layout)
    }

    /// Opens an array.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open_container('[', ']', layout)
    }

    /// Closes the innermost open container (a no-op when none is open).
    pub fn end(&mut self) -> &mut Self {
        if let Some(open) = self.open.pop() {
            if open.layout == Layout::Block && !open.empty {
                self.newline();
            }
            self.out.push(open.close);
        }
        self
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member_start();
        write_string(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.value_start();
        write_string(&mut self.out, s);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.value_start();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.value_start();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float: its shortest round-trip decimal, or `null` when
    /// it is not finite.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.value_start();
        write_f64(&mut self.out, x);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Writes an already-rendered JSON value verbatim — for numbers a
    /// report prints at a fixed precision.
    pub fn raw(&mut self, value: &str) -> &mut Self {
        self.value_start();
        self.out.push_str(value);
        self
    }

    /// The finished document, newline-terminated.
    ///
    /// # Panics
    ///
    /// Panics when a container is still open — a renderer bug.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "Writer::finish with open containers");
        self.out.push('\n');
        self.out
    }

    fn open_container(&mut self, open: char, close: char, layout: Layout) -> &mut Self {
        self.value_start();
        let layout = match self.open.last() {
            Some(parent) if parent.layout == Layout::Inline => Layout::Inline,
            _ => layout,
        };
        self.out.push(open);
        self.open.push(Open {
            close,
            layout,
            empty: true,
        });
        self
    }

    fn value_start(&mut self) {
        if !std::mem::take(&mut self.keyed) {
            self.member_start();
        }
    }

    /// The separator before a member of the innermost container.
    fn member_start(&mut self) {
        let Some(open) = self.open.last_mut() else {
            return;
        };
        let first = std::mem::replace(&mut open.empty, false);
        let layout = open.layout;
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Block => self.newline(),
            Layout::Inline if !first => self.out.push(' '),
            Layout::Inline => {}
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

/// A parsed JSON value. Object keys are ordered (`BTreeMap`) so tests
/// and error messages are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (RFC 8259: objects, arrays, strings
/// with escapes, numbers, booleans, null) by recursive descent;
/// trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by the
                        // workspace's own writer; map them to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x20 => return Err(format!("raw control byte {c:#x} in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(_) => {
                    // Re-decode the UTF-8 sequence starting one byte back.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|e| format!("bad utf-8: {e}"))?;
                    let ch = s.chars().next().ok_or("empty utf-8 tail")?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn escape_table() {
        assert_eq!(escaped("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(escaped("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(escaped("\u{1}\u{1f}\u{7f}é"), "\"\\u0001\\u001f\u{7f}é\"");
        for s in ["a\"b\\c\u{1}\r\n", "naïve", ""] {
            assert_eq!(parse(&escaped(s)).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn f64_is_shortest_round_trip_or_null() {
        let mut out = String::new();
        for x in [
            1.0,
            0.1,
            -2.5e-7,
            1e21,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            write_f64(&mut out, x);
            out.push(' ');
        }
        assert_eq!(
            out,
            "1 0.1 -0.00000025 1000000000000000000000 null null null "
        );
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE] {
            let mut s = String::new();
            write_f64(&mut s, x);
            assert_eq!(parse(&s).unwrap().as_num(), Some(x));
        }
    }

    #[test]
    fn writer_layouts_nest() {
        let mut w = Writer::new();
        w.object(Layout::Block);
        w.key("a").object(Layout::Block);
        w.key("b").array(Layout::Inline);
        w.object(Layout::Block).key("c").null().end();
        w.bool(true).i64(-1).raw("1.50").end();
        w.key("empty").array(Layout::Block).end();
        w.end();
        w.key("rows").array(Layout::Block);
        w.object(Layout::Inline).key("x").f64(0.5).end();
        w.object(Layout::Inline).end();
        w.end();
        w.end();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"a\": {\n    \"b\": [{\"c\": null}, true, -1, 1.50],\n    \"empty\": []\n  },\n  \
             \"rows\": [\n    {\"x\": 0.5},\n    {}\n  ]\n}\n"
        );
        assert!(parse(&text).is_ok());
    }

    #[test]
    #[should_panic(expected = "open containers")]
    fn finish_refuses_an_open_container() {
        let mut w = Writer::new();
        w.array(Layout::Inline);
        let _ = w.finish();
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#"["caf\u00e9", "naïve"]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("café"));
        assert_eq!(arr[1].as_str(), Some("naïve"));
    }
}
