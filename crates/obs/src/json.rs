//! The workspace's one JSON module: value model, parser, string
//! escaper, number policy and the two printed layouts.
//!
//! Every artefact the workspace writes — `BENCH_*.json`, `BLAME_*.json`,
//! Chrome traces, lint and model-checker reports, run-store manifests,
//! committed baselines — goes through [`write_str`] and [`write_f64`],
//! and every artefact read back (by the differ, the run store, the
//! benchmark harness) goes through [`parse`]. So the format is decided
//! here and nowhere else:
//!
//! * **Numbers.** Integers parse losslessly into [`Json::Int`], so
//!   exact-domain values (schema versions, `Ratio` numerators, kernel
//!   counters) never round-trip through floating point. A float keeps
//!   its type across a round trip: an integral float prints with a
//!   `.0` (`2.0`, not `2`), and a non-finite float prints as `null`.
//! * **Strings.** `"`, `\` and every control character are escaped;
//!   everything else, non-ASCII included, is written as UTF-8.
//! * **Layouts.** [`Json::to_compact`] (one line, no spaces) for
//!   manifests, baselines and blame reports; [`Json::to_pretty`]
//!   (two-space indent, one member or element per line) for `BENCH_*`
//!   files.
//! * **Hostile input.** [`parse`] never panics. Nesting deeper than
//!   [`MAX_DEPTH`] is an error, not a stack overflow, and a lone UTF-16
//!   surrogate escape decodes to U+FFFD.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Every artefact the
/// workspace writes nests fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object member order is preserved so printed output is
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional or exponent part, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(i64::from(v))
    }
}

/// Exact when `v` fits an `i64`; larger values become a [`Json::Float`],
/// which is what [`parse`] makes of their digits anyway.
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        #[allow(clippy::cast_precision_loss)]
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` members, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rounded to `places` decimals: the printed form is then at
    /// most that long after the point, as a fixed-precision format
    /// would print it, but the value keeps its float type.
    #[must_use]
    pub fn fixed(v: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Float((v * scale).round() / scale)
    }

    /// Member lookup on objects; `None` on anything else.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly enough for
    /// telemetry fields).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => {
                #[allow(clippy::cast_precision_loss)]
                {
                    Some(v as f64)
                }
            }
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact single-line rendering (stable member order).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty rendering: two-space indent, one member or element per
    /// line, `[]`/`{}` for empty containers; no trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Append the value to `out`; `indent` is `None` for the compact
    /// layout, else the current pretty-print depth.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, ('[', ']'), items, |out, v, ind| {
                    v.write(out, ind);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, ('{', '}'), members, |out, (k, v), ind| {
                    write_str(out, k);
                    out.push_str(if ind.is_some() { ": " } else { ":" });
                    v.write(out, ind);
                });
            }
        }
    }
}

/// The bracketed, comma-separated body of an array or object.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|d| d + 1);
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline(out, d);
        }
        item(out, v, inner);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        newline(out, d);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `s` as a quoted JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append `v` as a JSON number: the shortest form that reads back to
/// the same `f64`, with a `.0` on integral values so [`parse`] returns
/// a [`Json::Float`] again, and `null` for NaN and the infinities.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short
/// description; no input makes this panic.
///
/// # Errors
///
/// Returns a message when `src` is not a single well-formed JSON value
/// or nests deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Run a container parser one nesting level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
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
                            out.push(self.utf16_unit(cp)?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the source is a &str, so the
                    // sequence is valid; copy it through.
                    let bytes = self.bytes;
                    let start = self.pos - 1;
                    let end = (start + utf8_len(b)).min(bytes.len());
                    let chunk = std::str::from_utf8(&bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    self.pos = end;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// Decode the `\u` escape `cp`. A high surrogate combines with an
    /// immediately following low-surrogate escape; any other surrogate
    /// becomes U+FFFD, and an escape after a lone high surrogate is
    /// left for the next round to decode on its own.
    fn utf16_unit(&mut self, cp: u32) -> Result<char, String> {
        if (0xD800..0xDC00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
            }
            self.pos = after;
        }
        Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let nibble = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = (v << 4) | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_exactly() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn round_trips_real_artifacts() {
        let src = r#"{"schema_version": 2, "ratio": {"num": 4, "den": 5},
                      "lane_widths": [64, 128], "ok": true,
                      "name": "fig1 \"quoted\"", "t_ns": 12.75}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_int(), Some(2));
        assert_eq!(
            v.get("ratio").unwrap().get("num").unwrap().as_int(),
            Some(4)
        );
        assert_eq!(parse(&v.to_compact()).unwrap(), v, "compact is a fixpoint");
        assert_eq!(parse(&v.to_pretty()).unwrap(), v, "pretty is a fixpoint");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("01x").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"\\u+123\"").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn integral_floats_stay_floats() {
        for v in [2.0, 0.0, -3.0, 1e15, 1.0] {
            let printed = Json::Float(v).to_compact();
            assert_eq!(parse(&printed).unwrap(), Json::Float(v), "{printed}");
        }
        assert_eq!(Json::Float(2.0).to_compact(), "2.0");
        assert_eq!(Json::Float(0.8).to_compact(), "0.8");
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_compact(), "null");
        for v in [1e17, 1e300] {
            assert_eq!(parse(&Json::Float(v).to_compact()).unwrap(), Json::Float(v));
        }
    }

    #[test]
    fn fixed_rounds_to_places() {
        assert_eq!(Json::fixed(0.987_654, 4).to_compact(), "0.9877");
        assert_eq!(Json::fixed(1.240_1, 3).to_compact(), "1.24");
        assert_eq!(Json::fixed(256_022.04, 1).to_compact(), "256022.0");
    }

    #[test]
    fn lone_high_surrogate_keeps_the_next_escape() {
        assert_eq!(
            parse("\"\\uD800\\u0041\"").unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        // Two high surrogates then a low: the second pairs.
        assert_eq!(
            parse("\"\\ud83d\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{FFFD}😀".into())
        );
        assert_eq!(parse("\"\\udc00\"").unwrap(), Json::Str("\u{FFFD}".into()));
        assert_eq!(parse("\"\\ud800\"").unwrap(), Json::Str("\u{FFFD}".into()));
        assert!(parse("\"\\ud800\\u00\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        let hostile = "[".repeat(1_000_000);
        assert!(parse(&hostile).is_err());
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn every_escape_class_round_trips() {
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("\"\\/ plain ·π→Ω \u{7f} 😀 \u{10FFFF}");
        let mut out = String::new();
        write_str(&mut out, &s);
        assert_eq!(parse(&out).unwrap(), Json::Str(s));
        assert!(!out[1..out.len() - 1].contains(|c: char| c < ' '), "{out}");
    }

    #[test]
    fn pretty_layout() {
        let v = Json::obj([
            ("a", Json::Int(1)),
            (
                "b",
                Json::Arr(vec![Json::Bool(true), Json::Obj(Vec::new())]),
            ),
            ("c", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    {}\n  ],\n  \"c\": []\n}"
        );
        assert_eq!(v.to_compact(), "{\"a\":1,\"b\":[true,{}],\"c\":[]}");
    }

    #[test]
    fn conversions() {
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
        assert_eq!(Json::from(7u64), Json::Int(7));
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(
            [1u64, 2].into_iter().collect::<Json>(),
            Json::Arr(vec![Json::Int(1), Json::Int(2)])
        );
    }
}
