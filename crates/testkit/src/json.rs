//! A minimal, deterministic JSON value, serializer, and parser.
//!
//! The bench harness and sweep runner emit machine-readable reports under
//! `results/` without pulling in serde. Serialization is deterministic:
//! object keys keep insertion order, floats render with Rust's
//! shortest-roundtrip `{:?}` formatting, and non-finite floats become
//! `null` — so two runs with identical inputs produce byte-identical
//! files.
//!
//! [`Json::parse`] reads documents back (job specs submitted to
//! `wisync-serve`, committed `results/*.json` in tests), and
//! [`Json::canonical`] + [`Json::canonical_digest`] define the one
//! canonical form — keys sorted recursively, rendered by the same
//! serializer — that every content-addressing consumer (sweep, perf,
//! report, serve) shares instead of rolling its own.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float; NaN/infinity serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// A JSON parse error: what went wrong and the byte offset it happened
/// at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document. Non-negative integers become
    /// [`Json::U64`]; every other number becomes [`Json::F64`].
    /// Duplicate object keys are kept as-is (last one wins under
    /// [`Json::get`]).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Looks up a field of an object (`None` for missing fields and
    /// non-objects). Duplicate keys resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The canonical form: object keys sorted recursively (arrays keep
    /// their order — element order is data). Rendering the canonical
    /// form gives the one byte representation of a value's *content*,
    /// independent of field insertion order.
    pub fn canonical(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonical).collect()),
            Json::Obj(fields) => {
                let mut sorted: Vec<(String, Json)> = fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonical()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }

    /// Content digest: FNV-1a 128 over the rendered canonical form. Two
    /// values digest equal iff they hold the same data, regardless of
    /// object-key insertion order.
    pub fn canonical_digest(&self) -> u128 {
        wisync_sim::snap::digest128(self.canonical().render().as_bytes())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            at: self.at,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.at += 1; // '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.at += 1;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must
                                // follow as another \u escape.
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            integral = false;
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::F64(f)),
            Err(_) => Err(JsonError {
                message: "invalid number".to_string(),
                at: start,
            }),
        }
    }
}

/// Writes a rendered document, creating parent directories, and prints
/// the `wrote <path>` line every bench/serve binary emits. The one
/// file-writing path shared by `sweep`, `mac_lab`, `report`, and `serve`.
pub fn write_doc(path: impl AsRef<Path>, doc: &str) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::obj([
            ("name", Json::from("fig7")),
            ("cores", Json::Arr(vec![Json::U64(16), Json::U64(32)])),
            ("speedup", Json::F64(1.25)),
            ("bad", Json::F64(f64::NAN)),
            ("quote", Json::from("a\"b")),
        ]);
        let text = v.render();
        assert!(text.contains("\"name\": \"fig7\""));
        assert!(text.contains("\"speedup\": 1.25"));
        assert!(text.contains("\"bad\": null"));
        assert!(text.contains("a\\\"b"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = Json::obj([("b", Json::U64(1)), ("a", Json::F64(0.1))]);
        assert_eq!(v.render(), v.render());
        // Insertion order, not sorted order.
        let b = v.render().find("\"b\"").unwrap();
        let a = v.render().find("\"a\"").unwrap();
        assert!(b < a);
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let v = Json::obj([
            ("figure", Json::from("fig7")),
            ("quick", Json::Bool(false)),
            ("none", Json::Null),
            ("cores", Json::Arr(vec![Json::U64(16), Json::U64(u64::MAX)])),
            ("speedup", Json::F64(1.25)),
            ("tiny", Json::F64(1e-9)),
            ("label", Json::from("a\"b\\c\nd\te")),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Compact whitespace parses to the same value.
        let compact = text.replace(['\n', ' '], "");
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(Json::parse("-3").unwrap(), Json::F64(-3.0));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::F64(250.0));
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"\\x\"",
            "\"\\ud800\"",
            "{'a': 1}",
            "[01e]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn canonical_sorts_keys_recursively_and_digests_content() {
        let a =
            Json::parse("{\"b\": 1, \"a\": {\"y\": [2, {\"q\": 3, \"p\": 4}], \"x\": 5}}").unwrap();
        let b =
            Json::parse("{\"a\": {\"x\": 5, \"y\": [2, {\"p\": 4, \"q\": 3}]}, \"b\": 1}").unwrap();
        assert_ne!(a, b, "insertion order differs");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        // Array order is data, not presentation: reordering changes the
        // digest.
        let c =
            Json::parse("{\"a\": {\"x\": 5, \"y\": [{\"p\": 4, \"q\": 3}, 2]}, \"b\": 1}").unwrap();
        assert_ne!(a.canonical_digest(), c.canonical_digest());
    }

    #[test]
    fn get_resolves_fields() {
        let v = Json::parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::U64(3)));
        assert_eq!(v.get("b"), Some(&Json::U64(2)));
        assert_eq!(v.get("c"), None);
        assert_eq!(Json::U64(1).get("a"), None);
    }
}
