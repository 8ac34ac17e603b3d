//! Minimal hand-rolled JSON for the wire protocol.
//!
//! The vendored `serde` stub is a no-op, so `mdjd` carries its own parser
//! and writer. The dialect is standard JSON restricted to what the protocol
//! needs: objects, arrays, strings with `\uXXXX`/standard escapes, i64 and
//! f64 numbers, booleans, and null. Integers that fit i64 stay integers —
//! the SQL layer distinguishes `Value::Int` from `Value::Float`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with sorted keys (deterministic encode order).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

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

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encode to a single-line JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::Int(v) => write_int(*v, out),
            Json::Float(v) => write_float(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_array(items, out, Json::write),
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

// The leaf writers: the only place an array, bool, number or string is
// formatted. `Json::write` and the wire's row writer (which encodes a
// relation's cells without building a `Json` per cell) both end here.

/// `[a,b,…]` with each item written by `item`.
pub(crate) fn write_array<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    mut item: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(x, out);
    }
    out.push(']');
}

pub(crate) fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

pub(crate) fn write_int(v: i64, out: &mut String) {
    let _ = write!(out, "{v}");
}

pub(crate) fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        // JSON has no NaN/Infinity; encode as null like most
        // implementations.
        out.push_str("null");
    }
}

pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// Deepest object/array nesting `parse` accepts. The parser recurses, so
/// without a bound a hostile `[[[[...` payload overflows the stack and
/// aborts the whole process; with it, the payload is a parse error like
/// any other. 64 is far beyond anything the wire protocol produces.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing content is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting exceeds the depth limit of {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.enter()?;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.enter()?;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .input
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the protocol;
                            // lone surrogates decode to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    let ch = self.input[self.pos..]
                        .chars()
                        .next()
                        .ok_or("invalid utf8 position")?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            r#"{"a":1,"b":[1.5,"x",null,true],"c":{"d":-2}}"#,
            r#"[]"#,
            r#""he said \"hi\"\n""#,
            r#"-42"#,
        ];
        for case in cases {
            let v = parse(case).unwrap();
            assert_eq!(parse(&v.encode()).unwrap(), v, "{case}");
        }
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        assert_eq!(parse("3").unwrap(), Json::Int(3));
        assert_eq!(parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(parse(r#""aA\t""#).unwrap(), Json::Str("aA\t".into()));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("'single'").is_err());
    }

    #[test]
    fn depth_limit_is_enforced_not_overflowed() {
        // One past the limit fails cleanly...
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("depth"), "{err}");
        // ...and the limit itself still parses.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        // Mixed nesting counts both container kinds toward the limit.
        let mixed = r#"{"a":["#.repeat(MAX_DEPTH / 2 + 1);
        let err = parse(&mixed).unwrap_err();
        assert!(err.contains("depth"), "{err}");
    }

    #[test]
    fn control_chars_encode_escaped() {
        let s = Json::Str("a\u{1}b".into()).encode();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(parse(&s).unwrap(), Json::Str("a\u{1}b".into()));
    }
}
