//! Offline API-subset shim for `serde_json` (see `shims/README.md`).
//!
//! Renders and parses the [`serde::Value`] model: `to_value`, `to_string`,
//! `to_string_pretty`, `to_writer_pretty`, `from_str`, and a `json!` macro
//! for flat object / array literals (nested literals must themselves be
//! wrapped in `json!`). Rendering streams through
//! [`serde::Serialize::write_json`], so typed input never builds a
//! [`Value`].

pub use serde::Value;
use serde::{JsonWriter, Serialize};
use std::fmt;

/// Parse / serialize error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of a parse error (`None` for a write error).
    pub offset: Option<usize>,
}

impl Error {
    fn new(msg: impl Into<String>, offset: usize) -> Self {
        Error { msg: msg.into(), offset: Some(offset) }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_json_value()
}

fn render<T: Serialize + ?Sized>(v: &T, pretty: bool) -> Result<String> {
    let mut w = JsonWriter::new(pretty);
    v.write_json(&mut w);
    Ok(String::from_utf8(w.into_bytes()).expect("the writer emits UTF-8"))
}

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    render(v, false)
}

/// Two-space-indented JSON text (serde_json's pretty style).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    render(v, true)
}

/// Streams two-space-indented JSON into `writer`, about 64 KiB at a time.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    v: &T,
) -> Result<()> {
    let mut w = JsonWriter::with_sink(&mut writer, true);
    v.write_json(&mut w);
    w.finish().map_err(|e| Error { msg: e.to_string(), offset: None })
}

/// Parses JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters", p.pos));
    }
    Ok(v)
}

/// Builds a [`Value`] from a flat literal.
///
/// Supported: `json!(null)`, scalars, `json!([a, b, ...])`, and
/// `json!({"key": expr, ...})` where each `expr` implements
/// `serde::Serialize` (use a nested `json!` call for nested literals).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!("unexpected byte `{}`", b as char), self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(Error::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("bad \\u escape", start))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape", start))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape", start))?;
                            // Surrogate pairs unsupported (not produced by
                            // our writer); map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash whole.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| start + k);
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..run])
                            .map_err(|_| Error::new("invalid UTF-8", start))?,
                    );
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number", start))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = json!({
            "name": "line",
            "n": 8usize,
            "ratio": 0.5f64,
            "met": true,
            "none": Option::<u64>::None,
            "rows": vec![1u64, 2, 3]
        });
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&s).unwrap(), v, "text was: {s}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{0001}f".into());
        let s = to_string(&v).unwrap();
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn long_multibyte_strings_round_trip() {
        // Every escape the writer emits, between multi-byte runs, repeated
        // long enough that a per-character rescan of the input would show.
        let unit = "θ∀—\"\\\n\r\t\u{0}\u{1f}é😀 plain ascii ";
        let v = Value::Str(unit.repeat(2000));
        let s = to_string(&v).unwrap();
        assert!(s.contains("\\u0000") && s.contains("\\u001f") && s.contains("\\\""));
        assert_eq!(from_str(&s).unwrap(), v);
        assert!(from_str("\"unterminated θ").is_err());
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
    }

    #[test]
    fn pretty_style_matches_serde_json() {
        let v = json!({ "a": 1u64 });
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn to_writer_pretty_streams_the_pretty_text() {
        let v = json!({ "rows": vec![1u64, 2], "name": "x" });
        let mut out = Vec::new();
        to_writer_pretty(&mut out, &v).unwrap();
        assert_eq!(out, to_string_pretty(&v).unwrap().into_bytes());
    }
}
