//! The reading half of the shim: a pull parser over JSON bytes
//! ([`JsonReader`]) and the [`Deserialize`] trait that
//! `#[derive(Deserialize)]` implements on top of it.
//!
//! A derived impl reads one object: each known key's value goes straight
//! into its field, unknown keys are skipped, the first of two equal keys
//! wins, and a key that never appears is an error unless its field is an
//! `Option` (then `None`, as is an explicit `null`). Numbers keep the
//! shim's `Value` flavors, so an unsigned field rejects a negative,
//! fractional or exponent form.

use crate::Value;
use std::borrow::Cow;
use std::fmt;

/// Why a read failed, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    pub msg: String,
    pub offset: usize,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ReadError {}

pub type Result<T> = std::result::Result<T, ReadError>;

/// A value that can be read from a [`JsonReader`].
pub trait Deserialize: Sized {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self>;

    /// The value of a struct field whose key is absent: `None`, which
    /// rejects the object, except for `Option` fields.
    fn absent() -> Option<Self> {
        None
    }
}

/// A pull parser over one JSON text. Whitespace is skipped before every
/// token; each read consumes exactly one value.
pub struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    pub fn new(bytes: &'a [u8]) -> JsonReader<'a> {
        JsonReader { bytes, pos: 0 }
    }

    /// An error at the current position.
    fn error(&self, msg: impl Into<String>) -> ReadError {
        ReadError { msg: msg.into(), offset: self.pos }
    }

    /// Checks that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn word(&mut self, word: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    /// Consumes a `null` if one comes next.
    fn null(&mut self) -> Result<bool> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.word("null").map(|()| true)
    }

    fn bool(&mut self) -> Result<bool> {
        match self.peek() {
            Some(b't') => self.word("true").map(|()| true),
            Some(b'f') => self.word("false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// A number as `Value::Int`, `Value::UInt` (beyond `i64`) or
    /// `Value::Float` (with a fraction or an exponent).
    fn number(&mut self) -> Result<Value> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // Only ASCII digits and signs were consumed.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
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
            .map_err(|_| ReadError { msg: format!("invalid number `{text}`"), offset: start })
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut out: Option<String> = None;
        loop {
            // The run up to the next quote or backslash; both are ASCII, so
            // it ends on a character boundary.
            let start = self.pos;
            let end = bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|k| start + k)
                .ok_or_else(|| self.error("unterminated string"))?;
            let run = std::str::from_utf8(&bytes[start..end])
                .map_err(|_| ReadError { msg: "invalid UTF-8".into(), offset: start })?;
            self.pos = end + 1;
            if bytes[end] == b'"' {
                return Ok(match out {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = out.get_or_insert_with(String::new);
            s.push_str(run);
            let c = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000C}',
                Some(b'u') => {
                    self.pos += 1;
                    let mut code = self.hex4()?;
                    // A high surrogate joins the low one that follows it;
                    // a lone surrogate reads as U+FFFD.
                    if (0xD800..0xDC00).contains(&code) && bytes[self.pos..].starts_with(b"\\u") {
                        let mark = self.pos;
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xDC00..0xE000 => {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            }
                            _ => self.pos = mark,
                        }
                    }
                    s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    continue;
                }
                _ => return Err(self.error("bad escape")),
            };
            s.push(c);
            self.pos += 1;
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads an array, calling `element` once per element to read it.
    fn array(&mut self, mut element: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `member` with each key to read or
    /// [`skip`](Self::skip) its value.
    pub fn object(&mut self, mut member: impl FnMut(&mut Self, &str) -> Result<()>) -> Result<()> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// Reads and drops one value of any shape.
    pub fn skip(&mut self) -> Result<()> {
        Value::read_json(self).map(drop)
    }

    /// Reads a field's value into `slot`, unless an earlier equal key
    /// already filled it.
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>) -> Result<()> {
        match slot {
            Some(_) => self.skip(),
            None => {
                *slot = Some(T::read_json(self)?);
                Ok(())
            }
        }
    }

    /// A field's value once its object is read: what [`field`](Self::field)
    /// stored, else [`Deserialize::absent`].
    pub fn take<T: Deserialize>(&self, slot: Option<T>, key: &str) -> Result<T> {
        slot.or_else(T::absent).ok_or_else(|| self.error(format!("missing field `{key}`")))
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Value> {
        match r.peek() {
            Some(b'n') => r.word("null").map(|()| Value::Null),
            Some(b't' | b'f') => r.bool().map(Value::Bool),
            Some(b'"') => r.string().map(|s| Value::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                r.array(|r| {
                    items.push(Value::read_json(r)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                r.object(|r, key| {
                    fields.push((key.to_string(), Value::read_json(r)?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'-' | b'0'..=b'9') => r.number(),
            Some(b) => Err(r.error(format!("unexpected byte `{}`", b as char))),
            None => Err(r.error("unexpected end of input")),
        }
    }
}

impl Deserialize for u64 {
    fn read_json(r: &mut JsonReader<'_>) -> Result<u64> {
        match r.number()? {
            Value::Int(i) if i >= 0 => Ok(i as u64),
            Value::UInt(u) => Ok(u),
            _ => Err(r.error("expected an unsigned integer")),
        }
    }
}

macro_rules! impl_deserialize_narrow_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<$t> {
                let wide = u64::read_json(r)?;
                <$t>::try_from(wide).map_err(|_| r.error(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_deserialize_narrow_unsigned!(u32, usize);

impl Deserialize for bool {
    fn read_json(r: &mut JsonReader<'_>) -> Result<bool> {
        r.bool()
    }
}

impl Deserialize for String {
    fn read_json(r: &mut JsonReader<'_>) -> Result<String> {
        r.string().map(Cow::into_owned)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Option<T>> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Vec<T>> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deserialize, JsonWriter, Serialize};

    fn read<T: Deserialize>(text: &str) -> Result<T> {
        let mut r = JsonReader::new(text.as_bytes());
        let value = T::read_json(&mut r)?;
        r.end()?;
        Ok(value)
    }

    #[test]
    fn strings_round_trip_every_escape() {
        // Every escape the writer emits, between multi-byte runs.
        let s = "θ\"∀\\—\n\r\t\u{0}\u{8}\u{1f}\u{7f}é😀 plain";
        let mut w = JsonWriter::new(false);
        s.write_json(&mut w);
        let text = String::from_utf8(w.into_bytes()).unwrap();
        assert!(text.contains("\\u0000") && text.contains("\\u001f"));
        assert_eq!(read::<String>(&text).unwrap(), s);
        // The escapes other writers use: `\/`, `\b`, `\f` and a UTF-16
        // surrogate pair; a lone surrogate reads as U+FFFD.
        assert_eq!(read::<String>(r#""a\/b\b\f😀c""#).unwrap(), "a/b\u{8}\u{c}😀c");
        assert_eq!(read::<String>(r#""\ud83dx\ude00""#).unwrap(), "\u{FFFD}x\u{FFFD}");
        assert_eq!(read::<String>(r#""\ud83dA""#).unwrap(), "\u{FFFD}A");
        // A string without an escape is borrowed from the input.
        let mut r = JsonReader::new(br#""plain""#);
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        for bad in [r#""open"#, r#""\x""#, r#""\u12""#, r#""\ud83d\uzzzz""#] {
            assert!(read::<String>(bad).is_err(), "{bad}");
        }
    }

    #[derive(Debug, PartialEq, Deserialize)]
    struct Inner {
        x: u32,
    }

    #[derive(Debug, PartialEq, Deserialize)]
    struct Row {
        name: String,
        n: u64,
        met: bool,
        rounds: Option<u64>,
        inner: Option<Inner>,
        tags: Vec<u32>,
    }

    #[test]
    fn derived_reader_matches_the_written_schema() {
        let full = r#"{"name":"line","n":8,"met":true,"rounds":3,"inner":{"x":2},"tags":[1,2]}"#;
        let want = Row {
            name: "line".into(),
            n: 8,
            met: true,
            rounds: Some(3),
            inner: Some(Inner { x: 2 }),
            tags: vec![1, 2],
        };
        assert_eq!(read::<Row>(full).unwrap(), want);
        // Unknown keys are skipped, however deeply nested their values;
        // the first of two equal keys wins; whitespace is free.
        let noisy = r#" { "extra" : {"a":[1,{"b":null}],"c":"é"}, "name":"line",
            "n":8, "n":9, "met":true, "rounds":3, "inner":{"x":2,"y":[[]]}, "tags":[1,2], "z":-1.5e3 } "#;
        assert_eq!(read::<Row>(noisy).unwrap(), want);
        // Absent and `null` optionals are both `None`.
        let sparse = read::<Row>(r#"{"name":"line","n":8,"met":true,"rounds":null,"tags":[]}"#);
        assert_eq!(sparse.unwrap(), Row { rounds: None, inner: None, tags: vec![], ..want });
    }

    #[test]
    fn derived_reader_rejects_missing_or_mistyped_fields() {
        let base = r#""name":"s","met":false,"tags":[]"#;
        assert!(read::<Row>(&format!("{{{base},\"n\":1}}")).is_ok());
        for n in ["", ",\"n\":-1", ",\"n\":1.5", ",\"n\":1e2", ",\"n\":\"1\"", ",\"n\":null"] {
            assert!(read::<Row>(&format!("{{{base}{n}}}")).is_err(), "n as `{n}`");
        }
        assert!(read::<Inner>(r#"{"x":4294967296}"#).is_err(), "out of range for u32");
        assert!(read::<Row>(r#"{"name":"s","n":1,"met":0,"tags":[]}"#).is_err());
        assert!(read::<Row>(r#"{"name":"s","n":1,"met":false,"tags":[],"inner":{}}"#).is_err());
        for bad in ["", "[]", "{", r#"{"name":"s",}"#, r#"{"x":1} {}"#] {
            assert!(read::<Inner>(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn values_keep_their_number_flavors() {
        let v = read::<Value>(r#"[-1, 18446744073709551615, 0.5, 1e3, true, null, {"k": "v"}]"#);
        let Value::Array(items) = v.unwrap() else { panic!("an array") };
        assert!(matches!(items[0], Value::Int(-1)));
        assert!(matches!(items[1], Value::UInt(u64::MAX)));
        assert!(matches!(items[2], Value::Float(f) if f == 0.5));
        assert!(matches!(items[3], Value::Float(f) if f == 1000.0));
        assert_eq!(items[6]["k"].as_str(), Some("v"));
    }
}
