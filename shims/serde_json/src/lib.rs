//! Offline API-subset shim for `serde_json` (see `shims/README.md`).
//!
//! Renders and parses the [`serde::Value`] model: `to_value`, `to_string`,
//! `to_string_pretty`, `to_writer_pretty`, `from_str`, and a `json!` macro
//! for flat object / array literals (nested literals must themselves be
//! wrapped in `json!`). Rendering streams through
//! [`serde::Serialize::write_json`], so typed input never builds a
//! [`Value`]; [`from_slice`] reads through [`serde::Deserialize`], so typed
//! output never builds one either.

pub use serde::Value;
use serde::{Deserialize, JsonReader, JsonWriter, ReadError, Serialize};
use std::fmt;

/// Parse / serialize error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of a parse error (`None` for a write error).
    pub offset: Option<usize>,
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

impl From<ReadError> for Error {
    fn from(e: ReadError) -> Self {
        Error { msg: e.msg, offset: Some(e.offset) }
    }
}

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
    from_slice(s.as_bytes())
}

/// Reads one `T` from JSON bytes; nothing but whitespace may follow it.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut r = JsonReader::new(bytes);
    let value = T::read_json(&mut r)?;
    r.end()?;
    Ok(value)
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
