//! Offline API-subset shim for `serde` (see `shims/README.md`).
//!
//! Instead of serde's visitor architecture, [`Serialize`] has two
//! methods: [`Serialize::to_json_value`] converts a value into an owned
//! JSON [`Value`] tree (for `json!` and code that inspects values), and
//! [`Serialize::write_json`] streams it straight into a [`JsonWriter`],
//! which is the one JSON renderer `serde_json` uses. `#[derive(Serialize)]`
//! (from the sibling `serde_derive` shim) works on non-generic structs
//! with named fields.

// Let derive-generated `::serde::...` paths resolve inside this crate's
// own tests.
extern crate self as serde;

pub use serde_derive::Serialize;
use std::io::{self, Write};

/// A JSON value tree.
///
/// Numbers keep their source flavor (`Int`/`UInt`/`Float`) but compare
/// numerically across flavors, so `to_value(x) == from_str(to_string(x))`
/// holds even though e.g. a `u64` field reparses as `Int`.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            // Numbers compare across flavors.
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            (Float(a), Float(b)) => a == b,
            (Float(f), Int(i)) | (Int(i), Float(f)) => *f == *i as f64,
            (Float(f), UInt(u)) | (UInt(u), Float(f)) => *f == *u as f64,
            _ => false,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// The writer flushes its buffer into the sink once it holds this much.
const FLUSH_AT: usize = 64 * 1024;

/// Streaming JSON renderer: compact, or serde_json's two-space pretty
/// style.
///
/// Output accumulates in a byte buffer. With a sink
/// ([`JsonWriter::with_sink`]) the buffer is flushed into it about every
/// 64 KiB, so a large document is never held whole; without one the
/// buffer is the result ([`JsonWriter::into_bytes`]). A sink's first
/// write error is kept, later output is dropped, and
/// [`JsonWriter::finish`] returns the error.
///
/// Containers are written with [`begin_object`](JsonWriter::begin_object)
/// / [`key`](JsonWriter::key) (or [`field`](JsonWriter::field)) /
/// [`end_object`](JsonWriter::end_object), and
/// [`begin_array`](JsonWriter::begin_array) /
/// [`element`](JsonWriter::element) / [`end_array`](JsonWriter::end_array);
/// every key or element is followed by exactly one value, written by its
/// [`Serialize::write_json`].
pub struct JsonWriter<'a> {
    buf: Vec<u8>,
    sink: Option<&'a mut dyn io::Write>,
    error: Option<io::Error>,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no member yet. A parent is never
    /// empty while a child is open (the child is its member), so one flag
    /// covers every depth.
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// An in-memory writer; `pretty` selects the indented style.
    pub fn new(pretty: bool) -> JsonWriter<'a> {
        JsonWriter { buf: Vec::new(), sink: None, error: None, pretty, depth: 0, empty: false }
    }

    /// A writer that streams into `sink`.
    pub fn with_sink(sink: &'a mut dyn io::Write, pretty: bool) -> JsonWriter<'a> {
        JsonWriter { sink: Some(sink), ..Self::new(pretty) }
    }

    /// The rendered bytes of an in-memory writer (with a sink: whatever
    /// has not been flushed yet).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Flushes the buffer into the sink and returns the first write error.
    pub fn finish(mut self) -> io::Result<()> {
        self.flush();
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                if let Err(e) = sink.write_all(&self.buf) {
                    self.error = Some(e);
                }
            }
            self.buf.clear();
        }
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.buf.push(b'\n');
            let width = self.buf.len() + 2 * self.depth;
            self.buf.resize(width, b' ');
        }
    }

    /// Separator, line break and indentation before a member.
    fn member(&mut self) {
        if self.buf.len() >= FLUSH_AT {
            self.flush();
        }
        if !self.empty {
            self.buf.push(b',');
        }
        self.empty = false;
        self.newline_indent();
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.empty {
            self.newline_indent();
        }
        self.buf.push(bracket);
        self.empty = false;
    }

    pub fn begin_object(&mut self) {
        self.buf.push(b'{');
        self.depth += 1;
        self.empty = true;
    }

    /// Starts the next object member: its key, then its value.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.write_str(key);
        self.buf.push(b':');
        if self.pretty {
            self.buf.push(b' ');
        }
    }

    /// One object member: `key` and `value`.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    pub fn begin_array(&mut self) {
        self.buf.push(b'[');
        self.depth += 1;
        self.empty = true;
    }

    /// Starts the next array element; its value follows.
    pub fn element(&mut self) {
        self.member();
    }

    pub fn end_array(&mut self) {
        self.close(b']');
    }

    fn write_null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    fn write_bool(&mut self, b: bool) {
        self.buf.extend_from_slice(if b { b"true" } else { b"false" });
    }

    fn write_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[i..]);
    }

    fn write_i64(&mut self, n: i64) {
        if n < 0 {
            self.buf.push(b'-');
        }
        self.write_u64(n.unsigned_abs());
    }

    /// The shortest round-trippable form, always with a decimal point or
    /// an exponent (`1.0`, `1e300`); NaN and infinities, which JSON cannot
    /// express, as `null`.
    fn write_f64(&mut self, x: f64) {
        if x.is_finite() {
            write!(self.buf, "{x:?}").expect("writing to a Vec cannot fail");
        } else {
            self.write_null();
        }
    }

    /// A quoted, escaped string. Runs of bytes that need no escape are
    /// copied whole; multi-byte UTF-8 sequences never need one.
    fn write_str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.buf.push(b'"');
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.buf.extend_from_slice(&bytes[run..i]);
            match b {
                b'"' => self.buf.extend_from_slice(b"\\\""),
                b'\\' => self.buf.extend_from_slice(b"\\\\"),
                b'\n' => self.buf.extend_from_slice(b"\\n"),
                b'\r' => self.buf.extend_from_slice(b"\\r"),
                b'\t' => self.buf.extend_from_slice(b"\\t"),
                _ => self.buf.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ]),
            }
            run = i + 1;
        }
        self.buf.extend_from_slice(&bytes[run..]);
        self.buf.push(b'"');
    }
}

/// Conversion into the JSON value model, and streaming into a
/// [`JsonWriter`]. Both methods produce the same JSON.
pub trait Serialize {
    fn to_json_value(&self) -> Value;
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Value::Null => w.write_null(),
            Value::Bool(b) => w.write_bool(*b),
            Value::Int(n) => w.write_i64(*n),
            Value::UInt(n) => w.write_u64(*n),
            Value::Float(x) => w.write_f64(*x),
            Value::Str(s) => w.write_str(s),
            Value::Array(items) => items.write_json(w),
            Value::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w)
    }
}

/// Shared ownership serializes transparently (`Arc<str>` interned labels,
/// `Arc<T>` shared rows) — same JSON as the inner value, like serde's `rc`
/// feature.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w)
    }
}

macro_rules! impl_serialize_signed {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.write_i64(*self as i64)
            }
        }
    )*};
}

macro_rules! impl_serialize_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.write_u64(*self as u64)
            }
        }
    )*};
}

impl_serialize_signed!(i8, i16, i32, i64, isize);
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.write_f64(*self)
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.write_f64(*self as f64)
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.write_bool(*self)
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.write_str(self)
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.write_str(self)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => w.write_null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_array();
        for item in self {
            w.element();
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_compare_across_flavors() {
        assert_eq!(Value::Int(3), Value::UInt(3));
        assert_eq!(Value::Float(3.0), Value::Int(3));
        assert_ne!(Value::Int(-1), Value::UInt(u64::MAX));
        assert_ne!(Value::Float(3.5), Value::Int(3));
    }

    #[test]
    fn indexing_and_accessors() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Int(1), Value::Str("x".into())])),
            ("b".into(), Value::Bool(true)),
        ]);
        assert_eq!(v["a"][0].as_i64(), Some(1));
        assert_eq!(v["a"][1].as_str(), Some("x"));
        assert_eq!(v["b"].as_bool(), Some(true));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn skip_serializing_if_omits_the_field_entirely() {
        #[derive(Serialize)]
        struct Row {
            a: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            b: Option<String>,
            c: bool,
        }
        let none = Row { a: 1, b: None, c: true }.to_json_value();
        let Value::Object(fields) = &none else { panic!("object expected") };
        assert_eq!(fields.len(), 2, "a skipped field must not appear, even as null");
        assert!(none.get("b").is_none());
        let some = Row { a: 1, b: Some("x".into()), c: true }.to_json_value();
        let Value::Object(fields) = &some else { panic!("object expected") };
        // Present values serialize in declaration order, between a and c.
        assert_eq!(fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(some["b"].as_str(), Some("x"));
    }

    #[test]
    fn derive_serializes_named_structs() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            n: usize,
            ratio: f64,
            met: bool,
            tags: Vec<String>,
        }
        let r = Row { name: "line".into(), n: 8, ratio: 0.5, met: true, tags: vec!["a".into()] };
        let v = r.to_json_value();
        assert_eq!(v["name"].as_str(), Some("line"));
        assert_eq!(v["n"].as_u64(), Some(8));
        assert_eq!(v["ratio"].as_f64(), Some(0.5));
        assert_eq!(v["met"].as_bool(), Some(true));
        assert_eq!(v["tags"][0].as_str(), Some("a"));
    }

    /// Renders `v` both ways: through `write_json`, and through its
    /// `Value` tree. The two must agree; the first is returned.
    fn render<T: Serialize + ?Sized>(v: &T, pretty: bool) -> String {
        let text = |v: &dyn Serialize| {
            let mut w = JsonWriter::new(pretty);
            v.write_json(&mut w);
            String::from_utf8(w.into_bytes()).unwrap()
        };
        let direct = text(&v);
        assert_eq!(direct, text(&v.to_json_value()), "write_json and the Value tree disagree");
        direct
    }

    #[test]
    fn empty_containers_at_depth() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![])),
            ("b".into(), Value::Array(vec![Value::Object(vec![]), Value::Array(vec![])])),
            ("c".into(), Value::Object(vec![])),
        ]);
        assert_eq!(render(&v, false), r#"{"a":[],"b":[{},[]],"c":{}}"#);
        assert_eq!(
            render(&v, true),
            "{\n  \"a\": [],\n  \"b\": [\n    {},\n    []\n  ],\n  \"c\": {}\n}"
        );
        assert_eq!(render(&Vec::<u8>::new(), true), "[]");
        assert_eq!(render(&Value::Object(vec![]), true), "{}");
    }

    #[test]
    fn nested_skip_serializing_if() {
        #[derive(Serialize)]
        struct Inner {
            x: u8,
            #[serde(skip_serializing_if = "Option::is_none")]
            y: Option<u8>,
        }
        #[derive(Serialize)]
        struct Outer {
            #[serde(skip_serializing_if = "Option::is_none")]
            first: Option<Inner>,
            inner: Vec<Inner>,
            #[serde(skip_serializing_if = "Vec::is_empty")]
            tags: Vec<String>,
        }
        let sparse = Outer { first: None, inner: vec![Inner { x: 1, y: None }], tags: vec![] };
        assert_eq!(render(&sparse, false), r#"{"inner":[{"x":1}]}"#);
        assert_eq!(
            render(&sparse, true),
            "{\n  \"inner\": [\n    {\n      \"x\": 1\n    }\n  ]\n}"
        );
        let full = Outer {
            first: Some(Inner { x: 2, y: Some(3) }),
            inner: vec![Inner { x: 4, y: None }, Inner { x: 5, y: Some(6) }],
            tags: vec!["t".into()],
        };
        assert_eq!(
            render(&full, false),
            r#"{"first":{"x":2,"y":3},"inner":[{"x":4},{"x":5,"y":6}],"tags":["t"]}"#
        );
        assert_eq!(
            render(&full, true),
            "{\n  \"first\": {\n    \"x\": 2,\n    \"y\": 3\n  },\n  \"inner\": [\n    {\n      \
             \"x\": 4\n    },\n    {\n      \"x\": 5,\n      \"y\": 6\n    }\n  ],\n  \
             \"tags\": [\n    \"t\"\n  ]\n}"
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls_only() {
        let s = "a\"b\\c\n\r\t\u{0}\u{8}\u{1f}\u{7f} é ∀ 😀";
        let want = r#""a\"b\\c\n\r\t\u0000\u0008\u001f"#.to_string() + "\u{7f} é ∀ 😀\"";
        assert_eq!(render(s, false), want);
        assert_eq!(render(s, true), want);
        let key = Value::Object(vec![("k\"ey".into(), Value::Str("ü".into()))]);
        assert_eq!(render(&key, false), "{\"k\\\"ey\":\"ü\"}");
        assert_eq!(render(&key, true), "{\n  \"k\\\"ey\": \"ü\"\n}");
    }

    #[test]
    fn numbers_print_exactly() {
        let floats = [1.0f64, 0.1, 1e300, -0.0, f64::NAN, f64::INFINITY];
        assert_eq!(render(&floats, false), "[1.0,0.1,1e300,-0.0,null,null]");
        assert_eq!(
            render(&floats, true),
            "[\n  1.0,\n  0.1,\n  1e300,\n  -0.0,\n  null,\n  null\n]"
        );
        assert_eq!(render(&0.5f32, false), "0.5");
        let ints = Value::Array(vec![
            i64::MIN.to_json_value(),
            0i64.to_json_value(),
            (-7i8).to_json_value(),
            u64::MAX.to_json_value(),
        ]);
        assert_eq!(render(&ints, false), "[-9223372036854775808,0,-7,18446744073709551615]");
        assert_eq!(
            render(&ints, true),
            "[\n  -9223372036854775808,\n  0,\n  -7,\n  18446744073709551615\n]"
        );
    }

    #[test]
    fn sink_output_matches_the_in_memory_output() {
        // Enough rows to cross the flush threshold many times.
        let rows: Vec<Vec<String>> =
            (0..20_000).map(|i| vec![format!("row {i}"), "x".repeat(i % 7)]).collect();
        for pretty in [false, true] {
            let mut memory = JsonWriter::new(pretty);
            rows.write_json(&mut memory);
            let memory = memory.into_bytes();
            assert!(memory.len() > 4 * FLUSH_AT);
            let mut sink = Vec::new();
            let mut w = JsonWriter::with_sink(&mut sink, pretty);
            rows.write_json(&mut w);
            w.finish().unwrap();
            assert_eq!(sink, memory);
        }
    }

    #[test]
    fn sink_errors_surface_at_finish() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rows: Vec<String> = (0..20_000).map(|i| format!("row {i}")).collect();
        let mut sink = Full;
        let mut w = JsonWriter::with_sink(&mut sink, true);
        rows.write_json(&mut w);
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::StorageFull);
    }
}
