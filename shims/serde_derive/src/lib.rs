//! Offline shim for `serde_derive` (see `shims/README.md`).
//!
//! Hand-rolled token parsing (no `syn`/`quote` available offline): supports
//! `#[derive(Serialize)]` (both `Serialize` methods, `to_json_value` and
//! `write_json`) and `#[derive(Deserialize)]` (`read_json`, over the
//! shim's `JsonReader`) on non-generic structs with named fields, plus
//! the field attribute `#[serde(skip_serializing_if = "path")]` (the one
//! knob the workspace uses to add optional fields without disturbing the
//! serialized shape of existing rows). Anything else is a compile error
//! with a pointed message rather than silent misbehavior.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse_struct(input, "Serialize");

    // Both methods emit the fields in declaration order and skip the same
    // ones, so they produce the same JSON.
    let each_field = |emit: &dyn Fn(&str) -> String| -> String {
        fields
            .iter()
            .map(|(f, skip_if)| match skip_if {
                None => emit(f),
                Some(pred) => format!("if !{pred}(&self.{f}) {{ {} }}", emit(f)),
            })
            .collect()
    };
    let value_entries = each_field(&|f| {
        format!(
            "fields.push((::std::string::String::from(\"{f}\"), \
             ::serde::Serialize::to_json_value(&self.{f})));"
        )
    });
    // A field name never needs an escape: each key is emitted quoted.
    let writer_entries = each_field(&|f| format!("w.quoted_field(\"\\\"{f}\\\"\", &self.{f});"));
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_json_value(&self) -> ::serde::Value {{\n\
                 let mut fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                 {value_entries}\n\
                 ::serde::Value::Object(fields)\n\
             }}\n\
             fn write_json(&self, w: &mut ::serde::JsonWriter<'_>) {{\n\
                 w.begin_object();\n\
                 {writer_entries}\n\
                 w.end_object();\n\
             }}\n\
         }}"
    );
    out.parse().expect("serde shim: generated impl failed to parse")
}

/// The reader of what `derive(Serialize)` writes: one object, each known
/// key read into a slot whose type the struct literal at the end infers,
/// unknown keys skipped, and absent keys resolved by
/// `Deserialize::absent` (`None` for `Option` fields, an error otherwise).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse_struct(input, "Deserialize");
    let slots: String = fields
        .iter()
        .map(|(f, _)| format!("let mut __{f} = ::std::option::Option::None;"))
        .collect();
    let arms: String =
        fields.iter().map(|(f, _)| format!("\"{f}\" => __r.field(&mut __{f}),")).collect();
    let values: String =
        fields.iter().map(|(f, _)| format!("{f}: __r.take(__{f}, \"{f}\")?,")).collect();
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__r: &mut ::serde::JsonReader<'_>) \
                 -> ::std::result::Result<Self, ::serde::ReadError> {{\n\
                 {slots}\n\
                 __r.object(|__r, __key| match __key {{ {arms} _ => __r.skip() }})?;\n\
                 ::std::result::Result::Ok({name} {{ {values} }})\n\
             }}\n\
         }}"
    );
    out.parse().expect("serde shim: generated impl failed to parse")
}

/// The name and `(field name, skip_serializing_if predicate)` pairs of
/// the named-field struct `input` declares.
fn parse_struct(input: TokenStream, derive: &str) -> (String, Vec<(String, Option<String>)>) {
    let mut iter = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`) and visibility, find `struct Name`.
    let mut name: Option<String> = None;
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                iter.next(); // the bracketed attribute group
            }
            TokenTree::Ident(id) if id.to_string() == "enum" || id.to_string() == "union" => {
                panic!("serde shim: derive({derive}) supports structs only")
            }
            TokenTree::Ident(id) if id.to_string() == "struct" => {
                match iter.next() {
                    Some(TokenTree::Ident(n)) => name = Some(n.to_string()),
                    _ => panic!("serde shim: expected struct name"),
                }
                break;
            }
            _ => {}
        }
    }
    let name = name.expect("serde shim: no `struct` item found");

    // The body must be a brace group of named fields; generics unsupported.
    for tt in iter {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                panic!("serde shim: generic structs not supported")
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                return (name, parse_named_fields(g.stream()));
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde shim: tuple structs not supported")
            }
            _ => {}
        }
    }
    panic!("serde shim: expected named-field struct body")
}

/// Reads a `#[serde(skip_serializing_if = "path")]` attribute body (the
/// token stream inside the brackets); `None` for every other attribute.
fn parse_serde_skip(attr: TokenStream) -> Option<String> {
    let mut iter = attr.into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(g)) = iter.next() else {
        return None;
    };
    let mut inner = g.stream().into_iter();
    loop {
        match inner.next() {
            None => return None,
            Some(TokenTree::Ident(id)) if id.to_string() == "skip_serializing_if" => break,
            Some(_) => {}
        }
    }
    match (inner.next(), inner.next()) {
        (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
            let s = lit.to_string();
            let path = s.trim_matches('"').to_string();
            assert!(
                !path.is_empty() && s.starts_with('"') && s.ends_with('"'),
                "serde shim: skip_serializing_if expects a quoted path"
            );
            Some(path)
        }
        _ => panic!("serde shim: malformed skip_serializing_if attribute"),
    }
}

/// Extracts `(field name, skip_serializing_if predicate)` pairs from the
/// token stream of a named-field struct body.
fn parse_named_fields(body: TokenStream) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Field attributes (doc comments arrive as `#[doc = "..."]`):
        // remember a `skip_serializing_if` predicate, skip everything else.
        let mut skip_if: Option<String> = None;
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            if let Some(TokenTree::Group(g)) = iter.next() {
                if let Some(pred) = parse_serde_skip(g.stream()) {
                    skip_if = Some(pred);
                }
            }
        }
        // Optional `pub` / `pub(...)`.
        if matches!(iter.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            iter.next();
            if matches!(
                iter.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                iter.next();
            }
        }
        match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => out.push((id.to_string(), skip_if)),
            Some(other) => panic!("serde shim: unexpected token in struct body: {other}"),
        }
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde shim: expected `:` after field name"),
        }
        // Skip the type up to the next top-level comma. `->` (fn-pointer
        // types) must not be miscounted as closing an angle bracket.
        let mut angle_depth = 0i32;
        let mut prev_char = ' ';
        loop {
            match iter.next() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    match c {
                        '<' => angle_depth += 1,
                        '>' if prev_char != '-' => {
                            angle_depth -= 1;
                            assert!(angle_depth >= 0, "serde shim: unbalanced `>` in a field type");
                        }
                        ',' if angle_depth == 0 => break,
                        _ => {}
                    }
                    prev_char = c;
                }
                Some(_) => prev_char = ' ',
            }
        }
    }
    out
}
