//! Derive macros for the offline `serde` shim.
//!
//! The real `serde_derive` leans on `syn`/`quote`; neither is available
//! offline, so this crate walks the raw [`proc_macro::TokenStream`] by
//! hand. That is tractable because the shim only needs the shapes this
//! workspace actually derives:
//!
//! * structs with named fields (field *names* are all the codegen needs —
//!   each value streams through its own `Serialize`/`Deserialize` impl, so
//!   field *types* never have to be understood), and
//! * enums with unit and newtype variants (e.g. `Failed(String)`),
//!   rendered in serde's externally-tagged JSON form: `"Variant"` for
//!   unit variants, `{"Variant": value}` for newtype variants.
//!
//! The generated code streams: `Serialize` writes each field's key as one
//! literal and the value straight after it; `Deserialize` is one loop over
//! the object's keys that fills a per-field `Option`, skips unknown keys,
//! and reads a missing field as `null` (so a missing `Option` is `None`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Item {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<Variant> },
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// `true` when the variant carries exactly one unnamed payload.
    newtype: bool,
}

/// Derives `serde::Serialize` (shim) for named-field structs and
/// unit/newtype enums.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::Struct { name, fields } => {
            let mut body = String::new();
            for (i, f) in fields.iter().enumerate() {
                let sep = if i == 0 { "{" } else { "," };
                body += &format!(
                    "__out.extend_from_slice(b\"{sep}\\\"{f}\\\":\");\n\
                     ::serde::Serialize::serialize(&self.{f}, __out)?;\n"
                );
            }
            let close = if fields.is_empty() { "{}" } else { "}" };
            body += &format!("__out.extend_from_slice(b\"{close}\");\n");
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    if v.newtype {
                        format!(
                            "{name}::{vn}(inner) => {{\n\
                                 __out.extend_from_slice(b\"{{\\\"{vn}\\\":\");\n\
                                 ::serde::Serialize::serialize(inner, __out)?;\n\
                                 __out.push(b'}}');\n\
                             }}\n"
                        )
                    } else {
                        format!("{name}::{vn} => __out.extend_from_slice(b\"\\\"{vn}\\\"\"),\n")
                    }
                })
                .collect();
            (name, format!("match self {{ {arms} }}\n"))
        }
    };
    let code = format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut ::std::vec::Vec<u8>) \
                 -> ::std::result::Result<(), ::serde::Error> {{\n\
                 {body}\
                 ::std::result::Result::Ok(())\n\
             }}\n\
         }}"
    );
    code.parse().expect("serde_derive: generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` (shim) for named-field structs and
/// unit/newtype enums.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::Struct { name, fields } => {
            let slots: String = fields
                .iter()
                .map(|f| format!("let mut __f_{f} = ::std::option::Option::None;\n"))
                .collect();
            let arms: String = fields
                .iter()
                .map(|f| format!("\"{f}\" => __r.field(&mut __f_{f}, \"{name}.{f}\"),\n"))
                .collect();
            let inits: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Reader::take(__f_{f}, \"{name}.{f}\")?,\n"))
                .collect();
            let body = format!(
                "{slots}\
                 __r.map(|__r, __key| match &*__key {{\n\
                     {arms}\
                     _ => __r.skip(),\n\
                 }})?;\n\
                 ::std::result::Result::Ok({name} {{ {inits} }})\n"
            );
            (name, body)
        }
        Item::Enum { name, variants } => {
            let unknown = format!(
                "::std::result::Result::Err(\
                     __r.error(&format!(\"unknown {name} variant `{{__other}}`\")))"
            );
            let unit_arms: String = variants
                .iter()
                .filter(|v| !v.newtype)
                .map(|v| {
                    format!(
                        "\"{0}\" => ::std::result::Result::Ok({name}::{0}),\n",
                        v.name
                    )
                })
                .collect();
            let newtype_arms: String = variants
                .iter()
                .filter(|v| v.newtype)
                .map(|v| {
                    format!(
                        "\"{0}\" => {name}::{0}(::serde::Deserialize::deserialize(__r)\
                             .map_err(|e| e.context(\"{name}::{0}\"))?),\n",
                        v.name
                    )
                })
                .collect();
            // A type with no newtype variant gets no payload branch, so the
            // generated code has no unreachable tail.
            let payload = if newtype_arms.is_empty() {
                format!("let __other = __tag; {unknown}")
            } else {
                format!(
                    "let __value = match &*__tag {{\n\
                         {newtype_arms}\
                         __other => return {unknown},\n\
                     }};\n\
                     __r.end_variant()?;\n\
                     ::std::result::Result::Ok(__value)"
                )
            };
            let body = format!(
                "let (__tag, __newtype) = __r.variant()?;\n\
                 if !__newtype {{\n\
                     return match &*__tag {{\n\
                         {unit_arms}\
                         __other => {unknown},\n\
                     }};\n\
                 }}\n\
                 {payload}\n"
            );
            (name, body)
        }
    };
    let code = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__r: &mut ::serde::Reader<'_>) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\
             }}\n\
         }}"
    );
    code.parse().expect("serde_derive: generated Deserialize impl must parse")
}

// --- token-stream parsing ------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attributes_and_visibility(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, got {other}"),
    };
    i += 1;

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other}"),
    };
    i += 1;

    skip_generics(&tokens, &mut i);

    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                break g.stream();
            }
            Some(_) => i += 1, // where-clause tokens
            None => panic!("serde_derive: `{name}` has no brace-delimited body"),
        }
    };

    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_named_fields(body),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(body),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Advances past any `#[...]` attributes (doc comments included) and a
/// leading `pub` / `pub(...)` visibility marker.
fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` plus the bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // `pub(crate)` etc.
                    }
                }
            }
            _ => return,
        }
    }
}

/// Advances past a `<...>` generic parameter list, if present.
fn skip_generics(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0usize;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                depth += 1;
                *i += 1;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '>' && depth > 0 => {
                depth -= 1;
                *i += 1;
                if depth == 0 {
                    return;
                }
            }
            Some(_) if depth > 0 => *i += 1,
            _ => return,
        }
    }
}

/// Extracts field names from a named-field struct body. Types are skipped
/// wholesale: everything between the `:` and the next angle-depth-zero
/// comma is ignored (groups are atomic tokens, so commas inside generic
/// argument lists are the only nesting that needs tracking).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            panic!("serde_derive: expected field name in struct body");
        };
        fields.push(id.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!(
                "serde_derive: named fields required (expected `:`, got {other:?})"
            ),
        }
        let mut angle_depth = 0usize;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1);
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Extracts variants from an enum body. Unit and one-field tuple
/// (newtype) variants are supported; struct-like or multi-field tuple
/// variants are rejected loudly rather than silently mis-serialized.
fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            panic!("serde_derive: expected variant name in enum body");
        };
        let name = id.to_string();
        i += 1;
        let mut newtype = false;
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let payload: Vec<TokenTree> = g.stream().into_iter().collect();
                let top_level_commas = {
                    let mut depth = 0usize;
                    payload
                        .iter()
                        .filter(|t| {
                            match t {
                                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                                TokenTree::Punct(p) if p.as_char() == '>' => {
                                    depth = depth.saturating_sub(1);
                                }
                                _ => {}
                            }
                            matches!(t, TokenTree::Punct(p)
                                if p.as_char() == ',' && depth == 0)
                        })
                        .count()
                };
                assert!(
                    top_level_commas == 0,
                    "serde_derive: variant `{name}` has multiple fields; \
                     only unit and newtype variants are supported"
                );
                newtype = true;
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!(
                    "serde_derive: struct-like variant `{name}` is not supported"
                );
            }
            _ => {}
        }
        // Skip an optional `= discriminant` and the trailing comma.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, newtype });
    }
    variants
}
