//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` generating impls of the local `serde` shim's
//! traits (`to_value` / `from_value` over `serde::Value`).
//!
//! The parser handles exactly the item shapes this workspace derives on:
//! non-generic named structs, tuple/newtype structs, and enums whose
//! variants are unit, newtype/tuple, or struct-like. Conventions match
//! serde's externally tagged defaults so rendered JSON looks canonical.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#[...]` attribute (doc comments included).
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Bracket {
                        i += 1;
                        continue;
                    }
                }
                panic!("serde_derive shim: malformed attribute");
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                // Optional `pub(...)` restriction.
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Consumes tokens until a `,` at angle-bracket depth zero (the end of a
/// type in a field list); returns the index *after* the comma (or the end
/// of the stream).
fn skip_type(toks: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            break;
        };
        names.push(name.to_string());
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after field, got {other:?}"),
        }
        i = skip_type(&toks, i);
    }
    names
}

fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        n += 1;
        i = skip_type(&toks, i);
    }
    n
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let kind = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    i += 1;
    // Skip generics if present (unused in this workspace, kept for safety).
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            let mut depth = 0i32;
            while let Some(t) = toks.get(i) {
                if let TokenTree::Punct(p) = t {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let Some(TokenTree::Group(body)) = toks.get(i) else {
                panic!("serde_derive shim: enum without body");
            };
            let vt: Vec<TokenTree> = body.stream().into_iter().collect();
            let mut variants = Vec::new();
            let mut j = 0;
            while j < vt.len() {
                j = skip_attrs_and_vis(&vt, j);
                let Some(TokenTree::Ident(vname)) = vt.get(j) else {
                    break;
                };
                let vname = vname.to_string();
                j += 1;
                let fields = match vt.get(j) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        j += 1;
                        Fields::Named(parse_named_fields(g))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        j += 1;
                        Fields::Tuple(count_tuple_fields(g))
                    }
                    _ => Fields::Unit,
                };
                // Skip to the comma separating variants.
                while let Some(t) = vt.get(j) {
                    if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                variants.push((vname, fields));
            }
            Item::Enum { name, variants }
        }
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    }
}

/// Derives `serde::Serialize` (shim) for structs and enums.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_owned(),
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                }
                Fields::Named(names) => {
                    let pairs: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!("(\"{f}\".to_owned(), ::serde::Serialize::to_value(&self.{f}))")
                        })
                        .collect();
                    format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => {
                        format!("{name}::{v} => ::serde::Value::Str(\"{v}\".to_owned()),")
                    }
                    Fields::Tuple(1) => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Object(vec![(\"{v}\".to_owned(), \
                         ::serde::Serialize::to_value(__f0))]),"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![(\"{v}\".to_owned(), \
                             ::serde::Value::Array(vec![{}]))]),",
                            binds.join(", "),
                            elems.join(", ")
                        )
                    }
                    Fields::Named(fs) => {
                        let binds = fs.join(", ");
                        let pairs: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!("(\"{f}\".to_owned(), ::serde::Serialize::to_value({f}))")
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Object(vec![\
                             (\"{v}\".to_owned(), ::serde::Value::Object(vec![{}]))]),",
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` (shim) for structs and enums.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!("Ok({name})"),
                Fields::Tuple(1) => {
                    format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
                }
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|k| {
                            format!(
                                "::serde::Deserialize::from_value(\
                                 __items.get({k}).unwrap_or(&::serde::Value::Null))?"
                            )
                        })
                        .collect();
                    format!(
                        "let __items = __v.as_array().ok_or_else(|| \
                         ::serde::Error::msg(\"expected array for tuple struct {name}\"))?;\n\
                         Ok({name}({}))",
                        elems.join(", ")
                    )
                }
                Fields::Named(names) => {
                    let inits: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!("{f}: ::serde::Deserialize::from_value(__v.field(\"{f}\"))?")
                        })
                        .collect();
                    format!("Ok({name} {{ {} }})", inits.join(", "))
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, fields)| match fields {
                    Fields::Unit => None,
                    Fields::Tuple(1) => Some(format!(
                        "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::from_value(__inner)?)),"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| {
                                format!(
                                    "::serde::Deserialize::from_value(\
                                     __items.get({k}).unwrap_or(&::serde::Value::Null))?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => {{ let __items = __inner.as_array().ok_or_else(|| \
                             ::serde::Error::msg(\"expected array for variant {v}\"))?; \
                             Ok({name}::{v}({})) }},",
                            elems.join(", ")
                        ))
                    }
                    Fields::Named(fs) => {
                        let inits: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(__inner.field(\"{f}\"))?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => Ok({name}::{v} {{ {} }}),",
                            inits.join(", ")
                        ))
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::Error> {{\n\
                         match __v {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {}\n\
                                 __other => Err(::serde::Error::msg(format!(\
                                     \"unknown {name} variant `{{__other}}`\"))),\n\
                             }},\n\
                             ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                                 let (__tag, __inner) = &__pairs[0];\n\
                                 match __tag.as_str() {{\n\
                                     {}\n\
                                     __other => Err(::serde::Error::msg(format!(\
                                         \"unknown {name} variant `{{__other}}`\"))),\n\
                                 }}\n\
                             }},\n\
                             __other => Err(::serde::Error::msg(format!(\
                                 \"bad value for enum {name}: {{__other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated invalid Deserialize impl")
}
