//! Offline stub of `serde_derive`: a dependency-free derive that emits the
//! stub `serde::Serialize` JSON writer for plain structs and enums (named
//! fields; unit/tuple/struct variants). Text-level parsing — good enough
//! for the simple, non-generic result types this workspace derives on.

use proc_macro::TokenStream;
use std::fmt::Write;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let src = strip_attributes(&input.to_string());
    let code = match parse_item(&src) {
        Some(item) => generate(&item),
        None => "compile_error!(\"serde stub derive: unsupported item shape\");".to_string(),
    };
    code.parse().expect("stub derive generated invalid code")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    // The stub serde crate has a blanket `Deserialize` impl; the derive
    // only needs to exist so `#[derive(Deserialize)]` compiles.
    TokenStream::new()
}

enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

enum Variant {
    Unit(String),
    Tuple(String, usize),
    Struct(String, Vec<String>),
}

/// Remove every `#[...]` attribute and `//` line comment (the token
/// stream keeps doc comments in `///` form, newlines preserved), tracking
/// string literals so a `]` inside a doc string doesn't end the group.
fn strip_attributes(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if chars[i] == '#' {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if j < chars.len() && chars[j] == '[' {
                let mut depth = 0usize;
                let mut in_str = false;
                let mut escaped = false;
                while j < chars.len() {
                    let c = chars[j];
                    if in_str {
                        if escaped {
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else if c == '"' {
                            in_str = false;
                        }
                    } else if c == '"' {
                        in_str = true;
                    } else if c == '[' {
                        depth += 1;
                    } else if c == ']' {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        out.push(chars[i]);
        i += 1;
    }
    out
}

/// Split `s` on commas at bracket depth zero.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' | ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(cur.trim().to_string());
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

/// The text between the first `{` at the end of the item and its match.
fn brace_body(s: &str) -> Option<&str> {
    let open = s.find('{')?;
    let close = s.rfind('}')?;
    (open < close).then(|| &s[open + 1..close])
}

fn field_names(body: &str) -> Vec<String> {
    split_top_level(body)
        .iter()
        .filter_map(|field| {
            let name_part = field.split(':').next()?.trim();
            name_part.split_whitespace().last().map(str::to_string)
        })
        .collect()
}

fn parse_item(src: &str) -> Option<Item> {
    let words: Vec<&str> = src.split_whitespace().collect();
    if let Some(pos) = words.iter().position(|w| *w == "struct") {
        let name = words.get(pos + 1)?.trim_end_matches(['{', ';']).to_string();
        if name.contains('<') {
            return None;
        }
        let fields = field_names(brace_body(src)?);
        return Some(Item::Struct { name, fields });
    }
    let pos = words.iter().position(|w| *w == "enum")?;
    let name = words.get(pos + 1)?.trim_end_matches('{').to_string();
    if name.contains('<') {
        return None;
    }
    let body = brace_body(src)?;
    let mut variants = Vec::new();
    for v in split_top_level(body) {
        let paren = v.find('(');
        let brace = v.find('{');
        match (paren, brace) {
            (Some(p), q) if q.map_or(true, |q| p < q) => {
                let vname = v[..p].trim().to_string();
                let inner = &v[p + 1..v.rfind(')')?];
                variants.push(Variant::Tuple(vname, split_top_level(inner).len()));
            }
            (_, Some(b)) => {
                let vname = v[..b].trim().to_string();
                variants.push(Variant::Struct(vname, field_names(brace_body(&v)?)));
            }
            _ => variants.push(Variant::Unit(v.trim().to_string())),
        }
    }
    Some(Item::Enum { name, variants })
}

fn generate(item: &Item) -> String {
    let mut g = String::new();
    match item {
        Item::Struct { name, fields } => {
            let _ = write!(
                g,
                "impl ::serde::Serialize for {name} {{ \
                 fn serialize_json(&self, out: &mut String) {{ out.push('{{');"
            );
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    g.push_str("out.push(',');");
                }
                let _ = write!(
                    g,
                    "::serde::write_json_string(out, \"{f}\"); out.push(':'); \
                     ::serde::Serialize::serialize_json(&self.{f}, out);"
                );
            }
            g.push_str("out.push('}'); } }");
        }
        Item::Enum { name, variants } => {
            let _ = write!(
                g,
                "impl ::serde::Serialize for {name} {{ \
                 fn serialize_json(&self, out: &mut String) {{ match self {{"
            );
            for v in variants {
                match v {
                    Variant::Unit(vn) => {
                        let _ = write!(
                            g,
                            "{name}::{vn} => {{ ::serde::write_json_string(out, \"{vn}\"); }}"
                        );
                    }
                    Variant::Tuple(vn, arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        let _ = write!(
                            g,
                            "{name}::{vn}({}) => {{ out.push('{{'); \
                             ::serde::write_json_string(out, \"{vn}\"); out.push(':');",
                            binds.join(", ")
                        );
                        if *arity == 1 {
                            g.push_str("::serde::Serialize::serialize_json(f0, out);");
                        } else {
                            g.push_str("out.push('[');");
                            for (i, b) in binds.iter().enumerate() {
                                if i > 0 {
                                    g.push_str("out.push(',');");
                                }
                                let _ = write!(g, "::serde::Serialize::serialize_json({b}, out);");
                            }
                            g.push_str("out.push(']');");
                        }
                        g.push_str("out.push('}'); }");
                    }
                    Variant::Struct(vn, fields) => {
                        let _ = write!(
                            g,
                            "{name}::{vn} {{ {} }} => {{ out.push('{{'); \
                             ::serde::write_json_string(out, \"{vn}\"); \
                             out.push(':'); out.push('{{');",
                            fields.join(", ")
                        );
                        for (i, f) in fields.iter().enumerate() {
                            if i > 0 {
                                g.push_str("out.push(',');");
                            }
                            let _ = write!(
                                g,
                                "::serde::write_json_string(out, \"{f}\"); out.push(':'); \
                                 ::serde::Serialize::serialize_json({f}, out);"
                            );
                        }
                        g.push_str("out.push('}'); out.push('}'); }");
                    }
                }
            }
            g.push_str("} } }");
        }
    }
    g
}
