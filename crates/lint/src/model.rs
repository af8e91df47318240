//! A shallow item model over the token stream: functions (with impl
//! context and test classification), structs with fields and derives,
//! enums with variants, plus per-token masks for `#[cfg(test)]` regions
//! and `use` statements.
//!
//! This is **not** a Rust parser. It recognises exactly the item shapes
//! the lints need and skips everything else token-by-token, which makes
//! it robust to code it does not understand: unrecognised syntax simply
//! produces no items, and lints degrade to pure token scans.

use crate::lexer::{Lexed, Tok, Token};

/// A `fn` item.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Type name of the enclosing `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// Declared in an `impl Trait for Type` block: a dependency can
    /// reach it through a generic or `dyn` call without naming its crate.
    pub in_trait_impl: bool,
    /// 1-based line of the `fn` keyword — annotation attachment point
    /// for fn-level `alloc: cold(...)`.
    pub sig_line: u32,
    /// Token index range of the body, exclusive of the braces.
    pub body: (usize, usize),
    /// Inside a `#[cfg(test)]` module, or carries `#[test]`/`#[bench]`.
    pub is_test: bool,
}

/// A named-field `struct` item (tuple and unit structs keep an empty
/// field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub fields: Vec<(String, u32)>,
    pub derives: Vec<String>,
    pub is_test: bool,
}

/// An `enum` item.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub line: u32,
    pub variants: Vec<(String, u32)>,
    pub derives: Vec<String>,
    pub is_test: bool,
}

/// Shallow model of one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub functions: Vec<Function>,
    pub structs: Vec<StructDef>,
    pub enums: Vec<EnumDef>,
    /// File carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Per-token: token sits inside a `#[cfg(test)]` module or a
    /// `#[test]`/`#[bench]` function.
    pub test_mask: Vec<bool>,
    /// Per-token: token belongs to a `use ...;` statement.
    pub use_mask: Vec<bool>,
}

impl FileModel {
    pub fn in_test(&self, tok_idx: usize) -> bool {
        self.test_mask.get(tok_idx).copied().unwrap_or(false)
    }

    pub fn in_use(&self, tok_idx: usize) -> bool {
        self.use_mask.get(tok_idx).copied().unwrap_or(false)
    }
}

/// Words that can sit between an attribute and the item keyword it
/// decorates, or between `impl` and the implemented type.
const MODIFIERS: &[&str] = &[
    "pub", "crate", "async", "const", "unsafe", "extern", "default",
];

pub fn build(lexed: &Lexed) -> FileModel {
    let toks = &lexed.tokens;
    let mut model = FileModel {
        test_mask: vec![false; toks.len()],
        use_mask: vec![false; toks.len()],
        ..FileModel::default()
    };
    let ctx = Ctx {
        impl_type: None,
        in_trait_impl: false,
        in_test: false,
    };
    parse_range(toks, 0, toks.len(), &ctx, &mut model);
    model
}

#[derive(Clone)]
struct Ctx {
    impl_type: Option<String>,
    in_trait_impl: bool,
    in_test: bool,
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Index of the delimiter matching the opener at `open_idx` (one of
/// `(`/`[`/`{`). Falls back to the end of the stream on imbalance.
fn matching(toks: &[Token], open_idx: usize) -> usize {
    let (open, close) = match toks[open_idx].tok {
        Tok::Punct('(') => ('(', ')'),
        Tok::Punct('[') => ('[', ']'),
        Tok::Punct('{') => ('{', '}'),
        _ => return open_idx,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        match &t.tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// First index in `range` holding punct `c` at zero delimiter depth.
fn find_at_depth0(toks: &[Token], start: usize, end: usize, wanted: &[char]) -> Option<usize> {
    let mut j = start;
    while j < end {
        match &toks[j].tok {
            Tok::Punct(c) if wanted.contains(c) => return Some(j),
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                j = matching(toks, j) + 1;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

fn parse_range(toks: &[Token], start: usize, end: usize, ctx: &Ctx, model: &mut FileModel) {
    let mut pending: Vec<Vec<String>> = Vec::new();
    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::Punct('#') => {
                let mut j = i + 1;
                let inner = is_punct(toks.get(j), '!');
                if inner {
                    j += 1;
                }
                if is_punct(toks.get(j), '[') {
                    let close = matching(toks, j);
                    let idents: Vec<String> = toks[j..=close]
                        .iter()
                        .filter_map(|t| ident(t).map(str::to_string))
                        .collect();
                    if inner {
                        if idents.iter().any(|s| s == "forbid")
                            && idents.iter().any(|s| s == "unsafe_code")
                        {
                            model.has_forbid_unsafe = true;
                        }
                    } else {
                        pending.push(idents);
                    }
                    i = close + 1;
                } else {
                    i = j;
                }
            }
            Tok::Ident(kw) if kw == "mod" => {
                let is_test = ctx.in_test || attrs_mark_test_cfg(&pending);
                pending.clear();
                match find_at_depth0(toks, i + 1, end, &['{', ';']) {
                    Some(b) if is_punct(toks.get(b), '{') => {
                        let close = matching(toks, b);
                        if is_test {
                            mark(&mut model.test_mask, i, close);
                        }
                        let inner = Ctx {
                            impl_type: None,
                            in_trait_impl: false,
                            in_test: is_test,
                        };
                        parse_range(toks, b + 1, close, &inner, model);
                        i = close + 1;
                    }
                    Some(semi) => i = semi + 1,
                    None => i = end,
                }
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                pending.clear();
                let (type_name, for_trait, body_open) = impl_header(toks, i + 1, end);
                match body_open {
                    Some(b) => {
                        let close = matching(toks, b);
                        let inner = Ctx {
                            impl_type: type_name,
                            in_trait_impl: kw == "impl" && for_trait,
                            in_test: ctx.in_test,
                        };
                        parse_range(toks, b + 1, close, &inner, model);
                        i = close + 1;
                    }
                    None => i = end,
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                let is_test = ctx.in_test || attrs_mark_test_fn(&pending);
                pending.clear();
                let name = toks.get(i + 1).and_then(ident).unwrap_or("").to_string();
                let sig_line = toks[i].line;
                // Skip generics/args/return type to the body or the `;`
                // of a bodiless declaration. Argument parens may nest.
                let mut j = i + 2;
                let body = loop {
                    match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                            j = matching(toks, j) + 1;
                        }
                        Some(Tok::Punct('{')) => break Some(j),
                        Some(Tok::Punct(';')) => break None,
                        Some(_) => j += 1,
                        None => break None,
                    }
                };
                match body {
                    Some(b) => {
                        let close = matching(toks, b);
                        if is_test && !ctx.in_test {
                            mark(&mut model.test_mask, i, close);
                        }
                        model.functions.push(Function {
                            name,
                            impl_type: ctx.impl_type.clone(),
                            in_trait_impl: ctx.in_trait_impl,
                            sig_line,
                            body: (b + 1, close),
                            is_test,
                        });
                        let inner = Ctx {
                            impl_type: ctx.impl_type.clone(),
                            in_trait_impl: false,
                            in_test: ctx.in_test || is_test,
                        };
                        parse_range(toks, b + 1, close, &inner, model);
                        i = close + 1;
                    }
                    None => i = j + 1,
                }
            }
            Tok::Ident(kw) if kw == "struct" => {
                let derives = derives_of(&pending);
                pending.clear();
                let name = toks.get(i + 1).and_then(ident).unwrap_or("").to_string();
                let line = toks[i].line;
                let mut def = StructDef {
                    name,
                    line,
                    fields: Vec::new(),
                    derives,
                    is_test: ctx.in_test,
                };
                match find_at_depth0(toks, i + 2, end, &['{', ';', '(']) {
                    Some(b) if is_punct(toks.get(b), '{') => {
                        let close = matching(toks, b);
                        def.fields = parse_fields(toks, b + 1, close);
                        i = close + 1;
                    }
                    Some(b) if is_punct(toks.get(b), '(') => {
                        // Tuple struct: skip payload and trailing `;`.
                        i = matching(toks, b) + 1;
                    }
                    Some(semi) => i = semi + 1,
                    None => i = end,
                }
                model.structs.push(def);
            }
            Tok::Ident(kw) if kw == "enum" => {
                let derives = derives_of(&pending);
                pending.clear();
                let name = toks.get(i + 1).and_then(ident).unwrap_or("").to_string();
                let line = toks[i].line;
                let mut def = EnumDef {
                    name,
                    line,
                    variants: Vec::new(),
                    derives,
                    is_test: ctx.in_test,
                };
                match find_at_depth0(toks, i + 2, end, &['{', ';']) {
                    Some(b) if is_punct(toks.get(b), '{') => {
                        let close = matching(toks, b);
                        def.variants = parse_fields(toks, b + 1, close);
                        i = close + 1;
                    }
                    Some(semi) => i = semi + 1,
                    None => i = end,
                }
                model.enums.push(def);
            }
            Tok::Ident(kw) if kw == "use" => {
                pending.clear();
                let semi = find_at_depth0(toks, i + 1, end, &[';']).unwrap_or(end - 1);
                mark(&mut model.use_mask, i, semi);
                i = semi + 1;
            }
            Tok::Ident(kw) if MODIFIERS.contains(&kw.as_str()) => {
                // Modifier between an attribute and its item: keep
                // `pending` alive. `pub(crate)` parens ride along via
                // the next iteration.
                i += 1;
            }
            Tok::Punct('(') | Tok::Punct('[') => {
                // e.g. the `(crate)` of `pub(crate)` — skip wholesale so
                // its contents are not mistaken for items.
                i = matching(toks, i) + 1;
            }
            _ => {
                pending.clear();
                i += 1;
            }
        }
    }
}

fn mark(mask: &mut [bool], from: usize, to_inclusive: usize) {
    for slot in mask
        .iter_mut()
        .skip(from)
        .take(to_inclusive.saturating_sub(from) + 1)
    {
        *slot = true;
    }
}

fn attrs_mark_test_cfg(pending: &[Vec<String>]) -> bool {
    pending
        .iter()
        .any(|a| a.iter().any(|s| s == "cfg") && a.iter().any(|s| s == "test"))
}

fn attrs_mark_test_fn(pending: &[Vec<String>]) -> bool {
    pending
        .iter()
        .any(|a| a.iter().any(|s| s == "test" || s == "bench"))
}

fn derives_of(pending: &[Vec<String>]) -> Vec<String> {
    let mut out = Vec::new();
    for attr in pending {
        if attr.first().map(String::as_str) == Some("derive") {
            out.extend(attr.iter().skip(1).cloned());
        }
    }
    out
}

/// Parses an `impl`/`trait` header starting after the keyword: returns
/// the implemented type name (last path ident at angle-depth 0 before
/// `where` or the body brace), whether a `for` precedes it (`impl Trait
/// for Type`) and the body-brace index.
fn impl_header(toks: &[Token], start: usize, end: usize) -> (Option<String>, bool, Option<usize>) {
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut for_trait = false;
    let mut frozen = false;
    let mut j = start;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = (angle - 1).max(0),
            Tok::Punct('{') if angle == 0 => return (name, for_trait, Some(j)),
            Tok::Punct(';') if angle == 0 => return (name, for_trait, None),
            Tok::Punct('(') | Tok::Punct('[') => {
                j = matching(toks, j) + 1;
                continue;
            }
            Tok::Ident(s) if angle == 0 && !frozen => {
                if s == "where" {
                    frozen = true;
                } else if s == "dyn" || MODIFIERS.contains(&s.as_str()) {
                    // not a type name
                } else if s == "for" {
                    name = None; // the implemented type follows
                    for_trait = true;
                } else {
                    name = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (name, for_trait, None)
}

/// Parses `name: Type,` / `Variant(payload),` lists inside struct/enum
/// braces. Returns `(name, line)` pairs. Skips attributes, visibility
/// and payload tokens.
fn parse_fields(toks: &[Token], start: usize, end: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut j = start;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('#') => {
                // Field/variant attribute.
                let mut k = j + 1;
                if is_punct(toks.get(k), '!') {
                    k += 1;
                }
                if is_punct(toks.get(k), '[') {
                    j = matching(toks, k) + 1;
                } else {
                    j = k;
                }
            }
            Tok::Ident(s) if MODIFIERS.contains(&s.as_str()) => {
                j += 1;
                if is_punct(toks.get(j), '(') {
                    j = matching(toks, j) + 1;
                }
            }
            Tok::Ident(name) => {
                out.push((name.clone(), toks[j].line));
                // Skip to the separating comma at depth 0. Types and
                // variant payloads nest every delimiter kind, including
                // generics — so commas inside `<...>` do not separate.
                let mut angle = 0i32;
                j += 1;
                while j < end {
                    match &toks[j].tok {
                        Tok::Punct(',') if angle == 0 => {
                            j += 1;
                            break;
                        }
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                            j = matching(toks, j);
                        }
                        Tok::Punct('<') => angle += 1,
                        // `->` in fn-pointer types is not a closer.
                        Tok::Punct('>') if !is_punct(toks.get(j.wrapping_sub(1)), '-') => {
                            angle = (angle - 1).max(0);
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => j += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        build(&lex(src))
    }

    #[test]
    fn functions_with_impl_context() {
        let m = model(
            "impl<T: Clone> Worker<T> {\n\
             \x20   pub fn run(&self) -> Result<(), E> { self.step() }\n\
             }\n\
             fn free_standing() {}\n\
             impl Display for Report { fn fmt(&self) {} }\n",
        );
        let names: Vec<_> = m
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.in_trait_impl))
            .collect();
        assert_eq!(
            names,
            vec![
                ("run", Some("Worker"), false),
                ("free_standing", None, false),
                ("fmt", Some("Report"), true),
            ]
        );
    }

    #[test]
    fn cfg_test_mods_and_test_fns_are_masked() {
        let m = model(
            "fn lib_code() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t() { y.unwrap(); }\n\
             }\n",
        );
        let lib = m.functions.iter().find(|f| f.name == "lib_code").unwrap();
        let t = m.functions.iter().find(|f| f.name == "t").unwrap();
        assert!(!lib.is_test);
        assert!(t.is_test);
        assert!(m.in_test(t.body.0));
        assert!(!m.in_test(lib.body.0));
    }

    #[test]
    fn standalone_test_fn_attr() {
        let m = model("#[test]\nfn alone() { panic!(\"boom\"); }\n");
        assert!(m.functions[0].is_test);
        assert!(m.in_test(m.functions[0].body.0));
    }

    #[test]
    fn struct_fields_and_derives() {
        let m = model(
            "#[derive(Debug, Clone)]\n\
             pub struct Settings {\n\
             \x20   pub precision: f64,\n\
             \x20   pub(crate) map: HashMap<String, Vec<u8>>,\n\
             \x20   #[serde(default)]\n\
             \x20   resume: bool,\n\
             }\n",
        );
        let s = &m.structs[0];
        assert_eq!(s.name, "Settings");
        assert_eq!(s.derives, vec!["Debug", "Clone"]);
        let fields: Vec<_> = s.fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(fields, vec!["precision", "map", "resume"]);
    }

    #[test]
    fn enum_variants_with_payloads() {
        let m = model(
            "pub enum StorageConfig {\n\
             \x20   Perfect,\n\
             \x20   Faulty { plan: Plan, defects: Vec<(u32, u32)> },\n\
             \x20   Ecc(Defects),\n\
             }\n",
        );
        let e = &m.enums[0];
        let variants: Vec<_> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(variants, vec!["Perfect", "Faulty", "Ecc"]);
    }

    #[test]
    fn forbid_unsafe_inner_attr() {
        assert!(model("#![forbid(unsafe_code)]\nfn f() {}\n").has_forbid_unsafe);
        assert!(!model("#![warn(missing_docs)]\nfn f() {}\n").has_forbid_unsafe);
    }

    #[test]
    fn use_statements_are_masked() {
        let m = model("use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}\n");
        let hash_idxs: Vec<usize> =
            lex("use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}\n")
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "HashMap"))
                .map(|(i, _)| i)
                .collect();
        assert!(m.in_use(hash_idxs[0]));
        assert!(!m.in_use(hash_idxs[1]));
    }
}
