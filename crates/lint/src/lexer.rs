//! A lightweight Rust lexer — just enough structure for contract
//! linting: identifiers, punctuation, literals and comments, each tagged
//! with its 1-based source line.
//!
//! The lexer deliberately does **not** build an AST. Every lint in this
//! crate works on token patterns plus a shallow item model
//! ([`crate::model`]), which keeps the linter dependency-free (no `syn`,
//! no registry access) and fast enough to run on every push.
//!
//! What it must get right, because the lints depend on it:
//!
//! * comments are stripped from the token stream but **recorded** with
//!   their lines — annotations (`// identity: excluded(...)`,
//!   `// SAFETY: ...`) live in comments;
//! * string literals (including raw strings) are recorded as single
//!   [`Tok::Str`] tokens so `Instant::now` inside an error message never
//!   trips the determinism lint, while the telemetry lint can still see
//!   event-name literals;
//! * `'a'` (char) is distinguished from `'a` (lifetime).

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`.`, `:`, `(`, `!`, …).
    Punct(char),
    /// String literal — the *contents*, escapes left as written.
    Str(String),
    /// Character or byte literal (contents irrelevant to the lints).
    Char,
    /// Lifetime (without the leading `'`).
    Lifetime(String),
    /// Numeric literal, as written.
    Num(String),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A comment with the 1-based line it starts on. Block comments keep
/// their full text; the annotation parser scans per-line.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// For every 1-based line: does any code token start on it? Lines
    /// holding only comments/whitespace stay `false` — the annotation
    /// attachment walk uses this to find the comment block above an
    /// item.
    pub code_lines: Vec<bool>,
    /// Total line count.
    pub lines: u32,
}

impl Lexed {
    /// Whether 1-based `line` holds any code token.
    pub fn is_code_line(&self, line: u32) -> bool {
        self.code_lines.get(line as usize).copied().unwrap_or(false)
    }
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed {
        lines: src.lines().count() as u32,
        ..Lexed::default()
    };
    out.code_lines = vec![false; out.lines as usize + 2];
    let mut i = 0usize;
    let mut line = 1u32;

    let push = |out: &mut Lexed, tok: Tok, line: u32| {
        if let Some(slot) = out.code_lines.get_mut(line as usize) {
            *slot = true;
        }
        out.tokens.push(Token { tok, line });
    };

    // `i` stays on a char boundary: every arm consumes whole chars.
    while let Some(c) = src[i..].chars().next() {
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += c.len_utf8(),
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..j].to_string(),
                });
                i = j;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, per Rust.
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..end].to_string(),
                });
                i = j;
            }
            '"' => {
                let (s, consumed, newlines) = lex_string(&src[i..]);
                push(&mut out, Tok::Str(s), line);
                line += newlines;
                i += consumed;
            }
            'r' | 'b' if starts_raw_or_byte_string(&src[i..]) => {
                let (tok, consumed, newlines) = lex_prefixed_string(&src[i..]);
                push(&mut out, tok, line);
                line += newlines;
                i += consumed;
            }
            '\'' => {
                let (tok, consumed) = lex_quote(&src[i..]);
                push(&mut out, tok, line);
                i += consumed;
            }
            c if c.is_ascii_digit() => {
                let (n, consumed) = lex_number(&src[i..]);
                push(&mut out, Tok::Num(n), line);
                i += consumed;
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &src[i..];
                let len = rest
                    .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                push(&mut out, Tok::Ident(rest[..len].to_string()), line);
                i += len;
            }
            c => {
                push(&mut out, Tok::Punct(c), line);
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Does `rest` (starting with `r` or `b`) open a raw/byte string rather
/// than an identifier like `r#raw_ident` or plain `radius`?
fn starts_raw_or_byte_string(rest: &str) -> bool {
    let b = rest.as_bytes();
    match b[0] {
        b'r' => {
            // r"..." or r#"..."# (any number of #).
            let mut j = 1;
            while b.get(j) == Some(&b'#') {
                j += 1;
            }
            // r#ident is a raw identifier, which has no quote after the #.
            b.get(j) == Some(&b'"')
        }
        b'b' => match b.get(1) {
            Some(b'"') => true,
            Some(b'\'') => true,
            Some(b'r') => {
                let mut j = 2;
                while b.get(j) == Some(&b'#') {
                    j += 1;
                }
                b.get(j) == Some(&b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Lexes a plain `"..."` string starting at `rest[0] == '"'`. Returns
/// (contents, bytes consumed, newlines crossed).
fn lex_string(rest: &str) -> (String, usize, u32) {
    let b = rest.as_bytes();
    let mut j = 1;
    let mut newlines = 0;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                // A line-continuation escape (`\` at end of line) still
                // crosses a newline — losing it would shift every
                // diagnostic below the string.
                if b.get(j + 1) == Some(&b'\n') {
                    newlines += 1;
                }
                j += 2;
            }
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b'"' => {
                return (rest[1..j].to_string(), j + 1, newlines);
            }
            _ => j += 1,
        }
    }
    (rest[1..].to_string(), b.len(), newlines)
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` starting at
/// `rest[0]`. Returns (token, bytes consumed, newlines crossed).
fn lex_prefixed_string(rest: &str) -> (Tok, usize, u32) {
    let b = rest.as_bytes();
    let mut j = 0;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) == Some(&b'\'') {
        // Byte char literal b'x'.
        let (_, consumed) = lex_quote(&rest[j..]);
        return (Tok::Char, j + consumed, 0);
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(b.get(j), Some(&b'"'));
    j += 1;
    let start = j;
    let mut newlines = 0;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
            continue;
        }
        if !raw && b[j] == b'\\' {
            if b.get(j + 1) == Some(&b'\n') {
                newlines += 1;
            }
            j += 2;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while seen < hashes && b.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (Tok::Str(rest[start..j].to_string()), k, newlines);
            }
        }
        j += 1;
    }
    (Tok::Str(rest[start..].to_string()), b.len(), newlines)
}

/// Lexes a `'`-introduced token: char literal or lifetime. Returns
/// (token, bytes consumed). Walks `char`s, so a literal or lifetime of
/// any UTF-8 width ends on a char boundary.
fn lex_quote(rest: &str) -> (Tok, usize) {
    let body = &rest[1..];
    match body.chars().next() {
        Some('\\') => {
            // Escaped char literal: skip the escaped character, then
            // scan to the closing quote (`'\''` closes on the third).
            let b = rest.as_bytes();
            let mut j = 3;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            (Tok::Char, (j + 1).min(b.len()))
        }
        Some(c) if body[c.len_utf8()..].starts_with('\'') => (Tok::Char, 2 + c.len_utf8()),
        Some(c) if c.is_alphanumeric() || c == '_' => {
            let end = body
                .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                .unwrap_or(body.len());
            (Tok::Lifetime(body[..end].to_string()), 1 + end)
        }
        _ => (Tok::Punct('\''), 1),
    }
}

/// Lexes a numeric literal (integers, floats, suffixes, `1.0e-3`).
/// Careful with ranges: `0..n` must stop the number at `0`.
fn lex_number(rest: &str) -> (String, usize) {
    let b = rest.as_bytes();
    let mut j = 0;
    while j < b.len() {
        let c = b[j] as char;
        if c.is_alphanumeric() || c == '_' {
            j += 1;
        } else if c == '.' {
            // `1.0` continues the number; `0..` is a range.
            match b.get(j + 1) {
                Some(&n) if (n as char).is_ascii_digit() => j += 1,
                _ => break,
            }
        } else if (c == '+' || c == '-') && j > 0 && matches!(b[j - 1], b'e' | b'E') {
            j += 1;
        } else {
            break;
        }
    }
    (rest[..j].to_string(), j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_recorded_not_tokenized() {
        let l = lex("let x = 1; // Instant::now inside a comment\n/* and\nhere */ let y;");
        assert!(idents("let x = 1; // Instant::now\nlet y;")
            .iter()
            .all(|i| i != "Instant"));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("Instant::now"));
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn strings_are_single_tokens() {
        let l = lex(r#"emit("Instant::now", r#x);"#);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Str(_)))
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(!idents(r#"let m = "Instant::now";"#).contains(&"Instant".to_string()));
    }

    #[test]
    fn raw_and_byte_strings() {
        let l = lex(r##"let a = r#"has "quotes" and Instant::now"#; let b = b"bytes";"##);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("Instant::now"));
        assert_eq!(strs[1], "bytes");
    }

    #[test]
    fn chars_vs_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .collect();
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Char))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn non_ascii_chars_and_lifetimes() {
        let toks = |src: &str| {
            lex(src)
                .tokens
                .into_iter()
                .map(|t| t.tok)
                .collect::<Vec<_>>()
        };
        for lit in ["'é'", "'字'", "'\\u{e9}'", "'a'", "'\\''", "'🦀'"] {
            assert_eq!(
                toks(&format!("let c = {lit}; x")),
                [
                    Tok::Ident("let".into()),
                    Tok::Ident("c".into()),
                    Tok::Punct('='),
                    Tok::Char,
                    Tok::Punct(';'),
                    Tok::Ident("x".into()),
                ],
                "{lit}"
            );
        }
        for (src, name) in [
            ("&'static str", "static"),
            ("&'é str", "é"),
            ("&'a_字 str", "a_字"),
        ] {
            assert_eq!(
                toks(src),
                [
                    Tok::Punct('&'),
                    Tok::Lifetime(name.into()),
                    Tok::Ident("str".into()),
                ],
                "{src}"
            );
        }
        // Non-ASCII identifiers and punctuation lex whole.
        assert_eq!(
            toks("let é字_1 = a→b;"),
            [
                Tok::Ident("let".into()),
                Tok::Ident("é字_1".into()),
                Tok::Punct('='),
                Tok::Ident("a".into()),
                Tok::Punct('→'),
                Tok::Ident("b".into()),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn numbers_stop_at_ranges() {
        let l = lex("for i in 0..10 { let f = 1.5e-3; }");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
    }

    #[test]
    fn line_continuation_strings_keep_line_numbers() {
        // `\`-continued string literals cross a newline that must still
        // advance the line counter, or every token below drifts.
        let src = "let a = \"one \\\n two\";\nlet b = 1;\n\"plain\nmultiline\";\nlet c = 2;";
        let l = lex(src);
        let line_of = |name: &str| {
            l.tokens
                .iter()
                .find(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
                .map(|t| t.line)
        };
        assert_eq!(line_of("b"), Some(3));
        assert_eq!(line_of("c"), Some(6));
    }

    #[test]
    fn code_lines_track_tokens() {
        let l = lex("let a = 1;\n// only a comment\n\nlet b = 2;");
        assert!(l.is_code_line(1));
        assert!(!l.is_code_line(2));
        assert!(!l.is_code_line(3));
        assert!(l.is_code_line(4));
    }
}
