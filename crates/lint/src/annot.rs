//! Inline-annotation escape hatches.
//!
//! Every lint in this crate can be silenced locally, but only with a
//! written reason — the annotation grammar *requires* a non-empty
//! argument, so the decision is recorded next to the code it covers:
//!
//! * `// identity: excluded(<reason>)` — field deliberately left out of
//!   the campaign fingerprint (operational knob, display label, ...).
//! * `// identity: hashed(<reason>)` — field enters the fingerprint by
//!   a route the linter cannot see (e.g. rendered by a helper the
//!   fingerprint function calls).
//! * `// determinism: wallclock(<reason>)` — wall-clock read that never
//!   influences simulation results (telemetry timing, stall watchdogs).
//! * `// determinism: unordered-ok(<reason>)` — `HashMap`/`HashSet`
//!   whose iteration order provably never reaches bytes on disk
//!   (keyed lookups only, order-independent folds, ...).
//! * `// alloc: cold(<reason>)` — allocation on a hot-path-reachable
//!   line (or, on a `fn` signature, the whole function) that runs only
//!   on cold branches such as setup or error paths.
//! * `// lint: allow(no-unwrap, <reason>)` / `// lint: allow(no-panic,
//!   <reason>)` — provably-infallible unwrap or deliberate fatal exit.
//! * `// SAFETY: <justification>` — required above every `unsafe`.
//!
//! An annotation attaches to the code line it trails, or — when it
//! stands on a line of its own — to the next code line below it.

use crate::lexer::Lexed;

#[derive(Debug, Clone, PartialEq)]
pub enum AnnKind {
    IdentityExcluded,
    IdentityHashed,
    Wallclock,
    UnorderedOk,
    AllocCold,
    Allow(String),
    Safety,
}

#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based code line the annotation covers.
    pub line: u32,
    pub kind: AnnKind,
    #[allow(dead_code)]
    pub reason: String,
}

/// Parsed annotations of one file, plus syntax problems found while
/// parsing (reported under the `annotation-syntax` lint).
#[derive(Debug, Default)]
pub struct Annotations {
    items: Vec<Annotation>,
    pub problems: Vec<(u32, String)>,
}

impl Annotations {
    /// Is `kind` present on `line`?
    pub fn has(&self, line: u32, kind: &AnnKind) -> bool {
        self.items.iter().any(|a| a.line == line && a.kind == *kind)
    }

    /// Is an `allow(<lint>)` present on `line`?
    pub fn allows(&self, line: u32, lint: &str) -> bool {
        self.has(line, &AnnKind::Allow(lint.to_string()))
    }
}

/// Annotation prefixes and their recognised modes.
const FAMILIES: &[(&str, &[&str])] = &[
    ("identity:", &["excluded", "hashed"]),
    ("determinism:", &["wallclock", "unordered-ok"]),
    ("alloc:", &["cold"]),
    ("lint:", &["allow"]),
];

pub fn parse(lexed: &Lexed) -> Annotations {
    let mut out = Annotations::default();
    for comment in &lexed.comments {
        for (offset, raw) in comment.text.lines().enumerate() {
            // Doc comments arrive as `/ text` or `! text`; strip the
            // marker and any `*` continuation of block comments.
            let text = raw.trim_start_matches(['/', '!', '*', ' ', '\t']).trim();
            let line = comment.line + offset as u32;
            parse_line(text, line, lexed, &mut out);
        }
    }
    out.items.sort_by_key(|a| a.line);
    out.problems.sort();
    out
}

fn parse_line(text: &str, comment_line: u32, lexed: &Lexed, out: &mut Annotations) {
    if let Some(rest) = text.strip_prefix("SAFETY:") {
        if rest.trim().is_empty() {
            out.problems.push((
                comment_line,
                "`SAFETY:` comment has no justification".into(),
            ));
        } else {
            out.items.push(Annotation {
                line: attach_line(comment_line, lexed),
                kind: AnnKind::Safety,
                reason: rest.trim().to_string(),
            });
        }
        return;
    }
    for (family, modes) in FAMILIES {
        let Some(rest) = text.strip_prefix(family) else {
            continue;
        };
        let rest = rest.trim();
        let Some((mode, args)) = split_call(rest) else {
            out.problems.push((
                comment_line,
                format!("malformed `{family}` annotation: expected `{family} <mode>(<reason>)`"),
            ));
            return;
        };
        if !modes.contains(&mode) {
            out.problems.push((
                comment_line,
                format!(
                    "unknown `{family}` mode `{mode}` (expected one of: {})",
                    modes.join(", ")
                ),
            ));
            return;
        }
        let kind = match (*family, mode) {
            ("identity:", "excluded") => AnnKind::IdentityExcluded,
            ("identity:", "hashed") => AnnKind::IdentityHashed,
            ("determinism:", "wallclock") => AnnKind::Wallclock,
            ("determinism:", "unordered-ok") => AnnKind::UnorderedOk,
            ("alloc:", "cold") => AnnKind::AllocCold,
            _ => {
                // lint: allow(<lint-id>, <reason>)
                let Some((lint_id, reason)) = args.split_once(',') else {
                    out.problems.push((
                        comment_line,
                        "`lint: allow` needs a lint id and a reason: \
                         `lint: allow(<lint-id>, <reason>)`"
                            .into(),
                    ));
                    return;
                };
                if reason.trim().is_empty() {
                    out.problems
                        .push((comment_line, "`lint: allow` reason is empty".into()));
                    return;
                }
                out.items.push(Annotation {
                    line: attach_line(comment_line, lexed),
                    kind: AnnKind::Allow(lint_id.trim().to_string()),
                    reason: reason.trim().to_string(),
                });
                return;
            }
        };
        if args.trim().is_empty() {
            out.problems.push((
                comment_line,
                format!("`{family} {mode}(...)` requires a non-empty reason"),
            ));
            return;
        }
        out.items.push(Annotation {
            line: attach_line(comment_line, lexed),
            kind,
            reason: args.trim().to_string(),
        });
        return;
    }
}

/// Splits `mode(args)` into `(mode, args)`; the closing paren is the
/// *last* one on the line so reasons may contain parentheses.
fn split_call(text: &str) -> Option<(&str, &str)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    if close < open {
        return None;
    }
    let mode = text[..open].trim();
    if mode.is_empty() || mode.contains(' ') {
        return None;
    }
    Some((mode, &text[open + 1..close]))
}

/// The code line an annotation on `comment_line` covers: the same line
/// if it trails code, otherwise the next code-bearing line below.
fn attach_line(comment_line: u32, lexed: &Lexed) -> u32 {
    if lexed.is_code_line(comment_line) {
        return comment_line;
    }
    (comment_line + 1..=lexed.lines)
        .find(|&l| lexed.is_code_line(l))
        .unwrap_or(comment_line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Annotations {
        parse(&lex(src))
    }

    #[test]
    fn trailing_annotation_attaches_to_its_line() {
        let a = parsed("let h: HashMap<u8, u8>; // determinism: unordered-ok(keyed gets only)\n");
        assert!(a.has(1, &AnnKind::UnorderedOk));
        assert!(a.problems.is_empty());
    }

    #[test]
    fn standalone_annotation_attaches_below() {
        let a = parsed(
            "// identity: excluded(operational knob, never keys the store)\n\
             // spans a second comment line\n\
             pub resume: bool,\n",
        );
        assert!(a.has(3, &AnnKind::IdentityExcluded));
    }

    #[test]
    fn empty_reason_is_a_problem() {
        let a = parsed("// alloc: cold()\nlet v = Vec::new();\n");
        assert!(!a.has(2, &AnnKind::AllocCold));
        assert_eq!(a.problems.len(), 1);
    }

    #[test]
    fn unknown_mode_is_a_problem() {
        let a = parsed("// determinism: trust-me(why not)\nlet x = 1;\n");
        assert_eq!(a.problems.len(), 1);
        assert!(a.problems[0].1.contains("unknown"));
    }

    #[test]
    fn lint_allow_carries_its_id() {
        let a = parsed("x.unwrap(); // lint: allow(no-unwrap, slice length checked above)\n");
        assert!(a.allows(1, "no-unwrap"));
        assert!(!a.allows(1, "no-panic"));
    }

    #[test]
    fn lint_allow_without_reason_is_a_problem() {
        let a = parsed("x.unwrap(); // lint: allow(no-unwrap)\n");
        assert!(!a.allows(1, "no-unwrap"));
        assert_eq!(a.problems.len(), 1);
    }

    #[test]
    fn safety_comment_above_unsafe() {
        let a = parsed("// SAFETY: index bounded by the loop above\nunsafe { go(i) }\n");
        assert!(a.has(2, &AnnKind::Safety));
        let bad = parsed("// SAFETY:\nunsafe { go(i) }\n");
        assert_eq!(bad.problems.len(), 1);
    }

    #[test]
    fn reasons_may_contain_parens() {
        let a = parsed("// determinism: wallclock(telemetry only (never hashed))\nlet t = 0;\n");
        assert!(a.has(2, &AnnKind::Wallclock));
        assert!(a.problems.is_empty());
    }
}
