//! Determinism contracts: `wallclock` and `hash-order`.
//!
//! The reproduction's headline guarantee is bit-identical campaign
//! manifests at any thread/shard/backend/chaos configuration. Two
//! ambient sources can silently break that: wall-clock reads feeding
//! simulation decisions, and randomized `HashMap`/`HashSet` iteration
//! order reaching bytes on disk.

use crate::annot::AnnKind;
use crate::config::{is_test_path, under_any, LintConfig};
use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// Wall-clock / ambient-entropy sources the simulation layer must not
/// touch. `(pattern tokens, human name)`.
const CLOCK_PATHS: &[(&[&str], &str)] = &[
    (&["Instant", "now"], "Instant::now"),
    (&["SystemTime", "now"], "SystemTime::now"),
    (&["rand", "random"], "rand::random"),
];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

pub fn wallclock(cfg: &LintConfig, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if under_any(&file.rel, &cfg.wallclock_allow) || is_test_path(&file.rel) {
        return;
    }
    let hit = |file: &SourceFile, line: u32, what: &str, out: &mut Vec<Diagnostic>| {
        if !file.anns.has(line, &AnnKind::Wallclock) {
            out.push(Diagnostic::new(
                &file.rel,
                line,
                "wallclock",
                format!(
                    "`{what}` outside the allowlisted dispatch/telemetry layer — thread a \
                     seed or timestamp in from the caller, or annotate \
                     `// determinism: wallclock(<reason>)`"
                ),
            ));
        }
    };
    for i in 0..file.lexed.tokens.len() {
        if file.model.in_test(i) || file.model.in_use(i) {
            continue;
        }
        for (path, name) in CLOCK_PATHS {
            if file.ident_at(i) == Some(path[0])
                && file.path_sep_at(i + 1)
                && file.ident_at(i + 3) == Some(path[1])
            {
                hit(file, file.line_of(i), name, out);
            }
        }
        if let Some(id) = file.ident_at(i) {
            if ENTROPY_IDENTS.contains(&id) {
                hit(file, file.line_of(i), id, out);
            }
        }
    }
}

/// `HashMap`/`HashSet` in byte-identity-sensitive modules: iteration
/// order is randomized per process, so any use there must either move
/// to ordered containers or carry a written justification that its
/// order never reaches emitted bytes.
pub fn hash_order(cfg: &LintConfig, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !under_any(&file.rel, &cfg.order_sensitive) || is_test_path(&file.rel) {
        return;
    }
    for i in 0..file.lexed.tokens.len() {
        if file.model.in_test(i) || file.model.in_use(i) {
            continue;
        }
        let Some(ty @ ("HashMap" | "HashSet")) = file.ident_at(i) else {
            continue;
        };
        let line = file.line_of(i);
        if !file.anns.has(line, &AnnKind::UnorderedOk) {
            out.push(Diagnostic::new(
                &file.rel,
                line,
                "hash-order",
                format!(
                    "`{ty}` in a byte-identity-sensitive module: iteration order is \
                     randomized per process — use an ordered container or sort before \
                     emission, or annotate `// determinism: unordered-ok(<reason>)`"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn cfg() -> LintConfig {
        let mut cfg = LintConfig::bare(".");
        cfg.order_sensitive = vec![PathBuf::from("src")];
        cfg.wallclock_allow = vec![PathBuf::from("src/telemetry.rs")];
        cfg
    }

    fn wallclock_diags(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::from_source(rel, src);
        let mut out = Vec::new();
        wallclock(&cfg(), &file, &mut out);
        out
    }

    #[test]
    fn instant_now_fires_outside_allowlist() {
        let out = wallclock_diags("src/engine.rs", "fn f() { let t = Instant::now(); }\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "wallclock");
    }

    #[test]
    fn allowlisted_file_is_exempt() {
        assert!(wallclock_diags("src/telemetry.rs", "fn f() { Instant::now(); }\n").is_empty());
    }

    #[test]
    fn dispatcher_core_is_outside_the_workspace_clock_allowlist() {
        let cfg = LintConfig::workspace(".");
        let src = "fn f() { let t = Instant::now(); }\n";
        let lint = |rel: &str| {
            let mut out = Vec::new();
            wallclock(&cfg, &SourceFile::from_source(rel, src), &mut out);
            out.len()
        };
        assert_eq!(
            lint("crates/core/src/campaign/dispatch.rs"),
            0,
            "the driver"
        );
        assert_eq!(
            lint("crates/core/src/campaign/dispatch/machine.rs"),
            1,
            "the core"
        );
    }

    #[test]
    fn string_mention_does_not_fire() {
        assert!(wallclock_diags("src/a.rs", "fn f() { log(\"Instant::now bad\"); }\n").is_empty());
    }

    #[test]
    fn ambient_entropy_fires() {
        let out = wallclock_diags("src/a.rs", "fn f() { let r = thread_rng(); }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("thread_rng"));
    }

    #[test]
    fn annotated_wallclock_is_exempt() {
        let src =
            "fn f() {\n // determinism: wallclock(stall watchdog only)\n Instant::now();\n}\n";
        assert!(wallclock_diags("src/a.rs", src).is_empty());
    }

    #[test]
    fn hash_order_flags_unannotated_maps() {
        let file = SourceFile::from_source(
            "src/store.rs",
            "use std::collections::HashMap;\n\
             struct S { m: HashMap<u8, u8> }\n\
             struct T {\n\
             \x20   // determinism: unordered-ok(keyed lookups only, never iterated)\n\
             \x20   n: HashMap<u8, u8>,\n\
             }\n",
        );
        let mut out = Vec::new();
        hash_order(&cfg(), &file, &mut out);
        // The `use` line and the annotated field are exempt; the bare
        // field fires.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }
}
