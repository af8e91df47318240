//! `hot-path-alloc`: the static complement to `tests/alloc_regression.rs`.
//!
//! Walks the call graph from the decode hot-path roots
//! (`simulate_packet_with`, `simulate_wave_with`, `decode_batch`) and
//! flags heap-allocating expressions in every reachable function unless
//! the line — or the whole function, via an annotation on its `fn`
//! signature — is marked `// alloc: cold(<reason>)`.
//!
//! Resolution is name-based and deliberately conservative: qualified
//! calls (`Type::func`) resolve through their impl block; bare-name
//! calls resolve to every function of that name *except* for
//! ubiquitous std-like method names, which would connect everything to
//! everything. Either way an edge into a free function or an inherent
//! method only leads into the caller's own crate or a crate its
//! `Cargo.toml` lists under `[dependencies]`, so a `dsp` method named
//! `step` never reaches `core`'s `Dispatcher::step`. Methods of `impl
//! Trait for Type` blocks are exempt: a dependency reaches them through
//! a generic or `dyn` call (`hspa-phy`'s decode pool calling `admit` on
//! `core`'s `HarqFeed`). Allocation sites those misses might hide are
//! still caught wherever the walk does reach, and the runtime
//! allocation regression test backstops the rest.

use std::collections::{BTreeMap, BTreeSet};

use crate::annot::AnnKind;
use crate::config::{is_test_path, under_any, LintConfig};
use crate::diag::Diagnostic;
use crate::lints::KEYWORDS;
use crate::workspace::{SourceFile, Workspace};

/// Method/function names too common to resolve by bare name.
const STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "collect",
    "extend",
    "write",
    "write_all",
    "read",
    "flush",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "hash",
    "drop",
    "from",
    "into",
    "try_from",
    "try_into",
    "to_string",
    "to_vec",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "min",
    "max",
    "abs",
    "sum",
    "clamp",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "drain",
    "clear",
    "take",
    "get_or_insert_with",
    "set",
    "send",
    "recv",
    "join",
    "lock",
    "load",
    "store",
    "open",
    "close",
    "run",
    "main",
    "build",
    "with_capacity",
    "reserve",
    "split",
    "filter",
    "fold",
    "zip",
    "enumerate",
    "rev",
    "chain",
    "count",
    "position",
    "find",
    "any",
    "all",
    "name",
    "fill",
    "copy_from_slice",
    "swap",
    "resize",
    "truncate",
    "last",
    "first",
];

/// Heap-allocating `Type::func` paths.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];
/// Heap-allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Heap-allocating (or heap-cloning) method calls.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FnRef {
    file: usize,
    func: usize,
}

pub fn check(cfg: &LintConfig, ws: &Workspace, out: &mut Vec<Diagnostic>) {
    if cfg.hot_path_roots.is_empty() {
        return;
    }

    // Function index: bare name and `Type::name`.
    let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
    let mut by_qual: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if is_test_path(&file.rel) {
            continue;
        }
        if !cfg.hot_path_scope.is_empty() && !under_any(&file.rel, &cfg.hot_path_scope) {
            continue;
        }
        for (gi, func) in file.model.functions.iter().enumerate() {
            if func.is_test || func.name.is_empty() {
                continue;
            }
            let r = FnRef { file: fi, func: gi };
            by_name.entry(&func.name).or_default().push(r);
            if let Some(ty) = &func.impl_type {
                by_qual
                    .entry(format!("{ty}::{}", func.name))
                    .or_default()
                    .push(r);
            }
        }
    }

    let krate: Vec<Option<usize>> = ws.files.iter().map(|f| ws.crate_of(&f.rel)).collect();
    let reachable = |from: FnRef, to: &FnRef| {
        ws.files[to.file].model.functions[to.func].in_trait_impl
            || ws.may_call(krate[from.file], krate[to.file])
    };

    let mut queue: Vec<(FnRef, Vec<String>)> = Vec::new();
    for root in &cfg.hot_path_roots {
        for &r in by_name.get(root.as_str()).into_iter().flatten() {
            queue.push((r, vec![root.clone()]));
        }
    }

    let mut visited: BTreeSet<FnRef> = BTreeSet::new();
    let mut reported: BTreeSet<(usize, u32)> = BTreeSet::new();
    while let Some((r, chain)) = queue.pop() {
        if !visited.insert(r) {
            continue;
        }
        let file = &ws.files[r.file];
        let func = &file.model.functions[r.func];
        // A fn-level `alloc: cold` prunes the whole subtree: the
        // function is declared off the hot path.
        if file.anns.has(func.sig_line, &AnnKind::AllocCold) {
            continue;
        }
        let pushed = queue.len();
        scan_body(
            file,
            r,
            func,
            &chain,
            &by_name,
            &by_qual,
            &mut queue,
            &mut reported,
            out,
        );
        // Keep only the edges this function's crate can actually call:
        // its own crate, its dependencies, or a trait impl anywhere.
        let edges = queue.split_off(pushed);
        queue.extend(edges.into_iter().filter(|(callee, _)| reachable(r, callee)));
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_body(
    file: &SourceFile,
    r: FnRef,
    func: &crate::model::Function,
    chain: &[String],
    by_name: &BTreeMap<&str, Vec<FnRef>>,
    by_qual: &BTreeMap<String, Vec<FnRef>>,
    queue: &mut Vec<(FnRef, Vec<String>)>,
    reported: &mut BTreeSet<(usize, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let (start, end) = func.body;
    for i in start..end {
        // Allocation sites.
        let alloc: Option<String> = if let Some(ty) = file.ident_at(i) {
            if file.path_sep_at(i + 1) {
                let method = file.ident_at(i + 3);
                ALLOC_PATHS
                    .iter()
                    .find(|(t, m)| *t == ty && Some(*m) == method)
                    .map(|(t, m)| format!("{t}::{m}"))
            } else if file.punct_at(i + 1, '!') && ALLOC_MACROS.contains(&ty) {
                Some(format!("{ty}!"))
            } else {
                None
            }
        } else if file.punct_at(i, '.') && file.punct_at(i + 2, '(') {
            file.ident_at(i + 1)
                .filter(|m| ALLOC_METHODS.contains(m))
                .map(|m| format!(".{m}()"))
        } else {
            None
        };
        if let Some(what) = alloc {
            let line = file.line_of(i);
            if !file.anns.has(line, &AnnKind::AllocCold) && reported.insert((r.file, line)) {
                out.push(Diagnostic::new(
                    &file.rel,
                    line,
                    "hot-path-alloc",
                    format!(
                        "`{what}` in `{}`, reachable from the decode hot path ({}) — hoist \
                         the allocation into setup, or annotate \
                         `// alloc: cold(<reason>)`",
                        func.name,
                        render_chain(chain),
                    ),
                ));
            }
        }

        // Call edges.
        let Some(name) = file.ident_at(i) else {
            continue;
        };
        if !file.punct_at(i + 1, '(') || KEYWORDS.contains(&name) {
            continue;
        }
        let next_chain = || {
            let mut c = chain.to_vec();
            c.push(name.to_string());
            c
        };
        // `Qual::name(...)` — resolve through the impl index only.
        if i >= 3 && file.path_sep_at(i - 2) {
            if let Some(qual) = file.ident_at(i - 3) {
                if let Some(refs) = by_qual.get(&format!("{qual}::{name}")) {
                    for &callee in refs {
                        queue.push((callee, next_chain()));
                    }
                    continue;
                }
                if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
                    // A type we did not index (std, shims): no edge.
                    continue;
                }
                // Module-qualified (`hash::fnv1a64`): fall through to
                // bare-name resolution.
            }
        }
        if STOPLIST.contains(&name) {
            continue;
        }
        for &callee in by_name.get(name).into_iter().flatten() {
            queue.push((callee, next_chain()));
        }
    }
}

fn render_chain(chain: &[String]) -> String {
    const MAX: usize = 6;
    if chain.len() <= MAX {
        chain.join(" → ")
    } else {
        format!(
            "{} → … → {}",
            chain[..2].join(" → "),
            chain[chain.len() - 2..].join(" → ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        let mut cfg = LintConfig::bare(".");
        cfg.hot_path_roots = vec!["simulate_packet_with".into()];
        cfg
    }

    fn diags(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(&[("src/lib.rs", src)]);
        let mut out = Vec::new();
        check(&cfg(), &ws, &mut out);
        out
    }

    #[test]
    fn direct_allocation_in_root_fires() {
        let out = diags("fn simulate_packet_with() { let v = Vec::new(); }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Vec::new"));
    }

    #[test]
    fn allocation_in_callee_fires_with_chain() {
        let out = diags(
            "fn simulate_packet_with() { step(); }\n\
             fn step() { inner(); }\n\
             fn inner() { let s = format!(\"x{}\", 1); }\n",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0]
            .message
            .contains("simulate_packet_with → step → inner"));
    }

    #[test]
    fn unreachable_allocation_is_ignored() {
        assert!(diags("fn setup() { let v = vec![0u8; 64]; }\n").is_empty());
    }

    #[test]
    fn line_annotation_silences() {
        let src = "fn simulate_packet_with() {\n\
                   \x20   // alloc: cold(error path only)\n\
                   \x20   let v = Vec::new();\n\
                   }\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn fn_annotation_prunes_subtree() {
        let src = "fn simulate_packet_with() { report(); }\n\
                   // alloc: cold(diagnostics, runs once per campaign)\n\
                   fn report() { helper(); }\n\
                   fn helper() { let v = Vec::new(); }\n";
        // `helper` is only reachable through the pruned `report`.
        assert!(diags(src).is_empty());
    }

    #[test]
    fn qualified_calls_resolve_through_impls() {
        let out = diags(
            "fn simulate_packet_with() { Decoder::prepare(); }\n\
             struct Decoder;\n\
             impl Decoder { fn prepare() { let b = Box::new(0u8); } }\n",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Box::new"));
    }

    #[test]
    fn stoplisted_bare_names_do_not_connect() {
        // `new` is too common to resolve by bare name: the allocation
        // inside an unrelated constructor must not be attributed to the
        // hot path through it.
        let out = diags(
            "fn simulate_packet_with() { let x = new(); }\n\
             struct Other;\n\
             impl Other { fn new() { let v = Vec::new(); } }\n",
        );
        assert!(out.is_empty());
    }

    /// Lints a `dsp`-like crate `dep` and a `core`-like crate `app` that
    /// depends on it.
    fn two_crates(dep_src: &str, app_src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(&[
            ("dep/Cargo.toml", "[package]\nname = \"dep\"\n"),
            ("dep/src/lib.rs", dep_src),
            (
                "app/Cargo.toml",
                "[package]\nname = \"app\"\n\n[dependencies]\ndep.workspace = true\n",
            ),
            ("app/src/lib.rs", app_src),
        ]);
        let mut out = Vec::new();
        check(&cfg(), &ws, &mut out);
        out
    }

    const CALLS_STEP: &str = "fn simulate_packet_with() { let s = step(); }\n";
    const ALLOC_STEP: &str = "pub fn step() -> Vec<u8> { Vec::new() }\n";

    #[test]
    fn bare_names_do_not_resolve_into_dependent_crates() {
        // `dep` cannot call `app`, so `app`'s allocating `step` is not
        // on `dep`'s hot path.
        assert!(two_crates(CALLS_STEP, ALLOC_STEP).is_empty());
    }

    #[test]
    fn bare_names_resolve_into_dependencies() {
        let out = two_crates(ALLOC_STEP, CALLS_STEP);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, std::path::Path::new("dep/src/lib.rs"));
        assert!(out[0].message.contains("simulate_packet_with → step"));
    }

    #[test]
    fn trait_impls_in_dependent_crates_stay_reachable() {
        // The decode pool shape: `dep` declares the trait and calls it
        // generically; `app` implements it. The call runs `app`'s code.
        let dep = "pub trait Feed { fn admit(&mut self); }\n\
                   fn simulate_packet_with<F: Feed>(feed: &mut F) { feed.admit(); }\n";
        let app = "struct HarqFeed;\n\
                   impl dep::Feed for HarqFeed { fn admit(&mut self) { let v = Vec::new(); } }\n";
        let out = two_crates(dep, app);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, std::path::Path::new("app/src/lib.rs"));
        assert!(out[0].message.contains("simulate_packet_with → admit"));

        // An inherent method of the same name stays out of reach.
        let app = "struct HarqFeed;\n\
                   impl HarqFeed { fn admit(&mut self) { let v = Vec::new(); } }\n";
        assert!(two_crates(dep, app).is_empty());
    }

    #[test]
    fn test_functions_are_not_roots() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   \x20   fn simulate_packet_with() { let v = Vec::new(); }\n\
                   }\n";
        assert!(diags(src).is_empty());
    }
}
