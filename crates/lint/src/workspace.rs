//! Workspace loading: walk the tree, lex and model every `.rs` file,
//! and read every `Cargo.toml` into the crate dependency graph.

use std::io;
use std::path::{Path, PathBuf};

use crate::annot::{self, Annotations};
use crate::config::LintConfig;
use crate::lexer::{self, Lexed, Tok};
use crate::model::{self, FileModel};

/// One lexed, modelled source file.
pub struct SourceFile {
    /// Path relative to the lint root.
    pub rel: PathBuf,
    pub lexed: Lexed,
    pub model: FileModel,
    pub anns: Annotations,
}

impl SourceFile {
    /// Builds a file straight from source text — the unit-test and
    /// fixture entry point.
    pub fn from_source(rel: impl Into<PathBuf>, text: &str) -> Self {
        let lexed = lexer::lex(text);
        let model = model::build(&lexed);
        let anns = annot::parse(&lexed);
        SourceFile {
            rel: rel.into(),
            lexed,
            model,
            anns,
        }
    }

    /// The identifier at token index `i`, if any.
    pub fn ident_at(&self, i: usize) -> Option<&str> {
        match self.lexed.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Is token `i` the punct `c`?
    pub fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.lexed.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    /// Is `name::` or `Type::name` path punctuation at `i..i+2`?
    pub fn path_sep_at(&self, i: usize) -> bool {
        self.punct_at(i, ':') && self.punct_at(i + 1, ':')
    }

    /// 1-based line of token `i` (0 when out of range — callers only
    /// ask about tokens they just matched).
    pub fn line_of(&self, i: usize) -> u32 {
        self.lexed.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }
}

/// One package manifest: its directory (relative to the lint root),
/// its `[package] name` and the names under its `[dependencies]`.
pub struct Crate {
    pub dir: PathBuf,
    pub name: String,
    pub deps: Vec<String>,
}

impl Crate {
    /// Reads the package name and the `[dependencies]` keys of one
    /// `Cargo.toml`; `None` for a manifest without a `[package]` name (a
    /// virtual workspace root). Dev- and build-dependencies are skipped:
    /// library code cannot call into them.
    fn parse(dir: PathBuf, toml: &str) -> Option<Crate> {
        let (mut name, mut deps) = (None, Vec::new());
        let mut section = "";
        for line in toml.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']');
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            match section {
                "package" if key == "name" => {
                    name = Some(value.trim().trim_matches('"').to_string());
                }
                "dependencies" => {
                    // `dsp.workspace = true` names the dependency `dsp`.
                    deps.push(key.split('.').next().unwrap_or(key).to_string());
                }
                _ => {}
            }
        }
        Some(Crate {
            dir,
            name: name?,
            deps,
        })
    }
}

/// Every `.rs` file under the configured root, in sorted order, and
/// every crate whose manifest lies under it.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub crates: Vec<Crate>,
}

impl Workspace {
    pub fn load(cfg: &LintConfig) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(&cfg.root, &cfg.root, cfg, &mut paths)?;
        paths.sort();
        let mut sources = Vec::with_capacity(paths.len());
        for rel in paths {
            let text = std::fs::read_to_string(cfg.root.join(&rel))?;
            sources.push((rel, text));
        }
        Ok(Self::build(sources))
    }

    /// In-memory workspace for tests. An entry whose file name is
    /// `Cargo.toml` is a manifest; every other entry is Rust source.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Self::build(
            sources
                .iter()
                .map(|(rel, text)| (PathBuf::from(rel), text.to_string())),
        )
    }

    fn build(sources: impl IntoIterator<Item = (PathBuf, String)>) -> Workspace {
        let (mut files, mut crates) = (Vec::new(), Vec::new());
        for (rel, text) in sources {
            if rel.file_name().is_some_and(|f| f == "Cargo.toml") {
                let dir = rel.parent().unwrap_or(Path::new("")).to_path_buf();
                crates.extend(Crate::parse(dir, &text));
            } else {
                files.push(SourceFile::from_source(rel, &text));
            }
        }
        Workspace { files, crates }
    }

    pub fn file(&self, rel: &Path) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Index into `crates` of the crate owning `rel`: the one whose
    /// directory is the longest prefix of the path.
    pub fn crate_of(&self, rel: &Path) -> Option<usize> {
        (0..self.crates.len())
            .filter(|&c| rel.starts_with(&self.crates[c].dir))
            .max_by_key(|&c| self.crates[c].dir.components().count())
    }

    /// Can code in crate `from` call a function in crate `to`? Only
    /// within one crate or into a direct `[dependencies]` entry. Files
    /// outside every manifest are one anonymous crate.
    pub fn may_call(&self, from: Option<usize>, to: Option<usize>) -> bool {
        match (from, to) {
            (Some(f), Some(t)) => f == t || self.crates[f].deps.contains(&self.crates[t].name),
            (f, t) => f == t,
        }
    }
}

fn walk(root: &Path, dir: &Path, cfg: &LintConfig, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if crate::config::under_any(&rel, &cfg.skip) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            walk(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(rel);
        }
    }
    Ok(())
}
