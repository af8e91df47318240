//! Lint configuration: which files each contract applies to, where the
//! fingerprint lives, and which functions root the hot path.
//!
//! [`LintConfig::workspace`] encodes the repository's real contract
//! surface; [`LintConfig::bare`] starts empty for fixture tests.

use std::path::{Path, PathBuf};

/// How a type participates in campaign identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdentityMode {
    /// Field-by-field coverage: each field must appear in a fingerprint
    /// function body (identifier or format placeholder) or carry an
    /// `identity:` annotation.
    TokenCoverage,
    /// The whole value enters the fingerprint through its `Debug` repr
    /// (`{:?}`): the type must derive `Debug` and must not have a
    /// manual `Debug` impl that could skip fields.
    DebugHashed,
}

#[derive(Debug, Clone)]
pub struct IdentityStruct {
    pub name: String,
    pub mode: IdentityMode,
}

/// Telemetry-catalog lint inputs.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// File declaring the metric enums and their `ALL` catalogs.
    pub file: PathBuf,
    /// Metric enum names (`Counter`, `Gauge`, ...).
    pub enums: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root; every path below is relative to it.
    pub root: PathBuf,
    /// Relative path prefixes excluded from the walk entirely.
    pub skip: Vec<PathBuf>,
    /// File holding the fingerprint functions (identity lint).
    pub fingerprint_file: Option<PathBuf>,
    /// Fingerprint function names whose bodies define "hashed".
    pub fingerprint_fns: Vec<String>,
    /// Types whose identity participation is checked.
    pub identity_structs: Vec<IdentityStruct>,
    /// Relative prefixes where wall-clock/ambient randomness is legal
    /// (telemetry, dispatch supervision, CLI layers).
    pub wallclock_allow: Vec<PathBuf>,
    /// Relative prefixes whose output reaches bytes on disk: `HashMap`/
    /// `HashSet` use there must be justified.
    pub order_sensitive: Vec<PathBuf>,
    /// Hot-path root function names for the no-alloc call-graph walk.
    pub hot_path_roots: Vec<String>,
    /// Relative prefixes the call-graph walk may traverse. Empty means
    /// everywhere; the workspace config restricts it to the simulation
    /// crates so bare-name resolution cannot leak into tooling or CLI
    /// code that shares common function names.
    pub hot_path_scope: Vec<PathBuf>,
    /// Relative prefixes where `.unwrap()`/`.expect()`/`panic!` are
    /// forbidden in library code.
    pub hardened: Vec<PathBuf>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_crates: Vec<PathBuf>,
    /// Telemetry catalog inputs, if the tree has one.
    pub telemetry: Option<TelemetryConfig>,
}

impl LintConfig {
    /// An empty config rooted at `root` — fixtures opt into one lint at
    /// a time.
    pub fn bare(root: impl Into<PathBuf>) -> Self {
        LintConfig {
            root: root.into(),
            skip: Vec::new(),
            fingerprint_file: None,
            fingerprint_fns: Vec::new(),
            identity_structs: Vec::new(),
            wallclock_allow: Vec::new(),
            order_sensitive: Vec::new(),
            hot_path_roots: Vec::new(),
            hot_path_scope: Vec::new(),
            hardened: Vec::new(),
            forbid_unsafe_crates: Vec::new(),
            telemetry: None,
        }
    }

    /// The real workspace contract surface.
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        let p = PathBuf::from;
        LintConfig {
            root: root.into(),
            skip: vec![
                // Vendored third-party stand-ins: not ours to harden.
                p("crates/shims"),
                // Known-bad lint fixtures: linted only by their own tests.
                p("crates/lint/fixtures"),
            ],
            fingerprint_file: Some(p("crates/core/src/campaign/hash.rs")),
            fingerprint_fns: vec!["point_fingerprint".into()],
            identity_structs: vec![
                IdentityStruct {
                    name: "CampaignSettings".into(),
                    mode: IdentityMode::TokenCoverage,
                },
                IdentityStruct {
                    name: "CampaignPoint".into(),
                    mode: IdentityMode::TokenCoverage,
                },
                IdentityStruct {
                    name: "SystemConfig".into(),
                    mode: IdentityMode::DebugHashed,
                },
                IdentityStruct {
                    name: "StorageConfig".into(),
                    mode: IdentityMode::DebugHashed,
                },
            ],
            wallclock_allow: vec![
                // Telemetry exists to measure wall time.
                p("crates/core/src/telemetry.rs"),
                // The dispatch driver supervises real processes: it
                // polls, sleeps and hands the elapsed time to the
                // dispatcher core (`dispatch/machine.rs`), which is not
                // listed and so must stay clock-free.
                p("crates/core/src/campaign/dispatch.rs"),
                // CLI/figure layer: progress reporting, not simulation.
                p("crates/bench"),
            ],
            order_sensitive: vec![
                p("crates/core/src"),
                p("crates/dsp/src"),
                p("crates/silicon/src"),
                p("crates/hspa-phy/src"),
            ],
            hot_path_roots: vec![
                "simulate_packet_with".into(),
                "simulate_wave_with".into(),
                "decode_batch".into(),
            ],
            hot_path_scope: vec![
                p("crates/core/src"),
                p("crates/dsp/src"),
                p("crates/silicon/src"),
                p("crates/hspa-phy/src"),
            ],
            hardened: vec![p("crates/core/src/campaign")],
            forbid_unsafe_crates: vec![
                p("crates/core/src/lib.rs"),
                p("crates/dsp/src/lib.rs"),
                p("crates/silicon/src/lib.rs"),
                p("crates/hspa-phy/src/lib.rs"),
            ],
            telemetry: Some(TelemetryConfig {
                file: p("crates/core/src/telemetry.rs"),
                enums: vec!["Counter".into(), "Gauge".into(), "Histogram".into()],
            }),
        }
    }
}

/// Does relative path `rel` live under any of `prefixes`?
pub fn under_any(rel: &Path, prefixes: &[PathBuf]) -> bool {
    prefixes.iter().any(|pre| rel.starts_with(pre))
}

/// Test-support path: integration tests, benches, examples and build
/// scripts are exempt from production-code contracts.
pub fn is_test_path(rel: &Path) -> bool {
    let support_dir = rel.iter().any(|c| {
        let c = c.to_string_lossy();
        c == "tests" || c == "benches" || c == "examples"
    });
    support_dir || rel.file_name().is_some_and(|f| f == "build.rs")
}
