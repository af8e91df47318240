//! A `fig6a` resume over a damaged store. One stored record has a
//! `failures_at` list one entry short: it is canonical and passes every
//! store loader, but it cannot merge into its point. The rerun must
//! treat it as a counted miss and simulate the chunk afresh, never
//! crash, and its manifest must match the clean run's once the store
//! provenance is zeroed.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use resilience_core::campaign::Manifest;

const CAMPAIGN_ARGS: &[&str] = &["--precision", "0.2", "--packets", "24", "--chunk", "8"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resume-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs fig6a in `work_dir`, which must exit 0, and reads its manifest.
fn run_fig6a(work_dir: &Path) -> Manifest {
    let out = Command::new(env!("CARGO_BIN_EXE_fig6a"))
        .args(CAMPAIGN_ARGS)
        .current_dir(work_dir)
        .output()
        .expect("fig6a runs");
    assert!(
        out.status.success(),
        "fig6a exited with {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    Manifest::read(&work_dir.join("target/campaign/fig6.manifest.json")).expect("manifest")
}

/// `m` with every point's store provenance zeroed.
fn without_provenance(mut m: Manifest) -> Manifest {
    for p in &mut m.points {
        p.chunks_from_store = 0;
        p.packets_from_store = 0;
    }
    m
}

#[test]
fn a_short_failures_list_is_a_miss_not_a_crash() {
    let dir = temp_dir("short-failures");
    let clean = run_fig6a(&dir);

    // Drop the last entry of the first record's `failures_at` list.
    let store = dir.join("target/campaign/fig6.jsonl");
    let text = fs::read_to_string(&store).unwrap();
    let (first, rest) = text.split_once('\n').unwrap();
    let cut = first.rfind(',').expect("a list of two or more entries");
    assert!(first[cut..].ends_with("]}"), "{first}");
    fs::write(&store, format!("{}]}}\n{rest}", &first[..cut])).unwrap();

    let resumed = run_fig6a(&dir);
    let totals = resumed.totals();
    assert_eq!(
        totals.store_chunks + 1,
        totals.total_chunks,
        "only the damaged chunk is simulated again"
    );
    assert_eq!(without_provenance(resumed), without_provenance(clean));
    let _ = fs::remove_dir_all(&dir);
}
