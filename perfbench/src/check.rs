//! Output checks: per-point statistics digests and manifest identity.
//!
//! A point fails when its `HarqStats` digest differs from the reference
//! or its manifest record differs from the reference manifest. The
//! failed and attempted point counts become the result line's `failed`
//! and `attempted`, so `failed / attempted` is the run's mismatch rate.
//!
//! There are two kinds of reference. In-run references catch
//! nondeterminism and disagreement between paths (fresh vs replayed vs
//! dispatched). The committed [`Reference`] of [`VALIDATION_SEED`]
//! catches a wrong answer that every path agrees on.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;
use resilience_core::campaign::{store, Manifest};

/// FNV-1a digest of every field of a statistics block.
pub fn stats_digest(s: &HarqStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fields = [s.packets, s.delivered, s.transmissions, s.info_bits]
        .into_iter()
        .chain(s.failures_at.iter().copied());
    for v in fields {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digests of a flat list of point statistics.
pub fn digests<'a>(stats: impl IntoIterator<Item = &'a HarqStats>) -> Vec<u64> {
    stats.into_iter().map(stats_digest).collect()
}

/// Digests of the per-point statistics a store file rebuilds for `keys`,
/// in that order (0 for a point the store lacks): every record of a
/// point merged in packet order. This is what a later resume would
/// serve, so it must equal the run's own statistics.
pub fn store_digests(path: &Path, keys: &[u64]) -> Result<Vec<u64>, String> {
    let by_key = store_point_digests(path)?;
    Ok(keys
        .iter()
        .map(|key| by_key.get(key).copied().unwrap_or(0))
        .collect())
}

fn store_point_digests(path: &Path) -> Result<BTreeMap<u64, u64>, String> {
    let (mut records, torn) =
        store::load_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if torn > 0 {
        return Err(format!("{}: {torn} torn records", path.display()));
    }
    records.sort_by_key(|(id, _)| (id.point, id.first_packet));
    let mut merged: BTreeMap<u64, HarqStats> = BTreeMap::new();
    for (id, stats) in &records {
        match merged.get_mut(&id.point) {
            Some(acc) => acc.merge(stats),
            None => {
                merged.insert(id.point, stats.clone());
            }
        }
    }
    Ok(merged
        .into_iter()
        .map(|(key, s)| (key, stats_digest(&s)))
        .collect())
}

/// A manifest with its store-provenance fields zeroed, rendered back to
/// text: the form in which a resumed run must reproduce a fresh one
/// byte for byte (the shard merge normalizes provenance the same way).
pub fn normalized_manifest(text: &str) -> Option<String> {
    let mut m = Manifest::parse(text)?;
    for p in &mut m.points {
        p.chunks_from_store = 0;
        p.packets_from_store = 0;
    }
    Some(m.render_json())
}

/// Point keys of a manifest, in enumeration (grid) order.
pub fn manifest_keys(text: &str) -> Option<Vec<u64>> {
    Manifest::parse(text).map(|m| m.points.iter().map(|p| p.key).collect())
}

/// Master seed of the validation campaign every run checks against its
/// workload's committed [`Reference`].
pub const VALIDATION_SEED: u64 = 0x5eed_2012;

/// The committed result of [`VALIDATION_SEED`]: per-point statistics
/// digests (`reference/<name>.digests`, one hex digest per line) and,
/// for campaigns, the manifest with store provenance zeroed
/// (`reference/<name>.manifest.json`). `run.py --write-references`
/// rewrites them; only a change that means to move the simulated
/// results should.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub digests: Vec<u64>,
    /// Empty for a one-shot grid, which writes no manifest.
    pub manifest: String,
}

impl Reference {
    fn path(name: &str, ext: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{name}.{ext}"))
    }

    pub fn load(name: &str) -> Result<Self, String> {
        let path = Self::path(name, "digests");
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let digests = text
            .lines()
            .map(|l| u64::from_str_radix(l.trim(), 16))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let path = Self::path(name, "manifest.json");
        let manifest = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Ok(Self { digests, manifest })
    }

    pub fn save(&self, name: &str) -> Result<(), String> {
        let digests = Self::path(name, "digests");
        let dir = digests.parent().expect("reference directory");
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let text: String = self.digests.iter().map(|d| format!("{d:016x}\n")).collect();
        fs::write(&digests, text).map_err(|e| format!("{}: {e}", digests.display()))?;
        if !self.manifest.is_empty() {
            let path = Self::path(name, "manifest.json");
            fs::write(&path, &self.manifest).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Running tally of checked and failed points.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Points checked.
    pub attempted: u64,
    /// Points whose digest or manifest record differed.
    pub failed: u64,
}

impl Tally {
    /// Checks one result against its reference. `digests` pair up
    /// point by point; a manifest mismatch is attributed to the points
    /// whose records differ (or to one point when only the totals
    /// differ).
    pub fn check(
        &mut self,
        what: &str,
        got: (&[u64], &str),
        want: (&[u64], &str),
    ) -> Result<(), String> {
        let (got_digests, got_manifest) = got;
        let (want_digests, want_manifest) = want;
        if got_digests.len() != want_digests.len() {
            return Err(format!(
                "{what}: {} points, reference has {}",
                got_digests.len(),
                want_digests.len()
            ));
        }
        let mut bad: Vec<bool> = got_digests
            .iter()
            .zip(want_digests)
            .map(|(g, w)| g != w)
            .collect();
        if got_manifest != want_manifest {
            let lines = |text: &str| -> Vec<String> {
                Manifest::parse(text)
                    .map(|m| {
                        m.points
                            .iter()
                            .map(|p| {
                                let one = Manifest {
                                    points: vec![p.clone()],
                                    ..Manifest::new("", m.settings)
                                };
                                one.render_json()
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let (g, w) = (lines(got_manifest), lines(want_manifest));
            let mut any = false;
            for (i, flag) in bad.iter_mut().enumerate() {
                if g.get(i) != w.get(i) {
                    *flag = true;
                    any = true;
                }
            }
            if !any {
                if let Some(first) = bad.first_mut() {
                    *first = true;
                }
            }
        }
        let failed = bad.iter().filter(|&&b| b).count() as u64;
        self.attempted += bad.len() as u64;
        self.failed += failed;
        if failed > 0 {
            eprintln!(
                "perfbench: {what}: {failed} of {} points differ from the reference",
                bad.len()
            );
        }
        Ok(())
    }

    /// The share of checked points that failed.
    pub fn mismatch_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::campaign::{Campaign, CampaignSettings};
    use resilience_core::config::SystemConfig;
    use resilience_core::engine::SimulationEngine;
    use resilience_core::montecarlo::StorageConfig;
    use resilience_core::simulator::LinkSimulator;

    fn demo_campaign(dir: &Path) -> Campaign {
        let settings = CampaignSettings {
            initial_chunk: 4,
            ..CampaignSettings::exhaustive()
        };
        Campaign::new("perturb", settings, SimulationEngine::serial()).with_store_dir(dir)
    }

    /// One perturbed store record must surface as exactly one failed
    /// point when the store is replayed and checked.
    #[test]
    fn a_perturbed_record_is_caught() {
        let dir = std::env::temp_dir().join(format!("perfbench-perturb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let storages = [
            StorageConfig::Quantized,
            StorageConfig::unprotected(0.1, cfg.llr_bits),
        ];
        let snrs = [4.0, 12.0];
        let fresh = demo_campaign(&dir).run_grid(&sim, &storages, &snrs, 8, 7);
        let want_digests = digests(fresh.stats.iter().flatten());
        let manifest_path = demo_campaign(&dir).manifest_path();
        let want_manifest = std::fs::read_to_string(&manifest_path).unwrap();

        // An untouched replay reproduces the reference.
        let replay = demo_campaign(&dir).run_grid(&sim, &storages, &snrs, 8, 7);
        let got_manifest = std::fs::read_to_string(&manifest_path).unwrap();
        let mut tally = Tally::default();
        tally
            .check(
                "clean replay",
                (
                    &digests(replay.stats.iter().flatten()),
                    &normalized_manifest(&got_manifest).unwrap(),
                ),
                (&want_digests, &want_manifest),
            )
            .unwrap();
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 0
            }
        );

        // Perturb one record: one delivered packet fewer in one chunk.
        let store_path = demo_campaign(&dir).store_path();
        let (mut records, _) = store::load_all(&store_path).unwrap();
        let (_, victim) = records
            .iter_mut()
            .find(|(_, s)| s.delivered > 0)
            .expect("some chunk delivered a packet");
        victim.delivered -= 1;
        store::write_records(&store_path, &records).unwrap();

        let replay = demo_campaign(&dir).run_grid(&sim, &storages, &snrs, 8, 7);
        let got_manifest = std::fs::read_to_string(&manifest_path).unwrap();
        tally
            .check(
                "perturbed replay",
                (
                    &digests(replay.stats.iter().flatten()),
                    &normalized_manifest(&got_manifest).unwrap(),
                ),
                (&want_digests, &want_manifest),
            )
            .unwrap();
        assert_eq!(
            tally,
            Tally {
                attempted: 8,
                failed: 1
            }
        );
        assert_eq!(tally.mismatch_rate(), 0.125);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The committed references cover every point of their grids, and
    /// a single wrong digest against them fails exactly one point.
    #[test]
    fn committed_references_cover_their_grids() {
        let fig6a = Reference::load("fig6a").unwrap();
        assert_eq!(fig6a.digests.len(), 55);
        assert_eq!(manifest_keys(&fig6a.manifest).map(|k| k.len()), Some(55));
        let grid = Reference::load("protection-grid").unwrap();
        assert_eq!(grid.digests.len(), 44);
        assert!(grid.manifest.is_empty());

        let mut wrong = grid.digests.clone();
        wrong[7] ^= 1;
        let mut tally = Tally::default();
        tally
            .check("reference", (&wrong, ""), (&grid.digests, ""))
            .unwrap();
        assert_eq!(
            tally,
            Tally {
                attempted: 44,
                failed: 1
            }
        );
    }
}
