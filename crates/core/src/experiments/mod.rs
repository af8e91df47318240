//! Paper-figure experiments (Figs. 2–9 and the §6.3 power analysis).
//!
//! Each submodule regenerates one figure of the paper: it produces
//! structured, serializable results plus a formatted table, and the
//! `bench` crate exposes one binary per figure. Budgets are explicit so
//! tests can run tiny versions of the same code paths the full
//! regeneration uses.

pub mod die_variation;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod power;
pub mod soft_errors;

use serde::{Deserialize, Serialize};

use hspa_phy::harq::HarqStats;
use hspa_phy::turbo::AccuracyTier;

use crate::campaign::{Campaign, CampaignPoint, CampaignSettings};
use crate::engine::{ChunkSpec, GridResult, PointSpec, SimulationEngine};
use crate::montecarlo::StorageConfig;
use crate::simulator::LinkSimulator;

/// Monte-Carlo effort knobs shared by all link-simulation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentBudget {
    /// Packets simulated per (storage, SNR) operating point. Under a
    /// campaign this is the **maximum** (escalation cap) per point.
    pub packets_per_point: usize,
    /// Master seed; every point derives its own stream.
    pub seed: u64,
    /// Worker threads for the Monte-Carlo engine (`0` = one per CPU).
    /// Results are bit-identical for any value — this only trades
    /// wall-clock for cores.
    pub threads: usize,
    /// `Some`: route the experiment through an adaptive, store-backed
    /// [`Campaign`]; `None`: classic fixed budget on the bare engine.
    pub campaign: Option<CampaignSettings>,
    /// Decode batch width for the engine (`0` = engine default,
    /// [`SimulationEngine::DEFAULT_BATCH`]). Results are bit-identical
    /// for any value — like `threads`, a pure throughput knob.
    pub batch: usize,
    /// Turbo-decoder accuracy tier applied to the figure's
    /// [`crate::config::SystemConfig`]. Non-default tiers change
    /// Monte-Carlo outcomes and therefore campaign fingerprints.
    pub accuracy_tier: AccuracyTier,
}

impl ExperimentBudget {
    /// Budget for the full figure regeneration (minutes of CPU).
    pub fn full() -> Self {
        Self {
            packets_per_point: 60,
            seed: 0xdac1_2012,
            threads: 0,
            campaign: None,
            batch: 0,
            accuracy_tier: AccuracyTier::Exact,
        }
    }

    /// Tiny budget for integration tests (seconds of CPU).
    pub fn smoke() -> Self {
        Self {
            packets_per_point: 6,
            seed: 0xdac1_2012,
            threads: 0,
            campaign: None,
            batch: 0,
            accuracy_tier: AccuracyTier::Exact,
        }
    }

    /// Builder: attach adaptive campaign settings.
    pub fn with_campaign(mut self, settings: CampaignSettings) -> Self {
        self.campaign = Some(settings);
        self
    }

    /// Builder: restrict the campaign to one shard of a multi-host run
    /// (`--shard i/n`). No-op without campaign settings — sharding is a
    /// property of the store-backed path; a one-shot run has no
    /// manifest for the merge tool to reassemble.
    pub fn with_shard(mut self, shard: crate::campaign::ShardSpec) -> Self {
        if let Some(c) = self.campaign.as_mut() {
            c.shard = shard;
        }
        self
    }

    /// Builder: disable early stopping while keeping the campaign's
    /// store/resume machinery. Studies that compare arms against each
    /// other (die-to-die spread, protection-scheme ranking) need equal
    /// per-arm sample counts — adaptive budgets would conflate the
    /// compared effect with unequal Monte-Carlo noise.
    pub fn equal_samples(mut self) -> Self {
        if let Some(c) = self.campaign.as_mut() {
            c.precision = 0.0;
            c.bler_floor = 0.0;
        }
        self
    }

    /// The sharded Monte-Carlo engine this budget asks for.
    pub fn engine(&self) -> SimulationEngine {
        let engine = SimulationEngine::with_threads(self.threads);
        if self.batch >= 1 {
            engine.batch_lanes(self.batch)
        } else {
            engine
        }
    }

    /// The execution path this budget asks for: a fixed-budget engine
    /// pass, or an adaptive campaign named `name` (its store and
    /// manifest land under `target/campaign/<name>.*`).
    pub fn runner(&self, name: &str) -> Runner {
        match self.campaign {
            None => Runner::OneShot(self.engine()),
            Some(settings) => {
                Runner::Adaptive(Box::new(Campaign::new(name, settings, self.engine())))
            }
        }
    }
}

impl Default for ExperimentBudget {
    fn default() -> Self {
        Self::full()
    }
}

/// The execution path of an experiment: every figure calls the engine
/// through this dispatcher, so `--precision`-style adaptive campaigns
/// and classic fixed budgets share one code path per figure.
///
/// Because the campaign's shard filter lives **below** this dispatcher
/// (in [`Campaign`]'s adaptive loop), every figure binary can run a
/// `--shard i/n` slice of its grid without figure-specific code: the
/// full point list is always enumerated (so shard manifests agree on
/// the global point order), foreign points come back as zero-packet
/// placeholders, and `campaign-admin merge` reassembles the single-host
/// result from the shard artifacts.
#[derive(Debug)]
pub enum Runner {
    /// Fixed budget, straight on the engine (no store, no early stop).
    OneShot(SimulationEngine),
    /// Adaptive budgets with the persistent result store (boxed: a
    /// campaign carries its cumulative manifest and is much larger than
    /// the engine-only variant).
    Adaptive(Box<Campaign>),
}

impl Runner {
    /// The campaign behind this runner, when adaptive.
    pub fn campaign(&self) -> Option<&Campaign> {
        match self {
            Runner::OneShot(_) => None,
            Runner::Adaptive(c) => Some(c),
        }
    }

    /// Batch of explicit operating points
    /// (cf. [`SimulationEngine::run_batch`]). Under a campaign each
    /// spec's `n_packets` becomes that point's maximum budget.
    pub fn run_batch(&self, sim: &LinkSimulator, specs: &[PointSpec]) -> Vec<HarqStats> {
        match self {
            Runner::OneShot(engine) => engine.run_batch(sim, specs),
            Runner::Adaptive(campaign) => {
                let points: Vec<CampaignPoint> = specs
                    .iter()
                    .map(|s| CampaignPoint::from(&ChunkSpec::from(s)))
                    .collect();
                campaign.run(sim, &points).stats()
            }
        }
    }

    /// SNR sweep of one storage configuration
    /// (cf. [`SimulationEngine::run_sweep`]).
    pub fn run_sweep(
        &self,
        sim: &LinkSimulator,
        storage: &StorageConfig,
        snrs_db: &[f64],
        n_packets: usize,
        seed: u64,
    ) -> Vec<HarqStats> {
        match self {
            Runner::OneShot(engine) => engine.run_sweep(sim, storage, snrs_db, n_packets, seed),
            Runner::Adaptive(campaign) => {
                campaign.run_sweep(sim, storage, snrs_db, n_packets, seed)
            }
        }
    }

    /// Full (storage × SNR) matrix with one shared die per row
    /// (cf. [`SimulationEngine::run_grid`]).
    pub fn run_grid(
        &self,
        sim: &LinkSimulator,
        storages: &[StorageConfig],
        snrs_db: &[f64],
        n_packets: usize,
        master_seed: u64,
    ) -> GridResult {
        match self {
            Runner::OneShot(engine) => {
                engine.run_grid(sim, storages, snrs_db, n_packets, master_seed)
            }
            Runner::Adaptive(campaign) => {
                campaign.run_grid(sim, storages, snrs_db, n_packets, master_seed)
            }
        }
    }
}

/// The default SNR grid (dB) used by the throughput figures.
pub fn snr_grid() -> Vec<f64> {
    vec![0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0]
}

/// The 3GPP normalized-throughput requirement the paper quotes for the
/// 64QAM mode (0.53 at 18 dB).
pub const THROUGHPUT_REQUIREMENT: (f64, f64) = (18.0, 0.53);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn runner_dispatches_on_campaign_settings() {
        let fixed = ExperimentBudget::smoke();
        assert!(matches!(fixed.runner("x"), Runner::OneShot(_)));
        let adaptive = fixed.with_campaign(CampaignSettings::default());
        let runner = adaptive.runner("x");
        assert!(matches!(runner, Runner::Adaptive(_)));
        assert_eq!(runner.campaign().unwrap().name(), "x");
    }

    #[test]
    fn exhaustive_campaign_batch_equals_one_shot() {
        // With early stopping disabled, the adaptive chunked path must
        // reproduce the fixed-budget engine bit-for-bit.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let specs = vec![
            PointSpec {
                storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
                snr_db: 9.0,
                n_packets: 13,
                seed: 5,
            },
            PointSpec {
                storage: StorageConfig::Transient { p_upset: 0.01 },
                snr_db: 14.0,
                n_packets: 13,
                seed: 6,
            },
        ];
        let dir =
            std::env::temp_dir().join(format!("experiments-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let one_shot = Runner::OneShot(SimulationEngine::serial()).run_batch(&sim, &specs);
        let settings = CampaignSettings {
            initial_chunk: 4,
            ..CampaignSettings::exhaustive()
        };
        let adaptive = Runner::Adaptive(Box::new(
            Campaign::new("eq", settings, SimulationEngine::with_threads(2)).with_store_dir(&dir),
        ))
        .run_batch(&sim, &specs);
        assert_eq!(one_shot, adaptive);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_shard_applies_only_under_a_campaign() {
        use crate::campaign::ShardSpec;
        let spec = ShardSpec::new(1, 2).unwrap();
        let sharded = ExperimentBudget::smoke()
            .with_campaign(CampaignSettings::default())
            .with_shard(spec);
        assert_eq!(sharded.campaign.unwrap().shard, spec);
        // One-shot budgets have no store/manifest to shard.
        assert!(ExperimentBudget::smoke()
            .with_shard(spec)
            .campaign
            .is_none());
    }

    #[test]
    fn budgets_ordered() {
        assert!(
            ExperimentBudget::full().packets_per_point
                > ExperimentBudget::smoke().packets_per_point
        );
    }

    #[test]
    fn snr_grid_covers_requirement_point() {
        let grid = snr_grid();
        assert!(grid.contains(&THROUGHPUT_REQUIREMENT.0));
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }
}
