//! Properties of the dispatcher's work stealing at the library level
//! (the process-level end-to-end lives in `crates/bench/tests/`):
//! a rescue leg that resumes the store a killed leg left behind must
//! **never re-simulate a stored chunk** — for any campaign settings and
//! any kill point, the replayed schedule serves every surviving record
//! from disk and simulates only the remainder — and the merged manifest
//! must stay byte-identical to a fresh run's no matter how much of the
//! store was resumed (chunk provenance is normalized away). The same
//! holds for a **multi-way steal** (elastic re-sharding): the dead
//! leg's store partitioned into slice sub-shards, each resumed by its
//! own rescue leg, must merge back to the identical bytes. Both hold
//! end to end through the real dispatch driver, with legs that run the
//! campaign in this process.

use std::cell::Cell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;
use resilience_core::campaign::dispatch::LegStatus;
use resilience_core::campaign::store::{self, ChunkId};
use resilience_core::campaign::{
    dispatch, shard, BackoffPolicy, Campaign, CampaignPoint, CampaignSettings, DispatchConfig,
    Launcher, Leg, ShardSpec,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;

const NAME: &str = "steal";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dispatch-prop-{}-{tag}", std::process::id()))
}

fn demo_points(cfg: &SystemConfig, max_packets: usize) -> Vec<CampaignPoint> {
    vec![
        CampaignPoint {
            label: "clean high SNR".into(),
            storage: StorageConfig::Quantized,
            snr_db: 25.0,
            max_packets,
            seed: 21,
            fault_seed: None,
        },
        CampaignPoint {
            label: "faulty low SNR".into(),
            storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
            snr_db: 4.0,
            max_packets,
            seed: 22,
            fault_seed: None,
        },
    ]
}

/// Runs the demo campaign in `dir`, returning its report.
fn run_campaign(
    dir: &Path,
    settings: CampaignSettings,
    max_packets: usize,
) -> resilience_core::campaign::CampaignReport {
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let campaign = Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(dir);
    campaign.run(&sim, &demo_points(&cfg, max_packets))
}

/// A [`Launcher`] whose legs run the demo campaign in this process.
/// The first attempt of each shard whose index bit is set in
/// `kill_mask` is "killed": it leaves a line prefix of its store and no
/// manifest, exactly what a killed leg process leaves, then exits
/// failed.
struct InProcessLauncher {
    dir: PathBuf,
    settings: CampaignSettings,
    max_packets: usize,
    kill_mask: u32,
    cut_code: usize,
    /// Store lines the killed legs left behind.
    kept: Cell<u64>,
    /// Chunks the legs served from a store instead of simulating.
    served: Cell<u64>,
}

/// A leg that already ran to completion inside `launch`.
struct FinishedLeg {
    success: bool,
}

impl Leg for FinishedLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        Ok(LegStatus::Exited {
            success: self.success,
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Launcher for InProcessLauncher {
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
        let settings = CampaignSettings {
            shard: spec,
            ..self.settings
        };
        let report = run_campaign(&self.dir, settings, self.max_packets);
        self.served
            .set(self.served.get() + report.chunks_from_store());
        let killed = attempt == 1 && spec.slice.is_none() && self.kill_mask >> spec.index & 1 == 1;
        if killed {
            let store_path = self
                .dir
                .join(shard::store_file(NAME, spec, settings.backend));
            let full = fs::read_to_string(&store_path)?;
            let lines: Vec<&str> = full.lines().collect();
            let k = (self.cut_code + spec.index as usize) % (lines.len() + 1);
            let mut truncated: String = lines[..k].join("\n");
            if k > 0 {
                truncated.push('\n');
            }
            fs::write(&store_path, truncated)?;
            fs::remove_file(self.dir.join(shard::manifest_file(NAME, spec)))?;
            self.kept.set(self.kept.get() + k as u64);
        }
        Ok(Box::new(FinishedLeg { success: !killed }))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The real dispatch driver over in-process legs, some killed
    /// mid-store: the merged manifest is byte-identical to a
    /// single-host run, and the rescue or slice legs serve every chunk
    /// a killed leg stored instead of simulating it again.
    #[test]
    fn dispatch_with_killed_in_process_legs_matches_single_host(
        legs in 1u32..=3,
        kill_code in 0u32..1000,
        cut_code in 0usize..1000,
        reshard in proptest::bool::ANY,
        initial_chunk in 1usize..7,
        max_packets in 1usize..30,
    ) {
        // A non-empty set of shards to kill.
        let kill_mask = kill_code % ((1 << legs) - 1) + 1;
        let tag = format!("driver-{legs}-{kill_mask}-{cut_code}-{reshard}-{initial_chunk}-{max_packets}");
        let ref_dir = temp_dir(&format!("{tag}-ref"));
        let dispatch_dir = temp_dir(&format!("{tag}-dispatch"));
        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&dispatch_dir);
        let settings = CampaignSettings {
            initial_chunk,
            ..Default::default()
        };
        run_campaign(&ref_dir, settings, max_packets);

        let launcher = InProcessLauncher {
            dir: dispatch_dir.clone(),
            settings,
            max_packets,
            kill_mask,
            cut_code,
            kept: Cell::new(0),
            served: Cell::new(0),
        };
        let cfg = DispatchConfig {
            reshard,
            stall_timeout: None,
            backoff: BackoffPolicy {
                base: Duration::ZERO,
                factor: 1.0,
                max: Duration::ZERO,
                jitter: 0.0,
            },
            ..DispatchConfig::new(NAME, legs, &dispatch_dir)
        };
        let report = dispatch(&cfg, &launcher).unwrap();
        let killed = (0..legs).filter(|i| kill_mask >> i & 1 == 1).count();
        prop_assert_eq!(report.rescued.len() + report.resharded.len(), killed);
        prop_assert!(report.abandoned.is_empty());
        prop_assert_eq!(
            launcher.served.get(),
            launcher.kept.get(),
            "every chunk a killed leg stored is served, none re-simulated"
        );

        let manifest_name = shard::manifest_file(NAME, ShardSpec::single());
        prop_assert_eq!(
            fs::read_to_string(ref_dir.join(&manifest_name)).unwrap(),
            fs::read_to_string(dispatch_dir.join(&manifest_name)).unwrap(),
            "dispatched manifest must equal the single-host one"
        );

        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&dispatch_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any chunk schedule and any kill point, a rescue run over the
    /// truncated store (a) serves every surviving record from disk —
    /// `chunks_from_store` equals exactly the record count, (b) appends
    /// no duplicate chunk (the signature of a re-simulation), (c) ends
    /// with the identical record set and statistics as the uninterrupted
    /// run, and (d) merges to a byte-identical manifest.
    #[test]
    fn rescue_resume_never_resimulates_a_stored_chunk(
        initial_chunk in 1usize..7,
        max_packets in 1usize..30,
        cut_code in 0usize..1000,
    ) {
        let tag = format!("{initial_chunk}-{max_packets}-{cut_code}");
        let ref_dir = temp_dir(&format!("{tag}-ref"));
        let rescue_dir = temp_dir(&format!("{tag}-rescue"));
        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&rescue_dir);
        let settings = CampaignSettings {
            initial_chunk,
            ..Default::default()
        };

        // The uninterrupted reference run.
        let reference = run_campaign(&ref_dir, settings, max_packets);
        let store_name = shard::store_file(NAME, settings.shard, settings.backend);
        let full = fs::read_to_string(ref_dir.join(&store_name)).unwrap();
        let lines: Vec<&str> = full.lines().collect();

        // "Kill" the leg after `k` stored chunks: a killed process
        // leaves a line-prefix of the store (appends are sequential).
        let k = cut_code % (lines.len() + 1);
        fs::create_dir_all(&rescue_dir).unwrap();
        let mut truncated: String = lines[..k].join("\n");
        if k > 0 {
            truncated.push('\n');
        }
        fs::write(rescue_dir.join(&store_name), truncated).unwrap();

        // The rescue run resumes the truncated store.
        let rescue = run_campaign(&rescue_dir, settings, max_packets);
        prop_assert_eq!(
            rescue.chunks_from_store(),
            k as u64,
            "every surviving record must be a store hit"
        );
        prop_assert_eq!(reference.stats(), rescue.stats());

        // The rescued store holds the same chunk set, each exactly once
        // — a re-simulated chunk would have been appended twice.
        let (rescued_records, malformed) =
            store::load_all(&rescue_dir.join(&store_name)).unwrap();
        prop_assert_eq!(malformed, 0);
        let mut ids: Vec<ChunkId> = rescued_records.iter().map(|(id, _)| *id).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), total, "duplicate chunk records after rescue");
        let (mut ref_records, _) = store::load_all(&ref_dir.join(&store_name)).unwrap();
        let mut rescued_sorted = rescued_records;
        rescued_sorted.sort_by_key(|(id, _)| *id);
        ref_records.sort_by_key(|(id, _)| *id);
        prop_assert_eq!(rescued_sorted, ref_records);

        // Provenance normalization: the degenerate 0/1 merge of both
        // manifests must produce byte-identical files even though the
        // rescue manifest records store-resumed chunks.
        let manifest_name = shard::manifest_file(NAME, settings.shard);
        let ref_out = ref_dir.join("merged");
        let rescue_out = rescue_dir.join("merged");
        shard::merge_manifests(NAME, &[ref_dir.join(&manifest_name)], &ref_out).unwrap();
        shard::merge_manifests(NAME, &[rescue_dir.join(&manifest_name)], &rescue_out).unwrap();
        prop_assert_eq!(
            fs::read_to_string(ref_out.join(&manifest_name)).unwrap(),
            fs::read_to_string(rescue_out.join(&manifest_name)).unwrap(),
            "merged manifests must not leak resume provenance"
        );

        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&rescue_dir);
    }

    /// A multi-way steal — the dead leg's truncated store partitioned
    /// into `slices` slice sub-shards, each resumed by its own rescue
    /// leg — must (a) serve every surviving record from disk across the
    /// slices combined, and (b) merge the slice manifests back to bytes
    /// identical to the uninterrupted run's merged manifest.
    #[test]
    fn multi_way_steal_merges_byte_identical(
        initial_chunk in 1usize..7,
        max_packets in 1usize..30,
        cut_code in 0usize..1000,
        slices in 2u32..=4,
    ) {
        let tag = format!("multi-{initial_chunk}-{max_packets}-{cut_code}-{slices}");
        let ref_dir = temp_dir(&format!("{tag}-ref"));
        let steal_dir = temp_dir(&format!("{tag}-steal"));
        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&steal_dir);
        let settings = CampaignSettings {
            initial_chunk,
            ..Default::default()
        };

        run_campaign(&ref_dir, settings, max_packets);
        let store_name = shard::store_file(NAME, settings.shard, settings.backend);
        let full = fs::read_to_string(ref_dir.join(&store_name)).unwrap();
        let lines: Vec<&str> = full.lines().collect();

        // Kill the leg mid-run, leaving a line-prefix of its store.
        let k = cut_code % (lines.len() + 1);
        fs::create_dir_all(&steal_dir).unwrap();
        let mut truncated: String = lines[..k].join("\n");
        if k > 0 {
            truncated.push('\n');
        }
        fs::write(steal_dir.join(&store_name), truncated).unwrap();

        // Elastic re-sharding: split the dead leg's store and resume
        // each slice with its own in-process "rescue leg".
        let slice_specs = shard::partition_store_into_slices(
            NAME,
            &steal_dir,
            settings.shard,
            slices,
        )
        .unwrap();
        prop_assert_eq!(slice_specs.len(), slices as usize);
        let mut served = 0u64;
        for spec in &slice_specs {
            let slice_settings = CampaignSettings {
                shard: *spec,
                ..settings
            };
            let report = run_campaign(&steal_dir, slice_settings, max_packets);
            served += report.chunks_from_store();
        }
        prop_assert_eq!(
            served,
            k as u64,
            "across the slices, every surviving record must be a store hit"
        );

        // The slice manifests merge to the reference run's exact bytes.
        let manifest_name = shard::manifest_file(NAME, settings.shard);
        let ref_out = ref_dir.join("merged");
        shard::merge_manifests(NAME, &[ref_dir.join(&manifest_name)], &ref_out).unwrap();
        let slice_manifests: Vec<PathBuf> = slice_specs
            .iter()
            .map(|spec| steal_dir.join(shard::manifest_file(NAME, *spec)))
            .collect();
        let steal_out = steal_dir.join("merged");
        shard::merge_manifests(NAME, &slice_manifests, &steal_out).unwrap();
        prop_assert_eq!(
            fs::read_to_string(ref_out.join(&manifest_name)).unwrap(),
            fs::read_to_string(steal_out.join(&manifest_name)).unwrap(),
            "a re-sharded steal must not leak into the merged manifest"
        );

        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&steal_dir);
    }
}
