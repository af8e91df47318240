//! The result store's one dedup rule: when a chunk is stored more than
//! once, its last write wins — in a resumed run, and in `merge`,
//! `verify` and `gc`, which replay the controller over the store.

use std::fs;
use std::path::PathBuf;

use resilience_core::campaign::store::{self, ChunkId};
use resilience_core::campaign::{shard, Campaign, CampaignSettings, Manifest, ShardSpec};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;

const NAME: &str = "dedup";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("last-write-itest-{}-{tag}", std::process::id()))
}

fn run(dir: &PathBuf) -> (Campaign, Vec<hspa_phy::harq::HarqStats>) {
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let settings = CampaignSettings {
        initial_chunk: 6,
        ..Default::default()
    };
    let campaign =
        Campaign::new(NAME, settings, SimulationEngine::with_threads(2)).with_store_dir(dir);
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
    ];
    let grid = campaign.run_grid(&sim, &storages, &[4.0, 25.0], 18, 7);
    let stats = grid.stats.into_iter().flatten().collect();
    (campaign, stats)
}

#[test]
fn run_merge_verify_and_gc_all_serve_the_last_write() {
    let dir = temp_dir("leg");
    let out = temp_dir("merged");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&out);
    let (first, simulated) = run(&dir);

    // Put an altered copy of one chunk (one packet fewer delivered)
    // *before* the chunk's real record: the store now holds two records
    // for one ChunkId, and the later one is the real one.
    let store_path = first.store_path();
    let (records, _) = store::load_all(&store_path).unwrap();
    let (id, real) = records
        .iter()
        .find(|(_, s)| s.delivered >= 1)
        .cloned()
        .expect("some chunk delivered a packet");
    let mut altered = real.clone();
    altered.delivered -= 1;
    let with_duplicate: Vec<(ChunkId, _)> = std::iter::once((id, altered))
        .chain(records.iter().cloned())
        .collect();
    store::write_records(&store_path, &with_duplicate).unwrap();

    // The resumed run serves the last write: every chunk is a store hit
    // and the statistics are the simulated ones.
    let (resumed, served) = run(&dir);
    assert_eq!(served, simulated);
    let leg = resumed.manifest();
    assert_eq!(leg.totals().store_chunks, leg.totals().total_chunks);

    // verify replays the same record the run served...
    let report = shard::verify(NAME, &dir, ShardSpec::single()).unwrap();
    assert!(report.ok(), "{:?}", report.problems);
    assert_eq!(report.duplicate_chunks, 1);

    // ...and so does merge: its manifest is the leg's with store
    // provenance zeroed.
    let merged = shard::merge_manifests(NAME, &[resumed.manifest_path()], &out).unwrap();
    assert_eq!(merged.duplicate_chunks, 1);
    let mut expected = leg.clone();
    for p in &mut expected.points {
        p.chunks_from_store = 0;
        p.packets_from_store = 0;
    }
    let merged_manifest = Manifest::read(&merged.manifest_path).unwrap();
    assert_eq!(merged_manifest.render_json(), expected.render_json());

    // gc keeps the last write too, and the store still verifies.
    let gc = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
    assert_eq!(gc.dropped_duplicates, 1);
    let (kept, _) = store::load_all(&store_path).unwrap();
    assert!(kept.contains(&(id, real)));
    assert!(shard::verify(NAME, &dir, ShardSpec::single()).unwrap().ok());

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&out);
}
