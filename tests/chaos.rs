//! Chaos-hardening integration tests: the failure-shaped store states a
//! killed or faulty leg leaves behind must degrade into *counted*,
//! recoverable conditions, never corruption of campaign results.
//!
//! * A torn JSONL tail (a writer killed mid-append) is dropped on
//!   resume, counted in `store_torn_tails_dropped`, and the store stays
//!   appendable.
//! * A rotted segment frame, wherever it sits, fails the store's open
//!   with an error naming `campaign-admin gc`; once gc drops it, the
//!   campaign re-simulates the chunk to the same manifest bytes.
//! * `partition_store_into_slices` (elastic re-sharding's storage half)
//!   moves every surviving record to exactly the slice that owns it and
//!   removes the parent store.
//! * A partial merge of the surviving shards of an abandoned dispatch
//!   names the missing points and still passes `verify` — including the
//!   `--strict` provenance audit.

use std::fs;
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;
use resilience_core::campaign::store::{self, ChunkId, ResultStore};
use resilience_core::campaign::{
    hash, shard, BackendKind, Campaign, CampaignPoint, CampaignSettings, ShardSpec,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::StorageConfig;
use resilience_core::simulator::LinkSimulator;
use resilience_core::telemetry::{self, Counter};

const NAME: &str = "chaos";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos-itest-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store record valid under the append-time invariants: the stats
/// cover exactly the chunk's packet range.
fn record(point: u64, first_packet: usize) -> (ChunkId, HarqStats) {
    let id = ChunkId {
        point,
        first_packet,
        n_packets: 8,
    };
    let stats = HarqStats {
        packets: 8,
        delivered: 6,
        transmissions: 14,
        info_bits: 120,
        failures_at: vec![3, 2, 2, 2],
    };
    (id, stats)
}

#[test]
fn torn_jsonl_tail_is_dropped_counted_and_the_store_stays_appendable() {
    let dir = temp_dir("torn-jsonl");
    let path = dir.join(shard::store_file(
        NAME,
        ShardSpec::single(),
        BackendKind::Jsonl,
    ));
    let records = vec![record(1, 0), record(1, 8), record(2, 0)];
    store::write_records(&path, &records).unwrap();

    // Kill the writer mid-append: the file ends in a prefix of a valid
    // record line, with no terminating newline.
    let full = fs::read_to_string(&path).unwrap();
    assert!(full.ends_with('\n'));
    let torn = &full[..full.len() - 12];
    fs::write(&path, torn).unwrap();

    let before = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
    let mut resumed = ResultStore::open(&path, true).unwrap();
    let after = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
    assert!(
        after > before,
        "dropping a torn tail must bump store_torn_tails_dropped ({before} -> {after})"
    );

    // The intact records survive; the torn one is a miss, and appending
    // it fresh must not concatenate onto the torn tail.
    assert_eq!(resumed.len(), 2);
    let (torn_id, torn_stats) = &records[2];
    assert!(resumed.fetch(*torn_id).is_none());
    assert_eq!(resumed.fetch(records[0].0).as_ref(), Some(&records[0].1));
    resumed.put(*torn_id, torn_stats).unwrap();
    drop(resumed);
    let (reloaded, malformed) = store::load_all(&path).unwrap();
    assert_eq!(malformed, 1, "the terminated torn line stays skippable");
    let mut ids: Vec<ChunkId> = reloaded.iter().map(|(id, _)| *id).collect();
    ids.sort();
    let mut want: Vec<ChunkId> = records.iter().map(|(id, _)| *id).collect();
    want.sort();
    assert_eq!(ids, want, "re-appended record restores the full chunk set");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partition_moves_every_record_to_the_slice_that_owns_it() {
    for backend in [BackendKind::Jsonl, BackendKind::Indexed] {
        let dir = temp_dir(&format!("partition-{backend:?}"));
        let parent = ShardSpec::single();
        let parent_path = dir.join(shard::store_file(NAME, parent, backend));
        let records: Vec<(ChunkId, HarqStats)> = (0..10).map(|p| record(p, 0)).collect();
        store::write_records(&parent_path, &records).unwrap();

        let slices = shard::partition_store_into_slices(NAME, &dir, parent, 3).unwrap();
        assert_eq!(
            slices,
            (0..3)
                .map(|j| parent.slice_of(j, 3).unwrap())
                .collect::<Vec<_>>()
        );
        assert!(
            !parent_path.exists(),
            "the parent store must not survive as a second source of truth"
        );

        let mut gathered: Vec<(ChunkId, HarqStats)> = Vec::new();
        for spec in &slices {
            let slice_path = dir.join(shard::store_file(NAME, *spec, backend));
            let (recs, malformed) = store::load_all(&slice_path).unwrap();
            assert_eq!(malformed, 0);
            for (id, _) in &recs {
                assert!(
                    spec.owns(id.point),
                    "record {:016x} landed in slice {spec} which does not own it",
                    id.point
                );
            }
            gathered.extend(recs);
        }
        gathered.sort_by_key(|(id, _)| *id);
        let mut want = records;
        want.sort_by_key(|(id, _)| *id);
        assert_eq!(gathered, want, "partition must move records losslessly");

        let _ = fs::remove_dir_all(&dir);
    }
}

fn demo_points(cfg: &SystemConfig) -> Vec<CampaignPoint> {
    [(25.0, 41u64), (4.0, 42), (12.0, 43), (8.0, 44)]
        .iter()
        .map(|&(snr_db, seed)| CampaignPoint {
            label: format!("point {snr_db} dB"),
            storage: StorageConfig::unprotected(0.05, cfg.llr_bits),
            snr_db,
            max_packets: 12,
            seed,
            fault_seed: None,
        })
        .collect()
}

/// Manifest bytes after the degenerate 0/1 merge, which normalizes the
/// resume-provenance counters a rerun records.
fn merged_manifest(dir: &Path, tag: &str) -> String {
    let out = dir.join(format!("merged-{tag}"));
    let manifest = dir.join(shard::manifest_file(NAME, ShardSpec::single()));
    shard::merge_manifests(NAME, &[manifest], &out).unwrap();
    fs::read_to_string(out.join(shard::manifest_file(NAME, ShardSpec::single()))).unwrap()
}

#[test]
fn rotted_segment_frame_fails_the_open_and_gc_resimulates_it() {
    let dir = temp_dir("rotted-frame");
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let points = demo_points(&cfg);
    let settings = CampaignSettings {
        initial_chunk: 4,
        backend: BackendKind::Indexed,
        ..Default::default()
    };
    let campaign =
        || Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(&dir);
    campaign().run(&sim, &points);
    let reference = merged_manifest(&dir, "ref");
    let path = campaign().store_path();
    let (mut records, torn) = store::load_all(&path).unwrap();
    assert_eq!(torn, 0);
    assert!(
        records.len() >= 3,
        "need a first, a middle and a last frame"
    );
    let pristine = fs::read(&path).unwrap();

    // Where each frame ends: the length of the store holding the
    // records before it and itself.
    let scratch = dir.join("prefix.seg");
    let frame_end = |k: usize| {
        store::write_records(&scratch, &records[..=k]).unwrap();
        fs::metadata(&scratch).unwrap().len() as usize
    };
    let middle = records.len() / 2;
    for k in [0, middle, records.len() - 1] {
        // Rot the frame's last payload byte: only its checksum can tell.
        let mut bytes = pristine.clone();
        bytes[frame_end(k) - 1] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = ResultStore::open(&path, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "frame {k}");
        assert!(
            err.to_string().contains("campaign-admin gc"),
            "frame {k}: {err}"
        );
    }

    // The middle frame stays rotted; gc drops it and nothing else.
    let gc = shard::gc(NAME, &dir, ShardSpec::single()).unwrap();
    assert_eq!(gc.dropped_corrupt, 1);
    assert_eq!(gc.kept, records.len() - 1);

    // The rerun serves every other chunk from the store and simulates
    // the dropped one again, to the same bytes.
    let rerun = campaign().run(&sim, &points);
    assert_eq!(rerun.chunks_from_store(), records.len() as u64 - 1);
    assert_eq!(merged_manifest(&dir, "rerun"), reference);
    let (mut healed, torn) = store::load_all(&path).unwrap();
    assert_eq!(torn, 0);
    healed.sort_by_key(|(id, _)| *id);
    records.sort_by_key(|(id, _)| *id);
    assert_eq!(healed, records, "the re-simulated chunk is the lost one");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_merge_of_the_surviving_shard_names_missing_points_and_verifies() {
    let dir = temp_dir("partial-merge");
    let cfg = SystemConfig::fast_test();
    let sim = LinkSimulator::new(cfg);
    let points = demo_points(&cfg);
    for index in 0..2 {
        let settings = CampaignSettings {
            shard: ShardSpec::new(index, 2).unwrap(),
            initial_chunk: 4,
            ..Default::default()
        };
        let campaign =
            Campaign::new(NAME, settings, SimulationEngine::serial()).with_store_dir(&dir);
        campaign.run(&sim, &points);
    }
    // Global point indices each shard owns, straight from the same
    // fingerprint hash the campaign itself shards by.
    let owned_by = |spec: ShardSpec| -> Vec<u64> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                spec.owns(hash::point_key(&hash::point_fingerprint(
                    &cfg,
                    &p.storage,
                    p.snr_db,
                    p.seed,
                    p.fault_seed,
                )))
            })
            .map(|(i, _)| i as u64)
            .collect()
    };
    let owned = [
        owned_by(ShardSpec::new(0, 2).unwrap()),
        owned_by(ShardSpec::new(1, 2).unwrap()),
    ];
    assert!(
        owned.iter().all(|o| !o.is_empty()),
        "both shards must own points for a partial merge to mean anything (got {owned:?})"
    );

    // Shard 1 is "abandoned": its attempts are exhausted and its
    // artifacts never reach the merge.
    let survivor = dir.join(shard::manifest_file(NAME, ShardSpec::new(0, 2).unwrap()));
    let out = dir.join("merged");

    // A complete merge refuses the hole...
    let err = shard::merge_manifests(NAME, std::slice::from_ref(&survivor), &out).unwrap_err();
    assert!(
        err.to_string().contains("not a complete partition"),
        "unexpected error: {err}"
    );

    // ...the partial merge forgives it, names every missing index, and
    // the surviving results still verify — strict provenance included.
    let report = shard::merge_manifests_allowing_partial(NAME, &[survivor], &out, true).unwrap();
    assert_eq!(report.points, owned[0].len());
    assert_eq!(report.missing_points_total, owned[1].len() as u64);
    assert_eq!(
        report.missing_points, owned[1],
        "the report must name exactly the abandoned shard's point indices"
    );
    for strict in [false, true] {
        let verify = shard::verify_with(NAME, &out, ShardSpec::single(), strict).unwrap();
        assert!(
            verify.ok(),
            "partial merge must stay verifiable (strict={strict}): {:?}",
            verify.problems
        );
        assert_eq!(verify.points, owned[0].len());
        assert_eq!(verify.covered_points, owned[0].len());
    }

    let _ = fs::remove_dir_all(&dir);
}
