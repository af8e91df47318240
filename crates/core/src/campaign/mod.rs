//! Adaptive-budget Monte-Carlo campaigns with a persistent result store.
//!
//! A *campaign* is the orchestration layer between the figure experiments
//! and [`crate::engine::SimulationEngine`]. Where the engine answers
//! "simulate exactly `n` packets of these points", a campaign answers the
//! question the paper's figures actually ask — "estimate these points
//! well enough" — and remembers everything it has simulated:
//!
//! * the **adaptive budget controller** ([`controller`]) runs each point
//!   in deterministic, growing chunks and stops early once a Wilson-score
//!   confidence interval on the point's BLER is tight enough, escalating
//!   hard (waterfall) points up to their maximum budget;
//! * the **persistent result store** ([`store`]) keeps every simulated
//!   chunk keyed by a stable hash of the full point configuration
//!   ([`hash`]) — in one resident record table, on disk as a JSONL
//!   interchange format or a checksummed binary segment format
//!   (`--store-backend`) — so re-running a figure skips converged
//!   points and interrupted campaigns resume where they stopped;
//! * the **manifest** ([`manifest`]) summarizes realized budgets,
//!   achieved confidence intervals and store-hit rates for the bench
//!   binaries and CI assertions;
//! * the **sharding coordinator** ([`shard`]) splits a campaign across
//!   hosts by stable point hash (`--shard i/n`): each host runs the
//!   points it owns into suffixed store/manifest files, and
//!   [`shard::merge`] folds any complete shard set back into files
//!   byte-identical (manifest) / record-identical (store) to a
//!   single-host run. [`shard::gc`] and [`shard::verify`] keep
//!   long-lived stores healthy;
//! * the **dispatcher** ([`dispatch`]) automates a sharded run: it
//!   launches the `--shard i/n` legs behind a pluggable [`Launcher`]
//!   (child processes locally; SSH/queue backends plug into the same
//!   trait), heartbeat-monitors their artifacts, steals work from dead
//!   or stalled legs by resuming their stores in a rescue leg, and runs
//!   merge + verify automatically.
//!
//! # Determinism contract
//!
//! Chunking never changes results: packet `p` of a point draws the same
//! RNG stream regardless of which chunk (or thread, or process) simulates
//! it, so an adaptive campaign that realizes `n` packets produces
//! [`HarqStats`] bit-identical to a one-shot
//! [`SimulationEngine::run_point`] over `n` packets — for any thread
//! count, with or without store hits. Stopping decisions depend only on
//! merged statistics, hence are equally reproducible.
//!
//! # Example
//!
//! ```no_run
//! use resilience_core::campaign::{Campaign, CampaignPoint, CampaignSettings};
//! use resilience_core::config::SystemConfig;
//! use resilience_core::engine::SimulationEngine;
//! use resilience_core::montecarlo::StorageConfig;
//! use resilience_core::simulator::LinkSimulator;
//!
//! let cfg = SystemConfig::fast_test();
//! let sim = LinkSimulator::new(cfg);
//! let campaign = Campaign::new("demo", CampaignSettings::default(), SimulationEngine::auto());
//! let report = campaign.run(
//!     &sim,
//!     &[CampaignPoint {
//!         label: "clean @ 18 dB".into(),
//!         storage: StorageConfig::Quantized,
//!         snr_db: 18.0,
//!         max_packets: 240,
//!         seed: 42,
//!         fault_seed: None,
//!     }],
//! );
//! println!("{}", report.table());
//! ```

pub mod controller;
pub mod dispatch;
pub mod hash;
pub mod manifest;
pub mod shard;
pub mod store;

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hspa_phy::harq::HarqStats;
use hspa_phy::turbo::AccuracyTier;

use crate::engine::{ChunkSpec, GridResult, SimulationEngine};
use crate::montecarlo::StorageConfig;
use crate::report::render_table;
use crate::simulator::LinkSimulator;
use crate::telemetry::{
    self, Counter, EventLog, Field, Gauge, Histogram, LiveSnapshot, PointProgress,
};

pub use controller::{CampaignSettings, PrecisionCheck};
pub use dispatch::{
    dispatch, BackoffPolicy, CommandLauncher, DispatchConfig, DispatchReport, Launcher, Leg,
    LocalLauncher,
};
pub use manifest::{Manifest, ManifestTotals};
pub use shard::ShardSpec;
pub use store::{BackendKind, QueryFilter, ResultStore};

/// The default on-disk location of campaign stores and manifests.
pub const DEFAULT_STORE_DIR: &str = "target/campaign";

/// One operating point of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPoint {
    /// Human-readable label for manifests and tables.
    // identity: excluded(presentation only; renaming a point must keep resuming its stored chunks)
    pub label: String,
    /// LLR-storage backend under test.
    pub storage: StorageConfig,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Maximum packet budget (the fixed-budget equivalent).
    // identity: excluded(budget cap; chunks are keyed per packet index, so raising the cap extends rather than invalidates)
    pub max_packets: usize,
    /// Seed of this point's stream subtree.
    pub seed: u64,
    /// Explicit die seed (grids share one die per row); `None` derives
    /// the point's own.
    pub fault_seed: Option<u64>,
}

impl From<&ChunkSpec> for CampaignPoint {
    /// The point a whole-point chunk (`first_packet` 0) describes,
    /// labelled `"<storage> @ <snr> dB"`; the chunk's size becomes the
    /// budget cap.
    fn from(chunk: &ChunkSpec) -> Self {
        CampaignPoint {
            label: format!("{} @ {} dB", chunk.storage.label(), chunk.snr_db),
            storage: chunk.storage.clone(),
            snr_db: chunk.snr_db,
            max_packets: chunk.n_packets,
            seed: chunk.seed,
            fault_seed: chunk.fault_seed,
        }
    }
}

/// Final state of one campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Label copied from the input point.
    pub label: String,
    /// Stable store key of the point ([`hash::point_key`]).
    pub key: u64,
    /// Whether this process's shard owns the point. Under `--shard i/n`
    /// the outcomes of foreign points are placeholders (zero packets)
    /// that keep result shapes intact; only owned points enter the
    /// manifest and the store.
    pub owned: bool,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Merged statistics over every realized chunk.
    pub stats: HarqStats,
    /// The point's maximum budget.
    pub max_packets: usize,
    /// Achieved confidence-interval quality.
    pub check: PrecisionCheck,
    /// Whether the stopping rule fired (false = budget cap).
    pub converged: bool,
    /// Chunks executed.
    pub chunks: usize,
    /// Of those, chunks served from the store.
    pub chunks_from_store: usize,
    /// Packets served from the store — the packet-weighted view of
    /// `chunks_from_store`, which CI's resume assertions need (chunk
    /// counts weight a 16-packet warmup chunk the same as a 4096-packet
    /// tail chunk).
    pub packets_from_store: usize,
    /// Decoder accuracy tier the point ran at (from the simulator's
    /// [`crate::config::SystemConfig`]); recorded into the manifest for
    /// `campaign-admin query --tier`.
    pub tier: AccuracyTier,
}

impl PointOutcome {
    /// Realized packet count.
    pub fn packets(&self) -> usize {
        self.stats.packets as usize
    }
}

/// Result of one campaign run call.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Outcomes in input-point order.
    pub outcomes: Vec<PointOutcome>,
}

impl CampaignReport {
    /// The merged statistics, in input-point order.
    pub fn stats(&self) -> Vec<HarqStats> {
        self.outcomes.iter().map(|o| o.stats.clone()).collect()
    }

    /// Packets realized across all points.
    pub fn packets_realized(&self) -> u64 {
        self.outcomes.iter().map(|o| o.stats.packets).sum()
    }

    /// Packets a fixed budget would have spent.
    pub fn budget_packets(&self) -> u64 {
        self.outcomes.iter().map(|o| o.max_packets as u64).sum()
    }

    /// Chunk executions served from the store.
    pub fn chunks_from_store(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.chunks_from_store as u64)
            .sum()
    }

    /// Chunk executions in total.
    pub fn chunks_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.chunks as u64).sum()
    }

    /// Packets served from the store across all points.
    pub fn packets_from_store(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.packets_from_store as u64)
            .sum()
    }

    /// Per-point achieved-CI table (label, packets, BLER with its 95 %
    /// interval, relative half-width, stop reason).
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    format!("{}/{}", o.packets(), o.max_packets),
                    format!(
                        "{:.4} [{:.4}, {:.4}]",
                        o.check.bler, o.check.ci.0, o.check.ci.1
                    ),
                    format!("{:.2}", o.check.rel_half_width),
                    if !o.owned {
                        "other-shard"
                    } else if o.converged {
                        "converged"
                    } else {
                        "budget-cap"
                    }
                    .into(),
                    format!("{}/{}", o.chunks_from_store, o.chunks),
                ]
            })
            .collect();
        render_table(
            &[
                "point".into(),
                "packets".into(),
                "BLER [95% CI]".into(),
                "rel hw".into(),
                "stop".into(),
                "store".into(),
            ],
            &rows,
        )
    }
}

/// An adaptive, store-backed campaign over one simulator configuration.
///
/// A single instance accumulates one manifest across all its run calls
/// (experiments with several sweeps reuse one campaign), rewriting
/// `<store_dir>/<name>.manifest.json` after each call.
#[derive(Debug)]
pub struct Campaign {
    name: String,
    settings: CampaignSettings,
    engine: SimulationEngine,
    store_dir: PathBuf,
    manifest: RefCell<Manifest>,
    /// `--no-resume` truncates the store only on the first open.
    truncated: Cell<bool>,
    /// Per-instance override of the process-global telemetry exposition
    /// flag; `None` follows [`telemetry::enabled`]. Deliberately NOT in
    /// [`CampaignSettings`] — settings render into the manifest, and
    /// telemetry must never alter manifest bytes.
    telemetry: Cell<Option<bool>>,
    /// Live-snapshot sequence number, monotonic across run calls so the
    /// dispatcher's heartbeat probe never sees it reset.
    snapshot_seq: Cell<u64>,
    /// JSONL event log, created lazily on the first run call with
    /// exposition enabled (so disabled campaigns touch no files).
    events: RefCell<Option<EventLog>>,
}

impl Campaign {
    /// Creates a campaign storing under [`DEFAULT_STORE_DIR`].
    pub fn new(
        name: impl Into<String>,
        settings: CampaignSettings,
        engine: SimulationEngine,
    ) -> Self {
        let name = name.into();
        Self {
            manifest: RefCell::new(Manifest::new(name.clone(), settings)),
            name,
            settings,
            engine,
            store_dir: PathBuf::from(DEFAULT_STORE_DIR),
            truncated: Cell::new(false),
            telemetry: Cell::new(None),
            snapshot_seq: Cell::new(0),
            events: RefCell::new(None),
        }
    }

    /// Overrides the store directory (tests use a temp dir).
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = dir.into();
        self
    }

    /// Overrides telemetry *exposition* for this instance (live
    /// snapshot, event log and Prometheus files under the store
    /// directory). Metric recording is always on and results are
    /// byte-identical either way; this flag only controls file output.
    pub fn with_telemetry(self, on: bool) -> Self {
        self.telemetry.set(Some(on));
        self
    }

    /// Whether this instance writes telemetry exposition files.
    fn telemetry_enabled(&self) -> bool {
        self.telemetry.get().unwrap_or_else(telemetry::enabled)
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The controller settings.
    pub fn settings(&self) -> &CampaignSettings {
        &self.settings
    }

    /// Path of the result store (shard-suffixed under `--shard i/n` so
    /// parallel shard runs never collide; the extension names the
    /// `--store-backend`).
    pub fn store_path(&self) -> PathBuf {
        self.store_dir.join(shard::store_file(
            &self.name,
            self.settings.shard,
            self.settings.backend,
        ))
    }

    /// Path of the manifest file (shard-suffixed under `--shard i/n`).
    pub fn manifest_path(&self) -> PathBuf {
        self.store_dir
            .join(shard::manifest_file(&self.name, self.settings.shard))
    }

    /// Path of the live telemetry snapshot (shard-suffixed).
    pub fn telemetry_path(&self) -> PathBuf {
        self.store_dir
            .join(shard::telemetry_file(&self.name, self.settings.shard))
    }

    /// Path of the telemetry event log (shard-suffixed).
    pub fn events_path(&self) -> PathBuf {
        self.store_dir
            .join(shard::events_file(&self.name, self.settings.shard))
    }

    /// Path of the Prometheus-style text snapshot (shard-suffixed).
    pub fn prom_path(&self) -> PathBuf {
        self.store_dir
            .join(shard::prom_file(&self.name, self.settings.shard))
    }

    /// Manifest path of a named campaign under the default store
    /// directory — where the bench binaries look for their summaries;
    /// resolves the shard-suffixed file of a `--shard i/n` run.
    pub fn manifest_path_for(name: &str, settings: &CampaignSettings) -> PathBuf {
        Path::new(DEFAULT_STORE_DIR).join(shard::manifest_file(name, settings.shard))
    }

    fn open_store(&self) -> ResultStore {
        // `--no-resume` wipes once per campaign instance, not once per
        // run call — later calls must still see this instance's records.
        let resume = self.settings.resume || self.truncated.get();
        self.truncated.set(true);
        // An unopenable store is fatal, not a miss: quietly running
        // without it would re-simulate every chunk and double-append
        // once the file becomes accessible again.
        ResultStore::open(self.store_path(), resume).unwrap_or_else(|e| {
            // lint: allow(no-panic, deliberate fatal: running without the store would re-simulate and double-append on recovery)
            panic!(
                "campaign {}: cannot open result store {}: {e}",
                self.name,
                self.store_path().display()
            )
        })
    }

    /// Campaign equivalent of [`SimulationEngine::run_grid`]: the same
    /// [`ChunkSpec::grid`] seed-tree layout (one die per row), with
    /// per-point adaptive budgets and store resume.
    pub fn run_grid(
        &self,
        sim: &LinkSimulator,
        storages: &[StorageConfig],
        snrs_db: &[f64],
        max_packets: usize,
        master_seed: u64,
    ) -> GridResult {
        let chunks = ChunkSpec::grid(storages, snrs_db, max_packets, master_seed);
        let points: Vec<CampaignPoint> = chunks.iter().map(CampaignPoint::from).collect();
        GridResult::from_flat(snrs_db, storages.len(), self.run(sim, &points).stats())
    }

    /// Campaign equivalent of [`SimulationEngine::run_sweep`]: the same
    /// [`ChunkSpec::sweep`] layout (point `i` draws its own die from
    /// `derive_seed(seed, i)`).
    pub fn run_sweep(
        &self,
        sim: &LinkSimulator,
        storage: &StorageConfig,
        snrs_db: &[f64],
        max_packets: usize,
        seed: u64,
    ) -> Vec<HarqStats> {
        let chunks = ChunkSpec::sweep(storage, snrs_db, max_packets, seed);
        let points: Vec<CampaignPoint> = chunks.iter().map(CampaignPoint::from).collect();
        self.run(sim, &points).stats()
    }

    /// The cumulative manifest over this instance's run calls.
    pub fn manifest(&self) -> Manifest {
        self.manifest.borrow().clone()
    }

    /// Builds and atomically writes the live snapshot, plus the
    /// Prometheus text render of the global registry. Failures are
    /// warnings: exposition must never take a campaign down.
    #[allow(clippy::too_many_arguments)]
    fn write_exposition(
        &self,
        done: bool,
        run_start: Instant,
        points: &[CampaignPoint],
        keys: &[u64],
        owned: &[bool],
        stats: &[HarqStats],
        converged: &[bool],
        packets_hit: &[usize],
        store: &ResultStore,
    ) {
        // heartbeat-artifact-goes-stale: skip the snapshot + Prometheus
        // writes so the artifacts' mtimes freeze while the leg keeps
        // simulating — exactly the failure the stall monitor watches for.
        if crate::failpoint::armed()
            && crate::failpoint::should_fire(
                crate::failpoint::Site::HeartbeatStale,
                &self.settings.shard.to_string(),
            )
        {
            return;
        }
        let elapsed = run_start.elapsed();
        let mut progress = Vec::new();
        let mut packets_realized = 0u64;
        let mut packets_from_store = 0u64;
        let mut points_converged = 0u64;
        for (i, point) in points.iter().enumerate() {
            if !owned[i] {
                continue;
            }
            let check = PrecisionCheck::of(&stats[i], &self.settings);
            packets_realized += stats[i].packets;
            packets_from_store += packets_hit[i] as u64;
            points_converged += u64::from(converged[i]);
            progress.push(PointProgress {
                key: keys[i],
                label: point.label.clone(),
                packets: stats[i].packets,
                max_packets: point.max_packets as u64,
                bler: check.bler,
                half_width: check.rel_half_width,
                converged: converged[i],
            });
        }
        let packets_simulated = packets_realized - packets_from_store;
        let secs = elapsed.as_secs_f64();
        let seq = self.snapshot_seq.get() + 1;
        self.snapshot_seq.set(seq);
        let snap = LiveSnapshot {
            seq,
            elapsed_ms: elapsed.as_millis() as u64,
            done,
            points_total: progress.len() as u64,
            points_converged,
            packets_realized,
            packets_from_store,
            packets_simulated,
            packets_per_sec: if secs > 0.0 {
                packets_simulated as f64 / secs
            } else {
                0.0
            },
            store_chunk_hits: store.hits,
            store_chunk_misses: store.misses,
            points: progress,
        };
        if let Err(e) = snap.write_atomic(&self.telemetry_path()) {
            eprintln!(
                "campaign {}: telemetry snapshot write failed: {e}",
                self.name
            );
        }
        if let Err(e) = std::fs::write(self.prom_path(), telemetry::snapshot().render_prometheus())
        {
            eprintln!(
                "campaign {}: prometheus snapshot write failed: {e}",
                self.name
            );
        }
    }

    /// Runs `points` adaptively; outcomes keep input order. Each round
    /// serves the chunks the store already holds and simulates the rest
    /// as one [`SimulationEngine::run_chunks`] batch.
    ///
    /// Under `--shard i/n` only the points this shard owns
    /// ([`ShardSpec::owns`] on the stable key) are scheduled; foreign
    /// points finish immediately with placeholder outcomes. Every point
    /// still receives a **global index** (cumulative across run calls),
    /// so shard manifests agree on one enumeration order and
    /// [`shard::merge`] can reassemble the single-host manifest.
    pub fn run(&self, sim: &LinkSimulator, points: &[CampaignPoint]) -> CampaignReport {
        let cfg = *sim.config();
        let keys: Vec<u64> = points
            .iter()
            .map(|p| {
                hash::point_key(&hash::point_fingerprint(
                    &cfg,
                    &p.storage,
                    p.snr_db,
                    p.seed,
                    p.fault_seed,
                ))
            })
            .collect();
        let mut store = self.open_store();
        let mut stats: Vec<HarqStats> = points
            .iter()
            .map(|_| HarqStats::new(cfg.max_transmissions, cfg.payload_bits))
            .collect();
        let owned: Vec<bool> = keys.iter().map(|&k| self.settings.shard.owns(k)).collect();
        let mut converged = vec![false; points.len()];
        let mut chunks_run = vec![0usize; points.len()];
        let mut chunks_hit = vec![0usize; points.len()];
        let mut packets_hit = vec![0usize; points.len()];

        // determinism: wallclock(telemetry only; elapsed time feeds event-log timestamps, never results)
        let run_start = Instant::now();
        let expo = self.telemetry_enabled();
        telemetry::gauge_add(
            Gauge::PointsTotal,
            owned.iter().filter(|&&o| o).count() as i64,
        );
        if expo {
            let mut events = self.events.borrow_mut();
            if events.is_none() {
                match EventLog::create(&self.events_path()) {
                    Ok(log) => *events = Some(log),
                    Err(e) => {
                        eprintln!("campaign {}: event log create failed: {e}", self.name)
                    }
                }
            }
            if let Some(log) = events.as_ref() {
                log.emit(
                    "run_started",
                    &[
                        ("campaign", Field::Str(&self.name)),
                        ("points", Field::U64(points.len() as u64)),
                        (
                            "owned",
                            Field::U64(owned.iter().filter(|&&o| o).count() as u64),
                        ),
                        ("shard", Field::Str(&self.settings.shard.to_string())),
                    ],
                );
            }
        }

        loop {
            // Points still owed a chunk. The schedule is driven by each
            // point's realized packet count (`stats[i].packets`), a pure
            // function of the merged statistics — identical whether the
            // packets were simulated or replayed from the store.
            let mut due: Vec<(usize, usize, usize)> = Vec::new();
            for (i, point) in points.iter().enumerate() {
                if !owned[i] || converged[i] {
                    continue;
                }
                if let Some((first, len)) = self.settings.next_chunk(
                    stats[i].packets as usize,
                    point.max_packets,
                    &stats[i],
                ) {
                    due.push((i, first, len));
                }
            }
            if due.is_empty() {
                break;
            }
            telemetry::counter_add(Counter::ChunksScheduled, due.len() as u64);
            for &(_, _, len) in &due {
                telemetry::hist_record(Histogram::ChunkPackets, len as u64);
            }

            // Serve what the store already knows; simulate the rest as
            // one sharded engine batch.
            let mut misses: Vec<(usize, usize, usize)> = Vec::new();
            for &(i, first, len) in &due {
                let id = store::ChunkId {
                    point: keys[i],
                    first_packet: first,
                    n_packets: len,
                };
                chunks_run[i] += 1;
                // A stored chunk of another shape (a hand-edited list,
                // say) cannot merge: it is a counted miss and is
                // simulated afresh.
                let transmissions = Some(stats[i].failures_at.len());
                if let Some(hit) =
                    store.fetch_if(id, |c| controller::chunk_fits(c, len, transmissions))
                {
                    chunks_hit[i] += 1;
                    packets_hit[i] += len;
                    stats[i].merge(&hit);
                } else {
                    misses.push((i, first, len));
                }
            }
            if !misses.is_empty() {
                let chunks: Vec<ChunkSpec> = misses
                    .iter()
                    .map(|&(i, first_packet, n_packets)| ChunkSpec {
                        storage: points[i].storage.clone(),
                        snr_db: points[i].snr_db,
                        first_packet,
                        n_packets,
                        seed: points[i].seed,
                        fault_seed: points[i].fault_seed,
                    })
                    .collect();
                let fresh = self.engine.run_chunks(sim, &chunks);
                assert_eq!(fresh.len(), misses.len(), "one stats block per chunk");
                for (&(i, first, len), chunk_stats) in misses.iter().zip(&fresh) {
                    let id = store::ChunkId {
                        point: keys[i],
                        first_packet: first,
                        n_packets: len,
                    };
                    // A failed write only loses resumability, never
                    // correctness — warn and continue.
                    if let Err(e) = store.put(id, chunk_stats) {
                        eprintln!("campaign {}: store append failed: {e}", self.name);
                    }
                    stats[i].merge(chunk_stats);
                }
            }

            // Chaos hooks fire between chunk rounds, after the store
            // appends above — everything already simulated is durable, so
            // a rescue leg resumes instead of re-simulating.
            if crate::failpoint::armed() {
                let ctx = self.settings.shard.to_string();
                if crate::failpoint::should_fire(crate::failpoint::Site::LegCrash, &ctx) {
                    eprintln!("campaign {}: failpoint leg-crash", self.name);
                    std::process::exit(41);
                }
                if crate::failpoint::should_fire(crate::failpoint::Site::LegHang, &ctx) {
                    eprintln!(
                        "campaign {}: failpoint leg-hang (awaiting stall kill)",
                        self.name
                    );
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
            }

            // Stopping decisions depend only on merged statistics, so
            // they are identical whether chunks were simulated or read
            // back — the resume path cannot change results.
            for &(i, _, _) in &due {
                if !converged[i] && self.settings.converged(&stats[i]) {
                    converged[i] = true;
                    telemetry::counter_add(Counter::PointsConverged, 1);
                    telemetry::gauge_add(Gauge::PointsConvergedNow, 1);
                }
            }

            if expo {
                // Wilson-CI trajectory: one event per point touched this
                // round, so the event log replays how each interval
                // tightened toward the stopping rule.
                if let Some(log) = self.events.borrow().as_ref() {
                    for &(i, first, len) in &due {
                        let check = PrecisionCheck::of(&stats[i], &self.settings);
                        log.emit(
                            "chunk_done",
                            &[
                                ("key", Field::Str(&format!("{:016x}", keys[i]))),
                                ("label", Field::Str(&points[i].label)),
                                ("first_packet", Field::U64(first as u64)),
                                ("n_packets", Field::U64(len as u64)),
                                ("packets", Field::U64(stats[i].packets)),
                                ("bler", Field::F64(check.bler)),
                                ("ci_lo", Field::F64(check.ci.0)),
                                ("ci_hi", Field::F64(check.ci.1)),
                                ("rel_half_width", Field::F64(check.rel_half_width)),
                                ("converged", Field::Bool(converged[i])),
                            ],
                        );
                    }
                }
                self.write_exposition(
                    false,
                    run_start,
                    points,
                    &keys,
                    &owned,
                    &stats,
                    &converged,
                    &packets_hit,
                    &store,
                );
            }
        }

        if expo {
            self.write_exposition(
                true,
                run_start,
                points,
                &keys,
                &owned,
                &stats,
                &converged,
                &packets_hit,
                &store,
            );
            if let Some(log) = self.events.borrow().as_ref() {
                log.emit(
                    "run_finished",
                    &[
                        ("campaign", Field::Str(&self.name)),
                        (
                            "converged",
                            Field::U64(converged.iter().filter(|&&c| c).count() as u64),
                        ),
                        (
                            "packets_realized",
                            Field::U64(stats.iter().map(|s| s.packets).sum()),
                        ),
                    ],
                );
            }
        }

        let outcomes: Vec<PointOutcome> = points
            .iter()
            .enumerate()
            .map(|(i, point)| PointOutcome {
                label: point.label.clone(),
                key: keys[i],
                owned: owned[i],
                snr_db: point.snr_db,
                check: PrecisionCheck::of(&stats[i], &self.settings),
                stats: stats[i].clone(),
                max_packets: point.max_packets,
                converged: converged[i],
                chunks: chunks_run[i],
                chunks_from_store: chunks_hit[i],
                packets_from_store: packets_hit[i],
                tier: cfg.accuracy_tier,
            })
            .collect();

        {
            let mut manifest = self.manifest.borrow_mut();
            let base = manifest.points_enumerated;
            for (i, o) in outcomes.iter().enumerate().filter(|(_, o)| o.owned) {
                let replay = controller::Replay {
                    stats: o.stats.clone(),
                    chunks: o.chunks,
                    converged: o.converged,
                };
                manifest.points.push(manifest::PointRecord {
                    chunks_from_store: o.chunks_from_store,
                    packets_from_store: o.packets_from_store,
                    ..manifest::PointRecord::new(
                        base + i as u64,
                        o.key,
                        &o.label,
                        o.snr_db,
                        o.max_packets,
                        o.tier,
                        &self.settings,
                        &replay,
                    )
                });
            }
            manifest.points_enumerated = base + outcomes.len() as u64;
            if let Err(e) = manifest.write(&self.manifest_path()) {
                eprintln!("campaign {}: manifest write failed: {e}", self.name);
            }
        }

        CampaignReport { outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("campaign-mod-test-{}-{tag}", std::process::id()))
    }

    fn demo_points(cfg: &SystemConfig, max_packets: usize) -> Vec<CampaignPoint> {
        vec![
            CampaignPoint {
                label: "clean high SNR".into(),
                storage: StorageConfig::Quantized,
                snr_db: 25.0,
                max_packets,
                seed: 11,
                fault_seed: None,
            },
            CampaignPoint {
                label: "faulty low SNR".into(),
                storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
                snr_db: 4.0,
                max_packets,
                seed: 12,
                fault_seed: None,
            },
        ]
    }

    #[test]
    fn campaign_realizes_within_budget_and_persists() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let dir = temp_dir("budget");
        let _ = std::fs::remove_dir_all(&dir);
        let settings = CampaignSettings {
            initial_chunk: 8,
            ..Default::default()
        };
        let campaign =
            Campaign::new("t1", settings, SimulationEngine::serial()).with_store_dir(&dir);
        let report = campaign.run(&sim, &demo_points(&cfg, 16));
        for o in &report.outcomes {
            assert!(o.packets() >= 8 && o.packets() <= 16, "{}", o.packets());
            assert_eq!(o.chunks_from_store, 0, "first run has no hits");
        }
        assert!(campaign.store_path().exists());
        assert!(campaign.manifest_path().exists());

        // A second campaign over the same points is served from disk and
        // produces bit-identical outcomes.
        let campaign2 =
            Campaign::new("t1", settings, SimulationEngine::serial()).with_store_dir(&dir);
        let report2 = campaign2.run(&sim, &demo_points(&cfg, 16));
        assert_eq!(report.stats(), report2.stats());
        assert_eq!(report2.chunks_from_store(), report2.chunks_total());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_resume_truncates_once_per_instance() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let dir = temp_dir("noresume");
        let _ = std::fs::remove_dir_all(&dir);
        let settings = CampaignSettings {
            initial_chunk: 4,
            resume: false,
            ..Default::default()
        };
        let points = demo_points(&cfg, 4);
        let c1 = Campaign::new("t2", settings, SimulationEngine::serial()).with_store_dir(&dir);
        c1.run(&sim, &points[..1]);
        // Second call on the SAME instance must keep the first call's
        // records (truncate-once semantics)...
        let r = c1.run(&sim, &points[..1]);
        assert_eq!(r.chunks_from_store(), r.chunks_total());
        // ...while a fresh --no-resume instance wipes them again.
        let c2 = Campaign::new("t2", settings, SimulationEngine::serial()).with_store_dir(&dir);
        let r2 = c2.run(&sim, &points[..1]);
        assert_eq!(r2.chunks_from_store(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_table_lists_every_point() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let dir = temp_dir("table");
        let _ = std::fs::remove_dir_all(&dir);
        let settings = CampaignSettings {
            initial_chunk: 4,
            ..Default::default()
        };
        let campaign =
            Campaign::new("t3", settings, SimulationEngine::serial()).with_store_dir(&dir);
        let table = campaign.run(&sim, &demo_points(&cfg, 4)).table();
        assert!(table.contains("clean high SNR"));
        assert!(table.contains("faulty low SNR"));
        assert!(table.contains("BLER"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
