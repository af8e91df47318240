//! Benchmark of the end-to-end link simulation and the Monte-Carlo
//! engine — the unit of work behind every figure of the paper.
//!
//! Parts:
//!
//! 1. Per-packet wall-clock of `simulate_packet_with` (a 1-lane wave)
//!    across storage backends and SNRs — with a per-stage breakdown (stage timing is always on; see
//!    `resilience_core::telemetry`).
//! 2. Engine throughput (packets/sec) over a realistic operating grid:
//!    1-lane waves (`--batch 1`, comparable to pre-batching baselines),
//!    the default decoder lane pool (`SimulationEngine::DEFAULT_BATCH`
//!    lanes) for each accuracy tier, and
//!    `max(2, available CPUs)` workers — all written to
//!    `BENCH_engine.json` so future changes have a machine-readable
//!    perf trajectory (the parallel leg always runs with at least two
//!    workers so thread scaling is actually exercised; the recorded
//!    `host_cpus` says how much hardware backed it).
//! 3. Campaign adaptivity on the fig6a (defect × SNR) grid: how many
//!    packets the Wilson-CI controller needs versus the fixed budget at
//!    the default precision target (also recorded in the JSON).
//! 4. `--target-ci` budget sizing on the same grid: packets needed to
//!    reach a requested **absolute** Wilson half-width versus the
//!    worst-case fixed sizing `z²/4w²` classical planning would use.
//! 5. Result-store open cost at scale: a 10k-point synthetic store,
//!    JSONL full parse versus indexed segment open + one lookup. The
//!    nightly workflow gates the recorded speedup at >= 10x.
//!
//! Run with `cargo bench --bench link_simulation`. The JSON lands in
//! `crates/bench/BENCH_engine.json` (the committed perf trajectory; the
//! nightly CI workflow uploads it as an artifact and fails on a >25%
//! serial-throughput regression against the committed file).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use hspa_phy::harq::HarqStats;
use hspa_phy::turbo::AccuracyTier;
use resilience_core::campaign::controller::WILSON_Z;
use resilience_core::campaign::store::{self, ChunkId};
use resilience_core::campaign::{Campaign, CampaignSettings, ManifestTotals, ResultStore};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::experiments::{fig6, snr_grid};
use resilience_core::montecarlo::{build_buffer, StorageConfig};
use resilience_core::simulator::{LinkSimulator, PacketScratch};

/// One engine measurement for the JSON report.
struct EngineSample {
    threads: usize,
    packets: usize,
    seconds: f64,
}

impl EngineSample {
    fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.seconds.max(1e-12)
    }
}

fn bench_single_packet() {
    println!("--- per-packet kernel (median of repeated packets)");
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let storages = [
        ("ideal", StorageConfig::Perfect),
        (
            "faulty10pct",
            StorageConfig::unprotected(0.10, cfg.llr_bits),
        ),
        (
            "hybrid4msb",
            StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
        ),
    ];
    for (name, storage) in &storages {
        for &snr in &[9.0f64, 18.0] {
            let mut buffer = build_buffer(&cfg, storage, 1);
            let mut rng = dsp::rng::seeded(2);
            let mut scratch = PacketScratch::new();
            // Warm up allocations and fault-map caches.
            for _ in 0..3 {
                black_box(sim.simulate_packet_with(snr, &mut buffer, &mut rng, &mut scratch));
            }
            scratch.reset_stage_nanos();
            let reps = 20;
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                black_box(sim.simulate_packet_with(
                    black_box(snr),
                    &mut buffer,
                    &mut rng,
                    &mut scratch,
                ));
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let us = samples[reps / 2];
            println!("bench link/{name}/{snr}dB {us:>12.1} us/packet");
            let s = scratch.stage_nanos;
            let per_stage = |ns: u64| ns as f64 / 1000.0 / reps as f64;
            println!(
                "      stages (us/packet): encode {:.1} | modulate {:.1} | channel {:.1} | equalize {:.1} | demap {:.1} | harq {:.1} | decode {:.1}",
                per_stage(s.encode),
                per_stage(s.modulate),
                per_stage(s.channel),
                per_stage(s.equalize),
                per_stage(s.demap),
                per_stage(s.harq),
                per_stage(s.decode),
            );
        }
    }
}

fn measure_engine(
    threads: usize,
    batch: usize,
    tier: AccuracyTier,
    packets_per_point: usize,
) -> EngineSample {
    let cfg = SystemConfig::paper_64qam().with_tier(tier);
    let sim = LinkSimulator::new(cfg);
    let engine = SimulationEngine::with_threads(threads).batch_lanes(batch);
    let storages = [
        StorageConfig::Quantized,
        StorageConfig::unprotected(0.10, cfg.llr_bits),
        StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
    ];
    let snrs = [9.0, 13.0, 18.0];
    let t = Instant::now();
    let grid = engine.run_grid(&sim, &storages, &snrs, packets_per_point, 0xbe_c41);
    let seconds = t.elapsed().as_secs_f64();
    let packets: u64 = grid.stats.iter().flatten().map(|s| s.packets).sum();
    EngineSample {
        threads: engine.threads(),
        packets: packets as usize,
        seconds,
    }
}

/// Runs the fig6a grid through an adaptive campaign at the default
/// precision target and reports the controller's packet saving versus
/// the fixed `max_packets`-per-point budget.
fn measure_campaign(max_packets: usize) -> (ManifestTotals, f64) {
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let storages = fig6::storages(&fig6::DEFECT_FRACTIONS, cfg.llr_bits);
    // A scratch store: this measures simulation, not disk replay.
    let dir = std::env::temp_dir().join(format!("bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new(
        "bench-fig6a",
        CampaignSettings::default(),
        SimulationEngine::auto(),
    )
    .with_store_dir(&dir);
    let t = Instant::now();
    let _ = campaign.run_grid(&sim, &storages, &snr_grid(), max_packets, 0xbe_c41);
    let seconds = t.elapsed().as_secs_f64();
    let totals = campaign.manifest().totals();
    let _ = std::fs::remove_dir_all(&dir);
    (totals, seconds)
}

/// Runs the fig6a grid in `--target-ci` mode: every point must reach an
/// absolute Wilson half-width of `width`. Returns the totals plus the
/// per-point packet count classical worst-case planning (`z²/4w²`,
/// variance maximized at p = 0.5) would have fixed for the same
/// guarantee — the budget the adaptive sizing is measured against.
fn measure_target_ci(width: f64) -> (ManifestTotals, usize, f64) {
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let storages = fig6::storages(&fig6::DEFECT_FRACTIONS, cfg.llr_bits);
    let n_worst_case = (WILSON_Z * WILSON_Z * 0.25 / (width * width)).ceil() as usize;
    let dir = std::env::temp_dir().join(format!("bench-target-ci-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new(
        "bench-fig6a-target-ci",
        CampaignSettings {
            target_ci: width,
            ..CampaignSettings::default()
        },
        SimulationEngine::auto(),
    )
    .with_store_dir(&dir);
    let t = Instant::now();
    let _ = campaign.run_grid(&sim, &storages, &snr_grid(), n_worst_case, 0xbe_c41);
    let seconds = t.elapsed().as_secs_f64();
    let totals = campaign.manifest().totals();
    let _ = std::fs::remove_dir_all(&dir);
    (totals, n_worst_case, seconds)
}

/// Times cold-opening a `points`-record store on both backends: the
/// JSONL backend must parse every line before it can answer anything,
/// while the segment backend reads its index sidecar and seeks to the
/// one requested frame. Returns the median (jsonl, indexed) seconds.
fn measure_store_open(points: usize) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("bench-store-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let records: Vec<(ChunkId, HarqStats)> = (0..points)
        .map(|i| {
            let id = ChunkId {
                point: i as u64,
                first_packet: 0,
                n_packets: 8,
            };
            let stats = HarqStats {
                packets: 8,
                delivered: 7,
                transmissions: 12,
                failures_at: vec![3, 1, 1, 1],
                info_bits: 8 * 5114,
            };
            (id, stats)
        })
        .collect();
    let jsonl = dir.join("bench-store.jsonl");
    let seg = dir.join("bench-store.seg");
    store::write_records(&jsonl, &records).expect("write jsonl store");
    store::write_records(&seg, &records).expect("write segment store");
    let probe = records[points / 2].0;

    // Median of repeated opens. The page cache is warm either way, so
    // what's compared is parse work versus index work — the term that
    // actually scales with store size.
    let reps = 9;
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let mut jsonl_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let (loaded, torn) = store::load_all(&jsonl).expect("parse jsonl store");
        jsonl_samples.push(t.elapsed().as_secs_f64());
        assert_eq!((loaded.len(), torn), (points, 0));
        black_box(loaded);
    }
    let mut seg_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut opened = ResultStore::open(&seg, true).expect("open segment store");
        let hit = opened.fetch(probe);
        seg_samples.push(t.elapsed().as_secs_f64());
        assert_eq!(opened.len(), points);
        black_box(hit.expect("probe key present"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (median(jsonl_samples), median(seg_samples))
}

fn main() {
    bench_single_packet();

    println!("--- engine scaling (grid: 3 storages x 3 SNRs)");
    // 40 packets/point so the measurement amortizes simulator/buffer
    // construction; the historical default of 12 understated throughput.
    let packets_per_point = std::env::args()
        .skip_while(|a| a != "--packets")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Always run the parallel leg with at least two workers: on a
    // single-CPU host `available_parallelism() == 1` would silently
    // measure the serial path twice (the committed baseline once
    // recorded exactly that as "parallel": {"threads": 1}).
    let parallel_threads = host_cpus.max(2);
    let batch = resilience_core::engine::SimulationEngine::DEFAULT_BATCH;
    // `serial` is the 1-lane-wave (batch = 1) Exact path: every packet
    // decodes alone, on the 1-lane instantiation of the lockstep kernel.
    // `batched_serial` is the engine's actual default configuration and
    // carries its own regression gate in nightly CI.
    let serial = measure_engine(1, 1, AccuracyTier::Exact, packets_per_point);
    // Same run, back to back with `serial`: the telemetry tier is only
    // meaningful as a ratio against a baseline measured on the same
    // host seconds earlier. Metric *recording* is always on; the flag
    // additionally enables the exposition surfaces, so this measures
    // the full telemetry-on configuration. Nightly CI gates the ratio
    // at >= 0.99 (telemetry must cost < 1%).
    resilience_core::telemetry::set_enabled(true);
    let serial_telemetry = measure_engine(1, 1, AccuracyTier::Exact, packets_per_point);
    resilience_core::telemetry::set_enabled(false);
    let batched_serial = measure_engine(1, batch, AccuracyTier::Exact, packets_per_point);
    let batched_earlystop = measure_engine(1, batch, AccuracyTier::EarlyStop, packets_per_point);
    let batched_fast32 = measure_engine(1, batch, AccuracyTier::Fast32, packets_per_point);
    let parallel = measure_engine(
        parallel_threads,
        batch,
        AccuracyTier::Exact,
        packets_per_point,
    );
    let batch_speedup = batched_serial.packets_per_sec() / serial.packets_per_sec();
    let speedup = parallel.packets_per_sec() / serial.packets_per_sec();
    let telemetry_ratio = serial_telemetry.packets_per_sec() / serial.packets_per_sec();
    for (label, s) in [
        ("one-lane", &serial),
        ("one-lane-telemetry", &serial_telemetry),
        ("batched", &batched_serial),
        ("batched-earlystop", &batched_earlystop),
        ("batched-fast32", &batched_fast32),
        ("parallel", &parallel),
    ] {
        println!(
            "bench engine/{label}/threads={} {:>10.1} packets/sec ({} packets in {:.2}s)",
            s.threads,
            s.packets_per_sec(),
            s.packets,
            s.seconds
        );
    }
    println!(
        "telemetry-on serial throughput: {:.1}% of telemetry-off (same run)",
        telemetry_ratio * 100.0
    );
    println!("lockstep speedup at {batch} lanes, 1 thread: {batch_speedup:.2}x");
    println!(
        "engine speedup at {} threads ({host_cpus} host CPUs): {speedup:.2}x",
        parallel.threads
    );

    println!("--- campaign adaptivity (fig6a grid, default precision)");
    let campaign_max = 60;
    let (totals, campaign_secs) = measure_campaign(campaign_max);
    println!(
        "bench campaign/fig6a {} of {} budgeted packets ({:.1}% saved, {}/{} points converged, {:.2}s)",
        totals.realized_packets,
        totals.budget_packets,
        totals.saved_vs_fixed() * 100.0,
        totals.points_converged,
        totals.points_total,
        campaign_secs
    );

    println!("--- target-ci budget sizing (fig6a grid, absolute half-width)");
    let target_width = 0.08;
    let (ci_totals, n_worst_case, ci_secs) = measure_target_ci(target_width);
    println!(
        "bench target-ci/fig6a w={target_width}: {} packets vs {} worst-case fixed ({:.1}% saved, {}/{} points reached the width, {:.2}s)",
        ci_totals.realized_packets,
        ci_totals.budget_packets,
        ci_totals.saved_vs_fixed() * 100.0,
        ci_totals.points_converged,
        ci_totals.points_total,
        ci_secs
    );

    println!("--- result-store open cost (10k-point synthetic store)");
    let store_points = 10_000;
    let (jsonl_open, seg_open) = measure_store_open(store_points);
    let store_speedup = jsonl_open / seg_open.max(1e-12);
    println!(
        "bench store-open/{store_points}pts jsonl full parse {:.2} ms | indexed open+lookup {:.3} ms | {store_speedup:.1}x",
        jsonl_open * 1e3,
        seg_open * 1e3
    );

    // Machine-readable trajectory for future PRs. Hand-formatted JSON:
    // the offline serde shim intentionally has no serializer.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine_grid\",");
    let _ = writeln!(json, "  \"packets_per_point\": {packets_per_point},");
    let _ = writeln!(json, "  \"grid_points\": 9,");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"batch_lanes\": {batch},");
    let _ = writeln!(
        json,
        "  \"serial\": {{\"threads\": 1, \"packets_per_sec\": {:.2}}},",
        serial.packets_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"serial_telemetry\": {{\"threads\": 1, \"packets_per_sec\": {:.2}, \"ratio_vs_serial\": {telemetry_ratio:.4}}},",
        serial_telemetry.packets_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"batched_serial\": {{\"threads\": 1, \"batch\": {batch}, \"packets_per_sec\": {:.2}}},",
        batched_serial.packets_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"batched_earlystop\": {{\"threads\": 1, \"batch\": {batch}, \"packets_per_sec\": {:.2}}},",
        batched_earlystop.packets_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"batched_fast32\": {{\"threads\": 1, \"batch\": {batch}, \"packets_per_sec\": {:.2}}},",
        batched_fast32.packets_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"parallel\": {{\"threads\": {}, \"batch\": {batch}, \"packets_per_sec\": {:.2}}},",
        parallel.threads,
        parallel.packets_per_sec()
    );
    let _ = writeln!(json, "  \"batch_speedup\": {batch_speedup:.3},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(
        json,
        "  \"campaign_fig6a\": {{\"max_packets\": {campaign_max}, \"grid_points\": {}, \"packets_fixed\": {}, \"packets_adaptive\": {}, \"saved_fraction\": {:.4}, \"points_converged\": {}}},",
        totals.points_total,
        totals.budget_packets,
        totals.realized_packets,
        totals.saved_vs_fixed(),
        totals.points_converged
    );
    let _ = writeln!(
        json,
        "  \"campaign_target_ci\": {{\"half_width\": {target_width}, \"worst_case_per_point\": {n_worst_case}, \"grid_points\": {}, \"packets_fixed\": {}, \"packets_adaptive\": {}, \"saved_fraction\": {:.4}, \"points_reached_width\": {}}},",
        ci_totals.points_total,
        ci_totals.budget_packets,
        ci_totals.realized_packets,
        ci_totals.saved_vs_fixed(),
        ci_totals.points_converged
    );
    let _ = writeln!(
        json,
        "  \"store_open_10k\": {{\"points\": {store_points}, \"jsonl_parse_ms\": {:.3}, \"indexed_open_ms\": {:.4}, \"speedup\": {store_speedup:.1}}}",
        jsonl_open * 1e3,
        seg_open * 1e3
    );
    json.push('}');
    // Write next to the committed trajectory file (not the invocation
    // cwd), so `cargo bench` from any directory updates the same JSON
    // the nightly workflow uploads.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json");
    std::fs::write(out, &json).expect("write BENCH_engine.json");
    println!("wrote {out}");

    // Prometheus snapshot of everything the bench run recorded — the
    // nightly workflow uploads this as an artifact so a regression can
    // be diagnosed from stage counters without a re-run. Not committed.
    let prom = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_telemetry.prom");
    std::fs::write(
        prom,
        resilience_core::telemetry::snapshot().render_prometheus(),
    )
    .expect("write BENCH_telemetry.prom");
    println!("wrote {prom}");
}
