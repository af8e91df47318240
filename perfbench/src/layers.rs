//! Per-layer legs of a traced run.
//!
//! Each leg times calls into one layer's public functions from the
//! benchmark's own code — on fixed inputs (kernels), on the workload's
//! grid (simulator, engine) or on the workload's files (store,
//! manifest, shard) — and reads the counters the program already keeps
//! (`PacketScratch::stage_nanos`, `telemetry::snapshot()`). Legs that
//! compare two paths interleave them in pairs and report the median
//! ratio with its ~95 % interval.

use std::fs;
use std::hint::black_box;
use std::path::Path;

use dsp::rng::{derive_seed, packet_seed, random_bits, standard_normal};
use dsp::Complex64;
use hspa_phy::channel::{ChannelModel, ChannelRealization, MultipathChannel};
use hspa_phy::crc::Crc;
use hspa_phy::harq::LlrBuffer;
use hspa_phy::modulation::Modulation;
use hspa_phy::turbo::{
    AccuracyTier, BatchStopCheck, DecodeResult, DecoderConfig, TurboBatchScratch, TurboCode,
    TurboScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilience_core::campaign::{shard, store, Manifest, ResultStore, ShardSpec};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::montecarlo::build_buffer;
use resilience_core::simulator::{PacketOutcome, PacketScratch, StageNanos, WaveScratch};
use resilience_core::telemetry;
use silicon::ecc::Secded;
use silicon::{FaultKind, FaultMap, FaultyMemory, ProtectionPlan};

use crate::check::manifest_keys;
use crate::metrics::Metrics;
use crate::stats::{median, median_interval, percentile};
use crate::workloads::{
    ctx_err, fig6_campaign, fig6_leg_args, fresh_dir, merged_result, now, replay_fixture,
    run_campaign, run_dispatch, secs, Counters, DispatchTimes, Grid, Measured, Res, FIG6,
    FIXTURE_PACKETS, FIXTURE_PRECISION, THREADS,
};
use crate::{Ctx, Workload};

/// Largest share of wave time the stage counters may leave unaccounted
/// on the protection grid before its traced run is marked invalid.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.05;
/// Parallel efficiency above which the engine leg is timing warm-up.
pub const MAX_PARALLEL_EFFICIENCY: f64 = 1.05;

/// Calls `f` until `seconds` elapsed (at least `min` times), returning
/// the per-call seconds.
fn sample(seconds: f64, min: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = now();
    let mut out = Vec::new();
    while out.len() < min || secs(start) < seconds {
        out.push(f());
    }
    out
}

/// Times one call of `f`.
fn time(f: impl FnOnce()) -> f64 {
    let t = now();
    f();
    secs(t)
}

/// Records a paired ratio (`a / b` per pair) with its interval.
fn set_ratio(out: &mut Metrics, prefix: &str, ratios: &[f64]) {
    let (lo, mid, hi) = median_interval(ratios);
    out.set(&format!("{prefix}.ratio"), mid);
    out.set(&format!("{prefix}.ratio_lo"), lo);
    out.set(&format!("{prefix}.ratio_hi"), hi);
}

/// Measures every per-layer metric; returns the problems that make the
/// run invalid (empty when it is valid).
pub fn measure(ctx: &Ctx, m: &mut Measured, out: &mut Metrics) -> Res<Vec<String>> {
    let budget = ctx.seconds - ctx.loop_seconds();
    let mut problems = Vec::new();
    let grid = match ctx.workload {
        Workload::ProtectionGrid => Grid::protection(),
        _ => Grid::fig6a(),
    };
    turbo(out, budget * 0.16, &mut problems);
    kernels(&grid.cfg, out, budget * 0.08);
    let unaccounted = simulator(&grid, out, budget * 0.2, &mut problems);
    if ctx.workload == Workload::ProtectionGrid && unaccounted.abs() > UNACCOUNTED_TOLERANCE {
        problems.push(format!(
            "stage counters leave {:.1} % of wave time unaccounted (tolerance {:.0} %)",
            unaccounted * 100.0,
            UNACCOUNTED_TOLERANCE * 100.0
        ));
    }
    engine(&grid, out, budget * 0.2, &mut problems);
    let shard_dir = dispatch_layer(ctx, m, out, budget * 0.12)?;
    if ctx.workload == Workload::ProtectionGrid {
        // The one-shot grid writes no files: its store, manifest and
        // replay legs use the fixture dispatch's.
        replay_fixture(m, &shard_dir, ctx.seed)?;
        m.store = shard_dir.join(format!("{FIG6}.jsonl"));
        m.manifest = shard_dir.join(format!("{FIG6}.manifest.json"));
    }
    files(ctx, m, out)?;
    telemetry_layer(ctx, out, budget * 0.12)?;
    workload_counters(m, out)?;
    Ok(problems)
}

// ---------------------------------------------------------------------------
// L0 kernels
// ---------------------------------------------------------------------------

/// Noisy LLR blocks (Eb/N0 about -1.2 dB, below the rate-1/3 code's
/// threshold): no lane converges or agrees early, so every decoder
/// iteration runs on every tier.
fn noisy_codewords(code: &TurboCode, k: usize, count: usize) -> Vec<Vec<f64>> {
    let mut rng = dsp::rng::seeded(0x7e57_b10c);
    let sigma2: f64 = 2.0;
    (0..count)
        .map(|_| {
            let coded = code.encode(&random_bits(&mut rng, k));
            coded
                .iter()
                .map(|&b| {
                    let x = if b == 0 { 1.0 } else { -1.0 };
                    2.0 * (x + sigma2.sqrt() * standard_normal(&mut rng)) / sigma2
                })
                .collect()
        })
        .collect()
}

fn stage(batch: &mut TurboBatchScratch, lanes: &[Vec<f64>]) {
    batch.begin_batch(lanes[0].len());
    for l in lanes {
        batch.push_lane(l);
    }
}

fn turbo(out: &mut Metrics, seconds: f64, problems: &mut Vec<String>) {
    let cfg = SystemConfig::paper_64qam();
    let k = cfg.turbo_k();
    let code = TurboCode::new(k).expect("paper turbo length");
    let iters = cfg.decoder_iterations;
    let inputs = noisy_codewords(&code, k, 16);
    let crc = Crc::gcrc24();
    let stop = |_lane: usize, bits: &[u8]| crc.check(bits);
    let mut batch = TurboBatchScratch::new();
    let mut decode16 = |tier: AccuracyTier| -> f64 {
        stage(&mut batch, &inputs);
        let stop_check: BatchStopCheck = match tier {
            AccuracyTier::EarlyStop => Some(&stop),
            _ => None,
        };
        let t = time(|| code.decode_batch(DecoderConfig::new(iters, tier), &mut batch, stop_check));
        let early = (0..16)
            .filter(|&l| batch.iterations_run(l) != iters)
            .count();
        if early > 0 {
            problems.push(format!(
                "turbo {tier}: {early} of 16 lanes stopped early on the noisy inputs"
            ));
        }
        t
    };
    // Interleaved A/B/C: each pair decodes the same 16 codewords on
    // every tier, rotating which goes first.
    let tiers = [
        AccuracyTier::Exact,
        AccuracyTier::Fast32,
        AccuracyTier::EarlyStop,
    ];
    let mut times: [Vec<f64>; 3] = Default::default();
    decode16(AccuracyTier::Exact);
    let start = now();
    let mut pair = 0;
    while pair < 10 || secs(start) < seconds * 0.7 {
        for i in 0..3 {
            let t = (i + pair) % 3;
            times[t].push(decode16(tiers[t]));
        }
        pair += 1;
    }
    let per_cw = |v: &[f64]| median(v) * 1e6 / 16.0;
    out.set("turbo.exact.l16.us_per_cw", per_cw(&times[0]));
    out.set("turbo.fast32.l16.us_per_cw", per_cw(&times[1]));
    out.set("turbo.earlystop.l16.us_per_cw", per_cw(&times[2]));
    let ratio =
        |t: usize| -> Vec<f64> { times[t].iter().zip(&times[0]).map(|(a, b)| a / b).collect() };
    set_ratio(out, "turbo.fast32_vs_exact", &ratio(1));
    set_ratio(out, "turbo.earlystop_vs_exact", &ratio(2));

    // One lane at a time through the lockstep kernel, and the scalar
    // decoder, alternating.
    let mut scratch = TurboScratch::new();
    let mut result = DecodeResult::new();
    let (mut l1, mut scalar) = (Vec::new(), Vec::new());
    let start = now();
    let mut i = 0;
    while i < 32 || secs(start) < seconds * 0.3 {
        let cw = &inputs[i % inputs.len()];
        stage(&mut batch, std::slice::from_ref(cw));
        l1.push(time(|| {
            code.decode_batch(DecoderConfig::exact(iters), &mut batch, None)
        }));
        scalar.push(time(|| {
            code.decode_into(cw, iters, &mut scratch, &mut result)
        }));
        i += 1;
    }
    out.set("turbo.exact.l1.us_per_cw", median(&l1) * 1e6);
    out.set("turbo.scalar.us_per_cw", median(&scalar) * 1e6);
}

/// Channel, demapper, quantizer and faulty-memory kernels on one
/// transmission's worth of fixed inputs.
fn kernels(cfg: &SystemConfig, out: &mut Metrics, seconds: f64) {
    let leg = seconds / 6.0;
    let mut rng = dsp::rng::seeded(0xc4a2);
    let modulation = Modulation::Qam64;
    let mut symbols = Vec::new();
    modulation.modulate_into(
        &random_bits(&mut rng, cfg.channel_bits_per_tx),
        &mut symbols,
    );

    let channel = MultipathChannel::pedestrian_a_symbol_rate();
    let mut real = ChannelRealization::empty();
    let mut rx: Vec<Complex64> = Vec::new();
    let t = sample(leg, 50, || {
        time(|| {
            channel.realize_attempt_into(12.0, 0.0, 0, &mut rng, &mut real);
            real.apply_into(&symbols, &mut rng, &mut rx);
        })
    });
    out.set("channel.realize_us", median(&t) * 1e6);

    let mut llrs = Vec::new();
    let t = sample(leg, 50, || {
        time(|| modulation.demodulate_soft_into(black_box(&rx), 0.1, &mut llrs))
    });
    out.set(
        "modulation.demap_ns_per_symbol",
        median(&t) * 1e9 / rx.len() as f64,
    );

    let q = cfg.quantizer();
    let t = sample(leg, 50, || {
        time(|| {
            let mut acc = 0.0;
            for &l in &llrs {
                acc += q.dequantize(q.quantize(black_box(l)));
            }
            black_box(acc);
        })
    });
    out.set(
        "dsp.quantize_ns_per_llr",
        median(&t) * 1e9 / llrs.len() as f64,
    );

    // Faulty LLR memory at 10 % defects: unprotected 6T, 4 MSBs in 8T,
    // and SECDED over the widened codeword.
    let words = cfg.coded_len() as u32;
    let bits = cfg.llr_bits;
    let mask = (1u32 << bits) - 1;
    let mut data: Vec<u32> = (0..words)
        .map(|w| w.wrapping_mul(2_654_435_761) & mask)
        .collect();
    let unprot = ProtectionPlan::msb_protected(bits, 4)
        .unprotected_range()
        .expect("4 of 10 bits protected");
    let tenth = |cells: u64| (cells / 10) as usize;
    let mut faulty = FaultyMemory::new(FaultMap::random_in_bits(
        words,
        bits,
        0..bits,
        tenth(u64::from(words) * u64::from(bits)),
        FaultKind::Flip,
        1,
    ));
    let mut hybrid = FaultyMemory::new(FaultMap::random_in_bits(
        words,
        bits,
        unprot.clone(),
        tenth(u64::from(words) * unprot.len() as u64),
        FaultKind::Flip,
        2,
    ));
    let code = Secded::new(bits);
    let cw = code.codeword_bits();
    let mut secded = FaultyMemory::new(FaultMap::random_exact(
        words,
        cw,
        tenth(u64::from(words) * u64::from(cw)),
        FaultKind::Flip,
        3,
    ));
    let per_word = |t: Vec<f64>| median(&t) * 1e9 / f64::from(words);
    let t = sample(leg, 50, || {
        time(|| faulty.write_read_all(&mut data, |&w| w, |w| w))
    });
    out.set("silicon.faulty_rw_ns_per_word", per_word(t));
    let t = sample(leg, 50, || {
        time(|| hybrid.write_read_all(&mut data, |&w| w, |w| w))
    });
    out.set("silicon.hybrid_rw_ns_per_word", per_word(t));
    let t = sample(leg, 50, || {
        time(|| secded.write_read_all(&mut data, |&d| code.encode(d), |c| code.decode(c).0))
    });
    out.set("silicon.secded_rw_ns_per_word", per_word(t));
}

// ---------------------------------------------------------------------------
// L1 simulator
// ---------------------------------------------------------------------------

fn add_nanos(sum: &mut StageNanos, n: &StageNanos) {
    sum.encode += n.encode;
    sum.modulate += n.modulate;
    sum.channel += n.channel;
    sum.equalize += n.equalize;
    sum.demap += n.demap;
    sum.harq += n.harq;
    sum.decode += n.decode;
}

/// Per-lane state of a wave over one storage configuration.
struct Lanes {
    buffers: Vec<Box<dyn LlrBuffer + Send>>,
    rngs: Vec<StdRng>,
    scratches: Vec<PacketScratch>,
    out: Vec<PacketOutcome>,
}

impl Lanes {
    fn new(grid: &Grid, storage: usize, lanes: usize) -> Self {
        let die = derive_seed(0xd1e, storage as u64);
        Self {
            buffers: (0..lanes)
                .map(|_| build_buffer(&grid.cfg, &grid.storages[storage], die))
                .collect(),
            rngs: Vec::with_capacity(lanes),
            scratches: (0..lanes).map(|_| PacketScratch::new()).collect(),
            out: vec![PacketOutcome::default(); lanes],
        }
    }

    /// Seeds lane `l` for packet `first + l` of stream `seed`.
    fn seed(&mut self, seed: u64, first: u64) {
        self.rngs.clear();
        for (l, buf) in self.buffers.iter_mut().enumerate() {
            let p = packet_seed(seed, first + l as u64);
            self.rngs.push(StdRng::seed_from_u64(p));
            buf.begin_packet(p);
        }
    }
}

/// Wave path at 16 lanes (stage shares and us/packet), then 1-lane waves
/// against the scalar packet path, paired per grid point. Returns the
/// share of wave time no stage counter accounts for.
fn simulator(grid: &Grid, out: &mut Metrics, seconds: f64, problems: &mut Vec<String>) -> f64 {
    let sim = &grid.sim;
    let mut batch = TurboBatchScratch::new();
    let mut wave = WaveScratch::new();
    let mut lanes: Vec<Lanes> = (0..grid.storages.len())
        .map(|s| Lanes::new(grid, s, 16))
        .collect();
    let points: Vec<(usize, f64)> = (0..grid.storages.len())
        .flat_map(|s| grid.snrs.iter().map(move |&snr| (s, snr)))
        .collect();
    let mut run_wave = |lanes: &mut Lanes, snr: f64, seed: u64, first: u64| -> (f64, StageNanos) {
        lanes.seed(seed, first);
        for s in &mut lanes.scratches {
            s.reset_stage_nanos();
        }
        let t = time(|| {
            sim.simulate_wave_with(
                snr,
                &mut lanes.buffers,
                &mut lanes.rngs,
                &mut lanes.scratches,
                &mut batch,
                &mut wave,
                &mut lanes.out,
            )
        });
        let mut sum = StageNanos::default();
        for s in &lanes.scratches {
            add_nanos(&mut sum, &s.stage_nanos);
        }
        (t, sum)
    };
    // Warm-up: grow every scratch before timing.
    for (s, snr) in &points {
        run_wave(&mut lanes[*s], *snr, 1, 0);
    }
    let (mut wall, mut packets, mut nanos) = (0.0, 0u64, StageNanos::default());
    let start = now();
    let mut round = 0u64;
    while round < 1 || secs(start) < seconds * 0.5 {
        for (s, snr) in &points {
            let (t, n) = run_wave(&mut lanes[*s], *snr, 2 + round, 0);
            wall += t;
            packets += 16;
            add_nanos(&mut nanos, &n);
        }
        round += 1;
    }
    out.set(
        "simulator.wave16.us_per_packet",
        wall * 1e6 / packets as f64,
    );
    let total = wall * 1e9;
    let mut accounted = 0.0;
    for (name, ns) in [
        ("encode", nanos.encode),
        ("modulate", nanos.modulate),
        ("channel", nanos.channel),
        ("equalize", nanos.equalize),
        ("demap", nanos.demap),
        ("harq", nanos.harq),
        ("decode", nanos.decode),
    ] {
        let share = ns as f64 / total;
        accounted += share;
        out.set(&format!("simulator.stage.{name}.share"), share);
    }
    let unaccounted = 1.0 - accounted;
    out.set("simulator.unaccounted_share", unaccounted);

    // 1-lane waves vs the scalar packet path on identical packets.
    let mut one: Vec<Lanes> = (0..grid.storages.len())
        .map(|s| Lanes::new(grid, s, 1))
        .collect();
    let mut scalar: Vec<Lanes> = (0..grid.storages.len())
        .map(|s| Lanes::new(grid, s, 1))
        .collect();
    let (mut w1, mut pk, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let start = now();
    let mut i = 0usize;
    while i < 2 * points.len() || secs(start) < seconds * 0.5 {
        let (s, snr) = points[i % points.len()];
        let seed = 0xa11 + (i / points.len()) as u64;
        let mut wave_time = 0.0;
        let mut packet_time = 0.0;
        let mut outcomes = (Vec::new(), Vec::new());
        for p in 0..4u64 {
            let a = &mut one[s];
            a.seed(seed, p);
            wave_time += time(|| {
                sim.simulate_wave_with(
                    snr,
                    &mut a.buffers,
                    &mut a.rngs,
                    &mut a.scratches,
                    &mut batch,
                    &mut wave,
                    &mut a.out,
                )
            });
            outcomes.0.push(a.out[0]);
            let b = &mut scalar[s];
            b.seed(seed, p);
            let mut o = PacketOutcome::default();
            packet_time += time(|| {
                o = sim.simulate_packet_with(
                    snr,
                    &mut b.buffers[0],
                    &mut b.rngs[0],
                    &mut b.scratches[0],
                )
            });
            outcomes.1.push(o);
        }
        if outcomes.0 != outcomes.1 {
            problems.push(format!(
                "1-lane wave and scalar path disagree at storage {s}, {snr} dB"
            ));
        }
        if i >= points.len() {
            // The first pass over the points only warms both paths.
            w1.push(wave_time / 4.0);
            pk.push(packet_time / 4.0);
            ratios.push(wave_time / packet_time);
        }
        i += 1;
    }
    out.set("simulator.wave1.us_per_packet", median(&w1) * 1e6);
    out.set("simulator.packet.us_per_packet", median(&pk) * 1e6);
    set_ratio(out, "simulator.wave1_vs_packet", &ratios);
    unaccounted
}

// ---------------------------------------------------------------------------
// L2 engine
// ---------------------------------------------------------------------------

/// 1- and 2-thread engine throughput on the workload's grid, interleaved
/// after a warm-up of each, plus the per-row buffer (fault map) build.
///
/// The parallel efficiency divides the 2-thread rate by the summed rates
/// of two 1-thread engines running side by side, one per CPU, in the
/// same round. A lone 1-thread run times only its own CPU, and each CPU
/// of the reference machine has slow spells of several seconds, so a
/// lone run in a slow spell would pose as superlinear scaling.
fn engine(grid: &Grid, out: &mut Metrics, seconds: f64, problems: &mut Vec<String>) {
    let run = &|threads: usize, seed: u64| -> f64 {
        let engine = SimulationEngine::with_threads(threads);
        let t = now();
        let r = engine.run_grid(&grid.sim, &grid.storages, &grid.snrs, 16, seed);
        let packets: u64 = r.stats.iter().flatten().map(|s| s.packets).sum();
        packets as f64 / secs(t)
    };
    let side_by_side = |seed: u64| -> f64 {
        std::thread::scope(|s| {
            [seed, seed + 1]
                .map(|seed| s.spawn(move || run(1, seed)))
                .map(|h| h.join().expect("engine thread"))
                .iter()
                .sum()
        })
    };
    run(1, 1);
    run(2, 1);
    side_by_side(1);
    let (mut t1, mut t2, mut both) = (Vec::new(), Vec::new(), Vec::new());
    let start = now();
    let mut round = 0u64;
    while round < 6 || secs(start) < seconds * 0.9 {
        let seed = 10 + 2 * round;
        for leg in 0..3 {
            match (leg + round) % 3 {
                0 => t1.push(run(1, seed)),
                1 => t2.push(run(2, seed)),
                _ => both.push(side_by_side(seed)),
            }
        }
        round += 1;
    }
    out.set("engine.t1.packets_per_s", median(&t1));
    out.set("engine.t2.packets_per_s", median(&t2));
    let per_round: Vec<f64> = t2.iter().zip(&both).map(|(p2, p11)| p2 / p11).collect();
    let efficiency = median(&per_round);
    out.set("engine.parallel_efficiency", efficiency);
    if efficiency > MAX_PARALLEL_EFFICIENCY {
        problems.push(format!(
            "parallel efficiency {efficiency:.3} > {MAX_PARALLEL_EFFICIENCY}: the engine leg is timing warm-up"
        ));
    }
    let builds = sample(seconds * 0.1, 5, || {
        time(|| {
            for (r, storage) in grid.storages.iter().enumerate() {
                black_box(build_buffer(&grid.cfg, storage, derive_seed(7, r as u64)));
            }
        })
    });
    out.set("engine.buffer_build_ms", median(&builds) * 1e3);
}

// ---------------------------------------------------------------------------
// L3–L4 store and manifest, on the workload's files
// ---------------------------------------------------------------------------

fn files(ctx: &Ctx, m: &Measured, out: &mut Metrics) -> Res<()> {
    let scratch = ctx.work.join("layer-files");
    fresh_dir(&scratch)?;
    let jsonl = &m.store;
    let seg = scratch.join("copy.seg");
    store::convert(jsonl, &seg).map_err(ctx_err(seg.display()))?;
    drop(ResultStore::open(&seg, true).map_err(ctx_err(seg.display()))?);
    let open_ms = |path: &Path| -> Res<f64> {
        let mut t = Vec::new();
        for _ in 0..7 {
            let start = now();
            let s = ResultStore::open(path, true).map_err(ctx_err(path.display()))?;
            t.push(secs(start));
            black_box(s.len());
        }
        Ok(median(&t) * 1e3)
    };
    out.set("store.open_ms.jsonl", open_ms(jsonl)?);
    out.set("store.open_ms.indexed", open_ms(&seg)?);

    let (records, _) = store::load_all(jsonl).map_err(ctx_err(jsonl.display()))?;
    let mut s = ResultStore::open(jsonl, true).map_err(ctx_err(jsonl.display()))?;
    let fetch = sample(0.05, 3, || {
        time(|| {
            for (id, _) in &records {
                black_box(s.fetch(*id));
            }
        })
    });
    out.set(
        "store.fetch_us",
        median(&fetch) * 1e6 / records.len() as f64,
    );

    // Appends to fresh stores of each backend.
    let put_us = |path: &Path| -> Res<f64> {
        let mut s = ResultStore::open(path, false).map_err(ctx_err(path.display()))?;
        let n = records.len().min(400);
        let t = now();
        for (i, (id, stats)) in records.iter().take(n).enumerate() {
            let id = store::ChunkId {
                point: id.point ^ (i as u64).rotate_left(32),
                ..*id
            };
            s.put(id, stats).map_err(ctx_err(path.display()))?;
        }
        Ok(secs(t) * 1e6 / n as f64)
    };
    out.set("store.put_us.jsonl", put_us(&scratch.join("put.jsonl"))?);
    out.set("store.put_us.indexed", put_us(&scratch.join("put.seg"))?);
    let bytes = fs::metadata(jsonl).map_err(ctx_err(jsonl.display()))?.len();
    out.set("store.bytes", bytes as f64);

    let manifest = Manifest::read(&m.manifest).map_err(ctx_err(m.manifest.display()))?;
    let target = scratch.join("copy.manifest.json");
    let t = sample(0.05, 20, || {
        time(|| manifest.write(&target).expect("write manifest copy"))
    });
    out.set("manifest.write_ms", median(&t) * 1e3);
    out.set("manifest.bytes", manifest.render_json().len() as f64);
    Ok(())
}

// ---------------------------------------------------------------------------
// L5 shard and dispatch
// ---------------------------------------------------------------------------

/// Times the dispatch and shard layers on a small fixture dispatch (the
/// real `fig6a` binary as 2 legs of 1 thread, telemetry on), checks the
/// merged result against an in-process campaign at the same settings,
/// and returns the merged directory.
fn dispatch_layer(
    ctx: &Ctx,
    m: &mut Measured,
    out: &mut Metrics,
    seconds: f64,
) -> Res<std::path::PathBuf> {
    let mut times = Vec::new();
    let mut dir = None;
    let start = now();
    while times.is_empty() || secs(start) < seconds * 0.6 {
        let work = ctx.work.join("fixture-dispatch");
        let args = fig6_leg_args(FIXTURE_PRECISION, FIXTURE_PACKETS, ctx.seed);
        let (d, _, t) = run_dispatch(&ctx.fig6a_bin, &work, args)?;
        times.push(t);
        dir = Some(d);
    }
    let shard_dir = dir.expect("one fixture dispatch");

    // The merged manifest must match an in-process campaign byte for
    // byte, and the merged store its per-point statistics.
    let in_process = ctx.work.join("fixture-campaign");
    fresh_dir(&in_process)?;
    let want = run_campaign(
        &Grid::fig6a(),
        fig6_campaign(&in_process, THREADS, FIXTURE_PRECISION),
        FIXTURE_PACKETS,
        ctx.seed,
    )?;
    let keys = manifest_keys(&want.manifest).ok_or("unparseable fixture campaign manifest")?;
    let (got, manifest) = merged_result(&shard_dir, &keys)?;
    m.tally.check(
        "dispatch",
        (&got, &manifest),
        (&want.digests, &want.manifest),
    )?;

    let pick = |f: fn(&DispatchTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    out.set("dispatch.launch_ms", pick(|t| t.launch_ms));
    out.set("dispatch.leg_s_max", pick(|t| t.leg_s_max));
    out.set("dispatch.tail_ms", pick(|t| t.tail_ms));
    out.set("dispatch.legs_launched", pick(|t| t.legs_launched));

    let merged = ctx.work.join("layer-merge");
    let (mut merge, mut verify) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        fresh_dir(&merged)?;
        let t = now();
        shard::merge(FIG6, &shard_dir, &merged).map_err(ctx_err("shard merge"))?;
        merge.push(secs(t));
        let t = now();
        let report =
            shard::verify(FIG6, &merged, ShardSpec::single()).map_err(ctx_err("verify"))?;
        verify.push(secs(t));
        if !report.ok() {
            return Err(format!(
                "re-merged shards fail verification: {:?}",
                report.problems
            ));
        }
    }
    out.set("shard.merge_ms", median(&merge) * 1e3);
    out.set("shard.verify_ms", median(&verify) * 1e3);
    Ok(shard_dir)
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Snapshot cost, and a small fig6a campaign with exposition on vs off.
fn telemetry_layer(ctx: &Ctx, out: &mut Metrics, seconds: f64) -> Res<()> {
    let t = sample(0.02, 20, || {
        time(|| {
            black_box(telemetry::snapshot().render_prometheus());
        })
    });
    out.set("telemetry.snapshot_ms", median(&t) * 1e3);

    let grid = Grid::fig6a();
    let dir = ctx.work.join("layer-expo");
    let run = |expo: bool, seed: u64| -> Res<f64> {
        fresh_dir(&dir)?;
        let campaign = fig6_campaign(&dir, 2, FIXTURE_PRECISION).with_telemetry(expo);
        let t = now();
        let r = campaign.run_grid(&grid.sim, &grid.storages, &grid.snrs, FIXTURE_PACKETS, seed);
        black_box(r);
        Ok(secs(t))
    };
    run(true, 1)?;
    let mut ratios = Vec::new();
    let start = now();
    let mut pair = 0u64;
    while pair < 2 || secs(start) < seconds {
        let seed = derive_seed(ctx.seed, 0xe0 + pair);
        let (on, off) = if pair.is_multiple_of(2) {
            let on = run(true, seed)?;
            (on, run(false, seed)?)
        } else {
            let off = run(false, seed)?;
            (run(true, seed)?, off)
        };
        ratios.push(on / off);
        pair += 1;
    }
    out.set("telemetry.expo_ratio", median(&ratios));
    Ok(())
}

// ---------------------------------------------------------------------------
// Counters of the workload's own traced repetitions
// ---------------------------------------------------------------------------

fn workload_counters(m: &Measured, out: &mut Metrics) -> Res<()> {
    let per_rep = |f: &dyn Fn(&Counters, f64) -> f64| -> f64 {
        let v: Vec<f64> = m
            .observed
            .iter()
            .map(|o| f(&o.counters, o.thread_seconds))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    // Chunks per campaign call; a one-shot grid makes none, so the
    // fixture's replays stand in.
    let per_call: Vec<f64> = m
        .observed
        .iter()
        .filter(|o| o.campaigns > 0.0)
        .map(|o| o.counters.get("chunks_scheduled") / o.campaigns)
        .collect();
    out.set(
        "campaign.chunks",
        if per_call.is_empty() {
            m.replay_counters.get("chunks_scheduled") / m.replay_ms.len().max(1) as f64
        } else {
            median(&per_call)
        },
    );
    out.set(
        "campaign.stage_busy_share",
        per_rep(&|c, thread_s| c.stage_nanos() / (thread_s * 1e9)),
    );
    let mut all = Counters::default();
    for o in &m.observed {
        all.add(&o.counters);
    }
    let occupancy =
        all.get("wave_lane_occupancy_sum") / all.get("wave_lane_occupancy_count").max(1.0);
    out.set("engine.lane_occupancy_mean", occupancy);
    let lookups = |c: &Counters| c.get("store_chunk_hits") + c.get("store_chunk_misses");
    let source = if lookups(&all) > 0.0 {
        &all
    } else {
        &m.replay_counters
    };
    out.set(
        "store.hit_ratio",
        source.get("store_chunk_hits") / lookups(source).max(1.0),
    );

    // Tracing cost: traced over untraced wall of the same seed slot.
    let mut ratios = Vec::new();
    for traced in m.reps.iter().filter(|r| r.traced) {
        let base: Vec<f64> = m
            .reps
            .iter()
            .filter(|r| !r.traced && r.slot == traced.slot)
            .map(|r| r.wall)
            .collect();
        if !base.is_empty() {
            ratios.push(traced.wall / median(&base));
        }
    }
    let overhead = if ratios.is_empty() {
        let pooled = |t: bool| {
            median(
                &m.reps
                    .iter()
                    .filter(|r| r.traced == t)
                    .map(|r| r.wall)
                    .collect::<Vec<_>>(),
            )
        };
        pooled(true) / pooled(false)
    } else {
        median(&ratios)
    };
    out.set("bench.trace_overhead_share", overhead - 1.0);
    out.set("replay_ms_p50", median(&m.replay_ms));
    out.set("replay_ms_p95", percentile(&m.replay_ms, 0.95)?);
    Ok(())
}
