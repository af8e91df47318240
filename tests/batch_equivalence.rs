//! Property tests: batched lockstep decoding is bit-identical, lane for
//! lane, to N independent decodes by the scalar reference decoder in
//! `support` — hard decisions, the raw `f64` bit patterns of every
//! posterior LLR, and the per-lane iteration counts all must match
//! exactly, for random block lengths, random noise, random injected
//! fault patterns, and every tier.
//!
//! This is the contract that lets the engine turn batching on by
//! default: a batched campaign must be indistinguishable from an
//! unbatched one at the level of individual bits, not just statistics.
//! The library has one decode kernel, so every `Exact`/`EarlyStop`
//! comparison here is against the oracle, never kernel against kernel.

mod support;

use proptest::prelude::*;

use hspa_phy::turbo::{
    AccuracyTier, DecodeResult, DecoderConfig, LaneFeed, TurboBatchScratch, TurboCode, POOL_LANES,
};
use support::{MaxLogMapDecoder, ReferenceScratch};

/// BPSK/AWGN LLRs with a crude injected fault pattern: a slice of the
/// positions (chosen by `fault_seed`) gets its LLR sign flipped and
/// another slice gets saturated — the kinds of corruption a faulty LLR
/// memory produces, applied identically to the oracle and batched runs.
fn corrupted_llrs(
    coded: &[u8],
    snr_db: f64,
    seed: u64,
    fault_seed: u64,
    fault_pct: u8,
) -> Vec<f64> {
    let mut rng = dsp::rng::seeded(seed);
    let esn0 = dsp::stats::db_to_linear(snr_db);
    let sigma2 = 1.0 / (2.0 * esn0);
    let mut llrs: Vec<f64> = coded
        .iter()
        .map(|&b| {
            let x = 1.0 - 2.0 * b as f64;
            let y = x + sigma2.sqrt() * dsp::rng::standard_normal(&mut rng);
            2.0 * y / sigma2
        })
        .collect();
    let mut frng = dsp::rng::seeded(fault_seed);
    for l in llrs.iter_mut() {
        let roll = dsp::rng::standard_normal(&mut frng).abs();
        if roll < fault_pct as f64 / 200.0 {
            *l = -*l;
        } else if roll > 2.5 {
            *l = 31.75_f64.copysign(*l);
        }
    }
    llrs
}

/// One lane's oracle decode, plus the inputs so the batch can replay it.
struct Lane {
    llrs: Vec<f64>,
    reference: DecodeResult,
}

#[allow(clippy::type_complexity)]
fn build_lanes(
    code: &TurboCode,
    lanes: usize,
    snr_db: f64,
    seed: u64,
    fault_pct: u8,
    iterations: usize,
    stop: Option<&dyn Fn(&[u8]) -> bool>,
) -> Vec<Lane> {
    let oracle = MaxLogMapDecoder::new(code.k(), code.interleaver());
    let mut scratch = ReferenceScratch::new();
    (0..lanes)
        .map(|lane| {
            let lseed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane as u64;
            let mut rng = dsp::rng::seeded(lseed);
            let bits = dsp::rng::random_bits(&mut rng, code.k());
            let coded = code.encode(&bits);
            let llrs = corrupted_llrs(&coded, snr_db, lseed ^ 0x5eed, lseed ^ 0xfa17, fault_pct);
            let mut reference = DecodeResult::new();
            match stop {
                None => oracle.decode_into(&llrs, iterations, &mut scratch, &mut reference),
                Some(f) => {
                    oracle.decode_into_with_stop(&llrs, iterations, &mut scratch, &mut reference, f)
                }
            }
            Lane { llrs, reference }
        })
        .collect()
}

/// Asserts lane `i` of `batch` equals its oracle decode bit for bit.
fn assert_lane_identical(
    batch: &TurboBatchScratch,
    i: usize,
    lane: &Lane,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.bits(i), &lane.reference.bits[..], "bits, lane {}", i);
    prop_assert_eq!(
        batch.iterations_run(i),
        lane.reference.iterations_run,
        "iteration count, lane {}",
        i
    );
    let batch_bits: Vec<u64> = batch.llrs(i).iter().map(|l| l.to_bits()).collect();
    let ref_bits: Vec<u64> = lane.reference.llrs.iter().map(|l| l.to_bits()).collect();
    prop_assert_eq!(batch_bits, ref_bits, "LLR f64 bit patterns, lane {}", i);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact tier: batched == N independent oracle `decode_into` calls.
    #[test]
    fn batched_exact_equals_scalar_lanes(
        k in 40usize..400,
        lanes in 1usize..12,
        snr_x10 in -40i32..35,
        seed in 0u64..u64::MAX,
        fault_pct in 0u8..25,
        iterations in 1usize..8,
    ) {
        let code = TurboCode::new(k).expect("valid k");
        let lane_data = build_lanes(&code, lanes, snr_x10 as f64 / 10.0, seed, fault_pct, iterations, None);
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for lane in &lane_data {
            batch.push_lane(&lane.llrs);
        }
        code.decode_batch(DecoderConfig::new(iterations, AccuracyTier::Exact), &mut batch, None);
        for (i, lane) in lane_data.iter().enumerate() {
            assert_lane_identical(&batch, i, lane)?;
        }
    }

    /// EarlyStop tier: batched (with a per-lane stop callback) == N
    /// oracle `decode_into_with_stop` calls using the same predicate.
    #[test]
    fn batched_earlystop_equals_scalar_lanes(
        k in 40usize..300,
        lanes in 1usize..10,
        snr_x10 in -40i32..35,
        seed in 0u64..u64::MAX,
        fault_pct in 0u8..25,
    ) {
        // A deterministic stand-in for the CRC: accept when the bit sum
        // is divisible by 3. Arbitrary, but identical on both paths —
        // what is under test is the stop *plumbing*, not the predicate.
        let stop = |bits: &[u8]| bits.iter().map(|&b| b as u32).sum::<u32>() % 3 == 0;
        let code = TurboCode::new(k).expect("valid k");
        let lane_data = build_lanes(&code, lanes, snr_x10 as f64 / 10.0, seed, fault_pct, 8, Some(&stop));
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for lane in &lane_data {
            batch.push_lane(&lane.llrs);
        }
        code.decode_batch(
            DecoderConfig::new(8, AccuracyTier::EarlyStop),
            &mut batch,
            Some(&|_lane, bits: &[u8]| stop(bits)),
        );
        for (i, lane) in lane_data.iter().enumerate() {
            assert_lane_identical(&batch, i, lane)?;
        }
    }

    /// Fast32 tier: an N-lane batch equals N one-lane batches — the
    /// oracle is `f64`, so one-lane batches are the f32 kernel's reference
    /// semantics (and are themselves pinned by the
    /// `GOLDEN_DECODES_FAST32` table in `decode_golden.rs`).
    #[test]
    fn batched_fast32_equals_single_lane_batches(
        k in 40usize..300,
        lanes in 2usize..10,
        snr_x10 in -40i32..35,
        seed in 0u64..u64::MAX,
        fault_pct in 0u8..25,
    ) {
        let cfg = DecoderConfig::new(8, AccuracyTier::Fast32);
        let code = TurboCode::new(k).expect("valid k");
        // Reuse build_lanes for input generation only; the f64 oracle
        // decode it computes is ignored here.
        let lane_data = build_lanes(&code, lanes, snr_x10 as f64 / 10.0, seed, fault_pct, 8, None);
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for lane in &lane_data {
            batch.push_lane(&lane.llrs);
        }
        code.decode_batch(cfg, &mut batch, None);
        let mut single = TurboBatchScratch::new();
        for (i, lane) in lane_data.iter().enumerate() {
            single.begin_batch(code.coded_len());
            single.push_lane(&lane.llrs);
            code.decode_batch(cfg, &mut single, None);
            prop_assert_eq!(batch.bits(i), single.bits(0), "fast32 bits, lane {}", i);
            prop_assert_eq!(
                batch.iterations_run(i),
                single.iterations_run(0),
                "fast32 iterations, lane {}",
                i
            );
            let wide: Vec<u64> = batch.llrs(i).iter().map(|l| l.to_bits()).collect();
            let narrow: Vec<u64> = single.llrs(0).iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(wide, narrow, "fast32 LLR bit patterns, lane {}", i);
        }
    }
}

/// A lane pool feed that offers lane `l` only from iteration boundary
/// `at[l]` on (`at` is nondecreasing), so lanes enter the pool beside
/// lanes that are mid-decode and the pool widens and narrows. An empty
/// pool takes the next lane at once. It records every lane's outputs and
/// the live lanes of every lockstep pass.
struct ScheduledFeed<'a> {
    lanes: &'a [Vec<f64>],
    at: &'a [usize],
    next: usize,
    boundary: usize,
    live: usize,
    passes: Vec<usize>,
    out: Vec<Option<DecodeResult>>,
}

impl<'a> ScheduledFeed<'a> {
    fn new(lanes: &'a [Vec<f64>], at: &'a [usize]) -> Self {
        Self {
            lanes,
            at,
            next: 0,
            boundary: 0,
            live: 0,
            passes: Vec::new(),
            out: vec![None; lanes.len()],
        }
    }

    /// Kernel width of every pass (the narrowest of 1, 2, 4, 8 that fits).
    fn widths(&self) -> Vec<usize> {
        self.passes
            .iter()
            .map(|&live| live.next_power_of_two())
            .collect()
    }
}

impl LaneFeed for ScheduledFeed<'_> {
    fn admit(&mut self) -> Option<usize> {
        let lane = self.next;
        if lane == self.lanes.len() || (self.live > 0 && self.at[lane] > self.boundary) {
            return None;
        }
        self.next += 1;
        self.live += 1;
        Some(lane)
    }

    fn codeword(&self, tag: usize) -> &[f64] {
        &self.lanes[tag]
    }

    fn finish(&mut self, tag: usize, bits: &[u8], llrs: &[f64], iterations: usize) {
        assert!(self.out[tag].is_none(), "lane {tag} finished twice");
        self.live -= 1;
        self.out[tag] = Some(DecodeResult {
            bits: bits.to_vec(),
            llrs: llrs.to_vec(),
            iterations_run: iterations,
        });
    }

    fn pass(&mut self, live: usize) {
        assert_eq!(live, self.live, "the pool reports its live lanes");
        self.boundary += 1;
        self.passes.push(live);
    }
}

/// The reference decode of every lane on `tier`: the scalar oracle for
/// `Exact` and `EarlyStop` (with `stop`), a 1-lane batch for `Fast32`.
fn reference_decodes(
    code: &TurboCode,
    lanes: &[Vec<f64>],
    tier: AccuracyTier,
    iterations: usize,
    stop: &dyn Fn(&[u8]) -> bool,
) -> Vec<DecodeResult> {
    let oracle = MaxLogMapDecoder::new(code.k(), code.interleaver());
    let mut scratch = ReferenceScratch::new();
    let mut single = TurboBatchScratch::new();
    lanes
        .iter()
        .map(|llrs| {
            let mut want = DecodeResult::new();
            match tier {
                AccuracyTier::Exact => {
                    oracle.decode_into(llrs, iterations, &mut scratch, &mut want)
                }
                AccuracyTier::EarlyStop => {
                    oracle.decode_into_with_stop(llrs, iterations, &mut scratch, &mut want, stop)
                }
                AccuracyTier::Fast32 => {
                    single.begin_batch(code.coded_len());
                    single.push_lane(llrs);
                    code.decode_batch(DecoderConfig::new(iterations, tier), &mut single, None);
                    want.bits = single.bits(0).to_vec();
                    want.llrs = single.llrs(0).to_vec();
                    want.iterations_run = single.iterations_run(0);
                }
            }
            want
        })
        .collect()
}

/// Runs `lanes` through a pool of `cap` slots on the schedule `at` and
/// checks every lane against its reference decode, bit for bit.
#[allow(clippy::too_many_arguments)]
fn check_schedule<'a>(
    code: &TurboCode,
    lanes: &'a [Vec<f64>],
    at: &'a [usize],
    cap: usize,
    tier: AccuracyTier,
    iterations: usize,
    stop: &dyn Fn(&[u8]) -> bool,
) -> Result<ScheduledFeed<'a>, TestCaseError> {
    let want = reference_decodes(code, lanes, tier, iterations, stop);
    let mut feed = ScheduledFeed::new(lanes, at);
    let cfg = DecoderConfig::new(iterations, tier);
    let tagged_stop = |_tag: usize, bits: &[u8]| stop(bits);
    let stop_check: hspa_phy::turbo::BatchStopCheck<'_> = match tier {
        AccuracyTier::EarlyStop => Some(&tagged_stop),
        AccuracyTier::Exact | AccuracyTier::Fast32 => None,
    };
    code.decode_pool(
        cfg,
        &mut TurboBatchScratch::new(),
        cap,
        &mut feed,
        stop_check,
    );
    prop_assert_eq!(feed.next, lanes.len(), "every lane admitted");
    for (l, want) in want.iter().enumerate() {
        let got = feed.out[l].as_ref().expect("every lane finishes");
        prop_assert_eq!(&got.bits, &want.bits, "{} bits, lane {}", tier, l);
        prop_assert_eq!(
            got.iterations_run,
            want.iterations_run,
            "{} iterations, lane {}",
            tier,
            l
        );
        let got_llrs: Vec<u64> = got.llrs.iter().map(|v| v.to_bits()).collect();
        let want_llrs: Vec<u64> = want.llrs.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_llrs, want_llrs, "{} LLR bit patterns, lane {}", tier, l);
    }
    Ok(feed)
}

/// The `EarlyStop` stand-in for the CRC used with admission schedules.
fn sum_mod3(bits: &[u8]) -> bool {
    bits.iter().map(|&b| b as u32).sum::<u32>() % 3 == 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lanes admitted at random iteration boundaries into a pool of
    /// random capacity decode exactly as the reference decodes them
    /// alone, on every tier.
    #[test]
    fn pooled_admission_equals_reference_lanes(
        k in 40usize..300,
        lanes in 1usize..14,
        cap in 1usize..=POOL_LANES,
        snr_x10 in -40i32..35,
        seed in 0u64..u64::MAX,
        fault_pct in 0u8..25,
        iterations in 1usize..8,
        tier_ix in 0usize..3,
        schedule_seed in 0u64..u64::MAX,
    ) {
        let tier = AccuracyTier::ALL[tier_ix];
        let code = TurboCode::new(k).expect("valid k");
        let llrs: Vec<Vec<f64>> =
            build_lanes(&code, lanes, snr_x10 as f64 / 10.0, seed, fault_pct, 1, None)
                .into_iter()
                .map(|lane| lane.llrs)
                .collect();
        let mut rng = dsp::rng::seeded(schedule_seed);
        let mut boundary = 0;
        let at: Vec<usize> = (0..lanes)
            .map(|_| {
                boundary += (dsp::rng::standard_normal(&mut rng).abs() * 1.5) as usize;
                boundary
            })
            .collect();
        check_schedule(&code, &llrs, &at, cap, tier, iterations, &sum_mod3)?;
    }
}

/// A pool that goes 1 → 4 → 8 → 2 lanes wide with lanes mid-decode at
/// every width change: each lane still matches its reference decode on
/// every tier. Lanes of pure noise never pass the agreement check, so
/// each runs the whole 6-iteration budget and the schedule alone sets
/// the widths: lane 0 alone, lanes 1–2 join at the second boundary
/// (width 4), lanes 3–5 at the third (width 8) and lanes 6–7 at the
/// fourth; lanes 6–7 are then the last two left (width 2).
#[test]
fn pool_widens_and_narrows_with_lanes_in_flight() {
    let code = TurboCode::new(120).expect("valid k");
    let lanes: Vec<Vec<f64>> = (0..8u64)
        .map(|l| {
            let mut rng = dsp::rng::seeded(0x0150 + l);
            (0..code.coded_len())
                .map(|_| 0.5 * dsp::rng::standard_normal(&mut rng))
                .collect()
        })
        .collect();
    let at = [0, 1, 1, 2, 2, 2, 3, 3];
    let never = |_: &[u8]| false;
    for tier in AccuracyTier::ALL {
        let feed = check_schedule(&code, &lanes, &at, POOL_LANES, tier, 6, &never)
            .unwrap_or_else(|e| panic!("{tier}: {e}"));
        let widths = feed.widths();
        let mut shape = widths.clone();
        shape.dedup();
        assert_eq!(shape, [1, 4, 8, 2], "{tier}: pool widths {widths:?}");
    }
}

/// Oracle sanity under the fault-injected inputs the proptests use: a
/// reused oracle workspace reproduces a fresh one, and both agree with
/// the library's single-codeword `TurboCode::decode` (a 1-lane kernel
/// decode), so the reference side of the equivalence is checked too.
#[test]
fn reference_scalar_paths_agree_under_faults() {
    let code = TurboCode::new(120).expect("valid k");
    let oracle = MaxLogMapDecoder::new(code.k(), code.interleaver());
    let mut scratch = ReferenceScratch::new();
    let mut out = DecodeResult::new();
    for seed in 0..6u64 {
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, code.k());
        let coded = code.encode(&bits);
        let llrs = corrupted_llrs(&coded, -1.0, seed ^ 0x5eed, seed ^ 0xfa17, 15);
        oracle.decode_into(&llrs, 8, &mut scratch, &mut out);
        assert_eq!(out, oracle.decode(&llrs, 8), "seed {seed}: scratch reuse");
        assert_eq!(out, code.decode(&llrs, 8), "seed {seed}: kernel");
    }
}

/// Lightly noisy codeword: BPSK at ±2 plus unit Gaussian noise, the
/// regime where lanes stop at different iterations.
fn noisy_codeword(code: &TurboCode, seed: u64) -> (Vec<u8>, Vec<f64>) {
    let mut rng = dsp::rng::seeded(seed);
    let bits = dsp::rng::random_bits(&mut rng, code.k());
    let llrs = code
        .encode(&bits)
        .iter()
        .map(|&b| (if b == 0 { 2.0 } else { -2.0 }) + dsp::rng::standard_normal(&mut rng))
        .collect();
    (bits, llrs)
}

/// Deterministic companion of the `Exact` proptest over every batch
/// shape the kernel schedules differently: one lane, each final-group
/// width, and full groups plus a lone or partial remainder.
#[test]
fn exact_batch_matches_scalar_lane_for_lane() {
    let k = 80;
    let code = TurboCode::new(k).unwrap();
    let oracle = MaxLogMapDecoder::new(k, code.interleaver());
    for lanes in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16] {
        let cases: Vec<_> = (0..lanes)
            .map(|l| noisy_codeword(&code, 1000 + l as u64))
            .collect();
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for (_, llrs) in &cases {
            batch.push_lane(llrs);
        }
        code.decode_batch(DecoderConfig::exact(6), &mut batch, None);
        for (l, (_, llrs)) in cases.iter().enumerate() {
            let want = oracle.decode(llrs, 6);
            assert_eq!(batch.bits(l), &want.bits[..], "bits, lanes={lanes} l={l}");
            assert_eq!(batch.llrs(l), &want.llrs[..], "llrs, lanes={lanes} l={l}");
            assert_eq!(
                batch.iterations_run(l),
                want.iterations_run,
                "iters, lanes={lanes} l={l}"
            );
        }
    }
}

/// `EarlyStop` with a stop check that accepts exactly the transmitted
/// block: lanes finish after decoder 1 or decoder 2 of different
/// iterations, each exactly where the oracle's stop path returns.
#[test]
fn early_stop_batch_matches_scalar_stop_path() {
    let k = 100;
    let code = TurboCode::new(k).unwrap();
    let oracle = MaxLogMapDecoder::new(k, code.interleaver());
    let cases: Vec<_> = (0..5).map(|l| noisy_codeword(&code, 50 + l)).collect();
    let mut batch = TurboBatchScratch::new();
    batch.begin_batch(code.coded_len());
    for (_, llrs) in &cases {
        batch.push_lane(llrs);
    }
    let expected: Vec<Vec<u8>> = cases.iter().map(|(bits, _)| bits.clone()).collect();
    let stop = |lane: usize, cand: &[u8]| cand == expected[lane];
    code.decode_batch(
        DecoderConfig::new(8, AccuracyTier::EarlyStop),
        &mut batch,
        Some(&stop),
    );
    let mut scratch = ReferenceScratch::new();
    let mut out = DecodeResult::new();
    for (l, (bits, llrs)) in cases.iter().enumerate() {
        oracle.decode_into_with_stop(llrs, 8, &mut scratch, &mut out, &|cand: &[u8]| {
            cand == &bits[..]
        });
        assert_eq!(batch.bits(l), &out.bits[..], "lane {l}");
        assert_eq!(batch.llrs(l), &out.llrs[..], "lane {l}");
        assert_eq!(batch.iterations_run(l), out.iterations_run, "lane {l}");
    }
}

/// The link-level form of the contract: every lane of a 2-, 3-, 8- or
/// 16-lane wave ends with exactly the `PacketOutcome` that
/// `simulate_packet_with` (a 1-lane wave) gives the same packet seed on
/// the same die. Lanes are compared one by one, not as aggregate
/// statistics, so a lane mix-up cannot hide: each storage runs at an
/// SNR where HARQ retransmits and outcomes differ from packet to packet
/// (the faulty and upset-prone arrays need more SNR than the clean ones
/// to get there).
#[test]
fn wave_lanes_match_single_packet_outcomes() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use resilience_core::config::SystemConfig;
    use resilience_core::montecarlo::{build_buffer, DefectSpec, StorageConfig};
    use resilience_core::simulator::{LinkSimulator, PacketOutcome, PacketScratch, WaveScratch};
    use silicon::fault_map::FaultKind;

    const DIE_SEED: u64 = 0xd1e;
    const PACKETS: usize = 16;
    let packet_seed = |p: usize| dsp::rng::packet_seed(0x1a7e, p as u64);
    for tier in AccuracyTier::ALL {
        let cfg = SystemConfig::fast_test().with_tier(tier);
        let sim = LinkSimulator::new(cfg);
        let storages = [
            (StorageConfig::Perfect, 2.0),
            (StorageConfig::Quantized, 2.0),
            (StorageConfig::unprotected(0.10, cfg.llr_bits), 8.0),
            (StorageConfig::msb_protected(4, 0.10, cfg.llr_bits), 2.0),
            (
                StorageConfig::Ecc {
                    defects: DefectSpec::Fraction(0.10),
                    fault_kind: FaultKind::Flip,
                },
                8.0,
            ),
            (StorageConfig::Transient { p_upset: 0.01 }, 8.0),
        ];
        for (storage, snr_db) in &storages {
            let mut buffer = build_buffer(&cfg, storage, DIE_SEED);
            let mut scratch = PacketScratch::new();
            let single: Vec<PacketOutcome> = (0..PACKETS)
                .map(|p| {
                    let pseed = packet_seed(p);
                    buffer.begin_packet(pseed);
                    let mut rng = StdRng::seed_from_u64(pseed);
                    sim.simulate_packet_with(*snr_db, &mut buffer, &mut rng, &mut scratch)
                })
                .collect();
            assert!(
                single.iter().any(|o| o.transmissions_used > 1)
                    && single.iter().any(|o| *o != single[0]),
                "{tier}/{storage:?}: {snr_db} dB must retransmit and vary by packet"
            );
            for width in [2, 3, 8, 16] {
                let mut buffers: Vec<_> = (0..width)
                    .map(|_| build_buffer(&cfg, storage, DIE_SEED))
                    .collect();
                let mut rngs: Vec<StdRng> = buffers
                    .iter_mut()
                    .enumerate()
                    .map(|(l, buffer)| {
                        let pseed = packet_seed(l);
                        buffer.begin_packet(pseed);
                        StdRng::seed_from_u64(pseed)
                    })
                    .collect();
                let mut scratches: Vec<PacketScratch> =
                    (0..width).map(|_| PacketScratch::new()).collect();
                let mut out = vec![PacketOutcome::default(); width];
                sim.simulate_wave_with(
                    *snr_db,
                    &mut buffers,
                    &mut rngs,
                    &mut scratches,
                    &mut TurboBatchScratch::new(),
                    &mut WaveScratch::new(),
                    &mut out,
                );
                assert_eq!(
                    out,
                    single[..width],
                    "{tier}/{storage:?}: lanes of a {width}-lane wave"
                );
            }
        }
    }
}
