//! Property tests: batched lockstep decoding is bit-identical, lane for
//! lane, to N independent scalar decodes — hard decisions, the raw
//! `f64` bit patterns of every posterior LLR, and the per-lane
//! iteration counts all must match exactly, for random block lengths,
//! random noise, random injected fault patterns, and every tier.
//!
//! This is the contract that lets the engine turn batching on by
//! default: a batched campaign must be indistinguishable from an
//! unbatched one at the level of individual bits, not just statistics.

use proptest::prelude::*;

use hspa_phy::turbo::{
    AccuracyTier, DecodeResult, DecoderConfig, MaxLogMapDecoder, TurboBatchScratch, TurboCode,
    TurboScratch,
};

/// BPSK/AWGN LLRs with a crude injected fault pattern: a slice of the
/// positions (chosen by `fault_seed`) gets its LLR sign flipped and
/// another slice gets saturated — the kinds of corruption a faulty LLR
/// memory produces, applied identically to the scalar and batched runs.
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

/// One lane's scalar reference decode (the exact path the unbatched
/// engine runs), plus the inputs so the batch can replay it.
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
    let mut scratch = TurboScratch::new();
    (0..lanes)
        .map(|lane| {
            let lseed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane as u64;
            let mut rng = dsp::rng::seeded(lseed);
            let bits = dsp::rng::random_bits(&mut rng, code.k());
            let coded = code.encode(&bits);
            let llrs = corrupted_llrs(&coded, snr_db, lseed ^ 0x5eed, lseed ^ 0xfa17, fault_pct);
            let mut reference = DecodeResult::new();
            match stop {
                None => code.decode_into(&llrs, iterations, &mut scratch, &mut reference),
                Some(f) => {
                    code.decode_into_with_stop(&llrs, iterations, &mut scratch, &mut reference, f)
                }
            }
            Lane { llrs, reference }
        })
        .collect()
}

/// Asserts lane `i` of `batch` equals its scalar reference bit for bit.
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

    /// Exact tier: batched == N independent scalar `decode_into` calls.
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
    /// scalar `decode_into_with_stop` calls using the same predicate.
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

    /// Fast32 tier: an N-lane batch equals N one-lane batches — the f32
    /// kernel has no separate scalar implementation, so one-lane batches
    /// are its reference semantics (and are themselves pinned by the
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
        // Reuse build_lanes for input generation only; the f64 scalar
        // reference it computes is ignored here.
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

/// Scalar decoder sanity: `decode` and `decode_into` agree under the
/// same fault-injected inputs the proptests use (guards the reference
/// side of the equivalence, not just the batched side).
#[test]
fn reference_scalar_paths_agree_under_faults() {
    let code = TurboCode::new(120).expect("valid k");
    let decoder = MaxLogMapDecoder::new(code.k(), code.interleaver());
    let mut scratch = TurboScratch::new();
    let mut out = DecodeResult::new();
    for seed in 0..6u64 {
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, code.k());
        let coded = code.encode(&bits);
        let llrs = corrupted_llrs(&coded, -1.0, seed ^ 0x5eed, seed ^ 0xfa17, 15);
        decoder.decode_into(&llrs, 8, &mut scratch, &mut out);
        assert_eq!(out, code.decode(&llrs, 8), "seed {seed}");
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
