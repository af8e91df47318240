//! Golden decode corpus: the decoder's bit-exactness contract.
//!
//! The hot-path rewrite of the turbo decoder (scratch buffers,
//! per-step branch-metric precomputation, fused backward sweep, the
//! mask-compiled fault memory, the scratch-based MMSE design) claims to
//! change **zero output bits** versus the straightforward reference
//! implementation. This corpus pins that claim:
//!
//! * decoder-level cases hash the hard decisions *and the raw `f64` bit
//!   patterns of every posterior LLR* — any numerical deviation,
//!   however small, changes the hash;
//! * link-level cases run full packets (CRC → encode → channel →
//!   equalize → HARQ → decode) across every channel model and storage
//!   backend and hash the resulting `PacketOutcome` sequences.
//!
//! The committed values were generated by `cargo run --release --bin
//! golden-gen` **on the pre-refactor tree** (commit b222911), so passing
//! here proves the optimized path reproduces the original outputs
//! bit for bit. Any future decoder/equalizer/storage change must keep
//! these green, or consciously regenerate the tables with that binary
//! and justify the numerical change in review.

use rand::SeedableRng;

use resilience_core::config::{ChannelKind, SystemConfig};
use resilience_core::montecarlo::{build_buffer, DefectSpec, StorageConfig};
use resilience_core::simulator::{LinkSimulator, PacketScratch};
use silicon::fault_map::FaultKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over a byte stream, seedable for chaining.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_decode(bits: &[u8], llrs: &[f64]) -> u64 {
    let h = fnv1a(bits.iter().copied(), FNV_OFFSET);
    fnv1a(llrs.iter().flat_map(|l| l.to_bits().to_le_bytes()), h)
}

/// BPSK/AWGN LLRs for the coded bits at `snr_db` (Es/N0 per coded bit).
fn noisy_llrs(coded: &[u8], snr_db: f64, seed: u64) -> Vec<f64> {
    let mut rng = dsp::rng::seeded(seed);
    let esn0 = dsp::stats::db_to_linear(snr_db);
    let sigma2 = 1.0 / (2.0 * esn0);
    coded
        .iter()
        .map(|&b| {
            let x = 1.0 - 2.0 * b as f64;
            let y = x + sigma2.sqrt() * dsp::rng::standard_normal(&mut rng);
            2.0 * y / sigma2
        })
        .collect()
}

/// `(k, snr_db_x10, seed, iterations, bits_llr_hash, iterations_run)` —
/// spans short/long blocks and SNRs from hopeless (max iterations) to
/// clean (first-iteration agreement stop).
const GOLDEN_DECODES: &[(usize, i32, u64, usize, u64, usize)] = &[
    (40, -45, 1285, 8, 0xf318fbdbaaf81cad, 6),
    (40, -20, 1260, 8, 0xf358b383ea9a60cd, 2),
    (40, 0, 1240, 8, 0x6c4a5288bbd65982, 1),
    (40, 15, 1255, 8, 0x25d8f7d35c1df6c8, 1),
    (40, 40, 1280, 8, 0x7ff16a17a98ef3b0, 1),
    (120, -45, 3765, 8, 0xfc28224386faad79, 2),
    (120, -20, 3740, 8, 0x43a658cfa0854cfc, 2),
    (120, 0, 3720, 8, 0x6719fe15dfa6472f, 1),
    (120, 15, 3735, 8, 0xca7d0c353a2b4a72, 1),
    (120, 40, 3760, 8, 0x33a2f36715b39841, 1),
    (624, -45, 19389, 8, 0xc1a2ce42823b8602, 8),
    (624, -20, 19364, 8, 0xe2abdd01d7dc7271, 2),
    (624, 0, 19344, 8, 0x7227261098eee809, 1),
    (624, 15, 19359, 8, 0xce135df8a9002695, 1),
    (624, 40, 19384, 8, 0x1f83c70bb141b152, 1),
    (1000, -45, 31045, 8, 0x43255f0a98077e75, 8),
    (1000, -20, 31020, 8, 0xb21a5febbcbc0abb, 2),
    (1000, 0, 31000, 8, 0xd28ea3ce016cc965, 1),
    (1000, 15, 31015, 8, 0x2f74b0f8a3354f89, 1),
    (1000, 40, 31040, 8, 0x02dc4b250855f281, 1),
];

#[test]
fn decoder_outputs_match_pre_refactor_goldens() {
    for &(k, snr_x10, seed, iterations, want_hash, want_iters) in GOLDEN_DECODES {
        let code = hspa_phy::turbo::TurboCode::new(k).expect("valid k");
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs = noisy_llrs(&coded, snr_x10 as f64 / 10.0, seed ^ 0x5eed);
        let out = code.decode(&llrs, iterations);
        assert_eq!(
            hash_decode(&out.bits, &out.llrs),
            want_hash,
            "decoder output diverged: k={k} snr_x10={snr_x10}"
        );
        assert_eq!(
            out.iterations_run, want_iters,
            "iteration count diverged: k={k} snr_x10={snr_x10}"
        );
    }
}

/// Fast32 decoder-level goldens: the f32 LLR path through a one-lane
/// `TurboBatchScratch`. Same tuple layout as `GOLDEN_DECODES`; the hash
/// folds the widened-`f64` bit patterns of the f32 posteriors, so the
/// exact f32 arithmetic is pinned — not a rounded view of it. Generated
/// by `golden-gen` when the tier shipped; regenerate with that binary on
/// any intentional change to the f32 kernel.
const GOLDEN_DECODES_FAST32: &[(usize, i32, u64, usize, u64, usize)] = &[
    (40, -45, 1285, 8, 0x78bff048349e4bcd, 6),
    (40, -20, 1260, 8, 0xd23979f6967ec253, 2),
    (40, 0, 1240, 8, 0x71e32fe47f497a8e, 1),
    (40, 15, 1255, 8, 0xcc4206bfddfed6c2, 1),
    (40, 40, 1280, 8, 0x33572a7764d3a5ba, 1),
    (120, -45, 3765, 8, 0x2b105ff05d11e571, 2),
    (120, -20, 3740, 8, 0x3f6a80b9fd4fb3e5, 2),
    (120, 0, 3720, 8, 0x145b2c4cbef7bab5, 1),
    (120, 15, 3735, 8, 0x430bdb1114beecf7, 1),
    (120, 40, 3760, 8, 0x837287ffd33f91b5, 1),
    (624, -45, 19389, 8, 0xbb30cebf9cb15ba2, 8),
    (624, -20, 19364, 8, 0xd5f602b84c7b8deb, 2),
    (624, 0, 19344, 8, 0x248d23a6dd7787ed, 1),
    (624, 15, 19359, 8, 0x653724fe8f9d5136, 1),
    (624, 40, 19384, 8, 0x91ccb57d317f220c, 1),
    (1000, -45, 31045, 8, 0xe3450906967c06f1, 8),
    (1000, -20, 31020, 8, 0x6672a0a5b592d029, 2),
    (1000, 0, 31000, 8, 0x36716f973ee8cd82, 1),
    (1000, 15, 31015, 8, 0x666fa7a6a46f84b9, 1),
    (1000, 40, 31040, 8, 0x8693fcc364741785, 1),
];

#[test]
fn fast32_decoder_outputs_match_goldens() {
    use hspa_phy::turbo::{AccuracyTier, DecoderConfig, TurboBatchScratch};
    let mut batch = TurboBatchScratch::new();
    for &(k, snr_x10, seed, iterations, want_hash, want_iters) in GOLDEN_DECODES_FAST32 {
        let code = hspa_phy::turbo::TurboCode::new(k).expect("valid k");
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs = noisy_llrs(&coded, snr_x10 as f64 / 10.0, seed ^ 0x5eed);
        batch.begin_batch(llrs.len());
        batch.push_lane(&llrs);
        code.decode_batch(
            DecoderConfig::new(iterations, AccuracyTier::Fast32),
            &mut batch,
            None,
        );
        assert_eq!(
            hash_decode(batch.bits(0), batch.llrs(0)),
            want_hash,
            "fast32 decoder output diverged: k={k} snr_x10={snr_x10}"
        );
        assert_eq!(
            batch.iterations_run(0),
            want_iters,
            "fast32 iteration count diverged: k={k} snr_x10={snr_x10}"
        );
    }
}

#[test]
fn scratch_decode_matches_fresh_decode_on_corpus() {
    // The `_into` path with one long-lived scratch must equal the
    // allocating path case for case (stale-state check over the corpus).
    let mut scratch = hspa_phy::turbo::TurboScratch::new();
    let mut out = hspa_phy::turbo::DecodeResult::new();
    for &(k, snr_x10, seed, iterations, _, _) in GOLDEN_DECODES {
        let code = hspa_phy::turbo::TurboCode::new(k).expect("valid k");
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs = noisy_llrs(&coded, snr_x10 as f64 / 10.0, seed ^ 0x5eed);
        code.decode_into(&llrs, iterations, &mut scratch, &mut out);
        assert_eq!(out, code.decode(&llrs, iterations), "k={k} snr={snr_x10}");
    }
}

/// `(cfg, channel, storage, snr_db_x10, packets, outcome_hash)` — full
/// link-chain outcomes across channel models × storage backends × SNRs.
const GOLDEN_OUTCOMES: &[(&str, &str, &str, i32, u64, u64)] = &[
    ("fast", "awgn", "perfect", 20, 6, 0x229e212455230c4d),
    ("fast", "awgn", "perfect", 80, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "perfect", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "quantized", 20, 6, 0x1daef50723561a17),
    ("fast", "awgn", "quantized", 80, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "quantized", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "awgn", "faulty10", 80, 6, 0x29c271638f720f45),
    ("fast", "awgn", "faulty10", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "secded10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "awgn", "secded10", 80, 6, 0x29c271638f720f45),
    ("fast", "awgn", "secded10", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "peda", "perfect", 20, 6, 0x19c15993c1efe401),
    ("fast", "peda", "perfect", 80, 6, 0x5a424dd5ab3dbb5f),
    ("fast", "peda", "perfect", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "peda", "quantized", 20, 6, 0x2d9dbceee88dc435),
    ("fast", "peda", "quantized", 80, 6, 0xb206ab998759dfab),
    ("fast", "peda", "quantized", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "peda", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "peda", "faulty10", 80, 6, 0xd84534bbb12e2805),
    ("fast", "peda", "faulty10", 200, 6, 0x01f001bc873e6759),
    ("fast", "peda", "secded10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "peda", "secded10", 80, 6, 0x6b3b1961c6834675),
    ("fast", "peda", "secded10", 200, 6, 0x0544f885d23d02ab),
    ("fast", "veha", "perfect", 20, 6, 0xd1fce184594bbc1d),
    ("fast", "veha", "perfect", 80, 6, 0xfc4a1ca68389c3ad),
    ("fast", "veha", "perfect", 200, 6, 0x471b534a13c8c9df),
    ("fast", "veha", "quantized", 20, 6, 0x26620ef6973e96dd),
    ("fast", "veha", "quantized", 80, 6, 0x2aefdfb726281a23),
    ("fast", "veha", "quantized", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "veha", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "veha", "faulty10", 80, 6, 0x6874abcb24c7a1f1),
    ("fast", "veha", "faulty10", 200, 6, 0xe4f498bf8b216625),
    ("fast", "veha", "secded10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "veha", "secded10", 80, 6, 0x164d2e533041b751),
    ("fast", "veha", "secded10", 200, 6, 0xd6a960752fa749cb),
    ("fast", "jakes", "perfect", 20, 6, 0xfa22e0a2553df037),
    ("fast", "jakes", "perfect", 80, 6, 0xc86dbf6d985fd0c9),
    ("fast", "jakes", "perfect", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "jakes", "quantized", 20, 6, 0x6eede6d17b7c879d),
    ("fast", "jakes", "quantized", 80, 6, 0xb8b09aa47a1391f3),
    ("fast", "jakes", "quantized", 200, 6, 0x49baf7fc79a5e6ff),
    ("fast", "jakes", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "jakes", "faulty10", 80, 6, 0x6b537167aa260761),
    ("fast", "jakes", "faulty10", 200, 6, 0xfcb0f498f25f902b),
    ("fast", "jakes", "secded10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "jakes", "secded10", 80, 6, 0xb0f7b94a1cb49005),
    ("fast", "jakes", "secded10", 200, 6, 0x195d48a37fbaef1b),
    ("paper", "awgn", "perfect", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "awgn", "perfect", 80, 2, 0x9e749290540f5425),
    ("paper", "awgn", "perfect", 200, 2, 0xb5d0e0774c7d7499),
    ("paper", "awgn", "quantized", 20, 2, 0x2a8d1e7f8a399f21),
    ("paper", "awgn", "quantized", 80, 2, 0x9e749290540f5425),
    ("paper", "awgn", "quantized", 200, 2, 0xb5d0e0774c7d7499),
    ("paper", "awgn", "faulty10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "awgn", "faulty10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "awgn", "faulty10", 200, 2, 0x9e749290540f5425),
    ("paper", "awgn", "secded10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "awgn", "secded10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "awgn", "secded10", 200, 2, 0x9e749290540f5425),
    ("paper", "peda", "perfect", 20, 2, 0xefe0ae5e58971591),
    ("paper", "peda", "perfect", 80, 2, 0xe4843b87ef2757b3),
    ("paper", "peda", "perfect", 200, 2, 0xb5cd77774c7a8c57),
    ("paper", "peda", "quantized", 20, 2, 0xefe0ae5e58971591),
    ("paper", "peda", "quantized", 80, 2, 0x9e60309053fe0495),
    ("paper", "peda", "quantized", 200, 2, 0xb5d0e0774c7d7499),
    ("paper", "peda", "faulty10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "peda", "faulty10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "peda", "faulty10", 200, 2, 0x9e6a5f905406a8f7),
    ("paper", "peda", "secded10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "peda", "secded10", 80, 2, 0xefe0ae5e58971591),
    ("paper", "peda", "secded10", 200, 2, 0xe46fd987ef160823),
    ("paper", "veha", "perfect", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "perfect", 80, 2, 0xe4843b87ef2757b3),
    ("paper", "veha", "perfect", 200, 2, 0xb5cd77774c7a8c57),
    ("paper", "veha", "quantized", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "quantized", 80, 2, 0xe4843b87ef2757b3),
    ("paper", "veha", "quantized", 200, 2, 0x9e6a5f905406a8f7),
    ("paper", "veha", "faulty10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "faulty10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "faulty10", 200, 2, 0xefd31e5e588b9685),
    ("paper", "veha", "secded10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "secded10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "veha", "secded10", 200, 2, 0x9e60309053fe0495),
    ("paper", "jakes", "perfect", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "jakes", "perfect", 80, 2, 0x2a86587f8a33e301),
    ("paper", "jakes", "perfect", 200, 2, 0x9e6a5f905406a8f7),
    ("paper", "jakes", "quantized", 20, 2, 0x2a8d1e7f8a399f21),
    ("paper", "jakes", "quantized", 80, 2, 0x9e6dc090540983a1),
    ("paper", "jakes", "quantized", 200, 2, 0xb5d0e0774c7d7499),
    ("paper", "jakes", "faulty10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "jakes", "faulty10", 80, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "jakes", "faulty10", 200, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "jakes", "secded10", 20, 2, 0x2a7f8e7f8a2e2015),
    ("paper", "jakes", "secded10", 80, 2, 0x2a8d1e7f8a399f21),
    ("paper", "jakes", "secded10", 200, 2, 0x9e749290540f5425),
];

fn corpus_config(cfg_name: &str, ch_name: &str) -> SystemConfig {
    let mut cfg = match cfg_name {
        "fast" => SystemConfig::fast_test(),
        "paper" => SystemConfig::paper_64qam(),
        other => panic!("unknown config {other}"),
    };
    cfg.channel = match ch_name {
        "awgn" => ChannelKind::Awgn,
        "peda" => ChannelKind::PedestrianA,
        "veha" => ChannelKind::VehicularA,
        "jakes" => ChannelKind::CorrelatedSlowFading,
        other => panic!("unknown channel {other}"),
    };
    cfg.equalizer_taps = if cfg.channel == ChannelKind::VehicularA {
        21
    } else {
        7
    };
    cfg
}

fn corpus_storage(st_name: &str, cfg: &SystemConfig) -> StorageConfig {
    match st_name {
        "perfect" => StorageConfig::Perfect,
        "quantized" => StorageConfig::Quantized,
        "faulty10" => StorageConfig::unprotected(0.10, cfg.llr_bits),
        "secded10" => StorageConfig::Ecc {
            defects: DefectSpec::Fraction(0.10),
            fault_kind: FaultKind::Flip,
        },
        other => panic!("unknown storage {other}"),
    }
}

/// EarlyStop link-level goldens (CRC-gated iteration stop). Same layout
/// as `GOLDEN_OUTCOMES` over a reduced channel × storage slice. The CRC
/// stop can only *reduce* iterations, never flip a decodable block to a
/// failure, so most hashes coincide with Exact — the divergent faulty
/// cases are exactly where an early stop froze a block Exact would have
/// polished further.
const GOLDEN_OUTCOMES_EARLYSTOP: &[(&str, &str, &str, i32, u64, u64)] = &[
    ("fast", "awgn", "perfect", 20, 6, 0x229e212455230c4d),
    ("fast", "awgn", "perfect", 80, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "perfect", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "awgn", "faulty10", 80, 6, 0x87e4c3356df2df55),
    ("fast", "awgn", "faulty10", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "veha", "perfect", 20, 6, 0xd1fce184594bbc1d),
    ("fast", "veha", "perfect", 80, 6, 0xfc4a1ca68389c3ad),
    ("fast", "veha", "perfect", 200, 6, 0x471b534a13c8c9df),
    ("fast", "veha", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "veha", "faulty10", 80, 6, 0x6874abcb24c7a1f1),
    ("fast", "veha", "faulty10", 200, 6, 0xe4f498bf8b216625),
];

/// Fast32 link-level goldens. Packet *outcomes* (success / transmission
/// counts) are coarse enough that f32 posteriors agree with f64 on this
/// slice — the f32 arithmetic itself is pinned bit-exactly by
/// `GOLDEN_DECODES_FAST32` above.
const GOLDEN_OUTCOMES_FAST32: &[(&str, &str, &str, i32, u64, u64)] = &[
    ("fast", "awgn", "perfect", 20, 6, 0x229e212455230c4d),
    ("fast", "awgn", "perfect", 80, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "perfect", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "awgn", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "awgn", "faulty10", 80, 6, 0x29c271638f720f45),
    ("fast", "awgn", "faulty10", 200, 6, 0x49be60fc79a8cf41),
    ("fast", "veha", "perfect", 20, 6, 0xd1fce184594bbc1d),
    ("fast", "veha", "perfect", 80, 6, 0xfc4a1ca68389c3ad),
    ("fast", "veha", "perfect", 200, 6, 0x471b534a13c8c9df),
    ("fast", "veha", "faulty10", 20, 6, 0xd9f734f085219ef5),
    ("fast", "veha", "faulty10", 80, 6, 0x6874abcb24c7a1f1),
    ("fast", "veha", "faulty10", 200, 6, 0xe4f498bf8b216625),
];

/// Runs one tier's link-level table through `simulate_packet_with` (a
/// 1-lane wave) and checks every hash.
fn check_tiered_outcomes(
    tier: hspa_phy::turbo::AccuracyTier,
    table: &[(&str, &str, &str, i32, u64, u64)],
) {
    for &(cfg_name, ch_name, st_name, snr_x10, packets, want) in table {
        let cfg = corpus_config(cfg_name, ch_name).with_tier(tier);
        let sim = LinkSimulator::new(cfg);
        let storage = corpus_storage(st_name, &cfg);
        let seed = fnv1a(
            format!("{cfg_name}/{ch_name}/{st_name}/{snr_x10}").bytes(),
            FNV_OFFSET,
        );
        let mut buffer = build_buffer(&cfg, &storage, seed ^ 0xd1e);
        let mut scratch = PacketScratch::new();
        let mut h = FNV_OFFSET;
        for p in 0..packets {
            let pseed = dsp::rng::packet_seed(seed, p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(pseed);
            buffer.begin_packet(pseed);
            let out = sim.simulate_packet_with(
                snr_x10 as f64 / 10.0,
                &mut buffer,
                &mut rng,
                &mut scratch,
            );
            h = fnv1a(
                [
                    out.success_after.map_or(0, |t| t as u8),
                    out.transmissions_used as u8,
                ],
                h,
            );
        }
        assert_eq!(
            h, want,
            "{tier} outcomes diverged: {cfg_name}/{ch_name}/{st_name}/{snr_x10}"
        );
    }
}

#[test]
fn earlystop_outcomes_match_goldens() {
    check_tiered_outcomes(
        hspa_phy::turbo::AccuracyTier::EarlyStop,
        GOLDEN_OUTCOMES_EARLYSTOP,
    );
}

#[test]
fn fast32_outcomes_match_goldens() {
    check_tiered_outcomes(
        hspa_phy::turbo::AccuracyTier::Fast32,
        GOLDEN_OUTCOMES_FAST32,
    );
}

/// Every tier must produce identical aggregate statistics at 1, 2 and 8
/// worker threads, in 8-lane and 1-lane waves. The 1-thread 1-lane run
/// does per packet what `simulate_packet_with` does, which the tier
/// golden tables above pin — so this closes the chain from "engine at
/// any thread count / batch width" back to the committed goldens.
#[test]
fn tiered_engine_results_are_thread_and_batch_invariant() {
    use resilience_core::engine::{PointSpec, SimulationEngine};
    for tier in hspa_phy::turbo::AccuracyTier::ALL {
        let cfg = SystemConfig::fast_test().with_tier(tier);
        let sim = LinkSimulator::new(cfg);
        let specs = [
            PointSpec {
                storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
                snr_db: 8.0,
                n_packets: 11,
                seed: 0x670,
            },
            PointSpec {
                storage: StorageConfig::Perfect,
                snr_db: 14.0,
                n_packets: 7,
                seed: 99,
            },
        ];
        let run = |threads: usize, lanes: usize| {
            SimulationEngine::with_threads(threads)
                .shard_packets(4)
                .batch_lanes(lanes)
                .run_batch(&sim, &specs)
        };
        let reference = run(1, 1);
        for (threads, lanes) in [(1, 8), (2, 8), (8, 8), (2, 1)] {
            assert_eq!(
                reference,
                run(threads, lanes),
                "{tier}: threads={threads} lanes={lanes} diverged from scalar"
            );
        }
    }
}

#[test]
fn packet_outcomes_match_pre_refactor_goldens() {
    for &(cfg_name, ch_name, st_name, snr_x10, packets, want) in GOLDEN_OUTCOMES {
        let cfg = corpus_config(cfg_name, ch_name);
        let sim = LinkSimulator::new(cfg);
        let storage = corpus_storage(st_name, &cfg);
        let seed = fnv1a(
            format!("{cfg_name}/{ch_name}/{st_name}/{snr_x10}").bytes(),
            FNV_OFFSET,
        );
        let mut buffer = build_buffer(&cfg, &storage, seed ^ 0xd1e);
        let mut scratch = PacketScratch::new();
        let mut h = FNV_OFFSET;
        for p in 0..packets {
            let pseed = dsp::rng::packet_seed(seed, p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(pseed);
            buffer.begin_packet(pseed);
            let out = sim.simulate_packet_with(
                snr_x10 as f64 / 10.0,
                &mut buffer,
                &mut rng,
                &mut scratch,
            );
            h = fnv1a(
                [
                    out.success_after.map_or(0, |t| t as u8),
                    out.transmissions_used as u8,
                ],
                h,
            );
        }
        assert_eq!(
            h, want,
            "packet outcomes diverged: {cfg_name}/{ch_name}/{st_name}/{snr_x10}"
        );
    }
}
