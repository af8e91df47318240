//! Regenerates the golden decode corpus of `tests/decode_golden.rs`.
//!
//! Prints one Rust tuple literal per corpus case; paste the output into
//! the `GOLDEN_*` tables of the test. The corpus pins the decoder's
//! exact bit-level behavior: hard decisions and posterior LLRs are
//! folded into an FNV-1a hash over the raw `f64` bit patterns, so any
//! numerical deviation — however small — changes the hash. Run this
//! binary *before* a decoder/equalizer refactor to prove the refactor
//! is bit-identical, and again after intentional algorithm changes to
//! refresh the tables.
//!
//! ```text
//! cargo run --release --bin golden-gen
//! ```

use rand::SeedableRng;

use hspa_phy::turbo::{AccuracyTier, DecoderConfig, TurboBatchScratch};
use resilience_core::config::{ChannelKind, SystemConfig};
use resilience_core::montecarlo::{build_buffer, DefectSpec, StorageConfig};
use resilience_core::simulator::{LinkSimulator, PacketScratch};
use silicon::fault_map::FaultKind;

/// FNV-1a 64-bit, the same fold the golden test applies.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_decode(bits: &[u8], llrs: &[f64]) -> u64 {
    let h = fnv1a(bits.iter().copied(), FNV_OFFSET);
    fnv1a(llrs.iter().flat_map(|l| l.to_bits().to_le_bytes()), h)
}

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

fn decoder_cases() {
    println!("// (k, snr_db_x10, seed, iterations, bits_llr_hash, iterations_run)");
    for &k in &[40usize, 120, 624, 1000] {
        let code = hspa_phy::turbo::TurboCode::new(k).expect("valid k");
        for &snr_x10 in &[-45i32, -20, 0, 15, 40] {
            let seed = k as u64 * 31 + snr_x10.unsigned_abs() as u64;
            let mut rng = dsp::rng::seeded(seed);
            let bits = dsp::rng::random_bits(&mut rng, k);
            let coded = code.encode(&bits);
            let llrs = noisy_llrs(&coded, snr_x10 as f64 / 10.0, seed ^ 0x5eed);
            let out = code.decode(&llrs, 8);
            println!(
                "    ({k}, {snr_x10}, {seed}, 8, 0x{:016x}, {}),",
                hash_decode(&out.bits, &out.llrs),
                out.iterations_run
            );
        }
    }
}

/// Decoder-level Fast32 goldens: the f32 LLR path through a one-lane
/// `TurboBatchScratch`. The hash still folds `f64` bit patterns — the
/// batch scratch widens its f32 posteriors on output — so these tables
/// pin the exact f32 arithmetic, not a rounded view of it.
fn fast32_decoder_cases() {
    println!("// (k, snr_db_x10, seed, iterations, bits_llr_hash, iterations_run)");
    let mut batch = TurboBatchScratch::new();
    for &k in &[40usize, 120, 624, 1000] {
        let code = hspa_phy::turbo::TurboCode::new(k).expect("valid k");
        for &snr_x10 in &[-45i32, -20, 0, 15, 40] {
            let seed = k as u64 * 31 + snr_x10.unsigned_abs() as u64;
            let mut rng = dsp::rng::seeded(seed);
            let bits = dsp::rng::random_bits(&mut rng, k);
            let coded = code.encode(&bits);
            let llrs = noisy_llrs(&coded, snr_x10 as f64 / 10.0, seed ^ 0x5eed);
            batch.begin_batch(llrs.len());
            batch.push_lane(&llrs);
            code.decode_batch(
                DecoderConfig::new(8, AccuracyTier::Fast32),
                &mut batch,
                None,
            );
            println!(
                "    ({k}, {snr_x10}, {seed}, 8, 0x{:016x}, {}),",
                hash_decode(batch.bits(0), batch.llrs(0)),
                batch.iterations_run(0)
            );
        }
    }
}

fn outcome_cases(tier: AccuracyTier) {
    println!("// (cfg, channel, storage, snr_db_x10, packets, outcome_hash)");
    // The Exact tier sweeps the full channel × storage × config grid;
    // the non-default tiers pin a reduced but still faulty-inclusive
    // slice so the per-tier tables stay cheap to run in CI.
    let channels: &[(&str, ChannelKind)] = if tier == AccuracyTier::Exact {
        &[
            ("awgn", ChannelKind::Awgn),
            ("peda", ChannelKind::PedestrianA),
            ("veha", ChannelKind::VehicularA),
            ("jakes", ChannelKind::CorrelatedSlowFading),
        ]
    } else {
        &[
            ("awgn", ChannelKind::Awgn),
            ("veha", ChannelKind::VehicularA),
        ]
    };
    let configs: &[(&str, SystemConfig)] = if tier == AccuracyTier::Exact {
        &[
            ("fast", SystemConfig::fast_test()),
            ("paper", SystemConfig::paper_64qam()),
        ]
    } else {
        &[("fast", SystemConfig::fast_test())]
    };
    for &(cfg_name, mut cfg) in configs {
        cfg.accuracy_tier = tier;
        let packets = if cfg_name == "fast" { 6 } else { 2 };
        for &(ch_name, ch) in channels {
            cfg.channel = ch;
            cfg.equalizer_taps = if ch == ChannelKind::VehicularA { 21 } else { 7 };
            let sim = LinkSimulator::new(cfg);
            let storages: &[(&str, StorageConfig)] = if tier == AccuracyTier::Exact {
                &[
                    ("perfect", StorageConfig::Perfect),
                    ("quantized", StorageConfig::Quantized),
                    ("faulty10", StorageConfig::unprotected(0.10, cfg.llr_bits)),
                    (
                        "secded10",
                        StorageConfig::Ecc {
                            defects: DefectSpec::Fraction(0.10),
                            fault_kind: FaultKind::Flip,
                        },
                    ),
                ]
            } else {
                &[
                    ("perfect", StorageConfig::Perfect),
                    ("faulty10", StorageConfig::unprotected(0.10, cfg.llr_bits)),
                ]
            };
            for (st_name, storage) in storages {
                for &snr_x10 in &[20i32, 80, 200] {
                    let seed = fnv1a(
                        format!("{cfg_name}/{ch_name}/{st_name}/{snr_x10}").bytes(),
                        FNV_OFFSET,
                    );
                    let mut buffer = build_buffer(&cfg, storage, seed ^ 0xd1e);
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
                    println!(
                        "    (\"{cfg_name}\", \"{ch_name}\", \"{st_name}\", {snr_x10}, {packets}, 0x{h:016x}),"
                    );
                }
            }
        }
    }
}

fn main() {
    bench::cli::no_flags();
    println!("// --- decoder-level golden cases (Exact, f64) ---");
    decoder_cases();
    println!("// --- decoder-level golden cases (Fast32, f32 LLR path) ---");
    fast32_decoder_cases();
    println!("// --- link-level packet-outcome golden cases (Exact) ---");
    outcome_cases(AccuracyTier::Exact);
    println!("// --- link-level packet-outcome golden cases (EarlyStop) ---");
    outcome_cases(AccuracyTier::EarlyStop);
    println!("// --- link-level packet-outcome golden cases (Fast32) ---");
    outcome_cases(AccuracyTier::Fast32);
}
