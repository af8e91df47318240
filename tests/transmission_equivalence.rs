//! The link's fused per-attempt passes against the stage-by-stage chain
//! they replace, bit for bit: the transmit gather against
//! `modulate(interleave(rate_match(..)))`, the receive scatter-add
//! against `accumulate(deinterleave(..))`, and the soft demapper's
//! vectorized multi-symbol loop against one-symbol calls. CI also runs
//! this file at the x86-64 baseline ISA, where the compiler vectorizes
//! these loops differently.

use dsp::rng::{complex_gaussian, random_bits, seeded};
use dsp::Complex64;
use hspa_phy::harq::HarqCombining;
use hspa_phy::interleave::ChannelInterleaver;
use hspa_phy::rate_match::{RateMatcher, TransmissionMap};
use hspa_phy::Modulation;
use proptest::prelude::*;
use rand::Rng;

const MODULATIONS: [Modulation; 3] = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];

/// LLR magnitudes whose sums depend on the order they are added in:
/// `(1e16 + 1) - 1e16` is 0, `(1e16 - 1e16) + 1` is 1.
const ORDER_SENSITIVE: [f64; 3] = [1e16, 1.0, -1e16];

fn order_sensitive_llrs(rng: &mut impl Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| ORDER_SENSITIVE[rng.gen_range(0..ORDER_SENSITIVE.len())])
        .collect()
}

fn symbol_bits(symbols: &[Complex64]) -> Vec<(u64, u64)> {
    symbols
        .iter()
        .map(|s| (s.re.to_bits(), s.im.to_bits()))
        .collect()
}

fn llr_bits(llrs: &[f64]) -> Vec<u64> {
    llrs.iter().map(|l| l.to_bits()).collect()
}

/// Every attempt of both combining modes, every modulation, on one
/// rate-matcher shape.
fn check_shape(k: usize, target: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = seeded(seed);
    let rm = RateMatcher::new(k, target);
    let il = ChannelInterleaver::new(target);
    let coded = random_bits(&mut rng, rm.coded_len());
    let mut fused = Vec::new();
    for combining in [HarqCombining::Chase, HarqCombining::IncrementalRedundancy] {
        for attempt in 0..4 {
            let rv = combining.rv(attempt);
            let map = TransmissionMap::new(&rm, &il, rv);
            let staged_bits = il.interleave(&rm.rate_match(&coded, rv));
            for m in MODULATIONS {
                map.modulate_into(&coded, m, &mut fused);
                let staged = m.modulate(&staged_bits);
                prop_assert_eq!(symbol_bits(&fused), symbol_bits(&staged));
            }

            let llrs = order_sensitive_llrs(&mut rng, target);
            let prior = order_sensitive_llrs(&mut rng, rm.coded_len());
            let mut fused_sum = prior.clone();
            map.scatter_add(&llrs, &mut fused_sum);
            let mut staged_sum = prior;
            rm.accumulate(&il.deinterleave(&llrs), rv, &mut staged_sum);
            prop_assert_eq!(llr_bits(&fused_sum), llr_bits(&staged_sum));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The link's default shape: K = 624 (a 1,884-bit codeword)
    /// punctured to 1,152 channel bits.
    #[test]
    fn fused_passes_match_the_staged_chain_when_puncturing(seed in 0u64..1 << 32) {
        check_shape(624, 1152, seed)?;
    }

    /// K = 100 (a 312-bit codeword) repeated to 324..=600 channel bits
    /// (a multiple of every constellation's bits per symbol): a coded
    /// position is sent more than once, so the scatter-add sums into it
    /// several times per transmission.
    #[test]
    fn fused_passes_match_the_staged_chain_when_repeating(
        seed in 0u64..1 << 32,
        blocks in 27usize..51,
    ) {
        check_shape(100, 12 * blocks, seed)?;
    }

    /// Demapping many symbols in one call (the vectorized loop) gives
    /// the LLRs of demapping each symbol alone.
    #[test]
    fn vectorized_demap_matches_per_symbol_demap(seed in 0u64..1 << 32, n in 1usize..200) {
        let mut rng = seeded(seed);
        let symbols: Vec<Complex64> =
            (0..n).map(|_| complex_gaussian(&mut rng, 1.0) * 1.5).collect();
        let noise_var = 0.01 + rng.gen_range(0.0..1.0);
        for m in MODULATIONS {
            let batch = m.demodulate_soft(&symbols, noise_var);
            let single: Vec<f64> = symbols
                .iter()
                .flat_map(|s| m.demodulate_soft(std::slice::from_ref(s), noise_var))
                .collect();
            prop_assert_eq!(llr_bits(&batch), llr_bits(&single));
        }
    }
}
