//! Gray-mapped QAM modulation and max-log soft demapping.
//!
//! HSDPA uses QPSK and 16QAM, with 64QAM added by HSPA+ — the paper's
//! worst-case study mode. All constellations are square QAM with
//! independent Gray-coded PAM on the I and Q axes and unit average energy,
//! so per-bit LLRs decompose per axis and the max-log demapper runs in
//! `O(√M)` per symbol.
//!
//! Bit order per symbol: the first half of the bits select the I level
//! (MSB first), the second half the Q level.

use dsp::Complex64;
use serde::{Deserialize, Serialize};

/// Modulation alphabets of the HSPA+ downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Modulation {
    /// 4-point QAM, 2 bits per symbol.
    Qpsk,
    /// 16-point QAM, 4 bits per symbol.
    Qam16,
    /// 64-point QAM, 6 bits per symbol (the paper's evaluation mode).
    #[default]
    Qam64,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Bits per axis (I or Q).
    pub fn bits_per_axis(self) -> usize {
        self.bits_per_symbol() / 2
    }

    /// Number of PAM levels per axis.
    pub fn levels_per_axis(self) -> usize {
        1 << self.bits_per_axis()
    }

    /// Normalization factor so the constellation has unit average energy
    /// (`√2` for QPSK, `√10` for 16QAM, `√42` for 64QAM).
    pub fn norm(self) -> f64 {
        // Mean energy of PAM levels ±1, ±3, … ±(L-1) is (L²-1)/3 per axis.
        let l = self.levels_per_axis() as f64;
        (2.0 * (l * l - 1.0) / 3.0).sqrt()
    }

    /// Maps a bit stream to symbols.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of
    /// [`Modulation::bits_per_symbol`] or contains non-binary values.
    pub fn modulate(self, bits: &[u8]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.modulate_into(bits, &mut out);
        out
    }

    /// Allocation-free [`Modulation::modulate`]: clears `out` and fills
    /// it, reusing capacity. The identity-map case of
    /// [`Modulation::modulate_gather_into`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of
    /// [`Modulation::bits_per_symbol`] or contains non-binary values.
    pub fn modulate_into(self, bits: &[u8], out: &mut Vec<Complex64>) {
        self.modulate_with(bits.len(), |i| bits[i], out);
    }

    /// Gather and modulate in one pass: symbol `j` carries the bits
    /// `bits[src[b·j]], …, bits[src[b·j + b − 1]]` (`b` bits per symbol),
    /// so `modulate_gather_into(bits, src, out)` equals modulating the
    /// gathered stream `src.iter().map(|&i| bits[i])`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of
    /// [`Modulation::bits_per_symbol`], an index is out of range, or a
    /// gathered bit is non-binary.
    pub fn modulate_gather_into(self, bits: &[u8], src: &[usize], out: &mut Vec<Complex64>) {
        self.modulate_with(src.len(), |i| bits[src[i]], out);
    }

    /// Clears `out` and fills it with the symbols of the `n_bits`-bit
    /// stream whose `i`-th bit is `bit(i)`.
    fn modulate_with(self, n_bits: usize, bit: impl Fn(usize) -> u8, out: &mut Vec<Complex64>) {
        assert_eq!(
            n_bits % self.bits_per_symbol(),
            0,
            "bit count must be a symbol multiple"
        );
        match self {
            Modulation::Qpsk => modulate_axes::<1>(self.norm(), n_bits, bit, out),
            Modulation::Qam16 => modulate_axes::<2>(self.norm(), n_bits, bit, out),
            Modulation::Qam64 => modulate_axes::<3>(self.norm(), n_bits, bit, out),
        }
    }

    /// Max-log soft demapping: produces one LLR per bit
    /// (`ln P(0)/P(1)`, positive favours 0) given the complex noise
    /// variance `noise_var` per symbol.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is not positive.
    pub fn demodulate_soft(self, symbols: &[Complex64], noise_var: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        self.demodulate_soft_into(symbols, noise_var, &mut out);
        out
    }

    /// Allocation-free [`Modulation::demodulate_soft`]: clears `out` and
    /// fills it with one LLR per bit, reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is not positive.
    pub fn demodulate_soft_into(self, symbols: &[Complex64], noise_var: f64, out: &mut Vec<f64>) {
        assert!(noise_var > 0.0, "noise variance must be positive");
        let norm = self.norm();
        // Hoisted once per call (the values are identical for every
        // symbol): the un-normalized complex noise variance and the
        // per-axis LLR denominator it implies.
        let nv = noise_var * norm * norm;
        let denom = 2.0 * (nv / 2.0);
        out.clear();
        out.resize(symbols.len() * self.bits_per_symbol(), 0.0);
        // Per-constellation unrolled axis demappers: the Gray code of a
        // fixed 2/4/8-level PAM axis is compile-time constant, so the
        // min-distance search over each bit's 0-set and 1-set becomes a
        // branchless `min` tree over fixed subsets — the same minima
        // (and therefore bit-identical LLRs) as the generic level loop
        // in `axis_llrs`, at a fraction of its branchy cost. They write
        // into fixed-size chunks of the presized `out`, which lets the
        // compiler vectorize the loop across symbols.
        match self {
            Modulation::Qpsk => {
                for (s, o) in symbols.iter().zip(out.chunks_exact_mut(2)) {
                    let (i, q) = o.split_at_mut(1);
                    axis_llrs_2pam(s.re * norm, denom, i);
                    axis_llrs_2pam(s.im * norm, denom, q);
                }
            }
            Modulation::Qam16 => {
                for (s, o) in symbols.iter().zip(out.chunks_exact_mut(4)) {
                    let (i, q) = o.split_at_mut(2);
                    axis_llrs_4pam(s.re * norm, denom, i);
                    axis_llrs_4pam(s.im * norm, denom, q);
                }
            }
            Modulation::Qam64 => {
                for (s, o) in symbols.iter().zip(out.chunks_exact_mut(6)) {
                    let (i, q) = o.split_at_mut(3);
                    axis_llrs_8pam(s.re * norm, denom, i);
                    axis_llrs_8pam(s.im * norm, denom, q);
                }
            }
        }
    }

    /// Hard-decision demapping (minimum distance).
    pub fn demodulate_hard(self, symbols: &[Complex64]) -> Vec<u8> {
        self.demodulate_soft(symbols, 1.0)
            .iter()
            .map(|&l| crate::bits::hard_decision(l))
            .collect()
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
        };
        f.write_str(s)
    }
}

/// Un-normalized level of PAM index `idx` on an `l`-level axis (±1,
/// ±3, …): index 0 → +(L-1), index L-1 → -(L-1), descending by 2.
fn pam_level(l: usize, idx: usize) -> f64 {
    (l as f64 - 1.0) - 2.0 * idx as f64
}

/// Gray-decodes one axis's `HALF` bits (MSB first, starting at stream
/// position `base`) into its PAM index `0..2^HALF`. Convention: all-zero
/// bits map to index 0, the most positive level, consistent with
/// "bit 0 → +1" BPSK. `seen` ORs in every bit read, so the caller can
/// reject non-binary input after the pass.
#[inline(always)]
fn gray_index<const HALF: usize>(bit: &impl Fn(usize) -> u8, base: usize, seen: &mut u8) -> usize {
    let mut idx = 0usize;
    let mut acc = 0u8;
    for b in 0..HALF {
        let v = bit(base + b);
        *seen |= v;
        acc ^= v;
        idx = (idx << 1) | (acc & 1) as usize;
    }
    idx
}

/// Square-QAM modulation with `HALF` bits per axis: each axis's Gray
/// index looks its level up in a table whose entries are `pam_level`
/// over `norm`, the same expression per symbol, so every symbol is
/// bit-identical to computing the level in place.
fn modulate_axes<const HALF: usize>(
    norm: f64,
    n_bits: usize,
    bit: impl Fn(usize) -> u8,
    out: &mut Vec<Complex64>,
) {
    let l = 1usize << HALF;
    let levels: [f64; 8] = std::array::from_fn(|idx| pam_level(l, idx) / norm);
    let mut seen = 0u8;
    out.clear();
    out.extend((0..n_bits / (2 * HALF)).map(|j| {
        let base = 2 * HALF * j;
        let i = gray_index::<HALF>(&bit, base, &mut seen);
        let q = gray_index::<HALF>(&bit, base + HALF, &mut seen);
        Complex64::new(levels[i], levels[q])
    }));
    assert!(seen <= 1, "bit vector contains non-binary values");
}

/// 2-PAM (QPSK axis): Gray map `[+1, -1]`, one bit whose 0-set is the
/// positive level.
#[inline]
fn axis_llrs_2pam(y: f64, denom: f64, out: &mut [f64]) {
    let d0 = y - 1.0;
    let d1 = y - -1.0;
    out[0] = (d1 * d1 - d0 * d0) / denom;
}

/// 4-PAM (16QAM axis): levels `[+3, +1, -1, -3]` carry Gray patterns
/// `[00, 01, 11, 10]` (MSB first).
#[inline]
fn axis_llrs_4pam(y: f64, denom: f64, out: &mut [f64]) {
    let d0 = y - 3.0;
    let d1 = y - 1.0;
    let d2 = y - -1.0;
    let d3 = y - -3.0;
    let (q0, q1, q2, q3) = (d0 * d0, d1 * d1, d2 * d2, d3 * d3);
    // MSB: 0-set {+3, +1}, 1-set {-1, -3}.
    out[0] = (q2.min(q3) - q0.min(q1)) / denom;
    // LSB: 0-set {+3, -3}, 1-set {+1, -1}.
    out[1] = (q1.min(q2) - q0.min(q3)) / denom;
}

/// 8-PAM (64QAM axis): levels `[+7, +5, +3, +1, -1, -3, -5, -7]` carry
/// Gray patterns `[000, 001, 011, 010, 110, 111, 101, 100]` (MSB
/// first).
#[inline]
fn axis_llrs_8pam(y: f64, denom: f64, out: &mut [f64]) {
    let d0 = y - 7.0;
    let d1 = y - 5.0;
    let d2 = y - 3.0;
    let d3 = y - 1.0;
    let d4 = y - -1.0;
    let d5 = y - -3.0;
    let d6 = y - -5.0;
    let d7 = y - -7.0;
    let (q0, q1, q2, q3) = (d0 * d0, d1 * d1, d2 * d2, d3 * d3);
    let (q4, q5, q6, q7) = (d4 * d4, d5 * d5, d6 * d6, d7 * d7);
    // MSB: 0-set is the positive half.
    out[0] = (q4.min(q5).min(q6).min(q7) - q0.min(q1).min(q2).min(q3)) / denom;
    // Middle bit: 0-set {±7, ±5}, 1-set {±3, ±1}.
    out[1] = (q2.min(q3).min(q4).min(q5) - q0.min(q1).min(q6).min(q7)) / denom;
    // LSB: 0-set {+7, +1, -1, -7}, 1-set {+5, +3, -3, -5}.
    out[2] = (q1.min(q2).min(q5).min(q6) - q0.min(q3).min(q4).min(q7)) / denom;
}

/// Per-axis max-log LLRs for a received PAM value `y` on the
/// un-normalized axis; `noise_var` is the complex-symbol variance in the
/// same un-normalized units (each axis sees half of it). Kept as the
/// readable reference the unrolled per-constellation demappers are
/// checked against in tests.
#[cfg(test)]
fn axis_llrs(y: f64, bits: usize, noise_var: f64, out: &mut Vec<f64>) {
    let l = 1usize << bits;
    let axis_var = noise_var / 2.0;
    // Enumerate all levels once; for each bit take min-distance over the
    // 0-set and 1-set. L ≤ 8 so this is cheap and exact max-log.
    let mut d2 = [0.0f64; 8];
    let mut bit_patterns = [0usize; 8];
    for idx in 0..l {
        let d = y - pam_level(l, idx);
        d2[idx] = d * d;
        // Gray encode idx back to bits.
        bit_patterns[idx] = idx ^ (idx >> 1);
    }
    for b in 0..bits {
        let shift = bits - 1 - b; // MSB first
        let mut min0 = f64::MAX;
        let mut min1 = f64::MAX;
        for idx in 0..l {
            let bit = (bit_patterns[idx] >> shift) & 1;
            if bit == 0 {
                if d2[idx] < min0 {
                    min0 = d2[idx];
                }
            } else if d2[idx] < min1 {
                min1 = d2[idx];
            }
        }
        out.push((min1 - min0) / (2.0 * axis_var));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::rng::{complex_gaussian, random_bits, seeded};
    use proptest::prelude::*;

    #[test]
    fn constellation_sizes_and_energy() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let n_sym = 1 << m.bits_per_symbol();
            // Enumerate all symbols via all bit patterns.
            let mut bits = Vec::new();
            for v in 0..n_sym {
                for i in (0..m.bits_per_symbol()).rev() {
                    bits.push(((v >> i) & 1) as u8);
                }
            }
            let symbols = m.modulate(&bits);
            assert_eq!(symbols.len(), n_sym);
            let energy: f64 = symbols.iter().map(|s| s.norm_sqr()).sum::<f64>() / n_sym as f64;
            assert!((energy - 1.0).abs() < 1e-12, "{m}: energy {energy}");
            // All points distinct.
            for a in 0..n_sym {
                for b in a + 1..n_sym {
                    assert!(
                        (symbols[a] - symbols[b]).norm() > 1e-9,
                        "{m}: duplicate point"
                    );
                }
            }
        }
    }

    #[test]
    fn unrolled_demappers_match_generic_reference() {
        let mut rng = seeded(77);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let half = m.bits_per_axis();
            let norm = m.norm();
            for i in 0..200 {
                let s = complex_gaussian(&mut rng, 1.0) * 3.0;
                let noise_var = 0.01 + 0.1 * i as f64;
                let mut reference = Vec::new();
                axis_llrs(s.re * norm, half, noise_var * norm * norm, &mut reference);
                axis_llrs(s.im * norm, half, noise_var * norm * norm, &mut reference);
                let fast = m.demodulate_soft(&[s], noise_var);
                assert_eq!(fast, reference, "{m} symbol {s}");
            }
        }
    }

    #[test]
    fn level_table_matches_levels_computed_in_place() {
        // Every symbol pattern, against the level computed per symbol
        // from its Gray-decoded index, bit for bit.
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let (bps, half) = (m.bits_per_symbol(), m.bits_per_axis());
            let bits: Vec<u8> = (0..1usize << bps)
                .flat_map(|v| (0..bps).rev().map(move |i| ((v >> i) & 1) as u8))
                .collect();
            let axis = |chunk: &[u8]| {
                let (mut idx, mut acc) = (0, 0);
                for &b in chunk {
                    acc ^= b;
                    idx = (idx << 1) | acc as usize;
                }
                pam_level(1 << half, idx) / m.norm()
            };
            for (s, chunk) in m.modulate(&bits).iter().zip(bits.chunks(bps)) {
                assert_eq!(s.re.to_bits(), axis(&chunk[..half]).to_bits(), "{m}");
                assert_eq!(s.im.to_bits(), axis(&chunk[half..]).to_bits(), "{m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-binary")]
    fn non_binary_bits_are_rejected() {
        let _ = Modulation::Qam16.modulate(&[0, 1, 2, 0]);
    }

    #[test]
    fn gray_mapping_adjacent_levels_differ_one_bit() {
        // For 8-PAM (64QAM axis): adjacent levels must differ in exactly
        // one Gray bit.
        let bits_per_axis = 3;
        let mut level_to_bits = std::collections::BTreeMap::new();
        for v in 0..8usize {
            let bits: Vec<u8> = (0..bits_per_axis)
                .rev()
                .map(|i| ((v >> i) & 1) as u8)
                .collect();
            let idx = gray_index::<3>(&|b| bits[b], 0, &mut 0);
            let level = pam_level(8, idx) as i64;
            level_to_bits.insert(level, v);
        }
        let levels: Vec<i64> = level_to_bits.keys().copied().collect();
        assert_eq!(levels, vec![-7, -5, -3, -1, 1, 3, 5, 7]);
        for w in levels.windows(2) {
            let a = level_to_bits[&w[0]];
            let b = level_to_bits[&w[1]];
            assert_eq!((a ^ b).count_ones(), 1, "levels {w:?}");
        }
    }

    #[test]
    fn zero_bits_map_positive() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let s = m.modulate(&vec![0u8; m.bits_per_symbol()])[0];
            assert!(s.re > 0.0 && s.im > 0.0, "{m}");
        }
    }

    #[test]
    fn noiseless_roundtrip_all_modulations() {
        let mut rng = seeded(5);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 100);
            let symbols = m.modulate(&bits);
            let hard = m.demodulate_hard(&symbols);
            assert_eq!(hard, bits, "{m}");
        }
    }

    #[test]
    fn soft_llr_signs_match_bits_noiseless() {
        let mut rng = seeded(6);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 50);
            let symbols = m.modulate(&bits);
            let llrs = m.demodulate_soft(&symbols, 0.1);
            for (i, (&b, &l)) in bits.iter().zip(&llrs).enumerate() {
                assert_eq!(b, crate::bits::hard_decision(l), "{m} bit {i}");
            }
        }
    }

    #[test]
    fn qpsk_llr_matches_closed_form() {
        // For QPSK, the max-log LLR reduces to 2·√2·y/σ² per axis
        // (with unit-energy normalization the axis levels are ±1/√2).
        let m = Modulation::Qpsk;
        let y = Complex64::new(0.3, -0.2);
        let nv = 0.5;
        let llrs = m.demodulate_soft(&[y], nv);
        let expect_i = 2.0 * y.re * std::f64::consts::SQRT_2 / nv;
        let expect_q = 2.0 * y.im * std::f64::consts::SQRT_2 / nv;
        assert!(
            (llrs[0] - expect_i).abs() < 1e-9,
            "{} vs {expect_i}",
            llrs[0]
        );
        assert!((llrs[1] - expect_q).abs() < 1e-9);
    }

    #[test]
    fn llr_magnitude_scales_inverse_noise() {
        let m = Modulation::Qam64;
        let bits = vec![0, 1, 1, 0, 1, 0];
        let s = m.modulate(&bits);
        let l1 = m.demodulate_soft(&s, 0.1);
        let l2 = m.demodulate_soft(&s, 0.2);
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a / b - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn denser_constellation_has_higher_raw_ber() {
        // Sanity: at identical symbol SNR, 64QAM has a higher uncoded BER
        // than QPSK.
        let mut rng = seeded(8);
        let snr = 12.0_f64;
        let nv = 1.0 / dsp::stats::db_to_linear(snr);
        let mut ber = [0.0f64; 2];
        for (j, m) in [Modulation::Qpsk, Modulation::Qam64].iter().enumerate() {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 2000);
            let tx = m.modulate(&bits);
            let rx: Vec<Complex64> = tx
                .iter()
                .map(|&s| s + complex_gaussian(&mut rng, nv))
                .collect();
            let hard = m.demodulate_hard(&rx);
            ber[j] = crate::bits::hamming_distance(&hard, &bits) as f64 / bits.len() as f64;
        }
        assert!(
            ber[1] > ber[0],
            "64QAM BER {} should exceed QPSK {}",
            ber[1],
            ber[0]
        );
    }

    proptest! {
        #[test]
        fn modulate_demodulate_roundtrip(seed in 0u64..100) {
            let mut rng = seeded(seed);
            let m = Modulation::Qam64;
            let bits = random_bits(&mut rng, 6 * 20);
            prop_assert_eq!(m.demodulate_hard(&m.modulate(&bits)), bits);
        }

        #[test]
        fn llr_antisymmetric_in_y(y in -2.0f64..2.0) {
            // Flipping the received point flips all LLR signs for QPSK.
            let m = Modulation::Qpsk;
            let a = m.demodulate_soft(&[Complex64::new(y, y)], 0.3);
            let b = m.demodulate_soft(&[Complex64::new(-y, -y)], 0.3);
            prop_assert!((a[0] + b[0]).abs() < 1e-9);
            prop_assert!((a[1] + b[1]).abs() < 1e-9);
        }
    }
}
