//! Fixed-point quantization of log-likelihood ratios (LLRs).
//!
//! The paper stores soft equalizer outputs in the HARQ LLR memory after
//! quantizing each LLR to a `W`-bit word (10 bits in the baseline system,
//! 11/12 bits in the Fig. 9 bit-width study). Hardware faults flip
//! individual *bits* of these words, so the storage format matters: the
//! impact of an upset depends on the significance of the flipped bit and
//! on whether the word is stored in two's-complement or sign-magnitude
//! form. [`LlrQuantizer`] implements both codecs plus saturation, and is
//! the boundary through which the fault simulator perturbs stored soft
//! values.

use serde::{Deserialize, Serialize};

/// Binary representation of the stored LLR word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LlrFormat {
    /// Two's-complement representation (the paper's implicit baseline; the
    /// MSB is the sign bit and carries weight `-2^{W-1}`).
    #[default]
    TwosComplement,
    /// Sign-magnitude representation (bit `W-1` is a pure sign flag). Used
    /// by the ablation benchmark on storage formats.
    SignMagnitude,
}

/// Uniform mid-rise quantizer mapping real LLRs to `W`-bit codewords.
///
/// Values are clipped to `±clip` and linearly mapped to the signed integer
/// range `[-(2^{W-1}-1), 2^{W-1}-1]`; the all-ones negative extreme of
/// two's complement is left unused so both formats share the same dynamic
/// range (a common hardware choice that also keeps the codecs involutive).
///
/// # Example
///
/// ```
/// use dsp::{LlrQuantizer, LlrFormat};
///
/// let q = LlrQuantizer::new(10, 32.0, LlrFormat::TwosComplement);
/// let code = q.quantize(7.25);
/// let back = q.dequantize(code);
/// assert!((back - 7.25).abs() <= q.step());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlrQuantizer {
    bits: u8,
    clip: f64,
    format: LlrFormat,
    /// Cached `clip / max_level` — recomputing it costs a division on
    /// every quantize/dequantize, which dominates the HARQ store/load
    /// path of the link simulator.
    step: f64,
}

impl Default for LlrQuantizer {
    /// The paper's baseline: 10-bit two's-complement, clip at ±32.
    fn default() -> Self {
        Self::new(10, 32.0, LlrFormat::TwosComplement)
    }
}

impl LlrQuantizer {
    /// Creates a quantizer for `bits`-wide words clipped at `±clip`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=31` or `clip` is not positive and
    /// finite.
    pub fn new(bits: u8, clip: f64, format: LlrFormat) -> Self {
        assert!((2..=31).contains(&bits), "LLR width must be in 2..=31 bits");
        assert!(
            clip.is_finite() && clip > 0.0,
            "clip level must be positive and finite"
        );
        let max_level = (1i32 << (bits - 1)) - 1;
        Self {
            bits,
            clip,
            format,
            step: clip / max_level as f64,
        }
    }

    /// Word width in bits.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Clipping level (positive full-scale LLR).
    #[inline]
    pub fn clip(&self) -> f64 {
        self.clip
    }

    /// Storage format.
    #[inline]
    pub fn format(&self) -> LlrFormat {
        self.format
    }

    /// Largest representable signed integer level, `2^{W-1} - 1`.
    #[inline]
    pub fn max_level(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Quantization step size in LLR units.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Bit mask covering one stored word.
    #[inline]
    pub fn word_mask(&self) -> u32 {
        if self.bits == 31 {
            0x7fff_ffff
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Quantizes an LLR to a `W`-bit codeword in the configured format.
    ///
    /// Non-finite inputs saturate: `+∞ → +clip`, `-∞`/`NaN → -clip`
    /// (NaN is treated pessimistically as a strong wrong decision rather
    /// than silently becoming a mid-scale value).
    #[inline]
    pub fn quantize(&self, llr: f64) -> u32 {
        let level = self.level_of(llr);
        self.encode_level(level)
    }

    /// Reconstructs the LLR value encoded by `code`.
    ///
    /// Bits above the word width are ignored. In two's complement the
    /// unused extreme `-2^{W-1}` decodes to `-clip - step` so that every
    /// code (including fault-corrupted ones) decodes to *some* value, as
    /// hardware would.
    #[inline]
    pub fn dequantize(&self, code: u32) -> f64 {
        self.decode_level(code) as f64 * self.step()
    }

    /// Maps an LLR to its signed integer level in `[-max, max]`.
    #[inline]
    fn level_of(&self, llr: f64) -> i32 {
        let max = self.max_level() as f64;
        let x = if llr.is_nan() { -self.clip } else { llr };
        let scaled = (x / self.step()).round();
        scaled.clamp(-max, max) as i32
    }

    /// Encodes a signed level into the configured binary format.
    #[inline]
    fn encode_level(&self, level: i32) -> u32 {
        match self.format {
            LlrFormat::TwosComplement => (level as u32) & self.word_mask(),
            LlrFormat::SignMagnitude => {
                let sign = if level < 0 {
                    1u32 << (self.bits - 1)
                } else {
                    0
                };
                sign | (level.unsigned_abs() & (self.word_mask() >> 1))
            }
        }
    }

    /// Decodes a codeword (in the configured format) into a signed level.
    #[inline]
    pub fn decode_level(&self, code: u32) -> i32 {
        let code = code & self.word_mask();
        match self.format {
            LlrFormat::TwosComplement => {
                let sign_bit = 1u32 << (self.bits - 1);
                if code & sign_bit != 0 {
                    // Wrapping: at 31 bits `1 << bits` is `i32::MIN`.
                    (code as i32).wrapping_sub(1i32 << self.bits)
                } else {
                    code as i32
                }
            }
            LlrFormat::SignMagnitude => {
                let mag = (code & (self.word_mask() >> 1)) as i32;
                if code & (1u32 << (self.bits - 1)) != 0 {
                    -mag
                } else {
                    mag
                }
            }
        }
    }

    /// Slice form of [`LlrQuantizer::quantize`]: `codes[i] =
    /// quantize(llrs[i])`, bit for bit.
    ///
    /// The format dispatch is hoisted out of the loop and the clamped
    /// level is converted without the saturating float-to-int cast: for
    /// an integral `|lv| < 2^51`, `lv + 1.5·2^52` is exact and its low 32
    /// mantissa bits are `lv` in two's complement (`-0.0` gives 0). The
    /// loop body is then straight-line arithmetic that LLVM vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn quantize_into(&self, llrs: &[f64], codes: &mut [u32]) {
        assert_eq!(llrs.len(), codes.len(), "slice length mismatch");
        const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
        let (clip, step, max) = (self.clip, self.step, self.max_level() as f64);
        let level = |llr: f64| {
            let x = if llr.is_nan() { -clip } else { llr };
            ((x / step).round().clamp(-max, max) + MAGIC).to_bits() as u32
        };
        let mask = self.word_mask();
        match self.format {
            LlrFormat::TwosComplement => {
                for (c, &l) in codes.iter_mut().zip(llrs) {
                    *c = level(l) & mask;
                }
            }
            LlrFormat::SignMagnitude => {
                let sign_bit = 1u32 << (self.bits - 1);
                for (c, &l) in codes.iter_mut().zip(llrs) {
                    let lv = level(l) as i32;
                    *c = ((lv >> 31) as u32 & sign_bit) | (lv.unsigned_abs() & (mask >> 1));
                }
            }
        }
    }

    /// Slice form of [`LlrQuantizer::dequantize`]: `llrs[i] =
    /// dequantize(codes[i])`, bit for bit, with the format dispatch
    /// hoisted out of the loop and the sign extended by shifts.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dequantize_into(&self, codes: &[u32], llrs: &mut [f64]) {
        assert_eq!(codes.len(), llrs.len(), "slice length mismatch");
        let step = self.step;
        let unused = 32 - u32::from(self.bits); // bits above the word
        match self.format {
            LlrFormat::TwosComplement => {
                for (l, &c) in llrs.iter_mut().zip(codes) {
                    *l = (((c << unused) as i32) >> unused) as f64 * step;
                }
            }
            LlrFormat::SignMagnitude => {
                let mag_mask = self.word_mask() >> 1;
                let sign_bit = 1u32 << (self.bits - 1);
                for (l, &c) in llrs.iter_mut().zip(codes) {
                    let mag = (c & mag_mask) as i32;
                    *l = if c & sign_bit != 0 { -mag } else { mag } as f64 * step;
                }
            }
        }
    }

    /// Quantizes a slice of LLRs into codewords.
    pub fn quantize_all(&self, llrs: &[f64]) -> Vec<u32> {
        let mut codes = vec![0; llrs.len()];
        self.quantize_into(llrs, &mut codes);
        codes
    }

    /// Dequantizes a slice of codewords into LLRs.
    pub fn dequantize_all(&self, codes: &[u32]) -> Vec<f64> {
        let mut llrs = vec![0.0; codes.len()];
        self.dequantize_into(codes, &mut llrs);
        llrs
    }
}

/// Flips bit `bit` (0 = LSB) of `code`.
///
/// This is the primitive fault operation applied by the silicon layer.
///
/// ```
/// use dsp::fixed::flip_bit;
/// assert_eq!(flip_bit(0b0101, 1), 0b0111);
/// ```
#[inline]
pub fn flip_bit(code: u32, bit: u8) -> u32 {
    code ^ (1u32 << bit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q10() -> LlrQuantizer {
        LlrQuantizer::default()
    }

    #[test]
    fn default_is_papers_baseline() {
        let q = q10();
        assert_eq!(q.bits(), 10);
        assert_eq!(q.format(), LlrFormat::TwosComplement);
        assert_eq!(q.max_level(), 511);
    }

    #[test]
    fn zero_maps_to_zero() {
        for fmt in [LlrFormat::TwosComplement, LlrFormat::SignMagnitude] {
            let q = LlrQuantizer::new(10, 32.0, fmt);
            assert_eq!(q.quantize(0.0), 0);
            assert_eq!(q.dequantize(0), 0.0);
        }
    }

    #[test]
    fn saturates_at_clip() {
        let q = q10();
        assert_eq!(q.quantize(1e9), q.quantize(32.0));
        assert_eq!(q.quantize(-1e9), q.quantize(-32.0));
        assert!((q.dequantize(q.quantize(1e9)) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn infinities_and_nan_saturate() {
        let q = q10();
        assert_eq!(q.quantize(f64::INFINITY), q.quantize(32.0));
        assert_eq!(q.quantize(f64::NEG_INFINITY), q.quantize(-32.0));
        assert_eq!(q.quantize(f64::NAN), q.quantize(-32.0));
    }

    #[test]
    fn msb_flip_is_catastrophic_twos_complement() {
        let q = q10();
        let code = q.quantize(2.0);
        let corrupted = flip_bit(code, 9);
        // Flipping the sign bit of a small positive LLR produces a large
        // negative value — the mechanism behind the paper's MSB sensitivity.
        assert!(q.dequantize(corrupted) < -20.0);
    }

    #[test]
    fn lsb_flip_is_benign() {
        let q = q10();
        let code = q.quantize(2.0);
        let corrupted = flip_bit(code, 0);
        assert!((q.dequantize(corrupted) - 2.0).abs() <= 2.0 * q.step());
    }

    #[test]
    fn sign_magnitude_msb_flips_sign_only() {
        let q = LlrQuantizer::new(10, 32.0, LlrFormat::SignMagnitude);
        let code = q.quantize(2.0);
        let corrupted = flip_bit(code, 9);
        assert!((q.dequantize(corrupted) + 2.0).abs() <= q.step());
    }

    #[test]
    fn negative_extreme_decodes_below_clip() {
        let q = q10();
        // 0b10_0000_0000 is the unused two's-complement extreme.
        let v = q.dequantize(0x200);
        assert!(v < -32.0);
    }

    #[test]
    #[should_panic(expected = "LLR width")]
    fn rejects_one_bit_width() {
        let _ = LlrQuantizer::new(1, 32.0, LlrFormat::TwosComplement);
    }

    #[test]
    #[should_panic(expected = "clip level")]
    fn rejects_nonpositive_clip() {
        let _ = LlrQuantizer::new(10, 0.0, LlrFormat::TwosComplement);
    }

    #[test]
    fn quantize_all_roundtrip_length() {
        let q = q10();
        let xs = vec![0.5, -1.25, 31.0, -31.0];
        let codes = q.quantize_all(&xs);
        assert_eq!(q.dequantize_all(&codes).len(), xs.len());
    }

    const FORMATS: [LlrFormat; 2] = [LlrFormat::TwosComplement, LlrFormat::SignMagnitude];

    /// `quantize_into` / `dequantize_into` must equal the scalar codec
    /// element for element (dequantized values compared bit for bit, so
    /// a `-0.0` for `0.0` fails too).
    fn assert_slice_forms_match(q: &LlrQuantizer, llrs: &[f64]) {
        let mut codes = vec![0; llrs.len()];
        q.quantize_into(llrs, &mut codes);
        for (&l, &c) in llrs.iter().zip(&codes) {
            assert_eq!(c, q.quantize(l), "{q:?}: quantize({l:e})");
        }
        let mut back = vec![0.0; codes.len()];
        q.dequantize_into(&codes, &mut back);
        for (&c, &b) in codes.iter().zip(&back) {
            assert_eq!(
                b.to_bits(),
                q.dequantize(c).to_bits(),
                "{q:?}: dequantize({c:#x})"
            );
        }
    }

    fn special_values(clip: f64) -> Vec<f64> {
        let tiny = f64::MIN_POSITIVE;
        let mut v = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            tiny,
            -tiny,
            tiny / 2.0,
            -tiny / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
        ];
        for x in [clip, -clip] {
            v.extend([x, x.next_up(), x.next_down(), 2.0 * x]);
        }
        v
    }

    #[test]
    fn slice_forms_match_scalar_at_every_width() {
        use rand::Rng;
        let mut rng = crate::rng::seeded(7);
        for bits in 2..=31 {
            for fmt in FORMATS {
                let q = LlrQuantizer::new(bits, 32.0, fmt);
                let mut llrs = special_values(q.clip());
                llrs.extend((0..2000).map(|_| rng.gen_range(-48.0..48.0)));
                assert_slice_forms_match(&q, &llrs);
            }
        }
    }

    #[test]
    fn slice_forms_match_scalar_at_level_boundaries() {
        for bits in [10, 11, 12] {
            for fmt in FORMATS {
                let q = LlrQuantizer::new(bits, 32.0, fmt);
                let reach = q.max_level() + 2;
                let mut llrs = Vec::new();
                for k in -reach..=reach {
                    for half in [-0.5, 0.5] {
                        let x = (k as f64 + half) * q.step();
                        llrs.extend([x, x.next_up(), x.next_down()]);
                    }
                }
                assert_slice_forms_match(&q, &llrs);
            }
        }
    }

    #[test]
    fn dequantize_into_matches_scalar_on_every_code() {
        for bits in 2..=16 {
            for fmt in FORMATS {
                let q = LlrQuantizer::new(bits, 32.0, fmt);
                let codes: Vec<u32> = (0..1u32 << bits)
                    // Bits above the word width must be ignored alike.
                    .flat_map(|c| [c, c | !q.word_mask()])
                    .collect();
                let mut back = vec![0.0; codes.len()];
                q.dequantize_into(&codes, &mut back);
                for (&c, &b) in codes.iter().zip(&back) {
                    assert_eq!(b.to_bits(), q.dequantize(c).to_bits(), "{q:?}: {c:#x}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_error_bounded(llr in -40.0f64..40.0, bits in 4u8..14,
                                   sm in proptest::bool::ANY) {
            let fmt = if sm { LlrFormat::SignMagnitude } else { LlrFormat::TwosComplement };
            let q = LlrQuantizer::new(bits, 32.0, fmt);
            let back = q.dequantize(q.quantize(llr));
            let expect = llr.clamp(-32.0, 32.0);
            prop_assert!((back - expect).abs() <= q.step() * 0.5 + 1e-9);
        }

        #[test]
        fn quantizer_is_monotone(a in -40.0f64..40.0, b in -40.0f64..40.0) {
            let q = LlrQuantizer::default();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(q.decode_level(q.quantize(lo)) <= q.decode_level(q.quantize(hi)));
        }

        #[test]
        fn encode_decode_involutive(level in -511i32..=511, sm in proptest::bool::ANY) {
            let fmt = if sm { LlrFormat::SignMagnitude } else { LlrFormat::TwosComplement };
            let q = LlrQuantizer::new(10, 32.0, fmt);
            let code = q.encode_level(level);
            prop_assert_eq!(q.decode_level(code), level);
            prop_assert_eq!(code & !q.word_mask(), 0);
        }

        #[test]
        fn double_flip_restores(code in 0u32..1024, bit in 0u8..10) {
            prop_assert_eq!(flip_bit(flip_bit(code, bit), bit), code);
        }
    }
}
