//! The UMTS rate-1/3 turbo code (TS 25.212 §4.2.3).
//!
//! A parallel concatenation of two 8-state recursive systematic
//! convolutional (RSC) encoders with transfer function
//! `g1(D)/g0(D) = (1 + D + D³)/(1 + D² + D³)`, joined by the
//! standard-compliant internal block interleaver. Decoding is iterative
//! Max-Log-MAP with extrinsic scaling, on one lockstep kernel that
//! decodes a lone codeword as a 1-lane batch.
//!
//! ## Codeword layout
//!
//! For an information block of `K` bits the encoder emits `3K + 12` bits,
//! grouped by stream (this layout differs from the 25.212 serial bit order
//! but carries the identical information; rate matching operates per
//! stream):
//!
//! ```text
//! [ systematic: x₀..x_{K-1} | parity1: z₀..z_{K-1} | parity2: z'₀..z'_{K-1}
//!   | tail1: x_K z_K x_{K+1} z_{K+1} x_{K+2} z_{K+2}
//!   | tail2: x'_K z'_K x'_{K+1} z'_{K+1} x'_{K+2} z'_{K+2} ]
//! ```

mod batch;
mod decoder;
mod interleaver;
mod rsc;

pub use batch::{BatchStopCheck, LaneFeed, TurboBatchScratch, POOL_LANES};
pub use decoder::{AccuracyTier, DecodeResult, DecoderConfig, EXTRINSIC_SCALE};
pub use interleaver::TurboInterleaver;
pub use rsc::{Rsc, NEXT_STATE, PARITY, RSC_STATES, TAIL_BITS};

use std::fmt;

/// Reusable workspace of [`TurboCode::decode_into`]: the 1-lane batch a
/// single codeword is decoded in.
pub type TurboScratch = TurboBatchScratch;

/// Error constructing a turbo code component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurboError {
    /// Block length outside the 3GPP range `40..=5114`.
    BlockLength {
        /// The rejected length.
        k: usize,
    },
}

impl fmt::Display for TurboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TurboError::BlockLength { k } => {
                write!(f, "turbo block length {k} outside 40..=5114")
            }
        }
    }
}

impl std::error::Error for TurboError {}

/// The complete turbo codec for one block length.
///
/// # Example
///
/// ```
/// use hspa_phy::turbo::TurboCode;
///
/// let code = TurboCode::new(320)?;
/// assert_eq!(code.coded_len(), 3 * 320 + 12);
/// # Ok::<(), hspa_phy::turbo::TurboError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TurboCode {
    k: usize,
    interleaver: TurboInterleaver,
}

impl TurboCode {
    /// Creates the codec for information block length `k`.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::BlockLength`] when `k` is outside the 3GPP
    /// range `40..=5114`.
    pub fn new(k: usize) -> Result<Self, TurboError> {
        let interleaver = TurboInterleaver::new(k)?;
        Ok(Self { k, interleaver })
    }

    /// Information block length `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Codeword length `3K + 12`.
    pub fn coded_len(&self) -> usize {
        3 * self.k + 4 * TAIL_BITS
    }

    /// The internal interleaver.
    pub fn interleaver(&self) -> &TurboInterleaver {
        &self.interleaver
    }

    /// Encodes `K` information bits into the `3K + 12`-bit codeword.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != K` or any value is non-binary.
    // alloc: cold(allocating convenience wrapper; the hot path calls encode_into)
    pub fn encode(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coded_len());
        self.encode_into(bits, &mut out);
        out
    }

    /// Allocation-free [`TurboCode::encode`]: clears `out` and writes the
    /// codeword into it, reusing capacity. The constituent encoders run
    /// directly against the output vector (the second one reads its
    /// input through the interleaver permutation), so no intermediate
    /// parity or interleaved-bit vectors are built.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != K` or any value is non-binary.
    pub fn encode_into(&self, bits: &[u8], out: &mut Vec<u8>) {
        assert_eq!(bits.len(), self.k, "information block length mismatch");
        crate::bits::assert_binary(bits);
        out.clear();
        out.reserve(self.coded_len());
        out.extend_from_slice(bits);
        let mut enc1 = Rsc::new();
        out.extend(bits.iter().map(|&b| enc1.step(b)));
        let mut enc2 = Rsc::new();
        out.extend(
            self.interleaver
                .permutation()
                .iter()
                .map(|&i| enc2.step(bits[i])),
        );
        out.extend_from_slice(&enc1.terminate_array());
        out.extend_from_slice(&enc2.terminate_array());
    }

    /// Decodes channel LLRs (one per coded bit, in [`TurboCode::encode`]
    /// layout) with `iterations` turbo iterations at the `Exact` tier.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != coded_len()`.
    pub fn decode(&self, llrs: &[f64], iterations: usize) -> DecodeResult {
        let mut out = DecodeResult::new();
        self.decode_into(llrs, iterations, &mut TurboScratch::new(), &mut out);
        out
    }

    /// Allocation-free [`TurboCode::decode`]: a 1-lane
    /// [`TurboCode::decode_batch`] in `scratch`, with lane 0 copied into
    /// `out`. Bit-identical to `decode`.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != coded_len()`.
    pub fn decode_into(
        &self,
        llrs: &[f64],
        iterations: usize,
        scratch: &mut TurboScratch,
        out: &mut DecodeResult,
    ) {
        scratch.begin_batch(self.coded_len());
        scratch.push_lane(llrs);
        self.decode_batch(DecoderConfig::exact(iterations), scratch, None);
        out.bits.clear();
        out.bits.extend_from_slice(scratch.bits(0));
        out.llrs.clear();
        out.llrs.extend_from_slice(scratch.llrs(0));
        out.iterations_run = scratch.iterations_run(0);
    }

    /// Decodes every lane staged in `batch` through one lane pool of up
    /// to [`POOL_LANES`] slots, admitted in lane order, under the
    /// accuracy tier and iteration budget in `cfg`. Lane `l`'s outputs
    /// (bits, posterior LLR bit patterns, iteration count) are
    /// bit-identical to a 1-lane decode of that lane alone, whatever the
    /// batch width; the optional `stop` check (the `EarlyStop` tier's
    /// CRC) receives the lane index alongside the candidate bits.
    ///
    /// # Panics
    ///
    /// Panics if `batch` was staged with a codeword length other than
    /// [`TurboCode::coded_len`].
    pub fn decode_batch(
        &self,
        cfg: DecoderConfig,
        batch: &mut TurboBatchScratch,
        stop: BatchStopCheck<'_>,
    ) {
        batch::decode_batch(self.k, &self.interleaver, cfg, batch, stop);
    }

    /// Runs a work-conserving lane pool of `lanes` slots (clamped to
    /// `1..=POOL_LANES`) over the codewords `feed` admits, until the
    /// feed is empty and every lane has finished. Each lane's outputs go
    /// to [`LaneFeed::finish`] the moment it finishes, and a finished
    /// lane's slot takes the next admitted codeword at the next
    /// iteration boundary. The `stop` check receives the lane's tag.
    /// Every lane's outputs are bit-identical to a 1-lane decode of its
    /// codeword, whatever else shares the pool; `scratch` only lends its
    /// workspace (its staged lanes and outputs are untouched).
    ///
    /// # Panics
    ///
    /// Panics if an admitted codeword's length differs from
    /// [`TurboCode::coded_len`].
    pub fn decode_pool<F: LaneFeed + ?Sized>(
        &self,
        cfg: DecoderConfig,
        scratch: &mut TurboBatchScratch,
        lanes: usize,
        feed: &mut F,
        stop: BatchStopCheck<'_>,
    ) {
        batch::decode_pool(self.k, &self.interleaver, cfg, scratch, lanes, feed, stop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::rng::{random_bits, seeded};
    use rand::Rng;

    fn to_llrs(coded: &[u8], magnitude: f64) -> Vec<f64> {
        coded
            .iter()
            .map(|&b| if b == 0 { magnitude } else { -magnitude })
            .collect()
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(TurboCode::new(39).is_err());
        assert!(TurboCode::new(5115).is_err());
        assert!(TurboCode::new(40).is_ok());
        assert!(TurboCode::new(5114).is_ok());
    }

    #[test]
    fn all_zero_codeword_is_zero() {
        let code = TurboCode::new(40).unwrap();
        let coded = code.encode(&[0u8; 40]);
        assert!(coded.iter().all(|&b| b == 0));
    }

    #[test]
    fn noiseless_roundtrip_various_k() {
        for k in [40usize, 100, 320, 530, 1000] {
            let code = TurboCode::new(k).unwrap();
            let mut rng = seeded(k as u64);
            let bits = random_bits(&mut rng, k);
            let coded = code.encode(&bits);
            assert_eq!(coded.len(), 3 * k + 12);
            let out = code.decode(&to_llrs(&coded, 5.0), 3);
            assert_eq!(out.bits, bits, "K = {k}");
        }
    }

    #[test]
    fn corrects_noisy_llrs() {
        // Flip a scattering of LLR signs and weaken others; the decoder
        // must still recover the message.
        let k = 200;
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(77);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let mut llrs = to_llrs(&coded, 2.0);
        for llr in llrs.iter_mut() {
            *llr += 1.2 * dsp::rng::standard_normal(&mut rng);
        }
        let out = code.decode(&llrs, 8);
        assert_eq!(out.bits, bits);
        assert!(out.iterations_run <= 8);
    }

    #[test]
    fn erased_parity_still_decodes() {
        // Zero out all of parity2 (as heavy puncturing would): the code
        // degenerates to a single RSC code and must still decode clean
        // systematic+parity1 LLRs.
        let k = 120;
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(5);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let mut llrs = to_llrs(&coded, 4.0);
        for llr in llrs.iter_mut().skip(2 * k).take(k) {
            *llr = 0.0;
        }
        let out = code.decode(&llrs, 6);
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn encoder_is_deterministic() {
        let code = TurboCode::new(64).unwrap();
        let mut rng = seeded(1);
        let bits = random_bits(&mut rng, 64);
        assert_eq!(code.encode(&bits), code.encode(&bits));
    }

    #[test]
    fn soft_output_signs_match_bits() {
        let k = 80;
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(9);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let out = code.decode(&to_llrs(&coded, 6.0), 4);
        for (i, (&b, &l)) in bits.iter().zip(&out.llrs).enumerate() {
            assert_eq!(b, crate::bits::hard_decision(l), "bit {i}");
            assert!(l.abs() > 1.0, "weak posterior at {i}");
        }
    }

    #[test]
    fn random_errors_within_capability() {
        // BSC-like test: flip 4% of coded bits at strong magnitude.
        let k = 400;
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(33);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let mut llrs = to_llrs(&coded, 3.0);
        let n = llrs.len();
        for _ in 0..n / 25 {
            let idx = rng.gen_range(0..n);
            llrs[idx] = -llrs[idx];
        }
        let out = code.decode(&llrs, 8);
        assert_eq!(out.bits, bits);
    }
}
