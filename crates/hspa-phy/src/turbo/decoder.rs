//! Iterative Max-Log-MAP turbo decoding: the knobs and the result.
//!
//! Two soft-in/soft-out (SISO) BCJR decoders exchange extrinsic
//! information through the internal interleaver. The max-log
//! approximation (`ln Σ eˣ ≈ max x`) with extrinsic scaling 0.75 is the
//! standard hardware-friendly variant used in HSPA-era receiver ASICs —
//! the same class of decoder the paper's system model assumes. Every
//! decode runs on the lockstep kernel in `batch.rs`; this module holds
//! the configuration it takes and the single-codeword result
//! [`super::TurboCode::decode`] returns.

/// Default extrinsic scaling factor compensating the max-log optimism.
pub const EXTRINSIC_SCALE: f64 = 0.75;

/// Selectable accuracy/speed tiers of the turbo decoder.
///
/// The tier is part of every campaign point's fingerprint (stores never
/// mix tiers) and each non-default tier pins its own golden corpus in
/// `tests/decode_golden.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccuracyTier {
    /// Bit-exact `f64` Max-Log-MAP with the agreement early stop — the
    /// reference semantics every golden table and CI invariant is pinned
    /// against. Always the default.
    #[default]
    Exact,
    /// `f64` arithmetic plus the CRC-checked early stop (the per-lane
    /// [`super::BatchStopCheck`] of [`super::TurboCode::decode_batch`]):
    /// iteration ends as soon as the hard decisions form a CRC-valid
    /// block, skipping the second SISO pass when decoder 1 alone
    /// converged. Faster on marginal packets; an intermediate iteration
    /// can accept a
    /// CRC-valid block that later iterations would walk away from, so
    /// Monte-Carlo outcomes differ slightly from `Exact`.
    EarlyStop,
    /// Single-precision (`f32`) LLR arithmetic throughout the SISO
    /// sweeps, with the agreement early stop. Halves trellis memory
    /// traffic and doubles SIMD lane width; posteriors are widened back
    /// to `f64` on output.
    Fast32,
}

impl AccuracyTier {
    /// Every tier, in fingerprint/documentation order.
    pub const ALL: [AccuracyTier; 3] = [
        AccuracyTier::Exact,
        AccuracyTier::EarlyStop,
        AccuracyTier::Fast32,
    ];

    /// Stable CLI/fingerprint token of the tier.
    pub fn as_str(self) -> &'static str {
        match self {
            AccuracyTier::Exact => "exact",
            AccuracyTier::EarlyStop => "early-stop",
            AccuracyTier::Fast32 => "fast32",
        }
    }

    /// Parses a CLI token (`exact`, `early-stop`/`earlystop`, `fast32`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Some(AccuracyTier::Exact),
            "early-stop" | "earlystop" | "early_stop" => Some(AccuracyTier::EarlyStop),
            "fast32" | "f32" => Some(AccuracyTier::Fast32),
            _ => None,
        }
    }
}

impl std::fmt::Display for AccuracyTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for AccuracyTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| {
            format!("unknown accuracy tier {s:?} (expected exact, early-stop or fast32)")
        })
    }
}

/// Iteration budget plus accuracy tier — the knobs the batched decoder
/// ([`super::TurboCode::decode_batch`]) and the link simulator thread
/// from the system configuration down to the SISO kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecoderConfig {
    /// Maximum turbo iterations (early stops may reduce the count).
    pub iterations: usize,
    /// Arithmetic/stopping tier.
    pub tier: AccuracyTier,
}

impl DecoderConfig {
    /// The reference configuration: `iterations` at the `Exact` tier.
    pub fn exact(iterations: usize) -> Self {
        Self {
            iterations,
            tier: AccuracyTier::Exact,
        }
    }

    /// A configuration at an explicit tier.
    pub fn new(iterations: usize, tier: AccuracyTier) -> Self {
        Self { iterations, tier }
    }
}

/// Decoder output: hard bits, posterior LLRs and convergence info.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeResult {
    /// Hard-decision information bits.
    pub bits: Vec<u8>,
    /// Posterior LLRs of the information bits (positive favours 0).
    pub llrs: Vec<f64>,
    /// Turbo iterations actually executed (early stopping may reduce it).
    pub iterations_run: usize,
}

impl DecodeResult {
    /// An empty result to be filled by
    /// [`super::TurboCode::decode_into`]; buffers grow to steady-state
    /// size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use crate::turbo::{DecodeResult, TurboCode, TurboScratch};
    use dsp::rng::{random_bits, seeded, standard_normal};
    use dsp::stats::db_to_linear;

    #[test]
    fn early_stopping_reduces_iterations() {
        let k = 100;
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(4);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 10.0 } else { -10.0 })
            .collect();
        let out = code.decode(&llrs, 8);
        assert!(out.iterations_run <= 2, "clean input should stop early");
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn awgn_waterfall_sanity() {
        // Rate-1/3 turbo at Eb/N0 = 2 dB over BPSK/AWGN should decode
        // nearly every 400-bit block; at -3 dB it should fail nearly every
        // block. This brackets the waterfall.
        let k = 400;
        let code = TurboCode::new(k).unwrap();
        let rate = k as f64 / code.coded_len() as f64;
        let run = |ebn0_db: f64, seed: u64| -> usize {
            let mut rng = seeded(seed);
            let mut block_errors = 0;
            let trials = 20;
            for _ in 0..trials {
                let bits = random_bits(&mut rng, k);
                let coded = code.encode(&bits);
                let ebn0 = db_to_linear(ebn0_db);
                let esn0 = ebn0 * rate; // per coded (BPSK) symbol
                let sigma2 = 1.0 / (2.0 * esn0);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| {
                        let x = 1.0 - 2.0 * b as f64;
                        let y = x + sigma2.sqrt() * standard_normal(&mut rng);
                        2.0 * y / sigma2
                    })
                    .collect();
                let out = code.decode(&llrs, 8);
                if out.bits != bits {
                    block_errors += 1;
                }
            }
            block_errors
        };
        assert_eq!(run(2.0, 10), 0, "2 dB should be error-free");
        assert!(run(-3.0, 11) >= 18, "-3 dB should almost always fail");
    }

    #[test]
    fn zero_llrs_give_some_decision() {
        let k = 40;
        let code = TurboCode::new(k).unwrap();
        let out = code.decode(&vec![0.0; code.coded_len()], 2);
        assert_eq!(out.bits.len(), k);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch and result reused across decodes of different
        // blocks must reproduce fresh-scratch outputs exactly.
        let k = 80;
        let code = TurboCode::new(k).unwrap();
        let mut scratch = TurboScratch::new();
        let mut out = DecodeResult::new();
        let mut rng = seeded(17);
        for trial in 0..4 {
            let bits = random_bits(&mut rng, k);
            let coded = code.encode(&bits);
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| (if b == 0 { 2.0 } else { -2.0 }) + 0.8 * standard_normal(&mut rng))
                .collect();
            code.decode_into(&llrs, 6, &mut scratch, &mut out);
            let fresh = code.decode(&llrs, 6);
            assert_eq!(out, fresh, "trial {trial}");
        }
    }
}
