//! Hamming SECDED — the conventional full-word protection baseline.
//!
//! Section 6.2 of the paper compares selective MSB protection against
//! single-error-correcting, double-error-detecting (SECDED) ECC over the
//! whole LLR word and finds ECC inefficient (≥35 % storage overhead for a
//! 10-bit word). This module implements parameterized Hamming SECDED so
//! the comparison can be reproduced in simulation, not just in the area
//! model.
//!
//! The codec sits on the HARQ storage hot path (every combine encodes,
//! stores, reads back and decodes the whole soft buffer), so it is
//! branch-free mask arithmetic valid for every width `1..=26`: data bits
//! move into and out of the four runs of non-power-of-two codeword
//! positions (3, 5–7, 9–15, 17–31) with one shift and mask per run, each
//! Hamming parity or syndrome bit `p` is the parity of a popcount under
//! the fixed mask `0xAAAAAAAA`, `0xCCCCCCCC`, `0xF0F0F0F0`, … restricted
//! to positions `1..=n`, and a single error is corrected by an
//! unconditional XOR whose shift is the syndrome.

use serde::{Deserialize, Serialize};

/// Outcome of a SECDED decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// No error detected.
    Clean,
    /// A single-bit error was detected and corrected.
    Corrected,
    /// A double-bit error was detected; data is unreliable.
    DoubleError,
}

/// A Hamming SECDED code for `k` data bits.
///
/// Uses the classic construction: parity bits at power-of-two positions of
/// a 1-indexed codeword, plus an overall parity bit for double-error
/// detection.
///
/// # Example
///
/// ```
/// use silicon::ecc::{Secded, DecodeOutcome};
///
/// let code = Secded::new(10);
/// let cw = code.encode(0b10_1100_0111);
/// let (data, outcome) = code.decode(cw ^ (1 << 3)); // flip one bit
/// assert_eq!(outcome, DecodeOutcome::Corrected);
/// assert_eq!(data, 0b10_1100_0111);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Secded {
    data_bits: u8,
    parity_bits: u8,
}

impl Secded {
    /// Creates a SECDED code for `data_bits`-wide words.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is not in `1..=26` (codeword must fit in
    /// `u32`).
    pub fn new(data_bits: u8) -> Self {
        assert!(
            (1..=26).contains(&data_bits),
            "data width must be in 1..=26"
        );
        let mut r = 0u8;
        while (1u32 << r) < data_bits as u32 + r as u32 + 1 {
            r += 1;
        }
        Self {
            data_bits,
            parity_bits: r,
        }
    }

    /// Number of protected data bits.
    pub fn data_bits(&self) -> u8 {
        self.data_bits
    }

    /// Number of Hamming parity bits (excluding the overall parity bit).
    pub fn parity_bits(&self) -> u8 {
        self.parity_bits
    }

    /// Total codeword width: data + Hamming parity + overall parity.
    pub fn codeword_bits(&self) -> u8 {
        self.data_bits + self.parity_bits + 1
    }

    /// Storage overhead versus the bare data word
    /// (`codeword_bits/data_bits − 1`). For 10-bit data this is 50 % with
    /// SECDED or 40 % with bare Hamming — the ≥35 % regime the paper
    /// dismisses.
    pub fn storage_overhead(&self) -> f64 {
        self.codeword_bits() as f64 / self.data_bits as f64 - 1.0
    }

    /// Hamming positions `1..=n` of the codeword as a bit mask.
    #[inline]
    fn hamming_span(&self) -> u32 {
        let n = (self.data_bits + self.parity_bits) as u32; // 3..=31
        (u32::MAX >> (31 - n)) & !1
    }

    /// Encodes `data` (low `data_bits` bits) into a SECDED codeword.
    ///
    /// Codeword layout: bits 1..=n are the Hamming codeword (1-indexed,
    /// parity at powers of two), bit 0 is the overall parity. The data
    /// bits fill the four runs of non-power-of-two positions in order —
    /// bit 0 at position 3, bits 1–3 at 5–7, bits 4–10 at 9–15 and bits
    /// 11–25 at 17–31 — and are deposited with one shift and mask per
    /// run. Parity bit `2^p` is the parity of the positions in `1..=n`
    /// whose index has bit `p` set: a popcount of the codeword under the
    /// fixed mask `PARITY_GROUPS[p]` (`0xAAAAAAAA`, `0xCCCCCCCC`, …).
    /// Data bits at or above `data_bits` are ignored.
    #[inline]
    pub fn encode(&self, data: u32) -> u32 {
        let mut cw = DATA_RUNS
            .iter()
            .fold(0, |cw, &(mask, shift)| cw | ((data & mask) << shift))
            & self.hamming_span();
        // Parity positions are not in the data runs, and a group never
        // covers another group's parity position, so every parity bit
        // is a function of the data positions alone.
        for (p, &group) in PARITY_GROUPS.iter().enumerate() {
            cw |= ((cw & group).count_ones() & 1) << (1u32 << p);
        }
        // Overall parity over all Hamming bits, stored at bit 0.
        cw | ((cw >> 1).count_ones() & 1)
    }

    /// Decodes a (possibly corrupted) codeword.
    ///
    /// Returns the recovered data and the [`DecodeOutcome`]. On
    /// [`DecodeOutcome::DoubleError`] the returned data is a best-effort
    /// extraction of the uncorrected payload.
    ///
    /// The syndrome is built with the same popcount masks as
    /// [`Secded::encode`], over positions `1..=n` only; the overall
    /// parity check covers every bit of `cw` above bit 0, so stray bits
    /// above the codeword width count against it. A failed overall check
    /// with a syndrome inside the word is a single error at that position
    /// (syndrome 0: the overall parity bit itself). The correction is a
    /// branch-free XOR and the outcome a table lookup, so decode costs
    /// the same whether or not the word was hit.
    #[inline]
    pub fn decode(&self, cw: u32) -> (u32, DecodeOutcome) {
        let n = (self.data_bits + self.parity_bits) as u32;
        let hamming = cw & self.hamming_span();
        let mut syndrome = 0u32;
        for (p, &group) in PARITY_GROUPS.iter().enumerate() {
            syndrome |= ((hamming & group).count_ones() & 1) << p;
        }
        let overall_ok = ((cw >> 1).count_ones() & 1) == (cw & 1);
        let single = !overall_ok & (syndrome <= n);
        let clean = overall_ok & (syndrome == 0);
        let fixed = cw ^ ((single as u32) << syndrome);
        // `single` and `clean` exclude each other: index 3 is unreachable.
        const OUTCOMES: [DecodeOutcome; 4] = [
            DecodeOutcome::DoubleError,
            DecodeOutcome::Clean,
            DecodeOutcome::Corrected,
            DecodeOutcome::Corrected,
        ];
        let outcome = OUTCOMES[((single as usize) << 1) | clean as usize];
        (self.extract(fixed), outcome)
    }

    /// Extracts the data bits from a codeword without checking parity:
    /// the four data runs of [`Secded::encode`] shifted back into place.
    #[inline]
    pub fn extract(&self, cw: u32) -> u32 {
        let data = DATA_RUNS
            .iter()
            .fold(0, |data, &(mask, shift)| data | ((cw >> shift) & mask));
        data & ((1u32 << self.data_bits) - 1)
    }
}

/// Hamming parity groups: bit `pos` of `PARITY_GROUPS[p]` is set when
/// codeword position `pos` has bit `p` set, so parity bit `2^p` checks
/// exactly the positions under this mask. Position 0 (the overall
/// parity) is in no group, and for a code with `r` parity bits the
/// groups `p >= r` cover no position in `1..=n`.
const PARITY_GROUPS: [u32; 5] = [
    0xAAAA_AAAA,
    0xCCCC_CCCC,
    0xF0F0_F0F0,
    0xFF00_FF00,
    0xFFFF_0000,
];

/// The four runs of non-power-of-two codeword positions as `(data mask,
/// shift)`: data bit 0 → position 3, bits 1–3 → 5–7, bits 4–10 → 9–15,
/// bits 11–25 → 17–31.
const DATA_RUNS: [(u32, u32); 4] = [(0x1, 3), (0xE, 4), (0x7F0, 5), (0x3FF_F800, 6)];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The position-by-position loop codec the mask codec replaced,
    /// kept as the oracle it must match bit for bit.
    mod oracle {
        use super::super::{DecodeOutcome, Secded};

        fn extract(code: &Secded, cw: u32) -> u32 {
            let n = (code.data_bits() + code.parity_bits()) as u32;
            let mut data = 0u32;
            let mut d = 0u8;
            for pos in 1..=n {
                if !pos.is_power_of_two() {
                    data |= ((cw >> pos) & 1) << d;
                    d += 1;
                }
            }
            data
        }

        fn group_parity(cw: u32, n: u32, pp: u32) -> u32 {
            let mut parity = 0u32;
            for pos in 1..=n {
                if pos & pp != 0 {
                    parity ^= (cw >> pos) & 1;
                }
            }
            parity
        }

        pub fn encode(code: &Secded, data: u32) -> u32 {
            let n = (code.data_bits() + code.parity_bits()) as u32;
            let mut cw = 0u32;
            let mut d = 0u8;
            for pos in 1..=n {
                if !pos.is_power_of_two() {
                    if (data >> d) & 1 != 0 {
                        cw |= 1 << pos;
                    }
                    d += 1;
                }
            }
            for p in 0..code.parity_bits() {
                let pp = 1u32 << p;
                if group_parity(cw, n, pp) != 0 {
                    cw |= 1 << pp;
                }
            }
            let overall = (cw >> 1).count_ones() & 1;
            cw | overall
        }

        pub fn decode(code: &Secded, cw: u32) -> (u32, DecodeOutcome) {
            let n = (code.data_bits() + code.parity_bits()) as u32;
            let mut syndrome = 0u32;
            for p in 0..code.parity_bits() {
                let pp = 1u32 << p;
                if group_parity(cw, n, pp) != 0 {
                    syndrome |= pp;
                }
            }
            let overall_ok = ((cw >> 1).count_ones() & 1) == (cw & 1);
            let (fixed, outcome) = match (syndrome, overall_ok) {
                (0, true) => (cw, DecodeOutcome::Clean),
                (0, false) => (cw ^ 1, DecodeOutcome::Corrected),
                (s, false) if s <= n => (cw ^ (1 << s), DecodeOutcome::Corrected),
                (_, false) => (cw, DecodeOutcome::DoubleError),
                (_, true) => (cw, DecodeOutcome::DoubleError),
            };
            (extract(code, fixed), outcome)
        }
    }

    /// splitmix64: a self-contained stream of test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_matches_oracle(c: &Secded, cw: u32) {
        assert_eq!(
            c.decode(cw),
            oracle::decode(c, cw),
            "width {} decode of {cw:#010x}",
            c.data_bits()
        );
    }

    #[test]
    fn encode_matches_oracle_on_every_data_word() {
        // Every data word up to 16 bits, every single-bit word above
        // that (both encoders are linear over GF(2), so these alone pin
        // the map), and random `u32` inputs with stray bits above the
        // data width at every width.
        let mut state = 0x5ec_ded;
        for k in 1..=26u8 {
            let c = Secded::new(k);
            let words: Vec<u32> = if k <= 16 {
                (0..1u32 << k).collect()
            } else {
                (0..k).map(|b| 1u32 << b).collect()
            };
            let random = (0..10_000).map(|_| splitmix(&mut state) as u32);
            for data in words.into_iter().chain(random) {
                assert_eq!(
                    c.encode(data),
                    oracle::encode(&c, data),
                    "width {k} data {data:#x}"
                );
            }
        }
    }

    #[test]
    fn decode_matches_oracle_exhaustively_up_to_12_bits() {
        // Every pattern of the codeword bits and the bit just above them,
        // each also under stray bits higher up — the overall parity
        // check counts stray bits, the syndrome and extraction must not.
        for k in 1..=12u8 {
            let c = Secded::new(k);
            let width = c.codeword_bits() as u32 + 1;
            let above = u32::MAX << width;
            for low in 0..1u32 << width {
                for stray in [0, 1 << 31, above & 0x5555_5555, above] {
                    assert_matches_oracle(&c, low | stray);
                }
            }
        }
    }

    #[test]
    fn decode_matches_oracle_on_random_words_from_13_bits() {
        let mut state = 0xc0de_3042;
        for k in 13..=26u8 {
            let c = Secded::new(k);
            let in_width = (1u64 << c.codeword_bits()) - 1;
            for i in 0..100_000 {
                let r = splitmix(&mut state);
                // Half the inputs are confined to the codeword, half carry
                // stray high bits.
                let cw = if i % 2 == 0 { r & in_width } else { r } as u32;
                assert_matches_oracle(&c, cw);
            }
        }
    }

    #[test]
    fn parameters_for_10_bits() {
        let c = Secded::new(10);
        assert_eq!(c.parity_bits(), 4);
        assert_eq!(c.codeword_bits(), 15);
        assert!((c.storage_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clean_roundtrip() {
        let c = Secded::new(10);
        for data in [0u32, 1, 0x3ff, 0x2aa, 0x155] {
            let (out, outcome) = c.decode(c.encode(data));
            assert_eq!(out, data);
            assert_eq!(outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let c = Secded::new(10);
        let data = 0x2b7 & 0x3ff;
        let cw = c.encode(data);
        for bit in 0..c.codeword_bits() {
            let (out, outcome) = c.decode(cw ^ (1 << bit));
            assert_eq!(outcome, DecodeOutcome::Corrected, "bit {bit}");
            assert_eq!(out, data, "bit {bit}");
        }
    }

    #[test]
    fn detects_double_errors() {
        let c = Secded::new(10);
        let cw = c.encode(0x1f3);
        let mut detected = 0;
        let mut total = 0;
        for b1 in 0..c.codeword_bits() {
            for b2 in (b1 + 1)..c.codeword_bits() {
                let (_, outcome) = c.decode(cw ^ (1 << b1) ^ (1 << b2));
                total += 1;
                if outcome == DecodeOutcome::DoubleError {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, total, "SECDED must flag all double errors");
    }

    #[test]
    fn various_widths() {
        for k in [4u8, 8, 10, 11, 12, 16, 26] {
            let c = Secded::new(k);
            let data = (0xdead_beefu32) & ((1u32 << k) - 1);
            let (out, outcome) = c.decode(c.encode(data));
            assert_eq!(out, data, "width {k}");
            assert_eq!(outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    #[should_panic(expected = "data width")]
    fn rejects_wide_words() {
        let _ = Secded::new(27);
    }

    proptest! {
        #[test]
        fn single_error_correction_exhaustive(data in 0u32..1024, bit in 0u8..15) {
            let c = Secded::new(10);
            let cw = c.encode(data);
            let (out, outcome) = c.decode(cw ^ (1u32 << bit));
            prop_assert_eq!(outcome, DecodeOutcome::Corrected);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn encode_is_injective(a in 0u32..1024, b in 0u32..1024) {
            let c = Secded::new(10);
            if a != b {
                prop_assert_ne!(c.encode(a), c.encode(b));
            }
        }

        #[test]
        fn codewords_differ_in_at_least_4_bits(a in 0u32..1024, b in 0u32..1024) {
            // SECDED minimum distance is 4.
            let c = Secded::new(10);
            if a != b {
                let dist = (c.encode(a) ^ c.encode(b)).count_ones();
                prop_assert!(dist >= 4, "distance {dist}");
            }
        }
    }
}
