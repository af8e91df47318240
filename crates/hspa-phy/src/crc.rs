//! Transport-block CRC attachment (TS 25.212 §4.2.1).
//!
//! HSDPA transport blocks carry a 24-bit CRC
//! (`gCRC24(D) = D²⁴ + D²³ + D⁶ + D⁵ + D + 1`); the receiver's CRC check is
//! what turns a decoded block into an ACK or a HARQ retransmission
//! request. The 16-bit polynomial is provided for smaller test blocks.

/// A CRC defined by its generator polynomial, computed eight bits per
/// step through a 256-entry table built once per value.
///
/// The polynomial is given without the leading `x^width` term, MSB-first
/// (e.g. gCRC24 → `0x80_0063`).
///
/// # Example
///
/// ```
/// use hspa_phy::crc::Crc;
///
/// let crc = Crc::gcrc24();
/// let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0, 1];
/// let block = crc.attach(&data);
/// assert_eq!(block.len(), data.len() + 24);
/// assert!(crc.check(&block));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc {
    width: u8,
    poly: u32,
    /// The register update of one input byte: entry `i` is the
    /// left-aligned register after shifting byte `i` through a zero one.
    table: [u32; 256],
}

/// [`Crc::gcrc24`], with its table built at compile time.
const GCRC24: Crc = Crc::new(24, 0x80_0063);

/// [`Crc::gcrc16`], with its table built at compile time.
const GCRC16: Crc = Crc::new(16, 0x1021);

impl Crc {
    /// The 3GPP 24-bit CRC `D²⁴ + D²³ + D⁶ + D⁵ + D + 1`.
    pub const fn gcrc24() -> Self {
        GCRC24
    }

    /// The 3GPP 16-bit CRC `D¹⁶ + D¹² + D⁵ + 1` (CCITT).
    pub const fn gcrc16() -> Self {
        GCRC16
    }

    /// Creates a CRC from an explicit width and polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=31`.
    pub const fn new(width: u8, poly: u32) -> Self {
        assert!(width >= 1 && width <= 31, "CRC width must be in 1..=31");
        let poly_reg = Self::aligned_poly(width, poly);
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut reg = (i as u32) << 24;
            let mut bit = 0;
            while bit < 8 {
                reg = (reg << 1) ^ (poly_reg & (reg >> 31).wrapping_neg());
                bit += 1;
            }
            table[i] = reg;
            i += 1;
        }
        Self { width, poly, table }
    }

    /// The polynomial left-aligned in a 32-bit register, the layout the
    /// shift loop works in for every width: the register's top `width`
    /// bits hold the CRC state and the bits below stay zero.
    const fn aligned_poly(width: u8, poly: u32) -> u32 {
        poly << (32 - width as u32)
    }

    /// CRC width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Computes the CRC remainder of a bit sequence (MSB-first shifting,
    /// zero initial state, as specified by 25.212).
    ///
    /// Each input byte is one bit; any non-zero byte counts as a one.
    /// Whole groups of eight bits take one table step; the trailing
    /// `len % 8` bits take a branch-free bit step.
    pub fn remainder(&self, bits: &[u8]) -> u32 {
        let poly_reg = Self::aligned_poly(self.width, self.poly);
        let mut reg = 0u32;
        let mut bytes = bits.chunks_exact(8);
        for byte in &mut bytes {
            let byte = byte.iter().fold(0u8, |acc, &b| {
                debug_assert!(b <= 1, "non-binary input bit");
                (acc << 1) | u8::from(b != 0)
            });
            reg = (reg << 8) ^ self.table[usize::from((reg >> 24) as u8 ^ byte)];
        }
        for &b in bytes.remainder() {
            debug_assert!(b <= 1, "non-binary input bit");
            let fb = (reg >> 31) ^ u32::from(b != 0);
            reg = (reg << 1) ^ (poly_reg & fb.wrapping_neg());
        }
        reg >> (32 - u32::from(self.width))
    }

    /// Appends the CRC parity bits (MSB first) to a copy of `data`.
    pub fn attach(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + self.width as usize);
        self.attach_into(data, &mut out);
        out
    }

    /// Allocation-free [`Crc::attach`]: clears `out` and fills it with
    /// `data` followed by the parity bits, reusing capacity.
    pub fn attach_into(&self, data: &[u8], out: &mut Vec<u8>) {
        let rem = self.remainder(data);
        out.clear();
        out.extend_from_slice(data);
        out.extend((0..self.width).rev().map(|i| ((rem >> i) & 1) as u8));
    }

    /// Checks a block produced by [`Crc::attach`].
    ///
    /// Returns `false` for blocks shorter than the CRC itself.
    pub fn check(&self, block: &[u8]) -> bool {
        if block.len() < self.width as usize {
            return false;
        }
        self.remainder(block) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial shift register the table form replaces: one
    /// feedback step per input bit, in the width's own register. Any
    /// non-zero byte is a one, as in [`Crc::remainder`].
    fn bit_serial_remainder(width: u8, poly: u32, bits: &[u8]) -> u32 {
        let mask = (1u32 << width) - 1;
        let top = 1u32 << (width - 1);
        let mut reg = 0u32;
        for &b in bits {
            let fb = ((reg & top) != 0) ^ (b != 0);
            reg = (reg << 1) & mask;
            if fb {
                reg ^= poly & mask;
            }
        }
        reg
    }

    #[test]
    fn attach_then_check_ok() {
        let crc = Crc::gcrc24();
        let data: Vec<u8> = (0..100).map(|i| (i * 7 % 3 == 0) as u8).collect();
        assert!(crc.check(&crc.attach(&data)));
    }

    #[test]
    fn single_bit_error_detected() {
        let crc = Crc::gcrc24();
        let data: Vec<u8> = (0..64).map(|i| (i % 5 == 0) as u8).collect();
        let block = crc.attach(&data);
        for pos in 0..block.len() {
            let mut bad = block.clone();
            bad[pos] ^= 1;
            assert!(!crc.check(&bad), "missed single-bit error at {pos}");
        }
    }

    #[test]
    fn burst_errors_detected() {
        let crc = Crc::gcrc16();
        let data: Vec<u8> = (0..48).map(|i| (i % 3 == 0) as u8).collect();
        let block = crc.attach(&data);
        // All bursts up to the CRC width are detected by construction.
        for start in 0..block.len() - 16 {
            let mut bad = block.clone();
            for b in bad.iter_mut().skip(start).take(16) {
                *b ^= 1;
            }
            assert!(!crc.check(&bad), "missed burst at {start}");
        }
    }

    #[test]
    fn zero_data_nonzero_appended() {
        // All-zero data has zero remainder: block is all zeros and checks.
        let crc = Crc::gcrc24();
        let block = crc.attach(&[0u8; 40]);
        assert!(block.iter().all(|&b| b == 0));
        assert!(crc.check(&block));
    }

    #[test]
    fn short_block_fails() {
        let crc = Crc::gcrc24();
        assert!(!crc.check(&[0u8; 10]));
    }

    #[test]
    fn known_ccitt_vector() {
        // CRC-16/CCITT (init 0) of ASCII "123456789" is 0x31C3.
        let crc = Crc::gcrc16();
        let mut bits = Vec::new();
        for byte in b"123456789" {
            for i in (0..8).rev() {
                bits.push((byte >> i) & 1);
            }
        }
        assert_eq!(crc.remainder(&bits), 0x31c3);
    }

    #[test]
    fn generators_match_bit_serial_oracle() {
        let bits: Vec<u8> = (0..627u32).map(|i| u8::from(i * 37 % 11 < 5)).collect();
        for (crc, width, poly) in [(Crc::gcrc24(), 24, 0x80_0063), (Crc::gcrc16(), 16, 0x1021)] {
            assert_eq!(crc, Crc::new(width, poly));
            for len in 0..=bits.len() {
                let bits = &bits[..len];
                assert_eq!(
                    crc.remainder(bits),
                    bit_serial_remainder(width, poly, bits),
                    "width {width}, {len} bits"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn table_matches_bit_serial_oracle(width in 1u8..=31,
                                           poly in 0u32..=u32::MAX,
                                           bits in proptest::collection::vec(0u8..2, 0..2049)) {
            let crc = Crc::new(width, poly);
            prop_assert_eq!(crc.remainder(&bits), bit_serial_remainder(width, poly, &bits));
        }

        #[test]
        fn attach_then_check_any_generator(width in 1u8..=31,
                                           poly in 0u32..=u32::MAX,
                                           data in proptest::collection::vec(0u8..2, 0..2049)) {
            let crc = Crc::new(width, poly);
            let block = crc.attach(&data);
            prop_assert_eq!(block.len(), data.len() + usize::from(width));
            prop_assert!(crc.check(&block));
        }

        /// A non-binary byte is a one in release builds, as in the
        /// oracle, and trips the `debug_assert` in debug builds.
        #[test]
        #[cfg_attr(debug_assertions, should_panic(expected = "non-binary input bit"))]
        fn non_binary_bytes_read_as_ones(width in 1u8..=31,
                                         poly in 0u32..=u32::MAX,
                                         bits in proptest::collection::vec(0u8..=255, 0..2049)) {
            let crc = Crc::new(width, poly);
            prop_assert_eq!(crc.remainder(&bits), bit_serial_remainder(width, poly, &bits));
        }

        #[test]
        fn roundtrip_always_checks(data in proptest::collection::vec(0u8..2, 1..200)) {
            let crc = Crc::gcrc24();
            prop_assert!(crc.check(&crc.attach(&data)));
        }

        #[test]
        fn flip_always_detected_within_distance(data in proptest::collection::vec(0u8..2, 24..120),
                                                pos in 0usize..120) {
            let crc = Crc::gcrc24();
            let block = crc.attach(&data);
            let pos = pos % block.len();
            let mut bad = block;
            bad[pos] ^= 1;
            prop_assert!(!crc.check(&bad));
        }
    }
}
