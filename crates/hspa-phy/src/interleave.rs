//! The second (channel) interleaver (TS 25.212 §4.2.11).
//!
//! A fixed 30-column block interleaver applied to the rate-matched bits of
//! each transmission before modulation: bits are written row by row into a
//! 30-column matrix, the columns are permuted by the standard pattern, and
//! bits are read out column by column (padding pruned).

/// The standard inter-column permutation for the 30-column interleaver.
pub const COLUMN_PERMUTATION: [usize; 30] = [
    0, 20, 10, 5, 15, 25, 3, 13, 23, 8, 18, 28, 1, 11, 21, 6, 16, 26, 4, 14, 24, 19, 9, 29, 12, 2,
    7, 22, 27, 17,
];

/// The 30-column channel interleaver for a given block length.
///
/// # Example
///
/// ```
/// use hspa_phy::interleave::ChannelInterleaver;
///
/// let il = ChannelInterleaver::new(100);
/// let data: Vec<u32> = (0..100).collect();
/// let mixed = il.interleave(&data);
/// assert_ne!(mixed, data);
/// assert_eq!(il.deinterleave(&mixed), data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelInterleaver {
    len: usize,
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl ChannelInterleaver {
    /// Builds the interleaver for `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "interleaver length must be positive");
        let cols = COLUMN_PERMUTATION.len();
        let rows = len.div_ceil(cols);
        let padded = rows * cols;
        // Matrix position (r, c) holds input index r*cols + c (or padding).
        // Read out column by column in permuted column order.
        let mut perm = Vec::with_capacity(len);
        for &c in COLUMN_PERMUTATION.iter() {
            for r in 0..rows {
                let src = r * cols + c;
                if src < len {
                    perm.push(src);
                }
            }
        }
        debug_assert_eq!(perm.len(), len);
        let _ = padded;
        let mut inv = vec![0usize; len];
        for (out_pos, &in_pos) in perm.iter().enumerate() {
            inv[in_pos] = out_pos;
        }
        Self { len, perm, inv }
    }

    /// Interleaver block length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for the degenerate single-bit interleaver.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Applies the permutation: `output[m] = input[perm[m]]`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the block length.
    pub fn interleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(input.len(), self.len, "interleaver length mismatch");
        self.perm.iter().map(|&i| input[i]).collect()
    }

    /// Applies the inverse permutation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the block length.
    pub fn deinterleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(input.len(), self.len, "deinterleaver length mismatch");
        self.inv.iter().map(|&i| input[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn permutation_pattern_is_valid() {
        let mut p = COLUMN_PERMUTATION;
        p.sort_unstable();
        assert_eq!(p, core::array::from_fn::<usize, 30, _>(|i| i));
    }

    #[test]
    fn is_a_permutation_for_odd_lengths() {
        for len in [1usize, 7, 29, 30, 31, 59, 60, 100, 961, 960] {
            let il = ChannelInterleaver::new(len);
            let mut sorted = il.perm.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), len, "len {len}");
        }
    }

    #[test]
    fn roundtrip() {
        let il = ChannelInterleaver::new(257);
        let data: Vec<u32> = (0..257).collect();
        assert_eq!(il.deinterleave(&il.interleave(&data)), data);
    }

    #[test]
    fn disperses_bursts() {
        // A burst of 30 consecutive interleaved positions must map to bits
        // spread over many columns of the original stream.
        let len = 900;
        let il = ChannelInterleaver::new(len);
        let burst: Vec<usize> = il.perm[100..130].to_vec();
        let mut diffs: Vec<i64> = burst
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        diffs.dedup();
        // Consecutive outputs within a column differ by 30 (row stride);
        // across a column boundary they jump. Either way no two adjacent
        // original bits are adjacent after interleaving.
        assert!(burst.windows(2).all(|w| w[0].abs_diff(w[1]) >= 5));
    }

    #[test]
    fn deterministic() {
        assert_eq!(ChannelInterleaver::new(123), ChannelInterleaver::new(123));
    }

    proptest! {
        #[test]
        fn always_bijective(len in 1usize..2000) {
            let il = ChannelInterleaver::new(len);
            let data: Vec<usize> = (0..len).collect();
            prop_assert_eq!(il.deinterleave(&il.interleave(&data)), data);
        }
    }
}
