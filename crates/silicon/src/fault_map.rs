//! Random fault-location maps (the paper's Section 4).
//!
//! A [`FaultMap`] records which bit cells of a memory array are defective
//! and how each defect manifests. The paper draws `N_f` fault locations
//! uniformly at random over the array and inverts any stored bit that maps
//! onto a faulty cell; stuck-at variants are provided for the fault-model
//! ablation.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use dsp::rng::seeded;

/// How a defective cell corrupts the bit stored in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FaultKind {
    /// The stored bit is inverted (the paper's model).
    #[default]
    Flip,
    /// The cell always reads 0.
    StuckAt0,
    /// The cell always reads 1.
    StuckAt1,
}

/// A single defective bit cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fault {
    /// Word index within the array.
    pub word: u32,
    /// Bit position within the word (0 = LSB).
    pub bit: u8,
    /// Failure mode.
    pub kind: FaultKind,
}

/// A fault-location map over an array of `words × bits_per_word` cells.
///
/// # Example
///
/// ```
/// use silicon::fault_map::{FaultMap, FaultKind};
///
/// // 1000-word × 10-bit array with exactly 50 flip faults.
/// let map = FaultMap::random_exact(1000, 10, 50, FaultKind::Flip, 42);
/// assert_eq!(map.fault_count(), 50);
/// // Same seed → identical map.
/// assert_eq!(map, FaultMap::random_exact(1000, 10, 50, FaultKind::Flip, 42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    words: u32,
    bits_per_word: u8,
    faults: Vec<Fault>,
    /// Per-word corruption masks compiled from `faults` (empty when the
    /// map is defect-free): applying `((v ^ xor) & !clear) | set` is
    /// exactly the sorted sequential fault application, but O(1) per
    /// read instead of a binary search over the fault list — the LLR
    /// memory is read twice per HARQ combine, so this is a hot path.
    xor_mask: Vec<u32>,
    clear_mask: Vec<u32>,
    set_mask: Vec<u32>,
}

impl FaultMap {
    /// An empty (defect-free) map for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn defect_free(words: u32, bits_per_word: u8) -> Self {
        assert!(
            words > 0 && bits_per_word > 0,
            "array dimensions must be positive"
        );
        Self {
            words,
            bits_per_word,
            faults: Vec::new(),
            xor_mask: Vec::new(),
            clear_mask: Vec::new(),
            set_mask: Vec::new(),
        }
    }

    /// Draws exactly `n_faults` defective cells uniformly without
    /// replacement over the whole array (the paper's selection-criterion
    /// worst case: dies with exactly `N_f` failing cells).
    ///
    /// # Panics
    ///
    /// Panics if `n_faults` exceeds the number of cells.
    pub fn random_exact(
        words: u32,
        bits_per_word: u8,
        n_faults: usize,
        kind: FaultKind,
        seed: u64,
    ) -> Self {
        let mut map = Self::defect_free(words, bits_per_word);
        let cells = words as u64 * bits_per_word as u64;
        assert!(
            n_faults as u64 <= cells,
            "cannot place {n_faults} faults in {cells} cells"
        );
        let mut rng = seeded(seed);
        // Floyd's algorithm for distinct uniform samples. The set only
        // answers membership queries; the samples are sorted into a Vec
        // before any further RNG draws, so iteration order never leaks
        // into the result.
        // determinism: unordered-ok(membership test only; samples sorted before RNG-coupled mapping)
        let mut chosen = std::collections::HashSet::with_capacity(n_faults);
        let n = cells;
        let k = n_faults as u64;
        for j in n - k..n {
            let t = rng.gen_range(0..=j);
            let cell = if chosen.contains(&t) { j } else { t };
            chosen.insert(cell);
        }
        let mut cells_sorted: Vec<u64> = chosen.into_iter().collect();
        cells_sorted.sort_unstable();
        let faults: Vec<Fault> = cells_sorted
            .into_iter()
            .map(|cell| Fault {
                word: (cell / bits_per_word as u64) as u32,
                bit: (cell % bits_per_word as u64) as u8,
                kind: resolve_kind(kind, &mut rng),
            })
            .collect();
        map.faults = faults;
        map.rebuild_masks();
        map
    }

    /// Draws each cell independently faulty with probability `p_cell`
    /// (Bernoulli per cell, the manufacturing view).
    ///
    /// # Panics
    ///
    /// Panics if `p_cell` is not in `[0, 1]`.
    pub fn random_bernoulli(
        words: u32,
        bits_per_word: u8,
        p_cell: f64,
        kind: FaultKind,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_cell),
            "p_cell must be a probability"
        );
        let mut map = Self::defect_free(words, bits_per_word);
        let mut rng = seeded(seed);
        for word in 0..words {
            for bit in 0..bits_per_word {
                if rng.gen::<f64>() < p_cell {
                    let k = resolve_kind(kind, &mut rng);
                    map.faults.push(Fault { word, bit, kind: k });
                }
            }
        }
        map.rebuild_masks();
        map
    }

    /// Draws exactly `n_faults` faults restricted to bit positions in
    /// `bit_range` (used for hybrid arrays where the protected MSB columns
    /// are fault-free).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, out of bounds, or too small for
    /// `n_faults`.
    pub fn random_in_bits(
        words: u32,
        bits_per_word: u8,
        bit_range: std::ops::Range<u8>,
        n_faults: usize,
        kind: FaultKind,
        seed: u64,
    ) -> Self {
        assert!(
            bit_range.start < bit_range.end && bit_range.end <= bits_per_word,
            "bit range out of bounds"
        );
        let span = (bit_range.end - bit_range.start) as u64;
        let cells = words as u64 * span;
        assert!(
            n_faults as u64 <= cells,
            "cannot place {n_faults} faults in {cells} cells"
        );
        let mut rng = seeded(seed);
        let mut all: Vec<u64> = (0..cells).collect();
        // For very large arrays fall back to rejection-free Floyd sampling.
        let mut faults: Vec<Fault> = if cells <= 1 << 22 {
            all.shuffle(&mut rng);
            all.truncate(n_faults);
            all.into_iter()
                .map(|cell| Fault {
                    word: (cell / span) as u32,
                    bit: bit_range.start + (cell % span) as u8,
                    kind: resolve_kind(kind, &mut rng),
                })
                .collect()
        } else {
            // Same membership-only Floyd sampling as `random_exact`:
            // sort the draws before the RNG-coupled kind resolution.
            // determinism: unordered-ok(membership test only; samples sorted before RNG-coupled mapping)
            let mut chosen = std::collections::HashSet::with_capacity(n_faults);
            for j in cells - n_faults as u64..cells {
                let t = rng.gen_range(0..=j);
                let cell = if chosen.contains(&t) { j } else { t };
                chosen.insert(cell);
            }
            let mut cells_sorted: Vec<u64> = chosen.into_iter().collect();
            cells_sorted.sort_unstable();
            cells_sorted
                .into_iter()
                .map(|cell| Fault {
                    word: (cell / span) as u32,
                    bit: bit_range.start + (cell % span) as u8,
                    kind: resolve_kind(kind, &mut rng),
                })
                .collect()
        };
        faults.sort_by_key(|f| (f.word, f.bit));
        let mut map = Self {
            words,
            bits_per_word,
            faults,
            xor_mask: Vec::new(),
            clear_mask: Vec::new(),
            set_mask: Vec::new(),
        };
        map.rebuild_masks();
        map
    }

    /// Number of words in the array.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Word width in bits.
    pub fn bits_per_word(&self) -> u8 {
        self.bits_per_word
    }

    /// Total number of bit cells.
    pub fn cells(&self) -> u64 {
        self.words as u64 * self.bits_per_word as u64
    }

    /// Number of defective cells.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Fraction of defective cells (the paper's `N_f` in %-of-array units).
    pub fn defect_fraction(&self) -> f64 {
        self.faults.len() as f64 / self.cells() as f64
    }

    /// Iterates over the faults in (word, bit) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// Applies the map to one stored word: every faulty cell in `word`
    /// corrupts the corresponding bit of `value`.
    ///
    /// Constant time: the sorted fault list is compiled into per-word
    /// xor/clear/set masks at construction, so a read is three bitwise
    /// operations regardless of fault count.
    #[inline]
    pub fn corrupt(&self, word: u32, value: u32) -> u32 {
        if self.xor_mask.is_empty() {
            return value;
        }
        let w = word as usize;
        ((value ^ self.xor_mask[w]) & !self.clear_mask[w]) | self.set_mask[w]
    }

    /// The per-word corruption masks (`xor`, `clear`, `set`), one entry
    /// per word — or `None` when the map is defect-free. Block readers
    /// ([`FaultyMemory::read_block`](crate::FaultyMemory::read_block))
    /// apply them as `((v ^ xor) & !clear) | set`, exactly
    /// [`FaultMap::corrupt`].
    #[inline]
    pub fn masks(&self) -> Option<(&[u32], &[u32], &[u32])> {
        if self.xor_mask.is_empty() {
            None
        } else {
            Some((&self.xor_mask, &self.clear_mask, &self.set_mask))
        }
    }

    /// Replaces the fault list, restoring the sorted-by-(word, bit)
    /// invariant that [`FaultMap::corrupt`] relies on.
    ///
    /// # Panics
    ///
    /// Panics if any fault lies outside the array geometry.
    pub fn set_faults(&mut self, mut faults: Vec<Fault>) {
        assert!(
            faults
                .iter()
                .all(|f| f.word < self.words && f.bit < self.bits_per_word),
            "fault outside array geometry"
        );
        faults.sort_by_key(|f| (f.word, f.bit));
        self.faults = faults;
        self.rebuild_masks();
    }

    /// Compiles the sorted fault list into per-word masks. Folding the
    /// faults in application order keeps the mask form equivalent to the
    /// sequential per-fault corruption, including bits hit by several
    /// faults (a flip on top of a stuck cell toggles the stuck polarity;
    /// a stuck fault overrides anything before it).
    fn rebuild_masks(&mut self) {
        if self.faults.is_empty() {
            self.xor_mask = Vec::new();
            self.clear_mask = Vec::new();
            self.set_mask = Vec::new();
            return;
        }
        let n = self.words as usize;
        self.xor_mask.clear();
        self.xor_mask.resize(n, 0);
        self.clear_mask.clear();
        self.clear_mask.resize(n, 0);
        self.set_mask.clear();
        self.set_mask.resize(n, 0);
        for f in &self.faults {
            let w = f.word as usize;
            let m = 1u32 << f.bit;
            match f.kind {
                FaultKind::Flip => {
                    if self.clear_mask[w] & m != 0 {
                        self.clear_mask[w] &= !m;
                        self.set_mask[w] |= m;
                    } else if self.set_mask[w] & m != 0 {
                        self.set_mask[w] &= !m;
                        self.clear_mask[w] |= m;
                    } else {
                        self.xor_mask[w] ^= m;
                    }
                }
                FaultKind::StuckAt0 => {
                    self.clear_mask[w] |= m;
                    self.set_mask[w] &= !m;
                    self.xor_mask[w] &= !m;
                }
                FaultKind::StuckAt1 => {
                    self.set_mask[w] |= m;
                    self.clear_mask[w] &= !m;
                    self.xor_mask[w] &= !m;
                }
            }
        }
    }

    /// Counts faults whose bit position lies in `bit_range`.
    pub fn faults_in_bits(&self, bit_range: std::ops::Range<u8>) -> usize {
        self.faults
            .iter()
            .filter(|f| bit_range.contains(&f.bit))
            .count()
    }
}

/// Resolves `Flip`/`StuckAt*` — stuck polarity is already explicit; this
/// hook exists so a future mixed-mode model can randomize per fault.
fn resolve_kind<R: Rng>(kind: FaultKind, _rng: &mut R) -> FaultKind {
    kind
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_count_and_distinct() {
        let m = FaultMap::random_exact(100, 10, 250, FaultKind::Flip, 1);
        assert_eq!(m.fault_count(), 250);
        let mut cells: Vec<(u32, u8)> = m.iter().map(|f| (f.word, f.bit)).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 250, "faults must hit distinct cells");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = FaultMap::random_exact(500, 10, 100, FaultKind::Flip, 7);
        let b = FaultMap::random_exact(500, 10, 100, FaultKind::Flip, 7);
        let c = FaultMap::random_exact(500, 10, 100, FaultKind::Flip, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn defect_free_is_transparent() {
        let m = FaultMap::defect_free(10, 10);
        for v in [0u32, 0x3ff, 0x155] {
            assert_eq!(m.corrupt(3, v), v);
        }
        assert_eq!(m.defect_fraction(), 0.0);
    }

    #[test]
    fn flip_fault_inverts_bit() {
        let mut m = FaultMap::defect_free(4, 8);
        m.set_faults(vec![Fault {
            word: 2,
            bit: 3,
            kind: FaultKind::Flip,
        }]);
        assert_eq!(m.corrupt(2, 0b0000_0000), 0b0000_1000);
        assert_eq!(m.corrupt(2, 0b0000_1000), 0b0000_0000);
        assert_eq!(m.corrupt(1, 0b0000_0000), 0, "other words untouched");
    }

    #[test]
    fn stuck_faults() {
        let mut m = FaultMap::defect_free(4, 8);
        m.set_faults(vec![
            Fault {
                word: 0,
                bit: 0,
                kind: FaultKind::StuckAt1,
            },
            Fault {
                word: 0,
                bit: 1,
                kind: FaultKind::StuckAt0,
            },
        ]);
        assert_eq!(m.corrupt(0, 0b00), 0b01);
        assert_eq!(m.corrupt(0, 0b11), 0b01);
    }

    /// Sequential per-fault application, the semantics `corrupt`'s
    /// mask compilation must reproduce.
    fn corrupt_reference(m: &FaultMap, word: u32, value: u32) -> u32 {
        let mut v = value;
        for f in m.iter().filter(|f| f.word == word) {
            let mask = 1u32 << f.bit;
            v = match f.kind {
                FaultKind::Flip => v ^ mask,
                FaultKind::StuckAt0 => v & !mask,
                FaultKind::StuckAt1 => v | mask,
            };
        }
        v
    }

    #[test]
    fn mask_compilation_matches_sequential_application() {
        // Random dense maps of every kind, plus stacked faults on one
        // bit (flip over stuck toggles the stuck polarity).
        for kind in [FaultKind::Flip, FaultKind::StuckAt0, FaultKind::StuckAt1] {
            let m = FaultMap::random_exact(64, 10, 200, kind, 7);
            for w in 0..64 {
                for v in [0u32, 0x3ff, 0x155, 0x2aa] {
                    assert_eq!(m.corrupt(w, v), corrupt_reference(&m, w, v), "{kind:?}");
                }
            }
        }
        let mut m = FaultMap::defect_free(2, 4);
        m.set_faults(vec![
            Fault {
                word: 0,
                bit: 1,
                kind: FaultKind::StuckAt0,
            },
            Fault {
                word: 0,
                bit: 1,
                kind: FaultKind::Flip,
            },
        ]);
        // Stuck-at-0 then flip = stuck-at-1.
        assert_eq!(m.corrupt(0, 0b0000), 0b0010);
        assert_eq!(m.corrupt(0, 0b0010), 0b0010);
        assert_eq!(m.corrupt(0, 0b0000), corrupt_reference(&m, 0, 0b0000));
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let p = 0.05;
        let m = FaultMap::random_bernoulli(2000, 10, p, FaultKind::Flip, 3);
        let rate = m.defect_fraction();
        assert!((rate - p).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn restricted_faults_stay_in_range() {
        let m = FaultMap::random_in_bits(300, 10, 0..6, 500, FaultKind::Flip, 9);
        assert_eq!(m.fault_count(), 500);
        assert!(m.iter().all(|f| f.bit < 6));
        assert_eq!(m.faults_in_bits(6..10), 0);
        assert_eq!(m.faults_in_bits(0..6), 500);
    }

    #[test]
    fn defect_fraction_matches() {
        let m = FaultMap::random_exact(1000, 10, 1000, FaultKind::Flip, 2);
        assert!((m.defect_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_faults_rejected() {
        let _ = FaultMap::random_exact(2, 2, 5, FaultKind::Flip, 0);
    }

    #[test]
    fn full_array_fault() {
        let m = FaultMap::random_exact(4, 4, 16, FaultKind::Flip, 0);
        assert_eq!(m.fault_count(), 16);
        // Every bit flips.
        assert_eq!(m.corrupt(0, 0x0), 0xf);
    }

    proptest! {
        #[test]
        fn corrupt_is_involutive_for_flips(seed in 0u64..100, v in 0u32..1024) {
            let m = FaultMap::random_exact(50, 10, 100, FaultKind::Flip, seed);
            for w in 0..50u32 {
                prop_assert_eq!(m.corrupt(w, m.corrupt(w, v)), v);
            }
        }

        #[test]
        fn stuck_is_idempotent(seed in 0u64..100, v in 0u32..1024) {
            let m = FaultMap::random_exact(50, 10, 80, FaultKind::StuckAt0, seed);
            for w in 0..50u32 {
                let once = m.corrupt(w, v);
                prop_assert_eq!(m.corrupt(w, once), once);
            }
        }

        #[test]
        fn fault_counts_partition(seed in 0u64..50) {
            let m = FaultMap::random_exact(100, 10, 300, FaultKind::Flip, seed);
            let low = m.faults_in_bits(0..5);
            let high = m.faults_in_bits(5..10);
            prop_assert_eq!(low + high, 300);
        }
    }
}
