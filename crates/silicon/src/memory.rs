//! Bit-accurate faulty storage array.
//!
//! [`FaultyMemory`] is the LLR-storage stand-in: a word-addressable array
//! that behaves like perfect SRAM except where a [`FaultMap`] marks cells
//! defective. Following the paper, corruption is applied when data passes
//! through the array (a stored bit mapped onto a faulty cell is read back
//! inverted); the fault map itself never changes during a simulation.

use serde::{Deserialize, Serialize};

use crate::fault_map::FaultMap;

/// A word-addressable memory whose cells may be defective.
///
/// # Example
///
/// ```
/// use silicon::{FaultMap, FaultyMemory};
/// use silicon::fault_map::FaultKind;
///
/// let map = FaultMap::random_exact(64, 10, 32, FaultKind::Flip, 1);
/// let mut mem = FaultyMemory::new(map);
/// mem.write(3, 0b11_1111_1111);
/// let v = mem.read(3); // possibly corrupted
/// assert!(v <= 0b11_1111_1111);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyMemory {
    map: FaultMap,
    data: Vec<u32>,
}

impl FaultyMemory {
    /// Creates a zero-initialized memory with the given fault map.
    pub fn new(map: FaultMap) -> Self {
        let data = vec![0u32; map.words() as usize];
        Self { map, data }
    }

    /// Number of addressable words.
    pub fn words(&self) -> u32 {
        self.map.words()
    }

    /// Word width in bits.
    pub fn bits_per_word(&self) -> u8 {
        self.map.bits_per_word()
    }

    /// The underlying fault map.
    pub fn fault_map(&self) -> &FaultMap {
        &self.map
    }

    /// Stores `value` at word `addr` (the value is kept pristine; faults
    /// manifest on read, which models read-path inversion and also keeps
    /// flip faults involutive as in the paper's methodology).
    ///
    /// Bits above the word width are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: u32, value: u32) {
        let mask = word_mask(self.map.bits_per_word());
        self.data[addr as usize] = value & mask;
    }

    /// Reads word `addr`, applying any faults on the way out.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&self, addr: u32) -> u32 {
        let raw = self.data[addr as usize];
        self.map.corrupt(addr, raw)
    }

    /// Reads word `addr` without fault corruption (test/inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_pristine(&self, addr: u32) -> u32 {
        self.data[addr as usize]
    }

    /// Writes a whole slice starting at address 0.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than the array.
    pub fn write_all(&mut self, values: &[u32]) {
        assert!(
            values.len() <= self.data.len(),
            "slice longer than memory ({} > {})",
            values.len(),
            self.data.len()
        );
        self.write_block(0, values);
    }

    /// Reads `n` words starting at address 0, with fault corruption.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the array size.
    pub fn read_all(&self, n: usize) -> Vec<u32> {
        assert!(n <= self.data.len(), "read beyond memory size");
        let mut out = vec![0; n];
        self.read_block(0, &mut out);
        out
    }

    /// Stores `words` at addresses `start..start + words.len()`, each
    /// masked to the word width like [`FaultyMemory::write`].
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the array.
    #[inline]
    pub fn write_block(&mut self, start: usize, words: &[u32]) {
        let mask = word_mask(self.map.bits_per_word());
        let slots = &mut self.data[start..start + words.len()];
        for (slot, &w) in slots.iter_mut().zip(words) {
            *slot = w & mask;
        }
    }

    /// Reads addresses `start..start + out.len()` into `out` through the
    /// fault masks: exactly [`FaultyMemory::read`] per word, as one
    /// straight-line slice loop that vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the array.
    #[inline]
    pub fn read_block(&self, start: usize, out: &mut [u32]) {
        let end = start + out.len();
        let data = &self.data[start..end];
        match self.map.masks() {
            None => out.copy_from_slice(data),
            Some((xor, clear, set)) => {
                let masks = xor[start..end]
                    .iter()
                    .zip(&clear[start..end])
                    .zip(&set[start..end]);
                for ((o, &v), ((&x, &c), &s)) in out.iter_mut().zip(data).zip(masks) {
                    *o = ((v ^ x) & !c) | s;
                }
            }
        }
    }

    /// Store + read-back of one block: `block` is written at `start`
    /// like [`FaultyMemory::write_block`] and replaced in place with what
    /// [`FaultyMemory::read_block`] then returns — the write-then-read
    /// round trip of a soft-combining pass, in one sweep.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the array.
    #[inline]
    pub fn write_read_block(&mut self, start: usize, block: &mut [u32]) {
        self.round_trip(start, block, |&w| w, |w| w);
    }

    /// Fused store + read-back over words `0..`: each element of `data`
    /// is mapped to a word via `to_word`, stored and replaced in place
    /// with `from_word` of the corrupted read-back, exactly as
    /// [`FaultyMemory::write_read_block`] does for plain words. Elements
    /// beyond the array size are ignored.
    #[inline]
    pub fn write_read_all<T>(
        &mut self,
        data: &mut [T],
        to_word: impl FnMut(&T) -> u32,
        from_word: impl FnMut(u32) -> T,
    ) {
        let n = data.len().min(self.data.len());
        self.round_trip(0, &mut data[..n], to_word, from_word);
    }

    /// The one write-then-read sweep behind the round trips: per
    /// element, `to_word` (masked to the word width) is stored, and the
    /// element replaced with `from_word` of its read through the masks.
    #[inline]
    fn round_trip<T>(
        &mut self,
        start: usize,
        data: &mut [T],
        mut to_word: impl FnMut(&T) -> u32,
        mut from_word: impl FnMut(u32) -> T,
    ) {
        let mask = word_mask(self.map.bits_per_word());
        let end = start + data.len();
        let slots = self.data[start..end].iter_mut().zip(data.iter_mut());
        match self.map.masks() {
            None => {
                for (slot, d) in slots {
                    let w = to_word(d) & mask;
                    *slot = w;
                    *d = from_word(w);
                }
            }
            Some((xor, clear, set)) => {
                let masks = xor[start..end]
                    .iter()
                    .zip(&clear[start..end])
                    .zip(&set[start..end]);
                for ((slot, d), ((&x, &c), &s)) in slots.zip(masks) {
                    let w = to_word(d) & mask;
                    *slot = w;
                    *d = from_word(((w ^ x) & !c) | s);
                }
            }
        }
    }

    /// Clears all stored words to zero (fault map unchanged).
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

fn word_mask(bits: u8) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_map::{FaultKind, FaultMap};
    use proptest::prelude::*;

    #[test]
    fn defect_free_memory_is_transparent() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(16, 10));
        for (i, v) in [0u32, 1, 0x3ff, 0x2aa].iter().enumerate() {
            mem.write(i as u32, *v);
            assert_eq!(mem.read(i as u32), *v);
        }
    }

    #[test]
    fn width_masking() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(4, 8));
        mem.write(0, 0xffff_ffff);
        assert_eq!(mem.read(0), 0xff);
    }

    #[test]
    fn faults_corrupt_reads_not_storage() {
        let map = FaultMap::random_exact(8, 8, 16, FaultKind::Flip, 5);
        let mut mem = FaultyMemory::new(map);
        mem.write(0, 0xaa);
        let _ = mem.read(0);
        assert_eq!(mem.read_pristine(0), 0xaa, "storage must stay pristine");
        // Reading twice gives the same corrupted value (faults are static).
        assert_eq!(mem.read(0), mem.read(0));
    }

    #[test]
    fn corrupted_bits_match_fault_count_for_all_ones() {
        let n_faults = 40;
        let map = FaultMap::random_exact(32, 10, n_faults, FaultKind::Flip, 9);
        let mut mem = FaultyMemory::new(map);
        for a in 0..32 {
            mem.write(a, 0);
        }
        // With all-zero storage, every flip fault reads back as a 1.
        let ones: u32 = (0..32).map(|a| mem.read(a).count_ones()).sum();
        assert_eq!(ones as usize, n_faults);
    }

    #[test]
    fn write_all_read_all_roundtrip_defect_free() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(64, 10));
        let vals: Vec<u32> = (0..64).map(|i| (i * 7) & 0x3ff).collect();
        mem.write_all(&vals);
        assert_eq!(mem.read_all(64), vals);
    }

    #[test]
    fn block_primitives_match_per_word_access() {
        // Mixed flip/stuck faults, blocks at an offset: every block
        // primitive must agree with `write` + `read` word by word.
        let mut map = FaultMap::random_exact(40, 10, 120, FaultKind::Flip, 4);
        let kinds = [FaultKind::Flip, FaultKind::StuckAt0, FaultKind::StuckAt1];
        let faults = (map.iter().zip(kinds.iter().cycle()))
            .map(|(f, &kind)| crate::fault_map::Fault { kind, ..*f })
            .collect();
        map.set_faults(faults);
        let mut mem = FaultyMemory::new(map.clone());
        let mut reference = FaultyMemory::new(map);
        let vals: Vec<u32> = (0..17u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut block = vals.clone();
        mem.write_read_block(11, &mut block);
        for (a, &v) in (11u32..).zip(&vals) {
            reference.write(a, v);
        }
        let expect: Vec<u32> = (11u32..28).map(|a| reference.read(a)).collect();
        assert_eq!(block, expect, "write_read_block");
        let mut read = vec![0; 17];
        mem.read_block(11, &mut read);
        assert_eq!(read, expect, "read_block");
        mem.write_block(30, &vals[..10]);
        for (a, &v) in (30u32..).zip(&vals[..10]) {
            reference.write(a, v);
        }
        let all: Vec<u32> = (0..40).map(|a| reference.read(a)).collect();
        assert_eq!(mem.read_all(40), all, "write_block + read_all");
    }

    #[test]
    fn clear_zeroes_data() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(4, 10));
        mem.write(2, 0x3ff);
        mem.clear();
        assert_eq!(mem.read(2), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_write_panics() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(4, 10));
        mem.write(4, 1);
    }

    #[test]
    #[should_panic(expected = "slice longer")]
    fn oversized_write_all_panics() {
        let mut mem = FaultyMemory::new(FaultMap::defect_free(2, 10));
        mem.write_all(&[0; 3]);
    }

    proptest! {
        #[test]
        fn hamming_distance_bounded_by_faults(seed in 0u64..50, v in 0u32..1024) {
            let map = FaultMap::random_exact(16, 10, 20, FaultKind::Flip, seed);
            let mut mem = FaultyMemory::new(map);
            for a in 0..16u32 {
                mem.write(a, v);
            }
            let mut flipped = 0u32;
            for a in 0..16u32 {
                flipped += (mem.read(a) ^ v).count_ones();
            }
            prop_assert_eq!(flipped, 20);
        }
    }
}
