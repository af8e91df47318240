//! LLR storage backends: where silicon faults meet the HARQ protocol.
//!
//! The paper's methodology maps every stored LLR bit onto a memory cell
//! and inverts bits that land on faulty cells. These buffers implement
//! [`hspa_phy::harq::LlrBuffer`] on top of [`silicon::FaultyMemory`], so
//! the HARQ process is oblivious to whether its storage is ideal,
//! quantized, defective, or ECC-protected.

use dsp::LlrQuantizer;
use hspa_phy::harq::{LlrBuffer, PerfectLlrBuffer};
use silicon::ecc::Secded;
use silicon::fault_map::FaultMap;
use silicon::FaultyMemory;

/// Words per block of the storage pipeline: a stack array that stays in
/// L1, large enough to amortize the per-block setup.
const BLOCK_WORDS: usize = 128;

/// The storage pipeline behind every array-backed buffer. LLRs pass
/// through it [`BLOCK_WORDS`] at a time in a stack block: quantize,
/// (SECDED-encode,) store and read back through the fault masks,
/// (decode,) dequantize in place. Each step is a straight-line slice
/// loop, so LLVM inlines and vectorizes it.
#[derive(Debug, Clone)]
struct LlrArray {
    quantizer: LlrQuantizer,
    code: Option<Secded>,
    memory: FaultyMemory,
}

impl LlrArray {
    fn new(map: FaultMap, quantizer: LlrQuantizer, code: Option<Secded>) -> Self {
        Self {
            quantizer,
            code,
            memory: FaultyMemory::new(map),
        }
    }

    /// LLRs → stored words (quantize, then SECDED-encode).
    fn encode(&self, llrs: &[f64], words: &mut [u32]) {
        self.quantizer.quantize_into(llrs, words);
        if let Some(code) = self.code {
            for w in words.iter_mut() {
                *w = code.encode(*w);
            }
        }
    }

    /// Read-back words → LLRs (SECDED-decode, then dequantize).
    fn decode(&self, words: &mut [u32], llrs: &mut [f64]) {
        if let Some(code) = self.code {
            for w in words.iter_mut() {
                *w = code.decode(*w).0;
            }
        }
        self.quantizer.dequantize_into(words, llrs);
    }
}

impl LlrBuffer for LlrArray {
    fn capacity(&self) -> usize {
        self.memory.words() as usize
    }

    fn store(&mut self, llrs: &[f64]) {
        assert_eq!(llrs.len(), self.capacity(), "buffer length mismatch");
        let mut block = [0u32; BLOCK_WORDS];
        for (i, chunk) in llrs.chunks(BLOCK_WORDS).enumerate() {
            let words = &mut block[..chunk.len()];
            self.encode(chunk, words);
            self.memory.write_block(i * BLOCK_WORDS, words);
        }
    }

    fn load(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.load_into(&mut out);
        out
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        out.resize(self.capacity(), 0.0);
        let mut block = [0u32; BLOCK_WORDS];
        for (i, chunk) in out.chunks_mut(BLOCK_WORDS).enumerate() {
            let words = &mut block[..chunk.len()];
            self.memory.read_block(i * BLOCK_WORDS, words);
            self.decode(words, chunk);
        }
    }

    fn store_load(&mut self, data: &mut Vec<f64>) {
        assert_eq!(data.len(), self.capacity(), "buffer length mismatch");
        let mut block = [0u32; BLOCK_WORDS];
        for (i, chunk) in data.chunks_mut(BLOCK_WORDS).enumerate() {
            let words = &mut block[..chunk.len()];
            self.encode(chunk, words);
            self.memory.write_read_block(i * BLOCK_WORDS, words);
            self.decode(words, chunk);
        }
    }

    fn reset(&mut self) {
        // Word 0 is the stored form of a zero LLR: both formats quantize
        // 0.0 to code 0 and SECDED is linear, so it encodes 0 as 0.
        self.memory.clear();
    }
}

/// Implements [`LlrBuffer`] for a public buffer type by delegating to
/// its `array` field.
macro_rules! array_backed {
    ($($ty:ty),*) => {$(
        impl LlrBuffer for $ty {
            fn capacity(&self) -> usize {
                self.array.capacity()
            }

            fn store(&mut self, llrs: &[f64]) {
                self.array.store(llrs);
            }

            fn load(&self) -> Vec<f64> {
                self.array.load()
            }

            fn load_into(&self, out: &mut Vec<f64>) {
                self.array.load_into(out);
            }

            fn store_load(&mut self, data: &mut Vec<f64>) {
                self.array.store_load(data);
            }

            fn reset(&mut self) {
                self.array.reset();
            }
        }
    )*};
}

array_backed!(QuantizedLlrBuffer, FaultyLlrBuffer, EccLlrBuffer);

/// Quantized but fault-free storage — isolates pure quantization loss.
///
/// # Example
///
/// ```
/// use resilience_core::QuantizedLlrBuffer;
/// use hspa_phy::harq::LlrBuffer;
/// use dsp::LlrQuantizer;
///
/// let mut buf = QuantizedLlrBuffer::new(16, LlrQuantizer::default());
/// buf.store(&vec![3.2; 16]);
/// let back = buf.load();
/// assert!((back[0] - 3.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedLlrBuffer {
    array: LlrArray,
}

impl QuantizedLlrBuffer {
    /// Creates a zeroed buffer of `capacity` LLR words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, quantizer: LlrQuantizer) -> Self {
        let map = FaultMap::defect_free(capacity as u32, quantizer.bits());
        Self {
            array: LlrArray::new(map, quantizer, None),
        }
    }
}

/// LLR storage on a defective SRAM array — the paper's object of study.
///
/// Each LLR is quantized to a `W`-bit word and stored in a
/// [`FaultyMemory`] whose fault map marks defective cells; reads corrupt
/// the affected bits, exactly reproducing the Section 4 methodology.
#[derive(Debug, Clone)]
pub struct FaultyLlrBuffer {
    array: LlrArray,
}

impl FaultyLlrBuffer {
    /// Creates the buffer over a fault map; the map's word width must
    /// match the quantizer's.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree.
    pub fn new(map: FaultMap, quantizer: LlrQuantizer) -> Self {
        assert_eq!(
            map.bits_per_word(),
            quantizer.bits(),
            "fault map width must match quantizer width"
        );
        Self {
            array: LlrArray::new(map, quantizer, None),
        }
    }

    /// Convenience: a defect-free array of the same geometry (reference
    /// system with quantization only).
    pub fn defect_free(capacity: usize, quantizer: LlrQuantizer) -> Self {
        let map = FaultMap::defect_free(capacity as u32, quantizer.bits());
        Self::new(map, quantizer)
    }

    /// The quantizer in use.
    pub fn quantizer(&self) -> &LlrQuantizer {
        &self.array.quantizer
    }

    /// Fraction of defective cells in the underlying array.
    pub fn defect_fraction(&self) -> f64 {
        self.array.memory.fault_map().defect_fraction()
    }
}

/// SECDED-protected LLR storage — the conventional baseline of §6.2.
///
/// Every quantized word is Hamming-encoded before hitting the (faulty)
/// array and decoded (with single-error correction) on read. The array is
/// wider — `codeword_bits` per LLR — which is exactly the ≥35 % overhead
/// the paper charges against ECC.
#[derive(Debug, Clone)]
pub struct EccLlrBuffer {
    array: LlrArray,
}

impl EccLlrBuffer {
    /// Creates the buffer over a fault map sized for the ECC codeword
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if the map's word width differs from the SECDED codeword
    /// width for the quantizer's data width.
    pub fn new(map: FaultMap, quantizer: LlrQuantizer) -> Self {
        let code = Secded::new(quantizer.bits());
        assert_eq!(
            map.bits_per_word(),
            code.codeword_bits(),
            "fault map width must match the ECC codeword width"
        );
        Self {
            array: LlrArray::new(map, quantizer, Some(code)),
        }
    }

    /// The SECDED code in use.
    pub fn code(&self) -> &Secded {
        self.array
            .code
            .as_ref()
            .expect("an ECC buffer always carries its code")
    }
}

/// Adds non-persistent soft errors (radiation upsets, §3 of the paper)
/// on top of any other storage backend.
///
/// Unlike the static fault map, each [`LlrBuffer::load`] independently
/// flips every stored bit with probability `p_upset` — the behaviour of
/// transient single-event upsets. The RNG is owned and seeded, so runs
/// remain reproducible. Used by the soft-error extension study.
#[derive(Debug, Clone)]
pub struct TransientLlrBuffer<B> {
    inner: B,
    quantizer: LlrQuantizer,
    p_upset: f64,
    seed: u64,
    rng: std::cell::RefCell<rand::rngs::StdRng>,
}

impl<B: LlrBuffer> TransientLlrBuffer<B> {
    /// Wraps `inner` with per-read upset probability `p_upset` per bit.
    ///
    /// The quantizer must match the one used by `inner` so the upset is
    /// applied in the stored-word domain.
    ///
    /// # Panics
    ///
    /// Panics if `p_upset` is not in `[0, 1]`.
    pub fn new(inner: B, quantizer: LlrQuantizer, p_upset: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_upset), "upset probability in [0,1]");
        Self {
            inner,
            quantizer,
            p_upset,
            seed,
            rng: std::cell::RefCell::new(dsp::rng::seeded(seed)),
        }
    }

    /// The per-bit, per-read upset probability.
    pub fn p_upset(&self) -> f64 {
        self.p_upset
    }
}

impl<B: LlrBuffer> LlrBuffer for TransientLlrBuffer<B> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn store(&mut self, llrs: &[f64]) {
        self.inner.store(llrs);
    }

    fn load(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.load_into(&mut out);
        out
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        use rand::Rng;
        self.inner.load_into(out);
        if self.p_upset == 0.0 {
            return;
        }
        let bits = self.quantizer.bits();
        let mut rng = self.rng.borrow_mut();
        for l in out.iter_mut() {
            let mut code = self.quantizer.quantize(*l);
            for b in 0..bits {
                if rng.gen::<f64>() < self.p_upset {
                    code = dsp::fixed::flip_bit(code, b);
                }
            }
            *l = self.quantizer.dequantize(code);
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn begin_packet(&mut self, packet_seed: u64) {
        // Upset draws restart from a per-packet stream: results no longer
        // depend on how many packets this buffer served before, which is
        // what lets the Monte-Carlo engine shard packets across threads.
        *self.rng.borrow_mut() = dsp::rng::seeded(dsp::rng::derive_seed(self.seed, packet_seed));
        self.inner.begin_packet(packet_seed);
    }
}

/// Every storage backend [`crate::montecarlo::build_storage`] builds, as
/// one `Clone`-able type. A die's fault masks are read-only and all
/// per-packet state is reset by [`LlrBuffer::reset`] and re-anchored by
/// [`LlrBuffer::begin_packet`], so a clone serves a packet exactly like a
/// fresh build of the same die: the engine builds each die once and hands
/// every further in-flight packet a clone.
#[derive(Debug, Clone)]
pub enum StorageBuffer {
    /// Ideal float storage.
    Perfect(PerfectLlrBuffer),
    /// Quantized, fault-free storage.
    Quantized(QuantizedLlrBuffer),
    /// Quantized storage on a faulty array.
    Faulty(FaultyLlrBuffer),
    /// SECDED-protected storage on a faulty array.
    Ecc(EccLlrBuffer),
    /// Quantized storage under transient upsets.
    Transient(TransientLlrBuffer<QuantizedLlrBuffer>),
}

/// Evaluates `$body` with `$b` bound to the backend inside a
/// [`StorageBuffer`].
macro_rules! with_backend {
    ($buffer:expr, $b:ident => $body:expr) => {
        match $buffer {
            StorageBuffer::Perfect($b) => $body,
            StorageBuffer::Quantized($b) => $body,
            StorageBuffer::Faulty($b) => $body,
            StorageBuffer::Ecc($b) => $body,
            StorageBuffer::Transient($b) => $body,
        }
    };
}

impl LlrBuffer for StorageBuffer {
    fn capacity(&self) -> usize {
        with_backend!(self, b => b.capacity())
    }

    fn store(&mut self, llrs: &[f64]) {
        with_backend!(self, b => b.store(llrs))
    }

    fn load(&self) -> Vec<f64> {
        with_backend!(self, b => b.load())
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        with_backend!(self, b => b.load_into(out))
    }

    fn store_load(&mut self, data: &mut Vec<f64>) {
        with_backend!(self, b => b.store_load(data))
    }

    fn reset(&mut self) {
        with_backend!(self, b => b.reset())
    }

    fn begin_packet(&mut self, packet_seed: u64) {
        with_backend!(self, b => b.begin_packet(packet_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silicon::fault_map::FaultKind;
    use silicon::ProtectionPlan;

    fn q10() -> LlrQuantizer {
        LlrQuantizer::new(10, 32.0, dsp::LlrFormat::TwosComplement)
    }

    #[test]
    fn quantized_buffer_roundtrip_within_step() {
        let q = q10();
        let mut buf = QuantizedLlrBuffer::new(8, q);
        let v: Vec<f64> = (0..8).map(|i| i as f64 - 4.0).collect();
        buf.store(&v);
        for (a, b) in buf.load().iter().zip(&v) {
            assert!((a - b).abs() <= q.step());
        }
        buf.reset();
        assert!(buf.load().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn defect_free_faulty_buffer_equals_quantized() {
        let q = q10();
        let mut a = FaultyLlrBuffer::defect_free(32, q);
        let mut b = QuantizedLlrBuffer::new(32, q);
        let v: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) * 1.7).collect();
        a.store(&v);
        b.store(&v);
        assert_eq!(a.load(), b.load());
        assert_eq!(a.defect_fraction(), 0.0);
    }

    #[test]
    fn faults_perturb_stored_llrs() {
        let q = q10();
        let map = FaultMap::random_exact(64, 10, 64, FaultKind::Flip, 3);
        let mut buf = FaultyLlrBuffer::new(map, q);
        let v = vec![5.0; 64];
        buf.store(&v);
        let out = buf.load();
        let perturbed = out.iter().filter(|&&x| (x - 5.0).abs() > q.step()).count();
        assert!(
            perturbed > 0,
            "64 faults in 64 words must corrupt something"
        );
        // About 10% of faults hit the sign bit → large negative values.
        assert!(
            out.iter().any(|&x| x < 0.0),
            "expected at least one sign flip"
        );
    }

    #[test]
    fn msb_protected_array_never_flips_sign() {
        // Put ALL faults in the 6 unprotected LSBs: worst corruption of a
        // 4-MSB-protected hybrid. Sign bits survive by construction.
        let q = q10();
        let plan = ProtectionPlan::msb_protected(10, 4);
        let map = plan.fault_map_exact_unprotected(128, 400, FaultKind::Flip, 5);
        let mut buf = FaultyLlrBuffer::new(map, q);
        buf.store(&vec![10.0; 128]);
        let out = buf.load();
        assert!(
            out.iter().all(|&x| x > 0.0),
            "protected sign bits must never flip"
        );
        // Magnitude errors bounded by the unprotected bits' weight (2⁶-1
        // levels ≈ 63 steps ≈ 3.9 LLR units with clip 32).
        for &x in &out {
            assert!((x - 10.0).abs() <= 64.0 * q.step() + 1e-9);
        }
    }

    #[test]
    fn ecc_buffer_corrects_sparse_faults() {
        // One fault per word: SECDED corrects every single-bit error, so
        // the read-back equals the defect-free value.
        let q = q10();
        let code = Secded::new(10);
        let words = 50u32;
        let mut faults = Vec::new();
        for w in 0..words {
            faults.push(silicon::fault_map::Fault {
                word: w,
                bit: (w % code.codeword_bits() as u32) as u8,
                kind: FaultKind::Flip,
            });
        }
        let mut map = FaultMap::defect_free(words, code.codeword_bits());
        map.set_faults(faults);
        let mut buf = EccLlrBuffer::new(map, q);
        let v: Vec<f64> = (0..words).map(|i| (i as f64) * 0.5 - 12.0).collect();
        buf.store(&v);
        for (a, b) in buf.load().iter().zip(&v) {
            assert!((a - b).abs() <= q.step(), "{a} vs {b}");
        }
    }

    #[test]
    fn ecc_buffer_fails_on_double_faults() {
        // Two faults in one word exceed SECDED: corruption leaks through.
        let q = q10();
        let code = Secded::new(10);
        let mut map = FaultMap::defect_free(4, code.codeword_bits());
        map.set_faults(vec![
            silicon::fault_map::Fault {
                word: 0,
                bit: 2,
                kind: FaultKind::Flip,
            },
            silicon::fault_map::Fault {
                word: 0,
                bit: 7,
                kind: FaultKind::Flip,
            },
        ]);
        let mut buf = EccLlrBuffer::new(map, q);
        buf.store(&[8.0; 4]);
        let out = buf.load();
        // Words 1..4 are clean; word 0 is unreliable (double error).
        for &x in &out[1..] {
            assert!((x - 8.0).abs() <= q.step());
        }
    }

    #[test]
    fn fused_round_trip_equals_store_then_load() {
        // `store_load` must be exactly `store` + `load_into`, state
        // included, on every storage kind (dense faults so SECDED sees
        // clean, corrected and double-error words alike), at capacities
        // that end mid-block, on a block edge and past one. After
        // `reset`, `load_into` must read what a fresh buffer reads.
        fn check(mut fused: impl LlrBuffer + Clone, label: &str) {
            let fresh = fused.clone();
            let mut split = fused.clone();
            let v: Vec<f64> = (0..fused.capacity())
                .map(|i| (i as f64 * 0.73).sin() * 40.0)
                .collect();
            let mut data = v.clone();
            fused.store_load(&mut data);
            split.store(&v);
            let mut loaded = vec![1.0; 3];
            split.load_into(&mut loaded);
            assert_eq!(data, loaded, "{label}: round trip");
            assert_eq!(fused.load(), loaded, "{label}: stored state");
            fused.reset();
            fused.load_into(&mut loaded);
            assert_eq!(loaded, fresh.load(), "{label}: reset");
        }
        let q = q10();
        let ecc_bits = Secded::new(10).codeword_bits();
        let hybrid = ProtectionPlan::msb_protected(10, 4);
        let b = BLOCK_WORDS as u32;
        for words in [1, b - 1, b, b + 1, 1884] {
            let label = |kind: &str| format!("{kind}, {words} words");
            check(
                QuantizedLlrBuffer::new(words as usize, q),
                &label("quantized"),
            );
            let cells = (words * 10) as usize;
            check(
                FaultyLlrBuffer::new(
                    FaultMap::random_exact(words, 10, cells / 10, FaultKind::Flip, 11),
                    q,
                ),
                &label("faulty"),
            );
            check(
                FaultyLlrBuffer::new(
                    hybrid.fault_map_exact_unprotected(words, cells / 10, FaultKind::Flip, 13),
                    q,
                ),
                &label("hybrid 4-MSB"),
            );
            let ecc_cells = words as usize * ecc_bits as usize;
            for kind in [FaultKind::Flip, FaultKind::StuckAt0, FaultKind::StuckAt1] {
                let map = FaultMap::random_exact(words, ecc_bits, ecc_cells / 10, kind, 12);
                check(EccLlrBuffer::new(map, q), &label("secded"));
            }
        }

        // The engine builds each die once and lends packets clones, so a
        // clone of a used buffer, once `begin_packet` and `reset` start
        // its packet, must serve that packet exactly like a fresh build
        // of the same die — on every storage kind, upsets included.
        use crate::montecarlo::{build_storage, DefectSpec, StorageConfig};
        let cfg = crate::config::SystemConfig::fast_test();
        let storages = [
            StorageConfig::Perfect,
            StorageConfig::Quantized,
            StorageConfig::unprotected(0.10, cfg.llr_bits),
            StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
            StorageConfig::Ecc {
                defects: DefectSpec::Fraction(0.10),
                fault_kind: FaultKind::StuckAt1,
            },
            StorageConfig::Transient { p_upset: 0.05 },
        ];
        let v: Vec<f64> = (0..cfg.coded_len())
            .map(|i| (i as f64 * 0.37).cos() * 30.0)
            .collect();
        let serve = |buf: &mut StorageBuffer, packet: u64| {
            buf.begin_packet(packet);
            buf.reset();
            let mut data = v.clone();
            buf.store_load(&mut data);
            buf.store_load(&mut data);
            let mut loaded = Vec::new();
            buf.load_into(&mut loaded);
            (data, loaded)
        };
        for storage in &storages {
            let mut used = build_storage(&cfg, storage, 0xd1e);
            serve(&mut used, 1);
            let mut clone = used.clone();
            let mut fresh = build_storage(&cfg, storage, 0xd1e);
            assert_eq!(
                serve(&mut clone, 2),
                serve(&mut fresh, 2),
                "{}: clone vs fresh build",
                storage.label()
            );
        }
    }

    #[test]
    fn reset_clears_all_backends() {
        let q = q10();
        let mut f = FaultyLlrBuffer::defect_free(8, q);
        f.store(&[3.0; 8]);
        f.reset();
        assert!(f.load().iter().all(|&x| x == 0.0));

        let code = Secded::new(10);
        let map = FaultMap::defect_free(8, code.codeword_bits());
        let mut e = EccLlrBuffer::new(map, q);
        e.store(&[3.0; 8]);
        e.reset();
        assert!(e.load().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transient_buffer_zero_rate_is_transparent() {
        let q = q10();
        let inner = QuantizedLlrBuffer::new(16, q);
        let mut buf = TransientLlrBuffer::new(inner, q, 0.0, 1);
        let v = vec![2.5; 16];
        buf.store(&v);
        let out = buf.load();
        for x in out {
            assert!((x - 2.5).abs() <= q.step());
        }
    }

    #[test]
    fn transient_buffer_upsets_vary_per_read() {
        let q = q10();
        let inner = QuantizedLlrBuffer::new(256, q);
        let mut buf = TransientLlrBuffer::new(inner, q, 0.05, 2);
        buf.store(&vec![4.0; 256]);
        let a = buf.load();
        let b = buf.load();
        assert_ne!(a, b, "transient upsets must differ between reads");
        // Roughly 5% of bits upset -> far fewer than half the words clean.
        let clean = a.iter().filter(|&&x| (x - 4.0).abs() <= q.step()).count();
        assert!(clean > 100 && clean < 256, "clean words {clean}");
    }

    #[test]
    fn transient_buffer_is_seed_deterministic() {
        let q = q10();
        let mk = |seed| {
            let inner = QuantizedLlrBuffer::new(64, q);
            let mut buf = TransientLlrBuffer::new(inner, q, 0.1, seed);
            buf.store(&vec![1.0; 64]);
            buf.load()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    #[should_panic(expected = "upset probability")]
    fn transient_buffer_rejects_bad_rate() {
        let q = q10();
        let _ = TransientLlrBuffer::new(QuantizedLlrBuffer::new(4, q), q, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_rejected() {
        let map = FaultMap::defect_free(8, 12);
        let _ = FaultyLlrBuffer::new(map, q10());
    }
}
