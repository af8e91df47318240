//! Hybrid ARQ: LLR buffering, soft combining and throughput accounting.
//!
//! The HARQ entity is the heart of the paper's study: soft LLRs of every
//! received transmission are stored in the LLR memory, combined with
//! retransmissions, and fed to the turbo decoder. The storage backend is
//! abstracted behind [`LlrBuffer`] so the system simulator can swap the
//! ideal buffer for one built on defective silicon
//! (`resilience-core::FaultyLlrBuffer`) without touching the protocol
//! logic.

use serde::{Deserialize, Serialize};

use crate::rate_match::{RateMatcher, RedundancyVersion};

/// Soft-value storage used by the HARQ process.
///
/// One buffer instance holds the combined LLRs of one transport block
/// (codeword-domain, `3K + 12` values). Implementations may be perfect
/// (plain memory) or lossy (quantized storage on faulty SRAM) — the HARQ
/// process is agnostic.
pub trait LlrBuffer {
    /// Number of LLR slots.
    fn capacity(&self) -> usize;

    /// Overwrites the stored LLRs (length must equal `capacity`).
    fn store(&mut self, llrs: &[f64]);

    /// Reads all stored LLRs back (possibly corrupted/quantized).
    fn load(&self) -> Vec<f64>;

    /// Allocation-free [`LlrBuffer::load`]: clears `out` and fills it
    /// with the stored LLRs, reusing capacity. Implementations should
    /// override the default (which goes through `load`) when they can
    /// write in place.
    fn load_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.load());
    }

    /// Stores `data` and immediately reads the buffer back into the
    /// same vector — the write-then-read round trip at the heart of
    /// soft combining, exposed as one call so lossy backends can fuse
    /// quantization, fault corruption and decode into a single sweep.
    /// Must behave exactly like [`LlrBuffer::store`] followed by
    /// [`LlrBuffer::load_into`] on the same vector (the default).
    fn store_load(&mut self, data: &mut Vec<f64>) {
        self.store(data);
        self.load_into(data);
    }

    /// Clears the buffer to zeros (new transport block).
    fn reset(&mut self);

    /// Hook called once per simulated packet with that packet's
    /// deterministic seed, *before* the HARQ process touches the buffer.
    ///
    /// Stateless backends ignore it (the default). Backends with
    /// per-read randomness (e.g. transient soft-error injection) reseed
    /// their internal generator here, which makes results independent of
    /// how packets are sharded across Monte-Carlo worker threads.
    fn begin_packet(&mut self, _packet_seed: u64) {}
}

impl<B: LlrBuffer + ?Sized> LlrBuffer for Box<B> {
    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn store(&mut self, llrs: &[f64]) {
        (**self).store(llrs);
    }

    fn load(&self) -> Vec<f64> {
        (**self).load()
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        (**self).load_into(out);
    }

    fn store_load(&mut self, data: &mut Vec<f64>) {
        (**self).store_load(data);
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn begin_packet(&mut self, packet_seed: u64) {
        (**self).begin_packet(packet_seed);
    }
}

impl<B: LlrBuffer + ?Sized> LlrBuffer for &mut B {
    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn store(&mut self, llrs: &[f64]) {
        (**self).store(llrs);
    }

    fn load(&self) -> Vec<f64> {
        (**self).load()
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        (**self).load_into(out);
    }

    fn store_load(&mut self, data: &mut Vec<f64>) {
        (**self).store_load(data);
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn begin_packet(&mut self, packet_seed: u64) {
        (**self).begin_packet(packet_seed);
    }
}

/// An ideal, lossless LLR buffer (the defect-free reference system).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfectLlrBuffer {
    data: Vec<f64>,
}

impl PerfectLlrBuffer {
    /// Creates a zeroed buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            data: vec![0.0; capacity],
        }
    }
}

impl LlrBuffer for PerfectLlrBuffer {
    fn capacity(&self) -> usize {
        self.data.len()
    }

    fn store(&mut self, llrs: &[f64]) {
        assert_eq!(llrs.len(), self.data.len(), "buffer length mismatch");
        self.data.copy_from_slice(llrs);
    }

    fn load(&self) -> Vec<f64> {
        self.data.clone()
    }

    fn load_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.data);
    }

    fn store_load(&mut self, data: &mut Vec<f64>) {
        // Lossless storage reads back exactly what was written, so the
        // round trip is just the store.
        self.store(data);
    }

    fn reset(&mut self) {
        self.data.fill(0.0);
    }
}

/// HARQ soft-combining strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HarqCombining {
    /// Every retransmission repeats the same RV; LLRs add up.
    Chase,
    /// Retransmissions cycle redundancy versions, filling punctured bits.
    #[default]
    IncrementalRedundancy,
}

impl HarqCombining {
    /// The redundancy version for transmission attempt `attempt` (0-based).
    pub fn rv(self, attempt: usize) -> RedundancyVersion {
        match self {
            HarqCombining::Chase => RedundancyVersion::chase(),
            HarqCombining::IncrementalRedundancy => RedundancyVersion::ir_cycle(attempt),
        }
    }
}

/// One HARQ process: combines successive transmissions of one transport
/// block through an [`LlrBuffer`].
///
/// The process borrows its rate matcher — immutable shared state — so
/// one `HarqProcess` per packet clones no codec tables.
///
/// # Example
///
/// ```
/// use hspa_phy::harq::{HarqProcess, HarqCombining, PerfectLlrBuffer};
/// use hspa_phy::rate_match::RateMatcher;
///
/// let rm = RateMatcher::new(100, 220);
/// let buffer = PerfectLlrBuffer::new(rm.coded_len());
/// let mut harq = HarqProcess::new(&rm, HarqCombining::IncrementalRedundancy, buffer);
/// let rx_llrs = vec![0.5; 220];
/// let combined = harq.combine_transmission(0, &rx_llrs);
/// assert_eq!(combined.len(), 312);
/// ```
#[derive(Debug, Clone)]
pub struct HarqProcess<'a, B: LlrBuffer> {
    rate_matcher: &'a RateMatcher,
    combining: HarqCombining,
    buffer: B,
}

impl<'a, B: LlrBuffer> HarqProcess<'a, B> {
    /// Creates a process over the given buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer capacity differs from the codeword length.
    pub fn new(rate_matcher: &'a RateMatcher, combining: HarqCombining, buffer: B) -> Self {
        assert_eq!(
            buffer.capacity(),
            rate_matcher.coded_len(),
            "buffer must hold one codeword of LLRs"
        );
        Self {
            rate_matcher,
            combining,
            buffer,
        }
    }

    /// The rate matcher in use.
    pub fn rate_matcher(&self) -> &RateMatcher {
        self.rate_matcher
    }

    /// The combining strategy.
    pub fn combining(&self) -> HarqCombining {
        self.combining
    }

    /// Read access to the storage backend.
    pub fn buffer(&self) -> &B {
        &self.buffer
    }

    /// Starts a new transport block (clears the soft buffer).
    pub fn start_block(&mut self) {
        self.buffer.reset();
    }

    /// Ingests the demapped LLRs of transmission `attempt` and returns the
    /// combined codeword LLRs as read back from the buffer.
    ///
    /// The flow mirrors the paper's Fig. 1(b): stored LLRs (read through
    /// the possibly-faulty memory) + de-rate-matched new LLRs → written
    /// back → read again by the decoder.
    ///
    /// # Panics
    ///
    /// Panics if `rx_llrs.len()` differs from the per-transmission length.
    pub fn combine_transmission(&mut self, attempt: usize, rx_llrs: &[f64]) -> Vec<f64> {
        let rv = self.combining.rv(attempt);
        let rate_matcher = self.rate_matcher;
        let mut combined = Vec::new();
        combine_into(&mut self.buffer, attempt, &mut combined, |sum| {
            rate_matcher.accumulate(rx_llrs, rv, sum)
        });
        combined
    }
}

/// One soft-combining step through `buffer`, the paper's Fig. 1(b):
/// `out` receives the stored LLRs (zeros on attempt 0, which starts a
/// new block), `add_transmission` adds the transmission's de-rate-matched
/// LLRs, and the sum is written back and read again
/// ([`LlrBuffer::store_load`]), so `out` ends up holding what the
/// decoder reads. Allocation-free once `out` has grown to the buffer's
/// capacity.
pub fn combine_into<B: LlrBuffer + ?Sized>(
    buffer: &mut B,
    attempt: usize,
    out: &mut Vec<f64>,
    add_transmission: impl FnOnce(&mut [f64]),
) {
    if attempt == 0 {
        out.clear();
        out.resize(buffer.capacity(), 0.0);
    } else {
        buffer.load_into(out);
    }
    add_transmission(out);
    buffer.store_load(out);
}

/// Outcome statistics of a HARQ Monte-Carlo run (one operating point).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HarqStats {
    /// Packets attempted.
    pub packets: u64,
    /// Packets delivered within the transmission budget.
    pub delivered: u64,
    /// Total transmissions used (failed packets count their full budget).
    pub transmissions: u64,
    /// `failures_at[t]` = packets still undecoded after transmission
    /// `t+1` (index 0 = after the initial transmission) — the Fig. 2 data.
    pub failures_at: Vec<u64>,
    /// Information bits per packet.
    pub info_bits: u64,
}

impl HarqStats {
    /// Creates empty statistics for a budget of `max_tx` transmissions.
    pub fn new(max_tx: usize, info_bits: usize) -> Self {
        Self {
            packets: 0,
            delivered: 0,
            transmissions: 0,
            failures_at: vec![0; max_tx],
            info_bits: info_bits as u64,
        }
    }

    /// Records one packet: `success_after` is the 1-based transmission on
    /// which it decoded, or `None` if it exhausted the budget.
    pub fn record(&mut self, success_after: Option<usize>, max_tx: usize) {
        self.packets += 1;
        match success_after {
            Some(t) => {
                assert!(t >= 1 && t <= max_tx, "success index out of range");
                self.delivered += 1;
                self.transmissions += t as u64;
                for slot in self.failures_at.iter_mut().take(t - 1) {
                    *slot += 1;
                }
            }
            None => {
                self.transmissions += max_tx as u64;
                for slot in self.failures_at.iter_mut() {
                    *slot += 1;
                }
            }
        }
    }

    /// Normalized throughput: delivered packets over transmissions used
    /// (1.0 = every transmission delivers a packet).
    pub fn normalized_throughput(&self) -> f64 {
        if self.transmissions == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.transmissions as f64
    }

    /// Average number of transmissions per packet.
    pub fn avg_transmissions(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.transmissions as f64 / self.packets as f64
    }

    /// Block error rate after transmission `t` (1-based), the Fig. 2
    /// quantity.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or beyond the budget.
    pub fn bler_after(&self, t: usize) -> f64 {
        assert!(t >= 1 && t <= self.failures_at.len(), "transmission index");
        if self.packets == 0 {
            return 0.0;
        }
        self.failures_at[t - 1] as f64 / self.packets as f64
    }

    /// Merges another statistics block (parallel workers).
    ///
    /// # Panics
    ///
    /// Panics if the budgets differ.
    pub fn merge(&mut self, other: &HarqStats) {
        assert_eq!(self.failures_at.len(), other.failures_at.len());
        self.packets += other.packets;
        self.delivered += other.delivered;
        self.transmissions += other.transmissions;
        for (a, b) in self.failures_at.iter_mut().zip(&other.failures_at) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbo::TurboCode;
    use dsp::rng::{random_bits, seeded};

    #[test]
    fn perfect_buffer_roundtrip() {
        let mut b = PerfectLlrBuffer::new(8);
        assert_eq!(b.capacity(), 8);
        let v: Vec<f64> = (0..8).map(|i| i as f64 - 4.0).collect();
        b.store(&v);
        assert_eq!(b.load(), v);
        b.reset();
        assert!(b.load().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn chase_combining_doubles_llrs() {
        let k = 100;
        let rm = RateMatcher::new(k, 312); // no puncturing
        let buffer = PerfectLlrBuffer::new(rm.coded_len());
        let mut harq = HarqProcess::new(&rm, HarqCombining::Chase, buffer);
        let rx = vec![1.5; 312];
        let c1 = harq.combine_transmission(0, &rx);
        let c2 = harq.combine_transmission(1, &rx);
        for (a, b) in c1.iter().zip(&c2) {
            assert!((b / a - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ir_fills_punctured_positions() {
        let k = 100;
        let rm = RateMatcher::new(k, 180);
        let buffer = PerfectLlrBuffer::new(rm.coded_len());
        let mut harq = HarqProcess::new(&rm, HarqCombining::IncrementalRedundancy, buffer);
        let rx = vec![1.0; 180];
        let mut nonzero_prev = 0usize;
        for attempt in 0..4 {
            let combined = harq.combine_transmission(attempt, &rx);
            let nonzero = combined.iter().filter(|&&v| v != 0.0).count();
            assert!(nonzero >= nonzero_prev, "IR must monotonically fill");
            nonzero_prev = nonzero;
        }
        assert!(nonzero_prev as f64 > 0.95 * 312.0);
    }

    #[test]
    fn start_block_clears() {
        let rm = RateMatcher::new(100, 312);
        let buffer = PerfectLlrBuffer::new(rm.coded_len());
        let mut harq = HarqProcess::new(&rm, HarqCombining::Chase, buffer);
        harq.combine_transmission(0, &vec![2.0; 312]);
        harq.start_block();
        assert!(harq.buffer().load().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn combining_improves_decoding_at_low_snr() {
        // A block too noisy for one transmission decodes after combining
        // two: the HARQ gain the paper's Fig. 2 shows.
        let k = 200;
        let code = TurboCode::new(k).unwrap();
        let rm = RateMatcher::new(k, code.coded_len());
        let buffer = PerfectLlrBuffer::new(rm.coded_len());
        let mut harq = HarqProcess::new(&rm, HarqCombining::Chase, buffer);
        let mut rng = seeded(12);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        // Weak, noisy LLRs.
        let amp = 1.1;
        let sigma = 1.3;
        let scale = 2.0 * amp / (sigma * sigma);
        let rm_for_tx = RateMatcher::new(k, code.coded_len());
        let noisy = |attempt: usize, rng: &mut rand::rngs::StdRng| -> Vec<f64> {
            let tx = rm_for_tx.rate_match(&coded, HarqCombining::Chase.rv(attempt));
            tx.iter()
                .map(|&b| {
                    let x = if b == 0 { amp } else { -amp };
                    scale * (x + dsp::rng::standard_normal(rng) * sigma)
                })
                .collect()
        };
        let c1 = harq.combine_transmission(0, &noisy(0, &mut rng));
        let fail1 = code.decode(&c1, 8).bits != bits;
        let c2 = harq.combine_transmission(1, &noisy(1, &mut rng));
        let ok2 = code.decode(&c2, 8).bits == bits;
        // The first may or may not fail for a given seed; combined must
        // succeed, and combined LLR magnitudes must grow.
        assert!(ok2, "combined transmission should decode");
        let m1: f64 = c1.iter().map(|v| v.abs()).sum();
        let m2: f64 = c2.iter().map(|v| v.abs()).sum();
        assert!(m2 > 1.5 * m1, "combining must strengthen LLRs");
        let _ = fail1;
    }

    #[test]
    fn stats_accounting() {
        let mut st = HarqStats::new(4, 100);
        st.record(Some(1), 4); // first-try success
        st.record(Some(3), 4); // success on third
        st.record(None, 4); // failure
        assert_eq!(st.packets, 3);
        assert_eq!(st.delivered, 2);
        assert_eq!(st.transmissions, 1 + 3 + 4);
        assert!((st.normalized_throughput() - 2.0 / 8.0).abs() < 1e-12);
        assert!((st.avg_transmissions() - 8.0 / 3.0).abs() < 1e-12);
        // BLER after tx1: packets not decoded on first = 2/3.
        assert!((st.bler_after(1) - 2.0 / 3.0).abs() < 1e-12);
        // After tx2: packet 2 (decoded at 3) and packet 3 remain: 2/3.
        assert!((st.bler_after(2) - 2.0 / 3.0).abs() < 1e-12);
        // After tx3: only the failure remains.
        assert!((st.bler_after(3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((st.bler_after(4) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge() {
        let mut a = HarqStats::new(2, 10);
        a.record(Some(1), 2);
        let mut b = HarqStats::new(2, 10);
        b.record(None, 2);
        a.merge(&b);
        assert_eq!(a.packets, 2);
        assert_eq!(a.transmissions, 3);
    }

    #[test]
    fn bler_monotone_nonincreasing_in_tx() {
        let mut st = HarqStats::new(4, 10);
        let mut rng = seeded(9);
        for _ in 0..200 {
            let t = 1 + (rand::Rng::gen_range(&mut rng, 0..5usize)).min(4);
            if t <= 4 {
                st.record(Some(t), 4);
            } else {
                st.record(None, 4);
            }
        }
        for t in 1..4 {
            assert!(st.bler_after(t) >= st.bler_after(t + 1) - 1e-12);
        }
    }
}
