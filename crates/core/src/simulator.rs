//! One-packet link simulation through the (possibly faulty) LLR memory.
//!
//! [`LinkSimulator`] wires the full chain of the paper's Fig. 1:
//!
//! ```text
//! payload → CRC24 → turbo encode
//!        → ┌ rate match(RV) → channel interleave → QAM modulate ┐  one gather
//!        → fading channel + noise → MMSE equalize → soft demap
//!        → └ deinterleave → de-rate-match(RV) ┘ + HARQ combine ⟷ LLR MEMORY
//!        → turbo decode → CRC check → ACK / retransmission
//! ```
//!
//! The bracketed stages are fused per attempt through a
//! [`TransmissionMap`] built at construction: the modulator reads each
//! channel bit straight from the codeword, and the demapped LLRs are
//! added straight into the combining buffer, in rate-matched order so
//! repeated positions sum exactly as the stage-by-stage chain sums them.
//!
//! The LLR memory is any [`LlrBuffer`]; swapping in a
//! [`crate::FaultyLlrBuffer`] realizes the paper's fault-injection
//! methodology with zero changes to the protocol code.
//!
//! The chain is coded once, as the per-packet HARQ state machine behind
//! [`LinkSimulator::simulate_wave_with`], which runs a set of packets
//! through one work-conserving decoder lane pool;
//! [`LinkSimulator::simulate_packet_with`] is its 1-lane case, and the
//! engine's workers drive the same state machine from their shard
//! queues.
//!
//! # Parallel execution
//!
//! The simulator is split for the Monte-Carlo engine
//! ([`crate::engine::SimulationEngine`]): all codec state — CRC, turbo
//! code, the per-attempt transmission maps, channel model — lives behind
//! one shared [`Arc`], so cloning a `LinkSimulator` hands a worker thread
//! a cheap handle instead of rebuilding interleaver tables. All
//! per-packet mutable state lives in the caller-owned [`PacketScratch`],
//! whose buffers (including the
//! [`DspScratch`] with the turbo-decoder trellis, equalizer design and
//! channel-realization workspaces) are reused across packets so the
//! steady-state packet loop performs no heap allocation anywhere in the
//! chain.

use std::sync::Arc;

use rand::rngs::StdRng;

use dsp::rng::random_bits_into;
use dsp::Complex64;
use hspa_phy::channel::{
    AwgnChannel, ChannelModel, ChannelRealization, CorrelatedFadingChannel, MultipathChannel,
};
use hspa_phy::crc::Crc;
use hspa_phy::equalizer::EqScratch;
use hspa_phy::harq::{combine_into, LlrBuffer};
use hspa_phy::interleave::ChannelInterleaver;
use hspa_phy::rate_match::{RateMatcher, TransmissionMap};
use hspa_phy::turbo::{AccuracyTier, DecoderConfig, LaneFeed, TurboBatchScratch, TurboCode};

use crate::config::{ChannelKind, SystemConfig};

/// Result of simulating one transport block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketOutcome {
    /// 1-based transmission on which the CRC passed, or `None`.
    pub success_after: Option<usize>,
    /// Transmissions actually sent.
    pub transmissions_used: usize,
}

/// The immutable components of the link, shared between worker handles.
struct LinkCore {
    config: SystemConfig,
    crc: Crc,
    code: TurboCode,
    /// Rate matching and interleaving of attempt `a` (its RV under the
    /// configured combining), indexed by `a`.
    tx_maps: Vec<TransmissionMap>,
    channel: Box<dyn ChannelModel + Send + Sync>,
}

/// Per-stage wall-clock accumulators of [`LinkSimulator::simulate_wave_with`]
/// (and so of its 1-lane form, [`LinkSimulator::simulate_packet_with`]).
///
/// The counters always advance: a stage boundary costs one monotonic
/// clock read (vDSO `clock_gettime`, ~tens of ns) against stages that
/// run for tens of microseconds, and that cost is inside every
/// end-to-end perfbench metric. Traced perfbench runs report each
/// stage's share of wave time and the share no stage covers. The
/// engine flushes these into the global [`crate::telemetry`] stage
/// counters once per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Payload generation + CRC attach + turbo encode (once per packet).
    pub encode: u64,
    /// Modulation: one gather of the codeword's bits in channel order
    /// (rate matching and channel interleaving fused in) through the
    /// constellation's level table.
    pub modulate: u64,
    /// Channel realization + propagation + noise.
    pub channel: u64,
    /// MMSE design + filtering (or the flat-channel scalar path).
    pub equalize: u64,
    /// Soft demapping alone.
    pub demap: u64,
    /// HARQ combining: the de-interleaving, de-rate-matching scatter-add
    /// of the demapped LLRs into the combined codeword, plus the LLR
    /// buffer's load and store/load round trip.
    pub harq: u64,
    /// Batched turbo decoding + CRC checks (whole wave, on lane 0).
    pub decode: u64,
}

impl StageNanos {
    /// Total accounted nanoseconds.
    pub fn total(&self) -> u64 {
        self.encode
            + self.modulate
            + self.channel
            + self.equalize
            + self.demap
            + self.harq
            + self.decode
    }
}

/// The DSP-stage scratch owned by [`PacketScratch`]: the MMSE equalizer
/// workspace, the channel realization, the encode-side bit vectors and
/// the decoder batch of [`LinkSimulator::simulate_packet_with`]. Together
/// with the transmission buffers in `PacketScratch` it makes the
/// steady-state packet loop perform **zero heap allocations**.
#[derive(Debug, Clone)]
pub struct DspScratch {
    payload: Vec<u8>,
    block: Vec<u8>,
    coded: Vec<u8>,
    realization: ChannelRealization,
    /// The 1-lane decoder pool workspace of `simulate_packet_with`
    /// (packets of a wave or an engine worker share that pool's
    /// workspace and leave this one empty).
    turbo_batch: TurboBatchScratch,
    eq: EqScratch,
}

impl Default for DspScratch {
    fn default() -> Self {
        Self {
            payload: Vec::new(),
            block: Vec::new(),
            coded: Vec::new(),
            realization: ChannelRealization::empty(),
            turbo_batch: TurboBatchScratch::new(),
            eq: EqScratch::new(),
        }
    }
}

/// Reusable per-packet work buffers (one per worker thread).
///
/// Every vector is cleared and refilled in place each transmission, so
/// after the first packet the steady state performs no heap allocation
/// anywhere in the chain — encode, modulation, channel, equalization,
/// demapping, HARQ combining and turbo decoding all run out of this
/// scratch (the DSP-side buffers live in the owned [`DspScratch`]).
/// `tests/alloc_regression.rs` pins that invariant via
/// [`PacketScratch::heap_capacities`].
#[derive(Default)]
pub struct PacketScratch {
    symbols: Vec<Complex64>,
    received: Vec<Complex64>,
    equalized: Vec<Complex64>,
    llrs: Vec<f64>,
    combined: Vec<f64>,
    dsp: DspScratch,
    /// The 1-lane wave bookkeeping of `simulate_packet_with`.
    wave: WaveScratch,
    /// The HARQ state of the packet this scratch carries.
    in_flight: InFlight,
    /// Per-stage time breakdown (always advancing; see [`StageNanos`]).
    pub stage_nanos: StageNanos,
}

impl PacketScratch {
    /// Fresh scratch space; buffers grow to steady-state size on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacities of every heap buffer reachable from this scratch, in a
    /// stable order — the steady-state zero-allocation invariant is
    /// "this snapshot stops changing once the buffers are warm", which
    /// `tests/alloc_regression.rs` asserts.
    pub fn heap_capacities(&self) -> Vec<usize> {
        let mut caps = vec![
            self.symbols.capacity(),
            self.received.capacity(),
            self.equalized.capacity(),
            self.llrs.capacity(),
            self.combined.capacity(),
            self.dsp.payload.capacity(),
            self.dsp.block.capacity(),
            self.dsp.coded.capacity(),
            self.dsp.realization.taps.capacity(),
        ];
        self.dsp.turbo_batch.heap_capacities(&mut caps);
        self.dsp.eq.heap_capacities(&mut caps);
        self.wave.heap_capacities(&mut caps);
        caps
    }

    /// Resets the per-stage timing counters.
    pub fn reset_stage_nanos(&mut self) {
        self.stage_nanos = StageNanos::default();
    }
}

/// Times `$body` into the `$field` stage counter of the scratch — the
/// inlined span form for the packet hot path: two monotonic clock reads
/// and a plain `u64` add, no atomics (the engine flushes scratch
/// tallies into the global telemetry counters once per shard).
macro_rules! stage {
    ($scratch:expr, $field:ident, $body:expr) => {{
        // determinism: wallclock(stage timing telemetry; nanos feed counters, never the decoded bits)
        let __stage_start = std::time::Instant::now();
        let result = $body;
        $scratch.stage_nanos.$field += __stage_start.elapsed().as_nanos() as u64;
        result
    }};
}

/// The standing link simulator for one [`SystemConfig`].
///
/// Cloning is cheap (an [`Arc`] bump): clones share the codecs and
/// channel model, which are immutable after construction.
#[derive(Clone)]
pub struct LinkSimulator {
    core: Arc<LinkCore>,
}

impl std::fmt::Debug for LinkSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkSimulator")
            .field("config", &self.core.config)
            .field("channel", &self.core.channel.name())
            .finish()
    }
}

impl LinkSimulator {
    /// Builds the simulator, instantiating codec, channel, and one
    /// [`TransmissionMap`] per HARQ attempt.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`].
    pub fn new(config: SystemConfig) -> Self {
        config.validate();
        let code = TurboCode::new(config.turbo_k()).expect("validated turbo length");
        let rate_matcher = RateMatcher::new(config.turbo_k(), config.channel_bits_per_tx);
        let interleaver = ChannelInterleaver::new(config.channel_bits_per_tx);
        let tx_maps = (0..config.max_transmissions)
            .map(|attempt| {
                TransmissionMap::new(&rate_matcher, &interleaver, config.combining.rv(attempt))
            })
            .collect();
        let channel: Box<dyn ChannelModel + Send + Sync> = match config.channel {
            ChannelKind::Awgn => Box::new(AwgnChannel),
            ChannelKind::PedestrianA => Box::new(MultipathChannel::pedestrian_a_symbol_rate()),
            ChannelKind::VehicularA => Box::new(MultipathChannel::vehicular_a_chip_rate()),
            ChannelKind::CorrelatedSlowFading => {
                // Normalized Doppler of 0.05 per HARQ round trip: fades
                // persist across a retransmission burst.
                Box::new(CorrelatedFadingChannel::new(&[1.0], 0.05, 0xc0_44e1))
            }
        };
        Self {
            core: Arc::new(LinkCore {
                config,
                crc: Crc::gcrc24(),
                code,
                tx_maps,
                channel,
            }),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.core.config
    }

    /// Simulates one transport block at `snr_db` through `buffer`.
    ///
    /// Convenience wrapper over [`LinkSimulator::simulate_packet_with`]
    /// that allocates throwaway scratch space. Loops should hold a
    /// [`PacketScratch`] and call the `_with` variant instead.
    pub fn simulate_packet<B: LlrBuffer>(
        &self,
        snr_db: f64,
        buffer: &mut B,
        rng: &mut StdRng,
    ) -> PacketOutcome {
        let mut scratch = PacketScratch::new();
        self.simulate_packet_with(snr_db, buffer, rng, &mut scratch)
    }

    /// Simulates one transport block at `snr_db` through `buffer`, using
    /// caller-owned scratch buffers.
    ///
    /// The buffer is reset at block start (new HARQ process) and carries
    /// the combined LLRs across retransmissions — through whatever
    /// corruption the backend applies. This is a 1-lane
    /// [`LinkSimulator::simulate_wave_with`], the one packet path; the
    /// wave's decoder batch and bookkeeping live in `scratch`.
    pub fn simulate_packet_with<B: LlrBuffer>(
        &self,
        snr_db: f64,
        buffer: &mut B,
        rng: &mut StdRng,
        scratch: &mut PacketScratch,
    ) -> PacketOutcome {
        // `take` leaves empty `Vec`s behind: no allocation.
        let mut batch = std::mem::take(&mut scratch.dsp.turbo_batch);
        let mut wave = std::mem::take(&mut scratch.wave);
        let mut out = [PacketOutcome::default()];
        self.simulate_wave_with(
            snr_db,
            std::slice::from_mut(buffer),
            std::slice::from_mut(rng),
            std::slice::from_mut(scratch),
            &mut batch,
            &mut wave,
            &mut out,
        );
        scratch.dsp.turbo_batch = batch;
        scratch.wave = wave;
        out[0]
    }

    /// Simulates a set of `N` transport blocks through one decoder lane
    /// pool: up to [`hspa_phy::turbo::POOL_LANES`] packets are in flight
    /// at once, each running its own HARQ state machine (encode, then per
    /// attempt the front end — rate match, channel, equalize, demap, HARQ
    /// combine — a decode job, and the CRC verdict that ends the packet or
    /// queues its next attempt). Whenever a lane finishes, its slot takes the packet's
    /// next attempt or the next packet's first one at the next decoder
    /// iteration boundary ([`TurboCode::decode_pool`]).
    ///
    /// Packet `l` consumes exactly the RNG/buffer operation sequence of a
    /// 1-lane run over `buffers[l]` and `rngs[l]` — that is, of
    /// `simulate_packet_with(snr_db, &mut buffers[l], &mut rngs[l], ..)` —
    /// and, because pooled decoding is bit-identical lane for lane,
    /// produces exactly the same [`PacketOutcome`] whatever `N` is. The
    /// engine relies on this to keep campaign results byte-identical
    /// across batch widths.
    ///
    /// Front-end stages accumulate into each packet's [`StageNanos`];
    /// decoding and the CRC verdicts serve the whole pool and are
    /// recorded against packet 0's.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree or a buffer has the wrong
    /// capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_wave_with<B: LlrBuffer>(
        &self,
        snr_db: f64,
        buffers: &mut [B],
        rngs: &mut [StdRng],
        scratches: &mut [PacketScratch],
        batch: &mut TurboBatchScratch,
        wave: &mut WaveScratch,
        out: &mut [PacketOutcome],
    ) {
        let lanes = buffers.len();
        assert_eq!(rngs.len(), lanes, "one RNG per lane");
        assert_eq!(scratches.len(), lanes, "one scratch per lane");
        assert_eq!(out.len(), lanes, "one outcome per lane");
        let mut queue = WaveQueue {
            snr_db,
            next: 0,
            buffers,
            rngs,
            scratches,
            out,
        };
        self.run_harq(&mut queue, lanes, batch, wave);
    }

    /// Runs the HARQ state machines of every packet `queue` starts
    /// through one lane pool of `lanes` slots (at most
    /// [`hspa_phy::turbo::POOL_LANES`]), until the queue is empty and
    /// every packet has its outcome.
    pub(crate) fn run_harq<Q: PacketQueue>(
        &self,
        queue: &mut Q,
        lanes: usize,
        batch: &mut TurboBatchScratch,
        wave: &mut WaveScratch,
    ) {
        let core = &*self.core;
        let cfg = &core.config;
        wave.retx.clear();
        let mut feed = HarqFeed {
            core,
            queue,
            retx: &mut wave.retx,
            // determinism: wallclock(stage timing telemetry; nanos feed counters, never the decoded bits)
            mark: std::time::Instant::now(),
        };
        let dcfg = DecoderConfig::new(cfg.decoder_iterations, cfg.accuracy_tier);
        match cfg.accuracy_tier {
            AccuracyTier::EarlyStop => {
                let stop = |_tag: usize, bits: &[u8]| core.crc.check(bits);
                core.code
                    .decode_pool(dcfg, batch, lanes, &mut feed, Some(&stop));
            }
            AccuracyTier::Exact | AccuracyTier::Fast32 => {
                core.code.decode_pool(dcfg, batch, lanes, &mut feed, None);
            }
        }
        let tail = feed.mark.elapsed().as_nanos() as u64;
        feed.queue.add_decode_nanos(tail);
        debug_assert!(wave.retx.is_empty(), "every retransmission was admitted");
    }
}

impl LinkCore {
    /// Starts a new transport block in `scratch`: payload, CRC attach and
    /// turbo encode, a fresh HARQ process on `buffer`
    /// (= `HarqProcess::start_block`) and the channel's block phase.
    fn begin_block<B: LlrBuffer>(
        &self,
        snr_db: f64,
        buffer: &mut B,
        rng: &mut StdRng,
        scratch: &mut PacketScratch,
    ) {
        stage!(scratch, encode, {
            random_bits_into(rng, self.config.payload_bits, &mut scratch.dsp.payload);
            self.crc
                .attach_into(&scratch.dsp.payload, &mut scratch.dsp.block);
            self.code
                .encode_into(&scratch.dsp.block, &mut scratch.dsp.coded);
        });
        buffer.reset();
        scratch.in_flight = InFlight {
            snr_db,
            block_phase: self.channel.block_phase(rng),
            attempt: 0,
        };
    }

    /// The per-attempt front end of the packet in `scratch`: modulate
    /// (through the attempt's [`TransmissionMap`]), channel, equalize,
    /// demap, then HARQ-combine through `buffer` into `scratch.combined`
    /// — the codeword its decode job reads.
    fn front_end<B: LlrBuffer>(
        &self,
        buffer: &mut B,
        rng: &mut StdRng,
        scratch: &mut PacketScratch,
    ) {
        let cfg = &self.config;
        let InFlight {
            snr_db,
            block_phase,
            attempt,
        } = scratch.in_flight;
        let tx_map = &self.tx_maps[attempt];
        stage!(scratch, modulate, {
            tx_map.modulate_into(&scratch.dsp.coded, cfg.modulation, &mut scratch.symbols);
        });
        stage!(scratch, channel, {
            self.channel.realize_attempt_into(
                snr_db,
                block_phase,
                attempt,
                rng,
                &mut scratch.dsp.realization,
            );
            scratch
                .dsp
                .realization
                .apply_into(&scratch.symbols, rng, &mut scratch.received);
        });
        let eff_noise: f64 = stage!(scratch, equalize, {
            if scratch.dsp.realization.taps.len() == 1 {
                let h = scratch.dsp.realization.taps[0];
                let g = h.norm_sqr();
                let inv = h.conj() / (g.max(1e-12));
                scratch.equalized.clear();
                scratch
                    .equalized
                    .extend(scratch.received.iter().map(|&y| y * inv));
                scratch.dsp.realization.noise_var / g.max(1e-12)
            } else {
                scratch
                    .dsp
                    .eq
                    .design(&scratch.dsp.realization, cfg.equalizer_taps)
                    .expect("MMSE design is PD for positive noise");
                scratch
                    .dsp
                    .eq
                    .equalize_into(&scratch.received, &mut scratch.equalized);
                scratch.dsp.eq.noise_var()
            }
        });
        stage!(scratch, demap, {
            cfg.modulation.demodulate_soft_into(
                &scratch.equalized,
                eff_noise.max(1e-9),
                &mut scratch.llrs,
            );
        });
        stage!(scratch, harq, {
            combine_into(buffer, attempt, &mut scratch.combined, |sum| {
                tx_map.scatter_add(&scratch.llrs, sum)
            });
        });
    }
}

/// The HARQ state of the packet a [`PacketScratch`] is carrying: its
/// operating SNR, the channel's block phase, and the attempt it is on.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    snr_db: f64,
    block_phase: f64,
    attempt: usize,
}

/// Where [`LinkSimulator::run_harq`] takes its packets from: a fixed
/// wave ([`LinkSimulator::simulate_wave_with`]) or an engine worker's
/// shard queue. A packet lives in a *context* — its buffer, RNG and
/// [`PacketScratch`] — from [`PacketQueue::start`] to
/// [`PacketQueue::finish`]; at most one pool's worth of contexts are in
/// flight at once.
pub(crate) trait PacketQueue {
    /// The LLR storage of a context.
    type Buffer: LlrBuffer;

    /// Starts the next waiting packet in a free context, with its buffer
    /// re-anchored ([`LlrBuffer::begin_packet`]) and its RNG seeded, and
    /// returns that context and the packet's SNR; `None` when no packet
    /// is waiting.
    fn start(&mut self) -> Option<(usize, f64)>;

    /// The buffer, RNG and scratch of in-flight context `ctx`.
    fn parts(&mut self, ctx: usize) -> (&mut Self::Buffer, &mut StdRng, &mut PacketScratch);

    /// The scratch of in-flight context `ctx`.
    fn scratch(&self, ctx: usize) -> &PacketScratch;

    /// The packet in `ctx` is done; the context is free again.
    fn finish(&mut self, ctx: usize, outcome: PacketOutcome);

    /// Decoder wall time (kernel, repacking, CRC verdicts) to account.
    fn add_decode_nanos(&mut self, nanos: u64);

    /// A lockstep decoder pass is about to run with `live` lanes.
    fn pass(&mut self, _live: usize) {}
}

/// The per-packet HARQ state machine as a [`LaneFeed`]: admission runs a
/// packet's next front end (retransmissions first, so at most one pool's
/// worth of packets is ever in flight), and each finished decode gets its
/// CRC verdict.
struct HarqFeed<'a, Q: PacketQueue> {
    core: &'a LinkCore,
    queue: &'a mut Q,
    /// Contexts whose next attempt waits for a slot.
    retx: &'a mut Vec<usize>,
    /// End of the last admission: the time from here to the next one is
    /// decode time.
    mark: std::time::Instant,
}

impl<Q: PacketQueue> LaneFeed for HarqFeed<'_, Q> {
    fn admit(&mut self) -> Option<usize> {
        self.queue
            .add_decode_nanos(self.mark.elapsed().as_nanos() as u64);
        let core = self.core;
        let admitted = match self.retx.pop() {
            Some(ctx) => Some(ctx),
            None => self.queue.start().map(|(ctx, snr_db)| {
                let (buffer, rng, scratch) = self.queue.parts(ctx);
                core.begin_block(snr_db, buffer, rng, scratch);
                ctx
            }),
        };
        if let Some(ctx) = admitted {
            let (buffer, rng, scratch) = self.queue.parts(ctx);
            core.front_end(buffer, rng, scratch);
        }
        // determinism: wallclock(stage timing telemetry; nanos feed counters, never the decoded bits)
        self.mark = std::time::Instant::now();
        admitted
    }

    fn codeword(&self, tag: usize) -> &[f64] {
        &self.queue.scratch(tag).combined
    }

    fn finish(&mut self, tag: usize, bits: &[u8], _llrs: &[f64], _iterations: usize) {
        let scratch = self.queue.parts(tag).2;
        let used = scratch.in_flight.attempt + 1;
        let delivered = self.core.crc.check(bits);
        if !delivered && used < self.core.config.max_transmissions {
            scratch.in_flight.attempt = used;
            self.retx.push(tag);
        } else {
            self.queue.finish(
                tag,
                PacketOutcome {
                    success_after: delivered.then_some(used),
                    transmissions_used: used,
                },
            );
        }
    }

    fn pass(&mut self, live: usize) {
        self.queue.pass(live);
    }
}

/// The fixed packet set of [`LinkSimulator::simulate_wave_with`] as a
/// [`PacketQueue`]: context `l` is lane `l`, started in order.
struct WaveQueue<'a, B> {
    snr_db: f64,
    next: usize,
    buffers: &'a mut [B],
    rngs: &'a mut [StdRng],
    scratches: &'a mut [PacketScratch],
    out: &'a mut [PacketOutcome],
}

impl<B: LlrBuffer> PacketQueue for WaveQueue<'_, B> {
    type Buffer = B;

    fn start(&mut self) -> Option<(usize, f64)> {
        let lane = self.next;
        (lane < self.buffers.len()).then(|| {
            self.next += 1;
            (lane, self.snr_db)
        })
    }

    fn parts(&mut self, ctx: usize) -> (&mut B, &mut StdRng, &mut PacketScratch) {
        (
            &mut self.buffers[ctx],
            &mut self.rngs[ctx],
            &mut self.scratches[ctx],
        )
    }

    fn scratch(&self, ctx: usize) -> &PacketScratch {
        &self.scratches[ctx]
    }

    fn finish(&mut self, ctx: usize, outcome: PacketOutcome) {
        self.out[ctx] = outcome;
    }

    fn add_decode_nanos(&mut self, nanos: u64) {
        self.scratches[0].stage_nanos.decode += nanos;
    }
}

/// Reusable bookkeeping of [`LinkSimulator::simulate_wave_with`] and the
/// engine's lane pools: the queue of packets whose next HARQ attempt
/// waits for a decoder slot. Steady state is allocation-free, pinned by
/// [`WaveScratch::heap_capacities`].
#[derive(Debug, Clone, Default)]
pub struct WaveScratch {
    retx: Vec<usize>,
}

impl WaveScratch {
    /// Fresh scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the capacity of every owned heap buffer to `out`.
    pub fn heap_capacities(&self, out: &mut Vec<usize>) {
        out.push(self.retx.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::QuantizedLlrBuffer;
    use dsp::rng::seeded;
    use hspa_phy::harq::PerfectLlrBuffer;

    #[test]
    fn high_snr_awgn_decodes_first_try() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(1);
        for _ in 0..5 {
            let out = sim.simulate_packet(25.0, &mut buffer, &mut rng);
            assert_eq!(out.success_after, Some(1));
        }
    }

    #[test]
    fn very_low_snr_fails() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(2);
        let mut failures = 0;
        for _ in 0..5 {
            let out = sim.simulate_packet(-10.0, &mut buffer, &mut rng);
            if out.success_after.is_none() {
                failures += 1;
            }
        }
        assert!(failures >= 4, "expected near-total failure at -10 dB");
    }

    #[test]
    fn harq_rescues_marginal_snr() {
        // Pick an SNR where single transmissions often fail but the
        // retransmission budget saves most packets.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(3);
        let mut needed_retx = 0;
        let mut delivered = 0;
        for _ in 0..12 {
            let out = sim.simulate_packet(2.0, &mut buffer, &mut rng);
            if let Some(t) = out.success_after {
                delivered += 1;
                if t > 1 {
                    needed_retx += 1;
                }
            }
        }
        assert!(
            delivered >= 9,
            "HARQ should deliver most packets, got {delivered}"
        );
        assert!(
            needed_retx >= 1,
            "expected at least one packet needing HARQ"
        );
    }

    #[test]
    fn quantized_buffer_matches_perfect_at_high_snr() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let mut qbuf = QuantizedLlrBuffer::new(cfg.coded_len(), cfg.quantizer());
        let mut rng = seeded(4);
        for _ in 0..5 {
            let out = sim.simulate_packet(25.0, &mut qbuf, &mut rng);
            assert_eq!(
                out.success_after,
                Some(1),
                "10-bit quantization must be transparent"
            );
        }
    }

    #[test]
    fn fading_channel_runs() {
        let mut cfg = SystemConfig::fast_test();
        cfg.channel = crate::config::ChannelKind::PedestrianA;
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(5);
        let mut delivered = 0;
        for _ in 0..8 {
            if sim
                .simulate_packet(30.0, &mut buffer, &mut rng)
                .success_after
                .is_some()
            {
                delivered += 1;
            }
        }
        assert!(delivered >= 6, "30 dB fading should deliver most packets");
    }

    #[test]
    fn dispersive_channel_runs() {
        let mut cfg = SystemConfig::fast_test();
        cfg.channel = crate::config::ChannelKind::VehicularA;
        cfg.equalizer_taps = 21;
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(6);
        let out = sim.simulate_packet(30.0, &mut buffer, &mut rng);
        assert!(out.transmissions_used >= 1);
    }

    #[test]
    fn correlated_fading_channel_runs() {
        let mut cfg = SystemConfig::fast_test();
        cfg.channel = crate::config::ChannelKind::CorrelatedSlowFading;
        let sim = LinkSimulator::new(cfg);
        let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
        let mut rng = seeded(31);
        let mut delivered = 0;
        for _ in 0..8 {
            if sim
                .simulate_packet(30.0, &mut buffer, &mut rng)
                .success_after
                .is_some()
            {
                delivered += 1;
            }
        }
        assert!(
            delivered >= 5,
            "30 dB slow fading should deliver most packets"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let run = |seed| {
            let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
            let mut rng = seeded(seed);
            (0..4)
                .map(|_| {
                    sim.simulate_packet(4.0, &mut buffer, &mut rng)
                        .success_after
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch reused across packets must not change results
        // versus a fresh scratch per packet (stale-state check).
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let reused: Vec<_> = {
            let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
            let mut rng = seeded(8);
            let mut scratch = PacketScratch::new();
            (0..4)
                .map(|_| {
                    sim.simulate_packet_with(4.0, &mut buffer, &mut rng, &mut scratch)
                        .success_after
                })
                .collect()
        };
        let fresh: Vec<_> = {
            let mut buffer = PerfectLlrBuffer::new(cfg.coded_len());
            let mut rng = seeded(8);
            (0..4)
                .map(|_| {
                    sim.simulate_packet(4.0, &mut buffer, &mut rng)
                        .success_after
                })
                .collect()
        };
        assert_eq!(reused, fresh);
    }

    #[test]
    fn clones_share_the_core() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let clone = sim.clone();
        assert!(
            Arc::ptr_eq(&sim.core, &clone.core),
            "clone must be a handle"
        );
    }
}
