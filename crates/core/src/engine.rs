//! Parallel, deterministic Monte-Carlo execution engine.
//!
//! Every figure of the paper is thousands of independent packet
//! simulations spread over a grid of (SNR × storage configuration ×
//! defect density) operating points — an embarrassingly parallel
//! workload. [`SimulationEngine`] shards that work across OS threads
//! while keeping results **bit-identical for any thread count**,
//! including the serial path used by [`crate::montecarlo::run_point`].
//!
//! # Determinism model
//!
//! Randomness is organized as a seed tree rooted at a caller-supplied
//! master seed (see [`dsp::rng::derive_seed_path`]):
//!
//! ```text
//! master ─┬─ point 0 ─┬─ 0xfa        → fault map ("one die per run")
//!         │           └─ 1 ─┬─ pkt 0 → noise/data stream of packet 0
//!         │                 ├─ pkt 1 → noise/data stream of packet 1
//!         │                 └─ ...
//!         └─ point 1 ─ ...
//! ```
//!
//! A packet's stream depends only on its position in the tree — never on
//! the thread that simulates it — and [`HarqStats`] aggregation is a sum
//! of counters, so any shard-to-worker assignment yields the same
//! statistics. Buffers with internal randomness are re-anchored per
//! packet through [`LlrBuffer::begin_packet`].
//!
//! # Work decomposition
//!
//! Every entry point ([`SimulationEngine::run_point`], `run_batch`,
//! `run_sweep`, `run_grid`, `run_point_resumed`) only lays out
//! [`ChunkSpec`]s — the grid and sweep seed-tree layouts live in
//! [`ChunkSpec::grid`] and [`ChunkSpec::sweep`] — and hands them to the
//! one executor, [`SimulationEngine::run_chunks`]. It flattens the chunks
//! into shards of [`SimulationEngine::shard_packets`] packets and lets
//! workers pull shards from a shared atomic counter (work stealing), so a
//! single expensive point — low SNR, many retransmissions — cannot
//! serialize the run. Each worker keeps one storage buffer set per
//! buffer group (chunks with the same [`StorageConfig`] and die seed:
//! the *same die*, per the paper's worst-case methodology) plus one
//! [`PacketScratch`] per lane, runs each shard as lockstep waves of
//! [`SimulationEngine::batch_lanes`] packets, and merges its partial
//! statistics locally; the main thread folds worker partials in task
//! order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsp::rng::{derive_seed, packet_seed, STREAM_FAULT_MAP};
use hspa_phy::harq::{HarqStats, LlrBuffer};

use hspa_phy::turbo::TurboBatchScratch;

use crate::config::SystemConfig;
use crate::montecarlo::{build_buffer, StorageConfig};
use crate::simulator::{LinkSimulator, PacketOutcome, PacketScratch, WaveScratch};
use crate::telemetry::{self, Counter, Histogram};

/// One Monte-Carlo operating point for [`SimulationEngine::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// LLR-storage backend under test.
    pub storage: StorageConfig,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Packets to simulate.
    pub n_packets: usize,
    /// Seed of this point's stream subtree.
    pub seed: u64,
}

/// A contiguous packet range of one operating point — the unit of work
/// every engine entry point reduces to, and of resumable campaigns
/// ([`crate::campaign`]).
///
/// Packet `p` of a chunk draws the *same* RNG stream
/// (`packet_seed(seed, p)`) it would draw in a one-shot run of the whole
/// point, so any partition of `0..n` into chunks merges
/// ([`HarqStats::merge`]) to statistics bit-identical to a single
/// [`SimulationEngine::run_point`] over `n` packets.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSpec {
    /// LLR-storage backend under test.
    pub storage: StorageConfig,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Absolute index of the first packet in the point's stream.
    pub first_packet: usize,
    /// Packets to simulate (`first_packet..first_packet + n_packets`).
    pub n_packets: usize,
    /// Seed of this point's stream subtree (shared by all its chunks).
    pub seed: u64,
    /// Explicit die seed; `None` derives the point's own
    /// (`derive_seed(seed, STREAM_FAULT_MAP)`). Grids use an explicit
    /// seed so every chunk of a row keeps sharing one die.
    pub fault_seed: Option<u64>,
}

impl From<&PointSpec> for ChunkSpec {
    /// The whole point as one chunk, on the point's own die.
    fn from(spec: &PointSpec) -> Self {
        Self {
            storage: spec.storage.clone(),
            snr_db: spec.snr_db,
            first_packet: 0,
            n_packets: spec.n_packets,
            seed: spec.seed,
            fault_seed: None,
        }
    }
}

impl ChunkSpec {
    /// The seed-tree layout of an SNR sweep: point `i` roots its own
    /// subtree (and so draws its own die) at `derive_seed(seed, i)`.
    pub fn sweep(
        storage: &StorageConfig,
        snrs_db: &[f64],
        n_packets: usize,
        seed: u64,
    ) -> Vec<ChunkSpec> {
        snrs_db
            .iter()
            .enumerate()
            .map(|(i, &snr_db)| ChunkSpec {
                storage: storage.clone(),
                snr_db,
                first_packet: 0,
                n_packets,
                seed: derive_seed(seed, i as u64),
                fault_seed: None,
            })
            .collect()
    }

    /// The seed-tree layout of a (storage × SNR) grid, row-major. Row
    /// `r` takes its subtree from `derive_seed(master_seed, r)`; cell
    /// `(r, c)` streams from `derive_seed(row, 0x100 + c)`, and every
    /// cell of a row shares **one die**, `derive_seed(row,
    /// STREAM_FAULT_MAP)` — a physical device swept over operating SNRs,
    /// the paper's worst-case single-map methodology.
    pub fn grid(
        storages: &[StorageConfig],
        snrs_db: &[f64],
        n_packets: usize,
        master_seed: u64,
    ) -> Vec<ChunkSpec> {
        let mut chunks = Vec::with_capacity(storages.len() * snrs_db.len());
        for (r, storage) in storages.iter().enumerate() {
            let row_seed = derive_seed(master_seed, r as u64);
            let die_seed = derive_seed(row_seed, STREAM_FAULT_MAP);
            for (c, &snr_db) in snrs_db.iter().enumerate() {
                chunks.push(ChunkSpec {
                    storage: storage.clone(),
                    snr_db,
                    first_packet: 0,
                    n_packets,
                    seed: derive_seed(row_seed, 0x100 + c as u64),
                    fault_seed: Some(die_seed),
                });
            }
        }
        chunks
    }
}

/// A full (storage × SNR) evaluation produced by
/// [`SimulationEngine::run_grid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    /// SNR grid (dB), shared by every row.
    pub snr_db: Vec<f64>,
    /// `stats[row][col]` = statistics of storage `row` at SNR `col`.
    pub stats: Vec<Vec<HarqStats>>,
}

impl GridResult {
    /// Reshapes the row-major statistics of a [`ChunkSpec::grid`] run
    /// into `rows` rows over `snrs_db`.
    pub fn from_flat(snrs_db: &[f64], rows: usize, flat: Vec<HarqStats>) -> Self {
        let mut it = flat.into_iter();
        GridResult {
            snr_db: snrs_db.to_vec(),
            stats: (0..rows)
                .map(|_| it.by_ref().take(snrs_db.len()).collect())
                .collect(),
        }
    }
}

/// Sharded Monte-Carlo executor over a [`LinkSimulator`].
///
/// Construction is cheap; the engine owns no threads between calls
/// (scoped workers are spawned per run).
#[derive(Debug, Clone)]
pub struct SimulationEngine {
    threads: usize,
    shard_packets: usize,
    batch_lanes: usize,
}

impl Default for SimulationEngine {
    fn default() -> Self {
        Self::auto()
    }
}

impl SimulationEngine {
    /// Default shard granularity: small enough to balance uneven points,
    /// large enough to amortize per-shard buffer setup — and exactly one
    /// default decode wave, since a wave never spans shards.
    const DEFAULT_SHARD: usize = 16;

    /// Default decode batch width: two full lockstep groups of the
    /// widest SIMD kernel. Waves wider than one group keep HARQ
    /// retransmission attempts (whose surviving lanes thin out) filling
    /// full-width groups, and lane draining absorbs the per-group
    /// iteration spread; sweeping widths 8..64 on the benchmark grid put
    /// 16 lanes ahead of 32 by ~5% (smaller staging footprint, same
    /// group utilization). Results are bit-identical at every width
    /// (1 included), so batching is on by default.
    pub const DEFAULT_BATCH: usize = 16;

    /// Engine using every available CPU.
    pub fn auto() -> Self {
        Self::with_threads(0)
    }

    /// Strictly serial engine (reference path; no worker threads).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Engine with an explicit worker count; `0` means one worker per
    /// available CPU.
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Self {
            threads,
            shard_packets: Self::DEFAULT_SHARD,
            batch_lanes: Self::DEFAULT_BATCH,
        }
    }

    /// Overrides the packets-per-shard granularity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shard_packets(mut self, n: usize) -> Self {
        assert!(n > 0, "shard size must be positive");
        self.shard_packets = n;
        self
    }

    /// Overrides the decode batch width (builder style). `1` runs 1-lane
    /// waves, packet by packet; any width produces bit-identical
    /// statistics, so this is a pure throughput knob and is deliberately
    /// *not* part of campaign point fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn batch_lanes(mut self, n: usize) -> Self {
        assert!(n > 0, "batch width must be positive");
        self.batch_lanes = n;
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The decode batch width in force.
    pub fn batch(&self) -> usize {
        self.batch_lanes
    }

    /// Evaluates one operating point.
    pub fn run_point(
        &self,
        sim: &LinkSimulator,
        storage: &StorageConfig,
        snr_db: f64,
        n_packets: usize,
        seed: u64,
    ) -> HarqStats {
        self.run_point_resumed(sim, storage, snr_db, 0, n_packets, seed)
    }

    /// Evaluates a later slice of an operating point's packet stream:
    /// packets `first_packet..first_packet + n_packets` of the stream
    /// rooted at `seed`.
    ///
    /// This is the resumable entry behind [`crate::campaign`]: a point
    /// simulated as any sequence of chunks (`run_point_resumed` calls
    /// whose ranges partition `0..n`) merges to statistics bit-identical
    /// to one [`SimulationEngine::run_point`] over `n` packets, because
    /// packet seeds depend only on the absolute packet index.
    pub fn run_point_resumed(
        &self,
        sim: &LinkSimulator,
        storage: &StorageConfig,
        snr_db: f64,
        first_packet: usize,
        n_packets: usize,
        seed: u64,
    ) -> HarqStats {
        self.run_chunks(
            sim,
            &[ChunkSpec {
                storage: storage.clone(),
                snr_db,
                first_packet,
                n_packets,
                seed,
                fault_seed: None,
            }],
        )
        .pop()
        .expect("one chunk in, one stats out")
    }

    /// Evaluates one storage configuration over an SNR sweep laid out by
    /// [`ChunkSpec::sweep`] (point `i` draws its own die from
    /// `derive_seed(seed, i)`).
    pub fn run_sweep(
        &self,
        sim: &LinkSimulator,
        storage: &StorageConfig,
        snrs_db: &[f64],
        n_packets: usize,
        seed: u64,
    ) -> Vec<HarqStats> {
        self.run_chunks(sim, &ChunkSpec::sweep(storage, snrs_db, n_packets, seed))
    }

    /// Evaluates a full (storage × SNR) matrix laid out by
    /// [`ChunkSpec::grid`] in one sharded run. Every cell of a row shares
    /// one die, so the row is one buffer group: each worker builds the
    /// die once per row it touches, not once per grid cell.
    pub fn run_grid(
        &self,
        sim: &LinkSimulator,
        storages: &[StorageConfig],
        snrs_db: &[f64],
        n_packets: usize,
        master_seed: u64,
    ) -> GridResult {
        let chunks = ChunkSpec::grid(storages, snrs_db, n_packets, master_seed);
        GridResult::from_flat(snrs_db, storages.len(), self.run_chunks(sim, &chunks))
    }

    /// Evaluates an arbitrary batch of operating points. Each point draws
    /// its die from `derive_seed(point.seed, STREAM_FAULT_MAP)`.
    pub fn run_batch(&self, sim: &LinkSimulator, specs: &[PointSpec]) -> Vec<HarqStats> {
        let chunks: Vec<ChunkSpec> = specs.iter().map(ChunkSpec::from).collect();
        self.run_chunks(sim, &chunks)
    }

    /// Evaluates a batch of packet-range chunks (possibly of different
    /// operating points) in one sharded run — the executor behind every
    /// other entry point.
    ///
    /// Chunks with the same storage and the same resolved die seed build
    /// identical buffers, so they share a buffer group: a grid row (one
    /// die swept over SNRs) builds its fault map once per worker.
    ///
    /// Chunk scheduling is composition-invariant: a chunk's statistics
    /// depend only on `(seed, fault seed, snr, first_packet..+n)`, never
    /// on which other chunks share the batch, which worker runs it, or
    /// which process (host) submits it. This is the property multi-host
    /// campaign sharding ([`crate::campaign::shard`]) is built on — any
    /// partition of a grid's chunks across engines merges to the
    /// single-engine result bit for bit (`tests/shard.rs` proves it for
    /// random 1–4-way partitions).
    pub fn run_chunks(&self, sim: &LinkSimulator, chunks: &[ChunkSpec]) -> Vec<HarqStats> {
        let cfg = *sim.config();
        let dies: Vec<u64> = chunks
            .iter()
            .map(|c| {
                c.fault_seed
                    .unwrap_or_else(|| derive_seed(c.seed, STREAM_FAULT_MAP))
            })
            .collect();
        let groups: Vec<usize> = (0..chunks.len())
            .map(|i| {
                (0..i)
                    .find(|&j| dies[j] == dies[i] && chunks[j].storage == chunks[i].storage)
                    .unwrap_or(i)
            })
            .collect();
        // Flatten every chunk into packet shards over absolute indices.
        let mut tasks: Vec<Shard> = Vec::new();
        for (chunk, spec) in chunks.iter().enumerate() {
            let end = spec.first_packet + spec.n_packets;
            let mut start = spec.first_packet;
            while start < end {
                let count = self.shard_packets.min(end - start);
                tasks.push(Shard {
                    chunk,
                    start,
                    count,
                });
                start += count;
            }
        }

        let workers = self.threads.min(tasks.len()).max(1);
        // One worker pulls shards off the shared counter until none are
        // left; a single worker runs it inline, more run it in threads.
        let next = AtomicUsize::new(0);
        let run_worker = || {
            let mut worker =
                Worker::new(&cfg, sim.clone(), chunks, &dies, &groups, self.batch_lanes);
            let mut out = Vec::new();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(t) else { break };
                out.push((task.chunk, worker.run_shard(task)));
            }
            out
        };
        let mut partials: Vec<Vec<(usize, HarqStats)>> = if workers == 1 {
            vec![run_worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };

        // Fold worker partials; order is irrelevant for the result
        // because HarqStats::merge is a sum of counters.
        let mut merged: Vec<HarqStats> = chunks
            .iter()
            .map(|_| HarqStats::new(cfg.max_transmissions, cfg.payload_bits))
            .collect();
        for (chunk, stats) in partials.drain(..).flatten() {
            merged[chunk].merge(&stats);
        }
        merged
    }
}

/// One contiguous range of packets of one chunk; `start` is an absolute
/// index into the point's packet stream (non-zero for resumed chunks).
struct Shard {
    chunk: usize,
    start: usize,
    count: usize,
}

/// Per-thread execution state: a simulator handle, one buffer *set* per
/// buffer group touched (up to `batch_lanes` interchangeable buffers,
/// each built from the group's storage and die seed — the same die), and
/// the reusable per-lane and per-wave scratch of the wave path.
struct Worker<'a> {
    cfg: &'a SystemConfig,
    sim: LinkSimulator,
    chunks: &'a [ChunkSpec],
    /// Resolved die seed per chunk.
    dies: &'a [u64],
    /// Buffer-sharing group per chunk.
    groups: &'a [usize],
    // determinism: unordered-ok(keyed entry access only; never iterated)
    buffers: HashMap<usize, Vec<Box<dyn LlrBuffer + Send>>>,
    batch_lanes: usize,
    lane_scratch: Vec<PacketScratch>,
    rngs: Vec<StdRng>,
    outcomes: Vec<PacketOutcome>,
    batch: TurboBatchScratch,
    wave: WaveScratch,
}

impl<'a> Worker<'a> {
    fn new(
        cfg: &'a SystemConfig,
        sim: LinkSimulator,
        chunks: &'a [ChunkSpec],
        dies: &'a [u64],
        groups: &'a [usize],
        batch_lanes: usize,
    ) -> Self {
        Self {
            cfg,
            sim,
            chunks,
            dies,
            groups,
            // determinism: unordered-ok(keyed entry access only; never iterated)
            buffers: HashMap::new(),
            batch_lanes,
            lane_scratch: (0..batch_lanes).map(|_| PacketScratch::new()).collect(),
            rngs: Vec::new(),
            outcomes: Vec::new(),
            batch: TurboBatchScratch::new(),
            wave: WaveScratch::new(),
        }
    }

    /// Runs one shard as waves: consecutive packets of the shard fill up
    /// to `batch_lanes` lanes, each against its own buffer/RNG, and
    /// decode together. Lane `l` of a wave draws the stream of absolute
    /// packet `p + l` — its seed-tree position, whatever the width — and
    /// batched decoding is bit-identical per lane, so the recorded
    /// statistics are the same at every width (1 included). Lanes of a
    /// group's buffer set are interchangeable: [`build_buffer`] is
    /// deterministic in `(storage, die seed)` — the same die — and all
    /// per-packet buffer randomness is re-anchored through
    /// [`LlrBuffer::begin_packet`] (the property the engine's
    /// thread-invariance already rests on), so N copies behave exactly
    /// like one buffer reused serially.
    fn run_shard(&mut self, shard: &Shard) -> HarqStats {
        let chunks = self.chunks;
        let spec = &chunks[shard.chunk];
        let die = self.dies[shard.chunk];
        let mut stats = HarqStats::new(self.cfg.max_transmissions, self.cfg.payload_bits);
        let end = shard.start + shard.count;
        let mut p = shard.start;
        while p < end {
            let width = self.batch_lanes.min(end - p);
            let set = self.buffers.entry(self.groups[shard.chunk]).or_default();
            while set.len() < width {
                set.push(build_buffer(self.cfg, &spec.storage, die));
            }
            self.rngs.clear();
            for (l, buf) in set.iter_mut().take(width).enumerate() {
                let pseed = packet_seed(spec.seed, (p + l) as u64);
                buf.begin_packet(pseed);
                self.rngs.push(StdRng::seed_from_u64(pseed));
            }
            self.outcomes.clear();
            self.outcomes.resize(
                width,
                PacketOutcome {
                    success_after: None,
                    transmissions_used: 0,
                },
            );
            self.sim.simulate_wave_with(
                spec.snr_db,
                &mut set[..width],
                &mut self.rngs[..width],
                &mut self.lane_scratch[..width],
                &mut self.batch,
                &mut self.wave,
                &mut self.outcomes[..width],
            );
            telemetry::counter_add(Counter::WavesDecoded, 1);
            telemetry::hist_record(Histogram::WaveLaneOccupancy, width as u64);
            for outcome in &self.outcomes {
                stats.record(outcome.success_after, self.cfg.max_transmissions);
            }
            p += width;
        }
        telemetry::counter_add(Counter::PacketsSimulated, shard.count as u64);
        for scratch in &mut self.lane_scratch {
            flush_stage_nanos(scratch);
        }
        stats
    }
}

/// Flushes a scratch's per-stage timing tallies into the global
/// telemetry counters and resets them — once per shard, so the packet
/// hot path itself touches no atomics.
fn flush_stage_nanos(scratch: &mut PacketScratch) {
    let n = scratch.stage_nanos;
    telemetry::counter_add(Counter::StageEncodeNanos, n.encode);
    telemetry::counter_add(Counter::StageModulateNanos, n.modulate);
    telemetry::counter_add(Counter::StageChannelNanos, n.channel);
    telemetry::counter_add(Counter::StageEqualizeNanos, n.equalize);
    telemetry::counter_add(Counter::StageDemapNanos, n.demap);
    telemetry::counter_add(Counter::StageHarqNanos, n.harq);
    telemetry::counter_add(Counter::StageDecodeNanos, n.decode);
    scratch.reset_stage_nanos();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::DefectSpec;
    use silicon::fault_map::FaultKind;

    fn engine_stats(threads: usize, shard: usize) -> Vec<HarqStats> {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let engine = SimulationEngine::with_threads(threads).shard_packets(shard);
        engine.run_batch(
            &sim,
            &[
                PointSpec {
                    storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
                    snr_db: 10.0,
                    n_packets: 10,
                    seed: 42,
                },
                PointSpec {
                    storage: StorageConfig::Quantized,
                    snr_db: 18.0,
                    n_packets: 7,
                    seed: 43,
                },
                PointSpec {
                    storage: StorageConfig::Transient { p_upset: 0.01 },
                    snr_db: 14.0,
                    n_packets: 9,
                    seed: 5,
                },
            ],
        )
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = engine_stats(1, 8);
        for (threads, shard) in [(2, 8), (4, 3), (8, 1)] {
            assert_eq!(
                serial,
                engine_stats(threads, shard),
                "threads={threads} shard={shard} must match serial"
            );
        }
    }

    #[test]
    fn packet_counts_are_exact() {
        let stats = engine_stats(3, 4);
        assert_eq!(stats[0].packets, 10);
        assert_eq!(stats[1].packets, 7);
        assert_eq!(stats[2].packets, 9);
    }

    #[test]
    fn batch_width_does_not_change_results() {
        // Faulty and transient storage included on purpose: buffer-set
        // replication must behave exactly like one buffer reused serially.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let specs = [
            PointSpec {
                storage: StorageConfig::unprotected(0.10, cfg.llr_bits),
                snr_db: 8.0,
                n_packets: 13,
                seed: 21,
            },
            PointSpec {
                storage: StorageConfig::Quantized,
                snr_db: 16.0,
                n_packets: 9,
                seed: 22,
            },
            PointSpec {
                storage: StorageConfig::Transient { p_upset: 0.01 },
                snr_db: 14.0,
                n_packets: 9,
                seed: 5,
            },
        ];
        let run = |threads: usize, lanes: usize| {
            SimulationEngine::with_threads(threads)
                .shard_packets(5)
                .batch_lanes(lanes)
                .run_batch(&sim, &specs)
        };
        let one_lane = run(1, 1);
        for (threads, lanes) in [(1, 2), (1, 8), (2, 4), (4, 8), (1, 13)] {
            assert_eq!(
                one_lane,
                run(threads, lanes),
                "threads={threads} lanes={lanes} must match 1-lane waves"
            );
        }
    }

    #[test]
    fn grid_shares_one_die_per_row() {
        // With a per-row die, the SNR=∞-ish column of a faulty row is
        // reproducible: run the grid twice and compare.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let engine = SimulationEngine::serial();
        let storages = [
            StorageConfig::Quantized,
            StorageConfig::unprotected(0.10, cfg.llr_bits),
        ];
        let a = engine.run_grid(&sim, &storages, &[10.0, 20.0], 5, 7);
        let b = engine.run_grid(&sim, &storages, &[10.0, 20.0], 5, 7);
        assert_eq!(a, b);
        assert_eq!(a.stats.len(), 2);
        assert_eq!(a.stats[0].len(), 2);
    }

    #[test]
    fn batch_with_custom_buffers_is_deterministic() {
        // The soft-error buffer, once supplied by a caller factory, is now
        // `StorageConfig::Transient`. It must build exactly what that
        // factory built (a quantized buffer under transient upsets seeded
        // with the point's die seed) at any thread count.
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let spec = PointSpec {
            storage: StorageConfig::Transient { p_upset: 0.01 },
            snr_db: 14.0,
            n_packets: 9,
            seed: 5,
        };
        let mut buffer = crate::buffer::TransientLlrBuffer::new(
            crate::buffer::QuantizedLlrBuffer::new(cfg.coded_len(), cfg.quantizer()),
            cfg.quantizer(),
            0.01,
            derive_seed(spec.seed, STREAM_FAULT_MAP),
        );
        let mut by_hand = HarqStats::new(cfg.max_transmissions, cfg.payload_bits);
        for p in 0..spec.n_packets {
            let pseed = packet_seed(spec.seed, p as u64);
            buffer.begin_packet(pseed);
            let mut rng = StdRng::seed_from_u64(pseed);
            let outcome = sim.simulate_packet(spec.snr_db, &mut buffer, &mut rng);
            by_hand.record(outcome.success_after, cfg.max_transmissions);
        }
        let run = |threads| {
            SimulationEngine::with_threads(threads)
                .shard_packets(2)
                .run_batch(&sim, std::slice::from_ref(&spec))
        };
        assert_eq!(run(1), vec![by_hand]);
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn chunks_partition_to_one_shot() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
        let engine = SimulationEngine::with_threads(2).shard_packets(3);
        let one_shot = engine.run_point(&sim, &storage, 12.0, 11, 77);
        // 11 packets split 0..4, 4..9, 9..11.
        let mut merged = HarqStats::new(cfg.max_transmissions, cfg.payload_bits);
        for (first, n) in [(0, 4), (4, 5), (9, 2)] {
            merged.merge(&engine.run_point_resumed(&sim, &storage, 12.0, first, n, 77));
        }
        assert_eq!(one_shot, merged);
    }

    #[test]
    fn chunk_fault_seed_override_pins_the_die() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
        let engine = SimulationEngine::serial();
        let chunk = |fault_seed| {
            engine.run_chunks(
                &sim,
                &[ChunkSpec {
                    storage: storage.clone(),
                    snr_db: 8.0,
                    first_packet: 0,
                    n_packets: 8,
                    seed: 9,
                    fault_seed,
                }],
            )
        };
        // `None` derives the point's own die — identical to run_point.
        assert_eq!(chunk(None)[0], engine.run_point(&sim, &storage, 8.0, 8, 9));
        // An explicit die seed is honored deterministically.
        assert_eq!(chunk(Some(123)), chunk(Some(123)));
    }

    #[test]
    fn ecc_storage_runs_through_engine() {
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let stats = SimulationEngine::with_threads(2).run_point(
            &sim,
            &StorageConfig::Ecc {
                defects: DefectSpec::Fraction(0.001),
                fault_kind: FaultKind::Flip,
            },
            25.0,
            6,
            5,
        );
        assert_eq!(stats.packets, 6);
        assert_eq!(stats.delivered, stats.packets);
    }
}
