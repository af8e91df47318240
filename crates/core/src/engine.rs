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
//! serialize the run. Each worker drives one work-conserving decoder
//! lane pool of up to [`SimulationEngine::batch_lanes`] (at most
//! [`POOL_LANES`]) in-flight packets, each running its own HARQ state
//! machine; a packet that finishes hands its lane to the next packet of
//! the worker's queue, which pulls the next shard whenever no packet is
//! left to start. Per buffer group (chunks with the same
//! [`StorageConfig`] and die seed: the *same die*, per the paper's
//! worst-case methodology) the worker builds the die once and lends
//! in-flight packets clones of it. Outcomes are summed per chunk in the
//! worker; the main thread folds worker partials.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsp::rng::{derive_seed, packet_seed, STREAM_FAULT_MAP};
use hspa_phy::harq::{HarqStats, LlrBuffer};
use hspa_phy::turbo::{TurboBatchScratch, POOL_LANES};

use crate::buffer::StorageBuffer;
use crate::config::SystemConfig;
use crate::montecarlo::{build_storage, StorageConfig};
use crate::simulator::{
    LinkSimulator, PacketOutcome, PacketQueue, PacketScratch, StageNanos, WaveScratch,
};
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
    /// Default shard granularity: small enough to balance uneven points
    /// across workers, large enough that pulling shards and flushing
    /// telemetry (once per shard) stay negligible. A worker's lane pool
    /// runs across shard boundaries, so the size never narrows it.
    const DEFAULT_SHARD: usize = 16;

    /// Default decode lane-pool width: every slot of the widest lockstep
    /// kernel ([`POOL_LANES`]). A pool refills each lane with the next
    /// codeword (the same packet's next HARQ attempt or the next
    /// packet's first) at every iteration boundary, so it stays at full
    /// width until its worker runs out of packets; wider settings add
    /// nothing. Results are bit-identical at every width (1 included),
    /// so batching is on by default.
    pub const DEFAULT_BATCH: usize = POOL_LANES;

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

    /// Overrides the decode batch width (builder style): the most
    /// packets a worker keeps in flight, capped at [`POOL_LANES`]. `1`
    /// runs packet by packet; any width produces bit-identical
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
        let plan = Plan::new(chunks, self.shard_packets);
        let workers = self.threads.min(plan.tasks.len()).max(1);
        let lanes = self.batch_lanes.min(POOL_LANES);
        // One worker pulls shards off the shared counter until none are
        // left; a single worker runs it inline, more run it in threads.
        let next = AtomicUsize::new(0);
        let run_worker = || {
            let mut worker = Worker::new(&cfg, chunks, &plan, &next, lanes);
            sim.run_harq(
                &mut worker,
                lanes,
                &mut TurboBatchScratch::new(),
                &mut WaveScratch::new(),
            );
            worker.flush();
            worker.stats
        };
        let partials: Vec<Vec<HarqStats>> = if workers == 1 {
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
        for partial in &partials {
            for (into, stats) in merged.iter_mut().zip(partial) {
                into.merge(stats);
            }
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

/// The layout of one [`SimulationEngine::run_chunks`] call: every
/// chunk's resolved die and buffer group, and the shards workers pull.
struct Plan {
    /// Resolved die seed per chunk.
    dies: Vec<u64>,
    /// Buffer-sharing group per chunk: the first chunk with the same
    /// storage and die seed.
    groups: Vec<usize>,
    /// Every chunk flattened into packet shards over absolute indices.
    tasks: Vec<Shard>,
}

impl Plan {
    fn new(chunks: &[ChunkSpec], shard_packets: usize) -> Self {
        let dies: Vec<u64> = chunks
            .iter()
            .map(|c| {
                c.fault_seed
                    .unwrap_or_else(|| derive_seed(c.seed, STREAM_FAULT_MAP))
            })
            .collect();
        let groups = (0..chunks.len())
            .map(|i| {
                (0..i)
                    .find(|&j| dies[j] == dies[i] && chunks[j].storage == chunks[i].storage)
                    .unwrap_or(i)
            })
            .collect();
        let mut tasks = Vec::new();
        for (chunk, spec) in chunks.iter().enumerate() {
            let end = spec.first_packet + spec.n_packets;
            let mut start = spec.first_packet;
            while start < end {
                let count = shard_packets.min(end - start);
                tasks.push(Shard {
                    chunk,
                    start,
                    count,
                });
                start += count;
            }
        }
        Self {
            dies,
            groups,
            tasks,
        }
    }
}

/// One die on a worker: the buffer built from its storage and die seed,
/// kept pristine, and the free list of clones lent to packets.
struct Die {
    built: StorageBuffer,
    free: Vec<StorageBuffer>,
}

impl Die {
    // alloc: cold(one build per die per worker and run)
    fn build(cfg: &SystemConfig, storage: &StorageConfig, die_seed: u64) -> Self {
        Self {
            built: build_storage(cfg, storage, die_seed),
            free: Vec::new(),
        }
    }
}

/// One in-flight packet context of a worker's lane pool.
struct Flight {
    scratch: PacketScratch,
    rng: StdRng,
    /// The die clone this packet stores its LLRs in (`None` when idle).
    buffer: Option<StorageBuffer>,
    chunk: usize,
}

/// Per-thread execution state: the queue of shards a worker pulls from,
/// its lane pool's packet contexts, one [`Die`] per buffer group it has
/// touched, its per-chunk statistics, and the telemetry tallies it
/// flushes once per shard.
///
/// Packet `p` of a chunk draws the stream of its seed-tree position
/// (`packet_seed(seed, p)`) and stores its LLRs in a clone of the
/// chunk's die. Clones are interchangeable: [`build_storage`] is
/// deterministic in `(storage, die seed)`, the fault masks are
/// read-only, and all per-packet buffer state is reset at block start
/// and re-anchored through [`LlrBuffer::begin_packet`] (the property the
/// engine's thread-invariance already rests on). With pooled decoding
/// bit-identical per lane, the statistics are the same at every width
/// (1 included) and under any shard-to-worker assignment.
struct Worker<'a> {
    cfg: &'a SystemConfig,
    chunks: &'a [ChunkSpec],
    plan: &'a Plan,
    next: &'a AtomicUsize,
    /// The shard being started: its chunk, next packet and end.
    chunk: usize,
    packet: usize,
    end: usize,
    /// No shard is left to pull.
    drained: bool,
    flights: Vec<Flight>,
    /// Contexts free to start a packet in.
    idle: Vec<usize>,
    /// The die of each buffer group, built on first use.
    die_buffers: Vec<Option<Die>>,
    /// Outcomes summed per chunk.
    stats: Vec<HarqStats>,
    /// Telemetry tallies since the last flush.
    packets_done: u64,
    decode: StageNanos,
    passes: [u64; POOL_LANES],
}

impl<'a> Worker<'a> {
    fn new(
        cfg: &'a SystemConfig,
        chunks: &'a [ChunkSpec],
        plan: &'a Plan,
        next: &'a AtomicUsize,
        lanes: usize,
    ) -> Self {
        Self {
            cfg,
            chunks,
            plan,
            next,
            chunk: 0,
            packet: 0,
            end: 0,
            drained: false,
            flights: (0..lanes)
                .map(|_| Flight {
                    scratch: PacketScratch::new(),
                    rng: StdRng::seed_from_u64(0),
                    buffer: None,
                    chunk: 0,
                })
                .collect(),
            idle: (0..lanes).rev().collect(),
            die_buffers: chunks.iter().map(|_| None).collect(),
            stats: chunks
                .iter()
                .map(|_| HarqStats::new(cfg.max_transmissions, cfg.payload_bits))
                .collect(),
            packets_done: 0,
            decode: StageNanos::default(),
            passes: [0; POOL_LANES],
        }
    }

    /// Flushes the telemetry tallies (packets, per-stage nanoseconds,
    /// live lanes per decoder pass) into the global counters and resets
    /// them — once per shard, so the packet hot path touches no atomics.
    fn flush(&mut self) {
        telemetry::counter_add(
            Counter::PacketsSimulated,
            std::mem::take(&mut self.packets_done),
        );
        flush_stage_nanos(&mut self.decode);
        for flight in &mut self.flights {
            flush_stage_nanos(&mut flight.scratch.stage_nanos);
        }
        for (live, passes) in self.passes.iter_mut().enumerate() {
            telemetry::hist_record_n(
                Histogram::WaveLaneOccupancy,
                live as u64 + 1,
                std::mem::take(passes),
            );
        }
    }
}

impl PacketQueue for Worker<'_> {
    type Buffer = StorageBuffer;

    fn start(&mut self) -> Option<(usize, f64)> {
        while self.packet == self.end {
            if self.drained {
                return None;
            }
            self.flush();
            let Some(task) = self
                .plan
                .tasks
                .get(self.next.fetch_add(1, Ordering::Relaxed))
            else {
                self.drained = true;
                return None;
            };
            (self.chunk, self.packet, self.end) = (task.chunk, task.start, task.start + task.count);
        }
        let chunks = self.chunks;
        let spec = &chunks[self.chunk];
        let pseed = packet_seed(spec.seed, self.packet as u64);
        self.packet += 1;
        let ctx = self
            .idle
            .pop()
            .expect("the pool never starts more packets than it has lanes");
        let (cfg, die_seed) = (self.cfg, self.plan.dies[self.chunk]);
        let die = self.die_buffers[self.plan.groups[self.chunk]]
            .get_or_insert_with(|| Die::build(cfg, &spec.storage, die_seed));
        // alloc: cold(at most one clone per lane and die per run; finished packets return theirs to the free list)
        let mut buffer = die.free.pop().unwrap_or_else(|| die.built.clone());
        buffer.begin_packet(pseed);
        let flight = &mut self.flights[ctx];
        flight.buffer = Some(buffer);
        flight.rng = StdRng::seed_from_u64(pseed);
        flight.chunk = self.chunk;
        Some((ctx, spec.snr_db))
    }

    fn parts(&mut self, ctx: usize) -> (&mut StorageBuffer, &mut StdRng, &mut PacketScratch) {
        let flight = &mut self.flights[ctx];
        (
            flight.buffer.as_mut().expect("context in flight"),
            &mut flight.rng,
            &mut flight.scratch,
        )
    }

    fn scratch(&self, ctx: usize) -> &PacketScratch {
        &self.flights[ctx].scratch
    }

    fn finish(&mut self, ctx: usize, outcome: PacketOutcome) {
        let flight = &mut self.flights[ctx];
        self.stats[flight.chunk].record(outcome.success_after, self.cfg.max_transmissions);
        let buffer = flight.buffer.take().expect("context in flight");
        self.die_buffers[self.plan.groups[flight.chunk]]
            .as_mut()
            .expect("a packet's die is built when it starts")
            .free
            .push(buffer);
        self.idle.push(ctx);
        self.packets_done += 1;
    }

    fn add_decode_nanos(&mut self, nanos: u64) {
        self.decode.decode += nanos;
    }

    fn pass(&mut self, live: usize) {
        self.passes[live - 1] += 1;
    }
}

/// Flushes per-stage timing tallies into the global telemetry counters
/// and resets them.
fn flush_stage_nanos(nanos: &mut StageNanos) {
    let n = std::mem::take(nanos);
    telemetry::counter_add(Counter::StageEncodeNanos, n.encode);
    telemetry::counter_add(Counter::StageModulateNanos, n.modulate);
    telemetry::counter_add(Counter::StageChannelNanos, n.channel);
    telemetry::counter_add(Counter::StageEqualizeNanos, n.equalize);
    telemetry::counter_add(Counter::StageDemapNanos, n.demap);
    telemetry::counter_add(Counter::StageHarqNanos, n.harq);
    telemetry::counter_add(Counter::StageDecodeNanos, n.decode);
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

        // One `run_chunks` call mixing storages, SNRs and dies, with
        // resumed chunks and sizes that are not multiples of the width,
        // so a worker's pool holds packets of several groups at once.
        // Every chunk must equal its own 1-lane serial run.
        let chunks = mixed_chunks(&cfg);
        let alone: Vec<HarqStats> = chunks
            .iter()
            .map(|c| {
                SimulationEngine::serial()
                    .batch_lanes(1)
                    .run_chunks(&sim, std::slice::from_ref(c))
                    .pop()
                    .expect("one chunk in, one stats out")
            })
            .collect();
        for threads in [1, 2, 4] {
            for lanes in [1, 2, 3, 8, 16] {
                let mixed = SimulationEngine::with_threads(threads)
                    .shard_packets(4)
                    .batch_lanes(lanes)
                    .run_chunks(&sim, &chunks);
                assert_eq!(
                    alone, mixed,
                    "mixed chunks, threads={threads} lanes={lanes}"
                );
            }
        }
    }

    /// Chunks over four buffer groups (two share a die seed but not a
    /// storage), three of them resumed mid-stream.
    fn mixed_chunks(cfg: &SystemConfig) -> Vec<ChunkSpec> {
        let chunk = |storage, snr_db, first_packet, n_packets, seed, fault_seed| ChunkSpec {
            storage,
            snr_db,
            first_packet,
            n_packets,
            seed,
            fault_seed,
        };
        let faulty = StorageConfig::unprotected(0.10, cfg.llr_bits);
        vec![
            chunk(faulty.clone(), 8.0, 0, 7, 31, None),
            chunk(faulty.clone(), 12.0, 5, 11, 32, Some(77)),
            chunk(StorageConfig::Quantized, 4.0, 3, 5, 33, None),
            chunk(
                StorageConfig::Transient { p_upset: 0.01 },
                14.0,
                9,
                6,
                34,
                Some(77),
            ),
            chunk(
                StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
                6.0,
                0,
                13,
                35,
                Some(77),
            ),
            chunk(faulty, 16.0, 2, 9, 36, Some(77)),
        ]
    }

    #[test]
    fn warm_worker_pool_is_allocation_free() {
        // A worker whose pool has run its mixed-group shards once must
        // run them again without growing any heap buffer: packet
        // scratches, the decoder pool, the retransmission queue, and the
        // dies' clone free lists (no new clones either).
        let cfg = SystemConfig::fast_test();
        let sim = LinkSimulator::new(cfg);
        let chunks = mixed_chunks(&cfg);
        let plan = Plan::new(&chunks, 4);
        let next = AtomicUsize::new(0);
        let mut worker = Worker::new(&cfg, &chunks, &plan, &next, POOL_LANES);
        let mut batch = TurboBatchScratch::new();
        let mut wave = WaveScratch::new();
        let mut run = |worker: &mut Worker<'_>| {
            next.store(0, Ordering::Relaxed);
            worker.drained = false;
            sim.run_harq(worker, POOL_LANES, &mut batch, &mut wave);
            let mut caps = Vec::new();
            for flight in &worker.flights {
                caps.extend(flight.scratch.heap_capacities());
            }
            caps.push(worker.idle.capacity());
            for die in worker.die_buffers.iter().flatten() {
                caps.extend([die.free.len(), die.free.capacity()]);
            }
            batch.heap_capacities(&mut caps);
            wave.heap_capacities(&mut caps);
            caps
        };
        let warm = run(&mut worker);
        for round in 0..3 {
            assert_eq!(warm, run(&mut worker), "round {round} grew a buffer");
        }
        let packets: u64 = chunks.iter().map(|c| c.n_packets as u64).sum();
        let done: u64 = worker.stats.iter().map(|s| s.packets).sum();
        assert_eq!(done, 4 * packets, "every run simulates every packet");
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
