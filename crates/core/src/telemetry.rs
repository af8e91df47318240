//! Lock-free telemetry: metric registry, spans, event log, and the live
//! campaign snapshot that `campaign-admin top` and the dispatcher tail.
//!
//! # Design
//!
//! **Recording is always on; exposition is opt-in.** Every counter
//! bump, histogram sample and span is recorded unconditionally — the
//! hot-path cost is a relaxed atomic add on a per-thread shard (and the
//! engine batches even those per 16-packet shard, not per packet).
//! What `--telemetry` / [`set_enabled`] toggles is purely the *output*:
//! the live snapshot JSON, the JSONL event log and the Prometheus text
//! file a campaign writes under its store directory. Because recording
//! never branches on the flag, telemetry on/off cannot perturb the
//! simulation — manifests stay byte-identical either way (pinned by
//! `tests/telemetry.rs`).
//!
//! **Per-thread shards, aggregated at snapshot time.** Each thread that
//! records owns an `Arc<Shard>` of atomics registered in a global list;
//! [`snapshot`] sums the live shards plus a *retired* shard that
//! absorbs the tallies of exited threads (the engine spawns scoped
//! workers per run, so without the retirement merge the registry would
//! grow without bound and drop counts). No lock is held on the record
//! path — only registration/retirement and snapshotting take the
//! registry mutex, and those are rare.
//!
//! **Zero steady-state heap.** Shards are fixed arrays of `AtomicU64`;
//! recording allocates nothing after a thread's first touch (one
//! `Arc<Shard>` per thread, made during warm-up). The allocation-free
//! packet path pinned by `tests/alloc_regression.rs` is untouched.
//!
//! Metric *identity* is a closed enum ([`Counter`], [`Gauge`],
//! [`Histogram`]) rather than string keys: registration is `O(1)` array
//! indexing, typos are compile errors, and the Prometheus exposition
//! can enumerate the full catalog.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::artifact::{self, escape_into, Cursor};

/// Bucket capacity of a histogram: up to 15 finite upper bounds plus
/// the overflow bucket.
pub const HIST_BUCKETS: usize = 16;

/// Prefix of every exposed metric name.
const PROM_PREFIX: &str = "resilience_";

// ---------------------------------------------------------------------------
// Metric catalog
// ---------------------------------------------------------------------------

/// Monotonic counters. Stage-time counters are nanosecond tallies
/// flushed from [`StageNanos`](crate::simulator::StageNanos) once per
/// engine shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Packets actually simulated (store hits excluded).
    PacketsSimulated,
    /// Chunks served from the result store on fetch.
    StoreChunkHits,
    /// Chunk fetches that missed the store and had to simulate.
    StoreChunkMisses,
    /// Packets served from the store (sum of hit-chunk sizes).
    StorePacketsServed,
    /// Chunks appended to the store after simulation.
    StoreChunksWritten,
    /// Chunks the adaptive controller scheduled for execution.
    ChunksScheduled,
    /// Points that reached their convergence criterion.
    PointsConverged,
    /// Dispatcher: legs launched (first launches + rescues).
    LegsLaunched,
    /// Dispatcher: legs killed by the stall monitor.
    StallKills,
    /// Dispatcher: rescue legs launched over a dead leg's store.
    RescueAttempts,
    /// Dispatcher: completed merges of shard artifacts.
    MergesCompleted,
    /// Store: torn trailing records dropped while opening for resume
    /// (the tail a killed writer left mid-append).
    StoreTornTailsDropped,
    /// Dispatcher: leg launches that failed with an I/O error before
    /// the leg process existed.
    LaunchFailures,
    /// Dispatcher: relaunches delayed by the exponential-backoff policy.
    BackoffWaits,
    /// Dispatcher: dead shards split into slice sub-shards (elastic
    /// re-sharding events, not slice legs — one split may launch many).
    ReshardSplits,
    /// Dispatcher: shards abandoned after exhausting the attempt cap
    /// (the campaign degrades to a partial merge).
    ShardsAbandoned,
    /// Nanoseconds in the encode stage.
    StageEncodeNanos,
    /// Nanoseconds in the modulate stage.
    StageModulateNanos,
    /// Nanoseconds in the channel stage.
    StageChannelNanos,
    /// Nanoseconds in the equalize stage.
    StageEqualizeNanos,
    /// Nanoseconds in the demap stage.
    StageDemapNanos,
    /// Nanoseconds in the HARQ store/combine stage.
    StageHarqNanos,
    /// Nanoseconds in the turbo-decode stage.
    StageDecodeNanos,
}

impl Counter {
    /// Every counter, in exposition order.
    pub const ALL: [Counter; 23] = [
        Counter::PacketsSimulated,
        Counter::StoreChunkHits,
        Counter::StoreChunkMisses,
        Counter::StorePacketsServed,
        Counter::StoreChunksWritten,
        Counter::ChunksScheduled,
        Counter::PointsConverged,
        Counter::LegsLaunched,
        Counter::StallKills,
        Counter::RescueAttempts,
        Counter::MergesCompleted,
        Counter::StoreTornTailsDropped,
        Counter::LaunchFailures,
        Counter::BackoffWaits,
        Counter::ReshardSplits,
        Counter::ShardsAbandoned,
        Counter::StageEncodeNanos,
        Counter::StageModulateNanos,
        Counter::StageChannelNanos,
        Counter::StageEqualizeNanos,
        Counter::StageDemapNanos,
        Counter::StageHarqNanos,
        Counter::StageDecodeNanos,
    ];
    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Exposition name (without the `resilience_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PacketsSimulated => "packets_simulated",
            Counter::StoreChunkHits => "store_chunk_hits",
            Counter::StoreChunkMisses => "store_chunk_misses",
            Counter::StorePacketsServed => "store_packets_served",
            Counter::StoreChunksWritten => "store_chunks_written",
            Counter::ChunksScheduled => "chunks_scheduled",
            Counter::PointsConverged => "points_converged",
            Counter::LegsLaunched => "legs_launched",
            Counter::StallKills => "stall_kills",
            Counter::RescueAttempts => "rescue_attempts",
            Counter::MergesCompleted => "merges_completed",
            Counter::StoreTornTailsDropped => "store_torn_tails_dropped",
            Counter::LaunchFailures => "launch_failures",
            Counter::BackoffWaits => "backoff_waits",
            Counter::ReshardSplits => "reshard_splits",
            Counter::ShardsAbandoned => "shards_abandoned",
            Counter::StageEncodeNanos => "stage_encode_nanos",
            Counter::StageModulateNanos => "stage_modulate_nanos",
            Counter::StageChannelNanos => "stage_channel_nanos",
            Counter::StageEqualizeNanos => "stage_equalize_nanos",
            Counter::StageDemapNanos => "stage_demap_nanos",
            Counter::StageHarqNanos => "stage_harq_nanos",
            Counter::StageDecodeNanos => "stage_decode_nanos",
        }
    }
}

/// Last-written-value metrics. Gauges are set from coordinator threads
/// (the campaign loop, the dispatcher) — they live on plain global
/// atomics, not per-thread shards, and a [`Snapshot::merge`] across
/// processes *sums* them (each leg reports its own slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Points owned by this campaign instance.
    PointsTotal,
    /// Of those, points currently converged.
    PointsConvergedNow,
    /// Dispatcher: legs currently running.
    LegsRunning,
}

impl Gauge {
    /// Every gauge, in exposition order.
    pub const ALL: [Gauge; 3] = [
        Gauge::PointsTotal,
        Gauge::PointsConvergedNow,
        Gauge::LegsRunning,
    ];
    /// Number of gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// Exposition name (without the `resilience_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PointsTotal => "points_total",
            Gauge::PointsConvergedNow => "points_converged_now",
            Gauge::LegsRunning => "legs_running",
        }
    }
}

/// Fixed-bucket histograms (up to 15 finite upper bounds + an overflow
/// bucket; cumulative `le` semantics on exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Histogram {
    /// Live lanes per lockstep decoder pass (one turbo iteration of an
    /// engine worker's lane pool; linear bounds `1..=7`, so a full
    /// 8-lane pass lands in the overflow bucket).
    WaveLaneOccupancy,
    /// Packets per scheduled chunk (power-of-two bounds, matching the
    /// controller's doubling schedule).
    ChunkPackets,
}

impl Histogram {
    /// Every histogram, in exposition order.
    pub const ALL: [Histogram; 2] = [Histogram::WaveLaneOccupancy, Histogram::ChunkPackets];
    /// Number of histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// Exposition name (without the `resilience_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Histogram::WaveLaneOccupancy => "wave_lane_occupancy",
            Histogram::ChunkPackets => "chunk_packets",
        }
    }

    /// The finite upper bounds (at most `HIST_BUCKETS - 1`); values
    /// above the last land in the overflow bucket, at index
    /// `bounds().len()`.
    pub fn bounds(self) -> &'static [u64] {
        match self {
            Histogram::WaveLaneOccupancy => &[1, 2, 3, 4, 5, 6, 7],
            Histogram::ChunkPackets => &[
                1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
            ],
        }
    }
}

/// Index of the bucket `value` falls into (first bound `>= value`,
/// else the overflow bucket).
fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

// ---------------------------------------------------------------------------
// Shards and the global registry
// ---------------------------------------------------------------------------

struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// One thread's slice of the metric state. All loads/stores are
/// `Relaxed`: counters are statistically read, never used for
/// synchronization.
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    hists: [HistShard; Histogram::COUNT],
}

impl Shard {
    const fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            hists: [const { HistShard::new() }; Histogram::COUNT],
        }
    }

    fn counter_add(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    fn hist_record(&self, h: Histogram, value: u64, samples: u64) {
        let hs = &self.hists[h as usize];
        hs.buckets[bucket_index(h.bounds(), value)].fetch_add(samples, Ordering::Relaxed);
        hs.count.fetch_add(samples, Ordering::Relaxed);
        hs.sum.fetch_add(value * samples, Ordering::Relaxed);
    }

    /// Adds `other`'s tallies into `self` (used to retire the shard of
    /// an exiting thread into the base shard).
    fn absorb(&self, other: &Shard) {
        for (into, from) in self.counters.iter().zip(&other.counters) {
            into.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (into, from) in self.hists.iter().zip(&other.hists) {
            for (b_into, b_from) in into.buckets.iter().zip(&from.buckets) {
                b_into.fetch_add(b_from.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            into.count
                .fetch_add(from.count.load(Ordering::Relaxed), Ordering::Relaxed);
            into.sum
                .fetch_add(from.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Adds this shard's tallies into a [`Snapshot`].
    fn add_into(&self, snap: &mut Snapshot) {
        for (into, from) in snap.counters.iter_mut().zip(&self.counters) {
            *into += from.load(Ordering::Relaxed);
        }
        for (into, from) in snap.hists.iter_mut().zip(&self.hists) {
            for (b_into, b_from) in into.buckets.iter_mut().zip(&from.buckets) {
                *b_into += b_from.load(Ordering::Relaxed);
            }
            into.count += from.count.load(Ordering::Relaxed);
            into.sum += from.sum.load(Ordering::Relaxed);
        }
    }
}

struct Registry {
    /// Live per-thread shards. Locked only on register / retire /
    /// snapshot — never on the record path.
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Tallies of threads that have exited.
    retired: Shard,
    gauges: [AtomicU64; Gauge::COUNT],
}

static REGISTRY: Registry = Registry {
    shards: Mutex::new(Vec::new()),
    retired: Shard::new(),
    gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
};

/// RAII registration of a thread's shard; `Drop` folds the tallies into
/// the retired shard so scoped engine workers neither leak registry
/// slots nor lose counts.
struct LocalShard(Arc<Shard>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        REGISTRY.retired.absorb(&self.0);
        if let Ok(mut shards) = REGISTRY.shards.lock() {
            shards.retain(|s| !Arc::ptr_eq(s, &self.0));
        }
    }
}

thread_local! {
    static LOCAL: LocalShard = {
        let shard = Arc::new(Shard::new());
        REGISTRY
            .shards
            .lock()
            .expect("telemetry registry poisoned")
            .push(Arc::clone(&shard));
        LocalShard(shard)
    };
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Adds `v` to counter `c` on this thread's shard.
#[inline]
pub fn counter_add(c: Counter, v: u64) {
    if v == 0 {
        return;
    }
    // A thread at TLS-destruction time can no longer record; dropping
    // the sample is correct (its shard was already retired).
    let _ = LOCAL.try_with(|l| l.0.counter_add(c, v));
}

/// Records one `value` sample into histogram `h`.
#[inline]
pub fn hist_record(h: Histogram, value: u64) {
    hist_record_n(h, value, 1);
}

/// Records `samples` samples of the same `value` into histogram `h` —
/// how hot loops flush a tally kept in their own scratch.
#[inline]
pub fn hist_record_n(h: Histogram, value: u64, samples: u64) {
    if samples == 0 {
        return;
    }
    let _ = LOCAL.try_with(|l| l.0.hist_record(h, value, samples));
}

/// Sets gauge `g` to `v`.
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    REGISTRY.gauges[g as usize].store(v, Ordering::Relaxed);
}

/// Adds the signed `delta` to gauge `g` (saturating at zero).
pub fn gauge_add(g: Gauge, delta: i64) {
    let cell = &REGISTRY.gauges[g as usize];
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add_signed(delta);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A scope timer: created at stage entry, adds the elapsed nanoseconds
/// to `counter` on drop. For the per-packet stages the `stage!` macro
/// in `simulator.rs` is the cheaper inlined form (plain `u64` in
/// scratch, flushed per engine shard); spans are for coarse
/// coordinator-side scopes where one atomic add is negligible.
pub struct Span {
    counter: Counter,
    start: Instant,
}

/// Starts a [`Span`] that reports into `counter` when dropped.
pub fn span(counter: Counter) -> Span {
    Span {
        counter,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        counter_add(self.counter, self.start.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------------
// Enablement (exposition only — recording never consults this)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry *file output* on or off process-wide (`--telemetry`
/// sets this). Recording is unconditional either way, which is what
/// guarantees on/off byte-identical campaign results.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry file output is enabled process-wide.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time aggregate of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (not cumulative; exposition cumulates).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
}

/// Point-in-time aggregate of every metric: retired shard + all live
/// thread shards + gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: [HistSnapshot; Histogram::COUNT],
}

/// Aggregates the current process-wide metric state.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    REGISTRY.retired.add_into(&mut snap);
    for shard in REGISTRY
        .shards
        .lock()
        .expect("telemetry registry poisoned")
        .iter()
    {
        shard.add_into(&mut snap);
    }
    for (into, from) in snap.gauges.iter_mut().zip(&REGISTRY.gauges) {
        *into = from.load(Ordering::Relaxed);
    }
    snap
}

impl Snapshot {
    /// Value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Aggregate of histogram `h`.
    pub fn hist(&self, h: Histogram) -> &HistSnapshot {
        &self.hists[h as usize]
    }

    /// Folds `other` into `self`: counters and histogram buckets add;
    /// gauges add too (each process reports its own slice, so the sum
    /// is the fleet total).
    pub fn merge(&mut self, other: &Snapshot) {
        for (into, from) in self.counters.iter_mut().zip(&other.counters) {
            *into += from;
        }
        for (into, from) in self.gauges.iter_mut().zip(&other.gauges) {
            *into += from;
        }
        for (into, from) in self.hists.iter_mut().zip(&other.hists) {
            for (b_into, b_from) in into.buckets.iter_mut().zip(&from.buckets) {
                *b_into += b_from;
            }
            into.count += from.count;
            into.sum += from.sum;
        }
    }

    /// Prometheus text exposition of the full catalog.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            let name = c.name();
            out.push_str(&format!(
                "# TYPE {PROM_PREFIX}{name} counter\n{PROM_PREFIX}{name} {}\n",
                self.counter(c)
            ));
        }
        for g in Gauge::ALL {
            let name = g.name();
            out.push_str(&format!(
                "# TYPE {PROM_PREFIX}{name} gauge\n{PROM_PREFIX}{name} {}\n",
                self.gauge(g)
            ));
        }
        for h in Histogram::ALL {
            let name = h.name();
            let hs = self.hist(h);
            out.push_str(&format!("# TYPE {PROM_PREFIX}{name} histogram\n"));
            let bounds = h.bounds();
            let mut cumulative = 0u64;
            for (i, &bucket) in hs.buckets[..=bounds.len()].iter().enumerate() {
                cumulative += bucket;
                match bounds.get(i) {
                    Some(le) => out.push_str(&format!(
                        "{PROM_PREFIX}{name}_bucket{{le=\"{le}\"}} {cumulative}\n"
                    )),
                    None => out.push_str(&format!(
                        "{PROM_PREFIX}{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
                    )),
                }
            }
            out.push_str(&format!(
                "{PROM_PREFIX}{name}_sum {}\n{PROM_PREFIX}{name}_count {}\n",
                hs.sum, hs.count
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSONL event log
// ---------------------------------------------------------------------------

/// A field value of a JSONL event.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// Unsigned integer field.
    U64(u64),
    /// Float field (rendered with 6 decimals).
    F64(f64),
    /// String field (quotes/backslashes escaped).
    Str(&'a str),
    /// Boolean field.
    Bool(bool),
}

#[derive(Debug)]
struct EventState {
    file: BufWriter<File>,
    seq: u64,
}

/// Append-only JSONL event log (`<campaign>.telemetry.jsonl`). Each
/// line is `{"seq": N, "t_ms": M, "event": "...", ...fields}`, with
/// `t_ms` milliseconds since the log was created.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    started: Instant,
    state: Mutex<EventState>,
}

impl EventLog {
    /// Creates (truncating) the event log at `path`.
    pub fn create(path: &Path) -> io::Result<EventLog> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = File::create(path)?;
        Ok(EventLog {
            path: path.to_path_buf(),
            started: Instant::now(),
            state: Mutex::new(EventState {
                file: BufWriter::new(file),
                seq: 0,
            }),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event line and flushes (events are coordinator-rate,
    /// not packet-rate; durability on kill matters more than syscalls).
    pub fn emit(&self, event: &str, fields: &[(&str, Field)]) {
        let t_ms = self.started.elapsed().as_millis() as u64;
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut line = String::with_capacity(96);
        line.push_str(&format!(
            "{{\"seq\": {}, \"t_ms\": {t_ms}, \"event\": \"{event}\"",
            state.seq
        ));
        for (key, value) in fields {
            line.push_str(", \"");
            line.push_str(key);
            line.push_str("\": ");
            match value {
                Field::U64(v) => line.push_str(&v.to_string()),
                Field::F64(v) => line.push_str(&format!("{v:.6}")),
                Field::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
                Field::Str(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str("}\n");
        state.seq += 1;
        let _ = state.file.write_all(line.as_bytes());
        let _ = state.file.flush();
    }
}

// ---------------------------------------------------------------------------
// Live campaign snapshot file
// ---------------------------------------------------------------------------

/// One point's row in a [`LiveSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointProgress {
    /// Stable point-config hash (the store key).
    pub key: u64,
    /// Human-readable point label.
    pub label: String,
    /// Packets realized so far (store-served + simulated).
    pub packets: u64,
    /// The fixed-budget cap for this point.
    pub max_packets: u64,
    /// Current BLER estimate.
    pub bler: f64,
    /// Current Wilson half-width.
    pub half_width: f64,
    /// Whether the point has converged.
    pub converged: bool,
}

/// The live progress file a running campaign rewrites atomically after
/// every scheduling round (`<campaign>.telemetry.json`, shard-suffixed
/// like the store). `seq` is monotonic — the dispatcher reads it as a
/// heartbeat, `campaign-admin top` renders the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveSnapshot {
    /// Monotonic write sequence (starts at 1).
    pub seq: u64,
    /// Milliseconds since the campaign run started.
    pub elapsed_ms: u64,
    /// Whether the campaign instance has finished.
    pub done: bool,
    /// Points owned by this instance.
    pub points_total: u64,
    /// Of those, currently converged.
    pub points_converged: u64,
    /// Packets realized (store-served + simulated).
    pub packets_realized: u64,
    /// Packets served from the result store.
    pub packets_from_store: u64,
    /// Packets actually simulated this run.
    pub packets_simulated: u64,
    /// Cumulative simulated packets/sec since run start.
    pub packets_per_sec: f64,
    /// Store chunk fetch hits.
    pub store_chunk_hits: u64,
    /// Store chunk fetch misses.
    pub store_chunk_misses: u64,
    /// Per-point progress rows.
    pub points: Vec<PointProgress>,
}

impl LiveSnapshot {
    /// Store-hit ratio of chunk fetches (0 when nothing was fetched).
    pub fn store_hit_ratio(&self) -> f64 {
        let total = self.store_chunk_hits + self.store_chunk_misses;
        if total == 0 {
            0.0
        } else {
            self.store_chunk_hits as f64 / total as f64
        }
    }

    /// Renders the snapshot JSON (one point per line, flat objects).
    pub fn render_json(&self) -> String {
        // Writing into a `String` cannot fail.
        let mut out = format!(
            "{{\n  \"seq\": {},\n  \"elapsed_ms\": {},\n  \"done\": {},\n  \"points_total\": {},\n  \
             \"points_converged\": {},\n  \"packets_realized\": {},\n  \"packets_from_store\": {},\n  \
             \"packets_simulated\": {},\n  \"packets_per_sec\": {:.2},\n  \"store_chunk_hits\": {},\n  \
             \"store_chunk_misses\": {},\n  \"points\": [\n",
            self.seq,
            self.elapsed_ms,
            self.done,
            self.points_total,
            self.points_converged,
            self.packets_realized,
            self.packets_from_store,
            self.packets_simulated,
            self.packets_per_sec,
            self.store_chunk_hits,
            self.store_chunk_misses,
        );
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(out, "    {{\"key\": \"{:016x}\", \"label\": \"", p.key);
            escape_into(&mut out, &p.label);
            let _ = writeln!(
                out,
                "\", \"packets\": {}, \"max\": {}, \"bler\": {:.6}, \"half_width\": {:.6}, \
                 \"converged\": {}}}{}",
                p.packets,
                p.max_packets,
                p.bler,
                p.half_width,
                p.converged,
                if i + 1 < self.points.len() { "," } else { "" },
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses what [`render_json`](Self::render_json) wrote; `None`
    /// unless `text` is exactly the rendering of the snapshot it
    /// parses to, so a torn or edited snapshot never parses.
    pub fn parse(text: &str) -> Option<LiveSnapshot> {
        artifact::canonical(text, Self::parse_from, Self::render_json)
    }

    fn parse_from(cur: &mut Cursor<'_>) -> Option<LiveSnapshot> {
        // Struct fields evaluate in source order: the renderer's order.
        Some(LiveSnapshot {
            seq: cur.tag(b"{\n  \"seq\": ")?.uint()?,
            elapsed_ms: cur.tag(b",\n  \"elapsed_ms\": ")?.uint()?,
            done: cur.tag(b",\n  \"done\": ")?.boolean()?,
            points_total: cur.tag(b",\n  \"points_total\": ")?.uint()?,
            points_converged: cur.tag(b",\n  \"points_converged\": ")?.uint()?,
            packets_realized: cur.tag(b",\n  \"packets_realized\": ")?.uint()?,
            packets_from_store: cur.tag(b",\n  \"packets_from_store\": ")?.uint()?,
            packets_simulated: cur.tag(b",\n  \"packets_simulated\": ")?.uint()?,
            packets_per_sec: cur.tag(b",\n  \"packets_per_sec\": ")?.float()?,
            store_chunk_hits: cur.tag(b",\n  \"store_chunk_hits\": ")?.uint()?,
            store_chunk_misses: cur.tag(b",\n  \"store_chunk_misses\": ")?.uint()?,
            points: {
                cur.tag(b",\n  \"points\": [\n")?;
                let mut points = Vec::new();
                while cur.tag(b"  ]\n}\n").is_none() {
                    points.push(PointProgress {
                        key: cur.tag(b"    {\"key\": \"")?.hex16()?,
                        label: cur.tag(b"\", \"label\": ")?.string()?,
                        packets: cur.tag(b", \"packets\": ")?.uint()?,
                        max_packets: cur.tag(b", \"max\": ")?.uint()?,
                        bler: cur.tag(b", \"bler\": ")?.float()?,
                        half_width: cur.tag(b", \"half_width\": ")?.float()?,
                        converged: cur.tag(b", \"converged\": ")?.boolean()?,
                    });
                    // The separator comma is checked by the render comparison.
                    cur.tag(b"}")?.line()?;
                }
                points
            },
        })
    }

    /// Writes the snapshot atomically (temp file + rename), so a
    /// concurrent reader never sees a torn snapshot.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        artifact::write_atomic(path, self.render_json().as_bytes())
    }

    /// Reads and parses a snapshot file; `None` if absent, torn or not
    /// canonical.
    pub fn read(path: &Path) -> Option<LiveSnapshot> {
        LiveSnapshot::parse(&fs::read_to_string(path).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_histogram_bucketing_is_exact() {
        let bounds = Histogram::WaveLaneOccupancy.bounds();
        assert_eq!(bucket_index(bounds, 0), 0);
        assert_eq!(bucket_index(bounds, 1), 0);
        assert_eq!(bucket_index(bounds, 2), 1);
        assert_eq!(bucket_index(bounds, 7), 6);
        assert_eq!(bucket_index(bounds, 8), 7, "a full pass overflows");
        assert_eq!(bucket_index(bounds, u64::MAX), 7);
        for h in Histogram::ALL {
            assert!(h.bounds().len() < HIST_BUCKETS, "{} fits", h.name());
        }
    }

    #[test]
    fn exponential_histogram_bucketing_matches_doubling() {
        let bounds = Histogram::ChunkPackets.bounds();
        assert_eq!(bucket_index(bounds, 1), 0);
        assert_eq!(bucket_index(bounds, 2), 1);
        assert_eq!(bucket_index(bounds, 3), 2, "3 <= 4");
        assert_eq!(bucket_index(bounds, 4), 2);
        assert_eq!(bucket_index(bounds, 16384), 14);
        assert_eq!(bucket_index(bounds, 16385), HIST_BUCKETS - 1);
    }

    #[test]
    fn shard_absorb_and_snapshot_aggregate() {
        let a = Shard::new();
        let b = Shard::new();
        a.counter_add(Counter::PacketsSimulated, 5);
        b.counter_add(Counter::PacketsSimulated, 7);
        a.hist_record(Histogram::WaveLaneOccupancy, 8, 1);
        b.hist_record(Histogram::WaveLaneOccupancy, 3, 2);
        a.absorb(&b);
        let mut snap = Snapshot::default();
        a.add_into(&mut snap);
        assert_eq!(snap.counter(Counter::PacketsSimulated), 12);
        let h = snap.hist(Histogram::WaveLaneOccupancy);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 14);
        assert_eq!(h.buckets[7], 1, "a full pass overflows");
        assert_eq!(h.buckets[2], 2, "3 lanes in bucket le=3");
    }

    #[test]
    fn snapshot_merge_adds_everything() {
        let shard = Shard::new();
        shard.counter_add(Counter::StoreChunkHits, 3);
        shard.hist_record(Histogram::ChunkPackets, 8, 1);
        let mut left = Snapshot::default();
        shard.add_into(&mut left);
        let mut right = Snapshot::default();
        shard.add_into(&mut right);
        right.gauges[Gauge::PointsTotal as usize] = 4;
        left.merge(&right);
        assert_eq!(left.counter(Counter::StoreChunkHits), 6);
        assert_eq!(left.gauge(Gauge::PointsTotal), 4);
        assert_eq!(left.hist(Histogram::ChunkPackets).count, 2);
        assert_eq!(left.hist(Histogram::ChunkPackets).sum, 16);
    }

    #[test]
    fn cross_thread_counts_survive_thread_exit() {
        // Counts recorded on a thread must be retired into the global
        // aggregate when the thread exits, not lost with its shard.
        let before = snapshot().counter(Counter::MergesCompleted);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| counter_add(Counter::MergesCompleted, 10));
            }
        });
        let after = snapshot().counter(Counter::MergesCompleted);
        assert_eq!(after - before, 40);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_complete() {
        let shard = Shard::new();
        shard.counter_add(Counter::PacketsSimulated, 2);
        shard.hist_record(Histogram::WaveLaneOccupancy, 1, 1);
        shard.hist_record(Histogram::WaveLaneOccupancy, 8, 1);
        let mut snap = Snapshot::default();
        shard.add_into(&mut snap);
        let text = snap.render_prometheus();
        assert!(text.contains("resilience_packets_simulated 2\n"));
        assert!(text.contains("resilience_wave_lane_occupancy_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("resilience_wave_lane_occupancy_bucket{le=\"7\"} 1\n"));
        assert!(!text.contains("resilience_wave_lane_occupancy_bucket{le=\"8\"}"));
        assert!(text.contains("resilience_wave_lane_occupancy_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("resilience_wave_lane_occupancy_count 2\n"));
        for c in Counter::ALL {
            assert!(text.contains(c.name()), "{} missing", c.name());
        }
    }

    #[test]
    fn live_snapshot_round_trips() {
        let snap = LiveSnapshot {
            seq: 7,
            elapsed_ms: 1500,
            done: false,
            points_total: 2,
            points_converged: 1,
            packets_realized: 96,
            packets_from_store: 32,
            packets_simulated: 64,
            packets_per_sec: 1234.56,
            store_chunk_hits: 4,
            store_chunk_misses: 2,
            points: vec![
                PointProgress {
                    key: 0xdead_beef,
                    label: "quantized/9dB".into(),
                    packets: 64,
                    max_packets: 100,
                    bler: 0.125,
                    half_width: 0.04,
                    converged: true,
                },
                PointProgress {
                    key: 1,
                    // Real fig6 labels contain commas; the escapes and
                    // closing-brace shape must round-trip too.
                    label: "6T, Nf=0.10% @ 0 dB \\ \"x\", {y}".into(),
                    packets: 32,
                    max_packets: 100,
                    bler: 0.5,
                    half_width: 0.2,
                    converged: false,
                },
            ],
        };
        let parsed = LiveSnapshot::parse(&snap.render_json()).expect("parses");
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[0].key, 0xdead_beef);
        assert_eq!(parsed.points[0].label, "quantized/9dB");
        assert!(parsed.points[0].converged);
        assert_eq!(parsed.points[1].label, "6T, Nf=0.10% @ 0 dB \\ \"x\", {y}");
        assert_eq!(parsed.points[1].packets, 32);
        assert!((parsed.store_hit_ratio() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_seq_probe_reads_written_file() {
        let dir = std::env::temp_dir().join(format!("telemetry-seq-{}", std::process::id()));
        let path = dir.join("probe.telemetry.json");
        let snap = LiveSnapshot {
            seq: 41,
            ..LiveSnapshot::default()
        };
        snap.write_atomic(&path).unwrap();
        assert_eq!(LiveSnapshot::read(&path).map(|s| s.seq), Some(41));
        assert_eq!(LiveSnapshot::read(&dir.join("absent.json")), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_lines_are_parseable_json_fields() {
        let dir = std::env::temp_dir().join(format!("telemetry-events-{}", std::process::id()));
        let path = dir.join("log.telemetry.jsonl");
        let log = EventLog::create(&path).unwrap();
        log.emit(
            "chunk_scheduled",
            &[
                ("point", Field::Str("quantized/9dB")),
                ("packets", Field::U64(16)),
                ("bler", Field::F64(0.25)),
                ("converged", Field::Bool(false)),
            ],
        );
        log.emit("merge", &[("shards", Field::U64(2))]);
        // Every line is asserted whole; only the wall-clock `t_ms`
        // value is masked.
        let mask = |line: &str| {
            let (head, rest) = line.split_once("\"t_ms\": ").expect("t_ms field");
            let digits = rest.find(',').expect("t_ms is followed by a field");
            assert!(rest[..digits].bytes().all(|b| b.is_ascii_digit()), "{line}");
            format!("{head}\"t_ms\": _{}", &rest[digits..])
        };
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = text.lines().map(mask).collect();
        assert_eq!(
            lines,
            [
                "{\"seq\": 0, \"t_ms\": _, \"event\": \"chunk_scheduled\", \"point\": \"quantized/9dB\", \
                 \"packets\": 16, \"bler\": 0.250000, \"converged\": false}",
                "{\"seq\": 1, \"t_ms\": _, \"event\": \"merge\", \"shards\": 2}",
            ]
        );
        assert!(text.ends_with("}\n"));
        let _ = fs::remove_dir_all(&dir);
    }
}
