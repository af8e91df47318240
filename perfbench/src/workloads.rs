//! The three workloads: how each sets up, what one repetition does, and
//! how its outputs are checked.
//!
//! Every workload measures repetitions until its time budget is spent
//! (with a floor on the count), cycling through a fixed set of seeds
//! derived from the run's `--seed`: the first repetition of a seed
//! records the reference its later repetitions must reproduce, and the
//! set of seeds averages out how much work a single seed happens to
//! need. After its timed loop, every workload also runs the validation
//! seed and checks it against the committed reference (see `check`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use dsp::rng::derive_seed;
use hspa_phy::harq::HarqStats;
use resilience_core::campaign::dispatch::LegStatus;
use resilience_core::campaign::{
    dispatch, store, Campaign, CampaignSettings, DispatchConfig, Launcher, Leg,
    LocalLauncher, ResultStore, ShardSpec,
};
use resilience_core::config::SystemConfig;
use resilience_core::engine::SimulationEngine;
use resilience_core::experiments::{fig6, snr_grid};
use resilience_core::montecarlo::{DefectSpec, StorageConfig};
use resilience_core::simulator::LinkSimulator;
use resilience_core::telemetry;
use silicon::FaultKind;

use crate::check::{
    digests, manifest_keys, normalized_manifest, store_digests, Reference, Tally, VALIDATION_SEED,
};
use crate::{rss, Ctx};

/// Campaign name of the fig6a workloads (what the `fig6a` binary uses).
pub const FIG6: &str = "fig6";
/// Relative CI half-width target of the fig6a campaign (default 0.25):
/// one campaign simulates ~4.5k packets, about half a second on 2
/// threads, so a run averages dozens of campaigns over many seeds.
pub const PRECISION: f64 = 0.2;
/// Per-point packet cap of the fig6a campaign; high enough that every
/// point stops on precision, not on the cap.
pub const MAX_PACKETS: usize = 4096;
/// Simulation threads of the single-process workloads.
pub const THREADS: usize = 2;
/// Packets per point of the fixed-budget protection grid (two full
/// 16-lane waves): 1408 packets, under a second on 1 thread.
pub const GRID_PACKETS: usize = 16;
/// Precision and per-point cap of the small fixture dispatch that the
/// traced runs of workloads without shards use.
pub const FIXTURE_PRECISION: f64 = 0.3;
pub const FIXTURE_PACKETS: usize = 64;
/// Repetitions between two timed set-ups of the campaign and grid
/// workloads: set-ups spread over the whole run, so their median
/// (`setup_s`) samples the host's fast and slow spells as the
/// repetitions do, not the one spell before timing starts.
const SETUP_EVERY: usize = 3;
/// Seconds of replays after each repetition of an untraced run: spread
/// over the run, and time-boxed rather than counted, so a slow spell of
/// the host adds fewer samples instead of owning the percentiles.
const REPLAY_BOX_S: f64 = 0.025;
/// Fewest replays per untraced run: p95 needs 200 for ten beyond it.
const MIN_REPLAYS: usize = 200;

pub type Res<T> = Result<T, String>;

/// Wraps an I/O-ish error with context.
pub fn ctx_err<E: std::fmt::Display>(what: impl std::fmt::Display) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Removes and recreates a directory.
pub fn fresh_dir(dir: &Path) -> Res<()> {
    match fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    fs::create_dir_all(dir).map_err(ctx_err(dir.display()))
}

/// The benchmark's clock: every timed region starts here.
pub fn now() -> Instant {
    // determinism: wallclock(benchmark timing; readings are reported, never fed back into a simulation)
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The operating grid of a workload.
pub struct Grid {
    pub cfg: SystemConfig,
    pub sim: LinkSimulator,
    pub storages: Vec<StorageConfig>,
    pub snrs: Vec<f64>,
}

impl Grid {
    /// The Fig. 6a grid: 5 defect fractions × 11 SNRs, exact tier.
    pub fn fig6a() -> Self {
        let cfg = SystemConfig::paper_64qam();
        Self {
            sim: LinkSimulator::new(cfg),
            storages: fig6::storages(&fig6::DEFECT_FRACTIONS, cfg.llr_bits),
            snrs: snr_grid(),
            cfg,
        }
    }

    /// The protection grid of Figs. 7/8: fault-free quantized, and 10 %
    /// defects unprotected, with 4 MSBs in 8T cells, and under SECDED.
    pub fn protection() -> Self {
        let cfg = SystemConfig::paper_64qam();
        Self {
            sim: LinkSimulator::new(cfg),
            storages: vec![
                StorageConfig::Quantized,
                StorageConfig::unprotected(0.10, cfg.llr_bits),
                StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
                StorageConfig::Ecc {
                    defects: DefectSpec::Fraction(0.10),
                    fault_kind: FaultKind::Flip,
                },
            ],
            snrs: snr_grid(),
            cfg,
        }
    }
}

/// Leg arguments that make the `fig6a` binary run a fig6a campaign at
/// `precision` and `max_packets` per point, one thread, telemetry on.
pub fn fig6_leg_args(precision: f64, max_packets: usize, seed: u64) -> Vec<String> {
    [
        "--precision",
        &precision.to_string(),
        "--packets",
        &max_packets.to_string(),
        "--seed",
        &seed.to_string(),
        "--threads",
        "1",
        "--telemetry",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The result of one campaign call: its statistics, manifest and time.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    pub wall: f64,
    pub digests: Vec<u64>,
    pub manifest: String,
    pub packets: u64,
}

/// Runs (or replays) a grid campaign into `dir` and reads back the
/// manifest it wrote; `wall` covers the call up to the written manifest.
pub fn run_campaign(
    grid: &Grid,
    campaign: Campaign,
    max_packets: usize,
    seed: u64,
) -> Res<CampaignResult> {
    let t = now();
    let result = campaign.run_grid(&grid.sim, &grid.storages, &grid.snrs, max_packets, seed);
    let wall = secs(t);
    let manifest = fs::read_to_string(campaign.manifest_path())
        .map_err(ctx_err(campaign.manifest_path().display()))?;
    let flat: Vec<&HarqStats> = result.stats.iter().flatten().collect();
    Ok(CampaignResult {
        wall,
        digests: digests(flat.iter().copied()),
        manifest,
        packets: flat.iter().map(|s| s.packets).sum(),
    })
}

/// A fig6a campaign instance over `dir` at `precision` (what the
/// `fig6a` binary runs with `--precision`).
pub fn fig6_campaign(dir: &Path, threads: usize, precision: f64) -> Campaign {
    let settings = CampaignSettings {
        precision,
        ..CampaignSettings::default()
    };
    Campaign::new(FIG6, settings, SimulationEngine::with_threads(threads))
        .with_store_dir(dir)
        .with_telemetry(false)
}

/// A fig6a campaign instance over `dir` at the workloads' precision.
fn fig6_at(dir: &Path, threads: usize) -> Campaign {
    fig6_campaign(dir, threads, PRECISION)
}

/// Telemetry counters parsed from a Prometheus text snapshot — the same
/// parser reads this process's registry and a leg's `.prom` file.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    *map.entry(name.to_string()).or_insert(0.0) += v;
                }
            }
        }
        Self(map)
    }

    /// This process's registry right now.
    pub fn now() -> Self {
        Self::parse(&telemetry::snapshot().render_prometheus())
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .get(&format!("resilience_{name}"))
            .copied()
            .unwrap_or(0.0)
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Self(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Nanoseconds recorded across the seven simulator stages.
    pub fn stage_nanos(&self) -> f64 {
        [
            "encode", "modulate", "channel", "equalize", "demap", "harq", "decode",
        ]
        .iter()
        .map(|s| self.get(&format!("stage_{s}_nanos")))
        .sum()
    }
}

/// Counters of one traced repetition, with the thread-seconds it had
/// and the campaign calls it made (0 for a one-shot grid).
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub counters: Counters,
    pub thread_seconds: f64,
    pub campaigns: f64,
}

/// What the dispatch layer reported for one dispatch.
#[derive(Debug, Clone, Default)]
pub struct DispatchTimes {
    pub launch_ms: f64,
    pub leg_s_max: f64,
    pub tail_ms: f64,
    pub legs_launched: f64,
}

/// One timed result of a workload: a campaign, a replay or a grid.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Which of the workload's fixed inputs (seed or store) it ran.
    pub slot: usize,
    /// Whether telemetry counters were read around it (traced runs).
    pub traced: bool,
    /// Seconds to the written or verified result.
    pub wall: f64,
    /// Result packets.
    pub packets: f64,
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Every timed result, in order.
    pub reps: Vec<Rep>,
    pub packets_realized: f64,
    /// Peak resident memory of the timed loop.
    pub peak_rss_mb: f64,
    pub replay_ms: Vec<f64>,
    pub tally: Tally,
    pub observed: Vec<Observed>,
    /// Counters of the replays (store hit ratio, chunks per replay).
    pub replay_counters: Counters,
    /// The workload's own files for the store and manifest legs.
    pub store: PathBuf,
    pub manifest: PathBuf,
}

impl Measured {
    fn record(&mut self, slot: usize, traced: bool, wall: f64, packets: u64) {
        self.reps.push(Rep {
            slot,
            traced,
            wall,
            packets: packets as f64,
        });
    }
}

/// Whether repetition `k` of a traced run is a traced one. Traced and
/// untraced repetitions alternate, and the alternation flips with each
/// pass over the seed cycle, so every seed is eventually measured both
/// ways and the run can price its own tracing.
fn traced_rep(ctx: &Ctx, k: usize, cycle: usize) -> bool {
    ctx.traced && (k / cycle + k) % 2 == 1
}

/// Repeats `rep(k)` until the deadline has passed and at least
/// `min_reps` ran.
fn repeat(deadline: Instant, min_reps: usize, mut rep: impl FnMut(usize) -> Res<()>) -> Res<()> {
    let mut k = 0;
    while k < min_reps || now() < deadline {
        rep(k)?;
        k += 1;
    }
    Ok(())
}

/// One reference per seed slot of a workload's seed cycle.
#[derive(Default)]
struct References(BTreeMap<usize, CampaignResult>);

impl References {
    /// Records `got` as the reference of seed slot `j`, or checks it
    /// against the recorded one.
    fn check_or_record(&mut self, tally: &mut Tally, j: usize, got: &CampaignResult) -> Res<()> {
        match self.0.get(&j) {
            Some(want) => tally.check(
                &format!("seed slot {j}"),
                (&got.digests, &got.manifest),
                (&want.digests, &want.manifest),
            ),
            None => {
                self.0.insert(j, got.clone());
                Ok(())
            }
        }
    }
}

/// Replays a store through `make()` for `budget` (at least `count`
/// times), timing each reopen + replay to the manifest and checking it
/// against the fresh result `want` (manifest compared with store
/// provenance zeroed).
#[allow(clippy::too_many_arguments)]
fn replay(
    m: &mut Measured,
    grid: &Grid,
    make: impl Fn() -> Campaign,
    max_packets: usize,
    seed: u64,
    want: &CampaignResult,
    (count, budget): (usize, f64),
) -> Res<()> {
    let before = Counters::now();
    let start = now();
    let mut done = 0;
    while done < count || secs(start) < budget {
        done += 1;
        let got = run_campaign(grid, make(), max_packets, seed)?;
        m.replay_ms.push(got.wall * 1e3);
        let normalized = normalized_manifest(&got.manifest)
            .ok_or_else(|| "unparseable replay manifest".to_string())?;
        m.tally.check(
            "replay",
            (&got.digests, &normalized),
            (&want.digests, &want.manifest),
        )?;
    }
    m.replay_counters.add(&Counters::now().since(&before));
    Ok(())
}

/// Replays after each repetition, as (at least this many, for at least
/// these seconds): enough for the p95 even at the fewest repetitions,
/// and time-boxed only in untraced runs.
fn replays_per_rep(ctx: &Ctx, min_reps: usize) -> (usize, f64) {
    let count = MIN_REPLAYS.div_ceil(min_reps);
    (count, if ctx.traced { 0.0 } else { REPLAY_BOX_S })
}

/// The result a merged dispatch left in `dir`: the digests of the
/// statistics its merged store rebuilds for `keys`, and its manifest.
pub fn merged_result(dir: &Path, keys: &[u64]) -> Res<(Vec<u64>, String)> {
    let path = dir.join(format!("{FIG6}.manifest.json"));
    let manifest = fs::read_to_string(&path).map_err(ctx_err(path.display()))?;
    let digests = store_digests(&dir.join(format!("{FIG6}.jsonl")), keys)?;
    Ok((digests, manifest))
}

/// Replays the small fixture dispatch merged in `dir` (run with
/// `fig6_leg_args(FIXTURE_PRECISION, FIXTURE_PACKETS, seed)`) the fewest
/// times a p95 needs, checking each replay against the merged result.
pub fn replay_fixture(m: &mut Measured, dir: &Path, seed: u64) -> Res<()> {
    let path = dir.join(format!("{FIG6}.manifest.json"));
    let manifest = fs::read_to_string(&path).map_err(ctx_err(path.display()))?;
    let keys = manifest_keys(&manifest).ok_or("unparseable fixture manifest")?;
    let want = CampaignResult {
        wall: 0.0,
        digests: store_digests(&dir.join(format!("{FIG6}.jsonl")), &keys)?,
        manifest,
        packets: 0,
    };
    let make = || fig6_campaign(dir, THREADS, FIXTURE_PRECISION);
    let replays = (MIN_REPLAYS, 0.0);
    replay(
        m,
        &Grid::fig6a(),
        make,
        FIXTURE_PACKETS,
        seed,
        &want,
        replays,
    )?;
    // The replays rewrote the manifest with store provenance; put the
    // merged one back for the manifest leg.
    fs::write(&path, &want.manifest).map_err(ctx_err(path.display()))
}

/// Checks the validation seed's result against the committed reference
/// `name` (the manifest compared with store provenance zeroed).
fn check_reference(m: &mut Measured, name: &str, digests: &[u64], manifest: &str) -> Res<()> {
    let want = Reference::load(name)?;
    let manifest = if manifest.is_empty() {
        String::new()
    } else {
        normalized_manifest(manifest).ok_or("unparseable validation manifest")?
    };
    m.tally.check(
        &format!("reference {name}"),
        (digests, &manifest),
        (&want.digests, &want.manifest),
    )
}

/// Runs the fig6a campaign of the validation seed fresh (and, with
/// `reopen`, replays it from its store) and checks it against the
/// committed reference.
fn validate_fig6(ctx: &Ctx, m: &mut Measured, grid: &Grid, reopen: bool) -> Res<()> {
    let dir = ctx.work.join("validation");
    fresh_dir(&dir)?;
    let mut got = run_campaign(grid, fig6_at(&dir, THREADS), MAX_PACKETS, VALIDATION_SEED)?;
    if reopen {
        got = run_campaign(grid, fig6_at(&dir, THREADS), MAX_PACKETS, VALIDATION_SEED)?;
    }
    check_reference(m, "fig6a", &got.digests, &got.manifest)
}

/// Per-point digests of a one-shot protection grid on 1 thread.
fn grid_digests(grid: &Grid, seed: u64) -> Vec<u64> {
    let r = SimulationEngine::serial().run_grid(
        &grid.sim,
        &grid.storages,
        &grid.snrs,
        GRID_PACKETS,
        seed,
    );
    digests(r.stats.iter().flatten())
}

/// Runs the validation seeds and writes their results as the committed
/// references.
pub fn write_references(work: &Path) -> Res<()> {
    let dir = work.join("reference");
    fresh_dir(&dir)?;
    let fresh = run_campaign(
        &Grid::fig6a(),
        fig6_at(&dir, THREADS),
        MAX_PACKETS,
        VALIDATION_SEED,
    )?;
    Reference {
        manifest: normalized_manifest(&fresh.manifest).ok_or("unparseable manifest")?,
        digests: fresh.digests,
    }
    .save("fig6a")?;
    Reference {
        digests: grid_digests(&Grid::protection(), VALIDATION_SEED),
        manifest: String::new(),
    }
    .save("protection-grid")
}

/// Runs `f`, which returns its result and wall seconds; when `traced`,
/// also records the telemetry counters it moved.
fn observe<T>(
    traced: bool,
    (threads, campaigns): (usize, usize),
    f: impl FnOnce() -> Res<(T, f64)>,
) -> Res<(T, f64, Option<Observed>)> {
    if !traced {
        return f().map(|(t, wall)| (t, wall, None));
    }
    let before = Counters::now();
    let (t, wall) = f()?;
    let counters = Counters::now().since(&before);
    let obs = Observed {
        counters,
        thread_seconds: wall * threads as f64,
        campaigns: campaigns as f64,
    };
    Ok((t, wall, Some(obs)))
}

/// Sets up the simulator: builds it and warms its engine path with one
/// wave per grid point on both CPUs, which every workload's repetitions
/// use; returns the grid and the seconds it took.
fn set_up(build: impl Fn() -> Grid) -> (Grid, f64) {
    let t = now();
    let g = build();
    let engine = SimulationEngine::with_threads(THREADS);
    black_box(engine.run_grid(&g.sim, &g.storages, &g.snrs, 16, 0x5eed));
    (g, secs(t))
}

/// Sets up the simulator before the timed loop, timing it.
fn timed_setups(m: &mut Measured, build: impl Fn() -> Grid) -> Grid {
    let (grid, s) = set_up(build);
    m.setup_s.push(s);
    grid
}

/// Times one more set-up (discarding its grid) before every
/// [`SETUP_EVERY`]th repetition `k` of the timed loop.
fn repeat_setup(m: &mut Measured, k: usize, build: impl Fn() -> Grid) {
    if k % SETUP_EVERY == SETUP_EVERY - 1 {
        m.setup_s.push(set_up(build).1);
    }
}

pub fn secs_dur(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s.max(0.0))
}

// ---------------------------------------------------------------------------
// fig6a-campaign
// ---------------------------------------------------------------------------

/// Seeds the fresh campaign cycles through.
const CAMPAIGN_SEEDS: usize = 16;
/// Seed slots whose campaigns `packets_realized` totals (a fixed set,
/// so the count is exact for a given `--seed`).
const REALIZED_SLOTS: usize = 8;

/// A fresh adaptive fig6a campaign on 2 threads, repeated.
pub fn fig6a_campaign(ctx: &Ctx) -> Res<Measured> {
    let mut m = Measured::default();
    let grid = timed_setups(&mut m, Grid::fig6a);
    let mut refs = References::default();
    let dir_of = |j: usize| ctx.work.join(format!("campaign-{j}"));
    let per_rep = replays_per_rep(ctx, REALIZED_SLOTS);
    rss::reset_peak()?;
    let start = now();
    repeat(start + secs_dur(ctx.loop_seconds()), REALIZED_SLOTS, |k| {
        repeat_setup(&mut m, k, Grid::fig6a);
        let j = k % CAMPAIGN_SEEDS;
        let dir = dir_of(j);
        fresh_dir(&dir)?;
        let seed = derive_seed(ctx.seed, j as u64);
        let traced = traced_rep(ctx, k, CAMPAIGN_SEEDS);
        let (got, wall, obs) = observe(traced, (THREADS, 1), || {
            let got = run_campaign(&grid, fig6_at(&dir, THREADS), MAX_PACKETS, seed)?;
            let wall = got.wall;
            Ok((got, wall))
        })?;
        m.record(j, traced, wall, got.packets);
        m.observed.extend(obs);
        refs.check_or_record(&mut m.tally, j, &got)?;
        replay(
            &mut m,
            &grid,
            || fig6_at(&dir, THREADS),
            MAX_PACKETS,
            seed,
            &got,
            per_rep,
        )
    })?;
    m.peak_rss_mb = rss::peak_kb()? / 1024.0;
    validate_fig6(ctx, &mut m, &grid, false)?;
    m.packets_realized = (0..REALIZED_SLOTS).map(|j| refs.0[&j].packets as f64).sum();
    m.store = dir_of(0).join(format!("{FIG6}.jsonl"));
    m.manifest = dir_of(0).join(format!("{FIG6}.manifest.json"));
    Ok(m)
}

// ---------------------------------------------------------------------------
// fig6a-resume
// ---------------------------------------------------------------------------

/// Stores the resume workload prepares (one set-up each); their
/// campaigns' seeds are what `packets_realized` totals.
const RESUME_STORES: usize = 8;
/// Replays of each store in one repetition (one pass over the stores).
const RESUME_REPLAYS_PER_STORE: usize = 16;
/// Other seeds whose (valid, synthetic) chunks share each store.
const RESUME_OTHER_SEEDS: usize = 28;

/// Appends valid chunk records for the points of other seeds of the grid
/// (arbitrary keys) to the store at `path`, through the public store
/// API: the replayed campaign's store then holds thousands of records
/// it never touches.
fn populate_other_seeds(grid: &Grid, path: &Path, seed: u64) -> Res<()> {
    let mut store = ResultStore::open(path, true).map_err(ctx_err(path.display()))?;
    let max_tx = grid.cfg.max_transmissions;
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64: cheap, deterministic keys and outcome draws.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let points = grid.storages.len() * grid.snrs.len();
    for _ in 0..RESUME_OTHER_SEEDS * points {
        let key = next();
        let chunks = 1 + (next() % 3) as usize;
        let (mut first, mut len) = (0usize, 32usize);
        for _ in 0..chunks {
            let mut stats = HarqStats::new(max_tx, grid.cfg.payload_bits);
            for _ in 0..len {
                let r = next() % (max_tx as u64 + 2);
                let outcome = (r >= 1 && r <= max_tx as u64).then_some(r as usize);
                stats.record(outcome, max_tx);
            }
            let id = store::ChunkId {
                point: key,
                first_packet: first,
                n_packets: len,
            };
            store.put(id, &stats).map_err(ctx_err(path.display()))?;
            first += len;
            len = first;
        }
    }
    Ok(())
}

/// Reopens fully populated stores and replays a fig6a campaign from
/// them, repeated: every chunk is a store hit.
pub fn fig6a_resume(ctx: &Ctx) -> Res<Measured> {
    let mut m = Measured::default();
    let mut grid = None;
    let mut targets = Vec::new();
    for i in 0..RESUME_STORES {
        let t = now();
        let g = Grid::fig6a();
        let dir = ctx.work.join(format!("resume-{i}"));
        fresh_dir(&dir)?;
        let seed = derive_seed(ctx.seed, i as u64);
        // The replayed campaign's own chunks are simulated for real.
        let fresh = run_campaign(&g, fig6_at(&dir, THREADS), MAX_PACKETS, seed)?;
        populate_other_seeds(&g, &dir.join(format!("{FIG6}.jsonl")), seed)?;
        m.setup_s.push(secs(t));
        targets.push((dir, seed, fresh));
        grid = Some(g);
    }
    let grid = grid.expect("set up");
    m.packets_realized = targets.iter().map(|(_, _, r)| r.packets as f64).sum();
    // A repetition replays every store 16 times; each replay is one timed
    // result of its store.
    let per_rep = RESUME_STORES * RESUME_REPLAYS_PER_STORE;
    rss::reset_peak()?;
    let start = now();
    repeat(
        start + secs_dur(ctx.loop_seconds()),
        MIN_REPLAYS.div_ceil(per_rep),
        |k| {
            let mut results = Vec::with_capacity(per_rep);
            let (_, _, obs) = observe(traced_rep(ctx, k, 2), (THREADS, per_rep), || {
                let t = now();
                for i in 0..per_rep {
                    let (dir, seed, _) = &targets[i % targets.len()];
                    results.push(run_campaign(
                        &grid,
                        fig6_at(dir, THREADS),
                        MAX_PACKETS,
                        *seed,
                    )?);
                }
                Ok(((), secs(t)))
            })?;
            for (i, got) in results.iter().enumerate() {
                m.record(i % targets.len(), obs.is_some(), got.wall, got.packets);
            }
            if let Some(o) = &obs {
                m.replay_counters.add(&o.counters);
            }
            m.observed.extend(obs);
            for (i, got) in results.iter().enumerate() {
                let (dir, _, want) = &targets[i % targets.len()];
                m.replay_ms.push(got.wall * 1e3);
                let normalized = normalized_manifest(&got.manifest)
                    .ok_or_else(|| format!("{}: unparseable replay manifest", dir.display()))?;
                m.tally.check(
                    "resume",
                    (&got.digests, &normalized),
                    (&want.digests, &want.manifest),
                )?;
            }
            Ok(())
        },
    )?;
    m.peak_rss_mb = rss::peak_kb()? / 1024.0;
    validate_fig6(ctx, &mut m, &grid, true)?;
    m.store = targets[0].0.join(format!("{FIG6}.jsonl"));
    m.manifest = targets[0].0.join(format!("{FIG6}.manifest.json"));
    Ok(m)
}

// ---------------------------------------------------------------------------
// protection-grid
// ---------------------------------------------------------------------------

/// Seed pairs the protection grid cycles through.
const GRID_PAIRS: usize = 2;

/// A fixed-budget one-shot `SimulationEngine::run_grid` on 1 thread over
/// the protection grid, repeated. Each repetition runs two such grids
/// side by side on two seeds, one per CPU, each a timed result of its
/// seed. It writes no files;
/// traced runs take their store, manifest and replay legs from the
/// fixture dispatch.
pub fn protection_grid(ctx: &Ctx) -> Res<Measured> {
    let mut m = Measured::default();
    let grid = timed_setups(&mut m, Grid::protection);
    let (grid, engine) = (&grid, &SimulationEngine::serial());
    let mut refs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    rss::reset_peak()?;
    let start = now();
    repeat(start + secs_dur(ctx.loop_seconds()), GRID_PAIRS, |k| {
        repeat_setup(&mut m, k, Grid::protection);
        let j = k % GRID_PAIRS;
        let seeds = [0, 1].map(|i| derive_seed(ctx.seed, (2 * j + i) as u64));
        let traced = traced_rep(ctx, k, GRID_PAIRS);
        let (results, _, obs) = observe(traced, (2, 0), || {
            let results = std::thread::scope(|s| {
                seeds
                    .map(|seed| {
                        s.spawn(move || {
                            let t = now();
                            let (sim, snrs) = (&grid.sim, &grid.snrs);
                            let r = engine.run_grid(sim, &grid.storages, snrs, GRID_PACKETS, seed);
                            (r, secs(t))
                        })
                    })
                    .map(|h| h.join().expect("grid thread"))
            });
            let wall = (results[0].1 + results[1].1) / 2.0;
            Ok((results, wall))
        })?;
        let flat = |i: usize| results[i].0.stats.iter().flatten();
        m.observed.extend(obs);
        m.packets_realized = 0.0;
        for (i, seed) in seeds.into_iter().enumerate() {
            let packets: u64 = flat(i).map(|s| s.packets).sum();
            m.record(2 * j + i, traced, results[i].1, packets);
            m.packets_realized += packets as f64;
            let got = digests(flat(i));
            match refs.get(&seed) {
                Some(want) => m.tally.check("grid seed", (&got, ""), (want, ""))?,
                None => {
                    refs.insert(seed, got);
                }
            }
        }
        Ok(())
    })?;
    m.peak_rss_mb = rss::peak_kb()? / 1024.0;
    let got = grid_digests(grid, VALIDATION_SEED);
    check_reference(&mut m, "protection-grid", &got, "")?;
    Ok(m)
}

// ---------------------------------------------------------------------------
// The fixture dispatch of traced runs
// ---------------------------------------------------------------------------

/// Launch and exit times of one leg.
#[derive(Debug, Clone, Copy)]
struct LegClock {
    launched: Instant,
    launch_s: f64,
    exited: Option<Instant>,
}

/// [`Launcher`] wrapper that timestamps each launch and the first poll
/// that sees the leg exit.
struct TimedLauncher {
    inner: LocalLauncher,
    legs: Rc<RefCell<Vec<LegClock>>>,
}

struct TimedLeg {
    inner: Box<dyn Leg>,
    legs: Rc<RefCell<Vec<LegClock>>>,
    index: usize,
}

impl Launcher for TimedLauncher {
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
        let t = now();
        let inner = self.inner.launch(spec, attempt)?;
        let mut legs = self.legs.borrow_mut();
        legs.push(LegClock {
            launched: t,
            launch_s: secs(t),
            exited: None,
        });
        Ok(Box::new(TimedLeg {
            inner,
            legs: Rc::clone(&self.legs),
            index: legs.len() - 1,
        }))
    }
}

impl Leg for TimedLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        let status = self.inner.poll()?;
        if let LegStatus::Exited { .. } = status {
            self.legs.borrow_mut()[self.index]
                .exited
                .get_or_insert_with(now);
        }
        Ok(status)
    }

    fn kill(&mut self) -> io::Result<()> {
        self.inner.kill()
    }
}

/// One dispatched fig6a campaign (2 legs of 1 thread, telemetry on) in
/// `work_dir`; returns the merged directory, the wall seconds to the
/// verified merge, and the dispatch layer's timings.
pub fn run_dispatch(
    fig6a_bin: &Path,
    work_dir: &Path,
    leg_args: Vec<String>,
) -> Res<(PathBuf, f64, DispatchTimes)> {
    fresh_dir(work_dir)?;
    let legs = Rc::new(RefCell::new(Vec::new()));
    let launcher = TimedLauncher {
        inner: LocalLauncher::new(fig6a_bin, work_dir)
            .with_args(leg_args)
            .quiet(),
        legs: Rc::clone(&legs),
    };
    let dir = launcher.inner.store_dir();
    let mut cfg = DispatchConfig::new(FIG6, 2, &dir);
    cfg.telemetry = true;
    let t = now();
    let report = dispatch(&cfg, &launcher).map_err(ctx_err("dispatch"))?;
    let end = now();
    let wall = (end - t).as_secs_f64();
    if !report.verify.ok() || !report.abandoned.is_empty() || !report.rescued.is_empty() {
        return Err(format!(
            "dispatch did not finish cleanly:\n{}",
            report.summary()
        ));
    }
    let legs = legs.borrow();
    let last_exit = legs.iter().filter_map(|l| l.exited).max().unwrap_or(end);
    let times = DispatchTimes {
        launch_ms: legs.iter().map(|l| l.launch_s).sum::<f64>() * 1e3 / legs.len() as f64,
        leg_s_max: legs
            .iter()
            .map(|l| (l.exited.unwrap_or(end) - l.launched).as_secs_f64())
            .fold(0.0, f64::max),
        tail_ms: (end - last_exit).as_secs_f64() * 1e3,
        legs_launched: f64::from(report.launched),
    };
    Ok((dir, wall, times))
}
