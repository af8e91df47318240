//! Campaign dispatcher: launches the `--shard i/n` legs of a campaign,
//! watches their liveness, steals work from stragglers, and folds the
//! artifacts back into the single-host files.
//!
//! A dispatch has two halves. **The core**, `machine::Dispatcher`, is a
//! pure state machine that makes every policy decision: fed events (a
//! leg exited clean, failed or lied about success; a launch failed;
//! progress seen; a re-split result; a tick) at a time the caller
//! supplies, it answers with actions (launch, kill, split, merge,
//! abort). It reads no clock and touches no file, so its tests run on a
//! simulated clock. **The driver**, [`dispatch`], does only the I/O:
//! the directory pre-flight, launches behind the `launch-io` failpoint,
//! leg polls and kills, heartbeat reads, the store split of a
//! re-shard, the 50 ms poll sleep, and the final merge and verify.
//!
//! 1. **Launch** one leg per shard spec `0/n .. (n-1)/n`, through
//!    [`LocalLauncher`] (child processes of this host) or
//!    [`CommandLauncher`] (a command template such as
//!    `ssh {host} {cmd}`). A failed launch is retried like a dead leg.
//! 2. **Monitor.** A leg's heartbeat is the `seq` of its live telemetry
//!    snapshot, backed by the (size, mtime) of its store and manifest.
//!    A leg alive but silent past the stall timeout is killed; the
//!    timeout doubles for a shard after each stall kill, so a leg deep
//!    inside one long chunk gets room to finish.
//! 3. **Steal.** A dead shard relaunches as a *rescue leg* after a
//!    jittered exponential [`BackoffPolicy`], resuming the dead leg's
//!    store: stored chunks are served from disk, never simulated again.
//!    With two or more slots idle the shard is *re-sharded* instead,
//!    its store split into slices that resume in parallel. A shard that
//!    fails [`DispatchConfig::max_attempts`] times is **abandoned**.
//!    With steal off, the first failure aborts.
//! 4. **Merge + verify.** The completed legs merge into the unsuffixed
//!    store/manifest pair, every statistic re-derived from the store,
//!    and [`shard::verify`] proves the store reproduces the manifest,
//!    which is **byte-identical** to a single-host run however many
//!    legs were rescued. With shards abandoned the survivors still
//!    merge into a *partial*, verified manifest.
//!
//! Determinism makes the self-healing safe: a packet's RNG stream
//! depends only on its absolute position in the seed tree, and stopping
//! decisions are pure functions of merged statistics, so *which* leg
//! (original or rescue) simulated a chunk cannot change any result.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant, SystemTime};

use super::hash::fnv1a64;
use super::shard::{self, MergeReport, ShardSpec, VerifyReport};
use super::store::BackendKind;
use super::DEFAULT_STORE_DIR;
use crate::failpoint::{self, Site};
use crate::telemetry::{self, Counter, EventLog, Field, Gauge, LiveSnapshot};

mod machine;

use machine::{Action, Dispatcher, Event, Exit, Transition};

/// Largest accepted leg count. Every leg launches at once, so a typo'd
/// `--legs` must error instead of fork-bombing the host or cluster.
pub const MAX_LEGS: u32 = 1024;

/// What a poll of a leg observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegStatus {
    /// Still running.
    Running,
    /// Exited; `success` is the process-level verdict (the dispatcher
    /// additionally requires a readable manifest before trusting it).
    Exited {
        /// Whether the leg reported success (exit code 0).
        success: bool,
    },
}

/// A launched leg the dispatcher can poll and kill.
pub trait Leg {
    /// Non-blocking status check.
    fn poll(&mut self) -> io::Result<LegStatus>;
    /// Terminates the leg (used on stall). Must be idempotent and
    /// reap any process-level resources.
    fn kill(&mut self) -> io::Result<()>;
}

/// Launches one leg of a campaign for a shard spec. The trait is the
/// seam where remote backends (SSH, batch queue) slot in: the
/// coordinator only ever sees [`Leg`] handles and the artifact files
/// the legs leave in the campaign directory.
pub trait Launcher {
    /// Starts the leg that runs shard `spec` of the campaign.
    ///
    /// `attempt` is 1-based across the shard's lifetime (first launch
    /// is 1, each rescue counts up). Backends forward it into the leg's
    /// environment so seeded failpoints can tell an original launch
    /// from its rescues and chaos schedules stay replayable.
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>>;
}

/// [`Launcher`] backend that spawns a figure binary on this host, one
/// child process per leg, appending `--shard i/n` to the configured
/// arguments. The binaries write under `target/campaign/` relative to
/// their working directory, which the launcher pins, so
/// [`LocalLauncher::store_dir`] is where the dispatcher, the legs and
/// the merge all meet.
#[derive(Debug, Clone)]
pub struct LocalLauncher {
    bin: PathBuf,
    work_dir: PathBuf,
    args: Vec<String>,
    quiet: bool,
    chaos_seed: Option<u64>,
}

impl LocalLauncher {
    /// A launcher spawning `bin` with children rooted at `work_dir`.
    pub fn new(bin: impl Into<PathBuf>, work_dir: impl Into<PathBuf>) -> Self {
        Self {
            bin: bin.into(),
            work_dir: work_dir.into(),
            args: Vec::new(),
            quiet: false,
            chaos_seed: None,
        }
    }

    /// Extra arguments passed to every leg before `--shard`
    /// (`--precision`, `--packets`, …).
    pub fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.args = args.into_iter().collect();
        self
    }

    /// Silences leg stdout (tables from `n` legs interleave badly);
    /// stderr stays inherited so failures remain diagnosable.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Arms every launched leg's failpoints with this chaos seed (via
    /// the [`failpoint::SEED_ENV`] / [`failpoint::ATTEMPT_ENV`]
    /// environment, never the dispatcher's own process environment).
    pub fn with_chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    /// The campaign directory the legs will write into — what
    /// [`DispatchConfig::dir`] should be set to.
    pub fn store_dir(&self) -> PathBuf {
        self.work_dir.join(DEFAULT_STORE_DIR)
    }
}

impl Launcher for LocalLauncher {
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
        fs::create_dir_all(&self.work_dir)?;
        // The child runs with its cwd at `work_dir`, which would
        // re-anchor a relative `--bin` path; resolve it against *this*
        // process's cwd first. Bare names (PATH lookup) have no parent
        // to resolve and pass through.
        let bin = if self.bin.components().count() > 1 {
            fs::canonicalize(&self.bin)?
        } else {
            self.bin.clone()
        };
        let mut cmd = Command::new(bin);
        cmd.args(&self.args)
            .arg("--shard")
            .arg(spec.to_string())
            .current_dir(&self.work_dir)
            .stdout(if self.quiet {
                Stdio::null()
            } else {
                Stdio::inherit()
            })
            .stderr(Stdio::inherit());
        if let Some(seed) = self.chaos_seed {
            cmd.env(failpoint::SEED_ENV, seed.to_string());
            cmd.env(failpoint::ATTEMPT_ENV, attempt.to_string());
        }
        let child = cmd.spawn()?;
        Ok(Box::new(ProcessLeg { child, pull: None }))
    }
}

/// [`Leg`] over a spawned child process: the figure binary itself, or
/// the transport (`ssh`, `sh`) of a templated launch, whose pull
/// template runs exactly once, on exit or kill, to fetch the leg's
/// artifacts.
struct ProcessLeg {
    child: Child,
    pull: Option<Vec<String>>,
}

impl ProcessLeg {
    /// Best-effort artifact pull-back; `take` makes it once-only. A
    /// failed pull is only logged — the missing-manifest check already
    /// routes the leg into the rescue path.
    fn pull_artifacts(&mut self) {
        let Some(argv) = self.pull.take() else { return };
        let Some((program, rest)) = argv.split_first() else {
            return;
        };
        match Command::new(program)
            .args(rest)
            .stdout(Stdio::null())
            .status()
        {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("dispatch: artifact pull {argv:?} exited {status}"),
            Err(e) => eprintln!("dispatch: artifact pull {argv:?} failed: {e}"),
        }
    }
}

impl Leg for ProcessLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        let Some(status) = self.child.try_wait()? else {
            return Ok(LegStatus::Running);
        };
        self.pull_artifacts();
        Ok(LegStatus::Exited {
            success: status.success(),
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        // SIGKILL then reap, so the straggler cannot linger as a
        // zombie holding the store open. Idempotent by construction:
        // `kill` on an exited child is a benign error we ignore, and
        // `wait` after the first reap returns the cached exit status,
        // so any number of repeat calls stay `Ok`.
        let _ = self.child.kill();
        self.child.wait()?;
        self.pull_artifacts();
        Ok(())
    }
}

/// Exponential-backoff schedule for relaunching a failed shard.
///
/// The `n`-th relaunch of a shard waits `base · factor^(n-1)`, capped
/// at `max`, then scaled by a factor in `[1, 1 + jitter)` drawn from a
/// hash of the shard spec and attempt number — deterministic (a chaos
/// schedule replays exactly) yet de-synchronized (a fleet of legs that
/// died together does not relaunch in lockstep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first relaunch.
    pub base: Duration,
    /// Multiplier per additional prior attempt.
    pub factor: f64,
    /// Ceiling on the un-jittered delay.
    pub max: Duration,
    /// Jitter fraction added on top of the capped delay.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    /// 500 ms base, doubling, 30 s cap, 25 % jitter.
    fn default() -> Self {
        Self {
            base: Duration::from_millis(500),
            factor: 2.0,
            max: Duration::from_secs(30),
            jitter: 0.25,
        }
    }
}

impl BackoffPolicy {
    /// Delay before the next launch of `spec` when `prior_attempts`
    /// launches have already been consumed. The first launch
    /// (`prior_attempts == 0`) is always immediate.
    pub fn delay(&self, prior_attempts: u32, spec: ShardSpec) -> Duration {
        if prior_attempts == 0 || self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = (prior_attempts - 1).min(20) as i32;
        let capped = (self.base.as_secs_f64() * self.factor.powi(exp)).min(self.max.as_secs_f64());
        let h = fnv1a64(format!("{spec}#{prior_attempts}").as_bytes());
        let unit = (h % 1024) as f64 / 1024.0;
        Duration::from_secs_f64(capped * (1.0 + self.jitter * unit))
    }
}

impl std::str::FromStr for BackoffPolicy {
    type Err = String;

    /// Parses `BASE_MS:FACTOR:MAX_MS` (e.g. `500:2:30000`); the jitter
    /// fraction keeps its default.
    fn from_str(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [base, factor, max] = parts.as_slice() else {
            return Err(format!("backoff spec '{s}' must be BASE_MS:FACTOR:MAX_MS"));
        };
        let base_ms: u64 = base
            .parse()
            .map_err(|_| format!("bad backoff base '{base}' (milliseconds)"))?;
        let factor: f64 = factor
            .parse()
            .map_err(|_| format!("bad backoff factor '{factor}'"))?;
        let max_ms: u64 = max
            .parse()
            .map_err(|_| format!("bad backoff max '{max}' (milliseconds)"))?;
        if factor.is_nan() || factor < 1.0 {
            return Err(format!("backoff factor must be >= 1, got {factor}"));
        }
        Ok(Self {
            base: Duration::from_millis(base_ms),
            factor,
            max: Duration::from_millis(max_ms),
            ..Self::default()
        })
    }
}

/// [`Launcher`] backend that starts each leg through a command
/// template: a whitespace-split argv in which `{host}` becomes the next
/// host of [`with_hosts`](Self::with_hosts) (round-robin) and `{cmd}`
/// one shell-quoted string that changes into the working directory,
/// exports the chaos environment when a seed is armed, and runs the
/// figure binary with `--shard i/n[:j/m]` appended. `ssh {host} {cmd}`
/// is the remote template; `sh -c {cmd}` drives the same path locally.
/// An optional *pull template* (same `{host}`) runs once per leg after
/// it exits or is killed, to fetch its artifacts before the merge.
#[derive(Debug)]
pub struct CommandLauncher {
    template: Vec<String>,
    hosts: Vec<String>,
    next_host: AtomicUsize,
    pull: Vec<String>,
    bin: String,
    work_dir: PathBuf,
    args: Vec<String>,
    chaos_seed: Option<u64>,
}

impl CommandLauncher {
    /// A launcher running `template` per leg, where the leg command
    /// `cd`s into `work_dir` and executes `bin`.
    pub fn new(template: &str, bin: impl Into<String>, work_dir: impl Into<PathBuf>) -> Self {
        Self {
            template: template.split_whitespace().map(str::to_string).collect(),
            hosts: Vec::new(),
            next_host: AtomicUsize::new(0),
            pull: Vec::new(),
            bin: bin.into(),
            work_dir: work_dir.into(),
            args: Vec::new(),
            chaos_seed: None,
        }
    }

    /// Comma-separated host pool substituted into `{host}` round-robin.
    pub fn with_hosts(mut self, hosts: &str) -> Self {
        self.hosts = hosts
            .split(',')
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(str::to_string)
            .collect();
        self
    }

    /// Pull-back template run after a leg exits or is killed
    /// (`rsync {host}:path path`-shaped; `{host}` is substituted).
    pub fn with_pull(mut self, template: &str) -> Self {
        self.pull = template.split_whitespace().map(str::to_string).collect();
        self
    }

    /// Extra arguments passed to every leg before `--shard`.
    pub fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.args = args.into_iter().collect();
        self
    }

    /// Arms every leg's failpoints with this chaos seed through the
    /// command's environment prefix.
    pub fn with_chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    fn next_host(&self) -> String {
        if self.hosts.is_empty() {
            return String::new();
        }
        let i = self.next_host.fetch_add(1, Ordering::Relaxed);
        self.hosts[i % self.hosts.len()].clone()
    }

    /// The single shell command a leg runs remotely: working directory,
    /// chaos environment, binary, arguments, shard spec.
    fn leg_command(&self, spec: ShardSpec, attempt: u32) -> String {
        let mut cmd = format!(
            "cd {} &&",
            shell_quote(&self.work_dir.display().to_string())
        );
        if let Some(seed) = self.chaos_seed {
            cmd.push_str(&format!(
                " {}={seed} {}={attempt}",
                failpoint::SEED_ENV,
                failpoint::ATTEMPT_ENV
            ));
        }
        cmd.push(' ');
        cmd.push_str(&shell_quote(&self.bin));
        for arg in &self.args {
            cmd.push(' ');
            cmd.push_str(&shell_quote(arg));
        }
        cmd.push_str(" --shard ");
        cmd.push_str(&shell_quote(&spec.to_string()));
        cmd
    }
}

/// Substitutes `{host}` and `{cmd}` into a whitespace-split template.
fn expand_template(template: &[String], host: &str, cmd: Option<&str>) -> Vec<String> {
    template
        .iter()
        .map(|tok| {
            tok.replace("{host}", host)
                .replace("{cmd}", cmd.unwrap_or(""))
        })
        .collect()
}

/// Quotes `s` for POSIX `sh`: plain tokens pass through, anything else
/// is wrapped in single quotes with embedded quotes escaped.
fn shell_quote(s: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "-_./=:@,".contains(c);
    if !s.is_empty() && s.chars().all(plain) {
        return s.to_string();
    }
    format!("'{}'", s.replace('\'', r"'\''"))
}

impl Launcher for CommandLauncher {
    fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
        if self.template.is_empty() {
            return Err(invalid("empty launch template"));
        }
        // For local transports (`sh -c {cmd}`) the work dir must exist
        // before the cd; for remote ones creating it here is harmless.
        fs::create_dir_all(&self.work_dir)?;
        let host = self.next_host();
        let cmd = self.leg_command(spec, attempt);
        let argv = expand_template(&self.template, &host, Some(&cmd));
        // lint: allow(no-unwrap, infallible: expand_template always emits at least the program token and emptiness is rejected above)
        let (program, rest) = argv.split_first().expect("checked non-empty");
        let child = Command::new(program)
            .args(rest)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pull = if self.pull.is_empty() {
            None
        } else {
            Some(expand_template(&self.pull, &host, None))
        };
        Ok(Box::new(ProcessLeg { child, pull }))
    }
}

/// Knobs of one [`dispatch`] run.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Campaign name (the store/manifest file stem, e.g. `fig6`).
    pub name: String,
    /// Shard count: legs `0/n .. (n-1)/n`. `1` is a supervised
    /// single-host run whose merge only canonicalizes.
    pub legs: u32,
    /// The campaign directory the legs write into and the merge lands
    /// in (for [`LocalLauncher`], its [`store_dir`](LocalLauncher::store_dir)).
    pub dir: PathBuf,
    /// Relaunch dead or stalled legs over their surviving store; off,
    /// any leg failure aborts the dispatch.
    pub steal: bool,
    /// Launches per shard (first + rescues); a shard that uses them up
    /// is abandoned and the survivors merge into a partial manifest.
    pub max_attempts: u32,
    /// Delay schedule of a shard's relaunches.
    pub backoff: BackoffPolicy,
    /// Split a dead shard's store into slices resumed in parallel when
    /// two or more slots are idle, instead of a 1-for-1 rescue.
    pub reshard: bool,
    /// Kill a running leg whose heartbeat has not moved for this long
    /// (`None`: legs only fail by exiting non-zero). The timeout doubles
    /// for a shard after each stall kill, since the heartbeat is
    /// chunk-granular and late chunks run long; size it generously.
    pub stall_timeout: Option<Duration>,
    /// Write the dispatcher's event log ([`dispatch_events_file`] in
    /// `dir`); its counters and gauges are recorded regardless.
    pub telemetry: bool,
}

impl DispatchConfig {
    /// A config with the production defaults: steal on, re-sharding on,
    /// 3 attempts per shard, default backoff, 10-minute stall timeout,
    /// no event log.
    pub fn new(name: impl Into<String>, legs: u32, dir: impl Into<PathBuf>) -> Self {
        Self {
            name: name.into(),
            legs,
            dir: dir.into(),
            steal: true,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            reshard: true,
            stall_timeout: Some(Duration::from_secs(600)),
            telemetry: false,
        }
    }
}

/// File name of the dispatcher's own event log — distinct from the leg
/// event logs ([`shard::events_file`]) so a 1-leg campaign's unsuffixed
/// log is never clobbered by its supervisor.
pub fn dispatch_events_file(name: &str) -> String {
    format!("{name}.dispatch.telemetry.jsonl")
}

/// Outcome of a [`dispatch`] run.
#[derive(Debug)]
pub struct DispatchReport {
    /// Shard count dispatched.
    pub legs: u32,
    /// Legs started in total (first launches + rescues; refused
    /// launches excluded).
    pub launched: u32,
    /// Shards that needed a rescue leg, in rescue order (a repeat is a
    /// repeated rescue).
    pub rescued: Vec<ShardSpec>,
    /// Shards whose leg was stall-killed by the heartbeat monitor.
    pub stalled: Vec<ShardSpec>,
    /// Shards split into slices after a failure.
    pub resharded: Vec<ShardSpec>,
    /// Shards or slices that used up their launch attempts; their
    /// points are missing from the partial merge.
    pub abandoned: Vec<ShardSpec>,
    /// The final merge (partial when shards were abandoned — see
    /// [`MergeReport::missing_points`]).
    pub merge: MergeReport,
    /// Post-merge consistency proof.
    pub verify: VerifyReport,
}

fn spec_list<T: ToString>(items: &[T]) -> String {
    items
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

impl DispatchReport {
    /// Human-readable summary (what `campaign-dispatch` prints).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "dispatched {} legs ({} launches, {} rescued, {} stall-killed): \
             {} points, {} chunks merged\n",
            self.legs,
            self.launched,
            self.rescued.len(),
            self.stalled.len(),
            self.merge.points,
            self.merge.chunks,
        );
        if self.merge.store_served_chunks > 0 {
            out.push_str(&format!(
                "  {} chunk executions ({} packets) were resumed from shard stores \
                 (stolen work, not re-simulated)\n",
                self.merge.store_served_chunks, self.merge.store_served_packets
            ));
        }
        if !self.resharded.is_empty() {
            out.push_str(&format!(
                "  {} dead shard(s) re-split into slices across idle slots: {}\n",
                self.resharded.len(),
                spec_list(&self.resharded),
            ));
        }
        if !self.abandoned.is_empty() {
            out.push_str(&format!(
                "  WARNING: {} shard(s) abandoned after exhausting launch attempts ({}); \
                 merged manifest is PARTIAL — {} point(s) missing{}\n",
                self.abandoned.len(),
                spec_list(&self.abandoned),
                self.merge.missing_points_total,
                if self.merge.missing_points.is_empty() {
                    String::new()
                } else {
                    format!(" (indices {})", spec_list(&self.merge.missing_points))
                },
            ));
        }
        out.push_str(&format!(
            "  store:    {}\n  manifest: {}\n",
            self.merge.store_path.display(),
            self.merge.manifest_path.display(),
        ));
        out
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A leg's heartbeat: its live-snapshot `seq` (bumped once per
/// scheduling round), then the (size, mtime) of its store, under both
/// backend names, and its manifest: the second signal (an append lands
/// mid-round) and the only one for legs without telemetry.
type Heartbeat = (Option<u64>, [Option<(u64, SystemTime)>; 3]);

fn heartbeat(dir: &Path, name: &str, spec: ShardSpec) -> Heartbeat {
    let snapshot = LiveSnapshot::read(&dir.join(shard::telemetry_file(name, spec)));
    let stat = |file: String| {
        let meta = fs::metadata(dir.join(file)).ok()?;
        Some((meta.len(), meta.modified().ok()?))
    };
    let files = [
        stat(shard::store_file(name, spec, BackendKind::Jsonl)),
        stat(shard::store_file(name, spec, BackendKind::Indexed)),
        stat(shard::manifest_file(name, spec)),
    ];
    (snapshot.map(|s| s.seq), files)
}

/// Whether a finished leg left a manifest for the campaign and shard it
/// was launched for; an exit-0 leg without one lied.
fn leg_manifest_ok(dir: &Path, name: &str, spec: ShardSpec) -> bool {
    let path = dir.join(shard::manifest_file(name, spec));
    super::Manifest::read(&path).is_ok_and(|m| m.name == name && m.settings.shard == spec)
}

/// Poll cadence of the driver loop.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The shards to merge, and whether the merge is partial.
type MergeList = (Vec<ShardSpec>, bool);

/// The I/O half of a dispatch: the legs, the event log and the clock
/// that the [`Dispatcher`] decides over.
struct Driver<'a> {
    cfg: &'a DispatchConfig,
    launcher: &'a dyn Launcher,
    events: Option<EventLog>,
    machine: Dispatcher,
    /// Running legs and the heartbeat last seen of each.
    legs: Vec<(ShardSpec, Box<dyn Leg>, Heartbeat)>,
    started: Instant,
}

impl Driver<'_> {
    /// Feeds `event` to the core and carries out the actions it yields,
    /// feeding back what launches and splits return, until the core
    /// asks for a merge or nothing is left to do.
    fn feed(&mut self, event: Event) -> io::Result<Option<MergeList>> {
        let (cfg, events) = (self.cfg, self.events.as_ref());
        // A stack, so the actions answering a launch or split run before
        // the rest of the batch: a launch refused with stealing off
        // aborts before the next launch starts.
        let mut stack = self.machine.step(event, self.started.elapsed());
        stack.reverse();
        while let Some(action) = stack.pop() {
            let reply = match &action {
                &Action::Launch(spec, attempt) => {
                    // The launch-io failpoint sits above the trait, so
                    // every backend takes the path of a refused launch.
                    let ctx = spec.to_string();
                    let launched = if failpoint::should_fire_attempt(Site::LaunchIo, &ctx, attempt)
                    {
                        Err(io::Error::new(
                            io::ErrorKind::ConnectionRefused,
                            format!("failpoint launch-io (shard {spec}, attempt {attempt})"),
                        ))
                    } else {
                        self.launcher.launch(spec, attempt)
                    };
                    match launched {
                        Ok(leg) => {
                            record(events, &action);
                            self.legs
                                .push((spec, leg, heartbeat(&cfg.dir, &cfg.name, spec)));
                            None
                        }
                        Err(e) => Some(Event::LaunchFailed(spec, e.to_string())),
                    }
                }
                Action::Kill(spec) => {
                    if let Some(i) = self.legs.iter().position(|l| l.0 == *spec) {
                        let _ = self.legs.remove(i).1.kill();
                        telemetry::gauge_add(Gauge::LegsRunning, -1);
                    }
                    None
                }
                &Action::Split(spec, slices) => {
                    let split =
                        shard::partition_store_into_slices(&cfg.name, &cfg.dir, spec, slices)
                            .map_err(|e| {
                                eprintln!("dispatch {}: re-shard of {spec} failed: {e}", cfg.name)
                            });
                    Some(Event::Split(spec, split.ok()))
                }
                Action::Merge(completed, partial) => {
                    return Ok(Some((completed.clone(), *partial)))
                }
                Action::Abort(why) => return Err(io::Error::other(why.clone())),
                Action::Record(_) => {
                    record(events, &action);
                    None
                }
            };
            if let Some(event) = reply {
                let answer = self.machine.step(event, self.started.elapsed());
                stack.extend(answer.into_iter().rev());
            }
        }
        Ok(None)
    }

    /// Polls every leg, feeding exits and progress to the core, then
    /// ticks it.
    fn poll(&mut self) -> io::Result<Option<MergeList>> {
        let (name, dir) = (&self.cfg.name, &self.cfg.dir);
        let mut i = 0;
        while i < self.legs.len() {
            let (spec, leg, beat) = &mut self.legs[i];
            let spec = *spec;
            let event = match leg.poll() {
                Err(e) => {
                    // No leg may outlive a failed dispatch and keep
                    // appending to the stores.
                    telemetry::gauge_add(Gauge::LegsRunning, -(self.legs.len() as i64));
                    for (_, mut leg, _) in self.legs.drain(..) {
                        let _ = leg.kill();
                    }
                    return Err(e);
                }
                Ok(LegStatus::Exited { success }) => {
                    self.legs.remove(i);
                    telemetry::gauge_add(Gauge::LegsRunning, -1);
                    let exit = match success {
                        false => Exit::Failed,
                        true if leg_manifest_ok(dir, name, spec) => Exit::Clean,
                        true => Exit::Lied,
                    };
                    Event::Exited(spec, exit)
                }
                Ok(LegStatus::Running) => {
                    i += 1;
                    // An unreadable snapshot keeps the last seq.
                    let (seq, files) = heartbeat(dir, name, spec);
                    let seen = (seq.or(beat.0), files);
                    if seen == *beat {
                        continue;
                    }
                    *beat = seen;
                    Event::Progress(spec)
                }
            };
            self.feed(event)?;
        }
        self.feed(Event::Tick)
    }
}

/// The counter and event-log line of each action or transition the
/// driver carries out; a launch is recorded once its leg exists.
fn record(events: Option<&EventLog>, action: &Action) {
    let num = |n: u32| Field::U64(u64::from(n));
    let ms = |d: &Duration| Field::U64(d.as_millis() as u64);
    let log = |line: &dyn Fn(&EventLog)| events.into_iter().for_each(line);
    let count = telemetry::counter_add;
    match action {
        Action::Launch(spec, attempt) => {
            count(Counter::LegsLaunched, 1);
            telemetry::gauge_add(Gauge::LegsRunning, 1);
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("leg_launched", &[shard, ("attempt", num(*attempt))]));
        }
        Action::Record(Transition::LaunchFailed(spec, error)) => {
            count(Counter::LaunchFailures, 1);
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("launch_failed", &[shard, ("error", Field::Str(error))]));
        }
        Action::Record(Transition::Done(spec)) => {
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("leg_done", &[shard]));
        }
        Action::Record(Transition::Stalled(spec, limit)) => {
            count(Counter::StallKills, 1);
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("stall_kill", &[shard, ("timeout_ms", ms(limit))]));
        }
        Action::Record(Transition::Rescue(spec, why, backoff)) => {
            count(Counter::RescueAttempts, 1);
            count(Counter::BackoffWaits, u64::from(!backoff.is_zero()));
            let fields = [("why", Field::Str(why)), ("backoff_ms", ms(backoff))];
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("rescue", &[shard, fields[0], fields[1]]));
        }
        Action::Record(Transition::Reshard(spec, why, slices, delayed)) => {
            count(Counter::ReshardSplits, 1);
            count(Counter::BackoffWaits, u64::from(*delayed));
            let fields = [("slices", num(*slices)), ("why", Field::Str(why))];
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("reshard", &[shard, fields[0], fields[1]]));
        }
        Action::Record(Transition::Abandon(spec, why, attempts)) => {
            count(Counter::ShardsAbandoned, 1);
            let fields = [("attempts", num(*attempts)), ("why", Field::Str(why))];
            let shard = ("shard", Field::Str(&spec.to_string()));
            log(&|l| l.emit("abandon", &[shard, fields[0], fields[1]]));
        }
        Action::Kill(_) | Action::Split(..) | Action::Merge(..) | Action::Abort(_) => {}
    }
}

/// Runs a full dispatched campaign (see the [module docs](self)). On
/// success the merged store/manifest pair of [`DispatchConfig::name`]
/// is in [`DispatchConfig::dir`], the manifest byte-identical to a
/// single-host run at the same settings.
pub fn dispatch(cfg: &DispatchConfig, launcher: &dyn Launcher) -> io::Result<DispatchReport> {
    let machine = Dispatcher::new(cfg).map_err(invalid)?;
    fs::create_dir_all(&cfg.dir)?;
    // Pre-flight: leftovers of a differently-sharded run would poison
    // the merge with mixed `of-N` families, so refuse before any
    // compute. A killed leg leaves only its store, so stores count.
    // Same-family files are what a `--steal` re-dispatch resumes.
    for entry in fs::read_dir(&cfg.dir)? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some(spec) = file_name
            .to_str()
            .and_then(|f| shard::artifact_shard_spec(&cfg.name, f))
        else {
            continue;
        };
        if spec.count != cfg.legs {
            return Err(invalid(format!(
                "{}: leftover shard artifact of a {}-leg run; this dispatch uses \
                 {} legs — delete the stale family or dispatch with --legs {}",
                entry.path().display(),
                spec.count,
                cfg.legs,
                spec.count,
            )));
        }
    }

    // The dispatcher's own event log is opt-in; failing to create it
    // degrades to an unlogged dispatch.
    let events = cfg.telemetry.then(|| {
        EventLog::create(&cfg.dir.join(dispatch_events_file(&cfg.name)))
            .map_err(|e| eprintln!("dispatch {}: event log create failed: {e}", cfg.name))
    });
    let mut driver = Driver {
        cfg,
        launcher,
        events: events.and_then(Result::ok),
        machine,
        legs: Vec::new(),
        started: Instant::now(),
    };
    let mut next = driver.feed(Event::Tick)?;
    let (completed, partial) = loop {
        if let Some(merge) = next {
            break merge;
        }
        std::thread::sleep(POLL_INTERVAL);
        next = driver.poll()?;
    };

    // Merge only the completed legs (the directory can hold leftovers
    // of abandoned shards); a 1-leg dispatch canonicalizes in place.
    let manifests: Vec<PathBuf> = completed
        .iter()
        .map(|&spec| cfg.dir.join(shard::manifest_file(&cfg.name, spec)))
        .collect();
    let merge = shard::merge_manifests_allowing_partial(&cfg.name, &manifests, &cfg.dir, partial)?;
    let m = driver.machine;
    if let Some(log) = driver.events.as_ref() {
        // Merge provenance: how much of the merged chunk set was
        // resumed from stores rather than simulated.
        let n = |x: usize| Field::U64(x as u64);
        let fields = [
            ("shards", n(merge.shards)),
            ("points", n(merge.points)),
            ("chunks", n(merge.chunks)),
            ("duplicate_chunks", n(merge.duplicate_chunks)),
            ("store_served_chunks", Field::U64(merge.store_served_chunks)),
            (
                "store_served_packets",
                Field::U64(merge.store_served_packets),
            ),
            ("rescued", n(m.rescued.len())),
            ("stalled", n(m.stalled.len())),
            ("resharded", n(m.resharded.len())),
            ("abandoned", n(m.abandoned.len())),
            ("missing_points", Field::U64(merge.missing_points_total)),
        ];
        log.emit("merge", &fields);
    }
    let verify = shard::verify(&cfg.name, &cfg.dir, ShardSpec::single())?;
    if !verify.ok() {
        return Err(invalid(format!(
            "merged campaign '{}' fails verification: {}",
            cfg.name,
            verify.problems.join("; ")
        )));
    }
    Ok(DispatchReport {
        legs: cfg.legs,
        launched: m.launched,
        rescued: m.rescued,
        stalled: m.stalled,
        resharded: m.resharded,
        abandoned: m.abandoned,
        merge,
        verify,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::manifest::{Manifest, PointRecord};
    use crate::campaign::store::{self, ChunkId};
    use crate::campaign::CampaignSettings;
    use hspa_phy::harq::HarqStats;
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};

    const NAME: &str = "mock";

    const NO_BACKOFF: BackoffPolicy = BackoffPolicy {
        base: Duration::ZERO,
        factor: 1.0,
        max: Duration::ZERO,
        jitter: 0.0,
    };

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dispatch-test-{}-{tag}", std::process::id()))
    }

    fn tiny_config(tag: &str, legs: u32) -> DispatchConfig {
        let dir = temp_dir(tag);
        let _ = fs::remove_dir_all(&dir);
        DispatchConfig {
            stall_timeout: None,
            // Tests script exact launch sequences; immediate relaunches
            // and 1-for-1 rescues keep them deterministic. Backoff and
            // re-sharding have dedicated tests.
            backoff: NO_BACKOFF,
            reshard: false,
            ..DispatchConfig::new(NAME, legs, dir)
        }
    }

    /// Writes the artifacts a healthy leg of `spec` would leave: a
    /// 2-point campaign (keys 0 and 1) with one 4-packet chunk per
    /// owned point, each manifest record derived from its chunk by the
    /// controller's replay.
    fn write_leg_artifacts(dir: &Path, spec: ShardSpec) {
        let settings = CampaignSettings {
            shard: spec,
            ..Default::default()
        };
        let mut m = Manifest::new(NAME, settings);
        m.points_enumerated = 2;
        let mut records = Vec::new();
        for key in [0u64, 1] {
            if !spec.owns(key) {
                continue;
            }
            let stats = HarqStats {
                packets: 4,
                delivered: 4,
                transmissions: 4,
                info_bits: 100,
                failures_at: vec![0; 4],
            };
            let replay = settings
                .replay(4, |first, len| {
                    ((first, len) == (0, 4)).then(|| stats.clone())
                })
                .unwrap();
            let (label, tier) = (format!("p{key}"), hspa_phy::turbo::AccuracyTier::Exact);
            let record = PointRecord::new(key, key, &label, 1.0, 4, tier, &settings, &replay);
            m.points.push(record);
            let chunk = ChunkId {
                point: key,
                first_packet: 0,
                n_packets: 4,
            };
            records.push((chunk, stats));
        }
        fs::create_dir_all(dir).unwrap();
        store::write_records(
            &dir.join(shard::store_file(NAME, spec, BackendKind::Jsonl)),
            &records,
        )
        .unwrap();
        m.write(&dir.join(shard::manifest_file(NAME, spec)))
            .unwrap();
    }

    /// What a scripted mock leg does when polled.
    #[derive(Clone, Copy)]
    enum Behavior {
        /// The launch itself fails with an I/O error (no leg exists).
        LaunchFail,
        /// Write valid artifacts, exit 0.
        Complete,
        /// Exit non-zero without artifacts.
        Fail,
        /// Exit 0 without writing anything (dispatcher must distrust).
        LieAboutSuccess,
    }

    struct MockLeg {
        spec: ShardSpec,
        dir: PathBuf,
        behavior: Behavior,
    }

    impl Leg for MockLeg {
        fn poll(&mut self) -> io::Result<LegStatus> {
            Ok(match self.behavior {
                Behavior::LaunchFail => unreachable!("a failed launch never yields a leg"),
                Behavior::Complete => {
                    write_leg_artifacts(&self.dir, self.spec);
                    LegStatus::Exited { success: true }
                }
                Behavior::Fail => LegStatus::Exited { success: false },
                Behavior::LieAboutSuccess => LegStatus::Exited { success: true },
            })
        }

        fn kill(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Scripted launcher: each shard spec (rendered, e.g. `"1/2"` or
    /// `"1/2:0/2"`) pops its next behavior (defaulting to `Complete`),
    /// so tests can fail the first attempt and succeed the rescue.
    struct MockLauncher {
        dir: PathBuf,
        plans: RefCell<HashMap<String, VecDeque<Behavior>>>,
        launches: RefCell<Vec<(ShardSpec, u32)>>,
    }

    impl MockLauncher {
        fn new(dir: &Path, plans: &[(&str, &[Behavior])]) -> Self {
            Self {
                dir: dir.to_path_buf(),
                plans: RefCell::new(
                    plans
                        .iter()
                        .map(|(spec, b)| (spec.to_string(), b.iter().copied().collect()))
                        .collect(),
                ),
                launches: RefCell::new(Vec::new()),
            }
        }
    }

    impl Launcher for MockLauncher {
        fn launch(&self, spec: ShardSpec, attempt: u32) -> io::Result<Box<dyn Leg>> {
            self.launches.borrow_mut().push((spec, attempt));
            let behavior = self
                .plans
                .borrow_mut()
                .get_mut(&spec.to_string())
                .and_then(VecDeque::pop_front)
                .unwrap_or(Behavior::Complete);
            if let Behavior::LaunchFail = behavior {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "mock launch refused",
                ));
            }
            Ok(Box::new(MockLeg {
                spec,
                dir: self.dir.clone(),
                behavior,
            }))
        }
    }

    #[test]
    fn healthy_legs_merge_and_verify() {
        let cfg = tiny_config("healthy", 2);
        let launcher = MockLauncher::new(&cfg.dir, &[]);
        let report = dispatch(&cfg, &launcher).expect("dispatch succeeds");
        assert_eq!(report.launched, 2);
        assert!(report.rescued.is_empty() && report.stalled.is_empty());
        assert_eq!(report.merge.points, 2);
        assert!(report.verify.ok());
        assert!(cfg.dir.join("mock.manifest.json").exists());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn lying_success_without_manifest_is_rescued() {
        let cfg = tiny_config("liar", 2);
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[("0/2", &[Behavior::LieAboutSuccess, Behavior::Complete])],
        );
        let report = dispatch(&cfg, &launcher).expect("manifest check catches the lie");
        assert_eq!(report.rescued, vec![ShardSpec::new(0, 2).unwrap()]);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn dispatcher_event_log_records_lifecycle() {
        let cfg = DispatchConfig {
            telemetry: true,
            ..tiny_config("events", 2)
        };
        let launcher =
            MockLauncher::new(&cfg.dir, &[("1/2", &[Behavior::Fail, Behavior::Complete])]);
        dispatch(&cfg, &launcher).expect("dispatch succeeds");
        let log = fs::read_to_string(cfg.dir.join(dispatch_events_file(NAME))).unwrap();
        for needle in ["leg_launched", "rescue", "leg_done", "\"event\": \"merge\""] {
            assert!(log.contains(needle), "missing {needle} in:\n{log}");
        }
        // Every line is a parseable flat JSON object with a seq field.
        for line in log.lines() {
            assert!(line.starts_with("{\"seq\": "), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn exhausted_shard_is_abandoned_into_a_partial_merge() {
        let cfg = DispatchConfig {
            max_attempts: 2,
            ..tiny_config("cap", 2)
        };
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[("1/2", &[Behavior::Fail, Behavior::Fail, Behavior::Fail])],
        );
        let report = dispatch(&cfg, &launcher).expect("survivors still merge");
        assert_eq!(
            launcher.launches.borrow().len(),
            3,
            "2 attempts for shard 1, then abandonment — never a third"
        );
        assert_eq!(report.abandoned, vec![ShardSpec::new(1, 2).unwrap()]);
        assert_eq!(
            report.merge.missing_points,
            vec![1],
            "the dead shard's point is reported missing"
        );
        assert_eq!(report.merge.points, 1);
        assert!(report.verify.ok(), "partial merge still verifies");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn dead_shard_is_resharded_across_idle_slots() {
        // Shard 0 completes on its first poll, so when shard 1 dies
        // both slots are idle — instead of a 1-for-1 rescue the shard
        // is split into two slices that resume in parallel, and the
        // merge of shard 0 + both slices covers every point.
        let cfg = DispatchConfig {
            reshard: true,
            ..tiny_config("reshard", 2)
        };
        let launcher = MockLauncher::new(&cfg.dir, &[("1/2", &[Behavior::Fail])]);
        let report = dispatch(&cfg, &launcher).expect("slices finish the dead shard");
        let parent = ShardSpec::new(1, 2).unwrap();
        assert_eq!(report.resharded, vec![parent]);
        assert!(report.abandoned.is_empty());
        let slice_launches: Vec<ShardSpec> = launcher
            .launches
            .borrow()
            .iter()
            .map(|&(spec, _)| spec)
            .filter(|spec| spec.slice.is_some())
            .collect();
        assert_eq!(
            slice_launches,
            vec![
                parent.slice_of(0, 2).unwrap(),
                parent.slice_of(1, 2).unwrap()
            ],
            "both slices launched"
        );
        assert_eq!(report.merge.points, 2, "no point lost in the split");
        assert!(report.merge.missing_points.is_empty());
        assert!(report.verify.ok());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn refused_launch_without_steal_starts_no_further_leg() {
        // The core answers the refusal with an abort before the rest of
        // the launch batch runs, so shard 1 never starts.
        let cfg = DispatchConfig {
            steal: false,
            ..tiny_config("refused", 2)
        };
        let launcher = MockLauncher::new(&cfg.dir, &[("0/2", &[Behavior::LaunchFail])]);
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(err.to_string().contains("failed to launch"), "{err}");
        assert_eq!(
            *launcher.launches.borrow(),
            vec![(ShardSpec::new(0, 2).unwrap(), 1)]
        );
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn heartbeat_moves_with_the_snapshot_seq_alone() {
        // A leg deep inside a chunk touches no store or manifest, but
        // its live snapshot's seq still shows it alive.
        let dir = temp_dir("heartbeat");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = ShardSpec::new(0, 2).unwrap();
        let before = heartbeat(&dir, NAME, spec);
        let snapshot = LiveSnapshot {
            seq: 1,
            ..Default::default()
        };
        snapshot
            .write_atomic(&dir.join(shard::telemetry_file(NAME, spec)))
            .unwrap();
        let after = heartbeat(&dir, NAME, spec);
        assert_eq!((before.0, after.0), (None, Some(1)));
        assert_eq!(before.1, after.1, "no artifact was touched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn process_leg_kill_is_idempotent() {
        let child = Command::new("sh")
            .args(["-c", "sleep 5"])
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let mut leg = ProcessLeg { child, pull: None };
        leg.kill().expect("first kill reaps the child");
        leg.kill()
            .expect("second kill is a no-op on the reaped child");
        assert!(matches!(
            leg.poll().unwrap(),
            LegStatus::Exited { success: false }
        ));
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let policy = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        let spec = ShardSpec::new(0, 2).unwrap();
        assert_eq!(
            policy.delay(0, spec),
            Duration::ZERO,
            "first launch is immediate"
        );
        assert_eq!(policy.delay(1, spec), Duration::from_millis(500));
        assert_eq!(policy.delay(2, spec), Duration::from_millis(1000));
        assert_eq!(policy.delay(3, spec), Duration::from_millis(2000));
        assert_eq!(policy.delay(10, spec), Duration::from_secs(30), "capped");
        assert_eq!(NO_BACKOFF.delay(5, spec), Duration::ZERO);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let policy = BackoffPolicy::default();
        let spec = ShardSpec::new(1, 2).unwrap();
        for tries in 1..6u32 {
            let delay = policy.delay(tries, spec);
            assert_eq!(delay, policy.delay(tries, spec), "same inputs replay");
            let capped = (policy.base.as_secs_f64() * policy.factor.powi(tries as i32 - 1))
                .min(policy.max.as_secs_f64());
            let secs = delay.as_secs_f64();
            assert!(
                secs >= capped - 1e-9 && secs < capped * (1.0 + policy.jitter) + 1e-9,
                "attempt {tries}: {secs}s outside [{capped}, {})",
                capped * (1.0 + policy.jitter)
            );
        }
    }

    #[test]
    fn backoff_specs_parse() {
        let policy: BackoffPolicy = "250:3:9000".parse().unwrap();
        assert_eq!(policy.base, Duration::from_millis(250));
        assert_eq!(policy.factor, 3.0);
        assert_eq!(policy.max, Duration::from_millis(9000));
        assert_eq!(policy.jitter, BackoffPolicy::default().jitter);
        for bad in ["250:3", "a:2:100", "100:0.5:1000", "100:nan:1000", ""] {
            assert!(bad.parse::<BackoffPolicy>().is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn command_launcher_builds_quoted_remote_commands() {
        let launcher = CommandLauncher::new("ssh {host} {cmd}", "./fig6a", "/tmp/it's here")
            .with_hosts("alpha, beta")
            .with_args(["--precision".to_string(), "0.2".to_string()])
            .with_chaos_seed(7);
        let spec = ShardSpec::new(1, 2).unwrap();
        assert_eq!(
            launcher.leg_command(spec, 3),
            "cd '/tmp/it'\\''s here' && RESILIENCE_CHAOS_SEED=7 RESILIENCE_CHAOS_ATTEMPT=3 \
             ./fig6a --precision 0.2 --shard 1/2"
        );
        assert_eq!(launcher.next_host(), "alpha");
        assert_eq!(launcher.next_host(), "beta");
        assert_eq!(launcher.next_host(), "alpha", "hosts round-robin");
        let argv = expand_template(&launcher.template, "alpha", Some("echo hi"));
        assert_eq!(argv, vec!["ssh", "alpha", "echo hi"]);
    }

    #[test]
    fn command_launcher_runs_legs_through_a_shell() {
        let dir = temp_dir("cmd-launch");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let marker = dir.join("pulled");
        let launcher = CommandLauncher::new("sh -c {cmd}", "true", &dir)
            .with_pull(&format!("touch {}", marker.display()));
        let mut leg = launcher.launch(ShardSpec::single(), 1).unwrap();
        let success = loop {
            match leg.poll().unwrap() {
                LegStatus::Running => std::thread::yield_now(),
                LegStatus::Exited { success } => break success,
            }
        };
        assert!(success, "`true --shard 0/1` exits 0");
        assert!(marker.exists(), "pull template ran after exit");
        leg.kill().expect("kill after exit is fine");
        leg.kill().expect("and stays idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_leg_dispatch_canonicalizes_in_place() {
        let cfg = tiny_config("single", 1);
        let launcher = MockLauncher::new(&cfg.dir, &[]);
        let report = dispatch(&cfg, &launcher).expect("degenerate 1-leg dispatch");
        assert_eq!(report.merge.points, 2);
        assert!(report.verify.ok());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn leftover_foreign_family_is_refused_up_front() {
        let cfg = tiny_config("family", 2);
        write_leg_artifacts(&cfg.dir, ShardSpec::new(0, 3).unwrap());
        let launcher = MockLauncher::new(&cfg.dir, &[]);
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(err.to_string().contains("leftover shard artifact"), "{err}");
        assert!(launcher.launches.borrow().is_empty(), "no leg was started");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn leftover_foreign_store_without_manifest_is_refused_too() {
        // A killed leg leaves only its `.jsonl` (the manifest is
        // written at run end) — a store alone must still mark the
        // stale family.
        let cfg = tiny_config("family-store", 2);
        fs::create_dir_all(&cfg.dir).unwrap();
        let stale = shard::store_file(NAME, ShardSpec::new(1, 3).unwrap(), BackendKind::Jsonl);
        fs::write(cfg.dir.join(stale), "").unwrap();
        let launcher = MockLauncher::new(&cfg.dir, &[]);
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(err.to_string().contains("leftover shard artifact"), "{err}");
        assert!(launcher.launches.borrow().is_empty(), "no leg was started");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn leg_count_is_range_checked() {
        for legs in [0, MAX_LEGS + 1] {
            let cfg = tiny_config(&format!("range-{legs}"), legs);
            let launcher = MockLauncher::new(&cfg.dir, &[]);
            let err = dispatch(&cfg, &launcher).unwrap_err();
            assert!(err.to_string().contains("legs"), "{err}");
            assert!(launcher.launches.borrow().is_empty(), "nothing launched");
        }
    }

    // --- The core on a simulated clock -------------------------------

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn shard(index: u32, count: u32) -> ShardSpec {
        ShardSpec::new(index, count).unwrap()
    }

    fn core(cfg: &DispatchConfig) -> Dispatcher {
        Dispatcher::new(cfg).unwrap()
    }

    fn exited(spec: ShardSpec, exit: Exit) -> Event {
        Event::Exited(spec, exit)
    }

    fn launches(actions: &[Action]) -> Vec<(ShardSpec, u32)> {
        actions
            .iter()
            .filter_map(|a| match *a {
                Action::Launch(spec, attempt) => Some((spec, attempt)),
                _ => None,
            })
            .collect()
    }

    fn kills(actions: &[Action]) -> Vec<ShardSpec> {
        actions
            .iter()
            .filter_map(|a| match *a {
                Action::Kill(spec) => Some(spec),
                _ => None,
            })
            .collect()
    }

    fn abort_reason(actions: &[Action]) -> Option<&str> {
        actions.iter().find_map(|a| match a {
            Action::Abort(why) => Some(why.as_str()),
            _ => None,
        })
    }

    fn merge_all(count: u32, partial: bool) -> Action {
        Action::Merge((0..count).map(|i| shard(i, count)).collect(), partial)
    }

    #[test]
    fn failed_leg_without_steal_aborts() {
        let cfg = DispatchConfig {
            steal: false,
            ..tiny_config("nosteal", 2)
        };
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        let out = m.step(exited(shard(1, 2), Exit::Failed), ms(1));
        let why = abort_reason(&out).expect("the first failure aborts");
        assert!(why.contains("--steal"), "{why}");
    }

    #[test]
    fn unrecoverable_shard_aborts_siblings_immediately() {
        // Leg 0 would run forever; leg 1 fails with stealing off. The
        // dispatch is doomed at that instant: leg 0 is killed in the
        // same step instead of being waited on.
        let cfg = DispatchConfig {
            steal: false,
            ..tiny_config("abort", 2)
        };
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        let out = m.step(exited(shard(1, 2), Exit::Failed), ms(1));
        assert_eq!(kills(&out), vec![shard(0, 2)]);
        let why = abort_reason(&out).expect("abort");
        assert!(why.contains("leg 1/2"), "{why}");
        assert!(m.step(Event::Tick, ms(2)).is_empty(), "nothing after abort");
    }

    #[test]
    fn failed_leg_is_rescued_when_stealing() {
        let cfg = tiny_config("rescue", 2);
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        m.step(exited(shard(0, 2), Exit::Clean), ms(1));
        m.step(exited(shard(1, 2), Exit::Failed), ms(1));
        let out = m.step(Event::Tick, ms(2));
        assert_eq!(launches(&out), vec![(shard(1, 2), 2)]);
        m.step(exited(shard(1, 2), Exit::Clean), ms(3));
        assert_eq!(m.step(Event::Tick, ms(4)), vec![merge_all(2, false)]);
        assert_eq!(m.launched, 3);
        assert_eq!(m.rescued, vec![shard(1, 2)]);
    }

    #[test]
    fn stalled_leg_is_killed_and_rescued() {
        let cfg = DispatchConfig {
            stall_timeout: Some(ms(30)),
            ..tiny_config("stall", 2)
        };
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        m.step(exited(shard(1, 2), Exit::Clean), ms(1));
        assert!(
            kills(&m.step(Event::Tick, ms(30))).is_empty(),
            "30 ms is not > 30 ms"
        );
        // Leg 0 hangs: past the timeout it is killed, and the rescue
        // (no backoff) launches in the same tick.
        let out = m.step(Event::Tick, ms(31));
        assert_eq!(kills(&out), vec![shard(0, 2)]);
        assert_eq!(launches(&out), vec![(shard(0, 2), 2)]);
        m.step(exited(shard(0, 2), Exit::Clean), ms(40));
        assert_eq!(m.step(Event::Tick, ms(40)), vec![merge_all(2, false)]);
        assert_eq!(m.stalled, vec![shard(0, 2)]);
        assert_eq!(m.rescued, vec![shard(0, 2)]);
    }

    #[test]
    fn stall_timeout_escalates_for_slow_but_healthy_legs() {
        // The heartbeat is chunk-granular: a leg 40 ms into a long
        // chunk looks stalled at a 25 ms timeout and is killed — but
        // the rescue runs at a doubled (50 ms) timeout and must be
        // allowed to finish instead of looping to the attempt cap.
        let cfg = DispatchConfig {
            stall_timeout: Some(ms(25)),
            ..tiny_config("escalate", 2)
        };
        let spec = shard(0, 2);
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        m.step(exited(shard(1, 2), Exit::Clean), ms(1));
        let mut relaunched = None;
        for t in (5..=100).step_by(5) {
            let out = m.step(Event::Tick, ms(t));
            if !launches(&out).is_empty() {
                relaunched = Some(t);
            }
            // Each leg of shard 0 finishes 40 ms after its launch.
            if relaunched.is_some_and(|r| t - r == 40) {
                m.step(exited(spec, Exit::Clean), ms(t));
                break;
            }
        }
        assert_eq!(relaunched, Some(30), "first leg killed after 25 ms");
        assert_eq!(m.step(Event::Tick, ms(70)), vec![merge_all(2, false)]);
        assert_eq!(m.stalled, vec![spec], "exactly one stall-kill");
        assert_eq!(m.rescued, vec![spec]);
    }

    #[test]
    fn snapshot_seq_heartbeat_counts_as_progress() {
        // The leg never touches store or manifest for 80 ms — far past
        // the 25 ms stall timeout — but its live-snapshot seq advances
        // every 5 ms, which the driver reports as progress. That must
        // keep it alive (without it the leg is stall-killed, as
        // `stall_timeout_escalates_for_slow_but_healthy_legs` shows).
        let cfg = DispatchConfig {
            stall_timeout: Some(ms(25)),
            ..tiny_config("seq-heartbeat", 2)
        };
        let spec = shard(0, 2);
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        m.step(exited(shard(1, 2), Exit::Clean), ms(1));
        for t in (5..80).step_by(5) {
            m.step(Event::Progress(spec), ms(t));
            assert!(
                kills(&m.step(Event::Tick, ms(t))).is_empty(),
                "killed at {t} ms"
            );
        }
        m.step(exited(spec, Exit::Clean), ms(80));
        assert_eq!(m.step(Event::Tick, ms(80)), vec![merge_all(2, false)]);
        assert!(m.stalled.is_empty(), "no stall-kill: {m:?}");
        assert!(m.rescued.is_empty());
    }

    #[test]
    fn all_shards_abandoned_is_an_error() {
        let cfg = DispatchConfig {
            max_attempts: 1,
            ..tiny_config("all-gone", 2)
        };
        let mut m = core(&cfg);
        m.step(Event::Tick, ms(0));
        m.step(exited(shard(0, 2), Exit::Failed), ms(1));
        m.step(exited(shard(1, 2), Exit::Failed), ms(1));
        let out = m.step(Event::Tick, ms(2));
        let why = abort_reason(&out).expect("nothing to merge");
        assert!(why.contains("every shard was abandoned"), "{why}");
        assert_eq!(m.abandoned, vec![shard(0, 2), shard(1, 2)]);
    }

    #[test]
    fn failed_launch_is_retried_not_fatal() {
        let cfg = tiny_config("launch-fail", 2);
        let spec = shard(0, 2);
        let mut m = core(&cfg);
        assert_eq!(
            launches(&m.step(Event::Tick, ms(0))),
            vec![(spec, 1), (shard(1, 2), 1)]
        );
        let error = "mock launch refused".to_string();
        m.step(Event::LaunchFailed(spec, error), ms(0));
        m.step(exited(shard(1, 2), Exit::Clean), ms(1));
        let out = m.step(Event::Tick, ms(1));
        assert_eq!(launches(&out), vec![(spec, 2)], "attempt number counts up");
        m.step(exited(spec, Exit::Clean), ms(2));
        assert_eq!(m.step(Event::Tick, ms(2)), vec![merge_all(2, false)]);
        assert_eq!(m.rescued, vec![spec]);
        assert_eq!(m.launched, 2, "a refused launch never ran");
    }
}
