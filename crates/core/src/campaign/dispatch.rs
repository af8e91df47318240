//! Campaign dispatcher: launches the `--shard i/n` legs of a campaign,
//! watches their liveness, steals work from stragglers, and folds the
//! artifacts back into the single-host files.
//!
//! PR 3's sharding made a multi-host campaign *possible*; running one
//! was still an operator loop — start each `--shard i/n` leg by hand,
//! gather the suffixed files, invoke `campaign-admin merge`, re-run
//! anything that died. [`dispatch`] closes that loop for a pool of legs
//! behind a pluggable [`Launcher`]:
//!
//! 1. **Launch.** One leg per shard spec, `0/n .. (n-1)/n`, through
//!    [`Launcher::launch`]. The in-tree [`LocalLauncher`] spawns this
//!    host's figure binary as child processes; [`CommandLauncher`]
//!    generalizes the same seam to an arbitrary command template —
//!    `ssh {host} {cmd}` fans legs out over a host pool (`sh -c {cmd}`
//!    exercises the identical path locally), with an optional pull
//!    template that fetches remote artifacts back after each leg. A
//!    launch that fails with an I/O error is not fatal: it re-enters
//!    the same attempt accounting and backoff as a dead leg.
//! 2. **Monitor.** Legs are polled for exit and for *progress*: a leg's
//!    primary heartbeat is the monotonic `seq` of its live telemetry
//!    snapshot ([`crate::telemetry::LiveSnapshot`]), which advances once
//!    per scheduling round; when a leg predates telemetry (no snapshot
//!    file), the dispatcher falls back to the (size, mtime) signature of
//!    its shard store and manifest files. A leg that is alive but shows
//!    no progress within the stall timeout is a straggler — it is
//!    killed so its work can be stolen. The heartbeat is chunk-granular
//!    at its finest, so the timeout doubles for a shard after each
//!    stall-kill: a leg that was merely deep inside a long chunk gets
//!    room to finish on its rescue instead of looping to the attempt
//!    cap.
//! 3. **Steal.** When a leg dies (killed, crashed, or stall-killed)
//!    while steal is enabled, the dispatcher immediately relaunches its
//!    shard spec in the freed slot as a *rescue leg*. The rescue leg
//!    resumes the straggler's result store (`--resume` is the campaign
//!    default), so every chunk the straggler already simulated is
//!    served from disk — work is stolen, never redone — and the
//!    deterministic chunk schedule replays the identical ranges before
//!    simulating the remainder. Relaunches wait out a
//!    deterministically-jittered exponential [`BackoffPolicy`] so a
//!    flapping host is not hammered. When two or more dispatch slots
//!    sit idle, a dead shard is *re-sharded* instead of rescued 1-for-1:
//!    its surviving store is partitioned into sub-shard slices
//!    ([`shard::partition_store_into_slices`]) that resume in parallel
//!    across the idle slots. A shard that still fails after
//!    [`DispatchConfig::max_attempts`] launches is **abandoned**, not
//!    allowed to sink the whole dispatch.
//! 4. **Merge + verify.** Once every surviving shard has a clean leg,
//!    the shard merge folds the artifacts into the unsuffixed
//!    store/manifest pair, re-deriving every point's statistics from
//!    the merged store, and [`shard::verify`] proves the store
//!    reproduces the merged manifest. Because the merge normalizes chunk
//!    provenance, the final manifest is **byte-identical** to a
//!    single-host run at the same settings — whether or not any leg was
//!    rescued or re-sharded along the way. If shards were abandoned the
//!    survivors still merge into a *partial* manifest that lists every
//!    finished point and passes verification; the report names the
//!    missing points and `campaign-dispatch` exits non-zero.
//!
//! Determinism makes the self-healing safe: a packet's RNG stream
//! depends only on its absolute position in the seed tree, and stopping
//! decisions are pure functions of merged statistics, so *which* leg
//! (original or rescue) simulated a chunk cannot change any result.

use std::collections::BTreeMap;
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
use crate::failpoint;
use crate::telemetry::{self, Counter, EventLog, Field, Gauge, LiveSnapshot};

/// Largest accepted leg count. Every leg is launched concurrently up
/// front (there is no staggering), so an implausible count — a typo'd
/// `--legs` reaching [`dispatch`] — must error instead of fork-bombing
/// the host or the cluster backend.
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
/// argument list.
///
/// The figure binaries write their campaign artifacts under
/// `target/campaign/` **relative to their working directory**, so the
/// launcher pins each child's working directory: point
/// [`LocalLauncher::store_dir`] at the same place and the dispatcher,
/// the legs and the merge all agree on one campaign directory.
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
        Ok(Box::new(ProcessLeg { child }))
    }
}

/// [`Leg`] over a spawned child process.
struct ProcessLeg {
    child: Child,
}

impl Leg for ProcessLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        Ok(match self.child.try_wait()? {
            None => LegStatus::Running,
            Some(status) => LegStatus::Exited {
                success: status.success(),
            },
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
    /// No waiting at all (unit tests, impatient local reruns).
    pub fn none() -> Self {
        Self {
            base: Duration::ZERO,
            factor: 1.0,
            max: Duration::ZERO,
            jitter: 0.0,
        }
    }

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

/// [`Launcher`] backend that starts each leg through an arbitrary
/// command template — the remote-execution seam, with no new trait
/// impl per transport.
///
/// The template is a whitespace-split argv in which two placeholders
/// are substituted at every launch:
///
/// * `{host}` — the next host of [`with_hosts`](Self::with_hosts),
///   assigned round-robin, so `ssh {host} {cmd}` fans legs out across
///   a pool;
/// * `{cmd}` — one shell-quoted string that changes into the working
///   directory, exports the chaos environment when a seed is armed,
///   and runs the figure binary with `--shard i/n[:j/m]` appended.
///
/// `ssh {host} {cmd}` is the canonical remote template; the test suite
/// uses `sh -c {cmd}` to drive the exact same code path locally. An
/// optional *pull template* (same `{host}` placeholder) runs once per
/// leg after it exits **or** is killed — the hook where a remote
/// backend rsyncs shard artifacts back into the dispatcher's campaign
/// directory before the merge.
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
        Ok(Box::new(CommandLeg { child, pull }))
    }
}

/// [`Leg`] over a templated launch: the child is the transport process
/// (`ssh`, `sh`); the pull template runs exactly once, on exit or kill,
/// to fetch the leg's artifacts.
struct CommandLeg {
    child: Child,
    pull: Option<Vec<String>>,
}

impl CommandLeg {
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

impl Leg for CommandLeg {
    fn poll(&mut self) -> io::Result<LegStatus> {
        Ok(match self.child.try_wait()? {
            None => LegStatus::Running,
            Some(status) => {
                self.pull_artifacts();
                LegStatus::Exited {
                    success: status.success(),
                }
            }
        })
    }

    fn kill(&mut self) -> io::Result<()> {
        let _ = self.child.kill();
        self.child.wait()?;
        self.pull_artifacts();
        Ok(())
    }
}

/// Knobs of one [`dispatch`] run.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Campaign name (the store/manifest file stem, e.g. `fig6`).
    pub name: String,
    /// Shard count: legs `0/n .. (n-1)/n`. `1` degenerates to a
    /// supervised single-host run (no suffixed files; merge only
    /// canonicalizes).
    pub legs: u32,
    /// The campaign directory legs write into and the merged output
    /// lands in (for [`LocalLauncher`], its
    /// [`store_dir`](LocalLauncher::store_dir)).
    pub dir: PathBuf,
    /// Steal work from dead or stalled legs by relaunching their shard
    /// spec over the surviving store. With stealing off, any leg
    /// failure aborts the dispatch.
    pub steal: bool,
    /// Launch attempts per shard (first launch + rescues). The cap
    /// keeps a deterministically-crashing leg from looping forever; a
    /// shard that exhausts it is abandoned and the survivors merge
    /// into a partial manifest instead of aborting the dispatch.
    pub max_attempts: u32,
    /// Relaunch schedule: each retry of a shard waits exponentially
    /// longer (deterministically jittered) before its next launch.
    pub backoff: BackoffPolicy,
    /// Elastic re-sharding: when a shard dies while at least two
    /// dispatch slots are idle and it is not already a slice, split
    /// its surviving store into sub-shard slices resumed in parallel
    /// across those slots instead of a 1-for-1 rescue.
    pub reshard: bool,
    /// Kill a leg whose artifacts have not changed for this long while
    /// it is still running (`None` disables stall detection — a leg
    /// then only fails by exiting non-zero).
    ///
    /// The heartbeat is chunk-granular (a leg only touches its files
    /// when a chunk completes) and late chunks of the doubling schedule
    /// can legitimately run long, so a healthy leg deep inside a big
    /// chunk looks stalled. To keep that from looping a shard to the
    /// attempt cap, the effective timeout **doubles for a shard after
    /// each stall-kill** — a genuinely hung leg is still reaped fast,
    /// while a slow-but-alive one eventually gets room to finish its
    /// chunk. Size the base value generously relative to expected
    /// chunk duration.
    pub stall_timeout: Option<Duration>,
    /// Poll cadence of the monitor loop.
    pub poll_interval: Duration,
    /// Write a dispatcher-side telemetry event log
    /// (`<name>.dispatch.telemetry.jsonl` in [`DispatchConfig::dir`])
    /// recording launches, stall-kills, rescues and merge provenance.
    /// Dispatcher metrics (counters/gauges) are recorded regardless;
    /// this flag only controls the file.
    pub telemetry: bool,
}

impl DispatchConfig {
    /// A config with the production defaults: steal on, 3 attempts per
    /// shard, 10-minute stall timeout, 50 ms polls.
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
            poll_interval: Duration::from_millis(50),
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
    /// Legs launched in total (`legs` + rescues).
    pub launched: u32,
    /// Shard specs that needed a rescue leg, in rescue order (repeats
    /// mean repeated rescues of the same shard).
    pub rescued: Vec<ShardSpec>,
    /// Of those, shards whose leg was stall-killed by the heartbeat
    /// monitor (as opposed to dying on its own).
    pub stalled: Vec<ShardSpec>,
    /// Parent shards that were split into sub-shard slices after a
    /// failure (elastic re-sharding).
    pub resharded: Vec<ShardSpec>,
    /// Shards (or slices) that exhausted their launch attempts; their
    /// unfinished points are missing from the partial merge.
    pub abandoned: Vec<ShardSpec>,
    /// The final merge (partial when shards were abandoned — see
    /// [`MergeReport::missing_points`]).
    pub merge: MergeReport,
    /// Post-merge consistency proof.
    pub verify: VerifyReport,
}

fn spec_list(specs: &[ShardSpec]) -> String {
    specs
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
                    format!(
                        " (indices {})",
                        self.merge
                            .missing_points
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
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

/// The fallback liveness heartbeat of a leg: the (size, mtime)
/// signature of its store and manifest files. Any change counts as
/// progress — a fresh chunk append, a manifest rewrite, even a
/// truncation. The store is watched under **both** backend file names
/// (`.jsonl` and `.seg`) — the dispatcher does not know which
/// `--store-backend` the leg command line carries, and stat'ing a
/// missing file is cheap. Used when a leg predates telemetry (writes
/// no live snapshot); the primary heartbeat is the snapshot's `seq`.
type ArtifactSignature = [Option<(u64, SystemTime)>; 3];

fn artifact_signature(dir: &Path, name: &str, spec: ShardSpec) -> ArtifactSignature {
    let stat = |file: String| {
        let meta = fs::metadata(dir.join(file)).ok()?;
        Some((meta.len(), meta.modified().ok()?))
    };
    [
        stat(shard::store_file(name, spec, BackendKind::Jsonl)),
        stat(shard::store_file(name, spec, BackendKind::Indexed)),
        stat(shard::manifest_file(name, spec)),
    ]
}

/// Whether a finished leg left a usable shard manifest behind: the file
/// must parse and record the campaign + shard it was launched for. An
/// exit-0 leg without one (wrong binary, wrote elsewhere) is treated as
/// failed so it can be rescued — or reported — instead of feeding a
/// confusing merge error.
fn leg_manifest_ok(dir: &Path, name: &str, spec: ShardSpec) -> bool {
    let path = dir.join(shard::manifest_file(name, spec));
    match super::Manifest::read(&path) {
        Ok(m) => m.name == name && m.settings.shard == spec,
        Err(_) => false,
    }
}

/// One leg under supervision.
struct RunningLeg {
    spec: ShardSpec,
    leg: Box<dyn Leg>,
    signature: ArtifactSignature,
    /// Last observed live-snapshot `seq` of the leg (`None` until the
    /// leg writes one — telemetry-less legs stay `None` forever and are
    /// monitored by `signature` alone).
    last_seq: Option<u64>,
    last_progress: Instant,
}

/// Runs a full dispatched campaign: launch, monitor, steal, merge,
/// verify. See the [module docs](self) for the lifecycle. On success
/// the merged, canonicalized store/manifest pair of
/// [`DispatchConfig::name`] is in [`DispatchConfig::dir`], with the
/// manifest byte-identical to a single-host run at the same settings.
pub fn dispatch(cfg: &DispatchConfig, launcher: &dyn Launcher) -> io::Result<DispatchReport> {
    if cfg.legs == 0 || cfg.legs > MAX_LEGS {
        return Err(invalid(format!(
            "dispatch needs 1..={MAX_LEGS} legs, got {}",
            cfg.legs
        )));
    }
    let specs: Vec<ShardSpec> = (0..cfg.legs)
        .map(|i| ShardSpec::new(i, cfg.legs).map_err(invalid))
        .collect::<io::Result<_>>()?;
    fs::create_dir_all(&cfg.dir)?;
    // Pre-flight: leftovers of a differently-sharded run in the same
    // directory would poison the final merge (mixed `of-N` families);
    // refuse before burning any compute. The scan covers stores as
    // well as manifests — a killed leg leaves only its `.jsonl` (the
    // manifest is written at run end), and that alone marks a stale
    // family. Same-family files are fine — they are exactly what a
    // `--steal` re-dispatch resumes from.
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

    // Dispatcher-side event log (opt-in). Creation failure degrades to
    // an unlogged dispatch — supervision must not die for observability.
    let events: Option<EventLog> = if cfg.telemetry {
        match EventLog::create(&cfg.dir.join(dispatch_events_file(&cfg.name))) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("dispatch {}: event log create failed: {e}", cfg.name);
                None
            }
        }
    } else {
        None
    };

    /// A relaunch waiting out its backoff delay.
    struct PendingLaunch {
        spec: ShardSpec,
        not_before: Instant,
    }

    fn launch_leg(
        cfg: &DispatchConfig,
        launcher: &dyn Launcher,
        spec: ShardSpec,
        attempts: &mut BTreeMap<ShardSpec, u32>,
        running: &mut Vec<RunningLeg>,
        launched: &mut u32,
        events: Option<&EventLog>,
    ) -> io::Result<()> {
        let attempt = {
            let tries = attempts.entry(spec).or_insert(0);
            *tries += 1;
            *tries
        };
        // launch-fails-with-io-error: injected here, above the trait
        // boundary, so every launcher backend exercises the same error
        // path as a genuinely refused connection.
        if failpoint::armed()
            && failpoint::should_fire_attempt(failpoint::Site::LaunchIo, &spec.to_string(), attempt)
        {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("failpoint launch-io (shard {spec}, attempt {attempt})"),
            ));
        }
        let leg = launcher.launch(spec, attempt)?;
        *launched += 1;
        telemetry::counter_add(Counter::LegsLaunched, 1);
        telemetry::gauge_add(Gauge::LegsRunning, 1);
        if let Some(log) = events {
            log.emit(
                "leg_launched",
                &[
                    ("shard", Field::Str(&spec.to_string())),
                    ("attempt", Field::U64(u64::from(attempt))),
                ],
            );
        }
        running.push(RunningLeg {
            spec,
            leg,
            signature: artifact_signature(&cfg.dir, &cfg.name, spec),
            last_seq: LiveSnapshot::read(&cfg.dir.join(shard::telemetry_file(&cfg.name, spec)))
                .map(|s| s.seq),
            last_progress: Instant::now(),
        });
        Ok(())
    }

    /// A leg left supervision (completed, failed, or was killed).
    fn leg_departed() {
        telemetry::gauge_add(Gauge::LegsRunning, -1);
    }

    /// Routes a failed shard (dead leg or failed launch) to its next
    /// life: abort with stealing off, abandonment past the attempt
    /// cap, an elastic re-shard into idle slots, or a backoff-delayed
    /// rescue relaunch. Only the no-steal abort returns `Err`.
    #[allow(clippy::too_many_arguments)]
    fn handle_failure(
        cfg: &DispatchConfig,
        spec: ShardSpec,
        why: &str,
        attempts: &mut BTreeMap<ShardSpec, u32>,
        pending: &mut Vec<PendingLaunch>,
        running: &mut Vec<RunningLeg>,
        report_rescued: &mut Vec<ShardSpec>,
        report_resharded: &mut Vec<ShardSpec>,
        abandoned: &mut Vec<ShardSpec>,
        events: Option<&EventLog>,
    ) -> io::Result<()> {
        let tried = attempts.get(&spec).copied().unwrap_or(0);
        if !cfg.steal {
            // The dispatch is doomed at this instant: abort instead of
            // letting the sibling legs burn compute toward a merge
            // that will never happen. Their partial stores survive for
            // a later `--steal` re-dispatch to resume.
            kill_all(running);
            return Err(io::Error::other(format!(
                "campaign '{}' dispatch failed: {why} \
                 (stealing disabled — re-dispatch with --steal to recover)",
                cfg.name
            )));
        }
        if tried >= cfg.max_attempts {
            // Attempt cap: give this shard up instead of sinking the
            // dispatch — the survivors still merge into a
            // partial-but-verified manifest, and the report (plus a
            // non-zero process exit) names what is missing.
            abandoned.push(spec);
            telemetry::counter_add(Counter::ShardsAbandoned, 1);
            if let Some(log) = events {
                log.emit(
                    "abandon",
                    &[
                        ("shard", Field::Str(&spec.to_string())),
                        ("attempts", Field::U64(u64::from(tried))),
                        ("why", Field::Str(why)),
                    ],
                );
            }
            return Ok(());
        }
        // Elastic re-shard: with ≥2 slots idle, split the dead shard's
        // surviving store into slices that resume in parallel. Slices
        // inherit the parent's attempt count so a deterministic
        // crasher still terminates at the cap.
        let idle = (cfg.legs as usize).saturating_sub(running.len() + pending.len());
        if cfg.reshard && spec.slice.is_none() && idle >= 2 {
            let slices = (idle as u32).min(4);
            match shard::partition_store_into_slices(&cfg.name, &cfg.dir, spec, slices) {
                Ok(slice_specs) => {
                    report_resharded.push(spec);
                    telemetry::counter_add(Counter::ReshardSplits, 1);
                    if let Some(log) = events {
                        log.emit(
                            "reshard",
                            &[
                                ("shard", Field::Str(&spec.to_string())),
                                ("slices", Field::U64(u64::from(slices))),
                                ("why", Field::Str(why)),
                            ],
                        );
                    }
                    let now = Instant::now();
                    for slice in slice_specs {
                        attempts.insert(slice, tried);
                        let delay = cfg.backoff.delay(tried, slice);
                        if !delay.is_zero() {
                            telemetry::counter_add(Counter::BackoffWaits, 1);
                        }
                        pending.push(PendingLaunch {
                            spec: slice,
                            not_before: now + delay,
                        });
                    }
                    return Ok(());
                }
                Err(e) => {
                    // Fall through to a plain rescue of the parent — a
                    // failed partition must not lose the shard.
                    eprintln!("dispatch {}: re-shard of {spec} failed: {e}", cfg.name);
                }
            }
        }
        // Steal: queue a relaunch over the surviving store — resumed
        // chunks are served from disk, never re-simulated.
        report_rescued.push(spec);
        telemetry::counter_add(Counter::RescueAttempts, 1);
        let delay = cfg.backoff.delay(tried, spec);
        if !delay.is_zero() {
            telemetry::counter_add(Counter::BackoffWaits, 1);
        }
        if let Some(log) = events {
            log.emit(
                "rescue",
                &[
                    ("shard", Field::Str(&spec.to_string())),
                    ("why", Field::Str(why)),
                    ("backoff_ms", Field::U64(delay.as_millis() as u64)),
                ],
            );
        }
        pending.push(PendingLaunch {
            spec,
            not_before: Instant::now() + delay,
        });
        Ok(())
    }

    let mut report_rescued: Vec<ShardSpec> = Vec::new();
    let mut report_stalled: Vec<ShardSpec> = Vec::new();
    let mut report_resharded: Vec<ShardSpec> = Vec::new();
    let mut abandoned: Vec<ShardSpec> = Vec::new();
    let mut completed: Vec<ShardSpec> = Vec::new();
    let mut attempts: BTreeMap<ShardSpec, u32> = BTreeMap::new();
    // Stall-kills per shard: each one doubles that shard's effective
    // stall timeout (see `DispatchConfig::stall_timeout`).
    let mut stall_kills: BTreeMap<ShardSpec, u32> = BTreeMap::new();
    let mut launched = 0u32;
    let mut running: Vec<RunningLeg> = Vec::new();
    let now = Instant::now();
    let mut pending: Vec<PendingLaunch> = specs
        .iter()
        .map(|&spec| PendingLaunch {
            spec,
            not_before: now,
        })
        .collect();

    // Launch + monitor loop: fire pending launches whose backoff has
    // elapsed, then poll every leg; a dead leg is either complete
    // (clean exit + usable manifest) or failed. Failed legs and failed
    // launches route through `handle_failure` — rescue, re-shard, or
    // abandon — while attempts remain and stealing is on.
    while !running.is_empty() || !pending.is_empty() {
        let now = Instant::now();
        let mut due: Vec<ShardSpec> = Vec::new();
        pending.retain(|p| {
            if p.not_before <= now {
                due.push(p.spec);
                false
            } else {
                true
            }
        });
        due.sort();
        for spec in due {
            if let Err(e) = launch_leg(
                cfg,
                launcher,
                spec,
                &mut attempts,
                &mut running,
                &mut launched,
                events.as_ref(),
            ) {
                telemetry::counter_add(Counter::LaunchFailures, 1);
                if let Some(log) = events.as_ref() {
                    log.emit(
                        "launch_failed",
                        &[
                            ("shard", Field::Str(&spec.to_string())),
                            ("error", Field::Str(&e.to_string())),
                        ],
                    );
                }
                handle_failure(
                    cfg,
                    spec,
                    &format!("leg {spec} failed to launch: {e}"),
                    &mut attempts,
                    &mut pending,
                    &mut running,
                    &mut report_rescued,
                    &mut report_resharded,
                    &mut abandoned,
                    events.as_ref(),
                )?;
            }
        }
        let mut idx = 0;
        while idx < running.len() {
            let now = Instant::now();
            let r = &mut running[idx];
            let status = match r.leg.poll() {
                Ok(s) => s,
                Err(e) => {
                    kill_all(&mut running);
                    return Err(e);
                }
            };
            let failed = match status {
                LegStatus::Exited { success } => {
                    let complete = success && leg_manifest_ok(&cfg.dir, &cfg.name, r.spec);
                    if complete {
                        if let Some(log) = events.as_ref() {
                            log.emit("leg_done", &[("shard", Field::Str(&r.spec.to_string()))]);
                        }
                        completed.push(r.spec);
                        leg_departed();
                        running.remove(idx);
                        continue;
                    }
                    Some(if success {
                        format!("leg {} exited 0 without a usable shard manifest", r.spec)
                    } else {
                        format!("leg {} exited with failure", r.spec)
                    })
                }
                LegStatus::Running => {
                    // Primary heartbeat: the live-snapshot seq, bumped
                    // once per scheduling round by a telemetry-aware
                    // leg. The artifact signature stays as a second
                    // signal (a store append lands mid-round, before
                    // the next snapshot) and as the only signal for
                    // legs that predate telemetry.
                    let seq =
                        LiveSnapshot::read(&cfg.dir.join(shard::telemetry_file(&cfg.name, r.spec)))
                            .map(|s| s.seq);
                    if seq.is_some() && seq != r.last_seq {
                        r.last_seq = seq;
                        r.last_progress = now;
                    }
                    let sig = artifact_signature(&cfg.dir, &cfg.name, r.spec);
                    if sig != r.signature {
                        r.signature = sig;
                        r.last_progress = now;
                    }
                    let kills = stall_kills.get(&r.spec).copied().unwrap_or(0);
                    let limit = cfg
                        .stall_timeout
                        .map(|t| t.saturating_mul(1 << kills.min(10)));
                    match limit {
                        Some(limit) if now.duration_since(r.last_progress) > limit => {
                            let _ = r.leg.kill();
                            report_stalled.push(r.spec);
                            *stall_kills.entry(r.spec).or_insert(0) += 1;
                            telemetry::counter_add(Counter::StallKills, 1);
                            if let Some(log) = events.as_ref() {
                                log.emit(
                                    "stall_kill",
                                    &[
                                        ("shard", Field::Str(&r.spec.to_string())),
                                        ("timeout_ms", Field::U64(limit.as_millis() as u64)),
                                    ],
                                );
                            }
                            Some(format!(
                                "leg {} stalled (no artifact progress for {:.1}s) and was killed",
                                r.spec,
                                limit.as_secs_f64()
                            ))
                        }
                        _ => None,
                    }
                }
            };
            let Some(why) = failed else {
                idx += 1;
                continue;
            };
            let spec = r.spec;
            leg_departed();
            running.remove(idx);
            handle_failure(
                cfg,
                spec,
                &why,
                &mut attempts,
                &mut pending,
                &mut running,
                &mut report_rescued,
                &mut report_resharded,
                &mut abandoned,
                events.as_ref(),
            )?;
        }
        if !running.is_empty() || !pending.is_empty() {
            std::thread::sleep(cfg.poll_interval);
        }
    }

    // Every surviving shard has a clean leg: fold its artifacts back
    // into the single-host files and prove the merged store backs its
    // manifest. The manifest list is explicit — completed specs only —
    // because with re-sharding the directory can also hold leftovers
    // of abandoned shards that must stay out of the merge. A 1-leg
    // dispatch degenerates naturally: the lone unsuffixed manifest is
    // merged in place, canonicalizing store order and provenance.
    completed.sort();
    if completed.is_empty() {
        return Err(io::Error::other(format!(
            "campaign '{}' dispatch failed: every shard was abandoned \
             (abandoned: {})",
            cfg.name,
            spec_list(&abandoned),
        )));
    }
    let single = ShardSpec::single();
    let manifests: Vec<PathBuf> = completed
        .iter()
        .map(|&spec| cfg.dir.join(shard::manifest_file(&cfg.name, spec)))
        .collect();
    let merge = shard::merge_manifests_allowing_partial(
        &cfg.name,
        &manifests,
        &cfg.dir,
        !abandoned.is_empty(),
    )?;
    if let Some(log) = events.as_ref() {
        // Merge provenance: where the merged chunk set actually came
        // from — how much was stolen/resumed rather than re-simulated.
        log.emit(
            "merge",
            &[
                ("shards", Field::U64(merge.shards as u64)),
                ("points", Field::U64(merge.points as u64)),
                ("chunks", Field::U64(merge.chunks as u64)),
                (
                    "duplicate_chunks",
                    Field::U64(merge.duplicate_chunks as u64),
                ),
                ("store_served_chunks", Field::U64(merge.store_served_chunks)),
                (
                    "store_served_packets",
                    Field::U64(merge.store_served_packets),
                ),
                ("rescued", Field::U64(report_rescued.len() as u64)),
                ("stalled", Field::U64(report_stalled.len() as u64)),
                ("resharded", Field::U64(report_resharded.len() as u64)),
                ("abandoned", Field::U64(abandoned.len() as u64)),
                ("missing_points", Field::U64(merge.missing_points_total)),
            ],
        );
    }
    let verify = shard::verify(&cfg.name, &cfg.dir, single)?;
    if !verify.ok() {
        return Err(invalid(format!(
            "merged campaign '{}' fails verification: {}",
            cfg.name,
            verify.problems.join("; ")
        )));
    }
    Ok(DispatchReport {
        legs: cfg.legs,
        launched,
        rescued: report_rescued,
        stalled: report_stalled,
        resharded: report_resharded,
        abandoned,
        merge,
        verify,
    })
}

/// Best-effort cleanup on an error path: no leg may outlive a failed
/// dispatch and keep appending to the stores.
fn kill_all(running: &mut Vec<RunningLeg>) {
    telemetry::gauge_add(Gauge::LegsRunning, -(running.len() as i64));
    for r in running.iter_mut() {
        let _ = r.leg.kill();
    }
    running.clear();
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

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dispatch-test-{}-{tag}", std::process::id()))
    }

    fn tiny_config(tag: &str, legs: u32) -> DispatchConfig {
        let dir = temp_dir(tag);
        let _ = fs::remove_dir_all(&dir);
        DispatchConfig {
            stall_timeout: None,
            poll_interval: Duration::from_millis(1),
            // Mock tests script exact launch sequences; immediate
            // relaunches and 1-for-1 rescues keep them deterministic.
            // Backoff and re-sharding have dedicated tests.
            backoff: BackoffPolicy::none(),
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
        /// Never exit, never touch a file (stall fodder).
        Hang,
        /// Look stalled for the given wall-clock time (no file
        /// activity), then complete — a leg deep inside a long chunk.
        CompleteAfter(Duration),
        /// Never touch store/manifest, but bump the live telemetry
        /// snapshot's seq on every poll; complete after the given time.
        /// Models a telemetry-aware leg whose store writes are sparse.
        HeartbeatThenComplete(Duration),
    }

    struct MockLeg {
        spec: ShardSpec,
        dir: PathBuf,
        behavior: Behavior,
        started: Instant,
        seq: u64,
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
                Behavior::Hang => LegStatus::Running,
                Behavior::CompleteAfter(after) => {
                    if self.started.elapsed() < after {
                        LegStatus::Running
                    } else {
                        write_leg_artifacts(&self.dir, self.spec);
                        LegStatus::Exited { success: true }
                    }
                }
                Behavior::HeartbeatThenComplete(after) => {
                    if self.started.elapsed() < after {
                        self.seq += 1;
                        let snap = crate::telemetry::LiveSnapshot {
                            seq: self.seq,
                            elapsed_ms: self.started.elapsed().as_millis() as u64,
                            done: false,
                            points_total: 1,
                            points_converged: 0,
                            packets_realized: 0,
                            packets_from_store: 0,
                            packets_simulated: 0,
                            packets_per_sec: 0.0,
                            store_chunk_hits: 0,
                            store_chunk_misses: 0,
                            points: Vec::new(),
                        };
                        snap.write_atomic(&self.dir.join(shard::telemetry_file(NAME, self.spec)))
                            .unwrap();
                        LegStatus::Running
                    } else {
                        write_leg_artifacts(&self.dir, self.spec);
                        LegStatus::Exited { success: true }
                    }
                }
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
                started: Instant::now(),
                seq: 0,
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
    fn failed_leg_without_steal_aborts() {
        let cfg = DispatchConfig {
            steal: false,
            ..tiny_config("nosteal", 2)
        };
        let launcher = MockLauncher::new(&cfg.dir, &[("1/2", &[Behavior::Fail])]);
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(err.to_string().contains("--steal"), "{err}");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn unrecoverable_shard_aborts_siblings_immediately() {
        // Leg 0 would run forever; leg 1 fails with stealing off. The
        // dispatch is doomed at that instant and must return (killing
        // leg 0) instead of waiting on a merge that can never happen —
        // if this regresses, the test hangs rather than fails.
        let cfg = DispatchConfig {
            steal: false,
            stall_timeout: None,
            ..tiny_config("abort", 2)
        };
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[("0/2", &[Behavior::Hang]), ("1/2", &[Behavior::Fail])],
        );
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(err.to_string().contains("leg 1/2"), "{err}");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn failed_leg_is_rescued_when_stealing() {
        let cfg = tiny_config("rescue", 2);
        let launcher =
            MockLauncher::new(&cfg.dir, &[("1/2", &[Behavior::Fail, Behavior::Complete])]);
        let report = dispatch(&cfg, &launcher).expect("rescue leg completes the shard");
        assert_eq!(report.launched, 3);
        assert_eq!(report.rescued, vec![ShardSpec::new(1, 2).unwrap()]);
        assert!(report.verify.ok());
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
    fn stalled_leg_is_killed_and_rescued() {
        let cfg = DispatchConfig {
            stall_timeout: Some(Duration::from_millis(30)),
            ..tiny_config("stall", 2)
        };
        let launcher =
            MockLauncher::new(&cfg.dir, &[("0/2", &[Behavior::Hang, Behavior::Complete])]);
        let report = dispatch(&cfg, &launcher).expect("straggler is stall-killed and stolen");
        let spec = ShardSpec::new(0, 2).unwrap();
        assert_eq!(report.stalled, vec![spec]);
        assert_eq!(report.rescued, vec![spec]);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn stall_timeout_escalates_for_slow_but_healthy_legs() {
        // The heartbeat is chunk-granular: a leg 40 ms into a long
        // chunk looks stalled at a 25 ms timeout and is killed — but
        // the rescue runs at a doubled (50 ms) timeout and must be
        // allowed to finish instead of looping to the attempt cap.
        let cfg = DispatchConfig {
            stall_timeout: Some(Duration::from_millis(25)),
            ..tiny_config("escalate", 2)
        };
        let slow = Behavior::CompleteAfter(Duration::from_millis(40));
        let launcher = MockLauncher::new(&cfg.dir, &[("0/2", &[slow, slow])]);
        let report = dispatch(&cfg, &launcher).expect("doubled timeout lets the chunk finish");
        let spec = ShardSpec::new(0, 2).unwrap();
        assert_eq!(report.stalled, vec![spec], "exactly one stall-kill");
        assert_eq!(report.rescued, vec![spec]);
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn snapshot_seq_heartbeat_counts_as_progress() {
        // The leg never touches store or manifest for 80 ms — far past
        // the 25 ms stall timeout — but bumps its live-snapshot seq on
        // every poll. The telemetry heartbeat must keep it alive (the
        // size+mtime fallback alone would stall-kill it, as
        // `stall_timeout_escalates_for_slow_but_healthy_legs` shows).
        let cfg = DispatchConfig {
            stall_timeout: Some(Duration::from_millis(25)),
            ..tiny_config("seq-heartbeat", 2)
        };
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[(
                "0/2",
                &[Behavior::HeartbeatThenComplete(Duration::from_millis(80))],
            )],
        );
        let report = dispatch(&cfg, &launcher).expect("heartbeating leg survives");
        assert!(report.stalled.is_empty(), "no stall-kill: {report:?}");
        assert!(report.rescued.is_empty());
        assert!(report.verify.ok());
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
    fn all_shards_abandoned_is_an_error() {
        let cfg = DispatchConfig {
            max_attempts: 1,
            ..tiny_config("all-gone", 2)
        };
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[("0/2", &[Behavior::Fail]), ("1/2", &[Behavior::Fail])],
        );
        let err = dispatch(&cfg, &launcher).unwrap_err();
        assert!(
            err.to_string().contains("every shard was abandoned"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn failed_launch_is_retried_not_fatal() {
        let cfg = tiny_config("launch-fail", 2);
        let launcher = MockLauncher::new(
            &cfg.dir,
            &[("0/2", &[Behavior::LaunchFail, Behavior::Complete])],
        );
        let report = dispatch(&cfg, &launcher).expect("second launch attempt succeeds");
        assert_eq!(report.rescued, vec![ShardSpec::new(0, 2).unwrap()]);
        let attempts: Vec<u32> = launcher
            .launches
            .borrow()
            .iter()
            .filter(|(spec, _)| spec.index == 0)
            .map(|&(_, attempt)| attempt)
            .collect();
        assert_eq!(attempts, vec![1, 2], "attempt number reaches the launcher");
        assert!(report.verify.ok());
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
    fn process_leg_kill_is_idempotent() {
        let child = Command::new("sh")
            .args(["-c", "sleep 5"])
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let mut leg = ProcessLeg { child };
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
        assert_eq!(BackoffPolicy::none().delay(5, spec), Duration::ZERO);
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
                LegStatus::Running => std::thread::sleep(Duration::from_millis(5)),
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
}
