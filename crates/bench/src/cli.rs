//! Command-line handling for every binary of this crate: one declarative
//! flag table per binary and one strict parse loop over it.
//!
//! A binary accepts only its own flag sets: [`CAMPAIGN_FIGURE`] for the
//! campaign figure binaries, [`ABLATIONS`], [`DISPATCH_FLAGS`],
//! [`ADMIN_FLAGS`], or [`NO_FLAGS`] for `fig3`, `fig5`, `golden-gen` and
//! `repair_study`. An unknown flag, a missing value, or a value that does
//! not parse or is out of range exits 2 with a usage text rendered from
//! the table, before anything runs. Parsing is pure: process-global
//! switches are fields of the result, applied once the whole command line
//! parsed. Unless `--one-shot` is given, figure binaries run adaptive
//! campaigns against the result store under `target/campaign/`.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use hspa_phy::turbo::{AccuracyTier, POOL_LANES};
use resilience_core::campaign::dispatch::MAX_LEGS;
use resilience_core::campaign::{
    BackendKind, Campaign, CampaignSettings, DispatchConfig, Manifest, ManifestTotals, QueryFilter,
    ShardSpec, DEFAULT_STORE_DIR,
};
use resilience_core::experiments::ExperimentBudget;

/// One command-line flag of a binary whose parsed result is `P`.
pub struct Flag<P> {
    /// Accepted spellings; the first is the canonical name.
    names: &'static [&'static str],
    /// Placeholder for the value in the usage text; empty for a switch.
    metavar: &'static str,
    /// One-line help, stating the accepted range.
    help: &'static str,
    /// Parses the value (`""` for a switch), checks its range and
    /// stores it in the parsed result.
    set: fn(&mut P, &str) -> Result<(), String>,
    /// Set by `campaign-dispatch` itself for every leg, so refused among
    /// its leg arguments.
    dispatcher_owned: bool,
}

const fn flag<P>(
    names: &'static [&'static str],
    metavar: &'static str,
    help: &'static str,
    set: fn(&mut P, &str) -> Result<(), String>,
) -> Flag<P> {
    Flag {
        names,
        metavar,
        help,
        set,
        dispatcher_owned: false,
    }
}

const fn owned<P>(flag: Flag<P>) -> Flag<P> {
    Flag {
        dispatcher_owned: true,
        ..flag
    }
}

/// The one parse loop: applies every flag of `args` to `parsed` through
/// the entry of `sets` that spells it, and returns the entries given, in
/// order. A value may not start with `--`, so a flag missing its value
/// never swallows the flag after it.
fn parse<'t, P>(
    sets: &[&'t [Flag<P>]],
    args: &[String],
    parsed: &mut P,
) -> Result<Vec<&'t Flag<P>>, String> {
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = sets
            .iter()
            .flat_map(|set| set.iter())
            .find(|f| f.names.contains(&arg.as_str()))
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = match flag.metavar {
            "" => "",
            metavar => it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value {metavar}"))?,
        };
        (flag.set)(parsed, value).map_err(|e| format!("{arg} {}: {e}", flag.metavar))?;
        given.push(flag);
    }
    Ok(given)
}

/// The usage text of a binary, rendered from its flag sets.
fn usage<P>(synopsis: &str, sets: &[&[Flag<P>]]) -> String {
    let mut out = format!("usage: {synopsis}\n");
    for f in sets.iter().flat_map(|set| set.iter()) {
        let spelled = format!("{} {}", f.names.join(", "), f.metavar);
        out.push_str(&format!("  {:<30} {}\n", spelled.trim_end(), f.help));
    }
    out
}

/// Parses this process's arguments with `parse_args`; on an error prints
/// it and the usage text of `sets`, and exits 2.
pub fn parse_or_exit<P, T>(
    synopsis: &str,
    sets: &[&[Flag<P>]],
    parse_args: impl FnOnce(&[String]) -> Result<T, String>,
) -> T {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let program = program.rsplit('/').next().unwrap_or_default();
    let args: Vec<String> = argv.collect();
    parse_args(&args).unwrap_or_else(|e| {
        let usage = usage(&format!("{program} {synopsis}"), sets);
        eprint!("{program}: {e}\n{usage}");
        std::process::exit(2)
    })
}

/// Parses `v` as a `T`.
fn value<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("cannot parse '{v}': {e}"))
}

/// Parses `v` as a `T` that satisfies `ok`.
fn value_if<T: FromStr<Err: Display>>(v: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
    let x = value(v)?;
    ok(&x).then_some(x).ok_or(format!("'{v}' is out of range"))
}

/// A figure binary's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureArgs {
    /// Budget and campaign settings; `campaign` is `None` under
    /// `--one-shot`.
    pub budget: ExperimentBudget,
    /// `--telemetry`. Process-global, like `chaos_seed`, and kept out of
    /// `CampaignSettings` on purpose: settings render into the manifest,
    /// and neither switch may change a manifest byte.
    pub telemetry: bool,
    /// `--chaos-seed N`. Armed failpoints crash or degrade the process
    /// but never change a surviving result.
    pub chaos_seed: Option<u64>,
    /// `--manifest-json PATH`.
    pub manifest_json: Option<String>,
}

impl Default for FigureArgs {
    fn default() -> Self {
        Self {
            budget: ExperimentBudget::full().with_campaign(CampaignSettings::default()),
            telemetry: false,
            chaos_seed: None,
            manifest_json: None,
        }
    }
}

fn settings(p: &mut FigureArgs) -> &mut CampaignSettings {
    p.budget.campaign.get_or_insert_with(Default::default)
}

/// Flags of every Monte-Carlo binary: the engine budget.
#[rustfmt::skip]
static BUDGET_FLAGS: &[Flag<FigureArgs>] = &[
    flag(&["--packets", "--max-packets"], "N", "per-point packet budget, the cap under a campaign (>= 1)",
        |p, v| value_if(v, |&n: &usize| n >= 1).map(|n| p.budget.packets_per_point = n)),
    flag(&["--seed"], "S", "master seed; every point derives its own stream",
        |p, v| value(v).map(|s| p.budget.seed = s)),
    flag(&["--threads"], "T", "engine worker threads (0 = one per CPU); results never depend on it",
        |p, v| value(v).map(|t| p.budget.threads = t)),
    flag(&["--batch"], "N", "decode lanes per worker, 1..=8 (0 = engine default); bit-identical",
        |p, v| value_if(v, |&n: &usize| n <= POOL_LANES).map(|n| p.budget.batch = n)),
    flag(&["--accuracy-tier"], "TIER", "decoder tier: exact, early-stop or fast32 (own stores per tier)",
        |p, v| value(v).map(|t| p.budget.accuracy_tier = t)),
];

/// Flags of the campaign layer.
#[rustfmt::skip]
static CAMPAIGN_FLAGS: &[Flag<FigureArgs>] = &[
    flag(&["--precision"], "P", "target relative half-width of each point's BLER interval (finite, >= 0)",
        |p, v| value_if(v, |x: &f64| (0.0..f64::INFINITY).contains(x)).map(|x| settings(p).precision = x)),
    flag(&["--bler-floor"], "F", "BLER below which a point counts as resolved (0..=1)",
        |p, v| value_if(v, |x: &f64| (0.0..=1.0).contains(x)).map(|x| settings(p).bler_floor = x)),
    flag(&["--chunk"], "N", "packets of a point's first adaptive chunk (>= 1)",
        |p, v| value_if(v, |&n: &usize| n >= 1).map(|n| settings(p).initial_chunk = n)),
    flag(&["--target-ci"], "W", "absolute Wilson half-width target (finite, > 0); replaces --precision",
        |p, v| value_if(v, |x: &f64| x.is_finite() && *x > 0.0).map(|x| settings(p).target_ci = x)),
    owned(flag(&["--shard"], "I/N", "run only shard I of N, into suffixed store and manifest files",
        |p, v| value(v).map(|s| settings(p).shard = s))),
    flag(&["--store-backend"], "KIND", "result store: jsonl (default) or indexed; same manifest bytes",
        |p, v| value(v).map(|k| settings(p).backend = k)),
    flag(&["--resume"], "", "reuse the result store under target/campaign/ (default)",
        |p, _| { settings(p).resume = true; Ok(()) }),
    owned(flag(&["--no-resume"], "", "truncate the result store first",
        |p, _| { settings(p).resume = false; Ok(()) })),
    owned(flag(&["--manifest-json"], "PATH", "after the run, copy the campaign manifest to PATH",
        |p, v| { p.manifest_json = Some(v.into()); Ok(()) })),
    flag(&["--telemetry"], "", "write live telemetry files under target/campaign/",
        |p, _| { p.telemetry = true; Ok(()) }),
    flag(&["--chaos-seed"], "N", "arm the deterministic failpoints with seed N",
        |p, v| value(v).map(|s| p.chaos_seed = Some(s))),
    owned(flag(&["--one-shot"], "", "bypass the campaign layer: fixed budget on the bare engine",
        |p, _| { p.budget.campaign = None; Ok(()) })),
];

/// The flag sets of the campaign figure binaries.
pub static CAMPAIGN_FIGURE: &[&[Flag<FigureArgs>]] = &[BUDGET_FLAGS, CAMPAIGN_FLAGS];
/// The flag sets of `ablations`, which compares design arms at equal
/// sample counts and so always runs one-shot.
pub static ABLATIONS: &[&[Flag<FigureArgs>]] = &[BUDGET_FLAGS];
/// The flag sets of binaries that take no flags.
pub static NO_FLAGS: &[&[Flag<FigureArgs>]] = &[];

impl FigureArgs {
    /// Parses a figure binary's arguments against its flag sets.
    pub fn parse(sets: &[&'static [Flag<Self>]], args: &[String]) -> Result<Self, String> {
        Self::parse_given(sets, args).map(|(parsed, _)| parsed)
    }

    /// [`Self::parse`], also returning the flags given. A campaign flag
    /// next to `--one-shot` is refused: it would be silently ignored.
    fn parse_given(
        sets: &[&'static [Flag<Self>]],
        args: &[String],
    ) -> Result<(Self, Vec<&'static Flag<Self>>), String> {
        let mut parsed = Self::default();
        let given = parse(sets, args, &mut parsed)?;
        if given.iter().any(|f| f.names[0] == "--one-shot") {
            let campaign = |f: &&Flag<Self>| CAMPAIGN_FLAGS.iter().any(|c| c.names == f.names);
            if let Some(f) = given
                .iter()
                .find(|f| f.names[0] != "--one-shot" && campaign(f))
            {
                return Err(format!("{} does not apply to a --one-shot run", f.names[0]));
            }
        }
        Ok((parsed, given))
    }

    /// Parses this process's arguments against `sets` (exit 2 on an
    /// error), then applies the process-global switches. Dispatched legs
    /// inherit chaos arming through the environment; `--chaos-seed`
    /// overrides it.
    pub fn from_env(sets: &[&'static [Flag<Self>]]) -> Self {
        let parsed = parse_or_exit("[FLAGS]", sets, |args| Self::parse(sets, args));
        resilience_core::failpoint::arm_from_env();
        if let Some(seed) = parsed.chaos_seed {
            resilience_core::failpoint::arm(seed);
        }
        if parsed.telemetry {
            resilience_core::telemetry::set_enabled(true);
        }
        parsed
    }

    /// Post-run epilogue: prints the summary of campaign `name` (nothing
    /// under `--one-shot`), then copies its manifest to the
    /// `--manifest-json` path. A failed copy exits 1: a silent skip would
    /// make CI assertions on the copy pass vacuously.
    pub fn finish(&self, name: &str) {
        let Some(settings) = self.budget.campaign else {
            return;
        };
        let path = Campaign::manifest_path_for(name, &settings);
        match Manifest::read(&path) {
            Ok(m) => println!("{}", summary_line(name, &m.totals())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("campaign {name}: no manifest at {}", path.display())
            }
            Err(e) => println!("campaign {name}: {e}"),
        }
        let Some(out) = &self.manifest_json else {
            return;
        };
        if let Err(e) = std::fs::copy(&path, out) {
            eprintln!(
                "--manifest-json: cannot copy {} to {out}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
        println!("manifest JSON written to {out}");
    }
}

/// For binaries that take no flags: exits 2 with a usage text on any
/// argument.
pub fn no_flags() {
    parse_or_exit("(no flags)", NO_FLAGS, |args| {
        FigureArgs::parse(NO_FLAGS, args)
    });
}

/// Standard banner for figure binaries.
pub fn banner(figure: &str, what: &str, budget: ExperimentBudget) -> String {
    let mode = match budget.campaign {
        Some(c) => {
            let target = if c.target_ci > 0.0 {
                format!("target-ci {:.3}", c.target_ci)
            } else {
                format!("precision {:.2}, floor {:.2}", c.precision, c.bler_floor)
            };
            let shard = if c.shard.is_sharded() {
                format!(", shard {}", c.shard)
            } else {
                String::new()
            };
            let backend = if c.backend == BackendKind::default() {
                String::new()
            } else {
                format!(", store {}", c.backend)
            };
            format!(
                "campaign: {target}, {}{shard}{backend}",
                if c.resume { "resume" } else { "no-resume" }
            )
        }
        None => "one-shot".into(),
    };
    let tier = if budget.accuracy_tier == AccuracyTier::Exact {
        String::new()
    } else {
        format!(", tier {}", budget.accuracy_tier)
    };
    format!(
        "=== DAC'12 reproduction — {figure}: {what}\n=== packets/point <= {}, seed = {:#x}, {mode}{tier}\n",
        budget.packets_per_point, budget.seed
    )
}

/// One human- and grep-friendly line per campaign (the CI resume-smoke
/// job parses the `store-hit rate` figure).
pub fn summary_line(name: &str, t: &ManifestTotals) -> String {
    format!(
        "campaign {name}: {} points ({} converged), store-hit rate: {:.1}% ({}/{} chunks, \
         {:.1}% of packets), packets {}/{} (saved {:.1}% vs fixed budget)",
        t.points_total,
        t.points_converged,
        t.store_hit_rate() * 100.0,
        t.store_chunks,
        t.total_chunks,
        t.store_packet_rate() * 100.0,
        t.realized_packets,
        t.budget_packets,
        t.saved_vs_fixed() * 100.0,
    )
}

/// Parsed arguments of the `campaign-dispatch` binary.
#[derive(Debug, Clone)]
pub struct DispatchArgs {
    /// The dispatch run itself; `dir` is the legs' campaign directory.
    pub config: DispatchConfig,
    /// Figure binary to launch as legs.
    pub bin: String,
    /// Working directory of the legs.
    pub work_dir: String,
    /// Copy the merged manifest here after a successful dispatch.
    pub manifest_json: Option<String>,
    /// Result-store backend forwarded to every leg.
    pub store_backend: Option<BackendKind>,
    /// Launch-command template for the remote-capable `CommandLauncher`;
    /// `None` launches legs as local child processes.
    pub launcher: Option<String>,
    /// Comma-separated `{host}` pool for `--launcher` (round-robin).
    pub hosts: Option<String>,
    /// Artifact pull-back template run after each `--launcher` leg.
    pub pull: Option<String>,
    /// Chaos seed armed into every leg's environment (and the
    /// dispatcher's own launch failpoint).
    pub chaos_seed: Option<u64>,
    /// Silence leg stdout.
    pub quiet: bool,
    /// Arguments after `--`, passed to every leg verbatim (before the
    /// dispatcher's own `--shard i/n`).
    pub leg_args: Vec<String>,
    /// Canonical names of the flags in `leg_args`.
    pub leg_flags: Vec<&'static str>,
}

#[rustfmt::skip]
pub static DISPATCH_FLAGS: &[Flag<DispatchArgs>] = &[
    flag(&["--name"], "CAMPAIGN", "campaign name, the store and manifest file stem (required)",
        |p, v| { p.config.name = v.into(); Ok(()) }),
    flag(&["--bin"], "PATH", "campaign figure binary launched as the legs (required)",
        |p, v| { p.bin = v.into(); Ok(()) }),
    // Every leg is a concurrently spawned child process: an implausible
    // count must not parse, or it would fork-bomb the host.
    flag(&["--legs"], "N", "shard count, 1..=1024 (default 2)",
        |p, v| value_if(v, |n| (1..=MAX_LEGS).contains(n)).map(|n| p.config.legs = n)),
    flag(&["--steal"], "", "steal work from dead or stalled legs (default)",
        |p, _| { p.config.steal = true; Ok(()) }),
    flag(&["--no-steal"], "", "never steal work",
        |p, _| { p.config.steal = false; Ok(()) }),
    flag(&["--work-dir"], "DIR", "legs' working directory; artifacts land in DIR/target/campaign/",
        |p, v| { p.work_dir = v.into(); Ok(()) }),
    flag(&["--stall-timeout"], "SECS", "kill a leg silent this long (0 = never; default 600)",
        |p, v| value(v).map(|s| p.config.stall_timeout = (s > 0).then(|| Duration::from_secs(s)))),
    flag(&["--manifest-json"], "PATH", "copy the merged manifest to PATH",
        |p, v| { p.manifest_json = Some(v.into()); Ok(()) }),
    flag(&["--telemetry"], "", "log dispatch events and pass --telemetry to every leg",
        |p, _| { p.config.telemetry = true; Ok(()) }),
    flag(&["--store-backend"], "KIND", "result store of every leg: jsonl or indexed",
        |p, v| value(v).map(|k| p.store_backend = Some(k))),
    flag(&["--launcher"], "TEMPLATE", "launch legs through a command such as 'ssh {host} {cmd}'",
        |p, v| { p.launcher = Some(v.into()); Ok(()) }),
    flag(&["--hosts"], "A,B,..", "round-robin {host} pool of --launcher",
        |p, v| { p.hosts = Some(v.into()); Ok(()) }),
    flag(&["--pull"], "TEMPLATE", "artifact pull-back command run after each --launcher leg",
        |p, v| { p.pull = Some(v.into()); Ok(()) }),
    flag(&["--backoff"], "BASE_MS:FACTOR:MAX_MS", "relaunch backoff schedule",
        |p, v| value(v).map(|b| p.config.backoff = b)),
    flag(&["--no-reshard"], "", "never re-shard a dead shard across idle slots",
        |p, _| { p.config.reshard = false; Ok(()) }),
    flag(&["--chaos-seed"], "N", "arm the deterministic failpoints here and in every leg",
        |p, v| value(v).map(|s| p.chaos_seed = Some(s))),
    flag(&["--quiet"], "", "silence leg stdout",
        |p, _| { p.quiet = true; Ok(()) }),
];

/// Parses `campaign-dispatch` arguments. Everything after `--` is parsed
/// against the campaign figure binaries' table, so a bad leg argument
/// fails here, before any leg launches, and the flags the dispatcher owns
/// (sharding, store resume, manifest export) are refused there.
pub fn dispatch_from_args(args: &[String]) -> Result<DispatchArgs, String> {
    let (own, legs) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (args, &[][..]),
    };
    let mut parsed = DispatchArgs {
        config: DispatchConfig::new("", 2, DEFAULT_STORE_DIR),
        bin: String::new(),
        work_dir: ".".into(),
        manifest_json: None,
        store_backend: None,
        launcher: None,
        hosts: None,
        pull: None,
        chaos_seed: None,
        quiet: false,
        leg_args: legs.to_vec(),
        leg_flags: Vec::new(),
    };
    parse(&[DISPATCH_FLAGS], own, &mut parsed)?;
    if parsed.config.name.is_empty() {
        return Err("--name <campaign> is required".into());
    }
    if parsed.bin.is_empty() {
        return Err("--bin <figure binary> is required".into());
    }
    if parsed.launcher.is_none() && (parsed.hosts.is_some() || parsed.pull.is_some()) {
        return Err("--hosts/--pull only apply to a --launcher template".into());
    }
    let (_, given) = FigureArgs::parse_given(CAMPAIGN_FIGURE, legs)?;
    if let Some(f) = given.iter().find(|f| f.dispatcher_owned) {
        return Err(format!(
            "leg argument '{}' conflicts with dispatching \
             (the dispatcher owns sharding, store resume and manifest export)",
            f.names[0]
        ));
    }
    parsed.leg_flags = given.iter().map(|f| f.names[0]).collect();
    parsed.config.dir = Path::new(&parsed.work_dir).join(DEFAULT_STORE_DIR);
    Ok(parsed)
}

/// The subcommands of `campaign-admin`.
pub const ADMIN_COMMANDS: &[&str] = &[
    "merge", "gc", "verify", "stats", "query", "export", "import", "top",
];

/// Parsed arguments of the `campaign-admin` binary.
#[derive(Debug, Clone)]
pub struct AdminArgs {
    /// One of [`ADMIN_COMMANDS`].
    pub command: String,
    /// Campaign name (required).
    pub name: String,
    /// Directory holding the campaign's files.
    pub dir: PathBuf,
    /// Output directory of `merge` (default: `dir`).
    pub out_dir: Option<PathBuf>,
    /// Shard whose files the command reads.
    pub shard: ShardSpec,
    /// `top`: render one frame and exit.
    pub once: bool,
    /// `top`: refresh period in seconds.
    pub interval_secs: u64,
    /// `query`: conjoined point filters.
    pub filter: QueryFilter,
    /// `export` target or `import` source (required by both).
    pub file: PathBuf,
    /// `import`: backend of the written store.
    pub backend: BackendKind,
    /// `verify`: also cross-check each point's store provenance.
    pub strict: bool,
}

/// Parses a `LO:HI` SNR range in dB: both finite, `LO <= HI`.
fn snr_range(v: &str) -> Result<(f64, f64), String> {
    let (lo, hi) = v.split_once(':').ok_or("expected LO:HI")?;
    let (lo, hi): (f64, f64) = (value(lo)?, value(hi)?);
    let ok = lo.is_finite() && hi.is_finite() && lo <= hi;
    ok.then_some((lo, hi))
        .ok_or(format!("'{v}' is not a finite range with LO <= HI"))
}

/// Parses a point key: exactly 16 hex digits, as stores render them.
fn point_key(v: &str) -> Result<u64, String> {
    if v.len() != 16 || !v.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("'{v}' is not 16 hex digits"));
    }
    u64::from_str_radix(v, 16).map_err(|e| e.to_string())
}

#[rustfmt::skip]
pub static ADMIN_FLAGS: &[Flag<AdminArgs>] = &[
    flag(&["--name"], "CAMPAIGN", "campaign name (required)",
        |p, v| { p.name = v.into(); Ok(()) }),
    flag(&["--dir"], "DIR", "directory of the campaign's files (default target/campaign)",
        |p, v| { p.dir = v.into(); Ok(()) }),
    flag(&["--out-dir"], "DIR", "merge: output directory (default --dir)",
        |p, v| { p.out_dir = Some(v.into()); Ok(()) }),
    flag(&["--shard"], "I/N", "the shard whose files to read (default: unsharded)",
        |p, v| value(v).map(|s| p.shard = s)),
    flag(&["--key"], "HEX", "query: the point with this 16-hex-digit key",
        |p, v| point_key(v).map(|k| p.filter = p.filter.with_key(k))),
    flag(&["--snr"], "LO:HI", "query: points with LO <= SNR <= HI dB",
        |p, v| snr_range(v).map(|(lo, hi)| p.filter = p.filter.with_snr_range(lo, hi))),
    flag(&["--tier"], "TIER", "query: points of this accuracy tier",
        |p, v| value(v).map(|t| p.filter = p.filter.with_tier(t))),
    flag(&["--converged"], "BOOL", "query: points that did (true) or did not (false) converge",
        |p, v| value(v).map(|c| p.filter = p.filter.with_converged(c))),
    flag(&["--file"], "PATH", "export: output file; import: input file (.jsonl or .seg)",
        |p, v| { p.file = v.into(); Ok(()) }),
    flag(&["--store-backend"], "KIND", "import: backend to write, jsonl or indexed",
        |p, v| value(v).map(|k| p.backend = k)),
    flag(&["--strict"], "", "verify: also audit each point's store provenance",
        |p, _| { p.strict = true; Ok(()) }),
    flag(&["--once"], "", "top: render one frame and exit",
        |p, _| { p.once = true; Ok(()) }),
    flag(&["--interval"], "SECS", "top: refresh period (default 2)",
        |p, v| value(v).map(|s| p.interval_secs = s)),
];

/// Parses `campaign-admin` arguments: a subcommand, then its flags.
pub fn admin_from_args(args: &[String]) -> Result<AdminArgs, String> {
    let (command, flags) = args.split_first().ok_or("missing subcommand")?;
    if !ADMIN_COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown subcommand '{command}'"));
    }
    let mut parsed = AdminArgs {
        command: command.clone(),
        name: String::new(),
        dir: DEFAULT_STORE_DIR.into(),
        out_dir: None,
        shard: ShardSpec::single(),
        once: false,
        interval_secs: 2,
        filter: QueryFilter::new(),
        file: PathBuf::new(),
        backend: BackendKind::default(),
        strict: false,
    };
    parse(&[ADMIN_FLAGS], flags, &mut parsed)?;
    if parsed.name.is_empty() {
        return Err("--name <campaign> is required".into());
    }
    if matches!(command.as_str(), "export" | "import") && parsed.file.as_os_str().is_empty() {
        return Err(format!("{command} needs --file PATH"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn figure(list: &[&str]) -> Result<FigureArgs, String> {
        FigureArgs::parse(CAMPAIGN_FIGURE, &args(list))
    }

    fn budget(list: &[&str]) -> ExperimentBudget {
        figure(list).expect("valid argv").budget
    }

    #[test]
    fn parses_packets_and_seed() {
        let b = budget(&["--packets", "12", "--seed", "99"]);
        assert_eq!(b.packets_per_point, 12);
        assert_eq!(b.seed, 99);
        assert_eq!(budget(&["--max-packets", "7"]).packets_per_point, 7);
    }

    #[test]
    fn rejects_unknown_args() {
        for bad in [
            &["--whatever", "--packets", "3"][..],
            &["--precison", "0.1"],
        ] {
            let err = figure(bad).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{}'", bad[0])), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_values() {
        // Negative, fractional or out-of-range values are errors, never
        // a silent fallback to the default.
        for bad in [
            &["--packets", "-5"][..],
            &["--packets", "3.7"],
            &["--packets", "0"],
            &["--threads", "-1"],
            &["--chunk", "0"],
            &["--precision", "nan"],
            &["--precision", "inf"],
            &["--precision", "-0.1"],
            &["--bler-floor", "1.5"],
        ] {
            let err = figure(bad).unwrap_err();
            assert!(err.starts_with(bad[0]), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parses_threads() {
        assert_eq!(budget(&["--threads", "4"]).threads, 4);
        assert_eq!(budget(&[]).threads, 0, "default is auto");
    }

    #[test]
    fn parses_batch_and_tier() {
        let b = budget(&["--batch", "4", "--accuracy-tier", "fast32"]);
        assert_eq!(b.batch, 4);
        assert_eq!(b.accuracy_tier, AccuracyTier::Fast32);
        let d = budget(&[]);
        assert_eq!(d.batch, 0, "default is the engine's batch width");
        assert_eq!(d.accuracy_tier, AccuracyTier::Exact);
        assert_eq!(budget(&["--batch", "8"]).batch, POOL_LANES);
        for bad in [
            &["--batch", "x"][..],
            &["--accuracy-tier", "f16"],
            &["--batch", "9"],
        ] {
            assert!(figure(bad).is_err(), "{bad:?}");
        }
        // The banner flags a non-default tier; the default stays silent.
        let text = banner("figX", "t", b);
        assert!(text.contains("tier fast32"), "{text}");
        assert!(
            !banner("figX", "t", d).contains("tier "),
            "default tier is silent"
        );
    }

    #[test]
    fn campaign_is_the_default_path() {
        let c = budget(&[]).campaign.expect("campaign on by default");
        assert_eq!(c, CampaignSettings::default());
        assert!(c.resume);
    }

    #[test]
    fn campaign_flags() {
        let b = budget(&[
            "--precision",
            "0.1",
            "--bler-floor",
            "0.05",
            "--chunk",
            "16",
            "--no-resume",
        ]);
        let c = b.campaign.unwrap();
        assert_eq!(c.precision, 0.1);
        assert_eq!(c.bler_floor, 0.05);
        assert_eq!(c.initial_chunk, 16);
        assert!(!c.resume);
    }

    #[test]
    fn parses_shard_and_target_ci() {
        let b = budget(&["--shard", "1/4", "--target-ci", "0.05"]);
        let c = b.campaign.unwrap();
        assert_eq!(c.shard, ShardSpec::new(1, 4).unwrap());
        assert_eq!(c.target_ci, 0.05);
        let text = banner("fig6", "x", b);
        assert!(text.contains("target-ci 0.050"), "{text}");
        assert!(text.contains("shard 1/4"), "{text}");
        // `--shard 4/4` would otherwise run the whole grid unsharded.
        for bad in [
            &["--shard", "4/4"][..],
            &["--shard", "x"],
            &["--target-ci", "-0.1"],
            &["--target-ci", "0"],
            &["--target-ci", "-1"],
        ] {
            assert!(figure(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_store_backend() {
        let b = budget(&["--store-backend", "indexed"]);
        let c = b.campaign.unwrap();
        assert_eq!(c.backend, BackendKind::Indexed);
        let text = banner("fig6", "x", b);
        assert!(text.contains("store indexed"), "{text}");
        let d = budget(&[]).campaign.unwrap();
        assert_eq!(d.backend, BackendKind::Jsonl, "jsonl is the default");
        assert!(
            !banner("fig6", "x", budget(&[])).contains("store "),
            "default backend is silent"
        );
        let err = figure(&["--store-backend", "sqlite"]).unwrap_err();
        assert!(err.contains("unknown store backend"), "{err}");

        // Dispatcher: forwarded to legs.
        let d = dispatch_from_args(&args(&[
            "--name",
            "c",
            "--bin",
            "b",
            "--store-backend",
            "indexed",
        ]))
        .unwrap();
        assert_eq!(d.store_backend, Some(BackendKind::Indexed));
        assert_eq!(
            dispatch_from_args(&args(&["--name", "c", "--bin", "b"]))
                .unwrap()
                .store_backend,
            None
        );
        let err = dispatch_from_args(&args(&[
            "--name",
            "c",
            "--bin",
            "b",
            "--store-backend",
            "sqlite",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown store backend"), "{err}");
    }

    #[test]
    fn manifest_json_needs_a_value() {
        let a = figure(&["--packets", "5", "--manifest-json", "out.json"]).unwrap();
        assert_eq!(a.manifest_json.as_deref(), Some("out.json"));
        assert_eq!(figure(&["--packets", "5"]).unwrap().manifest_json, None);
        // A trailing `--manifest-json` would copy nothing, so CI's `jq`
        // asserts on the copy would pass on nothing; a flag never takes
        // the next flag as its value.
        for bad in [
            &["--manifest-json"][..],
            &["--packets", "5", "--manifest-json"],
            &["--manifest-json", "--telemetry"],
        ] {
            let err = figure(bad).unwrap_err();
            assert!(err.contains("--manifest-json needs a value"), "{err}");
        }
    }

    #[test]
    fn one_shot_disables_the_campaign() {
        let b = budget(&["--one-shot", "--packets", "5"]);
        assert!(b.campaign.is_none());
        assert_eq!(b.packets_per_point, 5);
        assert!(banner("figX", "test", b).contains("one-shot"));
        // A campaign flag would be silently ignored in a one-shot run.
        for bad in [
            &["--one-shot", "--precision", "0.1"][..],
            &["--precision", "0.1", "--one-shot"],
            &["--one-shot", "--telemetry"],
            &["--one-shot", "--manifest-json", "m.json"],
        ] {
            let err = figure(bad).unwrap_err();
            assert!(err.contains("does not apply to a --one-shot run"), "{err}");
        }
    }

    #[test]
    fn each_binary_accepts_only_its_own_flags() {
        let ablations = |list: &[&str]| FigureArgs::parse(ABLATIONS, &args(list));
        assert_eq!(
            ablations(&["--packets", "5"])
                .unwrap()
                .budget
                .packets_per_point,
            5
        );
        for bad in [
            &["--shard", "1/2"][..],
            &["--precision", "0.01"],
            &["--one-shot"],
        ] {
            assert!(ablations(bad).is_err(), "{bad:?}");
        }
        assert!(FigureArgs::parse(NO_FLAGS, &[]).is_ok());
        let err = FigureArgs::parse(NO_FLAGS, &args(&["--packets", "5"])).unwrap_err();
        assert!(err.contains("unknown flag '--packets'"), "{err}");
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        for text in [
            usage("fig6a [FLAGS]", CAMPAIGN_FIGURE),
            usage("x", &[DISPATCH_FLAGS]),
            usage("x", &[ADMIN_FLAGS]),
        ] {
            assert!(text.starts_with("usage: "), "{text}");
        }
        let text = usage("fig6a [FLAGS]", CAMPAIGN_FIGURE);
        for f in CAMPAIGN_FIGURE.iter().flat_map(|set| set.iter()) {
            let line = text
                .lines()
                .find(|l| l.contains(f.help))
                .expect("help line");
            assert!(line.contains(&f.names.join(", ")), "{line}");
            assert!(line.contains(f.metavar), "{line}");
        }
    }

    #[test]
    fn banner_mentions_figure_and_mode() {
        let text = banner("fig6", "throughput", budget(&[]));
        assert!(text.contains("fig6"));
        assert!(text.contains("campaign: precision"));
    }

    #[test]
    fn dispatch_args_parse_and_validate() {
        let d = dispatch_from_args(&args(&[
            "--name",
            "fig6",
            "--bin",
            "target/release/fig6a",
            "--legs",
            "3",
            "--no-steal",
            "--stall-timeout",
            "30",
            "--manifest-json",
            "out.json",
            "--quiet",
            "--",
            "--precision",
            "0.2",
        ]))
        .expect("full flag set parses");
        assert_eq!(d.config.name, "fig6");
        assert_eq!(d.config.legs, 3);
        assert!(!d.config.steal);
        assert_eq!(d.config.stall_timeout, Some(Duration::from_secs(30)));
        assert_eq!(d.manifest_json.as_deref(), Some("out.json"));
        assert!(d.quiet);
        assert_eq!(d.leg_args, args(&["--precision", "0.2"]));
        assert_eq!(d.leg_flags, ["--precision"]);

        // Defaults: 2 legs, steal on, cwd work dir, 600 s stall timeout.
        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b"])).unwrap();
        assert_eq!(
            (d.config.legs, d.config.steal, d.work_dir.as_str()),
            (2, true, ".")
        );
        assert_eq!(d.config.dir, Path::new(".").join(DEFAULT_STORE_DIR));
        assert_eq!(d.config.stall_timeout, Some(Duration::from_secs(600)));
        let d = dispatch_from_args(&args(&[
            "--name",
            "c",
            "--bin",
            "b",
            "--stall-timeout",
            "0",
            "--work-dir",
            "w",
        ]))
        .unwrap();
        assert_eq!(d.config.stall_timeout, None);
        assert_eq!(d.config.dir, Path::new("w").join(DEFAULT_STORE_DIR));

        // Missing requireds, unknown flags and malformed values are
        // errors, in the dispatcher's own flags and in the leg arguments
        // alike: a bad leg argument fails before any leg launches.
        for bad in [
            &["--bin", "b"][..],
            &["--name", "c"],
            &["--name", "c", "--bin", "b", "--legs", "0"],
            &["--name", "c", "--bin", "b", "--legs", "x"],
            &["--name", "c", "--bin", "b", "--legs", "2000000"],
            &["--name", "c", "--bin", "b", "--what"],
            &["--name"],
            &["--name", "c", "--bin", "b", "--", "--precison", "0.05"],
            &["--name", "c", "--bin", "b", "--", "--packets", "0"],
            &["--name", "c", "--bin", "b", "--", "--packets"],
        ] {
            assert!(dispatch_from_args(&args(bad)).is_err(), "{bad:?}");
        }

        // Leg args that would subvert the dispatch contract are
        // rejected: --no-resume turns stealing into re-simulation,
        // --one-shot legs write no manifest, --shard belongs to the
        // dispatcher, --manifest-json would race across legs.
        for forbidden in [
            &["--shard"][..],
            &["--no-resume"],
            &["--one-shot"],
            &["--manifest-json"],
            &["--shard", "0/2"],
            &["--manifest-json", "m.json"],
        ] {
            let mut argv = args(&["--name", "c", "--bin", "b", "--"]);
            argv.extend(args(forbidden));
            let err = dispatch_from_args(&argv).unwrap_err();
            assert!(err.contains(forbidden[0]), "{err}");
        }
        let owned: Vec<_> = CAMPAIGN_FIGURE
            .iter()
            .flat_map(|set| set.iter())
            .filter(|f| f.dispatcher_owned)
            .map(|f| f.names[0])
            .collect();
        assert_eq!(
            owned,
            ["--shard", "--no-resume", "--manifest-json", "--one-shot"]
        );
        assert!(
            dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--", "--resume"])).is_ok(),
            "--resume is the contract, not a conflict"
        );
    }

    #[test]
    fn chaos_and_launcher_flags_parse() {
        use resilience_core::campaign::BackoffPolicy;

        // Figure binaries: `--chaos-seed` is a field of the parse; the
        // budget is untouched and nothing is armed until the binary
        // applies it.
        let a = figure(&["--chaos-seed", "42"]).unwrap();
        assert_eq!(a.chaos_seed, Some(42));
        assert_eq!(a.budget, budget(&[]));

        let d = dispatch_from_args(&args(&[
            "--name",
            "c",
            "--bin",
            "b",
            "--launcher",
            "ssh {host} {cmd}",
            "--hosts",
            "alpha,beta",
            "--pull",
            "rsync {host}:dir dir",
            "--backoff",
            "100:2:5000",
            "--no-reshard",
            "--chaos-seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(d.launcher.as_deref(), Some("ssh {host} {cmd}"));
        assert_eq!(d.hosts.as_deref(), Some("alpha,beta"));
        assert_eq!(d.pull.as_deref(), Some("rsync {host}:dir dir"));
        assert_eq!(d.config.backoff.base, Duration::from_millis(100));
        assert_eq!(d.config.backoff.max, Duration::from_millis(5000));
        assert!(!d.config.reshard);
        assert_eq!(d.chaos_seed, Some(7));

        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b"])).unwrap();
        assert!(d.config.reshard, "re-sharding defaults on");
        assert_eq!((d.launcher, d.chaos_seed), (None, None));
        assert_eq!(d.config.backoff, BackoffPolicy::default());

        for bad in [
            &["--name", "c", "--bin", "b", "--backoff", "100:2"][..],
            &["--name", "c", "--bin", "b", "--chaos-seed", "x"],
            &["--name", "c", "--bin", "b", "--hosts", "alpha"],
            &["--name", "c", "--bin", "b", "--pull", "scp x y"],
        ] {
            assert!(dispatch_from_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn summary_line_is_grepable() {
        let t = ManifestTotals {
            points_total: 10,
            points_converged: 8,
            total_chunks: 20,
            store_chunks: 20,
            store_packets: 300,
            realized_packets: 400,
            budget_packets: 600,
        };
        let line = summary_line("fig6", &t);
        assert!(line.starts_with("campaign fig6: 10 points"), "{line}");
        assert!(line.contains("store-hit rate: 100.0%"), "{line}");
        assert!(line.contains("75.0% of packets"), "{line}");
        assert!(line.contains("saved 33.3%"), "{line}");
    }

    #[test]
    fn telemetry_flags_parse() {
        // Figure binaries: `--telemetry` is a field of the parse and
        // leaves the budget (and hence the manifest-rendered settings)
        // untouched.
        let a = figure(&["--telemetry"]).unwrap();
        assert!(a.telemetry);
        assert_eq!(a.budget, budget(&[]));
        assert!(!figure(&[]).unwrap().telemetry);

        // Dispatcher: `--telemetry` is a plain config bit.
        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--telemetry"])).unwrap();
        assert!(d.config.telemetry);
        assert!(
            !dispatch_from_args(&args(&["--name", "c", "--bin", "b"]))
                .unwrap()
                .config
                .telemetry
        );
        // Legs may receive it verbatim; the dispatcher sees that it was
        // given and does not append a second one.
        let d =
            dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--", "--telemetry"])).unwrap();
        assert_eq!(d.leg_flags, ["--telemetry"]);
    }

    #[test]
    fn admin_args_parse_and_validate() {
        let admin = |list: &[&str]| admin_from_args(&args(list));
        let a = admin(&[
            "query",
            "--name",
            "fig6",
            "--snr",
            "8:12",
            "--converged",
            "true",
        ])
        .unwrap();
        assert_eq!((a.command.as_str(), a.name.as_str()), ("query", "fig6"));
        assert!(!a.filter.is_empty());
        let a = admin(&["query", "--name", "fig6", "--key", "0123456789abcDEF"]).unwrap();
        assert!(!a.filter.is_empty());
        assert!(admin(&["query", "--name", "fig6", "--snr", "5:5"]).is_ok());
        // A reversed or non-finite range, or a key that no store can hold,
        // would read as "no points match".
        for bad in [
            &["query", "--name", "fig6", "--snr", "10:5"][..],
            &["query", "--name", "fig6", "--snr", "nan:5"],
            &["query", "--name", "fig6", "--snr", "5:inf"],
            &["query", "--name", "fig6", "--snr", "5"],
            &["query", "--name", "fig6", "--key", "+1f"],
            &["query", "--name", "fig6", "--key", "1f"],
            &["query", "--name", "fig6", "--key", "+123456789abcdef"],
            &["query", "--name", "fig6", "--key", "0123456789abcdef0"],
            &["query", "--name", "fig6", "--converged", "yes"],
            &["query", "--name", "fig6", "--tier", "f16"],
            &["gc", "--name", "fig6", "--shard", "4/4"],
            &[
                "import",
                "--name",
                "fig6",
                "--file",
                "x.jsonl",
                "--store-backend",
                "sqlite",
            ],
            &["export", "--name", "fig6"],
            &["stats"],
            &["stat", "--name", "fig6"],
            &[],
        ] {
            assert!(admin(bad).is_err(), "{bad:?}");
        }
    }

    /// Token groups for the argv fuzzer: one flag and its value, if any.
    type Groups = &'static [&'static [&'static str]];

    const BUDGET_GOOD: Groups = &[
        &["--packets", "24"],
        &["--max-packets", "1"],
        &["--seed", "7"],
        &["--threads", "0"],
        &["--batch", "0"],
        &["--batch", "8"],
        &["--accuracy-tier", "early-stop"],
    ];
    const CAMPAIGN_GOOD: Groups = &[
        &["--precision", "0"],
        &["--precision", "0.2"],
        &["--bler-floor", "1"],
        &["--chunk", "8"],
        &["--target-ci", "0.05"],
        &["--store-backend", "indexed"],
        &["--resume"],
        &["--telemetry"],
        &["--chaos-seed", "3"],
    ];
    const OWNED: Groups = &[
        &["--shard", "1/2"],
        &["--shard", "0/2:1/3"],
        &["--no-resume"],
        &["--manifest-json", "m.json"],
        &["--one-shot"],
    ];
    const FIGURE_BAD: Groups = &[
        &["--precison", "0.05"],
        &["--packet", "5"],
        &["--Seed", "1"],
        &["--"],
        &["--packets", "0"],
        &["--packets", "3.7"],
        &["--packets", "-5"],
        &["--seed", ""],
        &["--threads", "-1"],
        &["--batch", "9"],
        &["--chunk", "0"],
        &["--target-ci", "-1"],
        &["--target-ci", "0"],
        &["--precision", "nan"],
        &["--bler-floor", "1.5"],
        &["--shard", "4/4"],
        &["--accuracy-tier", "f16"],
        &["--store-backend", "sqlite"],
        &["--chaos-seed", "x"],
    ];
    const DISPATCH_GOOD: Groups = &[
        &["--legs", "3"],
        &["--steal"],
        &["--no-steal"],
        &["--work-dir", "w"],
        &["--stall-timeout", "0"],
        &["--manifest-json", "m.json"],
        &["--telemetry"],
        &["--store-backend", "jsonl"],
        &["--hosts", "a,b"],
        &["--pull", "true"],
        &["--backoff", "100:2:2000"],
        &["--no-reshard"],
        &["--chaos-seed", "20"],
        &["--quiet"],
    ];
    const DISPATCH_BAD: Groups = &[
        &["--leg", "2"],
        &["--legs", "0"],
        &["--legs", "1025"],
        &["--stall-timeout", "-1"],
        &["--backoff", "100:0.5:10"],
        &["--store-backend", "sqlite"],
        &["--precision", "0.2"],
    ];
    const ADMIN_GOOD: Groups = &[
        &["--dir", "d"],
        &["--out-dir", "o"],
        &["--shard", "1/2"],
        &["--key", "00000000deadbeef"],
        &["--snr", "-5:12.5"],
        &["--tier", "fast32"],
        &["--converged", "false"],
        &["--file", "x.seg"],
        &["--store-backend", "indexed"],
        &["--strict"],
        &["--once"],
        &["--interval", "5"],
    ];
    const ADMIN_BAD: Groups = &[
        &["--names", "x"],
        &["--snr", "10:5"],
        &["--snr", "nan:5"],
        &["--key", "+1f"],
        &["--key", "deadbeef"],
        &["--tier", "f16"],
        &["--converged", "1"],
        &["--interval", "-1"],
        &["--shard", "2/2"],
    ];

    /// Each valued flag of `sets` with its value missing.
    fn missing_values<P>(sets: &[&[Flag<P>]]) -> Vec<&'static [&'static str]> {
        let flags = sets.iter().flat_map(|set| set.iter());
        flags
            .filter(|f| !f.metavar.is_empty())
            .map(|f| f.names)
            .collect()
    }

    /// Appends up to five groups, each from `bad` with probability 1/4
    /// (when there is one) and otherwise from `good`; returns whether
    /// every group came from `good`.
    fn draw(
        rng: &mut rand::rngs::StdRng,
        good: &[&[&str]],
        bad: &[&[&str]],
        argv: &mut Vec<String>,
    ) -> bool {
        use rand::Rng;
        let mut clean = true;
        for _ in 0..rng.gen_range(0..6usize) {
            let from_bad = good.is_empty() || rng.gen_bool(0.25);
            let pool = if from_bad { bad } else { good };
            clean &= !from_bad;
            argv.extend(args(pool[rng.gen_range(0..pool.len())]));
        }
        clean
    }

    /// Parsing never panics and succeeds exactly when every token group
    /// came from the valid pool, for every binary's flag set.
    #[test]
    fn argv_fuzz_accepts_exactly_the_valid_pool() {
        use rand::SeedableRng;
        let cat = |pools: &[Groups]| -> Vec<&[&str]> { pools.concat() };
        let missing = missing_values(CAMPAIGN_FIGURE);
        let figure_bad = [FIGURE_BAD, &missing[..]].concat();
        let figure_good = cat(&[BUDGET_GOOD, CAMPAIGN_GOOD, &OWNED[..4]]);
        let ablations_bad = [&figure_bad[..], CAMPAIGN_GOOD, OWNED].concat();
        let nothing_good: Vec<&[&str]> = Vec::new();
        let everything = [&figure_bad[..], BUDGET_GOOD, CAMPAIGN_GOOD, OWNED].concat();
        let leg_good = cat(&[BUDGET_GOOD, CAMPAIGN_GOOD]);
        let leg_bad = [&figure_bad[..], OWNED].concat();
        let dispatch_bad = [DISPATCH_BAD, &missing_values(&[DISPATCH_FLAGS])[..]].concat();
        let admin_bad = [ADMIN_BAD, &missing_values(&[ADMIN_FLAGS])[..]].concat();

        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf1a9);
        for case in 0..2000 {
            let mut argv = Vec::new();
            let (clean, result) = match case % 5 {
                0 => {
                    let clean = draw(&mut rng, &figure_good, &figure_bad, &mut argv);
                    (clean, FigureArgs::parse(CAMPAIGN_FIGURE, &argv).map(drop))
                }
                1 => {
                    let clean = draw(&mut rng, BUDGET_GOOD, &ablations_bad, &mut argv);
                    (clean, FigureArgs::parse(ABLATIONS, &argv).map(drop))
                }
                2 => {
                    let clean = draw(&mut rng, &nothing_good, &everything, &mut argv);
                    (clean, FigureArgs::parse(NO_FLAGS, &argv).map(drop))
                }
                3 => {
                    argv = args(&[
                        "--name",
                        "fig6",
                        "--bin",
                        "fig6a",
                        "--launcher",
                        "sh -c {cmd}",
                    ]);
                    let own = draw(&mut rng, DISPATCH_GOOD, &dispatch_bad, &mut argv);
                    argv.push("--".into());
                    let legs = draw(&mut rng, &leg_good, &leg_bad, &mut argv);
                    (own && legs, dispatch_from_args(&argv).map(drop))
                }
                _ => {
                    argv = args(&["query", "--name", "fig6"]);
                    let clean = draw(&mut rng, ADMIN_GOOD, &admin_bad, &mut argv);
                    (clean, admin_from_args(&argv).map(drop))
                }
            };
            assert_eq!(result.is_ok(), clean, "case {case}: {argv:?} -> {result:?}");
        }
    }
}
