//! Shared command-line handling for every figure binary.
//!
//! Historically each binary re-parsed `--packets/--seed/--threads` by
//! hand; this module is now the single place that turns `argv` into an
//! [`ExperimentBudget`], including the campaign-layer flags:
//!
//! * `--packets N` / `--max-packets N` — per-point packet budget (the
//!   escalation **cap** under a campaign);
//! * `--seed S`, `--threads T` — as before;
//! * `--batch N` — engine decode batch width (`0`/unset = engine
//!   default). Bit-identical at every width — a pure throughput knob;
//! * `--accuracy-tier TIER` — decoder tier (`exact`, `early-stop`,
//!   `fast32`). Non-default tiers change Monte-Carlo outcomes and get
//!   their own campaign fingerprints (stores never mix tiers);
//! * `--precision P` — target relative half-width of the per-point BLER
//!   confidence interval (default 0.25);
//! * `--bler-floor F` — BLER below which a point counts as resolved;
//! * `--chunk N` — packets of the first adaptive chunk;
//! * `--target-ci W` — absolute Wilson half-width target: replaces the
//!   relative rule and sizes chunks straight from the Wilson estimate;
//! * `--shard I/N` — run only the points of shard `I` (of `N` total) of
//!   the campaign, into suffixed store/manifest files that
//!   `campaign-admin merge` folds back into the single-host result;
//! * `--store-backend KIND` — result-store backend: `jsonl` (default,
//!   line-oriented interchange format) or `indexed` (append-only binary
//!   segments with a point-key index — open/resume cost proportional to
//!   points touched, not file size). A storage knob like `--resume`:
//!   manifests are byte-identical across backends;
//! * `--resume` / `--no-resume` — reuse or truncate the persistent
//!   result store under `target/campaign/`;
//! * `--manifest-json PATH` — after the run, copy the campaign manifest
//!   to `PATH` (machine-readable summary for CI assertions);
//! * `--telemetry` — write live telemetry exposition files under
//!   `target/campaign/` (`<name>.telemetry.json` live snapshot,
//!   `<name>.telemetry.jsonl` event log, `<name>.prom` Prometheus text).
//!   Metric *recording* is always on; the flag only enables the files,
//!   so results are byte-identical with or without it. `campaign-admin
//!   top` tails the snapshot;
//! * `--chaos-seed N` — arm the deterministic failpoints with seed `N`
//!   (chaos test suite). Like `--telemetry` this is process-global and
//!   excluded from campaign identity: injected faults kill or degrade
//!   the process, they never alter a surviving result byte. The
//!   `RESILIENCE_CHAOS_SEED` / `RESILIENCE_CHAOS_ATTEMPT` environment
//!   (what the dispatcher's launchers set for their legs) arms the same
//!   switch;
//! * `--one-shot` — bypass the campaign layer entirely (classic fixed
//!   budget on the bare engine).
//!
//! Campaigns are the default execution path: unless `--one-shot` is
//! given, every binary runs adaptive budgets against the store.

use hspa_phy::turbo::AccuracyTier;
use resilience_core::campaign::{
    BackendKind, BackoffPolicy, Campaign, CampaignSettings, Manifest, ManifestTotals, ShardSpec,
};
use resilience_core::experiments::ExperimentBudget;

/// Parses command-line arguments into a budget. Unknown arguments are
/// ignored so binaries can add their own flags.
pub fn budget_from_args(args: &[String]) -> ExperimentBudget {
    // Dispatcher-launched legs inherit their chaos arming through the
    // environment (the launcher sets it per attempt); a `--chaos-seed`
    // flag below overrides it for direct invocations.
    resilience_core::failpoint::arm_from_env();
    let mut budget = ExperimentBudget::full().with_campaign(CampaignSettings::default());
    // Flags with a value: parse it strictly (wrong type/sign keeps the
    // default, exactly like an unknown flag) or leave the default.
    fn next_parsed<T: std::str::FromStr>(it: &mut std::slice::Iter<String>) -> Option<T> {
        it.next().and_then(|s| s.parse().ok())
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--packets" | "--max-packets" => {
                if let Some(v) = next_parsed::<usize>(&mut it) {
                    budget.packets_per_point = v;
                }
            }
            "--seed" => {
                if let Some(v) = next_parsed::<u64>(&mut it) {
                    budget.seed = v;
                }
            }
            "--threads" => {
                if let Some(v) = next_parsed::<usize>(&mut it) {
                    budget.threads = v;
                }
            }
            "--batch" => {
                if let Some(v) = next_parsed::<usize>(&mut it) {
                    budget.batch = v;
                }
            }
            "--accuracy-tier" => {
                if let Some(v) = next_parsed::<AccuracyTier>(&mut it) {
                    budget.accuracy_tier = v;
                }
            }
            "--precision" => {
                if let (Some(v), Some(c)) = (next_parsed::<f64>(&mut it), budget.campaign.as_mut())
                {
                    c.precision = v;
                }
            }
            "--bler-floor" => {
                if let (Some(v), Some(c)) = (next_parsed::<f64>(&mut it), budget.campaign.as_mut())
                {
                    c.bler_floor = v;
                }
            }
            "--chunk" => {
                if let (Some(v), Some(c)) =
                    (next_parsed::<usize>(&mut it), budget.campaign.as_mut())
                {
                    if v >= 1 {
                        c.initial_chunk = v;
                    }
                }
            }
            "--target-ci" => {
                if let (Some(v), Some(c)) = (next_parsed::<f64>(&mut it), budget.campaign.as_mut())
                {
                    if v > 0.0 {
                        c.target_ci = v;
                    }
                }
            }
            "--shard" => {
                if let (Some(v), Some(c)) =
                    (next_parsed::<ShardSpec>(&mut it), budget.campaign.as_mut())
                {
                    c.shard = v;
                }
            }
            "--store-backend" => {
                if let (Some(v), Some(c)) = (
                    next_parsed::<BackendKind>(&mut it),
                    budget.campaign.as_mut(),
                ) {
                    c.backend = v;
                }
            }
            "--resume" => {
                if let Some(c) = budget.campaign.as_mut() {
                    c.resume = true;
                }
            }
            "--no-resume" => {
                if let Some(c) = budget.campaign.as_mut() {
                    c.resume = false;
                }
            }
            // Process-global on purpose: exposition must stay out of
            // `CampaignSettings` (settings render into the manifest,
            // and telemetry may never change manifest bytes).
            "--telemetry" => resilience_core::telemetry::set_enabled(true),
            // Same identity rule as --telemetry: armed failpoints crash
            // or degrade the process but never change a surviving
            // result, so the seed stays out of `CampaignSettings`.
            "--chaos-seed" => {
                if let Some(v) = next_parsed::<u64>(&mut it) {
                    resilience_core::failpoint::arm(v);
                }
            }
            "--one-shot" => budget.campaign = None,
            _ => {}
        }
    }
    budget
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

/// Prints the campaign summaries (store-hit rate, packets saved versus
/// the fixed budget, convergence tally) for the given campaign names.
/// No-op in `--one-shot` mode or when a manifest is missing. Resolves
/// the shard-suffixed manifest of a `--shard i/n` run.
pub fn print_campaign_summary(budget: &ExperimentBudget, names: &[&str]) {
    let Some(settings) = budget.campaign else {
        return;
    };
    for name in names {
        let path = Campaign::manifest_path_for(name, &settings);
        match Manifest::read(&path) {
            Ok(m) => println!("{}", summary_line(name, &m.totals())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("campaign {name}: no manifest at {}", path.display())
            }
            Err(e) => println!("campaign {name}: {e}"),
        }
    }
}

/// Post-run epilogue shared by every figure binary: prints the campaign
/// summaries, then honors `--manifest-json PATH` by copying the first
/// campaign's manifest to `PATH` (CI asserts on the copy with `jq`
/// instead of scraping stdout). Exits non-zero if the copy was
/// requested but no manifest exists — a silent skip would make CI
/// assertions vacuously pass.
pub fn finish(args: &[String], budget: &ExperimentBudget, names: &[&str]) {
    print_campaign_summary(budget, names);
    let Some(out) = flag_value(args, "--manifest-json") else {
        return;
    };
    let Some(settings) = budget.campaign else {
        eprintln!("--manifest-json: no campaign manifest in --one-shot mode");
        std::process::exit(1);
    };
    let Some(name) = names.first() else {
        eprintln!("--manifest-json: this binary runs no campaign");
        std::process::exit(1);
    };
    let path = Campaign::manifest_path_for(name, &settings);
    if let Err(e) = std::fs::copy(&path, &out) {
        eprintln!(
            "--manifest-json: cannot copy {} to {out}: {e}",
            path.display()
        );
        std::process::exit(1);
    }
    println!("manifest JSON written to {out}");
}

/// Parsed arguments of the `campaign-dispatch` binary.
///
/// ```text
/// campaign-dispatch --name fig6 --bin target/release/fig6a --legs 2 \
///     [--steal|--no-steal] [--work-dir D] [--stall-timeout SECS] \
///     [--launcher TEMPLATE] [--hosts a,b,c] [--pull TEMPLATE] \
///     [--backoff BASE_MS:FACTOR:MAX_MS] [--no-reshard] [--chaos-seed N] \
///     [--manifest-json PATH] [--quiet] [-- LEG_ARGS...]
/// ```
///
/// Everything after `--` is passed to every leg verbatim (before the
/// dispatcher's own `--shard i/n`), so campaign knobs like
/// `--precision` / `--packets` / `--chunk` ride through unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchArgs {
    /// Campaign name (store/manifest file stem, e.g. `fig6`).
    pub name: String,
    /// Figure binary to launch as legs.
    pub bin: String,
    /// Shard count (`--legs`, default 2).
    pub legs: u32,
    /// Steal work from dead/stalled legs (default on).
    pub steal: bool,
    /// Working directory of the legs; their artifacts land under
    /// `<work-dir>/target/campaign/` (default `.`).
    pub work_dir: String,
    /// Stall timeout in seconds (`0` disables; default 600).
    pub stall_timeout_secs: u64,
    /// Copy the merged manifest here after a successful dispatch.
    pub manifest_json: Option<String>,
    /// Enable telemetry exposition: the dispatcher writes its own event
    /// log and every leg gets `--telemetry` appended (live snapshots
    /// double as the legs' heartbeat).
    pub telemetry: bool,
    /// Result-store backend forwarded to every leg as
    /// `--store-backend KIND` (`None`: legs use their default).
    pub store_backend: Option<BackendKind>,
    /// Launch-command template for the remote-capable
    /// `CommandLauncher` (`ssh {host} {cmd}`; tests use `sh -c {cmd}`).
    /// `None` launches legs as local child processes.
    pub launcher: Option<String>,
    /// Comma-separated `{host}` pool for `--launcher` (round-robin).
    pub hosts: Option<String>,
    /// Artifact pull-back template run after each `--launcher` leg
    /// exits or is killed.
    pub pull: Option<String>,
    /// Relaunch backoff schedule (`None`: the dispatcher default).
    pub backoff: Option<BackoffPolicy>,
    /// Elastic re-sharding of dead shards across idle slots
    /// (`--no-reshard` turns it off).
    pub reshard: bool,
    /// Chaos seed armed into every leg's environment (and the
    /// dispatcher's own launch failpoint).
    pub chaos_seed: Option<u64>,
    /// Silence leg stdout.
    pub quiet: bool,
    /// Arguments forwarded to every leg.
    pub leg_args: Vec<String>,
}

/// Largest accepted `--legs` value (mirrors
/// `resilience_core::campaign::dispatch::MAX_LEGS`).
const MAX_LEGS: u32 = resilience_core::campaign::dispatch::MAX_LEGS;

/// Parses `campaign-dispatch` argv (without the program name). Unlike
/// the figure binaries' lenient [`budget_from_args`], unknown or
/// malformed dispatcher flags are hard errors — a typo here silently
/// changes how many hosts' worth of compute gets launched.
pub fn dispatch_from_args(args: &[String]) -> Result<DispatchArgs, String> {
    let mut parsed = DispatchArgs {
        name: String::new(),
        bin: String::new(),
        legs: 2,
        steal: true,
        work_dir: ".".into(),
        stall_timeout_secs: 600,
        manifest_json: None,
        telemetry: false,
        store_backend: None,
        launcher: None,
        hosts: None,
        pull: None,
        backoff: None,
        reshard: true,
        chaos_seed: None,
        quiet: false,
        leg_args: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--name" => parsed.name = value("--name")?,
            "--bin" => parsed.bin = value("--bin")?,
            "--legs" => {
                // Every leg is a concurrently spawned child process, so
                // an implausible count (extra digits) must not parse —
                // it would fork-bomb the host before monitoring starts.
                parsed.legs = value("--legs")?
                    .parse()
                    .ok()
                    .filter(|&n| (1..=MAX_LEGS).contains(&n))
                    .ok_or_else(|| format!("--legs needs an integer in 1..={MAX_LEGS}"))?
            }
            "--steal" => parsed.steal = true,
            "--no-steal" => parsed.steal = false,
            "--work-dir" => parsed.work_dir = value("--work-dir")?,
            "--stall-timeout" => {
                parsed.stall_timeout_secs = value("--stall-timeout")?
                    .parse()
                    .map_err(|_| "--stall-timeout needs a number of seconds")?
            }
            "--manifest-json" => parsed.manifest_json = Some(value("--manifest-json")?),
            "--telemetry" => parsed.telemetry = true,
            "--store-backend" => parsed.store_backend = Some(value("--store-backend")?.parse()?),
            "--launcher" => parsed.launcher = Some(value("--launcher")?),
            "--hosts" => parsed.hosts = Some(value("--hosts")?),
            "--pull" => parsed.pull = Some(value("--pull")?),
            "--backoff" => parsed.backoff = Some(value("--backoff")?.parse::<BackoffPolicy>()?),
            "--no-reshard" => parsed.reshard = false,
            "--chaos-seed" => {
                parsed.chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|_| "--chaos-seed needs an unsigned integer")?,
                )
            }
            "--quiet" => parsed.quiet = true,
            "--" => {
                parsed.leg_args = it.cloned().collect();
                break;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if parsed.name.is_empty() {
        return Err("--name <campaign> is required".into());
    }
    if parsed.bin.is_empty() {
        return Err("--bin <figure binary> is required".into());
    }
    if parsed.launcher.is_none() && (parsed.hosts.is_some() || parsed.pull.is_some()) {
        return Err("--hosts/--pull only apply to a --launcher template".into());
    }
    // Leg args that would break the dispatch contract are rejected, not
    // forwarded: `--shard` is the dispatcher's own to assign;
    // `--no-resume` would make every rescue leg truncate the straggler's
    // store and re-simulate it (the opposite of stealing); `--one-shot`
    // legs write no manifest, so every leg would be "rescued" to the
    // attempt cap; `--manifest-json` would have the legs race on one
    // output file (pass it to campaign-dispatch itself instead).
    for forbidden in ["--shard", "--no-resume", "--one-shot", "--manifest-json"] {
        if parsed.leg_args.iter().any(|a| a == forbidden) {
            return Err(format!(
                "leg argument '{forbidden}' conflicts with dispatching \
                 (the dispatcher owns sharding, store resume and manifest export)"
            ));
        }
    }
    Ok(parsed)
}

/// The value following a `--flag VALUE` pair, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
    }
    None
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_packets_and_seed() {
        let b = budget_from_args(&args(&["--packets", "12", "--seed", "99"]));
        assert_eq!(b.packets_per_point, 12);
        assert_eq!(b.seed, 99);
        assert_eq!(
            budget_from_args(&args(&["--max-packets", "7"])).packets_per_point,
            7
        );
    }

    #[test]
    fn ignores_unknown_args() {
        let b = budget_from_args(&args(&["--whatever", "--packets", "3"]));
        assert_eq!(b.packets_per_point, 3);
    }

    #[test]
    fn malformed_values_keep_defaults() {
        // Negative or fractional integer flags must not collapse to 0 —
        // they are ignored like any unparsable value.
        let d = budget_from_args(&[]);
        for bad in [
            &["--packets", "-5"][..],
            &["--packets", "3.7"],
            &["--threads", "-1"],
            &["--chunk", "0"],
        ] {
            let b = budget_from_args(&args(bad));
            assert_eq!(b.packets_per_point, d.packets_per_point, "{bad:?}");
            assert_eq!(b.threads, d.threads, "{bad:?}");
            assert_eq!(b.campaign, d.campaign, "{bad:?}");
        }
    }

    #[test]
    fn parses_threads() {
        assert_eq!(budget_from_args(&args(&["--threads", "4"])).threads, 4);
        assert_eq!(budget_from_args(&[]).threads, 0, "default is auto");
    }

    #[test]
    fn parses_batch_and_tier() {
        let b = budget_from_args(&args(&["--batch", "4", "--accuracy-tier", "fast32"]));
        assert_eq!(b.batch, 4);
        assert_eq!(b.accuracy_tier, AccuracyTier::Fast32);
        let d = budget_from_args(&[]);
        assert_eq!(d.batch, 0, "default is the engine's batch width");
        assert_eq!(d.accuracy_tier, AccuracyTier::Exact);
        // Malformed values keep the defaults, like every other flag.
        for bad in [&["--batch", "x"][..], &["--accuracy-tier", "f16"]] {
            let b = budget_from_args(&args(bad));
            assert_eq!(b.batch, d.batch, "{bad:?}");
            assert_eq!(b.accuracy_tier, d.accuracy_tier, "{bad:?}");
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
        let b = budget_from_args(&[]);
        let c = b.campaign.expect("campaign on by default");
        assert_eq!(c, CampaignSettings::default());
        assert!(c.resume);
    }

    #[test]
    fn campaign_flags() {
        let b = budget_from_args(&args(&[
            "--precision",
            "0.1",
            "--bler-floor",
            "0.05",
            "--chunk",
            "16",
            "--no-resume",
        ]));
        let c = b.campaign.unwrap();
        assert_eq!(c.precision, 0.1);
        assert_eq!(c.bler_floor, 0.05);
        assert_eq!(c.initial_chunk, 16);
        assert!(!c.resume);
    }

    #[test]
    fn parses_shard_and_target_ci() {
        use resilience_core::campaign::ShardSpec;
        let b = budget_from_args(&args(&["--shard", "1/4", "--target-ci", "0.05"]));
        let c = b.campaign.unwrap();
        assert_eq!(c.shard, ShardSpec::new(1, 4).unwrap());
        assert_eq!(c.target_ci, 0.05);
        let text = banner("fig6", "x", b);
        assert!(text.contains("target-ci 0.050"), "{text}");
        assert!(text.contains("shard 1/4"), "{text}");
        // Malformed values keep the defaults.
        let d = budget_from_args(&[]).campaign.unwrap();
        for bad in [
            &["--shard", "4/4"][..],
            &["--shard", "x"],
            &["--target-ci", "-0.1"],
            &["--target-ci", "0"],
        ] {
            assert_eq!(budget_from_args(&args(bad)).campaign.unwrap(), d, "{bad:?}");
        }
    }

    #[test]
    fn parses_store_backend() {
        // Figure binaries: lenient like every campaign knob.
        let b = budget_from_args(&args(&["--store-backend", "indexed"]));
        let c = b.campaign.unwrap();
        assert_eq!(c.backend, BackendKind::Indexed);
        let text = banner("fig6", "x", b);
        assert!(text.contains("store indexed"), "{text}");
        let d = budget_from_args(&[]).campaign.unwrap();
        assert_eq!(d.backend, BackendKind::Jsonl, "jsonl is the default");
        assert!(
            !banner("fig6", "x", budget_from_args(&[])).contains("store "),
            "default backend is silent"
        );
        assert_eq!(
            budget_from_args(&args(&["--store-backend", "sqlite"]))
                .campaign
                .unwrap(),
            d,
            "malformed backend keeps the default"
        );

        // Dispatcher: strict, forwarded to legs.
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
    fn flag_value_finds_pairs() {
        let a = args(&["--packets", "5", "--manifest-json", "out.json"]);
        assert_eq!(
            flag_value(&a, "--manifest-json").as_deref(),
            Some("out.json")
        );
        assert_eq!(flag_value(&a, "--missing"), None);
        assert_eq!(
            flag_value(&args(&["--manifest-json"]), "--manifest-json"),
            None
        );
    }

    #[test]
    fn one_shot_disables_the_campaign() {
        let b = budget_from_args(&args(&["--one-shot", "--packets", "5"]));
        assert!(b.campaign.is_none());
        assert_eq!(b.packets_per_point, 5);
        assert!(banner("figX", "test", b).contains("one-shot"));
    }

    #[test]
    fn banner_mentions_figure_and_mode() {
        let b = budget_from_args(&[]);
        let text = banner("fig6", "throughput", b);
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
        assert_eq!(d.name, "fig6");
        assert_eq!(d.legs, 3);
        assert!(!d.steal);
        assert_eq!(d.stall_timeout_secs, 30);
        assert_eq!(d.manifest_json.as_deref(), Some("out.json"));
        assert!(d.quiet);
        assert_eq!(d.leg_args, args(&["--precision", "0.2"]));

        // Defaults: 2 legs, steal on, cwd work dir.
        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b"])).unwrap();
        assert_eq!((d.legs, d.steal, d.work_dir.as_str()), (2, true, "."));

        // The dispatcher is strict where the figure binaries are
        // lenient: missing requireds, unknown flags and malformed
        // values are hard errors.
        for bad in [
            &["--bin", "b"][..],
            &["--name", "c"],
            &["--name", "c", "--bin", "b", "--legs", "0"],
            &["--name", "c", "--bin", "b", "--legs", "x"],
            &["--name", "c", "--bin", "b", "--legs", "2000000"],
            &["--name", "c", "--bin", "b", "--what"],
            &["--name"],
        ] {
            assert!(dispatch_from_args(&args(bad)).is_err(), "{bad:?}");
        }

        // Leg args that would subvert the dispatch contract are
        // rejected: --no-resume turns stealing into re-simulation,
        // --one-shot legs write no manifest, --shard belongs to the
        // dispatcher, --manifest-json would race across legs.
        for forbidden in ["--shard", "--no-resume", "--one-shot", "--manifest-json"] {
            let err = dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--", forbidden]))
                .unwrap_err();
            assert!(err.contains(forbidden), "{err}");
        }
        assert!(
            dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--", "--resume"])).is_ok(),
            "--resume is the contract, not a conflict"
        );
    }

    #[test]
    fn chaos_and_launcher_flags_parse() {
        use std::time::Duration;

        // Figure binaries: `--chaos-seed` arms the process-global
        // failpoint switch and leaves the budget untouched, exactly
        // like `--telemetry`.
        assert!(!resilience_core::failpoint::armed());
        let b = budget_from_args(&args(&["--chaos-seed", "42"]));
        assert!(resilience_core::failpoint::armed());
        assert_eq!(b.campaign, budget_from_args(&[]).campaign);
        resilience_core::failpoint::disarm();

        // Dispatcher: strict config bits, nothing armed at parse time.
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
        let backoff = d.backoff.unwrap();
        assert_eq!(backoff.base, Duration::from_millis(100));
        assert_eq!(backoff.max, Duration::from_millis(5000));
        assert!(!d.reshard);
        assert_eq!(d.chaos_seed, Some(7));
        assert!(!resilience_core::failpoint::armed());

        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b"])).unwrap();
        assert!(d.reshard, "re-sharding defaults on");
        assert_eq!((d.launcher, d.backoff, d.chaos_seed), (None, None, None));

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
        // Figure binaries: `--telemetry` flips the process-global
        // exposition switch and leaves the budget (and hence the
        // manifest-rendered settings) untouched.
        assert!(!resilience_core::telemetry::enabled());
        let b = budget_from_args(&args(&["--telemetry"]));
        assert!(resilience_core::telemetry::enabled());
        assert_eq!(b.campaign, budget_from_args(&[]).campaign);
        resilience_core::telemetry::set_enabled(false);

        // Dispatcher: `--telemetry` is a plain config bit.
        let d = dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--telemetry"])).unwrap();
        assert!(d.telemetry);
        assert!(
            !dispatch_from_args(&args(&["--name", "c", "--bin", "b"]))
                .unwrap()
                .telemetry
        );
        // Legs may receive it verbatim (the dispatcher forwards it).
        assert!(
            dispatch_from_args(&args(&["--name", "c", "--bin", "b", "--", "--telemetry"])).is_ok()
        );
    }
}
