//! Dispatches a sharded campaign: launches the `--shard i/n` legs of a
//! figure binary, monitors their liveness, steals work from dead or
//! stalled legs, then merges and verifies the artifacts — ending with a
//! store/manifest pair byte-identical to a single-host run.
//!
//! ```text
//! campaign-dispatch --name fig6 --bin target/release/fig6a --legs 2 \
//!     [FLAGS] [-- LEG_FLAGS...]
//! ```
//!
//! The flags are [`bench::cli::DISPATCH_FLAGS`]. `LEG_FLAGS` are passed
//! to every leg and must parse as the campaign figure binaries' flags,
//! minus those marked `dispatcher_owned` (sharding, store resume and
//! manifest export are the dispatcher's); a bad one exits 2 before any
//! leg launches.
//!
//! `--launcher TEMPLATE` switches from local child processes to the
//! remote-capable command launcher: the template (`ssh {host} {cmd}`
//! canonically; `sh -c {cmd}` in tests) is run per leg with `{host}`
//! drawn round-robin from `--hosts` and `{cmd}` the quoted leg command.
//! `--pull TEMPLATE` runs after each leg exits or is killed — the hook
//! that rsyncs remote artifacts back before the merge.
//!
//! `--chaos-seed N` arms the deterministic failpoints: in this
//! dispatcher (launch failures) and, via the leg environment, in every
//! launched leg (crashes, hangs, stale heartbeats, torn appends, index
//! corruption). Failed shards retry under `--backoff`; when slots are
//! idle a dead shard is re-sharded into parallel slices unless
//! `--no-reshard`; a shard that exhausts its attempts is abandoned and
//! the survivors merge into a partial-but-verified manifest.
//!
//! `--store-backend KIND` (`jsonl` or `indexed`) is forwarded to every
//! leg, so the whole dispatched campaign writes one store format; the
//! merge detects the legs' backend from their artifact files either
//! way.
//!
//! `--telemetry` turns on observability end to end: every leg gets
//! `--telemetry` appended (so it writes the live snapshot that doubles
//! as its heartbeat, plus its event log), and the dispatcher itself
//! logs launches/stall-kills/rescues/merge provenance to
//! `<name>.dispatch.telemetry.jsonl`. Watch a running dispatch with
//! `campaign-admin top --name <campaign>`.
//!
//! Legs run with their working directory at `--work-dir` (default `.`),
//! so their artifacts land under `<work-dir>/target/campaign/` — the
//! same place a hand-run `--shard i/n` leg writes, which is what lets a
//! re-dispatch with `--steal` resume a previously killed run's store.
//!
//! Exit codes: 0 ok, 1 dispatch/merge/verify failure, 2 usage error,
//! 3 partial success (shards abandoned; merged manifest verified but
//! incomplete).

use bench::cli::{dispatch_from_args, parse_or_exit, DISPATCH_FLAGS};
use resilience_core::campaign::{dispatch, CommandLauncher, Launcher, LocalLauncher};

fn main() {
    let parsed = parse_or_exit(
        "--name <campaign> --bin <figure binary> [FLAGS] [-- LEG_FLAGS...]",
        &[DISPATCH_FLAGS],
        dispatch_from_args,
    );

    // With --telemetry the legs are told to write their live snapshots
    // (the dispatcher's primary heartbeat) and event logs.
    let mut leg_args = parsed.leg_args.clone();
    if parsed.config.telemetry && !parsed.leg_flags.contains(&"--telemetry") {
        leg_args.push("--telemetry".into());
    }
    // Forward the store backend to the legs (unless the operator pinned
    // one in the leg args themselves).
    let pinned = parsed.leg_flags.contains(&"--store-backend");
    if let Some(kind) = parsed.store_backend.filter(|_| !pinned) {
        leg_args.extend(["--store-backend".into(), kind.to_string()]);
    }
    // Arm this process's failpoints too: the launch-io site lives in the
    // dispatcher, not the legs. The legs get the seed via their
    // environment, set by the launcher below.
    if let Some(seed) = parsed.chaos_seed {
        resilience_core::failpoint::arm(seed);
    }

    let launcher: Box<dyn Launcher> = match &parsed.launcher {
        Some(template) => {
            let mut l =
                CommandLauncher::new(template, &parsed.bin, &parsed.work_dir).with_args(leg_args);
            if let Some(hosts) = &parsed.hosts {
                l = l.with_hosts(hosts);
            }
            if let Some(pull) = &parsed.pull {
                l = l.with_pull(pull);
            }
            if let Some(seed) = parsed.chaos_seed {
                l = l.with_chaos_seed(seed);
            }
            Box::new(l)
        }
        None => {
            let mut l = LocalLauncher::new(&parsed.bin, &parsed.work_dir).with_args(leg_args);
            if parsed.quiet {
                l = l.quiet();
            }
            if let Some(seed) = parsed.chaos_seed {
                l = l.with_chaos_seed(seed);
            }
            Box::new(l)
        }
    };
    let cfg = &parsed.config;
    println!(
        "=== dispatching campaign '{}': {} legs of {} ({}){}",
        cfg.name,
        cfg.legs,
        parsed.bin,
        if cfg.steal {
            "work stealing on"
        } else {
            "no stealing"
        },
        if parsed.leg_args.is_empty() {
            String::new()
        } else {
            format!(", leg args: {}", parsed.leg_args.join(" "))
        },
    );
    let report = dispatch(cfg, launcher.as_ref()).unwrap_or_else(|e| {
        eprintln!("campaign-dispatch {}: {e}", cfg.name);
        std::process::exit(1);
    });
    print!("{}", report.summary());

    if let Some(out) = parsed.manifest_json {
        if let Err(e) = std::fs::copy(&report.merge.manifest_path, &out) {
            eprintln!(
                "--manifest-json: cannot copy {} to {out}: {e}",
                report.merge.manifest_path.display()
            );
            std::process::exit(1);
        }
        println!("manifest JSON written to {out}");
    }

    if !report.abandoned.is_empty() {
        eprintln!(
            "campaign-dispatch {}: {} shard(s) abandoned — merged manifest is partial",
            cfg.name,
            report.abandoned.len()
        );
        std::process::exit(3);
    }
}
