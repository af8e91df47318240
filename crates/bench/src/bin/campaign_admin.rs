//! Administers the campaign layer's on-disk state (result stores +
//! manifests under `target/campaign/` by default).
//!
//! ```text
//! campaign-admin <merge|gc|verify|stats|query|export|import|top> --name fig6 [FLAGS]
//! ```
//!
//! The flags are [`bench::cli::ADMIN_FLAGS`]; each subcommand reads the
//! ones it needs.
//!
//! * `merge` — gathers every `<name>.shard-*-of-*` store/manifest pair
//!   in `--dir` (e.g. CI artifacts of parallel `--shard i/n` legs),
//!   proves they form one complete partition, and writes the unified
//!   `<name>.jsonl` + `<name>.manifest.json` into `--out-dir` (default:
//!   `--dir`). Statistics are replayed from the merged store, so the
//!   manifest is byte-identical to a single-host run's (CI `cmp`s it).
//! * `gc` — rewrites the store down to the chunks the controller's
//!   replay of its manifest uses, dropping orphaned keys, duplicates,
//!   stale chunks from abandoned schedules and torn lines.
//! * `verify` — replays every manifest point over the store and compares
//!   every field; exits 1 on a missing chunk or a mismatch, naming both.
//!   `--strict` additionally cross-checks each point's recorded
//!   provenance: `chunks_from_store`/`packets_from_store` must not
//!   exceed the realized totals, and a point claiming store reuse must
//!   have store chunks backing it — the audit a chaos run ends with.
//! * `stats` — human-readable store/manifest summary (totals come from
//!   the same `ManifestTotals` aggregation the manifest JSON and `top`
//!   use, so the three surfaces cannot disagree).
//! * `query` — `stats` restricted to the points matching the typed
//!   filters (conjoined), plus one line per matching point. `--snr` is
//!   an inclusive dB range, `--tier` an accuracy tier
//!   (`exact`/`early-stop`/`fast32`), `--converged` `true`/`false`,
//!   `--key` a 16-hex-digit point key.
//! * `export` / `import` — lossless conversion between store backends:
//!   `export` copies the detected store of `(name, shard)` into
//!   `--file` (the file extension picks the format — `.jsonl` for
//!   interchange/debug, `.seg` for the indexed backend); `import` reads
//!   any store file into the campaign's store under `--store-backend`.
//!   `export` to `.jsonl` then `import` back is byte-identical end to
//!   end.
//! * `top` — tails the live telemetry snapshots a `--telemetry` run
//!   writes (`<name>.telemetry.json`, one per shard leg) and renders
//!   per-point progress: packets realized, achieved BLER/CI width,
//!   convergence, packets/sec and the store-hit ratio. Refreshes every
//!   `--interval` seconds (default 2) until every snapshot reports
//!   done; `--once` renders a single frame (CI smoke uses this). Falls
//!   back to manifest totals when no snapshot exists yet.
//!
//! Exit codes: 0 ok, 1 verification failure, 2 usage/I-O error.

use std::path::{Path, PathBuf};

use bench::cli::{admin_from_args, parse_or_exit, ADMIN_COMMANDS, ADMIN_FLAGS};
use resilience_core::campaign::{shard, store, BackendKind, Manifest, ShardSpec};
use resilience_core::telemetry::LiveSnapshot;

fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("campaign-admin {context}: {e}");
    std::process::exit(2);
}

fn main() {
    let synopsis = format!("<{}> --name <campaign> [FLAGS]", ADMIN_COMMANDS.join("|"));
    let args = parse_or_exit(&synopsis, &[ADMIN_FLAGS], admin_from_args);
    let (name, dir, spec) = (args.name, args.dir, args.shard);
    match args.command.as_str() {
        "merge" => {
            let out = args.out_dir.unwrap_or_else(|| dir.clone());
            let report = shard::merge(&name, &dir, &out)
                .unwrap_or_else(|e| fail(&format!("merge {name}"), e));
            println!(
                "merged {} shards of campaign {name}: {} points, {} chunks \
                 ({} duplicate chunks and {} malformed lines dropped)",
                report.shards,
                report.points,
                report.chunks,
                report.duplicate_chunks,
                report.malformed_lines
            );
            if report.store_served_chunks > 0 {
                println!(
                    "  note: {} chunk executions ({} packets) were store-resumed by the \
                     legs (provenance normalized away in the merged manifest)",
                    report.store_served_chunks, report.store_served_packets
                );
            }
            println!("  store:    {}", report.store_path.display());
            println!("  manifest: {}", report.manifest_path.display());
        }
        "gc" => {
            let report =
                shard::gc(&name, &dir, spec).unwrap_or_else(|e| fail(&format!("gc {name}"), e));
            println!(
                "gc campaign {name}: kept {} chunks; dropped {} orphaned, {} stale, \
                 {} duplicate, {} malformed, {} corrupt",
                report.kept,
                report.dropped_orphans,
                report.dropped_stale,
                report.dropped_duplicates,
                report.dropped_malformed,
                report.dropped_corrupt
            );
        }
        "verify" => {
            let report = shard::verify_with(&name, &dir, spec, args.strict)
                .unwrap_or_else(|e| fail(&format!("verify {name}"), e));
            println!(
                "verify campaign {name}: {}/{} points reproduced by replaying the store \
                 ({} orphaned, {} stale, {} duplicate chunks, {} malformed lines)",
                report.covered_points,
                report.points,
                report.orphan_chunks,
                report.stale_chunks,
                report.duplicate_chunks,
                report.malformed_lines
            );
            if !report.ok() {
                for p in &report.problems {
                    eprintln!("  PROBLEM: {p}");
                }
                std::process::exit(1);
            }
        }
        "stats" => {
            let text = shard::stats(&name, &dir, spec)
                .unwrap_or_else(|e| fail(&format!("stats {name}"), e));
            print!("{text}");
        }
        "query" => {
            let text = shard::query(&name, &dir, spec, &args.filter)
                .unwrap_or_else(|e| fail(&format!("query {name}"), e));
            print!("{text}");
        }
        "export" => {
            let (src, _) = shard::detect_store_file(&name, &dir, spec)
                .unwrap_or_else(|e| fail(&format!("export {name}"), e));
            let n = store::convert(&src, &args.file)
                .unwrap_or_else(|e| fail(&format!("export {name}"), e));
            println!(
                "exported {n} chunk records: {} -> {}",
                src.display(),
                args.file.display()
            );
        }
        "import" => {
            // Refuse an import that would leave the campaign with two
            // live backends — detection (gc, stats, merge) would then
            // error on the ambiguity.
            let other = dir.join(shard::store_file(
                &name,
                spec,
                match args.backend {
                    BackendKind::Jsonl => BackendKind::Indexed,
                    BackendKind::Indexed => BackendKind::Jsonl,
                },
            ));
            if other.exists() {
                fail(
                    &format!("import {name}"),
                    format_args!(
                        "{} already exists — delete it first or import with \
                         --store-backend {}",
                        other.display(),
                        BackendKind::for_path(&other),
                    ),
                );
            }
            let dst = dir.join(shard::store_file(&name, spec, args.backend));
            let n = store::convert(&args.file, &dst)
                .unwrap_or_else(|e| fail(&format!("import {name}"), e));
            println!(
                "imported {n} chunk records: {} -> {}",
                args.file.display(),
                dst.display()
            );
        }
        "top" => top(&name, &dir, args.once, args.interval_secs),
        other => unreachable!("admin_from_args accepts no subcommand '{other}'"),
    }
}

/// Discovers the live telemetry snapshots of `name` in `dir` — the
/// unsuffixed `<name>.telemetry.json` of a single-host run and/or the
/// `<name>.shard-I-of-N.telemetry.json` files of dispatched legs —
/// sorted by file name so shard order is stable.
fn discover_snapshots(name: &str, dir: &Path) -> Vec<LiveSnapshot> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let Some(stem) = p
                .file_name()
                .and_then(|f| f.to_str())
                .and_then(|f| f.strip_suffix(".telemetry.json"))
            else {
                return false;
            };
            stem == name
                || stem
                    .strip_prefix(&format!("{name}.shard-"))
                    .is_some_and(|rest| rest.contains("-of-"))
        })
        .collect();
    files.sort();
    files.iter().filter_map(|p| LiveSnapshot::read(p)).collect()
}

/// Renders one `top` frame over the merged per-shard snapshots.
fn render_frame(name: &str, snaps: &[LiveSnapshot]) -> String {
    let sum = |f: fn(&LiveSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
    let packets_realized = sum(|s| s.packets_realized);
    let packets_from_store = sum(|s| s.packets_from_store);
    let pps: f64 = snaps.iter().map(|s| s.packets_per_sec).sum();
    let hits = sum(|s| s.store_chunk_hits);
    let misses = sum(|s| s.store_chunk_misses);
    let hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let done = snaps.iter().all(|s| s.done);
    let mut out = format!(
        "campaign {name} [{}]: {}/{} points converged, {} packets ({} from store), \
         {:.1} packets/sec, store-hit ratio {:.1}%\n",
        if done { "done" } else { "live" },
        sum(|s| s.points_converged),
        sum(|s| s.points_total),
        packets_realized,
        packets_from_store,
        pps,
        hit_ratio * 100.0,
    );
    out.push_str(&format!(
        "  {:<36} {:>13} {:>8} {:>7}  {}\n",
        "point", "packets", "BLER", "rel-hw", "status"
    ));
    let mut rows: Vec<_> = snaps.iter().flat_map(|s| s.points.iter()).collect();
    rows.sort_by(|a, b| a.label.cmp(&b.label));
    for p in rows {
        out.push_str(&format!(
            "  {:<36} {:>6}/{:<6} {:>8.4} {:>7.2}  {}\n",
            p.label,
            p.packets,
            p.max_packets,
            p.bler,
            p.half_width,
            if p.converged { "converged" } else { "running" },
        ));
    }
    out
}

/// The `top` subcommand: tail live snapshots until every leg reports
/// done (or forever if legs never finish — Ctrl-C is the exit). With
/// `--once`, render a single frame. Falls back to manifest totals when
/// no snapshot exists; exits 2 when there is nothing to show at all.
fn top(name: &str, dir: &Path, once: bool, interval_secs: u64) -> ! {
    loop {
        let snaps = discover_snapshots(name, dir);
        if snaps.is_empty() {
            // Fallback: a finished (or telemetry-less) campaign still
            // has its manifest — show its totals instead of nothing.
            let manifest_path = dir.join(shard::manifest_file(name, ShardSpec::single()));
            match Manifest::read(&manifest_path) {
                Ok(m) => {
                    let t = m.totals();
                    println!(
                        "campaign {name} [no live snapshot; manifest totals]: \
                         {}/{} points converged, {} packets, store-hit rate {:.1}% \
                         ({:.1}% of packets)",
                        t.points_converged,
                        t.points_total,
                        t.realized_packets,
                        t.store_hit_rate() * 100.0,
                        t.store_packet_rate() * 100.0,
                    );
                    std::process::exit(0);
                }
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    fail(&format!("top {name}"), e)
                }
                Err(_) => {
                    if once {
                        fail(
                            &format!("top {name}"),
                            format_args!(
                                "no telemetry snapshot or manifest in {} — run the campaign \
                                 with --telemetry",
                                dir.display()
                            ),
                        );
                    }
                    // Live mode: the campaign may simply not have
                    // started yet; keep polling.
                }
            }
        } else {
            print!("{}", render_frame(name, &snaps));
            if once || snaps.iter().all(|s| s.done) {
                std::process::exit(0);
            }
            println!();
        }
        std::thread::sleep(std::time::Duration::from_secs(interval_secs));
    }
}
