//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --fig6a-bin PATH
//! perfbench --list-metrics
//! perfbench --write-references
//! ```
//!
//! Runs one workload for `S` seconds of measurement and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs report the
//! per-layer metrics. `--write-references` rewrites the committed
//! results of the validation seed (`perfbench/reference/`) that every
//! run checks its outputs against. `perfbench/run.py` builds this binary and the
//! `fig6a` figure binary, then runs it; see `perfbench/README.md` for
//! the workloads and the layer map.

mod check;
mod layers;
mod metrics;
mod rss;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Metrics;
use stats::{median, per_slot, Pick};
use workloads::{fresh_dir, Measured, Res};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Resume,
    ProtectionGrid,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("fig6a-campaign", Workload::Campaign),
        ("fig6a-resume", Workload::Resume),
        ("protection-grid", Workload::ProtectionGrid),
    ];

    fn parse(name: &str) -> Res<Self> {
        Self::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

/// One run's parameters.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub fig6a_bin: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
}

impl Ctx {
    /// Seconds of the workload's own repetitions: all of them untraced,
    /// half of them traced (the per-layer legs get the other half).
    pub fn loop_seconds(&self) -> f64 {
        if self.traced {
            self.seconds * 0.5
        } else {
            self.seconds
        }
    }
}

/// Scratch directory of one invocation.
fn work_dir(label: &str) -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("{label}-{}", std::process::id()))
}

fn parse_args(args: &[String]) -> Res<Ctx> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut fig6a_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--fig6a-bin" => fig6a_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        fig6a_bin: fig6a_bin.ok_or("--fig6a-bin is required")?,
        work: work_dir(workload.name()),
    })
}

fn end_to_end(ctx: &Ctx, m: &Measured, out: &mut Metrics) {
    // Each CPU of the reference machine flips between a fast state and
    // one ~1.5-1.8x slower, in spells of seconds, independently of the
    // other. A replay takes milliseconds and lies wholly in one state;
    // a store gets hundreds of them per run, so its fastest is the
    // program's own cost and does not move with the share of the run the
    // host was slow. A campaign or a grid takes half a second and spans
    // parts of spells: the mean of a slot's results (two or three
    // campaigns, dozens of grids) averages the host's states, while
    // their fastest is a rare extreme.
    let pick = match ctx.workload {
        Workload::Resume => Pick::Fastest,
        Workload::Campaign | Workload::ProtectionGrid => Pick::Mean,
    };
    let (wall, rate) = per_slot(m.reps.iter().map(|r| (r.slot, r.wall, r.packets)), pick);
    out.set("setup_s", median(&m.setup_s));
    out.set("wall_s", wall);
    out.set("packets_per_s", rate);
    out.set("packets_realized", m.packets_realized);
    out.set("peak_rss_mb", m.peak_rss_mb);
}

fn run(ctx: &Ctx) -> Res<String> {
    fresh_dir(&ctx.work)?;
    let mut m = match ctx.workload {
        Workload::Campaign => workloads::fig6a_campaign(ctx)?,
        Workload::Resume => workloads::fig6a_resume(ctx)?,
        Workload::ProtectionGrid => workloads::protection_grid(ctx)?,
    };
    let mut out = Metrics::default();
    let mut problems = Vec::new();
    if ctx.traced {
        problems = layers::measure(ctx, &mut m, &mut out)?;
    } else {
        end_to_end(ctx, &m, &mut out);
    }
    for p in &problems {
        eprintln!("perfbench: invalid run: {p}");
    }
    // Every timed result, for offline looks at the run's spread.
    for r in &m.reps {
        eprintln!("perfbench-rep {} {} {} {}", r.slot, u8::from(r.traced), r.wall, r.packets);
    }
    eprintln!(
        "perfbench: {} seed {}: {} timed results, {} replays, mismatch_rate {} ({} of {} points)",
        ctx.workload.name(),
        ctx.seed,
        m.reps.len(),
        m.replay_ms.len(),
        m.tally.mismatch_rate(),
        m.tally.failed,
        m.tally.attempted
    );
    let correct = problems.is_empty() && m.tally.failed == 0 && m.tally.attempted > 0;
    out.result_line(ctx.traced, correct, m.tally.attempted, m.tally.failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list-metrics") {
        for (traced, label) in [(false, "end_to_end"), (true, "per_layer")] {
            for (name, unit) in metrics::catalog(traced) {
                println!("{label} {name} {unit}");
            }
        }
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--write-references") {
        let work = work_dir("references");
        let result = workloads::write_references(&work);
        let _ = std::fs::remove_dir_all(&work);
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing references failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload.name());
            ExitCode::FAILURE
        }
    }
}
