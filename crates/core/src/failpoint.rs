//! Deterministic fault injection for chaos-testing the campaign stack.
//!
//! A *failpoint* is a named site compiled into the dispatcher, the
//! launchers and the result store where a fault can be injected on
//! demand: a launch that fails with an I/O error, a leg that crashes
//! after its k-th stored chunk, a leg that hangs, a heartbeat artifact
//! that goes stale, an append torn mid-record. Whether a given site
//! fires is a **pure function** of a chaos seed, the site, a context
//! string (usually the shard spec or file name) and how many times the
//! site has been checked — so every chaos run is replayable from its
//! seed alone.
//!
//! Design constraints, in order:
//!
//! * **Zero overhead unarmed.** Every site guards on [`armed`] — a
//!   single relaxed atomic load — before building its context string.
//!   Production binaries never arm, so the hot paths (store appends,
//!   the decode loop) pay one predictable branch.
//! * **Excluded from campaign identity.** Arming is process-global
//!   state like `--telemetry`, deliberately *not* part of
//!   `CampaignSettings`: settings render into manifests, and a chaos
//!   run must converge to byte-identical results once its faults are
//!   survived.
//! * **Terminating.** No site fires when the current *attempt* is
//!   greater than one. The dispatcher forwards the attempt number to
//!   relaunched legs (`RESILIENCE_CHAOS_ATTEMPT`), so any schedule that
//!   leaves at least one retry per shard ends with a clean pass — the
//!   chaos proof in CI relies on this.
//!
//! Legs are separate processes; they inherit the schedule through the
//! `RESILIENCE_CHAOS_SEED` / `RESILIENCE_CHAOS_ATTEMPT` environment
//! variables, read once by [`arm_from_env`] during argument parsing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::campaign::hash::fnv1a64;

/// Environment variable carrying the chaos seed to leg processes.
pub const SEED_ENV: &str = "RESILIENCE_CHAOS_SEED";
/// Environment variable carrying the relaunch attempt number (1-based).
pub const ATTEMPT_ENV: &str = "RESILIENCE_CHAOS_ATTEMPT";

/// A named fault-injection site. Each site lives at one boundary of the
/// campaign stack and models one concrete failure the dispatcher must
/// survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `Launcher::launch` fails with an I/O error before the leg runs.
    LaunchIo,
    /// The leg process exits abruptly after its k-th stored chunk.
    LegCrash,
    /// The leg stops making progress without exiting (stall-kill bait).
    LegHang,
    /// The leg's live-snapshot heartbeat is never written, so artifact
    /// signatures are the dispatcher's only liveness signal.
    HeartbeatStale,
    /// A store append writes only a prefix of the record, then the
    /// process dies — the torn tail both store formats must tolerate.
    AppendTorn,
}

impl Site {
    /// Stable name used in logs and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            Site::LaunchIo => "launch-io",
            Site::LegCrash => "leg-crash",
            Site::LegHang => "leg-hang",
            Site::HeartbeatStale => "heartbeat-stale",
            Site::AppendTorn => "append-torn",
        }
    }

    /// Per-site salt mixed into the decision hash so sites draw
    /// independent streams from one seed.
    fn salt(self) -> u64 {
        match self {
            Site::LaunchIo => 0x9e37_79b9_7f4a_7c15,
            Site::LegCrash => 0xbf58_476d_1ce4_e5b9,
            Site::LegHang => 0x94d0_49bb_1331_11eb,
            Site::HeartbeatStale => 0xd6e8_feb8_6659_fd93,
            Site::AppendTorn => 0xa0761d6478bd642f,
        }
    }
}

/// The armed schedule: seed, attempt, and how many times each
/// (site, context) pair has been checked so far.
struct Plan {
    seed: u64,
    attempt: u32,
    // determinism: unordered-ok(per-(site, ctx) counters via keyed entry access; never iterated)
    hits: HashMap<(Site, String), u64>,
}

/// Fast-path switch: a single relaxed load decides "no chaos" for every
/// unarmed process.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

/// Arms fault injection with `seed` at attempt 1 (or the attempt from
/// [`ATTEMPT_ENV`] when the dispatcher relaunched this process).
pub fn arm(seed: u64) {
    let attempt = std::env::var(ATTEMPT_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    arm_with_attempt(seed, attempt);
}

/// Arms fault injection with an explicit attempt number. Attempt 1 is
/// the chaotic pass; higher attempts never fire (see module docs).
pub fn arm_with_attempt(seed: u64, attempt: u32) {
    let mut plan = PLAN.lock().unwrap();
    *plan = Some(Plan {
        seed,
        attempt: attempt.max(1),
        // determinism: unordered-ok(keyed entry access only; never iterated)
        hits: HashMap::new(),
    });
    ARMED.store(true, Ordering::Release);
}

/// Arms from the process environment, returning whether a schedule was
/// found. Called once during argument parsing by every figure binary so
/// dispatched legs inherit the dispatcher's chaos schedule.
pub fn arm_from_env() -> bool {
    let Some(seed) = std::env::var(SEED_ENV).ok().and_then(|v| v.parse().ok()) else {
        return false;
    };
    arm(seed);
    true
}

/// Disarms fault injection and forgets the schedule.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *PLAN.lock().unwrap() = None;
}

/// Whether any schedule is armed. One relaxed atomic load — sites guard
/// on this before doing any work (including context-string formatting).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Checks the site against the armed schedule; counts the check and
/// returns whether the fault fires. Always `false` when unarmed.
pub fn should_fire(site: Site, ctx: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut guard = PLAN.lock().unwrap();
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    let check_no = plan
        .hits
        .entry((site, ctx.to_string()))
        .and_modify(|n| *n += 1)
        .or_insert(1);
    would_fire(plan.seed, plan.attempt, site, ctx, *check_no)
}

/// Like [`should_fire`] but with an explicit attempt number, for the
/// dispatcher side where one armed process launches many legs each at
/// its own attempt (the plan's global attempt only describes legs).
pub fn should_fire_attempt(site: Site, ctx: &str, attempt: u32) -> bool {
    if !armed() {
        return false;
    }
    let mut guard = PLAN.lock().unwrap();
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    let check_no = plan
        .hits
        .entry((site, ctx.to_string()))
        .and_modify(|n| *n += 1)
        .or_insert(1);
    would_fire(plan.seed, attempt, site, ctx, *check_no)
}

/// The pure decision function: does check number `check_no` (1-based)
/// of `site` under `ctx` fire for this seed and attempt? Public so
/// tests can reason about schedules without arming the process-global
/// state (arming in a multi-threaded test binary would let crash sites
/// kill unrelated tests).
pub fn would_fire(seed: u64, attempt: u32, site: Site, ctx: &str, check_no: u64) -> bool {
    // Retries run clean: this is what makes every chaos schedule
    // terminate once each shard gets one more attempt.
    if attempt > 1 {
        return false;
    }
    let h = splitmix64(seed ^ site.salt() ^ fnv1a64(ctx.as_bytes()));
    let roll = h % 100;
    match site {
        // One-shot sites: decided on their first check only.
        Site::LaunchIo => check_no == 1 && roll < 25,
        // k-th-hit sites: a selected context fires on exactly one
        // deterministic check (the crash/tear lands mid-run, not at a
        // fixed place).
        Site::LegCrash => roll < 50 && check_no == 1 + ((h >> 8) % 3),
        Site::AppendTorn => roll < 30 && check_no == 1 + ((h >> 8) % 4),
        // Sticky sites: once selected, every check fires (a hung leg
        // stays hung, a stale heartbeat stays stale).
        Site::LegHang => roll < 20,
        Site::HeartbeatStale => roll < 25,
    }
}

/// SplitMix64 finalizer — the standard 64-bit avalanche.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: [Site; 5] = [
        Site::LaunchIo,
        Site::LegCrash,
        Site::LegHang,
        Site::HeartbeatStale,
        Site::AppendTorn,
    ];

    #[test]
    fn decisions_are_deterministic_in_seed_site_ctx_and_check() {
        for seed in [0u64, 7, 0xdead_beef] {
            for site in SITES {
                for ctx in ["0/2", "1/2", "fig6.jsonl"] {
                    for check in 1..6 {
                        assert_eq!(
                            would_fire(seed, 1, site, ctx, check),
                            would_fire(seed, 1, site, ctx, check),
                            "replay must agree: {seed} {site:?} {ctx} {check}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attempt_two_never_fires() {
        for seed in 0..200u64 {
            for site in SITES {
                for check in 1..8 {
                    assert!(
                        !would_fire(seed, 2, site, "0/2", check),
                        "attempt 2 fired: seed {seed} {site:?} check {check}"
                    );
                    assert!(!would_fire(seed, 3, site, "0/2", check));
                }
            }
        }
    }

    #[test]
    fn every_site_fires_for_some_seed_and_rests_for_another() {
        for site in SITES {
            let fires = |seed: u64| (1..8).any(|c| would_fire(seed, 1, site, "0/2", c));
            assert!((0..500).any(fires), "{site:?} never fires");
            assert!((0..500).any(|s| !fires(s)), "{site:?} always fires");
        }
    }

    #[test]
    fn kth_hit_sites_fire_exactly_once() {
        for site in [Site::LegCrash, Site::AppendTorn] {
            for seed in 0..300u64 {
                let fired: Vec<u64> = (1..50)
                    .filter(|&c| would_fire(seed, 1, site, "1/3", c))
                    .collect();
                assert!(fired.len() <= 1, "{site:?} seed {seed} fired at {fired:?}");
            }
        }
    }

    #[test]
    fn sticky_sites_fire_on_every_check_once_selected() {
        for site in [Site::LegHang, Site::HeartbeatStale] {
            let seed = (0..2000u64)
                .find(|&s| would_fire(s, 1, site, "x", 1))
                .expect("some seed selects the site");
            for check in 1..10 {
                assert!(would_fire(seed, 1, site, "x", check));
            }
        }
    }

    #[test]
    fn contexts_draw_independent_streams() {
        // Two shards under the same seed must not share their fate:
        // some seed crashes shard 0 but not shard 1.
        let crashes =
            |seed: u64, ctx: &str| (1..8).any(|c| would_fire(seed, 1, Site::LegCrash, ctx, c));
        assert!(
            (0..500).any(|s| crashes(s, "0/2") != crashes(s, "1/2")),
            "contexts are correlated"
        );
    }

    #[test]
    fn should_fire_counts_checks_per_context() {
        // Arm/disarm in one test only (tests share the process), using
        // an explicit attempt so the environment cannot interfere.
        let seed = (0..2000u64)
            .find(|&s| {
                let k = 1 + (splitmix64(s ^ Site::LegCrash.salt() ^ fnv1a64(b"ctx")) >> 8) % 3;
                would_fire(s, 1, Site::LegCrash, "ctx", k)
            })
            .expect("some seed crashes ctx");
        arm_with_attempt(seed, 1);
        let fired: Vec<usize> = (0..6)
            .filter(|_| should_fire(Site::LegCrash, "ctx"))
            .collect();
        assert_eq!(fired.len(), 1, "armed k-th-hit site fires exactly once");
        // A different context under the global armed plan keeps its own
        // counter (no cross-talk with "ctx"'s consumed checks).
        assert!(!should_fire_attempt(Site::LegCrash, "other", 2));
        disarm();
        assert!(!should_fire(Site::LegCrash, "ctx"), "disarmed is silent");
        assert!(!armed());
    }
}
