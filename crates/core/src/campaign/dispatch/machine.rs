//! The dispatcher's policy as a pure state machine.
//!
//! [`Dispatcher`] decides everything about a dispatch that touches no
//! process and no file: attempt numbers, backoff deadlines, stall kills
//! and their doubling timeouts, steal or abort, re-sharding,
//! abandonment, and when to merge. The driver ([`super::dispatch`])
//! turns what it observes into [`Event`]s and carries out the
//! [`Action`]s that [`Dispatcher::step`] returns. Time is the `now`
//! the caller passes: the driver's wall time since the dispatch
//! started, or a test's simulated clock.

use std::collections::BTreeMap;
use std::mem;
use std::time::Duration;

use super::{spec_list, DispatchConfig, MAX_LEGS};
use crate::campaign::shard::ShardSpec;

/// How a leg ended, judged by the driver from its exit status and
/// manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exit 0 with a manifest for this campaign and shard.
    Clean,
    /// Non-zero exit.
    Failed,
    /// Exit 0 without a usable manifest.
    Lied,
}

/// What the driver observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The shard's leg exited.
    Exited(ShardSpec, Exit),
    /// The shard's launch failed with this error before a leg existed.
    LaunchFailed(ShardSpec, String),
    /// The shard's running leg showed a heartbeat or touched its files.
    Progress(ShardSpec),
    /// The answer to [`Action::Split`]: the slices, or `None` when the
    /// partition failed. It is fed before any other event.
    Split(ShardSpec, Option<Vec<ShardSpec>>),
    /// Time passed: kill stalled legs, launch what is due, and finish
    /// once nothing is outstanding.
    Tick,
}

/// What the driver must do, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Start a leg of the shard at this 1-based attempt.
    Launch(ShardSpec, u32),
    /// Terminate the shard's running leg.
    Kill(ShardSpec),
    /// Partition the shard's store into this many slices and answer
    /// with [`Event::Split`].
    Split(ShardSpec, u32),
    /// Merge these completed shards; `true` when some shard was
    /// abandoned and the merge is partial.
    Merge(Vec<ShardSpec>, bool),
    /// Fail the dispatch for this reason; no leg is left running.
    Abort(String),
    /// A state change that only telemetry sees.
    Record(Transition),
}

/// The state changes telemetry counts and logs.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// A launch failed with this error.
    LaunchFailed(ShardSpec, String),
    /// A leg finished its shard.
    Done(ShardSpec),
    /// A leg showed no progress within this limit and is killed.
    Stalled(ShardSpec, Duration),
    /// A shard failed for this reason and relaunches after a backoff.
    Rescue(ShardSpec, String, Duration),
    /// A shard failed for this reason and was split into slices, of
    /// which the last count wait out a backoff.
    Reshard(ShardSpec, String, u32, u32),
    /// A shard failed for this reason after this many attempts and is
    /// given up.
    Abandon(ShardSpec, String, u32),
}

/// The dispatcher's whole policy state. See the [module docs](self).
#[derive(Debug)]
pub struct Dispatcher {
    cfg: DispatchConfig,
    /// Launches used per shard; slices start at their parent's count.
    attempts: BTreeMap<ShardSpec, u32>,
    /// Stall kills per shard; each one doubles its stall timeout.
    stall_kills: BTreeMap<ShardSpec, u32>,
    /// Queued launches and their backoff deadlines.
    pending: BTreeMap<ShardSpec, Duration>,
    /// Launched legs and when each last showed progress.
    running: BTreeMap<ShardSpec, Duration>,
    /// Splits awaiting their answer: the slots each reserves and the
    /// failure behind it.
    splitting: BTreeMap<ShardSpec, (u32, String)>,
    completed: Vec<ShardSpec>,
    finished: bool,
    /// What the current step asks of the driver.
    out: Vec<Action>,
    /// Legs started (refused launches excluded).
    pub launched: u32,
    /// Shards queued for a rescue leg, in order.
    pub rescued: Vec<ShardSpec>,
    /// Shards whose leg was stall-killed.
    pub stalled: Vec<ShardSpec>,
    /// Shards split into slices.
    pub resharded: Vec<ShardSpec>,
    /// Shards given up at the attempt cap.
    pub abandoned: Vec<ShardSpec>,
}

impl Dispatcher {
    /// A dispatcher with every shard `0/n .. (n-1)/n` due at time zero.
    /// Fails on a leg count outside `1..=MAX_LEGS`.
    pub fn new(cfg: &DispatchConfig) -> Result<Self, String> {
        if !(1..=MAX_LEGS).contains(&cfg.legs) {
            return Err(format!(
                "dispatch needs 1..={MAX_LEGS} legs, got {}",
                cfg.legs
            ));
        }
        let pending = (0..cfg.legs)
            .map(|i| Ok((ShardSpec::new(i, cfg.legs)?, Duration::ZERO)))
            .collect::<Result<_, String>>()?;
        Ok(Self {
            cfg: cfg.clone(),
            attempts: BTreeMap::new(),
            stall_kills: BTreeMap::new(),
            pending,
            running: BTreeMap::new(),
            splitting: BTreeMap::new(),
            completed: Vec::new(),
            finished: false,
            out: Vec::new(),
            launched: 0,
            rescued: Vec::new(),
            stalled: Vec::new(),
            resharded: Vec::new(),
            abandoned: Vec::new(),
        })
    }

    /// Advances the machine by one `event` observed at `now` (time since
    /// the dispatch started). After [`Action::Merge`] or
    /// [`Action::Abort`] every step returns nothing.
    pub fn step(&mut self, event: Event, now: Duration) -> Vec<Action> {
        if self.finished {
            return Vec::new();
        }
        match event {
            Event::Exited(spec, Exit::Clean) if self.running.remove(&spec).is_some() => {
                self.completed.push(spec);
                self.note(Transition::Done(spec));
            }
            Event::Exited(spec, exit) if self.running.remove(&spec).is_some() => {
                let how = match exit {
                    Exit::Lied => "0 without a usable shard manifest",
                    _ => "with failure",
                };
                self.fail(spec, format!("leg {spec} exited {how}"), now);
            }
            Event::LaunchFailed(spec, error) if self.running.remove(&spec).is_some() => {
                self.launched -= 1;
                let why = format!("leg {spec} failed to launch: {error}");
                self.note(Transition::LaunchFailed(spec, error));
                self.fail(spec, why, now);
            }
            Event::Progress(spec) => {
                if let Some(last_progress) = self.running.get_mut(&spec) {
                    *last_progress = now;
                }
            }
            Event::Split(spec, slices) => {
                let Some((requested, why)) = self.splitting.remove(&spec) else {
                    return Vec::new();
                };
                let Some(slices) = slices else {
                    // A failed partition must not lose the shard.
                    self.rescue(spec, why, now);
                    return mem::take(&mut self.out);
                };
                let tried = self.attempts[&spec];
                let mut delayed = 0;
                for slice in slices {
                    self.attempts.insert(slice, tried);
                    let delay = self.cfg.backoff.delay(tried, slice);
                    delayed += u32::from(!delay.is_zero());
                    self.pending.insert(slice, now + delay);
                }
                self.resharded.push(spec);
                self.note(Transition::Reshard(spec, why, requested, delayed));
            }
            Event::Tick => self.tick(now),
            Event::Exited(..) | Event::LaunchFailed(..) => {}
        }
        mem::take(&mut self.out)
    }

    /// Stall kills, then due launches, then the end of the dispatch.
    fn tick(&mut self, now: Duration) {
        let timeout = self.cfg.stall_timeout.unwrap_or(Duration::MAX);
        for (spec, last_progress) in self.running.clone() {
            let kills = self.stall_kills.get(&spec).copied().unwrap_or(0);
            let limit = timeout.saturating_mul(1 << kills.min(10));
            // With stealing off the first kill has aborted and killed
            // the rest.
            if now.saturating_sub(last_progress) <= limit || self.running.remove(&spec).is_none() {
                continue;
            }
            self.stall_kills.insert(spec, kills + 1);
            self.stalled.push(spec);
            self.note(Transition::Stalled(spec, limit));
            self.out.push(Action::Kill(spec));
            let secs = limit.as_secs_f64();
            let why =
                format!("leg {spec} stalled (no artifact progress for {secs:.1}s) and was killed");
            self.fail(spec, why, now);
        }
        if self.finished {
            return;
        }
        let due: Vec<ShardSpec> = self
            .pending
            .iter()
            .filter(|&(_, &not_before)| not_before <= now)
            .map(|(&spec, _)| spec)
            .collect();
        self.pending.retain(|_, not_before| *not_before > now);
        for spec in due {
            let attempt = self.attempts.entry(spec).or_insert(0);
            *attempt += 1;
            self.launched += 1;
            self.running.insert(spec, now);
            self.out.push(Action::Launch(spec, *attempt));
        }
        if self.running.is_empty() && self.pending.is_empty() && self.splitting.is_empty() {
            self.finished = true;
            let mut completed = mem::take(&mut self.completed);
            completed.sort();
            self.out.push(if completed.is_empty() {
                Action::Abort(format!(
                    "campaign '{}' dispatch failed: every shard was abandoned (abandoned: {})",
                    self.cfg.name,
                    spec_list(&self.abandoned),
                ))
            } else {
                Action::Merge(completed, !self.abandoned.is_empty())
            });
        }
    }

    /// Routes a shard whose leg died or never launched: abort with
    /// stealing off, abandon at the attempt cap, split into idle slots,
    /// or rescue after a backoff.
    fn fail(&mut self, spec: ShardSpec, why: String, now: Duration) {
        if !self.cfg.steal {
            // Doomed now: stop the siblings instead of letting them burn
            // compute toward a merge that cannot happen. Their partial
            // stores survive for a `--steal` re-dispatch.
            self.finished = true;
            self.pending.clear();
            for spec in mem::take(&mut self.running).into_keys() {
                self.out.push(Action::Kill(spec));
            }
            self.out.push(Action::Abort(format!(
                "campaign '{}' dispatch failed: {why} \
                 (stealing disabled — re-dispatch with --steal to recover)",
                self.cfg.name
            )));
            return;
        }
        let tried = self.attempts[&spec];
        if tried >= self.cfg.max_attempts {
            // Give the shard up instead of sinking the dispatch: the
            // survivors still merge into a partial, verified manifest.
            self.abandoned.push(spec);
            self.note(Transition::Abandon(spec, why, tried));
            return;
        }
        // With two or more slots idle, split the dead shard's store into
        // slices that resume in parallel. Slices inherit the parent's
        // attempt count, so a deterministic crasher still stops at the
        // cap.
        let reserved: u32 = self.splitting.values().map(|s| s.0).sum();
        let busy = self.running.len() + self.pending.len() + reserved as usize;
        let idle = (self.cfg.legs as usize).saturating_sub(busy);
        if self.cfg.reshard && spec.slice.is_none() && idle >= 2 {
            let slices = (idle as u32).min(4);
            self.splitting.insert(spec, (slices, why));
            self.out.push(Action::Split(spec, slices));
        } else {
            self.rescue(spec, why, now);
        }
    }

    /// Queues a relaunch of `spec` over its surviving store.
    fn rescue(&mut self, spec: ShardSpec, why: String, now: Duration) {
        let backoff = self.cfg.backoff.delay(self.attempts[&spec], spec);
        self.rescued.push(spec);
        self.pending.insert(spec, now + backoff);
        self.note(Transition::Rescue(spec, why, backoff));
    }

    fn note(&mut self, transition: Transition) {
        self.out.push(Action::Record(transition));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::dispatch::BackoffPolicy;
    use crate::failpoint::{self, Site};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, VecDeque};

    /// Far more events than any schedule below needs: every failure
    /// burns an attempt, so a dispatch must end well before this.
    const MAX_EVENTS: usize = 5_000;

    /// Picks the next observation for a dispatch with `running` legs:
    /// an exit (clean, failed or lying), a heartbeat, or a clock
    /// advance.
    fn random_event(rng: &mut StdRng, running: &[ShardSpec], now: &mut Duration) -> Event {
        let roll = rng.gen_range(0..10u32);
        if running.is_empty() || roll >= 6 {
            *now += Duration::from_millis(rng.gen_range(0..1500u64));
            return Event::Tick;
        }
        let spec = running[rng.gen_range(0..running.len())];
        if roll >= 4 {
            return Event::Progress(spec);
        }
        let exit = match rng.gen_range(0..20u32) {
            0..=11 => Exit::Clean,
            12..=16 => Exit::Failed,
            _ => Exit::Lied,
        };
        Event::Exited(spec, exit)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random interleavings of exits, heartbeats, clock advances
        /// and seeded launch failures keep every dispatch invariant.
        #[test]
        fn random_interleavings_keep_the_dispatch_invariants(
            legs in 1u32..=6,
            steal in proptest::bool::ANY,
            reshard in proptest::bool::ANY,
            max_attempts in 1u32..=4,
            stall_code in 0u64..=3,
            backoff_on in proptest::bool::ANY,
            chaos_seed in 0u64..1_000,
            event_seed in 0u64..u64::MAX,
        ) {
            let stall_timeout = (stall_code > 0).then(|| Duration::from_millis(100 * stall_code));
            let backoff = if backoff_on {
                BackoffPolicy::default()
            } else {
                BackoffPolicy { base: Duration::ZERO, factor: 1.0, max: Duration::ZERO, jitter: 0.0 }
            };
            let cfg = DispatchConfig {
                steal,
                reshard,
                max_attempts,
                stall_timeout,
                backoff,
                ..DispatchConfig::new("prop", legs, "unused")
            };
            let originals: Vec<ShardSpec> = (0..legs).map(|i| ShardSpec::new(i, legs).unwrap()).collect();
            let mut m = Dispatcher::new(&cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(event_seed);
            let mut now = Duration::ZERO;

            // The test's own model of the dispatch.
            let mut running: BTreeMap<ShardSpec, Duration> = BTreeMap::new();
            let mut queued: BTreeMap<ShardSpec, Duration> =
                originals.iter().map(|&s| (s, Duration::ZERO)).collect();
            let mut tries: BTreeMap<ShardSpec, u32> = BTreeMap::new();
            let mut stall_kills: BTreeMap<ShardSpec, u32> = BTreeMap::new();
            let mut launch_checks: BTreeMap<ShardSpec, u64> = BTreeMap::new();
            let mut slices_of: BTreeMap<ShardSpec, Vec<ShardSpec>> = BTreeMap::new();
            let mut completed: BTreeSet<ShardSpec> = BTreeSet::new();
            let mut abandoned: BTreeSet<ShardSpec> = BTreeSet::new();
            let mut inbox: VecDeque<Event> = VecDeque::from([Event::Tick]);
            let mut outcome = None;

            let mut events = 0;
            while outcome.is_none() && events < MAX_EVENTS {
                events += 1;
                let specs: Vec<ShardSpec> = running.keys().copied().collect();
                let event = inbox
                    .pop_front()
                    .unwrap_or_else(|| random_event(&mut rng, &specs, &mut now));
                let failed = match &event {
                    Event::Exited(spec, exit) => (*exit != Exit::Clean).then_some(*spec),
                    Event::LaunchFailed(spec, _) => Some(*spec),
                    _ => None,
                };
                if let Event::Exited(spec, exit) = &event {
                    running.remove(spec);
                    if *exit == Exit::Clean {
                        completed.insert(*spec);
                    }
                }
                if let Event::LaunchFailed(spec, _) = &event {
                    running.remove(spec);
                }
                if let Event::Progress(spec) = &event {
                    running.insert(*spec, now);
                }
                if let Event::Split(spec, Some(slices)) = &event {
                    for &slice in slices {
                        tries.insert(slice, tries[spec]);
                        queued.insert(slice, now + cfg.backoff.delay(tries[spec], slice));
                    }
                    slices_of.insert(*spec, slices.clone());
                }
                let running_before = running.clone();
                let out = m.step(event, now);

                let stalled_now = out.iter().any(|a| matches!(a, Action::Record(Transition::Stalled(..))));
                if !steal && (failed.is_some() || stalled_now) {
                    // (7) The first failure kills every running leg and
                    // aborts; nothing launches after it.
                    prop_assert!(matches!(out.last(), Some(Action::Abort(_))), "{out:?}");
                    prop_assert!(!out.iter().any(|a| matches!(a, Action::Launch(..))));
                    let mut gone: BTreeSet<ShardSpec> = out.iter().filter_map(|a| match a {
                        Action::Kill(spec) => Some(*spec),
                        _ => None,
                    }).collect();
                    gone.extend(failed);
                    let before: BTreeSet<ShardSpec> = running_before.keys().copied().collect();
                    prop_assert_eq!(gone, before.union(&failed.into_iter().collect()).copied().collect::<BTreeSet<_>>());
                    prop_assert!(m.step(Event::Tick, now + Duration::from_secs(3600)).is_empty());
                }

                for action in out {
                    match action {
                        Action::Launch(spec, attempt) => {
                            // (2) Attempts count up from the inherited
                            // count and never pass the cap.
                            let prior = tries.get(&spec).copied().unwrap_or(0);
                            prop_assert_eq!(attempt, prior + 1, "{}", spec);
                            prop_assert!(attempt <= max_attempts, "{spec} attempt {attempt}");
                            tries.insert(spec, attempt);
                            // (3) Never before the backoff deadline.
                            let deadline = queued.remove(&spec);
                            prop_assert!(deadline.is_some(), "{spec} launched unqueued");
                            prop_assert!(deadline.is_some_and(|d| now >= d), "{spec} early");
                            running.insert(spec, now);
                            let check = launch_checks.entry(spec).or_insert(0);
                            *check += 1;
                            let ctx = spec.to_string();
                            if failpoint::would_fire(chaos_seed, attempt, Site::LaunchIo, &ctx, *check) {
                                inbox.push_back(Event::LaunchFailed(spec, "chaos".into()));
                            }
                        }
                        Action::Kill(spec) => {
                            prop_assert!(running.remove(&spec).is_some(), "killed {spec} not running");
                        }
                        Action::Split(spec, slices) => {
                            prop_assert!(spec.slice.is_none() && (2..=4).contains(&slices));
                            // The driver answers at once; a partition
                            // can also fail and fall back to a rescue.
                            let slices = rng.gen_bool(0.9).then(|| {
                                (0..slices).map(|j| spec.slice_of(j, slices).unwrap()).collect()
                            });
                            inbox.push_front(Event::Split(spec, slices));
                        }
                        Action::Record(Transition::Stalled(spec, limit)) => {
                            // (4) Only past the doubled timeout.
                            let kills = stall_kills.entry(spec).or_insert(0);
                            let want = stall_timeout.unwrap() * (1 << *kills);
                            *kills += 1;
                            prop_assert_eq!(limit, want);
                            prop_assert!(now - running_before[&spec] > want, "{spec} killed early");
                        }
                        Action::Record(Transition::Rescue(spec, ..)) => {
                            let prior = tries.get(&spec).copied().unwrap_or(0);
                            queued.insert(spec, now + cfg.backoff.delay(prior, spec));
                        }
                        Action::Record(Transition::Abandon(spec, _, attempts)) => {
                            prop_assert_eq!(attempts, max_attempts);
                            abandoned.insert(spec);
                        }
                        Action::Merge(merged, partial) => {
                            prop_assert_eq!(merged, completed.iter().copied().collect::<Vec<_>>());
                            prop_assert_eq!(partial, !abandoned.is_empty());
                            outcome = Some(true);
                        }
                        Action::Abort(_) => outcome = Some(false),
                        Action::Record(_) => {}
                    }
                }
                // (5) Never more legs running or queued than slots.
                prop_assert!(running.len() + queued.len() <= legs as usize,
                    "{} running + {} queued > {legs}", running.len(), queued.len());
            }

            // (1) Every dispatch ends in a merge or an abort.
            prop_assert!(outcome.is_some(), "no end after {MAX_EVENTS} events");
            if outcome == Some(true) {
                // (6) Every original shard is accounted for.
                let done = |s: &ShardSpec| completed.contains(s) || abandoned.contains(s);
                for spec in &originals {
                    let covered = slices_of.get(spec).is_some_and(|sl| sl.iter().all(done));
                    prop_assert!(done(spec) || covered, "{spec} lost");
                }
                prop_assert!(running.is_empty() && queued.is_empty());
            }
        }
    }
}
