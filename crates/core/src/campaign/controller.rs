//! Adaptive packet-budget control: deterministic chunk schedules and a
//! Wilson-score stopping rule on BLER.
//!
//! Fixed per-point budgets spend most of their packets on easy operating
//! points (high SNR, BLER ≈ 0) while under-resolving the waterfall
//! region. The controller instead runs every point in growing chunks and
//! stops as soon as a 95 % Wilson confidence interval on the point's
//! block-error rate is tight enough:
//!
//! * **resolved-low**: the whole interval sits below
//!   [`CampaignSettings::bler_floor`] — the point is "easy"; more packets
//!   would only sharpen a value the figures render as ≈ 0;
//! * **relative precision**: the interval half-width is within
//!   [`CampaignSettings::precision`] of the BLER estimate;
//! * **budget cap**: the point reaches its maximum packet budget (hard
//!   waterfall points escalate here).
//!
//! The schedule is a pure function of `(initial_chunk, max_packets)` and
//! the stopping decision a pure function of the merged statistics, so an
//! adaptive run is bit-reproducible and store-resumable: neither thread
//! count nor which chunks came from disk can change when a point stops.

use dsp::stats::wilson_interval;
use hspa_phy::harq::HarqStats;

use super::shard::ShardSpec;
use super::store::BackendKind;

/// z-score of the controller's confidence level (95 %).
pub const WILSON_Z: f64 = 1.96;

/// Knobs of the adaptive budget controller (engine-independent, `Copy`
/// so [`crate::experiments::ExperimentBudget`] can embed it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSettings {
    /// Target relative half-width of the BLER confidence interval.
    // identity: excluded(stopping-rule knob; decides when to stop sampling, never what any chunk contains)
    pub precision: f64,
    /// BLER below which a point counts as resolved: once the interval's
    /// upper bound drops under this floor, no more packets are spent.
    // identity: excluded(stopping-rule knob; chunk contents are keyed per chunk, not per floor)
    pub bler_floor: f64,
    /// Packets of the first chunk (and the minimum evidence before any
    /// stopping decision).
    // identity: excluded(schedule granularity; chunk streams are seeded per packet index, so regrouping is identity-neutral)
    pub initial_chunk: usize,
    /// Reuse stored chunks from a previous run (`--resume`, the
    /// default); `false` truncates the store first (`--no-resume`).
    // identity: excluded(storage lifecycle flag; resumed and fresh runs produce byte-identical chunks)
    pub resume: bool,
    /// Absolute 95 % Wilson half-width target (`--target-ci`). When
    /// positive it replaces the relative stopping rule: a point stops as
    /// soon as its interval half-width drops to this value, and chunk
    /// sizing jumps straight to the Wilson-estimated sample count
    /// instead of blind doubling. `0.0` (the default) disables the mode.
    // identity: excluded(stopping-rule knob; alternative stop criterion over the same chunk stream)
    pub target_ci: f64,
    /// The shard this process owns (`--shard i/n`). The default `0/1`
    /// runs every point; any other value runs only the points whose
    /// stable key hashes into the shard and writes suffixed
    /// store/manifest files for [`super::shard::merge`].
    // identity: excluded(work partitioning; shard ownership selects which points run, not their results)
    pub shard: ShardSpec,
    /// Result-store backend (`--store-backend`): JSONL (the
    /// interchange/debug default) or the indexed segment format. Like
    /// `resume`, this is a storage knob, not part of the campaign's
    /// rendered identity — manifests from both backends are
    /// byte-identical.
    // identity: excluded(storage knob; both backends render byte-identical manifests)
    pub backend: BackendKind,
}

impl Default for CampaignSettings {
    fn default() -> Self {
        Self {
            precision: 0.25,
            bler_floor: 0.15,
            initial_chunk: 32,
            resume: true,
            target_ci: 0.0,
            shard: ShardSpec::single(),
            backend: BackendKind::default(),
        }
    }
}

impl CampaignSettings {
    /// Settings that never stop early: every point realizes its full
    /// budget, which makes an adaptive run bit-identical to a fixed one
    /// (used by equivalence tests).
    pub fn exhaustive() -> Self {
        Self {
            precision: 0.0,
            bler_floor: 0.0,
            ..Self::default()
        }
    }

    /// Checks every field against the range the command line accepts:
    /// `precision` finite and >= 0, `bler_floor` in 0..=1,
    /// `initial_chunk` >= 1, `target_ci` 0 (off) or finite and > 0.
    /// `Err` names the first field out of range.
    // alloc: cold(runs once per settings value, when a flag, a campaign or a manifest is read; the walk reaches it by name from the CRC's `check`)
    pub fn check(&self) -> Result<(), String> {
        let (p, f, w) = (self.precision, self.bler_floor, self.target_ci);
        if !(p.is_finite() && p >= 0.0) {
            Err(format!("precision must be finite and >= 0, got {p}"))
        } else if !(0.0..=1.0).contains(&f) {
            Err(format!("bler_floor must be in 0..=1, got {f}"))
        } else if self.initial_chunk == 0 {
            Err("initial_chunk must be >= 1, got 0".into())
        } else if !(w == 0.0 || w.is_finite() && w > 0.0) {
            Err(format!(
                "target_ci must be 0 (off) or finite and > 0, got {w}"
            ))
        } else {
            Ok(())
        }
    }

    /// The next chunk of a point that has already realized `realized`
    /// packets of a `max_packets` budget, or `None` once the budget is
    /// exhausted.
    ///
    /// This is the schedule every point's step follows. It is a pure
    /// function of `(realized, max_packets, merged stats)`, so a resumed
    /// run replays exactly the same chunk ranges as the run that
    /// populated the store. In the default (relative-precision) mode
    /// chunks double the cumulative packet count (`initial`, then totals
    /// `2·initial`, `4·initial`, …) and clamp to `max_packets`, so even a
    /// fully escalated point runs only O(log) rounds; in `--target-ci`
    /// mode the chunk jumps toward the Wilson-estimated sample count for
    /// the requested absolute half-width. Settings that fail
    /// [`check`](Self::check) have no defined schedule.
    pub fn next_chunk(
        &self,
        realized: usize,
        max_packets: usize,
        stats: &HarqStats,
    ) -> Option<(usize, usize)> {
        if realized >= max_packets {
            return None;
        }
        let total = if realized == 0 {
            self.initial_chunk.min(max_packets)
        } else if self.target_ci > 0.0 {
            self.target_sized_total(realized, stats).min(max_packets)
        } else {
            (realized * 2).min(max_packets)
        };
        (total > realized).then_some((realized, total - realized))
    }

    /// Wilson-based cumulative sample count for `--target-ci`: the
    /// estimated packets needed to shrink the absolute half-width to
    /// [`CampaignSettings::target_ci`], never less than 1.5× the
    /// realized count so a noisy early estimate cannot stall the
    /// schedule (the Wilson stopping check remains the authority).
    fn target_sized_total(&self, realized: usize, stats: &HarqStats) -> usize {
        let w = self.target_ci;
        let z2 = WILSON_Z * WILSON_Z;
        // Saturating: stats loaded from disk are range-validated, but a
        // caller-constructed block with delivered > packets must degrade
        // to p = 0, not wrap to a ~u64::MAX failure count.
        let p = stats.packets.saturating_sub(stats.delivered) as f64 / stats.packets.max(1) as f64;
        // Normal-approximation size for variance p(1-p)...
        let n_var = z2 * p * (1.0 - p) / (w * w);
        // ...and the exact Wilson width at p ∈ {0, 1}, where the
        // variance term vanishes but the interval is still
        // z²/(2(n+z²)) wide.
        let n_edge = z2 * (0.5 / w - 1.0);
        let n_req = n_var.max(n_edge).max(0.0).ceil() as usize;
        n_req.max(realized + (realized / 2).max(1))
    }

    /// Whether the merged statistics of a point satisfy the stopping
    /// rule ([`module docs`](self) for the clauses; `--target-ci`
    /// replaces them with an absolute half-width criterion).
    pub fn converged(&self, stats: &HarqStats) -> bool {
        if stats.packets == 0 {
            return false;
        }
        let check = PrecisionCheck::of(stats, self);
        if self.target_ci > 0.0 {
            check.half_width <= self.target_ci
        } else {
            check.resolved_low || check.rel_half_width <= self.precision
        }
    }

    /// Replays the campaign loop for one point over stored chunks:
    /// the adopting schedule step stepped through every chunk
    /// `fetch(first_packet, n_packets)` returns until the point stops —
    /// what a resume served wholly from the store does, so the result
    /// reproduces the point's manifest record. `Err` is the first
    /// scheduled range `fetch` cannot supply; a chunk the step refuses
    /// counts as missing.
    pub fn replay(
        &self,
        max_packets: usize,
        mut fetch: impl FnMut(usize, usize) -> Option<HarqStats>,
    ) -> Result<Replay, (usize, usize)> {
        let mut point = PointRun::default();
        while let Some((first, len)) = point.due(self, max_packets) {
            if !fetch(first, len).is_some_and(|chunk| point.offer(self, len, &chunk)) {
                return Err((first, len));
            }
        }
        Ok(point.replay)
    }
}

/// What the controller's schedule derives for one point: the outcome
/// of a campaign run, or of [`CampaignSettings::replay`] over a store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Replay {
    /// Merged statistics of every chunk the schedule ran.
    pub stats: HarqStats,
    /// Chunks the schedule ran.
    pub chunks: usize,
    /// Whether the stopping rule fired (false = budget cap).
    pub converged: bool,
}

/// One point's walk through the schedule, shared by the campaign run
/// and [`CampaignSettings::replay`]: which chunk is due, whether a chunk
/// fits, how it merges and when the point stops. The default step
/// adopts its first chunk, as a replay over a store must: it knows no
/// simulator config.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct PointRun {
    replay: Replay,
    /// Failure counts a chunk must hold, one per transmission of the
    /// point's budget; `None` until the first chunk fixes it.
    transmissions: Option<usize>,
}

impl PointRun {
    /// A step that merges every chunk into `stats` (a campaign run,
    /// which knows the point's transmission budget from its config).
    pub fn seeded(stats: HarqStats) -> Self {
        Self {
            transmissions: Some(stats.failures_at.len()),
            replay: Replay {
                stats,
                ..Replay::default()
            },
        }
    }

    /// What the schedule has derived so far.
    pub fn replay(&self) -> &Replay {
        &self.replay
    }

    /// The `(first_packet, n_packets)` chunk due next, or `None` once the
    /// point converged or used up its `max_packets` budget.
    pub fn due(&self, settings: &CampaignSettings, max_packets: usize) -> Option<(usize, usize)> {
        if self.replay.converged {
            return None;
        }
        let stats = &self.replay.stats;
        settings.next_chunk(stats.packets as usize, max_packets, stats)
    }

    /// Takes `chunk` as the `len`-packet chunk [`due`](Self::due) named
    /// if it fits: it covers exactly `len` packets and holds one failure
    /// count per transmission of the point's budget. Merges it, applies
    /// the stopping rule, and returns whether it was taken.
    pub fn offer(&mut self, settings: &CampaignSettings, len: usize, chunk: &HarqStats) -> bool {
        let tx = chunk.failures_at.len();
        if chunk.packets != len as u64 || self.transmissions.is_some_and(|t| t != tx) {
            return false;
        }
        match self.transmissions.replace(tx) {
            Some(_) => self.replay.stats.merge(chunk),
            None => self.replay.stats = chunk.clone(),
        }
        self.replay.chunks += 1;
        self.replay.converged = settings.converged(&self.replay.stats);
        true
    }
}

/// The achieved confidence-interval quality of one point — computed once
/// and reused by the stopping rule, the manifest and the reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionCheck {
    /// BLER point estimate (failed packets / packets).
    pub bler: f64,
    /// 95 % Wilson interval on the BLER.
    pub ci: (f64, f64),
    /// Absolute interval half-width (the `--target-ci` metric).
    pub half_width: f64,
    /// Interval half-width relative to `max(bler, bler_floor)`.
    pub rel_half_width: f64,
    /// Whole interval below the floor (the "easy point" clause).
    pub resolved_low: bool,
}

impl PrecisionCheck {
    /// Evaluates the interval quality of merged point statistics. With
    /// no packets yet the interval is vacuous (`(0, 1)`, infinite
    /// relative half-width).
    pub fn of(stats: &HarqStats, settings: &CampaignSettings) -> Self {
        if stats.packets == 0 {
            return Self {
                bler: 0.0,
                ci: (0.0, 1.0),
                half_width: 0.5,
                rel_half_width: f64::INFINITY,
                resolved_low: false,
            };
        }
        // Saturating for the same reason as in `target_sized_total`:
        // an inverted stats block must yield BLER 0, not a garbage
        // estimate from a wrapped failure count.
        let failures = stats.packets.saturating_sub(stats.delivered);
        let ci = wilson_interval(failures, stats.packets, WILSON_Z);
        let bler = failures as f64 / stats.packets as f64;
        let half = (ci.1 - ci.0) / 2.0;
        Self {
            bler,
            ci,
            half_width: half,
            rel_half_width: half / bler.max(settings.bler_floor).max(f64::MIN_POSITIVE),
            resolved_low: ci.1 <= settings.bler_floor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(packets: u64, delivered: u64) -> HarqStats {
        let mut s = HarqStats::new(4, 100);
        s.packets = packets;
        s.delivered = delivered;
        s.transmissions = packets;
        s
    }

    /// The default-mode schedule of a `max`-packet point: every range
    /// [`CampaignSettings::next_chunk`] hands out until the budget ends.
    fn schedule(s: &CampaignSettings, max: usize) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let mut realized = 0;
        while let Some((start, len)) = s.next_chunk(realized, max, &stats_with(realized as u64, 0))
        {
            ranges.push((start, len));
            realized += len;
        }
        ranges
    }

    #[test]
    fn schedule_doubles_and_clamps() {
        let s = CampaignSettings {
            initial_chunk: 32,
            ..Default::default()
        };
        assert_eq!(schedule(&s, 60), [(0, 32), (32, 28)]);
        assert_eq!(schedule(&s, 240), [(0, 32), (32, 32), (64, 64), (128, 112)]);
        // Tiny budget: one clamped chunk.
        assert_eq!(schedule(&s, 6), [(0, 6)]);
    }

    #[test]
    fn schedule_partitions_the_budget() {
        let s = CampaignSettings {
            initial_chunk: 7,
            ..Default::default()
        };
        for max in [1usize, 7, 8, 13, 100] {
            let mut expected_start = 0;
            for (start, len) in schedule(&s, max) {
                assert_eq!(start, expected_start, "max={max}");
                assert!(len > 0);
                expected_start += len;
            }
            assert_eq!(expected_start, max, "chunks must cover 0..max");
        }
    }

    #[test]
    fn easy_points_resolve_low() {
        let s = CampaignSettings::default();
        // 32/32 delivered: Wilson upper bound ≈ 0.107 < 0.15 → stop.
        assert!(s.converged(&stats_with(32, 32)));
        // 16/16 delivered: upper bound ≈ 0.194 → keep going.
        assert!(!s.converged(&stats_with(16, 16)));
    }

    #[test]
    fn hard_points_need_relative_precision() {
        let s = CampaignSettings::default();
        // BLER 0.5 at n=32: half-width ≈ 0.16 rel 0.33 → not converged.
        assert!(!s.converged(&stats_with(32, 16)));
        // BLER 0.5 at n=256: half-width ≈ 0.061 rel 0.12 → converged.
        assert!(s.converged(&stats_with(256, 128)));
    }

    #[test]
    fn exhaustive_settings_never_stop() {
        let s = CampaignSettings::exhaustive();
        assert!(!s.converged(&stats_with(32, 32)));
        assert!(!s.converged(&stats_with(100_000, 50_000)));
    }

    #[test]
    fn precision_check_matches_wilson() {
        let s = CampaignSettings::default();
        let stats = stats_with(100, 90);
        let check = PrecisionCheck::of(&stats, &s);
        assert!((check.bler - 0.10).abs() < 1e-12);
        let (lo, hi) = wilson_interval(10, 100, WILSON_Z);
        assert_eq!(check.ci, (lo, hi));
        assert!(check.ci.0 < 0.10 && 0.10 < check.ci.1);
        assert!(!check.resolved_low);
    }

    #[test]
    fn no_evidence_is_never_converged() {
        assert!(!CampaignSettings::default().converged(&HarqStats::new(4, 100)));
    }

    #[test]
    fn inverted_stats_saturate_instead_of_underflowing() {
        // delivered > packets is rejected at store-load time, but a
        // caller can still hand such a block in; the failure count must
        // saturate to 0, not wrap to ~2^64.
        let s = CampaignSettings::default();
        let bad = stats_with(8, 9);
        let check = PrecisionCheck::of(&bad, &s);
        assert_eq!(check.bler, 0.0);
        assert!(check.ci.0 >= 0.0 && check.ci.1 <= 1.0, "{:?}", check.ci);
        // --target-ci sizing path saturates too.
        let t = CampaignSettings {
            target_ci: 0.05,
            ..s
        };
        let (_, len) = t.next_chunk(8, 10_000, &bad).expect("still schedules");
        assert!(len <= 2_000, "sane chunk from saturated p=0, got {len}");
    }

    #[test]
    fn next_chunk_matches_the_indexed_schedule() {
        // In default mode the schedule ignores the merged statistics:
        // chunk `i` of a point is the same range whatever its BLER, so
        // stores written at any precision are interchangeable.
        let s = CampaignSettings {
            initial_chunk: 7,
            ..Default::default()
        };
        for max in [1usize, 6, 7, 8, 13, 100, 240] {
            let mut realized = 0;
            for (i, &(start, len)) in schedule(&s, max).iter().enumerate() {
                for delivered in [0, realized as u64 / 2, realized as u64] {
                    let stats = stats_with(realized as u64, delivered);
                    assert_eq!(
                        s.next_chunk(realized, max, &stats),
                        Some((start, len)),
                        "max={max} chunk {i}"
                    );
                }
                realized += len;
            }
            assert_eq!(
                s.next_chunk(realized, max, &stats_with(realized as u64, 0)),
                None
            );
        }
    }

    #[test]
    fn target_ci_stops_on_absolute_half_width() {
        let s = CampaignSettings {
            target_ci: 0.05,
            ..Default::default()
        };
        // BLER 0.5 at n=256: Wilson half ≈ 0.061 > 0.05 → keep going.
        assert!(!s.converged(&stats_with(256, 128)));
        // n=420: half ≈ 0.0477 → converged.
        assert!(s.converged(&stats_with(420, 210)));
        // All-delivered points converge once the one-sided interval is
        // tight: n=32 has half ≈ 0.054, n=64 ≈ 0.028.
        assert!(!s.converged(&stats_with(32, 32)));
        assert!(s.converged(&stats_with(64, 64)));
    }

    #[test]
    fn target_ci_sizes_chunks_from_the_estimate() {
        let s = CampaignSettings {
            initial_chunk: 32,
            target_ci: 0.05,
            ..Default::default()
        };
        // First chunk is always the evidence chunk.
        assert_eq!(s.next_chunk(0, 10_000, &stats_with(0, 0)), Some((0, 32)));
        // BLER 0.5 estimate → jump near z²·0.25/w² ≈ 385 total instead
        // of doubling blindly.
        let (start, len) = s.next_chunk(32, 10_000, &stats_with(32, 16)).unwrap();
        assert_eq!(start, 32);
        assert!(
            (300..=420).contains(&(start + len)),
            "Wilson-sized total, got {}",
            start + len
        );
        // An easy point (BLER 0) still grows enough to tighten the
        // p=0 interval below the target.
        let (_, len0) = s.next_chunk(32, 10_000, &stats_with(32, 32)).unwrap();
        assert!(len0 >= 16, "must keep ≥1.5x growth, got {len0}");
        // The budget cap still binds.
        assert_eq!(s.next_chunk(32, 40, &stats_with(32, 16)), Some((32, 8)));
    }

    #[test]
    fn replay_follows_the_schedule_to_the_stopping_rule() {
        let s = CampaignSettings {
            initial_chunk: 8,
            ..Default::default()
        };
        let delivered_all = |_: usize, len: usize| Some(stats_with(len as u64, len as u64));
        // 8/8 and 16/16 delivered keep going; 32/32 resolves low.
        let mut asked = Vec::new();
        let r = s
            .replay(240, |first, len| {
                asked.push((first, len));
                delivered_all(first, len)
            })
            .unwrap();
        assert_eq!(asked, [(0, 8), (8, 8), (16, 16)]);
        assert_eq!((r.stats.packets, r.chunks, r.converged), (32, 3, true));
        // The budget cap stops a point that never converges.
        let r = CampaignSettings::exhaustive()
            .replay(20, delivered_all)
            .unwrap();
        assert_eq!((r.stats.packets, r.chunks, r.converged), (20, 1, false));
        // A point with no budget runs no chunk.
        let r = s.replay(0, delivered_all).unwrap();
        assert_eq!((r.stats.packets, r.chunks), (0, 0));
    }

    #[test]
    fn check_refuses_out_of_range_settings() {
        let d = CampaignSettings::default();
        for ok in [
            d,
            CampaignSettings::exhaustive(),
            CampaignSettings {
                target_ci: 0.05,
                bler_floor: 1.0,
                initial_chunk: 1,
                ..d
            },
        ] {
            assert_eq!(ok.check(), Ok(()), "{ok:?}");
        }
        type Edit = fn(&mut CampaignSettings);
        let bad: [(&str, Edit); 7] = [
            ("bler_floor", |s| s.bler_floor = 2.0),
            ("bler_floor", |s| s.bler_floor = -0.1),
            ("target_ci", |s| s.target_ci = -1.0),
            ("target_ci", |s| s.target_ci = f64::INFINITY),
            ("initial_chunk", |s| s.initial_chunk = 0),
            ("precision", |s| s.precision = f64::NAN),
            ("precision", |s| s.precision = -1.0),
        ];
        for (field, edit) in bad {
            let mut s = d;
            edit(&mut s);
            let err = s.check().unwrap_err();
            assert!(err.starts_with(field), "{s:?}: {err}");
        }
    }

    #[test]
    fn a_seeded_run_and_a_replay_derive_the_same_point() {
        // The campaign run seeds the step with the point's budget; a
        // replay adopts its first chunk. Over the same chunks both end
        // in the same statistics, chunk count and stopping decision.
        let s = CampaignSettings {
            initial_chunk: 8,
            ..Default::default()
        };
        // Later chunks fail more packets, so the point does not resolve
        // at once.
        let chunk = |first: usize, len: usize| {
            let failed = (first / 4).min(len) as u64;
            let mut c = stats_with(len as u64, len as u64 - failed);
            c.failures_at = vec![failed; 4];
            c
        };
        let mut run = PointRun::seeded(HarqStats::new(4, 100));
        while let Some((first, len)) = run.due(&s, 240) {
            assert!(run.offer(&s, len, &chunk(first, len)));
        }
        let replay = s.replay(240, |first, len| Some(chunk(first, len))).unwrap();
        assert_eq!(run.replay, replay);
        // A seeded step refuses a chunk of another transmission budget
        // from the start; it leaves the point as it was.
        let mut run = PointRun::seeded(HarqStats::new(4, 100));
        let mut short = chunk(0, 8);
        short.failures_at.pop();
        assert!(!run.offer(&s, 8, &short));
        assert!(!run.offer(&s, 7, &chunk(0, 8)));
        assert_eq!(run, PointRun::seeded(HarqStats::new(4, 100)));
    }

    #[test]
    fn replay_names_the_first_chunk_it_cannot_use() {
        let s = CampaignSettings {
            initial_chunk: 8,
            ..Default::default()
        };
        let gap =
            |first: usize, len: usize| (first != 8).then(|| stats_with(len as u64, len as u64));
        assert_eq!(s.replay(240, gap), Err((8, 8)));
        // A chunk covering a different packet count than asked for, or
        // one whose shape cannot merge, is not the scheduled chunk.
        let short = |_: usize, len: usize| Some(stats_with(len as u64 - 1, 0));
        assert_eq!(s.replay(240, short), Err((0, 8)));
        let reshaped = |first: usize, len: usize| {
            let mut c = stats_with(len as u64, len as u64);
            if first > 0 {
                c.failures_at.push(0);
            }
            Some(c)
        };
        assert_eq!(s.replay(240, reshaped), Err((8, 8)));
    }
}
