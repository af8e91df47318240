//! Campaign manifest: a machine-readable summary of what a campaign ran.
//!
//! Every [`super::Campaign`] rewrites `<store_dir>/<name>.manifest.json`
//! after each run call with cumulative totals (chunks simulated vs served
//! from the store, packets realized vs the fixed budget) plus one record
//! per operating point with its achieved confidence interval. The bench
//! binaries print their summary from this file and the CI resume-smoke
//! job asserts on its store-hit rate.
//!
//! The shard merge, `campaign-admin verify` and the dispatcher read leg
//! manifests back, so the file is written atomically and read strictly:
//! [`Manifest::parse`] accepts only the exact bytes
//! [`Manifest::render_json`] writes. Even then a manifest supplies only
//! settings, enumeration and each point's identity; a point's
//! statistics are re-derived from the store by
//! [`CampaignSettings::replay`] wherever they are consumed.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use hspa_phy::turbo::AccuracyTier;

use super::controller::{CampaignSettings, PrecisionCheck, Replay};
use crate::artifact::{self, escape_into, Cursor};

/// One point entry of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Position of the point in the campaign's full (shard-global)
    /// enumeration order — what [`super::shard::merge`] sorts by to
    /// reassemble the single-host manifest.
    pub index: u64,
    /// The point's stable store key ([`super::hash::point_key`]), tying
    /// the manifest entry to its chunks in the result store.
    pub key: u64,
    /// Human-readable point label (storage + SNR).
    pub label: String,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Realized packet count.
    pub packets: usize,
    /// The point's maximum budget.
    pub max_packets: usize,
    /// Final BLER estimate.
    pub bler: f64,
    /// 95 % Wilson interval on the BLER.
    pub ci: (f64, f64),
    /// Achieved relative half-width (the `--precision` metric).
    pub rel_half_width: f64,
    /// Whether the stopping rule was met before the budget cap.
    pub converged: bool,
    /// Chunks executed for this point.
    pub chunks: usize,
    /// Of those, chunks served from the result store.
    pub chunks_from_store: usize,
    /// Packets served from the result store (the packet-weighted view
    /// of `chunks_from_store` — chunks double in size, so the chunk
    /// ratio alone understates how much work resume actually saved).
    pub packets_from_store: usize,
    /// Decoder accuracy tier the point was simulated at — part of the
    /// point fingerprint, recorded here so `campaign-admin query
    /// --tier` can filter without re-deriving configs.
    pub tier: AccuracyTier,
}

impl PointRecord {
    /// The record of a point from its identity (`index` to `tier`) and
    /// its controller run — or replay over the store — `replay`. Every
    /// statistic comes from `replay` through [`PrecisionCheck::of`];
    /// this is the one constructor behind both a campaign run and the
    /// shard tooling, so a record's statistics have one source. Store
    /// provenance starts at zero.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: u64,
        key: u64,
        label: &str,
        snr_db: f64,
        max_packets: usize,
        tier: AccuracyTier,
        settings: &CampaignSettings,
        replay: &Replay,
    ) -> Self {
        let check = PrecisionCheck::of(&replay.stats, settings);
        Self {
            index,
            key,
            label: label.to_string(),
            snr_db,
            packets: replay.stats.packets as usize,
            max_packets,
            bler: check.bler,
            ci: check.ci,
            rel_half_width: check.rel_half_width,
            converged: replay.converged,
            chunks: replay.chunks,
            chunks_from_store: 0,
            packets_from_store: 0,
            tier,
        }
    }

    /// This record's identity with every statistic re-derived from
    /// `replay` ([`PointRecord::new`]).
    pub(crate) fn derive(&self, settings: &CampaignSettings, replay: &Replay) -> Self {
        Self::new(
            self.index,
            self.key,
            &self.label,
            self.snr_db,
            self.max_packets,
            self.tier,
            settings,
            replay,
        )
    }

    /// Appends the record as one manifest line (no trailing comma).
    fn render_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"index\": {}, \"key\": \"{:016x}\", \"label\": \"",
            self.index, self.key
        );
        escape_into(out, &self.label);
        let _ = write!(
            out,
            "\", \"snr_db\": {}, \"packets\": {}, \"max\": {}, \"bler\": {:.6}, \"ci_lo\": {:.6}, \"ci_hi\": {:.6}, \"rel_hw\": {:.4}, \"converged\": {}, \"chunks\": {}, \"chunks_store\": {}, \"packets_store\": {}, \"tier\": \"{}\"}}",
            self.snr_db,
            self.packets,
            self.max_packets,
            self.bler,
            self.ci.0,
            self.ci.1,
            self.rel_half_width,
            self.converged,
            self.chunks,
            self.chunks_from_store,
            self.packets_from_store,
            self.tier,
        );
    }

    /// Parses one record in [`render`](Self::render)'s field order
    /// (struct fields evaluate in source order).
    fn parse_from(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(Self {
            index: cur.tag(b"{\"index\": ")?.uint()?,
            key: cur.tag(b", \"key\": \"")?.hex16()?,
            label: cur.tag(b"\", \"label\": ")?.string()?,
            snr_db: cur.tag(b", \"snr_db\": ")?.float()?,
            packets: cur.tag(b", \"packets\": ")?.usize()?,
            max_packets: cur.tag(b", \"max\": ")?.usize()?,
            bler: cur.tag(b", \"bler\": ")?.float()?,
            ci: (
                cur.tag(b", \"ci_lo\": ")?.float()?,
                cur.tag(b", \"ci_hi\": ")?.float()?,
            ),
            rel_half_width: cur.tag(b", \"rel_hw\": ")?.float()?,
            converged: cur.tag(b", \"converged\": ")?.boolean()?,
            chunks: cur.tag(b", \"chunks\": ")?.usize()?,
            chunks_from_store: cur.tag(b", \"chunks_store\": ")?.usize()?,
            packets_from_store: cur.tag(b", \"packets_store\": ")?.usize()?,
            tier: cur.tag(b", \"tier\": ")?.string()?.parse().ok()?,
        })
    }

    /// The rendered `"name": value` statistic and provenance fields
    /// (everything after the label) that differ between two records, as
    /// `(self's, other's)` pairs — how `verify` names what a manifest
    /// line got wrong.
    pub(crate) fn differing_fields(&self, other: &Self) -> Vec<(String, String)> {
        let fields = |r: &Self| -> Vec<String> {
            let mut line = String::new();
            r.render_into(&mut line);
            // The label escapes every `"`, so the first `"snr_db": `
            // ends it, and after it every `, "` separates two fields.
            let tail = &line[line.find("\"snr_db\": ").unwrap_or(0)..];
            let tail = tail.trim_end_matches('}').split(", \"");
            tail.map(|f| format!("\"{}", f.trim_start_matches('"')))
                .collect()
        };
        let (a, b) = (fields(self), fields(other));
        a.into_iter().zip(b).filter(|(x, y)| x != y).collect()
    }
}

/// Cumulative manifest of one campaign (possibly several run calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (also the store/manifest file stem).
    pub name: String,
    /// Controller settings of the campaign.
    pub settings: CampaignSettings,
    /// Points **enumerated** so far, across every shard: a sharded run
    /// records only the points it owns in [`Manifest::points`], but
    /// still counts every point it saw, so shard manifests agree on the
    /// global index space and the merge can prove completeness.
    pub points_enumerated: u64,
    /// Every point run (and owned) so far.
    pub points: Vec<PointRecord>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new(name: impl Into<String>, settings: CampaignSettings) -> Self {
        Self {
            name: name.into(),
            settings,
            points_enumerated: 0,
            points: Vec::new(),
        }
    }

    /// Aggregated totals over all points.
    pub fn totals(&self) -> ManifestTotals {
        ManifestTotals::over(self.points.iter())
    }

    /// Renders the manifest as pretty-printed JSON (hand-formatted; the
    /// offline serde shim has no serializer).
    ///
    /// The `"shard"` line appears only in per-shard manifests, so a
    /// merged manifest (shard cleared) can be byte-identical to a
    /// single-host run's.
    pub fn render_json(&self) -> String {
        let t = self.totals();
        let mut out = String::from("{\n  \"campaign\": \"");
        escape_into(&mut out, &self.name);
        // Writing into a `String` cannot fail.
        let _ = writeln!(
            out,
            "\",\n  \"settings\": {{\"precision\": {}, \"bler_floor\": {}, \"initial_chunk\": {}, \"target_ci\": {}}},",
            self.settings.precision,
            self.settings.bler_floor,
            self.settings.initial_chunk,
            self.settings.target_ci
        );
        if self.settings.shard.is_sharded() {
            let _ = writeln!(out, "  \"shard\": \"{}\",", self.settings.shard);
        }
        let _ = write!(
            out,
            "  \"points_enumerated\": {},\n  \"points_total\": {},\n  \"points_converged\": {},\n  \
             \"total_chunks\": {},\n  \"store_chunks\": {},\n  \"realized_packets\": {},\n  \
             \"budget_packets\": {},\n  \"saved_vs_fixed\": {:.4},\n  \"store_hit_rate\": {:.4},\n  \
             \"store_packets\": {},\n  \"store_packet_rate\": {:.4},\n  \"points\": [\n",
            self.points_enumerated,
            t.points_total,
            t.points_converged,
            t.total_chunks,
            t.store_chunks,
            t.realized_packets,
            t.budget_packets,
            t.saved_vs_fixed(),
            t.store_hit_rate(),
            t.store_packets,
            t.store_packet_rate(),
        );
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    ");
            p.render_into(&mut out);
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest back from its JSON text — the full inverse of
    /// [`Manifest::render_json`] (the store-side `resume` and `backend`
    /// knobs are not part of the rendered identity and come back as
    /// their defaults). `None` unless `json` is exactly the rendering of
    /// the manifest it parses to, so an edited, duplicated, reordered
    /// or truncated manifest never parses.
    pub fn parse(json: &str) -> Option<Self> {
        artifact::canonical(json, Self::parse_from, Self::render_json)
    }

    fn parse_from(cur: &mut Cursor<'_>) -> Option<Self> {
        let name = cur.tag(b"{\n  \"campaign\": ")?.string()?;
        let mut settings = CampaignSettings {
            precision: cur.tag(b",\n  \"settings\": {\"precision\": ")?.float()?,
            bler_floor: cur.tag(b", \"bler_floor\": ")?.float()?,
            initial_chunk: cur.tag(b", \"initial_chunk\": ")?.usize()?,
            target_ci: cur.tag(b", \"target_ci\": ")?.float()?,
            ..CampaignSettings::default()
        };
        // The schedule is undefined for settings out of range.
        settings.check().ok()?;
        cur.tag(b"},\n")?;
        if cur.tag(b"  \"shard\": ").is_some() {
            settings.shard = cur.string()?.parse().ok()?;
            cur.tag(b",\n")?;
        }
        let points_enumerated = cur.tag(b"  \"points_enumerated\": ")?.uint()?;
        // The totals lines are derived from the points, and the points
        // lines' separator commas are fixed by their count: the render
        // comparison checks both.
        while cur.tag(b"  \"points\": [\n").is_none() {
            cur.line()?;
        }
        let mut points = Vec::new();
        while cur.tag(b"  ]\n}\n").is_none() {
            points.push(PointRecord::parse_from(cur.tag(b"    ")?)?);
            cur.line()?;
        }
        Some(Self {
            name,
            settings,
            points_enumerated,
            points,
        })
    }

    /// Reads and parses a manifest file (the admin tooling's entry). A
    /// file that is not exactly a rendered manifest — edited by hand,
    /// torn, or written by older code — is an error naming the file.
    pub fn read(path: &Path) -> std::io::Result<Self> {
        let json = fs::read_to_string(path)?;
        Self::parse(&json).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: not a canonical campaign manifest (edited, truncated or written by \
                     older code); re-run the campaign or its merge to rewrite it",
                    path.display()
                ),
            )
        })
    }

    /// Writes the manifest to `path` atomically (temp file + rename):
    /// the shard merge, `verify` and the dispatcher consume leg
    /// manifests, and the dispatcher kills stalled legs at arbitrary
    /// points, so a reader must never see a torn one.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        artifact::write_atomic(path, self.render_json().as_bytes())
    }
}

/// Totals block of a manifest.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ManifestTotals {
    /// Points run.
    pub points_total: u64,
    /// Points whose stopping rule fired before the budget cap.
    pub points_converged: u64,
    /// Chunk executions (simulated + from store).
    pub total_chunks: u64,
    /// Chunks served from the result store.
    pub store_chunks: u64,
    /// Packets served from the result store.
    pub store_packets: u64,
    /// Packets realized by the adaptive controller.
    pub realized_packets: u64,
    /// Packets a fixed budget would have spent (`Σ max_packets`).
    pub budget_packets: u64,
}

impl ManifestTotals {
    /// Aggregates totals over any set of manifest points — the engine
    /// behind [`Manifest::totals`], and what `campaign-admin query`
    /// uses to summarize a filtered point selection.
    pub fn over<'a>(points: impl IntoIterator<Item = &'a PointRecord>) -> Self {
        let mut t = Self::default();
        for p in points {
            t.points_total += 1;
            t.points_converged += u64::from(p.converged);
            t.total_chunks += p.chunks as u64;
            t.store_chunks += p.chunks_from_store as u64;
            t.store_packets += p.packets_from_store as u64;
            t.realized_packets += p.packets as u64;
            t.budget_packets += p.max_packets as u64;
        }
        t
    }

    /// Fraction of the fixed budget the controller did not need.
    pub fn saved_vs_fixed(&self) -> f64 {
        if self.budget_packets == 0 {
            return 0.0;
        }
        1.0 - self.realized_packets as f64 / self.budget_packets as f64
    }

    /// Fraction of chunk executions served from the store.
    pub fn store_hit_rate(&self) -> f64 {
        if self.total_chunks == 0 {
            return 0.0;
        }
        self.store_chunks as f64 / self.total_chunks as f64
    }

    /// Fraction of realized packets served from the store — the
    /// packet-weighted hit rate the CI resume-smoke job asserts on.
    pub fn store_packet_rate(&self) -> f64 {
        if self.realized_packets == 0 {
            return 0.0;
        }
        self.store_packets as f64 / self.realized_packets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ShardSpec;

    pub(crate) fn sample_manifest() -> Manifest {
        let mut m = Manifest::new("test", CampaignSettings::default());
        m.points_enumerated = 2;
        m.points.push(PointRecord {
            index: 0,
            key: 0x0123_4567_89ab_cdef,
            label: "quantized @ 18dB".into(),
            snr_db: 18.0,
            packets: 32,
            max_packets: 60,
            bler: 0.0,
            ci: (0.0, 0.107),
            rel_half_width: 0.36,
            converged: true,
            chunks: 1,
            chunks_from_store: 1,
            packets_from_store: 32,
            tier: AccuracyTier::Exact,
        });
        m.points.push(PointRecord {
            index: 1,
            key: 0xfeed_face_0000_0001,
            label: "6T, Nf=10.00% @ 9dB \"q\" \\".into(),
            snr_db: 9.0,
            packets: 60,
            max_packets: 60,
            bler: 0.4,
            ci: (0.29, 0.53),
            rel_half_width: 0.3,
            converged: false,
            chunks: 2,
            chunks_from_store: 0,
            packets_from_store: 0,
            tier: AccuracyTier::EarlyStop,
        });
        m
    }

    #[test]
    fn totals_aggregate() {
        let t = sample_manifest().totals();
        assert_eq!(t.points_total, 2);
        assert_eq!(t.points_converged, 1);
        assert_eq!(t.total_chunks, 3);
        assert_eq!(t.store_chunks, 1);
        assert_eq!(t.store_packets, 32);
        assert_eq!(t.realized_packets, 92);
        assert_eq!(t.budget_packets, 120);
        assert!((t.saved_vs_fixed() - (1.0 - 92.0 / 120.0)).abs() < 1e-12);
        assert!((t.store_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.store_packet_rate() - 32.0 / 92.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_via_summary() {
        let m = sample_manifest();
        let path = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}.json",
            std::process::id()
        ));
        m.write(&path).unwrap();
        let read = Manifest::read(&path).expect("parses back");
        assert_eq!(read.name, "test");
        assert_eq!(read.totals(), m.totals());
        // A manifest written by code that predates a field is a loud
        // error naming the file, never a lenient default.
        let old = m.render_json().replace(", \"packets_store\": 32", "");
        fs::write(&path, old).unwrap();
        let err = Manifest::read(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        let _ = fs::remove_file(&path);
        let err = Manifest::read(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "missing file");
    }

    #[test]
    fn empty_manifest_has_zero_rates() {
        let t = Manifest::new("empty", CampaignSettings::default()).totals();
        assert_eq!(t.saved_vs_fixed(), 0.0);
        assert_eq!(t.store_hit_rate(), 0.0);
        let json = Manifest::new("empty", CampaignSettings::default()).render_json();
        assert!(
            Manifest::parse(&json).is_some(),
            "a point-less manifest parses"
        );
    }

    #[test]
    fn full_parse_round_trips_to_identical_bytes() {
        // The shard merge re-renders parsed manifests, so
        // render → parse → render must be a byte-level fixed point —
        // including awkward labels (commas, %, @, quotes, backslashes)
        // and float fields.
        let m = sample_manifest();
        let json = m.render_json();
        let parsed = Manifest::parse(&json).expect("parses back");
        assert_eq!(parsed, m);
        assert_eq!(parsed.render_json(), json, "render∘parse must be id");
        // Labels are escaped; a label without `"` or `\`, like every
        // label the figures emit, renders verbatim.
        assert!(json.contains("\"label\": \"6T, Nf=10.00% @ 9dB \\\"q\\\" \\\\\", "));
        assert!(json.contains("\"label\": \"quantized @ 18dB\", \"snr_db\": 18,"));
    }

    #[test]
    fn sharded_manifest_keeps_its_shard_tag() {
        let mut m = sample_manifest();
        m.settings.shard = ShardSpec::new(1, 3).unwrap();
        m.points.truncate(1);
        let json = m.render_json();
        assert!(json.contains("\"shard\": \"1/3\""));
        let parsed = Manifest::parse(&json).unwrap();
        assert_eq!(parsed.settings.shard, ShardSpec::new(1, 3).unwrap());
        assert_eq!(parsed.points_enumerated, 2);
        assert_eq!(parsed.render_json(), json);
    }

    #[test]
    fn point_record_parse_rejects_malformed_lines() {
        let json = sample_manifest().render_json();
        let mut line = String::new();
        sample_manifest().points[1].render_into(&mut line);
        assert!(json.contains(&line));
        let with = |replacement: &str| json.replace(&line, replacement);
        for bad in [
            line[..line.len() / 2].to_string(),
            "{}".to_string(),
            format!("{line},"),
            line.replace("\"bler\": 0.400000", "\"bler\": 0.4"),
            line.replace("\"bler\": 0.400000", "\"bler\":  0.400000"),
            line.replace("\"bler\": 0.400000", "\"bler\": 0.25, \"bler\": 0.400000"),
            line.replace("\"tier\": \"early-stop\"", "\"tier\": \"turbo\""),
        ] {
            assert!(Manifest::parse(&with(&bad)).is_none(), "{bad}");
        }
        // An edited total is caught by the render comparison too.
        let edited = json.replace("\"points_converged\": 1,", "\"points_converged\": 2,");
        assert_ne!(edited, json);
        assert!(Manifest::parse(&edited).is_none());
        // So is a manifest cut at a point-line boundary.
        let cut = &json[..json.find(",\n    {\"index\": 1").unwrap()];
        assert!(Manifest::parse(&format!("{cut}\n  ]\n}}\n")).is_none());
    }

    #[test]
    fn out_of_range_settings_never_parse() {
        // Each manifest re-renders to its own bytes, so only the
        // settings check can refuse it.
        let d = CampaignSettings::default();
        for settings in [
            CampaignSettings {
                bler_floor: 2.0,
                ..d
            },
            CampaignSettings {
                target_ci: -1.0,
                ..d
            },
            CampaignSettings {
                initial_chunk: 0,
                ..d
            },
            CampaignSettings {
                precision: f64::NAN,
                ..d
            },
        ] {
            let m = Manifest {
                settings,
                ..sample_manifest()
            };
            assert!(Manifest::parse(&m.render_json()).is_none(), "{settings:?}");
        }
    }

    #[test]
    fn derived_records_take_statistics_from_the_replay_only() {
        let settings = CampaignSettings::default();
        let mut stats = hspa_phy::harq::HarqStats::new(4, 100);
        stats.packets = 32;
        stats.delivered = 24;
        let replay = Replay {
            stats: stats.clone(),
            chunks: 2,
            converged: false,
        };
        let p = &sample_manifest().points[1];
        let r = p.derive(&settings, &replay);
        let check = PrecisionCheck::of(&stats, &settings);
        assert_eq!(
            (&r.label, r.key, r.max_packets, r.tier),
            (&p.label, p.key, 60, p.tier)
        );
        assert_eq!((r.packets, r.bler, r.ci), (32, check.bler, check.ci));
        assert_eq!(r.rel_half_width, check.rel_half_width);
        assert_eq!((r.chunks, r.converged), (2, false));
        assert_eq!((r.chunks_from_store, r.packets_from_store), (0, 0));

        let mut edited = r.clone();
        edited.bler = 0.9;
        let diff = edited.differing_fields(&r);
        assert_eq!(
            diff,
            vec![(
                "\"bler\": 0.900000".to_string(),
                "\"bler\": 0.250000".to_string()
            )]
        );
    }
}
