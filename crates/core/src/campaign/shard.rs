//! Multi-host sharding coordinator for campaigns.
//!
//! A campaign's operating points are already content-hashed
//! ([`super::hash::point_key`]) and its chunks are self-describing store
//! records, so distributing a grid across hosts needs no broker: every
//! host runs the *same* binary over the *same* full point list with
//! `--shard i/n`, and a point belongs to the shard its stable key hashes
//! into ([`ShardSpec::owns`]). Each shard writes suffixed store/manifest
//! files (`<name>.shard-i-of-n.{jsonl|seg,manifest.json}`) that never
//! collide, and [`merge`] folds any complete shard set back into the
//! files a single-host run would have produced — **byte-identical
//! manifest included**, which is what CI asserts on every push. The
//! store backend behind each leg is detected from which store file
//! exists, so the admin entry points work unchanged over JSONL and
//! indexed-segment campaigns.
//!
//! Determinism is inherited, not re-proven: a packet's RNG stream
//! depends only on its absolute position in the seed tree (see
//! [`crate::engine`]), so which host simulates a point cannot change its
//! statistics, and the controller's stopping decisions are pure
//! functions of those statistics. The coordinator partitions, gathers,
//! dedups and re-orders, and takes no statistic from a leg's manifest:
//! [`merge`], [`verify`] and [`gc`] all replay the controller's
//! schedule over the store ([`super::CampaignSettings::replay`]).
//!
//! The admin entry points ([`merge`], [`gc`], [`verify`], [`stats`]) are
//! plain functions over a `(name, directory)` pair; the `campaign-admin`
//! binary in the `bench` crate is a thin argv wrapper around them.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use hspa_phy::harq::HarqStats;

use super::controller::Replay;
use super::manifest::{Manifest, ManifestTotals, PointRecord};
use super::store::{self, BackendKind, ChunkId, QueryFilter};

/// The shard a process owns, out of `count` total — parsed from
/// `--shard index/count`. The default `0/1` means "unsharded".
///
/// A spec may additionally carry a **slice**: when the dispatcher
/// re-shards a dead leg's remaining work, shard `i/n` is split into `m`
/// sub-shards written `i/n:j/m`. A slice leg enumerates the same global
/// grid as its parent but owns only every `m`-th of the parent's keys
/// ([`ShardSpec::owns`]), so the slices of a shard partition it exactly
/// and the merged manifest stays byte-identical to a single-host run.
/// Slices never nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardSpec {
    /// Zero-based shard index (`< count`).
    pub index: u32,
    /// Total shard count (`>= 1`).
    pub count: u32,
    /// Sub-shard assignment `(slice_index, slice_count)` within the
    /// shard, or `None` for a whole shard.
    pub slice: Option<(u32, u32)>,
}

impl ShardSpec {
    /// The unsharded (single-host) spec, `0/1`.
    pub fn single() -> Self {
        Self {
            index: 0,
            count: 1,
            slice: None,
        }
    }

    /// Builds a spec, validating `count >= 1` and `index < count`.
    ///
    /// Fallible on purpose: the dispatcher constructs specs in a loop
    /// from flag values, and a bad combination there must surface as an
    /// error message, not a panic with a backtrace. The `FromStr` impl
    /// (the `--shard i/n` parser) routes its range check through here so
    /// both entries reject with the same message.
    pub fn new(index: u32, count: u32) -> Result<Self, String> {
        if count == 0 || index >= count {
            return Err(format!(
                "expected shard INDEX/COUNT with INDEX < COUNT, got '{index}/{count}'"
            ));
        }
        Ok(Self {
            index,
            count,
            slice: None,
        })
    }

    /// Builds slice `j` of `m` of this shard — the re-sharding
    /// constructor. A slice of a slice is refused: one level exactly
    /// partitions a dead shard, and nesting would let file suffixes
    /// grow without bound across repeated failures.
    pub fn slice_of(self, slice_index: u32, slice_count: u32) -> Result<Self, String> {
        if self.slice.is_some() {
            return Err(format!(
                "shard {self} is already a slice — slices never nest"
            ));
        }
        if slice_count == 0 || slice_index >= slice_count {
            return Err(format!(
                "expected slice INDEX/COUNT with INDEX < COUNT, got '{slice_index}/{slice_count}'"
            ));
        }
        Ok(Self {
            slice: Some((slice_index, slice_count)),
            ..self
        })
    }

    /// The whole shard this spec belongs to (itself when not a slice).
    pub fn parent(&self) -> Self {
        Self {
            slice: None,
            ..*self
        }
    }

    /// Whether this spec actually splits the point set.
    pub fn is_sharded(&self) -> bool {
        self.count > 1 || self.slice.is_some()
    }

    /// Whether this shard owns the point with the given stable key.
    /// Ownership is a pure function of `(key, count, slice)` — every
    /// host partitions identically without coordination. The slices of
    /// a shard split the parent's key sequence round-robin, so for any
    /// `m` they partition exactly the keys the parent owns.
    pub fn owns(&self, key: u64) -> bool {
        if key % u64::from(self.count.max(1)) != u64::from(self.index) {
            return false;
        }
        match self.slice {
            Some((j, m)) => {
                (key / u64::from(self.count.max(1))) % u64::from(m.max(1)) == u64::from(j)
            }
            None => true,
        }
    }

    /// The file-stem suffix of this shard's store/manifest (empty when
    /// unsharded, so single-host paths are unchanged). A slice always
    /// carries the full suffix — even of a `0/1` parent — so slice
    /// artifacts never collide with whole-shard ones.
    pub fn suffix(&self) -> String {
        match self.slice {
            Some((j, m)) => format!(".shard-{}-of-{}.slice-{j}-of-{m}", self.index, self.count),
            None if self.count > 1 => format!(".shard-{}-of-{}", self.index, self.count),
            None => String::new(),
        }
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::single()
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)?;
        if let Some((j, m)) = self.slice {
            write!(f, ":{j}/{m}")?;
        }
        Ok(())
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err =
            || format!("expected --shard INDEX/COUNT[:SLICE/SLICES] with INDEX < COUNT, got '{s}'");
        let (shard, slice) = match s.split_once(':') {
            Some((shard, slice)) => (shard, Some(slice)),
            None => (s, None),
        };
        let (i, n) = shard.split_once('/').ok_or_else(err)?;
        let index: u32 = i.trim().parse().map_err(|_| err())?;
        let count: u32 = n.trim().parse().map_err(|_| err())?;
        let spec = Self::new(index, count).map_err(|_| err())?;
        match slice {
            None => Ok(spec),
            Some(slice) => {
                let (j, m) = slice.split_once('/').ok_or_else(err)?;
                let j: u32 = j.trim().parse().map_err(|_| err())?;
                let m: u32 = m.trim().parse().map_err(|_| err())?;
                spec.slice_of(j, m).map_err(|_| err())
            }
        }
    }
}

/// Store file name of a campaign under a shard spec and backend (the
/// extension names the backend: `.jsonl` or `.seg`).
pub fn store_file(name: &str, shard: ShardSpec, backend: BackendKind) -> String {
    format!("{name}{}.{}", shard.suffix(), backend.extension())
}

/// Resolves which backend's store file backs `(name, shard)` in `dir`
/// by probing the candidate file names — the admin tooling's entry, so
/// `merge`/`gc`/`verify`/`stats` work unchanged over campaigns run with
/// either `--store-backend`. Exactly one candidate may exist: both at
/// once is ambiguous (a backend switch without cleanup) and neither is
/// a missing store.
pub fn detect_store_file(
    name: &str,
    dir: &Path,
    shard: ShardSpec,
) -> io::Result<(PathBuf, BackendKind)> {
    let jsonl = dir.join(store_file(name, shard, BackendKind::Jsonl));
    let seg = dir.join(store_file(name, shard, BackendKind::Indexed));
    match (jsonl.exists(), seg.exists()) {
        (true, false) => Ok((jsonl, BackendKind::Jsonl)),
        (false, true) => Ok((seg, BackendKind::Indexed)),
        (true, true) => Err(invalid(format!(
            "both {} and {} exist — campaign '{name}' was run with more than one \
             --store-backend; `campaign-admin export` the live one and delete the other",
            jsonl.display(),
            seg.display(),
        ))),
        (false, false) => Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no result store for campaign '{name}' (shard {shard}) in {}: neither {} nor {}",
                dir.display(),
                jsonl.display(),
                seg.display(),
            ),
        )),
    }
}

/// Manifest file name of a campaign under a shard spec.
pub fn manifest_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.manifest.json", shard.suffix())
}

/// Live telemetry snapshot file name of a campaign under a shard spec
/// (see [`crate::telemetry::LiveSnapshot`]). Written atomically by the
/// running leg; read by the dispatcher's heartbeat probe and by
/// `campaign-admin top`.
pub fn telemetry_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.telemetry.json", shard.suffix())
}

/// Telemetry event-log (JSONL) file name of a campaign under a shard
/// spec.
pub fn events_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.telemetry.jsonl", shard.suffix())
}

/// Prometheus-style text snapshot file name of a campaign under a
/// shard spec.
pub fn prom_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.prom", shard.suffix())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The shard spec encoded in a manifest file name
/// (`<name>.shard-I-of-N.manifest.json`), or `None` for unsuffixed /
/// foreign file names.
fn filename_shard_spec(name: &str, path: &Path) -> Option<ShardSpec> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".manifest.json")?;
    artifact_stem_spec(name, stem)
}

/// The shard spec encoded in **any** shard artifact file name of
/// `name` — store (`<name>.shard-I-of-N.jsonl` / `.seg`) or manifest
/// (`<name>.shard-I-of-N.manifest.json`). The dispatcher's pre-flight
/// scans with this: a killed leg typically leaves only its store (the
/// manifest is written at run end), and a stale-family store alone is
/// enough to sabotage a re-dispatch at a different leg count.
pub fn artifact_shard_spec(name: &str, file_name: &str) -> Option<ShardSpec> {
    let stem = file_name
        .strip_suffix(".manifest.json")
        .or_else(|| file_name.strip_suffix(".jsonl"))
        .or_else(|| file_name.strip_suffix(".seg"))?;
    artifact_stem_spec(name, stem)
}

/// Parses `<name>.shard-I-of-N[.slice-J-of-M]` (a file name with its
/// extension already stripped) into the shard spec.
fn artifact_stem_spec(name: &str, stem: &str) -> Option<ShardSpec> {
    let stem = stem.strip_prefix(&format!("{name}.shard-"))?;
    let (shard, slice) = match stem.split_once(".slice-") {
        Some((shard, slice)) => (shard, Some(slice)),
        None => (stem, None),
    };
    let (i, n) = shard.split_once("-of-")?;
    let spec = ShardSpec::new(i.parse().ok()?, n.parse().ok()?).ok()?;
    match slice {
        None => Some(spec),
        Some(slice) => {
            let (j, m) = slice.split_once("-of-")?;
            spec.slice_of(j.parse().ok()?, m.parse().ok()?).ok()
        }
    }
}

/// Outcome of a [`merge`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Shard manifests merged.
    pub shards: usize,
    /// Points in the merged manifest.
    pub points: usize,
    /// Chunk records in the merged store.
    pub chunks: usize,
    /// Duplicate chunk records dropped (same point key + packet range
    /// simulated by more than one shard or appended twice).
    pub duplicate_chunks: usize,
    /// Malformed store lines skipped (torn tails of killed runs).
    pub malformed_lines: usize,
    /// Chunk executions the shard legs served from their stores —
    /// recorded here because the merged manifest normalizes this
    /// provenance away (see [`merge_manifests`]).
    pub store_served_chunks: u64,
    /// Packet-weighted view of `store_served_chunks`: packets the shard
    /// legs served from their stores instead of re-simulating —
    /// normalized away from the merged manifest for the same reason.
    pub store_served_packets: u64,
    /// Path of the merged store.
    pub store_path: PathBuf,
    /// Path of the merged manifest.
    pub manifest_path: PathBuf,
    /// Global point indices absent from the merge (first 64). Empty
    /// except for a partial merge
    /// ([`merge_manifests_allowing_partial`]) of an abandoned dispatch.
    pub missing_points: Vec<u64>,
    /// Total count of missing points (the list above is capped).
    pub missing_points_total: u64,
}

/// Discovers the shard manifests of `name` in `dir`
/// (`<name>.shard-*-of-*.manifest.json`) with their filename specs,
/// sorted by shard index.
///
/// A directory holding manifests of **different `of-N` families** (e.g.
/// `.shard-0-of-2` next to `.shard-1-of-3`, left over from a re-sharded
/// run) is an error, not a merge candidate: the families partition the
/// point set differently, so any subset spanning both describes a
/// nonsense partition. The error tells the operator which families
/// collided so they can delete the stale one.
pub fn discover_shard_specs(name: &str, dir: &Path) -> io::Result<Vec<(ShardSpec, PathBuf)>> {
    let mut found: Vec<(ShardSpec, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some(stem) = file_name
            .to_str()
            .and_then(|f| f.strip_suffix(".manifest.json"))
        else {
            continue;
        };
        // Only a valid shard (or slice) spec counts as a shard file —
        // anything else is an unrelated file that happens to share the
        // `<name>.shard-` prefix.
        let Some(spec) = artifact_stem_spec(name, stem) else {
            continue;
        };
        found.push((spec, entry.path()));
    }
    let families: BTreeSet<u32> = found.iter().map(|(s, _)| s.count).collect();
    if families.len() > 1 {
        return Err(invalid(format!(
            "mixed shard families for campaign '{name}' in {}: found manifests of {} — \
             stale leftovers of a re-sharded run; delete every family but the live one \
             (or merge each family from its own directory)",
            dir.display(),
            families
                .iter()
                .map(|n| format!("of-{n}"))
                .collect::<Vec<_>>()
                .join(" and "),
        )));
    }
    found.sort_by_key(|(s, _)| *s);
    Ok(found)
}

/// The shard manifest paths of `name` in `dir`, sorted by shard index —
/// [`discover_shard_specs`] without the filename specs.
pub fn discover_shards(name: &str, dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(discover_shard_specs(name, dir)?
        .into_iter()
        .map(|(_, p)| p)
        .collect())
}

/// Merges a complete set of shard runs back into the single-host files.
///
/// Reads the given shard manifests (plus their sibling `.jsonl` stores),
/// validates that they form one consistent, complete partition — same
/// campaign, same settings, same enumeration count, disjoint indices
/// covering every point — then writes `<out_dir>/<name>.manifest.json`
/// and `<out_dir>/<name>.jsonl`. The shard manifests supply only
/// settings, enumeration and point identities; every point's statistics
/// come from [`super::CampaignSettings::replay`] over the merged store,
/// and a listed point the store cannot back is an error naming it. The
/// merged manifest is byte-identical to the one an unsharded run at the
/// same settings would write; the merged store holds the same chunk set
/// (deduplicated, in canonical `(key, range)` order — a single-host
/// store lists the identical records in execution order instead).
pub fn merge_manifests(
    name: &str,
    manifests: &[PathBuf],
    out_dir: &Path,
) -> io::Result<MergeReport> {
    merge_manifests_allowing_partial(name, manifests, out_dir, false)
}

/// [`merge_manifests`] with an escape hatch for abandoned dispatches:
/// with `allow_partial`, a shard set that misses points (because some
/// shard exhausted its attempt cap) still merges — the merged manifest
/// simply lists fewer points than it enumerates, and the report names
/// the missing global indices. Duplicate or out-of-range points are
/// **always** errors; only missing ones are forgiven. A partial merge
/// still passes [`verify`] (which checks the points that are listed),
/// so a degraded campaign's surviving results remain trustworthy.
pub fn merge_manifests_allowing_partial(
    name: &str,
    manifests: &[PathBuf],
    out_dir: &Path,
    allow_partial: bool,
) -> io::Result<MergeReport> {
    if manifests.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no shard manifests for campaign '{name}'"),
        ));
    }
    let mut parsed: Vec<(PathBuf, Manifest)> = Vec::new();
    for path in manifests {
        let m = Manifest::read(path)?;
        // A renamed artifact (file says shard I-of-N, content says J/M)
        // would make the sibling-store lookup below read the wrong
        // `.jsonl`; refuse it before any statistics are touched.
        if let Some(file_spec) = filename_shard_spec(&m.name, path) {
            if file_spec != m.settings.shard {
                return Err(invalid(format!(
                    "{}: file is named shard {file_spec} but its manifest records \
                     shard {} — artifact was renamed or mixed up",
                    path.display(),
                    m.settings.shard
                )));
            }
        }
        parsed.push((path.clone(), m));
    }

    // Cross-shard consistency: one campaign, one settings block, one
    // index space.
    let count = parsed[0].1.settings.shard.count;
    let enumerated = parsed[0].1.points_enumerated;
    // The settings shards must agree on: everything but the shard itself
    // (the store-side knobs are not rendered, so they parse as defaults).
    let unsharded = |m: &Manifest| super::CampaignSettings {
        shard: ShardSpec::single(),
        ..m.settings
    };
    let settings = unsharded(&parsed[0].1);
    let mut seen_shards = BTreeSet::new();
    for (path, m) in &parsed {
        let at = path.display();
        if m.name != name {
            return Err(invalid(format!(
                "{at}: campaign '{}', expected '{name}'",
                m.name
            )));
        }
        // A `0/1` manifest is the degenerate one-shard partition: merge
        // accepts it and simply canonicalizes the files.
        if m.settings.shard.count != count {
            return Err(invalid(format!(
                "{at}: shard count {} != {count}",
                m.settings.shard.count
            )));
        }
        if !seen_shards.insert(m.settings.shard) {
            return Err(invalid(format!(
                "{at}: duplicate shard {}",
                m.settings.shard
            )));
        }
        if unsharded(m) != settings {
            return Err(invalid(format!(
                "{at}: controller settings differ between shards"
            )));
        }
        if m.points_enumerated != enumerated {
            return Err(invalid(format!(
                "{at}: enumerated {} points, expected {enumerated}",
                m.points_enumerated
            )));
        }
    }

    // Reassemble the global point order and prove completeness. The
    // expected index sequence is compared lazily — `points_enumerated`
    // comes from an untrusted file, so it must not size an allocation.
    let mut points: Vec<&PointRecord> = parsed.iter().flat_map(|(_, m)| &m.points).collect();
    points.sort_by_key(|p| p.index);
    // Chunk provenance is normalized away (the replay below starts it
    // at zero): how many chunks a leg served from its own store is a
    // per-run operational detail, and a rescue leg that resumed a
    // straggler's store (work stealing) would otherwise leave resume
    // counts a fresh single-host run cannot have. Zeroing them keeps
    // the merged manifest byte-identical to a single-host run no matter
    // the resume/steal history that produced the shards.
    let store_served_chunks = points.iter().map(|p| p.chunks_from_store as u64).sum();
    let store_served_packets = points.iter().map(|p| p.packets_from_store as u64).sum();
    let mut missing_points: Vec<u64> = Vec::new();
    let mut missing_points_total = 0u64;
    if !points.iter().map(|p| p.index).eq(0..enumerated) {
        let have: BTreeSet<u64> = points.iter().map(|p| p.index).collect();
        // Duplicate indices (the same point recorded by two shards — a
        // broken partition, e.g. a slice set merged next to its parent)
        // and out-of-range indices are corruption regardless of
        // `allow_partial`; only *missing* points are forgivable.
        if points.len() != have.len() {
            return Err(invalid(format!(
                "shard set is not a disjoint partition: {} point records but only {} \
                 distinct indices — some point was recorded by more than one shard",
                points.len(),
                have.len(),
            )));
        }
        if let Some(&beyond) = have.range(enumerated..).next() {
            return Err(invalid(format!(
                "point index {beyond} is out of range: only {enumerated} points enumerated"
            )));
        }
        missing_points = (0..enumerated)
            .filter(|i| !have.contains(i))
            .take(64)
            .collect();
        missing_points_total = enumerated - have.len() as u64;
        if !allow_partial {
            let shown: Vec<u64> = missing_points.iter().copied().take(16).collect();
            return Err(invalid(format!(
                "shard set is not a complete partition: {} of {enumerated} points, \
                 missing indices {shown:?}{}",
                points.len(),
                if (shown.len() as u64) < missing_points_total {
                    ", …"
                } else {
                    ""
                },
            )));
        }
    }

    // Gather the stores, dropping duplicate chunk records (the first
    // leg's copy wins). Each leg's backend is detected from which store
    // file sits next to its manifest (legs of one dispatch share a
    // backend, but merge does not insist on it); the merged store is
    // written in the backend of the first shard.
    let mut chunks: BTreeMap<ChunkId, HarqStats> = BTreeMap::new();
    let mut loaded = 0;
    let mut malformed_lines = 0;
    let mut merged_backend = BackendKind::default();
    for (i, (path, m)) in parsed.iter().enumerate() {
        let shard_dir = path.parent().unwrap_or(Path::new("."));
        let (store_path, kind) = detect_store_file(name, shard_dir, m.settings.shard)?;
        if i == 0 {
            merged_backend = kind;
        }
        let (recs, malformed) = store::load_all(&store_path)?;
        malformed_lines += malformed;
        loaded += recs.len();
        for (id, stats) in recs {
            chunks.entry(id).or_insert(stats);
        }
    }
    let duplicate_chunks = loaded - chunks.len();

    // Leg manifests supply only settings, enumeration and the points'
    // identities. Every statistic is re-derived by replaying the
    // controller over the merged store, so an edited leg manifest
    // cannot change the merged one. Store provenance comes out zeroed.
    let points = points
        .iter()
        .map(|p| {
            let replay = replay_point(&settings, p, &chunks, &mut BTreeSet::new())
                .map_err(|missing| invalid(format!("merged store cannot back {missing}")))?;
            Ok(p.derive(&settings, &replay))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let merged = Manifest {
        name: name.to_string(),
        settings,
        points_enumerated: enumerated,
        points,
    };
    let records: Vec<(ChunkId, HarqStats)> = chunks.into_iter().collect();
    fs::create_dir_all(out_dir)?;
    let store_path = out_dir.join(store_file(name, ShardSpec::single(), merged_backend));
    let manifest_path = out_dir.join(manifest_file(name, ShardSpec::single()));
    store::write_records(&store_path, &records)?;
    merged.write(&manifest_path)?;
    crate::telemetry::counter_add(crate::telemetry::Counter::MergesCompleted, 1);
    Ok(MergeReport {
        shards: parsed.len(),
        points: merged.points.len(),
        chunks: records.len(),
        duplicate_chunks,
        malformed_lines,
        store_served_chunks,
        store_served_packets,
        store_path,
        manifest_path,
        missing_points,
        missing_points_total,
    })
}

/// [`merge_manifests`] over every shard manifest of `name` found in
/// `in_dir` — the `campaign-admin merge` entry.
pub fn merge(name: &str, in_dir: &Path, out_dir: &Path) -> io::Result<MergeReport> {
    let manifests = discover_shards(name, in_dir)?;
    if manifests.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no '{name}.shard-*-of-*.manifest.json' shard manifests in {}",
                in_dir.display()
            ),
        ));
    }
    merge_manifests(name, &manifests, out_dir)
}

/// Splits a dead shard's result store into `slices` slice stores — the
/// storage half of elastic re-sharding.
///
/// Every record of the parent's store moves to the slice that owns its
/// point key (same backend, suffixed file names), so each relaunched
/// slice leg resumes the dead leg's surviving work instead of
/// re-simulating it. The parent's store, manifest and live
/// telemetry snapshot are then removed: the records now live in the
/// slice stores, and a leftover parent store would hand a later
/// `--steal` re-dispatch two overlapping sources of truth. A parent
/// that died before creating a store partitions trivially (the slices
/// start fresh). Loading is lenient — the parent died mid-write, so a
/// torn tail must not block its own rescue.
pub fn partition_store_into_slices(
    name: &str,
    dir: &Path,
    parent: ShardSpec,
    slices: u32,
) -> io::Result<Vec<ShardSpec>> {
    let specs: Vec<ShardSpec> = (0..slices)
        .map(|j| parent.slice_of(j, slices))
        .collect::<Result<_, _>>()
        .map_err(invalid)?;
    let (store_path, backend) = match detect_store_file(name, dir, parent) {
        Ok(found) => found,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(specs),
        Err(e) => return Err(e),
    };
    let load = store::load_all_lenient(&store_path)?;
    for spec in &specs {
        let records: Vec<(ChunkId, HarqStats)> = load
            .records
            .iter()
            .filter(|(id, _)| spec.owns(id.point))
            .cloned()
            .collect();
        store::write_records(&dir.join(store_file(name, *spec, backend)), &records)?;
    }
    fs::remove_file(&store_path)?;
    for stale in [
        manifest_file(name, parent),
        telemetry_file(name, parent),
        prom_file(name, parent),
    ] {
        let _ = fs::remove_file(dir.join(stale));
    }
    Ok(specs)
}

/// Outcome of a [`verify`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// Points listed in the manifest.
    pub points: usize,
    /// Of those, points whose manifest line the store reproduces: the
    /// controller's replay finds every chunk it schedules and renders
    /// the same statistics.
    pub covered_points: usize,
    /// Store records whose point key no manifest entry references.
    pub orphan_chunks: usize,
    /// Exact-duplicate store records.
    pub duplicate_chunks: usize,
    /// Store records of a live key that no replay used (left over from
    /// a different schedule, or beyond the manifest's realized packet
    /// count).
    pub stale_chunks: usize,
    /// Unparseable store lines.
    pub malformed_lines: usize,
    /// Human-readable consistency violations; empty means the store can
    /// reproduce every manifest point.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// Whether the store is consistent with the manifest (orphan, stale
    /// and malformed records are GC fodder, not inconsistencies).
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Replays the controller for one manifest point over a deduplicated
/// chunk set, adding every chunk the schedule fetched to `used`. `Err`
/// names the point and the first chunk of its schedule the store lacks.
fn replay_point(
    settings: &super::CampaignSettings,
    point: &PointRecord,
    chunks: &BTreeMap<ChunkId, HarqStats>,
    used: &mut BTreeSet<ChunkId>,
) -> Result<Replay, String> {
    settings
        .replay(point.max_packets, |first_packet, n_packets| {
            let id = ChunkId {
                point: point.key,
                first_packet,
                n_packets,
            };
            let stats = chunks.get(&id)?;
            used.insert(id);
            Some(stats.clone())
        })
        .map_err(|(first, len)| {
            let end = first + len;
            format!(
                "{}: the store lacks packets {first}..{end} of the controller's schedule",
                at(point)
            )
        })
}

/// How problem reports name a point.
fn at(p: &PointRecord) -> String {
    format!("point {} '{}' (key {:016x})", p.index, p.label, p.key)
}

/// Checks that the result store of `(name, shard)` in `dir` reproduces
/// its manifest: every manifest point is replayed through the
/// controller's schedule ([`super::CampaignSettings::replay`]), and the
/// line rendered from the replay — with the manifest's own store
/// provenance — must equal the manifest's line. A chunk the replay
/// cannot find, or any differing field, is a problem naming the point.
pub fn verify(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<VerifyReport> {
    verify_with(name, dir, shard, false)
}

/// [`verify`] with an optional **strict** pass that additionally checks
/// per-point store-provenance consistency — the invariants a rescued or
/// re-sharded merge must preserve: a point cannot have served more
/// chunks (or packets) from the store than it ran in total, and chunk
/// and packet provenance must agree on whether *any* resume happened
/// (every stored chunk carries at least one packet). Merged manifests
/// normalize provenance to zero, which trivially satisfies all three.
pub fn verify_with(
    name: &str,
    dir: &Path,
    shard: ShardSpec,
    strict: bool,
) -> io::Result<VerifyReport> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed_lines) = store::load_all(&store_path)?;
    let loaded = records.len();
    // Last write per chunk wins, as on a resume.
    let chunks: BTreeMap<ChunkId, HarqStats> = records.into_iter().collect();
    let live_keys: BTreeSet<u64> = manifest.points.iter().map(|p| p.key).collect();
    let mut report = VerifyReport {
        points: manifest.points.len(),
        duplicate_chunks: loaded - chunks.len(),
        malformed_lines,
        // Orphans are counted over the deduplicated record set (a
        // repeated orphan line is one orphan + one duplicate), so
        // verify's tallies agree with what gc would drop.
        orphan_chunks: chunks
            .keys()
            .filter(|id| !live_keys.contains(&id.point))
            .count(),
        ..Default::default()
    };

    let mut used = BTreeSet::new();
    for point in &manifest.points {
        let replay = match replay_point(&manifest.settings, point, &chunks, &mut used) {
            Ok(replay) => replay,
            Err(missing) => {
                report.problems.push(missing);
                continue;
            }
        };
        let replayed = PointRecord {
            chunks_from_store: point.chunks_from_store,
            packets_from_store: point.packets_from_store,
            ..point.derive(&manifest.settings, &replay)
        };
        let differing = point.differing_fields(&replayed);
        if differing.is_empty() {
            report.covered_points += 1;
        } else {
            let fields: Vec<String> = differing
                .iter()
                .map(|(listed, derived)| format!("{listed} (replay gives {derived})"))
                .collect();
            report.problems.push(format!(
                "{}: manifest differs from the store's replay: {}",
                at(point),
                fields.join(", ")
            ));
        }
    }
    report.stale_chunks = chunks
        .keys()
        .filter(|id| live_keys.contains(&id.point) && !used.contains(id))
        .count();
    if strict {
        for p in &manifest.points {
            let at = at(p);
            if p.chunks_from_store > p.chunks {
                report.problems.push(format!(
                    "{at}: {} chunks served from store but only {} chunks ran",
                    p.chunks_from_store, p.chunks
                ));
            }
            if p.packets_from_store > p.packets {
                report.problems.push(format!(
                    "{at}: {} packets served from store but only {} packets realized",
                    p.packets_from_store, p.packets
                ));
            }
            if (p.chunks_from_store == 0) != (p.packets_from_store == 0) {
                report.problems.push(format!(
                    "{at}: store provenance disagrees — {} chunks but {} packets \
                     served from store (every stored chunk carries packets)",
                    p.chunks_from_store, p.packets_from_store
                ));
            }
        }
    }
    Ok(report)
}

/// Outcome of a [`gc`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct GcReport {
    /// Records kept (the replayed chunks, sorted by key/range).
    pub kept: usize,
    /// Records dropped because no manifest point references their key.
    pub dropped_orphans: usize,
    /// Exact-duplicate records dropped.
    pub dropped_duplicates: usize,
    /// Records of live keys that no replay uses (abandoned schedules,
    /// packets beyond the manifest's realized count).
    pub dropped_stale: usize,
    /// Malformed (torn) lines dropped.
    pub dropped_malformed: usize,
    /// Corrupt records dropped (parseable lines whose stats violate the
    /// range invariants, e.g. `delivered > packets` — the ones the
    /// strict loaders refuse to read past).
    pub dropped_corrupt: usize,
}

/// Rewrites the store of `(name, shard)` in `dir` down to exactly the
/// chunks the controller's replay of its manifest points uses: orphaned
/// keys, duplicate records, stale chunks and torn lines are dropped;
/// the surviving records are written back sorted by `(key, range)`. A
/// key whose replay misses a chunk keeps every chunk — gc must never
/// worsen an already-incomplete store (that is `verify`'s problem to
/// report). The manifest is the source of truth — chunks a *future
/// deeper* run could have reused are removed too, which is exactly the
/// trade a GC is asked to make.
pub fn gc(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<GcReport> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    // Lenient load: gc is the tool the strict loaders point at when they
    // hit a corrupt record, so it must read past (and drop) the damage.
    let load = store::load_all_lenient(&store_path)?;
    let loaded = load.records.len();
    let chunks: BTreeMap<ChunkId, HarqStats> = load.records.into_iter().collect();

    let live_keys: BTreeSet<u64> = manifest.points.iter().map(|p| p.key).collect();
    let mut keep = BTreeSet::new();
    let mut unbacked_keys = BTreeSet::new();
    for point in &manifest.points {
        if replay_point(&manifest.settings, point, &chunks, &mut keep).is_err() {
            unbacked_keys.insert(point.key);
        }
    }
    let dropped_orphans = chunks
        .keys()
        .filter(|id| !live_keys.contains(&id.point))
        .count();
    let kept_records: Vec<(ChunkId, HarqStats)> = chunks
        .iter()
        .filter(|(id, _)| keep.contains(id) || unbacked_keys.contains(&id.point))
        .map(|(id, stats)| (*id, stats.clone()))
        .collect();
    let dropped_stale = chunks.len() - kept_records.len() - dropped_orphans;
    store::write_records(&store_path, &kept_records)?;
    Ok(GcReport {
        kept: kept_records.len(),
        dropped_orphans,
        dropped_duplicates: loaded - chunks.len(),
        dropped_stale,
        dropped_malformed: load.torn_lines,
        dropped_corrupt: load.corrupt_records,
    })
}

/// Store-side figures of a summary: chunk records, distinct point
/// keys, stored packets, and (when the whole file is being summarized)
/// its size on disk.
struct StoreSummary {
    records: usize,
    keys: usize,
    packets: u64,
    bytes: Option<u64>,
}

impl StoreSummary {
    /// Summarizes one record set (`bytes` stays unset — callers that
    /// summarize a whole store file fill it from `fs::metadata`).
    fn of(records: &[(ChunkId, HarqStats)]) -> Self {
        // determinism: unordered-ok(cardinality only)
        let keys: HashSet<u64> = records.iter().map(|(id, _)| id.point).collect();
        Self {
            records: records.len(),
            keys: keys.len(),
            packets: records.iter().map(|(_, s)| s.packets).sum(),
            bytes: None,
        }
    }
}

/// The campaign header + manifest/budget/store/reuse summary block
/// shared by `campaign-admin stats` and `campaign-admin query` — one
/// renderer, so the two surfaces cannot drift apart.
fn render_summary(
    name: &str,
    shard: ShardSpec,
    qualifier: &str,
    points_enumerated: u64,
    t: &ManifestTotals,
    store: &StoreSummary,
    malformed: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {name}{}{qualifier}\n",
        if shard.is_sharded() {
            format!(" (shard {shard})")
        } else {
            String::new()
        }
    ));
    out.push_str(&format!(
        "  manifest: {} points recorded of {} enumerated, {} converged\n",
        t.points_total, points_enumerated, t.points_converged
    ));
    out.push_str(&format!(
        "  budgets:  {} packets realized of {} fixed ({:.1}% saved)\n",
        t.realized_packets,
        t.budget_packets,
        t.saved_vs_fixed() * 100.0
    ));
    match store.bytes {
        Some(bytes) => out.push_str(&format!(
            "  store:    {} chunk records over {} point keys, {} packets, {bytes} bytes\n",
            store.records, store.keys, store.packets,
        )),
        None => out.push_str(&format!(
            "  store:    {} chunk records over {} point keys, {} packets\n",
            store.records, store.keys, store.packets,
        )),
    }
    // Hit provenance comes from the same `ManifestTotals` aggregation
    // that `render_json` and `campaign-admin top` use, so the surfaces
    // cannot disagree.
    out.push_str(&format!(
        "  reuse:    {} chunks / {} packets served from store ({:.1}% of realized)\n",
        t.store_chunks,
        t.store_packets,
        t.store_packet_rate() * 100.0
    ));
    if malformed > 0 {
        out.push_str(&format!("  warning:  {malformed} malformed store lines\n"));
    }
    out
}

/// Renders a human-readable summary of a campaign's store + manifest —
/// the `campaign-admin stats` output.
pub fn stats(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<String> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed) = store::load_all(&store_path)?;
    let mut store = StoreSummary::of(&records);
    store.bytes = Some(fs::metadata(&store_path)?.len());
    Ok(render_summary(
        name,
        shard,
        "",
        manifest.points_enumerated,
        &manifest.totals(),
        &store,
        malformed,
    ))
}

/// Renders the `campaign-admin query` output: the [`stats`] summary
/// block restricted to the manifest points matching `filter`, followed
/// by one line per matching point. Store figures count only records
/// whose point key a matching point references.
pub fn query(name: &str, dir: &Path, shard: ShardSpec, filter: &QueryFilter) -> io::Result<String> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed) = store::load_all(&store_path)?;
    let selected: Vec<&PointRecord> = filter.select(&manifest.points);
    // determinism: unordered-ok(membership test only; output order comes from the record list)
    let live: HashSet<u64> = selected.iter().map(|p| p.key).collect();
    let matching: Vec<(ChunkId, HarqStats)> = records
        .into_iter()
        .filter(|(id, _)| live.contains(&id.point))
        .collect();
    let qualifier = format!(
        " query: {} of {} points match",
        selected.len(),
        manifest.points.len()
    );
    let mut out = render_summary(
        name,
        shard,
        &qualifier,
        manifest.points_enumerated,
        &ManifestTotals::over(selected.iter().copied()),
        &StoreSummary::of(&matching),
        malformed,
    );
    for p in &selected {
        out.push_str(&format!(
            "  point {:>4} {} key {:016x}  snr {:+.2} dB  bler {:.3e} ci [{:.3e}, {:.3e}]  \
             packets {}/{}  tier {}  {}\n",
            p.index,
            p.label,
            p.key,
            p.snr_db,
            p.bler,
            p.ci.0,
            p.ci.1,
            p.packets,
            p.max_packets,
            p.tier,
            if p.converged {
                "converged"
            } else {
                "not converged"
            },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_validation() {
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::single());
        assert_eq!(
            "2/4".parse::<ShardSpec>().unwrap(),
            ShardSpec::new(2, 4).unwrap()
        );
        for bad in ["", "3", "1/0", "4/4", "5/4", "a/2", "1/b", "-1/2"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "{bad}");
        }
        assert_eq!(ShardSpec::new(1, 3).unwrap().to_string(), "1/3");
    }

    #[test]
    fn constructor_errors_instead_of_panicking() {
        // The dispatcher builds specs programmatically, so out-of-range
        // combinations must be an Err (with the parse wording), never an
        // assert.
        for (i, n) in [(0, 0), (1, 0), (2, 2), (5, 4), (u32::MAX, 1)] {
            let err = ShardSpec::new(i, n).unwrap_err();
            assert!(err.contains("INDEX < COUNT"), "{i}/{n}: {err}");
        }
        assert_eq!(ShardSpec::new(0, 1).unwrap(), ShardSpec::single());
    }

    #[test]
    fn sharding_partitions_every_key_exactly_once() {
        for count in 1..=5u32 {
            for key in (0u64..200).chain([u64::MAX, u64::MAX - 7]) {
                let owners: Vec<u32> = (0..count)
                    .filter(|&i| ShardSpec::new(i, count).unwrap().owns(key))
                    .collect();
                assert_eq!(owners.len(), 1, "key {key} count {count}: {owners:?}");
            }
        }
    }

    #[test]
    fn file_names_only_suffix_when_sharded() {
        assert_eq!(
            store_file("fig6", ShardSpec::single(), BackendKind::Jsonl),
            "fig6.jsonl"
        );
        assert_eq!(
            store_file("fig6", ShardSpec::new(0, 2).unwrap(), BackendKind::Jsonl),
            "fig6.shard-0-of-2.jsonl"
        );
        assert_eq!(
            store_file("fig6", ShardSpec::new(0, 2).unwrap(), BackendKind::Indexed),
            "fig6.shard-0-of-2.seg"
        );
        assert_eq!(
            manifest_file("fig6", ShardSpec::new(1, 2).unwrap()),
            "fig6.shard-1-of-2.manifest.json"
        );
    }

    #[test]
    fn artifact_names_resolve_to_their_shard_spec() {
        let spec = ShardSpec::new(0, 2).unwrap();
        for file in [
            "fig6.shard-0-of-2.jsonl",
            "fig6.shard-0-of-2.seg",
            "fig6.shard-0-of-2.manifest.json",
        ] {
            assert_eq!(artifact_shard_spec("fig6", file), Some(spec), "{file}");
        }
        // Unsuffixed (single-host) artifacts carry no shard spec.
        assert_eq!(artifact_shard_spec("fig6", "fig6.jsonl"), None);
        assert_eq!(artifact_shard_spec("fig6", "other.shard-0-of-2.seg"), None);
    }

    #[test]
    fn store_detection_requires_exactly_one_backend_file() {
        let dir = std::env::temp_dir().join(format!("shard-detect-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = ShardSpec::single();

        let err = detect_store_file("c", &dir, spec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");

        fs::write(dir.join(store_file("c", spec, BackendKind::Jsonl)), "").unwrap();
        let (path, kind) = detect_store_file("c", &dir, spec).unwrap();
        assert_eq!(kind, BackendKind::Jsonl);
        assert!(path.ends_with("c.jsonl"));

        fs::write(dir.join(store_file("c", spec, BackendKind::Indexed)), "").unwrap();
        let err = detect_store_file("c", &dir, spec).unwrap_err();
        assert!(err.to_string().contains("more than one"), "{err}");

        fs::remove_file(dir.join(store_file("c", spec, BackendKind::Jsonl))).unwrap();
        let (_, kind) = detect_store_file("c", &dir, spec).unwrap();
        assert_eq!(kind, BackendKind::Indexed);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The statistics of every fixture chunk: 4 packets, all delivered
    /// on the first transmission.
    fn fixture_stats() -> HarqStats {
        HarqStats {
            packets: 4,
            delivered: 4,
            transmissions: 4,
            info_bits: 10,
            failures_at: vec![0; 4],
        }
    }

    /// The one chunk that backs fixture point `key` (budget 4).
    fn fixture_chunk(key: u64) -> (ChunkId, HarqStats) {
        let id = ChunkId {
            point: key,
            first_packet: 0,
            n_packets: 4,
        };
        (id, fixture_stats())
    }

    /// The manifest record of fixture point `key`, derived from its
    /// store record by the controller's replay — what a campaign at
    /// default settings would have written.
    fn fixture_record(index: u64, key: u64, label: &str) -> PointRecord {
        let settings = super::super::CampaignSettings::default();
        let replay = settings
            .replay(4, |first, len| ((first, len) == (0, 4)).then(fixture_stats))
            .expect("the fixture chunk backs the point");
        let tier = hspa_phy::turbo::AccuracyTier::Exact;
        PointRecord::new(index, key, label, 1.0, 4, tier, &settings, &replay)
    }

    /// A minimal single-point shard manifest for file-level tests.
    fn tiny_manifest(name: &str, spec: ShardSpec) -> Manifest {
        let mut m = Manifest::new(name, super::super::CampaignSettings::default());
        m.settings.shard = spec;
        m.points_enumerated = 2;
        m.points.push(fixture_record(0, 2, "p0")); // even key → shard 0 of 2
        m
    }

    /// Writes `m` and a store holding the fixture chunk of each of its
    /// points, as the leg `m.settings.shard` of campaign `m.name`.
    fn write_leg(dir: &Path, m: &Manifest) -> PathBuf {
        let records: Vec<_> = m.points.iter().map(|p| fixture_chunk(p.key)).collect();
        let spec = m.settings.shard;
        store::write_records(
            &dir.join(store_file(&m.name, spec, BackendKind::Jsonl)),
            &records,
        )
        .unwrap();
        let path = dir.join(manifest_file(&m.name, spec));
        m.write(&path).unwrap();
        path
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        let dir = std::env::temp_dir().join(format!("shard-merge-reject-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // One shard of a 2-shard set: discovery works, merge refuses.
        let m = tiny_manifest("c", ShardSpec::new(0, 2).unwrap());
        m.write(&dir.join(manifest_file("c", m.settings.shard)))
            .unwrap();
        fs::write(
            dir.join(store_file("c", m.settings.shard, BackendKind::Jsonl)),
            "",
        )
        .unwrap();
        let found = discover_shards("c", &dir).unwrap();
        assert_eq!(found.len(), 1);
        let err = merge("c", &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("missing indices"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_rejects_mixed_shard_families() {
        let dir = std::env::temp_dir().join(format!("shard-mixed-family-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // `.shard-0-of-2` next to `.shard-1-of-3`: leftovers of a
        // re-sharded run must not be merged as one partition.
        for spec in [ShardSpec::new(0, 2).unwrap(), ShardSpec::new(1, 3).unwrap()] {
            tiny_manifest("c", spec)
                .write(&dir.join(manifest_file("c", spec)))
                .unwrap();
            fs::write(dir.join(store_file("c", spec, BackendKind::Jsonl)), "").unwrap();
        }
        let err = discover_shards("c", &dir).unwrap_err();
        assert!(err.to_string().contains("mixed shard families"), "{err}");
        assert!(err.to_string().contains("of-2 and of-3"), "{err}");
        let err = merge("c", &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("mixed shard families"), "{err}");
        // A single-family dir (even incomplete) discovers fine.
        fs::remove_file(dir.join(manifest_file("c", ShardSpec::new(1, 3).unwrap()))).unwrap();
        assert_eq!(discover_shards("c", &dir).unwrap().len(), 1);
        // Another campaign's files in the same dir are not a family mix.
        tiny_manifest("d", ShardSpec::new(0, 3).unwrap())
            .write(&dir.join(manifest_file("d", ShardSpec::new(0, 3).unwrap())))
            .unwrap();
        assert_eq!(discover_shards("c", &dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_renamed_shard_artifacts() {
        let dir = std::env::temp_dir().join(format!("shard-renamed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Content says 1/2, file name says 0/2 — the sibling-store
        // lookup would read the wrong `.jsonl`.
        let m = tiny_manifest("c", ShardSpec::new(1, 2).unwrap());
        let wrong_name = dir.join(manifest_file("c", ShardSpec::new(0, 2).unwrap()));
        m.write(&wrong_name).unwrap();
        let err = merge_manifests("c", &[wrong_name], &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("renamed"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_specs_parse_render_and_name_artifacts() {
        let spec = "1/2:0/3".parse::<ShardSpec>().unwrap();
        assert_eq!(spec, ShardSpec::new(1, 2).unwrap().slice_of(0, 3).unwrap());
        assert_eq!(spec.to_string(), "1/2:0/3");
        assert!(spec.is_sharded());
        assert_eq!(spec.parent(), ShardSpec::new(1, 2).unwrap());
        assert_eq!(spec.suffix(), ".shard-1-of-2.slice-0-of-3");
        // A slice of the unsharded spec still gets a full suffix, so
        // its artifacts cannot collide with the single-host files.
        let single_slice = ShardSpec::single().slice_of(1, 2).unwrap();
        assert_eq!(single_slice.suffix(), ".shard-0-of-1.slice-1-of-2");
        assert_eq!(single_slice.to_string(), "0/1:1/2");
        for bad in ["1/2:3/3", "1/2:0/0", "1/2:a/2", "1/2:", "1/2:1"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "{bad}");
        }
        assert!(spec.slice_of(0, 2).is_err(), "slices never nest");
        // Round-trip through the artifact-name parsers.
        for file in [
            "fig6.shard-1-of-2.slice-0-of-3.jsonl",
            "fig6.shard-1-of-2.slice-0-of-3.seg",
            "fig6.shard-1-of-2.slice-0-of-3.manifest.json",
        ] {
            assert_eq!(artifact_shard_spec("fig6", file), Some(spec), "{file}");
        }
        assert_eq!(
            artifact_shard_spec("fig6", "fig6.shard-1-of-2.slice-9-of-3.jsonl"),
            None,
            "out-of-range slice is not an artifact"
        );
    }

    #[test]
    fn slices_partition_their_parent_exactly() {
        for count in 1..=4u32 {
            for index in 0..count {
                let parent = ShardSpec::new(index, count).unwrap();
                for m in 1..=4u32 {
                    for key in (0u64..300).chain([u64::MAX, u64::MAX - 11]) {
                        let owners = (0..m)
                            .filter(|&j| parent.slice_of(j, m).unwrap().owns(key))
                            .count();
                        assert_eq!(
                            owners,
                            usize::from(parent.owns(key)),
                            "key {key} parent {parent} m {m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partition_store_into_slices_moves_every_record_once() {
        let dir = std::env::temp_dir().join(format!("shard-partition-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let parent = ShardSpec::new(1, 2).unwrap();
        // Keys 1, 3, 5, 7 belong to shard 1/2; two chunks for one key.
        let stats = |packets: u64| hspa_phy::harq::HarqStats {
            packets,
            delivered: packets,
            transmissions: packets,
            info_bits: 10,
            failures_at: vec![0; packets as usize],
        };
        let records: Vec<(ChunkId, hspa_phy::harq::HarqStats)> = [1u64, 3, 5, 7]
            .iter()
            .flat_map(|&key| {
                [
                    (
                        ChunkId {
                            point: key,
                            first_packet: 0,
                            n_packets: 4,
                        },
                        stats(4),
                    ),
                    (
                        ChunkId {
                            point: key,
                            first_packet: 4,
                            n_packets: 4,
                        },
                        stats(4),
                    ),
                ]
            })
            .collect();
        let parent_store = dir.join(store_file("c", parent, BackendKind::Jsonl));
        store::write_records(&parent_store, &records).unwrap();

        let slices = partition_store_into_slices("c", &dir, parent, 2).unwrap();
        assert_eq!(slices.len(), 2);
        assert!(!parent_store.exists(), "parent store must be retired");
        let mut moved: Vec<(ChunkId, hspa_phy::harq::HarqStats)> = Vec::new();
        for (j, slice) in slices.iter().enumerate() {
            assert_eq!(*slice, parent.slice_of(j as u32, 2).unwrap());
            let (recs, malformed) =
                store::load_all(&dir.join(store_file("c", *slice, BackendKind::Jsonl))).unwrap();
            assert_eq!(malformed, 0);
            for (id, _) in &recs {
                assert!(slice.owns(id.point), "slice {slice} holds foreign key");
            }
            moved.extend(recs);
        }
        moved.sort_by_key(|(id, _)| *id);
        let mut expected = records.clone();
        expected.sort_by_key(|(id, _)| *id);
        assert_eq!(moved, expected, "every record moves to exactly one slice");

        // A parent that never created a store partitions trivially.
        let ghost = ShardSpec::new(0, 2).unwrap();
        let slices = partition_store_into_slices("c", &dir, ghost, 3).unwrap();
        assert_eq!(slices.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_manifests_merge_like_their_parent() {
        // Shard 0/2 completed whole; shard 1/2 died and was re-sharded
        // into two slices. The merged result must equal what the
        // two-parent merge would have produced.
        let dir = std::env::temp_dir().join(format!("shard-slice-merge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // Global enumeration: two points, keys 2 (shard 0) and 3
        // (shard 1). Shard 1's only point lands in slice (3/2)%2 = 1.
        let s0 = ShardSpec::new(0, 2).unwrap();
        let slice0 = ShardSpec::new(1, 2).unwrap().slice_of(0, 2).unwrap();
        let slice1 = ShardSpec::new(1, 2).unwrap().slice_of(1, 2).unwrap();
        let mut paths = Vec::new();
        for (spec, points) in [
            (s0, vec![(0u64, 2u64)]),
            (slice0, vec![]),
            (slice1, vec![(1, 3)]),
        ] {
            let mut m = tiny_manifest("c", spec);
            m.points = points
                .into_iter()
                .map(|(index, key)| fixture_record(index, key, &format!("p{key}")))
                .collect();
            paths.push(write_leg(&dir, &m));
        }
        let report = merge_manifests("c", &paths, &dir.join("out")).unwrap();
        assert_eq!(report.shards, 3);
        assert_eq!(report.points, 2);
        assert!(report.missing_points.is_empty());
        let merged = Manifest::read(&report.manifest_path).unwrap();
        assert_eq!(merged.settings.shard, ShardSpec::single());
        assert_eq!(merged.points.len(), 2);

        // An empty-slice manifest does not break discovery either.
        let discovered = discover_shard_specs("c", &dir).unwrap();
        assert_eq!(
            discovered.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![s0, slice0, slice1]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_merge_forgives_missing_points_only() {
        let dir = std::env::temp_dir().join(format!("shard-partial-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Only shard 0 of 2 finished; its manifest enumerates 2 points
        // but records just its own (index 0).
        // The surviving shard's store backs its one point (key 2,
        // packets 0..4), so the partial merge must still verify.
        let path = write_leg(&dir, &tiny_manifest("c", ShardSpec::new(0, 2).unwrap()));

        let err = merge_manifests_allowing_partial(
            "c",
            std::slice::from_ref(&path),
            &dir.join("out"),
            false,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("not a complete partition"),
            "{err}"
        );

        let report = merge_manifests_allowing_partial(
            "c",
            std::slice::from_ref(&path),
            &dir.join("out"),
            true,
        )
        .unwrap();
        assert_eq!(report.points, 1);
        assert_eq!(report.missing_points, vec![1]);
        assert_eq!(report.missing_points_total, 1);
        // The partial manifest still verifies: listed points are backed.
        let v = verify_with("c", &dir.join("out"), ShardSpec::single(), true).unwrap();
        assert!(v.ok(), "{:?}", v.problems);

        // Duplicates stay fatal even in partial mode.
        let dup = dir.join("dup");
        fs::create_dir_all(&dup).unwrap();
        let m2 = tiny_manifest("c", ShardSpec::new(1, 2).unwrap());
        // Same global index 0 as shard 0's point — a broken partition.
        let path2 = dup.join(manifest_file("c", m2.settings.shard));
        m2.write(&path2).unwrap();
        fs::write(
            dup.join(store_file("c", m2.settings.shard, BackendKind::Jsonl)),
            "",
        )
        .unwrap();
        let err =
            merge_manifests_allowing_partial("c", &[path.clone(), path2], &dir.join("out2"), true)
                .unwrap_err();
        assert!(
            err.to_string().contains("not a disjoint partition"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_verify_flags_inconsistent_provenance() {
        let dir = std::env::temp_dir().join(format!("shard-strict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = ShardSpec::single();
        let mut m = tiny_manifest("c", spec);
        // 1 chunk ran but 2 claim store provenance; packets agree-ish.
        m.points[0].chunks = 1;
        m.points[0].chunks_from_store = 2;
        m.points[0].packets_from_store = 8;
        // The store backs the point, so the base pass is clean.
        write_leg(&dir, &m);
        assert!(verify("c", &dir, spec).unwrap().ok(), "base pass is clean");
        let strict = verify_with("c", &dir, spec, true).unwrap();
        assert!(!strict.ok());
        assert!(
            strict
                .problems
                .iter()
                .any(|p| p.contains("served from store")),
            "{:?}",
            strict.problems
        );
        // Consistent provenance passes strict.
        m.points[0].chunks_from_store = 1;
        m.points[0].packets_from_store = 4;
        m.write(&dir.join(manifest_file("c", spec))).unwrap();
        assert!(verify_with("c", &dir, spec, true).unwrap().ok());
        // chunks>0 with packets==0 disagrees.
        m.points[0].packets_from_store = 0;
        m.write(&dir.join(manifest_file("c", spec))).unwrap();
        let strict = verify_with("c", &dir, spec, true).unwrap();
        assert!(
            strict.problems.iter().any(|p| p.contains("disagrees")),
            "{:?}",
            strict.problems
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store holding two schedules' chunks for one point (key 2,
    /// budget 64, BLER 0.5): the doubling schedule at `initial_chunk`
    /// 8, and the chunk a `--target-ci 0.1` run resumed over it
    /// simulated. Both tile `0..64`, so only the replay of the
    /// manifest's own settings tells which chunks a resume reads.
    #[test]
    fn verify_and_gc_keep_exactly_the_replayed_schedule() {
        let dir = std::env::temp_dir().join(format!("shard-two-schedules-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let chunk = |first: usize, len: usize| {
            let stats = HarqStats {
                packets: len as u64,
                delivered: len as u64 / 2,
                transmissions: 4 * len as u64,
                info_bits: 10,
                failures_at: vec![len as u64 / 2; 4],
            };
            let id = ChunkId {
                point: 2,
                first_packet: first,
                n_packets: len,
            };
            (id, stats)
        };
        let doubling = [(0, 8), (8, 8), (16, 16), (32, 32)];
        let target = [(0, 8), (8, 56)];
        let mut records: Vec<_> = doubling.iter().map(|&(f, l)| chunk(f, l)).collect();
        records.push(chunk(8, 56));
        let spec = ShardSpec::single();
        let store_path = dir.join(store_file("c", spec, BackendKind::Jsonl));

        for (target_ci, schedule, stale) in [
            (0.0, &doubling[..], &[(8, 56)][..]),
            (0.1, &target[..], &doubling[1..]),
        ] {
            let settings = super::super::CampaignSettings {
                initial_chunk: 8,
                target_ci,
                ..Default::default()
            };
            let lookup: BTreeMap<ChunkId, HarqStats> = records.iter().cloned().collect();
            let replay = settings
                .replay(64, |f, l| lookup.get(&chunk(f, l).0).cloned())
                .unwrap();
            assert_eq!(replay.chunks, schedule.len(), "target_ci {target_ci}");
            let mut m = Manifest::new("c", settings);
            m.points_enumerated = 1;
            let point = PointRecord {
                max_packets: 64,
                ..fixture_record(0, 2, "p")
            };
            m.points.push(point.derive(&settings, &replay));
            m.write(&dir.join(manifest_file("c", spec))).unwrap();
            store::write_records(&store_path, &records).unwrap();

            let v = verify("c", &dir, spec).unwrap();
            assert!(v.ok(), "{:?}", v.problems);
            assert_eq!((v.covered_points, v.stale_chunks), (1, stale.len()));
            let gc = gc("c", &dir, spec).unwrap();
            assert_eq!((gc.kept, gc.dropped_stale), (schedule.len(), stale.len()));
            let (kept, _) = store::load_all(&store_path).unwrap();
            let kept: Vec<(usize, usize)> = kept
                .iter()
                .map(|(id, _)| (id.first_packet, id.n_packets))
                .collect();
            assert_eq!(kept, schedule, "target_ci {target_ci}");
            let v = verify("c", &dir, spec).unwrap();
            assert!(v.ok() && v.stale_chunks == 0, "{v:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two hand edits of a leg manifest: a changed BLER (still a
    /// canonical file) and a duplicated set of fields.
    #[test]
    fn tampered_leg_manifests_never_reach_the_results() {
        let dir = std::env::temp_dir().join(format!("shard-tampered-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let shards = dir.join("shards");
        fs::create_dir_all(&shards).unwrap();
        let s0 = ShardSpec::new(0, 2).unwrap();
        let s1 = ShardSpec::new(1, 2).unwrap();
        let mut m1 = tiny_manifest("c", s1);
        m1.points = vec![fixture_record(1, 3, "p3")];
        write_leg(&shards, &tiny_manifest("c", s0));
        write_leg(&shards, &m1);
        let clean = merge("c", &shards, &dir.join("clean")).unwrap();
        let clean = fs::read_to_string(clean.manifest_path).unwrap();
        assert!(verify("c", &shards, s0).unwrap().ok());

        let leg0 = shards.join(manifest_file("c", s0));
        let text = fs::read_to_string(&leg0).unwrap();
        let real = "\"bler\": 0.000000";
        assert!(text.contains(real));

        // A changed BLER: verify names the point and the field; the
        // merge re-derives the point from the store and is unchanged.
        fs::write(&leg0, text.replacen(real, "\"bler\": 0.900000", 1)).unwrap();
        let v = verify("c", &shards, s0).unwrap();
        assert!(!v.ok());
        assert_eq!(v.covered_points, 0);
        assert!(
            v.problems[0].starts_with("point 0 'p0'")
                && v.problems[0].contains("\"bler\": 0.900000 (replay gives \"bler\": 0.000000)"),
            "{:?}",
            v.problems
        );
        let edited = merge("c", &shards, &dir.join("edited")).unwrap();
        assert_eq!(fs::read_to_string(edited.manifest_path).unwrap(), clean);

        // Duplicated keys ahead of the real ones: no reader accepts
        // the file, and the error names it.
        let dup = "\"bler\": 0.25, \"ci_lo\": 0.1, \"ci_hi\": 0.4, \"snr_db\"";
        fs::write(&leg0, text.replacen("\"snr_db\"", dup, 1)).unwrap();
        for err in [
            verify("c", &shards, s0).unwrap_err(),
            merge("c", &shards, &dir.join("dup")).unwrap_err(),
        ] {
            assert!(
                err.to_string().contains(&leg0.display().to_string()),
                "{err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
