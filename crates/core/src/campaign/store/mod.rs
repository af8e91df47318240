//! Persistent, append-only result store for campaign chunks.
//!
//! One store file per campaign (default `target/campaign/<name>.<ext>`):
//! each record is the [`HarqStats`] of one simulated chunk, keyed by the
//! FNV hash of the point's canonical fingerprint (see [`super::hash`])
//! plus the chunk's packet range. Re-running a campaign opens the store
//! once and skips every chunk already on disk, so interrupted campaigns
//! resume and repeated figure regenerations are nearly free.
//!
//! A [`ResultStore`] owns the path, the file format ([`BackendKind`],
//! inferred from the extension), one resident record table, one append
//! handle and the hit/miss tallies. Two codecs encode a record and scan
//! a file into records:
//!
//! * `.jsonl` ([`BackendKind::Jsonl`]) — one hand-written JSON line per
//!   record. Human-greppable, trivially diffable, and the interchange
//!   format (`campaign-admin export`/`import`). The reader accepts only
//!   the canonical line the writer emits (the grammar is in the `jsonl`
//!   module docs); any other line is a torn line, never a record.
//! * `.seg` ([`BackendKind::Indexed`]) — append-only binary frames, each
//!   FNV-1a-32-checksummed (see the `segment` module docs).
//!
//! ## The record table
//!
//! An open streams the whole file through its codec, once, straight
//! into the table: a fixed-size [`Slot`] per chunk (the four counters
//! and a range) in a map keyed by [`ChunkId`], and one shared arena
//! holding every `failures_at` list, so loading a record allocates
//! nothing of its own. Map and arena are sized from the file length
//! before the scan. A later record for the same chunk replaces the slot
//! (last write wins); the superseded list stays in the arena unread.
//! [`ResultStore::fetch`] builds the [`HarqStats`] from its slot, one
//! allocation per fetch, and never touches the file.
//!
//! ## Damage
//!
//! A torn record (a writer killed mid-append) is counted
//! (`store_torn_tails_dropped`) and skipped, and each codec repairs the
//! tail so the next append starts clean: JSONL terminates the torn line,
//! a segment truncates the torn frame. A record that is complete but
//! fails its checksum or the stats invariants is corruption: every
//! strict read (an open, [`load_all`]) refuses the whole store with an
//! error naming `campaign-admin gc`, which reads it with
//! [`load_all_lenient`] and drops the damage.
//!
//! The offline `serde` shim has no serializer, so records are written
//! and parsed by hand; both formats are versioned through the
//! fingerprint schema (a key mismatch is just a store miss, never
//! corruption).

mod jsonl;
mod query;
mod segment;

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use hspa_phy::harq::HarqStats;

use crate::failpoint::{self, Site};
use crate::telemetry::{self, Counter};

pub use query::QueryFilter;

/// Identity of one stored chunk: point key + packet range. Ordered by
/// `(point, first_packet, n_packets)` — the canonical store order the
/// merge/GC tooling writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// FNV-1a 64 of the point fingerprint.
    pub point: u64,
    /// First absolute packet index of the chunk.
    pub first_packet: usize,
    /// Packets in the chunk.
    pub n_packets: usize,
}

/// Which on-disk format backs a result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One JSON line per chunk record — the interchange/debug format.
    #[default]
    Jsonl,
    /// Checksummed binary segment frames.
    Indexed,
}

impl BackendKind {
    /// The store-file extension this backend owns.
    pub const fn extension(self) -> &'static str {
        match self {
            BackendKind::Jsonl => "jsonl",
            BackendKind::Indexed => "seg",
        }
    }

    /// Infers the backend from a store path's extension (`.seg` is the
    /// indexed backend, everything else is JSONL — the historical
    /// default and the only format older stores can be in).
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("seg") => BackendKind::Indexed,
            _ => BackendKind::Jsonl,
        }
    }

    /// The bytes an empty store file of this format holds.
    fn header(self) -> &'static [u8] {
        match self {
            BackendKind::Jsonl => b"",
            BackendKind::Indexed => segment::MAGIC,
        }
    }

    /// Appends one record, encoded, to `out`.
    fn encode(self, out: &mut Vec<u8>, id: ChunkId, stats: &HarqStats) {
        match self {
            BackendKind::Jsonl => jsonl::encode(out, id, stats),
            BackendKind::Indexed => segment::encode(out, id, stats),
        }
    }

    /// Streams the store file at `path` through this codec, handing
    /// `visit` each entry in file order with its location (a 1-based
    /// line number or a byte offset). Records' lists land in `arena`.
    fn scan(
        self,
        path: &Path,
        arena: &mut Vec<u64>,
        visit: impl FnMut(u64, Entry) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        match self {
            BackendKind::Jsonl => jsonl::scan(path, arena, visit),
            BackendKind::Indexed => segment::scan(path, arena, visit),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Jsonl => "jsonl",
            BackendKind::Indexed => "indexed",
        })
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(BackendKind::Jsonl),
            "indexed" | "seg" => Ok(BackendKind::Indexed),
            other => Err(format!(
                "unknown store backend '{other}' (expected 'jsonl' or 'indexed')"
            )),
        }
    }
}

/// What a codec read at one place of a store file.
enum Entry {
    /// A record that passes the stats invariants; its `failures_at`
    /// list is `arena[slot.start..][..slot.len]`.
    Record(ChunkId, Slot),
    /// An incomplete or unparseable record — the routine damage of an
    /// interrupted append.
    Torn,
    /// A complete record that fails its checksum, its shape or the
    /// stats invariants: using it would poison merged statistics.
    Corrupt(String),
}

/// Runs a codec's `decode` of one record, which pushes the record's
/// `failures_at` list onto `arena`, and checks the stats invariants on
/// what it decoded. Anything but a [`Entry::Record`] leaves `arena` as
/// it was.
fn decode_checked(arena: &mut Vec<u64>, decode: impl FnOnce(&mut Vec<u64>) -> Entry) -> Entry {
    let mark = arena.len();
    let entry = match decode(arena) {
        Entry::Record(id, slot) => match validate_record(id, &slot) {
            Ok(()) => Entry::Record(id, slot),
            Err(why) => Entry::Corrupt(why),
        },
        other => other,
    };
    if !matches!(entry, Entry::Record(..)) {
        arena.truncate(mark);
    }
    entry
}

/// The fixed-size fields of one record. Its `failures_at` list is
/// `arena[start..start + len]` of the arena it was decoded or inserted
/// into.
#[derive(Debug, Clone, Copy)]
struct Slot {
    packets: u64,
    delivered: u64,
    transmissions: u64,
    info_bits: u64,
    start: usize,
    len: usize,
}

impl Slot {
    fn stats(&self, arena: &[u64]) -> HarqStats {
        HarqStats {
            packets: self.packets,
            delivered: self.delivered,
            transmissions: self.transmissions,
            info_bits: self.info_bits,
            failures_at: arena[self.start..self.start + self.len].to_vec(),
        }
    }
}

/// The resident records (see the module docs).
#[derive(Debug, Default)]
struct Table {
    // determinism: unordered-ok(keyed access only; never iterated — exports re-read the file in record order)
    slots: HashMap<ChunkId, Slot, BuildHasherDefault<ChunkHasher>>,
    arena: Vec<u64>,
}

impl Table {
    /// An empty table reserved for a store file of `bytes` in format
    /// `kind`, from the bytes a record and a `failures_at` entry take
    /// there. The shortest canonical JSONL line is 122 bytes, and only
    /// a chunk whose every counter is a single digit has it; a typical
    /// line with four failure counts is ~140 (~35 per entry). A frame
    /// is 72 bytes plus 8 per entry. An underestimate costs a rehash,
    /// which doubles the open of a 15,000-frame segment; an upper bound
    /// would double the map for a file just past a power of two.
    fn for_file(kind: BackendKind, bytes: u64) -> Self {
        let (record, failure) = match kind {
            BackendKind::Jsonl => (128, 32),
            BackendKind::Indexed => (96, 24),
        };
        let mut table = Self::default();
        table
            .slots
            .reserve(usize::try_from(bytes / record).unwrap_or(0));
        table
            .arena
            .reserve(usize::try_from(bytes / failure).unwrap_or(0));
        table
    }

    fn insert(&mut self, id: ChunkId, stats: &HarqStats) {
        let start = self.arena.len();
        self.arena.extend_from_slice(&stats.failures_at);
        self.slots.insert(
            id,
            Slot {
                packets: stats.packets,
                delivered: stats.delivered,
                transmissions: stats.transmissions,
                info_bits: stats.info_bits,
                start,
                len: stats.failures_at.len(),
            },
        );
    }

    fn get(&self, id: ChunkId) -> Option<HarqStats> {
        Some(self.slots.get(&id)?.stats(&self.arena))
    }
}

/// An Fx-style multiply-rotate hasher for [`ChunkId`] keys. The key's
/// `point` is already an FNV-1a hash, so one multiply per word spreads
/// it. The map is never iterated, so the hash reaches no output: a
/// file crafted to collide can only slow its own open.
#[derive(Default)]
struct ChunkHasher(u64);

impl ChunkHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ChunkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a lenient scan read: the surviving records plus tallies of
/// everything it had to drop.
#[derive(Debug, Default)]
pub struct LenientLoad {
    /// Valid records in file order, duplicates kept.
    pub records: Vec<(ChunkId, HarqStats)>,
    /// Unparseable (torn) entries skipped.
    pub torn_lines: usize,
    /// Parseable records dropped for violating the range invariants.
    pub corrupt_records: usize,
}

/// Persistent chunk store of per-chunk [`HarqStats`] (see the module
/// docs).
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    kind: BackendKind,
    table: Table,
    /// Append handle, opened once per open or rewrite.
    file: File,
    /// One encoded record, reused across appends.
    buf: Vec<u8>,
    /// Chunks served from disk since opening.
    pub hits: u64,
    /// Chunks that had to be simulated since opening.
    pub misses: u64,
}

impl ResultStore {
    /// Opens (or creates) the store file, loading every valid record
    /// and repairing a torn tail. With `resume == false` an existing
    /// store is truncated first — the `--no-resume` path.
    ///
    /// A store that exists but cannot be read is an **error**, never an
    /// empty store: silently treating it as missing would re-simulate
    /// every chunk and double-append the results once the file becomes
    /// readable again, so only [`std::io::ErrorKind::NotFound`] counts
    /// as "no store yet" — permission problems, unreadable paths and
    /// read failures all surface to the caller. So does a corrupt
    /// record anywhere in the file (see the module docs).
    pub fn open(path: impl Into<PathBuf>, resume: bool) -> std::io::Result<Self> {
        let path = path.into();
        let kind = BackendKind::for_path(&path);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // `Path::exists` swallows stat errors (it answers `false` for a
        // permission-denied path); query the metadata directly so those
        // errors are distinguishable from a genuinely absent store.
        let existing_len = match fs::metadata(&path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        let resumed = resume && existing_len > 0;
        let mut table = Table::default();
        let mut torn_at = None;
        if resumed {
            table = Table::for_file(kind, existing_len);
            let slots = &mut table.slots;
            kind.scan(&path, &mut table.arena, |loc, entry| match entry {
                Entry::Record(id, slot) => {
                    slots.insert(id, slot);
                    Ok(())
                }
                Entry::Torn => {
                    telemetry::counter_add(Counter::StoreTornTailsDropped, 1);
                    torn_at = Some(loc);
                    Ok(())
                }
                Entry::Corrupt(why) => Err(corrupt_error(&path, loc, &why)),
            })?;
        } else {
            // Materialize an empty store eagerly: a campaign whose every
            // chunk is a store hit (or whose shard owns no points) still
            // leaves a well-formed store behind, so shard artifact
            // collection and `campaign-admin merge` never chase a file
            // that only the first miss would have created.
            fs::write(&path, kind.header())?;
        }
        let mut file = open_append(&path)?;
        if resumed {
            // A torn frame is always the segment's last; a torn JSONL
            // line may sit anywhere and stays in place, so only the
            // segment uses `torn_at` (its byte offset).
            match kind {
                BackendKind::Jsonl => jsonl::terminate_torn_tail(&mut file)?,
                BackendKind::Indexed => {
                    if let Some(at) = torn_at {
                        file.set_len(at)?;
                    }
                }
            }
        }
        Ok(Self {
            path,
            kind,
            table,
            file,
            buf: Vec::new(),
            hits: 0,
            misses: 0,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct chunk records held (last write per
    /// [`ChunkId`] wins, matching resume semantics).
    pub fn len(&self) -> usize {
        self.table.slots.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.table.slots.is_empty()
    }

    /// Looks up a chunk, counting the outcome toward the hit/miss tally
    /// (and the global telemetry hit/miss counters).
    pub fn fetch(&mut self, id: ChunkId) -> Option<HarqStats> {
        self.fetch_if(id, |_| true)
    }

    /// [`fetch`](Self::fetch) that serves a stored chunk only if `usable`
    /// accepts it; a refused chunk counts as a miss.
    pub fn fetch_if(
        &mut self,
        id: ChunkId,
        usable: impl FnOnce(&HarqStats) -> bool,
    ) -> Option<HarqStats> {
        match self.table.get(id).filter(usable) {
            Some(stats) => {
                self.hits += 1;
                telemetry::counter_add(Counter::StoreChunkHits, 1);
                telemetry::counter_add(Counter::StorePacketsServed, id.n_packets as u64);
                Some(stats)
            }
            None => {
                self.misses += 1;
                telemetry::counter_add(Counter::StoreChunkMisses, 1);
                None
            }
        }
    }

    /// Records a freshly simulated chunk and appends it to the file.
    pub fn put(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()> {
        self.buf.clear();
        self.kind.encode(&mut self.buf, id, stats);
        if failpoint::armed() {
            let ctx = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if failpoint::should_fire(Site::AppendTorn, ctx) {
                // Tear the record mid-write and die, like a SIGKILL
                // landing inside the write: the half record becomes the
                // file's tail, which the next open repairs. Continuing
                // instead of exiting would weld the next append onto
                // the torn prefix.
                self.file.write_all(&self.buf[..self.buf.len() / 2])?;
                self.file.flush()?;
                std::process::exit(43);
            }
        }
        // One write(2) per record: a kill can never leave a complete
        // record whose JSONL newline is missing.
        self.file.write_all(&self.buf)?;
        self.table.insert(id, stats);
        telemetry::counter_add(Counter::StoreChunksWritten, 1);
        Ok(())
    }

    /// Fraction of lookups served from disk since opening (0 when no
    /// lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Compacts the store in place: drops torn entries and duplicate
    /// chunk records (last write wins) and rewrites the remainder in
    /// canonical `(point, first, len)` order. Returns the number of
    /// entries dropped.
    ///
    /// The hit/miss tallies (and the process-global telemetry store
    /// counters) deliberately survive compaction — served-packet totals
    /// describe this run's lookups, not the file layout.
    pub fn compact(&mut self) -> std::io::Result<usize> {
        let (records, torn) = load_all(&self.path)?;
        let loaded = records.len();
        let mut dedup = std::collections::BTreeMap::new();
        for (id, stats) in records {
            dedup.insert(id, stats);
        }
        let kept: Vec<(ChunkId, HarqStats)> = dedup.into_iter().collect();
        let dropped = torn + (loaded - kept.len());
        self.replace_all(&kept)?;
        Ok(dropped)
    }

    /// Rewrites the store to hold exactly `records` and reloads the
    /// table from them. The rename orphans the old inode, so the append
    /// handle is reopened on the new file.
    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
        write_records(&self.path, records)?;
        self.table = Table::default();
        for (id, stats) in records {
            self.table.insert(*id, stats);
        }
        self.file = open_append(&self.path)?;
        Ok(())
    }
}

/// The store's append handle; it reads too, for the JSONL tail repair.
fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().read(true).append(true).open(path)
}

/// Strict or lenient whole-file scan into file-order records,
/// duplicates kept: a corrupt record is an error when `strict`, else
/// dropped and counted.
fn load(path: &Path, strict: bool) -> std::io::Result<LenientLoad> {
    let mut arena = Vec::new();
    let mut slots = Vec::new();
    let (mut torn_lines, mut corrupt_records) = (0, 0);
    BackendKind::for_path(path).scan(path, &mut arena, |loc, entry| {
        match entry {
            Entry::Record(id, slot) => slots.push((id, slot)),
            Entry::Torn => torn_lines += 1,
            Entry::Corrupt(why) if strict => return Err(corrupt_error(path, loc, &why)),
            Entry::Corrupt(_) => corrupt_records += 1,
        }
        Ok(())
    })?;
    Ok(LenientLoad {
        records: slots
            .into_iter()
            .map(|(id, slot)| (id, slot.stats(&arena)))
            .collect(),
        torn_lines,
        corrupt_records,
    })
}

/// Reads every parseable record of a store file **in file order,
/// keeping duplicates** (unlike [`ResultStore::open`], which keeps the
/// last write per [`ChunkId`]). Returns the records plus the count of
/// torn entries skipped — the merge/GC admin tooling reports both.
///
/// The scan is **strict**: a record that parses but fails its checksum
/// or violates the stats invariants (`delivered > packets`, or a stats
/// block covering a different packet count than the chunk range claims)
/// is corruption — folding it into merged statistics would underflow
/// the failure count and produce a garbage BLER — so it is an error
/// pointing the operator at `campaign-admin gc`, never a silent skip.
pub fn load_all(path: &Path) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
    let load = load(path, true)?;
    Ok((load.records, load.torn_lines))
}

/// The **lenient** whole-store scan behind `campaign-admin gc`: corrupt
/// records (the ones [`load_all`] refuses) are dropped and counted
/// instead of fatal — gc is the tool the strict loaders tell the
/// operator to run, so it must be able to read past the damage it is
/// asked to remove.
pub fn load_all_lenient(path: &Path) -> std::io::Result<LenientLoad> {
    load(path, false)
}

/// Writes a store file containing exactly `records`, in the given
/// order, in the format its extension names, replacing any previous
/// content (the merge/GC/compaction rewrite path — the campaign itself
/// only ever appends). The replacement is atomic (write-to-temp +
/// rename): a rewrite killed midway leaves the old store intact, never
/// a truncated one.
pub fn write_records(path: &Path, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
    let kind = BackendKind::for_path(path);
    let mut out = kind.header().to_vec();
    for (id, stats) in records {
        kind.encode(&mut out, *id, stats);
    }
    crate::artifact::write_atomic(path, &out)
}

/// Losslessly copies a store between backends (`campaign-admin
/// export`/`import`): a strict whole-store read of `src` rewritten to
/// `dst`, each side in the format its extension names. Record order is
/// preserved, so converting there and back is byte-identical for any
/// gc'd (canonically ordered, duplicate-free) store. Returns the number
/// of records copied.
pub fn convert(src: &Path, dst: &Path) -> std::io::Result<usize> {
    let (records, _torn) = load_all(src)?;
    write_records(dst, &records)?;
    Ok(records.len())
}

/// The error a strict loader raises for a corrupt record — it names the
/// recovery tool because the strict loaders themselves refuse to read
/// past the damage. `loc` is the line number (JSONL) or byte offset
/// (segment) of the offending record.
fn corrupt_error(path: &Path, loc: u64, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "{}:{loc}: corrupt store record ({why}); run `campaign-admin gc` to drop \
             corrupt records, or delete the record by hand",
            path.display(),
        ),
    )
}

/// Checks the cross-field stats invariants; a violation means the
/// record must not feed merged statistics. The `failures_at` length is
/// not checked: the store does not know the campaign's transmission
/// budget, so the campaign's own fetch rejects a chunk of the wrong
/// shape.
fn validate_record(id: ChunkId, slot: &Slot) -> Result<(), String> {
    let (packets, delivered) = (slot.packets, slot.delivered);
    if packets != id.n_packets as u64 {
        return Err(format!(
            "stats cover {packets} packets but the chunk range claims {}",
            id.n_packets
        ));
    }
    if delivered > packets {
        return Err(format!(
            "delivered {delivered} > packets {packets} would underflow the failure count"
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) fn sample_stats() -> HarqStats {
    HarqStats {
        packets: 8,
        delivered: 6,
        transmissions: 14,
        info_bits: 120,
        failures_at: vec![3, 2, 2, 2],
    }
}

#[cfg(test)]
pub(crate) fn temp_store_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "campaign-store-test-{}-{tag}.{ext}",
        std::process::id()
    ))
}

/// Random valid records on a small key pool, so keys repeat.
#[cfg(test)]
mod pool {
    use hspa_phy::harq::HarqStats;
    use rand::rngs::StdRng;
    use rand::Rng;

    use super::ChunkId;

    pub const POINTS: u64 = 4;
    pub const FIRSTS: [usize; 3] = [0, 8, 16];
    pub const LENS: [usize; 2] = [8, 16];

    /// Every key the pool draws from.
    pub fn ids() -> impl Iterator<Item = ChunkId> {
        (0..POINTS).flat_map(|point| {
            FIRSTS.into_iter().flat_map(move |first_packet| {
                LENS.into_iter().map(move |n_packets| ChunkId {
                    point,
                    first_packet,
                    n_packets,
                })
            })
        })
    }

    /// A record that passes the stats invariants.
    pub fn record(rng: &mut StdRng) -> (ChunkId, HarqStats) {
        let id = ChunkId {
            point: rng.gen_range(0..POINTS),
            first_packet: FIRSTS[rng.gen_range(0..FIRSTS.len())],
            n_packets: LENS[rng.gen_range(0..LENS.len())],
        };
        let packets = id.n_packets as u64;
        let stats = HarqStats {
            packets,
            delivered: rng.gen_range(0..=packets),
            transmissions: rng.gen_range(0u64..100),
            info_bits: rng.gen_range(0u64..1000),
            failures_at: (0..rng.gen_range(0usize..5))
                .map(|_| rng.gen_range(0u64..50))
                .collect(),
        };
        (id, stats)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::fs;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn backend_kind_parsing_and_paths() {
        assert_eq!("jsonl".parse(), Ok(BackendKind::Jsonl));
        assert_eq!("indexed".parse(), Ok(BackendKind::Indexed));
        assert!("sqlite".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Jsonl.to_string(), "jsonl");
        assert_eq!(BackendKind::Indexed.to_string(), "indexed");
        assert_eq!(
            BackendKind::for_path(Path::new("a/fig6.jsonl")),
            BackendKind::Jsonl
        );
        assert_eq!(
            BackendKind::for_path(Path::new("a/fig6.shard-0-of-2.seg")),
            BackendKind::Indexed
        );
        assert_eq!(BackendKind::default(), BackendKind::Jsonl);
    }

    #[test]
    fn store_persists_and_resumes_on_both_backends() {
        for kind in [BackendKind::Jsonl, BackendKind::Indexed] {
            let path = temp_store_path("persist", kind.extension());
            let _ = fs::remove_file(&path);
            let id = ChunkId {
                point: 42,
                first_packet: 0,
                n_packets: 8,
            };
            {
                let mut store = ResultStore::open(&path, true).unwrap();
                assert_eq!(store.kind, kind);
                assert!(store.fetch(id).is_none());
                store.put(id, &sample_stats()).unwrap();
            }
            {
                let mut store = ResultStore::open(&path, true).unwrap();
                assert_eq!(store.len(), 1);
                assert_eq!(store.fetch(id).unwrap(), sample_stats());
                assert_eq!(store.hits, 1);
                assert!((store.hit_rate() - 1.0).abs() < 1e-12);
            }
            // --no-resume truncates.
            let store = ResultStore::open(&path, false).unwrap();
            assert!(store.is_empty());
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn compaction_preserves_hit_accounting() {
        for kind in [BackendKind::Jsonl, BackendKind::Indexed] {
            let path = temp_store_path("compact", kind.extension());
            let _ = fs::remove_file(&path);
            let a = ChunkId {
                point: 7,
                first_packet: 0,
                n_packets: 8,
            };
            let b = ChunkId {
                point: 7,
                first_packet: 8,
                n_packets: 8,
            };
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(a, &sample_stats()).unwrap();
            store.put(a, &sample_stats()).unwrap(); // duplicate append
            store.put(b, &sample_stats()).unwrap();
            assert!(store.fetch(a).is_some());
            assert!(store
                .fetch(ChunkId {
                    point: 9,
                    first_packet: 0,
                    n_packets: 8,
                })
                .is_none());
            let (hits, misses, rate) = (store.hits, store.misses, store.hit_rate());

            let dropped = store.compact().unwrap();
            assert_eq!(dropped, 1, "one duplicate dropped");
            assert_eq!(store.len(), 2);
            assert_eq!((store.hits, store.misses), (hits, misses));
            assert!((store.hit_rate() - rate).abs() < 1e-12);
            // Served lookups keep working against the compacted file,
            // and appends land in it, not in the replaced one.
            assert_eq!(store.fetch(b).unwrap(), sample_stats());
            store.put(a, &sample_stats()).unwrap();

            // And the compacted store reopens cleanly.
            let reopened = ResultStore::open(&path, true).unwrap();
            assert_eq!(reopened.len(), 2);
            assert_eq!(load_all(&path).unwrap().0.len(), 3);
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn convert_round_trips_between_backends() {
        let jsonl = temp_store_path("convert", "jsonl");
        let seg = temp_store_path("convert", "seg");
        let back = temp_store_path("convert-back", "jsonl");
        for p in [&jsonl, &seg, &back] {
            let _ = fs::remove_file(p);
        }
        let records: Vec<(ChunkId, HarqStats)> = (0..5)
            .map(|i| {
                (
                    ChunkId {
                        point: 100 + i,
                        first_packet: 0,
                        n_packets: 8,
                    },
                    sample_stats(),
                )
            })
            .collect();
        write_records(&jsonl, &records).unwrap();
        assert_eq!(convert(&jsonl, &seg).unwrap(), 5);
        let (seg_records, torn) = load_all(&seg).unwrap();
        assert_eq!(seg_records, records);
        assert_eq!(torn, 0);
        assert_eq!(convert(&seg, &back).unwrap(), 5);
        // export → import → export is byte-identical.
        assert_eq!(fs::read(&jsonl).unwrap(), fs::read(&back).unwrap());
        for p in [&jsonl, &seg, &back] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn unreadable_store_is_an_error_not_a_miss() {
        // A store path that exists but cannot be read as a store file
        // (here: a directory) must surface an io::Error — treating it
        // as an empty store would re-simulate and then double-append
        // every chunk.
        let dir = std::env::temp_dir().join(format!(
            "campaign-store-test-{}-unreadable",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        assert!(ResultStore::open(&dir, true).is_err());
        assert!(load_all(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// What one format's store reads back after the appends and the
    /// reopen: `len`, every pool key's fetch, and the strict scan.
    type View = (usize, Vec<Option<HarqStats>>, Vec<(ChunkId, HarqStats)>);

    /// Appends `records` to a fresh store at `path`, optionally tears
    /// one more record in half (as the `append-torn` failpoint does),
    /// reopens, appends `fresh` after the repaired tail, and reopens
    /// again. Returns the view and the strict scan's torn count.
    fn replay(
        path: &Path,
        records: &[(ChunkId, HarqStats)],
        torn: Option<&(ChunkId, HarqStats)>,
        fresh: &(ChunkId, HarqStats),
    ) -> (View, usize) {
        let mut store = ResultStore::open(path, false).unwrap();
        for (id, stats) in records {
            store.put(*id, stats).unwrap();
        }
        if let Some((id, stats)) = torn {
            let mut half = Vec::new();
            store.kind.encode(&mut half, *id, stats);
            store.file.write_all(&half[..half.len() / 2]).unwrap();
        }
        drop(store);
        ResultStore::open(path, true)
            .unwrap()
            .put(fresh.0, &fresh.1)
            .unwrap();
        let mut store = ResultStore::open(path, true).unwrap();
        let fetched = pool::ids().map(|id| store.fetch(id)).collect();
        let (scanned, torn_lines) = load_all(path).unwrap();
        ((store.len(), fetched, scanned), torn_lines)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn both_formats_match_a_last_write_wins_model(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut records: Vec<_> =
                (0..rng.gen_range(0usize..40)).map(|_| pool::record(&mut rng)).collect();
            let torn = rng.gen_bool(0.5).then(|| pool::record(&mut rng));
            let fresh = pool::record(&mut rng);

            let mut views = Vec::new();
            for kind in [BackendKind::Jsonl, BackendKind::Indexed] {
                let path = temp_store_path(&format!("formats-{seed:x}"), kind.extension());
                let (view, torn_lines) = replay(&path, &records, torn.as_ref(), &fresh);
                // A JSONL torn line is terminated and stays skippable; a
                // torn frame is truncated away.
                let kept_torn = kind == BackendKind::Jsonl && torn.is_some();
                prop_assert_eq!(torn_lines, usize::from(kept_torn), "{}", kind);
                views.push(view);
                let _ = fs::remove_file(&path);
            }

            records.push(fresh);
            let model: BTreeMap<ChunkId, HarqStats> = records.iter().cloned().collect();
            let expected: View = (
                model.len(),
                pool::ids().map(|id| model.get(&id).cloned()).collect(),
                records,
            );
            prop_assert_eq!(&views[0], &expected);
            prop_assert_eq!(&views[1], &expected);
        }
    }
}
