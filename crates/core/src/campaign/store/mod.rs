//! Persistent, append-only result store for campaign chunks.
//!
//! One store file per campaign (default `target/campaign/<name>.<ext>`):
//! each record is the [`HarqStats`] of one simulated chunk, keyed by the
//! FNV hash of the point's canonical fingerprint (see [`super::hash`])
//! plus the chunk's packet range. Re-running a campaign opens the store
//! once and skips every chunk already on disk, so interrupted campaigns
//! resume and repeated figure regenerations are nearly free.
//!
//! Two interchangeable backends implement the [`StoreBackend`] trait:
//!
//! * [`BackendKind::Jsonl`] (`.jsonl`) — one hand-written JSON line per
//!   record. Human-greppable, trivially diffable, and the interchange
//!   format (`campaign-admin export`/`import`). Every open streams the
//!   whole file through one strict single-pass parser that accepts only
//!   the canonical line the writer emits — fixed key order, a
//!   16-digit lower-case hex key, unsigned decimals without sign or
//!   leading zero, no whitespace, nothing after the closing `}` (the
//!   grammar is in the `jsonl` module docs) — straight into a flat
//!   record table: fixed-size slots plus one shared arena for the
//!   `failures_at` lists. Any other line is counted as a torn line and
//!   never read as a record.
//! * [`BackendKind::Indexed`] (`.seg`) — append-only binary segment
//!   frames with a persistent point-key index sidecar (`.seg.idx`).
//!   Open replays only the un-indexed tail and lookups seek straight to
//!   the frame, so open/resume cost is proportional to the records
//!   touched, not the file size.
//!
//! The backend is inferred from the file extension, so every path-typed
//! entry point ([`ResultStore::open`], [`load_all`], [`write_records`])
//! transparently serves both formats. The offline `serde` shim has no
//! serializer, so JSONL records are written and parsed by hand; both
//! formats are versioned through the fingerprint schema (a key mismatch
//! is just a store miss, never corruption).

mod jsonl;
mod query;
mod segment;

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use hspa_phy::harq::HarqStats;

use crate::telemetry::{self, Counter};

pub use jsonl::JsonlBackend;
pub use query::QueryFilter;
pub use segment::SegmentBackend;

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
    /// Binary segment frames plus a persistent point-key index sidecar.
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

    /// Opens (or creates) a store of this kind for campaign use — the
    /// resume/truncate semantics of [`ResultStore::open`].
    pub fn open(self, path: &Path, resume: bool) -> std::io::Result<Box<dyn StoreBackend>> {
        Ok(match self {
            BackendKind::Jsonl => Box::new(JsonlBackend::open(path, resume)?),
            BackendKind::Indexed => Box::new(SegmentBackend::open(path, resume)?),
        })
    }

    /// Attaches to a store path without touching the filesystem — the
    /// tooling entry point behind [`load_all`] / [`write_records`].
    /// The returned backend serves the whole-store scan surface
    /// ([`StoreBackend::load_all`], [`StoreBackend::replace_all`]);
    /// it holds no resident records, so [`StoreBackend::get`] misses
    /// until the store is opened properly.
    pub fn attach(self, path: &Path) -> Box<dyn StoreBackend> {
        match self {
            BackendKind::Jsonl => Box::new(JsonlBackend::attach(path)),
            BackendKind::Indexed => Box::new(SegmentBackend::attach(path)),
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

/// The storage contract every result-store format implements. The
/// campaign hot path uses [`get`](Self::get)/[`append`](Self::append);
/// the admin tooling (merge, gc, verify, stats, export) uses the
/// whole-store scan surface, which absorbs what used to be the
/// path-based free functions.
pub trait StoreBackend: fmt::Debug {
    /// Which format this backend is.
    fn kind(&self) -> BackendKind;

    /// The backing store file path.
    fn path(&self) -> &Path;

    /// Number of distinct chunk records resident (last write per
    /// [`ChunkId`] wins, matching resume semantics).
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up one chunk. No hit/miss accounting here — that is
    /// [`ResultStore`]'s concern, so counters survive backend swaps
    /// and compaction.
    fn get(&mut self, id: ChunkId) -> Option<HarqStats>;

    /// Appends a freshly simulated chunk.
    fn append(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()>;

    /// **Strict** whole-store scan in file order, keeping duplicates.
    /// Returns the records plus the count of torn (unparseable) entries
    /// skipped. A record that parses but violates the stats invariants
    /// (`delivered > packets`, or a stats block covering a different
    /// packet count than the chunk range claims) is corruption —
    /// folding it into merged statistics would underflow the failure
    /// count and produce a garbage BLER — so it is an error pointing
    /// the operator at `campaign-admin gc`, never a silent skip.
    fn load_all(&self) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)>;

    /// The **lenient** whole-store scan behind `campaign-admin gc`:
    /// corrupt records (the ones [`load_all`](Self::load_all) refuses)
    /// are dropped and counted instead of fatal — gc is the tool the
    /// strict loaders tell the operator to run, so it must be able to
    /// read past the damage it is asked to remove.
    fn load_all_lenient(&self) -> std::io::Result<LenientLoad>;

    /// Rewrites the store to contain exactly `records`, in the given
    /// order, replacing any previous content (the merge/GC/compaction
    /// rewrite path — the campaign itself only ever appends). The
    /// replacement is atomic (write-to-temp + rename): a rewrite killed
    /// midway must leave the old store intact, never a truncated one.
    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()>;
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

/// Persistent chunk store of per-chunk [`HarqStats`], dispatching to
/// the [`StoreBackend`] inferred from the path extension.
#[derive(Debug)]
pub struct ResultStore {
    backend: Box<dyn StoreBackend>,
    /// Chunks served from disk since opening.
    pub hits: u64,
    /// Chunks that had to be simulated since opening.
    pub misses: u64,
}

impl ResultStore {
    /// Opens (or creates) the store file, loading (JSONL) or indexing
    /// (segment) every valid record. With `resume == false` an existing
    /// store is truncated first — the `--no-resume` path.
    ///
    /// A store that exists but cannot be read is an **error**, never an
    /// empty store: silently treating it as missing would re-simulate
    /// every chunk and double-append the results once the file becomes
    /// readable again, so only [`std::io::ErrorKind::NotFound`] counts
    /// as "no store yet" — permission problems, unreadable paths and
    /// read failures all surface to the caller.
    pub fn open(path: impl Into<PathBuf>, resume: bool) -> std::io::Result<Self> {
        let path = path.into();
        let backend = BackendKind::for_path(&path).open(&path, resume)?;
        Ok(Self {
            backend,
            hits: 0,
            misses: 0,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        self.backend.path()
    }

    /// Which backend serves this store.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.backend.len() == 0
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
        match self.backend.get(id).filter(usable) {
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
        self.backend.append(id, stats)?;
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
        let (records, torn) = self.backend.load_all()?;
        let loaded = records.len();
        let mut dedup = std::collections::BTreeMap::new();
        for (id, stats) in records {
            dedup.insert(id, stats);
        }
        let kept: Vec<(ChunkId, HarqStats)> = dedup.into_iter().collect();
        let dropped = torn + (loaded - kept.len());
        self.backend.replace_all(&kept)?;
        Ok(dropped)
    }
}

/// Reads every parseable record of a store file **in file order,
/// keeping duplicates** (unlike [`ResultStore::open`], which keeps the
/// last write per [`ChunkId`]). Returns the records plus the count of
/// torn entries skipped — the merge/GC admin tooling reports both.
/// Extension-dispatching wrapper over [`StoreBackend::load_all`].
pub fn load_all(path: &Path) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
    BackendKind::for_path(path).attach(path).load_all()
}

/// Lenient whole-store scan; extension-dispatching wrapper over
/// [`StoreBackend::load_all_lenient`].
pub fn load_all_lenient(path: &Path) -> std::io::Result<LenientLoad> {
    BackendKind::for_path(path).attach(path).load_all_lenient()
}

/// Writes a store file containing exactly `records`, in the given
/// order, replacing any previous content. Extension-dispatching wrapper
/// over [`StoreBackend::replace_all`].
pub fn write_records(path: &Path, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
    BackendKind::for_path(path)
        .attach(path)
        .replace_all(records)
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
pub(super) fn corrupt_error(path: &Path, loc: impl fmt::Display, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "{}:{loc}: corrupt store record ({why}); run `campaign-admin gc` to drop \
             corrupt records, or delete the record by hand",
            path.display(),
        ),
    )
}

/// Checks the cross-field stats invariants both backends enforce, on
/// the two counters they involve; a violation means the record must not
/// feed merged statistics. The `failures_at` length is not checked: the
/// store does not know the campaign's transmission budget, so the
/// campaign's own fetch rejects a chunk of the wrong shape.
pub(super) fn validate_record(id: ChunkId, packets: u64, delivered: u64) -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use std::fs;

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
            let _ = fs::remove_file(path.with_extension("seg.idx"));
            let id = ChunkId {
                point: 42,
                first_packet: 0,
                n_packets: 8,
            };
            {
                let mut store = ResultStore::open(&path, true).unwrap();
                assert_eq!(store.backend_kind(), kind);
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
            let _ = fs::remove_file(path.with_extension("seg.idx"));
        }
    }

    #[test]
    fn compaction_preserves_hit_accounting() {
        for kind in [BackendKind::Jsonl, BackendKind::Indexed] {
            let path = temp_store_path("compact", kind.extension());
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(path.with_extension("seg.idx"));
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
            // Served lookups keep working against the compacted file.
            assert_eq!(store.fetch(b).unwrap(), sample_stats());

            // And the compacted store reopens cleanly.
            let reopened = ResultStore::open(&path, true).unwrap();
            assert_eq!(reopened.len(), 2);
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(path.with_extension("seg.idx"));
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
        let _ = fs::remove_file(seg.with_extension("seg.idx"));
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
        let _ = fs::remove_file(seg.with_extension("seg.idx"));
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
}
