//! The JSONL store backend: one hand-written JSON line per chunk
//! record. This is the interchange/debug format — human-greppable,
//! trivially diffable, and what `campaign-admin export` emits — at the
//! cost of parsing the whole file on every open.
//!
//! ## Record grammar
//!
//! The reader accepts exactly the lines [`encode_record`] writes, and
//! nothing else:
//!
//! ```text
//! line  = '{"point":"' hex16 '","first":' uint ',"len":' uint
//!         ',"packets":' uint ',"delivered":' uint ',"transmissions":' uint
//!         ',"info_bits":' uint ',"failures_at":[' [uint *(',' uint)] ']}'
//! hex16 = 16 × [0-9a-f]
//! uint  = '0' | [1-9] *[0-9]        (a u64: no sign, no leading zero)
//! ```
//!
//! Lines end in `\n` (a `\r\n` ending is stripped too) and empty lines
//! are skipped. Any other line — a truncated write, but equally a
//! signed, zero-padded, upper-case, spaced, reordered, duplicated or
//! overflowing field, or bytes after the closing `}` — is a torn line:
//! skipped and counted (`store_torn_tails_dropped` on open), never
//! read as a record. A line that parses but violates the stats
//! invariants is corruption (see [`validate_record`]).
//!
//! ## The record table
//!
//! An open streams the file through a 64 KiB buffer, one line at a
//! time, and parses each line once, straight into the resident table:
//! a fixed-size [`Slot`] per chunk (the four counters and a range) in a
//! map keyed by [`ChunkId`], and one shared arena holding every
//! `failures_at` list, so loading a record allocates nothing of its
//! own. Map and arena are sized from the file length before the scan.
//! A later line for the same chunk replaces the slot (last write wins);
//! the superseded list stays in the arena unread. [`get`] builds the
//! [`HarqStats`] from its slot, one allocation per fetch.
//!
//! [`get`]: StoreBackend::get

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;

use super::{corrupt_error, validate_record, BackendKind, ChunkId, LenientLoad, StoreBackend};
use crate::artifact::Cursor;

/// Read-buffer size of a scan: a few `read(2)` calls cover a store of
/// thousands of records.
const READ_BUF: usize = 64 * 1024;

/// Bytes per line the table reserves slots for. The shortest canonical
/// line is 122 bytes, and only a chunk whose every counter is a single
/// digit has it; a typical record with four failure counts is ~140. An
/// underestimate costs one rehash; an upper bound would double the map
/// for a file just past a power of two.
const LINE_BYTES: u64 = 128;

/// Bytes per `failures_at` entry the arena reserves for (~35 on a line
/// of four entries).
const FAILURE_BYTES: u64 = 32;

/// Append-only JSONL store of per-chunk [`HarqStats`].
#[derive(Debug)]
pub struct JsonlBackend {
    path: PathBuf,
    table: Table,
}

/// The fixed-size fields of one record. Its `failures_at` list is
/// `arena[start..start + len]` of the arena it was parsed or inserted
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
    // determinism: unordered-ok(keyed access only; never iterated — exports re-read the file in line order)
    slots: HashMap<ChunkId, Slot, BuildHasherDefault<ChunkHasher>>,
    arena: Vec<u64>,
}

impl Table {
    /// An empty table reserved for a store file of `bytes`.
    fn for_file_len(bytes: u64) -> Self {
        let mut table = Self::default();
        table
            .slots
            .reserve(usize::try_from(bytes / LINE_BYTES).unwrap_or(0));
        table
            .arena
            .reserve(usize::try_from(bytes / FAILURE_BYTES).unwrap_or(0));
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

impl JsonlBackend {
    /// Opens (or creates) the store file, loading every valid record.
    /// With `resume == false` an existing file is truncated first.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // `Path::exists` swallows stat errors (it answers `false` for a
        // permission-denied path); query the metadata directly so those
        // errors are distinguishable from a genuinely absent store.
        let existing_len = match fs::metadata(path) {
            Ok(meta) => Some(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        if !resume && existing_len.is_some() {
            fs::remove_file(path)?;
        }
        let Some(len) = existing_len.filter(|_| resume) else {
            // Materialize an empty store eagerly: a campaign whose every
            // chunk is a store hit (or whose shard owns no points) still
            // leaves a well-formed `.jsonl` behind, so shard artifact
            // collection and `campaign-admin merge` never chase a file
            // that only the first miss would have created.
            File::create(path)?;
            return Ok(Self::attach(path));
        };
        let mut table = Table::for_file_len(len);
        // Torn tails of interrupted runs are skipped, not fatal; records
        // that parse but violate the stats invariants are corruption and
        // must not feed merged statistics.
        let slots = &mut table.slots;
        scan(path, &mut table.arena, |line_no, line| match line {
            Ok((id, slot)) => {
                slots.insert(id, slot);
                Ok(())
            }
            Err(LineIssue::Torn) => {
                crate::telemetry::counter_add(crate::telemetry::Counter::StoreTornTailsDropped, 1);
                Ok(())
            }
            Err(LineIssue::Corrupt(why)) => Err(corrupt_error(path, line_no, &why)),
        })?;
        // A killed writer can leave the final line without its newline.
        // Terminate it now, or the first fresh append of this (rescue)
        // run would concatenate onto the torn tail and turn a valid new
        // record into a second torn line.
        terminate_torn_tail(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            table,
        })
    }

    /// Attaches to a path for the whole-store scan surface without
    /// loading anything.
    pub fn attach(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            table: Table::default(),
        }
    }

    /// Strict or lenient whole-file scan into file-order records,
    /// duplicates kept: a corrupt record is an error when `strict`,
    /// else dropped and counted.
    fn load(&self, strict: bool) -> std::io::Result<LenientLoad> {
        let mut arena = Vec::new();
        let mut slots = Vec::new();
        let (mut torn_lines, mut corrupt_records) = (0, 0);
        scan(&self.path, &mut arena, |line_no, line| {
            match line {
                Ok(rec) => slots.push(rec),
                Err(LineIssue::Torn) => torn_lines += 1,
                Err(LineIssue::Corrupt(why)) if strict => {
                    return Err(corrupt_error(&self.path, line_no, &why))
                }
                Err(LineIssue::Corrupt(_)) => corrupt_records += 1,
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
}

impl StoreBackend for JsonlBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Jsonl
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn len(&self) -> usize {
        self.table.slots.len()
    }

    fn get(&mut self, id: ChunkId) -> Option<HarqStats> {
        let slot = self.table.slots.get(&id)?;
        Some(slot.stats(&self.table.arena))
    }

    fn append(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut line = String::new();
        encode_record(&mut line, id, stats);
        if crate::failpoint::armed() {
            let ctx = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::AppendTorn, ctx) {
                // Tear the record mid-write and die, like a SIGKILL
                // landing inside the write: the half record becomes the
                // file's tail. Continuing instead of exiting would weld
                // the next append onto the torn prefix — precisely the
                // corruption the resume path is hardened against.
                file.write_all(&line.as_bytes()[..line.len() / 2])?;
                file.flush()?;
                std::process::exit(43);
            }
        }
        // One write(2) per record: the line and its newline land
        // together, so a kill can never leave a complete record whose
        // newline is missing.
        file.write_all(line.as_bytes())?;
        self.table.insert(id, stats);
        Ok(())
    }

    fn load_all(&self) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
        let load = self.load(true)?;
        Ok((load.records, load.torn_lines))
    }

    fn load_all_lenient(&self) -> std::io::Result<LenientLoad> {
        self.load(false)
    }

    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, stats) in records {
            encode_record(&mut out, *id, stats);
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &self.path)?;
        self.table = Table::default();
        for (id, stats) in records {
            self.table.insert(*id, stats);
        }
        Ok(())
    }
}

/// Appends one chunk record to `out` as a single JSON line, newline
/// included — the only form the reader accepts.
fn encode_record(out: &mut String, id: ChunkId, stats: &HarqStats) {
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"point\":\"{:016x}\",\"first\":{},\"len\":{},\"packets\":{},\"delivered\":{},\"transmissions\":{},\"info_bits\":{},\"failures_at\":[",
        id.point,
        id.first_packet,
        id.n_packets,
        stats.packets,
        stats.delivered,
        stats.transmissions,
        stats.info_bits,
    );
    for (i, f) in stats.failures_at.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{f}");
    }
    out.push_str("]}\n");
}

/// Appends a newline to `path` if its last byte is not one (the tail a
/// `SIGKILL` mid-append leaves), so subsequent appends start on a
/// fresh line. The torn line itself stays in place — it is skipped on
/// every load and `campaign-admin gc` drops it.
fn terminate_torn_tail(path: &Path) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = OpenOptions::new().read(true).append(true).open(path)?;
    if file.seek(SeekFrom::End(0))? == 0 {
        return Ok(());
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    if last != [b'\n'] {
        file.write_all(b"\n")?;
    }
    Ok(())
}

/// Why a store line was rejected: torn lines (truncated writes, or any
/// line that is not exactly what [`encode_record`] writes) are routine
/// and tolerated; corrupt records parse fully but violate the stats
/// invariants, so using them would poison merged statistics.
enum LineIssue {
    Torn,
    Corrupt(String),
}

/// Streams the store file through [`classify_line`], one line at a
/// time into one reused buffer, handing `visit` each non-empty line's
/// outcome with its 1-based line number; accepted records' lists land
/// in `arena`. The file is never held in memory whole. A torn line that
/// is not valid UTF-8 is an [`InvalidData`](std::io::ErrorKind::InvalidData)
/// error rather than a torn line: the store is a text file, and binary
/// garbage in it is not an interrupted append.
fn scan(
    path: &Path,
    arena: &mut Vec<u64>,
    mut visit: impl FnMut(usize, Result<(ChunkId, Slot), LineIssue>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut reader = BufReader::with_capacity(READ_BUF, File::open(path)?);
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        line_no += 1;
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            continue;
        }
        let outcome = classify_line(line, arena);
        // A parsed line is pure ASCII; only a rejected one needs the
        // UTF-8 check.
        if matches!(outcome, Err(LineIssue::Torn)) && std::str::from_utf8(line).is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}:{line_no}: store line is not valid UTF-8",
                    path.display()
                ),
            ));
        }
        visit(line_no, outcome)?;
    }
}

/// Parses and range-validates one store line (without its newline).
/// An accepted record's list is left in `arena`; a rejected line
/// leaves `arena` as it was.
fn classify_line(line: &[u8], arena: &mut Vec<u64>) -> Result<(ChunkId, Slot), LineIssue> {
    let mark = arena.len();
    let outcome = match parse_line(line, arena) {
        Some((id, slot)) => validate_record(id, slot.packets, slot.delivered)
            .map(|()| (id, slot))
            .map_err(LineIssue::Corrupt),
        None => Err(LineIssue::Torn),
    };
    if outcome.is_err() {
        arena.truncate(mark);
    }
    outcome
}

/// Parses one store line in a single pass over its bytes, pushing its
/// `failures_at` list onto `arena` (a rejected line may leave part of
/// it there; [`classify_line`] drops it). `None` unless the line is
/// exactly what [`encode_record`] writes (see the module grammar).
/// Invariants between the fields are **not** checked here — that is
/// [`classify_line`]'s job, so the strict loaders can distinguish a
/// routine torn line from corruption.
fn parse_line(line: &[u8], arena: &mut Vec<u64>) -> Option<(ChunkId, Slot)> {
    let mut cur = Cursor(line);
    let id = ChunkId {
        point: cur.tag(b"{\"point\":\"")?.hex16()?,
        first_packet: cur.tag(b"\",\"first\":")?.usize()?,
        n_packets: cur.tag(b",\"len\":")?.usize()?,
    };
    let mut slot = Slot {
        packets: cur.tag(b",\"packets\":")?.uint()?,
        delivered: cur.tag(b",\"delivered\":")?.uint()?,
        transmissions: cur.tag(b",\"transmissions\":")?.uint()?,
        info_bits: cur.tag(b",\"info_bits\":")?.uint()?,
        start: arena.len(),
        len: 0,
    };
    cur.tag(b",\"failures_at\":[")?;
    if cur.tag(b"]").is_none() {
        loop {
            arena.push(cur.uint()?);
            if cur.tag(b",").is_none() {
                cur.tag(b"]")?;
                break;
            }
        }
    }
    cur.tag(b"}")?;
    slot.len = arena.len() - slot.start;
    cur.0.is_empty().then_some((id, slot))
}

/// [`classify_line`] into a record of its own.
#[cfg(test)]
fn classify_record(line: &[u8]) -> Result<(ChunkId, HarqStats), LineIssue> {
    let mut arena = Vec::new();
    classify_line(line, &mut arena).map(|(id, slot)| (id, slot.stats(&arena)))
}

/// [`parse_line`] into a record of its own.
#[cfg(test)]
fn parse_record(line: &[u8]) -> Option<(ChunkId, HarqStats)> {
    let mut arena = Vec::new();
    parse_line(line, &mut arena).map(|(id, slot)| (id, slot.stats(&arena)))
}

#[cfg(test)]
mod tests {
    use super::super::{load_all, load_all_lenient, sample_stats, temp_store_path, write_records};
    use super::*;
    use crate::campaign::store::ResultStore;
    use crate::telemetry::{self, Counter};

    /// One encoded record line, without its newline.
    fn line(id: ChunkId, stats: &HarqStats) -> String {
        let mut out = String::new();
        encode_record(&mut out, id, stats);
        out.pop();
        out
    }

    fn chunk(point: u64) -> ChunkId {
        ChunkId {
            point,
            first_packet: 0,
            n_packets: 8,
        }
    }

    #[test]
    fn record_roundtrip() {
        let id = ChunkId {
            point: 0xdead_beef_0123_4567,
            first_packet: 32,
            n_packets: 8,
        };
        let stats = sample_stats();
        let line = line(id, &stats);
        let (rid, rstats) = parse_record(line.as_bytes()).expect("parses");
        assert_eq!(rid, id);
        assert_eq!(rstats, stats);
    }

    #[test]
    fn encoding_is_pinned() {
        // Every store ever written uses exactly these bytes; the strict
        // reader depends on them, so they must never drift.
        let mut out = String::new();
        encode_record(&mut out, chunk(0x1f), &sample_stats());
        let empty = HarqStats {
            failures_at: Vec::new(),
            ..sample_stats()
        };
        encode_record(&mut out, chunk(u64::MAX), &empty);
        assert_eq!(
            out,
            "{\"point\":\"000000000000001f\",\"first\":0,\"len\":8,\"packets\":8,\"delivered\":6,\"transmissions\":14,\"info_bits\":120,\"failures_at\":[3,2,2,2]}\n\
             {\"point\":\"ffffffffffffffff\",\"first\":0,\"len\":8,\"packets\":8,\"delivered\":6,\"transmissions\":14,\"info_bits\":120,\"failures_at\":[]}\n"
        );
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_record(b"").is_none());
        assert!(parse_record(b"{\"point\":\"zz\"}").is_none());
        // Truncated tail (interrupted write).
        let full = line(chunk(1), &sample_stats());
        let half = &full.as_bytes()[..full.len() / 2];
        assert!(parse_record(half).is_none());
        assert!(matches!(classify_record(half), Err(LineIssue::Torn)));
        // Non-canonical spellings are torn too, never records.
        for (what, l) in non_canonical_lines() {
            assert!(
                matches!(classify_record(l.as_bytes()), Err(LineIssue::Torn)),
                "{what}: {l}"
            );
        }
    }

    /// Lines the field-lookup reader used to accept, each a
    /// non-canonical spelling of a plausible record — plus a `u64`
    /// overflow. Every one must be a torn line.
    fn non_canonical_lines() -> Vec<(&'static str, String)> {
        let canon = |point: u64| line(chunk(point), &sample_stats());
        let swap = |point: u64, from: &str, to: &str| {
            let l = canon(point);
            assert!(l.contains(from), "{from} not in {l}");
            l.replacen(from, to, 1)
        };
        let empty = HarqStats {
            failures_at: Vec::new(),
            ..sample_stats()
        };
        vec![
            ("signed", swap(0x10, "\"len\":8", "\"len\":+8")),
            (
                "zero-padded",
                swap(0x11, "\"packets\":8", "\"packets\":008"),
            ),
            ("zero-padded list", swap(0x12, "[3,", "[03,")),
            (
                "upper-case hex",
                swap(0xab, "00000000000000ab", "00000000000000AB"),
            ),
            ("short hex", swap(0x13, "0000000000000013", "13")),
            (
                "space after colon",
                swap(0x14, "\"delivered\":", "\"delivered\": "),
            ),
            ("space in list", swap(0x15, "[3,2", "[3, 2")),
            ("trailing space", format!("{} ", canon(0x16))),
            ("bytes after the brace", format!("{}x", canon(0x17))),
            ("second object", format!("{0}{0}", canon(0x18))),
            (
                "reordered fields",
                swap(0x19, "\"first\":0,\"len\":8", "\"len\":8,\"first\":0"),
            ),
            (
                "duplicated field",
                swap(0x1a, "\"first\":0,", "\"first\":0,\"first\":0,"),
            ),
            ("empty list slot", swap(0x1b, "[3,2", "[3,,2")),
            ("trailing list comma", swap(0x1c, "2]", "2,]")),
            (
                "overflow",
                swap(
                    0x1d,
                    "\"info_bits\":120",
                    "\"info_bits\":18446744073709551616",
                ),
            ),
            (
                "overflow in list",
                line(chunk(0x1e), &empty).replace("[]", "[99999999999999999999]"),
            ),
        ]
    }

    #[test]
    fn open_counts_non_canonical_lines_as_torn() {
        let path = temp_store_path("non-canonical", "jsonl");
        let _ = fs::remove_file(&path);
        let bad = non_canonical_lines();
        let mut text = line(chunk(1), &sample_stats());
        text.push('\n');
        for (_, l) in &bad {
            text.push_str(l);
            text.push('\n');
        }
        fs::write(&path, text).unwrap();

        let before = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
        let store = ResultStore::open(&path, true).unwrap();
        let after = telemetry::snapshot().counter(Counter::StoreTornTailsDropped);
        assert_eq!(store.len(), 1, "only the canonical line is a record");
        assert!(
            after - before >= bad.len() as u64,
            "every non-canonical line is a counted torn line ({before} -> {after})"
        );
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!((records.len(), malformed), (1, bad.len()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn line_endings_blank_lines_and_non_utf8() {
        let path = temp_store_path("line-endings", "jsonl");
        let _ = fs::remove_file(&path);
        let a = line(chunk(1), &sample_stats());
        let b = line(chunk(2), &sample_stats());
        // CRLF endings are stripped like `lines()` did; blank lines
        // carry no record and are skipped.
        fs::write(&path, format!("{a}\r\n\n{b}")).unwrap();
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(malformed, 0);
        assert_eq!(ResultStore::open(&path, true).unwrap().len(), 2);

        // Binary garbage is an error, never a torn line.
        fs::write(&path, [a.as_bytes(), b"\n\xff\xfe\n"].concat()).unwrap();
        let err = load_all(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2:"), "{err}");
        assert!(ResultStore::open(&path, true).is_err());
        assert!(load_all_lenient(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn invariant_violations_classify_as_corrupt_not_torn() {
        let id = chunk(1);
        // Packet-count mismatch against the chunk range.
        let mut wrong_len = sample_stats();
        wrong_len.packets = 9;
        assert!(matches!(
            classify_record(line(id, &wrong_len).as_bytes()),
            Err(LineIssue::Corrupt(_))
        ));
        // delivered > packets would underflow `packets - delivered`.
        let mut inverted = sample_stats();
        inverted.delivered = inverted.packets + 1;
        let Err(LineIssue::Corrupt(why)) = classify_record(line(id, &inverted).as_bytes()) else {
            panic!("delivered > packets must classify as corrupt");
        };
        assert!(why.contains("underflow"), "{why}");
    }

    #[test]
    fn corrupt_records_are_a_load_error_pointing_at_gc() {
        let path = temp_store_path("corrupt", "jsonl");
        let _ = fs::remove_file(&path);
        let mut bad = sample_stats();
        bad.delivered = bad.packets + 4;
        let good = line(chunk(4), &sample_stats());
        fs::write(&path, format!("{good}\n{}\n", line(chunk(3), &bad))).unwrap();

        // Both strict loaders refuse, naming the recovery tool and the
        // offending line.
        let err = load_all(&path).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
        assert!(err.to_string().contains(":2:"), "{err}");
        let err = ResultStore::open(&path, true).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");

        // The lenient loader (gc's entry) drops and counts it.
        let load = load_all_lenient(&path).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!((load.torn_lines, load.corrupt_records), (0, 1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resumed_store_never_appends_onto_a_torn_tail() {
        // A SIGKILL mid-append leaves a final line without its newline;
        // a rescue leg resuming that store must not weld its first
        // fresh record onto the torn prefix.
        let path = temp_store_path("torn-tail", "jsonl");
        let _ = fs::remove_file(&path);
        let torn = &line(chunk(9), &sample_stats())[..30];
        fs::write(&path, torn).unwrap(); // no trailing newline
        let fresh = chunk(10);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            assert!(store.is_empty(), "torn line is not a record");
            store.put(fresh, &sample_stats()).unwrap();
        }
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!(malformed, 1, "torn prefix stays torn");
        assert_eq!(records, vec![(fresh, sample_stats())]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_all_keeps_duplicates_and_counts_malformed() {
        let path = temp_store_path("load-all", "jsonl");
        let _ = fs::remove_file(&path);
        let id = chunk(7);
        let mut store = ResultStore::open(&path, true).unwrap();
        store.put(id, &sample_stats()).unwrap();
        store.put(id, &sample_stats()).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{{torn"))
            .unwrap();
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!(records.len(), 2, "duplicates preserved");
        assert_eq!(malformed, 1);

        // write_records round-trips the exact record list.
        write_records(&path, &records[..1]).unwrap();
        let (rewritten, malformed) = load_all(&path).unwrap();
        assert_eq!(rewritten, records[..1]);
        assert_eq!(malformed, 0);
        let _ = fs::remove_file(&path);
    }

    mod fuzz {
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        use super::super::*;

        /// A `u64` whose decimal width is uniform over 1..=20 digits, so
        /// short, long and boundary spellings all occur.
        fn wide_u64(rng: &mut StdRng) -> u64 {
            match rng.gen_range(0u32..8) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.gen_range(0u32..64),
            }
        }

        /// A record that passes [`validate_record`], with every other
        /// field drawn over its whole range.
        fn valid_record(rng: &mut StdRng) -> (ChunkId, HarqStats) {
            let n_packets = rng.gen_range(0usize..400);
            let id = ChunkId {
                point: wide_u64(rng),
                first_packet: wide_u64(rng) as usize,
                n_packets,
            };
            let n_failures = rng.gen_range(0usize..6);
            let stats = HarqStats {
                packets: n_packets as u64,
                delivered: rng.gen_range(0..=n_packets as u64),
                transmissions: wide_u64(rng),
                info_bits: wide_u64(rng),
                failures_at: (0..n_failures).map(|_| wide_u64(rng)).collect(),
            };
            (id, stats)
        }

        fn encoded(id: ChunkId, stats: &HarqStats) -> Vec<u8> {
            let mut out = String::new();
            encode_record(&mut out, id, stats);
            out.pop();
            out.into_bytes()
        }

        /// A mangled line must be rejected (torn or corrupt), or be a
        /// record whose own encoding is the mangled line byte for byte.
        fn check_mutant(bytes: &[u8]) -> Result<(), TestCaseError> {
            if let Ok((id, stats)) = classify_record(bytes) {
                prop_assert_eq!(encoded(id, &stats), bytes.to_vec());
            }
            // Corrupt lines parse too; the same holds for them.
            if let Some((id, stats)) = parse_record(bytes) {
                prop_assert_eq!(encoded(id, &stats), bytes.to_vec());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn strict_parser_accepts_exactly_canonical_lines(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (id, stats) = valid_record(&mut rng);
                let line = encoded(id, &stats);

                // Round trip.
                match classify_record(&line) {
                    Ok((rid, rstats)) => {
                        prop_assert_eq!(rid, id);
                        prop_assert_eq!(rstats, stats.clone());
                    }
                    Err(_) => prop_assert!(false, "valid record rejected: {}", String::from_utf8_lossy(&line)),
                }

                // Every strict prefix is torn.
                for cut in 0..line.len() {
                    prop_assert!(
                        matches!(classify_record(&line[..cut]), Err(LineIssue::Torn)),
                        "prefix {cut} of {} not torn", String::from_utf8_lossy(&line)
                    );
                }

                // Byte flips, insertions, deletions and two-record splices.
                let (other_id, other_stats) = valid_record(&mut rng);
                let other = encoded(other_id, &other_stats);
                for _ in 0..64 {
                    let mut m = line.clone();
                    let at = rng.gen_range(0..m.len());
                    match rng.gen_range(0u32..4) {
                        0 => m[at] ^= 1 << rng.gen_range(0u32..8),
                        1 => m.insert(at, rng.gen_range(0u8..=255)),
                        2 => {
                            m.remove(at);
                        }
                        _ => {
                            let from = rng.gen_range(0..=other.len());
                            m.truncate(at);
                            m.extend_from_slice(&other[from..]);
                        }
                    }
                    check_mutant(&m)?;
                }
            }
        }
    }

    /// The record table against a reference map where the later write
    /// wins, over random sequences of store operations.
    mod model {
        use std::collections::BTreeMap;

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::*;
        use crate::campaign::store::{temp_store_path, ResultStore};

        const POINTS: u64 = 4;
        const FIRSTS: [usize; 3] = [0, 8, 16];
        const LENS: [usize; 2] = [8, 16];

        /// A valid record on a small key pool, so keys repeat.
        fn record(rng: &mut StdRng) -> (ChunkId, HarqStats) {
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn record_table_matches_a_last_write_wins_model(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let path = temp_store_path(&format!("model-{seed:x}"), "jsonl");
                let mut store = ResultStore::open(&path, false).unwrap();
                let mut model: BTreeMap<ChunkId, HarqStats> = BTreeMap::new();
                for _ in 0..rng.gen_range(1usize..40) {
                    match rng.gen_range(0u32..10) {
                        0..=4 => {
                            let (id, stats) = record(&mut rng);
                            store.put(id, &stats).unwrap();
                            model.insert(id, stats);
                        }
                        5 => {
                            let records: Vec<_> =
                                (0..rng.gen_range(0usize..8)).map(|_| record(&mut rng)).collect();
                            store.backend.replace_all(&records).unwrap();
                            model = records.into_iter().collect();
                        }
                        6 => {
                            store.compact().unwrap();
                        }
                        7 => {
                            drop(store);
                            store = ResultStore::open(&path, false).unwrap();
                            model.clear();
                        }
                        _ => {
                            drop(store);
                            store = ResultStore::open(&path, true).unwrap();
                        }
                    }
                    prop_assert_eq!(store.len(), model.len());
                    for point in 0..POINTS {
                        for first_packet in FIRSTS {
                            for n_packets in LENS {
                                let id = ChunkId { point, first_packet, n_packets };
                                prop_assert_eq!(store.backend.get(id), model.get(&id).cloned());
                            }
                        }
                    }
                }
                drop(store);
                let _ = fs::remove_file(&path);
            }
        }
    }
}
