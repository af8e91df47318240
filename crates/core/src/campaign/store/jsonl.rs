//! The JSONL codec: one hand-written JSON line per chunk record. This
//! is the interchange/debug format — human-greppable, trivially
//! diffable, and what `campaign-admin export` emits.
//!
//! ## Record grammar
//!
//! The reader accepts exactly the lines [`encode`] writes, and nothing
//! else:
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
//! invariants is corruption.
//!
//! A scan streams the file through a 64 KiB buffer, one line at a time,
//! and parses each line once, straight into the caller's arena.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use hspa_phy::harq::HarqStats;

use super::{decode_checked, ChunkId, Entry, Slot};
use crate::artifact::Cursor;

/// Read-buffer size of a scan: a few `read(2)` calls cover a store of
/// thousands of records.
const READ_BUF: usize = 64 * 1024;

/// Appends one chunk record to `out` as a single JSON line, newline
/// included — the only form the reader accepts.
pub(super) fn encode(out: &mut Vec<u8>, id: ChunkId, stats: &HarqStats) {
    // Writing into a `Vec` cannot fail.
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
            out.push(b',');
        }
        let _ = write!(out, "{f}");
    }
    out.extend_from_slice(b"]}\n");
}

/// Appends a newline to the store behind `file` (a read + append
/// handle) if its last byte is not one — the tail a `SIGKILL`
/// mid-append leaves — so subsequent appends start on a fresh line. The
/// torn line itself stays in place: it is skipped on every load and
/// `campaign-admin gc` drops it.
pub(super) fn terminate_torn_tail(file: &mut File) -> std::io::Result<()> {
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

/// Streams the store file through [`classify_line`], one line at a
/// time into one reused buffer, handing `visit` each non-empty line's
/// entry with its 1-based line number; records' lists land in `arena`.
/// The file is never held in memory whole. A torn line that is not
/// valid UTF-8 is an [`InvalidData`](std::io::ErrorKind::InvalidData)
/// error rather than a torn line: the store is a text file, and binary
/// garbage in it is not an interrupted append.
pub(super) fn scan(
    path: &Path,
    arena: &mut Vec<u64>,
    mut visit: impl FnMut(u64, Entry) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut reader = BufReader::with_capacity(READ_BUF, File::open(path)?);
    let mut buf = Vec::new();
    let mut line_no = 0u64;
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
        let entry = classify_line(line, arena);
        // A parsed line is pure ASCII; only a rejected one needs the
        // UTF-8 check.
        if matches!(entry, Entry::Torn) && std::str::from_utf8(line).is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}:{line_no}: store line is not valid UTF-8",
                    path.display()
                ),
            ));
        }
        visit(line_no, entry)?;
    }
}

/// Parses and range-validates one store line (without its newline).
/// A record's list is left in `arena`; a rejected line leaves `arena`
/// as it was.
fn classify_line(line: &[u8], arena: &mut Vec<u64>) -> Entry {
    decode_checked(arena, |arena| match parse_line(line, arena) {
        Some((id, slot)) => Entry::Record(id, slot),
        None => Entry::Torn,
    })
}

/// Parses one store line in a single pass over its bytes, pushing its
/// `failures_at` list onto `arena` (a rejected line may leave part of
/// it there; [`classify_line`] drops it). `None` unless the line is
/// exactly what [`encode`] writes (see the module grammar). Invariants
/// between the fields are **not** checked here — that is
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
fn classify_record(line: &[u8]) -> Result<(ChunkId, HarqStats), Entry> {
    let mut arena = Vec::new();
    match classify_line(line, &mut arena) {
        Entry::Record(id, slot) => Ok((id, slot.stats(&arena))),
        other => Err(other),
    }
}

/// [`parse_line`] into a record of its own.
#[cfg(test)]
fn parse_record(line: &[u8]) -> Option<(ChunkId, HarqStats)> {
    let mut arena = Vec::new();
    parse_line(line, &mut arena).map(|(id, slot)| (id, slot.stats(&arena)))
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::{load_all, load_all_lenient, sample_stats, temp_store_path, write_records};
    use super::*;
    use crate::campaign::store::ResultStore;
    use crate::telemetry::{self, Counter};

    /// One encoded record line, without its newline.
    fn line(id: ChunkId, stats: &HarqStats) -> String {
        let mut out = Vec::new();
        encode(&mut out, id, stats);
        out.pop();
        String::from_utf8(out).unwrap()
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
        let mut out = Vec::new();
        encode(&mut out, chunk(0x1f), &sample_stats());
        let empty = HarqStats {
            failures_at: Vec::new(),
            ..sample_stats()
        };
        encode(&mut out, chunk(u64::MAX), &empty);
        assert_eq!(
            String::from_utf8(out).unwrap(),
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
        assert!(matches!(classify_record(half), Err(Entry::Torn)));
        // Non-canonical spellings are torn too, never records.
        for (what, l) in non_canonical_lines() {
            assert!(
                matches!(classify_record(l.as_bytes()), Err(Entry::Torn)),
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
            Err(Entry::Corrupt(_))
        ));
        // delivered > packets would underflow `packets - delivered`.
        let mut inverted = sample_stats();
        inverted.delivered = inverted.packets + 1;
        let Err(Entry::Corrupt(why)) = classify_record(line(id, &inverted).as_bytes()) else {
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
            let mut out = Vec::new();
            encode(&mut out, id, stats);
            out.pop();
            out
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
                        matches!(classify_record(&line[..cut]), Err(Entry::Torn)),
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
        use std::fs;

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::*;
        use crate::campaign::store::pool::{self, record};
        use crate::campaign::store::{temp_store_path, ResultStore};

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
                            store.replace_all(&records).unwrap();
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
                    for id in pool::ids() {
                        prop_assert_eq!(store.table.get(id), model.get(&id).cloned());
                    }
                }
                drop(store);
                let _ = fs::remove_file(&path);
            }
        }
    }
}
