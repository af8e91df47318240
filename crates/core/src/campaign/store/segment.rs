//! The indexed segment store backend: append-only binary frames plus a
//! persistent point-key index sidecar, so opening a store costs the
//! un-indexed tail (usually nothing) instead of a whole-file parse, and
//! a chunk lookup is one seek + one frame read.
//!
//! ## Segment file (`<name>.seg`)
//!
//! ```text
//! magic "RSEG0001" (8 bytes)
//! frame*: payload_len u32 LE | crc u32 LE (FNV-1a 32 of payload) | payload
//! payload: point, first, len, packets, delivered, transmissions,
//!          info_bits, n_failures (u64 LE each), then n_failures × u64 LE
//! ```
//!
//! ## Index sidecar (`<name>.seg.idx`)
//!
//! ```text
//! magic "RIDX0001" (8 bytes)
//! covered u64 LE — segment bytes the entries below account for
//! entry*: point u64 | first u64 | len u64 | frame offset u64 (LE)
//! ```
//!
//! The sidecar is a **checkpoint**, not a source of truth: appends
//! during a run touch only the segment file, and the next open replays
//! the segment tail past `covered`, then rewrites the sidecar
//! atomically. A missing, stale or damaged sidecar merely degrades one
//! open to a full segment scan — it can never lose or corrupt records.
//! A torn trailing frame (a `SIGKILL` mid-append) is truncated away on
//! open so fresh appends never weld onto garbage; a frame whose
//! checksum or stats invariants fail is corruption and handled exactly
//! like the JSONL backend: strict scans error pointing at
//! `campaign-admin gc`, the lenient scan drops and counts it.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;

use super::{corrupt_error, validate_record, BackendKind, ChunkId, LenientLoad, StoreBackend};

const SEG_MAGIC: &[u8; 8] = b"RSEG0001";
const IDX_MAGIC: &[u8; 8] = b"RIDX0001";
/// Bytes before the first frame (the magic).
const SEG_HEADER: u64 = 8;
/// Frame header: payload length + checksum.
const FRAME_HEADER: usize = 8;
/// Fixed payload fields before the failures array.
const PAYLOAD_FIXED: usize = 64;
/// Upper bound on a plausible payload — anything larger is damage, not
/// a record (chunks are at most a few hundred packets).
const MAX_PAYLOAD: usize = 1 << 20;

/// Indexed binary segment store of per-chunk [`HarqStats`].
#[derive(Debug)]
pub struct SegmentBackend {
    path: PathBuf,
    index_path: PathBuf,
    /// Read handle into the segment file; `None` until opened for
    /// campaign use (attached backends only serve whole-store scans).
    file: Option<File>,
    /// Indexed frames in segment order, duplicates kept.
    frames: Vec<(ChunkId, u64)>,
    /// Latest frame offset per chunk (resume semantics: last write wins).
    // determinism: unordered-ok(keyed access only; never iterated — scans walk the ordered frames vec)
    lookup: HashMap<ChunkId, u64>,
    /// Logical end of the segment — the next append offset.
    end: u64,
}

impl SegmentBackend {
    /// Opens (or creates) the segment store: loads the index sidecar,
    /// replays any segment tail it does not cover, truncates a torn
    /// trailing frame, and checkpoints the refreshed index. With
    /// `resume == false` an existing store (and its sidecar) is
    /// truncated first.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Self> {
        let mut backend = Self::attach(path);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let exists = match fs::metadata(path) {
            Ok(m) => m.len() > 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        if !resume && exists {
            fs::remove_file(path)?;
            let _ = fs::remove_file(&backend.index_path);
        }
        if !(resume && exists) {
            // Materialize an empty store eagerly, same as the JSONL
            // backend: shard artifact collection and merge never chase
            // a file only the first miss would have created.
            fs::write(path, SEG_MAGIC)?;
            backend.end = SEG_HEADER;
            backend.write_index()?;
            backend.file = Some(File::open(path)?);
            return Ok(backend);
        }

        let seg_len = fs::metadata(path)?.len();
        {
            let mut f = File::open(path)?;
            let mut magic = [0u8; 8];
            if seg_len < SEG_HEADER || {
                f.read_exact(&mut magic)?;
                &magic != SEG_MAGIC
            } {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not a segment store (bad magic)", path.display()),
                ));
            }
        }

        // The sidecar is advisory: any damage falls back to covered=0,
        // i.e. a full segment scan.
        let (mut frames, covered) = match backend.read_index(seg_len) {
            Some(ok) => ok,
            None => (Vec::new(), SEG_HEADER),
        };

        // Replay the tail the checkpoint does not cover. Strict
        // semantics, like the JSONL resume load: a torn trailing frame
        // is truncated away, a corrupt frame is an error naming gc.
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(covered))?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail)?;
        let mut pos = 0usize;
        let mut truncate_at = None;
        while pos < tail.len() {
            match read_frame(&tail[pos..]) {
                FrameRead::Ok(id, stats, consumed) => {
                    validate_record(id, stats.packets, stats.delivered)
                        .map_err(|why| corrupt_error(path, covered + pos as u64, &why))?;
                    frames.push((id, covered + pos as u64));
                    pos += consumed;
                }
                FrameRead::Torn => {
                    truncate_at = Some(covered + pos as u64);
                    break;
                }
                FrameRead::Corrupt(why) => {
                    return Err(corrupt_error(path, covered + pos as u64, &why));
                }
            }
        }
        backend.end = truncate_at.unwrap_or(seg_len);
        if truncate_at.is_some() {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(backend.end)?;
            crate::telemetry::counter_add(crate::telemetry::Counter::StoreTornTailsDropped, 1);
        }

        // Frames inherited from the sidecar are trusted here and
        // checksum-verified at fetch time; a stale entry is a warned
        // miss, never corruption. Resume semantics: the lookup keeps
        // the last write per chunk, while the frame list keeps every
        // frame so the sidecar stays duplicate-preserving.
        backend.lookup = frames.iter().copied().collect();
        backend.frames = frames;
        if covered != backend.end {
            // Only checkpoint when the replay learned something; a
            // sidecar that already covers the segment is left alone,
            // keeping a cold open free of writes.
            backend.write_index()?;
        }
        backend.file = Some(File::open(path)?);
        Ok(backend)
    }

    /// Attaches to a path for the whole-store scan surface without
    /// touching the filesystem.
    pub fn attach(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            index_path: path.with_extension("seg.idx"),
            file: None,
            frames: Vec::new(),
            // determinism: unordered-ok(keyed access only; never iterated)
            lookup: HashMap::new(),
            end: SEG_HEADER,
        }
    }

    /// Reads the index sidecar; `None` when it is missing, malformed,
    /// or claims to cover more segment than exists (all of which just
    /// degrade to a full scan).
    fn read_index(&self, seg_len: u64) -> Option<(Vec<(ChunkId, u64)>, u64)> {
        let bytes = fs::read(&self.index_path).ok()?;
        if bytes.len() < 16 || &bytes[..8] != IDX_MAGIC {
            return None;
        }
        let covered = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        if covered < SEG_HEADER || covered > seg_len {
            return None;
        }
        let mut frames = Vec::new();
        // A partial trailing entry (torn sidecar write) is dropped with
        // the whole sidecar: entry count and checkpoint must agree.
        let body = &bytes[16..];
        if body.len() % 32 != 0 {
            return None;
        }
        for entry in body.chunks_exact(32) {
            // lint: allow(no-unwrap, infallible: chunks_exact(32) guarantees every 8-byte sub-slice exists)
            let word = |i: usize| u64::from_le_bytes(entry[i * 8..(i + 1) * 8].try_into().unwrap());
            let id = ChunkId {
                point: word(0),
                first_packet: word(1) as usize,
                n_packets: word(2) as usize,
            };
            let offset = word(3);
            if offset < SEG_HEADER || offset >= covered {
                return None;
            }
            frames.push((id, offset));
        }
        Some((frames, covered))
    }

    /// Atomically rewrites the index sidecar to checkpoint the current
    /// in-memory frame list.
    fn write_index(&self) -> std::io::Result<()> {
        if crate::failpoint::armed() {
            let ctx = self
                .index_path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::IndexCorrupt, ctx) {
                // Silent sidecar rot: a corrupt checkpoint must degrade
                // the next open to a full scan, never lose a record.
                fs::write(&self.index_path, b"RIDX0001 rotted checkpoint")?;
                return Ok(());
            }
        }
        let mut out = Vec::with_capacity(16 + self.frames.len() * 32);
        out.extend_from_slice(IDX_MAGIC);
        out.extend_from_slice(&self.end.to_le_bytes());
        for &(id, offset) in &self.frames {
            out.extend_from_slice(&id.point.to_le_bytes());
            out.extend_from_slice(&(id.first_packet as u64).to_le_bytes());
            out.extend_from_slice(&(id.n_packets as u64).to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
        }
        let mut tmp = self.index_path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &self.index_path)
    }

    /// Scans every frame of the segment file. `strict` errors on the
    /// first corrupt frame; lenient counts it and, when the frame
    /// boundary is still trustworthy, keeps scanning.
    fn scan(&self, strict: bool) -> std::io::Result<LenientLoad> {
        let bytes = fs::read(&self.path)?;
        if bytes.len() < SEG_HEADER as usize || &bytes[..8] != SEG_MAGIC {
            if bytes.is_empty() {
                // An eagerly-created-but-never-written store from an
                // older interrupted run: no records, nothing torn.
                return Ok(LenientLoad::default());
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a segment store (bad magic)", self.path.display()),
            ));
        }
        let mut load = LenientLoad::default();
        let mut pos = SEG_HEADER as usize;
        while pos < bytes.len() {
            match read_frame(&bytes[pos..]) {
                FrameRead::Ok(id, stats, consumed) => {
                    match validate_record(id, stats.packets, stats.delivered) {
                        Ok(()) => load.records.push((id, stats)),
                        Err(why) if strict => {
                            return Err(corrupt_error(&self.path, pos, &why));
                        }
                        Err(_) => load.corrupt_records += 1,
                    }
                    pos += consumed;
                }
                FrameRead::Torn => {
                    load.torn_lines += 1;
                    break;
                }
                FrameRead::Corrupt(why) => {
                    if strict {
                        return Err(corrupt_error(&self.path, pos, &why));
                    }
                    load.corrupt_records += 1;
                    // The length field still frames the damage, so the
                    // scan can step over it to the next boundary.
                    let payload_len =
                        // lint: allow(no-unwrap, infallible: a 4-byte slice always converts to [u8; 4])
                        u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                    pos += FRAME_HEADER + payload_len;
                }
            }
        }
        Ok(load)
    }
}

impl StoreBackend for SegmentBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Indexed
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn len(&self) -> usize {
        self.lookup.len()
    }

    fn get(&mut self, id: ChunkId) -> Option<HarqStats> {
        let offset = *self.lookup.get(&id)?;
        let file = self.file.as_mut()?;
        // Lazy fetch: one seek + one frame read, checksum-verified. A
        // frame that fails here is a warned miss, not an error — the
        // chunk is deterministically re-simulated to the identical
        // stats, so campaign output is unaffected.
        let read = (|| -> std::io::Result<FrameRead> {
            file.seek(SeekFrom::Start(offset))?;
            let mut header = [0u8; FRAME_HEADER];
            file.read_exact(&mut header)?;
            // lint: allow(no-unwrap, infallible: a 4-byte slice always converts to [u8; 4])
            let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            if payload_len > MAX_PAYLOAD {
                return Ok(FrameRead::Corrupt("implausible frame length".into()));
            }
            let mut frame = vec![0u8; FRAME_HEADER + payload_len];
            frame[..FRAME_HEADER].copy_from_slice(&header);
            file.read_exact(&mut frame[FRAME_HEADER..])?;
            Ok(read_frame(&frame))
        })();
        match read {
            Ok(FrameRead::Ok(frame_id, stats, _)) if frame_id == id => Some(stats),
            _ => {
                crate::telemetry::counter_add(crate::telemetry::Counter::StoreIndexStaleMisses, 1);
                eprintln!(
                    "warning: {}: unreadable frame at offset {offset} for chunk \
                     {:016x}/{}+{}; treating as a store miss",
                    self.path.display(),
                    id.point,
                    id.first_packet,
                    id.n_packets
                );
                None
            }
        }
    }

    fn append(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()> {
        let frame = encode_frame(id, stats);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if crate::failpoint::armed() {
            let ctx = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::AppendTorn, ctx) {
                // Tear the frame mid-write and die, like a SIGKILL
                // mid-append: the half frame becomes the segment tail,
                // which the next open truncates away.
                file.write_all(&frame[..frame.len() / 2])?;
                file.flush()?;
                std::process::exit(43);
            }
        }
        file.write_all(&frame)?;
        self.frames.push((id, self.end));
        self.lookup.insert(id, self.end);
        self.end += frame.len() as u64;
        Ok(())
    }

    fn load_all(&self) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
        let load = self.scan(true)?;
        Ok((load.records, load.torn_lines))
    }

    fn load_all_lenient(&self) -> std::io::Result<LenientLoad> {
        self.scan(false)
    }

    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = Vec::from(*SEG_MAGIC);
        let mut frames = Vec::with_capacity(records.len());
        for (id, stats) in records {
            frames.push((*id, out.len() as u64));
            out.extend_from_slice(&encode_frame(*id, stats));
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &out)?;
        fs::rename(&tmp, &self.path)?;
        self.end = out.len() as u64;
        self.lookup = frames.iter().copied().collect();
        self.frames = frames;
        self.write_index()?;
        if self.file.is_some() {
            // The rename orphaned the old inode behind the read handle.
            self.file = Some(File::open(&self.path)?);
        }
        Ok(())
    }
}

/// One attempt to decode a frame from the head of `bytes`.
enum FrameRead {
    /// A valid frame: id, stats, and the bytes it consumed.
    Ok(ChunkId, HarqStats, usize),
    /// Not enough bytes for a whole frame — the torn tail of an
    /// interrupted append.
    Torn,
    /// A complete frame that fails its checksum or shape checks.
    Corrupt(String),
}

fn read_frame(bytes: &[u8]) -> FrameRead {
    if bytes.len() < FRAME_HEADER {
        return FrameRead::Torn;
    }
    // lint: allow(no-unwrap, infallible: the FRAME_HEADER length check above guarantees both 4-byte slices)
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    // lint: allow(no-unwrap, infallible: the FRAME_HEADER length check above guarantees both 4-byte slices)
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return FrameRead::Corrupt(format!("implausible frame length {payload_len}"));
    }
    if bytes.len() < FRAME_HEADER + payload_len {
        return FrameRead::Torn;
    }
    let payload = &bytes[FRAME_HEADER..FRAME_HEADER + payload_len];
    if fnv1a32(payload) != crc {
        return FrameRead::Corrupt("frame checksum mismatch".into());
    }
    if payload_len < PAYLOAD_FIXED || !(payload_len - PAYLOAD_FIXED).is_multiple_of(8) {
        return FrameRead::Corrupt(format!("malformed frame payload of {payload_len} bytes"));
    }
    // lint: allow(no-unwrap, infallible: the payload shape checks above guarantee every 8-byte word slice)
    let word = |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap());
    // Compare the count the file claims with the one the payload length
    // implies; no arithmetic on the claimed count, which could overflow.
    let n_failures = (payload_len - PAYLOAD_FIXED) / 8;
    if word(7) != n_failures as u64 {
        return FrameRead::Corrupt(format!(
            "frame claims {} failure entries in a {payload_len}-byte payload",
            word(7)
        ));
    }
    let id = ChunkId {
        point: word(0),
        first_packet: word(1) as usize,
        n_packets: word(2) as usize,
    };
    let stats = HarqStats {
        packets: word(3),
        delivered: word(4),
        transmissions: word(5),
        info_bits: word(6),
        failures_at: (0..n_failures).map(|i| word(8 + i)).collect(),
    };
    FrameRead::Ok(id, stats, FRAME_HEADER + payload_len)
}

fn encode_frame(id: ChunkId, stats: &HarqStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_FIXED + stats.failures_at.len() * 8);
    for word in [
        id.point,
        id.first_packet as u64,
        id.n_packets as u64,
        stats.packets,
        stats.delivered,
        stats.transmissions,
        stats.info_bits,
        stats.failures_at.len() as u64,
    ] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    for &f in &stats.failures_at {
        payload.extend_from_slice(&f.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// FNV-1a 32 — the sibling of the 64-bit point-fingerprint hash.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = 0x811c_9dc5u32;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::super::{
        load_all, load_all_lenient, sample_stats, temp_store_path, write_records, ResultStore,
    };
    use super::*;

    fn clean(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(path.with_extension("seg.idx"));
    }

    fn id(point: u64, first: usize) -> ChunkId {
        ChunkId {
            point,
            first_packet: first,
            n_packets: 8,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(id(0xdead_beef, 32), &sample_stats());
        let FrameRead::Ok(rid, rstats, consumed) = read_frame(&frame) else {
            panic!("frame must decode");
        };
        assert_eq!(rid, id(0xdead_beef, 32));
        assert_eq!(rstats, sample_stats());
        assert_eq!(consumed, frame.len());
        // Truncated prefixes are torn, never corrupt.
        for cut in 0..frame.len() {
            assert!(matches!(read_frame(&frame[..cut]), FrameRead::Torn));
        }
        // A flipped payload byte is a checksum failure.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x5a;
        assert!(matches!(read_frame(&bad), FrameRead::Corrupt(_)));
    }

    #[test]
    fn huge_failure_count_with_a_valid_checksum_is_corrupt() {
        // The 64 fixed bytes with word 7 = 1 << 61: `n * 8` wraps to 0,
        // which matches the empty failures array, and the checksum is
        // right — the count alone must be rejected.
        let mut frame = encode_frame(id(1, 0), &sample_stats());
        let mut payload = frame[FRAME_HEADER..FRAME_HEADER + PAYLOAD_FIXED].to_vec();
        payload[56..64].copy_from_slice(&(1u64 << 61).to_le_bytes());
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let FrameRead::Corrupt(why) = read_frame(&frame) else {
            panic!("a frame claiming 2^61 failures must be corrupt");
        };
        assert!(why.contains("failure entries"), "{why}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]
        #[test]
        fn read_frame_never_panics_on_damage(seed in 0u64..u64::MAX) {
            use rand::{Rng, RngCore, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let stats = HarqStats {
                failures_at: (0..rng.gen_range(0usize..6)).map(|_| rng.next_u64()).collect(),
                ..sample_stats()
            };
            let frame = encode_frame(id(rng.next_u64(), 0), &stats);
            let other = encode_frame(id(rng.next_u64(), 8), &sample_stats());
            for _ in 0..64 {
                let mut m = frame.clone();
                let at = rng.gen_range(0..m.len());
                match rng.gen_range(0u32..4) {
                    0 => m.truncate(at),
                    1 => m[at] ^= 1 << rng.gen_range(0u32..8),
                    2 => {
                        // A damaged length or count word with its
                        // checksum recomputed: only the shape checks
                        // stand between it and the decoder.
                        let word = rng.gen_range(0usize..8);
                        let at = FRAME_HEADER + word * 8 + rng.gen_range(0usize..8);
                        m[at] ^= 1 << rng.gen_range(0u32..8);
                        let crc = fnv1a32(&m[FRAME_HEADER..]);
                        m[4..8].copy_from_slice(&crc.to_le_bytes());
                    }
                    _ => {
                        m.truncate(at);
                        m.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
                    }
                }
                // Never a panic; a decoded frame is exactly the bytes a
                // record encodes to.
                if let FrameRead::Ok(rid, rstats, used) = read_frame(&m) {
                    proptest::prop_assert_eq!(encode_frame(rid, &rstats), m[..used].to_vec());
                }
            }
        }
    }

    #[test]
    fn open_replays_only_the_unindexed_tail_and_truncates_torn_frames() {
        let path = temp_store_path("seg-tail", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(1, 0), &sample_stats()).unwrap();
        }
        // Appends past the checkpoint (simulating a run that died before
        // any reopen), plus a torn half-frame from a SIGKILL mid-append.
        let full = encode_frame(id(2, 0), &sample_stats());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full).unwrap();
        f.write_all(&full[..full.len() / 2]).unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();

        let mut store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2, "tail frame replayed");
        assert_eq!(store.fetch(id(2, 0)).unwrap(), sample_stats());
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            before - (full.len() as u64 - full.len() as u64 / 2),
            "torn tail truncated away"
        );
        // Fresh appends after the truncation read back cleanly.
        store.put(id(3, 0), &sample_stats()).unwrap();
        drop(store);
        let (records, torn) = load_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(torn, 0);
        clean(&path);
    }

    #[test]
    fn damaged_or_missing_sidecar_degrades_to_a_full_scan() {
        let path = temp_store_path("seg-noidx", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(5, 0), &sample_stats()).unwrap();
            store.put(id(5, 8), &sample_stats()).unwrap();
        }
        let idx = path.with_extension("seg.idx");
        fs::remove_file(&idx).unwrap();
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.fetch(id(5, 8)).unwrap(), sample_stats());
        }
        assert!(fs::metadata(&idx).unwrap().len() > 16, "sidecar rebuilt");
        // Garbage sidecar: same degradation, no error.
        fs::write(&idx, b"RIDX0001garbage").unwrap();
        let store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2);
        clean(&path);
    }

    #[test]
    fn corrupt_frames_error_strictly_and_gc_leniently() {
        let path = temp_store_path("seg-corrupt", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(6, 0), &sample_stats()).unwrap();
        }
        // An invariant-violating record (delivered > packets) with a
        // valid checksum: parses, but must never feed statistics.
        let mut bad = sample_stats();
        bad.delivered = bad.packets + 2;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&encode_frame(id(7, 0), &bad)).unwrap();
        f.write_all(&encode_frame(id(8, 0), &sample_stats()))
            .unwrap();
        drop(f);

        let err = load_all(&path).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
        let err = ResultStore::open(&path, true).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");

        let load = load_all_lenient(&path).unwrap();
        assert_eq!(load.records.len(), 2, "good frames survive");
        assert_eq!((load.torn_lines, load.corrupt_records), (0, 1));

        // gc's rewrite path: write back only the good records.
        write_records(&path, &load.records).unwrap();
        let (records, torn) = load_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(torn, 0);
        let store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2);
        clean(&path);
    }

    #[test]
    fn stale_sidecar_entry_is_a_warned_miss_not_an_error() {
        let path = temp_store_path("seg-stale", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(9, 0), &sample_stats()).unwrap();
        }
        // Appends never touch the sidecar; a reopen replays the tail
        // and checkpoints the index so it now covers the frame.
        drop(ResultStore::open(&path, true).unwrap());
        // Flip a payload byte behind the sidecar's back: the index
        // still points at the frame, the checksum no longer matches.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        // Open trusts the sidecar (no tail to replay)…
        let mut store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 1);
        // …and the damage surfaces as a fetch miss, not a panic.
        assert!(store.fetch(id(9, 0)).is_none());
        assert_eq!(store.misses, 1);
        clean(&path);
    }
}
