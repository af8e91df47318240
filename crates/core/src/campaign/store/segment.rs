//! The segment codec: append-only binary frames, each checksummed.
//!
//! ```text
//! magic "RSEG0001" (8 bytes)
//! frame*: payload_len u32 LE | crc u32 LE (FNV-1a 32 of payload) | payload
//! payload: point, first, len, packets, delivered, transmissions,
//!          info_bits, n_failures (u64 LE each), then n_failures × u64 LE
//! ```
//!
//! A frame cut short by the end of the file is torn (a `SIGKILL`
//! mid-append); an open truncates it away so fresh appends never weld
//! onto garbage. A complete frame whose checksum, shape or stats
//! invariants fail is corrupt, wherever it sits in the file. Its length
//! field still frames the damage, so the lenient scan steps over it to
//! the next frame.

use std::fs;
use std::path::Path;

use hspa_phy::harq::HarqStats;

use super::{decode_checked, ChunkId, Entry, Slot};

/// The bytes every segment file starts with.
pub(super) const MAGIC: &[u8; 8] = b"RSEG0001";
/// Frame header: payload length + checksum.
const FRAME_HEADER: usize = 8;
/// Fixed payload fields before the failures array.
const PAYLOAD_FIXED: usize = 64;
/// Upper bound on a plausible payload — anything larger is damage, not
/// a record (chunks are at most a few hundred packets).
const MAX_PAYLOAD: usize = 1 << 20;

/// Appends one chunk record to `out` as a frame.
pub(super) fn encode(out: &mut Vec<u8>, id: ChunkId, stats: &HarqStats) {
    let start = out.len();
    let payload_len = PAYLOAD_FIXED + 8 * stats.failures_at.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    for word in [
        id.point,
        id.first_packet as u64,
        id.n_packets as u64,
        stats.packets,
        stats.delivered,
        stats.transmissions,
        stats.info_bits,
        stats.failures_at.len() as u64,
    ]
    .iter()
    .chain(&stats.failures_at)
    {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let crc = fnv1a32(&out[start + FRAME_HEADER..]);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Reads the segment file at `path` and hands `visit` each frame's
/// entry with its byte offset, stopping after a torn frame; records'
/// lists land in `arena`. An empty file (created but never written by
/// an older build) holds no records; any other file must start with
/// [`MAGIC`].
pub(super) fn scan(
    path: &Path,
    arena: &mut Vec<u64>,
    mut visit: impl FnMut(u64, Entry) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    if !bytes.starts_with(MAGIC) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a segment store (bad magic)", path.display()),
        ));
    }
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        let entry = read_frame(&bytes[pos..], arena);
        let torn = matches!(entry, Entry::Torn);
        visit(pos as u64, entry)?;
        if torn {
            break;
        }
        pos += FRAME_HEADER + payload_len(&bytes[pos..]);
    }
    Ok(())
}

/// The payload length a frame header claims (`bytes` holds at least
/// the header).
fn payload_len(bytes: &[u8]) -> usize {
    // lint: allow(no-unwrap, infallible: a 4-byte slice always converts to [u8; 4])
    u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize
}

/// Decodes the frame at the head of `bytes`, its `failures_at` list
/// onto `arena`.
fn read_frame(bytes: &[u8], arena: &mut Vec<u64>) -> Entry {
    if bytes.len() < FRAME_HEADER {
        return Entry::Torn;
    }
    let payload_len = payload_len(bytes);
    if payload_len > MAX_PAYLOAD {
        return Entry::Corrupt(format!("implausible frame length {payload_len}"));
    }
    if bytes.len() < FRAME_HEADER + payload_len {
        return Entry::Torn;
    }
    let payload = &bytes[FRAME_HEADER..FRAME_HEADER + payload_len];
    // lint: allow(no-unwrap, infallible: the FRAME_HEADER length check above guarantees the 4-byte slice)
    if fnv1a32(payload) != u32::from_le_bytes(bytes[4..8].try_into().unwrap()) {
        return Entry::Corrupt("frame checksum mismatch".into());
    }
    if payload_len < PAYLOAD_FIXED || !(payload_len - PAYLOAD_FIXED).is_multiple_of(8) {
        return Entry::Corrupt(format!("malformed frame payload of {payload_len} bytes"));
    }
    // lint: allow(no-unwrap, infallible: the payload shape checks above guarantee every 8-byte word slice)
    let word = |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap());
    // Compare the count the file claims with the one the payload length
    // implies; no arithmetic on the claimed count, which could overflow.
    let n_failures = (payload_len - PAYLOAD_FIXED) / 8;
    if word(7) != n_failures as u64 {
        return Entry::Corrupt(format!(
            "frame claims {} failure entries in a {payload_len}-byte payload",
            word(7)
        ));
    }
    decode_checked(arena, |arena| {
        let start = arena.len();
        arena.extend((0..n_failures).map(|i| word(8 + i)));
        let id = ChunkId {
            point: word(0),
            first_packet: word(1) as usize,
            n_packets: word(2) as usize,
        };
        Entry::Record(
            id,
            Slot {
                packets: word(3),
                delivered: word(4),
                transmissions: word(5),
                info_bits: word(6),
                start,
                len: n_failures,
            },
        )
    })
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
    use std::fs::{self, OpenOptions};
    use std::io::Write;

    use super::super::{
        load_all, load_all_lenient, sample_stats, temp_store_path, write_records, ResultStore,
    };
    use super::*;

    fn id(point: u64, first: usize) -> ChunkId {
        ChunkId {
            point,
            first_packet: first,
            n_packets: 8,
        }
    }

    fn frame(id: ChunkId, stats: &HarqStats) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out, id, stats);
        out
    }

    /// [`read_frame`] into a record of its own.
    fn decode(bytes: &[u8]) -> Result<(ChunkId, HarqStats), Entry> {
        let mut arena = Vec::new();
        match read_frame(bytes, &mut arena) {
            Entry::Record(id, slot) => Ok((id, slot.stats(&arena))),
            other => Err(other),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let good = frame(id(0xdead_beef, 32), &sample_stats());
        let (rid, rstats) = decode(&good).ok().expect("frame must decode");
        assert_eq!(rid, id(0xdead_beef, 32));
        assert_eq!(rstats, sample_stats());
        assert_eq!(FRAME_HEADER + payload_len(&good), good.len());
        // Truncated prefixes are torn, never corrupt.
        for cut in 0..good.len() {
            assert!(matches!(decode(&good[..cut]), Err(Entry::Torn)));
        }
        // A flipped payload byte is a checksum failure.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x5a;
        assert!(matches!(decode(&bad), Err(Entry::Corrupt(_))));
    }

    #[test]
    fn huge_failure_count_with_a_valid_checksum_is_corrupt() {
        // The 64 fixed bytes with word 7 = 1 << 61: `n * 8` wraps to 0,
        // which matches the empty failures array, and the checksum is
        // right — the count alone must be rejected.
        let mut payload =
            frame(id(1, 0), &sample_stats())[FRAME_HEADER..][..PAYLOAD_FIXED].to_vec();
        payload[56..64].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let mut bad = Vec::new();
        bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        bad.extend_from_slice(&payload);
        let Err(Entry::Corrupt(why)) = decode(&bad) else {
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
            let good = frame(id(rng.next_u64(), 0), &stats);
            let other = frame(id(rng.next_u64(), 8), &sample_stats());
            for _ in 0..64 {
                let mut m = good.clone();
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
                if let Ok((rid, rstats)) = decode(&m) {
                    let used = FRAME_HEADER + payload_len(&m);
                    proptest::prop_assert_eq!(frame(rid, &rstats), m[..used].to_vec());
                }
            }
        }
    }

    #[test]
    fn corrupt_frames_error_strictly_and_gc_leniently() {
        let path = temp_store_path("seg-corrupt", "seg");
        let _ = fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(6, 0), &sample_stats()).unwrap();
        }
        // An invariant-violating record (delivered > packets) with a
        // valid checksum: parses, but must never feed statistics.
        let mut bad = sample_stats();
        bad.delivered = bad.packets + 2;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame(id(7, 0), &bad)).unwrap();
        f.write_all(&frame(id(8, 0), &sample_stats())).unwrap();
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
        let _ = fs::remove_file(&path);
    }
}
