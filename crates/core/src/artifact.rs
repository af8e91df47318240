//! The text layer shared by the hand-rendered artifacts (manifests,
//! live snapshots, event logs, JSONL store records): the escaper the
//! renderers use, the byte cursor the strict readers parse with, and
//! the temp-file + rename write that never exposes a torn file.
//!
//! A strict reader walks the fields in its renderer's order and accepts
//! the input only if rendering what it parsed gives the input back byte
//! for byte ([`canonical`]). That one equality rejects duplicated or
//! reordered keys, whitespace changes, non-canonical numbers, edited
//! derived fields and truncation at any byte.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Appends `s` as the body of a JSON string: `"`, `\` and control
/// characters are escaped, everything else is copied. [`Cursor::string`]
/// is its inverse.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Parses `input` with `parse` and accepts the result only if nothing
/// is left over and `render` reproduces `input` exactly.
pub(crate) fn canonical<T>(
    input: &str,
    parse: impl FnOnce(&mut Cursor<'_>) -> Option<T>,
    render: impl FnOnce(&T) -> String,
) -> Option<T> {
    let mut cur = Cursor(input.as_bytes());
    let value = parse(&mut cur)?;
    (cur.0.is_empty() && render(&value) == input).then_some(value)
}

/// Writes `bytes` to `path` through a sibling temp file and a rename, so
/// a reader sees either the old file or the new one, never a prefix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Each byte's value as a lower-case hex digit, `0xff` if it is none.
const HEX_DIGIT: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The unread rest of an artifact being parsed; every method consumes
/// its token or answers `None`.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl Cursor<'_> {
    /// Consumes the literal `lit`; chains into the next token. The
    /// length is a constant, so the compare compiles inline.
    pub(crate) fn tag<const N: usize>(&mut self, lit: &[u8; N]) -> Option<&mut Self> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        if head != lit {
            return None;
        }
        self.0 = rest;
        Some(self)
    }

    /// Consumes everything up to and including the next newline.
    pub(crate) fn line(&mut self) -> Option<()> {
        let end = self.0.iter().position(|&b| b == b'\n')?;
        self.0 = &self.0[end + 1..];
        Some(())
    }

    /// Consumes exactly 16 lower-case hex digits. Table-driven and
    /// branch-free per digit: a random key would mispredict a branch on
    /// every other nibble.
    pub(crate) fn hex16(&mut self) -> Option<u64> {
        let (digits, rest) = self.0.split_first_chunk::<16>()?;
        let mut value = 0u64;
        let mut invalid = 0u8;
        for &b in digits {
            let nibble = HEX_DIGIT[usize::from(b)];
            invalid |= nibble;
            value = value << 4 | u64::from(nibble & 0xf);
        }
        if invalid > 0xf {
            return None;
        }
        self.0 = rest;
        Some(value)
    }

    /// Consumes a canonical unsigned decimal: no sign, no leading zero,
    /// no overflow.
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let digit = |b: u8| b.wrapping_sub(b'0');
        let (&first, mut rest) = self.0.split_first()?;
        let mut value = u64::from(digit(first));
        if value > 9 {
            return None;
        }
        while let Some((&b, tail)) = rest.split_first() {
            let d = digit(b);
            if d > 9 {
                break;
            }
            if value == 0 {
                return None; // a leading zero
            }
            value = value.checked_mul(10)?.checked_add(u64::from(d))?;
            rest = tail;
        }
        self.0 = rest;
        Some(value)
    }

    /// [`uint`](Self::uint) that must also fit a `usize`.
    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.uint()?).ok()
    }

    /// Consumes a float up to its delimiter (`,`, `}`, `]` or a
    /// newline). Any spelling `f64::from_str` takes is accepted here;
    /// the caller's render check decides whether it was canonical.
    pub(crate) fn float(&mut self) -> Option<f64> {
        let len = self
            .0
            .iter()
            .position(|b| matches!(b, b',' | b'}' | b']' | b'\n'))
            .unwrap_or(self.0.len());
        let (text, rest) = self.0.split_at(len);
        let value = std::str::from_utf8(text).ok()?.parse().ok()?;
        self.0 = rest;
        Some(value)
    }

    /// Consumes `true` or `false`.
    pub(crate) fn boolean(&mut self) -> Option<bool> {
        if self.tag(b"true").is_some() {
            Some(true)
        } else {
            self.tag(b"false").map(|_| false)
        }
    }

    /// Consumes a quoted string, decoding the escapes [`escape_into`]
    /// writes (`\u00XX` for control characters).
    pub(crate) fn string(&mut self) -> Option<String> {
        self.tag(b"\"")?;
        let mut out = Vec::new();
        loop {
            let (&b, rest) = self.0.split_first()?;
            self.0 = rest;
            out.push(match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let (&e, rest) = self.0.split_first()?;
                    self.0 = rest;
                    match e {
                        b'"' | b'\\' => e,
                        b'n' => b'\n',
                        b'u' => {
                            let hex = self.0.get(..4)?.strip_prefix(b"00")?;
                            self.0 = &self.0[4..];
                            u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?
                        }
                        _ => return None,
                    }
                }
                b => b,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_decoding_inverts_escaping() {
        for s in [
            "",
            "plain",
            "6T, Nf=0.10% @ 0 dB",
            "q\"uo\\te\n\u{1}\t",
            "ünï\u{1f}",
        ] {
            let mut quoted = String::from("\"");
            escape_into(&mut quoted, s);
            quoted.push('"');
            let mut cur = Cursor(quoted.as_bytes());
            assert_eq!(cur.string().as_deref(), Some(s), "{quoted}");
            assert!(cur.0.is_empty());
        }
        for bad in [
            "\"open",
            "\"bad \\x escape\"",
            "\"short \\u00\"",
            "no quote",
        ] {
            assert_eq!(Cursor(bad.as_bytes()).string(), None, "{bad}");
        }
    }

    #[test]
    fn tokens_stop_at_their_delimiters() {
        let mut cur = Cursor(b"-2.5, 0.900000}true]");
        assert_eq!(cur.float(), Some(-2.5));
        cur.tag(b", ").unwrap();
        assert_eq!(cur.float(), Some(0.9));
        cur.tag(b"}").unwrap();
        assert_eq!(cur.boolean(), Some(true));
        assert_eq!(cur.0, b"]");
        assert_eq!(Cursor(b",").float(), None, "an empty float is no float");
        assert_eq!(Cursor(b"007").uint(), None);
    }

    #[test]
    fn canonical_demands_the_exact_rendering() {
        let parse = |cur: &mut Cursor<'_>| cur.uint();
        let render = |v: &u64| v.to_string();
        assert_eq!(canonical("42", parse, render), Some(42));
        assert_eq!(canonical("42 ", parse, render), None);
        assert_eq!(canonical("", parse, render), None);
    }

    mod fuzz {
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use hspa_phy::turbo::AccuracyTier;

        use crate::campaign::manifest::PointRecord;
        use crate::campaign::{CampaignSettings, Manifest, ShardSpec};
        use crate::telemetry::{LiveSnapshot, PointProgress};

        /// A label over the characters that need care: quotes,
        /// backslashes, the delimiters, `%`, `@`, control characters
        /// and a non-ASCII letter.
        fn label(rng: &mut StdRng) -> String {
            const CHARS: &[char] = &[
                'a', 'Z', '7', ' ', '"', '\\', ',', '%', '@', '{', '}', '[', ']', ':', '\n', '\t',
                '\u{1}', '\u{e9}',
            ];
            (0..rng.gen_range(0usize..12))
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect()
        }

        fn manifest(rng: &mut StdRng) -> Manifest {
            let shard = match rng.gen_range(0u32..3) {
                0 => ShardSpec::single(),
                1 => ShardSpec::new(1, 3).unwrap(),
                _ => ShardSpec::new(0, 2).unwrap().slice_of(1, 2).unwrap(),
            };
            let settings = CampaignSettings {
                precision: rng.gen_range(0.0..1.0),
                bler_floor: [0.0, 0.15, 0.5][rng.gen_range(0usize..3)],
                initial_chunk: rng.gen_range(1usize..100),
                target_ci: [0.0, 0.05, 0.1][rng.gen_range(0usize..3)],
                shard,
                ..Default::default()
            };
            let mut m = Manifest::new(label(rng), settings);
            m.points_enumerated = rng.gen_range(0u64..1000);
            for index in 0..rng.gen_range(0u64..4) {
                let lo = rng.gen_range(0.0..1.0);
                m.points.push(PointRecord {
                    index,
                    key: rng.gen(),
                    label: label(rng),
                    snr_db: [-2.5, 0.0, 9.0, 18.25][rng.gen_range(0usize..4)],
                    packets: rng.gen_range(0usize..5000),
                    max_packets: rng.gen_range(0usize..5000),
                    bler: rng.gen_range(0.0..1.0),
                    ci: (lo, rng.gen_range(lo..1.0 + f64::EPSILON)),
                    rel_half_width: if rng.gen_range(0u32..8) == 0 {
                        f64::INFINITY
                    } else {
                        rng.gen_range(0.0..4.0)
                    },
                    converged: rng.gen(),
                    chunks: rng.gen_range(0usize..12),
                    chunks_from_store: rng.gen_range(0usize..12),
                    packets_from_store: rng.gen_range(0usize..5000),
                    tier: ["exact", "early-stop", "fast32"][rng.gen_range(0usize..3)]
                        .parse::<AccuracyTier>()
                        .unwrap(),
                });
            }
            m
        }

        fn snapshot(rng: &mut StdRng) -> LiveSnapshot {
            LiveSnapshot {
                seq: rng.gen_range(0u64..1 << 40),
                elapsed_ms: rng.gen_range(0u64..1 << 30),
                done: rng.gen(),
                points_total: rng.gen_range(0u64..100),
                points_converged: rng.gen_range(0u64..100),
                packets_realized: rng.gen_range(0u64..1 << 20),
                packets_from_store: rng.gen_range(0u64..1 << 20),
                packets_simulated: rng.gen_range(0u64..1 << 20),
                packets_per_sec: rng.gen_range(0.0..1e6),
                store_chunk_hits: rng.gen_range(0u64..1000),
                store_chunk_misses: rng.gen_range(0u64..1000),
                points: (0..rng.gen_range(0usize..4))
                    .map(|_| PointProgress {
                        key: rng.gen(),
                        label: label(rng),
                        packets: rng.gen_range(0u64..5000),
                        max_packets: rng.gen_range(0u64..5000),
                        bler: rng.gen_range(0.0..1.0),
                        half_width: rng.gen_range(0.0..1.0),
                        converged: rng.gen(),
                    })
                    .collect(),
            }
        }

        /// Mutates `text` the ways a torn write, a bit flip, a careless
        /// concatenation or a hand edit would, and checks the reader:
        /// every truncation and every duplicated key is rejected, and
        /// any other mutant is accepted only as its own rendering.
        fn check_reader<T>(
            rng: &mut StdRng,
            text: &str,
            other: &str,
            parse: impl Fn(&str) -> Option<T>,
            render: impl Fn(&T) -> String,
        ) -> Result<(), TestCaseError> {
            // render∘parse is the identity on a canonical text.
            let parsed = parse(text);
            prop_assert!(parsed.is_some(), "valid text rejected:\n{text}");
            if let Some(v) = parsed {
                prop_assert_eq!(render(&v), text);
            }
            let accepted_only_as_itself = |mutant: &[u8]| -> Result<(), TestCaseError> {
                if let Some(v) = std::str::from_utf8(mutant).ok().and_then(&parse) {
                    prop_assert_eq!(render(&v).into_bytes(), mutant.to_vec());
                }
                Ok(())
            };
            let bytes = text.as_bytes();
            for cut in 0..bytes.len() {
                if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
                    prop_assert!(parse(prefix).is_none(), "prefix {cut} accepted:\n{prefix}");
                }
            }
            // A duplicate of any `"key": value` field, inserted right
            // ahead of the original. A key's quotes are never escaped
            // and its opening quote follows `{` or a space; a quote
            // inside a label is always escaped.
            let b = text.as_bytes();
            let fields: Vec<(usize, usize)> = text
                .match_indices("\": ")
                .filter(|&(end, _)| b[end - 1] != b'\\')
                .filter_map(|(end, _)| {
                    let start = text[..end].rfind('"')?;
                    let value = text[end..].find([',', '\n'])?;
                    (start > 0 && matches!(b[start - 1], b'{' | b' '))
                        .then_some((start, end + value))
                })
                .collect();
            prop_assert!(!fields.is_empty());
            for _ in 0..8 {
                let (start, end) = fields[rng.gen_range(0..fields.len())];
                let field = &text[start..end];
                let dup = format!("{}{field}, {}", &text[..start], &text[start..]);
                prop_assert!(parse(&dup).is_none(), "duplicated {field} accepted");
            }
            let other = other.as_bytes();
            for _ in 0..64 {
                let mut m = bytes.to_vec();
                let at = rng.gen_range(0..m.len());
                match rng.gen_range(0u32..4) {
                    0 => m[at] ^= 1 << rng.gen_range(0u32..8),
                    1 => m.insert(at, rng.gen_range(0u8..=127)),
                    2 => {
                        m.remove(at);
                    }
                    _ => {
                        m.truncate(at);
                        m.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
                    }
                }
                accepted_only_as_itself(&m)?;
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn manifest_reader_accepts_exactly_canonical_files(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (a, b) = (manifest(&mut rng).render_json(), manifest(&mut rng).render_json());
                check_reader(&mut rng, &a, &b, Manifest::parse, Manifest::render_json)?;
            }

            #[test]
            fn snapshot_reader_accepts_exactly_canonical_files(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (a, b) = (snapshot(&mut rng).render_json(), snapshot(&mut rng).render_json());
                check_reader(&mut rng, &a, &b, LiveSnapshot::parse, LiveSnapshot::render_json)?;
            }
        }
    }
}
