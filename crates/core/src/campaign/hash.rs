//! Stable configuration hashing for the campaign result store.
//!
//! Store records must survive process restarts and be shareable between
//! binaries, so keys cannot come from `std::collections::hash_map`'s
//! randomized hasher. Instead every operating point is rendered to a
//! canonical fingerprint string (system config + storage + SNR + seed
//! tree position) and hashed with FNV-1a 64 — stable across runs,
//! platforms and Rust versions.

use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Schema version of the fingerprint layout. Bump on any change to the
/// canonical string — or to simulation behavior itself (decoder,
/// channel, buffer semantics) — so stale stores miss instead of
/// replaying results computed by older physics.
///
/// v2: `SystemConfig` grew `accuracy_tier` (its `Debug` repr, and so the
/// canonical string, changed); stores keyed by v1 predate tiered
/// decoding and must miss. The batch width is deliberately *not* part of
/// the fingerprint — batched and unbatched runs are bit-identical.
pub const FINGERPRINT_VERSION: u32 = 2;

/// Canonical fingerprint of one engine-backed operating point.
///
/// Covers everything that changes the point's statistics: the full link
/// configuration, the storage backend, the SNR (exact bits), the seed of
/// the point's stream subtree and the (possibly overridden) die seed.
pub fn point_fingerprint(
    cfg: &SystemConfig,
    storage: &StorageConfig,
    snr_db: f64,
    seed: u64,
    fault_seed: Option<u64>,
) -> String {
    let fault = match fault_seed {
        Some(s) => format!("{s:016x}"),
        None => "derived".to_string(),
    };
    format!(
        "v{FINGERPRINT_VERSION}|{cfg:?}|{storage:?}|snr={:016x}|seed={seed:016x}|fault={fault}",
        snr_db.to_bits()
    )
}

/// The 64-bit store key of a point fingerprint.
pub fn point_key(fingerprint: &str) -> u64 {
    fnv1a64(fingerprint.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprints_separate_everything() {
        let cfg = SystemConfig::fast_test();
        let mut cfg2 = cfg;
        cfg2.decoder_iterations += 1;
        let tiered = cfg.with_tier(hspa_phy::turbo::AccuracyTier::Fast32);
        assert_ne!(
            point_fingerprint(&cfg, &StorageConfig::Perfect, 10.0, 42, None),
            point_fingerprint(&tiered, &StorageConfig::Perfect, 10.0, 42, None),
            "accuracy tier must key the store"
        );
        let s = StorageConfig::Quantized;
        let s2 = StorageConfig::unprotected(0.1, cfg.llr_bits);
        let t3 = StorageConfig::Transient { p_upset: 1e-3 };
        let base = point_fingerprint(&cfg, &s, 10.0, 42, None);
        for other in [
            point_fingerprint(&cfg2, &s, 10.0, 42, None),
            point_fingerprint(&cfg, &s2, 10.0, 42, None),
            point_fingerprint(&cfg, &t3, 10.0, 42, None),
            point_fingerprint(&cfg, &s, 10.5, 42, None),
            point_fingerprint(&cfg, &s, 10.0, 43, None),
            point_fingerprint(&cfg, &s, 10.0, 42, Some(7)),
        ] {
            assert_ne!(base, other);
            assert_ne!(point_key(&base), point_key(&other));
        }
        // Same inputs → same key, every time.
        assert_eq!(base, point_fingerprint(&cfg, &s, 10.0, 42, None));
    }

    #[test]
    fn custom_fingerprint_tracks_descriptor() {
        // The soft-error descriptor is the `Transient` storage variant:
        // its upset rate must key the store.
        let cfg = SystemConfig::fast_test();
        let t3 = StorageConfig::Transient { p_upset: 1e-3 };
        let t4 = StorageConfig::Transient { p_upset: 1e-4 };
        let a = point_fingerprint(&cfg, &t4, 10.0, 1, None);
        let b = point_fingerprint(&cfg, &t3, 10.0, 1, None);
        assert_ne!(a, b, "the upset rate must key the store");
    }
}
