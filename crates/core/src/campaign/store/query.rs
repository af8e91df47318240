//! Typed query filters over campaign results — the filter-builder
//! surface behind `campaign-admin query`. Filters select manifest
//! points (by key, SNR range, accuracy tier, convergence state), and
//! `shard::query` keeps the records of a full strict store scan
//! (`store::load_all`) whose point key the selection holds.

use crate::campaign::manifest::PointRecord;
use hspa_phy::turbo::AccuracyTier;

/// A conjunction of typed point filters; an empty filter matches every
/// point. Built with the `with_*` builders, applied with
/// [`matches`](Self::matches)/[`select`](Self::select).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryFilter {
    key: Option<u64>,
    snr: Option<(f64, f64)>,
    tier: Option<AccuracyTier>,
    converged: Option<bool>,
}

impl QueryFilter {
    /// The match-everything filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts to one point key (the FNV-1a 64 fingerprint hash).
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Restricts to points with `lo <= snr_db <= hi`.
    pub fn with_snr_range(mut self, lo: f64, hi: f64) -> Self {
        self.snr = Some((lo, hi));
        self
    }

    /// Restricts to points simulated at one accuracy tier.
    pub fn with_tier(mut self, tier: AccuracyTier) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Restricts by convergence state (`true`: Wilson CI met the
    /// precision target within budget).
    pub fn with_converged(mut self, converged: bool) -> Self {
        self.converged = Some(converged);
        self
    }

    /// Whether any restriction is set.
    pub fn is_empty(&self) -> bool {
        self.key.is_none() && self.snr.is_none() && self.tier.is_none() && self.converged.is_none()
    }

    /// Whether one manifest point passes every set restriction.
    pub fn matches(&self, point: &PointRecord) -> bool {
        if let Some(key) = self.key {
            if point.key != key {
                return false;
            }
        }
        if let Some((lo, hi)) = self.snr {
            if point.snr_db < lo || point.snr_db > hi {
                return false;
            }
        }
        if let Some(tier) = self.tier {
            if point.tier != tier {
                return false;
            }
        }
        if let Some(converged) = self.converged {
            if point.converged != converged {
                return false;
            }
        }
        true
    }

    /// The matching subset of `points`, in manifest order.
    pub fn select<'a>(&self, points: &'a [PointRecord]) -> Vec<&'a PointRecord> {
        points.iter().filter(|p| self.matches(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: u64, snr_db: f64, converged: bool, tier: AccuracyTier) -> PointRecord {
        PointRecord {
            index: 0,
            key,
            label: format!("p{key}"),
            snr_db,
            packets: 32,
            max_packets: 64,
            bler: 0.25,
            ci: (0.1, 0.4),
            rel_half_width: 0.2,
            converged,
            chunks: 2,
            chunks_from_store: 0,
            packets_from_store: 0,
            tier,
        }
    }

    #[test]
    fn filters_conjoin() {
        let points = vec![
            point(1, -2.0, true, AccuracyTier::Exact),
            point(2, 4.0, false, AccuracyTier::Exact),
            point(3, 9.0, true, AccuracyTier::Fast32),
        ];
        assert_eq!(QueryFilter::new().select(&points).len(), 3);
        assert!(QueryFilter::new().is_empty());

        let f = QueryFilter::new().with_snr_range(0.0, 10.0);
        assert!(!f.is_empty());
        assert_eq!(
            f.select(&points).iter().map(|p| p.key).collect::<Vec<_>>(),
            vec![2, 3]
        );

        let f = f.with_converged(true);
        assert_eq!(
            f.select(&points).iter().map(|p| p.key).collect::<Vec<_>>(),
            vec![3]
        );

        let f = QueryFilter::new().with_tier(AccuracyTier::Fast32);
        assert_eq!(
            f.select(&points).iter().map(|p| p.key).collect::<Vec<_>>(),
            vec![3]
        );

        assert_eq!(QueryFilter::new().with_key(2).select(&points).len(), 1);
        assert_eq!(QueryFilter::new().with_key(99).select(&points).len(), 0);
    }

    #[test]
    fn snr_bounds_are_inclusive() {
        let points = vec![point(1, 4.0, true, AccuracyTier::Exact)];
        assert_eq!(
            QueryFilter::new()
                .with_snr_range(4.0, 4.0)
                .select(&points)
                .len(),
            1
        );
        assert_eq!(
            QueryFilter::new()
                .with_snr_range(4.1, 9.0)
                .select(&points)
                .len(),
            0
        );
    }
}
