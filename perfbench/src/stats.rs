//! Order statistics over timing samples.

use std::collections::BTreeMap;

/// How the results of one slot reduce to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The slot's fastest result.
    Fastest,
    /// The mean of the slot's results.
    Mean,
}

/// Per-slot summary of `(slot, wall, packets)` results: each slot's
/// results reduced by `pick`, their walls averaged over the slots, and
/// their packets per second of their summed walls.
///
/// # Panics
///
/// Panics on an empty sample set, like [`median`].
pub fn per_slot(samples: impl IntoIterator<Item = (usize, f64, f64)>, pick: Pick) -> (f64, f64) {
    let mut slots: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (slot, wall, packets) in samples {
        slots.entry(slot).or_default().push((wall, packets));
    }
    assert!(!slots.is_empty(), "per-slot summary of no samples");
    let (mut wall, mut packets) = (0.0, 0.0);
    for results in slots.values() {
        let n = results.len() as f64;
        let (w, p) = match pick {
            Pick::Fastest => results
                .iter()
                .copied()
                .fold(
                    (f64::INFINITY, 0.0),
                    |best, r| if r.0 < best.0 { r } else { best },
                ),
            Pick::Mean => (
                results.iter().map(|r| r.0).sum::<f64>() / n,
                results.iter().map(|r| r.1).sum::<f64>() / n,
            ),
        };
        wall += w;
        packets += p;
    }
    (wall / slots.len() as f64, packets / wall)
}

/// Sorted copy of finite samples.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample set: every metric is measured at least
/// once, so an empty set is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`), refused unless at least
/// [`MIN_TAIL`] samples lie strictly beyond its rank: a p95 needs 200
/// samples, a p99 1000.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile must be in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_TAIL} are needed",
            q * 100.0
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// Median with a distribution-free ~95 % interval from the binomial
/// order statistics at `n/2 ∓ 0.98·√n` (clamped to the sample range).
pub fn median_interval(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len() as f64;
    let half = 0.98 * n.sqrt();
    let lo = ((n / 2.0 - half).floor().max(0.0)) as usize;
    let hi = ((n / 2.0 + half).ceil() as usize).min(v.len() - 1);
    (v[lo], median(samples), v[hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        let err = percentile(&v, 0.95).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        // Rank 190 of 200: samples 190..199 (ten of them) lie beyond.
        assert_eq!(percentile(&v, 0.95), Ok(189.0));
        assert!(percentile(&v, 0.99).is_err(), "p99 needs 1000 samples");
        assert!(percentile(&v[..20], 0.5).is_ok());
        assert!(percentile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn per_slot_reduces_each_slot_then_averages() {
        let samples = [
            (0, 2.0, 10.0),
            (1, 4.0, 30.0),
            (0, 1.0, 10.0),
            (1, 6.0, 30.0),
        ];
        // Slot 0's best is 1 s and slot 1's 4 s: 2.5 s on average, and
        // 40 packets in 5 s.
        assert_eq!(per_slot(samples, Pick::Fastest), (2.5, 8.0));
        // Means of 1.5 s and 5 s: 3.25 s, and 40 packets in 6.5 s.
        assert_eq!(per_slot(samples, Pick::Mean), (3.25, 40.0 / 6.5));
    }

    #[test]
    fn median_interval_brackets_the_median() {
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        let (lo, mid, hi) = median_interval(&v);
        assert_eq!(mid, 12.0);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        assert_eq!(median_interval(&[5.0]), (5.0, 5.0, 5.0));
    }
}
