//! Scalar LLR arithmetic behind the Max-Log-MAP kernels.
//!
//! The turbo decoder's trellis sweeps are pure max-plus algebra over one
//! floating type: add branch metrics, take pairwise maxima, negate for
//! the opposite sign hypothesis. [`LlrArith`] abstracts exactly that
//! surface so the same hand-unrolled recursions instantiate as the
//! bit-exact `f64` reference path and as the `Fast32` single-precision
//! tier — and, through const-generic lane arrays, as lockstep batched
//! kernels that auto-vectorize across packets.
//!
//! # The absorbing sentinel
//!
//! Unreachable trellis states carry [`LlrArith::NEG_INF`] instead of a
//! reachability flag. The sentinel must *absorb* any branch metric
//! exactly (`NEG_INF + g == NEG_INF` for every metric magnitude the
//! decoder can produce) so that dropping the reachability guard is a
//! value-identical transformation:
//!
//! * `f64` uses `-1e300`: adding any `|g| < ~1e284` cannot change the
//!   nearest-even rounding of a number this large.
//! * `f32` uses `-1e30`: LLRs are clipped (|LLR| ≤ a few hundred after
//!   HARQ combining), so metrics stay below ~1e6 and `-1e30 + g` rounds
//!   back to `-1e30` for every `|g| < ~1e22`.

/// The scalar arithmetic a Max-Log-MAP sweep needs, implemented by
/// `f64` (exact tier) and `f32` (`Fast32` tier).
pub trait LlrArith:
    Copy
    + PartialOrd
    + core::fmt::Debug
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Absorbing "unreachable state" sentinel (see module docs).
    const NEG_INF: Self;
    /// Additive identity.
    const ZERO: Self;

    /// Narrows (or passes through) a channel LLR into this type.
    fn from_f64(v: f64) -> Self;
    /// Widens back to `f64` for posterior reporting.
    fn to_f64(self) -> f64;
    /// Exact multiplication by ½ (a power of two, lossless in both
    /// precisions).
    fn half(self) -> Self;
    /// `max(a, b)` without NaN baggage — the max-log approximation of
    /// `ln(eᵃ + eᵇ)`. Inputs are never NaN here. Written as a
    /// comparison+select so it compiles to `maxpd`/`maxps` in lane form.
    #[inline(always)]
    fn max_star(a: Self, b: Self) -> Self {
        if b > a {
            b
        } else {
            a
        }
    }
}

impl LlrArith for f64 {
    const NEG_INF: f64 = -1e300;
    const ZERO: f64 = 0.0;

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn half(self) -> f64 {
        0.5 * self
    }
}

impl LlrArith for f32 {
    const NEG_INF: f32 = -1e30;
    const ZERO: f32 = 0.0;

    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn half(self) -> f32 {
        0.5 * self
    }
}

/// Lane-wise `a + b` over a fixed-width lane array; elementwise, so the
/// per-lane value stream is identical at every width (the basis of the
/// batched decoder's lane-for-lane bit-identity at every lane width).
#[inline(always)]
pub fn lanes_add<T: LlrArith, const L: usize>(a: [T; L], b: [T; L]) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = a[i] + b[i];
        i += 1;
    }
    out
}

/// Lane-wise `a - b`.
#[inline(always)]
pub fn lanes_sub<T: LlrArith, const L: usize>(a: [T; L], b: [T; L]) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = a[i] - b[i];
        i += 1;
    }
    out
}

/// Lane-wise negation.
#[inline(always)]
pub fn lanes_neg<T: LlrArith, const L: usize>(a: [T; L]) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = -a[i];
        i += 1;
    }
    out
}

/// Lane-wise exact halving.
#[inline(always)]
pub fn lanes_half<T: LlrArith, const L: usize>(a: [T; L]) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = a[i].half();
        i += 1;
    }
    out
}

/// Lane-wise multiplication by a broadcast scalar (extrinsic scaling).
#[inline(always)]
pub fn lanes_scale<T: LlrArith, const L: usize>(a: [T; L], s: T) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = a[i] * s;
        i += 1;
    }
    out
}

/// Lane-wise max-star (`maxpd`/`maxps` when vectorized).
#[inline(always)]
pub fn lanes_max<T: LlrArith, const L: usize>(a: [T; L], b: [T; L]) -> [T; L] {
    let mut out = a;
    let mut i = 0;
    while i < L {
        out[i] = T::max_star(a[i], b[i]);
        i += 1;
    }
    out
}

/// Loads a lane array from `s[off..off + L]`.
///
/// # Panics
///
/// Panics if the slice is too short.
#[inline(always)]
pub fn lanes_load<T: LlrArith, const L: usize>(s: &[T], off: usize) -> [T; L] {
    s[off..off + L].try_into().expect("lane load in bounds")
}

/// Stores a lane array to `s[off..off + L]`.
///
/// # Panics
///
/// Panics if the slice is too short.
#[inline(always)]
pub fn lanes_store<T: LlrArith, const L: usize>(s: &mut [T], off: usize, v: [T; L]) {
    s[off..off + L].copy_from_slice(&v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_sentinel_absorbs_decoder_metrics() {
        for g in [0.0, 1.0, -250.0, 1e6, -1e6, 1e20] {
            assert_eq!(<f64 as LlrArith>::NEG_INF + g, <f64 as LlrArith>::NEG_INF);
        }
    }

    #[test]
    fn f32_sentinel_absorbs_decoder_metrics() {
        for g in [0.0f32, 1.0, -250.0, 1e6, -1e6] {
            assert_eq!(<f32 as LlrArith>::NEG_INF + g, <f32 as LlrArith>::NEG_INF);
        }
    }

    #[test]
    fn halving_is_exact() {
        for v in [1.0f64, 3.0, -7.25, 1e-3] {
            assert_eq!(v.half(), v * 0.5);
            assert_eq!((v as f32).half(), v as f32 * 0.5);
        }
    }

    #[test]
    fn max_star_matches_ordering() {
        assert_eq!(<f64 as LlrArith>::max_star(1.0, 2.0), 2.0);
        assert_eq!(<f64 as LlrArith>::max_star(2.0, 1.0), 2.0);
        // Ties keep the first operand, matching `if b > a { b } else { a }`
        // — the tie rule of the turbo decoder's reference `fmax`.
        assert_eq!(
            <f64 as LlrArith>::max_star(-0.0, 0.0).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn lane_ops_are_elementwise() {
        let a = [1.0f64, 2.0, 3.0, 4.0];
        let b = [0.5f64, -1.0, 10.0, 0.0];
        assert_eq!(lanes_add(a, b), [1.5, 1.0, 13.0, 4.0]);
        assert_eq!(lanes_sub(a, b), [0.5, 3.0, -7.0, 4.0]);
        assert_eq!(lanes_max(a, b), [1.0, 2.0, 10.0, 4.0]);
        assert_eq!(lanes_neg(a), [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(lanes_half(a), [0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut buf = vec![0.0f32; 12];
        lanes_store(&mut buf, 4, [1.0f32, 2.0, 3.0, 4.0]);
        let back: [f32; 4] = lanes_load(&buf, 4);
        assert_eq!(back, [1.0, 2.0, 3.0, 4.0]);
    }
}
