//! The scalar reference decoder the lockstep kernel is checked against.
//!
//! A one-codeword-at-a-time Max-Log-MAP turbo decoder built only from
//! the public trellis and interleaver items of `hspa_phy::turbo`; the
//! `Exact` goldens in `tests/decode_golden.rs` were generated with this
//! formulation. The equivalence suite in `tests/batch_equivalence.rs`
//! compares every lane of every kernel width against it bit for bit.
//!
//! The SISO is hand-unrolled against the fixed 8-state trellis in gather
//! form, with per-step branch metrics shared by both sweeps and a
//! backward sweep fused with the extrinsic/posterior accumulation. The
//! table-driven three-sweep form at the bottom of this file (driven by
//! [`NEXT_STATE`]/[`PARITY`]) pins the unrolled wiring, so the oracle
//! itself rests on the trellis definition rather than on a second copy
//! of the same hand-written code.

use hspa_phy::turbo::{
    DecodeResult, TurboInterleaver, EXTRINSIC_SCALE, NEXT_STATE, PARITY, RSC_STATES, TAIL_BITS,
};

const NEG_INF: f64 = -1e300;

/// Optional hard-decision validity check threaded through the decode
/// loop (the transport-block CRC in the link simulator).
type StopCheck<'c> = Option<&'c dyn Fn(&[u8]) -> bool>;

/// Reusable workspace of [`MaxLogMapDecoder`]; every vector is cleared
/// and refilled in place each call.
#[derive(Debug, Clone, Default)]
pub struct ReferenceScratch {
    /// Decoder-1 systematic observations (`K + 3`, tail included).
    sys1: Vec<f64>,
    /// Decoder-1 parity observations (`K + 3`).
    p1: Vec<f64>,
    /// Decoder-2 (interleaved) systematic observations (`K + 3`).
    sys2: Vec<f64>,
    /// Decoder-2 parity observations (`K + 3`).
    p2: Vec<f64>,
    /// A-priori LLRs entering decoder 1 / decoder 2 (`K` each).
    apriori1: Vec<f64>,
    apriori2: Vec<f64>,
    /// Extrinsic outputs of the two decoders (`K` each).
    ext1: Vec<f64>,
    ext2: Vec<f64>,
    /// Posterior of decoder 1 (natural order) and decoder 2
    /// (interleaved order), plus the deinterleaved final posterior.
    post1: Vec<f64>,
    post2: Vec<f64>,
    posterior: Vec<f64>,
    /// Forward trellis metrics: one `(n+1) × RSC_STATES` row matrix.
    alpha: Vec<[f64; RSC_STATES]>,
    /// Per-step branch metrics `[½(spa+lp), ½(spa−lp)]`; the other two
    /// sign combinations are exact negations.
    gamma: Vec<[f64; 2]>,
}

impl ReferenceScratch {
    /// Fresh workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The scalar Max-Log-MAP turbo decoder bound to one interleaver.
#[derive(Debug, Clone)]
pub struct MaxLogMapDecoder<'a> {
    k: usize,
    interleaver: &'a TurboInterleaver,
    scale: f64,
}

impl<'a> MaxLogMapDecoder<'a> {
    /// Creates a decoder for block length `k` using `interleaver`.
    ///
    /// # Panics
    ///
    /// Panics if the interleaver length differs from `k`.
    pub fn new(k: usize, interleaver: &'a TurboInterleaver) -> Self {
        assert_eq!(interleaver.k(), k, "interleaver length mismatch");
        Self {
            k,
            interleaver,
            scale: EXTRINSIC_SCALE,
        }
    }

    /// Overrides the extrinsic scaling factor (1.0 = plain max-log).
    pub fn with_extrinsic_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Decodes channel LLRs in the `TurboCode::encode` layout with a
    /// fresh workspace. Runs at most `iterations` turbo iterations,
    /// stopping early when both constituent decoders agree on every hard
    /// decision.
    pub fn decode(&self, llrs: &[f64], iterations: usize) -> DecodeResult {
        let mut scratch = ReferenceScratch::new();
        let mut out = DecodeResult::new();
        self.decode_into(llrs, iterations, &mut scratch, &mut out);
        out
    }

    /// [`MaxLogMapDecoder::decode`] reusing `scratch` and `out`.
    pub fn decode_into(
        &self,
        llrs: &[f64],
        iterations: usize,
        scratch: &mut ReferenceScratch,
        out: &mut DecodeResult,
    ) {
        self.decode_internal(llrs, iterations, scratch, out, None);
    }

    /// [`MaxLogMapDecoder::decode_into`] with an external validity check
    /// (the `early-stop` tier's CRC): iteration stops as soon as the
    /// current hard decisions satisfy `stop`, including after the first
    /// half-iteration — when decoder 1 alone already produces a valid
    /// block, the second SISO pass is skipped entirely. When no candidate
    /// satisfies `stop`, the output is that of `decode_into`.
    pub fn decode_into_with_stop(
        &self,
        llrs: &[f64],
        iterations: usize,
        scratch: &mut ReferenceScratch,
        out: &mut DecodeResult,
        stop: &dyn Fn(&[u8]) -> bool,
    ) {
        self.decode_internal(llrs, iterations, scratch, out, Some(stop));
    }

    fn decode_internal(
        &self,
        llrs: &[f64],
        iterations: usize,
        scratch: &mut ReferenceScratch,
        out: &mut DecodeResult,
        stop: StopCheck<'_>,
    ) {
        let k = self.k;
        assert_eq!(llrs.len(), 3 * k + 4 * TAIL_BITS, "LLR length mismatch");
        let sys = &llrs[0..k];
        let par1 = &llrs[k..2 * k];
        let par2 = &llrs[2 * k..3 * k];
        let tail1 = &llrs[3 * k..3 * k + 2 * TAIL_BITS];
        let tail2 = &llrs[3 * k + 2 * TAIL_BITS..3 * k + 4 * TAIL_BITS];
        let perm = self.interleaver.permutation();
        let inv = self.interleaver.inverse();

        // Decoder 1 observations: systematic + parity1 (+ its tail).
        scratch.sys1.clear();
        scratch.sys1.extend_from_slice(sys);
        scratch.p1.clear();
        scratch.p1.extend_from_slice(par1);
        // Decoder 2 observations: interleaved systematic + parity2 (+ tail).
        scratch.sys2.clear();
        scratch.sys2.extend(perm.iter().map(|&i| sys[i]));
        scratch.p2.clear();
        scratch.p2.extend_from_slice(par2);
        for t in 0..TAIL_BITS {
            scratch.sys1.push(tail1[2 * t]);
            scratch.p1.push(tail1[2 * t + 1]);
            scratch.sys2.push(tail2[2 * t]);
            scratch.p2.push(tail2[2 * t + 1]);
        }

        scratch.apriori1.clear();
        scratch.apriori1.resize(k, 0.0);
        let mut iterations_run = 0;
        for _ in 0..iterations.max(1) {
            iterations_run += 1;
            siso(
                &scratch.sys1,
                &scratch.p1,
                &scratch.apriori1,
                k,
                &mut scratch.alpha,
                &mut scratch.gamma,
                &mut scratch.ext1,
                &mut scratch.post1,
            );
            if let Some(stop) = stop {
                // CRC-checked early stop after the first half-iteration:
                // if decoder 1 alone already yields a valid block, skip
                // the second SISO pass (and all remaining iterations).
                hard_decisions(&scratch.post1, &mut out.bits);
                if stop(&out.bits) {
                    out.llrs.clear();
                    out.llrs.extend_from_slice(&scratch.post1);
                    out.iterations_run = iterations_run;
                    return;
                }
            }
            scratch.apriori2.clear();
            scratch
                .apriori2
                .extend(perm.iter().map(|&i| scratch.ext1[i] * self.scale));
            siso(
                &scratch.sys2,
                &scratch.p2,
                &scratch.apriori2,
                k,
                &mut scratch.alpha,
                &mut scratch.gamma,
                &mut scratch.ext2,
                &mut scratch.post2,
            );
            for (a, &i) in scratch.apriori1.iter_mut().zip(inv.iter()) {
                *a = scratch.ext2[i] * self.scale;
            }
            scratch.posterior.clear();
            scratch
                .posterior
                .extend(inv.iter().map(|&i| scratch.post2[i]));
            // Early stop: both decoders agree on all hard decisions.
            let agree = scratch
                .post1
                .iter()
                .zip(&scratch.posterior)
                .all(|(&a, &b)| (a >= 0.0) == (b >= 0.0));
            if agree {
                break;
            }
            if let Some(stop) = stop {
                hard_decisions(&scratch.posterior, &mut out.bits);
                if stop(&out.bits) {
                    out.llrs.clear();
                    out.llrs.extend_from_slice(&scratch.posterior);
                    out.iterations_run = iterations_run;
                    return;
                }
            }
        }

        hard_decisions(&scratch.posterior, &mut out.bits);
        out.llrs.clear();
        out.llrs.extend_from_slice(&scratch.posterior);
        out.iterations_run = iterations_run;
    }
}

/// Hard decisions from posterior LLRs (positive favours 0), reusing `out`.
fn hard_decisions(llrs: &[f64], out: &mut Vec<u8>) {
    out.clear();
    out.extend(llrs.iter().map(|&l| if l >= 0.0 { 0u8 } else { 1u8 }));
}

/// `max(a, b)` without NaN semantics baggage; inputs are never NaN here.
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// One SISO Max-Log-MAP pass over a terminated RSC trellis.
///
/// `sys`/`par` have length `K + 3` (info + tail observations); `apriori`
/// has length `K`. Fills `extrinsic` and `posterior` for the `K` info
/// bits, using `alpha`/`gamma` as reusable trellis workspace.
///
/// Outputs are bit-identical to the three-sweep scatter formulation
/// ([`siso_table_driven`]):
///
/// * sign flips and the `½·` scaling are exact in IEEE-754, so storing
///   two branch metrics per step and negating them reproduces the
///   per-transition values;
/// * `max` over a transition set is order-independent for non-NaN
///   values, so gather vs. scatter accumulation is value-identical;
/// * dropping the reachability guard is exact because unreachable
///   states carry `-1e300`, which absorbs any branch metric
///   (`-1e300 + g == -1e300` exactly for `|g| < ~1e284`), leaving every
///   max unchanged;
/// * all three-term sums keep the association `(alpha + gamma) + beta`.
#[allow(clippy::too_many_arguments)]
fn siso(
    sys: &[f64],
    par: &[f64],
    apriori: &[f64],
    k: usize,
    alpha: &mut Vec<[f64; RSC_STATES]>,
    gamma: &mut Vec<[f64; 2]>,
    extrinsic: &mut Vec<f64>,
    posterior: &mut Vec<f64>,
) {
    let n = k + TAIL_BITS;
    debug_assert_eq!(sys.len(), n);
    debug_assert_eq!(par.len(), n);
    debug_assert_eq!(apriori.len(), k);

    // Forward recursion, computing and stashing the two branch metrics
    // per step on the way (the backward sweep re-reads them). Every row
    // t+1 is fully written, so only row 0 needs explicit initialization.
    gamma.clear();
    gamma.resize(n, [0.0; 2]);
    let mut init = [NEG_INF; RSC_STATES];
    init[0] = 0.0;
    alpha.resize(n + 1, init);
    alpha[0] = init;
    let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7] = init;
    for (t, (row, g_slot)) in alpha[1..].iter_mut().zip(gamma.iter_mut()).enumerate() {
        let la = if t < k { apriori[t] } else { 0.0 };
        let spa = sys[t] + la;
        let lp = par[t];
        let g0 = 0.5 * (spa + lp);
        let g1 = 0.5 * (spa - lp);
        *g_slot = [g0, g1];
        let g2 = -g1;
        let g3 = -g0;
        let b0 = fmax(a0 + g0, a4 + g3);
        let b1 = fmax(a0 + g3, a4 + g0);
        let b2 = fmax(a1 + g1, a5 + g2);
        let b3 = fmax(a1 + g2, a5 + g1);
        let b4 = fmax(a2 + g2, a6 + g1);
        let b5 = fmax(a2 + g1, a6 + g2);
        let b6 = fmax(a3 + g3, a7 + g0);
        let b7 = fmax(a3 + g0, a7 + g3);
        *row = [b0, b1, b2, b3, b4, b5, b6, b7];
        (a0, a1, a2, a3, a4, a5, a6, a7) = (b0, b1, b2, b3, b4, b5, b6, b7);
    }

    // Backward recursion (terminated: final state 0), fused with the
    // extrinsic/posterior accumulation: step t needs only alpha[t],
    // gamma[t] and beta[t+1], so one reverse sweep produces everything
    // with two beta rows instead of a full matrix. Tail steps (t >= k,
    // no info bit) only advance beta.
    extrinsic.clear();
    extrinsic.resize(k, 0.0);
    posterior.clear();
    posterior.resize(k, 0.0);
    let mut beta = [NEG_INF; RSC_STATES];
    beta[0] = 0.0;
    for &[g0, g1] in gamma[k..].iter().rev() {
        let g2 = -g1;
        let g3 = -g0;
        let [bn0, bn1, bn2, bn3, bn4, bn5, bn6, bn7] = beta;
        beta = [
            fmax(g0 + bn0, g3 + bn1),
            fmax(g1 + bn2, g2 + bn3),
            fmax(g1 + bn5, g2 + bn4),
            fmax(g0 + bn7, g3 + bn6),
            fmax(g0 + bn1, g3 + bn0),
            fmax(g1 + bn3, g2 + bn2),
            fmax(g1 + bn4, g2 + bn5),
            fmax(g0 + bn6, g3 + bn7),
        ];
    }
    let info = gamma[..k]
        .iter()
        .zip(alpha[..k].iter())
        .zip(sys[..k].iter().zip(apriori.iter()))
        .zip(posterior.iter_mut().zip(extrinsic.iter_mut()))
        .rev();
    for (((&[g0, g1], arow), (&ls, &la)), (p_slot, e_slot)) in info {
        let g2 = -g1;
        let g3 = -g0;
        let [bn0, bn1, bn2, bn3, bn4, bn5, bn6, bn7] = beta;
        // Posterior LLR of info bit t from alpha[t], gamma[t], beta[t+1].
        let [a0, a1, a2, a3, a4, a5, a6, a7] = *arow;
        let max0 = fmax(
            fmax(
                fmax(a0 + g0 + bn0, a1 + g1 + bn2),
                fmax(a2 + g1 + bn5, a3 + g0 + bn7),
            ),
            fmax(
                fmax(a4 + g0 + bn1, a5 + g1 + bn3),
                fmax(a6 + g1 + bn4, a7 + g0 + bn6),
            ),
        );
        let max1 = fmax(
            fmax(
                fmax(a0 + g3 + bn1, a1 + g2 + bn3),
                fmax(a2 + g2 + bn4, a3 + g3 + bn6),
            ),
            fmax(
                fmax(a4 + g3 + bn0, a5 + g2 + bn2),
                fmax(a6 + g2 + bn5, a7 + g3 + bn7),
            ),
        );
        let l = max0 - max1;
        *p_slot = l;
        *e_slot = l - ls - la;
        beta = [
            fmax(g0 + bn0, g3 + bn1),
            fmax(g1 + bn2, g2 + bn3),
            fmax(g1 + bn5, g2 + bn4),
            fmax(g0 + bn7, g3 + bn6),
            fmax(g0 + bn1, g3 + bn0),
            fmax(g1 + bn3, g2 + bn2),
            fmax(g1 + bn4, g2 + bn5),
            fmax(g0 + bn6, g3 + bn7),
        ];
    }
}

/// Three-sweep scatter-form SISO driven entirely by the
/// [`NEXT_STATE`]/[`PARITY`] trellis tables. [`siso`] hand-unrolls that
/// wiring; the self-test below keeps the two in bit-exact lockstep, so a
/// trellis edit that touches one but not the other fails loudly.
fn siso_table_driven(sys: &[f64], par: &[f64], apriori: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
    let n = k + TAIL_BITS;
    let gamma: Vec<[f64; 4]> = (0..n)
        .map(|t| {
            let la = if t < k { apriori[t] } else { 0.0 };
            let spa = sys[t] + la;
            let lp = par[t];
            [
                0.5 * (spa + lp),
                0.5 * (spa - lp),
                -(0.5 * (spa - lp)),
                -(0.5 * (spa + lp)),
            ]
        })
        .collect();
    let mut alpha = vec![[NEG_INF; RSC_STATES]; n + 1];
    alpha[0][0] = 0.0;
    for t in 0..n {
        for s in 0..RSC_STATES {
            for b in 0..2 {
                let cand = alpha[t][s] + gamma[t][2 * b + PARITY[s][b] as usize];
                let ns = NEXT_STATE[s][b];
                if cand > alpha[t + 1][ns] {
                    alpha[t + 1][ns] = cand;
                }
            }
        }
    }
    let mut beta = vec![[NEG_INF; RSC_STATES]; n + 1];
    beta[n][0] = 0.0;
    for t in (0..n).rev() {
        for s in 0..RSC_STATES {
            for b in 0..2 {
                let cand = gamma[t][2 * b + PARITY[s][b] as usize] + beta[t + 1][NEXT_STATE[s][b]];
                if cand > beta[t][s] {
                    beta[t][s] = cand;
                }
            }
        }
    }
    let mut ext = vec![0.0; k];
    let mut post = vec![0.0; k];
    for t in 0..k {
        let mut max0 = NEG_INF;
        let mut max1 = NEG_INF;
        for s in 0..RSC_STATES {
            for b in 0..2 {
                let m = alpha[t][s]
                    + gamma[t][2 * b + PARITY[s][b] as usize]
                    + beta[t + 1][NEXT_STATE[s][b]];
                if b == 0 {
                    if m > max0 {
                        max0 = m;
                    }
                } else if m > max1 {
                    max1 = m;
                }
            }
        }
        let l = max0 - max1;
        post[t] = l;
        ext[t] = l - sys[t] - apriori[t];
    }
    (ext, post)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::rng::{random_bits, seeded, standard_normal};
    use hspa_phy::turbo::{Rsc, TurboCode};

    fn siso_simple(sys: &[f64], par: &[f64], apriori: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
        let mut alpha = Vec::new();
        let mut gamma = Vec::new();
        let mut ext = Vec::new();
        let mut post = Vec::new();
        siso(
            sys, par, apriori, k, &mut alpha, &mut gamma, &mut ext, &mut post,
        );
        (ext, post)
    }

    #[test]
    fn unrolled_siso_matches_table_driven_reference_bit_for_bit() {
        let k = 80;
        let mut rng = seeded(23);
        for trial in 0..8 {
            let n = k + TAIL_BITS;
            let sys: Vec<f64> = (0..n).map(|_| 3.0 * standard_normal(&mut rng)).collect();
            let par: Vec<f64> = (0..n).map(|_| 3.0 * standard_normal(&mut rng)).collect();
            let apriori: Vec<f64> = (0..k).map(|_| standard_normal(&mut rng)).collect();
            let (ext_a, post_a) = siso_simple(&sys, &par, &apriori, k);
            let (ext_b, post_b) = siso_table_driven(&sys, &par, &apriori, k);
            // Exact equality, not approximate: the unrolled gather form
            // must reproduce the scatter form to the last bit.
            assert_eq!(ext_a, ext_b, "extrinsic diverged, trial {trial}");
            assert_eq!(post_a, post_b, "posterior diverged, trial {trial}");
        }
    }

    #[test]
    fn siso_decodes_single_rsc_cleanly() {
        // Encode with one RSC, decode with one SISO pass: strong LLRs must
        // produce matching hard decisions even without iteration.
        let k = 60;
        let mut rng = seeded(2);
        let bits = random_bits(&mut rng, k);
        let mut enc = Rsc::new();
        let par: Vec<u8> = bits.iter().map(|&b| enc.step(b)).collect();
        let tail = enc.terminate();
        let mag = 4.0;
        let mut sys: Vec<f64> = bits.iter().map(|&b| mag * (1.0 - 2.0 * b as f64)).collect();
        let mut p: Vec<f64> = par.iter().map(|&b| mag * (1.0 - 2.0 * b as f64)).collect();
        for t in 0..TAIL_BITS {
            sys.push(mag * (1.0 - 2.0 * tail[2 * t] as f64));
            p.push(mag * (1.0 - 2.0 * tail[2 * t + 1] as f64));
        }
        let (_, post) = siso_simple(&sys, &p, &vec![0.0; k], k);
        for (i, (&b, &l)) in bits.iter().zip(&post).enumerate() {
            assert_eq!(b, if l >= 0.0 { 0 } else { 1 }, "bit {i}");
        }
    }

    #[test]
    fn extrinsic_scale_override() {
        let k = 40;
        let code = TurboCode::new(k).unwrap();
        let dec = MaxLogMapDecoder::new(k, code.interleaver()).with_extrinsic_scale(1.0);
        let bits = vec![0u8; k];
        let coded = code.encode(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 3.0 } else { -3.0 })
            .collect();
        let out = dec.decode(&llrs, 4);
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn stop_check_skips_second_half_iteration() {
        let k = 100;
        let code = TurboCode::new(k).unwrap();
        let dec = MaxLogMapDecoder::new(k, code.interleaver());
        let mut rng = seeded(4);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 10.0 } else { -10.0 })
            .collect();
        let mut scratch = ReferenceScratch::new();
        let mut out = DecodeResult::new();
        let expected = bits.clone();
        dec.decode_into_with_stop(&llrs, 8, &mut scratch, &mut out, &|cand: &[u8]| {
            cand == expected
        });
        assert_eq!(out.bits, bits);
        assert_eq!(
            out.iterations_run, 1,
            "clean input must stop after decoder 1 of iteration 1"
        );
    }

    #[test]
    fn never_satisfied_stop_matches_plain_decode() {
        let k = 60;
        let code = TurboCode::new(k).unwrap();
        let dec = MaxLogMapDecoder::new(k, code.interleaver());
        let mut rng = seeded(9);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| (if b == 0 { 1.5 } else { -1.5 }) + 1.1 * standard_normal(&mut rng))
            .collect();
        let mut scratch = ReferenceScratch::new();
        let mut out = DecodeResult::new();
        dec.decode_into_with_stop(&llrs, 8, &mut scratch, &mut out, &|_: &[u8]| false);
        assert_eq!(out, dec.decode(&llrs, 8));
    }
}
