//! Batched lockstep Max-Log-MAP decoding across packet lanes.
//!
//! The fixed 8-state trellis of the UMTS turbo code vectorizes poorly
//! *within* one packet (each step's eight states fit one SIMD register
//! but carry loop dependencies), and extremely well *across* packets:
//! N independent codewords of the same block length can run the exact
//! same forward/backward recursions in lockstep, with every metric held
//! as an N-lane array. [`TurboBatchScratch`] stages up to N packets and
//! [`super::TurboCode::decode_batch`] decodes them together over a
//! structure-of-arrays trellis whose innermost dimension is the lane, so
//! the hand-unrolled 8-state sweeps compile to lane-wide SIMD.
//!
//! # Lane-for-lane bit-identity
//!
//! Every operation in the lockstep kernels is elementwise across lanes
//! (adds, subtractions, negations, maxima, broadcast scaling) or a
//! lane-local gather through the interleaver, so lane `l` of a batched
//! decode performs **the same scalar operation sequence** as a 1-lane
//! decode of that codeword alone ([`super::TurboCode::decode_into`]).
//! Rust never contracts or reorders IEEE-754 arithmetic, so the outputs
//! — hard bits, posterior LLR bit patterns, iteration counts — are
//! identical for any batch size. `tests/batch_equivalence.rs` pins the
//! property against a scalar reference decoder (`tests/support/`) with
//! proptests; the golden corpus pins the `Exact` tier's outputs.
//!
//! # Early finishers and lane draining
//!
//! Lanes stop independently (agreement early stop, optional per-lane
//! CRC check): a finished lane's outputs are frozen at the moment a
//! 1-lane decode of it would have returned. At every iteration boundary
//! the group *drains*: surviving lanes are repacked to the front and the
//! kernel narrows (8 → 4 → 2 → 1 lanes) so finished lanes stop costing
//! vector width — a group whose lanes converge at iterations
//! `[1,1,…,8]` pays ≈ one 8-wide iteration plus seven 1-wide ones, not
//! eight 8-wide. Repacking moves lane data without touching its values
//! and every kernel op is elementwise, so draining preserves the
//! lane-for-lane bit-identity. Batches wider than the widest kernel run
//! as groups of 8; a final partial group, a lone lane included, starts at
//! the narrowest width that fits.

use dsp::maxstar::{
    lanes_add, lanes_half, lanes_load, lanes_max, lanes_neg, lanes_scale, lanes_store, lanes_sub,
    LlrArith,
};

use super::decoder::{AccuracyTier, DecoderConfig, EXTRINSIC_SCALE};
use super::interleaver::TurboInterleaver;
use super::rsc::{RSC_STATES, TAIL_BITS};

/// Per-lane validity check for batched decoding: receives the lane index
/// and that lane's current hard decisions (the CRC in the simulator).
pub type BatchStopCheck<'c> = Option<&'c dyn Fn(usize, &[u8]) -> bool>;

/// One precision's structure-of-arrays trellis workspace. All vectors
/// are `[step][state/metric][lane]` with the lane contiguous innermost,
/// sized for the widest lockstep group and reused (never shrunk) across
/// groups and batches.
#[derive(Debug, Clone, Default)]
struct LaneBuffers<T> {
    sys1: Vec<T>,
    p1: Vec<T>,
    sys2: Vec<T>,
    p2: Vec<T>,
    apriori1: Vec<T>,
    apriori2: Vec<T>,
    ext1: Vec<T>,
    ext2: Vec<T>,
    post1: Vec<T>,
    post2: Vec<T>,
    posterior: Vec<T>,
    alpha: Vec<T>,
    alpha_ckpt: Vec<T>,
}

impl<T> LaneBuffers<T> {
    fn heap_capacities(&self, out: &mut Vec<usize>) {
        out.extend([
            self.sys1.capacity(),
            self.p1.capacity(),
            self.sys2.capacity(),
            self.p2.capacity(),
            self.apriori1.capacity(),
            self.apriori2.capacity(),
            self.ext1.capacity(),
            self.ext2.capacity(),
            self.post1.capacity(),
            self.post2.capacity(),
            self.posterior.capacity(),
            self.alpha.capacity(),
            self.alpha_ckpt.capacity(),
        ]);
    }
}

/// Reusable workspace and output storage of one batched decode.
///
/// Usage: [`TurboBatchScratch::begin_batch`] with the codeword length,
/// [`TurboBatchScratch::push_lane`] once per packet, then
/// [`super::TurboCode::decode_batch`]; per-lane results are read back
/// through [`TurboBatchScratch::bits`] / [`TurboBatchScratch::llrs`] /
/// [`TurboBatchScratch::iterations_run`]. Every buffer (LLR staging,
/// both precisions' trellis workspaces and the output arrays) is reused
/// in place, so steady-state batched decoding performs zero heap
/// allocations — `tests/alloc_regression.rs` pins the invariant via
/// [`TurboBatchScratch::heap_capacities`].
#[derive(Debug, Clone, Default)]
pub struct TurboBatchScratch {
    k: usize,
    coded_len: usize,
    lanes: usize,
    /// Lane-major staging of raw channel LLRs (`lanes × coded_len`).
    staging: Vec<f64>,
    /// Lane-major hard decisions (`lanes × k`).
    out_bits: Vec<u8>,
    /// Lane-major posterior LLRs, widened to `f64` (`lanes × k`).
    out_llrs: Vec<f64>,
    /// Turbo iterations executed per lane.
    out_iters: Vec<usize>,
    /// Hard-decision staging for per-lane stop checks (`k`).
    bits_tmp: Vec<u8>,
    f64_lanes: LaneBuffers<f64>,
    f32_lanes: LaneBuffers<f32>,
}

impl TurboBatchScratch {
    /// Fresh workspace; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new batch of codewords of `coded_len` LLRs each,
    /// discarding previously staged lanes (capacity is retained).
    pub fn begin_batch(&mut self, coded_len: usize) {
        self.coded_len = coded_len;
        self.lanes = 0;
        self.staging.clear();
    }

    /// Stages one codeword's channel LLRs as the next lane; returns the
    /// lane index.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` differs from the `begin_batch` length.
    pub fn push_lane(&mut self, llrs: &[f64]) -> usize {
        assert_eq!(llrs.len(), self.coded_len, "lane LLR length mismatch");
        self.staging.extend_from_slice(llrs);
        self.lanes += 1;
        self.lanes - 1
    }

    /// Lanes currently staged (reset by `begin_batch`).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Hard-decision bits of `lane` after a decode.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn bits(&self, lane: usize) -> &[u8] {
        assert!(lane < self.lanes, "lane out of range");
        &self.out_bits[lane * self.k..][..self.k]
    }

    /// Posterior LLRs of `lane` after a decode (widened to `f64` on the
    /// `Fast32` tier).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn llrs(&self, lane: usize) -> &[f64] {
        assert!(lane < self.lanes, "lane out of range");
        &self.out_llrs[lane * self.k..][..self.k]
    }

    /// Turbo iterations executed for `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn iterations_run(&self, lane: usize) -> usize {
        assert!(lane < self.lanes, "lane out of range");
        self.out_iters[lane]
    }

    /// Appends the capacity of every owned heap buffer to `out` (stable
    /// order) — the steady-state zero-allocation invariant of batched
    /// decoding is "this snapshot stops changing once warm".
    pub fn heap_capacities(&self, out: &mut Vec<usize>) {
        out.extend([
            self.staging.capacity(),
            self.out_bits.capacity(),
            self.out_llrs.capacity(),
            self.out_iters.capacity(),
            self.bits_tmp.capacity(),
        ]);
        self.f64_lanes.heap_capacities(out);
        self.f32_lanes.heap_capacities(out);
    }
}

/// Decodes every staged lane of `batch` in lockstep groups (entry point
/// behind [`super::TurboCode::decode_batch`]).
pub(super) fn decode_batch(
    k: usize,
    interleaver: &TurboInterleaver,
    cfg: DecoderConfig,
    batch: &mut TurboBatchScratch,
    stop: BatchStopCheck<'_>,
) {
    let coded_len = 3 * k + 4 * TAIL_BITS;
    assert_eq!(
        batch.coded_len, coded_len,
        "begin_batch length must match the codec"
    );
    batch.k = k;
    let TurboBatchScratch {
        lanes,
        staging,
        out_bits,
        out_llrs,
        out_iters,
        bits_tmp,
        f64_lanes,
        f32_lanes,
        ..
    } = batch;
    let lanes = *lanes;
    // Every output element is written exactly once per decode (each lane
    // is recorded the moment it finishes), so the arrays are resized
    // without clearing — stale contents are never observable.
    reuse_buf(out_bits, lanes * k, 0);
    reuse_buf(out_llrs, lanes * k, 0.0);
    reuse_buf(out_iters, lanes, 0);
    let mut ctx = GroupCtx {
        k,
        n: k + TAIL_BITS,
        perm: interleaver.permutation(),
        inv: interleaver.inverse(),
        iters: cfg.iterations.max(1),
        out_bits: &mut out_bits[..],
        out_llrs: &mut out_llrs[..],
        out_iters: &mut out_iters[..],
        bits_tmp: &mut *bits_tmp,
        stop,
    };
    match cfg.tier {
        AccuracyTier::Exact | AccuracyTier::EarlyStop => {
            run_lockstep::<f64>(staging, coded_len, lanes, f64_lanes, &mut ctx)
        }
        AccuracyTier::Fast32 => run_lockstep::<f32>(staging, coded_len, lanes, f32_lanes, &mut ctx),
    }
}

/// The widest lockstep group; `done`/lane-map scratch arrays are sized
/// for it regardless of the instantiated kernel width.
const MAX_GROUP: usize = 8;

/// Trellis-window length (in steps) of the checkpointed alpha recompute
/// inside [`siso_group`]. The forward recursion stores an alpha row only
/// at the head of each window; the fused backward/output pass
/// regenerates one window of rows at a time into a buffer that stays L1
/// resident (32 steps × 8 states × 8 lanes × 8 bytes = 16 KiB at the
/// widest `f64` group) instead of streaming the full `n × 8 × L` trellis
/// through the cache hierarchy twice per SISO pass — the kernel is
/// memory-bound, so the ~2.4× cut in trellis traffic buys more than the
/// extra `k` recompute steps cost. Regeneration replays the identical
/// per-step op sequence from the checkpoint, so alpha values — and every
/// output derived from them — are bit-identical to the one-pass form.
const ALPHA_WINDOW: usize = 32;

/// Loop-invariant context of one batched decode: problem shape,
/// interleaver views, iteration budget, per-lane stop check and the
/// lane-major output arrays — shared by every width a draining group
/// passes through.
struct GroupCtx<'a, 'c> {
    k: usize,
    n: usize,
    perm: &'a [usize],
    inv: &'a [usize],
    iters: usize,
    out_bits: &'a mut [u8],
    out_llrs: &'a mut [f64],
    out_iters: &'a mut [usize],
    bits_tmp: &'a mut Vec<u8>,
    stop: BatchStopCheck<'c>,
}

/// Sizes `buf` to exactly `len` elements without zeroing contents that
/// are already there: the hot path re-dimensions the same buffers to the
/// same sizes every wave, where this is free. `fill` only seeds growth.
fn reuse_buf<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.len() != len {
        buf.resize(len, fill);
    }
}

/// Narrowest supported lockstep width that fits `live` lanes.
fn lane_width(live: usize) -> usize {
    match live {
        0 | 1 => 1,
        2 => 2,
        3 | 4 => 4,
        _ => MAX_GROUP,
    }
}

/// Runs lockstep groups of 8 lanes, then one final group at the
/// narrowest width that fits the remainder (unused slots in a padded
/// group are dead weight that the first drain discards).
fn run_lockstep<T: LlrArith>(
    staging: &[f64],
    coded_len: usize,
    lanes: usize,
    bufs: &mut LaneBuffers<T>,
    ctx: &mut GroupCtx<'_, '_>,
) {
    for base in (0..lanes).step_by(MAX_GROUP) {
        let count = (lanes - base).min(MAX_GROUP);
        match lane_width(count) {
            1 => run_group::<T, 1>(staging, coded_len, base, count, bufs, ctx),
            2 => run_group::<T, 2>(staging, coded_len, base, count, bufs, ctx),
            4 => run_group::<T, 4>(staging, coded_len, base, count, bufs, ctx),
            _ => run_group::<T, 8>(staging, coded_len, base, count, bufs, ctx),
        }
    }
}

/// Decodes lanes `base..base + count` (`count <= L`) in lockstep. Per
/// lane this is the turbo loop of the scalar reference decoder: demux,
/// then per iteration SISO 1, the optional stop check, SISO 2, the
/// agreement check and the optional stop check again. A lane's outputs
/// are recorded the moment it finishes; at the next iteration boundary
/// the group drains finished lanes and narrows.
fn run_group<T: LlrArith, const L: usize>(
    staging: &[f64],
    coded_len: usize,
    base: usize,
    count: usize,
    bufs: &mut LaneBuffers<T>,
    ctx: &mut GroupCtx<'_, '_>,
) {
    debug_assert!(count >= 1 && count <= L);
    let k = ctx.k;
    let n = ctx.n;
    // Only `apriori1` carries a semantic initial value (all-zero
    // a-priori); every other buffer is fully written before it is read —
    // the kernel does compute on whatever garbage sits in dead slots
    // `count..L`, but those slots are never read out, so the buffers are
    // resized without the ~400 KiB of per-group zero fill.
    reuse_buf(&mut bufs.sys1, n * L, T::ZERO);
    reuse_buf(&mut bufs.p1, n * L, T::ZERO);
    reuse_buf(&mut bufs.sys2, n * L, T::ZERO);
    reuse_buf(&mut bufs.p2, n * L, T::ZERO);
    bufs.apriori1.clear();
    bufs.apriori1.resize(k * L, T::ZERO);
    reuse_buf(&mut bufs.apriori2, k * L, T::ZERO);
    reuse_buf(&mut bufs.ext1, k * L, T::ZERO);
    reuse_buf(&mut bufs.ext2, k * L, T::ZERO);
    reuse_buf(&mut bufs.post1, k * L, T::ZERO);
    reuse_buf(&mut bufs.post2, k * L, T::ZERO);
    reuse_buf(&mut bufs.posterior, k * L, T::ZERO);
    reuse_buf(&mut bufs.alpha, ALPHA_WINDOW * RSC_STATES * L, T::NEG_INF);
    reuse_buf(
        &mut bufs.alpha_ckpt,
        k.div_ceil(ALPHA_WINDOW) * RSC_STATES * L,
        T::NEG_INF,
    );

    // Demux each lane's codeword into the SoA observation streams
    // (systematic, parity and tail split per constituent decoder,
    // narrowed to T at the boundary). Step-major loop order: each
    // 64-byte lane row of the four destination streams is filled in one
    // visit instead of being re-dirtied once per lane. Dead slots `count..L` hold garbage
    // that live lanes never see (every kernel op is elementwise).
    for t in 0..k {
        let pt = ctx.perm[t];
        for l in 0..count {
            let lane = &staging[(base + l) * coded_len..][..3 * k];
            bufs.sys1[t * L + l] = T::from_f64(lane[t]);
            bufs.p1[t * L + l] = T::from_f64(lane[k + t]);
            bufs.sys2[t * L + l] = T::from_f64(lane[pt]);
            bufs.p2[t * L + l] = T::from_f64(lane[2 * k + t]);
        }
    }
    for t in 0..TAIL_BITS {
        for l in 0..count {
            let lane = &staging[(base + l) * coded_len..][..coded_len];
            let tail1 = &lane[3 * k..3 * k + 2 * TAIL_BITS];
            let tail2 = &lane[3 * k + 2 * TAIL_BITS..];
            bufs.sys1[(k + t) * L + l] = T::from_f64(tail1[2 * t]);
            bufs.p1[(k + t) * L + l] = T::from_f64(tail1[2 * t + 1]);
            bufs.sys2[(k + t) * L + l] = T::from_f64(tail2[2 * t]);
            bufs.p2[(k + t) * L + l] = T::from_f64(tail2[2 * t + 1]);
        }
    }

    let mut lane_of_slot = [0usize; MAX_GROUP];
    for (s, slot) in lane_of_slot.iter_mut().enumerate().take(count) {
        *slot = base + s;
    }
    iterate_group::<T, L>(1, count, lane_of_slot, bufs, ctx);
}

/// The compaction-aware iteration driver at lockstep width `L`: runs
/// turbo iterations over the `m` live lanes held in slots `0..m` of
/// `bufs` (slots `m..L` are dead weight whose values are never read).
/// When lanes finish, the survivors are repacked to the front and the
/// driver tail-recurses at the narrowest width that still fits, carrying
/// only the inter-iteration state: the four observation streams and
/// `apriori1`. Repacking copies lane values verbatim and every kernel op
/// is elementwise, so each surviving lane's value stream is unchanged.
fn iterate_group<T: LlrArith, const L: usize>(
    start_it: usize,
    m: usize,
    lane_of_slot: [usize; MAX_GROUP],
    bufs: &mut LaneBuffers<T>,
    ctx: &mut GroupCtx<'_, '_>,
) {
    let k = ctx.k;
    let n = ctx.n;
    let scale = T::from_f64(EXTRINSIC_SCALE);
    let mut done = [false; MAX_GROUP];
    let mut it = start_it;
    loop {
        siso_group::<T, L>(
            &bufs.sys1[..n * L],
            &bufs.p1[..n * L],
            &bufs.apriori1[..k * L],
            k,
            &mut bufs.alpha[..ALPHA_WINDOW * RSC_STATES * L],
            &mut bufs.alpha_ckpt[..k.div_ceil(ALPHA_WINDOW) * RSC_STATES * L],
            &mut bufs.ext1[..k * L],
            &mut bufs.post1[..k * L],
        );
        if let Some(stop_fn) = ctx.stop {
            for s in 0..m {
                if done[s] {
                    continue;
                }
                hard_lane::<T, L>(&bufs.post1, s, k, ctx.bits_tmp);
                if stop_fn(lane_of_slot[s], ctx.bits_tmp) {
                    record_lane::<T, L>(&bufs.post1, s, lane_of_slot[s], k, ctx, it);
                    done[s] = true;
                }
            }
            if done[..m].iter().all(|&d| d) {
                return;
            }
        }
        for t in 0..k {
            let v: [T; L] = lanes_load(&bufs.ext1, ctx.perm[t] * L);
            lanes_store(&mut bufs.apriori2, t * L, lanes_scale(v, scale));
        }
        siso_group::<T, L>(
            &bufs.sys2[..n * L],
            &bufs.p2[..n * L],
            &bufs.apriori2[..k * L],
            k,
            &mut bufs.alpha[..ALPHA_WINDOW * RSC_STATES * L],
            &mut bufs.alpha_ckpt[..k.div_ceil(ALPHA_WINDOW) * RSC_STATES * L],
            &mut bufs.ext2[..k * L],
            &mut bufs.post2[..k * L],
        );
        for t in 0..k {
            let e: [T; L] = lanes_load(&bufs.ext2, ctx.inv[t] * L);
            lanes_store(&mut bufs.apriori1, t * L, lanes_scale(e, scale));
            let p: [T; L] = lanes_load(&bufs.post2, ctx.inv[t] * L);
            lanes_store(&mut bufs.posterior, t * L, p);
        }
        // Lane-parallel agreement scan: one pass over the `[step][lane]`
        // blocks settles every slot's flag at once with branchless sign
        // compares the compiler vectorizes, instead of `m` strided scalar
        // scans. Same predicate per slot (an order-independent `all`), so
        // the same decision as a per-lane scan.
        let mut disagree = [false; L];
        for t in 0..k {
            let a: [T; L] = lanes_load(&bufs.post1, t * L);
            let b: [T; L] = lanes_load(&bufs.posterior, t * L);
            for (d, (&x, y)) in disagree.iter_mut().zip(a.iter().zip(b)) {
                *d |= (x >= T::ZERO) != (y >= T::ZERO);
            }
        }
        for s in 0..m {
            if done[s] {
                continue;
            }
            // Agreement early stop first, then the optional stop check.
            if !disagree[s] {
                record_lane::<T, L>(&bufs.posterior, s, lane_of_slot[s], k, ctx, it);
                done[s] = true;
                continue;
            }
            if let Some(stop_fn) = ctx.stop {
                hard_lane::<T, L>(&bufs.posterior, s, k, ctx.bits_tmp);
                if stop_fn(lane_of_slot[s], ctx.bits_tmp) {
                    record_lane::<T, L>(&bufs.posterior, s, lane_of_slot[s], k, ctx, it);
                    done[s] = true;
                }
            }
        }
        let live = done[..m].iter().filter(|&&d| !d).count();
        if live == 0 {
            return;
        }
        if it >= ctx.iters {
            break;
        }
        let w = lane_width(live);
        if w < L {
            // Drain: repack the survivors to the front and narrow. Only
            // the observation streams and apriori1 carry information into
            // the next iteration; everything else is recomputed.
            let mut next_map = [0usize; MAX_GROUP];
            let mut keep = [0usize; MAX_GROUP];
            let mut idx = 0;
            for (s, &lane) in lane_of_slot.iter().enumerate().take(m) {
                if !done[s] {
                    keep[idx] = s;
                    next_map[idx] = lane;
                    idx += 1;
                }
            }
            let keep = &keep[..idx];
            repack_stream(&mut bufs.sys1, n, L, w, keep);
            repack_stream(&mut bufs.p1, n, L, w, keep);
            repack_stream(&mut bufs.sys2, n, L, w, keep);
            repack_stream(&mut bufs.p2, n, L, w, keep);
            repack_stream(&mut bufs.apriori1, k, L, w, keep);
            match w {
                1 => iterate_group::<T, 1>(it + 1, idx, next_map, bufs, ctx),
                2 => iterate_group::<T, 2>(it + 1, idx, next_map, bufs, ctx),
                _ => iterate_group::<T, 4>(it + 1, idx, next_map, bufs, ctx),
            }
            return;
        }
        it += 1;
    }
    // Iteration budget exhausted: unfinished lanes return the latest
    // posterior with the full iteration count.
    for s in 0..m {
        if !done[s] {
            record_lane::<T, L>(&bufs.posterior, s, lane_of_slot[s], k, ctx, it);
        }
    }
}

/// Repacks the surviving lanes of a `[step][lane]` stream from width
/// `from_w` to the smaller width `to_w`, keeping slots `keep` in order.
/// In place and forward-safe: every destination index is `<=` its source
/// index and strictly below every later source index.
fn repack_stream<T: Copy>(buf: &mut [T], steps: usize, from_w: usize, to_w: usize, keep: &[usize]) {
    debug_assert!(to_w < from_w && keep.len() <= to_w);
    for t in 0..steps {
        let src = t * from_w;
        let dst = t * to_w;
        for (ns, &os) in keep.iter().enumerate() {
            buf[dst + ns] = buf[src + os];
        }
    }
}

/// Snapshots slot `slot` of a `[step][lane]` posterior block into the
/// lane-major output arrays (bits, widened LLRs, iteration count) of
/// batch lane `lane`.
fn record_lane<T: LlrArith, const L: usize>(
    src: &[T],
    slot: usize,
    lane: usize,
    k: usize,
    ctx: &mut GroupCtx<'_, '_>,
    it: usize,
) {
    let bits = &mut ctx.out_bits[lane * k..][..k];
    let llrs = &mut ctx.out_llrs[lane * k..][..k];
    for t in 0..k {
        let v = src[t * L + slot];
        llrs[t] = v.to_f64();
        bits[t] = if v >= T::ZERO { 0 } else { 1 };
    }
    ctx.out_iters[lane] = it;
}

/// Hard decisions of lane `l` from a `[step][lane]` posterior block
/// (positive favours 0), reusing `out`.
fn hard_lane<T: LlrArith, const L: usize>(src: &[T], l: usize, k: usize, out: &mut Vec<u8>) {
    out.clear();
    out.extend((0..k).map(|t| if src[t * L + l] >= T::ZERO { 0u8 } else { 1u8 }));
}

/// One lockstep SISO Max-Log-MAP pass over `L` terminated RSC trellises.
///
/// Branch metrics factor to two values per step (`g0 = ½(spa + lp)`,
/// `g1 = ½(spa − lp)`; `g2 = -g1` and `g3 = -g0` are exact negations),
/// the fixed 8-state trellis of `(1+D+D³)/(1+D²+D³)` is hand-unrolled in
/// gather form (each state reads its two fixed predecessors or
/// successors), the backward sweep is fused with the extrinsic/posterior
/// output, and every three-term sum keeps the `(alpha + gamma) + beta`
/// association. Each lane's value stream is therefore bit-identical to
/// the table-driven three-sweep BCJR that the scalar reference decoder
/// in `tests/support/` is checked against. All buffers are
/// `[step][state/metric][lane]` flat arrays; with `L ∈ {8, 4, 2}` the
/// lane arrays compile to full-width SIMD on the fixed trellis (see
/// `crates/bench/benches/kernels.rs` for the per-width
/// microbenchmarks).
///
/// Neither alpha nor the branch metrics are materialized for the whole
/// trellis: the forward recursion stores one checkpoint row per
/// [`ALPHA_WINDOW`] steps (`alpha_ckpt`) and the output sweep
/// regenerates each window of rows into the small `alpha` buffer on
/// demand, newest window first, while beta carries across
/// windows uninterrupted. Branch metrics are recomputed from the
/// `sys`/`par`/`apriori` streams wherever they are needed — the
/// recompute repeats the forward recursion's exact op sequence on the
/// same inputs, so every regenerated value matches the forward pass to
/// the last bit and both transforms are purely cache-locality ones.
#[allow(clippy::too_many_arguments)]
fn siso_group<T: LlrArith, const L: usize>(
    sys: &[T],
    par: &[T],
    apriori: &[T],
    k: usize,
    alpha: &mut [T],
    alpha_ckpt: &mut [T],
    ext: &mut [T],
    post: &mut [T],
) {
    let n = k + TAIL_BITS;
    debug_assert_eq!(sys.len(), n * L);
    debug_assert_eq!(par.len(), n * L);
    debug_assert_eq!(apriori.len(), k * L);
    debug_assert_eq!(alpha.len(), ALPHA_WINDOW * RSC_STATES * L);
    debug_assert_eq!(alpha_ckpt.len(), k.div_ceil(ALPHA_WINDOW) * RSC_STATES * L);

    let zero = [T::ZERO; L];
    let ninf = [T::NEG_INF; L];

    // Forward recursion, stashing an alpha checkpoint at the head of
    // each window. Only rows `0..k` feed the output sweep, so no
    // checkpoints fall in the tail.
    let (mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7) =
        (zero, ninf, ninf, ninf, ninf, ninf, ninf, ninf);
    for t in 0..n {
        if t < k && t % ALPHA_WINDOW == 0 {
            let row = (t / ALPHA_WINDOW) * RSC_STATES * L;
            lanes_store(alpha_ckpt, row, a0);
            lanes_store(alpha_ckpt, row + L, a1);
            lanes_store(alpha_ckpt, row + 2 * L, a2);
            lanes_store(alpha_ckpt, row + 3 * L, a3);
            lanes_store(alpha_ckpt, row + 4 * L, a4);
            lanes_store(alpha_ckpt, row + 5 * L, a5);
            lanes_store(alpha_ckpt, row + 6 * L, a6);
            lanes_store(alpha_ckpt, row + 7 * L, a7);
        }
        let la = if t < k {
            lanes_load(apriori, t * L)
        } else {
            zero
        };
        let spa = lanes_add(lanes_load(sys, t * L), la);
        let lp: [T; L] = lanes_load(par, t * L);
        let g0 = lanes_half(lanes_add(spa, lp));
        let g1 = lanes_half(lanes_sub(spa, lp));
        let g2 = lanes_neg(g1);
        let g3 = lanes_neg(g0);
        let b0 = lanes_max(lanes_add(a0, g0), lanes_add(a4, g3));
        let b1 = lanes_max(lanes_add(a0, g3), lanes_add(a4, g0));
        let b2 = lanes_max(lanes_add(a1, g1), lanes_add(a5, g2));
        let b3 = lanes_max(lanes_add(a1, g2), lanes_add(a5, g1));
        let b4 = lanes_max(lanes_add(a2, g2), lanes_add(a6, g1));
        let b5 = lanes_max(lanes_add(a2, g1), lanes_add(a6, g2));
        let b6 = lanes_max(lanes_add(a3, g3), lanes_add(a7, g0));
        let b7 = lanes_max(lanes_add(a3, g0), lanes_add(a7, g3));
        (a0, a1, a2, a3, a4, a5, a6, a7) = (b0, b1, b2, b3, b4, b5, b6, b7);
    }

    // Backward recursion (terminated: final state 0), fused with the
    // extrinsic/posterior accumulation. Tail steps only advance beta.
    let (mut bb0, mut bb1, mut bb2, mut bb3, mut bb4, mut bb5, mut bb6, mut bb7) =
        (zero, ninf, ninf, ninf, ninf, ninf, ninf, ninf);
    for t in (k..n).rev() {
        // Tail branch metrics, recomputed with the forward pass's exact
        // op sequence (including the `+ 0` of the absent a-priori, which
        // keeps a hypothetical `-0.0` observation bit-identical).
        let spa = lanes_add(lanes_load(sys, t * L), zero);
        let lp: [T; L] = lanes_load(par, t * L);
        let g0 = lanes_half(lanes_add(spa, lp));
        let g1 = lanes_half(lanes_sub(spa, lp));
        let g2 = lanes_neg(g1);
        let g3 = lanes_neg(g0);
        let (n0, n1, n2, n3, n4, n5, n6, n7) = (bb0, bb1, bb2, bb3, bb4, bb5, bb6, bb7);
        bb0 = lanes_max(lanes_add(g0, n0), lanes_add(g3, n1));
        bb1 = lanes_max(lanes_add(g1, n2), lanes_add(g2, n3));
        bb2 = lanes_max(lanes_add(g1, n5), lanes_add(g2, n4));
        bb3 = lanes_max(lanes_add(g0, n7), lanes_add(g3, n6));
        bb4 = lanes_max(lanes_add(g0, n1), lanes_add(g3, n0));
        bb5 = lanes_max(lanes_add(g1, n3), lanes_add(g2, n2));
        bb6 = lanes_max(lanes_add(g1, n4), lanes_add(g2, n5));
        bb7 = lanes_max(lanes_add(g0, n6), lanes_add(g3, n7));
    }
    for w0 in (0..k).step_by(ALPHA_WINDOW).rev() {
        let w1 = (w0 + ALPHA_WINDOW).min(k);
        // Regenerate this window's alpha rows from its checkpoint — the
        // forward pass's op sequence replayed, hence the same values to
        // the last bit.
        {
            let ck = (w0 / ALPHA_WINDOW) * RSC_STATES * L;
            let mut a0: [T; L] = lanes_load(alpha_ckpt, ck);
            let mut a1: [T; L] = lanes_load(alpha_ckpt, ck + L);
            let mut a2: [T; L] = lanes_load(alpha_ckpt, ck + 2 * L);
            let mut a3: [T; L] = lanes_load(alpha_ckpt, ck + 3 * L);
            let mut a4: [T; L] = lanes_load(alpha_ckpt, ck + 4 * L);
            let mut a5: [T; L] = lanes_load(alpha_ckpt, ck + 5 * L);
            let mut a6: [T; L] = lanes_load(alpha_ckpt, ck + 6 * L);
            let mut a7: [T; L] = lanes_load(alpha_ckpt, ck + 7 * L);
            for t in w0..w1 {
                let row = (t - w0) * RSC_STATES * L;
                lanes_store(alpha, row, a0);
                lanes_store(alpha, row + L, a1);
                lanes_store(alpha, row + 2 * L, a2);
                lanes_store(alpha, row + 3 * L, a3);
                lanes_store(alpha, row + 4 * L, a4);
                lanes_store(alpha, row + 5 * L, a5);
                lanes_store(alpha, row + 6 * L, a6);
                lanes_store(alpha, row + 7 * L, a7);
                if t + 1 < w1 {
                    let spa = lanes_add(lanes_load(sys, t * L), lanes_load(apriori, t * L));
                    let lp: [T; L] = lanes_load(par, t * L);
                    let g0 = lanes_half(lanes_add(spa, lp));
                    let g1 = lanes_half(lanes_sub(spa, lp));
                    let g2 = lanes_neg(g1);
                    let g3 = lanes_neg(g0);
                    let b0 = lanes_max(lanes_add(a0, g0), lanes_add(a4, g3));
                    let b1 = lanes_max(lanes_add(a0, g3), lanes_add(a4, g0));
                    let b2 = lanes_max(lanes_add(a1, g1), lanes_add(a5, g2));
                    let b3 = lanes_max(lanes_add(a1, g2), lanes_add(a5, g1));
                    let b4 = lanes_max(lanes_add(a2, g2), lanes_add(a6, g1));
                    let b5 = lanes_max(lanes_add(a2, g1), lanes_add(a6, g2));
                    let b6 = lanes_max(lanes_add(a3, g3), lanes_add(a7, g0));
                    let b7 = lanes_max(lanes_add(a3, g0), lanes_add(a7, g3));
                    (a0, a1, a2, a3, a4, a5, a6, a7) = (b0, b1, b2, b3, b4, b5, b6, b7);
                }
            }
        }
        output_window::<T, L>(
            sys, par, apriori, alpha, ext, post, w0, w1, &mut bb0, &mut bb1, &mut bb2, &mut bb3,
            &mut bb4, &mut bb5, &mut bb6, &mut bb7,
        );
    }
}

/// The fused backward/output sweep over one alpha window (`w0..w1`,
/// alpha rows indexed relative to `w0`), advancing the eight beta
/// registers in place so the recursion carries across windows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn output_window<T: LlrArith, const L: usize>(
    sys: &[T],
    par: &[T],
    apriori: &[T],
    alpha: &[T],
    ext: &mut [T],
    post: &mut [T],
    w0: usize,
    w1: usize,
    bb0: &mut [T; L],
    bb1: &mut [T; L],
    bb2: &mut [T; L],
    bb3: &mut [T; L],
    bb4: &mut [T; L],
    bb5: &mut [T; L],
    bb6: &mut [T; L],
    bb7: &mut [T; L],
) {
    for t in (w0..w1).rev() {
        let ls: [T; L] = lanes_load(sys, t * L);
        let la: [T; L] = lanes_load(apriori, t * L);
        let lp: [T; L] = lanes_load(par, t * L);
        let spa = lanes_add(ls, la);
        let g0 = lanes_half(lanes_add(spa, lp));
        let g1 = lanes_half(lanes_sub(spa, lp));
        let g2 = lanes_neg(g1);
        let g3 = lanes_neg(g0);
        let (n0, n1, n2, n3, n4, n5, n6, n7) = (*bb0, *bb1, *bb2, *bb3, *bb4, *bb5, *bb6, *bb7);
        let row = (t - w0) * RSC_STATES * L;
        let a0: [T; L] = lanes_load(alpha, row);
        let a1: [T; L] = lanes_load(alpha, row + L);
        let a2: [T; L] = lanes_load(alpha, row + 2 * L);
        let a3: [T; L] = lanes_load(alpha, row + 3 * L);
        let a4: [T; L] = lanes_load(alpha, row + 4 * L);
        let a5: [T; L] = lanes_load(alpha, row + 5 * L);
        let a6: [T; L] = lanes_load(alpha, row + 6 * L);
        let a7: [T; L] = lanes_load(alpha, row + 7 * L);
        let max0 = lanes_max(
            lanes_max(
                lanes_max(
                    lanes_add(lanes_add(a0, g0), n0),
                    lanes_add(lanes_add(a1, g1), n2),
                ),
                lanes_max(
                    lanes_add(lanes_add(a2, g1), n5),
                    lanes_add(lanes_add(a3, g0), n7),
                ),
            ),
            lanes_max(
                lanes_max(
                    lanes_add(lanes_add(a4, g0), n1),
                    lanes_add(lanes_add(a5, g1), n3),
                ),
                lanes_max(
                    lanes_add(lanes_add(a6, g1), n4),
                    lanes_add(lanes_add(a7, g0), n6),
                ),
            ),
        );
        let max1 = lanes_max(
            lanes_max(
                lanes_max(
                    lanes_add(lanes_add(a0, g3), n1),
                    lanes_add(lanes_add(a1, g2), n3),
                ),
                lanes_max(
                    lanes_add(lanes_add(a2, g2), n4),
                    lanes_add(lanes_add(a3, g3), n6),
                ),
            ),
            lanes_max(
                lanes_max(
                    lanes_add(lanes_add(a4, g3), n0),
                    lanes_add(lanes_add(a5, g2), n2),
                ),
                lanes_max(
                    lanes_add(lanes_add(a6, g2), n5),
                    lanes_add(lanes_add(a7, g3), n7),
                ),
            ),
        );
        let l_val = lanes_sub(max0, max1);
        lanes_store(post, t * L, l_val);
        let e = lanes_sub(lanes_sub(l_val, ls), la);
        lanes_store(ext, t * L, e);
        *bb0 = lanes_max(lanes_add(g0, n0), lanes_add(g3, n1));
        *bb1 = lanes_max(lanes_add(g1, n2), lanes_add(g2, n3));
        *bb2 = lanes_max(lanes_add(g1, n5), lanes_add(g2, n4));
        *bb3 = lanes_max(lanes_add(g0, n7), lanes_add(g3, n6));
        *bb4 = lanes_max(lanes_add(g0, n1), lanes_add(g3, n0));
        *bb5 = lanes_max(lanes_add(g1, n3), lanes_add(g2, n2));
        *bb6 = lanes_max(lanes_add(g1, n4), lanes_add(g2, n5));
        *bb7 = lanes_max(lanes_add(g0, n6), lanes_add(g3, n7));
    }
}

#[cfg(test)]
mod tests {
    use super::super::TurboCode;
    use super::*;
    use dsp::rng::{random_bits, seeded, standard_normal};

    fn noisy_codeword(code: &TurboCode, seed: u64) -> (Vec<u8>, Vec<f64>) {
        let mut rng = seeded(seed);
        let bits = random_bits(&mut rng, code.k());
        let coded = code.encode(&bits);
        let llrs = coded
            .iter()
            .map(|&b| (if b == 0 { 2.0 } else { -2.0 }) + 1.0 * standard_normal(&mut rng))
            .collect();
        (bits, llrs)
    }

    #[test]
    fn fast32_batch_matches_fast32_single_lane() {
        let k = 120;
        let code = TurboCode::new(k).unwrap();
        let cases: Vec<_> = (0..9).map(|l| noisy_codeword(&code, 900 + l)).collect();
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for (_, llrs) in &cases {
            batch.push_lane(llrs);
        }
        let cfg = DecoderConfig::new(6, AccuracyTier::Fast32);
        code.decode_batch(cfg, &mut batch, None);
        let mut single = TurboBatchScratch::new();
        for (l, (_, llrs)) in cases.iter().enumerate() {
            single.begin_batch(code.coded_len());
            single.push_lane(llrs);
            code.decode_batch(cfg, &mut single, None);
            assert_eq!(batch.bits(l), single.bits(0), "lane {l}");
            assert_eq!(batch.llrs(l), single.llrs(0), "lane {l}");
            assert_eq!(
                batch.iterations_run(l),
                single.iterations_run(0),
                "lane {l}"
            );
        }
    }

    #[test]
    fn fast32_decodes_clean_blocks() {
        let k = 200;
        let code = TurboCode::new(k).unwrap();
        let (bits, llrs) = noisy_codeword(&code, 7);
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        batch.push_lane(&llrs);
        code.decode_batch(
            DecoderConfig::new(8, AccuracyTier::Fast32),
            &mut batch,
            None,
        );
        assert_eq!(batch.bits(0), &bits[..]);
    }

    #[test]
    fn batched_steady_state_is_allocation_free() {
        let k = 80;
        let code = TurboCode::new(k).unwrap();
        let mut batch = TurboBatchScratch::new();
        let decode_round = |batch: &mut TurboBatchScratch, lanes: u64, seed: u64| {
            batch.begin_batch(code.coded_len());
            for l in 0..lanes {
                let (_, llrs) = noisy_codeword(&code, seed + l);
                batch.push_lane(&llrs);
            }
            code.decode_batch(DecoderConfig::exact(6), batch, None);
        };
        // Warm up on two full 8-lane groups: that sizes staging and the
        // outputs for every later round, yet never starts a group at
        // width 1, so the first 1-lane round below runs that kernel
        // instantiation cold, and the 9-lane round pairs a full group
        // with a lone lane.
        decode_round(&mut batch, 16, 1);
        let mut warm = Vec::new();
        batch.heap_capacities(&mut warm);
        for (round, lanes) in [1, 9, 8].into_iter().cycle().take(9).enumerate() {
            decode_round(&mut batch, lanes, 100 * (round as u64 + 2));
            let mut caps = Vec::new();
            batch.heap_capacities(&mut caps);
            assert_eq!(
                warm, caps,
                "round {round} ({lanes} lanes) grew a batch buffer"
            );
        }
    }

    #[test]
    fn tier_tokens_roundtrip() {
        for tier in AccuracyTier::ALL {
            assert_eq!(AccuracyTier::parse(tier.as_str()), Some(tier));
            assert_eq!(tier.as_str().parse::<AccuracyTier>().unwrap(), tier);
        }
        assert!(AccuracyTier::parse("bogus").is_none());
    }
}
