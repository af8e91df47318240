//! Batched lockstep Max-Log-MAP decoding across packet lanes.
//!
//! The fixed 8-state trellis of the UMTS turbo code vectorizes poorly
//! *within* one packet (each step's eight states fit one SIMD register
//! but carry loop dependencies), and extremely well *across* packets:
//! N independent codewords of the same block length can run the exact
//! same forward/backward recursions in lockstep, with every metric held
//! as an N-lane array. The trellis is a structure of arrays whose
//! innermost dimension is the lane, so the hand-unrolled 8-state sweeps
//! compile to lane-wide SIMD.
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
//! # The lane pool
//!
//! Decoding is work-conserving. A pool of up to [`POOL_LANES`] slots
//! runs turbo iterations in lockstep, and every slot keeps its own
//! iteration counter. Lanes finish independently (agreement early stop,
//! the optional per-lane stop check, or the iteration budget), and a
//! finished lane's outputs go to the feed ([`LaneFeed::finish`]) at
//! the point where a 1-lane decode of it would have returned. At the
//! next iteration boundary the pool asks the feed for replacements
//! ([`LaneFeed::admit`]). Each new codeword is demuxed into a free slot
//! with an all-zero a-priori stream and starts at iteration 1 beside
//! lanes that are mid-decode. The pool then runs at the narrowest kernel
//! width that fits its live lanes (1, 2, 4 or 8): it narrows when lanes
//! drain without replacements and widens again when admissions outgrow
//! it. A feed that always has work waiting keeps every slot full; only
//! the final drain runs narrow. This is iteration-level scheduling, as
//! in Orca (Yu et al., OSDI 2022), applied to turbo iterations.
//!
//! Only the four observation streams and `apriori1` carry state from one
//! iteration to the next; every other buffer is rewritten before it is
//! read. So admission writes exactly those streams for the new slot, and
//! a width change moves exactly those streams. Both copy lane values
//! verbatim, and every kernel op is elementwise, so neither can change a
//! lane's value stream. [`super::TurboCode::decode_batch`] is the pool
//! fed from its staged lanes in order; [`super::TurboCode::decode_pool`]
//! lets a caller such as the link simulator feed it directly.

use dsp::maxstar::{
    lanes_add, lanes_half, lanes_load, lanes_max, lanes_neg, lanes_scale, lanes_store, lanes_sub,
    LlrArith,
};

use super::decoder::{AccuracyTier, DecoderConfig, EXTRINSIC_SCALE};
use super::interleaver::TurboInterleaver;
use super::rsc::{RSC_STATES, TAIL_BITS};

/// Per-lane validity check for batched decoding: receives the lane's
/// tag (the lane index in [`super::TurboCode::decode_batch`]) and that
/// lane's current hard decisions (the CRC in the simulator).
pub type BatchStopCheck<'c> = Option<&'c dyn Fn(usize, &[u8]) -> bool>;

/// The widest lockstep kernel, and so the most codewords a lane pool
/// decodes at once.
pub const POOL_LANES: usize = 8;

/// The source of a lane pool's codewords
/// ([`super::TurboCode::decode_pool`]): it supplies codewords while
/// slots are free and receives each lane's outputs the moment the lane
/// finishes.
pub trait LaneFeed {
    /// Tag of the next codeword to decode, or `None` when nothing is
    /// waiting. Called at iteration boundaries while a slot is free.
    fn admit(&mut self) -> Option<usize>;

    /// Channel LLRs of admitted codeword `tag`
    /// ([`super::TurboCode::coded_len`] values), read at admission.
    fn codeword(&self, tag: usize) -> &[f64];

    /// Lane `tag` finished after `iterations` turbo iterations, with
    /// these hard decisions and posterior LLRs (widened to `f64` on the
    /// `Fast32` tier).
    fn finish(&mut self, tag: usize, bits: &[u8], llrs: &[f64], iterations: usize);

    /// A lockstep pass (one turbo iteration) is about to run with
    /// `live` lanes. A telemetry hook; the default ignores it.
    fn pass(&mut self, _live: usize) {}
}

/// One precision's structure-of-arrays trellis workspace. All vectors
/// are `[step][state/metric][lane]` with the lane contiguous innermost,
/// sized for the widest width the pool may reach and reused (never
/// shrunk) across decodes.
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

/// The lane pool's own workspace: both precisions' trellis buffers and
/// the hard decisions and posterior of the lane being handed out.
#[derive(Debug, Clone, Default)]
struct PoolScratch {
    bits: Vec<u8>,
    llrs: Vec<f64>,
    f64_lanes: LaneBuffers<f64>,
    f32_lanes: LaneBuffers<f32>,
}

/// Reusable workspace of a lane pool, and the staged lanes and outputs
/// of [`super::TurboCode::decode_batch`].
///
/// Usage of the batch form: [`TurboBatchScratch::begin_batch`] with the
/// codeword length, [`TurboBatchScratch::push_lane`] once per packet,
/// then [`super::TurboCode::decode_batch`]; per-lane results are read
/// back through [`TurboBatchScratch::bits`] /
/// [`TurboBatchScratch::llrs`] / [`TurboBatchScratch::iterations_run`].
/// Every buffer (LLR staging, both precisions' trellis workspaces and the
/// output arrays) is reused in place, so steady-state decoding performs
/// zero heap allocations — `tests/alloc_regression.rs` pins the
/// invariant via [`TurboBatchScratch::heap_capacities`].
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
    pool: PoolScratch,
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
            self.pool.bits.capacity(),
            self.pool.llrs.capacity(),
        ]);
        self.pool.f64_lanes.heap_capacities(out);
        self.pool.f32_lanes.heap_capacities(out);
    }
}

/// The staged lanes of a batch as a [`LaneFeed`]: admitted in order,
/// outputs written to the batch's lane-major arrays.
struct StagedLanes<'a> {
    k: usize,
    coded_len: usize,
    lanes: usize,
    next: usize,
    staging: &'a [f64],
    out_bits: &'a mut [u8],
    out_llrs: &'a mut [f64],
    out_iters: &'a mut [usize],
}

impl LaneFeed for StagedLanes<'_> {
    fn admit(&mut self) -> Option<usize> {
        let lane = self.next;
        (lane < self.lanes).then(|| {
            self.next += 1;
            lane
        })
    }

    fn codeword(&self, tag: usize) -> &[f64] {
        &self.staging[tag * self.coded_len..][..self.coded_len]
    }

    fn finish(&mut self, tag: usize, bits: &[u8], llrs: &[f64], iterations: usize) {
        self.out_bits[tag * self.k..][..self.k].copy_from_slice(bits);
        self.out_llrs[tag * self.k..][..self.k].copy_from_slice(llrs);
        self.out_iters[tag] = iterations;
    }
}

/// Decodes every staged lane of `batch` through one lane pool of up to
/// [`POOL_LANES`] slots (entry point behind
/// [`super::TurboCode::decode_batch`]).
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
        pool,
        ..
    } = batch;
    let lanes = *lanes;
    // Every output element is written exactly once per decode (each lane
    // is recorded the moment it finishes), so the arrays are resized
    // without clearing — stale contents are never observable.
    reuse_buf(out_bits, lanes * k, 0);
    reuse_buf(out_llrs, lanes * k, 0.0);
    reuse_buf(out_iters, lanes, 0);
    let mut feed = StagedLanes {
        k,
        coded_len,
        lanes,
        next: 0,
        staging,
        out_bits,
        out_llrs,
        out_iters,
    };
    run_pool(k, interleaver, cfg, pool, lanes, &mut feed, stop);
}

/// Runs a lane pool of `lanes` slots (clamped to `1..=POOL_LANES`) until
/// `feed` has nothing left to admit and every lane has finished (entry
/// point behind [`super::TurboCode::decode_pool`]).
pub(super) fn decode_pool<F: LaneFeed + ?Sized>(
    k: usize,
    interleaver: &TurboInterleaver,
    cfg: DecoderConfig,
    scratch: &mut TurboBatchScratch,
    lanes: usize,
    feed: &mut F,
    stop: BatchStopCheck<'_>,
) {
    run_pool(k, interleaver, cfg, &mut scratch.pool, lanes, feed, stop);
}

fn run_pool<F: LaneFeed + ?Sized>(
    k: usize,
    interleaver: &TurboInterleaver,
    cfg: DecoderConfig,
    pool: &mut PoolScratch,
    lanes: usize,
    feed: &mut F,
    stop: BatchStopCheck<'_>,
) {
    let PoolScratch {
        bits,
        llrs,
        f64_lanes,
        f32_lanes,
    } = pool;
    reuse_buf(bits, k, 0);
    reuse_buf(llrs, k, 0.0);
    let mut ctx = PoolCtx {
        k,
        n: k + TAIL_BITS,
        perm: interleaver.permutation(),
        inv: interleaver.inverse(),
        iters: cfg.iterations.max(1),
        bits,
        llrs,
        stop,
    };
    let cap = lanes.clamp(1, POOL_LANES);
    match cfg.tier {
        AccuracyTier::Exact | AccuracyTier::EarlyStop => drive(f64_lanes, cap, &mut ctx, feed),
        AccuracyTier::Fast32 => drive(f32_lanes, cap, &mut ctx, feed),
    }
}

/// Trellis-window length (in steps) of the checkpointed alpha recompute
/// inside [`siso_group`]. The forward recursion stores an alpha row only
/// at the head of each window; the fused backward/output pass
/// regenerates one window of rows at a time into a buffer that stays L1
/// resident (32 steps × 8 states × 8 lanes × 8 bytes = 16 KiB at the
/// widest `f64` width) instead of streaming the full `n × 8 × L` trellis
/// through the cache hierarchy twice per SISO pass — the kernel is
/// memory-bound, so the ~2.4× cut in trellis traffic buys more than the
/// extra `k` recompute steps cost. Regeneration replays the identical
/// per-step op sequence from the checkpoint, so alpha values — and every
/// output derived from them — are bit-identical to the one-pass form.
const ALPHA_WINDOW: usize = 32;

/// Loop-invariant context of one pool run: problem shape, interleaver
/// views, iteration budget, per-lane stop check and the one-lane output
/// staging handed to [`LaneFeed::finish`].
struct PoolCtx<'a, 'c> {
    k: usize,
    n: usize,
    perm: &'a [usize],
    inv: &'a [usize],
    iters: usize,
    bits: &'a mut [u8],
    llrs: &'a mut [f64],
    stop: BatchStopCheck<'c>,
}

/// Slot bookkeeping of the pool at its current width: which lane (feed
/// tag) each slot holds, the iteration it runs next, and whether it is
/// live. Slots at or beyond `width` are never live.
#[derive(Debug, Clone, Copy)]
struct Slots {
    width: usize,
    live: [bool; POOL_LANES],
    tag: [usize; POOL_LANES],
    iter: [usize; POOL_LANES],
}

/// Sizes `buf` to exactly `len` elements without zeroing contents that
/// are already there: the hot path re-dimensions the same buffers to the
/// same sizes every decode, where this is free. `fill` only seeds growth.
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
        _ => POOL_LANES,
    }
}

/// The pool loop. At each iteration boundary it admits codewords into
/// free slots (up to `cap` live lanes), settles the narrowest width that
/// fits, and runs one lockstep pass at that width; it returns once the
/// feed is empty and every lane has finished.
fn drive<T: LlrArith, F: LaneFeed + ?Sized>(
    bufs: &mut LaneBuffers<T>,
    cap: usize,
    ctx: &mut PoolCtx<'_, '_>,
    feed: &mut F,
) {
    let (k, n) = (ctx.k, ctx.n);
    let w_max = lane_width(cap);
    // Only `apriori1` carries a semantic initial value (all-zero
    // a-priori), written per slot at admission; every other buffer is
    // fully written before it is read. The kernel does compute on
    // whatever garbage sits in free slots, but those slots are never read
    // out, so the buffers are resized without a zero fill.
    for buf in [&mut bufs.sys1, &mut bufs.p1, &mut bufs.sys2, &mut bufs.p2] {
        reuse_buf(buf, n * w_max, T::ZERO);
    }
    for buf in [
        &mut bufs.apriori1,
        &mut bufs.apriori2,
        &mut bufs.ext1,
        &mut bufs.ext2,
        &mut bufs.post1,
        &mut bufs.post2,
        &mut bufs.posterior,
    ] {
        reuse_buf(buf, k * w_max, T::ZERO);
    }
    reuse_buf(
        &mut bufs.alpha,
        ALPHA_WINDOW * RSC_STATES * w_max,
        T::NEG_INF,
    );
    reuse_buf(
        &mut bufs.alpha_ckpt,
        k.div_ceil(ALPHA_WINDOW) * RSC_STATES * w_max,
        T::NEG_INF,
    );

    let mut slots = Slots {
        width: 1,
        live: [false; POOL_LANES],
        tag: [0; POOL_LANES],
        iter: [0; POOL_LANES],
    };
    loop {
        let live = slots.live.iter().filter(|&&l| l).count();
        let mut fresh = [0usize; POOL_LANES];
        let mut admitted = 0;
        while live + admitted < cap {
            let Some(tag) = feed.admit() else { break };
            fresh[admitted] = tag;
            admitted += 1;
        }
        let total = live + admitted;
        if total == 0 {
            return;
        }
        let w = lane_width(total);
        if live > 0 && w != slots.width {
            repack(bufs, &mut slots, w, k, n);
        }
        slots.width = w;
        admit_lanes(bufs, &mut slots, &fresh[..admitted], ctx, feed);
        feed.pass(total);
        match w {
            1 => pool_pass::<T, 1, F>(bufs, &mut slots, ctx, feed),
            2 => pool_pass::<T, 2, F>(bufs, &mut slots, ctx, feed),
            4 => pool_pass::<T, 4, F>(bufs, &mut slots, ctx, feed),
            _ => pool_pass::<T, POOL_LANES, F>(bufs, &mut slots, ctx, feed),
        }
    }
}

/// Moves the pool's inter-iteration state from `slots.width` to width
/// `w`. Narrowing packs the live slots to the front, in order; widening
/// spreads every step row in place, so each slot keeps its index.
fn repack<T: Copy>(bufs: &mut LaneBuffers<T>, slots: &mut Slots, w: usize, k: usize, n: usize) {
    let from = slots.width;
    if w < from {
        let mut keep = [0usize; POOL_LANES];
        let mut m = 0;
        for s in 0..from {
            if slots.live[s] {
                keep[m] = s;
                m += 1;
            }
        }
        let keep = &keep[..m];
        for buf in [&mut bufs.sys1, &mut bufs.p1, &mut bufs.sys2, &mut bufs.p2] {
            narrow_stream(buf, n, from, w, keep);
        }
        narrow_stream(&mut bufs.apriori1, k, from, w, keep);
        let old = *slots;
        slots.live = [false; POOL_LANES];
        for (ns, &os) in keep.iter().enumerate() {
            slots.live[ns] = true;
            slots.tag[ns] = old.tag[os];
            slots.iter[ns] = old.iter[os];
        }
    } else {
        for buf in [&mut bufs.sys1, &mut bufs.p1, &mut bufs.sys2, &mut bufs.p2] {
            widen_stream(buf, n, from, w);
        }
        widen_stream(&mut bufs.apriori1, k, from, w);
    }
}

/// Demuxes the admitted codewords `tags` into free slots of the width
/// `slots.width` observation streams (systematic, parity and tail split
/// per constituent decoder, narrowed to `T` at the boundary) and zeroes
/// each one's `apriori1` slot: a new lane starts from the all-zero
/// a-priori of a 1-lane decode. Step-major loop order, so each lane row
/// of the four streams is filled in one visit however many lanes enter.
fn admit_lanes<T: LlrArith, F: LaneFeed + ?Sized>(
    bufs: &mut LaneBuffers<T>,
    slots: &mut Slots,
    tags: &[usize],
    ctx: &PoolCtx<'_, '_>,
    feed: &F,
) {
    if tags.is_empty() {
        return;
    }
    let (k, w) = (ctx.k, slots.width);
    let mut entering = [(0usize, &[][..]); POOL_LANES];
    let mut s = 0;
    for (i, &tag) in tags.iter().enumerate() {
        while slots.live[s] {
            s += 1;
        }
        assert!(s < w, "the pool width fits every live lane");
        let cw = feed.codeword(tag);
        assert_eq!(cw.len(), 3 * k + 4 * TAIL_BITS, "codeword length mismatch");
        entering[i] = (s, cw);
        slots.live[s] = true;
        slots.tag[s] = tag;
        slots.iter[s] = 1;
    }
    let entering = &entering[..tags.len()];
    for t in 0..k {
        let pt = ctx.perm[t];
        for &(s, cw) in entering {
            let i = t * w + s;
            bufs.sys1[i] = T::from_f64(cw[t]);
            bufs.p1[i] = T::from_f64(cw[k + t]);
            bufs.sys2[i] = T::from_f64(cw[pt]);
            bufs.p2[i] = T::from_f64(cw[2 * k + t]);
            bufs.apriori1[i] = T::ZERO;
        }
    }
    for t in 0..TAIL_BITS {
        for &(s, cw) in entering {
            let i = (k + t) * w + s;
            let tail1 = &cw[3 * k..3 * k + 2 * TAIL_BITS];
            let tail2 = &cw[3 * k + 2 * TAIL_BITS..];
            bufs.sys1[i] = T::from_f64(tail1[2 * t]);
            bufs.p1[i] = T::from_f64(tail1[2 * t + 1]);
            bufs.sys2[i] = T::from_f64(tail2[2 * t]);
            bufs.p2[i] = T::from_f64(tail2[2 * t + 1]);
        }
    }
}

/// One lockstep pass at width `L`: a turbo iteration of every live slot.
/// Per slot this is one iteration of the scalar reference decoder's
/// turbo loop: SISO 1, the optional stop check, SISO 2, the agreement
/// check, the optional stop check again, and the iteration budget. A
/// lane that finishes goes to the feed and frees its slot; every other
/// live slot advances its own iteration counter.
fn pool_pass<T: LlrArith, const L: usize, F: LaneFeed + ?Sized>(
    bufs: &mut LaneBuffers<T>,
    slots: &mut Slots,
    ctx: &mut PoolCtx<'_, '_>,
    feed: &mut F,
) {
    let k = ctx.k;
    let n = ctx.n;
    let scale = T::from_f64(EXTRINSIC_SCALE);
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
        for s in 0..L {
            if !slots.live[s] {
                continue;
            }
            hard_lane::<T, L>(&bufs.post1, s, ctx.bits);
            if stop_fn(slots.tag[s], ctx.bits) {
                finish_slot::<T, L, F>(&bufs.post1, s, slots, ctx, feed);
            }
        }
        if !slots.live.contains(&true) {
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
    // compares the compiler vectorizes, instead of `L` strided scalar
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
    for (s, &disagrees) in disagree.iter().enumerate() {
        if !slots.live[s] {
            continue;
        }
        // Agreement early stop first, then the optional stop check, then
        // the iteration budget (the latest posterior is returned).
        let done = !disagrees
            || ctx.stop.is_some_and(|stop_fn| {
                hard_lane::<T, L>(&bufs.posterior, s, ctx.bits);
                stop_fn(slots.tag[s], ctx.bits)
            })
            || slots.iter[s] >= ctx.iters;
        if done {
            finish_slot::<T, L, F>(&bufs.posterior, s, slots, ctx, feed);
        } else {
            slots.iter[s] += 1;
        }
    }
}

/// Narrows a `[step][lane]` stream in place from width `from_w` to the
/// smaller width `to_w`, keeping slots `keep` in order. Forward-safe:
/// every destination index is `<=` its source index and strictly below
/// every later source index.
fn narrow_stream<T: Copy>(buf: &mut [T], steps: usize, from_w: usize, to_w: usize, keep: &[usize]) {
    debug_assert!(to_w < from_w && keep.len() <= to_w);
    for t in 0..steps {
        let src = t * from_w;
        let dst = t * to_w;
        for (ns, &os) in keep.iter().enumerate() {
            buf[dst + ns] = buf[src + os];
        }
    }
}

/// Widens a `[step][lane]` stream in place from width `from_w` to the
/// larger width `to_w`, every slot keeping its index — the mirror of
/// [`narrow_stream`]. Backward-safe: walking steps and slots from the
/// end, every destination index is `>=` its source index and strictly
/// above every source index still to be read.
fn widen_stream<T: Copy>(buf: &mut [T], steps: usize, from_w: usize, to_w: usize) {
    debug_assert!(to_w > from_w);
    for t in (0..steps).rev() {
        for s in (0..from_w).rev() {
            buf[t * to_w + s] = buf[t * from_w + s];
        }
    }
}

/// Hands slot `slot` of a `[step][lane]` posterior block to the feed
/// (bits, widened LLRs, iteration count) and frees the slot.
fn finish_slot<T: LlrArith, const L: usize, F: LaneFeed + ?Sized>(
    src: &[T],
    slot: usize,
    slots: &mut Slots,
    ctx: &mut PoolCtx<'_, '_>,
    feed: &mut F,
) {
    for t in 0..ctx.k {
        let v = src[t * L + slot];
        ctx.llrs[t] = v.to_f64();
        ctx.bits[t] = if v >= T::ZERO { 0 } else { 1 };
    }
    feed.finish(slots.tag[slot], ctx.bits, ctx.llrs, slots.iter[slot]);
    slots.live[slot] = false;
}

/// Hard decisions of slot `l` of a `[step][lane]` posterior block
/// (positive favours 0) into `out` (one per step).
fn hard_lane<T: LlrArith, const L: usize>(src: &[T], l: usize, out: &mut [u8]) {
    for (t, bit) in out.iter_mut().enumerate() {
        *bit = if src[t * L + l] >= T::ZERO { 0 } else { 1 };
    }
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
        // Warm up on 16 lanes: that sizes staging, the outputs and the
        // full-width pool for every later round. The 1-lane round below
        // then runs a 1-slot pool, and the 9-lane round refills a full
        // pool and drains it to width 1.
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
