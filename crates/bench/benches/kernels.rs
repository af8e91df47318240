//! Criterion benchmarks of the computational kernels.
//!
//! These are the inner loops every figure regeneration spends its time
//! in: turbo encoding/decoding, the 3GPP interleaver construction, MMSE
//! design, soft demapping, faulty-memory reads, the LLR buffer round
//! trips and the yield evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dsp::rng::{complex_gaussian_vec, random_bits, seeded};
use dsp::LlrQuantizer;
use hspa_phy::channel::{ChannelModel, MultipathChannel};
use hspa_phy::equalizer::MmseEqualizer;
use hspa_phy::harq::LlrBuffer;
use hspa_phy::modulation::Modulation;
use hspa_phy::turbo::{
    AccuracyTier, DecoderConfig, TurboBatchScratch, TurboCode, TurboInterleaver,
};
use resilience_core::{EccLlrBuffer, FaultyLlrBuffer, QuantizedLlrBuffer};
use silicon::ecc::Secded;
use silicon::fault_map::{FaultKind, FaultMap};
use silicon::yield_model::yield_accepting;

fn bench_turbo(c: &mut Criterion) {
    let mut group = c.benchmark_group("turbo");
    for &k in &[320usize, 624, 1280] {
        let code = TurboCode::new(k).unwrap();
        let mut rng = seeded(k as u64);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        group.bench_with_input(BenchmarkId::new("encode", k), &k, |b, _| {
            b.iter(|| black_box(code.encode(black_box(&bits))));
        });
        group.bench_with_input(BenchmarkId::new("decode6it", k), &k, |b, _| {
            b.iter(|| black_box(code.decode(black_box(&llrs), 6)));
        });
        group.bench_with_input(BenchmarkId::new("interleaver_build", k), &k, |b, _| {
            b.iter(|| black_box(TurboInterleaver::new(black_box(k)).unwrap()));
        });
    }
    group.finish();
}

/// The lockstep SISO kernel per tier at 1, 4 and 8 lanes. A batched
/// iteration decodes `lanes` codewords, so `time / lanes` is the
/// per-codeword cost and the gain from lane width reads directly off the
/// report.
fn bench_siso_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("siso");
    let k = 624usize;
    let code = TurboCode::new(k).unwrap();
    let mut rng = seeded(k as u64);
    // Noisy enough that the decoder runs all 6 iterations instead of
    // stopping at the first agreement — benches the full sweep cost.
    let lane_llrs: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            let bits = random_bits(&mut rng, k);
            code.encode(&bits)
                .iter()
                .map(|&b| {
                    let x = 1.0 - 2.0 * b as f64;
                    0.8 * (x + 1.4 * dsp::rng::standard_normal(&mut rng))
                })
                .collect()
        })
        .collect();

    let mut batch = TurboBatchScratch::new();
    for tier in [AccuracyTier::Exact, AccuracyTier::Fast32] {
        for &lanes in &[1usize, 4, 8] {
            let id = BenchmarkId::new(format!("lockstep_{tier}_decode6it_624"), lanes);
            group.bench_with_input(id, &lanes, |b, &lanes| {
                b.iter(|| {
                    batch.begin_batch(code.coded_len());
                    for llrs in &lane_llrs[..lanes] {
                        batch.push_lane(black_box(llrs));
                    }
                    code.decode_batch(DecoderConfig::new(6, tier), &mut batch, None);
                    black_box(batch.iterations_run(lanes - 1))
                });
            });
        }
    }
    group.finish();
}

fn bench_equalizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("equalizer");
    let ch = MultipathChannel::vehicular_a_chip_rate();
    let mut rng = seeded(1);
    let real = ch.realize(15.0, &mut rng);
    let rx = complex_gaussian_vec(&mut rng, 512, 1.0);
    for &taps in &[15usize, 31] {
        group.bench_with_input(BenchmarkId::new("mmse_design", taps), &taps, |b, &t| {
            b.iter(|| black_box(MmseEqualizer::design(black_box(&real), t).unwrap()));
        });
        let eq = MmseEqualizer::design(&real, taps).unwrap();
        group.bench_with_input(BenchmarkId::new("mmse_apply_512", taps), &taps, |b, _| {
            b.iter(|| black_box(eq.equalize(black_box(&rx))));
        });
    }
    group.finish();
}

fn bench_demapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("demapper");
    let mut rng = seeded(2);
    for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
        let bits = random_bits(&mut rng, m.bits_per_symbol() * 512);
        let symbols = m.modulate(&bits);
        group.bench_with_input(
            BenchmarkId::new("soft_512sym", m.to_string()),
            &m,
            |b, &m| {
                b.iter(|| black_box(m.demodulate_soft(black_box(&symbols), 0.1)));
            },
        );
    }
    group.finish();
}

fn bench_silicon(c: &mut Criterion) {
    let mut group = c.benchmark_group("silicon");
    let map = FaultMap::random_exact(1884, 10, 1884, FaultKind::Flip, 3);
    let q = LlrQuantizer::default();
    group.bench_function("faulty_read_1884w", |b| {
        let mut mem = silicon::FaultyMemory::new(map.clone());
        for a in 0..1884u32 {
            mem.write(a, q.quantize(a as f64 * 0.01 - 9.0));
        }
        b.iter(|| {
            let mut acc = 0u32;
            for a in 0..1884u32 {
                acc ^= mem.read(a);
            }
            black_box(acc)
        });
    });
    // The HARQ round trip (`LlrBuffer::store_load`) of each array-backed
    // storage kind at 10 % defects: the block pipeline of quantize,
    // (encode,) store, fault masks, (decode,) dequantize.
    let llrs: Vec<f64> = (0..1884).map(|a| a as f64 * 0.01 - 9.0).collect();
    let mut roundtrip = |name: &str, mut buf: Box<dyn LlrBuffer>| {
        let mut data = llrs.clone();
        group.bench_function(name, |b| {
            b.iter(|| {
                data.copy_from_slice(&llrs);
                buf.store_load(&mut data);
                black_box(data[0])
            });
        });
    };
    roundtrip(
        "quantized_roundtrip_1884w",
        Box::new(QuantizedLlrBuffer::new(1884, q)),
    );
    roundtrip(
        "faulty_roundtrip_1884w",
        Box::new(FaultyLlrBuffer::new(map.clone(), q)),
    );
    let code = Secded::new(q.bits());
    let ecc_map = FaultMap::random_exact(
        1884,
        code.codeword_bits(),
        1884 * code.codeword_bits() as usize / 10,
        FaultKind::Flip,
        3,
    );
    roundtrip(
        "secded_roundtrip_1884w",
        Box::new(EccLlrBuffer::new(ecc_map, q)),
    );
    group.bench_function("fault_map_draw_10pct", |b| {
        b.iter(|| {
            black_box(FaultMap::random_exact(
                1884,
                10,
                1884,
                FaultKind::Flip,
                black_box(7),
            ))
        });
    });
    group.bench_function("yield_200kb_mean", |b| {
        b.iter(|| black_box(yield_accepting(200 * 1024, 1e-4, black_box(40))));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_turbo, bench_siso_batch, bench_equalizer, bench_demapper, bench_silicon
}
criterion_main!(benches);
