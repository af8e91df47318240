//! Steady-state zero-allocation invariant of the packet hot path.
//!
//! `simulate_packet_with` — a 1-lane wave — is documented to perform no
//! heap allocation once its [`PacketScratch`] is warm: every buffer in
//! the chain — encode bit vectors, symbol/LLR vectors, the 1-lane
//! decoder batch with its trellis workspaces, the wave bookkeeping, the
//! MMSE design workspace, the channel realization — lives in the
//! scratch and is reused in place. This test pins the invariant by
//! snapshotting the capacity of every reachable heap buffer
//! ([`PacketScratch::heap_capacities`]) after a warm-up packet and
//! asserting that further packets never grow any of them. A regression
//! (someone reintroducing a per-packet `Vec` into scratch state) shows
//! up as a capacity that changed between runs.

use rand::SeedableRng;

use resilience_core::config::{ChannelKind, SystemConfig};
use resilience_core::montecarlo::{build_buffer, DefectSpec, StorageConfig};
use resilience_core::simulator::{LinkSimulator, PacketScratch};
use silicon::fault_map::FaultKind;

fn assert_steady_state(cfg: SystemConfig, storage: &StorageConfig, snr_db: f64, label: &str) {
    let sim = LinkSimulator::new(cfg);
    let mut buffer = build_buffer(&cfg, storage, 7);
    let mut scratch = PacketScratch::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // Warm-up: first packet sizes every buffer (and, on fading channels,
    // the largest realization seen so far sizes the tap vector — run a
    // few packets so steady state is actually reached).
    for p in 0..4u64 {
        buffer.begin_packet(p);
        sim.simulate_packet_with(snr_db, &mut buffer, &mut rng, &mut scratch);
    }
    let warm = scratch.heap_capacities();
    assert!(
        warm.iter().any(|&c| c > 0),
        "{label}: scratch should own warm buffers"
    );
    for p in 4..12u64 {
        buffer.begin_packet(p);
        sim.simulate_packet_with(snr_db, &mut buffer, &mut rng, &mut scratch);
        assert_eq!(
            warm,
            scratch.heap_capacities(),
            "{label}: a scratch buffer grew after warm-up (packet {p}) — \
             the steady-state zero-allocation invariant is broken"
        );
    }
}

#[test]
fn awgn_chain_is_allocation_free_after_warmup() {
    let cfg = SystemConfig::fast_test();
    assert_steady_state(cfg, &StorageConfig::Perfect, 8.0, "awgn/perfect");
}

#[test]
fn faulty_storage_chain_is_allocation_free_after_warmup() {
    let cfg = SystemConfig::fast_test();
    let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
    // Low SNR: retransmissions and full decoder iterations exercised.
    assert_steady_state(cfg, &storage, 2.0, "awgn/faulty10");
}

#[test]
fn dispersive_mmse_chain_is_allocation_free_after_warmup() {
    // Vehicular A at chip rate: the full Toeplitz/Cholesky MMSE design
    // runs every transmission — the heaviest scratch user.
    let mut cfg = SystemConfig::fast_test();
    cfg.channel = ChannelKind::VehicularA;
    cfg.equalizer_taps = 21;
    assert_steady_state(cfg, &StorageConfig::Quantized, 15.0, "veha/quantized");
}

#[test]
fn paper_config_chain_is_allocation_free_after_warmup() {
    let cfg = SystemConfig::paper_64qam();
    let storage = StorageConfig::msb_protected(4, 0.10, cfg.llr_bits);
    assert_steady_state(cfg, &storage, 12.0, "paper/hybrid4msb");
}

#[test]
fn paper_config_secded_chain_is_allocation_free_after_warmup() {
    // The SECDED baseline: the fused encode/corrupt/decode round trip of
    // `EccLlrBuffer` runs on every combine.
    let cfg = SystemConfig::paper_64qam();
    let storage = StorageConfig::Ecc {
        defects: DefectSpec::Fraction(0.10),
        fault_kind: FaultKind::Flip,
    };
    assert_steady_state(cfg, &storage, 12.0, "paper/secded10");
}

#[test]
fn earlystop_tier_is_allocation_free_after_warmup() {
    let cfg = SystemConfig::fast_test().with_tier(hspa_phy::turbo::AccuracyTier::EarlyStop);
    let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
    assert_steady_state(cfg, &storage, 2.0, "earlystop/faulty10");
}

#[test]
fn fast32_tier_is_allocation_free_after_warmup() {
    // A Fast32 1-lane wave decodes in the f32 lockstep kernel, whose
    // lane storage lives in the `TurboBatchScratch` that
    // `PacketScratch::heap_capacities` reports — this pins it too.
    let cfg = SystemConfig::fast_test().with_tier(hspa_phy::turbo::AccuracyTier::Fast32);
    let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
    assert_steady_state(cfg, &storage, 2.0, "fast32/faulty10");
}

/// The batched wave path: after one warm wave, further waves must not
/// grow any heap buffer — per-lane `PacketScratch`es, the shared
/// `TurboBatchScratch` (SoA trellis + staging + per-lane outputs), or
/// the `WaveScratch` bookkeeping.
#[test]
fn batched_wave_path_is_allocation_free_after_warmup() {
    use resilience_core::simulator::{PacketOutcome, WaveScratch};

    const LANES: usize = 8;
    for tier in hspa_phy::turbo::AccuracyTier::ALL {
        let cfg = SystemConfig::fast_test().with_tier(tier);
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::unprotected(0.10, cfg.llr_bits);
        let mut buffers: Vec<_> = (0..LANES)
            .map(|l| build_buffer(&cfg, &storage, 7 + l as u64))
            .collect();
        let mut scratches: Vec<PacketScratch> = (0..LANES).map(|_| PacketScratch::new()).collect();
        let mut batch = hspa_phy::turbo::TurboBatchScratch::new();
        let mut wave = WaveScratch::new();
        let mut out = vec![PacketOutcome::default(); LANES];

        let capacities = |scratches: &[PacketScratch],
                          batch: &hspa_phy::turbo::TurboBatchScratch,
                          wave: &WaveScratch| {
            let mut caps: Vec<usize> = Vec::new();
            for s in scratches {
                caps.extend(s.heap_capacities());
            }
            batch.heap_capacities(&mut caps);
            wave.heap_capacities(&mut caps);
            caps
        };

        let run_wave = |wave_idx: u64,
                        buffers: &mut [Box<dyn hspa_phy::harq::LlrBuffer + Send>],
                        scratches: &mut [PacketScratch],
                        batch: &mut hspa_phy::turbo::TurboBatchScratch,
                        wave: &mut WaveScratch,
                        out: &mut [PacketOutcome]| {
            let mut rngs: Vec<rand::rngs::StdRng> = (0..LANES)
                .map(|l| {
                    let pseed = dsp::rng::packet_seed(3, wave_idx * LANES as u64 + l as u64);
                    buffers[l].begin_packet(pseed);
                    rand::rngs::StdRng::seed_from_u64(pseed)
                })
                .collect();
            sim.simulate_wave_with(2.0, buffers, &mut rngs, scratches, batch, wave, out);
        };

        for w in 0..4u64 {
            run_wave(
                w,
                &mut buffers,
                &mut scratches,
                &mut batch,
                &mut wave,
                &mut out,
            );
        }
        let warm = capacities(&scratches, &batch, &wave);
        assert!(
            warm.iter().any(|&c| c > 0),
            "{tier}: wave scratch should own warm buffers"
        );
        for w in 4..10u64 {
            run_wave(
                w,
                &mut buffers,
                &mut scratches,
                &mut batch,
                &mut wave,
                &mut out,
            );
            assert_eq!(
                warm,
                capacities(&scratches, &batch, &wave),
                "{tier}: a wave-path buffer grew after warm-up (wave {w}) — \
                 the batched steady-state zero-allocation invariant is broken"
            );
        }
    }
}
