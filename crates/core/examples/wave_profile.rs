//! Per-stage time breakdown of the packet hot path.
//!
//! Drives `simulate_wave_with` — the one packet path — over waves of a
//! fixed packet count (default 16, decoded through an 8-slot lane pool),
//! so the numbers show where the packet path actually spends its time
//! (the pooled `decode` stage is recorded against packet 0 and reported
//! per packet here). `-- 1` profiles 1-packet waves, which is what
//! `simulate_packet_with` and `--batch 1` run. A lane count that is not a positive integer
//! exits with status 2.
//!
//! Stage timing is always on (see `telemetry`), so a plain release run
//! gives real numbers:
//!
//! ```text
//! cargo run --release -p resilience-core --example wave_profile [-- <lanes>]
//! ```

use hspa_phy::turbo::TurboBatchScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilience_core::config::SystemConfig;
use resilience_core::montecarlo::{build_buffer, StorageConfig};
use resilience_core::simulator::{
    LinkSimulator, PacketOutcome, PacketScratch, StageNanos, WaveScratch,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lanes = match args.as_slice() {
        [] => 16,
        [arg] => match arg.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("wave_profile: <lanes> must be a positive integer, got {arg:?}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: wave_profile [<lanes>]");
            std::process::exit(2);
        }
    };
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let storages = [
        ("quantized", StorageConfig::Quantized),
        (
            "faulty10pct",
            StorageConfig::unprotected(0.10, cfg.llr_bits),
        ),
        (
            "hybrid4msb",
            StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
        ),
    ];
    println!("wave width: {lanes} lanes");
    for (name, storage) in &storages {
        for &snr in &[9.0f64, 13.0, 18.0] {
            let mut buffers: Vec<_> = (0..lanes).map(|_| build_buffer(&cfg, storage, 1)).collect();
            let mut rngs: Vec<StdRng> = Vec::new();
            let mut scratches: Vec<PacketScratch> =
                (0..lanes).map(|_| PacketScratch::new()).collect();
            let mut batch = TurboBatchScratch::new();
            let mut wave = WaveScratch::new();
            let mut out = vec![
                PacketOutcome {
                    success_after: None,
                    transmissions_used: 0,
                };
                lanes
            ];
            let waves = 8;
            for w in 0..waves {
                rngs.clear();
                for (l, buf) in buffers.iter_mut().enumerate() {
                    let pseed = dsp::rng::packet_seed(7, (w * lanes + l) as u64);
                    rngs.push(StdRng::seed_from_u64(pseed));
                    buf.begin_packet(pseed);
                }
                sim.simulate_wave_with(
                    snr,
                    &mut buffers,
                    &mut rngs,
                    &mut scratches,
                    &mut batch,
                    &mut wave,
                    &mut out,
                );
            }
            let packets = (waves * lanes) as f64;
            let mut sum = StageNanos::default();
            for s in &scratches {
                let n = &s.stage_nanos;
                sum.encode += n.encode;
                sum.modulate += n.modulate;
                sum.channel += n.channel;
                sum.equalize += n.equalize;
                sum.demap += n.demap;
                sum.harq += n.harq;
                sum.decode += n.decode;
            }
            let total = sum.total().max(1) as f64 / 1000.0 / packets;
            println!("{name}/{snr}dB  ({total:.0} us accounted/packet)");
            for (stage, ns) in [
                ("encode", sum.encode),
                ("modulate", sum.modulate),
                ("channel", sum.channel),
                ("equalize", sum.equalize),
                ("demap", sum.demap),
                ("harq", sum.harq),
                ("decode", sum.decode),
            ] {
                let us = ns as f64 / 1000.0 / packets;
                let pct = 100.0 * ns as f64 / sum.total().max(1) as f64;
                println!("  {stage:<9} {us:>7.1} us/packet ({pct:>4.1}%)");
            }
        }
    }
}
