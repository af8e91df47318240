//! Ablation studies on the receiver's design choices.
//!
//! Each ablation swaps exactly one design decision and re-measures the
//! system-level metric, quantifying how much of the paper's story depends
//! on that choice:
//!
//! 1. LLR storage format — two's complement vs sign-magnitude.
//! 2. Turbo extrinsic scaling — 0.75 (scaled max-log) vs 1.0 (plain).
//! 3. Fault model — bit flips vs stuck-at-0 vs stuck-at-1.
//! 4. HARQ combining — incremental redundancy vs Chase.
//! 5. Equalizer — MMSE vs RAKE matched filter (component-level SINR).

use bench::cli::{banner, FigureArgs, ABLATIONS};
use dsp::stats::linear_to_db;
use dsp::LlrFormat;
use hspa_phy::channel::{ChannelModel, MultipathChannel};
use hspa_phy::equalizer::{MmseEqualizer, RakeReceiver};
use hspa_phy::harq::HarqCombining;
use resilience_core::config::SystemConfig;
use resilience_core::montecarlo::{DefectSpec, StorageConfig};
use resilience_core::report::render_table;
use resilience_core::simulator::LinkSimulator;
use silicon::fault_map::FaultKind;
use silicon::ProtectionPlan;

fn main() {
    let mut budget = FigureArgs::from_env(ABLATIONS).budget;
    // Ablations compare design arms at equal sample counts; adaptive
    // stopping would vary the per-arm CI width, so stay one-shot.
    budget.campaign = None;
    let engine = budget.engine();
    let snr = 12.0;
    let frac = 0.05;
    println!(
        "{}",
        banner("ablations", "design-choice sensitivity", budget)
    );

    // 1. Storage format.
    let mut rows = Vec::new();
    for (name, fmt) in [
        ("two's complement", LlrFormat::TwosComplement),
        ("sign-magnitude", LlrFormat::SignMagnitude),
    ] {
        let mut cfg = SystemConfig::paper_64qam();
        cfg.llr_format = fmt;
        let sim = LinkSimulator::new(cfg);
        let stats = engine.run_point(
            &sim,
            &StorageConfig::unprotected(frac, cfg.llr_bits),
            snr,
            budget.packets_per_point,
            budget.seed,
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", stats.normalized_throughput()),
            format!("{:.2}", stats.avg_transmissions()),
        ]);
    }
    println!(
        "--- ablation 1: LLR storage format (Nf={:.0}%, {snr} dB)",
        frac * 100.0
    );
    println!(
        "{}",
        render_table(
            &["format".into(), "throughput".into(), "avg tx".into()],
            &rows
        )
    );

    // 2. Decoder iterations as a proxy knob the paper-era ASICs tuned.
    let mut rows = Vec::new();
    for iters in [2usize, 4, 6, 8] {
        let mut cfg = SystemConfig::paper_64qam();
        cfg.decoder_iterations = iters;
        let sim = LinkSimulator::new(cfg);
        let stats = engine.run_point(
            &sim,
            &StorageConfig::unprotected(frac, cfg.llr_bits),
            snr,
            budget.packets_per_point,
            budget.seed,
        );
        rows.push(vec![
            format!("{iters} iterations"),
            format!("{:.4}", stats.normalized_throughput()),
        ]);
    }
    println!(
        "--- ablation 2: turbo iterations (Nf={:.0}%, {snr} dB)",
        frac * 100.0
    );
    println!(
        "{}",
        render_table(&["decoder".into(), "throughput".into()], &rows)
    );

    // 3. Fault model.
    let mut rows = Vec::new();
    for (name, kind) in [
        ("bit flip", FaultKind::Flip),
        ("stuck-at-0", FaultKind::StuckAt0),
        ("stuck-at-1", FaultKind::StuckAt1),
    ] {
        let cfg = SystemConfig::paper_64qam();
        let sim = LinkSimulator::new(cfg);
        let storage = StorageConfig::Faulty {
            plan: ProtectionPlan::uniform(cfg.llr_bits, silicon::BitCellKind::Sram6T),
            defects: DefectSpec::Fraction(frac),
            fault_kind: kind,
        };
        let stats = engine.run_point(&sim, &storage, snr, budget.packets_per_point, budget.seed);
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", stats.normalized_throughput()),
        ]);
    }
    println!(
        "--- ablation 3: fault model (Nf={:.0}%, {snr} dB)",
        frac * 100.0
    );
    println!(
        "{}",
        render_table(&["fault kind".into(), "throughput".into()], &rows)
    );

    // 4. HARQ combining.
    let mut rows = Vec::new();
    for (name, comb) in [
        (
            "incremental redundancy",
            HarqCombining::IncrementalRedundancy,
        ),
        ("chase", HarqCombining::Chase),
    ] {
        let mut cfg = SystemConfig::paper_64qam();
        cfg.combining = comb;
        let sim = LinkSimulator::new(cfg);
        let stats = engine.run_point(
            &sim,
            &StorageConfig::Quantized,
            6.0,
            budget.packets_per_point,
            budget.seed,
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", stats.normalized_throughput()),
            format!("{:.2}", stats.avg_transmissions()),
        ]);
    }
    println!("--- ablation 4: HARQ combining (defect-free, 6 dB)");
    println!(
        "{}",
        render_table(
            &["combining".into(), "throughput".into(), "avg tx".into()],
            &rows
        )
    );

    // 5. Equalizer (component level): mean post-SINR over realizations.
    let ch = MultipathChannel::vehicular_a_chip_rate();
    let mut rng = dsp::rng::seeded(budget.seed);
    let n = 200;
    let (mut mmse_sum, mut rake_sum) = (0.0f64, 0.0f64);
    for _ in 0..n {
        let real = ch.realize(15.0, &mut rng);
        mmse_sum += MmseEqualizer::design(&real, 31).expect("pd").sinr();
        rake_sum += 1.0 / RakeReceiver::design(&real).noise_var();
    }
    println!("--- ablation 5: equalizer post-SINR on VehA @ 15 dB ({n} realizations)");
    println!(
        "{}",
        render_table(
            &["equalizer".into(), "mean post-SINR".into()],
            &[
                vec![
                    "MMSE-31".into(),
                    format!("{:.2} dB", linear_to_db(mmse_sum / n as f64))
                ],
                vec![
                    "RAKE".into(),
                    format!("{:.2} dB", linear_to_db(rake_sum / n as f64))
                ],
            ],
        )
    );
}
