//! Protection planner: pick the cheapest storage scheme for a defect rate.
//!
//! ```text
//! cargo run --release --example protection_planner [-- <defect_pct> <packets>]
//! ```
//!
//! Given a defect rate (e.g. from operating at a scaled supply), compares
//! every storage option the paper discusses — unprotected 6T, each
//! MSB-protection depth, and full-word SECDED — on throughput, area and
//! the gain/area efficiency metric of Fig. 8, then recommends one.

mod args;

use args::Positional;

use resilience_core::config::SystemConfig;
use resilience_core::montecarlo::{run_point_with, DefectSpec, StorageConfig};
use resilience_core::report::render_table;
use resilience_core::simulator::LinkSimulator;
use silicon::area_power::protection_efficiency;
use silicon::ecc::Secded;
use silicon::fault_map::FaultKind;
use silicon::ProtectionPlan;

fn main() {
    let args = Positional::from_env(
        "cargo run --release --example protection_planner [-- <defect_pct> <packets>]",
        2,
    );
    let defect_pct: f64 = args.get(0, "defect %", 10.0, |p| (0.0..=100.0).contains(p));
    let packets: usize = args.get(1, "packet count", 30, |&n| n > 0);
    let frac = defect_pct / 100.0;
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let snr = 12.0;

    let reference = run_point_with(&sim, &StorageConfig::Quantized, snr, packets, 7)
        .normalized_throughput()
        .max(1e-9);
    println!(
        "planning for Nf = {defect_pct}% at {snr} dB ({packets} packets/point); defect-free throughput {reference:.3}\n"
    );

    let mut rows = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for protected in 0..=cfg.llr_bits {
        let plan = ProtectionPlan::msb_protected(cfg.llr_bits, protected);
        let storage = StorageConfig::msb_protected(protected, frac, cfg.llr_bits);
        let thr = run_point_with(&sim, &storage, snr, packets, 7 + protected as u64)
            .normalized_throughput();
        let overhead = plan.area_overhead_vs_6t();
        let eff = protection_efficiency(thr / reference, overhead);
        let label = format!("{protected} MSBs in 8T");
        if best.as_ref().map(|(_, e)| eff > *e).unwrap_or(true) {
            best = Some((label.clone(), eff));
        }
        rows.push(vec![
            label,
            format!("{:.1}%", overhead * 100.0),
            format!("{thr:.3}"),
            format!("{:.3}", thr / reference),
            format!("{eff:.3}"),
        ]);
    }
    let ecc = Secded::new(cfg.llr_bits);
    let thr = run_point_with(
        &sim,
        &StorageConfig::Ecc {
            defects: DefectSpec::Fraction(frac),
            fault_kind: FaultKind::Flip,
        },
        snr,
        packets,
        99,
    )
    .normalized_throughput();
    let eff = protection_efficiency(thr / reference, ecc.storage_overhead());
    rows.push(vec![
        format!("SECDED({},{})", ecc.codeword_bits(), ecc.data_bits()),
        format!("{:.1}%", ecc.storage_overhead() * 100.0),
        format!("{thr:.3}"),
        format!("{:.3}", thr / reference),
        format!("{eff:.3}"),
    ]);

    println!(
        "{}",
        render_table(
            &[
                "scheme".into(),
                "area ovh".into(),
                "throughput".into(),
                "gain".into(),
                "gain/area".into()
            ],
            &rows
        )
    );
    if let Some((label, eff)) = best {
        println!("recommended: {label} (efficiency {eff:.3})");
    }
    println!("\nexpected: 3-4 protected MSBs maximize gain/area, as in the paper's Fig. 8.");
}
