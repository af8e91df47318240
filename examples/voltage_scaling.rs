//! Voltage scaling: find the lowest safe supply for the HARQ LLR memory.
//!
//! ```text
//! cargo run --release --example voltage_scaling [-- <packets>]
//! ```
//!
//! Sweeps the supply voltage; at each point the cell-failure model
//! dictates the defect population of the LLR array (manufacturing view,
//! Bernoulli per cell), and a Monte-Carlo run measures the throughput at
//! the 3GPP check point (18 dB). Prints the voltage/power/throughput
//! trade-off for the plain 6T array and the 4-MSB hybrid.

mod args;

use args::Positional;

use resilience_core::config::SystemConfig;
use resilience_core::montecarlo::{run_point_with, DefectSpec, StorageConfig};
use resilience_core::simulator::LinkSimulator;
use silicon::area_power::PowerModel;
use silicon::cell::{BitCellKind, CellFailureModel};
use silicon::fault_map::FaultKind;
use silicon::ProtectionPlan;

fn main() {
    let args = Positional::from_env(
        "cargo run --release --example voltage_scaling [-- <packets>]",
        1,
    );
    let packets: usize = args.get(0, "packet count", 30, |&n| n > 0);
    let cfg = SystemConfig::paper_64qam();
    let sim = LinkSimulator::new(cfg);
    let model = CellFailureModel::dac12();
    let pm = PowerModel::dac12();
    let snr = 18.0;
    let requirement = 0.53;

    let plans = [
        (
            "plain 6T",
            ProtectionPlan::uniform(cfg.llr_bits, BitCellKind::Sram6T),
        ),
        (
            "hybrid 4MSB/8T",
            ProtectionPlan::msb_protected(cfg.llr_bits, 4),
        ),
    ];

    println!("throughput @ {snr} dB vs supply voltage ({packets} packets/point)");
    println!("3GPP requirement for this mode: {requirement}\n");
    for (name, plan) in &plans {
        println!(
            "--- {name} (area overhead {:.0}%)",
            plan.area_overhead_vs_6t() * 100.0
        );
        println!(
            "{:>6} {:>12} {:>11} {:>11} {:>8}",
            "Vdd", "E[defect %]", "throughput", "rel power", "meets?"
        );
        let mut min_ok_vdd = f64::NAN;
        for i in 0..=8 {
            let vdd = 1.0 - 0.05 * i as f64;
            let storage = StorageConfig::Faulty {
                plan: plan.clone(),
                defects: DefectSpec::AtVdd(vdd),
                fault_kind: FaultKind::Flip,
            };
            let stats = run_point_with(&sim, &storage, snr, packets, 42 + i);
            let thr = stats.normalized_throughput();
            let frac = plan.expected_defect_fraction(&model, vdd);
            let power = pm.cell_power(plan.relative_area(), vdd) / pm.cell_power(1.0, 1.0);
            let ok = thr >= requirement;
            if ok {
                min_ok_vdd = vdd;
            }
            println!(
                "{vdd:>6.2} {:>11.4}% {thr:>11.3} {power:>11.3} {:>8}",
                frac * 100.0,
                if ok { "yes" } else { "NO" }
            );
        }
        if min_ok_vdd.is_finite() {
            println!("lowest safe supply: {min_ok_vdd:.2} V\n");
        } else {
            println!("no safe supply found in the sweep\n");
        }
    }
    println!("expected: the hybrid array stays above the requirement well below the");
    println!("6T limit, which is where the paper's ~30% power saving comes from.");
}
