//! Regenerates Fig. 8 — protection efficiency (throughput gain per unit
//! area) vs number of protected bits at 10% defects, plus ECC baseline.

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig8;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    // Mid-waterfall SNR: where the unprotected system suffers most.
    let snr = 9.0;
    println!(
        "{}",
        banner("Fig. 8", "protection efficiency at Nf=10%", budget)
    );
    let res = fig8::run(&cfg, budget, snr);
    println!("{}", res.table());
    println!("best gain/area protection: {} MSBs", res.best_protection());
    println!("\nexpected shape: gain saturates at 3-4 protected bits (~12-13% area);");
    println!("full-word SECDED pays >=35-50% area for no additional throughput.\n");
    args.finish("fig8");
}
