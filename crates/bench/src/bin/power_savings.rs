//! Regenerates the Section 6.3 power study: voltage scaling enabled by
//! defect tolerance and MSB protection (~30% HARQ-block power saving).

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::power;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    let snr = 9.0; // the paper's retransmission comparison point
    println!(
        "{}",
        banner("§6.3", "power reduction via defect tolerance", budget)
    );
    let res = power::run(&cfg, budget, snr);
    println!("{}", res.table());
    println!("expected shape: 6T@0.8V saves ~30-40% with no throughput cost;");
    println!("hybrid@0.6V saves more while needing fewer retransmissions than the");
    println!("unprotected 0.6V array (paper: 2.4 vs 3.5 at 9 dB).\n");
    args.finish("power");
}
