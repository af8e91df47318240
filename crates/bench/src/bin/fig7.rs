//! Regenerates Fig. 7 — throughput after 8T-protecting 0-6 MSBs of each
//! stored LLR, with 1% (panel a) and 10% (panel b) defects in the 6T bits.

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig7;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("Fig. 7", "throughput vs protected MSBs", budget)
    );
    let res = fig7::run(&cfg, budget);
    println!(
        "--- panel (a): Nf = 1% in 6T cells\n{}",
        res.panel_a.table()
    );
    println!(
        "--- panel (b): Nf = 10% in 6T cells\n{}",
        res.panel_b.table()
    );
    println!("expected shape: protecting 3-4 MSBs recovers (almost) the defect-free");
    println!("curve even under 10% defects in the remaining bits.\n");
    args.finish("fig7");
}
