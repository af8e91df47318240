//! Extension study: die-to-die variation under a fixed defect count —
//! validates the paper's single-fault-map worst-case methodology.

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::die_variation;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("die-var", "throughput spread across dies", budget)
    );
    for frac in [0.01, 0.10] {
        let res = die_variation::run(&cfg, budget, 15.0, frac, 12);
        println!("{}", res.table());
    }
    println!("expected: modest spread (fault count, not location, dominates) -");
    println!("supporting the paper's 'bin dies by Nf' selection criterion.\n");
    args.finish("die-variation");
}
