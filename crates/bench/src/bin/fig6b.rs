//! Regenerates Fig. 6(b) — average number of transmissions vs SNR under
//! the same defect-rate sweep as Fig. 6(a).

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig6;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("Fig. 6b", "avg transmissions vs SNR vs defect rate", budget)
    );
    let res = fig6::run(&cfg, budget);
    println!("{}", res.table_avg_tx());
    println!("expected shape: defect rates beyond 0.1% push the retransmission");
    println!("count toward the budget (4), wasting energy across the whole chain.\n");
    args.finish("fig6");
}
