//! Extension study: transient soft errors vs persistent defects (§3).

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::soft_errors;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("§3 ext", "soft-error (transient upset) sensitivity", budget)
    );
    let res = soft_errors::run(&cfg, budget, 18.0);
    println!("{}", res.table());
    println!("expected shape: throughput unaffected until ~1e-4 upsets/bit/read,");
    println!("orders of magnitude above the model's prediction - persistent RDF");
    println!("defects, not soft errors, are the binding constraint (paper §3).\n");
    args.finish("soft-errors");
}
