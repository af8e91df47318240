//! Regenerates Fig. 2 — decoding-failure probability over HARQ
//! transmissions at three SNR regimes (defect-free system).

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig2;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!("{}", banner("Fig. 2", "BLER vs HARQ transmission", budget));
    let res = fig2::run(&cfg, budget);
    println!("{}", res.table());
    println!("expected shape: ~95% first-try decoding at 29 dB; partial at 11 dB;");
    println!("virtually all packets retransmitted at 3 dB with BLER falling per combine.\n");
    args.finish("fig2");
}
