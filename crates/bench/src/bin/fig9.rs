//! Regenerates Fig. 9 — throughput under 10/11/12-bit LLR quantization
//! with an unprotected array at 10% defects.

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig9;

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("Fig. 9", "bit-width vs defect interaction", budget)
    );
    let res = fig9::run(&cfg, budget);
    println!("{}", res.table());
    for (i, w) in fig9::BIT_WIDTHS.iter().enumerate() {
        println!(
            "{w}-bit: {} storage cells, high-SNR mean throughput {:.3}",
            res.storage_cells[i],
            res.high_snr_mean(i)
        );
    }
    println!("\nexpected shape: under 10% defects the 10-bit system matches or beats");
    println!("11/12-bit at high SNR - bigger arrays collect more faults.\n");
    args.finish("fig9");
}
