//! Regenerates Fig. 6(a) — normalized throughput vs SNR under LLR-storage
//! defect rates of 0 / 0.1 / 1 / 5 / 10 %.

use bench::cli::{banner, FigureArgs, CAMPAIGN_FIGURE};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::{fig6, THROUGHPUT_REQUIREMENT};

fn main() {
    let args = FigureArgs::from_env(CAMPAIGN_FIGURE);
    let budget = args.budget;
    let cfg = SystemConfig::paper_64qam().with_tier(budget.accuracy_tier);
    println!(
        "{}",
        banner("Fig. 6a", "throughput vs SNR vs defect rate", budget)
    );
    let res = fig6::run(&cfg, budget);
    println!("{}", res.table_throughput());
    let (snr_req, thr_req) = THROUGHPUT_REQUIREMENT;
    for s in res.throughput_series() {
        match s.crossing(thr_req) {
            Some(x) => println!(
                "{:<10} crosses {:.2} at {:5.1} dB (3GPP point: {:.0} dB)",
                s.label, thr_req, x, snr_req
            ),
            None => println!("{:<10} never reaches {:.2}", s.label, thr_req),
        }
    }
    println!("\nexpected shape: <=0.1% defects coincide with defect-free; degradation");
    println!("grows beyond that; even 10% defects still cross the 0.53 requirement.\n");
    args.finish("fig6");
}
