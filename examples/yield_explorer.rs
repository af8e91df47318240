//! Yield explorer: how many defective cells should a manufacturer accept?
//!
//! ```text
//! cargo run --release --example yield_explorer [-- <cells> <target>]
//! ```
//!
//! Walks the paper's Section 4 yield methodology: for each supply voltage
//! the cell-failure model gives `P_cell`; Eq. (2) then says how many
//! faulty cells must be accepted to hit the yield target, and what defect
//! *fraction* that is — the number the throughput experiments consume.

mod args;

use args::Positional;

use silicon::cell::{BitCellKind, CellFailureModel};
use silicon::yield_model::{min_accepted_faults, yield_accepting, yield_zero_defect};

fn main() {
    let args = Positional::from_env(
        "cargo run --release --example yield_explorer [-- <cells> <target>]",
        2,
    );
    let cells: u64 = args.get(0, "cell count", 200 * 1024, |&n| n > 0);
    let target: f64 = args.get(1, "yield target", 0.95, |&y| y > 0.0 && y < 1.0);
    let model = CellFailureModel::dac12();

    println!(
        "array: {cells} cells, yield target {:.0}%\n",
        target * 100.0
    );
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>12} {:>10}",
        "Vdd", "Pcell(6T)", "Y(zero-defect)", "Nf@target", "defect %", "verdict"
    );
    println!("{}", "-".repeat(70));
    for i in 0..=10 {
        let vdd = 1.0 - 0.04 * i as f64;
        let p = model.p_cell(BitCellKind::Sram6T, vdd);
        let y0 = yield_zero_defect(cells, p);
        let nf = min_accepted_faults(cells, p, target);
        let (nf_str, frac_str, verdict) = match nf {
            Some(n) => {
                let frac = n as f64 / cells as f64;
                let verdict = if frac <= 0.001 {
                    "free lunch"
                } else if frac <= 0.10 {
                    "needs resilience"
                } else {
                    "needs protection"
                };
                (n.to_string(), format!("{:.4}%", frac * 100.0), verdict)
            }
            None => ("-".into(), "-".into(), "hopeless"),
        };
        println!("{vdd:>6.2} {p:>10.1e} {y0:>14.3e} {nf_str:>12} {frac_str:>12} {verdict:>10}");
    }

    // The paper's Fig. 5 anchor, spelled out.
    let p = 1e-4;
    let nf_01pct = (cells as f64 * 0.001) as u64;
    println!("\nFig. 5 anchor: Pcell = 1e-4 on this array:");
    println!(
        "  zero-defect yield      = {:.2e}",
        yield_zero_defect(cells, p)
    );
    println!(
        "  accepting 0.1% defects = {:.4}",
        yield_accepting(cells, p, nf_01pct)
    );
    println!("  -> accepting a tiny defect count converts scrap into sellable dies.");
}
