//! Extension study (§3): spare-row/column repair vs defect acceptance.
//!
//! Quantifies the paper's claim that conventional redundancy becomes
//! insufficient as defect rates grow, while accepting faulty cells
//! (backed by the system's inherent resilience) keeps yielding.

use resilience_core::report::render_table;
use silicon::repair::{yield_with_repair, ArrayGeometry, SpareBudget};
use silicon::yield_model::yield_accepting;

fn main() {
    bench::cli::no_flags();
    let g = ArrayGeometry {
        rows: 256,
        cols: 128,
    }; // 32 Kb tile
    let budget = SpareBudget { rows: 4, cols: 4 };
    println!("=== DAC'12 reproduction — §3 ext: repair vs acceptance yield");
    println!(
        "=== {}x{} tile, {} spare rows + {} spare columns\n",
        g.rows, g.cols, budget.rows, budget.cols
    );
    let mut rows = Vec::new();
    for (i, p) in [1e-5f64, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2].iter().enumerate() {
        let y_zero = yield_accepting(g.cells(), *p, 0);
        let y_rep = yield_with_repair(g, *p, budget, 400, 100 + i as u64);
        let tol = g.cells() / 100; // tolerate 1% faulty cells
        let y_acc = yield_accepting(g.cells(), *p, tol);
        rows.push(vec![
            format!("{p:.0e}"),
            format!("{:.1}", g.cells() as f64 * p),
            format!("{y_zero:.3}"),
            format!("{y_rep:.3}"),
            format!("{y_acc:.3}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Pcell".into(),
                "E[faults]".into(),
                "zero-defect".into(),
                "4+4 spares".into(),
                "accept 1%".into()
            ],
            &rows,
        )
    );
    println!("expected shape: spares rescue yield for a handful of faults, then");
    println!("collapse; acceptance (enabled by system resilience) keeps yielding");
    println!("until E[faults] approaches the tolerated count - the paper's §3 point.");
}
