//! Regenerates Fig. 5 — yield vs number of accepted faulty cells for a
//! 200 Kb array at several cell-failure probabilities (Eq. 2).

use resilience_core::experiments::fig5;

fn main() {
    bench::cli::no_flags();
    println!("=== DAC'12 reproduction — Fig. 5: yield Y(Nf), 200 Kb array\n");
    let res = fig5::run();
    println!("{}", res.table());
    println!("expected shape: sigmoids around M*Pcell; at Pcell=1e-4 accepting 0.1%");
    println!("defects meets the 95% target that zero-defect screening cannot.");
}
