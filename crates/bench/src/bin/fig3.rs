//! Regenerates Fig. 3 — memory-cell failure probability vs supply
//! voltage for 6T / upsized-6T / 8T cells (65 nm model).

use resilience_core::experiments::fig3;

fn main() {
    bench::cli::no_flags();
    println!("=== DAC'12 reproduction — Fig. 3: log10 P_cell(Vdd), 65 nm\n");
    let res = fig3::run();
    println!("{}", res.table());
    println!("expected shape: RDF curves fall ~18 decades/V (a billion times per");
    println!("500 mV); the 8T curve sits ~200 mV left of 6T; soft errors are flat.");
}
