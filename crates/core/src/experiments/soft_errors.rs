//! Extension study — transient soft errors versus persistent defects.
//!
//! Section 3 of the paper notes that soft-error rates grow only 3× per
//! 500 mV while RDF failures grow a billion-fold, and concludes that
//! persistent parametric faults dominate. This study makes that argument
//! quantitative at the system level: it sweeps a synthetic per-read
//! upset probability over the LLR storage and finds the rate at which
//! throughput starts to move — orders of magnitude above what the
//! soft-error model predicts at any realistic supply.

use serde::{Deserialize, Serialize};

use silicon::cell::SoftErrorModel;

use crate::config::SystemConfig;
use crate::engine::PointSpec;
use crate::montecarlo::StorageConfig;
use crate::report::{render_table, Series};
use crate::simulator::LinkSimulator;

use super::ExperimentBudget;

/// Upset probabilities swept (per bit, per read).
pub const UPSET_RATES: [f64; 6] = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];

/// Result of the soft-error study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftErrorResult {
    /// Evaluation SNR (dB).
    pub snr_db: f64,
    /// Upset rates swept.
    pub p_upset: Vec<f64>,
    /// Normalized throughput per rate.
    pub throughput: Vec<f64>,
    /// The model-predicted upset rate at 0.6 V for context.
    pub model_rate_at_06v: f64,
}

/// Runs the study at `snr_db`.
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget, snr_db: f64) -> SoftErrorResult {
    let sim = LinkSimulator::new(*cfg);
    // One upset rate per point; the transient buffer reseeds its upset
    // stream per packet (begin_packet), so sharding cannot shift draws.
    let specs: Vec<PointSpec> = UPSET_RATES
        .iter()
        .enumerate()
        .map(|(i, &p_upset)| PointSpec {
            storage: StorageConfig::Transient { p_upset },
            snr_db,
            n_packets: budget.packets_per_point,
            seed: budget.seed.wrapping_add(1 + i as u64),
        })
        .collect();
    let stats = budget.runner("soft-errors").run_batch(&sim, &specs);
    let throughput = stats.iter().map(|s| s.normalized_throughput()).collect();
    SoftErrorResult {
        snr_db,
        p_upset: UPSET_RATES.to_vec(),
        throughput,
        model_rate_at_06v: SoftErrorModel::dac12().p_upset(0.6),
    }
}

impl SoftErrorResult {
    /// The throughput curve as a series over `log10 p_upset`.
    pub fn series(&self) -> Series {
        let x: Vec<f64> = self
            .p_upset
            .iter()
            .map(|&p| if p == 0.0 { -9.0 } else { p.log10() })
            .collect();
        Series::new("throughput", x, self.throughput.clone())
    }

    /// Formats the study as a table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .p_upset
            .iter()
            .zip(&self.throughput)
            .map(|(&p, &t)| vec![format!("{p:.0e}"), format!("{t:.4}")])
            .collect();
        let mut out = render_table(&["p_upset/bit/read".into(), "throughput".into()], &rows);
        out.push_str(&format!(
            "\nsoft-error model prediction at 0.6 V: {:.1e} per bit per read\n",
            self.model_rate_at_06v
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_errors_negligible_until_large() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke(), 16.0);
        assert_eq!(res.throughput.len(), UPSET_RATES.len());
        // 1e-6 upsets are transparent relative to the clean system.
        assert!((res.throughput[1] - res.throughput[0]).abs() < 0.35);
        // The model-predicted rate is far below anything that matters.
        assert!(res.model_rate_at_06v < 1e-9);
        assert!(res.table().contains("p_upset"));
    }
}
