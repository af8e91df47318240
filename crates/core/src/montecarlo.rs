//! Seeded Monte-Carlo runs over storage configurations.
//!
//! [`run_point`] evaluates one `(configuration, storage, SNR)` operating
//! point over many packets, reproducing the paper's worst-case
//! methodology: the fault map is drawn once per run (one die with exactly
//! `N_f` defects) and all packets of the run share that die.
//!
//! These functions are thin serial wrappers over
//! [`crate::engine::SimulationEngine`] and produce statistics that are
//! bit-identical to the engine at any thread count — the per-packet seed
//! tree is the single source of randomness on both paths.

use hspa_phy::harq::{HarqStats, LlrBuffer, PerfectLlrBuffer};
use serde::{Deserialize, Serialize};
use silicon::cell::CellFailureModel;
use silicon::ecc::Secded;
use silicon::fault_map::{FaultKind, FaultMap};
use silicon::ProtectionPlan;

use crate::buffer::{
    EccLlrBuffer, FaultyLlrBuffer, QuantizedLlrBuffer, StorageBuffer, TransientLlrBuffer,
};
use crate::config::SystemConfig;
use crate::engine::SimulationEngine;
use crate::simulator::LinkSimulator;

/// How many cells of the LLR array are defective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefectSpec {
    /// Exact fraction of the (unprotected) cells, the paper's `N_f` in %.
    Fraction(f64),
    /// Exact number of faulty cells.
    Count(usize),
    /// Cell failures drawn per-cell from `P_cell(Vdd)` for the plan's
    /// cell kinds at this supply voltage.
    AtVdd(f64),
}

/// The LLR-storage backend of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StorageConfig {
    /// Ideal float storage (no quantization, no faults).
    Perfect,
    /// Quantized to the configured word width, fault-free.
    Quantized,
    /// Quantized storage on a faulty array under a protection plan.
    Faulty {
        /// Per-bit cell assignment (e.g. MSB protection).
        plan: ProtectionPlan,
        /// Defect population.
        defects: DefectSpec,
        /// Failure mode of defective cells.
        fault_kind: FaultKind,
    },
    /// SECDED-protected storage over a faulty array (the §6.2 baseline).
    Ecc {
        /// Defect population over the widened codeword array.
        defects: DefectSpec,
        /// Failure mode of defective cells.
        fault_kind: FaultKind,
    },
    /// Quantized, defect-free storage hit by transient soft errors: each
    /// stored bit flips on each read with probability `p_upset`.
    Transient {
        /// Per-bit, per-read upset probability.
        p_upset: f64,
    },
}

impl StorageConfig {
    /// Shorthand: unprotected 6T array with an exact defect fraction.
    pub fn unprotected(defect_fraction: f64, llr_bits: u8) -> Self {
        StorageConfig::Faulty {
            plan: ProtectionPlan::uniform(llr_bits, silicon::BitCellKind::Sram6T),
            defects: DefectSpec::Fraction(defect_fraction),
            fault_kind: FaultKind::Flip,
        }
    }

    /// Shorthand: `protected` MSBs in 8T cells, defects (as a fraction of
    /// the unprotected cells) only in the 6T bits.
    pub fn msb_protected(protected: u8, defect_fraction: f64, llr_bits: u8) -> Self {
        StorageConfig::Faulty {
            plan: ProtectionPlan::msb_protected(llr_bits, protected),
            defects: DefectSpec::Fraction(defect_fraction),
            fault_kind: FaultKind::Flip,
        }
    }

    /// Short human-readable label for tables.
    pub fn label(&self) -> String {
        match self {
            StorageConfig::Perfect => "ideal".into(),
            StorageConfig::Quantized => "quantized".into(),
            StorageConfig::Faulty { plan, defects, .. } => match plan.protected_bits() {
                0 => format!("6T, Nf={}", defects_label(defects)),
                prot => format!("hybrid {prot}MSB/8T, Nf={}", defects_label(defects)),
            },
            StorageConfig::Ecc { defects, .. } => format!("SECDED, Nf={}", defects_label(defects)),
            StorageConfig::Transient { p_upset } => format!("transient, p_upset={p_upset:e}"),
        }
    }
}

/// The defect population as it appears in storage labels.
fn defects_label(defects: &DefectSpec) -> String {
    match defects {
        DefectSpec::Fraction(f) => format!("{:.2}%", f * 100.0),
        DefectSpec::Count(n) => format!("{n} cells"),
        DefectSpec::AtVdd(v) => format!("Vdd={v:.2}V"),
    }
}

/// Resolves a defect spec to an exact fault count for `cells` candidate
/// cells.
fn defect_count(defects: DefectSpec, cells: u64) -> usize {
    match defects {
        DefectSpec::Fraction(f) => {
            assert!((0.0..=1.0).contains(&f), "defect fraction must be in [0,1]");
            (cells as f64 * f).round() as usize
        }
        DefectSpec::Count(n) => n,
        DefectSpec::AtVdd(_) => unreachable!("AtVdd handled by the plan path"),
    }
}

/// Builds the fault-injected buffer for a storage configuration.
///
/// `seed` controls the fault-map draw (one die per run); for
/// [`StorageConfig::Transient`] it roots the per-packet upset streams.
/// A boxed [`build_storage`].
pub fn build_buffer(
    cfg: &SystemConfig,
    storage: &StorageConfig,
    seed: u64,
) -> Box<dyn LlrBuffer + Send> {
    Box::new(build_storage(cfg, storage, seed))
}

/// Builds the buffer of one die, as the `Clone`-able [`StorageBuffer`]
/// (see [`build_buffer`] for `seed`).
pub fn build_storage(cfg: &SystemConfig, storage: &StorageConfig, seed: u64) -> StorageBuffer {
    let words = cfg.coded_len() as u32;
    let quantizer = cfg.quantizer();
    match storage {
        StorageConfig::Perfect => StorageBuffer::Perfect(PerfectLlrBuffer::new(cfg.coded_len())),
        StorageConfig::Quantized => {
            StorageBuffer::Quantized(QuantizedLlrBuffer::new(cfg.coded_len(), quantizer))
        }
        StorageConfig::Faulty {
            plan,
            defects,
            fault_kind,
        } => {
            assert_eq!(plan.bits(), cfg.llr_bits, "plan width must match LLR width");
            let map = match defects {
                DefectSpec::AtVdd(vdd) => plan.fault_map_at_vdd(
                    words,
                    &CellFailureModel::dac12(),
                    *vdd,
                    *fault_kind,
                    seed,
                ),
                spec => {
                    let unprot = plan
                        .unprotected_range()
                        .expect("defect fractions need an MSB-protection plan");
                    let unprot_cells = words as u64 * unprot.len() as u64;
                    let n = defect_count(*spec, unprot_cells);
                    if unprot.is_empty() || n == 0 {
                        FaultMap::defect_free(words, plan.bits())
                    } else {
                        FaultMap::random_in_bits(words, plan.bits(), unprot, n, *fault_kind, seed)
                    }
                }
            };
            StorageBuffer::Faulty(FaultyLlrBuffer::new(map, quantizer))
        }
        StorageConfig::Ecc {
            defects,
            fault_kind,
        } => {
            let code = Secded::new(cfg.llr_bits);
            let width = code.codeword_bits();
            let map = match defects {
                DefectSpec::AtVdd(vdd) => {
                    let plan = ProtectionPlan::uniform(width, silicon::BitCellKind::Sram6T);
                    plan.fault_map_at_vdd(
                        words,
                        &CellFailureModel::dac12(),
                        *vdd,
                        *fault_kind,
                        seed,
                    )
                }
                spec => {
                    let cells = words as u64 * width as u64;
                    let n = defect_count(*spec, cells);
                    if n == 0 {
                        FaultMap::defect_free(words, width)
                    } else {
                        FaultMap::random_exact(words, width, n, *fault_kind, seed)
                    }
                }
            };
            StorageBuffer::Ecc(EccLlrBuffer::new(map, quantizer))
        }
        StorageConfig::Transient { p_upset } => StorageBuffer::Transient(TransientLlrBuffer::new(
            QuantizedLlrBuffer::new(cfg.coded_len(), quantizer),
            quantizer,
            *p_upset,
            seed,
        )),
    }
}

/// Runs `n_packets` transport blocks at one `(storage, SNR)` point.
///
/// Fully deterministic in `seed`: the fault map uses one derived stream
/// ([`STREAM_FAULT_MAP`]) and every packet its own derived stream, so the
/// result equals the parallel engine's for the same seed.
pub fn run_point(
    cfg: &SystemConfig,
    storage: &StorageConfig,
    snr_db: f64,
    n_packets: usize,
    seed: u64,
) -> HarqStats {
    let sim = LinkSimulator::new(*cfg);
    run_point_with(&sim, storage, snr_db, n_packets, seed)
}

/// Like [`run_point`] but reuses an existing simulator (cheaper inside
/// sweeps: the turbo interleaver is rebuilt otherwise).
pub fn run_point_with(
    sim: &LinkSimulator,
    storage: &StorageConfig,
    snr_db: f64,
    n_packets: usize,
    seed: u64,
) -> HarqStats {
    SimulationEngine::serial().run_point(sim, storage, snr_db, n_packets, seed)
}

/// Runs a full SNR sweep for one storage configuration (serially; use
/// [`SimulationEngine::run_sweep`] directly for the parallel version).
pub fn run_sweep(
    sim: &LinkSimulator,
    storage: &StorageConfig,
    snrs_db: &[f64],
    n_packets: usize,
    seed: u64,
) -> Vec<HarqStats> {
    SimulationEngine::serial().run_sweep(sim, storage, snrs_db, n_packets, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_and_quantized_agree_at_high_snr() {
        let cfg = SystemConfig::fast_test();
        let a = run_point(&cfg, &StorageConfig::Perfect, 25.0, 10, 9);
        let b = run_point(&cfg, &StorageConfig::Quantized, 25.0, 10, 9);
        assert_eq!(a.delivered, b.delivered);
        assert!((a.normalized_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SystemConfig::fast_test();
        let s = StorageConfig::unprotected(0.05, cfg.llr_bits);
        let a = run_point(&cfg, &s, 10.0, 8, 3);
        let b = run_point(&cfg, &s, 10.0, 8, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn moderate_defects_tolerated_high_defects_hurt() {
        let cfg = SystemConfig::fast_test();
        let snr = 14.0;
        let n = 12;
        let clean = run_point(&cfg, &StorageConfig::Quantized, snr, n, 21);
        let light = run_point(
            &cfg,
            &StorageConfig::unprotected(0.001, cfg.llr_bits),
            snr,
            n,
            21,
        );
        let heavy = run_point(
            &cfg,
            &StorageConfig::unprotected(0.25, cfg.llr_bits),
            snr,
            n,
            21,
        );
        assert_eq!(
            clean.delivered, light.delivered,
            "0.1% defects must be transparent"
        );
        assert!(
            heavy.normalized_throughput() < clean.normalized_throughput(),
            "25% defects must degrade throughput: {} vs {}",
            heavy.normalized_throughput(),
            clean.normalized_throughput()
        );
    }

    #[test]
    fn msb_protection_recovers_throughput() {
        let cfg = SystemConfig::fast_test();
        let snr = 12.0;
        let n = 12;
        let frac = 0.15;
        let unprot = run_point(
            &cfg,
            &StorageConfig::unprotected(frac, cfg.llr_bits),
            snr,
            n,
            33,
        );
        let prot = run_point(
            &cfg,
            &StorageConfig::msb_protected(4, frac, cfg.llr_bits),
            snr,
            n,
            33,
        );
        assert!(
            prot.normalized_throughput() >= unprot.normalized_throughput(),
            "protection must not hurt: {} vs {}",
            prot.normalized_throughput(),
            unprot.normalized_throughput()
        );
    }

    #[test]
    fn ecc_buffer_handles_sparse_defects() {
        let cfg = SystemConfig::fast_test();
        let storage = StorageConfig::Ecc {
            defects: DefectSpec::Fraction(0.001),
            fault_kind: FaultKind::Flip,
        };
        let stats = run_point(&cfg, &storage, 25.0, 6, 5);
        assert_eq!(
            stats.delivered, stats.packets,
            "sparse faults fully corrected"
        );
    }

    #[test]
    fn vdd_spec_builds() {
        let cfg = SystemConfig::fast_test();
        let storage = StorageConfig::Faulty {
            plan: ProtectionPlan::msb_protected(10, 4),
            defects: DefectSpec::AtVdd(0.65),
            fault_kind: FaultKind::Flip,
        };
        let stats = run_point(&cfg, &storage, 25.0, 4, 6);
        assert_eq!(stats.packets, 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn buffers_match_configured_geometry(frac in 0.0f64..0.3, prot in 0u8..=10,
                                                 seed in 0u64..100) {
                let cfg = SystemConfig::fast_test();
                let storage = StorageConfig::msb_protected(prot, frac, cfg.llr_bits);
                let buf = build_buffer(&cfg, &storage, seed);
                prop_assert_eq!(buf.capacity(), cfg.coded_len());
            }

            #[test]
            fn fault_maps_are_seed_deterministic(frac in 0.01f64..0.2, seed in 0u64..50) {
                let cfg = SystemConfig::fast_test();
                let storage = StorageConfig::unprotected(frac, cfg.llr_bits);
                let mut a = build_buffer(&cfg, &storage, seed);
                let mut b = build_buffer(&cfg, &storage, seed);
                let v = vec![7.0; cfg.coded_len()];
                a.store(&v);
                b.store(&v);
                prop_assert_eq!(a.load(), b.load());
            }

            #[test]
            fn labels_never_empty(frac in 0.0f64..0.5, prot in 0u8..=10) {
                let s1 = StorageConfig::unprotected(frac, 10);
                let s2 = StorageConfig::msb_protected(prot, frac, 10);
                prop_assert!(!s1.label().is_empty());
                prop_assert!(!s2.label().is_empty());
            }
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(StorageConfig::Perfect.label(), "ideal");
        assert!(StorageConfig::unprotected(0.1, 10)
            .label()
            .contains("10.00%"));
        assert!(StorageConfig::msb_protected(4, 0.1, 10)
            .label()
            .contains("4MSB"));
    }
}
