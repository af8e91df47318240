//! System-level fault simulator for wireless error resilience.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! methodology that injects silicon-level faults (from the [`silicon`]
//! substrate) into the HARQ LLR storage of a standard-compliant HSPA+
//! link (from the [`hspa_phy`] substrate) and measures the system-level
//! consequences — normalized throughput, average retransmission count,
//! manufacturing yield and protection-scheme efficiency.
//!
//! The pieces:
//!
//! * [`buffer`] — LLR storage backends: quantized-but-perfect, faulty
//!   (6T / hybrid 6T-8T arrays with fault maps), and SECDED-protected.
//! * [`config`] — the simulated link configuration (block length,
//!   modulation, code rate, HARQ budget, quantizer, channel).
//! * [`simulator`] — one-packet link simulation: encode → rate-match →
//!   interleave → modulate → fade+noise → MMSE equalize → demap →
//!   *store in the (faulty) LLR memory* → combine → turbo decode → CRC.
//! * [`montecarlo`] — seeded multi-packet Monte-Carlo runs (serial API).
//! * [`engine`] — the parallel Monte-Carlo engine: shards packets and
//!   whole operating points across worker threads with per-packet RNG
//!   streams, so results are bit-identical for any thread count.
//! * [`campaign`] — adaptive-budget campaigns above the engine: per-point
//!   Wilson-CI stopping (relative `--precision` or absolute
//!   `--target-ci`), a persistent JSONL result store that makes re-runs
//!   resume instead of re-simulate, a manifest of achieved precision per
//!   point, and a multi-host sharding coordinator (`--shard i/n` plus
//!   merge/GC/verify admin tooling) that distributes a grid across
//!   machines with bit-identical merged results.
//! * [`experiments`] — one module per paper figure (Figs. 2–9), each
//!   producing serializable series plus formatted tables.
//! * [`failpoint`] — deterministic fault injection (seeded, replayable)
//!   compiled into the dispatcher, launchers and store backends for the
//!   chaos test suite; zero overhead unarmed.
//! * [`report`] — plain-text table rendering shared by binaries.
//! * [`telemetry`] — always-on lock-free metrics (counters, gauges,
//!   histograms on per-thread shards), span timing, and the opt-in
//!   (`--telemetry`) exposition surfaces: live snapshot JSON, JSONL
//!   event log, Prometheus text.
//!
//! # Example
//!
//! ```no_run
//! use resilience_core::config::SystemConfig;
//! use resilience_core::montecarlo::{run_point, StorageConfig};
//!
//! let cfg = SystemConfig::fast_test();
//! let stats = run_point(&cfg, &StorageConfig::Perfect, 15.0, 20, 42);
//! println!("throughput {:.2}", stats.normalized_throughput());
//! ```

#![forbid(unsafe_code)]

mod artifact;
pub mod buffer;
pub mod campaign;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod failpoint;
pub mod montecarlo;
pub mod report;
pub mod simulator;
pub mod telemetry;

pub use buffer::{
    EccLlrBuffer, FaultyLlrBuffer, QuantizedLlrBuffer, StorageBuffer, TransientLlrBuffer,
};
pub use campaign::{Campaign, CampaignPoint, CampaignReport, CampaignSettings, ShardSpec};
pub use config::SystemConfig;
pub use engine::{ChunkSpec, GridResult, PointSpec, SimulationEngine};
pub use montecarlo::{run_point, DefectSpec, StorageConfig};
