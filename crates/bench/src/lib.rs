//! Benchmark harness and figure regenerators.
//!
//! Sixteen binaries:
//!
//! * one per paper figure — `fig2`, `fig3`, `fig5`, `fig6a`, `fig6b`,
//!   `fig7`, `fig8`, `fig9` — plus the `power_savings` (§6.3),
//!   `soft_errors`, `die_variation` and `repair_study` extension studies;
//! * `ablations`, which swaps one design choice at a time (LLR storage
//!   format, decoder iterations, fault model, HARQ combining, equalizer);
//! * `golden-gen`, which regenerates the golden decode corpus of
//!   `tests/decode_golden.rs`;
//! * `campaign-admin`, which administers the campaign layer's on-disk
//!   state (`merge` folds `--shard i/n` runs back into single-host files,
//!   `gc` prunes store chunks no replay uses, `verify` replays a manifest
//!   over its store, `stats`/`query` summarize, `export`/`import` convert
//!   between store backends, `top` tails live telemetry);
//! * `campaign-dispatch`, which runs a sharded campaign end to end: it
//!   launches the `--shard i/n` legs of a figure binary, steals work from
//!   dead or stalled legs, and merges and verifies the result.
//!
//! Two bench targets time the computational kernels (`benches/kernels.rs`)
//! and the link simulation and engine (`benches/link_simulation.rs`) on
//! the workspace's offline stand-in for `criterion`.
//!
//! Every binary parses its command line against its own flag table in
//! [`cli`]: an unknown flag or a bad value exits 2 with a usage text.
//! The Monte-Carlo binaries share the budget flags (`--packets N` caps
//! the per-point budget, `--seed S` replicates independently, `--threads
//! T` pins the engine's worker count, which never changes results); the
//! campaign figure binaries add the campaign flags (`--precision`,
//! `--target-ci`, `--shard i/n`, `--manifest-json`, `--resume`/
//! `--no-resume`, `--one-shot`, …) that control the adaptive execution
//! path every figure routes through by default.

pub mod cli;
