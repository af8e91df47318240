//! The metric catalog and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` at the repository root declares the same names and
//! units, and `run.py` refuses a result line whose names or units differ
//! from it.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("packets_per_s", "1/s"),
    ("packets_realized", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("turbo.exact.l16.us_per_cw", "us"),
    ("turbo.exact.l1.us_per_cw", "us"),
    ("turbo.fast32.l16.us_per_cw", "us"),
    ("turbo.earlystop.l16.us_per_cw", "us"),
    ("turbo.scalar.us_per_cw", "us"),
    ("turbo.fast32_vs_exact.ratio", "x"),
    ("turbo.fast32_vs_exact.ratio_lo", "x"),
    ("turbo.fast32_vs_exact.ratio_hi", "x"),
    ("turbo.earlystop_vs_exact.ratio", "x"),
    ("turbo.earlystop_vs_exact.ratio_lo", "x"),
    ("turbo.earlystop_vs_exact.ratio_hi", "x"),
    ("channel.realize_us", "us"),
    ("modulation.demap_ns_per_symbol", "ns"),
    ("dsp.quantize_ns_per_llr", "ns"),
    ("silicon.faulty_rw_ns_per_word", "ns"),
    ("silicon.hybrid_rw_ns_per_word", "ns"),
    ("silicon.secded_rw_ns_per_word", "ns"),
    ("simulator.wave16.us_per_packet", "us"),
    ("simulator.wave1.us_per_packet", "us"),
    ("simulator.packet.us_per_packet", "us"),
    ("simulator.wave1_vs_packet.ratio", "x"),
    ("simulator.wave1_vs_packet.ratio_lo", "x"),
    ("simulator.wave1_vs_packet.ratio_hi", "x"),
    ("simulator.stage.encode.share", "share"),
    ("simulator.stage.modulate.share", "share"),
    ("simulator.stage.channel.share", "share"),
    ("simulator.stage.equalize.share", "share"),
    ("simulator.stage.demap.share", "share"),
    ("simulator.stage.harq.share", "share"),
    ("simulator.stage.decode.share", "share"),
    ("simulator.unaccounted_share", "share"),
    ("engine.t1.packets_per_s", "1/s"),
    ("engine.t2.packets_per_s", "1/s"),
    ("engine.parallel_efficiency", "share"),
    ("engine.lane_occupancy_mean", "lanes"),
    ("engine.buffer_build_ms", "ms"),
    ("campaign.chunks", "count"),
    ("campaign.stage_busy_share", "share"),
    ("store.open_ms.jsonl", "ms"),
    ("store.open_ms.indexed", "ms"),
    ("store.fetch_us", "us"),
    ("store.put_us.jsonl", "us"),
    ("store.put_us.indexed", "us"),
    ("store.hit_ratio", "share"),
    ("store.bytes", "bytes"),
    ("manifest.write_ms", "ms"),
    ("manifest.bytes", "bytes"),
    ("shard.merge_ms", "ms"),
    ("shard.verify_ms", "ms"),
    ("dispatch.launch_ms", "ms"),
    ("dispatch.leg_s_max", "s"),
    ("dispatch.tail_ms", "ms"),
    ("dispatch.legs_launched", "count"),
    ("telemetry.expo_ratio", "x"),
    ("telemetry.snapshot_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    // Single replays of a store take milliseconds, so their percentiles
    // move with the host's fast and slow spells and with scheduler
    // slices from run to run; they are reported here, without a bound.
    // `fig6a-resume`'s `wall_s` carries the replay cost end to end.
    ("replay_ms_p50", "ms"),
    ("replay_ms_p95", "ms"),
];

/// The catalog a run prints: per-layer when traced, end-to-end
/// otherwise.
pub fn catalog(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` is a well-formed metric name: a letter or digit, then
/// at most 63 letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`; panics on a name missing from both catalogs (a
    /// harness bug that `run.py` would otherwise reject at run time).
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.insert(declared, value);
    }

    /// The result line: the JSON object that ends standard output, with every
    /// metric of the run's catalog. Fails when a metric is missing or
    /// not a finite number.
    pub fn result_line(
        &self,
        traced: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::new();
        for (name, unit) in catalog(traced) {
            if !valid_name(name) {
                return Err(format!("malformed metric name {name}"));
            }
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalog(traced).iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} belongs to the other catalog"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_metric_is_well_formed_and_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(
                all[i + 1..].iter().all(|(other, _)| other != name),
                "{name} declared twice"
            );
        }
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
    }

    #[test]
    fn result_line_requires_the_whole_catalog() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.result_line(false, true, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            m.result_line(true, true, 3, 0).is_err(),
            "per-layer missing"
        );
        m.set("wall_s", f64::NAN);
        assert!(m.result_line(false, true, 3, 0).is_err(), "NaN refused");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
