//! Peak resident memory of a workload's timed phase.
//!
//! Set-up is left out: the high-water mark is reset when timing starts.

use std::fs;

use crate::workloads::{ctx_err, Res};

/// A field of `/proc/self/status`, in KB.
fn status_kb(field: &str) -> Res<f64> {
    let status = fs::read_to_string("/proc/self/status").map_err(ctx_err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Resets this process's resident high-water mark (VmHWM) to its
/// current resident set; returns that resident set in KB.
pub fn reset_peak() -> Res<f64> {
    fs::write("/proc/self/clear_refs", "5").map_err(ctx_err("/proc/self/clear_refs"))?;
    status_kb("VmRSS")
}

/// This process's resident high-water mark since the last reset, in KB.
pub fn peak_kb() -> Res<f64> {
    status_kb("VmHWM")
}
