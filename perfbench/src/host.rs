//! Host and configuration fingerprint, and process memory readings.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// A field of `/proc/self/status` (the leading number), if present.
fn proc_status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_field("VmHWM:").map(|kb| kb / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> Option<f64> {
    proc_status_field("Threads:")
}

/// The aggregate `cpu` line of `/proc/stat`: jiffies per state.
pub fn cpu_jiffies() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().skip(1).map(|x| x.parse().ok()).collect()
}

/// Share of all CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor gave to other guests (`steal`, the 8th field), in percent.
pub fn steal_pct(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).collect();
    let total: u64 = delta.iter().sum();
    let steal = *delta.get(7)?;
    (total > 0).then(|| 100.0 * steal as f64 / total as f64)
}

/// Online CPUs as the OS reports them.
fn nproc() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut n = 0;
    for range in text.trim().split(',') {
        let mut ends = range.split('-').map(|x| x.parse::<usize>().ok());
        let lo = ends.next()??;
        let hi = ends.next().flatten().unwrap_or(lo);
        n += hi - lo + 1;
    }
    Some(n)
}

/// The repository's checked-out revision, read from git at run time, or
/// `unknown` outside a git checkout. Only the repository's own `.git` is
/// consulted, never a directory above it.
fn git_revision() -> String {
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if !git_dir.exists() {
        return "unknown".into();
    }
    Command::new("git")
        .arg("--git-dir")
        .arg(&git_dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a record needs to say where and how it was measured.
pub fn fingerprint(log_sink: &str) -> Value {
    json!({
        "nproc": nproc(),
        "available_parallelism": std::thread::available_parallelism().map(|n| n.get()).ok(),
        "simd_tier": microarray::simd::active_path(),
        "pool_lanes": bstc::pool::global().lanes(),
        "kernel_block_bytes": bstc::compiled::DEFAULT_KERNEL_BLOCK_BYTES,
        "log_sink": log_sink,
        "git_revision": git_revision(),
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
    })
}
