//! What the run learns about the process and the machine: peak memory,
//! CPU time, and the provenance that lets a disagreeing run be traced to
//! the machine rather than the code.

use std::path::Path;
use std::time::Duration;

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(-1.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of the whole process so far (`getrusage`).
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals followed by fourteen longs); RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let us = (ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec;
    Duration::from_micros(us.max(0) as u64)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unavailable".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the sources came from, when `root` is itself a git
/// checkout (a plain file tree reports `unavailable`). Only `root` is
/// asked: git would otherwise search the parent directories and report
/// some enclosing repository's commit.
pub fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_owned())
}
