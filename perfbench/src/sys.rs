//! Process-level facts the benchmark records or guards on: environment
//! overrides, peak memory, CPU time, the host and the commit.

use std::path::{Path, PathBuf};

/// Environment variables that change the program being measured: a
/// fault plan injects failures, and disabling memoization takes a
/// different engine path.
pub const FORBIDDEN_ENV: [&str; 2] = ["PAXSIM_FAULTS", "PAXSIM_DISABLE_MEMO"];

/// The first forbidden variable that is set, if any.
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident memory (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU seconds this process has used (all threads).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second
    // on Linux).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit being measured, when the checkout is a git repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// The observability switch as the environment sets it.
pub fn obs_env() -> String {
    std::env::var("PAXSIM_OBS").unwrap_or_else(|_| "unset".to_string())
}

/// A fresh scratch directory under `.perfbench/` in the working
/// directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(".perfbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
