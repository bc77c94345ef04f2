//! The host block: every output says what machine produced it.

use serde::Value;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Threads `rayon` combinators use in this process (the harness sets
    /// no environment variable; this is the library's own default).
    pub rayon_threads: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
    /// One-minute load average when the run started.
    pub load1: f64,
}

/// First line a command prints, or "unknown" (no such tool, or — for git
/// — a checkout that is not a repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            cpu,
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
            load1,
        }
    }

    /// A busy host widens every wall metric; say so, but measure anyway.
    pub fn overloaded(&self) -> bool {
        self.load1 > 0.5 * self.nproc as f64
    }

    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("rayon_threads".into(), Value::U64(self.rayon_threads as u64)),
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("commit".into(), Value::Str(self.commit.clone())),
            ("load1".into(), Value::F64(self.load1)),
        ])
    }
}
