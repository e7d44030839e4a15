//! Host stamp and process memory readings.

use serde::Value;
use std::process::Command;

/// Bumped whenever a workload, a metric definition or a bound changes, so
/// numbers from different harness versions are never compared.
pub const BENCHMARK_VERSION: &str = "2";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn status_kb(key: &str) -> f64 {
    proc_field("/proc/self/status", key)
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// What the process holds at one moment.
#[derive(Clone, Copy)]
pub struct Memory {
    /// Bytes in allocated blocks, MiB: glibc's own count over all arenas
    /// (`mallinfo2`: chunks in use plus blocks it mapped directly). What
    /// the program asked for and has not freed, so it repeats from run to
    /// run where the resident set does not.
    pub heap_mb: f64,
    /// Peak resident set so far (`VmHWM`), MiB: the heap plus whatever
    /// freed memory the allocator's arenas happened to keep.
    pub peak_rss_mb: f64,
}

pub fn memory() -> Memory {
    /// `struct mallinfo2` of glibc 2.33 and later.
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: no arguments, returns a plain struct by value; glibc takes
    // each arena's lock while it counts.
    let info = unsafe { mallinfo2() };
    Memory {
        heap_mb: (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0),
        peak_rss_mb: status_kb("VmHWM") / 1024.0,
    }
}

/// Current resident set (`VmRSS`), KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS")
}

/// Who measured: every report carries this, so a number is never read
/// without the machine and the code it came from.
pub fn stamp(seed: u64, seconds: f64, program_obs: bool) -> Value {
    let unknown = || "unknown".to_string();
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let sha = command_line("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = command_line("git", &["-C", repo, "status", "--porcelain"]).map(|s| !s.is_empty());
    Value::Map(vec![
        (
            "benchmark_version".into(),
            Value::Str(BENCHMARK_VERSION.into()),
        ),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "cpu_model".into(),
            Value::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("git_sha".into(), Value::Str(sha.unwrap_or_else(unknown))),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("program_obs".into(), Value::Bool(program_obs)),
    ])
}
