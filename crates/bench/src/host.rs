//! The host stamp the perf reports carry: absolute times only compare
//! between runs on the same machine and toolchain.

use serde::{Deserialize, Serialize};

/// Where and with what the numbers were taken.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostStamp {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`, when readable.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH`, when runnable.
    pub rustc: String,
    /// Kernel tier the tile executor picked on this CPU.
    pub isa_tier: String,
}

/// Trimmed stdout of a command, `"unknown"` when it cannot be run.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostStamp {
    /// Reads the stamp off the running host.
    pub fn take() -> HostStamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            isa_tier: qfw_sim_sv::IsaTier::detect().to_string(),
        }
    }
}
