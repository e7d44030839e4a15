//! What `bench_noise` and `bench_plan` share: the `[--smoke] [--out PATH]`
//! command line, one median, the host stamp every report carries (absolute
//! times only compare between runs on the same machine and toolchain), the
//! JSON writer, and the gate collector behind the exit code.

use serde::Serialize;

/// Where and with what the numbers were taken.
#[derive(Clone, Debug, Serialize)]
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
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            isa_tier: qfw_sim_sv::IsaTier::detect().to_string(),
        }
    }
}

/// Median of a sample (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("report serializes")
}

/// One run of a report binary: its suite, where the report goes, the host
/// it ran on and the gates it failed.
pub struct Run {
    name: &'static str,
    /// CI sizes instead of the full suite.
    pub smoke: bool,
    out: String,
    /// The stamp the report will carry.
    pub host: HostStamp,
    failed: Vec<String>,
}

impl Run {
    /// Reads the process arguments; a usage error exits with status 2.
    pub fn from_args(name: &'static str, default_out: &str) -> Run {
        Run::parse(name, default_out, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{name}: {e}\nusage: {name} [--smoke] [--out PATH]");
            std::process::exit(2)
        })
    }

    fn parse(
        name: &'static str,
        default_out: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Run, String> {
        let mut run = Run {
            name,
            smoke: false,
            out: default_out.to_string(),
            host: HostStamp::take(),
            failed: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => run.smoke = true,
                "--out" => run.out = args.next().ok_or("--out takes a path")?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(run)
    }

    /// Records a gate; a failed one turns the exit code non-zero.
    pub fn gate(&mut self, ok: bool, what: String) {
        if !ok {
            eprintln!("[{}] FAIL: {what}", self.name);
            self.failed.push(what);
        }
    }

    /// 0 when every gate held, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.failed.is_empty())
    }

    /// The report: suite, host stamp and failed gates around the binary's
    /// own measurements.
    pub fn to_json(&self, report: &impl Serialize) -> String {
        format!(
            "{{\"suite\":\"{}\",\"host\":{},\"failed_gates\":{},\"report\":{}}}",
            if self.smoke { "smoke" } else { "full" },
            json(&self.host),
            json(&self.failed),
            json(report),
        )
    }

    /// Writes the report and exits with the gates' verdict.
    pub fn finish(self, report: &impl Serialize) -> ! {
        if let Some(dir) = std::path::Path::new(&self.out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(&self.out, self.to_json(report)).expect("write report");
        eprintln!("[{}] wrote {}", self.name, self.out);
        std::process::exit(self.exit_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Body {
        secs: f64,
    }

    #[test]
    fn report_carries_the_host_stamp_and_a_failed_gate_fails_the_run() {
        let args = ["--smoke", "--out", "x.json"].map(String::from);
        let mut run = Run::parse("t", "default.json", args).expect("parses");
        assert!(run.smoke);
        assert_eq!(run.out, "x.json");
        run.gate(true, "holds".into());
        assert_eq!(run.exit_code(), 0);

        let v: serde::Value = serde_json::from_str(&run.to_json(&Body { secs: 0.5 })).unwrap();
        let host = v.get("host").expect("host stamp");
        assert_eq!(
            host.get("nproc"),
            Some(&serde::Value::UInt(run.host.nproc as u64))
        );
        for key in ["cpu_model", "rustc", "isa_tier"] {
            assert!(matches!(host.get(key), Some(serde::Value::Str(_))), "{key}");
        }
        assert_eq!(v.get("suite"), Some(&serde::Value::Str("smoke".into())));
        assert_eq!(
            v.get("report").and_then(|r| r.get("secs")),
            Some(&serde::Value::Float(0.5))
        );

        run.gate(false, "speedup 1.0x under the 3.0x bar".into());
        assert_eq!(run.exit_code(), 1);
        let v: serde::Value = serde_json::from_str(&run.to_json(&Body { secs: 0.5 })).unwrap();
        assert_eq!(
            v.get("failed_gates"),
            Some(&serde::Value::Seq(vec![serde::Value::Str(
                "speedup 1.0x under the 3.0x bar".into()
            )]))
        );

        assert!(Run::parse("t", "d.json", ["--baseline".to_string()]).is_err());
    }
}
