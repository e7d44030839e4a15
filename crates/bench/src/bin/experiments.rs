//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <command> [--paper] [--csv <dir>]
//!
//! commands:
//!   table1 | table2
//!   fig3a | fig3b | fig3c | fig3c-strong | fig3d | fig3e | fig3f
//!   fig4  | fig5
//!   ablation-mps | ablation-comm
//!   all          run everything in order
//! ```
//!
//! `--paper` switches from the scaled-down quick suite to the paper's
//! Table 2 sizes (hours of runtime and tens of GiB of memory).
//! `--csv DIR` additionally writes each figure's raw cells to `DIR`.

use qfw_bench::config::Suite;
use qfw_bench::experiments as exp;
use qfw_bench::runner::{to_csv, Cell};
use std::io::Write as _;

fn write_csv(dir: Option<&str>, name: &str, cells: &[Cell]) {
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = format!("{dir}/{name}.csv");
    std::fs::write(&path, to_csv(cells)).expect("write csv");
    eprintln!("  wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let suite = if args.iter().any(|a| a == "--paper") {
        Suite::Paper
    } else {
        Suite::Quick
    };
    let csv_dir: Option<String> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let csv = csv_dir.as_deref();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut run = |name: &str| {
        eprintln!("[experiments] running {name} ({suite:?})");
        match name {
            "table1" => writeln!(out, "{}", exp::table1()).unwrap(),
            "table2" => writeln!(out, "{}", exp::table2(suite)).unwrap(),
            "fig3a" => {
                let (text, cells) = exp::fig3a(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3a", &cells);
            }
            "fig3b" => {
                let (text, cells) = exp::fig3b(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3b", &cells);
            }
            "fig3c" => {
                let (text, cells) = exp::fig3c(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3c", &cells);
            }
            "fig3c-strong" => {
                let (text, cells) = exp::fig3c_strong(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3c_strong", &cells);
            }
            "fig3d" => {
                let (text, cells) = exp::fig3d(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3d", &cells);
            }
            "fig3e" => {
                let (text, cells) = exp::fig3e(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig3e", &cells);
            }
            "fig3f" => writeln!(out, "{}", exp::fig3f(suite)).unwrap(),
            "fig4" => {
                let (text, cells) = exp::fig4(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "fig4", &cells);
            }
            "fig5" => writeln!(out, "{}", exp::fig5(suite)).unwrap(),
            "ablation-mps" => {
                let (text, cells) = exp::ablation_mps(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "ablation_mps", &cells);
            }
            "ablation-comm" => {
                let (text, cells) = exp::ablation_comm(suite);
                writeln!(out, "{text}").unwrap();
                write_csv(csv, "ablation_comm", &cells);
            }
            other => {
                eprintln!("unknown command '{other}'");
                std::process::exit(2);
            }
        }
    };

    if command == "all" {
        for name in [
            "table1",
            "table2",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig3c-strong",
            "fig3d",
            "fig3e",
            "fig3f",
            "fig4",
            "fig5",
            "ablation-mps",
            "ablation-comm",
        ] {
            run(name);
        }
    } else {
        run(&command);
    }
}
