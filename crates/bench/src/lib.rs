//! The paper-evaluation harness: regenerates every table and figure of the
//! paper's evaluation (Section 6) on the simulated cluster, plus the two
//! ablations that back a paper mechanism. The stack's own performance is
//! measured by `benchmark/` (its own workspace), not here.
//!
//! * [`config`] — Table 2 as code: workload sizes, DQAOA configurations,
//!   and the (#nodes, #processes) ladder of the weak-scaling secondary
//!   axes. Includes a scaled-down default suite (a laptop is not Frontier;
//!   dense 32-qubit states need 64 GiB) with the paper-scale sizes kept
//!   available behind [`config::Suite::Paper`].
//! * [`runner`] — executes (workload × backend × size) cells with the
//!   paper's three-repetition mean/std protocol, records timing series,
//!   and renders them as aligned text tables and CSV.
//! * [`experiments`] — one entry point per table/figure:
//!   `table1`, `table2`, `fig3a` … `fig3f`, `fig4`, `fig5`, and the two
//!   mechanism ablations `ablation-mps` (Fig 3c) and `ablation-comm`
//!   (Fig 3e).
//! * [`report`] — what `bench_noise` and `bench_plan` share: command line,
//!   median, host-stamped JSON writer, gate collector.
//!
//! The `experiments` binary exposes each as a subcommand.

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;
