//! Cell execution and series rendering for the experiment harness.

use qfw::{QfwBackend, QfwError, QfwSession};
use qfw_circuit::Circuit;
use qfw_hpc::RunStats;
use qfw_obs::Obs;
use std::fmt::Write as _;
use std::time::Duration;

/// One measured point of a figure: a (workload, backend, size) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload label (e.g. `ghz`).
    pub workload: String,
    /// `backend/subbackend` label.
    pub backend: String,
    /// Problem size (qubits or QUBO variables).
    pub size: usize,
    /// Weak-scaling resources used, as (#nodes, #procs-per-node).
    pub resources: (usize, usize),
    /// Mean/std over repetitions; `None` renders as the paper's red `X`
    /// (cutoff or unsupported configuration).
    pub stats: Option<RunStats>,
    /// Why the cell is missing, when it is; otherwise empty, or what else
    /// the cell measured (an ablation's truncation error).
    pub note: String,
}

impl Cell {
    fn value_text(&self) -> String {
        match &self.stats {
            Some(s) if self.note.is_empty() => {
                format!("{:>10.4}s ±{:>8.4}", s.mean_secs, s.std_secs)
            }
            Some(s) => format!("{:>10.4}s ±{:>8.4}  {}", s.mean_secs, s.std_secs, self.note),
            None => format!("{:>10} ({})", "X", self.note),
        }
    }
}

/// Runs one cell: `reps` timed executions of the circuit through the
/// backend, respecting the walltime cutoff (first overrun marks the cell
/// as missing — the paper's "configuration omitted due to exceeding
/// walltime").
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    backend: &QfwBackend,
    workload: &str,
    circuit: &Circuit,
    size: usize,
    resources: (usize, usize),
    shots: usize,
    reps: usize,
    cutoff_secs: f64,
) -> Cell {
    run_cell_traced(
        backend,
        workload,
        circuit,
        size,
        resources,
        shots,
        reps,
        cutoff_secs,
        &Obs::disabled(),
    )
}

/// [`run_cell`], recording a `bench.cell` span with one nested `bench.rep`
/// span per repetition on the `bench` track of `obs`. The reported
/// [`RunStats`] are derived from the rep spans, so the rendered table and
/// the exported trace agree exactly.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_traced(
    backend: &QfwBackend,
    workload: &str,
    circuit: &Circuit,
    size: usize,
    resources: (usize, usize),
    shots: usize,
    reps: usize,
    cutoff_secs: f64,
    obs: &Obs,
) -> Cell {
    // Rep-span times are the timing source; without a recording caller a
    // private wall-clock handle keeps them real.
    let private;
    let obs = if obs.is_enabled() {
        obs
    } else {
        private = Obs::wall();
        &private
    };
    let backend_label = format!(
        "{}/{}",
        backend.spec().backend,
        if backend.spec().subbackend.is_empty() {
            "default"
        } else {
            &backend.spec().subbackend
        }
    );
    let mut cell_span = obs
        .span("bench", "bench.cell")
        .attr("workload", workload)
        .attr("backend", backend_label.as_str())
        .attr("size", size);
    let mut durations = Vec::with_capacity(reps);
    for rep in 0..reps {
        let rep_span = obs.span("bench", "bench.rep").attr("rep", rep);
        let bounded = backend
            .with_spec(backend.spec().clone())
            .with_timeout(Duration::from_secs_f64(cutoff_secs));
        let outcome = bounded.execute_sync(circuit, shots);
        let (start_us, end_us) = rep_span.finish();
        match outcome {
            Ok(_) => durations.push(Duration::from_micros(end_us.saturating_sub(start_us))),
            Err(QfwError::WalltimeExceeded { .. }) => {
                cell_span.set_attr("note", "walltime");
                return Cell {
                    workload: workload.into(),
                    backend: backend_label,
                    size,
                    resources,
                    stats: None,
                    note: "walltime".into(),
                };
            }
            Err(e) => {
                let note = short_error(&e);
                cell_span.set_attr("note", note.as_str());
                return Cell {
                    workload: workload.into(),
                    backend: backend_label,
                    size,
                    resources,
                    stats: None,
                    note,
                };
            }
        }
    }
    cell_span.set_attr("reps", reps);
    drop(cell_span);
    Cell {
        workload: workload.into(),
        backend: backend_label,
        size,
        resources,
        stats: Some(RunStats::from_durations(&durations)),
        note: String::new(),
    }
}

fn short_error(e: &QfwError) -> String {
    let text = e.to_string();
    if text.len() > 48 {
        format!("{}…", &text[..47])
    } else {
        text
    }
}

/// Renders a figure's cells as an aligned text table grouped by backend,
/// with the (#N, #P) secondary axis the paper prints under each size.
pub fn render_series(title: &str, cells: &[Cell]) -> String {
    let mut out = String::new();
    writeln!(out, "== {title} ==").unwrap();
    let mut backends: Vec<&str> = cells.iter().map(|c| c.backend.as_str()).collect();
    backends.sort();
    backends.dedup();
    for b in backends {
        writeln!(out, "[{b}]").unwrap();
        writeln!(
            out,
            "  {:>6} {:>10} {:>26}",
            "size", "(#N,#P)", "runtime (mean ± std)"
        )
        .unwrap();
        for c in cells.iter().filter(|c| c.backend == b) {
            writeln!(
                out,
                "  {:>6} {:>10} {:>26}",
                c.size,
                format!("({},{})", c.resources.0, c.resources.1),
                c.value_text()
            )
            .unwrap();
        }
    }
    out
}

/// Renders cells as CSV (one row per cell).
pub fn to_csv(cells: &[Cell]) -> String {
    let mut out = String::from(
        "workload,backend,size,nodes,procs_per_node,mean_secs,std_secs,runs,note\n",
    );
    for c in cells {
        match &c.stats {
            Some(s) => writeln!(
                out,
                "{},{},{},{},{},{:.6},{:.6},{},{}",
                c.workload,
                c.backend,
                c.size,
                c.resources.0,
                c.resources.1,
                s.mean_secs,
                s.std_secs,
                s.runs,
                c.note
            )
            .unwrap(),
            None => writeln!(
                out,
                "{},{},{},{},{},,,,{}",
                c.workload, c.backend, c.size, c.resources.0, c.resources.1, c.note
            )
            .unwrap(),
        }
    }
    out
}

/// Builds a session sized for the harness (4 worker nodes, optional cloud)
/// on a cluster with the Slingshot-like interconnect cost model — message
/// latencies are what make the paper's "communication overhead beyond a
/// single LLC domain" shapes visible.
pub fn harness_session(cloud: Option<qfw_cloud::CloudConfig>) -> QfwSession {
    let cluster = qfw_hpc::ClusterSpec {
        nodes: 5,
        node: qfw_hpc::NodeSpec::frontier(),
        interconnect: qfw_hpc::InterconnectModel::slingshot(),
    };
    QfwSession::launch(
        &cluster,
        qfw::QfwConfig {
            qfw_nodes: 4,
            cloud,
            ..qfw::QfwConfig::default()
        },
    )
    .expect("harness session")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_workloads::ghz;

    #[test]
    fn run_cell_measures_and_renders() {
        let session = harness_session(None);
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let cell = run_cell(&backend, "ghz", &ghz(6), 6, (1, 1), 100, 3, 30.0);
        assert!(cell.stats.is_some());
        let s = cell.stats.as_ref().unwrap();
        assert_eq!(s.runs, 3);
        let table = render_series("fig-test", std::slice::from_ref(&cell));
        assert!(table.contains("nwqsim/cpu"));
        assert!(table.contains("fig-test"));
        let csv = to_csv(&[cell]);
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("ghz,nwqsim/cpu,6,1,1"));
    }

    #[test]
    fn traced_cell_records_rep_spans() {
        let session = harness_session(None);
        let backend = session
            .backend(&[("backend", "nwqsim"), ("subbackend", "cpu")])
            .unwrap();
        let obs = Obs::wall();
        let cell = run_cell_traced(&backend, "ghz", &ghz(5), 5, (1, 1), 50, 2, 30.0, &obs);
        assert_eq!(cell.stats.as_ref().unwrap().runs, 2);
        let spans = obs.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "bench.cell").count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "bench.rep").count(), 2);
        // Rep spans nest under the cell span.
        let cell_id = spans.iter().find(|s| s.name == "bench.cell").unwrap().id;
        assert!(spans
            .iter()
            .filter(|s| s.name == "bench.rep")
            .all(|s| s.parent == cell_id));
    }

    #[test]
    fn failing_cell_is_marked_x() {
        let session = harness_session(None);
        let backend = session
            .backend(&[("backend", "tnqvm"), ("subbackend", "ttn")])
            .unwrap();
        let cell = run_cell(&backend, "ghz", &ghz(4), 4, (1, 1), 10, 2, 30.0);
        assert!(cell.stats.is_none());
        assert!(!cell.note.is_empty());
        let table = render_series("t", std::slice::from_ref(&cell));
        assert!(table.contains('X'));
        let csv = to_csv(&[cell]);
        assert!(csv.contains(",,,,"));
    }

    #[test]
    fn cutoff_marks_cell_missing() {
        let session = harness_session(None);
        let backend = session
            .backend(&[("backend", "aer"), ("subbackend", "statevector")])
            .unwrap();
        // 5 ms cutoff against a ~100 ms circuit: the margin must dwarf OS
        // scheduling noise (a microsecond cutoff can race message arrival).
        let cell = run_cell(&backend, "ghz", &ghz(22), 22, (1, 1), 200, 2, 5e-3);
        assert!(cell.stats.is_none());
        assert_eq!(cell.note, "walltime");
    }
}
