//! `qfw-compile`: DAG circuit IR, OpenQASM 3 front-end, and the O0–O3
//! optimization pass manager.
//!
//! The crate closes the loop the paper's framework leaves open between
//! *ingestion* and *execution*: circuits arrive as OpenQASM 3 (the
//! ecosystem interchange format) or as native `qfwasm`, are lifted into
//! a wire-edged DAG ([`DagCircuit`]), rewritten by exactly
//! unitary-preserving passes ([`passes`]), and lowered back out — to
//! a [`Circuit`] the scheduler's ingress admits directly (or `qfwasm` text
//! for wire-side callers), or to canonical QASM3 text that is stable
//! under formatting ([`qasm3::canonical_qasm3`]).
//! At O3 the compiler additionally plans a connectivity-aware qubit
//! ordering ([`passes::plan_layout`]) that the distributed state-vector
//! engine seeds for free at `|0…0⟩`, steering its Belady remap planner
//! toward the hot qubits.
//!
//! Every pass run is observable: `compile.pass.<name>` spans on the
//! `compile` track, plus `compile.gates_eliminated` /
//! `compile.gates_rewritten` counters.

pub mod dag;
pub mod passes;
pub mod qasm3;

pub use dag::{DagCircuit, DagError, DagOp, NodeId, Wire};
pub use passes::{
    pipeline, plan_layout, plan_layout_calibrated, predicted_log_fidelity, CancelInverses,
    MergeRotations, OptLevel, Pass, PassOutcome, RecognizeTemplates, Resynth1q, SinkDiagonals,
};
pub use qasm3::{
    canonical_qasm3, default_param_names, emit, is_qasm3, lower_to_stdgates, parse, ParsedQasm,
    Qasm3Error,
};

use qfw_circuit::Circuit;
use qfw_noise::Calibration;
use qfw_obs::Obs;

/// Per-pass and aggregate statistics for one compilation.
#[derive(Clone, Debug, Default)]
pub struct CompileStats {
    /// Live gate nodes before any pass ran.
    pub gates_before: usize,
    /// Live gate nodes after the pipeline.
    pub gates_after: usize,
    /// Total nodes eliminated across passes.
    pub eliminated: usize,
    /// Total nodes rewritten in place across passes.
    pub rewritten: usize,
    /// `(pass name, outcome)` in execution order.
    pub per_pass: Vec<(&'static str, PassOutcome)>,
}

impl CompileStats {
    /// Fractional gate-count reduction, `0.0` for empty input.
    pub fn reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            1.0 - self.gates_after as f64 / self.gates_before as f64
        }
    }
}

/// The result of compiling a DAG.
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// The rewritten circuit.
    pub dag: DagCircuit,
    /// O3 only: `layout[p]` is the logical qubit assigned to physical
    /// position `p`, for the distributed engine's initial permutation.
    pub layout: Option<Vec<usize>>,
    /// O3 with a calibration table only: the chosen layout's predicted
    /// log-fidelity (see [`passes::predicted_log_fidelity`]).
    pub predicted_fidelity: Option<f64>,
    /// What the pipeline did.
    pub stats: CompileStats,
}

/// Runs the pass pipeline for `opt` over a DAG, recording one
/// `compile.pass.<name>` span per pass and the aggregate counters on
/// `obs`.
pub fn compile_dag(dag: DagCircuit, opt: OptLevel, obs: &Obs) -> CompileResult {
    compile_dag_calibrated(dag, opt, obs, None)
}

/// [`compile_dag`] with an optional device [`Calibration`]: at O3 the
/// layout pass becomes noise-aware ([`passes::plan_layout_calibrated`]),
/// maximizing predicted log-fidelity instead of only connectivity, and
/// the winning score is surfaced as
/// [`CompileResult::predicted_fidelity`].
pub fn compile_dag_calibrated(
    mut dag: DagCircuit,
    opt: OptLevel,
    obs: &Obs,
    cal: Option<&Calibration>,
) -> CompileResult {
    let gates_before = dag.gate_count();
    let mut stats = CompileStats {
        gates_before,
        ..CompileStats::default()
    };
    {
        let _total = obs
            .span("compile", "compile.pipeline")
            .attr("opt", opt.to_string())
            .attr("gates_in", gates_before as u64);
        for pass in pipeline(opt) {
            let span = obs.span("compile", format!("compile.pass.{}", pass.name()).as_str());
            let outcome = pass.run(&mut dag);
            let _span = span
                .attr("eliminated", outcome.eliminated as u64)
                .attr("rewritten", outcome.rewritten as u64);
            stats.eliminated += outcome.eliminated;
            stats.rewritten += outcome.rewritten;
            stats.per_pass.push((pass.name(), outcome));
        }
    }
    stats.gates_after = dag.gate_count();
    obs.counter("compile.gates_eliminated")
        .add(stats.eliminated as u64);
    obs.counter("compile.gates_rewritten")
        .add(stats.rewritten as u64);
    let (layout, predicted_fidelity) = if opt == OptLevel::O3 {
        match cal {
            Some(cal) => {
                let span = obs.span("compile", "compile.pass.plan-layout-calibrated");
                let (order, log_f) = plan_layout_calibrated(&dag, cal);
                drop(span.attr("predicted_log_fidelity", log_f));
                (Some(order), Some(log_f))
            }
            None => {
                let _span = obs.span("compile", "compile.pass.plan-layout");
                (Some(plan_layout(&dag)), None)
            }
        }
    } else {
        (None, None)
    };
    CompileResult {
        dag,
        layout,
        predicted_fidelity,
        stats,
    }
}

/// Convenience: compile a concrete [`Circuit`] and lower back to one.
///
/// # Panics
/// Never on symbolic angles — a `Circuit` has none and the passes do
/// not introduce any.
pub fn compile_circuit(qc: &Circuit, opt: OptLevel, obs: &Obs) -> (Circuit, CompileStats) {
    let result = compile_dag(DagCircuit::from_circuit(qc), opt, obs);
    let compiled = result
        .dag
        .to_circuit()
        .expect("concrete circuits stay concrete through compilation");
    (compiled, result.stats)
}

/// A QASM3 program compiled into stack-native text, for callers on the
/// wire side.
#[derive(Clone, Debug)]
pub struct Ingested {
    /// The compiled circuit as `qfwasm` text. Cache keys computed over
    /// this text are post-compile canonical: formatting variants of the
    /// same QASM3 program map to the same entry.
    pub qfwasm: String,
    /// O3 layout handoff (see [`CompileResult::layout`]).
    pub layout: Option<Vec<usize>>,
    /// What the pipeline did.
    pub stats: CompileStats,
}

/// Parses and compiles an OpenQASM 3 program down to a [`Circuit`] — what
/// the scheduler's ingress admits as is — beside what the pipeline did
/// (layout handoff, statistics). An optional device [`Calibration`] makes
/// the O3 layout pass noise-aware (see [`compile_dag_calibrated`]).
///
/// Programs with unbound `input float` parameters are rejected: an
/// execution request needs concrete angles (bind upstream or submit a
/// parameterized sweep instead).
pub fn compile_qasm3(
    src: &str,
    opt: OptLevel,
    obs: &Obs,
    cal: Option<&Calibration>,
) -> Result<(Circuit, CompileResult), Qasm3Error> {
    let parsed = {
        let _span = obs.span("compile", "compile.qasm3.parse");
        qasm3::parse(src)?
    };
    if !parsed.params.is_empty() {
        return Err(Qasm3Error {
            line: 0,
            message: format!(
                "program declares {} unbound input parameter(s) ({}); bind them before submission",
                parsed.params.len(),
                parsed.params.join(", ")
            ),
        });
    }
    let result = compile_dag_calibrated(parsed.dag, opt, obs, cal);
    let circuit = result.dag.to_circuit().map_err(|e| Qasm3Error {
        line: 0,
        message: e.to_string(),
    })?;
    Ok((circuit, result))
}

/// [`compile_qasm3`] (no calibration), lowered to `qfwasm` text.
pub fn ingest_qasm3(src: &str, opt: OptLevel, obs: &Obs) -> Result<Ingested, Qasm3Error> {
    let (circuit, result) = compile_qasm3(src, opt, obs, None)?;
    Ok(Ingested {
        qfwasm: qfw_circuit::text::dump(&circuit),
        layout: result.layout,
        stats: result.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw_circuit::Gate;

    #[test]
    fn o2_compresses_decomposed_rzz() {
        // cx;rz;cx chains → rzz, then adjacent rzz merge.
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).rz(1, 0.3).cx(0, 1);
        qc.cx(0, 1).rz(1, 0.4).cx(0, 1);
        let obs = Obs::disabled();
        let (compiled, stats) = compile_circuit(&qc, OptLevel::O2, &obs);
        let gates: Vec<_> = compiled.gates().cloned().collect();
        assert_eq!(gates.len(), 1);
        match &gates[0] {
            Gate::Rzz(0, 1, v) => assert!((v - 0.7).abs() < 1e-12),
            other => panic!("expected merged rzz, got {other:?}"),
        }
        assert_eq!(stats.gates_before, 6);
        assert_eq!(stats.gates_after, 1);
        assert!(stats.reduction() > 0.8);
    }

    #[test]
    fn o0_is_identity() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(0).cx(0, 1).measure_all();
        let obs = Obs::disabled();
        let (compiled, stats) = compile_circuit(&qc, OptLevel::O0, &obs);
        assert_eq!(compiled.ops(), qc.ops());
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn o3_produces_a_layout_permutation() {
        let mut qc = Circuit::new(4);
        qc.h(3).cx(3, 2).cx(3, 2); // cancels, but layout still covers all qubits
        qc.rx(0, 0.5).cx(0, 3);
        let obs = Obs::disabled();
        let result = compile_dag(DagCircuit::from_circuit(&qc), OptLevel::O3, &obs);
        let layout = result.layout.expect("O3 plans a layout");
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pass_spans_and_counters_are_recorded() {
        let mut qc = Circuit::new(2);
        qc.h(0).h(0).cx(0, 1);
        let obs = Obs::wall();
        let (_, stats) = compile_circuit(&qc, OptLevel::O1, &obs);
        assert_eq!(stats.eliminated, 2);
        let spans = obs.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "compile.pass.cancel-inverses"));
        assert!(spans.iter().any(|s| s.name == "compile.pipeline"));
        assert_eq!(obs.counter("compile.gates_eliminated").get(), 2);
    }

    #[test]
    fn ingest_rejects_unbound_parameters() {
        let src = "OPENQASM 3; input float g; qubit[1] q; rx(g) q[0];";
        let obs = Obs::disabled();
        assert!(ingest_qasm3(src, OptLevel::O2, &obs).is_err());
    }

    #[test]
    fn ingest_produces_parseable_qfwasm() {
        let src = "OPENQASM 3; qubit[2] q; bit[2] c; h q[0]; cx q[0], q[1]; c = measure q;";
        let obs = Obs::disabled();
        let out = ingest_qasm3(src, OptLevel::O2, &obs).unwrap();
        let qc = qfw_circuit::text::parse(&out.qfwasm).unwrap();
        assert_eq!(qc.num_qubits(), 2);
        assert!(qc.measures_all());
    }
}
