//! Job resolution: the one step that turns a job's strings into types.
//!
//! A job arrives as a [`BackendSpec`] (free-form string extras) and a
//! circuit in wire text. [`ExecPlan::resolve`] decides what the spec
//! *means* — which engine, how many cores, every recognised extra parsed
//! with its default, every incompatible pair refused — and
//! [`ParsedCircuit::parse`] is the single place wire text becomes a
//! circuit. Together they make a [`ResolvedJob`] (or [`ResolvedSweep`]),
//! which is all a Backend-QPM adapter ever sees: adapters read typed
//! fields and run, they decode nothing.
//!
//! Resolution happens before any work is committed: at
//! `Scheduler::submit` (before a queue entry exists) and in
//! [`crate::Qrc`] before a worker slot is acquired.

use crate::error::QfwError;
use crate::spec::{extras, BackendSpec, SweepPointSpec};
use qfw_circuit::analysis::clifford_prefix_len;
use qfw_circuit::hash::ContentHash;
use qfw_circuit::{text, Circuit, ParamCircuit};
use qfw_hpc::slurm::HetJob;
use qfw_noise::{Calibration, NoiseModel};
use std::borrow::Cow;
use std::time::Instant;

/// The pseudo-backend that engages the planner.
pub const AUTO: &str = "auto";

/// How an engine occupies the worker group's cores.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Width {
    /// One core (or none: the cloud path).
    One,
    /// One LLC domain's application cores (the rayon-threaded engine).
    Llc,
    /// `ranks` cores, rounded up to a power of two (distributed dense
    /// state vector: the register splits evenly across ranks).
    Pow2Ranks,
    /// [`Width::Pow2Ranks`] if the method the engine picks per circuit
    /// turns out dense, one core otherwise (`aer/automatic`): only the
    /// adapter knows which, so it runs the two width checks itself.
    Pow2IfDense,
    /// Exactly `ranks` cores.
    Ranks,
}

/// Every engine the stack can address, as `(backend, sub-backend, width,
/// dense_local)`. A backend's first row is its default sub-backend;
/// `dense_local` marks the local dense state-vector engine, the only one
/// that runs Kraus noise trajectories and Clifford-prefix partitions. The
/// `auto` row stands for "whichever engine the planner picks": it admits
/// every option, and each ranked candidate is resolved again on its own
/// row.
const ENGINES: &[(&str, &str, Width, bool)] = &[
    ("nwqsim", "cpu", Width::One, true),
    ("nwqsim", "openmp", Width::Llc, true),
    ("nwqsim", "mpi", Width::Pow2Ranks, false),
    ("aer", "automatic", Width::Pow2IfDense, false),
    ("aer", "statevector", Width::Pow2Ranks, false),
    ("aer", "matrix_product_state", Width::One, false),
    ("aer", "stabilizer", Width::One, false),
    ("tnqvm", "exatn-mps", Width::One, false),
    ("tnqvm", "ttn", Width::One, false),
    ("tnqvm", "peps", Width::One, false),
    ("qtensor", "numpy", Width::One, false),
    ("qtensor", "sequential", Width::One, false),
    ("qtensor", "mpi", Width::Ranks, false),
    ("ionq", "simulator", Width::One, false),
    ("ionq", "hardware", Width::One, false),
    (AUTO, "", Width::One, true),
];

/// Core counts of the worker group a plan is resolved against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCores {
    /// Application cores across the whole group: no lease can ever exceed
    /// this, however long it waits.
    pub total: usize,
    /// Application cores of one LLC domain (the threaded engine's width).
    pub per_llc: usize,
}

impl GroupCores {
    /// No resource bound: for callers that only need a spec's meaning
    /// (e.g. its cache key), not its admissibility on a particular group.
    pub const UNBOUNDED: GroupCores = GroupCores {
        total: usize::MAX,
        per_llc: 1,
    };

    /// The core counts of one heterogeneous-job group.
    pub fn of(hetjob: &HetJob, group: usize) -> GroupCores {
        let node = &hetjob.cluster().node;
        GroupCores {
            total: hetjob.nodes_of(group).len() * node.app_cores(),
            per_llc: node.app_cores_per_llc(),
        }
    }
}

/// What a [`BackendSpec`] means: engine, width, and every recognised
/// extra as a checked value. Built only by [`ExecPlan::resolve`].
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// The resolved backend name.
    pub backend: &'static str,
    /// The resolved sub-backend (the backend's default when the spec left
    /// it empty).
    pub subbackend: &'static str,
    /// Ranks the engine runs on (rounded once, here); 1 off the
    /// distributed engines.
    pub ranks: usize,
    /// Ranks as the spec asked for them.
    pub requested_ranks: usize,
    /// Cores the engine leases: `ranks`, or one LLC domain for `openmp`.
    pub cores: usize,
    /// Gate fusion on the dense local engine.
    pub fusion: bool,
    /// MPS bond-dimension cap.
    pub chi_max: usize,
    /// MPS relative truncation threshold.
    pub trunc_eps: f64,
    /// Widest intermediate tensor `qtensor` may contract.
    pub width_limit: usize,
    /// Empty for an ideal run.
    pub noise: NoiseModel,
    /// Stochastic-trajectory budget of a noisy run.
    pub trajectories: usize,
    /// Set only on engines that run the partition.
    pub partition_seam: Option<usize>,
    /// Set only on the engine that takes a layout (`nwqsim/mpi`).
    pub layout: Option<Vec<usize>>,
    /// The O3 layout pass's predicted log-fidelity, surfaced on results.
    pub predicted_fidelity: Option<f64>,
    /// The register is split across `ranks` (distributed dense engines).
    split_register: bool,
    hash: ContentHash,
}

fn bad(key: &str, value: &str, want: &str) -> QfwError {
    QfwError::BadProperties(format!("{key} must be {want}, got '{value}'"))
}

/// Parses `initial_layout=q0,q1,...`; duplicates are refused here, the
/// match against the register width once the circuit is known.
fn parse_layout(raw: &str) -> Result<Vec<usize>, QfwError> {
    let malformed = || {
        bad(
            extras::INITIAL_LAYOUT,
            raw,
            "a comma-separated qubit permutation",
        )
    };
    let order = raw
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| malformed())?;
    let mut seen = vec![false; order.len()];
    for &q in &order {
        if q >= order.len() || std::mem::replace(&mut seen[q], true) {
            return Err(malformed());
        }
    }
    Ok(order)
}

/// The `calibration` extra as a device table. It feeds QASM3 ingestion
/// (the noise-aware layout pass), not execution, so [`ExecPlan::resolve`]
/// carries it verbatim and only the ingress calls this.
pub fn calibration_of(spec: &BackendSpec) -> Result<Option<Calibration>, QfwError> {
    let table = spec
        .extra
        .get(extras::CALIBRATION)
        .map(|json| Calibration::from_json(json));
    table
        .transpose()
        .map_err(|e| QfwError::BadProperties(format!("malformed calibration: {e}")))
}

impl ExecPlan {
    /// Resolves a spec against the engine table and a worker group.
    ///
    /// Refusals: an unknown backend or sub-backend; a malformed or
    /// out-of-range value of any recognised key (`BadProperties`); a
    /// noise model on an engine that cannot run one, or together with a
    /// partition seam (`BadProperties`); a width the group can never
    /// grant (`Resources`). Unrecognised keys are legal and only hashed.
    pub fn resolve(spec: &BackendSpec, group: GroupCores) -> Result<ExecPlan, QfwError> {
        let mut rows = ENGINES.iter().filter(|e| e.0 == spec.backend).peekable();
        let default = *rows
            .peek()
            .ok_or_else(|| QfwError::UnknownBackend(spec.backend.clone()))?;
        let pick_default = spec.subbackend.is_empty() || spec.backend == AUTO;
        let &(backend, subbackend, width, dense_local) = if pick_default {
            default
        } else {
            rows.find(|e| e.1 == spec.subbackend)
                .ok_or_else(|| QfwError::UnknownSubBackend {
                    backend: spec.backend.clone(),
                    subbackend: spec.subbackend.clone(),
                })?
        };
        let ranks = match width {
            Width::Pow2Ranks | Width::Pow2IfDense => spec.ranks.max(1).next_power_of_two(),
            Width::Ranks => spec.ranks.max(1),
            Width::One | Width::Llc => 1,
        };
        let cores = if width == Width::Llc {
            group.per_llc
        } else {
            ranks
        };

        // Defaults; TN-QVM's ExaTN-MPS visitor ships a tighter MPS budget
        // than Aer's.
        let tnqvm = backend == "tnqvm";
        let mut plan = ExecPlan {
            backend,
            subbackend,
            ranks,
            requested_ranks: spec.ranks,
            cores,
            fusion: true,
            chi_max: if tnqvm { 32 } else { 64 },
            trunc_eps: if tnqvm { 1e-10 } else { 1e-12 },
            width_limit: 27,
            noise: NoiseModel::empty(),
            trajectories: 64,
            partition_seam: None,
            layout: None,
            predicted_fidelity: None,
            split_register: width == Width::Pow2Ranks,
            hash: ContentHash::of_bytes(&[]),
        };
        // The one table of recognised keys: name, parse rule, field.
        for (key, raw) in &spec.extra {
            let wrong = |want: &str| bad(key, raw, want);
            let number = |want: &str| raw.trim().parse::<f64>().map_err(|_| wrong(want));
            let positive = || {
                let v = raw.trim().parse::<usize>().ok().filter(|&v| v >= 1);
                v.ok_or_else(|| wrong("a positive integer"))
            };
            match key.as_str() {
                extras::FUSION => {
                    plan.fusion = raw.trim().parse().map_err(|_| wrong("true or false"))?
                }
                extras::CHI_MAX => plan.chi_max = positive()?,
                extras::TRUNC_EPS => {
                    let want = "a finite number >= 0";
                    let eps = number(want)?;
                    plan.trunc_eps = Some(eps)
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| wrong(want))?
                }
                extras::WIDTH_LIMIT => plan.width_limit = positive()?,
                extras::NOISE_TRAJECTORIES => plan.trajectories = positive()?,
                extras::NOISE_MODEL => {
                    plan.noise = NoiseModel::parse(raw)
                        .map_err(|e| QfwError::BadProperties(format!("{key}: {e}")))?
                }
                extras::PARTITION if raw == extras::PARTITION_CLIFFORD_PREFIX => {}
                extras::PARTITION => return Err(wrong(extras::PARTITION_CLIFFORD_PREFIX)),
                extras::PARTITION_SEAM => plan.partition_seam = Some(positive()?),
                extras::INITIAL_LAYOUT => plan.layout = Some(parse_layout(raw)?),
                extras::PREDICTED_FIDELITY => plan.predicted_fidelity = Some(number("a number")?),
                // Anything else is legal, carried, and hashed verbatim.
                _ => plan.hash = plan.hash.fold_str(key).fold_str(raw),
            }
        }

        // The compatibility table. Noise changes the answer, so an engine
        // that cannot run it refuses; a partition seam or a layout only
        // changes *how* the same counts are produced, so engines they do
        // not apply to drop them.
        if !plan.noise.is_empty() && !dense_local {
            return Err(QfwError::BadProperties(format!(
                "noise channels run on nwqsim/cpu and nwqsim/openmp only, not \
                 {backend}/{subbackend}"
            )));
        }
        if !plan.noise.is_empty() && plan.partition_seam.is_some() {
            return Err(QfwError::BadProperties(
                "clifford-prefix partitioned execution does not compose with noise channels".into(),
            ));
        }
        if !dense_local {
            plan.partition_seam = None;
        }
        if (backend, subbackend) != ("nwqsim", "mpi") {
            plan.layout = None;
        }
        if width != Width::Pow2IfDense {
            plan.check_cores(group.total)?;
        }
        plan.hash = plan.fold_options();
        Ok(plan)
    }

    /// The worker group has, in total, the cores this plan leases: a wait
    /// for more would never end.
    pub(crate) fn check_cores(&self, group_total: usize) -> Result<(), QfwError> {
        if self.cores > group_total {
            return Err(QfwError::Resources(format!(
                "{}/{} needs {} cores but the worker group only has {group_total}",
                self.backend, self.subbackend, self.cores
            )));
        }
        Ok(())
    }

    /// A dense register split across `ranks` must leave every rank at
    /// least two amplitudes.
    pub(crate) fn check_register(&self, num_qubits: usize) -> Result<(), QfwError> {
        let min_qubits = self.ranks.trailing_zeros() as usize + 1;
        if num_qubits < min_qubits {
            return Err(QfwError::Resources(format!(
                "{} ranks need at least {min_qubits} qubits",
                self.ranks
            )));
        }
        Ok(())
    }

    /// Folds every recognised option onto the hash by its *meaning* (so
    /// `fusion=true` and no `fusion` key agree, and an empty noise model
    /// equals none).
    fn fold_options(&self) -> ContentHash {
        // `u64::MAX` stands for "absent": no seam, layout length or finite
        // fidelity has that bit pattern.
        let typed = [
            self.fusion as u64,
            self.chi_max as u64,
            self.trunc_eps.to_bits(),
            self.width_limit as u64,
            self.trajectories as u64,
            self.partition_seam.map_or(u64::MAX, |s| s as u64),
            self.predicted_fidelity.map_or(u64::MAX, f64::to_bits),
            self.layout.as_ref().map_or(u64::MAX, |l| l.len() as u64),
        ];
        let layout = self.layout.iter().flatten().map(|&q| q as u64);
        let h = typed
            .into_iter()
            .chain(layout)
            .fold(self.hash, ContentHash::fold_u64);
        if self.noise.is_empty() {
            return h;
        }
        h.fold_bytes(&self.noise.content_hash().value().to_le_bytes())
    }

    /// Hash of everything the extras contribute to the computation — what
    /// [`crate::ResultCache`] keys on in place of the raw strings.
    pub fn content_hash(&self) -> ContentHash {
        self.hash
    }

    /// What a spec's extras contribute to a cache key: the resolved plan's
    /// [`content_hash`](Self::content_hash). A spec that does not resolve
    /// never executes, so nothing is ever stored under its key and a
    /// constant will do.
    pub fn options_hash(spec: &BackendSpec) -> ContentHash {
        ExecPlan::resolve(spec, GroupCores::UNBOUNDED)
            .map_or(ContentHash::of_bytes(&[]), |plan| plan.hash)
    }
}

/// A wire circuit, parsed. [`ParsedCircuit::parse`] is the only call site
/// of the `qfwasm` / `qfwasm-param` parsers from the QRC down.
#[derive(Clone, Debug)]
pub struct ParsedCircuit<'a> {
    /// What the text held.
    pub form: Form,
    /// The `bind` line of bound `qfwasm-param` text.
    bound: Option<Vec<f64>>,
    /// Seconds the parse took (`profile.marshal_secs`).
    marshal_secs: f64,
    wire: &'a str,
}

/// The two shapes a circuit travels in.
#[derive(Clone, Debug)]
pub enum Form {
    /// A concrete circuit.
    Concrete(Circuit),
    /// A symbolic skeleton; each job on it carries its own binding.
    Param(ParamCircuit),
}

impl<'a> ParsedCircuit<'a> {
    /// Parses concrete `qfwasm` or (bound or unbound) `qfwasm-param` text.
    pub fn parse(wire: &'a str) -> Result<ParsedCircuit<'a>, QfwError> {
        let start = Instant::now();
        let parsed = if text::is_param_text(wire) {
            text::parse_param(wire).map(|(template, bound)| (Form::Param(template), bound))
        } else {
            text::parse(wire).map(|circuit| (Form::Concrete(circuit), None))
        };
        let (form, bound) = parsed.map_err(|e| QfwError::Marshal(e.to_string()))?;
        Ok(ParsedCircuit {
            form,
            bound,
            marshal_secs: start.elapsed().as_secs_f64(),
            wire,
        })
    }
}

/// One job, fully resolved: what [`crate::backends::BackendQpm::execute`]
/// consumes.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedJob<'a> {
    /// The parsed circuit.
    pub form: &'a Form,
    /// The binding a [`Form::Param`] skeleton is evaluated at: at least one
    /// value per parameter (empty for a concrete circuit).
    pub params: &'a [f64],
    /// Measurement shots.
    pub shots: usize,
    /// Sampling seed.
    pub seed: u64,
    /// What the spec means.
    pub plan: &'a ExecPlan,
    /// Seconds spent parsing the wire text.
    pub marshal_secs: f64,
    /// The text the job (or, for a sweep point, its skeleton) arrived as.
    wire: &'a str,
}

impl<'a> ResolvedJob<'a> {
    /// Joins a parsed circuit to a plan. Parameterized text must carry its
    /// binding; the rest is [`ResolvedJob::join`].
    pub fn new(
        parsed: &'a ParsedCircuit<'a>,
        shots: usize,
        seed: u64,
        plan: &'a ExecPlan,
    ) -> Result<ResolvedJob<'a>, QfwError> {
        let params = match (&parsed.form, &parsed.bound) {
            (Form::Concrete(_), _) => &[][..],
            (Form::Param(_), Some(bound)) => bound,
            (Form::Param(_), None) => {
                return Err(QfwError::Marshal(
                    "parameterized task carries no 'bind' line; submit bound \
                     parameters or use the sweep path"
                        .into(),
                ))
            }
        };
        Self::join(parsed, params, format_args!("bind line"), shots, seed, plan)
    }

    /// The one constructor, for single jobs and sweep points alike, and so
    /// the one place the checks that need circuit *and* plan run: the
    /// binding is complete, the register is wide enough for the ranks, the
    /// layout permutes exactly the register, and the partition seam sits
    /// inside a Clifford prefix.
    fn join(
        parsed: &'a ParsedCircuit<'a>,
        params: &'a [f64],
        binding: std::fmt::Arguments<'_>,
        shots: usize,
        seed: u64,
        plan: &'a ExecPlan,
    ) -> Result<ResolvedJob<'a>, QfwError> {
        let num_qubits = match &parsed.form {
            Form::Concrete(circuit) => circuit.num_qubits(),
            Form::Param(template) if params.len() < template.num_params() => {
                return Err(QfwError::Marshal(format!(
                    "{binding} carries {} values but the skeleton references {} parameters",
                    params.len(),
                    template.num_params()
                )))
            }
            Form::Param(template) => template.num_qubits(),
        };
        if plan.split_register {
            plan.check_register(num_qubits)?;
        }
        if plan.layout.as_ref().is_some_and(|l| l.len() != num_qubits) {
            return Err(QfwError::BadProperties(format!(
                "{} does not cover exactly the {num_qubits}-qubit register",
                extras::INITIAL_LAYOUT
            )));
        }
        if let (Some(seam), Form::Concrete(circuit)) = (plan.partition_seam, &parsed.form) {
            check_seam(circuit, seam)?;
        }
        Ok(ResolvedJob {
            form: &parsed.form,
            params,
            shots,
            seed,
            plan,
            marshal_secs: parsed.marshal_secs,
            wire: parsed.wire,
        })
    }

    /// The job as a concrete circuit (binding the skeleton if needed).
    pub fn concrete(&self) -> Cow<'a, Circuit> {
        match self.form {
            Form::Concrete(circuit) => Cow::Borrowed(circuit),
            Form::Param(template) => Cow::Owned(template.bind(self.params)),
        }
    }

    /// The job's wire text, for adapters that forward it off-cluster.
    pub fn wire_text(&self) -> Cow<'a, str> {
        match self.form {
            Form::Concrete(_) => Cow::Borrowed(self.wire),
            Form::Param(_) => Cow::Owned(materialize_point(self.wire, self.params)),
        }
    }
}

/// The seam must split off a non-empty all-Clifford prefix of a register
/// the tableau can convert to amplitudes.
fn check_seam(circuit: &Circuit, seam: usize) -> Result<(), QfwError> {
    let n = circuit.num_qubits();
    if n > qfw_sim_stab::MAX_EXTRACT_QUBITS {
        return Err(QfwError::Resources(format!(
            "clifford-prefix partition needs a dense seam state: {n} qubits \
             exceeds the {}-qubit extraction limit",
            qfw_sim_stab::MAX_EXTRACT_QUBITS
        )));
    }
    let (prefix_ops, _) = clifford_prefix_len(circuit);
    if seam > prefix_ops {
        return Err(QfwError::BadProperties(format!(
            "{} {seam} reaches past the circuit's Clifford prefix (operations 1..={prefix_ops})",
            extras::PARTITION_SEAM
        )));
    }
    Ok(())
}

/// One compile-once/bind-many sweep, fully resolved: what
/// [`crate::backends::BackendQpm::execute_sweep`] consumes.
#[derive(Clone, Debug)]
pub struct ResolvedSweep<'a> {
    /// The shared skeleton.
    pub template: &'a ParamCircuit,
    /// Every point as a stand-alone bound job, in result order: what
    /// engines (or configurations) without a native sweep path run.
    pub jobs: Vec<ResolvedJob<'a>>,
    /// What the spec means.
    pub plan: &'a ExecPlan,
    /// Seconds spent parsing the skeleton.
    pub marshal_secs: f64,
}

impl<'a> ResolvedSweep<'a> {
    /// Joins a parsed skeleton to a plan, resolving every point exactly as
    /// a bound job of its own would be.
    pub fn new(
        parsed: &'a ParsedCircuit<'a>,
        points: &'a [SweepPointSpec],
        plan: &'a ExecPlan,
    ) -> Result<ResolvedSweep<'a>, QfwError> {
        let Form::Param(template) = &parsed.form else {
            return Err(QfwError::Marshal(
                "sweep task circuit is not in the qfwasm-param wire format".into(),
            ));
        };
        let job = |(i, p): (usize, &'a SweepPointSpec)| {
            let binding = format_args!("sweep point {i}");
            ResolvedJob::join(parsed, &p.params, binding, p.shots, p.seed, plan)
        };
        Ok(ResolvedSweep {
            template,
            jobs: points.iter().enumerate().map(job).collect::<Result<_, _>>()?,
            plan,
            marshal_secs: parsed.marshal_secs,
        })
    }
}

/// Materializes one sweep point as bound `qfwasm-param` text: the skeleton
/// plus a `bind` line carrying the point's parameters.
pub fn materialize_point(skeleton: &str, params: &[f64]) -> String {
    let mut out = text::param_skeleton_text(skeleton);
    text::write_bind(&mut out, params);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUP: GroupCores = GroupCores {
        total: 32,
        per_llc: 7,
    };

    fn resolve(spec: &BackendSpec) -> Result<ExecPlan, QfwError> {
        ExecPlan::resolve(spec, GROUP)
    }

    #[test]
    fn defaults_follow_the_engine() {
        let aer = resolve(&BackendSpec::of("aer", "matrix_product_state")).unwrap();
        assert_eq!((aer.chi_max, aer.trunc_eps), (64, 1e-12));
        let tnqvm = resolve(&BackendSpec::of("tnqvm", "")).unwrap();
        assert_eq!(tnqvm.subbackend, "exatn-mps");
        assert_eq!((tnqvm.chi_max, tnqvm.trunc_eps), (32, 1e-10));
        let nwq = resolve(&BackendSpec::of("nwqsim", "openmp")).unwrap();
        assert!(nwq.fusion);
        assert_eq!((nwq.cores, nwq.ranks, nwq.trajectories), (7, 1, 64));
        assert!(nwq.noise.is_empty());
    }

    #[test]
    fn unknown_names_are_typed() {
        assert!(matches!(
            resolve(&BackendSpec::of("quantumagic", "")),
            Err(QfwError::UnknownBackend(_))
        ));
        assert!(matches!(
            resolve(&BackendSpec::of("nwqsim", "gpu")),
            Err(QfwError::UnknownSubBackend { .. })
        ));
        // The planner pseudo-backend has no sub-backends to get wrong.
        assert!(resolve(&BackendSpec::of(AUTO, "anything")).unwrap().backend == AUTO);
    }

    #[test]
    fn ranks_round_once_and_oversize_is_refused() {
        let plan = resolve(&BackendSpec::of("nwqsim", "mpi").with_ranks(5)).unwrap();
        assert_eq!((plan.ranks, plan.requested_ranks), (8, 5));
        // 17 rounds up to 32 (fits); 33 rounds to 64 (never will).
        assert!(resolve(&BackendSpec::of("nwqsim", "mpi").with_ranks(17)).is_ok());
        assert!(matches!(
            resolve(&BackendSpec::of("nwqsim", "mpi").with_ranks(33)),
            Err(QfwError::Resources(_))
        ));
        assert!(matches!(
            resolve(&BackendSpec::of("qtensor", "mpi").with_ranks(33)),
            Err(QfwError::Resources(_))
        ));
        let tiny = GroupCores {
            total: 4,
            per_llc: 7,
        };
        assert!(matches!(
            ExecPlan::resolve(&BackendSpec::of("nwqsim", "openmp"), tiny),
            Err(QfwError::Resources(_))
        ));
        // Ranks mean nothing to a sequential engine.
        let mps = resolve(&BackendSpec::of("aer", "matrix_product_state").with_ranks(64)).unwrap();
        assert_eq!(mps.ranks, 1);
    }

    #[test]
    fn malformed_values_are_refused_not_defaulted() {
        for (key, value) in [
            ("chi_max", "abc"),
            ("chi_max", "0"),
            ("trunc_eps", "-1"),
            ("trunc_eps", "nan"),
            ("width_limit", "wide"),
            ("fusion", "flase"),
            ("noise_trajectories", "0"),
            ("partition_seam", "0"),
            ("partition", "magic"),
            ("initial_layout", "0,0,1"),
            ("initial_layout", "0,x"),
            ("initial_layout", "0,3"),
            ("predicted_fidelity", "high"),
            ("noise_model", "qfw-noise/1;g1:*:depol"),
        ] {
            let spec = BackendSpec::of("nwqsim", "cpu").with_extra(key, value);
            assert!(
                matches!(resolve(&spec), Err(QfwError::BadProperties(_))),
                "{key}={value} was accepted"
            );
            // ...on every engine, whether or not it would read the key.
            let spec = BackendSpec::of("qtensor", "").with_extra(key, value);
            assert!(resolve(&spec).is_err(), "qtensor accepted {key}={value}");
        }
    }

    fn noisy() -> String {
        let mut model = NoiseModel::empty();
        model.add_2q_all(qfw_noise::Channel::depolarizing(0.02));
        model.to_text()
    }

    #[test]
    fn compatibility_table() {
        let noise = noisy();
        for sub in ["cpu", "openmp"] {
            let spec = BackendSpec::of("nwqsim", sub).with_extra("noise_model", &noise);
            assert!(!resolve(&spec).unwrap().noise.is_empty());
        }
        for (backend, sub) in [
            ("nwqsim", "mpi"),
            ("aer", "statevector"),
            ("aer", "matrix_product_state"),
            ("tnqvm", ""),
            ("qtensor", ""),
            ("ionq", "simulator"),
        ] {
            let spec = BackendSpec::of(backend, sub).with_extra("noise_model", &noise);
            assert!(
                matches!(resolve(&spec), Err(QfwError::BadProperties(_))),
                "{backend}/{sub} accepted a noise model"
            );
            // A zero-strength model is no noise at all.
            let zero = BackendSpec::of(backend, sub)
                .with_extra("noise_model", NoiseModel::empty().to_text());
            assert!(resolve(&zero).is_ok());
        }
        let both = BackendSpec::of("nwqsim", "cpu")
            .with_extra("noise_model", &noise)
            .with_extra("partition_seam", 3);
        assert!(matches!(resolve(&both), Err(QfwError::BadProperties(_))));
        // `auto` admits the model; each candidate is judged on its own row.
        assert!(resolve(&BackendSpec::of(AUTO, "").with_extra("noise_model", &noise)).is_ok());
        // Execution-strategy hints are dropped where they do not apply.
        let hints = BackendSpec::of("nwqsim", "mpi")
            .with_ranks(2)
            .with_extra("partition_seam", 3)
            .with_extra("initial_layout", "1,0,2");
        let plan = resolve(&hints).unwrap();
        assert_eq!(plan.partition_seam, None);
        assert_eq!(plan.layout.as_deref(), Some(&[1, 0, 2][..]));
        let plan =
            resolve(&BackendSpec::of("nwqsim", "cpu").with_extra("initial_layout", "1,0")).unwrap();
        assert_eq!(plan.layout, None);
    }

    #[test]
    fn hash_follows_meaning_not_spelling() {
        let base = resolve(&BackendSpec::of("nwqsim", "cpu"))
            .unwrap()
            .content_hash();
        let h = |spec: BackendSpec| resolve(&spec).unwrap().content_hash();
        assert_eq!(
            base,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", true))
        );
        assert_eq!(
            base,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("chi_max", 64))
        );
        assert_ne!(
            base,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("fusion", false))
        );
        assert_ne!(
            base,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", 4))
        );
        assert_ne!(
            base,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("noise_model", noisy()))
        );
        // Unrecognised keys are carried verbatim.
        let a = h(BackendSpec::of("nwqsim", "cpu").with_extra("site", "ornl"));
        assert_ne!(base, a);
        assert_ne!(
            a,
            h(BackendSpec::of("nwqsim", "cpu").with_extra("site", "pnnl"))
        );
    }

    fn ghz_text(n: usize) -> String {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.rx(0, 0.3);
        qc.measure_all();
        text::dump(&qc)
    }

    #[test]
    fn circuit_dependent_checks_run_at_job_resolution() {
        let wire = ghz_text(3);
        let parsed = ParsedCircuit::parse(&wire).unwrap();
        let job = |spec: BackendSpec| {
            let plan = resolve(&spec).unwrap();
            ResolvedJob::new(&parsed, 10, 1, &plan).map(|_| ())
        };
        assert!(job(BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", 3)).is_ok());
        // Past the op list, and across the rx.
        assert!(matches!(
            job(BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", 99)),
            Err(QfwError::BadProperties(_))
        ));
        assert!(matches!(
            job(BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", 4)),
            Err(QfwError::BadProperties(_))
        ));
        // A layout must cover exactly the register.
        let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
        assert!(job(mpi.clone().with_extra("initial_layout", "2,0,1")).is_ok());
        assert!(matches!(
            job(mpi.clone().with_extra("initial_layout", "0,1")),
            Err(QfwError::BadProperties(_))
        ));
        // 8 ranks need 4 qubits.
        assert!(matches!(
            job(BackendSpec::of("nwqsim", "mpi").with_ranks(8)),
            Err(QfwError::Resources(_))
        ));
    }

    #[test]
    fn sweep_points_get_the_same_checks_as_single_jobs() {
        let skeleton = "qfwasm-param 1\nqubits 3\nrx(@0) q0\ncx q0 q2\n";
        let parsed = ParsedCircuit::parse(skeleton).unwrap();
        let points = [SweepPointSpec {
            params: vec![0.1],
            shots: 1,
            seed: 1,
        }];
        let sweep = |spec: BackendSpec| {
            let plan = resolve(&spec).unwrap();
            ResolvedSweep::new(&parsed, &points, &plan).map(|s| s.jobs.len())
        };
        let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
        assert_eq!(sweep(mpi.clone().with_extra("initial_layout", "2,0,1")).unwrap(), 1);
        assert!(matches!(
            sweep(mpi.with_extra("initial_layout", "0,1")),
            Err(QfwError::BadProperties(_))
        ));
        assert!(matches!(
            sweep(BackendSpec::of("nwqsim", "mpi").with_ranks(8)),
            Err(QfwError::Resources(_))
        ));
    }

    #[test]
    fn aer_automatic_defers_its_width_to_the_adapter() {
        // Whether these ranks are used at all depends on the method picked
        // per circuit, so neither the group nor the register bounds them
        // here; `statevector` is bounded by both.
        let wire = ghz_text(3);
        let parsed = ParsedCircuit::parse(&wire).unwrap();
        let auto = resolve(&BackendSpec::of("aer", "automatic").with_ranks(33)).unwrap();
        assert_eq!(auto.ranks, 64);
        assert!(ResolvedJob::new(&parsed, 1, 1, &auto).is_ok());
        assert!(auto.check_cores(GROUP.total).is_err() && auto.check_register(3).is_err());
        assert!(matches!(
            resolve(&BackendSpec::of("aer", "statevector").with_ranks(33)),
            Err(QfwError::Resources(_))
        ));
    }

    #[test]
    fn unbound_or_short_bindings_are_marshal_errors() {
        let skeleton = "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1) q0 q1\n";
        let plan = resolve(&BackendSpec::of("nwqsim", "cpu")).unwrap();
        let unbound = ParsedCircuit::parse(skeleton).unwrap();
        assert!(matches!(
            ResolvedJob::new(&unbound, 1, 1, &plan),
            Err(QfwError::Marshal(_))
        ));
        let short = format!("{skeleton}bind 1e-1\n");
        let parsed = ParsedCircuit::parse(&short).unwrap();
        assert!(matches!(
            ResolvedJob::new(&parsed, 1, 1, &plan),
            Err(QfwError::Marshal(_))
        ));
        let points = [SweepPointSpec {
            params: vec![0.1],
            shots: 1,
            seed: 1,
        }];
        assert!(matches!(
            ResolvedSweep::new(&unbound, &points, &plan),
            Err(QfwError::Marshal(_))
        ));
        // A concrete circuit is not a sweep skeleton.
        let wire = ghz_text(2);
        let concrete = ParsedCircuit::parse(&wire).unwrap();
        assert!(matches!(
            ResolvedSweep::new(&concrete, &[], &plan),
            Err(QfwError::Marshal(_))
        ));
    }

    #[test]
    fn sweep_points_materialize_their_wire_text() {
        let skeleton = "qfwasm-param 1\nqubits 1\nrx(@0) q0\n";
        let plan = resolve(&BackendSpec::of("ionq", "simulator")).unwrap();
        let parsed = ParsedCircuit::parse(skeleton).unwrap();
        let points = [SweepPointSpec {
            params: vec![0.25],
            shots: 8,
            seed: 3,
        }];
        let sweep = ResolvedSweep::new(&parsed, &points, &plan).unwrap();
        let job = sweep.jobs[0];
        assert_eq!((job.shots, job.seed), (8, 3));
        assert_eq!(job.wire_text(), format!("{skeleton}bind 2.5e-1\n"));
    }
}
