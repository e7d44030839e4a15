//! Admission: the one step that turns a submission into the job every
//! layer behind the front door speaks.
//!
//! A job arrives as a [`BackendSpec`] (free-form string extras) and a
//! circuit — wire text, or the [`Circuit`] the QASM3 compiler just produced
//! ([`Source`]). [`ResolvedJob::admit`] (for a sweep,
//! [`ResolvedJob::admit_sweep`]) decides once what that *means*: which
//! [`Engine`] row, how many cores, every recognised extra parsed with its
//! default, every incompatible pair refused ([`ExecPlan::resolve`]), the
//! text parsed (the only call site of the wire parsers), and every check
//! that needs circuit and plan together. What comes out is owned — shared
//! parsed form, binding, [`ExecPlan`], shots, seed — and is what the result
//! cache keys on, the scheduler queues, the batcher groups and the adapters
//! run; nothing downstream reads a string again.
//!
//! Admission happens before any work is committed: a refusal leaves no job
//! id, job record, queue entry or worker slot behind.

use crate::error::QfwError;
use crate::spec::{extras, BackendSpec, SweepPointSpec, SweepTask};
use qfw_circuit::analysis::{clifford_prefix_len, is_clifford, StructureReport};
use qfw_circuit::hash::{circuit_hash, param_hash, ContentHash};
use qfw_circuit::{text, Circuit, Gate, ParamCircuit, Readout};
use qfw_hpc::slurm::HetJob;
use qfw_noise::{Calibration, NoiseModel};
use qfw_sim_mps::MpsConfig;
use qfw_sim_sv::dist::local_qubits_needed;
use qfw_sim_sv::{absorbable_diagonal, MAX_DENSE_QUBITS};
use qfw_sim_tn::{ContractionPlan, OrderHeuristic};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// The pseudo-backend that engages the planner.
pub const AUTO: &str = "auto";

/// How an engine occupies the worker group's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Width {
    /// One core (or none: the cloud path).
    One,
    /// One LLC domain's application cores (the rayon-threaded engine).
    Llc,
    /// `ranks` cores, rounded up to a power of two (distributed dense
    /// state vector: the register splits evenly across ranks).
    Pow2Ranks,
    /// Exactly `ranks` cores.
    Ranks,
}

/// What runs a row: the column the local runner
/// ([`crate::backends::local`]) matches on, and the one every
/// engine-dependent rule of admission reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sim {
    /// The dense state vector in this process: fusion as asked, noise
    /// trajectories, Clifford-prefix partitions; threaded on an `Llc` row.
    Dense,
    /// The dense register split across DVM ranks, from the plan's layout.
    Distributed,
    /// Aer's chunked state vector: the distributed executor past one rank,
    /// the serial fused dense engine at one.
    Chunked,
    /// A matrix product state, with the row's default budget.
    Mps(MpsConfig),
    /// The stabilizer tableau.
    Stabilizer,
    /// Full-state tensor-network contraction in this order.
    TensorNetwork(OrderHeuristic),
    /// The cloud provider.
    Cloud,
    /// Declared in Table 1 but not runnable: admission refuses the row with
    /// this note.
    Pending(&'static str),
    /// Whichever `aer` row admission picks for the circuit.
    Automatic,
    /// Whichever row the planner picks.
    Planner,
}

/// Aer's MPS budget; a row that runs no MPS engine carries it too (it is
/// part of every plan's fingerprint).
const AER_MPS: MpsConfig = MpsConfig {
    chi_max: 64,
    trunc_eps: 1e-12,
};

/// One engine the stack can address: a row of the engine table.
#[derive(Debug, PartialEq)]
pub struct Engine {
    /// `backend/subbackend` — also how metrics and the planner's
    /// corrections name the engine.
    pub key: &'static str,
    width: Width,
    /// What runs the row.
    pub sim: Sim,
    /// The local dense state-vector engine, the only one that runs Kraus
    /// noise trajectories and Clifford-prefix partitions.
    dense_local: bool,
    /// Whether the engine evolves a dense state vector (locally, across
    /// ranks or in the cloud mock), the only kind that can collapse a state
    /// mid-circuit: one that cannot refuses a circuit with a mid-circuit
    /// measurement, and one that can refuses a gate wider than its dense
    /// kernels take ([`MAX_DENSE_QUBITS`]) unless it runs as a diagonal
    /// layer ([`absorbable_diagonal`]).
    collapses: bool,
}

const fn row(key: &'static str, width: Width, sim: Sim) -> Engine {
    Engine {
        key,
        width,
        sim,
        dense_local: matches!(sim, Sim::Dense | Sim::Planner),
        collapses: matches!(
            sim,
            Sim::Dense
                | Sim::Distributed
                | Sim::Chunked
                | Sim::Cloud
                | Sim::Automatic
                | Sim::Planner
        ),
    }
}

/// Every engine. A backend's first row is its default sub-backend.
/// `aer/automatic` stands for whichever `aer` method admission picks for
/// the job's circuit, and takes that row's width; the `auto` row stands for
/// whichever engine the planner picks: it admits and keeps every option,
/// and each ranked candidate is judged on its own row
/// ([`ExecPlan::retarget`]).
static ENGINES: [Engine; 16] = [
    row("nwqsim/cpu", Width::One, Sim::Dense),
    row("nwqsim/openmp", Width::Llc, Sim::Dense),
    row("nwqsim/mpi", Width::Pow2Ranks, Sim::Distributed),
    row("aer/automatic", Width::One, Sim::Automatic),
    row("aer/statevector", Width::Pow2Ranks, Sim::Chunked),
    row("aer/matrix_product_state", Width::One, Sim::Mps(AER_MPS)),
    row("aer/stabilizer", Width::One, Sim::Stabilizer),
    // TN-QVM's ExaTN-MPS visitor ships a tighter budget than Aer's.
    row(
        "tnqvm/exatn-mps",
        Width::One,
        Sim::Mps(MpsConfig {
            chi_max: 32,
            trunc_eps: 1e-10,
        }),
    ),
    row(
        "tnqvm/ttn",
        Width::One,
        Sim::Pending("tnqvm/ttn is currently blocked by .xasm vs qasm translation"),
    ),
    row(
        "tnqvm/peps",
        Width::One,
        Sim::Pending("tnqvm/peps is architecturally supported but not yet wired"),
    ),
    row(
        "qtensor/numpy",
        Width::One,
        Sim::TensorNetwork(OrderHeuristic::Greedy),
    ),
    row(
        "qtensor/sequential",
        Width::One,
        Sim::TensorNetwork(OrderHeuristic::Sequential),
    ),
    row(
        "qtensor/mpi",
        Width::Ranks,
        Sim::TensorNetwork(OrderHeuristic::Greedy),
    ),
    row("ionq/simulator", Width::One, Sim::Cloud),
    row(
        "ionq/hardware",
        Width::One,
        Sim::Pending("ionq/hardware execution is planned future work"),
    ),
    row("auto/", Width::One, Sim::Planner),
];

impl Engine {
    /// The row with this `backend/subbackend` key.
    ///
    /// # Panics
    /// When the table has no such row: callers name rows by literal.
    pub fn named(key: &str) -> &'static Engine {
        let row = ENGINES.iter().find(|e| e.key == key);
        row.expect("the engine table names every engine the code does")
    }

    /// Whether the engine threads its work over one LLC domain.
    pub(crate) fn threaded(&self) -> bool {
        self.width == Width::Llc
    }

    /// The backends with a row the local runner runs, in table order (a
    /// backend with several such rows repeats).
    pub(crate) fn local_backends() -> impl Iterator<Item = &'static str> {
        let local = |e: &&Engine| !matches!(e.sim, Sim::Cloud | Sim::Pending(_) | Sim::Planner);
        ENGINES.iter().filter(local).map(|e| e.names().0)
    }

    /// `(backend, sub-backend)`.
    pub fn names(&self) -> (&'static str, &'static str) {
        self.key
            .split_once('/')
            .expect("engine keys are backend/subbackend")
    }

    /// The row a spec addresses: its sub-backend's, or the backend's
    /// default when the spec leaves it empty.
    fn of(spec: &BackendSpec) -> Result<&'static Engine, QfwError> {
        let mut rows = ENGINES
            .iter()
            .filter(|e| e.names().0 == spec.backend)
            .peekable();
        let default = *rows
            .peek()
            .ok_or_else(|| QfwError::UnknownBackend(spec.backend.clone()))?;
        if spec.subbackend.is_empty() || spec.backend == AUTO {
            return Ok(default);
        }
        rows.find(|e| e.names().1 == spec.subbackend)
            .ok_or_else(|| QfwError::UnknownSubBackend {
                backend: spec.backend.clone(),
                subbackend: spec.subbackend.clone(),
            })
    }
}

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
    /// No resource bound: for the one caller that only needs a job's
    /// meaning, not its admissibility on a particular group
    /// ([`crate::ResultCache::key`]).
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

/// An engine row plus the typed values the planner may set on it: what a
/// ranked candidate is, and what [`ExecPlan::retarget`] moves a plan onto.
#[derive(Clone, Debug, PartialEq)]
pub struct Target {
    /// The row to run on.
    pub engine: &'static Engine,
    /// Ranks to request (1 off the distributed engines).
    pub ranks: usize,
    /// MPS bond-dimension cap, when the planner raises it.
    pub chi_max: Option<usize>,
    /// Clifford-prefix seam, when the planner found a split that pays.
    pub partition_seam: Option<usize>,
}

impl Target {
    /// The row named `key` ([`Engine::named`]), one rank, nothing
    /// overridden.
    pub fn on(key: &str) -> Target {
        Target {
            engine: Engine::named(key),
            ranks: 1,
            chi_max: None,
            partition_seam: None,
        }
    }
}

/// What a [`BackendSpec`] means: engine, width, and every recognised
/// extra as a checked value. Built only by [`ExecPlan::resolve`] and moved
/// between rows only by [`ExecPlan::retarget`].
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// The resolved backend name.
    pub backend: &'static str,
    /// The resolved sub-backend (the backend's default when the spec left
    /// it empty).
    pub subbackend: &'static str,
    /// What runs: the sub-backend, except on `aer/automatic`, where it is
    /// the method admission chose for the job's circuit.
    pub method: &'static str,
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
    /// The row whose width and compatibility rules apply (on
    /// `aer/automatic`, the chosen method's).
    engine: &'static Engine,
    /// The contraction a tensor-network row runs, laid out by [`fit`] from
    /// the circuit's wires; `None` on every other row. Derived from the
    /// circuit, so not part of the hash.
    pub(crate) contraction: Option<Arc<ContractionPlan>>,
    /// The MPS budget as the caller set it; `None` takes the engine's
    /// default, whichever engine that turns out to be.
    asked_chi_max: Option<usize>,
    asked_trunc_eps: Option<f64>,
    /// The sub-backend as the spec spelled it: part of the cache key.
    spelled_sub: String,
    /// Fold of the unrecognised extras, verbatim.
    unrecognised: ContentHash,
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
        Self::resolve_with(spec, None, None, group)
    }

    /// [`resolve`](Self::resolve), with the QASM3 compiler's handoff — the
    /// O3 pass's layout and its predicted log-fidelity — set as typed
    /// values in place of whatever the spec's extras said.
    fn resolve_with(
        spec: &BackendSpec,
        layout: Option<Vec<usize>>,
        predicted_fidelity: Option<f64>,
        group: GroupCores,
    ) -> Result<ExecPlan, QfwError> {
        let engine = Engine::of(spec)?;
        let (backend, subbackend) = engine.names();
        // Engine-independent defaults; `bind` fills in the rest.
        let mut plan = ExecPlan {
            backend,
            subbackend,
            method: subbackend,
            ranks: 1,
            requested_ranks: spec.ranks,
            cores: 1,
            fusion: true,
            chi_max: 0,
            trunc_eps: 0.0,
            width_limit: 27,
            noise: NoiseModel::empty(),
            trajectories: 64,
            partition_seam: None,
            layout: None,
            predicted_fidelity: None,
            engine,
            contraction: None,
            asked_chi_max: None,
            asked_trunc_eps: None,
            spelled_sub: spec.subbackend.clone(),
            unrecognised: ContentHash::of_bytes(&[]),
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
                extras::CHI_MAX => plan.asked_chi_max = Some(positive()?),
                extras::TRUNC_EPS => {
                    let want = "a finite number >= 0";
                    let eps = Some(number(want)?).filter(|v| v.is_finite() && *v >= 0.0);
                    plan.asked_trunc_eps = Some(eps.ok_or_else(|| wrong(want))?)
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
                _ => plan.unrecognised = plan.unrecognised.fold_str(key).fold_str(raw),
            }
        }
        plan.layout = layout.or(plan.layout);
        plan.predicted_fidelity = predicted_fidelity.or(plan.predicted_fidelity);
        plan.bind(engine, group)
    }

    /// Moves a plan resolved on the `auto` row onto a ranked candidate:
    /// the planner's values win, the caller's explicit values carry over,
    /// defaults follow the target engine, and the compatibility and core
    /// checks run on the new row — so a candidate that cannot take the
    /// caller's options (a noise model off the dense engine, say) is
    /// refused here and hands over to the next one.
    pub fn retarget(&self, to: &Target, group: GroupCores) -> Result<ExecPlan, QfwError> {
        let (backend, subbackend) = to.engine.names();
        let mut plan = ExecPlan {
            backend,
            subbackend,
            requested_ranks: to.ranks,
            ..self.clone()
        };
        plan.asked_chi_max = to.chi_max.or(plan.asked_chi_max);
        plan.partition_seam = to.partition_seam.or(plan.partition_seam);
        plan.bind(to.engine, group)
    }

    /// Puts the plan on an engine row — everything engine-dependent is
    /// decided here, from the row's columns, so resolving, retargeting and
    /// `aer/automatic`'s method choice cannot disagree: a pending row
    /// refused with its Table 1 note, width from the row and the requested
    /// ranks, the engine's MPS budget where the caller set none, the
    /// compatibility table, the core check, the hash.
    fn bind(mut self, engine: &'static Engine, group: GroupCores) -> Result<ExecPlan, QfwError> {
        if let Sim::Pending(note) = engine.sim {
            return Err(QfwError::BadProperties(note.into()));
        }
        self.engine = engine;
        self.method = engine.names().1;
        self.ranks = match engine.width {
            Width::Pow2Ranks => self.requested_ranks.max(1).next_power_of_two(),
            Width::Ranks => self.requested_ranks.max(1),
            Width::One | Width::Llc => 1,
        };
        self.cores = if engine.width == Width::Llc {
            group.per_llc
        } else {
            self.ranks
        };
        let mps = match engine.sim {
            Sim::Mps(config) => config,
            _ => AER_MPS,
        };
        self.chi_max = self.asked_chi_max.unwrap_or(mps.chi_max);
        self.trunc_eps = self.asked_trunc_eps.unwrap_or(mps.trunc_eps);

        // The compatibility table. Noise changes the answer, so an engine
        // that cannot run it refuses; a partition seam or a layout only
        // changes *how* the same counts are produced, so engines they do
        // not apply to drop them.
        if !self.noise.is_empty() && !engine.dense_local {
            return Err(QfwError::BadProperties(format!(
                "noise channels run on nwqsim/cpu and nwqsim/openmp only, not {}",
                engine.key
            )));
        }
        if !self.noise.is_empty() && self.partition_seam.is_some() {
            return Err(QfwError::BadProperties(
                "clifford-prefix partitioned execution does not compose with noise channels".into(),
            ));
        }
        if !engine.dense_local {
            self.partition_seam = None;
        }
        // A layout is the distributed engine's starting permutation; `auto`
        // keeps it for the candidate that can use it.
        if !matches!(engine.sim, Sim::Distributed | Sim::Planner) {
            self.layout = None;
        }
        // A wait for more cores than the group has would never end.
        if self.cores > group.total {
            return Err(QfwError::Resources(format!(
                "{} needs {} cores but the worker group only has {}",
                engine.key, self.cores, group.total
            )));
        }
        self.hash = self.fold_options();
        Ok(self)
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
            .fold(self.unrecognised, ContentHash::fold_u64);
        if self.noise.is_empty() {
            return h;
        }
        h.fold_bytes(&self.noise.content_hash().value().to_le_bytes())
    }

    /// The row that runs the plan (on `aer/automatic`, the chosen
    /// method's).
    pub fn engine(&self) -> &'static Engine {
        self.engine
    }

    /// Hash of everything the extras contribute to the computation.
    pub fn content_hash(&self) -> ContentHash {
        self.hash
    }

    /// Continues a key over everything the spec contributes: the engine
    /// and ranks as the spec named them, the extras by meaning. The result
    /// cache folds this onto (circuit, seed, shots), the batcher onto the
    /// circuit's skeleton.
    pub fn fold_into(&self, h: ContentHash) -> ContentHash {
        h.fold_str(self.backend)
            .fold_str(&self.spelled_sub)
            .fold_u64(self.requested_ranks as u64)
            .fold_bytes(&self.hash.value().to_le_bytes())
    }
}

/// The two shapes a circuit travels in, shared by every job on it.
#[derive(Clone, Debug)]
pub enum Form {
    /// A concrete circuit.
    Concrete(Arc<Circuit>),
    /// A symbolic skeleton; each job on it carries its own binding.
    Param(Arc<ParamCircuit>),
}

/// Where a job's circuit comes from.
pub enum Source<'a> {
    /// Concrete `qfwasm` or bound `qfwasm-param` wire text.
    Wire(&'a str),
    /// A circuit qfw-compile just produced from QASM3, with the O3 pass's
    /// handoff as typed values: no dump, no re-parse, no CSV.
    Compiled {
        /// The compiled circuit.
        circuit: Circuit,
        /// `layout[p]` is the logical qubit at physical position `p`.
        layout: Option<Vec<usize>>,
        /// The noise-aware layout's predicted log-fidelity.
        predicted_fidelity: Option<f64>,
    },
}

/// Wire text as a form plus its `bind` line: the one call site of the
/// `qfwasm` / `qfwasm-param` parsers behind the front door.
fn parse(wire: &str) -> Result<(Form, Option<Vec<f64>>), QfwError> {
    let parsed = if text::is_param_text(wire) {
        text::parse_param(wire).map(|(template, bound)| (Form::Param(Arc::new(template)), bound))
    } else {
        text::parse(wire).map(|circuit| (Form::Concrete(Arc::new(circuit)), None))
    };
    parsed.map_err(|e| QfwError::Marshal(e.to_string()))
}

/// A binding must cover every parameter its skeleton references.
fn check_binding(
    form: &Form,
    params: &[f64],
    binding: std::fmt::Arguments<'_>,
) -> Result<(), QfwError> {
    match form {
        Form::Param(template) if params.len() < template.num_params() => {
            Err(QfwError::Marshal(format!(
                "{binding} carries {} values but the skeleton references {} parameters",
                params.len(),
                template.num_params()
            )))
        }
        _ => Ok(()),
    }
}

/// The circuit the planner ranks engines for: `auto` cannot route a
/// symbolic one.
pub(crate) fn auto_circuit(form: &Form) -> Result<&Circuit, QfwError> {
    match form {
        Form::Concrete(circuit) => Ok(circuit),
        Form::Param(_) => Err(QfwError::Marshal(
            "auto routing needs a concrete qfwasm circuit".into(),
        )),
    }
}

/// Bond-bound (log2) below which `aer/automatic` prefers MPS.
const AUTO_MPS_BOND_BOUND: usize = 8;

/// Aer's `automatic` method selection, on our structural analyses: a
/// circuit that measures mid-circuit goes to the dense state vector (the
/// one method that collapses), Clifford circuits to the stabilizer tableau,
/// structured low-entanglement circuits to MPS, everything else to the
/// dense state vector. Only gate kinds and operands are looked at, never
/// angles.
fn aer_method(circuit: &Circuit) -> &'static str {
    if Readout::of(circuit).has_mid_circuit() {
        return "aer/statevector";
    }
    if is_clifford(circuit) {
        return "aer/stabilizer";
    }
    let report = StructureReport::of(circuit);
    if report.nearest_neighbor_only
        && report.log2_bond_bound(circuit.num_qubits()) <= AUTO_MPS_BOND_BOUND
    {
        return "aer/matrix_product_state";
    }
    "aer/statevector"
}

/// The circuit's gates and measurements: every binding of a skeleton has
/// the same ones, so zeros will do.
fn shape(form: &Form) -> Cow<'_, Circuit> {
    match form {
        Form::Concrete(circuit) => Cow::Borrowed(circuit),
        Form::Param(template) => Cow::Owned(template.bind(&vec![0.0; template.num_params()])),
    }
}

/// The one place the checks and choices that need circuit *and* plan are
/// made, for single jobs, sweeps and retargeted candidates alike: the
/// register is not empty, `auto` gets a concrete circuit, `aer/automatic`
/// its method (and that method's width), an engine that cannot collapse a
/// state gets no mid-circuit measurement, the tableau no non-Clifford
/// gate, a dense engine no gate wider than its kernels, a tensor network
/// no register or contraction wider than its width limit (and its
/// contraction plan, which no other row carries), the register is wide
/// enough for the ranks, the layout permutes exactly the register, and the
/// partition seam sits inside a Clifford prefix.
fn fit(form: &Form, mut plan: ExecPlan, group: GroupCores) -> Result<ExecPlan, QfwError> {
    let num_qubits = match form {
        Form::Concrete(circuit) => circuit.num_qubits(),
        Form::Param(template) => template.num_qubits(),
    };
    if num_qubits == 0 {
        return Err(QfwError::BadProperties(format!(
            "{} needs at least one qubit; the circuit declares none",
            plan.engine.key
        )));
    }
    if plan.engine.sim == Sim::Planner {
        auto_circuit(form)?;
    }
    let circuit = shape(form);
    if plan.engine.sim == Sim::Automatic {
        // The sub-backend stays `automatic`; width and `method` follow.
        plan = plan.bind(Engine::named(aer_method(&circuit)), group)?;
    }
    if !plan.engine.collapses && Readout::of(&circuit).has_mid_circuit() {
        return Err(QfwError::BadProperties(format!(
            "{} cannot collapse a state mid-circuit, and the circuit measures a qubit a later gate acts on",
            plan.engine.key
        )));
    }
    if plan.engine.sim == Sim::Stabilizer {
        if let Some(gate) = circuit.gates().find(|g| !g.is_clifford()) {
            return Err(QfwError::BadProperties(format!(
                "{} runs Clifford circuits only, and the circuit has the non-Clifford gate '{}'",
                plan.engine.key,
                gate.name()
            )));
        }
    }
    // `auto` leaves this to each candidate's own row.
    if plan.engine.collapses && plan.engine.sim != Sim::Planner {
        let wide = |g: &&Gate| g.arity() > MAX_DENSE_QUBITS && absorbable_diagonal(g).is_none();
        if let Some(gate) = circuit.gates().find(wide) {
            return Err(QfwError::BadProperties(format!(
                "{} takes gates on more than {MAX_DENSE_QUBITS} qubits only as diagonals with no zero entry; the circuit has `{gate}`",
                plan.engine.key
            )));
        }
    }
    // A dense register split across `ranks` must leave every shard as many
    // local qubits as the distributed router needs for the circuit's widest
    // gate — and never fewer than one.
    if plan.engine.width == Width::Pow2Ranks {
        let rank_bits = plan.ranks.trailing_zeros() as usize;
        let need = local_qubits_needed(&circuit);
        if num_qubits < rank_bits + need {
            return Err(QfwError::Resources(format!(
                "{} ranks leave {} of {num_qubits} qubits local; the circuit needs {need}",
                plan.ranks,
                num_qubits.saturating_sub(rank_bits)
            )));
        }
    }
    plan.contraction = None;
    if let Sim::TensorNetwork(order) = plan.engine.sim {
        let limit = plan.width_limit;
        if num_qubits > limit {
            return Err(QfwError::Resources(format!(
                "full-state contraction of {num_qubits} qubits exceeds the width limit {limit}"
            )));
        }
        // Laid out from the wires alone: a skeleton's plan holds at every
        // binding. Refused in the engine's own words.
        let contraction = ContractionPlan::for_circuit(&circuit, order);
        contraction.within(limit).map_err(QfwError::Resources)?;
        plan.contraction = Some(Arc::new(contraction));
    }
    if plan.layout.as_ref().is_some_and(|l| l.len() != num_qubits) {
        return Err(QfwError::BadProperties(format!(
            "{} does not cover exactly the {num_qubits}-qubit register",
            extras::INITIAL_LAYOUT
        )));
    }
    if let (Some(seam), Form::Concrete(circuit)) = (plan.partition_seam, form) {
        check_seam(circuit, seam)?;
    }
    Ok(plan)
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

/// One admitted job: what the cache keys on, the queue holds, and
/// [`crate::backends::BackendQpm::execute`] consumes.
#[derive(Clone, Debug)]
pub struct ResolvedJob {
    /// The parsed circuit.
    pub form: Form,
    /// The binding a [`Form::Param`] skeleton is evaluated at: at least one
    /// value per parameter (empty for a concrete circuit).
    pub params: Vec<f64>,
    /// Measurement shots.
    pub shots: usize,
    /// Sampling seed.
    pub seed: u64,
    /// What the spec means.
    pub plan: Arc<ExecPlan>,
    /// Seconds admission took: the parse, the resolve, the checks.
    pub marshal_secs: f64,
}

impl ResolvedJob {
    /// Admits one job against a worker group: the spec resolved, the
    /// circuit parsed (or taken as compiled), every circuit-dependent check
    /// run. Parameterized text must carry its binding.
    pub fn admit(
        source: Source<'_>,
        shots: usize,
        seed: u64,
        spec: &BackendSpec,
        group: GroupCores,
    ) -> Result<ResolvedJob, QfwError> {
        let start = Instant::now();
        let (plan, form, params) = match source {
            Source::Wire(wire) => {
                let plan = ExecPlan::resolve(spec, group)?;
                // A skeleton without its `bind` line is a binding of nothing.
                let (form, bound) = parse(wire)?;
                (plan, form, bound.unwrap_or_default())
            }
            Source::Compiled {
                circuit,
                layout,
                predicted_fidelity,
            } => {
                let plan = ExecPlan::resolve_with(spec, layout, predicted_fidelity, group)?;
                (plan, Form::Concrete(Arc::new(circuit)), Vec::new())
            }
        };
        check_binding(&form, &params, format_args!("bind line"))?;
        Ok(ResolvedJob {
            plan: Arc::new(fit(&form, plan, group)?),
            form,
            params,
            shots,
            seed,
            marshal_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Admits a parse-once/bind-many sweep as one bound job per point, in
    /// point order, each checked exactly as a bound job of its own would be.
    /// The points share one skeleton and one plan, and each carries its
    /// share of the admission time.
    pub fn admit_sweep(task: &SweepTask, group: GroupCores) -> Result<Vec<ResolvedJob>, QfwError> {
        let start = Instant::now();
        let plan = ExecPlan::resolve(&task.spec, group)?;
        let (form @ Form::Param(_), _) = parse(&task.circuit)? else {
            return Err(QfwError::Marshal(
                "sweep task circuit is not in the qfwasm-param wire format".into(),
            ));
        };
        for (i, point) in task.points.iter().enumerate() {
            check_binding(&form, &point.params, format_args!("sweep point {i}"))?;
        }
        let plan = Arc::new(fit(&form, plan, group)?);
        let marshal_secs = start.elapsed().as_secs_f64() / task.points.len().max(1) as f64;
        let job = |point: &SweepPointSpec| ResolvedJob {
            form: form.clone(),
            params: point.params.clone(),
            shots: point.shots,
            seed: point.seed,
            plan: Arc::clone(&plan),
            marshal_secs,
        };
        Ok(task.points.iter().map(job).collect())
    }

    /// The same job on another plan (what `auto` does with each ranked
    /// candidate), through the same circuit-dependent checks.
    pub fn on_plan(&self, plan: ExecPlan, group: GroupCores) -> Result<ResolvedJob, QfwError> {
        Ok(ResolvedJob {
            plan: Arc::new(fit(&self.form, plan, group)?),
            ..self.clone()
        })
    }

    /// The job as a concrete circuit (binding the skeleton if needed).
    pub fn concrete(&self) -> Cow<'_, Circuit> {
        match &self.form {
            Form::Concrete(circuit) => Cow::Borrowed(circuit),
            Form::Param(template) => Cow::Owned(template.bind(&self.params)),
        }
    }

    /// The job as wire text, dumped on demand for the adapter that
    /// forwards it off-cluster.
    pub fn wire_text(&self) -> String {
        match &self.form {
            Form::Concrete(circuit) => text::dump(circuit),
            Form::Param(template) => text::dump_param_bound(template, &self.params),
        }
    }

    /// The result-cache key: everything that can change the bitstring
    /// counts — the canonical circuit (with its binding), sampling seed,
    /// shot budget, and the spec by *meaning* ([`ExecPlan::fold_into`]): an
    /// ideal submission keys identically whether it omits `noise_model` or
    /// carries a zero-strength one, `fusion=true` equals no `fusion` key,
    /// while any real noise content or unrecognised key separates the key.
    pub fn cache_key(&self) -> ContentHash {
        let circuit = match &self.form {
            Form::Concrete(circuit) => circuit_hash(circuit),
            Form::Param(template) => param_hash(template, Some(&self.params)),
        };
        self.plan
            .fold_into(circuit.fold_u64(self.seed).fold_u64(self.shots as u64))
    }
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
    fn engine_keys_split_into_names() {
        for engine in &ENGINES {
            let (backend, sub) = engine.names();
            assert_eq!(format!("{backend}/{sub}"), engine.key);
            assert_eq!(Engine::named(engine.key), engine);
        }
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
        // A mid-circuit measurement: only an engine that collapses a state
        // takes it, and `aer/automatic` picks the method that does.
        let wire = text::dump(&mid_circuit());
        for engine in &ENGINES[..ENGINES.len() - 1] {
            let (backend, sub) = engine.names();
            let job = admit(&wire, &BackendSpec::of(backend, sub));
            if engine.collapses {
                assert!(job.is_ok(), "{}: {:?}", engine.key, job.err());
            } else {
                assert!(
                    matches!(job, Err(QfwError::BadProperties(_))),
                    "{} admitted a mid-circuit measurement",
                    engine.key
                );
            }
        }
        let automatic = admit(&wire, &BackendSpec::of("aer", "automatic")).unwrap();
        assert_eq!(automatic.plan.method, "statevector");
    }

    /// Clifford, so only its mid-circuit measurement keeps it off the
    /// stabilizer tableau.
    fn mid_circuit() -> Circuit {
        let mut qc = Circuit::new(3);
        qc.h(0).measure(0, 0).cx(0, 1).measure_all();
        qc
    }

    /// The two tables above, through `auto` and a retarget onto each row:
    /// the same defaults, the same refusals, the same dropped hints.
    #[test]
    fn retarget_judges_each_candidate_on_its_own_row() {
        let onto = |spec: &BackendSpec, to: &Target| resolve(spec).unwrap().retarget(to, GROUP);
        let auto = BackendSpec::of(AUTO, "");
        // Defaults follow the target engine...
        let tnqvm = onto(&auto, &Target::on("tnqvm/exatn-mps")).unwrap();
        assert_eq!((tnqvm.backend, tnqvm.subbackend), ("tnqvm", "exatn-mps"));
        assert_eq!((tnqvm.chi_max, tnqvm.trunc_eps), (32, 1e-10));
        let aer = onto(&auto, &Target::on("aer/matrix_product_state")).unwrap();
        assert_eq!((aer.chi_max, aer.trunc_eps), (64, 1e-12));
        let omp = onto(&auto, &Target::on("nwqsim/openmp")).unwrap();
        assert_eq!((omp.cores, omp.ranks), (7, 1));
        // ...explicit values carry over, whatever the engine's default...
        let asked = auto
            .clone()
            .with_extra("chi_max", 64)
            .with_extra("fusion", false);
        let tnqvm = onto(&asked, &Target::on("tnqvm/exatn-mps")).unwrap();
        assert_eq!(
            (tnqvm.chi_max, tnqvm.trunc_eps, tnqvm.fusion),
            (64, 1e-10, false)
        );
        // ...and the planner's values win.
        let raised = Target {
            chi_max: Some(128),
            ..Target::on("aer/matrix_product_state")
        };
        assert_eq!(onto(&asked, &raised).unwrap().chi_max, 128);
        let mpi = Target {
            ranks: 5,
            ..Target::on("nwqsim/mpi")
        };
        let plan = onto(&auto.clone().with_ranks(3), &mpi).unwrap();
        assert_eq!((plan.ranks, plan.requested_ranks, plan.cores), (8, 5, 8));
        let wide = Target {
            ranks: 33,
            ..Target::on("nwqsim/mpi")
        };
        assert!(matches!(onto(&auto, &wide), Err(QfwError::Resources(_))));

        // Noise: only the local dense rows take it, and never across a seam.
        let noise = auto.clone().with_extra("noise_model", noisy());
        for engine in &ENGINES[..ENGINES.len() - 1] {
            let plan = onto(&noise, &Target::on(engine.key));
            if engine.dense_local {
                assert!(!plan.unwrap().noise.is_empty(), "{}", engine.key);
            } else {
                assert!(
                    matches!(plan, Err(QfwError::BadProperties(_))),
                    "{} accepted a noise model",
                    engine.key
                );
            }
        }
        let split = Target {
            partition_seam: Some(3),
            ..Target::on("nwqsim/cpu")
        };
        assert!(matches!(
            onto(&noise, &split),
            Err(QfwError::BadProperties(_))
        ));
        // A mid-circuit measurement: refused by each candidate that cannot
        // collapse it, so `auto` hands it to the next.
        let job = admit(&text::dump(&mid_circuit()), &auto).unwrap();
        for engine in &ENGINES[..ENGINES.len() - 1] {
            let fitted = onto(&auto, &Target::on(engine.key)).and_then(|p| job.on_plan(p, GROUP));
            if engine.collapses {
                assert!(fitted.is_ok(), "{}: {:?}", engine.key, fitted.err());
            } else {
                assert!(
                    matches!(fitted, Err(QfwError::BadProperties(_))),
                    "{} took a mid-circuit measurement",
                    engine.key
                );
            }
        }
        // Hints survive `auto` and land only where they apply.
        let hints = auto
            .with_extra("partition_seam", 3)
            .with_extra("initial_layout", "1,0,2");
        let mpi = onto(&hints, &Target::on("nwqsim/mpi")).unwrap();
        assert_eq!(
            (mpi.partition_seam, mpi.layout.as_deref()),
            (None, Some(&[1, 0, 2][..]))
        );
        let cpu = onto(&hints, &Target::on("nwqsim/cpu")).unwrap();
        assert_eq!((cpu.partition_seam, cpu.layout.as_deref()), (Some(3), None));
        assert_eq!(onto(&hints, &split).unwrap().partition_seam, Some(3));
        // A retargeted plan hashes as the same spec resolved directly.
        let direct = resolve(&BackendSpec::of("nwqsim", "cpu").with_extra("partition_seam", 3));
        assert_eq!(cpu.content_hash(), direct.unwrap().content_hash());
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

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.rx(0, 0.3);
        qc.measure_all();
        qc
    }

    fn admit(wire: &str, spec: &BackendSpec) -> Result<ResolvedJob, QfwError> {
        ResolvedJob::admit(Source::Wire(wire), 10, 1, spec, GROUP)
    }

    #[test]
    fn circuit_dependent_checks_run_at_admission() {
        let wire = text::dump(&ghz(3));
        let job = |spec: BackendSpec| admit(&wire, &spec).map(|_| ());
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
        // 8 ranks leave no local qubit; 4 leave one, and a cx needs two —
        // on both engines that run the distributed plan.
        for (backend, sub, ranks) in [
            ("nwqsim", "mpi", 8),
            ("nwqsim", "mpi", 4),
            ("aer", "statevector", 4),
        ] {
            assert!(matches!(
                job(BackendSpec::of(backend, sub).with_ranks(ranks)),
                Err(QfwError::Resources(_))
            ));
        }
        // Text that does not parse is a refusal like any other.
        assert!(matches!(
            admit("qfwasm 1\nqubits 2\nnosuchgate q0\n", &mpi),
            Err(QfwError::Marshal(_))
        ));
        // A dense gate wider than the kernels take parses, and only an
        // engine without those kernels admits it.
        let k = qfw_sim_sv::MAX_DENSE_QUBITS + 1;
        let mut shift = qfw_num::Matrix::zeros(1 << k, 1 << k);
        for i in 0..1 << k {
            shift[((i + 1) % (1 << k), i)] = qfw_num::complex::C64::ONE;
        }
        let mut wide = Circuit::new(k);
        wide.push(Gate::Unitary {
            qubits: (0..k).collect(),
            matrix: Arc::new(shift),
            label: "shift".into(),
        });
        // So does a diagonal as wide with a zero entry, which no diagonal
        // layer can hold; the same diagonal with no zero runs at any width.
        let diag = |zero: bool| {
            let phases: Vec<_> = (0..1 << k)
                .map(|i| match (zero, i) {
                    (true, 5) => qfw_num::complex::C64::ZERO,
                    _ => qfw_num::complex::C64::cis(0.01 * i as f64),
                })
                .collect();
            let mut c = Circuit::new(k);
            c.push(Gate::Unitary {
                qubits: (0..k).rev().collect(),
                matrix: Arc::new(qfw_num::Matrix::diag(&phases)),
                label: "diag".into(),
            });
            text::dump(&c)
        };
        let dense_rows = [("nwqsim", "cpu"), ("nwqsim", "mpi"), ("aer", "statevector")];
        for wire in [text::dump(&wide), diag(true)] {
            for (backend, sub) in dense_rows {
                assert!(matches!(
                    admit(&wire, &BackendSpec::of(backend, sub)),
                    Err(QfwError::BadProperties(_))
                ));
            }
        }
        for (backend, sub) in dense_rows {
            assert!(admit(&diag(false), &BackendSpec::of(backend, sub)).is_ok());
        }
        let wire = text::dump(&wide);
        let job = |spec: BackendSpec| admit(&wire, &spec).map(|_| ());
        assert!(job(BackendSpec::of("aer", "matrix_product_state")).is_ok());
        // `auto` admits it, and each candidate is judged on its own row.
        let auto = admit(&wire, &BackendSpec::of(AUTO, "")).unwrap();
        let onto = |key| auto.on_plan(auto.plan.retarget(&Target::on(key), GROUP).unwrap(), GROUP);
        assert!(matches!(onto("nwqsim/cpu"), Err(QfwError::BadProperties(_))));
        assert!(onto("aer/matrix_product_state").is_ok());
    }

    fn sweep_task(skeleton: &str, spec: BackendSpec) -> SweepTask {
        SweepTask {
            circuit: skeleton.into(),
            points: vec![SweepPointSpec {
                params: vec![0.25],
                shots: 8,
                seed: 3,
            }],
            spec,
        }
    }

    #[test]
    fn sweep_points_get_the_same_checks_as_single_jobs() {
        let skeleton = "qfwasm-param 1\nqubits 3\nrx(@0) q0\ncx q0 q2\n";
        let sweep = |spec: BackendSpec| {
            ResolvedJob::admit_sweep(&sweep_task(skeleton, spec), GROUP).map(|jobs| jobs.len())
        };
        let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
        assert_eq!(
            sweep(mpi.clone().with_extra("initial_layout", "2,0,1")).unwrap(),
            1
        );
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
    fn auto_refuses_symbolic_circuits_on_every_path() {
        let skeleton = "qfwasm-param 1\nqubits 3\nrx(@0) q0\ncx q0 q2\n";
        let auto = BackendSpec::of(AUTO, "");
        let is_refusal = |e: QfwError| matches!(e, QfwError::Marshal(why) if why.contains("auto"));
        assert!(is_refusal(
            admit(&format!("{skeleton}bind 1e-1\n"), &auto).unwrap_err()
        ));
        let mut task = sweep_task(skeleton, auto.clone());
        assert!(is_refusal(
            ResolvedJob::admit_sweep(&task, GROUP).unwrap_err()
        ));
        task.points.clear();
        assert!(is_refusal(
            ResolvedJob::admit_sweep(&task, GROUP).unwrap_err()
        ));
        assert!(admit(&text::dump(&ghz(3)), &auto).is_ok());
    }

    #[test]
    fn aer_automatic_takes_the_width_of_its_method() {
        let automatic = |ranks| BackendSpec::of("aer", "automatic").with_ranks(ranks);
        // Nearest-neighbour and shallow: MPS, which has no use for ranks —
        // however many, neither the group nor the register bounds them.
        let plan = admit(&text::dump(&ghz(3)), &automatic(33)).unwrap().plan;
        assert_eq!(
            (plan.subbackend, plan.method),
            ("automatic", "matrix_product_state")
        );
        assert_eq!((plan.ranks, plan.requested_ranks, plan.cores), (1, 33, 1));
        let mut clifford = Circuit::new(3);
        clifford.h(0).cx(0, 2);
        assert_eq!(
            admit(&text::dump(&clifford), &automatic(33))
                .unwrap()
                .plan
                .method,
            "stabilizer"
        );
        // Long-range and non-Clifford: dense, bounded like `statevector`.
        let mut dense = Circuit::new(5);
        dense.h(0).cx(0, 4).rzz(1, 3, 0.7);
        let wire = text::dump(&dense);
        let plan = admit(&wire, &automatic(3)).unwrap().plan;
        assert_eq!((plan.method, plan.ranks, plan.cores), ("statevector", 4, 4));
        for ranks in [32, 33] {
            let refusal = admit(&wire, &automatic(ranks)).unwrap_err();
            assert!(
                matches!(refusal, QfwError::Resources(_)),
                "{ranks}: {refusal:?}"
            );
        }
        // Any binding of a skeleton selects alike.
        let bound = "qfwasm-param 1\nqubits 5\nh q0\ncx q0 q4\nrzz(@0) q1 q3\nbind 7e-1\n";
        assert_eq!(
            admit(bound, &automatic(1)).unwrap().plan.method,
            "statevector"
        );
    }

    #[test]
    fn unbound_or_short_bindings_are_marshal_errors() {
        let skeleton = "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1) q0 q1\n";
        let cpu = BackendSpec::of("nwqsim", "cpu");
        assert!(matches!(admit(skeleton, &cpu), Err(QfwError::Marshal(_))));
        let short = format!("{skeleton}bind 1e-1\n");
        assert!(matches!(admit(&short, &cpu), Err(QfwError::Marshal(_))));
        assert!(matches!(
            ResolvedJob::admit_sweep(&sweep_task(skeleton, cpu.clone()), GROUP),
            Err(QfwError::Marshal(_))
        ));
        // A concrete circuit is not a sweep skeleton.
        assert!(matches!(
            ResolvedJob::admit_sweep(&sweep_task(&text::dump(&ghz(2)), cpu), GROUP),
            Err(QfwError::Marshal(_))
        ));
    }

    /// Each point carries its share of the admission, so summed over a
    /// sweep the points cannot exceed the admission call's wall time (they
    /// used to carry the whole admission each).
    #[test]
    fn sweep_points_share_the_admission_time() {
        let skeleton = "qfwasm-param 1\nqubits 3\nrx(@0) q0\ncx q0 q2\n";
        let mut task = sweep_task(skeleton, BackendSpec::of("nwqsim", "cpu"));
        task.points = vec![task.points[0].clone(); 32];
        let wall = Instant::now();
        let jobs = ResolvedJob::admit_sweep(&task, GROUP).unwrap();
        let wall = wall.elapsed().as_secs_f64();
        let sum: f64 = jobs.iter().map(|job| job.marshal_secs).sum();
        assert_eq!(jobs.len(), 32);
        assert!(
            sum > 0.0 && sum <= wall,
            "points sum to {sum}s of a {wall}s admission"
        );
        // One skeleton and one plan, shared by every point.
        for job in &jobs[1..] {
            assert!(Arc::ptr_eq(&job.plan, &jobs[0].plan));
            let (Form::Param(a), Form::Param(b)) = (&job.form, &jobs[0].form) else {
                panic!("a sweep point is a bound skeleton");
            };
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn jobs_dump_their_wire_text_on_demand() {
        let skeleton = "qfwasm-param 1\nqubits 1\nrx(@0) q0\n";
        let task = sweep_task(skeleton, BackendSpec::of("ionq", "simulator"));
        let jobs = ResolvedJob::admit_sweep(&task, GROUP).unwrap();
        let job = &jobs[0];
        assert_eq!((job.shots, job.seed), (8, 3));
        assert_eq!(job.wire_text(), format!("{skeleton}bind 2.5e-1\n"));
        let wire = text::dump(&ghz(2));
        let spec = BackendSpec::of("ionq", "simulator");
        let commented = wire.replacen('\n', "\n# c\n", 1);
        assert_eq!(admit(&commented, &spec).unwrap().wire_text(), wire);
    }

    /// A compiled circuit with its typed handoff is the job its dump and
    /// the handoff's CSV spelling would have been.
    #[test]
    fn compiled_source_equals_its_wire_spelling() {
        let circuit = ghz(3);
        let spec = BackendSpec::of("nwqsim", "mpi")
            .with_ranks(2)
            .with_extra("initial_layout", "0,1,2");
        let compiled = Source::Compiled {
            circuit: circuit.clone(),
            layout: Some(vec![2, 0, 1]),
            predicted_fidelity: Some(-0.0123),
        };
        let typed = ResolvedJob::admit(compiled, 10, 1, &spec, GROUP).unwrap();
        assert_eq!(typed.plan.layout.as_deref(), Some(&[2, 0, 1][..]));
        assert_eq!(typed.plan.predicted_fidelity, Some(-0.0123));
        let spelled = spec
            .with_extra("initial_layout", "2,0,1")
            .with_extra("predicted_fidelity", -0.0123);
        let wired = admit(&text::dump(&circuit), &spelled).unwrap();
        assert_eq!(typed.cache_key(), wired.cache_key());
        // The handoff's width is checked like a spelled one.
        let short = Source::Compiled {
            circuit,
            layout: Some(vec![1, 0]),
            predicted_fidelity: None,
        };
        assert!(matches!(
            ResolvedJob::admit(short, 10, 1, &spelled, GROUP),
            Err(QfwError::BadProperties(_))
        ));
    }
}
