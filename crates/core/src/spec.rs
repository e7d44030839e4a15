//! Runtime backend-selection properties and the task wire format: what
//! crosses the front door, and is read exactly once, by admission
//! ([`crate::plan`]).

use crate::error::QfwError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The recognised `extra` keys. [`crate::plan::ExecPlan::resolve`] is the
/// one place that gives them meaning (type, default, which engines honour
/// them); anything else stays a legal free-form key, carried and hashed
/// verbatim.
pub mod extras {
    /// MPS bond-dimension cap (`aer/matrix_product_state`, `tnqvm`).
    pub const CHI_MAX: &str = "chi_max";
    /// MPS relative truncation threshold.
    pub const TRUNC_EPS: &str = "trunc_eps";
    /// Widest intermediate tensor `qtensor` may contract.
    pub const WIDTH_LIMIT: &str = "width_limit";
    /// Gate-fusion toggle for state-vector engines (default `true`).
    pub const FUSION: &str = "fusion";
    /// Noise model in the `qfw-noise` wire codec (`nwqsim/{cpu,openmp}`).
    pub const NOISE_MODEL: &str = "noise_model";
    /// Stochastic-trajectory budget of a noisy run.
    pub const NOISE_TRAJECTORIES: &str = "noise_trajectories";
    /// Partition strategy marker; the only recognized value is
    /// [`PARTITION_CLIFFORD_PREFIX`].
    pub const PARTITION: &str = "partition";
    /// Operation index of the Clifford-prefix/dense-suffix seam. Presence
    /// of this key engages partitioned execution on `nwqsim/{cpu,openmp}`.
    pub const PARTITION_SEAM: &str = "partition_seam";
    /// Value of [`PARTITION`] for stabilizer-prefix hybrid execution.
    pub const PARTITION_CLIFFORD_PREFIX: &str = "clifford_prefix";
    /// Starting qubit permutation of `nwqsim/mpi` (`q0,q1,...`: entry p is
    /// the logical qubit at physical position p), planned by qfw-compile's
    /// O3 layout pass.
    pub const INITIAL_LAYOUT: &str = "initial_layout";
    /// The O3 noise-aware layout pass's predicted log-fidelity, surfaced
    /// on the result.
    pub const PREDICTED_FIDELITY: &str = "predicted_fidelity";
    /// Device calibration table as JSON, consumed by QASM3 ingestion.
    pub const CALIBRATION: &str = "calibration";
}

/// Backend-selection properties, the QFw equivalent of
/// `{"backend": "qtensor", "subbackend": "numpy"}` from Section 4.1.
///
/// Recognized keys: `backend` (required), `subbackend` (engine-specific
/// default when omitted), `ranks` (MPI width, default 1), and free-form
/// engine tunables (e.g. `chi_max` for MPS engines), all carried verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Backend name (e.g. `nwqsim`, `aer`, `tnqvm`, `qtensor`, `ionq`).
    pub backend: String,
    /// Sub-backend/engine variant.
    pub subbackend: String,
    /// Requested parallel ranks (only meaningful for MPI sub-backends).
    pub ranks: usize,
    /// Remaining free-form properties.
    pub extra: BTreeMap<String, String>,
}

impl BackendSpec {
    /// Builds a spec from key/value pairs.
    ///
    /// ```
    /// use qfw::BackendSpec;
    /// let spec = BackendSpec::from_pairs(&[
    ///     ("backend", "nwqsim"),
    ///     ("subbackend", "mpi"),
    ///     ("ranks", "4"),
    /// ]).unwrap();
    /// assert_eq!(spec.ranks, 4);
    /// ```
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Result<Self, QfwError> {
        let mut backend = None;
        let mut subbackend = None;
        let mut ranks = 1usize;
        let mut extra = BTreeMap::new();
        for (k, v) in pairs {
            match *k {
                "backend" => backend = Some(v.to_string()),
                "subbackend" => subbackend = Some(v.to_string()),
                "ranks" => {
                    ranks = v.parse().map_err(|_| {
                        QfwError::BadProperties(format!("ranks must be a positive integer, got '{v}'"))
                    })?;
                    if ranks == 0 {
                        return Err(QfwError::BadProperties("ranks must be >= 1".into()));
                    }
                }
                other => {
                    extra.insert(other.to_string(), v.to_string());
                }
            }
        }
        let backend =
            backend.ok_or_else(|| QfwError::BadProperties("missing 'backend' key".into()))?;
        Ok(BackendSpec {
            backend,
            subbackend: subbackend.unwrap_or_default(),
            ranks,
            extra,
        })
    }

    /// Shorthand for `backend`+`subbackend` selection.
    pub fn of(backend: &str, subbackend: &str) -> Self {
        BackendSpec {
            backend: backend.to_string(),
            subbackend: subbackend.to_string(),
            ranks: 1,
            extra: BTreeMap::new(),
        }
    }

    /// Returns the spec with a rank count (builder style).
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        assert!(ranks >= 1);
        self.ranks = ranks;
        self
    }

    /// Returns the spec with an extra engine tunable (builder style).
    pub fn with_extra(mut self, key: &str, value: impl ToString) -> Self {
        self.extra.insert(key.to_string(), value.to_string());
        self
    }
}

/// One circuit-execution task as accepted by a Backend-QPM: the paper's
/// "standardized circuit/problem description" plus runtime parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecTask {
    /// Circuit in the `qfwasm` wire format.
    pub circuit: String,
    /// Measurement shots.
    pub shots: usize,
    /// Seed for sampling (and any stochastic engine behaviour).
    pub seed: u64,
    /// Backend-selection properties.
    pub spec: BackendSpec,
}

/// One point of a parse-once/bind-many parameter sweep: a binding plus
/// its own shot budget and sampling seed (so sweep counts stay bitwise
/// reproducible per point).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPointSpec {
    /// The bound parameter vector (`theta[0..k]`).
    pub params: Vec<f64>,
    /// Measurement shots for this point.
    pub shots: usize,
    /// Sampling seed for this point.
    pub seed: u64,
}

/// A coalesced sweep task: one symbolic circuit skeleton (`qfwasm-param`
/// wire text, no `bind` line) executed against many parameter bindings in
/// a single engine invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepTask {
    /// Skeleton in the `qfwasm-param` wire format.
    pub circuit: String,
    /// The bindings to evaluate, in result order.
    pub points: Vec<SweepPointSpec>,
    /// Backend-selection properties (shared by every point).
    pub spec: BackendSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_parses_everything() {
        let spec = BackendSpec::from_pairs(&[
            ("backend", "aer"),
            ("subbackend", "matrix_product_state"),
            ("ranks", "8"),
            ("chi_max", "32"),
        ])
        .unwrap();
        assert_eq!(spec.backend, "aer");
        assert_eq!(spec.subbackend, "matrix_product_state");
        assert_eq!(spec.ranks, 8);
        assert_eq!(spec.extra["chi_max"], "32");
    }

    #[test]
    fn missing_backend_rejected() {
        let err = BackendSpec::from_pairs(&[("subbackend", "x")]).unwrap_err();
        assert!(matches!(err, QfwError::BadProperties(_)));
    }

    #[test]
    fn bad_ranks_rejected() {
        assert!(BackendSpec::from_pairs(&[("backend", "a"), ("ranks", "zero")]).is_err());
        assert!(BackendSpec::from_pairs(&[("backend", "a"), ("ranks", "0")]).is_err());
    }

    #[test]
    fn builder_style() {
        let spec = BackendSpec::of("nwqsim", "mpi")
            .with_ranks(4)
            .with_extra("fusion", true);
        assert_eq!(spec.ranks, 4);
        assert_eq!(spec.extra["fusion"], "true");
    }

    #[test]
    fn sweep_task_serde_round_trip() {
        let task = SweepTask {
            circuit: "qfwasm-param 1\nqubits 1\nrx(@0) q0\n".into(),
            points: vec![
                SweepPointSpec {
                    params: vec![0.25, -1.5],
                    shots: 64,
                    seed: 7,
                },
                SweepPointSpec {
                    params: vec![0.5, 2.5],
                    shots: 128,
                    seed: 8,
                },
            ],
            spec: BackendSpec::of("nwqsim", "cpu"),
        };
        let text = serde_json::to_string(&task).unwrap();
        let back: SweepTask = serde_json::from_str(&text).unwrap();
        assert_eq!(back.points, task.points);
        assert_eq!(back.circuit, task.circuit);
    }

    #[test]
    fn task_serde_round_trip() {
        let task = ExecTask {
            circuit: "qfwasm 1\nqubits 1\nh q0\n".into(),
            shots: 100,
            seed: 42,
            spec: BackendSpec::of("aer", "automatic"),
        };
        let text = serde_json::to_string(&task).unwrap();
        let back: ExecTask = serde_json::from_str(&text).unwrap();
        assert_eq!(back.shots, 100);
        assert_eq!(back.spec, task.spec);
    }
}
