//! QFw — the Quantum Framework orchestration core.
//!
//! This crate is the paper's primary contribution: a modular, HPC-aware
//! orchestration layer that runs *identical application code* across
//! multiple local simulators and a cloud QPU provider. Its parts map onto
//! the architecture of Section 2.1 / Fig. 1:
//!
//! * [`session::QfwSession`] — bring-up and teardown (steps 1-2, 13-14):
//!   submits the heterogeneous SLURM job, boots the PRTE-like DVM on
//!   `hetgroup-1`, starts the DEFw RPC hub, and registers the QPM service.
//! * [`qpm`] — the *Quantum Platform Manager* (step 6): the central
//!   dispatcher that accepts circuit jobs over RPC, selects the backend
//!   implementation, and manages job state.
//! * [`qrc`] — the *Quantum Resource Controller*: leases cores from the
//!   `hetgroup-1` allocation and launches simulator tasks — serial, rayon
//!   ("OpenMP"), or rank-parallel via the DVM ("MPI") — without ever
//!   oversubscribing.
//! * [`frontend::QfwBackend`] — the drop-in application-side backend
//!   (step 5): marshals circuits to the `qfwasm` wire format, issues
//!   asynchronous RPCs, and returns unified results.
//! * [`plan`] — admission: the one step that parses a job's wire circuit
//!   and turns its [`BackendSpec`] strings into a typed, validated
//!   [`ExecPlan`], yielding the owned [`ResolvedJob`] every later layer
//!   takes, before a queue entry or worker slot exists.
//! * [`backends`] — one Backend-QPM adapter per engine: NWQ-Sim analog
//!   (state-vector), Qiskit-Aer analog (statevector / mps / automatic),
//!   TN-QVM analog (ExaTN-MPS), QTensor analog (tree TN), and the IonQ
//!   analog (cloud REST).
//! * [`registry`] — Table 1 as code: the capability matrix plus backend
//!   construction from runtime properties like
//!   `{"backend": "nwqsim", "subbackend": "mpi"}`.
//! * [`result::QfwResult`] — the common result format every backend
//!   marshals into (step 9), with uniform timing instrumentation.

pub mod backends;
pub mod cache;
pub mod error;
pub mod frontend;
pub mod plan;
pub mod planner;
pub mod qpm;
pub mod qrc;
pub mod registry;
pub mod result;
pub mod session;
pub mod spec;

pub use cache::{CacheConfig, CacheStats, ResultCache, ShardedLru};
pub use error::QfwError;
pub use frontend::{QfwBackend, QfwJob, QfwSweepJob};
pub use plan::{Engine, ExecPlan, Form, GroupCores, ResolvedJob, Source, Target};
pub use planner::{CostCoefficients, PartitionPlan, Planned, Planner, SelectorContext};
pub use qrc::{DispatchPolicy, Qrc, SlotSnapshot};
pub use registry::{BackendRegistry, Capabilities};
pub use result::{ExecProfile, QfwResult};
pub use session::{QfwConfig, QfwSession};
pub use spec::{BackendSpec, ExecTask, SweepPointSpec, SweepTask};
