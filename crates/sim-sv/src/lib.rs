//! Dense state-vector quantum circuit simulator — the NWQ-Sim (SV-Sim)
//! analog, and the engine behind the Aer-`statevector` adapter.
//!
//! Three execution modes mirror NWQ-Sim's sub-backends:
//!
//! * **CPU** (serial): the layer plan's tile groups one after another —
//!   the fused plan, or with fusion off the verbatim one, a layer per gate.
//! * **OpenMP** (threaded, [`Threading::Rayon`]): the same tile groups
//!   spread over the rayon shim's workers once a group's work pays for the
//!   hand-off, and the sampling tail's blocks likewise.
//! * **MPI** (distributed): the state vector partitioned across DVM ranks,
//!   routed communication-avoidingly via a lazy logical→physical qubit
//!   permutation with batched remaps, planned once per job; between two
//!   remaps every rank runs the fused tile executor on its shard
//!   ([`dist`]) — the mode whose strong scaling the paper highlights on
//!   TFIM-28, and the one executor behind both `nwqsim/mpi` and
//!   multi-rank `aer/statevector`.
//!
//! Plus [`fusion`], which rewrites a circuit into a [`layers`] plan
//! (whole diagonal runs, 2x2 chains, 4x4 blocks) executed one cache-sized
//! tile at a time over the shared planar [`kernels`] — measured by
//! `benchmark/`'s `engine_sv` workload and `sim_sv.*` probes. That tile
//! executor is the only code that applies gates to a state: the verbatim
//! plan, [`StateVector::apply`] and the noisy trajectories ([`noise`]) run
//! it too.
//!
//! Memory cost is `16 * 2^n` bytes; per-gate cost is `O(2^n)`. These
//! exponentials — and the near-linear strong scaling until communication
//! dominates — are exactly the behaviours the paper's GHZ/HAM/HHL curves
//! exhibit for state-vector engines.

pub mod dist;
pub mod engine;
pub mod fusion;
pub mod kernels;
pub mod layers;
pub mod noise;
pub mod state;
pub mod sweep;

pub use dist::{
    run_distributed_laid_out, run_distributed_plan, DistPlan, DistStateVector, DistStats, DistStep,
    RouteStrategy,
};
pub use engine::{SvConfig, SvSimulator, Threading};
pub use fusion::{absorbable_diagonal, fuse, verbatim, FusionLevel};
pub use kernels::{IsaTier, MAX_DENSE_QUBITS};
pub use layers::LayerPlan;
pub use noise::{run_noisy, run_trajectories, sample_trajectories, NoiseModel};
pub use state::{canonical_split_bits, StateVector, DEFAULT_SPLIT_BITS};
pub use sweep::{SweepPlan, SweepPoint};
