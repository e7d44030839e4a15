//! Tensor-network contraction simulator — the QTensor / qtree analog.
//!
//! A circuit is lowered to a tensor network: one rank-1 ket per qubit, one
//! rank-2k tensor per k-qubit gate, and one open index per output wire.
//! Before any tensor is contracted, the network's index lists alone give a
//! [`ContractionPlan`] under a **greedy cost heuristic** (always contract
//! the connected pair producing the smallest intermediate), which is the
//! planning role qtree plays for QTensor. The plan records every pairwise
//! step, its widest intermediate and its multiply-adds — host-independent
//! costs — and a plan wider than the engine's limit is refused before any
//! amplitude is touched. The steps then run through one pairwise kernel
//! driven by offset tables ([`tensor`]). Like the paper's use of QTensor
//! inside QFw, the default execution path is *full-state contraction*: the
//! contraction terminates in the dense 2^n output tensor, which is then
//! sampled by the dense engine's canonical split sampler, so equal
//! amplitudes draw equal counts on either engine.
//!
//! [`TnSimulator`] plans for itself on every call. The stack plans a job
//! once, at admission, where it refuses a plan past the width limit, and
//! runs that plan through [`ContractionPlan::execute`].
//!
//! Contraction cost explodes with circuit depth and connectivity — the
//! treewidth of the line graph — which reproduces the paper's observation
//! that "QTensor slows notably beyond 24 qubits" and "slows sharply on
//! deeper or densely connected topologies" while remaining competitive on
//! shallow, tree-like circuits.
//!
//! The crate also implements QTensor's native trick for QAOA: lightcone
//! slicing ([`engine::TnSimulator::expectation_zz`]) evaluates a diagonal
//! two-point observable by simulating only the backward causal cone of its
//! support, never touching the other qubits.

pub mod engine;
pub mod network;
pub mod tensor;

pub use engine::{OrderHeuristic, TnConfig, TnSimulator};
pub use network::{ContractionPlan, TensorNetwork};
pub use tensor::Tensor;
