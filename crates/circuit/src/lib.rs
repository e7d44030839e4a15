//! Quantum circuit intermediate representation for the QFw reproduction.
//!
//! The paper's central claim is that *identical application code* runs across
//! every backend. The enabler is a single circuit IR that all five engines
//! consume. This crate provides it:
//!
//! * [`gate`] — the gate set: named standard gates, parameterized rotations,
//!   controlled gates, and opaque k-qubit [`Gate::Unitary`] blocks (needed by
//!   the HHL workload's controlled-`e^{iAt}` powers).
//! * [`circuit`] — [`Circuit`]: an ordered list of operations with a fluent
//!   builder, composition, inversion, and structural statistics.
//! * [`param`] — [`ParamCircuit`]: circuits with symbolic angles bound per
//!   optimizer iteration (the QAOA/DQAOA ansatz path).
//! * [`analysis`] — Clifford detection (drives the Aer-`automatic` analog),
//!   lightcone extraction (drives the QTensor-analog expectation path), and
//!   entanglement heuristics (drives MPS-vs-SV backend selection).
//! * [`text`] — a line-oriented textual dump/parse (`qfwasm`), the on-the-wire
//!   circuit format marshaled by the DEFw RPC layer.
//! * [`hash`] — canonical 128-bit content hashing (the canonical [`text`]
//!   form streamed through FNV-1a), the key scheme behind the
//!   content-addressed result cache and the batcher's skeleton key.
//! * [`controlled`] — controlled versions of gates and whole circuits, the
//!   primitive behind Hadamard tests (VQLS) and textbook QPE.
//! * [`readout`] — [`Readout`]: which measurements are terminal, how a
//!   sampled outcome projects onto the classical register, and the count
//!   key — the one place every engine's counts are built.
//! * [`counts`] — [`Counts`]: the histogram those keys make, as outcome
//!   words; bit strings are rendered only where a caller asks for them.
//!
//! Bit convention: qubit `q` is bit `q` (LSB-first) of a computational-basis
//! index, matching Qiskit's little-endian order.

pub mod analysis;
pub mod circuit;
pub mod controlled;
pub mod counts;
pub mod gate;
pub mod hash;
pub mod param;
pub mod readout;
pub mod text;

pub use circuit::{Circuit, Op, MAX_REGISTER_WIDTH};
pub use counts::Counts;
pub use gate::Gate;
pub use hash::{canonical_hash, canonical_text, circuit_hash, ContentHash};
pub use param::{Angle, ParamCircuit, ParamOp, RotKind, Rotation};
pub use readout::{Outcome, Readout};
