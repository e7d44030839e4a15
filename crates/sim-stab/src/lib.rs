//! CHP stabilizer tableau simulator (Aaronson–Gottesman) for Clifford
//! circuits.
//!
//! This is the engine behind the fast path of the Aer-`automatic` analog:
//! Clifford circuits — notably the GHZ benchmark — simulate in polynomial
//! time instead of `O(2^n)`, so `automatic` routes them here after
//! [`qfw_circuit::analysis::is_clifford`] says yes.
//!
//! The tableau tracks `n` destabilizer and `n` stabilizer generators as
//! bit-packed X/Z rows plus a sign bit, with the standard update rules for
//! H, S, and CX and the `rowsum` phase bookkeeping for measurement.
//!
//! A job samples without collapsing a tableau per shot. The outcomes of a
//! stabilizer state are uniform over an affine subspace, and which
//! measurements are random is decided by the tableau alone, not by earlier
//! outcomes. So one measurement pass, with each sign carried as a constant
//! bit plus the random outcomes it depends on, gives a reference outcome
//! and one flip per random measurement (`O(n^2)` row operations of
//! `⌈n/64⌉` words). Each shot then draws one coin per flip, in the order a
//! collapse per qubit would draw them: `O(k)` per shot for `k ≤ n` random
//! measurements, with the same counts for every seed.

pub mod extract;
pub mod tableau;

pub use extract::MAX_EXTRACT_QUBITS;
pub use tableau::{StabOutcome, StabSimulator, Tableau};
