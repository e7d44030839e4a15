//! CHP stabilizer tableau simulator (Aaronson–Gottesman) for Clifford
//! circuits.
//!
//! This is the engine behind the fast path of the Aer-`automatic` analog:
//! Clifford circuits — notably the GHZ benchmark — simulate in polynomial
//! time instead of `O(2^n)`, so `automatic` routes them here after
//! [`qfw_circuit::analysis::is_clifford`] says yes.
//!
//! The tableau tracks `n` destabilizer and `n` stabilizer generators as
//! bit-packed X/Z rows plus a sign bit — one flat row-major `Vec<u64>` per
//! bit matrix — with the standard update rules for H, S, and CX and the
//! `rowsum` phase bookkeeping for measurement.
//!
//! The outcomes of a stabilizer state are uniform over an affine subspace,
//! and one reduced row-echelon form of the stabilizer rows is the only
//! derivation of it (`O(n^2)` row operations of `⌈n/64⌉` words): the pivot
//! rows' X parts span its translations, and the Z-only rows' parity
//! constraints pin a base point. Both consumers read that form. A job
//! samples without collapsing a tableau per shot: exactly the pivot qubits
//! measure at random, so each shot draws one coin per pivot row in pivot
//! order, the coins a collapse per qubit would draw, and lands on the same
//! outcome (`O(k)` per shot for `k ≤ n` pivots, the same counts for every
//! seed). The partition seam ([`extract`]) walks the same pivot rows from
//! the base point to write every amplitude exactly.

pub mod extract;
pub mod tableau;

pub use extract::MAX_EXTRACT_QUBITS;
pub use tableau::{StabOutcome, StabSimulator, Tableau};
