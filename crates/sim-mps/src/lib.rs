//! Matrix-product-state (MPS) circuit simulator — the analog of Qiskit Aer's
//! `matrix_product_state` method and TN-QVM's ExaTN-MPS backend.
//!
//! The state is a tensor train with one 3-index tensor per qubit. Cost is
//! governed by the bond dimension `chi` — the Schmidt rank across each cut —
//! not by `2^n`: structured, low-entanglement circuits like trotterized TFIM
//! keep `chi` small and simulate in near-linear time even past 30 qubits
//! (the paper's Fig. 3c), while volume-law circuits blow `chi` up
//! exponentially and hand the advantage back to state-vector engines.
//!
//! Implementation notes:
//!
//! * The MPS is kept with an explicit orthogonality **center**. A one-qubit
//!   gate acts on its site's physical index; every wider gate — two-qubit,
//!   Toffoli, an opaque k-qubit `Unitary` block (HHL) — takes one path:
//! * **The router** (`apply_block`) takes the operands in site order and
//!   swaps each, lowest first, down next to the one before it, so the `k`
//!   operands sit on adjacent sites `lo..lo+k`; the routing swaps are block
//!   updates themselves and are undone in reverse order afterwards. Two
//!   operands take `hi - lo - 1` swaps each way, the standard MPS swap
//!   network.
//! * **The block update** (`update`) merges the `k` adjacent sites into one
//!   blob over their shared bonds, applies the gate to each bond fibre with
//!   its columns in gate-local bit order, and splits the blob back site by
//!   site with `k - 1` truncated SVDs, leaving the center on the last site
//!   — the same merge/apply/split Aer's MPS uses for multi-qubit blocks.
//! * **The truncating split** (`truncated_split`) is the one place the
//!   truncation rule lives: it keeps at most `chi_max` singular values,
//!   drops tail values whose relative squared weight is at most
//!   `trunc_eps`, renormalises, and books the discarded weight
//!   (`trunc_error`) and the largest bond kept (`max_bond_seen`). Gauge
//!   moves of the center drop only numerically-zero singular values.
//! * Every SVD — a gauge move's or a split's — runs in one reused
//!   [`SvdWorkspace`](qfw_num::decomp::SvdWorkspace), and the factors are
//!   written into the site tensors' own buffers, so a run allocates only
//!   when a bond outgrows what it held before. The run counts its SVDs
//!   (`MpsOutcome::svds`).
//! * Sampling walks the chain left-to-right conditioning on each outcome,
//!   never materializing the dense state. The shots of a chunk walk it as
//!   a prefix tree: shots that agree on their first `k` outcomes share one
//!   environment contraction at site `k` (`O(chi^2)` per distinct prefix,
//!   counted in `MpsOutcome::sample_nodes`), and every shot reads the same
//!   uniforms, and draws the same bits, as a walk of its own.
//! * Strong scaling is intentionally absent: the bond chain is sequential,
//!   which is why the paper finds "MPS-based approaches do not scale as
//!   effectively" with added processes.

pub mod engine;
pub mod mps;
pub mod tensor;

pub use engine::{MpsConfig, MpsSimulator};
pub use mps::MpsState;
