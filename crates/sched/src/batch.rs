//! Transparent batching: skeleton keys for coalescing parameterized
//! circuits.
//!
//! A parameter sweep (VQE/QAOA) submits many circuits that differ only in
//! rotation angles — the gate *skeleton* is identical. The scheduler
//! coalesces same-skeleton, same-spec jobs of one tenant and priority
//! class into a single [`qfw::Qrc::execute_many`] invocation, amortizing
//! slot acquisition and dispatch overhead while each job keeps its own
//! seed and shot budget (results stay bitwise identical to unbatched
//! execution).
//!
//! The skeleton key is the resolved backend spec (engine, ranks, and the
//! plan's content hash, so two spellings of one meaning coalesce) plus the
//! `qfwasm` text with every parenthesized gate argument masked: `rz(0.5) q2` and `rz(1.25) q2`
//! share a key; `rz(0.5) q2` and `rz(0.5) q3` do not. Data-carrying
//! lines (`unitary` blocks, marked by `:`) are kept verbatim — circuits
//! with different embedded matrices never coalesce.

use crate::JobEnvelope;
use qfw::ExecPlan;
use qfw_circuit::text;
use std::fmt::Write as _;

/// Computes the batching key for an envelope: jobs with equal keys can be
/// coalesced into one engine invocation.
///
/// Symbolic `qfwasm-param` submissions use their skeleton text directly
/// (the `bind` line stripped) — the wire format already separates
/// structure from parameters, so no masking heuristic is needed and two
/// jobs coalesce exactly when they share a compiled plan. Concrete
/// `qfwasm` text falls back to parenthesis masking.
pub fn skeleton_key(env: &JobEnvelope, plan: &ExecPlan) -> String {
    let mut key = String::with_capacity(env.circuit.len() + 64);
    writeln!(
        key,
        "{}|{}|{}|{}",
        plan.backend,
        plan.subbackend,
        env.spec.ranks,
        plan.content_hash()
    )
    .unwrap();
    if text::is_param_text(&env.circuit) {
        key.push_str(&text::param_skeleton_text(&env.circuit));
        return key;
    }
    for line in env.circuit.lines() {
        if line.contains(':') {
            // Data-carrying line (e.g. a unitary block payload): the data
            // is structural, not a parameter — keep it verbatim.
            key.push_str(line);
        } else {
            mask_parens(&mut key, line);
        }
        key.push('\n');
    }
    key
}

/// Copies `line` with every parenthesized span collapsed to `(#)`.
fn mask_parens(out: &mut String, line: &str) {
    let mut in_paren = false;
    for ch in line.chars() {
        match ch {
            '(' if !in_paren => {
                out.push_str("(#");
                in_paren = true;
            }
            ')' if in_paren => {
                out.push(')');
                in_paren = false;
            }
            _ if in_paren => {}
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use qfw::{BackendSpec, GroupCores};

    fn key_of(env: &JobEnvelope) -> String {
        let plan = ExecPlan::resolve(&env.spec, GroupCores::UNBOUNDED).unwrap();
        skeleton_key(env, &plan)
    }

    fn env_of(circuit: &str, spec: BackendSpec) -> JobEnvelope {
        JobEnvelope {
            tenant: "t".into(),
            priority: Priority::Normal,
            deadline_ms: None,
            shots: 100,
            seed: 1,
            circuit: circuit.into(),
            spec,
        }
    }

    #[test]
    fn angles_mask_but_structure_does_not() {
        let spec = BackendSpec::of("aer", "statevector");
        let a = env_of("qfwasm 1\nqubits 2\nrz(0.5) q0\ncx q0 q1\n", spec.clone());
        let b = env_of("qfwasm 1\nqubits 2\nrz(1.25) q0\ncx q0 q1\n", spec.clone());
        let c = env_of("qfwasm 1\nqubits 2\nrz(0.5) q1\ncx q0 q1\n", spec);
        assert_eq!(key_of(&a), key_of(&b), "angles are parameters");
        assert_ne!(key_of(&a), key_of(&c), "targets are structure");
    }

    #[test]
    fn spec_is_part_of_the_key() {
        let a = env_of("h q0\n", BackendSpec::of("aer", "statevector"));
        let b = env_of("h q0\n", BackendSpec::of("nwqsim", "cpu"));
        let c = env_of(
            "h q0\n",
            BackendSpec::of("aer", "statevector").with_extra("fusion", false),
        );
        assert_ne!(key_of(&a), key_of(&b));
        assert_ne!(key_of(&a), key_of(&c));
        // Two spellings of one meaning coalesce.
        let d = env_of(
            "h q0\n",
            BackendSpec::of("aer", "statevector").with_extra("fusion", true),
        );
        assert_eq!(key_of(&a), key_of(&d));
    }

    #[test]
    fn param_jobs_key_on_the_exact_skeleton() {
        let spec = BackendSpec::of("nwqsim", "cpu");
        let skeleton = "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1*2e0) q0 q1\n";
        let a = env_of(&format!("{skeleton}bind 1e-1 2e-1\n"), spec.clone());
        let b = env_of(&format!("{skeleton}bind 9e-1 -3e-1\n"), spec.clone());
        assert_eq!(key_of(&a), key_of(&b), "bindings are parameters");
        // A different affine coefficient is a different compiled plan.
        let c = env_of(
            "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1*3e0) q0 q1\nbind 1e-1 2e-1\n",
            spec,
        );
        assert_ne!(key_of(&a), key_of(&c), "affine coefficients are structure");
    }

    #[test]
    fn data_lines_stay_verbatim() {
        let spec = BackendSpec::of("aer", "statevector");
        let a = env_of("unitary[u1] q0: 0.1 0.2 0.3 0.4\n", spec.clone());
        let b = env_of("unitary[u1] q0: 0.9 0.8 0.7 0.6\n", spec);
        assert_ne!(key_of(&a), key_of(&b), "embedded matrices are structural");
    }
}
