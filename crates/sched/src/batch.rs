//! Transparent batching: the key that says which admitted jobs may share
//! one engine invocation.
//!
//! A parameter sweep (VQE/QAOA) submits many circuits that differ only in
//! rotation angles — the gate *skeleton* is identical. The scheduler
//! coalesces same-skeleton, same-spec jobs of one tenant and priority
//! class into a single [`qfw::Qrc::run_many`] invocation, amortizing slot
//! acquisition and dispatch overhead while each job keeps its own seed and
//! shot budget (results stay bitwise identical to unbatched execution).
//!
//! The key is a 128-bit [`ContentHash`] — the width the result cache
//! already trusts — over the admitted job, never over its text: the
//! circuit's structure (gate kinds, operands and data payloads, angles
//! left out) continued over the resolved plan ([`qfw::ExecPlan::fold_into`],
//! so two spellings of one meaning coalesce). `rz(0.5) q2` and
//! `rz(1.25) q2` share a key; `rz(0.5) q2` and `rz(0.5) q3` do not, nor do
//! two `unitary` blocks with different matrices.

use qfw::{Form, ResolvedJob};
use qfw_circuit::hash::{param_hash, ContentHash};
use qfw_circuit::{Circuit, Gate, Op};

/// The batching key of an admitted job: jobs with equal keys can be
/// coalesced into one engine invocation.
///
/// A symbolic job keys on its skeleton exactly (the binding left out) — the
/// form already separates structure from parameters, so two jobs coalesce
/// exactly when they bind the same skeleton. A concrete circuit keys on its
/// structure with every angle masked.
pub fn skeleton_hash(job: &ResolvedJob) -> ContentHash {
    let structure = match &job.form {
        Form::Param(template) => param_hash(template, None),
        Form::Concrete(circuit) => structure_hash(circuit),
    };
    job.plan.fold_into(structure)
}

/// Register widths, then per operation its kind and operands; a `unitary`
/// block's matrix is structure, a rotation's angle is not.
fn structure_hash(circuit: &Circuit) -> ContentHash {
    let operands = |h: ContentHash, kind: &str, qubits: &[usize]| {
        let h = h.fold_str(kind).fold_u64(qubits.len() as u64);
        qubits.iter().fold(h, |h, &q| h.fold_u64(q as u64))
    };
    let widths = ContentHash::of_bytes(b"qfwasm-skeleton")
        .fold_u64(circuit.num_qubits() as u64)
        .fold_u64(circuit.num_clbits() as u64);
    circuit.ops().iter().fold(widths, |h, op| match op {
        Op::Gate(gate) => {
            let h = operands(h, gate.name(), &gate.qubits());
            match gate {
                Gate::Unitary { matrix, .. } => matrix
                    .as_slice()
                    .iter()
                    .fold(h, |h, v| h.fold_f64(v.re).fold_f64(v.im)),
                _ => h,
            }
        }
        Op::Measure { qubit, clbit } => operands(h, "measure", &[*qubit, *clbit]),
        Op::Barrier(qubits) => operands(h, "barrier", qubits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfw::{BackendSpec, GroupCores, Source};

    const GROUP: GroupCores = GroupCores {
        total: 8,
        per_llc: 4,
    };

    fn job_of(circuit: &str, spec: BackendSpec) -> ResolvedJob {
        ResolvedJob::admit(Source::Wire(circuit), 100, 1, &spec, GROUP).unwrap()
    }

    fn key_of(circuit: &str, spec: BackendSpec) -> ContentHash {
        skeleton_hash(&job_of(circuit, spec))
    }

    #[test]
    fn angles_mask_but_structure_does_not() {
        let spec = BackendSpec::of("aer", "statevector");
        let a = key_of("qfwasm 1\nqubits 2\nrz(0.5) q0\ncx q0 q1\n", spec.clone());
        let b = key_of("qfwasm 1\nqubits 2\nrz(1.25) q0\ncx q0 q1\n", spec.clone());
        let c = key_of("qfwasm 1\nqubits 2\nrz(0.5) q1\ncx q0 q1\n", spec.clone());
        assert_eq!(a, b, "angles are parameters");
        assert_ne!(a, c, "targets are structure");
        // Operand order and gate kind are structure too; spelling is not.
        let d = key_of("qfwasm 1\nqubits 2\nrz(0.5) q0\ncx q1 q0\n", spec.clone());
        let e = key_of("qfwasm 1\nqubits 2\nrx(0.5) q0\ncx q0 q1\n", spec.clone());
        let f = key_of(
            "qfwasm 1\n# sweep point\nqubits 2\nrz(5e-1)   q0\ncx q0 q1\n",
            spec,
        );
        assert_ne!(a, d);
        assert_ne!(a, e);
        assert_eq!(a, f);
    }

    #[test]
    fn spec_is_part_of_the_key() {
        let circuit = "qfwasm 1\nqubits 1\nh q0\n";
        let a = key_of(circuit, BackendSpec::of("aer", "statevector"));
        let b = key_of(circuit, BackendSpec::of("nwqsim", "cpu"));
        let c = key_of(
            circuit,
            BackendSpec::of("aer", "statevector").with_extra("fusion", false),
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Two spellings of one meaning coalesce.
        let d = key_of(
            circuit,
            BackendSpec::of("aer", "statevector").with_extra("fusion", true),
        );
        assert_eq!(a, d);
    }

    #[test]
    fn param_jobs_key_on_the_exact_skeleton() {
        let spec = BackendSpec::of("nwqsim", "cpu");
        let skeleton = "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1*2e0) q0 q1\n";
        let a = job_of(&format!("{skeleton}bind 1e-1 2e-1\n"), spec.clone());
        let b = job_of(&format!("{skeleton}bind 9e-1 -3e-1\n"), spec.clone());
        assert_eq!(
            skeleton_hash(&a),
            skeleton_hash(&b),
            "bindings are parameters"
        );
        // A different affine coefficient is a different skeleton.
        let c = key_of(
            "qfwasm-param 1\nqubits 2\nrx(@0) q0\nrzz(@1*3e0) q0 q1\nbind 1e-1 2e-1\n",
            spec.clone(),
        );
        assert_ne!(skeleton_hash(&a), c, "affine coefficients are structure");
        // The same gates written concretely are another engine path.
        let concrete = key_of("qfwasm 1\nqubits 2\nrx(1e-1) q0\nrzz(4e-1) q0 q1\n", spec);
        assert_ne!(skeleton_hash(&a), concrete);
    }

    #[test]
    fn unitary_payloads_never_coalesce() {
        let spec = BackendSpec::of("aer", "statevector");
        let block = |phase: &str| {
            format!("qfwasm 1\nqubits 1\nunitary[u1] q0 : 1e0,0e0 0e0,0e0 0e0,0e0 {phase}\n")
        };
        let a = job_of(&block("1e0,0e0"), spec.clone());
        let b = job_of(&block("-1e0,0e0"), spec.clone());
        assert_ne!(
            skeleton_hash(&a),
            skeleton_hash(&b),
            "embedded matrices are structural"
        );
        assert_eq!(skeleton_hash(&a), key_of(&block("1e0,0e0"), spec));
    }
}
