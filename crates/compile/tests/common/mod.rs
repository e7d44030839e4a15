//! Programs shared by the golden, fuzz and allocation-budget suites: the
//! checked-in corpus and OpenQASM 3 exports shaped like the end-to-end
//! benchmark's workloads (same generators, same sizes, same QUBO seeds,
//! unperturbed angles).

#![allow(dead_code)]

use qfw_circuit::Circuit;
use qfw_compile::{emit, DagCircuit};
use qfw_workloads::{ghz, ham, qaoa_ansatz, tfim, Qubo};
use std::path::PathBuf;

/// Every file of the checked-in corpus.
pub const CORPUS: [&str; 5] = [
    "ghz8.qasm",
    "tfim16.qasm",
    "qaoa14.qasm",
    "mixed.qasm",
    "mixed.golden.qasm",
];

pub fn tests_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests")
}

pub fn corpus(name: &str) -> String {
    let path = tests_dir().join("corpus").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus file {} unreadable: {e}", path.display()))
}

#[derive(Clone, Copy, Debug)]
pub enum Family {
    Ghz,
    Tfim,
    Ham,
    /// QAOA over the banded metamaterial QUBO with `p` layers.
    Qaoa(usize),
    /// `layers` Clifford layers, then a dense rotation suffix.
    CliffordPrefix(usize),
}

/// The benchmark generator's circuit of a family at width `n`.
pub fn circuit(family: Family, n: usize) -> Circuit {
    match family {
        Family::Ghz => ghz(n),
        Family::Tfim => tfim(n),
        Family::Ham => ham(n),
        Family::Qaoa(p) => {
            let qubo = Qubo::metamaterial(n, 3, 0x51AB + n as u64);
            let theta: Vec<f64> = (0..2 * p).map(|k| 0.35 + 0.11 * k as f64).collect();
            qaoa_ansatz(&qubo, p).bind(&theta)
        }
        Family::CliffordPrefix(layers) => clifford_prefix(n, layers),
    }
}

fn clifford_prefix(n: usize, layers: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    qc.h(0);
    for l in 0..layers {
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        for q in 0..n {
            if (q + l) % 2 == 0 {
                qc.s(q);
            } else {
                qc.cz(q, (q + 1) % n);
            }
        }
    }
    for q in 0..n {
        qc.rx(q, 0.4 + 0.07 * q as f64);
    }
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    qc.measure_all();
    qc
}

/// The OpenQASM 3 text a tenant submits for `circuit`.
pub fn qasm3(circuit: &Circuit) -> String {
    emit(&DagCircuit::from_circuit(circuit), &[]).expect("workload circuits emit")
}

fn programs(list: &[(&str, Family, usize)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(name, family, n)| (name.to_string(), qasm3(&circuit(family, n))))
        .collect()
}

/// The five kinds of the `serve_cold` workload.
pub fn serve_cold_programs() -> Vec<(String, String)> {
    programs(&[
        ("ghz12", Family::Ghz, 12),
        ("tfim10", Family::Tfim, 10),
        ("qaoa10", Family::Qaoa(1), 10),
        ("ham8", Family::Ham, 8),
        ("qaoa12", Family::Qaoa(1), 12),
    ])
}

/// Every workload-shaped program the golden suite pins.
pub fn workload_programs() -> Vec<(String, String)> {
    programs(&[
        ("ghz12", Family::Ghz, 12),
        ("ghz24", Family::Ghz, 24),
        ("tfim10", Family::Tfim, 10),
        ("tfim18", Family::Tfim, 18),
        ("tfim20", Family::Tfim, 20),
        ("ham8", Family::Ham, 8),
        ("ham12", Family::Ham, 12),
        ("ham18", Family::Ham, 18),
        ("qaoa10p1", Family::Qaoa(1), 10),
        ("qaoa12p1", Family::Qaoa(1), 12),
        ("qaoa14p1", Family::Qaoa(1), 14),
        ("qaoa18p1", Family::Qaoa(1), 18),
        ("qaoa10p2", Family::Qaoa(2), 10),
        ("qaoa12p2", Family::Qaoa(2), 12),
        ("qaoa14p2", Family::Qaoa(2), 14),
        ("qaoa18p2", Family::Qaoa(2), 18),
        ("cliff14x32", Family::CliffordPrefix(32), 14),
    ])
}
