//! `StabSimulator::execute` draws every shot from one measurement pass.
//! These properties hold it to the per-shot walk it replaced — clone the
//! evolved tableau, collapse every qubit in order with the job's one RNG,
//! read the bits through the circuit's `Readout` — bit for bit, over random
//! Clifford circuits at widths on both sides of the 64-bit word boundary.

use proptest::prelude::*;
use qfw_circuit::{Circuit, Counts, Gate, Readout};
use qfw_num::rng::Rng;
use qfw_sim_stab::{StabSimulator, Tableau};
use std::collections::BTreeMap;

const WIDTHS: [usize; 6] = [1, 2, 63, 64, 65, 70];

/// The per-shot walk: one clone of the evolved tableau and `n` collapses
/// per shot, the random ones drawing from the shared RNG.
fn per_shot_walk(circuit: &Circuit, shots: usize, seed: u64) -> Counts {
    let mut base = Tableau::zero(circuit.num_qubits());
    for g in circuit.gates() {
        base.apply(g);
    }
    let mut rng = Rng::seed_from(seed);
    let draws: Vec<Vec<u8>> = (0..shots)
        .map(|_| base.clone().measure_all(&mut rng))
        .collect();
    Readout::of(circuit).counts(draws, &BTreeMap::new())
}

/// A random Clifford circuit on `n` qubits, with no measurement.
fn random_clifford(rng: &mut Rng, n: usize) -> Circuit {
    let mut qc = Circuit::new(n);
    for _ in 0..3 * n + rng.index(2 * n + 8) {
        let a = rng.index(n);
        let b = (a + 1 + rng.index(n.max(2) - 1)) % n;
        let gate = match rng.index(if n == 1 { 6 } else { 10 }) {
            0 => Gate::H(a),
            1 => Gate::S(a),
            2 => Gate::Sdg(a),
            3 => Gate::X(a),
            4 => Gate::Y(a),
            5 => Gate::Z(a),
            6 => Gate::Cx(a, b),
            7 => Gate::Cz(a, b),
            8 => Gate::Cy(a, b),
            _ => Gate::Swap(a, b),
        };
        qc.push(gate);
    }
    qc
}

/// A random Clifford circuit with one of three measurement maps: none
/// (implicit measure-all), every qubit into its own bit, or a random subset
/// of the qubits into random distinct bits of a register that may be
/// narrower or wider.
fn random_case(rng: &mut Rng, n: usize) -> (Circuit, &'static str) {
    let qc = random_clifford(rng, n);
    match rng.index(3) {
        0 => (qc, "implicit"),
        1 => {
            let mut qc = qc;
            qc.measure_all();
            (qc, "measure_all")
        }
        _ => {
            let clbits = 1 + rng.index(n + 8);
            let mut out = Circuit::with_clbits(n, clbits);
            out.compose(&qc);
            let mut bits: Vec<usize> = (0..clbits).collect();
            for i in (1..clbits).rev() {
                bits.swap(i, rng.index(i + 1));
            }
            for (q, &c) in (0..n).zip(&bits) {
                if rng.chance(0.7) {
                    out.measure(q, c);
                }
            }
            (out, "partial/permuted")
        }
    }
}

fn check(circuit: &Circuit, shots: usize, seed: u64, case: &str) {
    let got = StabSimulator.execute(circuit, shots, seed).unwrap().counts;
    let want = per_shot_walk(circuit, shots, seed);
    assert_eq!(got, want, "{case}");
    assert_eq!(got.values().sum::<usize>(), shots, "{case}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn execute_replays_the_per_shot_walk(seed in 0u64..1 << 32) {
        let mut rng = Rng::seed_from(seed);
        for n in WIDTHS {
            let (qc, map) = random_case(&mut rng, n);
            // 1 ..= 4096 shots, most of them few.
            let most = 1 << rng.index(13);
            let shots = 1 + rng.index(most);
            check(&qc, shots, seed, &format!("seed {seed}: {n}q, {map}, {shots} shots"));
        }
    }
}

#[test]
fn execute_replays_the_per_shot_walk_at_one_and_4096_shots() {
    let mut rng = Rng::seed_from(0x5AB);
    for n in WIDTHS {
        let (qc, map) = random_case(&mut rng, n);
        for shots in [1, 4096] {
            check(
                &qc,
                shots,
                11 + n as u64,
                &format!("{n}q, {map}, {shots} shots"),
            );
        }
    }
}
