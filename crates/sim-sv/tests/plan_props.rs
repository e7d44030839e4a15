//! Property tests for what a plan does before and after its tile groups:
//! (a) the product start of a run from |0…0⟩ leaves the bits the tile path
//! leaves on `StateVector::zero`, zeros and their signs included; (b) the
//! cut across commuting layers keeps the state and is a pure function of
//! the circuit (that it never makes more passes than a cut in circuit
//! order is a unit test in `fusion.rs`, next to the fuser's stages);
//! (c) the guide-table CDF sampler picks the index a binary search picks;
//! (d) a diagonal expectation is the same bits under `Serial` and `Rayon`.

use qfw_circuit::{Circuit, Gate};
use qfw_num::complex::C64;
use qfw_num::rng::{CdfSampler, Rng};
use qfw_num::Matrix;
use qfw_sim_sv::kernels::{BLOCK_BITS, TILE_BITS};
use qfw_sim_sv::{fuse, StateVector, SvConfig, SvSimulator, Threading};
use qfw_workloads::{ham, qaoa_ansatz, tfim, Qubo};
use std::sync::Arc;

fn bits(sv: &StateVector) -> Vec<(u64, u64)> {
    sv.amps()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// A leading chain of one shape on `q`: `Real` (H, Ry, X), `XPhase` (Rx)
/// or `General` (U, H then T, Sx then Rz).
fn chain(qc: &mut Circuit, rng: &mut Rng, q: usize) {
    let t = rng.uniform(-3.5, 3.5);
    match rng.index(9) {
        0 => qc.h(q),
        1 => qc.ry(q, t),
        2 => qc.x(q).ry(q, 0.5 * t),
        3 => qc.rx(q, t),
        4 => qc.rx(q, t).rx(q, -0.3 * t),
        5 => qc.push(Gate::U(q, t, 0.4 * t, -0.7 * t)),
        6 => qc.h(q).t(q),
        7 => qc.push(Gate::Sx(q)).rz(q, t),
        _ => qc.h(q).ry(q, t),
    };
}

/// A diagonal run of width 1, 2 or `k >= 3` over `qs`: single-qubit
/// phases, coupled pairs, or a chain of pairs plus a three-qubit factor
/// table. `scale` sets its angles: small ones keep every phase in the
/// right half-plane, large ones do not.
fn diag_run(qc: &mut Circuit, rng: &mut Rng, qs: &[usize], scale: f64) {
    let mut t = || rng.uniform(-scale, scale);
    match qs {
        [q] => qc.rz(*q, t()),
        [a, b] => qc.rzz(*a, *b, t()).cp(*a, *b, t()),
        _ => {
            for w in qs.windows(2) {
                qc.rzz(w[0], w[1], t());
            }
            let phases: Vec<C64> = (0..8).map(|_| C64::cis(t())).collect();
            qc.push(Gate::Unitary {
                qubits: qs[..3].to_vec(),
                matrix: Arc::new(Matrix::diag(&phases)),
                label: "diag3".into(),
            });
            qc
        }
    };
}

/// A circuit that opens with what a product start can take — a diagonal
/// run on untouched qubits, chains of every shape on qubits below and
/// above the block bits — or a diagonal run on qubits a chain touched
/// first, then a random entangling tail with a mid-circuit measurement
/// now and then. Some have no tail and leave qubits without a chain, so
/// the amplitudes the start never wrote stay zero and their signs show.
fn leading_circuit(seed: u64, n: usize) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    let width = [1, 2, 3, n.min(6)][rng.index(4)].min(n);
    let mut qs: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut qs);
    let scale = if rng.chance(0.7) { 0.1 } else { 2.0 };
    let untouched = rng.chance(0.5);
    if untouched {
        diag_run(&mut qc, &mut rng, &qs[..width], scale);
    }
    rng.shuffle(&mut qs);
    for &q in &qs {
        if rng.chance(0.75) {
            chain(&mut qc, &mut rng, q);
        }
    }
    if !untouched {
        diag_run(&mut qc, &mut rng, &qs[..width], scale);
    }
    let tail = if rng.chance(0.3) { 0 } else { 2 * n };
    for _ in 0..tail {
        let q = rng.index(n);
        if n > 1 && rng.chance(0.5) {
            let p = (q + 1 + rng.index(n - 1)) % n;
            match rng.index(3) {
                0 => qc.cx(q, p),
                1 => qc.rzz(q, p, rng.uniform(-1.0, 1.0)),
                _ => qc.cz(q, p),
            };
        } else {
            chain(&mut qc, &mut rng, q);
        }
        if rng.chance(0.03) {
            qc.measure(q, q);
            qc.h(q);
        }
    }
    qc
}

/// (a) The product start against the tile path from `StateVector::zero`.
fn assert_start_is_the_tile_path(qc: &Circuit, what: &str) {
    let plan = fuse(qc);
    for parallel in [false, true] {
        let mut want = StateVector::zero(qc.num_qubits());
        let want_bits = plan.apply(&mut want, &mut Rng::seed_from(5), parallel);
        let (got, got_bits) = plan.apply_to_zero(Some(&mut Rng::seed_from(5)), parallel);
        assert_eq!(
            got_bits, want_bits,
            "{what}: collapsed bits (parallel={parallel})"
        );
        assert!(
            bits(&got) == bits(&want),
            "{what}: amplitudes (parallel={parallel})"
        );
        let mut want = StateVector::zero(qc.num_qubits());
        plan.apply_unitary(&mut want, parallel);
        let (got, _) = plan.apply_to_zero(None, parallel);
        assert!(
            bits(&got) == bits(&want),
            "{what}: unitary part (parallel={parallel})"
        );
    }
}

#[test]
fn product_start_is_the_tile_path_bit_for_bit() {
    // Registers below, at and above the block bits and the tile.
    const { assert!(BLOCK_BITS < 4 && TILE_BITS < 16) };
    for n in 1..=16usize {
        let seeds = if n <= 12 { 24 } else { 6 };
        for seed in 0..seeds {
            assert_start_is_the_tile_path(
                &leading_circuit(1000 * n as u64 + seed, n),
                &format!("n={n} seed={seed}"),
            );
        }
    }
}

#[test]
fn workload_circuits_start_as_product_states() {
    let qubo = Qubo::metamaterial(14, 3, 0x51AB + 14);
    let qaoa = qaoa_ansatz(&qubo, 2).bind(&[0.35, 0.46, 0.57, 0.68]);
    for (name, qc) in [("qaoa14", qaoa), ("ham14", ham(14)), ("tfim14", tfim(14))] {
        let plan = fuse(&qc);
        assert_start_is_the_tile_path(&qc, name);
        // The start covers a whole group of each (an `h` or `rx` on every
        // qubit, after TFIM's coupling run): one pass fewer from zero.
        assert!(
            plan.passes_from_zero() < plan.passes(),
            "{name}: {} passes from zero of {}",
            plan.passes_from_zero(),
            plan.passes()
        );
    }
}

/// A random circuit without measurements over layered and scattered gates.
fn random_unitary(seed: u64, n: usize) -> Circuit {
    let mut rng = Rng::seed_from(seed);
    let mut qc = Circuit::new(n);
    for _ in 0..6 * n {
        let q = rng.index(n);
        let p = (q + 1 + rng.index(n - 1)) % n;
        let t = rng.uniform(-3.0, 3.0);
        match rng.index(8) {
            0 => qc.h(q),
            1 => qc.rx(q, t),
            2 => qc.rz(q, t),
            3 => qc.cx(q, p),
            4 => qc.rzz(q, p, t),
            5 => qc.cp(q, p, t),
            6 => qc.ry(q, t).cz(q, p),
            _ => qc.push(Gate::U(q, t, 0.2, -0.4)),
        };
    }
    qc
}

#[test]
fn commuting_cut_keeps_the_state() {
    let qubo = Qubo::metamaterial(16, 3, 7);
    let mut circuits = vec![
        tfim(16),
        ham(16),
        qaoa_ansatz(&qubo, 2).bind(&[0.3, 0.4, 0.5, 0.6]),
    ];
    for n in [2, 5, 9, 12, 14, 16] {
        for seed in 0..4 {
            circuits.push(random_unitary(77 * n as u64 + seed, n));
        }
    }
    for qc in &circuits {
        let n = qc.num_qubits();
        let plan = fuse(qc);
        assert_eq!(plan, fuse(qc), "the plan is a pure function of the circuit");
        let got = SvSimulator::default().statevector(qc);
        let want = SvSimulator::plain().statevector(qc);
        for (i, (a, b)) in got.amps().iter().zip(want.amps()).enumerate() {
            assert!(a.approx_eq(*b, 1e-12), "n={n}: amplitude {i}: {a} vs {b}");
        }
    }
}

/// The index the sampler used to pick: a binary search over the CDF,
/// one past an exact hit, clamped to the last entry.
fn binary_search_index(cdf: &[f64], target: f64) -> usize {
    match cdf.binary_search_by(|probe| probe.partial_cmp(&target).unwrap()) {
        Ok(i) => (i + 1).min(cdf.len() - 1),
        Err(i) => i.min(cdf.len() - 1),
    }
}

#[test]
fn guide_table_picks_the_binary_search_index() {
    let mut rng = Rng::seed_from(31);
    let crafted: Vec<Vec<f64>> = vec![
        vec![1.0],
        vec![0.0, 0.0, 1.0, 0.0, 0.0],
        vec![0.25, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0],
        vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0],
        vec![1e-300, 0.0, 1.0, 1e-17, 0.0, 3.0],
    ];
    let random: Vec<Vec<f64>> = (0..200)
        .map(|k| {
            let len = 1 + rng.index(80);
            (0..len)
                .map(|_| {
                    if rng.chance(0.4) {
                        0.0
                    } else {
                        rng.uniform(0.0, 1.0)
                    }
                })
                .chain([if k % 2 == 0 { 0.0 } else { 0.5 }, 1.0])
                .collect()
        })
        .collect();
    for weights in crafted.into_iter().chain(random) {
        let sampler = CdfSampler::new(&weights);
        let mut acc = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        let total = acc;
        // Every entry exactly, its neighbours by one ulp, and the ends.
        let mut targets = vec![0.0, total, total * 0.5];
        for &c in &cdf {
            targets.extend([
                c,
                f64::from_bits(c.to_bits() + 1),
                f64::from_bits(c.to_bits().max(1) - 1),
            ]);
        }
        targets.extend((0..64).map(|_| rng.next_f64() * total));
        for t in targets {
            assert_eq!(
                sampler.index_of(t),
                binary_search_index(&cdf, t),
                "weights {weights:?} target {t}"
            );
        }
        // And the draws of a seeded stream.
        let (mut a, mut b) = (Rng::seed_from(9), Rng::seed_from(9));
        for _ in 0..64 {
            let want = binary_search_index(&cdf, b.next_f64() * total);
            assert_eq!(sampler.sample(&mut a), want);
        }
    }
}

#[test]
fn diagonal_expectation_is_the_same_bits_under_every_threading() {
    let engine = |threading| {
        SvSimulator::new(SvConfig {
            threading,
            ..SvConfig::default()
        })
    };
    for n in 13..=16usize {
        let qubo = Qubo::metamaterial(n, 3, 11 + n as u64);
        let qc = qaoa_ansatz(&qubo, 1).bind(&[0.3, 0.2]);
        let f = |i: usize| qubo.energy_bits(i);
        let serial = engine(Threading::Serial).expectation_diagonal(&qc, f);
        let rayon = engine(Threading::Rayon).expectation_diagonal(&qc, f);
        assert_eq!(
            serial.to_bits(),
            rayon.to_bits(),
            "n={n}: {serial:e} vs {rayon:e}"
        );
    }
}
