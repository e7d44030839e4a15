//! The classical register on every engine: each engine samples basis
//! outcomes and the circuit's one `Readout` turns them into counts, so a
//! partial, permuted or wider-than-the-register measurement map — or a
//! mid-circuit measurement — reads the same keys on every engine that runs
//! it, and an engine that cannot collapse a state refuses it at admission.
//!
//! * Distributed dense paths (`nwqsim/mpi` at 1/2/4 ranks, with and without
//!   a layout) equal `nwqsim/cpu` bitwise; `aer/statevector`'s chunked
//!   mode reads keys of the classical register's width.
//! * Noisy trajectories collapse mid-circuit measurements and project onto
//!   the classical register; an empty model is the ideal engine.
//! * The measurement map as one more axis of the identity guarantee, over
//!   random circuits and random maps.

use proptest::prelude::*;
use qfw::registry::BackendRegistry;
use qfw::{BackendSpec, DispatchPolicy, ExecTask, QfwError, QfwResult, Qrc};
use qfw_circuit::analysis::clifford_prefix_len;
use qfw_circuit::{text, Circuit, Op};
use qfw_hpc::slurm::{HetJob, HetJobSpec};
use qfw_hpc::{ClusterSpec, Dvm};
use qfw_noise::{Channel, NoiseModel};
use qfw_obs::Obs;
use qfw_sim_sv::{run_trajectories, SvSimulator};
use qfw_testkit::{random_circuit, random_clifford_circuit, with_random_readout};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Counts = BTreeMap<String, usize>;

/// The engines that cannot collapse a state mid-circuit.
const NO_COLLAPSE: [(&str, &str); 8] = [
    ("aer", "matrix_product_state"),
    ("aer", "stabilizer"),
    ("tnqvm", "exatn-mps"),
    ("tnqvm", "ttn"),
    ("tnqvm", "peps"),
    ("qtensor", "numpy"),
    ("qtensor", "sequential"),
    ("qtensor", "mpi"),
];

/// One QRC slot over two worker nodes.
fn qrc() -> (Arc<Qrc>, Arc<HetJob>) {
    let cluster = ClusterSpec::test(3);
    let hetjob = Arc::new(HetJob::submit(&cluster, &HetJobSpec::qfw_standard(2)).unwrap());
    let qrc = Qrc::new(
        BackendRegistry::standard(None),
        Arc::clone(&hetjob),
        Arc::new(Dvm::new(&cluster)),
        1,
        1,
        DispatchPolicy::RoundRobin,
    );
    (Arc::new(qrc), hetjob)
}

fn run(
    qrc: &Qrc,
    qc: &Circuit,
    spec: BackendSpec,
    shots: usize,
    seed: u64,
) -> Result<QfwResult, QfwError> {
    qrc.execute(&ExecTask {
        circuit: text::dump(qc),
        shots,
        seed,
        spec,
    })
}

fn counts(qrc: &Qrc, qc: &Circuit, spec: BackendSpec, shots: usize, seed: u64) -> Counts {
    let label = format!("{}/{} {:?}", spec.backend, spec.subbackend, spec.extra);
    run(qrc, qc, spec, shots, seed)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .counts
        .bitstrings()
}

/// `h q0; cx q0 q1; cx q1 q2; rx(0.4) q3; measure q2 -> c0; measure q0 -> c1`
/// on a two-bit classical register.
fn partial_map() -> Circuit {
    let mut qc = Circuit::with_clbits(4, 2);
    qc.h(0)
        .cx(0, 1)
        .cx(1, 2)
        .rx(3, 0.4)
        .measure(2, 0)
        .measure(0, 1);
    qc
}

/// Every qubit measured, into a permutation of the classical bits.
fn permuted_map() -> Circuit {
    let mut qc = Circuit::new(4);
    qc.h(0).cx(0, 1).rx(2, 0.7).cx(2, 3).ry(1, 0.3);
    for (q, c) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
        qc.measure(q, c);
    }
    qc
}

/// q3 is measured, then acted on again: one mid-circuit collapse, then two
/// terminal measurements into a three-bit register.
fn mid_circuit() -> Circuit {
    let mut qc = Circuit::with_clbits(4, 3);
    qc.h(0).cx(0, 3).measure(3, 2).h(3).rx(1, 0.5).cx(3, 1);
    qc.measure(1, 0).measure(3, 1);
    qc
}

/// Every key a circuit with terminal measurements only can read, computed
/// without the engines' readout: the final state's support, each basis
/// index read through the circuit's measurement list (the last measurement
/// into a bit wins, a bit nothing measures reads 0).
fn support(qc: &Circuit) -> BTreeSet<String> {
    let mut source = vec![None; qc.num_clbits()];
    for op in qc.ops() {
        if let Op::Measure { qubit, clbit } = op {
            source[*clbit] = Some(*qubit);
        }
    }
    let probs = SvSimulator::plain().statevector(qc).probabilities();
    let reachable = probs.iter().enumerate().filter(|(_, p)| **p > 1e-12);
    reachable
        .map(|(idx, _)| {
            let bit = |s: &Option<usize>| s.is_some_and(|q| idx >> q & 1 == 1);
            source
                .iter()
                .rev()
                .map(|s| char::from(b'0' + u8::from(bit(s))))
                .collect()
        })
        .collect()
}

#[test]
fn distributed_paths_honour_the_classical_register() {
    let (qrc, _hetjob) = qrc();
    let maps = [
        ("partial", partial_map()),
        ("permuted", permuted_map()),
        ("mid-circuit", mid_circuit()),
    ];
    for (name, qc) in maps {
        let want = counts(&qrc, &qc, BackendSpec::of("nwqsim", "cpu"), 3000, 31);
        assert!(
            want.keys().all(|k| k.len() == qc.num_clbits()),
            "{name}: {want:?}"
        );
        for ranks in [1, 2, 4] {
            for layout in [None, Some("3,1,0,2")] {
                let mut spec = BackendSpec::of("nwqsim", "mpi").with_ranks(ranks);
                if let Some(order) = layout {
                    spec = spec.with_extra("initial_layout", order);
                }
                let got = counts(&qrc, &qc, spec, 3000, 31);
                assert_eq!(got, want, "{name}: nwqsim/mpi x{ranks}, layout {layout:?}");
            }
        }
        let serial = run(&qrc, &qc, BackendSpec::of("aer", "statevector"), 3000, 31).unwrap();
        let spec = BackendSpec::of("aer", "statevector").with_ranks(2);
        let chunked = run(&qrc, &qc, spec, 3000, 31).unwrap();
        assert!(
            chunked.counts.keys().all(|k| k.len() == qc.num_clbits()),
            "{name}: {:?}",
            chunked.counts
        );
        let tv = serial.tv_distance(&chunked);
        assert!(tv < 0.1, "{name}: chunked aer/statevector tv={tv}");
    }
    // Only mid-circuit measurements: every shot reads one trajectory's
    // bits, and two ranks collapse the trajectory one process does.
    let mut only_mid = Circuit::with_clbits(3, 2);
    only_mid
        .h(0)
        .cx(0, 1)
        .measure(0, 0)
        .h(0)
        .measure(1, 1)
        .x(1)
        .rx(2, 0.3);
    let want = counts(&qrc, &only_mid, BackendSpec::of("nwqsim", "cpu"), 500, 8);
    assert_eq!(want.len(), 1, "{want:?}");
    let mpi = BackendSpec::of("nwqsim", "mpi").with_ranks(2);
    assert_eq!(counts(&qrc, &only_mid, mpi, 500, 8), want);
    let chunked = BackendSpec::of("aer", "statevector").with_ranks(2);
    assert_eq!(counts(&qrc, &only_mid, chunked, 500, 8), want);
}

#[test]
fn noisy_runs_honour_the_classical_register_and_collapse_mid_circuit() {
    // Dephasing on every gate: noisy, but no population ever flips, so a
    // qubit measured, flipped and measured again reads complementary bits.
    let mut dephasing = NoiseModel::empty();
    dephasing.add_1q_all(Channel::phase_damping(0.2));
    let mut reuse = Circuit::new(2);
    reuse.h(0).measure(0, 0).x(0).measure(0, 1);
    let obs = Obs::disabled();
    let noisy = run_trajectories(&reuse, 2000, 5, &dephasing, 64, 2, &obs);
    assert_eq!(noisy.values().sum::<usize>(), 2000);
    assert!(noisy.keys().all(|k| k == "01" || k == "10"), "{noisy:?}");
    assert_eq!(
        noisy.len(),
        2,
        "each trajectory collapses on its own: {noisy:?}"
    );

    // A partial map reads the two-bit register, direct and through the stack.
    let model = NoiseModel::flat(0.01, 0.03, 0.02);
    let noisy = run_trajectories(&partial_map(), 2000, 5, &model, 64, 2, &obs);
    assert!(noisy.keys().all(|k| k.len() == 2), "{noisy:?}");
    let (qrc, _hetjob) = qrc();
    let spec = BackendSpec::of("nwqsim", "cpu").with_extra("noise_model", model.to_text());
    let stacked = counts(&qrc, &partial_map(), spec, 2000, 5);
    assert!(stacked.keys().all(|k| k.len() == 2), "{stacked:?}");

    // An empty model is the ideal engine.
    for qc in [partial_map(), permuted_map(), mid_circuit(), reuse] {
        let ideal = run_trajectories(&qc, 1000, 9, &NoiseModel::empty(), 64, 4, &obs);
        assert_eq!(ideal, SvSimulator::default().run(&qc, 1000, 9).counts);
    }
}

#[test]
fn engines_that_cannot_collapse_refuse_mid_circuit_measurements_at_admission() {
    let (qrc, _hetjob) = qrc();
    // Clifford, so without its mid-circuit measurement the stabilizer
    // tableau would take it.
    let mut clifford = Circuit::new(3);
    clifford.h(0).measure(0, 0).cx(0, 1).measure_all();
    for qc in [mid_circuit(), clifford.clone()] {
        for (backend, sub) in NO_COLLAPSE {
            let before = qrc.engine_invocations();
            let refusal = run(&qrc, &qc, BackendSpec::of(backend, sub), 100, 1).unwrap_err();
            assert!(
                matches!(refusal, QfwError::BadProperties(_)),
                "{backend}/{sub}: {refusal:?}"
            );
            assert_eq!(qrc.engine_invocations(), before, "{backend}/{sub} ran");
        }
    }
    let automatic = run(&qrc, &clifford, BackendSpec::of("aer", "automatic"), 400, 3).unwrap();
    assert_eq!(automatic.metadata["method"], "statevector");
    let want = counts(&qrc, &clifford, BackendSpec::of("nwqsim", "cpu"), 400, 3);
    assert_eq!(automatic.counts, want);
    // `auto` hands the job on to a candidate that can collapse it.
    let auto = run(&qrc, &clifford, BackendSpec::of("auto", ""), 400, 3).unwrap();
    let picked = &auto.metadata["auto_selected"];
    assert!(
        NO_COLLAPSE
            .iter()
            .all(|(b, s)| *picked != format!("{b}/{s}")),
        "auto ran on {picked}"
    );
    assert!(
        auto.counts.keys().all(|k| k.len() == 3),
        "{:?}",
        auto.counts
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The measurement map as one more axis of the identity guarantee:
    /// under a random partial, permuted or wider-than-the-register map, with
    /// or without a mid-circuit measurement, every dense path reads
    /// `nwqsim/cpu`'s counts bitwise; on terminal maps the MPS, tensor
    /// network and (Clifford circuits) stabilizer engines read only keys the
    /// final state can produce, unmeasured bits 0.
    #[test]
    fn measurement_maps_keep_the_identity_guarantee(
        seed in 0u64..1 << 32,
        n in 4usize..7,
        mid in 0u8..2,
    ) {
        let (qrc, _hetjob) = qrc();
        let qc = with_random_readout(&random_circuit(n, 16, seed), seed, mid == 1);
        let want = counts(&qrc, &qc, BackendSpec::of("nwqsim", "cpu"), 300, seed);
        let mut dense = Vec::new();
        for sub in ["cpu", "openmp"] {
            for fusion in [true, false] {
                dense.push(BackendSpec::of("nwqsim", sub).with_extra("fusion", fusion));
            }
        }
        for ranks in [1, 2, 4] {
            dense.push(BackendSpec::of("nwqsim", "mpi").with_ranks(ranks));
        }
        let (prefix, _) = clifford_prefix_len(&qc);
        if prefix > 0 {
            for fusion in [true, false] {
                dense.push(
                    BackendSpec::of("nwqsim", "cpu")
                        .with_extra("fusion", fusion)
                        .with_extra("partition", "clifford_prefix")
                        .with_extra("partition_seam", prefix),
                );
            }
        }
        for spec in dense {
            let label = format!("{}/{} {:?}", spec.backend, spec.subbackend, spec.extra);
            prop_assert_eq!(&counts(&qrc, &qc, spec, 300, seed), &want, "{}", label);
        }

        let terminal = with_random_readout(&random_circuit(n, 16, seed), seed, false);
        let clifford = random_clifford_circuit(n, 16, seed).unitary_part();
        let clifford = with_random_readout(&clifford, seed, false);
        for (qc, backend, sub) in [
            (&terminal, "nwqsim", "cpu"),
            (&terminal, "aer", "matrix_product_state"),
            (&terminal, "qtensor", "numpy"),
            (&clifford, "aer", "stabilizer"),
        ] {
            let reachable = support(qc);
            let got = counts(&qrc, qc, BackendSpec::of(backend, sub), 300, seed);
            prop_assert!(
                got.keys().all(|k| reachable.contains(k)),
                "{}/{}: {:?} outside {:?}", backend, sub, got, reachable
            );
        }
    }
}
