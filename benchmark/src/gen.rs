//! Seeded job generation.
//!
//! Every workload's op list is a pure function of `(workload, seed, index)`:
//! op `i` draws from its own RNG stream, so a list of any length is a
//! prefix of every longer one and the same seed always yields the same
//! jobs. The seed drives angles, sampling seeds, tenants and the order of
//! kinds; it does **not** change circuit shapes (qubits, gate counts), so
//! timings of different seeds are comparable.

use qfw::BackendSpec;
use qfw_circuit::{Circuit, Gate, Op};
use qfw_compile::DagCircuit;
use qfw_num::Rng;
use qfw_sched::{JobEnvelope, Priority};
use qfw_workloads::{qaoa_ansatz, Qubo};

/// Circuit families the paper benchmarks (Fig. 3) plus the planner's
/// partition fixture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Ghz,
    Tfim,
    Ham,
    /// QAOA over a banded (metamaterial) QUBO with `p` layers.
    Qaoa(usize),
    /// `layers` Clifford layers with a rank-one X part, then a dense
    /// rotation suffix (the shape `tests/planner.rs` proves bitwise).
    CliffordPrefix(usize),
}

/// One job kind of a workload mix.
#[derive(Clone, Debug)]
pub struct Kind {
    /// Short name used in reports and trace attributes.
    pub name: &'static str,
    pub family: Family,
    pub qubits: usize,
    pub shots: usize,
    pub spec: BackendSpec,
    /// Index of the kind this one shares `(circuit, seed)` with in every
    /// round: twins run the same job on two sub-backends and must agree
    /// bitwise.
    pub twin_of: Option<usize>,
}

impl Kind {
    pub fn new(
        name: &'static str,
        family: Family,
        qubits: usize,
        shots: usize,
        spec: BackendSpec,
    ) -> Kind {
        Kind {
            name,
            family,
            qubits,
            shots,
            spec,
            twin_of: None,
        }
    }

    pub fn twin_of(mut self, kind: usize) -> Kind {
        self.twin_of = Some(kind);
        self
    }
}

/// One generated job: what the client submits and what verification needs.
#[derive(Clone, Debug)]
pub struct Job {
    /// Position in the workload's op list (or a reserved round, see below).
    pub index: usize,
    pub kind: usize,
    /// The hot-set slot this job repeats, if it is a repeat.
    pub hot_slot: Option<usize>,
    pub envelope: JobEnvelope,
}

const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];
/// Stream tags keep the order, the per-op draws and the hot set independent.
const ORDER_STREAM: u64 = 0x0D0E_0000_0000_0000;
const HOT_STREAM: u64 = 0x4007_0000_0000_0000;
/// Rounds reserved for jobs outside the measured list: set-up warm-ups,
/// the traced run's stair-step replay and the ageing ops that bring a stack
/// to its steady state. Never the same text twice.
pub const WARM_ROUND: usize = 1 << 40;
pub const STAIR_ROUND: usize = 1 << 41;
pub const AGE_ROUND: usize = 1 << 42;

/// Builds the concrete circuit of a kind. `angle_jitter` perturbs exactly
/// one rotation angle, which is enough to change the canonical hash (so
/// the compile, fused-circuit and result caches all miss) without changing
/// the gate count.
pub fn circuit(kind: &Kind, angle_jitter: f64) -> Circuit {
    let n = kind.qubits;
    let base = match kind.family {
        Family::Ghz => qfw_workloads::ghz(n),
        Family::Tfim => qfw_workloads::tfim(n),
        Family::Ham => qfw_workloads::ham(n),
        Family::Qaoa(p) => {
            // The instance is fixed per width: the seed moves angles, not
            // the problem, so gate counts repeat across seeds.
            let qubo = Qubo::metamaterial(n, 3, 0x51AB + n as u64);
            let theta: Vec<f64> = (0..2 * p).map(|k| 0.35 + 0.11 * k as f64).collect();
            qaoa_ansatz(&qubo, p).bind(&theta)
        }
        Family::CliffordPrefix(layers) => clifford_prefix(n, layers),
    };
    perturb_first_rotation(&base, angle_jitter)
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

fn perturb_first_rotation(base: &Circuit, delta: f64) -> Circuit {
    let mut out = Circuit::with_clbits(base.num_qubits(), base.num_clbits());
    let mut done = delta == 0.0;
    for op in base.ops() {
        let bumped = match op {
            Op::Gate(Gate::Rx(q, v)) if !done => Some(Gate::Rx(*q, v + delta)),
            Op::Gate(Gate::Ry(q, v)) if !done => Some(Gate::Ry(*q, v + delta)),
            Op::Gate(Gate::Rz(q, v)) if !done => Some(Gate::Rz(*q, v + delta)),
            Op::Gate(Gate::Rzz(a, b, v)) if !done => Some(Gate::Rzz(*a, *b, v + delta)),
            _ => None,
        };
        match bumped {
            Some(gate) => {
                done = true;
                out.push(gate);
            }
            None => {
                out.push_op(op.clone());
            }
        }
    }
    out
}

/// OpenQASM 3 text of a circuit, as a tenant would submit it.
pub fn qasm3(circuit: &Circuit) -> String {
    qfw_compile::emit(&DagCircuit::from_circuit(circuit), &[])
        .expect("benchmark circuits contain no opaque unitaries")
}

/// The kind of op `index`: each round of `kinds` consecutive ops is a
/// seeded permutation of all kinds, so every prefix is balanced to within
/// one round.
pub fn kind_of(seed: u64, kinds: usize, index: usize) -> usize {
    let round = (index / kinds) as u64;
    let mut order: Vec<usize> = (0..kinds).collect();
    Rng::stream(seed ^ ORDER_STREAM, round).shuffle(&mut order);
    order[index % kinds]
}

fn envelope(kind: &Kind, rng: &mut Rng) -> JobEnvelope {
    let jitter = rng.uniform(-1e-3, 1e-3);
    let seed = rng.next_u64() >> 1;
    let tenant = TENANTS[rng.index(TENANTS.len())];
    JobEnvelope {
        tenant: tenant.to_string(),
        priority: Priority::Normal,
        deadline_ms: None,
        shots: kind.shots,
        seed,
        circuit: qasm3(&circuit(kind, jitter)),
        spec: kind.spec.clone(),
    }
}

/// The job of `kind` in `round`: unique sampling seed and angle, drawn
/// from the stream of `(round, kind)` — or of `(round, twin)`, so twins
/// get the same circuit and seed.
pub fn job(kinds: &[Kind], seed: u64, round: usize, kind: usize) -> Job {
    let group = kinds[kind].twin_of.unwrap_or(kind);
    let mut rng = Rng::stream(seed, (round * kinds.len() + group) as u64);
    Job {
        index: round * kinds.len(),
        kind,
        hot_slot: None,
        envelope: JobEnvelope {
            spec: kinds[kind].spec.clone(),
            ..envelope(&kinds[group], &mut rng)
        },
    }
}

/// Cold op `index` of a workload's list.
pub fn cold_op(kinds: &[Kind], seed: u64, index: usize) -> Job {
    let kind = kind_of(seed, kinds.len(), index);
    Job {
        index,
        ..job(kinds, seed, index / kinds.len(), kind)
    }
}

/// The hot set: `size` envelopes, kinds in rotation, fixed by the seed.
pub fn hot_set(kinds: &[Kind], seed: u64, size: usize) -> Vec<Job> {
    (0..size)
        .map(|slot| {
            let kind = slot % kinds.len();
            let mut rng = Rng::stream(seed ^ HOT_STREAM, slot as u64);
            Job {
                index: slot,
                kind,
                hot_slot: Some(slot),
                envelope: envelope(&kinds[kind], &mut rng),
            }
        })
        .collect()
}

/// Op `index` of a hot/cold mix: `hot_per_100` of every 100 draws repeat a
/// hot-set envelope, the rest are cold ops.
pub fn mixed_op(kinds: &[Kind], hot: &[Job], hot_per_100: u64, seed: u64, index: usize) -> Job {
    let mut rng = Rng::stream(seed ^ HOT_STREAM ^ 1, index as u64);
    if rng.below(100) < hot_per_100 {
        Job {
            index,
            ..hot[rng.index(hot.len())].clone()
        }
    } else {
        cold_op(kinds, seed, index)
    }
}

/// Content hash of an op list: what "same seed, same inputs" means.
#[cfg(test)]
fn list_hash(ops: &[Job]) -> qfw_circuit::ContentHash {
    ops.iter().fold(
        qfw_circuit::ContentHash::of_bytes(b"qfw-benchmark/ops"),
        |h, op| {
            h.fold_u64(op.kind as u64)
                .fold_u64(op.envelope.seed)
                .fold_u64(op.envelope.shots as u64)
                .fold_str(&op.envelope.tenant)
                .fold_str(&op.envelope.circuit)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<Kind> {
        let cpu = BackendSpec::of("nwqsim", "cpu");
        vec![
            Kind::new("ghz6", Family::Ghz, 6, 64, cpu.clone()),
            Kind::new("tfim6", Family::Tfim, 6, 64, cpu.clone()),
            Kind::new("qaoa6", Family::Qaoa(1), 6, 64, cpu.clone()),
            Kind::new(
                "qaoa6.omp",
                Family::Qaoa(1),
                6,
                64,
                BackendSpec::of("nwqsim", "openmp"),
            )
            .twin_of(2),
        ]
    }

    fn list(seed: u64, n: usize) -> Vec<Job> {
        let kinds = kinds();
        (0..n).map(|i| cold_op(&kinds, seed, i)).collect()
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        assert_eq!(list_hash(&list(7, 40)), list_hash(&list(7, 40)));
        assert_ne!(list_hash(&list(7, 40)), list_hash(&list(8, 40)));
        // A longer list extends a shorter one.
        assert_eq!(list_hash(&list(7, 40)[..12]), list_hash(&list(7, 12)));
        let kinds = kinds();
        let hot = hot_set(&kinds, 7, 8);
        let mixed = |seed| -> Vec<Job> {
            (0..200)
                .map(|i| mixed_op(&kinds, &hot, 90, seed, i))
                .collect()
        };
        assert_eq!(list_hash(&mixed(7)), list_hash(&mixed(7)));
        let repeats = mixed(7).iter().filter(|j| j.hot_slot.is_some()).count();
        assert!(
            (160..=195).contains(&repeats),
            "{repeats} of 200 were repeats"
        );
    }

    #[test]
    fn every_round_holds_every_kind_once() {
        for round in 0..20 {
            let mut seen: Vec<usize> = (0..4).map(|pos| kind_of(3, 4, round * 4 + pos)).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn cold_ops_never_repeat_and_twins_share_circuit_and_seed() {
        let ops = list(11, 64);
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                let twins = a.index / 4 == b.index / 4
                    && a.kind.min(b.kind) == 2
                    && a.kind.max(b.kind) == 3;
                let same =
                    a.envelope.circuit == b.envelope.circuit && a.envelope.seed == b.envelope.seed;
                assert_eq!(same, twins, "ops {} and {}", a.index, b.index);
                if twins {
                    assert_ne!(a.envelope.spec, b.envelope.spec);
                }
            }
        }
    }

    #[test]
    fn jitter_moves_one_angle_and_keeps_the_shape() {
        let kind = &kinds()[1];
        let (a, b) = (circuit(kind, 0.0), circuit(kind, 1e-3));
        assert_eq!(a.num_gates(), b.num_gates());
        let changed = a.gates().zip(b.gates()).filter(|(x, y)| x != y).count();
        assert_eq!(changed, 1);
        assert!(qfw_compile::is_qasm3(&qasm3(&a)));
    }
}
