//! `Counts` is the bit-string histogram it replaced, bit for bit.
//!
//! Random readouts — partial, permuted and wider-than-the-quantum-register
//! maps, with and without a mid-circuit collapse, over registers of 1, 12,
//! 64, 65 and 130 classical bits — are tallied by `Readout::counts` and by
//! the string renderer it replaced, kept here as the reference: the
//! rendered histogram, its JSON bytes and its decode must all agree. A
//! seeded corpus of malformed and mutated counts JSON must decode to a
//! typed error or to a fixed point, never panic.

use proptest::prelude::*;
use qfw_circuit::{Circuit, Counts, Op, Outcome, Readout};
use qfw_num::Rng;
use std::collections::BTreeMap;

type Bitstrings = BTreeMap<String, usize>;

/// The string renderer `Readout::counts` replaced: one key per distinct
/// outcome, classical bit `num_clbits - 1` leftmost, where each bit reads
/// what the last measurement into it reads (the sampled qubit when the
/// measurement is terminal, the collapsed bit when not, `0` when nothing
/// measures it), and a circuit that measures nothing measures every qubit.
fn reference<T: Outcome>(
    circuit: &Circuit,
    mut shots: Vec<T>,
    collapsed: &BTreeMap<usize, u8>,
) -> Bitstrings {
    #[derive(Clone, Copy)]
    enum Source {
        Zero,
        Sampled(usize),
        Collapsed,
    }
    let readout = Readout::of(circuit);
    let mut sources = vec![Source::Zero; circuit.num_clbits()];
    let mut measured = false;
    for (at, op) in circuit.ops().iter().enumerate() {
        if let Op::Measure { qubit, clbit } = op {
            measured = true;
            sources[*clbit] = if readout.is_terminal(at) {
                Source::Sampled(*qubit)
            } else {
                Source::Collapsed
            };
        }
    }
    if !measured {
        sources = (0..circuit.num_qubits()).map(Source::Sampled).collect();
    }
    let key = |outcome: &T| -> String {
        sources
            .iter()
            .enumerate()
            .rev()
            .map(|(c, source)| {
                let one = match *source {
                    Source::Zero => false,
                    Source::Sampled(q) => outcome.qubit(q),
                    Source::Collapsed => collapsed.get(&c) == Some(&1),
                };
                if one {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    };
    shots.sort_unstable();
    let mut out = Bitstrings::new();
    for run in shots.chunk_by(|a, b| a == b) {
        *out.entry(key(&run[0])).or_insert(0) += run.len();
    }
    out
}

/// A random circuit on `nq` qubits with `nc` classical bits: a partial,
/// permuted map of the register (some bits written twice, so the last
/// write must win), a gate after one measurement when `mid` is set, and
/// nothing measured at all one time in eight.
fn random_readout(rng: &mut Rng, nq: usize, nc: usize, mid: bool) -> Circuit {
    let mut qc = Circuit::with_clbits(nq, nc);
    for q in 0..nq.min(8) {
        qc.h(q);
    }
    if rng.index(8) == 0 {
        return qc;
    }
    let writes = 1 + rng.index(nc + 2);
    for _ in 0..writes {
        qc.measure(rng.index(nq), rng.index(nc));
    }
    if mid {
        let q = rng.index(nq);
        qc.measure(q, rng.index(nc)).x(q);
    }
    qc
}

/// The collapsed bits a trajectory of `qc` might carry: one random bit per
/// classical bit a mid-circuit measurement writes.
fn random_collapse(rng: &mut Rng, qc: &Circuit) -> BTreeMap<usize, u8> {
    let readout = Readout::of(qc);
    qc.ops()
        .iter()
        .enumerate()
        .filter_map(|(at, op)| match op {
            Op::Measure { clbit, .. } if !readout.is_terminal(at) => {
                Some((*clbit, rng.index(2) as u8))
            }
            _ => None,
        })
        .collect()
}

/// Asserts the tally is the reference rendering, on the wire too.
fn assert_renders_like_the_reference(counts: &Counts, want: &Bitstrings, what: &str) {
    assert_eq!(&counts.bitstrings(), want, "{what}: rendering");
    assert_eq!(counts, want, "{what}: comparison");
    let bytes = serde_json::to_vec(counts).unwrap();
    assert_eq!(
        bytes,
        serde_json::to_vec(want).unwrap(),
        "{what}: wire bytes"
    );
    let back: Counts = serde_json::from_slice(&bytes).unwrap();
    assert_eq!(&back, counts, "{what}: decode of encode");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index outcomes (`u64`): every width up to the register cap of one
    /// word of qubits, classical registers wider than the quantum one.
    #[test]
    fn index_outcomes_render_like_the_string_renderer(seed in 0u64..1 << 32, mid in 0u8..2) {
        let mut rng = Rng::seed_from(seed);
        for nc in [1usize, 12, 64, 65, 130] {
            let nq = 1 + rng.index(nc.min(20));
            let qc = random_readout(&mut rng, nq, nc, mid == 1);
            let collapsed = random_collapse(&mut rng, &qc);
            // Few qubits' worth of outcomes, so runs repeat.
            let shots: Vec<u64> = (0..1 + rng.index(400))
                .map(|_| rng.next_u64() & ((1 << nq.min(10)) - 1))
                .collect();
            let counts = Readout::of(&qc).counts(shots.clone(), &collapsed);
            let want = reference(&qc, shots, &collapsed);
            assert_renders_like_the_reference(&counts, &want, &format!("seed {seed} nc {nc}"));
            prop_assert_eq!(counts.values().sum::<usize>(), want.values().sum::<usize>());
        }
    }

    /// Bit-per-qubit outcomes (`Vec<u8>`), the wide-register engines'
    /// draws: 65- and 130-qubit registers read whole and partly.
    #[test]
    fn wide_outcomes_render_like_the_string_renderer(seed in 0u64..1 << 32) {
        let mut rng = Rng::seed_from(seed);
        for (nq, nc) in [(65usize, 65usize), (130, 130), (70, 130), (130, 12)] {
            let qc = random_readout(&mut rng, nq, nc, false);
            let shots: Vec<Vec<u8>> = (0..1 + rng.index(64))
                .map(|_| (0..nq).map(|_| u8::from(rng.index(4) == 0)).collect())
                .collect();
            let counts = Readout::of(&qc).counts(shots.clone(), &BTreeMap::new());
            let want = reference(&qc, shots, &BTreeMap::new());
            assert_renders_like_the_reference(&counts, &want, &format!("seed {seed} {nq}q {nc}c"));
        }
    }
}

/// Decodes `bytes` as counts: a refusal, or a histogram that re-encodes to
/// bytes which decode to it again (and which the string map reads alike).
fn decodes_to_an_error_or_a_fixed_point(bytes: &[u8]) -> bool {
    let Ok(counts) = serde_json::from_slice::<Counts>(bytes) else {
        return false;
    };
    let again = serde_json::to_vec(&counts).unwrap();
    let back: Counts = serde_json::from_slice(&again).expect("a re-encoding decodes");
    assert_eq!(back, counts, "{}", String::from_utf8_lossy(bytes));
    assert_eq!(serde_json::to_vec(&back).unwrap(), again);
    let map: Bitstrings = serde_json::from_slice(bytes).expect("the string map reads it too");
    assert_eq!(counts, map, "{}", String::from_utf8_lossy(bytes));
    true
}

#[test]
fn malformed_counts_are_refused_with_a_codec_error() {
    let long = "1".repeat(10_000);
    let refused = [
        r#"{"0a1":3}"#.to_string(),
        r#"{"012":3}"#.to_string(),
        r#"{"01":1,"011":2}"#.to_string(),
        r#"{"011":1,"01":2}"#.to_string(),
        r#"{"":1,"0":2}"#.to_string(),
        r#"{"01":-1}"#.to_string(),
        r#"{"01":1.5}"#.to_string(),
        r#"{"01":"3"}"#.to_string(),
        r#"{"01":99999999999999999999999}"#.to_string(),
        r#"{"01":1,}"#.to_string(),
        format!(r#"{{"{long}":1{}}}"#, ",".repeat(100_000)),
        r#"{"01":1 "10":2}"#.to_string(),
        r#"{"01"}"#.to_string(),
        r#"{"01":{}}"#.to_string(),
        r#"{"01":1"#.to_string(),
        r#"["01",1]"#.to_string(),
        format!(r#"{{"{long}":1,"{}":2}}"#, &long[1..]),
    ];
    for text in &refused {
        let err = serde_json::from_slice::<Counts>(text.as_bytes());
        assert!(err.is_err(), "accepted {text:.80}");
    }
    let kept = [
        (r#"{}"#.to_string(), 0),
        (r#" { } "#.to_string(), 0),
        (r#"{"":7}"#.to_string(), 1),
        (r#"{"10":1,"01":2,"10":3}"#.to_string(), 2),
        (r#"{ "1" : 4 , "0" : 0 }"#.to_string(), 2),
        (format!(r#"{{"{long}":1,"{}":2}}"#, "0".repeat(10_000)), 2),
    ];
    for (text, len) in &kept {
        assert!(
            decodes_to_an_error_or_a_fixed_point(text.as_bytes()),
            "{text:.80}"
        );
        let counts: Counts = serde_json::from_slice(text.as_bytes()).unwrap();
        assert_eq!(counts.len(), *len, "{text:.80}");
    }
    // Of a repeated key the last wins, as in the string map.
    let repeated: Counts = serde_json::from_slice(br#"{"10":1,"01":2,"10":3}"#).unwrap();
    assert_eq!(repeated.get("10"), Some(&3));
}

#[test]
fn mutated_counts_never_panic() {
    let mut rng = Rng::seed_from(0xC0_0175);
    let mut seeds = Vec::new();
    for (nq, nc) in [(3usize, 3usize), (12, 12), (20, 65), (4, 130)] {
        let qc = random_readout(&mut rng, nq, nc, false);
        let shots: Vec<u64> = (0..200).map(|_| rng.next_u64() & ((1 << nq) - 1)).collect();
        let counts = Readout::of(&qc).counts(shots, &BTreeMap::new());
        seeds.push(serde_json::to_vec(&counts).unwrap());
    }
    const ALPHABET: &[u8] = b"01\"{},: \\u9x-.e";
    let (mut refused, mut kept) = (0, 0);
    for round in 0..4000 {
        let mut bytes = seeds[round % seeds.len()].clone();
        for _ in 0..1 + rng.index(3) {
            let at = rng.index(bytes.len() + 1);
            match rng.index(4) {
                0 if at < bytes.len() => bytes[at] = ALPHABET[rng.index(ALPHABET.len())],
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, ALPHABET[rng.index(ALPHABET.len())]),
                _ => {
                    // Duplicate a slice: repeated keys and mixed widths.
                    let from = rng.index(bytes.len());
                    let to = (from + 1 + rng.index(24)).min(bytes.len());
                    let piece = bytes[from..to].to_vec();
                    bytes.splice(at..at, piece);
                }
            }
        }
        if decodes_to_an_error_or_a_fixed_point(&bytes) {
            kept += 1;
        } else {
            refused += 1;
        }
    }
    assert!(refused > 0 && kept > 0, "refused {refused}, kept {kept}");
}
