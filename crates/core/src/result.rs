//! The common result format every Backend-QPM marshals into (Fig. 1,
//! step 9), with the uniform timing instrumentation that lets QPM "maintain
//! comparable per-backend performance profiles".

use qfw_circuit::{counts, Counts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Uniform timing profile attached to every execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecProfile {
    /// Seconds between job acceptance and execution start (queueing +
    /// resource waits).
    pub queue_secs: f64,
    /// Seconds spent unmarshaling the circuit from the wire format.
    pub marshal_secs: f64,
    /// Seconds executing gates / contracting / evolving.
    pub exec_secs: f64,
    /// Seconds sampling measurement shots.
    pub sample_secs: f64,
    /// End-to-end seconds observed by the QPM for this task.
    pub total_secs: f64,
    /// Parallel ranks (MPI sub-backends) or 1.
    pub ranks: usize,
}

/// A completed execution in QFw's standardized return format.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QfwResult {
    /// Measured histogram over the classical register, as outcome words;
    /// on the wire, a map of Qiskit-order bit strings.
    pub counts: Counts,
    /// Shots requested.
    pub shots: usize,
    /// Backend that executed the task.
    pub backend: String,
    /// Sub-backend/engine variant.
    pub subbackend: String,
    /// Timing instrumentation.
    pub profile: ExecProfile,
    /// Engine-specific extras (e.g. `max_bond`, `trunc_error`,
    /// `cloud_queue_secs`) as printable strings.
    pub metadata: BTreeMap<String, String>,
}

impl QfwResult {
    /// Builds a result skeleton for a backend.
    pub fn new(backend: &str, subbackend: &str, shots: usize) -> Self {
        QfwResult {
            counts: Counts::default(),
            shots,
            backend: backend.to_string(),
            subbackend: subbackend.to_string(),
            profile: ExecProfile::default(),
            metadata: BTreeMap::new(),
        }
    }

    /// The most frequent outcome's bit string and shots, if any shot was
    /// taken (of a tie, the last in key order).
    pub fn most_frequent(&self) -> Option<(String, usize)> {
        self.counts
            .outcomes()
            .max_by_key(|&(_, n)| n)
            .map(|(key, n)| (counts::bitstring(key, self.counts.width()), n))
    }

    /// Empirical probability of a bitstring.
    pub fn probability(&self, bits: &str) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(bits).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// Total variation distance to another result's distribution — the
    /// metric the cross-backend integration tests use to check that every
    /// engine samples the same state.
    pub fn tv_distance(&self, other: &QfwResult) -> f64 {
        let p = |r: &QfwResult, n: usize| {
            if r.shots == 0 {
                0.0
            } else {
                n as f64 / r.shots as f64
            }
        };
        // Keys of different widths never name the same outcome.
        let comparable = self.counts.width() == other.counts.width();
        let find =
            |r: &QfwResult, key: &[u64]| comparable.then(|| r.counts.shots_of(key)).flatten();
        let mine: f64 = self
            .counts
            .outcomes()
            .map(|(key, n)| (p(self, n) - p(other, find(other, key).unwrap_or(0))).abs())
            .sum();
        let only_theirs: f64 = other
            .counts
            .outcomes()
            .filter(|(key, _)| find(self, key).is_none())
            .map(|(_, n)| p(other, n))
            .sum();
        0.5 * (mine + only_theirs)
    }

    /// Records a metadata entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.metadata.insert(key.to_string(), value.to_string());
    }

    /// Attaches a metadata entry (builder style).
    pub fn with_meta(mut self, key: &str, value: impl ToString) -> Self {
        self.note(key, value);
        self
    }

    /// The planner's predicted runtime for this execution in seconds, when
    /// the task was auto-routed (`planned_cost` metadata).
    pub fn planned_cost(&self) -> Option<f64> {
        self.metadata.get("planned_cost").and_then(|v| v.parse().ok())
    }

    /// The Clifford-prefix/dense-suffix seam this execution was partitioned
    /// at, as `(strategy, seam_op_index)`, when the backend ran partitioned.
    pub fn partition(&self) -> Option<(&str, usize)> {
        let strategy = self.metadata.get("partition")?;
        let seam = self.metadata.get("partition_seam")?.parse().ok()?;
        Some((strategy.as_str(), seam))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(counts: &[(&str, usize)]) -> QfwResult {
        let mut r = QfwResult::new("test", "unit", counts.iter().map(|(_, c)| c).sum());
        for (k, c) in counts {
            r.counts.insert(k.to_string(), *c);
        }
        r
    }

    #[test]
    fn most_frequent_and_probability() {
        let r = result_with(&[("00", 700), ("11", 300)]);
        assert_eq!(r.most_frequent(), Some(("00".to_string(), 700)));
        assert!((r.probability("11") - 0.3).abs() < 1e-12);
        assert_eq!(r.probability("01"), 0.0);
        let tie = result_with(&[("01", 5), ("10", 5), ("00", 1)]);
        assert_eq!(tie.most_frequent(), Some(("10".to_string(), 5)));
    }

    #[test]
    fn tv_distance_properties() {
        let a = result_with(&[("0", 500), ("1", 500)]);
        let b = result_with(&[("0", 500), ("1", 500)]);
        assert!(a.tv_distance(&b) < 1e-12);
        let c = result_with(&[("0", 1000)]);
        assert!((a.tv_distance(&c) - 0.5).abs() < 1e-12);
        // Symmetry.
        assert!((a.tv_distance(&c) - c.tv_distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let r = result_with(&[("01", 10)]).with_meta("max_bond", 7);
        let text = serde_json::to_string(&r).unwrap();
        let back: QfwResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counts, r.counts);
        assert_eq!(back.metadata["max_bond"], "7");
    }

    #[test]
    fn empty_result_edge_cases() {
        let r = QfwResult::new("b", "s", 0);
        assert_eq!(r.most_frequent(), None);
        assert_eq!(r.probability("0"), 0.0);
    }
}
