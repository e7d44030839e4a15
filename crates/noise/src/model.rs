//! [`NoiseModel`]: per-qubit / per-gate-class channel assignment with a
//! canonical wire codec.
//!
//! A model maps each *gate class* (single-qubit vs multi-qubit) to the
//! channels applied on every qubit a gate touches, either per-qubit or
//! through a wildcard default, plus per-qubit readout errors. The
//! canonical text form is a single `;`-separated line (safe to carry as
//! a backend-spec extra) whose serialization is deterministic — entries
//! emit defaults first, then qubits ascending — so
//! [`NoiseModel::content_hash`] is stable across construction orders and
//! usable as a result-cache key component.

use crate::calibration::Calibration;
use crate::channel::{Channel, ChannelKind, ReadoutError};
use qfw_circuit::ContentHash;
use std::collections::BTreeMap;

/// A malformed noise-model text payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoiseParseError {
    /// What went wrong, mentioning the offending entry.
    pub message: String,
}

impl std::fmt::Display for NoiseParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "noise model parse error: {}", self.message)
    }
}

impl std::error::Error for NoiseParseError {}

fn parse_err(message: impl Into<String>) -> NoiseParseError {
    NoiseParseError {
        message: message.into(),
    }
}

/// Per-qubit / per-gate-class noise channels plus readout errors.
///
/// No-op channels (zero error strength) are dropped on insertion, so an
/// all-zeros model compares and hashes identical to [`NoiseModel::empty`]
/// — the property the result cache relies on to keep ideal submissions
/// aliasing their existing keys.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NoiseModel {
    default_1q: Vec<Channel>,
    default_2q: Vec<Channel>,
    per_qubit_1q: BTreeMap<usize, Vec<Channel>>,
    per_qubit_2q: BTreeMap<usize, Vec<Channel>>,
    default_readout: Option<ReadoutError>,
    per_qubit_readout: BTreeMap<usize, ReadoutError>,
}

impl NoiseModel {
    /// A model with no channels at all (the ideal fast path).
    pub fn empty() -> NoiseModel {
        NoiseModel::default()
    }

    /// True when no channel and no readout error is registered — engines
    /// take the ideal path.
    pub fn is_empty(&self) -> bool {
        self.default_1q.is_empty()
            && self.default_2q.is_empty()
            && self.per_qubit_1q.is_empty()
            && self.per_qubit_2q.is_empty()
            && self.default_readout.is_none()
            && self.per_qubit_readout.is_empty()
    }

    /// Uniform-noise shorthand: depolarizing `p1` after single-qubit
    /// gates, depolarizing `p2` per touched qubit after multi-qubit
    /// gates, symmetric readout flip probability `readout` — on every
    /// qubit. Per-qubit structure comes from
    /// [`NoiseModel::from_calibration`] or explicit channels.
    pub fn flat(p1: f64, p2: f64, readout: f64) -> NoiseModel {
        let mut model = NoiseModel::empty();
        model.add_1q_all(Channel::depolarizing(p1));
        model.add_2q_all(Channel::depolarizing(p2));
        model.set_readout_all(ReadoutError::symmetric(readout));
        model
    }

    /// Lowers a calibration table into channels: per qubit, a
    /// depolarizing channel at the measured gate error plus thermal
    /// relaxation over the gate duration for both gate classes, and the
    /// measured asymmetric readout error.
    pub fn from_calibration(cal: &Calibration) -> NoiseModel {
        let mut model = NoiseModel::empty();
        for (q, qc) in cal.qubits.iter().enumerate() {
            model.add_1q(q, Channel::depolarizing(qc.err_1q));
            model.add_1q(
                q,
                Channel::thermal_relaxation(qc.t1_us, qc.t2_us, cal.gate_time_1q_us),
            );
            model.add_2q(q, Channel::depolarizing(qc.err_2q));
            model.add_2q(
                q,
                Channel::thermal_relaxation(qc.t1_us, qc.t2_us, cal.gate_time_2q_us),
            );
            model.set_readout(q, ReadoutError::new(qc.readout_p01, qc.readout_p10));
        }
        model
    }

    /// Appends a channel after single-qubit gates on qubit `q`.
    pub fn add_1q(&mut self, q: usize, ch: Channel) -> &mut Self {
        if !ch.is_noop() {
            self.per_qubit_1q.entry(q).or_default().push(ch);
        }
        self
    }

    /// Appends a channel after single-qubit gates on every qubit without
    /// a per-qubit entry.
    pub fn add_1q_all(&mut self, ch: Channel) -> &mut Self {
        if !ch.is_noop() {
            self.default_1q.push(ch);
        }
        self
    }

    /// Appends a channel on each touched qubit after multi-qubit gates
    /// on qubit `q`.
    pub fn add_2q(&mut self, q: usize, ch: Channel) -> &mut Self {
        if !ch.is_noop() {
            self.per_qubit_2q.entry(q).or_default().push(ch);
        }
        self
    }

    /// Appends a multi-qubit-gate channel on every qubit without a
    /// per-qubit entry.
    pub fn add_2q_all(&mut self, ch: Channel) -> &mut Self {
        if !ch.is_noop() {
            self.default_2q.push(ch);
        }
        self
    }

    /// Sets the readout error of qubit `q`.
    pub fn set_readout(&mut self, q: usize, ro: ReadoutError) -> &mut Self {
        if !ro.is_noop() {
            self.per_qubit_readout.insert(q, ro);
        }
        self
    }

    /// Sets the readout error of every qubit without a per-qubit entry.
    pub fn set_readout_all(&mut self, ro: ReadoutError) -> &mut Self {
        if !ro.is_noop() {
            self.default_readout = Some(ro);
        }
        self
    }

    /// The channels applied on qubit `q` after a gate of the given
    /// arity: the per-qubit entry when present, the wildcard default
    /// otherwise.
    pub fn channels(&self, arity: usize, q: usize) -> &[Channel] {
        let (per, def) = if arity <= 1 {
            (&self.per_qubit_1q, &self.default_1q)
        } else {
            (&self.per_qubit_2q, &self.default_2q)
        };
        per.get(&q).map(Vec::as_slice).unwrap_or(def)
    }

    /// The readout error of qubit `q`, if any.
    pub fn readout(&self, q: usize) -> Option<ReadoutError> {
        self.per_qubit_readout
            .get(&q)
            .copied()
            .or(self.default_readout)
    }

    /// The model with every channel's error strength folded by `factor`
    /// (readout errors included) — the zero-noise-extrapolation knob.
    pub fn scaled(&self, factor: f64) -> NoiseModel {
        let mut out = NoiseModel::empty();
        for ch in &self.default_1q {
            out.add_1q_all(ch.scaled(factor));
        }
        for ch in &self.default_2q {
            out.add_2q_all(ch.scaled(factor));
        }
        for (&q, chs) in &self.per_qubit_1q {
            for ch in chs {
                out.add_1q(q, ch.scaled(factor));
            }
        }
        for (&q, chs) in &self.per_qubit_2q {
            for ch in chs {
                out.add_2q(q, ch.scaled(factor));
            }
        }
        if let Some(ro) = self.default_readout {
            out.set_readout_all(ro.scaled(factor));
        }
        for (&q, ro) in &self.per_qubit_readout {
            out.set_readout(q, ro.scaled(factor));
        }
        out
    }

    /// The canonical single-line text form (the `noise_model` spec-extra
    /// wire format). Deterministic: class by class, wildcard entries
    /// before per-qubit entries, qubits ascending.
    pub fn to_text(&self) -> String {
        let mut parts = vec!["qfw-noise/1".to_string()];
        let channels = |class: &str,
                            def: &[Channel],
                            per: &BTreeMap<usize, Vec<Channel>>,
                            parts: &mut Vec<String>| {
            for ch in def {
                parts.push(format!("{class} * {}", channel_text(ch)));
            }
            for (q, chs) in per {
                for ch in chs {
                    parts.push(format!("{class} {q} {}", channel_text(ch)));
                }
            }
        };
        channels("1q", &self.default_1q, &self.per_qubit_1q, &mut parts);
        channels("2q", &self.default_2q, &self.per_qubit_2q, &mut parts);
        if let Some(ro) = &self.default_readout {
            parts.push(format!("ro * {} {}", ro.p01, ro.p10));
        }
        for (q, ro) in &self.per_qubit_readout {
            parts.push(format!("ro {q} {} {}", ro.p01, ro.p10));
        }
        parts.join(";")
    }

    /// Parses the canonical text form (tolerates entry reordering and
    /// extra whitespace; re-serialization is canonical).
    pub fn parse(text: &str) -> Result<NoiseModel, NoiseParseError> {
        let mut entries = text.split(';').map(str::trim).filter(|e| !e.is_empty());
        match entries.next() {
            Some("qfw-noise/1") => {}
            Some(other) => {
                return Err(parse_err(format!(
                    "expected header 'qfw-noise/1', got '{other}'"
                )))
            }
            None => return Err(parse_err("empty noise model text")),
        }
        let mut model = NoiseModel::empty();
        for entry in entries {
            let fields: Vec<&str> = entry.split_whitespace().collect();
            if fields.len() < 3 {
                return Err(parse_err(format!("truncated entry '{entry}'")));
            }
            let scope = fields[1];
            let qubit = if scope == "*" {
                None
            } else {
                Some(scope.parse::<usize>().map_err(|_| {
                    parse_err(format!("bad qubit '{scope}' in entry '{entry}'"))
                })?)
            };
            let nums: Vec<f64> = fields[if fields[0] == "ro" { 2 } else { 3 }..]
                .iter()
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| parse_err(format!("bad number '{s}' in entry '{entry}'")))
                })
                .collect::<Result<_, _>>()?;
            match fields[0] {
                "ro" => {
                    if nums.len() != 2 {
                        return Err(parse_err(format!(
                            "readout entry needs 2 probabilities: '{entry}'"
                        )));
                    }
                    let ro = checked(entry, || ReadoutError::new(nums[0], nums[1]))?;
                    match qubit {
                        Some(q) => model.set_readout(q, ro),
                        None => model.set_readout_all(ro),
                    };
                }
                class @ ("1q" | "2q") => {
                    let kind = parse_kind(fields[2], &nums, entry)?;
                    let ch = checked(entry, || Channel::new(kind))?;
                    match (class, qubit) {
                        ("1q", Some(q)) => model.add_1q(q, ch),
                        ("1q", None) => model.add_1q_all(ch),
                        ("2q", Some(q)) => model.add_2q(q, ch),
                        (_, Some(q)) => model.add_2q(q, ch),
                        (_, None) => model.add_2q_all(ch),
                    };
                }
                other => {
                    return Err(parse_err(format!(
                        "unknown entry class '{other}' in '{entry}'"
                    )))
                }
            }
        }
        Ok(model)
    }

    /// The 128-bit content hash of the canonical text form — the
    /// component the result cache folds into keys of noisy submissions.
    pub fn content_hash(&self) -> ContentHash {
        ContentHash::of_bytes(self.to_text().as_bytes())
    }
}

/// Runs a panicking channel constructor, converting the panic into a
/// parse error naming the entry (parameters arrive from the wire here,
/// not from code, so validation failures are input errors).
fn checked<T>(entry: &str, build: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, NoiseParseError> {
    std::panic::catch_unwind(build).map_err(|cause| {
        let detail = cause
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| cause.downcast_ref::<&str>().copied())
            .unwrap_or("invalid parameters");
        parse_err(format!("entry '{entry}': {detail}"))
    })
}

fn channel_text(ch: &Channel) -> String {
    let params: Vec<String> = ch.kind().params().iter().map(f64::to_string).collect();
    format!("{} {}", ch.kind().tag(), params.join(" "))
}

fn parse_kind(tag: &str, nums: &[f64], entry: &str) -> Result<ChannelKind, NoiseParseError> {
    let want = |n: usize| -> Result<(), NoiseParseError> {
        if nums.len() == n {
            Ok(())
        } else {
            Err(parse_err(format!(
                "channel '{tag}' takes {n} parameter(s), got {} in '{entry}'",
                nums.len()
            )))
        }
    };
    match tag {
        "depol" => {
            want(1)?;
            Ok(ChannelKind::Depolarizing { p: nums[0] })
        }
        "ad" => {
            want(1)?;
            Ok(ChannelKind::AmplitudeDamping { gamma: nums[0] })
        }
        "pd" => {
            want(1)?;
            Ok(ChannelKind::PhaseDamping { lambda: nums[0] })
        }
        "thermal" => {
            want(3)?;
            Ok(ChannelKind::ThermalRelaxation {
                t1: nums[0],
                t2: nums[1],
                gate_time: nums[2],
            })
        }
        other => Err(parse_err(format!(
            "unknown channel kind '{other}' in '{entry}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> NoiseModel {
        let mut m = NoiseModel::empty();
        m.add_1q_all(Channel::depolarizing(0.001))
            .add_2q_all(Channel::depolarizing(0.02))
            .add_2q(3, Channel::thermal_relaxation(50.0, 30.0, 0.25))
            .set_readout_all(ReadoutError::symmetric(0.01))
            .set_readout(5, ReadoutError::new(0.03, 0.015));
        m
    }

    #[test]
    fn text_round_trips_canonically() {
        let m = sample_model();
        let text = m.to_text();
        let parsed = NoiseModel::parse(&text).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.content_hash(), m.content_hash());
    }

    #[test]
    fn parse_tolerates_reordering_and_hash_is_canonical() {
        let a = "qfw-noise/1;1q * depol 0.001;ro * 0.01 0.01";
        let b = "qfw-noise/1 ; ro * 0.01 0.01 ; 1q * depol 0.001";
        let (ma, mb) = (NoiseModel::parse(a).unwrap(), NoiseModel::parse(b).unwrap());
        assert_eq!(ma, mb);
        assert_eq!(ma.content_hash(), mb.content_hash());
    }

    #[test]
    fn malformed_texts_are_rejected_with_context() {
        for bad in [
            "",
            "not-a-header;1q * depol 0.1",
            "qfw-noise/1;1q * depol",
            "qfw-noise/1;1q * depol nan-ish",
            "qfw-noise/1;3q * depol 0.1",
            "qfw-noise/1;1q * wobble 0.1",
            "qfw-noise/1;1q q7 depol 0.1",
            "qfw-noise/1;ro * 0.1",
            "qfw-noise/1;1q * depol 1.5",
            "qfw-noise/1;1q * thermal 50 200 0.1",
        ] {
            assert!(NoiseModel::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn zero_strength_channels_collapse_to_empty() {
        let m = NoiseModel::flat(0.0, 0.0, 0.0);
        assert!(m.is_empty());
        assert_eq!(m.content_hash(), NoiseModel::empty().content_hash());
    }

    #[test]
    fn flat_model_is_uniform_on_every_qubit() {
        let m = NoiseModel::flat(0.001, 0.02, 0.005);
        assert_eq!(m.channels(1, 0).len(), 1);
        assert_eq!(m.channels(2, 7).len(), 1);
        match m.channels(2, 7)[0].kind() {
            ChannelKind::Depolarizing { p } => assert_eq!(*p, 0.02),
            other => panic!("{other:?}"),
        }
        let ro = m.readout(12).unwrap();
        assert_eq!((ro.p01, ro.p10), (0.005, 0.005));
    }

    #[test]
    fn per_qubit_entries_shadow_defaults() {
        let m = sample_model();
        assert_eq!(m.channels(2, 0).len(), 1); // default depol
        assert_eq!(m.channels(2, 3).len(), 1); // per-qubit thermal shadows
        match m.channels(2, 3)[0].kind() {
            ChannelKind::ThermalRelaxation { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.readout(5).unwrap().p01, 0.03);
        assert_eq!(m.readout(0).unwrap().p01, 0.01);
    }

    #[test]
    fn scaled_model_folds_every_strength() {
        let m = sample_model();
        let doubled = m.scaled(2.0);
        match doubled.channels(1, 0)[0].kind() {
            ChannelKind::Depolarizing { p } => assert!((p - 0.002).abs() < 1e-15),
            other => panic!("{other:?}"),
        }
        assert!((doubled.readout(5).unwrap().p01 - 0.06).abs() < 1e-15);
        // Scaling by zero produces the ideal model.
        assert!(m.scaled(0.0).is_empty());
        // Scaling commutes with the text codec.
        assert_eq!(
            NoiseModel::parse(&m.scaled(3.0).to_text()).unwrap(),
            m.scaled(3.0)
        );
    }

    #[test]
    fn content_hash_separates_models() {
        let a = sample_model();
        let mut b = sample_model();
        b.add_1q(2, Channel::amplitude_damping(0.01));
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(
            a.content_hash(),
            a.scaled(2.0).content_hash(),
            "scaling must change the hash"
        );
    }
}
