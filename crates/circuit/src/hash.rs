//! Canonical content-addressed hashing for circuits.
//!
//! The ingress result cache needs one property above all: a circuit
//! built programmatically and the same circuit round-tripped through the
//! `qfwasm` wire format must produce the **same key**. The text layer
//! already defines the canonical form — [`crate::text::dump`] emits one
//! normalized line per op with lossless `{:e}` angle formatting — so
//! canonicalization here is simply *parse, then re-emit*: whitespace,
//! comments, and formatting quirks of wire-ingested text all collapse to
//! the canonical form, which is streamed straight into the hash (an
//! already-parsed circuit hashes through [`circuit_hash`] without ever
//! being rendered to a string).
//!
//! The hash itself is a 128-bit FNV-1a — no external dependencies, stable
//! across platforms and processes (unlike `std::hash`, which is seeded per
//! process), and wide enough that collisions are not a practical concern
//! for cache keying (birthday bound ~2^64 entries).

use crate::param::ParamCircuit;
use crate::{text, Circuit};

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content hash, used as the content-addressed cache key.
///
/// Construct one with [`canonical_hash`] (normalizing) or
/// [`ContentHash::of_bytes`] (raw), then fold in non-circuit key
/// components (seed, shots, backend spec) with the `fold_*` methods —
/// folding is order-sensitive, like continuing the same FNV stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hashes raw bytes (no normalization).
    pub fn of_bytes(bytes: &[u8]) -> ContentHash {
        ContentHash(FNV_OFFSET).fold_bytes(bytes)
    }

    /// Continues the hash over more bytes.
    #[must_use]
    pub fn fold_bytes(self, bytes: &[u8]) -> ContentHash {
        let mut h = self.0;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        ContentHash(h)
    }

    /// Continues the hash over a `u64` (little-endian bytes).
    #[must_use]
    pub fn fold_u64(self, v: u64) -> ContentHash {
        self.fold_bytes(&v.to_le_bytes())
    }

    /// Continues the hash over an `f64` (IEEE-754 bit pattern, so `-0.0`
    /// and `0.0` hash differently — exactness over prettiness for keys).
    #[must_use]
    pub fn fold_f64(self, v: f64) -> ContentHash {
        self.fold_bytes(&v.to_bits().to_le_bytes())
    }

    /// Continues the hash over a string (length-prefixed, so adjacent
    /// fields cannot alias by concatenation).
    #[must_use]
    pub fn fold_str(self, s: &str) -> ContentHash {
        self.fold_u64(s.len() as u64).fold_bytes(s.as_bytes())
    }

    /// The key value.
    pub fn value(self) -> u128 {
        self.0
    }

    /// Lowercase 32-digit hex form (log/metadata friendly).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical text of whatever is written into it is what gets hashed.
impl std::fmt::Write for ContentHash {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.fold_bytes(s.as_bytes());
        Ok(())
    }
}

/// Content hash of a parsed circuit: equal to hashing [`text::dump`]'s
/// bytes, without building the string.
pub fn circuit_hash(circuit: &Circuit) -> ContentHash {
    let mut h = ContentHash::of_bytes(&[]);
    text::write_circuit(&mut h, circuit);
    h
}

/// Content hash of a parameterized template, with the `bind` line folded
/// in when a binding is given (equal to hashing [`text::dump_param`] /
/// [`text::dump_param_bound`]).
pub fn param_hash(template: &ParamCircuit, bound: Option<&[f64]>) -> ContentHash {
    let mut h = ContentHash::of_bytes(&[]);
    text::write_param(&mut h, template);
    if let Some(params) = bound {
        text::write_bind(&mut h, params);
    }
    h
}

/// Returns the canonical form of a wire-format circuit: parse, re-dump.
///
/// Handles both plain `qfwasm` and (bound or unbound) `qfwasm-param`
/// sources. Returns `None` when the text does not parse — callers hashing
/// for cache keys fall back to the raw text (see [`canonical_hash`]),
/// which only costs cache-hit opportunities, never correctness.
pub fn canonical_text(src: &str) -> Option<String> {
    if text::is_param_text(src) {
        let (template, bound) = text::parse_param(src).ok()?;
        Some(match bound {
            Some(params) => text::dump_param_bound(&template, &params),
            None => text::dump_param(&template),
        })
    } else {
        text::parse(src).ok().map(|c| text::dump(&c))
    }
}

/// Content hash of a wire-format circuit after canonicalization.
///
/// Two sources that parse to the same circuit — programmatic dump or
/// hand-written wire text with different whitespace/comments — hash
/// identically. Unparseable text is hashed raw (deterministic, just not
/// normalized).
pub fn canonical_hash(src: &str) -> ContentHash {
    let parsed = if text::is_param_text(src) {
        text::parse_param(src)
            .ok()
            .map(|(template, bound)| param_hash(&template, bound.as_deref()))
    } else {
        text::parse(src).ok().map(|c| circuit_hash(&c))
    };
    parsed.unwrap_or_else(|| ContentHash::of_bytes(src.as_bytes()).fold_str("unparsed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Angle;

    fn ghz(n: usize) -> Circuit {
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn round_trip_hash_is_stable() {
        let src = text::dump(&ghz(5));
        let reparsed = text::dump(&text::parse(&src).unwrap());
        assert_eq!(canonical_hash(&src), canonical_hash(&reparsed));
    }

    #[test]
    fn streamed_hash_equals_hash_of_the_dump() {
        let qc = ghz(4);
        assert_eq!(
            circuit_hash(&qc),
            ContentHash::of_bytes(text::dump(&qc).as_bytes())
        );
        let mut t = ParamCircuit::new(2);
        t.rx(0, Angle::sym(0));
        t.rzz(0, 1, Angle::scaled(1, 2.0));
        t.measure_all();
        assert_eq!(
            param_hash(&t, None),
            ContentHash::of_bytes(text::dump_param(&t).as_bytes())
        );
        assert_eq!(
            param_hash(&t, Some(&[0.3, -0.7])),
            ContentHash::of_bytes(text::dump_param_bound(&t, &[0.3, -0.7]).as_bytes())
        );
    }

    #[test]
    fn formatting_noise_does_not_change_hash() {
        let canon = text::dump(&ghz(3));
        // Blank lines and comments after the header are parser-invisible.
        let (header, body) = canon.split_once('\n').unwrap();
        let noisy = format!("{header}\n# a comment\n\n{body}\n\n# trailing\n");
        assert_eq!(canonical_hash(&canon), canonical_hash(&noisy));
    }

    #[test]
    fn different_circuits_hash_differently() {
        let a = text::dump(&ghz(4));
        let b = text::dump(&ghz(5));
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn param_binding_perturbation_changes_hash() {
        let mut t = ParamCircuit::new(2);
        t.rx(0, Angle::sym(0));
        t.rzz(0, 1, Angle::sym(1));
        t.measure_all();
        let a = text::dump_param_bound(&t, &[0.3, 0.7]);
        let b = text::dump_param_bound(&t, &[0.3, 0.7 + 1e-9]);
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
        // Same binding, independent dumps: identical.
        let c = text::dump_param_bound(&t, &[0.3, 0.7]);
        assert_eq!(canonical_hash(&a), canonical_hash(&c));
    }

    #[test]
    fn unparseable_text_hashes_deterministically() {
        let h1 = canonical_hash("not a circuit at all");
        let h2 = canonical_hash("not a circuit at all");
        assert_eq!(h1, h2);
        assert_ne!(h1, canonical_hash("also not a circuit"));
    }

    #[test]
    fn fold_components_are_order_and_field_sensitive() {
        let base = canonical_hash(&text::dump(&ghz(3)));
        assert_ne!(base.fold_u64(1).fold_u64(2), base.fold_u64(2).fold_u64(1));
        assert_ne!(
            base.fold_str("ab").fold_str("c"),
            base.fold_str("a").fold_str("bc")
        );
        assert_ne!(base.fold_f64(0.0), base.fold_f64(-0.0));
    }

    #[test]
    fn hex_display_is_32_digits() {
        let h = ContentHash::of_bytes(b"x");
        assert_eq!(h.to_hex().len(), 32);
        assert_eq!(format!("{h}"), h.to_hex());
    }
}
