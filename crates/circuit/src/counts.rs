//! [`Counts`]: a sampled histogram over a classical register, keyed by
//! outcome words — the one counts type from an engine's readout to the
//! client.
//!
//! A key is the register's value, classical bit `c` in bit `c % 64` of
//! word `c / 64`, held as `width.div_ceil(64)` words (one for every
//! register up to 64 bits) with the most significant word first. Keys are
//! kept sorted, so the list reads in the order of their Qiskit bit strings
//! (classical bit `width - 1` leftmost): fixed-width binary strings sort
//! the way their MSB-first words do. A bit string is rendered only where a
//! caller asks for one — [`Counts::bitstrings`], [`Counts::iter`], the
//! JSON codec — and the JSON bytes are those of the
//! `BTreeMap<String, usize>` the same histogram renders to.

use serde::{Deserialize, Error, Reader, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A histogram of sampled outcomes over a `width`-bit classical register.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Bits per key (0 when there is no key).
    width: usize,
    /// The keys, `stride(width)` words each, strictly ascending.
    keys: Vec<u64>,
    /// Shots per key.
    ns: Vec<usize>,
}

/// Words per key of a `width`-bit register (at least one).
pub(crate) fn stride(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

/// Whether classical bit `c` of a key reads 1.
pub fn key_bit(key: &[u64], c: usize) -> bool {
    key[key.len() - 1 - c / 64] >> (c % 64) & 1 == 1
}

/// Appends `key`'s bit string (`width` characters, classical bit
/// `width - 1` first).
fn render_into(key: &[u64], width: usize, out: &mut Vec<u8>) {
    for (i, &word) in key.iter().enumerate() {
        // The first word holds what the others leave of the register.
        let bits = if i == 0 {
            width - 64 * (key.len() - 1)
        } else {
            64
        };
        out.extend((0..bits).rev().map(|b| b'0' + (word >> b & 1) as u8));
    }
}

/// A key's bit string (`width` characters, classical bit `width - 1`
/// first).
pub fn bitstring(key: &[u64], width: usize) -> String {
    let mut out = Vec::with_capacity(width);
    render_into(key, width, &mut out);
    String::from_utf8(out).expect("a bit string is ASCII")
}

/// Appends the key a bit string spells; `false` (and nothing appended)
/// when it holds a byte other than `0` or `1`.
fn parse_into(bits: &[u8], out: &mut Vec<u64>) -> bool {
    if bits.is_empty() {
        out.push(0);
        return true;
    }
    let at = out.len();
    // The last 64 characters spell the least significant word, so the
    // first word takes what is left over.
    for chunk in bits.rchunks(64).rev() {
        let (mut word, mut seen) = (0u64, 0u8);
        for &b in chunk {
            let bit = b.wrapping_sub(b'0');
            seen |= bit;
            word = word << 1 | u64::from(bit & 1);
        }
        if seen > 1 {
            out.truncate(at);
            return false;
        }
        out.push(word);
    }
    true
}

/// Room for `n` items, rounded up to a power of two (at least 16). A
/// histogram's size changes from job to job; rounding keeps the blocks its
/// buffers take and free to a few size classes, of which an allocator's
/// per-thread caches keep a few blocks each, rather than one class per
/// size seen.
fn room(n: usize) -> usize {
    n.max(16).next_power_of_two()
}

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl Counts {
    /// A histogram over a `width`-bit register from keys (`stride` words
    /// each) and their shots, in any order: equal keys are combined by
    /// `merge(kept, later)`.
    fn collect(
        width: usize,
        keys: Vec<u64>,
        ns: Vec<usize>,
        merge: impl Fn(usize, usize) -> usize,
    ) -> Counts {
        let s = stride(width);
        let key = |i: usize| &keys[i * s..(i + 1) * s];
        let ascending = (1..ns.len()).all(|i| key(i - 1) < key(i));
        if ascending {
            let width = if ns.is_empty() { 0 } else { width };
            return Counts { width, keys, ns };
        }
        let mut order = Vec::with_capacity(room(ns.len()));
        order.extend(0..ns.len());
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        let (keys_out, ns_out) = Counts::buffers(width, ns.len());
        let mut out = Counts {
            width,
            keys: keys_out,
            ns: ns_out,
        };
        for i in order {
            match out.ns.last_mut() {
                Some(kept) if out.keys[out.keys.len() - s..] == *key(i) => {
                    *kept = merge(*kept, ns[i]);
                }
                _ => {
                    out.keys.extend_from_slice(key(i));
                    out.ns.push(ns[i]);
                }
            }
        }
        out
    }

    /// Empty key and shot buffers with room for `len` outcomes of a
    /// `width`-bit register, for [`tally`](Self::tally).
    pub(crate) fn buffers(width: usize, len: usize) -> (Vec<u64>, Vec<usize>) {
        (
            Vec::with_capacity(room(len) * stride(width)),
            Vec::with_capacity(room(len)),
        )
    }

    /// The tally of keys (`width.div_ceil(64).max(1)` words each, most
    /// significant first) and their shots, in any order; equal keys add.
    pub(crate) fn tally(width: usize, keys: Vec<u64>, ns: Vec<usize>) -> Counts {
        assert_eq!(
            keys.len(),
            ns.len() * stride(width),
            "keys and shots disagree"
        );
        Counts::collect(width, keys, ns, |kept, later| kept + later)
    }

    /// Bits per key: the classical register's width (0 when empty).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct outcomes.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no outcome was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The outcomes in key order: each key's words (most significant
    /// first, see [`key_bit`]) and its shots.
    pub fn outcomes(&self) -> impl ExactSizeIterator<Item = (&[u64], usize)> + '_ {
        self.keys
            .chunks_exact(stride(self.width))
            .zip(self.ns.iter().copied())
    }

    /// Shots per outcome, in key order.
    pub fn values(&self) -> std::slice::Iter<'_, usize> {
        self.ns.iter()
    }

    /// The outcomes' bit strings, in order (each one rendered).
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        self.iter().map(|(bits, _)| bits)
    }

    /// `(bit string, shots)` in key order, each key rendered: the view a
    /// `BTreeMap<String, usize>` of the same histogram gives.
    pub fn iter(&self) -> impl Iterator<Item = (String, &usize)> + '_ {
        self.outcomes()
            .map(|(key, _)| bitstring(key, self.width))
            .zip(&self.ns)
    }

    /// Where `key` sits (`Ok`), or where it would go (`Err`).
    fn search(&self, key: &[u64]) -> Result<usize, usize> {
        let s = stride(self.width);
        let (mut lo, mut hi) = (0, self.ns.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.keys[mid * s..(mid + 1) * s].cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Where the key a bit string spells sits, if it is recorded.
    fn find(&self, bits: &str) -> Option<usize> {
        let mut key = Vec::new();
        let parsed = bits.len() == self.width && parse_into(bits.as_bytes(), &mut key);
        parsed.then(|| self.search(&key).ok()).flatten()
    }

    /// The shots of an outcome key, its words as [`outcomes`](Self::outcomes)
    /// yields them for a register of this width.
    pub fn shots_of(&self, key: &[u64]) -> Option<usize> {
        self.search(key).ok().map(|i| self.ns[i])
    }

    /// The shots of the outcome a bit string names.
    pub fn get(&self, bits: &str) -> Option<&usize> {
        self.find(bits).map(|i| &self.ns[i])
    }

    /// Records `n` shots of the outcome a bit string names, returning what
    /// it replaced.
    ///
    /// # Panics
    /// Panics when `bits` holds a byte other than `0`/`1`, or when its
    /// width differs from the recorded keys'. This is a programmatic API;
    /// the wire decoder refuses such keys with an error instead.
    pub fn insert(&mut self, bits: String, n: usize) -> Option<usize> {
        if self.is_empty() {
            self.width = bits.len();
        }
        assert_eq!(bits.len(), self.width, "key {bits:?} has the wrong width");
        let mut key = Vec::new();
        assert!(
            parse_into(bits.as_bytes(), &mut key),
            "key {bits:?} is not a bit string"
        );
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.ns[i], n)),
            Err(at) => {
                let s = key.len();
                self.keys.splice(at * s..at * s, key);
                self.ns.insert(at, n);
                None
            }
        }
    }

    /// The histogram keyed by bit strings.
    pub fn bitstrings(&self) -> BTreeMap<String, usize> {
        self.iter().map(|(bits, &n)| (bits, n)).collect()
    }
}

/// The histogram a bit-string map holds.
///
/// # Panics
/// Panics on a key [`Counts::insert`] refuses.
impl From<BTreeMap<String, usize>> for Counts {
    fn from(map: BTreeMap<String, usize>) -> Counts {
        let mut counts = Counts::default();
        for (bits, n) in map {
            counts.insert(bits, n);
        }
        counts
    }
}

/// The merged histogram: shots of equal keys add.
///
/// # Panics
/// Panics when two non-empty histograms differ in width.
impl std::iter::Sum for Counts {
    fn sum<I: Iterator<Item = Counts>>(parts: I) -> Counts {
        let (mut width, mut keys, mut ns) = (0, Vec::new(), Vec::new());
        for part in parts.filter(|part| !part.is_empty()) {
            assert!(
                ns.is_empty() || part.width == width,
                "merged counts differ in width"
            );
            width = part.width;
            keys.extend_from_slice(&part.keys);
            ns.extend_from_slice(&part.ns);
        }
        Counts::tally(width, keys, ns)
    }
}

impl<'a> IntoIterator for &'a Counts {
    type Item = (String, &'a usize);
    type IntoIter = Box<dyn Iterator<Item = (String, &'a usize)> + 'a>;

    /// [`Counts::iter`].
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::ops::Index<&str> for Counts {
    type Output = usize;

    fn index(&self, bits: &str) -> &usize {
        self.get(bits)
            .unwrap_or_else(|| panic!("no outcome {bits:?} in the counts"))
    }
}

impl fmt::Debug for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Equal when the same bit strings hold the same shots.
impl PartialEq<BTreeMap<String, usize>> for Counts {
    fn eq(&self, other: &BTreeMap<String, usize>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|((bits, n), (theirs, m))| bits == *theirs && n == m)
    }
}

/// Equal when the same bit strings hold the same shots.
impl PartialEq<Counts> for BTreeMap<String, usize> {
    fn eq(&self, other: &Counts) -> bool {
        other == self
    }
}

impl Serialize for Counts {
    /// The bytes `BTreeMap<String, usize>` writes for the same histogram,
    /// into one reservation.
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        let entry = self.width + 4; // `"key":` and a separator
        let need = 2 + self.ns.iter().map(|&n| entry + digits(n)).sum::<usize>();
        out.reserve((out.len() + need).next_power_of_two() - out.len());
        out.push(b'{');
        for (i, (key, n)) in self.outcomes().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'"');
            render_into(key, self.width, out);
            out.extend_from_slice(b"\":");
            n.serialize(out)?;
        }
        out.push(b'}');
        Ok(())
    }
}

impl Deserialize for Counts {
    /// Reads each key straight into its words. A key that is not all
    /// `0`/`1`, or whose width differs from the first key's, is an error;
    /// wire maps arrive sorted, and of a repeated key the last wins.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (body, entries) = r.flat_object()?;
        parse_body(body, entries).map_err(|why| r.error(why))
    }
}

/// The histogram a counts object's body spells, `entries` entries long.
fn parse_body(body: &[u8], entries: usize) -> Result<Counts, &'static str> {
    let skip_blank = |at: &mut usize| {
        while matches!(body.get(*at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *at += 1;
        }
    };
    let (mut at, mut width) = (0, None);
    let (mut keys, mut ns) = (Vec::new(), Vec::new());
    for _ in 0..entries {
        skip_blank(&mut at);
        if body.get(at) != Some(&b'"') {
            return Err("expected a quoted counts key");
        }
        let start = at + 1;
        let len = body[start..]
            .iter()
            .position(|&b| b == b'"')
            .ok_or("unterminated counts key")?;
        at = start + len + 1;
        let w = *width.get_or_insert_with(|| {
            // An entry takes at least `"key":n` of the body, which bounds
            // what stray commas can make the count claim.
            (keys, ns) = Counts::buffers(len, entries.min(body.len() / (len + 4) + 1));
            len
        });
        if len != w {
            return Err("counts keys of different widths");
        }
        if !parse_into(&body[start..start + len], &mut keys) {
            return Err("counts key is not a bit string");
        }
        skip_blank(&mut at);
        if body.get(at) != Some(&b':') {
            return Err("expected `:` after a counts key");
        }
        at += 1;
        skip_blank(&mut at);
        let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return Err("expected the shots of a counts key");
        }
        let n = body[at..at + digits]
            .iter()
            .try_fold(0usize, |n, &d| {
                n.checked_mul(10)?.checked_add(usize::from(d - b'0'))
            })
            .ok_or("shots out of range")?;
        ns.push(n);
        at += digits;
        skip_blank(&mut at);
        match body.get(at) {
            Some(b',') => at += 1,
            None => {}
            Some(_) => return Err("expected `,` between counts entries"),
        }
    }
    skip_blank(&mut at);
    if at != body.len() {
        return Err("expected a counts entry after `,`");
    }
    Ok(Counts::collect(width.unwrap_or(0), keys, ns, |_, later| {
        later
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> Counts {
        let mut c = Counts::default();
        for &(bits, n) in pairs {
            c.insert(bits.into(), n);
        }
        c
    }

    #[test]
    fn keys_sort_like_their_bit_strings() {
        let c = counts(&[("110", 1), ("001", 2), ("100", 3)]);
        assert_eq!(c.keys().collect::<Vec<_>>(), ["001", "100", "110"]);
        assert_eq!(c.width(), 3);
        assert_eq!(c["100"], 3);
        assert_eq!(c.get("111"), None);
        assert_eq!(c.get("10"), None);
        let words: Vec<(u64, usize)> = c.outcomes().map(|(k, n)| (k[0], n)).collect();
        assert_eq!(words, [(0b001, 2), (0b100, 3), (0b110, 1)]);
    }

    #[test]
    fn wide_keys_put_the_most_significant_word_first() {
        let mut bits = "0".repeat(70);
        bits.replace_range(0..1, "1"); // classical bit 69
        bits.replace_range(69..70, "1"); // classical bit 0
        let c = counts(&[(&bits, 5)]);
        let (key, n) = c.outcomes().next().unwrap();
        assert_eq!((key, n), (&[1u64 << 5, 1][..], 5));
        assert!(key_bit(key, 69) && key_bit(key, 0) && !key_bit(key, 64));
        assert_eq!(c.bitstrings().into_keys().next().unwrap(), bits);
    }

    #[test]
    fn tally_sorts_and_adds_equal_keys() {
        let c = Counts::tally(2, vec![3, 1, 3, 0], vec![1, 2, 4, 8]);
        assert_eq!(c, counts(&[("00", 8), ("01", 2), ("11", 5)]));
        assert_eq!(Counts::tally(5, vec![], vec![]), Counts::default());
    }

    #[test]
    fn insert_replaces_and_compares_with_the_string_map() {
        let mut c = counts(&[("01", 1)]);
        assert_eq!(c.insert("01".into(), 7), Some(1));
        assert_eq!(c.insert("00".into(), 2), None);
        let map: BTreeMap<String, usize> = [("00".to_string(), 2), ("01".to_string(), 7)].into();
        assert_eq!(c, map);
        assert_eq!(map, c);
        assert_eq!(c.bitstrings(), map);
        assert_eq!(format!("{c:?}"), format!("{map:?}"));
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn insert_refuses_a_mixed_width() {
        counts(&[("01", 1), ("011", 1)]);
    }

    #[test]
    fn codec_writes_the_string_maps_bytes_and_refuses_bad_keys() {
        let c = counts(&[("000", 480), ("011", 3), ("111", 541)]);
        let mut out = Vec::new();
        c.serialize(&mut out).unwrap();
        let mut map_out = Vec::new();
        c.bitstrings().serialize(&mut map_out).unwrap();
        assert_eq!(out, map_out);
        assert_eq!(Counts::deserialize(&mut Reader::new(&out)).unwrap(), c);
        for bad in [r#"{"0a1":1}"#, r#"{"01":1,"011":1}"#, r#"{"01":-1}"#] {
            assert!(
                Counts::deserialize(&mut Reader::new(bad.as_bytes())).is_err(),
                "{bad}"
            );
        }
        let repeated = Counts::deserialize(&mut Reader::new(br#"{"1":1,"0":2,"1":3}"#)).unwrap();
        assert_eq!(repeated, counts(&[("0", 2), ("1", 3)]));
    }
}
