//! Offline stand-in for `serde`, specialised to JSON. It keeps serde's
//! spelling (`Serialize`, `Deserialize`, `de::DeserializeOwned`,
//! `#[derive(Serialize, Deserialize)]`) so the workspace code is untouched,
//! and streams like real serde: [`Serialize`] appends JSON text straight to
//! a byte buffer and [`Deserialize`] reads straight from a [`Reader`] over
//! the input bytes. No intermediate document is built on that path.
//!
//! [`Value`] is the dynamic JSON document for callers that want one; it is
//! one more `Serialize`/`Deserialize` type. The one [`Reader`] caps nesting
//! at [`MAX_DEPTH`], so an untrusted payload cannot exhaust the stack.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Deepest array/object nesting a [`Reader`] accepts.
pub const MAX_DEPTH: usize = 128;

/// JSON encoding or decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Prefixes the message with where it happened (`Type.field`).
    pub fn context(self, at: &str) -> Error {
        Error(format!("{at}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A dynamic JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Seq(Vec<Value>),
    /// Key-ordered map (insertion order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A type that writes itself as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON text to `out`.
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error>;
}

/// A type that reads itself from JSON.
pub trait Deserialize: Sized {
    /// Reads one value (leading whitespace included) from `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Deserialization marker traits, mirroring `serde::de`.
pub mod de {
    /// Owned deserialization (no borrowed data) — identical to
    /// [`super::Deserialize`] in this shim.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}

    pub use super::Deserialize;
}

// --- writer --------------------------------------------------------------------

/// Appends a non-negative integer without allocating.
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends a finite float; integral values keep a `.0` so they read back
/// as floats.
fn write_f64(out: &mut Vec<u8>, f: f64) -> Result<(), Error> {
    use std::io::Write;
    if !f.is_finite() {
        return Err(Error(format!("non-finite float {f} is not valid JSON")));
    }
    let written = if f.fract() == 0.0 && f.abs() < 1e15 {
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    };
    written.map_err(|e| Error(e.to_string()))
}

/// Appends a quoted, escaped string. Runs that need no escape are copied
/// in bulk.
fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push(b'"');
    // Branch-free scan first: most strings (every counts key) need no escape.
    let clean = bytes
        .iter()
        .fold(true, |ok, &b| ok & (b >= 0x20) & (b != b'"') & (b != b'\\'));
    if clean {
        out.extend_from_slice(bytes);
        out.push(b'"');
        return;
    }
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[start..i]);
        start = i + 1;
        let short = match b {
            b'"' | b'\\' => b,
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x08 => b'b',
            0x0C => b'f',
            _ => {
                let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]);
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hi, lo]);
                continue;
            }
        };
        out.extend_from_slice(&[b'\\', short]);
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

fn write_map<'a, V: Serialize + 'a>(
    out: &mut Vec<u8>,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
) -> Result<(), Error> {
    out.push(b'{');
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_str(out, key);
        out.push(b':');
        value.serialize(out)?;
    }
    out.push(b'}');
    Ok(())
}

// --- reader --------------------------------------------------------------------

/// A JSON number as written: integers stay integers.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Number {
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer (or `-0`).
    Int(i64),
    /// Anything with a fraction or exponent, or an integer too wide for
    /// 64 bits.
    Float(f64),
}

/// A cursor over JSON input. Every read skips leading whitespace; arrays
/// and objects deeper than [`MAX_DEPTH`] are an error, not a recursion.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position.
    pub fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    /// Succeeds if nothing but whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing data")),
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &[u8]) -> bool {
        let hit = self.peek().is_some() && self.bytes[self.pos..].starts_with(kw);
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    /// Consumes a `null` if one is next.
    fn null(&mut self) -> bool {
        self.keyword(b"null")
    }

    /// Reads `true` or `false`.
    fn bool(&mut self) -> Result<bool, Error> {
        if self.keyword(b"true") {
            Ok(true)
        } else if self.keyword(b"false") {
            Ok(false)
        } else {
            Err(self.error("expected bool"))
        }
    }

    /// Reads a number. A plain integer is accumulated as it is scanned;
    /// a fraction, an exponent or an integer too wide for 64 bits goes
    /// through the float parser.
    fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected number"));
        }
        let start = self.pos;
        let negative = self.bytes[start] == b'-';
        self.pos += usize::from(negative);
        let (mut acc, mut exact, mut is_float) = (0u64, true, false);
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => match acc
                    .checked_mul(10)
                    .and_then(|a| a.checked_add(u64::from(b - b'0')))
                {
                    Some(a) => acc = a,
                    None => exact = false,
                },
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let digits = self.pos > start + usize::from(negative);
        if digits && exact && !is_float {
            if !negative {
                return Ok(Number::UInt(acc));
            }
            if acc <= 1 << 63 {
                return Ok(Number::Int((acc as i64).wrapping_neg()));
            }
        }
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse()
            .map(Number::Float)
            .map_err(|e| Error(format!("bad number `{text}`: {e}")))
    }

    /// Reads a string: one slice when it holds no escape.
    fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let bytes = self.bytes;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = bytes.len();
                return Err(self.error("unterminated string"));
            };
            let run = std::str::from_utf8(&bytes[start..start + len])
                .map_err(|e| Error(format!("string at byte {start}: {e}")))?;
            self.pos = start + len + 1;
            if bytes[start + len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            let c = self.escape()?;
            s.push(c);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair: the low half must follow.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code)
                    .ok_or_else(|| self.error(&format!("invalid unicode escape {code:#x}")))?
            }
            other => return Err(self.error(&format!("bad escape {:?}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Opens an array or object one level deeper; `false` if it is empty
    /// (and so already closed again).
    fn open(&mut self, open: u8, close: u8) -> Result<bool, Error> {
        self.eat(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
            self.depth -= 1;
        }
        Ok(!empty)
    }

    /// After an item of an open array or object: `true` on `,`, `false`
    /// (and the container closed) on `close`.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Reads an array, handing `item` the reader at each element.
    fn seq(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.open(b'[', b']')? {
            loop {
                item(self)?;
                if !self.next(b']')? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Reads an object, handing `entry` each key with the reader at its
    /// value. `entry` must consume the value ([`Reader::skip`] if unwanted).
    pub fn map(
        &mut self,
        mut entry: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.open(b'{', b'}')? {
            loop {
                let key = self.str()?;
                self.eat(b':')?;
                entry(self, key)?;
                if !self.next(b'}')? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Reads an object that holds no nested container, returning the
    /// bytes between its braces, unparsed, and how many entries it holds:
    /// one more than its commas, none when it is blank. The object ends at
    /// the first `}`, so a key holding `,` or `}` miscounts or cuts it
    /// short, and the caller's parse of the body fails.
    pub fn flat_object(&mut self) -> Result<(&'a [u8], usize), Error> {
        self.eat(b'{')?;
        let rest = &self.bytes[self.pos..];
        let Some(len) = rest.iter().position(|&b| b == b'}') else {
            self.pos = self.bytes.len();
            return Err(self.error("unterminated object"));
        };
        let body = &rest[..len];
        let commas = body.iter().filter(|&&b| b == b',').count();
        self.pos += body.len() + 1;
        let blank = body
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
        Ok((body, if blank { 0 } else { commas + 1 }))
    }

    /// Reads and discards one value of any shape.
    pub fn skip(&mut self) -> Result<(), Error> {
        Value::deserialize(self).map(drop)
    }

    /// Reads a struct field into its slot. The first occurrence of a key
    /// wins; a repeat is only checked for syntax.
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>, at: &str) -> Result<(), Error> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(T::deserialize(self).map_err(|e| e.context(at))?);
        Ok(())
    }

    /// A struct field's value: what was read, or else what `null` reads as
    /// (so a missing `Option` is `None` and a missing number an error).
    pub fn take<T: Deserialize>(slot: Option<T>, at: &str) -> Result<T, Error> {
        match slot {
            Some(v) => Ok(v),
            None => T::deserialize(&mut Reader::new(b"null")).map_err(|e| e.context(at)),
        }
    }

    /// Reads an externally tagged enum's tag: `("Variant", false)` for a
    /// bare string, `("Variant", true)` for `{"Variant": ...}` with the
    /// reader left at the payload, to be closed by [`Reader::end_variant`].
    pub fn variant(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.str()?, false)),
            Some(b'{') => {
                if !self.open(b'{', b'}')? {
                    return Err(self.error("expected enum variant"));
                }
                let tag = self.str()?;
                self.eat(b':')?;
                Ok((tag, true))
            }
            _ => Err(self.error("expected enum variant")),
        }
    }

    /// Closes a `{"Variant": ...}` opened by [`Reader::variant`].
    pub fn end_variant(&mut self) -> Result<(), Error> {
        self.eat(b'}')?;
        self.depth -= 1;
        Ok(())
    }
}

// --- primitives ---------------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
        Ok(())
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
                write_u64(out, *self as u64);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw = match r.number()? {
                    Number::UInt(u) => u,
                    Number::Int(i) if i >= 0 => i as u64,
                    _ => return Err(r.error("expected unsigned integer")),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
                write_i64(out, *self as i64);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw: i64 = match r.number()? {
                    Number::Int(i) => i,
                    Number::UInt(u) => {
                        i64::try_from(u).map_err(|_| Error(format!("{u} out of i64 range")))?
                    }
                    Number::Float(_) => return Err(r.error("expected integer")),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        write_f64(out, *self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.number()? {
            Number::Float(f) => f,
            Number::UInt(u) => u as f64,
            Number::Int(i) => i as f64,
        })
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        write_str(out, self);
        Ok(())
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        write_str(out, self);
        Ok(())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(Cow::into_owned)
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        out.extend_from_slice(b"null");
        Ok(())
    }
}

impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(())
        } else {
            Err(r.error("expected null"))
        }
    }
}

// --- containers ----------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        (**self).serialize(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        match self {
            None => ().serialize(out),
            Some(v) => v.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        self.as_slice().serialize(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.serialize(out)?;
        }
        out.push(b']');
        Ok(())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        r.seq(|r| {
            items.push(T::deserialize(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        write_map(out, self.iter())
    }
}

/// Reads an object's entries in wire order.
fn read_pairs<V: Deserialize>(r: &mut Reader<'_>) -> Result<Vec<(String, V)>, Error> {
    let mut pairs = Vec::new();
    r.map(|r, key| {
        pairs.push((key.into_owned(), V::deserialize(r)?));
        Ok(())
    })?;
    Ok(pairs)
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    /// Wire maps arrive sorted, so this is a bulk build (the last of a
    /// repeated key wins).
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_pairs(r).map(BTreeMap::from_iter)
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut Vec<u8>) -> Result<(), Error> {
        match self {
            Value::Null => ().serialize(out),
            Value::Bool(b) => b.serialize(out),
            Value::UInt(u) => u.serialize(out),
            Value::Int(i) => i.serialize(out),
            Value::Float(f) => f.serialize(out),
            Value::Str(s) => s.serialize(out),
            Value::Seq(items) => items.serialize(out),
            Value::Map(entries) => write_map(out, entries.iter().map(|(k, v)| (k, v))),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'n') if r.null() => Value::Null,
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'"') => Value::Str(r.str()?.into_owned()),
            Some(b'[') => Value::Seq(Vec::deserialize(r)?),
            Some(b'{') => Value::Map(read_pairs(r)?),
            Some(b'-' | b'0'..=b'9') => match r.number()? {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            },
            Some(_) => return Err(r.error("unexpected byte")),
            None => return Err(r.error("unexpected end of input")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> (String, T) {
        let mut out = Vec::new();
        value.serialize(&mut out).unwrap();
        let mut r = Reader::new(&out);
        let back = T::deserialize(&mut r).unwrap();
        r.finish().unwrap();
        (String::from_utf8(out).unwrap(), back)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&42u64), ("42".into(), 42));
        assert_eq!(round_trip(&-7i64), ("-7".into(), -7));
        assert_eq!(round_trip(&i64::MIN).1, i64::MIN);
        assert_eq!(round_trip(&1.5f64), ("1.5".into(), 1.5));
        assert_eq!(round_trip(&"hi".to_string()).1, "hi");
        assert_eq!(round_trip(&None::<u8>), ("null".into(), None));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(round_trip(&v), ("[1,2,3]".into(), v));
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2usize);
        m.insert("a".to_string(), 1usize);
        assert_eq!(round_trip(&m), (r#"{"a":1,"b":2}"#.into(), m));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(u8::deserialize(&mut Reader::new(b"300")).is_err());
        assert!(u8::deserialize(&mut Reader::new(b"1.0")).is_err());
        assert!(bool::deserialize(&mut Reader::new(b"1")).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::deserialize(&mut Reader::new(ok.as_bytes())).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::deserialize(&mut Reader::new(deep.as_bytes())).is_err());
    }
}
