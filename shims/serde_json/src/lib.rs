//! Offline stand-in for `serde_json`: the entry points over the serde
//! shim's streaming codec. `to_vec`/`to_string` hand the value an output
//! buffer to write itself into; `from_slice`/`from_str` hand the target
//! type one [`serde::Reader`] over the input, which caps nesting at
//! [`serde::MAX_DEPTH`], and then require that nothing but whitespace is
//! left. [`Value`] is the dynamic document type.

use serde::{de::DeserializeOwned, Reader, Serialize};

pub use serde::{Error, Value};

/// Serializes a value to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    value.serialize(&mut out)?;
    Ok(out)
}

/// Serializes a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let bytes = to_vec(value)?;
    Ok(String::from_utf8(bytes).expect("the writer emits UTF-8"))
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(input: &[u8]) -> Result<T, Error> {
    let mut reader = Reader::new(input);
    let value = T::deserialize(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: DeserializeOwned>(input: &str) -> Result<T, Error> {
    from_slice(input.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<()>("null").unwrap(), ());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ unicode: π λ";
        let encoded = to_string(&original.to_string()).unwrap();
        assert_eq!(from_str::<String>(&encoded).unwrap(), original);
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1.0f64, -2.5, 3.25];
        let bytes = to_vec(&v).unwrap();
        assert_eq!(from_slice::<Vec<f64>>(&bytes).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert("alpha".to_string(), 1usize);
        m.insert("beta".to_string(), 2usize);
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"alpha":1,"beta":2}"#);
        assert_eq!(from_str::<BTreeMap<String, usize>>(&text).unwrap(), m);
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<Vec<u64>>("[1,2").is_err());
        assert!(from_str::<String>("\"open").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v: Vec<u64> = from_str(" [ 1 , 2 , 3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
