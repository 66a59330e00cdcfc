//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this shim provides the
//! serialization surface the workspace needs: [`Serialize`] / [`Deserialize`]
//! traits over a JSON-like [`Value`] tree, derive macros (re-exported from the
//! local `serde_derive` shim), and a complete JSON writer/parser so values
//! round-trip through text. The data model is deliberately simple:
//!
//! * named structs    → `Value::Map`
//! * tuple structs    → `Value::Seq`
//! * unit enum variant → `Value::Str(variant)`
//! * data enum variant → `Value::Map { variant: Seq(fields) }`
//!
//! This is not wire-compatible with upstream `serde_json`, but nothing in the
//! workspace persisted serde output before this shim existed, so the format is
//! ours to define. The `obs` crate's JSONL trace export and registry snapshots are
//! the primary consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

mod json;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-like value tree: the serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Seq(Vec<Value>),
    /// Key-value map (insertion-ordered).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as `f64` (accepts any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `u64` (accepts in-range signed/float values).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric view as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            Value::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Serializes this value to compact JSON text.
    pub fn to_json(&self) -> String {
        json::write(self)
    }

    /// Parses JSON text into a value.
    pub fn from_json(text: &str) -> Result<Value, Error> {
        json::parse(text)
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// A "expected X while deserializing Y" error.
    pub fn ty(target: &str, expected: &str) -> Error {
        Error(format!("{target}: expected {expected}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Fetches a required map field (used by derived `Deserialize` impls).
pub fn get_field<'v>(
    map: &'v [(String, Value)],
    key: &str,
    target: &str,
) -> Result<&'v Value, Error> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error(format!("{target}: missing field `{key}`")))
}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn serialize(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

// --- primitive impls -----------------------------------------------------

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let raw = v.as_u64().ok_or_else(|| Error::ty(stringify!($t), "unsigned integer"))?;
                <$t>::try_from(raw).map_err(|_| Error::ty(stringify!($t), "in-range integer"))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let raw = v.as_i64().ok_or_else(|| Error::ty(stringify!($t), "integer"))?;
                <$t>::try_from(raw).map_err(|_| Error::ty(stringify!($t), "in-range integer"))
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::ty("f64", "number"))
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| Error::ty("f32", "number"))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::ty("bool", "boolean")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::ty("String", "string"))
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::ty("char", "string"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::ty("char", "single-character string")),
        }
    }
}

// --- container impls -----------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::ty("Vec", "sequence"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let seq = v.as_seq().ok_or_else(|| Error::ty("array", "sequence"))?;
        if seq.len() != N {
            return Err(Error(format!(
                "array: expected {N} elements, got {}",
                seq.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(seq) {
            *slot = T::deserialize(item)?;
        }
        Ok(out)
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$n.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let seq = v.as_seq().ok_or_else(|| Error::ty("tuple", "sequence"))?;
                let mut it = seq.iter();
                let out = ($(
                    $t::deserialize(it.next().ok_or_else(|| Error::ty("tuple", "longer sequence"))?)?,
                )+);
                Ok(out)
            }
        }
    )+};
}

ser_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

impl<K: ToString + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::ty("BTreeMap", "map"))?
            .iter()
            .map(|(k, v)| V::deserialize(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

impl<K: ToString, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.serialize()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::I64(-42),
            Value::U64(42),
            Value::F64(2.5),
            Value::Str("hi \"there\"\n".into()),
            Value::Seq(vec![Value::U64(1), Value::Null]),
            Value::Map(vec![("k".into(), Value::F64(-0.125))]),
        ] {
            let text = v.to_json();
            assert_eq!(Value::from_json(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn typed_round_trip() {
        let x: (u8, Vec<f64>, Option<String>) = (7, vec![1.5, -2.0], Some("s".into()));
        let v = x.serialize();
        let back = <(u8, Vec<f64>, Option<String>)>::deserialize(&v).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn arrays_round_trip() {
        let a = [1u8, 2, 3, 4, 5, 6];
        let back = <[u8; 6]>::deserialize(&a.serialize()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn errors_are_reported() {
        assert!(u8::deserialize(&Value::Str("x".into())).is_err());
        assert!(u8::deserialize(&Value::U64(300)).is_err());
        assert!(<[u8; 2]>::deserialize(&Value::Seq(vec![Value::U64(1)])).is_err());
    }
}
