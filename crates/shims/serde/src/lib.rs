//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this shim provides the
//! serialization surface the workspace needs: a [`Serialize`] trait over a
//! JSON-like [`Value`] tree, and a complete JSON writer/parser so values
//! round-trip through text. A struct serializes to a `Value::Map` of its
//! fields in declaration order; the few types that leave the process as
//! JSON (the `obs` JSONL export and snapshots, `talon replay --json`)
//! write that impl by hand.
//!
//! This is not wire-compatible with upstream `serde_json`, but nothing in the
//! workspace persisted serde output before this shim existed, so the format is
//! ours to define. JSON is parsed only into a [`Value`] (no typed
//! deserialization).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use std::collections::BTreeMap;
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

/// JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn serialize(&self) -> Value;
}

impl Serialize for u64 {
    fn serialize(&self) -> Value {
        Value::U64(*self)
    }
}

impl Serialize for usize {
    fn serialize(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl Serialize for i64 {
    fn serialize(&self) -> Value {
        Value::I64(*self)
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
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
    fn containers_serialize_in_order() {
        let map: BTreeMap<String, Vec<f64>> =
            [("b".into(), vec![1.5]), ("a".into(), vec![])].into();
        assert_eq!(map.serialize().to_json(), r#"{"a":[],"b":[1.5]}"#);
        assert_eq!(vec![7usize].serialize(), Value::Seq(vec![Value::U64(7)]));
    }
}
