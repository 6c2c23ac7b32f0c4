//! Minimal offline substitute for the `serde` crate.
//!
//! The real serde decouples data structures from data formats through the
//! `Serializer`/`Deserializer` visitor machinery. This workspace builds in
//! an environment without crates.io access, so this shim collapses that
//! machinery to a single self-describing data model ([`Value`], the JSON
//! object model): `Serialize` maps a type *into* a `Value`, `Deserialize`
//! maps a `Value` back. The companion `serde_json` shim renders and parses
//! `Value` as JSON text. The derive macros (`serde_derive`) generate the
//! same external-tagging layout real serde uses (unit variants as strings,
//! data variants as single-key objects), so files written by this shim are
//! byte-compatible with what the real `serde` + `serde_json` pair would
//! produce for the types in this repository.
//!
//! Only the API surface this workspace uses is provided. No `#[serde(...)]`
//! attributes, no generics on derived types, no zero-copy deserialization.

mod text;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use text::{write_json_f64, write_json_str};
pub use value::Value;

/// Serialization: convert `self` into the self-describing [`Value`] model.
pub trait Serialize {
    /// The `Value` representation of `self`.
    fn to_value(&self) -> Value;
}

/// Deserialization: rebuild `Self` from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild `Self` from `v`, or explain why the shape is wrong.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Construct from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Fetch a required struct field from an object body (derive-macro helper).
pub fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, DeError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::custom(format!("missing field `{key}`")))
}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let n = v.as_u64().ok_or_else(|| {
                    DeError::custom(format!("expected unsigned integer, got {v:?}"))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::custom(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let n = v.as_i64().ok_or_else(|| {
                    DeError::custom(format!("expected integer, got {v:?}"))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::custom(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::custom(format!("expected number, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::custom(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom(format!("expected string, got {v:?}")))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::custom(format!("expected array, got {v:?}")))?;
        arr.iter().map(T::deserialize).collect()
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| {
                    DeError::custom(format!("expected tuple array, got {v:?}"))
                })?;
                let expect = [$($n),+].len();
                if arr.len() != expect {
                    return Err(DeError::custom(format!(
                        "expected {expect}-tuple, got {} elements", arr.len()
                    )));
                }
                Ok(($($t::deserialize(&arr[$n])?,)+))
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys (HashMap order is random).
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom(format!("expected object, got {v:?}")))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
