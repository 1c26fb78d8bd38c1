//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! a minimal serialization facade with the same import surface the code
//! uses (`use serde::{Deserialize, Serialize};` plus the derive macros).
//! Instead of serde's visitor-based data model, values serialize into a
//! JSON-shaped [`Value`] tree; `serde_json` (also a local shim) renders
//! and parses that tree. The derive macros follow serde's externally
//! tagged conventions so documents look like the real thing:
//!
//! * named structs → objects keyed by field name;
//! * newtype structs → the inner value;
//! * unit enum variants → `"Variant"`;
//! * data-carrying variants → `{"Variant": ...}`.

pub mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;

use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;
use std::time::Duration;

/// Serialization/deserialization failure (message-only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error carrying `msg`.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types renderable into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a JSON-shaped value.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON-shaped value.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the value's shape does not match.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| Error::msg(format!("expected unsigned integer, got {v:?}")))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = v
                    .as_i64()
                    .ok_or_else(|| Error::msg(format!("expected integer, got {v:?}")))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(std::sync::Arc::new(T::from_value(v)?))
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        if items.len() != N {
            return Err(Error::msg(format!(
                "expected {N} elements, got {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(Error::msg(format!(
                "expected 2-element array, got {other:?}"
            ))),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            other => Err(Error::msg(format!(
                "expected 3-element array, got {other:?}"
            ))),
        }
    }
}

// Hash sets serialize sorted so equal sets render identically.
impl<T: Serialize + Ord + Clone> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        let mut items: Vec<T> = self.iter().cloned().collect();
        items.sort();
        Value::Array(items.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected array, got {other:?}"))),
        }
    }
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_owned(), Value::U64(self.as_secs())),
            ("nanos".to_owned(), Value::U64(self.subsec_nanos() as u64)),
        ])
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let secs = u64::from_value(v.field("secs"))?;
        let nanos = u32::from_value(v.field("nanos"))?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
