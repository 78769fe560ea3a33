//! Attribute values carried by events and compared by filters.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A typed attribute value.
///
/// Events in the publish-subscribe substrate are bags of name-value pairs
/// (see [`crate::Event`]); `Value` is the value side of a pair. The type is
/// deliberately small: the Reef paper only requires values that an attention
/// parser can extract from text (strings, numbers, booleans).
///
/// # Examples
///
/// ```
/// use reef_pubsub::Value;
///
/// let v = Value::from("tromso");
/// assert_eq!(v.type_name(), "string");
/// assert!(Value::from(3.5).partial_cmp_value(&Value::from(2)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// UTF-8 string value.
    Str(String),
    /// Signed 64-bit integer value.
    Int(i64),
    /// 64-bit float value. `NaN` is rejected by [`Value::is_valid`].
    Float(f64),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Human-readable name of the value's type, used in error messages and
    /// schema definitions.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
        }
    }

    /// The [`ValueType`] tag for this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Returns `false` for values that must never enter the broker
    /// (currently only `NaN` floats, which would break matching totality).
    pub fn is_valid(&self) -> bool {
        match self {
            Value::Float(f) => !f.is_nan(),
            _ => true,
        }
    }

    /// Borrow the string content if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to `f64`, other types return `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats are *not* truncated; only `Int` returns `Some`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total comparison used by the matching engines.
    ///
    /// Numeric values (`Int`, `Float`) compare with each other on the real
    /// line; strings compare lexicographically; booleans as `false < true`.
    /// Cross-type comparisons (other than int/float) return `None`, which
    /// matchers treat as "predicate does not match".
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality used by the matching engines: int/float compare numerically
    /// (`Int(3) == Float(3.0)`), everything else by exact variant equality.
    pub fn eq_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                self.as_f64() == other.as_f64()
            }
            _ => self == other,
        }
    }

    /// Approximate on-the-wire size in bytes, used by the simulated network
    /// for traffic accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Str(s) => s.len() + 2,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Type tag for [`Value`], used by [`crate::Schema`] to declare the type of
/// each attribute in a publish-subscribe interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// UTF-8 string.
    Str,
    /// Signed 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
}

impl ValueType {
    /// `true` when a value of type `other` is acceptable where `self` is
    /// declared. Ints are acceptable where floats are declared (numeric
    /// widening), mirroring [`Value::eq_value`].
    pub fn accepts(self, other: ValueType) -> bool {
        self == other || (self == ValueType::Float && other == ValueType::Int)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Str => "string",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Bool => "bool",
        };
        f.write_str(name)
    }
}

/// A key usable in hash maps for equality-indexed matching.
///
/// Floats are keyed by their bit pattern of the canonicalized `f64`
/// representation (ints widen first), so `Int(3)` and `Float(3.0)` land in
/// the same bucket, consistent with [`Value::eq_value`].
///
/// A key *borrows* the string of the value it was built from, so probing
/// an index with an event's value allocates nothing; keys stored in an
/// index are `ValueKey<'static>` (see [`ValueKey::into_owned`]). Borrowed
/// and owned keys of the same value are equal and hash alike.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKey<'a> {
    /// String key.
    Str(Cow<'a, str>),
    /// Canonical numeric key (bit pattern of the `f64` value).
    Num(u64),
    /// Boolean key.
    Bool(bool),
}

impl<'a> ValueKey<'a> {
    /// Build the canonical key for a value, borrowing its string if it
    /// has one. Returns `None` for `NaN`, which equals nothing — not even
    /// itself — and so has no bucket.
    pub fn of(value: &'a Value) -> Option<ValueKey<'a>> {
        match value {
            Value::Str(s) => Some(ValueKey::Str(Cow::Borrowed(s))),
            Value::Bool(b) => Some(ValueKey::Bool(*b)),
            v => {
                let f = v.as_f64()?;
                if f.is_nan() {
                    return None;
                }
                // Normalize -0.0 to 0.0 so both hash identically.
                let f = if f == 0.0 { 0.0 } else { f };
                Some(ValueKey::Num(f.to_bits()))
            }
        }
    }

    /// Detach the key from the value it borrows from, for storing.
    pub fn into_owned(self) -> ValueKey<'static> {
        match self {
            ValueKey::Str(s) => ValueKey::Str(Cow::Owned(s.into_owned())),
            ValueKey::Num(bits) => ValueKey::Num(bits),
            ValueKey::Bool(b) => ValueKey::Bool(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(Value::from(42).to_string(), "42");
        assert_eq!(Value::from(true).to_string(), "true");
    }

    #[test]
    fn numeric_equality_crosses_int_float() {
        assert!(Value::from(3).eq_value(&Value::from(3.0)));
        assert!(!Value::from(3).eq_value(&Value::from(3.5)));
        assert!(!Value::from("3").eq_value(&Value::from(3)));
    }

    #[test]
    fn ordering_within_and_across_numeric_types() {
        assert_eq!(
            Value::from(2).partial_cmp_value(&Value::from(3.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_value(&Value::from("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::from("b").partial_cmp_value(&Value::from(1)), None);
    }

    #[test]
    fn nan_is_invalid() {
        assert!(!Value::Float(f64::NAN).is_valid());
        assert!(Value::Float(1.0).is_valid());
        assert!(ValueKey::of(&Value::Float(f64::NAN)).is_none());
    }

    #[test]
    fn value_key_unifies_int_and_float() {
        assert_eq!(
            ValueKey::of(&Value::from(3)),
            ValueKey::of(&Value::from(3.0))
        );
        assert_ne!(ValueKey::of(&Value::from(3)), ValueKey::of(&Value::from(4)));
    }

    #[test]
    fn value_key_normalizes_negative_zero() {
        assert_eq!(
            ValueKey::of(&Value::Float(-0.0)),
            ValueKey::of(&Value::Float(0.0))
        );
    }

    #[test]
    fn borrowed_and_owned_keys_are_interchangeable() {
        use std::hash::{BuildHasher, RandomState};
        let value = Value::from("nyse");
        let borrowed = ValueKey::of(&value).unwrap();
        let owned = borrowed.clone().into_owned();
        assert!(matches!(borrowed, ValueKey::Str(Cow::Borrowed(_))));
        assert_eq!(borrowed, owned);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&borrowed), hasher.hash_one(&owned));
    }

    #[test]
    fn value_type_accepts_widening() {
        assert!(ValueType::Float.accepts(ValueType::Int));
        assert!(!ValueType::Int.accepts(ValueType::Float));
        assert!(ValueType::Str.accepts(ValueType::Str));
    }

    #[test]
    fn accessor_views() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(5).as_i64(), Some(5));
        assert_eq!(Value::from(5.5).as_i64(), None);
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(5).as_f64(), Some(5.0));
    }

    #[test]
    fn wire_size_scales_with_string_length() {
        assert!(Value::from("aaaaaaaaaa").wire_size() > Value::from("a").wire_size());
        assert_eq!(Value::from(1).wire_size(), 8);
    }
}
