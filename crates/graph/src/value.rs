//! Base values that may appear on edges of a semistructured data graph.
//!
//! The paper (§2) formulates labels as `type label = int | string | ... | symbol`:
//! a *tagged union* of base types plus symbols. This module provides the base
//! ("data") part of that union; symbols are handled by [`crate::symbol`].
//!
//! Because the data is self-describing, programs inspect values dynamically:
//! every [`Value`] carries its own type tag, and the type predicates
//! ([`Value::is_int`], [`Value::kind`], ...) are the query-language hooks the
//! paper calls for ("one would expect any language for dealing with
//! semistructured data to incorporate predicates that describe the type of an
//! edge or node").

use std::cmp::Ordering;
use std::fmt;

/// A base (atomic) value stored on an edge label.
///
/// `Real` values are compared by their IEEE-754 bit patterns after NaN
/// canonicalisation so that `Value` can implement `Eq`, `Ord` and `Hash` —
/// properties the triple-store relations and indexes rely on.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float ("real" in ACeDB terminology).
    Real(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// The dynamic type of a [`Value`] (or of a label as a whole, see
/// [`crate::label::Label::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    Int,
    Real,
    Str,
    Bool,
}

impl ValueKind {
    /// Human-readable name, used by the query language's `type()` builtin.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Int => "int",
            ValueKind::Real => "real",
            ValueKind::Str => "string",
            ValueKind::Bool => "bool",
        }
    }

    /// All kinds, in canonical order. Useful for bucketing edges by type in
    /// DataGuide construction.
    pub const ALL: [ValueKind; 4] = [
        ValueKind::Int,
        ValueKind::Real,
        ValueKind::Str,
        ValueKind::Bool,
    ];
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Value {
    /// The dynamic type tag of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Real(_) => ValueKind::Real,
            Value::Str(_) => ValueKind::Str,
            Value::Bool(_) => ValueKind::Bool,
        }
    }

    pub fn is_int(&self) -> bool {
        matches!(self, Value::Int(_))
    }

    pub fn is_real(&self) -> bool {
        matches!(self, Value::Real(_))
    }

    pub fn is_str(&self) -> bool {
        matches!(self, Value::Str(_))
    }

    pub fn is_bool(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view: ints promote to reals so that `3 < 3.5` compares
    /// naturally in `where` clauses.
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Canonical bit pattern for a float: all NaNs map to one quiet NaN so
    /// equality and hashing are well defined.
    fn real_bits(r: f64) -> u64 {
        if r.is_nan() {
            f64::NAN.to_bits()
        } else if r == 0.0 {
            // +0.0 and -0.0 are equal; canonicalise to +0.0.
            0f64.to_bits()
        } else {
            r.to_bits()
        }
    }

    /// Comparison used by the query language: numeric types compare by value
    /// across `Int`/`Real`; mixed non-numeric kinds order by kind tag.
    pub fn query_cmp(&self, other: &Value) -> Ordering {
        match (self.as_numeric(), other.as_numeric()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or_else(|| {
                // NaN ordering: NaN sorts after everything.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => unreachable!("partial_cmp is total on non-NaN"),
                }
            }),
            _ => self.cmp(other),
        }
    }

    /// Equality used by the query language: `3 = 3.0` holds.
    pub fn query_eq(&self, other: &Value) -> bool {
        self.query_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => Self::real_bits(*a) == Self::real_bits(*b),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: first by kind, then by value. This is the *storage*
    /// order used by relations and indexes, not the query-language order
    /// (see [`Value::query_cmp`]).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => {
                // Total order on canonical bits, with sign handling: flip the
                // bits of negative floats so numeric order is preserved.
                fn key(r: f64) -> u64 {
                    let b = Value::real_bits(r);
                    if b >> 63 == 1 {
                        !b
                    } else {
                        b | (1 << 63)
                    }
                }
                key(*a).cmp(&key(*b))
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.kind().cmp(&other.kind()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Real(r) => Self::real_bits(*r).hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            // An integral real keeps a `.` or an exponent, so that it
            // reads back as a real: `2.0`, `1e15`. (A non-finite real's
            // fraction is NaN: it takes the last arm.)
            Value::Real(r) if r.fract() == 0.0 && r.abs() < 1e15 => write!(f, "{r:.1}"),
            Value::Real(r) if r.fract() == 0.0 => write!(f, "{r:e}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => crate::lex::write_quoted(f, s, '"'),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn kinds_and_predicates() {
        assert!(Value::Int(3).is_int());
        assert!(Value::Real(3.0).is_real());
        assert!(Value::Str("x".into()).is_str());
        assert!(Value::Bool(true).is_bool());
        assert_eq!(Value::Int(3).kind().name(), "int");
        assert_eq!(Value::Str("x".into()).kind(), ValueKind::Str);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_real(), None);
        assert_eq!(Value::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(2).as_numeric(), Some(2.0));
        assert_eq!(Value::Real(2.5).as_numeric(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_numeric(), None);
    }

    #[test]
    fn nan_is_self_equal_after_canonicalisation() {
        let a = Value::Real(f64::NAN);
        let b = Value::Real(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn signed_zero_is_equal() {
        assert_eq!(Value::Real(0.0), Value::Real(-0.0));
        assert_eq!(hash_of(&Value::Real(0.0)), hash_of(&Value::Real(-0.0)));
    }

    #[test]
    fn storage_order_on_reals_is_numeric() {
        let mut vals = [
            Value::Real(1.5),
            Value::Real(-2.0),
            Value::Real(0.0),
            Value::Real(100.0),
            Value::Real(-0.5),
        ];
        vals.sort();
        let nums: Vec<f64> = vals.iter().map(|v| v.as_real().unwrap()).collect();
        assert_eq!(nums, vec![-2.0, -0.5, 0.0, 1.5, 100.0]);
    }

    #[test]
    fn query_comparison_crosses_numeric_kinds() {
        assert!(Value::Int(3).query_eq(&Value::Real(3.0)));
        assert_eq!(Value::Int(3).query_cmp(&Value::Real(3.5)), Ordering::Less);
        assert!(!Value::Int(3).query_eq(&Value::Str("3".into())));
    }

    #[test]
    fn storage_equality_distinguishes_kinds() {
        assert_ne!(Value::Int(3), Value::Real(3.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Real(1.5).to_string(), "1.5");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::Real(1e15).to_string(), "1e15");
        assert_eq!(Value::Real(-2.5e20).to_string(), "-2.5e20");
        assert_eq!(
            Value::Str("\r\0\u{1}'".into()).to_string(),
            r#""\r\0\u{1}'""#
        );
        assert_eq!(Value::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(2.5f64), Value::Real(2.5));
    }
}
