//! Typed values, including the `ALL` pseudo-value used by data-cube base tables.
//!
//! `ALL` follows Gray et al. \[GBLP96\] as adopted by the MD-join paper: a cube
//! base-values table merges the 2^n group-bys of a cube into one relation by
//! filling rolled-up dimensions with `ALL`. `ALL` is an ordinary value for
//! equality/hashing purposes (it only equals itself), which is exactly what the
//! MD-join needs: θ-conditions on cube tables compare dimension attributes of `B`
//! against detail attributes of `R`, and rows with `ALL` use θ-conditions that do
//! not mention the rolled-up dimension at all.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Exact numeric comparison of an `i64` against an `f64`.
///
/// The obvious `(a as f64).total_cmp(&b)` is lossy above 2⁵³ where the cast
/// rounds: `(i64::MAX as f64)` equals 2⁶³, so `i64::MAX` would spuriously
/// compare `Equal` to a float that is strictly greater than it. Predicates
/// must be exact — the scalar interpreter and the batch kernels both route
/// through this function so they cannot diverge on extreme magnitudes.
///
/// Semantics:
/// * NaN: falls back to `total_cmp` through the cast. A NaN never compares
///   `Equal` to an integer either way; this just preserves `total_cmp`'s
///   sign-based placement of NaN so `<`/`>` predicates keep their behavior.
/// * Finite `b` outside `i64`'s range compares by sign of the overflow.
/// * Otherwise the integral part of `b` (exactly representable as `i64`)
///   compares in integer arithmetic; an integral tie is broken by the sign of
///   `b`'s fractional remainder. Note `-0.0` compares `Equal` to `0` — this
///   is a *numeric* comparison, unlike `total_cmp`'s bit-level total order.
pub fn cmp_int_float(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return (a as f64).total_cmp(&b);
    }
    // 2⁶³ is exactly representable; any finite float ≥ 2⁶³ or < -2⁶³ lies
    // outside i64's range (-2⁶³ itself is i64::MIN). Floats at these
    // magnitudes are spaced ≥ 1024 apart, so everything in between truncates
    // to an in-range integer.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let bt = b.trunc();
    match a.cmp(&(bt as i64)) {
        Ordering::Equal if b == bt => Ordering::Equal,
        // `a` equals `b`'s integral part: the fractional remainder decides.
        Ordering::Equal if b > bt => Ordering::Less,
        Ordering::Equal => Ordering::Greater,
        other => other,
    }
}

/// θ's order of two floats: `total_cmp` once `-0.0` is mapped to `0.0`.
///
/// The two zeros compare `Equal`, as they do to an `Int(0)`
/// ([`cmp_int_float`]) and as a hash probe's canonical key meets them; every
/// other pair keeps `total_cmp`'s order, so a NaN still sorts above (or,
/// negative, below) every number and equals only a NaN of its own bits. The
/// scalar interpreter ([`Value::sql_cmp`]) and the batch kernels both compare
/// floats here, so the two cannot diverge.
pub fn cmp_float(a: f64, b: f64) -> Ordering {
    let unsigned_zero = |x: f64| if x == 0.0 { 0.0 } else { x };
    unsigned_zero(a).total_cmp(&unsigned_zero(b))
}

/// A dynamically typed value stored in a [`crate::Relation`].
///
/// Floats are wrapped so that `Value` can implement `Eq`/`Hash`/`Ord` (required
/// for group keys and index keys): equality and hashing use the IEEE bit pattern,
/// ordering uses `f64::total_cmp`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL. Equal to itself for grouping purposes (like SQL `GROUP BY`),
    /// but all comparison *predicates* involving NULL evaluate to false.
    Null,
    /// The `ALL` pseudo-value marking a rolled-up cube dimension.
    All,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Interned immutable string (cheap to clone).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if the value is the `ALL` pseudo-value.
    pub fn is_all(&self) -> bool {
        matches!(self, Value::All)
    }

    /// Extract an `i64`, coercing from `Float`/`Bool` when lossless in spirit.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Extract an `f64`, coercing from `Int`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric comparison usable by predicates: `Int` and `Float` compare by
    /// numeric value; other types compare only within their own type. Returns
    /// `None` for NULL operands or incomparable types (predicate → false),
    /// mirroring SQL three-valued logic collapsed to two values.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(cmp_float(*a, *b)),
            (Value::Int(a), Value::Float(b)) => Some(cmp_int_float(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(cmp_int_float(*b, *a).reverse()),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::All, Value::All) => Some(Ordering::Equal),
            _ => None,
        }
    }

    /// Equality as used by θ-condition `=` predicates: numeric cross-type
    /// equality allowed, NULL never equal.
    pub fn sql_eq(&self, other: &Value) -> bool {
        matches!(self.sql_cmp(other), Some(Ordering::Equal))
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::All => "all",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::All, Value::All) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null | Value::All => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order for sorting relations and building sorted indexes.
    /// Order across types: Null < All < Bool < Int/Float (numeric) < Str.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::All => 1,
                Value::Bool(_) => 2,
                Value::Int(_) | Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::All => write!(f, "ALL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
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

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn all_equals_only_itself() {
        assert_eq!(Value::All, Value::All);
        assert_ne!(Value::All, Value::Null);
        assert_ne!(Value::All, Value::Int(0));
        assert_ne!(Value::All, Value::str("ALL"));
    }

    #[test]
    fn null_groups_with_null_but_never_sql_eq() {
        assert_eq!(Value::Null, Value::Null);
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
    }

    #[test]
    fn cross_type_numeric_sql_eq() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Float(3.5)));
        assert_eq!(
            Value::Float(2.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn cross_type_comparison_is_exact_above_2_53() {
        // (2⁵³+1 as f64) rounds to 2⁵³, so the lossy cast called these Equal.
        let p53 = 1i64 << 53;
        assert_eq!(cmp_int_float(p53 + 1, p53 as f64), Ordering::Greater);
        assert_eq!(cmp_int_float(-(p53 + 1), -(p53 as f64)), Ordering::Less);
        // (i64::MAX as f64) == 2⁶³ > i64::MAX: the cast called these Equal too.
        assert_eq!(cmp_int_float(i64::MAX, i64::MAX as f64), Ordering::Less);
        assert_eq!(cmp_int_float(i64::MIN, i64::MIN as f64), Ordering::Equal);
        assert!(!Value::Int(i64::MAX).sql_eq(&Value::Float(i64::MAX as f64)));
        assert_eq!(
            Value::Float(i64::MAX as f64).sql_cmp(&Value::Int(i64::MAX)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn cmp_int_float_edge_cases() {
        assert_eq!(cmp_int_float(0, -0.0), Ordering::Equal);
        assert_eq!(cmp_int_float(0, -0.5), Ordering::Greater);
        assert_eq!(cmp_int_float(-1, -0.5), Ordering::Less);
        assert_eq!(cmp_int_float(3, 3.5), Ordering::Less);
        assert_eq!(cmp_int_float(-3, -3.5), Ordering::Greater);
        assert_eq!(cmp_int_float(5, f64::INFINITY), Ordering::Less);
        assert_eq!(cmp_int_float(5, f64::NEG_INFINITY), Ordering::Greater);
        // NaN keeps total_cmp's placement (never Equal).
        assert_eq!(cmp_int_float(5, f64::NAN), Ordering::Less);
        assert_eq!(cmp_int_float(5, -f64::NAN), Ordering::Greater);
        assert!(!Value::Int(5).sql_eq(&Value::Float(f64::NAN)));
    }

    #[test]
    fn float_zeros_compare_equal_and_nan_keeps_its_place() {
        assert_eq!(cmp_float(0.0, -0.0), Ordering::Equal);
        assert!(Value::Float(-0.0).sql_eq(&Value::Float(0.0)));
        assert_eq!(cmp_float(-0.0, 1e-300), Ordering::Less);
        assert_eq!(cmp_float(-1e-300, 0.0), Ordering::Less);
        assert_eq!(cmp_float(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(cmp_float(-f64::NAN, f64::NEG_INFINITY), Ordering::Less);
        assert_eq!(cmp_float(f64::NAN, f64::NAN), Ordering::Equal);
        assert!(!Value::Float(f64::NAN).sql_eq(&Value::Float(0.0)));
    }

    #[test]
    fn plain_eq_is_structural_not_numeric() {
        // Grouping semantics: Int(3) and Float(3.0) are distinct group keys.
        assert_ne!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn float_eq_and_hash_use_bits() {
        let a = Value::Float(0.1 + 0.2);
        let b = Value::Float(0.1 + 0.2);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let nan1 = Value::Float(f64::NAN);
        let nan2 = Value::Float(f64::NAN);
        assert_eq!(nan1, nan2); // same bit pattern
    }

    #[test]
    fn total_order_is_transitive_across_types() {
        let mut vs = [
            Value::str("z"),
            Value::Int(5),
            Value::Null,
            Value::Float(1.5),
            Value::All,
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::All);
        assert_eq!(vs[2], Value::Bool(true));
        assert_eq!(vs[5], Value::str("z"));
    }

    #[test]
    fn numeric_coercion_in_total_order() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.5).cmp(&Value::Int(3)), Ordering::Greater);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(42i64), Value::Int(42));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("NY"), Value::str("NY"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::str("x").as_float(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::All.to_string(), "ALL");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("CA").to_string(), "CA");
    }
}
