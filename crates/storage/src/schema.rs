//! Schemas: ordered, named, typed columns.
//!
//! The MD-join output schema is `B ∪ {f₁_R_c₁, …, f_n_R_c_n}` (Definition 3.1),
//! so schemas must support cheap concatenation and name lookup, including the
//! qualified names (`Sales.month`) used by θ-conditions.

use crate::error::{Result, StorageError};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Column data type. `Any` admits every value (used by computed columns whose
/// type is data dependent, e.g. a min over a heterogeneous column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
    Any,
}

impl DataType {
    /// Whether `v` may be stored in a column of this type. `Null` and `ALL`
    /// are admissible everywhere (cube dimensions contain `ALL`).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (_, Value::All)
                | (DataType::Any, _)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_) | Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Any => "any",
        };
        write!(f, "{s}")
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }

    /// Unqualified part of the name (`sale` for `Sales.sale`).
    pub fn base_name(&self) -> &str {
        match self.name.rsplit_once('.') {
            Some((_, b)) => b,
            None => &self.name,
        }
    }
}

/// An ordered collection of fields. Cheap to clone (fields behind an `Arc`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: Arc::new(fields),
        }
    }

    /// Convenience constructor from `(name, dtype)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Position of a column by name. Matches the exact name first, then falls
    /// back to matching the unqualified base name when unambiguous.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        if let Some(i) = self.fields.iter().position(|f| f.name == name) {
            return Ok(i);
        }
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.base_name() == name)
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(StorageError::UnknownColumn {
                name: name.to_string(),
                schema: self.to_string(),
            }),
            _ => Err(StorageError::AmbiguousColumn {
                name: name.to_string(),
                schema: self.to_string(),
            }),
        }
    }

    /// Whether the schema contains a column resolvable by `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_ok()
    }

    /// Positions of several columns, in the given order.
    pub fn indices_of(&self, names: &[&str]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.index_of(n)).collect()
    }

    /// Concatenate two schemas (MD-join output schema construction).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.as_ref().clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Project to a subset of columns (by position).
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Return a copy where every field name is prefixed with `alias.`
    /// (dropping any previous qualifier). Used when the same detail table
    /// appears several times in a series of MD-joins (footnote 3 of the paper:
    /// each application should be preceded by renaming).
    pub fn qualify(&self, alias: &str) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| Field::new(format!("{alias}.{}", f.base_name()), f.dtype))
                .collect(),
        )
    }

    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("prod", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ])
    }

    #[test]
    fn index_of_exact_and_base_name() {
        let s = sales_schema().qualify("Sales");
        assert_eq!(s.index_of("Sales.month").unwrap(), 2);
        assert_eq!(s.index_of("month").unwrap(), 2);
        assert!(s.index_of("bogus").is_err());
    }

    #[test]
    fn ambiguous_base_name_is_an_error() {
        let s = sales_schema()
            .qualify("a")
            .concat(&sales_schema().qualify("b"));
        assert!(matches!(
            s.index_of("sale"),
            Err(StorageError::AmbiguousColumn { .. })
        ));
        assert_eq!(s.index_of("a.sale").unwrap(), 4);
        assert_eq!(s.index_of("b.sale").unwrap(), 9);
    }

    #[test]
    fn concat_preserves_order() {
        let a = Schema::from_pairs(&[("x", DataType::Int)]);
        let b = Schema::from_pairs(&[("y", DataType::Float)]);
        let c = a.concat(&b);
        assert_eq!(c.names(), vec!["x", "y"]);
    }

    #[test]
    fn project_selects_by_position() {
        let s = sales_schema();
        let p = s.project(&[3, 0]);
        assert_eq!(p.names(), vec!["state", "cust"]);
    }

    #[test]
    fn admits_null_and_all_everywhere() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ] {
            assert!(t.admits(&Value::Null));
            assert!(t.admits(&Value::All));
        }
        assert!(DataType::Float.admits(&Value::Int(3)));
        assert!(!DataType::Int.admits(&Value::str("x")));
    }

    #[test]
    fn qualify_replaces_existing_qualifier() {
        let s = sales_schema().qualify("a").qualify("b");
        assert_eq!(s.field(0).name, "b.cust");
    }
}
