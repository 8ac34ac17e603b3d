//! Columnar batches of detail tuples for the vectorized executor.
//!
//! Algorithm 3.1 scans `R` once; the vectorized execution layer cuts that scan
//! into fixed-size batches and transposes each batch into a [`ColumnarChunk`]:
//! per-column typed arrays (`i64`, `f64`, dictionary-coded strings) plus a
//! null bitmap. Predicates and probe-key expressions then run as tight loops
//! over native slices instead of per-row [`Value`] tree walks.
//!
//! Column typing is *data-driven per batch*, not declared: a column whose
//! values in the range are all `Int`-or-NULL becomes an [`Column::Int`], and
//! so on. Anything without a faithful typed representation — booleans, the
//! cube `ALL` pseudo-value, or mixed `Int`/`Float` data (where an eager
//! float conversion would change `sum`/comparison semantics) — becomes
//! [`Column::Fallback`], telling the evaluator to use the scalar interpreter
//! for expressions touching it. Only the columns a query actually reads are
//! materialized; the rest stay [`Column::Absent`].
//!
//! A [`Column::Str`]'s dictionary codes double as probe keys: each chunk's
//! dictionary is small, so the vectorized prober translates code → index
//! bucket once per chunk (one hash lookup per *distinct* string) and then
//! probes every row by its `u32` code without materializing or re-hashing a
//! single string value.

use crate::row::Row;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One column of a [`ColumnarChunk`].
#[derive(Debug, Clone)]
pub enum Column {
    /// Not materialized (the query never reads this column).
    Absent,
    /// All values in the range are `Int` or NULL.
    Int { vals: Vec<i64>, nulls: Vec<bool> },
    /// All values in the range are `Float` or NULL.
    Float { vals: Vec<f64>, nulls: Vec<bool> },
    /// All values in the range are `Str` or NULL, dictionary-coded:
    /// `dict[codes[i]]` is row `i`'s string.
    Str {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
        nulls: Vec<bool>,
    },
    /// The range holds values with no faithful typed representation
    /// (booleans, `ALL`, mixed numeric types): scalar fallback required.
    Fallback,
}

/// A contiguous range of detail tuples in columnar form.
#[derive(Debug, Clone)]
pub struct ColumnarChunk {
    /// Index of the first row of this chunk within the source relation.
    start: usize,
    /// Rows in the chunk.
    len: usize,
    columns: Vec<Column>,
}

impl ColumnarChunk {
    /// Transpose `rows[start..start+len]` into columns, materializing only
    /// the columns where `needed[c]` is true.
    pub fn from_rows(rows: &[Row], start: usize, len: usize, needed: &[bool]) -> Self {
        let range = &rows[start..start + len];
        let columns = needed
            .iter()
            .enumerate()
            .map(|(c, &want)| {
                if want {
                    build_column(range, c)
                } else {
                    Column::Absent
                }
            })
            .collect();
        ColumnarChunk {
            start,
            len,
            columns,
        }
    }

    /// Index of this chunk's first row within the source relation.
    pub fn start(&self) -> usize {
        self.start
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }
}

fn build_column(range: &[Row], c: usize) -> Column {
    // Single-pass speculative transposition: the first non-NULL value picks
    // the typed representation, the fill then runs straight through the range
    // and abandons to `Fallback` on the first conflicting value. (The old
    // code made a full type-sniffing pass before a second fill pass; the
    // common all-one-type batch now walks the row-major data exactly once.)
    let first = range.iter().find_map(|row| match &row[c] {
        Value::Null => None,
        other => Some(other),
    });
    match first {
        // All-NULL ranges get a typed (but fully null) Int column so numeric
        // kernels still apply; NULL semantics are carried by the bitmap.
        None => Column::Int {
            vals: vec![0; range.len()],
            nulls: vec![true; range.len()],
        },
        Some(Value::Int(_)) => fill_ints(range, c),
        Some(Value::Float(_)) => fill_floats(range, c),
        Some(Value::Str(_)) => fill_strs(range, c),
        // Booleans and `ALL` have no faithful typed representation.
        Some(_) => Column::Fallback,
    }
}

fn fill_ints(range: &[Row], c: usize) -> Column {
    let n = range.len();
    let mut vals = vec![0i64; n];
    let mut nulls = vec![false; n];
    for (i, row) in range.iter().enumerate() {
        match &row[c] {
            Value::Int(v) => vals[i] = *v,
            Value::Null => nulls[i] = true,
            _ => return Column::Fallback,
        }
    }
    Column::Int { vals, nulls }
}

fn fill_floats(range: &[Row], c: usize) -> Column {
    let n = range.len();
    let mut vals = vec![0f64; n];
    let mut nulls = vec![false; n];
    for (i, row) in range.iter().enumerate() {
        match &row[c] {
            Value::Float(v) => vals[i] = *v,
            Value::Null => nulls[i] = true,
            _ => return Column::Fallback,
        }
    }
    Column::Float { vals, nulls }
}

fn fill_strs(range: &[Row], c: usize) -> Column {
    let n = range.len();
    let mut codes = vec![0u32; n];
    let mut nulls = vec![false; n];
    let mut dict: Vec<Arc<str>> = Vec::new();
    let mut lookup: HashMap<Arc<str>, u32> = HashMap::new();
    for (i, row) in range.iter().enumerate() {
        match &row[c] {
            Value::Str(s) => {
                let code = *lookup.entry(s.clone()).or_insert_with(|| {
                    dict.push(s.clone());
                    (dict.len() - 1) as u32
                });
                codes[i] = code;
            }
            Value::Null => nulls[i] = true,
            _ => return Column::Fallback,
        }
    }
    Column::Str { codes, dict, nulls }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![
                Value::Int(1),
                Value::Float(1.5),
                Value::str("NY"),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Float(2.5),
                Value::str("CA"),
                Value::Bool(false),
            ]),
            Row::new(vec![
                Value::Int(3),
                Value::Null,
                Value::str("NY"),
                Value::Bool(true),
            ]),
        ]
    }

    #[test]
    fn typed_columns_with_null_bitmaps() {
        let rows = rows();
        let chunk = ColumnarChunk::from_rows(&rows, 0, 3, &[true, true, true, true]);
        assert_eq!(chunk.start(), 0);
        assert_eq!(chunk.len(), 3);
        match chunk.column(0) {
            Column::Int { vals, nulls } => {
                assert_eq!(vals, &[1, 0, 3]);
                assert_eq!(nulls, &[false, true, false]);
            }
            other => panic!("expected Int column, got {other:?}"),
        }
        match chunk.column(1) {
            Column::Float { vals, nulls } => {
                assert_eq!(vals, &[1.5, 2.5, 0.0]);
                assert_eq!(nulls, &[false, false, true]);
            }
            other => panic!("expected Float column, got {other:?}"),
        }
        match chunk.column(2) {
            Column::Str { codes, dict, nulls } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(&*dict[codes[0] as usize], "NY");
                assert_eq!(&*dict[codes[1] as usize], "CA");
                assert_eq!(codes[0], codes[2]);
                assert_eq!(nulls, &[false, false, false]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
        // Booleans have no typed representation.
        assert!(matches!(chunk.column(3), Column::Fallback));
    }

    #[test]
    fn unneeded_columns_stay_absent() {
        let rows = rows();
        let chunk = ColumnarChunk::from_rows(&rows, 1, 2, &[true, false, false, false]);
        assert_eq!(chunk.start(), 1);
        assert_eq!(chunk.len(), 2);
        assert!(matches!(chunk.column(1), Column::Absent));
        match chunk.column(0) {
            // Range starts at row 1: [Null, Int(3)].
            Column::Int { vals, nulls } => {
                assert_eq!(vals, &[0, 3]);
                assert_eq!(nulls, &[true, false]);
            }
            other => panic!("expected Int column, got {other:?}"),
        }
    }

    #[test]
    fn mixed_numeric_and_all_values_force_fallback() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::All]),
            Row::new(vec![Value::Float(2.0), Value::Int(2)]),
        ];
        let chunk = ColumnarChunk::from_rows(&rows, 0, 2, &[true, true]);
        assert!(matches!(chunk.column(0), Column::Fallback)); // Int + Float mix
        assert!(matches!(chunk.column(1), Column::Fallback)); // ALL
    }

    #[test]
    fn all_null_range_is_a_typed_null_column() {
        let rows = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Null])];
        let chunk = ColumnarChunk::from_rows(&rows, 0, 2, &[true]);
        match chunk.column(0) {
            Column::Int { nulls, .. } => assert_eq!(nulls, &[true, true]),
            other => panic!("expected Int column, got {other:?}"),
        }
    }
}
