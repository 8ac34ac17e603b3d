//! Columnar batches of detail tuples for the vectorized executor.
//!
//! Algorithm 3.1 scans `R` once; the vectorized execution layer cuts that scan
//! into fixed-size batches and transposes each batch into a [`ColumnarChunk`]:
//! per-column typed arrays (`i64`, `f64`, dictionary-coded strings) plus a
//! null bitmap. Predicates and probe-key expressions then run as tight loops
//! over native slices instead of per-row [`Value`] tree walks. A resident
//! relation transposes each column of each chunk once and keeps it for every
//! later scan (`Relation::chunk`, its column cache). A page of the
//! page store is these columns serialized: the pager types a page's rows
//! with the same `ColumnBuilder` when it writes them and decodes the page
//! straight back into a chunk, with no rows in between (`pager::Page`).
//!
//! Column typing is *data-driven per batch*, not declared: a column whose
//! values in the range are all `Int`-or-NULL becomes an [`Column::Int`], and
//! so on. Anything without a faithful typed representation — booleans, the
//! cube `ALL` pseudo-value, or mixed `Int`/`Float` data (where an eager
//! float conversion would change `sum`/comparison semantics) — becomes
//! [`Column::Untyped`], which keeps its values: the batch kernels skip it,
//! and the evaluator interprets the expressions touching it from those
//! values ([`ColumnarChunk::row_into`]), never from a row. Only the columns
//! a query actually reads are materialized; the rest stay
//! [`Column::Absent`].
//!
//! A [`Column::Str`]'s dictionary codes double as probe keys: each chunk's
//! dictionary is small, so the vectorized prober translates code → index
//! bucket once per chunk (one hash lookup per *distinct* string) and then
//! probes every row by its `u32` code without materializing or re-hashing a
//! single string value.

use crate::hash::KeyBuildHasher;
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
    /// (booleans, `ALL`, mixed numeric types): its values, for the scalar
    /// interpreter.
    Untyped(Vec<Value>),
}

/// What [`ColumnarChunk::column`] lends for a column the chunk does not hold.
static ABSENT: Column = Column::Absent;

/// A contiguous range of detail tuples in columnar form.
///
/// Columns are shared, not owned: a resident relation's column cache hands
/// the same `Arc<Column>` to every scan that reads it.
#[derive(Debug, Clone)]
pub struct ColumnarChunk {
    /// Index of the first row of this chunk within the source relation.
    start: usize,
    /// Rows in the chunk.
    len: usize,
    /// Per column: its values, or `None` where [`Column::Absent`].
    columns: Vec<Option<Arc<Column>>>,
}

impl ColumnarChunk {
    /// Transpose `rows[start..start+len]` into columns, materializing only
    /// the columns where `needed[c]` is true.
    pub fn from_rows(rows: &[Row], start: usize, len: usize, needed: &[bool]) -> Self {
        let range = &rows[start..start + len];
        let columns = needed
            .iter()
            .enumerate()
            .map(|(c, &want)| want.then(|| Arc::new(build_column(range, c))))
            .collect();
        ColumnarChunk {
            start,
            len,
            columns,
        }
    }

    /// A chunk of `len` rows starting at row 0 from already built columns.
    pub(crate) fn from_columns(len: usize, columns: Vec<Column>) -> Self {
        Self::from_shared(
            len,
            columns.into_iter().map(|c| Some(Arc::new(c))).collect(),
        )
    }

    /// A chunk of `len` rows starting at row 0 from shared columns (`None`
    /// = absent).
    pub(crate) fn from_shared(len: usize, columns: Vec<Option<Arc<Column>>>) -> Self {
        ColumnarChunk {
            start: 0,
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
        self.columns[c].as_deref().unwrap_or(&ABSENT)
    }

    /// Number of columns, materialized or not.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Row `i`'s value of column `c` as the scalar interpreter reads it:
    /// NULL where the column is absent.
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.column(c).value(i).unwrap_or(Value::Null)
    }

    /// Row `i`'s values of the columns `cols` into their slots of `row`,
    /// as the scalar interpreter reads them ([`value`](Self::value)); the
    /// other slots keep what they hold. One reused buffer serves every row a
    /// fallback interprets, and a row costs what its expression reads.
    pub fn row_into(&self, i: usize, cols: &[usize], row: &mut [Value]) {
        for &c in cols {
            row[c] = self.value(c, i);
        }
    }
}

impl Column {
    /// Row `i`'s value; `None` only for an absent column.
    pub fn value(&self, i: usize) -> Option<Value> {
        Some(match self {
            Column::Int { nulls, .. } | Column::Float { nulls, .. } | Column::Str { nulls, .. }
                if nulls[i] =>
            {
                Value::Null
            }
            Column::Int { vals, .. } => Value::Int(vals[i]),
            Column::Float { vals, .. } => Value::Float(vals[i]),
            Column::Str { codes, dict, .. } => Value::Str(dict[codes[i] as usize].clone()),
            Column::Untyped(values) => values[i].clone(),
            Column::Absent => return None,
        })
    }

    /// `values`, `len` of them, as one column typed by the rule of
    /// [`ColumnBuilder`].
    #[inline]
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>, len: usize) -> Column {
        let mut col = ColumnBuilder::new(len);
        for v in values {
            col.push_value(v);
        }
        col.finish()
    }

    /// This column's rows `at`, in that order. A `Str` column's dictionary
    /// keeps only the entries those rows use, so a gather costs what `at`
    /// does however large the dictionary is.
    pub fn gather(&self, at: impl ExactSizeIterator<Item = usize> + Clone) -> Column {
        let nulls = |nulls: &[bool]| at.clone().map(|i| nulls[i]).collect();
        match self {
            Column::Int { vals, nulls: n } => Column::Int {
                vals: at.clone().map(|i| vals[i]).collect(),
                nulls: nulls(n),
            },
            Column::Float { vals, nulls: n } => Column::Float {
                vals: at.clone().map(|i| vals[i]).collect(),
                nulls: nulls(n),
            },
            Column::Str {
                codes,
                dict,
                nulls: n,
            } => {
                let mut recode: HashMap<u32, u32, KeyBuildHasher> = HashMap::default();
                let mut used = Vec::new();
                let codes = at
                    .clone()
                    .map(|i| {
                        *recode.entry(codes[i]).or_insert_with(|| {
                            used.push(Arc::clone(&dict[codes[i] as usize]));
                            used.len() as u32 - 1
                        })
                    })
                    .collect();
                Column::Str {
                    codes,
                    dict: used,
                    nulls: nulls(n),
                }
            }
            Column::Untyped(values) => Column::Untyped(at.map(|i| values[i].clone()).collect()),
            Column::Absent => Column::Absent,
        }
    }
}

/// Transpose column `c` of `range` under the typing rule of
/// [`ColumnBuilder`].
pub(crate) fn build_column(range: &[Row], c: usize) -> Column {
    Column::from_values(range.iter().map(|row| &row[c]), range.len())
}

/// Appends consecutive chunks into one: the rows of a run of pages, read as
/// one batch. Only the columns `needed` marks are appended, each page's
/// columns as soon as it is read, so the parts need not outlive their
/// [`push`](Self::push).
///
/// The result equals [`ColumnarChunk::from_rows`] over the parts' rows:
/// parts of one typed kind append their vectors, and a `Str` part's
/// dictionary is translated into the run's, in first-seen order, one lookup
/// per dictionary entry of the part (a string the run already holds costs
/// one hash and no reference-count traffic). Any other mix — an all-NULL
/// `Int` part next to a `Str` one, `Int` next to `Float`, an `Untyped`
/// part — keeps the values and types them with [`Column::from_values`].
pub struct ChunkConcat {
    len: usize,
    /// Rows the run will hold (the vectors' capacity).
    capacity: usize,
    /// Per column: its rows so far, or `None` where not needed.
    columns: Vec<Option<Concat>>,
}

/// One column of a [`ChunkConcat`].
enum Concat {
    /// No part yet.
    Empty,
    Int {
        vals: Vec<i64>,
        nulls: Vec<bool>,
    },
    Float {
        vals: Vec<f64>,
        nulls: Vec<bool>,
    },
    Str {
        codes: Vec<u32>,
        nulls: Vec<bool>,
        dict: Vec<Arc<str>>,
        lookup: HashMap<Arc<str>, u32, KeyBuildHasher>,
        /// The last part's code → run code.
        recode: Vec<u32>,
    },
    /// Parts of different kinds, or one with no typed form: their values.
    Values(Vec<Value>),
}

impl ChunkConcat {
    /// An empty run of the columns `needed` marks, for about `capacity`
    /// rows.
    pub fn new(needed: &[bool], capacity: usize) -> Self {
        ChunkConcat {
            len: 0,
            capacity,
            columns: needed.iter().map(|&c| c.then_some(Concat::Empty)).collect(),
        }
    }

    /// Append `part`'s rows.
    pub fn push(&mut self, part: &ColumnarChunk) {
        for (c, col) in self.columns.iter_mut().enumerate() {
            if let Some(col) = col {
                col.push(part.column(c), part.len(), self.len, self.capacity);
            }
        }
        self.len += part.len();
    }

    /// The run as one chunk starting at row 0.
    pub fn finish(self) -> ColumnarChunk {
        let len = self.len;
        let columns = self.columns.into_iter();
        ColumnarChunk::from_shared(
            len,
            columns
                .map(|c| c.map(|c| Arc::new(c.finish(len))))
                .collect(),
        )
    }
}

impl Concat {
    /// Append `part`, `n` rows, to this column of `len` rows.
    fn push(&mut self, part: &Column, n: usize, len: usize, capacity: usize) {
        if let Concat::Empty = self {
            *self = match part {
                Column::Int { .. } => Concat::Int {
                    vals: Vec::with_capacity(capacity),
                    nulls: Vec::with_capacity(capacity),
                },
                Column::Float { .. } => Concat::Float {
                    vals: Vec::with_capacity(capacity),
                    nulls: Vec::with_capacity(capacity),
                },
                Column::Str { .. } => Concat::Str {
                    codes: Vec::with_capacity(capacity),
                    nulls: Vec::with_capacity(capacity),
                    dict: Vec::new(),
                    lookup: HashMap::default(),
                    recode: Vec::new(),
                },
                Column::Absent | Column::Untyped(_) => Concat::Values(Vec::with_capacity(capacity)),
            };
        }
        match (&mut *self, part) {
            (Concat::Int { vals, nulls }, Column::Int { vals: v, nulls: m }) => {
                vals.extend_from_slice(v);
                nulls.extend_from_slice(m);
            }
            (Concat::Float { vals, nulls }, Column::Float { vals: v, nulls: m }) => {
                vals.extend_from_slice(v);
                nulls.extend_from_slice(m);
            }
            (
                Concat::Str {
                    codes,
                    nulls,
                    dict,
                    lookup,
                    recode,
                },
                Column::Str {
                    codes: c,
                    dict: d,
                    nulls: m,
                },
            ) => {
                recode.clear();
                recode.extend(d.iter().map(|s| match lookup.get(&**s) {
                    Some(&code) => code,
                    None => {
                        let code = dict.len() as u32;
                        dict.push(Arc::clone(s));
                        lookup.insert(Arc::clone(s), code);
                        code
                    }
                }));
                // A NULL's code is 0, as `ColumnBuilder` writes it; masked,
                // not branched on.
                codes.extend(c.iter().zip(m).map(|(&c, &null)| {
                    recode.get(c as usize).copied().unwrap_or(0) * u32::from(!null)
                }));
                nulls.extend_from_slice(m);
            }
            (Concat::Values(values), part) => {
                values.extend((0..n).map(|i| part.value(i).unwrap_or(Value::Null)));
            }
            (typed, part) => {
                let col = std::mem::replace(typed, Concat::Empty).finish(len);
                let mut values = Vec::with_capacity(capacity.max(len + n));
                values.extend((0..len).map(|i| col.value(i).unwrap_or(Value::Null)));
                *typed = Concat::Values(values);
                typed.push(part, n, len, capacity);
            }
        }
    }

    fn finish(self, len: usize) -> Column {
        match self {
            Concat::Empty => Column::from_values(std::iter::empty(), 0),
            Concat::Int { vals, nulls } => Column::Int { vals, nulls },
            Concat::Float { vals, nulls } => Column::Float { vals, nulls },
            Concat::Str {
                codes, nulls, dict, ..
            } => Column::Str { codes, dict, nulls },
            Concat::Values(values) => Column::from_values(&values, len),
        }
    }
}

/// Builds one [`Column`] value by value under the data-driven typing rule of
/// [`ColumnarChunk::from_rows`]: the first non-NULL value picks the type, a
/// range of only NULLs is a fully null `Int` column, and a value of another
/// type — or a boolean or `ALL` — makes the column `Untyped`. Both the
/// transposition of resident rows and the page encoder (`pager`) type their
/// columns here, so a page's chunk equals the transposition of its rows.
///
/// A `Str` column is coded by a dictionary keyed by the borrowed string, so
/// a value already seen costs one hash and no reference-count traffic; only
/// a new entry is cloned.
pub(crate) struct ColumnBuilder<'a> {
    state: Build<'a>,
    /// Rows the column will hold (the typed vectors' capacity).
    capacity: usize,
}

enum Build<'a> {
    /// Only NULLs so far: this many.
    Nulls(usize),
    Int {
        vals: Vec<i64>,
        nulls: Vec<bool>,
    },
    Float {
        vals: Vec<f64>,
        nulls: Vec<bool>,
    },
    Str {
        codes: Vec<u32>,
        nulls: Vec<bool>,
        dict: Vec<Arc<str>>,
        lookup: HashMap<&'a str, u32, KeyBuildHasher>,
    },
    /// No typed form; its values.
    Untyped(Vec<Value>),
}

impl<'a> ColumnBuilder<'a> {
    pub(crate) fn new(capacity: usize) -> Self {
        ColumnBuilder {
            state: Build::Nulls(0),
            capacity,
        }
    }

    /// `k` leading NULLs of a typed column (value slots zeroed).
    fn leading_nulls<T: Clone>(&self, k: usize, zero: T) -> (Vec<T>, Vec<bool>) {
        let mut vals = Vec::with_capacity(self.capacity);
        vals.resize(k, zero);
        let mut nulls = Vec::with_capacity(self.capacity);
        nulls.resize(k, true);
        (vals, nulls)
    }

    #[inline]
    pub(crate) fn push_value(&mut self, v: &'a Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int(i) => self.push_int(*i),
            Value::Float(x) => self.push_float(*x),
            Value::Str(s) => self.push_str(s),
            Value::Bool(_) | Value::All => self.push_untyped(v.clone()),
        }
    }

    #[inline]
    fn push_null(&mut self) {
        match &mut self.state {
            Build::Nulls(k) => *k += 1,
            Build::Int { vals, nulls } => {
                vals.push(0);
                nulls.push(true);
            }
            Build::Float { vals, nulls } => {
                vals.push(0.0);
                nulls.push(true);
            }
            Build::Str { codes, nulls, .. } => {
                codes.push(0);
                nulls.push(true);
            }
            Build::Untyped(values) => values.push(Value::Null),
        }
    }

    #[inline]
    fn push_int(&mut self, v: i64) {
        match &mut self.state {
            Build::Int { vals, nulls } => {
                vals.push(v);
                nulls.push(false);
            }
            &mut Build::Nulls(k) => {
                let (mut vals, mut nulls) = self.leading_nulls(k, 0);
                vals.push(v);
                nulls.push(false);
                self.state = Build::Int { vals, nulls };
            }
            _ => self.push_untyped(Value::Int(v)),
        }
    }

    #[inline]
    fn push_float(&mut self, v: f64) {
        match &mut self.state {
            Build::Float { vals, nulls } => {
                vals.push(v);
                nulls.push(false);
            }
            &mut Build::Nulls(k) => {
                let (mut vals, mut nulls) = self.leading_nulls(k, 0.0);
                vals.push(v);
                nulls.push(false);
                self.state = Build::Float { vals, nulls };
            }
            _ => self.push_untyped(Value::Float(v)),
        }
    }

    #[inline]
    fn push_str(&mut self, s: &'a Arc<str>) {
        if let Build::Nulls(k) = self.state {
            let (codes, nulls) = self.leading_nulls(k, 0u32);
            self.state = Build::Str {
                codes,
                nulls,
                dict: Vec::new(),
                lookup: HashMap::default(),
            };
        }
        match &mut self.state {
            Build::Str {
                codes,
                nulls,
                dict,
                lookup,
            } => {
                let code = *lookup.entry(s).or_insert_with(|| {
                    dict.push(Arc::clone(s));
                    (dict.len() - 1) as u32
                });
                codes.push(code);
                nulls.push(false);
            }
            _ => self.push_untyped(Value::Str(Arc::clone(s))),
        }
    }

    /// Push a value with no typed form here (a boolean, `ALL`, or one whose
    /// type conflicts with the column's): the column becomes untyped.
    fn push_untyped(&mut self, v: Value) {
        let value = |null: bool, v: Value| if null { Value::Null } else { v };
        let mut values: Vec<Value> = match std::mem::replace(&mut self.state, Build::Nulls(0)) {
            Build::Untyped(values) => values,
            Build::Nulls(k) => vec![Value::Null; k],
            Build::Int { vals, nulls } => (vals.into_iter().zip(nulls))
                .map(|(v, null)| value(null, Value::Int(v)))
                .collect(),
            Build::Float { vals, nulls } => (vals.into_iter().zip(nulls))
                .map(|(v, null)| value(null, Value::Float(v)))
                .collect(),
            Build::Str {
                codes, nulls, dict, ..
            } => (codes.into_iter().zip(nulls))
                .map(|(c, null)| value(null, Value::Str(dict[c as usize].clone())))
                .collect(),
        };
        values.reserve(self.capacity.saturating_sub(values.len()));
        values.push(v);
        self.state = Build::Untyped(values);
    }

    pub(crate) fn finish(self) -> Column {
        match self.state {
            // All-NULL ranges get a typed (but fully null) Int column so
            // numeric kernels still apply; NULL semantics are carried by the
            // bitmap.
            Build::Nulls(k) => Column::Int {
                vals: vec![0; k],
                nulls: vec![true; k],
            },
            Build::Int { vals, nulls } => Column::Int { vals, nulls },
            Build::Float { vals, nulls } => Column::Float { vals, nulls },
            Build::Str {
                codes, nulls, dict, ..
            } => Column::Str { codes, dict, nulls },
            Build::Untyped(values) => Column::Untyped(values),
        }
    }
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
        // Booleans have no typed representation: the column keeps them.
        match chunk.column(3) {
            Column::Untyped(values) => assert_eq!(
                values,
                &[Value::Bool(true), Value::Bool(false), Value::Bool(true)]
            ),
            other => panic!("expected Untyped column, got {other:?}"),
        }
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
        // Int + Float mix; ALL.
        let columns = [
            [Value::Int(1), Value::Float(2.0)],
            [Value::All, Value::Int(2)],
        ];
        for (c, want) in columns.iter().enumerate() {
            match chunk.column(c) {
                Column::Untyped(values) => assert_eq!(values, want),
                other => panic!("expected Untyped column, got {other:?}"),
            }
        }
        // Every materialized column answers for its rows.
        let mut row = vec![Value::Null; 2];
        chunk.row_into(1, &[0, 1], &mut row);
        assert_eq!(row, rows[1].values());
    }

    #[test]
    fn a_kept_column_that_falls_back_keeps_every_value() {
        let values = [
            Value::Null,
            Value::str("x"),
            Value::Null,
            Value::str("x"),
            Value::Int(4),
            Value::Bool(true),
        ];
        match Column::from_values(&values, values.len()) {
            Column::Untyped(back) => assert_eq!(back, values),
            other => panic!("expected Untyped values, got {other:?}"),
        }
    }

    #[test]
    fn leading_nulls_then_strings_code_in_first_seen_order() {
        let values = [
            Value::Null,
            Value::Null,
            Value::str("b"),
            Value::str("a"),
            Value::str("b"),
        ];
        let mut col = ColumnBuilder::new(5);
        for v in &values {
            col.push_value(v);
        }
        match col.finish() {
            Column::Str { codes, dict, nulls } => {
                assert_eq!(codes, [0, 0, 0, 1, 0]);
                assert_eq!(dict, [Arc::from("b"), Arc::from("a")]);
                assert_eq!(nulls, [true, true, false, false, false]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
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

    /// A gather holds the rows asked for, in that order and repeated as
    /// asked, and a `Str` column's dictionary only the strings they use.
    #[test]
    fn gather_keeps_the_rows_asked_for_and_only_their_strings() {
        let values = [
            Value::str("NY"),
            Value::Null,
            Value::str("CA"),
            Value::str("TX"),
            Value::str("NY"),
        ];
        let col = Column::from_values(&values, values.len());
        let at = [4, 1, 4, 2];
        let got = col.gather(at.iter().copied());
        for (k, &i) in at.iter().enumerate() {
            assert_eq!(got.value(k), col.value(i), "row {k}");
        }
        match got {
            Column::Str { dict, .. } => assert_eq!(dict, [Arc::from("NY"), Arc::from("CA")]),
            other => panic!("expected Str column, got {other:?}"),
        }
        let ints = Column::from_values(&[Value::Int(7), Value::Null, Value::Int(-1)], 3);
        let got = ints.gather([2, 0, 1].into_iter());
        let want = [Value::Int(-1), Value::Int(7), Value::Null];
        for (k, v) in want.iter().enumerate() {
            assert_eq!(got.value(k).as_ref(), Some(v), "row {k}");
        }
        let mixed = Column::from_values(&[Value::Int(1), Value::Float(1.0)], 2);
        match mixed.gather([1, 1].into_iter()) {
            Column::Untyped(values) => assert_eq!(values, [Value::Float(1.0), Value::Float(1.0)]),
            other => panic!("expected Untyped column, got {other:?}"),
        }
    }
}
