//! In-memory relations (multisets of rows with a schema).

use crate::columnar::{build_column, Column, ColumnarChunk};
use crate::error::{Result, StorageError};
use crate::hash::KeyBuildHasher;
use crate::row::Row;
use crate::schema::Schema;
use crate::stats::{Counter, ScanStats};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An in-memory relation: a schema plus a multiset of rows.
///
/// Relations are the single exchange format between every operator in the
/// reproduction: base-values tables `B`, detail tables `R`, and MD-join outputs
/// are all `Relation`s, exactly as in the paper ("the base values table B as
/// well as the relation R can be the result of a relational algebra
/// expression").
///
/// A relation also keeps the columnar form of its rows, as the batch
/// evaluator reads them ([`chunk`](Self::chunk)): each column of each chunk
/// is transposed once, on the first scan that reads it, and shared by every
/// later scan, clone included. Two relations are equal when their schemas
/// and rows are; what either has cached does not count.
#[derive(Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Row>,
    columns: ColumnCache,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Self::from_rows(schema, Vec::new())
    }

    /// Build from parts without validation (rows are trusted).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        Relation {
            schema,
            rows,
            columns: ColumnCache::default(),
        }
    }

    /// Build from parts, validating every row's arity and column types.
    pub fn try_new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for row in &rows {
            Self::validate_row(&schema, row)?;
        }
        Ok(Self::from_rows(schema, rows))
    }

    fn validate_row(schema: &Schema, row: &Row) -> Result<()> {
        if row.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                got: row.len(),
            });
        }
        for (i, v) in row.values().iter().enumerate() {
            let field = schema.field(i);
            if !field.dtype.admits(v) {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.to_string(),
                    got: v.type_name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Append a row, validating it against the schema.
    pub fn push(&mut self, row: Row) -> Result<()> {
        Self::validate_row(&self.schema, &row)?;
        self.columns.clear();
        self.rows.push(row);
        Ok(())
    }

    /// Append a row without validation.
    pub fn push_unchecked(&mut self, row: Row) {
        self.columns.clear();
        self.rows.push(row);
    }

    /// Append rows without validation, keeping the cached columns of every
    /// chunk the old rows fill: only the tail chunk is transposed again.
    pub fn extend_rows(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.columns.keep_full_chunks(self.rows.len());
        self.rows.extend(rows);
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The rows, for any edit; drops the cached columns.
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        self.columns.clear();
        &mut self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Chunk `idx` of this relation's grid of `morsel`-row chunks in
    /// columnar form, holding the `needed` columns only (the rest
    /// [`Column::Absent`]), its first row at index 0: equal, column by
    /// column, to [`ColumnarChunk::from_rows`] over the same rows.
    ///
    /// A column is transposed on the first request that needs it, counted
    /// as `columns_transposed` on `stats`, and kept: later requests share
    /// it. A request under another `morsel` replaces the whole cache.
    ///
    /// Columns are transposed under the relation's lock, so scans racing
    /// over a cold relation build each column once rather than each a copy.
    /// A slot is filled only with a finished column: a panic mid-way leaves
    /// the slot empty, and the poisoned lock is recovered.
    pub fn chunk(
        &self,
        idx: usize,
        morsel: usize,
        needed: &[bool],
        stats: Option<&ScanStats>,
    ) -> ColumnarChunk {
        let morsel = morsel.max(1);
        let start = idx * morsel;
        let range = &self.rows[start..(start + morsel).min(self.rows.len())];
        let mut grid = self.columns.lock();
        let cached = grid.chunk(morsel, idx, needed.len());
        let columns = needed
            .iter()
            .zip(cached.iter_mut())
            .enumerate()
            .map(|(c, (&want, slot))| {
                want.then(|| {
                    let col = slot.get_or_insert_with(|| {
                        let col = Arc::new(build_column(range, c));
                        if let Some(s) = stats {
                            s.count(Counter::columns_transposed, 1);
                        }
                        col
                    });
                    Arc::clone(col)
                })
            })
            .collect();
        ColumnarChunk::from_shared(range.len(), columns)
    }

    /// Column index lookup, delegated to the schema.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Project to the named columns (duplicates allowed, order preserved).
    pub fn project(&self, names: &[&str]) -> Result<Relation> {
        let idx = self.schema.indices_of(names)?;
        let schema = self.schema.project(&idx);
        let rows = self.rows.iter().map(|r| Row::new(r.key(&idx))).collect();
        Ok(Self::from_rows(schema, rows))
    }

    /// `SELECT DISTINCT` over the named columns — the paper's canonical way of
    /// building a group-by base-values table (`select distinct cust from Sales`).
    /// Rows come out in first-seen order.
    pub fn distinct_on(&self, names: &[&str]) -> Result<Relation> {
        let idx = self.schema.indices_of(names)?;
        let mut distinct = DistinctKeys::default();
        for r in &self.rows {
            distinct.offer(idx.iter().map(|&c| &r[c]));
        }
        Ok(Self::from_rows(
            self.schema.project(&idx),
            distinct.into_rows(),
        ))
    }

    /// Remove duplicate rows (full-row distinct).
    pub fn distinct(&self) -> Relation {
        let mut seen: HashSet<Row> = HashSet::new();
        let mut rows = Vec::new();
        for r in &self.rows {
            if seen.insert(r.clone()) {
                rows.push(r.clone());
            }
        }
        Self::from_rows(self.schema.clone(), rows)
    }

    /// Filter by a row predicate.
    pub fn filter(&self, mut pred: impl FnMut(&Row) -> bool) -> Relation {
        Self::from_rows(
            self.schema.clone(),
            self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        )
    }

    /// Multiset union with an identically-shaped relation (Theorem 4.1 glue).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        let mut out = self.clone();
        out.append(other)?;
        Ok(out)
    }

    /// [`union`](Self::union) in place: append `other`'s rows to this
    /// relation.
    pub fn append(&mut self, other: &Relation) -> Result<()> {
        if self.schema.len() != other.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                got: other.schema.len(),
            });
        }
        self.columns.clear();
        self.rows.extend(other.rows.iter().cloned());
        Ok(())
    }

    /// In-place stable sort by the named columns (ascending, total order).
    pub fn sort_by(&mut self, names: &[&str]) -> Result<()> {
        let idx = self.schema.indices_of(names)?;
        self.columns.clear();
        self.rows.sort_by_key(|row| row.key(&idx));
        Ok(())
    }

    /// Copy with a qualified schema (`alias.column` names).
    pub fn with_alias(&self, alias: &str) -> Relation {
        Self::from_rows(self.schema.qualify(alias), self.rows.clone())
    }

    /// Replace the schema (must have the same arity). Used by renaming steps.
    pub fn with_schema(&self, schema: Schema) -> Result<Relation> {
        if schema.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                got: schema.len(),
            });
        }
        Ok(Self::from_rows(schema, self.rows.clone()))
    }

    /// Compare as unordered multisets (test helper: operator outputs are
    /// order-insensitive).
    pub fn same_multiset(&self, other: &Relation) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.rows.clone();
        let mut b = other.rows.clone();
        a.sort();
        b.sort();
        a == b
    }

    /// Multiset comparison with relative float tolerance. Needed when the
    /// same aggregate is computed by plans that sum floats in different
    /// orders (e.g. a roll-up chain vs a direct scan): the results are
    /// mathematically equal but not bit-identical.
    pub fn approx_same_multiset(&self, other: &Relation, eps: f64) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.rows.clone();
        let mut b = other.rows.clone();
        a.sort();
        b.sort();
        a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, w)| match (u, w) {
                        (Value::Float(p), Value::Float(q)) => {
                            let scale = p.abs().max(q.abs()).max(1.0);
                            (p - q).abs() <= eps * scale
                        }
                        _ => u == w,
                    })
        })
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
    }
}

/// A relation's columnar form: per chunk of a `morsel`-row grid, per column,
/// the transposed column once some scan has read it. Its bytes belong to the
/// table as its rows do, and are not charged to any query's memory budget.
#[derive(Default)]
struct ColumnCache(Mutex<CachedGrid>);

#[derive(Clone, Default)]
struct CachedGrid {
    /// Rows per chunk of the cached grid.
    morsel: usize,
    /// Per chunk: per column, the column if transposed.
    chunks: Vec<Vec<Option<Arc<Column>>>>,
}

impl CachedGrid {
    /// The slots of chunk `idx` of the `morsel`-row grid, `width` columns
    /// wide; a grid of another `morsel` is dropped first.
    fn chunk(&mut self, morsel: usize, idx: usize, width: usize) -> &mut Vec<Option<Arc<Column>>> {
        if self.morsel != morsel {
            *self = CachedGrid {
                morsel,
                chunks: Vec::new(),
            };
        }
        if self.chunks.len() <= idx {
            self.chunks.resize_with(idx + 1, Vec::new);
        }
        let slots = &mut self.chunks[idx];
        if slots.len() < width {
            slots.resize(width, None);
        }
        slots
    }
}

impl ColumnCache {
    /// The grid. A lock poisoned by a panicking transposition still guards
    /// only finished columns.
    fn lock(&self) -> MutexGuard<'_, CachedGrid> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn grid(&mut self) -> &mut CachedGrid {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn clear(&mut self) {
        self.grid().chunks.clear();
    }

    /// Keep only the chunks that the first `rows` rows fill completely.
    fn keep_full_chunks(&mut self, rows: usize) {
        let grid = self.grid();
        if let Some(full) = rows.checked_div(grid.morsel) {
            grid.chunks.truncate(full);
        }
    }
}

impl Clone for ColumnCache {
    /// Shares every cached column: a copy-on-write append onto a cloned
    /// relation keeps every chunk the old rows fill.
    fn clone(&self) -> Self {
        ColumnCache(Mutex::new(self.lock().clone()))
    }
}

/// First-seen distinct key tuples: the one dedupe behind every base-values
/// build ([`Relation::distinct_on`] and the grouping-set builders of
/// `mdj_core::basevalues`).
///
/// [`offer`](Self::offer) looks a key up through a reused scratch of borrowed
/// values, so a pass over `n` rows with `g` distinct keys clones values and
/// allocates only for the `g` new groups — no per-row allocation, and no
/// reference-count traffic on the strings of a table that concurrent
/// queries share. Keys hash with [`KeyBuildHasher`], the hasher
/// [`HashIndex`](crate::HashIndex) probes the same keys with.
#[derive(Default)]
pub struct DistinctKeys<'v> {
    seen: HashSet<OwnedKey, KeyBuildHasher>,
    scratch: Vec<&'v Value>,
    rows: Vec<Row>,
}

impl<'v> DistinctKeys<'v> {
    /// Keep `key` as a new output row unless an equal key was offered before.
    pub fn offer(&mut self, key: impl IntoIterator<Item = &'v Value>) {
        self.scratch.clear();
        self.scratch.extend(key);
        if !self.seen.contains(&self.scratch as &dyn KeyView) {
            let owned: Vec<Value> = self.scratch.iter().map(|&v| v.clone()).collect();
            self.rows.push(Row::new(owned.clone()));
            self.seen.insert(OwnedKey(owned));
        }
    }

    /// The distinct keys, one row each, in first-seen order.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

/// A key tuple read column by column, whether owned or borrowed, so the
/// dedupe set can be probed without building an owned key.
trait KeyView {
    fn width(&self) -> usize;
    fn at(&self, i: usize) -> &Value;
}

impl KeyView for Vec<&Value> {
    fn width(&self) -> usize {
        self.len()
    }
    fn at(&self, i: usize) -> &Value {
        self[i]
    }
}

impl KeyView for Vec<Value> {
    fn width(&self) -> usize {
        self.len()
    }
    fn at(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for i in 0..self.width() {
            self.at(i).hash(state);
        }
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width() && (0..self.width()).all(|i| self.at(i) == other.at(i))
    }
}

impl Eq for dyn KeyView + '_ {}

/// A stored key; hashes and compares exactly as its [`KeyView`].
struct OwnedKey(Vec<Value>);

impl<'a> Borrow<dyn KeyView + 'a> for OwnedKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        &self.0
    }
}

impl Hash for OwnedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.0 as &dyn KeyView).hash(state);
    }
}

impl PartialEq for OwnedKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for OwnedKey {}

impl fmt::Display for Relation {
    /// Render as an aligned ASCII table (used by the examples and the harness).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|fl| fl.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        write_sep(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:w$} |")?;
        }
        writeln!(f)?;
        write_sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)?;
        }
        write_sep(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::try_new(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NJ"), Value::Float(20.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("NY"), Value::Float(30.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(40.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn try_new_validates_types() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let bad = Relation::try_new(schema.clone(), vec![Row::from_values(["oops"])]);
        assert!(matches!(bad, Err(StorageError::TypeMismatch { .. })));
        let ok = Relation::try_new(schema, vec![Row::from_values([1i64])]);
        assert!(ok.is_ok());
    }

    #[test]
    fn push_validates_arity() {
        let mut r = rel();
        let e = r.push(Row::from_values([1i64]));
        assert!(matches!(e, Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn distinct_on_builds_base_values() {
        let b = rel().distinct_on(&["cust"]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.schema().names(), vec!["cust"]);
    }

    #[test]
    fn distinct_on_two_columns() {
        let b = rel().distinct_on(&["cust", "state"]).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn project_allows_duplicates_and_reorder() {
        let p = rel().project(&["sale", "cust", "sale"]).unwrap();
        assert_eq!(p.schema().names(), vec!["sale", "cust", "sale"]);
        assert_eq!(p.rows()[0][0], Value::Float(10.0));
        assert_eq!(p.rows()[0][2], Value::Float(10.0));
    }

    #[test]
    fn union_concatenates_multisets() {
        let r = rel();
        let u = r.union(&r).unwrap();
        assert_eq!(u.len(), 8);
    }

    #[test]
    fn sort_by_orders_rows() {
        let mut r = rel();
        r.sort_by(&["state", "sale"]).unwrap();
        assert_eq!(r.rows()[0][1], Value::str("NJ"));
        assert_eq!(r.rows()[1][2], Value::Float(10.0));
    }

    #[test]
    fn same_multiset_ignores_order() {
        let mut r2 = rel();
        r2.rows_mut().reverse();
        assert!(rel().same_multiset(&r2));
        let mut r3 = rel();
        r3.rows_mut().pop();
        assert!(!rel().same_multiset(&r3));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let f = rel().filter(|r| r[1] == Value::str("NY"));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn display_renders_table() {
        let s = rel().to_string();
        assert!(s.contains("cust"));
        assert!(s.contains("NY"));
        assert!(s.starts_with('+'));
    }

    #[test]
    fn with_alias_qualifies_names() {
        let r = rel().with_alias("Sales");
        assert_eq!(r.schema().field(0).name, "Sales.cust");
        assert_eq!(r.col("sale").unwrap(), 2);
    }
}
