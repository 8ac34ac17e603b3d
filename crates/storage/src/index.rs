//! Indexes over relations.
//!
//! * [`KeyIndex`] — the one structure that resolves an equality key to its
//!   rows. Section 4.5 indexes `B` on θ's equality bindings so that a
//!   scanned detail tuple `t` finds its *relative set* `Rel(t)` without
//!   scanning all of `B`; and for a group-by base, "`B` is the distinct keys
//!   of its dims" (Gray et al.) makes the distinct-key set that builds `B`
//!   the same structure. So one `KeyIndex` is the probe index of
//!   `mdj_core`'s `ProbePlan`, the group table of a scan that builds `B`,
//!   the dedupe of every base-values build, and a maintained cuboid's group
//!   index.
//! * [`SortedIndex`] — a clustered-order index used by Theorem 4.2 / Example
//!   4.1: range predicates pushed into the detail table scan only the matching
//!   run of tuples (our stand-in for a clustered disk index).
//! * [`HashIndex`] — a `Vec<Value>`-keyed map behind the relational joins of
//!   the reference implementation (`mdj_naive`), which shares no index code
//!   with the engine it checks.

use crate::hash::KeyBuildHasher;
use crate::relation::Relation;
use crate::value::Value;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Bound;

/// The key of the pair (`prefix`, `code`) in a pair-chaining map: as
/// injective as packing the two halves into a `u64`, but spread over all
/// its bits. [`KeyBuildHasher`] multiplies, so a hash's low bits, which pick
/// the bucket, see only the key's low bits; packed as `prefix << 32 | code`,
/// every prefix would share its code's few buckets.
#[inline]
pub fn pair_key(prefix: u32, code: u32) -> u64 {
    (u64::from(prefix) << 32 | u64::from(code))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(32)
}

/// Equality index from key tuples to rows, resolved through per-column
/// codes: no key is ever hashed as a row.
///
/// Each key column numbers its distinct components in a dictionary of its
/// own (`Int` components in an `i64` map, any other value in a [`Value`]
/// map), densely in first-seen order. A key's first `j + 1` components then
/// have one code of their own: the first column's code, and for each further
/// column the code that `links[j - 1]` gives the pair (code of the first `j`
/// components, code of column `j`), packed by [`pair_key`]. A full key's
/// code numbers the distinct keys densely in first-seen order, and names a
/// bucket of rows (compressed sparse rows).
///
/// Keys compare as [`Value`]'s `Eq` does: `1` and `1.0` are two keys, as are
/// `0.0` and `-0.0`. A probe index that must find `1.0` with `1` is built
/// from keys canonicalized as its probe keys are.
///
/// Two ways to fill one:
/// * [`from_keys`](Self::from_keys) indexes the rows of a prebuilt `B`,
///   which may repeat a key: a bucket lists every row of its key in order;
/// * [`insert`](Self::insert) grows a table of distinct keys, one row per
///   key in insertion order: a new key's number is its row, and its bucket
///   is that one row.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Per key column: component → code.
    dicts: Vec<Dict>,
    /// `links[j]`: [`pair_key`]`(code of the first j + 1 components, code of
    /// column j + 1)` → code of the first `j + 2` components.
    links: Vec<HashMap<u64, u32, KeyBuildHasher>>,
    /// Number of distinct keys.
    keys: usize,
    /// Key `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    rows: Vec<usize>,
    /// Reused column codes of the key being resolved.
    scratch: Vec<u32>,
}

/// One key column's dictionary: codes shared by its two maps.
#[derive(Debug, Clone, Default)]
struct Dict {
    ints: HashMap<i64, u32, KeyBuildHasher>,
    others: HashMap<Value, u32, KeyBuildHasher>,
}

impl Dict {
    #[inline]
    fn get(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Int(i) => self.ints.get(i).copied(),
            v => self.others.get(v).copied(),
        }
    }

    #[inline]
    fn get_or_insert(&mut self, v: &Value) -> u32 {
        let next = (self.ints.len() + self.others.len()) as u32;
        match v {
            Value::Int(i) => *self.ints.entry(*i).or_insert(next),
            v => match self.others.get(v) {
                Some(&code) => code,
                None => {
                    self.others.insert(v.clone(), next);
                    next
                }
            },
        }
    }
}

impl KeyIndex {
    /// An empty index over keys of `width` components.
    pub fn new(width: usize) -> KeyIndex {
        KeyIndex {
            dicts: vec![Dict::default(); width],
            links: vec![HashMap::default(); width.saturating_sub(1)],
            keys: 0,
            starts: vec![0],
            rows: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Index rows by precomputed keys of `width` components: the `i`-th key
    /// is row `i`'s. Lets a caller index *transformed* keys (e.g.
    /// canonicalized ones) without a shadow copy of the relation.
    pub fn from_keys<K, V>(width: usize, keys: impl IntoIterator<Item = K>) -> KeyIndex
    where
        K: IntoIterator<Item = V>,
        V: Borrow<Value>,
    {
        let mut index = KeyIndex::new(width);
        let of_row: Vec<u32> = keys.into_iter().map(|key| index.insert(key).0).collect();
        let mut starts = vec![0u32; index.keys + 1];
        for &k in &of_row {
            starts[k as usize + 1] += 1;
        }
        for k in 0..index.keys {
            starts[k + 1] += starts[k];
        }
        let mut fill = starts.clone();
        let mut rows = vec![0; of_row.len()];
        for (row, &k) in of_row.iter().enumerate() {
            rows[fill[k as usize] as usize] = row;
            fill[k as usize] += 1;
        }
        index.starts = starts;
        index.rows = rows;
        index
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys
    }

    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Column `j`'s code for the component `v`, if any key holds it there.
    #[inline]
    pub fn code(&self, j: usize, v: &Value) -> Option<u32> {
        self.dicts[j].get(v)
    }

    /// Column `j`'s code for the `Int` component `v`.
    #[inline]
    pub fn int_code(&self, j: usize, v: i64) -> Option<u32> {
        self.dicts[j].ints.get(&v).copied()
    }

    /// Column `j`'s code for the component `v`, numbered on first sight.
    /// The key it is part of must then be numbered too
    /// ([`find_or_insert`](Self::find_or_insert)): a one-column key's code
    /// is its column code.
    #[inline]
    pub fn code_or_insert(&mut self, j: usize, v: &Value) -> u32 {
        self.dicts[j].get_or_insert(v)
    }

    /// The key whose column codes are `codes`, if it is indexed.
    #[inline]
    pub fn find(&self, codes: &[u32]) -> Option<u32> {
        let mut id = codes.first().copied().unwrap_or(0);
        for (links, &code) in self.links.iter().zip(codes.iter().skip(1)) {
            id = *links.get(&pair_key(id, code))?;
        }
        ((id as usize) < self.keys).then_some(id)
    }

    /// The key whose column codes are `codes`, and whether it is new: a new
    /// key takes the next number.
    #[inline]
    pub fn find_or_insert(&mut self, codes: &[u32]) -> (u32, bool) {
        let mut id = codes.first().copied().unwrap_or(0);
        for (links, &code) in self.links.iter_mut().zip(codes.iter().skip(1)) {
            let fresh = links.len() as u32;
            id = *links.entry(pair_key(id, code)).or_insert(fresh);
        }
        debug_assert!(id as usize <= self.keys, "key codes are dense");
        let new = id as usize == self.keys;
        self.keys += usize::from(new);
        (id, new)
    }

    /// The number of `key`, and whether it is new. A new key is the next row
    /// of the table this index grows: its bucket is that one row.
    pub fn insert<V: Borrow<Value>>(&mut self, key: impl IntoIterator<Item = V>) -> (u32, bool) {
        let mut codes = std::mem::take(&mut self.scratch);
        codes.clear();
        for (j, v) in key.into_iter().enumerate() {
            codes.push(self.code_or_insert(j, v.borrow()));
        }
        let (id, new) = self.find_or_insert(&codes);
        self.scratch = codes;
        if new {
            self.rows.push(id as usize);
            self.starts.push(self.rows.len() as u32);
        }
        (id, new)
    }

    /// The rows of key `key` (a number this index gave).
    #[inline]
    pub fn rows(&self, key: u32) -> &[usize] {
        let k = key as usize;
        &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// Equality (hash) index from key-column values to row positions, for the
/// reference implementation's joins.
#[derive(Debug, Clone)]
pub struct HashIndex {
    map: HashMap<Vec<Value>, Vec<usize>, KeyBuildHasher>,
}

impl HashIndex {
    /// Build keyed on named columns.
    pub fn build_on(relation: &Relation, names: &[&str]) -> crate::Result<Self> {
        let key_cols = relation.schema().indices_of(names)?;
        let mut map: HashMap<Vec<Value>, Vec<usize>, KeyBuildHasher> =
            HashMap::with_capacity_and_hasher(relation.len(), KeyBuildHasher::default());
        for (i, row) in relation.iter().enumerate() {
            map.entry(row.key(&key_cols)).or_default().push(i);
        }
        Ok(HashIndex { map })
    }

    /// Row positions whose key equals `key` (empty slice if none).
    pub fn get(&self, key: &[Value]) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Sorted-order (clustered) index: a permutation of row ids ordered by the key
/// columns, supporting range lookups by binary search.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    key_cols: Vec<usize>,
    /// Row ids sorted by key.
    order: Vec<usize>,
    /// Keys aligned with `order` (kept for binary search without re-extraction).
    keys: Vec<Vec<Value>>,
}

impl SortedIndex {
    /// Build over `relation` keyed on the columns at `key_cols`.
    pub fn build(relation: &Relation, key_cols: &[usize]) -> Self {
        let mut pairs: Vec<(Vec<Value>, usize)> = relation
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key(key_cols), i))
            .collect();
        pairs.sort();
        let (keys, order) = pairs.into_iter().unzip();
        SortedIndex {
            key_cols: key_cols.to_vec(),
            order,
            keys,
        }
    }

    /// Build keyed on named columns.
    pub fn build_on(relation: &Relation, names: &[&str]) -> crate::Result<Self> {
        let idx = relation.schema().indices_of(names)?;
        Ok(Self::build(relation, &idx))
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids whose (full) key equals `key`.
    pub fn equal(&self, key: &[Value]) -> &[usize] {
        let lo = self.keys.partition_point(|k| k.as_slice() < key);
        let hi = self.keys.partition_point(|k| k.as_slice() <= key);
        &self.order[lo..hi]
    }

    /// Row ids whose key lies within the given bounds on the *first* key
    /// column (the common clustered-range case, e.g. `year BETWEEN 1994 AND
    /// 1996`). Bounds use the total order of [`Value`].
    pub fn range_first(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> &[usize] {
        let lo = match lower {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.keys.partition_point(|k| &k[0] < v),
            Bound::Excluded(v) => self.keys.partition_point(|k| &k[0] <= v),
        };
        let hi = match upper {
            Bound::Unbounded => self.keys.len(),
            Bound::Included(v) => self.keys.partition_point(|k| &k[0] <= v),
            Bound::Excluded(v) => self.keys.partition_point(|k| &k[0] < v),
        };
        if lo >= hi {
            &[]
        } else {
            &self.order[lo..hi]
        }
    }

    /// Row ids in sorted-key order (a clustered scan).
    pub fn scan(&self) -> &[usize] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::{DataType, Schema};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[("year", DataType::Int), ("sale", DataType::Int)]);
        let rows = vec![
            Row::from_values([1999i64, 10]),
            Row::from_values([1994i64, 20]),
            Row::from_values([1996i64, 30]),
            Row::from_values([1994i64, 40]),
            Row::from_values([1998i64, 50]),
        ];
        Relation::from_rows(schema, rows)
    }

    /// The number of `key` in `ix`, looked up as a probe does: each
    /// component's column code, then the chain of codes.
    fn lookup<'v>(ix: &KeyIndex, key: impl IntoIterator<Item = &'v Value>) -> Option<u32> {
        let codes: Option<Vec<u32>> = key
            .into_iter()
            .enumerate()
            .map(|(j, v)| ix.code(j, v))
            .collect();
        ix.find(&codes?)
    }

    #[test]
    fn hash_index_groups_row_ids() {
        let r = rel();
        let ix = HashIndex::build_on(&r, &["year"]).unwrap();
        assert_eq!(ix.get(&[Value::Int(1994)]), &[1, 3]);
        assert_eq!(ix.get(&[Value::Int(2001)]), &[] as &[usize]);
    }

    #[test]
    fn key_index_buckets_list_every_row_of_a_repeated_key() {
        let r = rel();
        let ix = KeyIndex::from_keys(1, r.iter().map(|row| [&row[0]]));
        assert_eq!(ix.len(), 4);
        let k = lookup(&ix, &[Value::Int(1994)]).unwrap();
        assert_eq!(ix.rows(k), &[1, 3]);
        assert_eq!(lookup(&ix, &[Value::Int(2001)]), None);
        let total: usize = (0..ix.len() as u32).map(|k| ix.rows(k).len()).sum();
        assert_eq!(total, r.len());
        // Keys are numbered in first-seen order.
        assert_eq!(lookup(&ix, &[Value::Int(1999)]), Some(0));
        assert_eq!(ix.rows(0), &[0]);
    }

    #[test]
    fn key_index_is_exact_on_value_eq() {
        let comps = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Null,
            Value::All,
            Value::str("1"),
        ];
        let mut ix = KeyIndex::new(2);
        for a in &comps {
            for b in &comps {
                assert!(ix.insert([a, b]).1, "{a:?}, {b:?} is a new key");
            }
        }
        assert_eq!(ix.len(), comps.len() * comps.len());
        for (i, a) in comps.iter().enumerate() {
            for (j, b) in comps.iter().enumerate() {
                let k = (i * comps.len() + j) as u32;
                assert_eq!(lookup(&ix, [a, b]), Some(k));
                assert_eq!(ix.insert([a, b]), (k, false));
                // A grown table's bucket is the key's own row.
                assert_eq!(ix.rows(k), &[k as usize]);
            }
        }
        assert_eq!(lookup(&ix, &[Value::Int(2), Value::Int(1)]), None);
    }

    #[test]
    fn key_index_codes_chain_to_the_key_get_finds() {
        let mut ix = KeyIndex::new(3);
        let keys = [
            [Value::Int(1), Value::str("NY"), Value::Int(7)],
            [Value::Int(1), Value::str("NJ"), Value::Int(7)],
            [Value::Int(2), Value::str("NY"), Value::Int(i64::MIN)],
        ];
        for key in &keys {
            ix.insert(key);
        }
        for (k, key) in keys.iter().enumerate() {
            let codes: Vec<u32> = key
                .iter()
                .enumerate()
                .map(|(j, v)| ix.code(j, v).unwrap())
                .collect();
            assert_eq!(ix.find(&codes), Some(k as u32));
        }
        assert_eq!(ix.int_code(2, i64::MIN), ix.code(2, &Value::Int(i64::MIN)));
        // Every component is known, but not together.
        let codes = [
            ix.code(0, &Value::Int(2)).unwrap(),
            ix.code(1, &Value::str("NJ")).unwrap(),
            ix.code(2, &Value::Int(7)).unwrap(),
        ];
        assert_eq!(ix.find(&codes), None);
        // A component no key holds in its column has no code.
        assert_eq!(ix.code(1, &Value::Int(1)), None);
        assert_eq!(ix.code(0, &Value::str("NY")), None);
    }

    #[test]
    fn an_empty_key_is_one_key() {
        let mut ix = KeyIndex::new(0);
        assert_eq!(ix.find(&[]), None);
        assert_eq!(ix.insert(std::iter::empty::<Value>()), (0, true));
        assert_eq!(ix.insert(std::iter::empty::<Value>()), (0, false));
        assert_eq!(ix.find(&[]), Some(0));
        let ix = KeyIndex::from_keys(0, (0..3).map(|_| std::iter::empty::<Value>()));
        assert_eq!(ix.rows(0), &[0, 1, 2]);
    }

    #[test]
    fn sorted_index_equal_lookup() {
        let r = rel();
        let ix = SortedIndex::build_on(&r, &["year"]).unwrap();
        let ids = ix.equal(&[Value::Int(1994)]);
        let mut ids = ids.to_vec();
        ids.sort();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn sorted_index_range_inclusive() {
        let r = rel();
        let ix = SortedIndex::build_on(&r, &["year"]).unwrap();
        let ids = ix.range_first(
            Bound::Included(&Value::Int(1994)),
            Bound::Included(&Value::Int(1996)),
        );
        let mut years: Vec<i64> = ids
            .iter()
            .map(|&i| r.rows()[i][0].as_int().unwrap())
            .collect();
        years.sort();
        assert_eq!(years, vec![1994, 1994, 1996]);
    }

    #[test]
    fn sorted_index_range_exclusive_and_unbounded() {
        let r = rel();
        let ix = SortedIndex::build_on(&r, &["year"]).unwrap();
        let ids = ix.range_first(Bound::Excluded(&Value::Int(1996)), Bound::Unbounded);
        assert_eq!(ids.len(), 2); // 1998, 1999
        let ids = ix.range_first(Bound::Unbounded, Bound::Excluded(&Value::Int(1994)));
        assert!(ids.is_empty());
    }

    #[test]
    fn sorted_scan_is_in_key_order() {
        let r = rel();
        let ix = SortedIndex::build_on(&r, &["year", "sale"]).unwrap();
        let years: Vec<i64> = ix
            .scan()
            .iter()
            .map(|&i| r.rows()[i][0].as_int().unwrap())
            .collect();
        assert_eq!(years, vec![1994, 1994, 1996, 1998, 1999]);
        // Ties on year broken by sale:
        let sales: Vec<i64> = ix
            .scan()
            .iter()
            .take(2)
            .map(|&i| r.rows()[i][1].as_int().unwrap())
            .collect();
        assert_eq!(sales, vec![20, 40]);
    }

    #[test]
    fn empty_relation_indexes() {
        let r = Relation::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        let h = HashIndex::build_on(&r, &["x"]).unwrap();
        assert_eq!(h.get(&[Value::Int(1)]), &[] as &[usize]);
        let s = SortedIndex::build_on(&r, &["x"]).unwrap();
        assert!(s.range_first(Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
