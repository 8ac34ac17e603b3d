//! Property-based tests for the storage substrate.

use mdj_storage::{csv, partition, DataType, HashIndex, Relation, Row, Schema, SortedIndex, Value};
use proptest::prelude::*;
use std::ops::Bound;

/// Random typed values (no NaN: CSV text roundtrips shortest-repr floats
/// exactly, but NaN bit patterns are not preserved by parsing).
fn value_strategy(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int => prop_oneof![
            3 => any::<i64>().prop_map(Value::Int),
            1 => Just(Value::Null),
            1 => Just(Value::All),
        ]
        .boxed(),
        DataType::Float => prop_oneof![
            3 => proptest::num::f64::NORMAL.prop_map(Value::Float),
            1 => Just(Value::Float(0.0)),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Str => prop_oneof![
            // Includes commas/quotes/newlines to exercise CSV quoting.
            3 => "[a-zA-Z0-9 ,\"'\n]{0,12}".prop_map(Value::str),
            1 => Just(Value::Null),
            1 => Just(Value::All),
        ]
        .boxed(),
        DataType::Bool => prop_oneof![
            3 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Any => any::<i64>().prop_map(Value::Int).boxed(),
    }
}

fn relation_strategy() -> impl Strategy<Value = Relation> {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Str),
        ("d", DataType::Bool),
    ]);
    proptest::collection::vec(
        (
            value_strategy(DataType::Int),
            value_strategy(DataType::Float),
            value_strategy(DataType::Str),
            value_strategy(DataType::Bool),
        ),
        0..30,
    )
    .prop_map(move |rows| {
        Relation::from_rows(
            schema.clone(),
            rows.into_iter()
                .map(|(a, b, c, d)| Row::new(vec![a, b, c, d]))
                .collect(),
        )
    })
}

fn keyed_relation_strategy() -> impl Strategy<Value = Relation> {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    proptest::collection::vec((0i64..20, any::<i64>()), 0..50).prop_map(move |rows| {
        Relation::from_rows(
            schema.clone(),
            rows.into_iter()
                .map(|(k, v)| Row::from_values([k, v]))
                .collect(),
        )
    })
}

/// Two-column keys over small domains, so tuples repeat: an `Int` (or
/// `NULL`/`ALL`) beside a `Str` (or `NULL`/`ALL`), plus a payload column.
fn pair_relation_strategy() -> impl Strategy<Value = Relation> {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Str),
        ("v", DataType::Int),
    ]);
    let small = |n: u8| match n {
        0 => Value::Null,
        1 => Value::All,
        n => Value::Int(i64::from(n)),
    };
    let word = |n: u8| match n {
        0 => Value::Null,
        1 => Value::All,
        n => Value::str(["NY", "NJ", "CT"][usize::from(n - 2)]),
    };
    proptest::collection::vec((0u8..5, 0u8..5, any::<i64>()), 0..60).prop_map(move |rows| {
        Relation::from_rows(
            schema.clone(),
            rows.into_iter()
                .map(|(a, b, v)| Row::new(vec![small(a), word(b), Value::Int(v)]))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV write → read is the identity on typed relations, including ALL,
    /// NULL, and strings needing quoting.
    #[test]
    fn csv_roundtrip(rel in relation_strategy()) {
        // The Str column may contain the literal cells "NULL"/"ALL", which
        // parse back as pseudo-values; skip those rare collisions.
        let collides = rel.iter().any(|r| {
            matches!(r[2].as_str(), Some("NULL") | Some("ALL"))
        });
        prop_assume!(!collides);
        let text = csv::write_string(&rel);
        let back = csv::read_str(&text, rel.schema()).unwrap();
        prop_assert_eq!(rel, back);
    }

    /// HashIndex lookups agree with a full scan.
    #[test]
    fn hash_index_equals_scan(rel in keyed_relation_strategy(), probe in 0i64..25) {
        let ix = HashIndex::build_on(&rel, &["k"]).unwrap();
        let mut via_index: Vec<usize> = ix.get(&[Value::Int(probe)]).to_vec();
        via_index.sort_unstable();
        let via_scan: Vec<usize> = rel
            .iter()
            .enumerate()
            .filter(|(_, r)| r[0] == Value::Int(probe))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    /// SortedIndex range lookups agree with a filter scan, for all bound
    /// combinations.
    #[test]
    fn sorted_index_range_equals_filter(rel in keyed_relation_strategy(), lo in 0i64..20, width in 0i64..10) {
        let hi = lo + width;
        let ix = SortedIndex::build_on(&rel, &["k"]).unwrap();
        type RangeCase = (Bound<Value>, Bound<Value>, Box<dyn Fn(i64) -> bool>);
        let cases: Vec<RangeCase> = vec![
            (
                Bound::Included(Value::Int(lo)),
                Bound::Included(Value::Int(hi)),
                Box::new(move |k| k >= lo && k <= hi),
            ),
            (
                Bound::Excluded(Value::Int(lo)),
                Bound::Unbounded,
                Box::new(move |k| k > lo),
            ),
            (
                Bound::Unbounded,
                Bound::Excluded(Value::Int(hi)),
                Box::new(move |k| k < hi),
            ),
        ];
        for (l, u, pred) in cases {
            let mut via_index: Vec<usize> = ix
                .range_first(as_ref(&l), as_ref(&u))
                .to_vec();
            via_index.sort_unstable();
            let via_scan: Vec<usize> = rel
                .iter()
                .enumerate()
                .filter(|(_, r)| pred(r[0].as_int().unwrap()))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// Chunk and hash partitions cover every row exactly once.
    #[test]
    fn partitions_cover_exactly(rel in keyed_relation_strategy(), m in 1usize..8) {
        let chunks = partition::chunk(&rel, m);
        let total: usize = chunks.iter().map(Relation::len).sum();
        prop_assert_eq!(total, rel.len());
        let union = chunks
            .iter()
            .skip(1)
            .fold(chunks[0].clone(), |acc, c| acc.union(c).unwrap());
        if !rel.is_empty() {
            prop_assert!(union.same_multiset(&rel));
        }
        let buckets = partition::by_hash(&rel, &["k"], m).unwrap();
        let total: usize = buckets.iter().map(Relation::len).sum();
        prop_assert_eq!(total, rel.len());
        // Same key never lands in two buckets.
        for key in 0i64..20 {
            let hit = buckets
                .iter()
                .filter(|b| b.iter().any(|r| r[0] == Value::Int(key)))
                .count();
            prop_assert!(hit <= 1, "key {key} in {hit} buckets");
        }
    }

    /// distinct_on yields unique keys that all exist in the input — one- and
    /// two-column keys, `NULL` and `ALL` included — and exactly the rows, in
    /// exactly the first-seen order, of a quadratic `Vec` dedupe.
    #[test]
    fn distinct_on_is_sound(rel in keyed_relation_strategy(), pairs in pair_relation_strategy()) {
        let d = rel.distinct_on(&["k"]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in d.iter() {
            prop_assert!(seen.insert(row[0].clone()), "duplicate key");
            prop_assert!(rel.iter().any(|r| r[0] == row[0]));
        }
        // Cardinality equals the number of distinct keys in the input.
        let expect: std::collections::HashSet<_> = rel.iter().map(|r| r[0].clone()).collect();
        prop_assert_eq!(d.len(), expect.len());
        for (src, names) in [(&rel, vec!["k"]), (&pairs, vec!["a", "b"]), (&pairs, vec!["b", "a"])] {
            let idx = src.schema().indices_of(&names).unwrap();
            let mut reference: Vec<Row> = Vec::new();
            for r in src.iter() {
                let key = Row::new(r.key(&idx));
                if !reference.contains(&key) {
                    reference.push(key);
                }
            }
            let got = src.distinct_on(&names).unwrap();
            prop_assert_eq!(got.rows(), &reference[..]);
        }
    }

    /// sort_by is a permutation and orders keys.
    #[test]
    fn sort_by_is_ordered_permutation(rel in keyed_relation_strategy()) {
        let mut sorted = rel.clone();
        sorted.sort_by(&["k"]).unwrap();
        prop_assert!(sorted.same_multiset(&rel));
        for pair in sorted.rows().windows(2) {
            prop_assert!(pair[0][0] <= pair[1][0]);
        }
    }
}

fn as_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}
