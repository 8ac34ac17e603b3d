//! A relation's column cache (`Relation::chunk`) against the transposition
//! it stands for: every chunk it hands out must equal
//! `ColumnarChunk::from_rows` over the same rows, column by column and bit
//! for bit — fresh, after every mutator, on a copy grown under a reader, and
//! after the chunk length changes — and a panicking transposition must leave
//! no partial column behind. A run of pages read as one batch
//! (`ChunkConcat`) must equal the same transposition over the run's rows.

use mdj_storage::{ChunkConcat, Column, ColumnarChunk, DataType, Relation, Row, Schema, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const MORSELS: [usize; 3] = [1, 7, 4096];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ])
}

/// Values of the `Float` column: NaNs with payloads, signed zeros, NULLs
/// and, rarely, an `Int` (which the schema admits), so a chunk holding one
/// is `Untyped`.
fn float_value() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (-1000i64..1000).prop_map(|k| Value::Float(k as f64 / 8.0)),
        1 => (0u64..1 << 20).prop_map(|p| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | p))),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(0.0)),
        1 => Just(Value::Null),
        1 => (0i64..5).prop_map(Value::Int),
    ]
    .boxed()
}

fn str_value() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0usize..6).prop_map(|k| Value::str(["", "NY", "é", "日本", "a b", "ß\u{1F600}"][k])),
        1 => "[a-c]{0,3}".prop_map(Value::str),
        1 => Just(Value::Null),
    ]
    .boxed()
}

fn row() -> impl Strategy<Value = Row> {
    let int = prop_oneof![
        8 => (-50i64..50).prop_map(Value::Int),
        2 => Just(Value::Null),
        1 => Just(Value::All),
    ];
    let boolean = prop_oneof![
        3 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ];
    (int, float_value(), str_value(), boolean).prop_map(|(i, f, s, b)| Row::new(vec![i, f, s, b]))
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(row(), 0..max)
}

/// Whether two columns hold the same thing: floats by bit pattern, strings
/// by value.
fn same_column(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Absent, Column::Absent) => true,
        (Column::Untyped(v), Column::Untyped(w)) => v == w,
        (Column::Int { vals: v, nulls: n }, Column::Int { vals: w, nulls: m }) => v == w && n == m,
        (Column::Float { vals: v, nulls: n }, Column::Float { vals: w, nulls: m }) => {
            n == m
                && v.iter()
                    .map(|x| x.to_bits())
                    .eq(w.iter().map(|x| x.to_bits()))
        }
        (
            Column::Str {
                codes: c,
                dict: d,
                nulls: n,
            },
            Column::Str {
                codes: k,
                dict: e,
                nulls: m,
            },
        ) => c == k && d == e && n == m,
        _ => false,
    }
}

/// Every chunk of `rel`'s `morsel`-row grid, read through the cache with
/// `needed`, equals the transposition of its rows.
fn check(rel: &Relation, morsel: usize, needed: &[bool]) -> Result<(), TestCaseError> {
    for idx in 0..rel.len().div_ceil(morsel) {
        let start = idx * morsel;
        let len = morsel.min(rel.len() - start);
        let got = rel.chunk(idx, morsel, needed, None);
        let want = ColumnarChunk::from_rows(rel.rows(), start, len, needed);
        prop_assert_eq!(got.len(), len);
        prop_assert_eq!(got.width(), want.width());
        for c in 0..want.width() {
            prop_assert!(
                same_column(got.column(c), want.column(c)),
                "morsel {}, chunk {}, column {}: {:?} != {:?}",
                morsel,
                idx,
                c,
                got.column(c),
                want.column(c)
            );
        }
    }
    Ok(())
}

/// Fill the cache with `needed`, then check it with every column.
fn warm_and_check(rel: &Relation, morsel: usize, needed: &[bool]) -> Result<(), TestCaseError> {
    check(rel, morsel, needed)?;
    check(rel, morsel, &[true; 4])
}

/// Whether chunk `idx` hands out the very columns it did before (shared,
/// not transposed again).
fn same_columns(a: &ColumnarChunk, b: &ColumnarChunk) -> bool {
    (0..a.width()).all(|c| std::ptr::eq(a.column(c), b.column(c)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_chunks_equal_the_transposition_after_every_mutator(
        initial in rows(40),
        batch in rows(20),
        extra in row(),
        pick in 0usize..3,
        other in 0usize..3,
        mask in 0u8..16,
    ) {
        let morsel = MORSELS[pick];
        let needed: Vec<bool> = (0..4).map(|c| mask & (1 << c) != 0).collect();
        let all = [true; 4];
        let mut rel = Relation::try_new(schema(), initial).unwrap();
        warm_and_check(&rel, morsel, &needed)?;

        // A copy grown under a reader: the copy is right, and the original
        // still hands out its own chunks, unchanged.
        let before: Vec<ColumnarChunk> = (0..rel.len().div_ceil(morsel))
            .map(|idx| rel.chunk(idx, morsel, &all, None))
            .collect();
        let mut grown = rel.clone();
        grown.extend_rows(batch.clone());
        warm_and_check(&grown, morsel, &needed)?;
        check(&rel, morsel, &all)?;
        for (idx, chunk) in before.iter().enumerate() {
            prop_assert!(same_columns(chunk, &rel.chunk(idx, morsel, &all, None)));
        }
        // Every chunk the old rows filled is shared with the grown copy.
        for (idx, chunk) in before.iter().enumerate().take(rel.len() / morsel) {
            prop_assert!(same_columns(chunk, &grown.chunk(idx, morsel, &all, None)));
        }

        rel.extend_rows(batch.clone());
        warm_and_check(&rel, morsel, &needed)?;
        rel.push(extra.clone()).unwrap();
        warm_and_check(&rel, morsel, &needed)?;
        rel.push_unchecked(extra.clone());
        warm_and_check(&rel, morsel, &needed)?;
        rel.rows_mut().reverse();
        warm_and_check(&rel, morsel, &needed)?;
        rel.append(&Relation::from_rows(schema(), batch)).unwrap();
        warm_and_check(&rel, morsel, &needed)?;
        rel.sort_by(&["s", "i"]).unwrap();
        warm_and_check(&rel, morsel, &needed)?;
        let half = rel.len() / 2;
        rel.rows_mut().truncate(half);
        warm_and_check(&rel, morsel, &needed)?;

        // Another chunk length replaces the cache; switching back rebuilds.
        warm_and_check(&rel, MORSELS[other], &needed)?;
        warm_and_check(&rel, morsel, &needed)?;
    }
}

/// Rows whose columns change kind from page to page: `i` is all NULL on
/// some pages and holds `ALL` on others, `f` mixes in `Int`s, and `s` is
/// NULL-heavy with a few strings shared across pages.
fn page_row() -> impl Strategy<Value = Row> {
    let int = prop_oneof![
        4 => (-50i64..50).prop_map(Value::Int),
        4 => Just(Value::Null),
        1 => Just(Value::All),
    ];
    let s = prop_oneof![
        2 => (0usize..4).prop_map(|k| Value::str(["NY", "NJ", "CT", "é"][k])),
        2 => Just(Value::Null),
    ];
    let boolean = prop_oneof![any::<bool>().prop_map(Value::Bool), Just(Value::Null)];
    (int, float_value(), s, boolean).prop_map(|(i, f, s, b)| Row::new(vec![i, f, s, b]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cut the rows into pages at random, transpose each page as the pager
    /// types it, and concatenate the pages' chunks: the run equals the
    /// transposition of all its rows, column by column — typed kinds,
    /// NULL slots and their codes, `Str` dictionaries in first-seen order,
    /// and the `Untyped` values of `ALL`, booleans and `Int`/`Float` mixes
    /// — for the columns asked for, and leaves the others absent.
    #[test]
    fn concatenated_pages_equal_the_transposition_of_their_rows(
        rows in proptest::collection::vec(page_row(), 0..60),
        cuts in proptest::collection::vec(0usize..60, 0..12),
        mask in 0u8..16,
    ) {
        let needed: Vec<bool> = (0..4).map(|c| mask & (1 << c) != 0).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
        cuts.push(0);
        cuts.push(rows.len());
        cuts.sort_unstable();
        let mut run = ChunkConcat::new(&needed, rows.len());
        for page in cuts.windows(2) {
            let all = [true; 4];
            run.push(&ColumnarChunk::from_rows(&rows, page[0], page[1] - page[0], &all));
        }
        let got = run.finish();
        let want = ColumnarChunk::from_rows(&rows, 0, rows.len(), &needed);
        prop_assert_eq!(got.len(), rows.len());
        prop_assert_eq!(got.width(), 4);
        for c in 0..4 {
            prop_assert!(
                same_column(got.column(c), want.column(c)),
                "column {} over pages {:?}: {:?} != {:?}",
                c,
                cuts,
                got.column(c),
                want.column(c)
            );
        }
    }
}

/// At the default chunk length an append keeps every full chunk's columns
/// and rebuilds only the tail.
#[test]
fn extend_rows_keeps_every_full_chunk() {
    let row = |k: i64| {
        Row::new(vec![
            Value::Int(k % 97),
            Value::Float(k as f64 * 0.5),
            Value::str(["NY", "NJ", "CT"][(k % 3) as usize]),
            Value::Bool(k % 2 == 0),
        ])
    };
    let mut rel = Relation::from_rows(schema(), (0..2 * 4096 + 10).map(row).collect());
    let needed = [true, true, true, false];
    let before: Vec<ColumnarChunk> = (0..3).map(|i| rel.chunk(i, 4096, &needed, None)).collect();
    rel.extend_rows((9000..9005).map(row));
    for (idx, chunk) in before.iter().enumerate() {
        assert_eq!(
            same_columns(chunk, &rel.chunk(idx, 4096, &needed, None)),
            idx < 2,
            "chunk {idx}"
        );
    }
    check(&rel, 4096, &needed).unwrap();
}

/// Scans on several threads, released together onto one cold relation,
/// all see the transposition.
#[test]
fn concurrent_readers_fill_one_cache_consistently() {
    let rel = Relation::from_rows(
        schema(),
        (0..500i64)
            .map(|k| {
                Row::new(vec![
                    Value::Int(k),
                    Value::Float(-(k as f64)),
                    Value::str(if k % 5 == 0 { "é" } else { "x" }),
                    Value::Null,
                ])
            })
            .collect(),
    );
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let (rel, start) = (&rel, &start);
            s.spawn(move || {
                let needed: Vec<bool> = (0..4).map(|c| (c + t) % 2 == 0).collect();
                start.wait();
                for _ in 0..20 {
                    check(rel, 7, &needed).unwrap();
                }
            });
        }
    });
    check(&rel, 7, &[true; 4]).unwrap();
}

/// A transposition that panics leaves no partial column: the slot it was
/// filling stays empty, the lock it poisoned is recovered, and the columns
/// and chunks around it are unaffected.
#[test]
fn a_panic_while_transposing_leaves_no_partial_column() {
    // Row 5 lacks columns 1..: transposing column 1 of chunk 1 panics,
    // after column 0 of it is done.
    let mut rows: Vec<Row> = (0..8i64)
        .map(|k| {
            Row::new(vec![
                Value::Int(k),
                Value::Float(k as f64),
                Value::Null,
                Value::Null,
            ])
        })
        .collect();
    rows[5] = Row::new(vec![Value::Int(5)]);
    let rel = Relation::from_rows(schema(), rows);
    let (first, second) = ([true, false, false, false], [true, true, false, false]);
    let stats = mdj_storage::ScanStats::new();
    for _ in 0..2 {
        let panicked = std::panic::catch_unwind(|| rel.chunk(1, 4, &second, Some(&stats)));
        assert!(
            panicked.is_err(),
            "column 1 is transposed again, and panics again"
        );
    }
    // Column 0 was finished before the first panic: kept, and counted once.
    assert_eq!(stats.columns_transposed(), 1);
    let chunk = rel.chunk(1, 4, &first, Some(&stats));
    assert_eq!(stats.columns_transposed(), 1);
    let want = ColumnarChunk::from_rows(rel.rows(), 4, 4, &first);
    assert!(same_column(chunk.column(0), want.column(0)));
    let (got, want) = (
        rel.chunk(0, 4, &[true; 4], None),
        ColumnarChunk::from_rows(rel.rows(), 0, 4, &[true; 4]),
    );
    assert!((0..4).all(|c| same_column(got.column(c), want.column(c))));
}
