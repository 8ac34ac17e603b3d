//! The executor matrix: one parameterised sweep over everything the
//! executor core composes —
//!
//! * detail source: resident rows, or a page store (256 B – 4 KiB pages);
//! * driver × evaluator, through every [`ExecStrategy`] name: serial, base-
//!   partitioned (sequential and parallel) and detail-parallel, each scalar
//!   and batch;
//! * `threads ∈ {1, 2, 3, 8}`, morsel size `∈ {1, 7, 4096}`, `k ∈ {1, 3}`
//!   (θ, l) blocks —
//!
//! on NULL-heavy mixed-type data whose floats are **non-dyadic** (`x · 0.1`),
//! so any re-association of a sum shows up in the low bits. Every run must be
//! *bit-identical* (`f64::to_bits`, same rows, same order) to Definition 3.1
//! executed verbatim ([`mdj_naive::ops::md_join_reference`]), block by block:
//! the scheduler, the source and the evaluator may only change who does the
//! work and how, never the answer — on any host, because the thread counts
//! are swept explicitly rather than read from the machine.

use mdj_core::prelude::*;
use mdj_core::DetailSource;
use mdj_expr::builder::{add, div};
use mdj_storage::{BufferPool, PagedStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const MORSELS: [usize; 3] = [1, 7, 4096];

/// Every strategy name; the ones whose plan ignores `threads` run once.
const STRATEGIES: [(ExecStrategy, bool); 6] = [
    (ExecStrategy::Serial, false),
    (ExecStrategy::Partitioned { partitions: 3 }, false),
    (ExecStrategy::Vectorized, true),
    (ExecStrategy::Morsel, true),
    (ExecStrategy::MorselBase, true),
    (ExecStrategy::MorselDetail, true),
];

fn detail_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("m", DataType::Int),
        ("v", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
    ])
}

/// Detail rows `(k, m, v Int?, f Float?, s)` over small domains so groups
/// collide; the low third of each nullable column's range maps to NULL.
fn detail_strategy() -> impl Strategy<Value = Relation> {
    let row = (0i64..6, 0i64..5, -75i64..50, -40i64..80, 0u8..3);
    proptest::collection::vec(row, 0..60).prop_map(|rows| {
        Relation::from_rows(
            detail_schema(),
            rows.into_iter()
                .map(|(k, m, v, f, s)| {
                    Row::new(vec![
                        Value::Int(k),
                        Value::Int(m),
                        if v < -50 { Value::Null } else { Value::Int(v) },
                        if f < 0 {
                            Value::Null
                        } else {
                            Value::Float(f as f64 * 0.1)
                        },
                        Value::str(["NY", "NJ", "CA"][s as usize]),
                    ])
                })
                .collect(),
        )
    })
}

fn base_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("m", DataType::Int),
        ("s", DataType::Str),
    ])
}

/// Base rows over a *wider* key domain than the detail side, so some base
/// rows always have an empty `Rel(t)`.
fn base_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::btree_set((0i64..8, 0i64..6, 0u8..4), 0..12).prop_map(|keys| {
        Relation::from_rows(
            base_schema(),
            keys.into_iter()
                .map(|(k, m, s)| {
                    Row::new(vec![
                        Value::Int(k),
                        Value::Int(m),
                        Value::str(["NY", "NJ", "CA", "TX"][s as usize]),
                    ])
                })
                .collect(),
        )
    })
}

/// θ shapes spanning every probe regime: single-int, string, multi- and
/// computed hash keys; vectorized prefilters; mixed residuals; non-equi and
/// wildcard nested loops; and `Div` shapes the batch layer refuses by shape
/// and delegates to the scalar interpreter per batch.
const THETAS: u8 = 14;

fn theta_pool(which: u8) -> Expr {
    match which {
        0 => eq(col_b("k"), col_r("k")),
        1 => eq(col_b("s"), col_r("s")),
        2 => and(eq(col_b("k"), col_r("k")), eq(col_b("m"), col_r("m"))),
        3 => and(eq(col_b("k"), col_r("k")), eq(col_b("s"), col_r("s"))),
        4 => and(
            eq(col_b("k"), col_r("k")),
            eq(col_b("m"), add(col_r("m"), lit(1i64))),
        ),
        5 => eq(col_b("k"), add(col_r("m"), col_r("v"))),
        6 => and(eq(col_b("k"), col_r("k")), eq(col_r("s"), lit("NY"))),
        7 => and(eq(col_b("s"), col_r("s")), gt(col_r("v"), lit(0i64))),
        8 => and(eq(col_b("k"), col_r("k")), ge(col_r("f"), col_b("m"))),
        9 => le(col_b("k"), col_r("m")),
        10 => and(le(col_b("k"), col_r("m")), ge(col_r("f"), col_b("m"))),
        11 => Expr::always_true(),
        12 => and(
            eq(col_b("k"), col_r("k")),
            gt(div(col_r("v"), lit(2i64)), lit(3i64)),
        ),
        _ => le(col_b("k"), div(col_r("v"), lit(2i64))),
    }
}

/// Block `i`'s aggregates, aliased so `k` blocks never collide: typed Int and
/// Float kernels (the float `sum`/`avg` are the association canaries), the
/// scalar string path, and a holistic median on the boxed-state path.
fn block_aggs(i: usize) -> Vec<AggSpec> {
    vec![
        AggSpec::count_star().with_alias(format!("n_{i}")),
        AggSpec::on_column("count", "v").with_alias(format!("cnt_v_{i}")),
        AggSpec::on_column("sum", "v").with_alias(format!("sum_v_{i}")),
        AggSpec::on_column("sum", "f").with_alias(format!("sum_f_{i}")),
        AggSpec::on_column("avg", "f").with_alias(format!("avg_f_{i}")),
        AggSpec::on_column("max", "f").with_alias(format!("max_f_{i}")),
        AggSpec::on_column("min", "s").with_alias(format!("min_s_{i}")),
        AggSpec::on_column("median", "v").with_alias(format!("med_v_{i}")),
    ]
}

fn blocks_of(shapes: &[u8]) -> Vec<Block> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &which)| Block::new(theta_pool(which), block_aggs(i)))
        .collect()
}

/// Definition 3.1 for `k` blocks: `B`'s columns, then each block's reference
/// aggregate columns — i.e. the generalized join is checked against `k`
/// independent single joins.
fn reference(b: &Relation, r: &Relation, blocks: &[Block]) -> Vec<Vec<Value>> {
    let registry = mdj_agg::Registry::standard();
    let mut rows: Vec<Vec<Value>> = b.iter().map(|row| row.values().to_vec()).collect();
    for blk in blocks {
        let single =
            mdj_naive::ops::md_join_reference(b, r, &blk.aggs, &blk.theta, &registry).unwrap();
        for (row, s) in rows.iter_mut().zip(single.iter()) {
            row.extend_from_slice(&s.values()[b.schema().len()..]);
        }
    }
    rows
}

/// Row equality down to `f64` bit patterns.
fn bit_diff(expected: &[Vec<Value>], got: &Relation) -> Option<String> {
    if expected.len() != got.len() {
        return Some(format!("{} rows, want {}", got.len(), expected.len()));
    }
    for (i, (want, row)) in expected.iter().zip(got.iter()).enumerate() {
        if want.len() != row.values().len() {
            return Some(format!("row {i}: width {}", row.values().len()));
        }
        for (j, (w, g)) in want.iter().zip(row.values()).enumerate() {
            let same = match (w, g) {
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                _ => w == g,
            };
            if !same {
                return Some(format!("row {i} col {j}: {g:?}, want {w:?}"));
            }
        }
    }
    None
}

/// A page store in a unique scratch directory, removed on drop.
struct Store {
    dir: std::path::PathBuf,
    scan: PagedScan,
}

impl Store {
    /// `rel` clustered on `k` in `page_bytes` pages, read through a pool with
    /// a frame for each of 8 workers plus slack.
    fn new(rel: &Relation, page_bytes: u64) -> Store {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mdj-matrix-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _) = PagedStore::open(&dir).unwrap();
        let table = store.create_table("R", rel, "k", page_bytes).unwrap();
        let scan = PagedScan::new(table, BufferPool::new(16 * page_bytes));
        Store { dir, scan }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run the whole (strategy × threads × morsel) grid for one
/// `(B, source, blocks)` and compare every run with `expected`.
fn sweep(
    b: &Relation,
    resident: &Relation,
    paged: Option<&PagedScan>,
    blocks: &[Block],
    expected: &[Vec<Value>],
) -> Result<(), String> {
    let serial_stats = Arc::new(ScanStats::new());
    MdJoin::new(b, resident)
        .blocks(blocks.iter().cloned())
        .strategy(ExecStrategy::Serial)
        .run(&ExecContext::new().with_stats(serial_stats.clone()))
        .map_err(|e| e.to_string())?;
    for morsel in MORSELS {
        for (strategy, threaded) in STRATEGIES {
            for &threads in &THREADS[..if threaded { THREADS.len() } else { 1 }] {
                let label = format!(
                    "{} {strategy:?} threads={threads} morsel={morsel} k={}",
                    if paged.is_some() { "paged" } else { "resident" },
                    blocks.len()
                );
                let stats = Arc::new(ScanStats::new());
                let ctx = ExecContext::new()
                    .with_morsel_size(morsel)
                    .with_stats(stats.clone());
                let join = match paged {
                    Some(scan) => MdJoin::paged(b, scan),
                    None => MdJoin::new(b, resident),
                };
                let out = join
                    .blocks(blocks.iter().cloned())
                    .strategy(strategy)
                    .threads(threads)
                    .run(&ctx)
                    .map_err(|e| format!("{label}: {e}"))?;
                if let Some(diff) = bit_diff(expected, &out) {
                    return Err(format!("{label}: {diff}"));
                }
                if let Some(scan) = paged {
                    if scan.pool().pinned_total() != 0 {
                        return Err(format!("{label}: leaked a pin"));
                    }
                }
                // Work accounting: the single-scan plans share the serial
                // evaluator's exact counters, whichever evaluator and however
                // many workers produced them.
                let single_scan =
                    matches!(strategy, ExecStrategy::Serial | ExecStrategy::MorselDetail)
                        || (strategy == ExecStrategy::Vectorized && threads == 1);
                if single_scan {
                    let got = (
                        stats.scans(),
                        stats.tuples_scanned(),
                        stats.probes(),
                        stats.updates(),
                    );
                    let want = (
                        serial_stats.scans(),
                        serial_stats.tuples_scanned(),
                        serial_stats.probes(),
                        serial_stats.updates(),
                    );
                    if got != want {
                        return Err(format!("{label}: counters {got:?}, want {want:?}"));
                    }
                }
                if strategy == ExecStrategy::Vectorized && threads == 1 {
                    // A single-block join never tallies `gen_sets`.
                    let sets = if blocks.len() > 1 { blocks.len() } else { 0 };
                    if stats.gen_sets() != sets as u64 {
                        return Err(format!("{label}: gen_sets {}", stats.gen_sets()));
                    }
                    if !b.is_empty() && !resident.is_empty() && stats.batches() == 0 {
                        return Err(format!("{label}: never batched"));
                    }
                }
                // Degradable plans reproduce the answer under a budget that
                // forces Theorem 4.1 partitioning on most inputs (and, for
                // the random sweep's ≤ 60 detail rows, is satisfiable at
                // one-row partitions).
                let degradable = matches!(
                    strategy,
                    ExecStrategy::Serial
                        | ExecStrategy::Partitioned { .. }
                        | ExecStrategy::Vectorized
                );
                let small = paged.is_none() && resident.len() <= 60;
                if degradable && small && threads == 1 && morsel == 7 {
                    let budgeted = MdJoin::new(b, resident)
                        .blocks(blocks.iter().cloned())
                        .strategy(strategy)
                        .threads(1)
                        .budget_bytes(2048 * blocks.len())
                        .run(&ExecContext::new().with_morsel_size(morsel))
                        .map_err(|e| format!("{label} budgeted: {e}"))?;
                    if let Some(diff) = bit_diff(expected, &budgeted) {
                        return Err(format!("{label} budgeted: {diff}"));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Resident source: the full grid for `k = 1` and `k = 3`.
    #[test]
    fn resident_matrix_is_bit_identical_to_definition_3_1(
        b in base_strategy(),
        r in detail_strategy(),
        shapes in proptest::collection::vec(0u8..THETAS, 3),
    ) {
        for k in [1, 3] {
            let blocks = blocks_of(&shapes[..k]);
            let expected = reference(&b, &r, &blocks);
            if let Err(e) = sweep(&b, &r, None, &blocks, &expected) {
                return Err(proptest::test_runner::TestCaseError::Fail(e));
            }
        }
    }

    /// Paged source: the same grid over a page store, against the reference
    /// over the clustered row order the store serves.
    #[test]
    fn paged_matrix_is_bit_identical_to_definition_3_1(
        b in base_strategy(),
        r in detail_strategy(),
        shapes in proptest::collection::vec(0u8..THETAS, 3),
        page_pick in 0usize..5,
    ) {
        let store = Store::new(&r, [256u64, 512, 1024, 2048, 4096][page_pick]);
        let clustered = store.scan.materialize(&ExecContext::new()).unwrap();
        prop_assert_eq!(clustered.len(), r.len(), "no row lost to paging");
        for k in [1, 3] {
            let blocks = blocks_of(&shapes[..k]);
            let expected = reference(&b, &clustered, &blocks);
            if let Err(e) = sweep(&b, &clustered, Some(&store.scan), &blocks, &expected) {
                return Err(proptest::test_runner::TestCaseError::Fail(e));
            }
        }
    }

    /// A group-by base of the detail relation itself, `γ_D(σ_p(R))`
    /// ([`MdJoin::group_by`]): the batch evaluator builds `B` inside its one
    /// scan, resident or paged, at every morsel size and `k ∈ {1, 3}` —
    /// bit-identical to Definition 3.1 over the `B` a separate pass builds,
    /// with the two-pass plan's exact scan, tuple, probe and update counts.
    #[test]
    fn group_by_base_built_in_the_scan_is_bit_identical(
        r in detail_strategy(),
        dims_pick in 0usize..4,
        where_pick in 0usize..3,
        page_pick in 0usize..5,
    ) {
        let dims: &[&str] = [&["k"][..], &["s"], &["k", "m"], &["k", "s"]][dims_pick];
        // No WHERE, one on a non-key column, one on the clustered key `k`
        // (which prunes pages).
        let pred = [None, Some(eq(col_r("s"), lit("NY"))), Some(ge(col_r("k"), lit(2i64)))]
            [where_pick]
            .clone();
        let key = mdj_expr::builder::and_all(dims.iter().map(|d| eq(col_b(*d), col_r(*d))));
        let with_pred = |theta: Expr| match &pred {
            Some(p) => and(p.clone(), theta),
            None => theta,
        };
        // The WHERE alone, a narrower detail-only condition, a mixed residual.
        let blocks: Vec<Block> = [
            key.clone(),
            and(key.clone(), gt(col_r("v"), lit(0i64))),
            and(key, ge(col_r("f"), col_b(dims[0]))),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, theta)| Block::new(with_pred(theta), block_aggs(i)))
        .collect();
        let store = Store::new(&r, [256u64, 512, 1024, 2048, 4096][page_pick]);
        let clustered = store.scan.materialize(&ExecContext::new()).unwrap();
        let sources = [
            (DetailSource::Resident(&r), &r),
            (DetailSource::Paged(&store.scan), &clustered),
        ];
        for (source, rows) in sources {
            let selected = match &pred {
                Some(p) => mdj_naive::ops::select(rows, p).unwrap(),
                None => rows.clone(),
            };
            let b = selected.distinct_on(dims).unwrap();
            for k in [1, 3] {
                let expected = reference(&b, rows, &blocks[..k]);
                for morsel in MORSELS {
                    let label = format!("{source:?} dims={dims:?} where={pred:?} k={k} morsel={morsel}");
                    let run = |join: MdJoin, strategy: ExecStrategy| {
                        let stats = Arc::new(ScanStats::new());
                        let ctx = ExecContext::new().with_morsel_size(morsel).with_stats(stats.clone());
                        let out = join
                            .blocks(blocks[..k].iter().cloned())
                            .strategy(strategy)
                            .run(&ctx)
                            .unwrap();
                        let work = (stats.scans(), stats.tuples_scanned(), stats.probes(), stats.updates());
                        (out, work, stats)
                    };
                    let two_pass = match source {
                        DetailSource::Resident(r) => MdJoin::new(&b, r),
                        DetailSource::Paged(scan) => MdJoin::paged(&b, scan),
                    };
                    let (_, want, _) = run(two_pass, ExecStrategy::Vectorized);
                    let one_scan = MdJoin::group_by(source, dims, pred.clone());
                    let (out, got, stats) = run(one_scan.clone(), ExecStrategy::Vectorized);
                    if let Some(diff) = bit_diff(&expected, &out) {
                        return Err(proptest::test_runner::TestCaseError::Fail(format!("{label}: {diff}")));
                    }
                    prop_assert_eq!(got, want, "{}", label);
                    prop_assert_eq!((stats.base_fused(), stats.base_passes()), (1, 0), "{}", label);
                    // The scalar evaluator builds `B` in a pass of its own over
                    // the same source, pages included.
                    let (out, _, stats) = run(one_scan, ExecStrategy::Serial);
                    if let Some(diff) = bit_diff(&expected, &out) {
                        return Err(proptest::test_runner::TestCaseError::Fail(format!("{label} serial: {diff}")));
                    }
                    prop_assert_eq!((stats.base_fused(), stats.base_passes()), (0, 1), "{}", label);
                    prop_assert_eq!(store.scan.pool().pinned_total(), 0, "{}", label);
                }
            }
        }
    }
}

/// Deterministic shapes the random sweep only rarely draws: a base table
/// dwarfing the detail side (so `Morsel` picks the base-partitioned
/// driver), enough detail rows that float
/// sums span many morsels, and empty or single-row inputs on either side.
#[test]
fn wide_base_long_detail_and_degenerate_inputs() {
    let detail = |n: i64| {
        Relation::from_rows(
            detail_schema(),
            (0..n)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i % 5),
                        Value::Int(i % 3),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                        Value::Float(i as f64 * 0.1),
                        Value::str(["NY", "NJ", "CA"][(i % 3) as usize]),
                    ])
                })
                .collect(),
        )
    };
    let base = |n: i64| {
        Relation::from_rows(
            base_schema(),
            (0..n)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i % 9),
                        Value::Int(i % 4),
                        Value::str(["NY", "NJ", "CA", "TX"][(i % 4) as usize]),
                    ])
                })
                .collect(),
        )
    };
    for (b_rows, r_rows) in [(40, 6), (7, 500), (0, 20), (5, 0), (1, 1)] {
        let (b, r) = (base(b_rows), detail(r_rows));
        for shapes in [[0u8, 8, 12], [9, 6, 3]] {
            for k in [1, 3] {
                let blocks = blocks_of(&shapes[..k]);
                let expected = reference(&b, &r, &blocks);
                sweep(&b, &r, None, &blocks, &expected).unwrap();
                let store = Store::new(&r, 512);
                let clustered = store.scan.materialize(&ExecContext::new()).unwrap();
                let expected = reference(&b, &clustered, &blocks);
                sweep(&b, &clustered, Some(&store.scan), &blocks, &expected).unwrap();
            }
        }
    }
}

/// A condition set the batch layer cannot cover (`Div` in θ) delegates *only
/// itself*: the covered set in the same query still runs batched with zero
/// fallbacks, and the uncovered one is tallied in `gen_set_fallbacks`.
#[test]
fn uncovered_set_delegates_only_itself() {
    let r = Relation::from_rows(
        detail_schema(),
        (0..90i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 6),
                    Value::Int(i % 5),
                    Value::Int(i),
                    Value::Float(i as f64 * 0.1),
                    Value::str("NY"),
                ])
            })
            .collect(),
    );
    let b = r.distinct_on(&["k", "m", "s"]).unwrap();
    for covered in [0u8, 6, 9] {
        let stats = Arc::new(ScanStats::new());
        MdJoin::new(&b, &r)
            .blocks(blocks_of(&[covered, 13]))
            .strategy(ExecStrategy::Vectorized)
            .threads(1)
            .run(
                &ExecContext::new()
                    .with_morsel_size(7)
                    .with_stats(stats.clone()),
            )
            .unwrap();
        assert_eq!(stats.gen_sets(), 2);
        assert_eq!(stats.gen_set_fallbacks(), 1);
        // `batches` tallies per (chunk × set): the covered set's share never
        // falls back, the Div set's share always does.
        assert_eq!(stats.batch_fallbacks() * 2, stats.batches());
        assert_eq!(stats.fallback_theta(), stats.batch_fallbacks());
    }
}
