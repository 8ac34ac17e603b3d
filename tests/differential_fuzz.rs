//! Differential fuzzing: every execution strategy — serial, vectorized,
//! morsel-parallel, and budget-degraded runs on both the
//! rescan and the spill path — is checked against an *independent*
//! nested-loop reference executor written from Definition 3.1, with no code
//! shared with `mdj-core`'s evaluators beyond the expression and aggregate
//! primitives.
//!
//! Inputs are property-generated: NULL-heavy columns, Zipf-skewed and
//! uniform key distributions, θ shapes from single-key equality through
//! computed keys, residuals, and non-equi conditions, and randomized
//! aggregate lists (including a holistic median). The vendored proptest
//! runner is deterministic (seeded from the test name), so CI runs are
//! exactly reproducible.

use mdj_agg::Registry;
use mdj_core::prelude::*;
use mdj_core::DetailSource;
use mdj_expr::builder::{add, div, modulo};
use mdj_storage::{BufferPool, PagedStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The reference evaluator: Definition 3.1 executed verbatim
/// ([`mdj_naive::ops::md_join_reference`]).
fn reference_md_join(
    b: &Relation,
    r: &Relation,
    specs: &[AggSpec],
    theta: &Expr,
    registry: &Registry,
) -> Relation {
    mdj_naive::ops::md_join_reference(b, r, specs, theta, registry).unwrap()
}

/// Map a uniform draw in `0..1000` onto a Zipf-ish key in `0..10`: the head
/// key takes half the mass, each subsequent key half the remainder.
fn zipf_key(u: i64) -> i64 {
    let thresholds = [500, 750, 875, 937, 968, 984, 992, 996, 998, 1000];
    thresholds.iter().position(|&t| u < t).unwrap_or(9) as i64
}

/// Detail rows `(k Int, g Str, v Int?, f Float?)`: key distribution either
/// uniform or Zipf-skewed, value columns ~1/3 NULL.
fn detail_strategy() -> impl Strategy<Value = Relation> {
    let row = (0i64..1000, 0u8..3, -75i64..50, -16i64..8);
    (proptest::collection::vec(row, 0..80), any::<bool>()).prop_map(|(rows, skew)| {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("g", DataType::Str),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(u, g, v, f)| {
                    Row::new(vec![
                        Value::Int(if skew { zipf_key(u) } else { u % 10 }),
                        Value::str(["NY", "NJ", "CA"][g as usize]),
                        if v < -50 { Value::Null } else { Value::Int(v) },
                        if f < -8 {
                            Value::Null
                        } else {
                            Value::Float(f as f64 * 0.5)
                        },
                    ])
                })
                .collect(),
        )
    })
}

/// Base rows `(k Int, m Int, g Str)` over a wider key domain than the
/// detail side, so some rows always have an empty `Rel(t)`.
fn base_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::btree_set((0i64..13, 0i64..4, 0u8..4), 0..16).prop_map(|keys| {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("m", DataType::Int),
            ("g", DataType::Str),
        ]);
        Relation::from_rows(
            schema,
            keys.into_iter()
                .map(|(k, m, g)| {
                    Row::new(vec![
                        Value::Int(k),
                        Value::Int(m),
                        Value::str(["NY", "NJ", "CA", "TX"][g as usize]),
                    ])
                })
                .collect(),
        )
    })
}

/// θ shapes: hash-probeable equalities (single, multi-key, string,
/// computed), equality plus detail-only / mixed residuals, and non-equi
/// conditions with no hash (and hence no spill-partitioning) form.
fn theta_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(eq(col_b("k"), col_r("k"))),
        Just(eq(col_b("g"), col_r("g"))),
        Just(and(eq(col_b("k"), col_r("k")), eq(col_b("g"), col_r("g")))),
        Just(eq(col_b("k"), add(col_r("v"), lit(3i64)))),
        Just(and(eq(col_b("k"), col_r("k")), gt(col_r("v"), lit(0i64)))),
        Just(and(eq(col_b("k"), col_r("k")), ge(col_r("f"), col_b("m")))),
        Just(le(col_b("k"), col_r("v"))),
        Just(Expr::always_true()),
    ]
}

/// Aggregate pool; the fuzzer picks a non-empty subset via a bitmask.
fn agg_pool() -> Vec<AggSpec> {
    vec![
        AggSpec::count_star(),
        AggSpec::on_column("count", "v"),
        AggSpec::on_column("sum", "v"),
        AggSpec::on_column("avg", "f"),
        AggSpec::on_column("max", "f"),
        AggSpec::on_column("min", "g"),
        AggSpec::on_column("median", "v"),
    ]
}

fn agg_list_strategy() -> impl Strategy<Value = Vec<AggSpec>> {
    (1u8..128).prop_map(|mask| {
        agg_pool()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial and vectorized runs are row-identical to the reference and to
    /// each other, with identical machine-independent work counters;
    /// morsel-parallel and two-thread vectorized runs produce the same
    /// multiset.
    #[test]
    fn all_strategies_match_the_reference(
        b in base_strategy(),
        r in detail_strategy(),
        theta in theta_strategy(),
        specs in agg_list_strategy(),
    ) {
        let expected = reference_md_join(&b, &r, &specs, &theta, &Registry::standard());
        let run = |strategy: ExecStrategy, stats: &Arc<ScanStats>| {
            MdJoin::new(&b, &r)
                .aggs(&specs)
                .theta(theta.clone())
                .strategy(strategy)
                .threads(2)
                .run(
                    &ExecContext::new()
                        .with_morsel_size(16)
                        .with_stats(stats.clone()),
                )
                .unwrap()
        };
        let serial_stats = Arc::new(ScanStats::new());
        let serial = run(ExecStrategy::Serial, &serial_stats);
        prop_assert_eq!(expected.rows(), serial.rows(), "serial vs reference");

        let vec_stats = Arc::new(ScanStats::new());
        let vectorized = MdJoin::new(&b, &r)
            .aggs(&specs)
            .theta(theta.clone())
            .strategy(ExecStrategy::Vectorized)
            .threads(1)
            .run(&ExecContext::new().with_stats(vec_stats.clone()))
            .unwrap();
        prop_assert_eq!(expected.rows(), vectorized.rows(), "vectorized vs reference");
        // Counter consistency: the batched plan does the same logical work.
        prop_assert_eq!(serial_stats.scans(), vec_stats.scans());
        prop_assert_eq!(serial_stats.tuples_scanned(), vec_stats.tuples_scanned());
        prop_assert_eq!(serial_stats.probes(), vec_stats.probes());
        prop_assert_eq!(serial_stats.updates(), vec_stats.updates());
        // Nothing spilled without a budget.
        prop_assert_eq!(serial_stats.bytes_spilled(), 0);

        for strategy in [ExecStrategy::Morsel, ExecStrategy::Vectorized] {
            let stats = Arc::new(ScanStats::new());
            let out = run(strategy, &stats);
            prop_assert_eq!(out.len(), expected.len());
            prop_assert!(expected.same_multiset(&out), "{:?} vs reference", strategy);
        }
    }

    /// Under a tight budget, both degradation modes — rescan
    /// (`SpillPolicy::Never`) and spill (`SpillPolicy::Always`, when θ
    /// offers partition keys) — reproduce the serial answer bit-for-bit,
    /// and the spill run's byte accounting is conserved: everything written
    /// is read back exactly once, every memory charge is released, and no
    /// run file outlives the query.
    #[test]
    fn budget_forced_degradation_is_bit_identical(
        b in base_strategy(),
        r in detail_strategy(),
        theta in theta_strategy(),
        specs in agg_list_strategy(),
    ) {
        let expected = reference_md_join(&b, &r, &specs, &theta, &Registry::standard());
        let spill_dir = std::env::temp_dir().join(format!(
            "mdj-diff-fuzz-{}",
            std::process::id()
        ));
        for policy in [SpillPolicy::Never, SpillPolicy::Always, SpillPolicy::Auto] {
            let stats = Arc::new(ScanStats::new());
            // A few base rows of state+index: forces degradation on most
            // inputs while staying satisfiable at one-row partitions for
            // the distributive aggregates.
            let ctx = ExecContext::new()
                .with_budget_bytes(4096)
                .with_spill_policy(policy)
                .with_spill_dir(&spill_dir)
                .with_stats(stats.clone());
            let out = match MdJoin::new(&b, &r)
                .aggs(&specs)
                .theta(theta.clone())
                .strategy(ExecStrategy::Serial)
                .run(&ctx)
            {
                Ok(out) => out,
                // A holistic aggregate (median) charges its collected
                // values themselves, so a dense Rel(t) can exceed the
                // budget even at one-row partitions. The typed error is
                // the correct outcome; nothing must leak (checked below).
                Err(CoreError::BudgetExceeded { .. }) => {
                    if let Ok(entries) = std::fs::read_dir(&spill_dir) {
                        let leaked: Vec<_> = entries.flatten().map(|e| e.path()).collect();
                        prop_assert!(leaked.is_empty(), "leaked run files: {:?}", leaked);
                    }
                    continue;
                }
                Err(other) => {
                    return Err(proptest::test_runner::TestCaseError::Fail(format!(
                        "policy {policy:?}: {other}"
                    )))
                }
            };
            prop_assert_eq!(expected.rows(), out.rows(), "policy {:?}", policy);
            // Conservation: no spill attempt reads more than it wrote, and
            // when the first spill attempt succeeds (a single degradation)
            // every byte written is read back exactly once. A hash-skewed
            // partition can breach the budget and force a retry at larger
            // m, in which case the aborted attempt's run files are dropped
            // unread — spilled then strictly exceeds read.
            prop_assert!(stats.bytes_spilled() >= stats.spill_read_bytes());
            if stats.degradations() <= 1 {
                prop_assert_eq!(stats.bytes_spilled(), stats.spill_read_bytes());
            }
            // The tracker ends the query with zero bytes still charged.
            prop_assert_eq!(ctx.memory().unwrap().charged(), 0);
            if policy == SpillPolicy::Never {
                prop_assert_eq!(stats.bytes_spilled(), 0);
                prop_assert_eq!(stats.spill_partitions(), 0);
            }
            if stats.spill_partitions() > 0 {
                prop_assert!(stats.bytes_spilled() > 0);
                prop_assert!(stats.degradations() >= 1);
            }
            // RAII cleanup: the spill directory holds no run files.
            if let Ok(entries) = std::fs::read_dir(&spill_dir) {
                let leaked: Vec<_> = entries.flatten().map(|e| e.path()).collect();
                prop_assert!(leaked.is_empty(), "leaked run files: {:?}", leaked);
            }
        }
        let _ = std::fs::remove_dir(&spill_dir);
    }
}

/// Unique on-disk scratch directory for one paged fuzz case, removed on
/// drop so the sweep leaves nothing behind even under `--test-threads`.
struct CaseDir(std::path::PathBuf);

impl CaseDir {
    fn new(tag: &str) -> CaseDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mdj-diff-paged-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        CaseDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

/// `strategy` over the paged source with two workers (the sweeps' pools
/// hold four frames: one pinned page per worker plus LRU slack).
fn paged_md_join(
    b: &Relation,
    scan: &PagedScan,
    specs: &[AggSpec],
    theta: &Expr,
    strategy: ExecStrategy,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::paged(b, scan)
        .aggs(specs)
        .theta(theta.clone())
        .strategy(strategy)
        .threads(2)
        .run(ctx)
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every execution strategy: each one runs over the paged source unchanged
/// (the source only decides how the chunk grid is cut).
const PAGED_STRATEGIES: [ExecStrategy; 6] = [
    ExecStrategy::Serial,
    ExecStrategy::Partitioned { partitions: 3 },
    ExecStrategy::Morsel,
    ExecStrategy::MorselBase,
    ExecStrategy::MorselDetail,
    ExecStrategy::Vectorized,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disk-resident sweep: the same generated inputs, written through the
    /// pager as a table clustered on `k` and re-read page by page through a
    /// buffer pool holding at most four frames, must be *bit-identical*
    /// (`f64::to_bits`, not ε-close) to the Definition 3.1 reference over
    /// the clustered row order — for every execution strategy, at every
    /// page size from 256 B to 4 KiB. After each strategy the pool is
    /// drained to zero bytes: nothing may stay pinned past its query.
    #[test]
    fn paged_backends_are_bit_identical_to_the_reference(
        b in base_strategy(),
        r in detail_strategy(),
        theta in theta_strategy(),
        specs in agg_list_strategy(),
        page_pick in 0usize..5,
    ) {
        let page_bytes = [256u64, 512, 1024, 2048, 4096][page_pick];
        let dir = CaseDir::new("sweep");
        let (store, boot) = PagedStore::open(dir.path()).unwrap();
        prop_assert!(!boot.recovered_anything(), "fresh dir must not recover");
        let table = store.create_table("R", &r, "k", page_bytes).unwrap();
        // Room for a frame per worker plus LRU slack, but small enough that
        // multi-page tables thrash: eviction churn is part of the property.
        let pool = BufferPool::new(4 * page_bytes);
        let scan = PagedScan::new(table.clone(), pool.clone());
        // The pager re-sorts by the clustered key; the reference must see
        // the same tuple order for floating-point bit-identity.
        let clustered = scan.materialize(&ExecContext::new()).unwrap();
        prop_assert_eq!(clustered.len(), r.len(), "no row lost to paging");
        let expected =
            reference_md_join(&b, &clustered, &specs, &theta, &Registry::standard());
        pool.clear();
        for strategy in PAGED_STRATEGIES {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(16)
                .with_stats(stats.clone());
            let out = match paged_md_join(&b, &scan, &specs, &theta, strategy, &ctx) {
                Ok(out) => out,
                Err(e) => {
                    return Err(proptest::test_runner::TestCaseError::Fail(format!(
                        "{strategy:?} over {page_bytes} B pages: {e}"
                    )))
                }
            };
            prop_assert_eq!(expected.schema(), out.schema(), "{:?}", strategy);
            prop_assert_eq!(expected.len(), out.len(), "{:?}", strategy);
            for (want, got) in expected.rows().iter().zip(out.rows()) {
                for (x, y) in want.values().iter().zip(got.values()) {
                    match (x, y) {
                        (Value::Float(f), Value::Float(g)) => prop_assert_eq!(
                            f.to_bits(),
                            g.to_bits(),
                            "{:?} @ {} B pages: {} vs {}",
                            strategy,
                            page_bytes,
                            f,
                            g
                        ),
                        _ => prop_assert_eq!(x, y, "{:?} @ {} B pages", strategy, page_bytes),
                    }
                }
            }
            // Residency respects the byte budget while running…
            prop_assert!(pool.resident_bytes() <= pool.budget());
            // …and the pool drains completely once the query is done: any
            // leaked pin would survive clear() and show up here.
            pool.clear();
            prop_assert_eq!(pool.resident_bytes(), 0, "{:?} leaked a pin", strategy);
        }
    }
}

/// Deterministic thrash check guarding the property above: with a pool far
/// smaller than the table, every strategy still answers bit-identically
/// while the pool visibly evicts (so the sweep is exercising real paging,
/// not a table that quietly fits in memory).
#[test]
fn paged_pool_thrash_evicts_and_still_matches() {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
    let rel = Relation::from_rows(
        schema,
        (0..4000i64)
            .map(|i| Row::new(vec![Value::Int(i % 50), Value::Float(i as f64 * 0.5)]))
            .collect(),
    );
    let dir = CaseDir::new("thrash");
    let (store, _) = PagedStore::open(dir.path()).unwrap();
    let table = store.create_table("R", &rel, "k", 256).unwrap();
    assert!(table.page_count() > 8, "table must span many pages");
    let pool = BufferPool::new(1024);
    assert!(
        pool.budget() < table.data_len(),
        "pool must be smaller than the table"
    );
    let scan = PagedScan::new(table.clone(), pool.clone());
    let clustered = scan.materialize(&ExecContext::new()).unwrap();
    pool.clear();
    let b = rel.distinct_on(&["k"]).unwrap();
    let theta = eq(col_b("k"), col_r("k"));
    let specs = [AggSpec::on_column("sum", "v"), AggSpec::count_star()];
    let expected = MdJoin::new(&b, &clustered)
        .aggs(&specs)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    for strategy in PAGED_STRATEGIES {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let out = paged_md_join(&b, &scan, &specs, &theta, strategy, &ctx).unwrap();
        assert_eq!(expected.rows(), out.rows(), "{strategy:?}");
        assert!(
            stats.pages_read() as usize >= table.page_count(),
            "{strategy:?}"
        );
        assert!(stats.bytes_read() >= table.data_len(), "{strategy:?}");
        assert!(stats.pool_evictions() > 0, "{strategy:?} never evicted");
        assert!(pool.resident_bytes() <= pool.budget());
        pool.clear();
        assert_eq!(pool.resident_bytes(), 0, "{strategy:?} leaked a pin");
    }
}

/// A deterministic, non-property smoke check that the spill path actually
/// engages for at least one representative input (guarding against the
/// property above silently never spilling).
#[test]
fn spill_path_engages_and_matches_serial() {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let r = Relation::from_rows(
        schema,
        (0..3000i64)
            .map(|i| Row::from_values([i % 40, i]))
            .collect(),
    );
    let b = r.distinct_on(&["k"]).unwrap();
    let theta = eq(col_b("k"), col_r("k"));
    let specs = [AggSpec::on_column("sum", "v"), AggSpec::count_star()];
    let serial = MdJoin::new(&b, &r)
        .aggs(&specs)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("mdj-diff-smoke-{}", std::process::id()));
    let stats = Arc::new(ScanStats::new());
    let ctx = ExecContext::new()
        .with_budget_bytes(2048)
        .with_spill_policy(SpillPolicy::Always)
        .with_spill_dir(&dir)
        .with_stats(stats.clone());
    let out = MdJoin::new(&b, &r)
        .aggs(&specs)
        .theta(theta)
        .strategy(ExecStrategy::Serial)
        .run(&ctx)
        .unwrap();
    assert_eq!(serial.rows(), out.rows());
    assert!(stats.spill_partitions() > 0, "spill must engage");
    assert!(stats.bytes_spilled() >= stats.spill_read_bytes());
    assert!(stats.spill_read_bytes() > 0);
    assert!(stats.scans() > 1);
    if let Ok(entries) = std::fs::read_dir(&dir) {
        assert_eq!(entries.count(), 0, "leaked run files");
    }
    let _ = std::fs::remove_dir(&dir);
}

/// An optimized query folds its WHERE into θ, `MD(B, T, l, p ∧ θ)`, instead of
/// copying `σ_p(T)`. When that join spills, the partitioner must drop every
/// tuple the detail-only prefilter rejects — a predicate on a non-key column
/// included — so it spills exactly what the join over the copied σ does, and
/// answers the same bits.
#[test]
fn spilled_folded_where_writes_only_the_selection() {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("state", DataType::Str),
        ("v", DataType::Float),
    ]);
    let r = Relation::from_rows(
        schema,
        (0..3000i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 40),
                    Value::str(["NY", "NJ", "CT"][(i % 3) as usize]),
                    Value::Float(i as f64 * 0.1),
                ])
            })
            .collect(),
    );
    let b = r.distinct_on(&["k"]).unwrap();
    let theta = eq(col_b("k"), col_r("k"));
    let where_ny = eq(col_r("state"), lit("NY"));
    let specs = [AggSpec::on_column("sum", "v"), AggSpec::count_star()];
    let dir = std::env::temp_dir().join(format!("mdj-diff-fold-{}", std::process::id()));
    let spilled = |r: &Relation, theta: Expr| {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_budget_bytes(2048)
            .with_spill_policy(SpillPolicy::Always)
            .with_spill_dir(&dir)
            .with_stats(stats.clone());
        let out = MdJoin::new(&b, r)
            .aggs(&specs)
            .theta(theta)
            .strategy(ExecStrategy::Serial)
            .run(&ctx)
            .unwrap();
        (out, stats.bytes_spilled())
    };
    let (folded, folded_bytes) = spilled(&r, and(where_ny.clone(), theta.clone()));
    let selected = mdj_naive::ops::select(&r, &where_ny).unwrap();
    let (copied, copied_bytes) = spilled(&selected, theta);
    assert!(copied_bytes > 0, "spill must engage");
    assert_eq!(folded_bytes, copied_bytes);
    let bits = |rel: &Relation| -> Vec<Vec<Result<u64, Value>>> {
        rel.iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => Ok(f.to_bits()),
                        other => Err(other.clone()),
                    })
                    .collect()
            })
            .collect()
    };
    assert_eq!(bits(&folded), bits(&copied));
    if let Ok(entries) = std::fs::read_dir(&dir) {
        assert_eq!(entries.count(), 0, "leaked run files");
    }
    let _ = std::fs::remove_dir(&dir);
}

/// One pseudo-random draw per (seed, row, column): the filtered-base sweep
/// builds tables of up to 4097 rows without a 4097-element strategy.
fn mix(seed: u64, row: u64, col: u64) -> u64 {
    let mut z =
        seed ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ col.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` rows of `(i Int, s Str, f Float, m Any)`, each column about a third
/// NULL. `m` mixes `Int`, `ALL` and `Bool` cells, so its chunks have no typed
/// column and every predicate over it takes the scalar interpreter.
fn null_heavy(n: usize, seed: u64) -> Relation {
    let schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
        ("m", DataType::Any),
    ]);
    let cell = |row: u64, col: u64| mix(seed, row, col) % 12;
    let rows = (0..n as u64)
        .map(|t| {
            Row::new(vec![
                match cell(t, 0) {
                    0..=3 => Value::Null,
                    x => Value::Int(x as i64 - 4),
                },
                match cell(t, 1) {
                    0..=3 => Value::Null,
                    x => Value::str(["NY", "NJ", "CT", "CA"][(x % 4) as usize]),
                },
                match cell(t, 2) {
                    0..=3 => Value::Null,
                    x => Value::Float(x as f64 * 0.25),
                },
                match cell(t, 3) {
                    0..=3 => Value::Null,
                    4..=5 => Value::All,
                    6..=7 => Value::Bool(cell(t, 4) % 2 == 0),
                    x => Value::Int(x as i64 % 3),
                },
            ])
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// WHERE predicates: batchable comparisons over typed columns, predicates
/// over the untyped column, and `Div`/`Mod`, which have no batch form.
fn where_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(eq(col_r("i"), lit(3i64))),
        Just(gt(col_r("f"), lit(1.5))),
        Just(eq(col_r("s"), lit("NY"))),
        Just(not(eq(col_r("s"), lit("NJ")))),
        Just(and(ge(col_r("i"), lit(2i64)), ne(col_r("s"), lit("CT")))),
        Just(or(eq(col_r("m"), lit(1i64)), lt(col_r("f"), lit(1.0)))),
        Just(eq(col_r("m"), lit(true))),
        Just(eq(modulo(col_r("i"), lit(3i64)), lit(1i64))),
        Just(gt(div(col_r("f"), lit(2i64)), lit(0.5))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one-pass filtered base build equals the σ copy it replaces: for
    /// every base shape, `basevalues::build_filtered` returns the rows of
    /// `basevalues::build` over `mdj_naive::ops::select`, in the same
    /// first-seen order — on NULL-heavy tables of every column type, for
    /// batchable and scalar-only predicates, at the sizes around the
    /// 4096-row chunk edge.
    #[test]
    fn filtered_base_build_equals_select_then_build(
        size_pick in 0usize..5,
        seed in any::<u64>(),
        pred in where_strategy(),
        shape_pick in 0usize..5,
    ) {
        let r = null_heavy([0, 1, 4095, 4096, 4097][size_pick], seed);
        let listed = [vec!["i"], vec!["s", "m"], vec![]];
        let (dims, sets): (&[&str], basevalues::Sets) = match shape_pick {
            0 => (&["i", "s"], basevalues::Sets::GroupBy),
            1 => (&["i", "s"], basevalues::Sets::Cube),
            2 => (&["s", "m"], basevalues::Sets::Rollup),
            3 => (&["i", "s", "m"], basevalues::Sets::GroupingSets(&listed)),
            _ => (&["i", "m"], basevalues::Sets::Unpivot),
        };
        let selected = mdj_naive::ops::select(&r, &pred).unwrap();
        let expected = basevalues::build(&selected, dims, sets).unwrap();
        let got = basevalues::build_filtered(&r, &pred, dims, sets, &ExecContext::new()).unwrap();
        prop_assert_eq!(expected.schema(), got.schema());
        prop_assert_eq!(expected.rows(), got.rows(), "{} over {} rows", pred, r.len());
    }

    /// A group-by of the detail relation itself (`MdJoin::group_by`) equals
    /// the plan that builds `B` first, row for row and bit for bit, with the
    /// same probe and update counts: on the same NULL-heavy tables and WHERE
    /// predicates, for one block or two. Over `Int`/`Str` keys the batch
    /// evaluator builds `B` inside its one scan; over a `Float` or untyped
    /// key column `B` keeps a pass of its own.
    #[test]
    fn group_by_built_in_the_scan_equals_building_it_first(
        size_pick in 0usize..5,
        seed in any::<u64>(),
        pred in where_strategy(),
        dims_pick in 0usize..5,
        k in 1usize..3,
    ) {
        let r = null_heavy([0, 1, 4095, 4096, 4097][size_pick], seed);
        let (dims, in_scan): (&[&str], bool) =
            [(&["i"][..], true), (&["s"], true), (&["i", "s"], true), (&["f"], false), (&["i", "m"], false)]
                [dims_pick];
        let key = mdj_expr::builder::and_all(dims.iter().map(|d| eq(col_b(*d), col_r(*d))));
        let aggs = |i: usize| {
            vec![
                AggSpec::count_star().with_alias(format!("n{i}")),
                AggSpec::on_column("sum", "f").with_alias(format!("sum{i}")),
                AggSpec::on_column("min", "s").with_alias(format!("min{i}")),
                AggSpec::on_column("median", "i").with_alias(format!("med{i}")),
            ]
        };
        let blocks = [
            Block::new(and(pred.clone(), key.clone()), aggs(0)),
            Block::new(and(and(pred.clone(), key), ne(col_r("s"), lit("CA"))), aggs(1)),
        ];
        let ctx = |stats: &Arc<ScanStats>| ExecContext::new().with_stats(stats.clone());
        let b = basevalues::build_filtered(&r, &pred, dims, basevalues::Sets::GroupBy, &ExecContext::new()).unwrap();
        let want_stats = Arc::new(ScanStats::new());
        let want = MdJoin::new(&b, &r)
            .blocks(blocks[..k].iter().cloned())
            .strategy(ExecStrategy::Vectorized)
            .run(&ctx(&want_stats))
            .unwrap();
        let stats = Arc::new(ScanStats::new());
        let got = MdJoin::group_by(DetailSource::Resident(&r), dims, Some(pred.clone()))
            .blocks(blocks[..k].iter().cloned())
            .strategy(ExecStrategy::Vectorized)
            .threads(1)
            .run(&ctx(&stats))
            .unwrap();
        let label = format!("dims={dims:?} k={k} where {pred} over {} rows", r.len());
        prop_assert_eq!(want.rows(), got.rows(), "{}", label);
        prop_assert_eq!(want_stats.probes(), stats.probes(), "{}", label);
        prop_assert_eq!(want_stats.updates(), stats.updates(), "{}", label);
        prop_assert_eq!(stats.base_fused(), in_scan as u64, "{}", label);
        prop_assert_eq!(stats.base_passes(), !in_scan as u64, "{}", label);
        prop_assert_eq!(stats.scans(), 1, "{}", label);
    }
}

/// What one key column holds on the detail side: its `B` column is untyped
/// where the detail's is numeric, and mixes `Int` and `Float` there.
#[derive(Debug, Clone, Copy)]
enum KeyKind {
    Int,
    Float,
    Str,
}

impl KeyKind {
    fn of(pick: u8) -> KeyKind {
        [KeyKind::Int, KeyKind::Float, KeyKind::Str][pick as usize % 3]
    }

    fn dtype(self) -> DataType {
        match self {
            KeyKind::Int => DataType::Int,
            KeyKind::Float => DataType::Float,
            KeyKind::Str => DataType::Str,
        }
    }

    /// A `B` component: `1` next to `1.0`, `-0.0`, a fraction and a value no
    /// detail row holds, NULL; strings the detail side partly lacks.
    fn base_value(self, pick: u8) -> Value {
        match (self, pick % 8) {
            (_, 7) => Value::Null,
            (KeyKind::Str, p) => Value::str(["a", "b", "c", "x", "y", "a", "b"][p as usize]),
            (_, p) => [
                Value::Int(0),
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(-0.0),
                Value::Int(2),
                Value::Float(2.5),
                Value::Int(9),
            ][p as usize]
                .clone(),
        }
    }

    /// A detail component of this column's type: fresh, or `B`'s `from`.
    /// A float zero is always `-0.0`: θ's `=` holds for `0 = -0.0` and
    /// `0 = 0.0` but not for `0.0 = -0.0` (`Value::sql_cmp` orders floats
    /// by `total_cmp`), while a probe key, canonicalized, meets all three —
    /// so `B`'s float zero, `-0.0`, must not meet a detail `0.0`.
    fn detail_value(self, pick: u8, from: Option<&Value>) -> Value {
        let float = |f: f64| Value::Float(if f == 0.0 { -0.0 } else { f });
        match (self, from) {
            (_, Some(Value::Null)) => Value::Null,
            (KeyKind::Int, Some(v)) => Value::Int(v.as_float().unwrap() as i64),
            (KeyKind::Float, Some(v)) => float(v.as_float().unwrap()),
            (KeyKind::Str, Some(v)) => v.clone(),
            (_, None) if pick % 6 == 5 => Value::Null,
            (KeyKind::Int, None) => Value::Int(i64::from(pick % 6) - 1),
            (KeyKind::Float, None) => float([0.0, 1.0, 1.5, 2.0, 3.0][pick as usize % 6]),
            (KeyKind::Str, None) => Value::str(["a", "b", "c", "d", "z"][pick as usize % 6]),
        }
    }
}

/// An equi-join MD-join over 1–6 key columns `c0..`: `B`, `R` (clustered on
/// `id`, its row order) and θ.
#[derive(Debug)]
struct KeyedCase {
    b: Relation,
    r: Relation,
    theta: Expr,
}

fn keyed_case_strategy() -> impl Strategy<Value = KeyedCase> {
    let picks = || proptest::collection::vec(any::<u8>(), 6);
    (
        1usize..7,
        picks(),
        proptest::collection::vec(picks(), 0..16),
        proptest::collection::vec((picks(), any::<u8>(), -4i64..8), 0..60),
        any::<u8>(),
    )
        .prop_map(|(w, kinds, b_picks, r_picks, flags)| {
            let (computed, filtered, twice) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let kinds: Vec<KeyKind> = kinds[..w].iter().map(|&k| KeyKind::of(k)).collect();
            let name = |j: usize| format!("c{j}");
            let b_fields: Vec<(String, DataType)> = kinds
                .iter()
                .enumerate()
                .map(|(j, k)| match k {
                    KeyKind::Str => (name(j), DataType::Str),
                    _ => (name(j), DataType::Any),
                })
                .collect();
            let mut b_rows: Vec<Row> = b_picks
                .iter()
                .map(|picks| {
                    Row::new(
                        kinds
                            .iter()
                            .zip(picks)
                            .map(|(k, &p)| k.base_value(p))
                            .collect(),
                    )
                })
                .collect();
            // A key `B` repeats, besides those the picks repeat.
            if let (true, Some(first)) = (twice, b_rows.first().cloned()) {
                b_rows.push(first);
            }
            let mut r_fields = vec![("id".to_string(), DataType::Int)];
            r_fields.extend(kinds.iter().enumerate().map(|(j, k)| (name(j), k.dtype())));
            r_fields.push(("v".to_string(), DataType::Float));
            let r_rows =
                r_picks
                    .iter()
                    .enumerate()
                    .map(|(i, (picks, from, v))| {
                        // Half the rows copy a key of `B`, so wide keys meet too.
                        let from = (from % 2 == 0 && !b_rows.is_empty())
                            .then(|| &b_rows[*from as usize % b_rows.len()]);
                        let mut vals = vec![Value::Int(i as i64)];
                        vals.extend(kinds.iter().enumerate().map(|(j, k)| {
                            k.detail_value(picks[j], from.map(|row| &row.values()[j]))
                        }));
                        vals.push(match v {
                            -4 => Value::Null,
                            v => Value::Float(*v as f64 * 0.3),
                        });
                        Row::new(vals)
                    })
                    .collect();
            let schema = |fields: &[(String, DataType)]| {
                let pairs: Vec<(&str, DataType)> =
                    fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                Schema::from_pairs(&pairs)
            };
            let mut conjuncts: Vec<Expr> = kinds
                .iter()
                .enumerate()
                .map(|(j, k)| match (j, k, computed) {
                    (0, KeyKind::Int | KeyKind::Float, true) => {
                        eq(col_b(name(0)), add(col_r(name(0)), lit(1i64)))
                    }
                    _ => eq(col_b(name(j)), col_r(name(j))),
                })
                .collect();
            if filtered {
                conjuncts.push(gt(col_r("v"), lit(0.0)));
            }
            KeyedCase {
                b: Relation::from_rows(schema(&b_fields), b_rows),
                r: Relation::from_rows(schema(&r_fields), r_rows),
                theta: mdj_expr::builder::and_all(conjuncts),
            }
        })
}

/// Rows equal value for value, floats by their bits.
fn assert_bits_equal(
    want: &Relation,
    got: &Relation,
    label: &str,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(want.schema(), got.schema(), "{}", label);
    prop_assert_eq!(want.len(), got.len(), "{}", label);
    for (w, g) in want.rows().iter().zip(got.rows()) {
        for (x, y) in w.values().iter().zip(g.values()) {
            match (x, y) {
                (Value::Float(f), Value::Float(g)) => {
                    prop_assert_eq!(f.to_bits(), g.to_bits(), "{}", label)
                }
                _ => prop_assert_eq!(x, y, "{}", label),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Served equi-join MD-joins, whose keys resolve through the plan's
    /// `KeyIndex` — row by row on the scalar evaluator, through translated
    /// chunk codes on the batch evaluator — equal the Definition 3.1
    /// reference, which resolves no key through it: bit for bit, over a
    /// resident and a paged `R`, at morsel sizes 1, 7 and 4096. The keys
    /// have 1–6 columns, `Int` and `Float` components that meet `B`'s `1`,
    /// `1.0` and `-0.0`, NULLs on both sides, repeated `B` keys, components
    /// `B` lacks, and a computed `B.c0 = R.c0 + 1`. θ is equalities and a
    /// detail-only filter, so each tuple's bucket is exactly its matches:
    /// probes equal the (b, t) pairs θ holds for, and updates those pairs
    /// times the aggregates.
    #[test]
    fn coded_key_probes_equal_the_reference(case in keyed_case_strategy()) {
        let KeyedCase { b, r, theta } = case;
        let specs = [
            AggSpec::count_star(),
            AggSpec::on_column("sum", "v"),
            AggSpec::on_column("max", "v"),
        ];
        let expected = reference_md_join(&b, &r, &specs, &theta, &Registry::standard());
        let bound = theta.bind(Some(b.schema()), Some(r.schema())).unwrap();
        let mut pairs = 0u64;
        for t in r.iter() {
            for row in b.iter() {
                pairs += u64::from(bound.eval_bool(row.values(), t.values()).unwrap());
            }
        }
        let dir = CaseDir::new("keys");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("R", &r, "id", 512).unwrap();
        let scan = PagedScan::new(table, BufferPool::new(4 * 512));
        let clustered = scan.materialize(&ExecContext::new()).unwrap();
        prop_assert_eq!(clustered.rows(), r.rows(), "clustering on `id` keeps the row order");
        for paged in [false, true] {
            for strategy in [ExecStrategy::Serial, ExecStrategy::Vectorized] {
                for morsel in [1, 7, 4096] {
                    let stats = Arc::new(ScanStats::new());
                    let join = match paged {
                        false => MdJoin::new(&b, &r),
                        true => MdJoin::paged(&b, &scan),
                    };
                    let out = join
                        .aggs(&specs)
                        .theta(theta.clone())
                        .strategy(strategy)
                        .threads(1)
                        .run(&ExecContext::new().with_morsel_size(morsel).with_stats(stats.clone()))
                        .unwrap();
                    let label = format!("{strategy:?}, paged {paged}, morsel {morsel}, θ = {theta}");
                    assert_bits_equal(&expected, &out, &label)?;
                    prop_assert_eq!(stats.probes(), pairs, "{}", label);
                    prop_assert_eq!(stats.updates(), pairs * specs.len() as u64, "{}", label);
                }
            }
        }
    }
}
