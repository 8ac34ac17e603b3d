//! Incremental-maintenance equivalence: ingesting `R` in *any* random batch
//! split must be indistinguishable from having loaded the full relation up
//! front — bit-for-bit (floats compared by `f64::to_bits`) and
//! counter-consistent.
//!
//! Three properties:
//!
//! * the canonical cuboid query over the grown catalog matches a
//!   from-scratch engine exactly, with the cuboid cache cold *or* warm —
//!   warm means every batch was folded into the resident cuboid in place
//!   (Algorithm 3.1) and the final answer is served from the maintained
//!   entry, never recomputed;
//! * the same holds across `Serial`/`Vectorized` execution through
//!   the `MdJoin` builder (the kernels promise row-identical output);
//! * a non-distributive aggregate (`avg`) makes the entry unmaintainable —
//!   ingest must *drop* it (a stale serve is the failure mode), and the
//!   recomputed answer still matches from-scratch;
//! * a coarser query served by a Theorem 4.5 roll-up hit over integer
//!   measures is bit-identical to computing it directly;
//! * readers that pin a catalog snapshot while batches land concurrently —
//!   the append and the cuboid fold are copy-on-write, in place whenever
//!   nobody is looking — get the oracle's answer at the version they
//!   pinned, and neither the snapshot nor a lent answer changes under them.
//!
//! The vendored proptest runner is deterministic (seeded from the test
//! name), so CI runs are exactly reproducible.

use mdj_agg::AggSpec;
use mdj_algebra::{execute, Plan};
use mdj_core::basevalues::cuboid_theta;
use mdj_core::{EngineConfig, ExecContext, ExecStrategy, MdJoin, QueryCtx};
use mdj_storage::{DataType, Relation, Row, ScanStats, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn sales_schema() -> Schema {
    Schema::from_pairs(&[
        ("cust", DataType::Int),
        ("month", DataType::Int),
        ("state", DataType::Str),
        ("qty", DataType::Int),
        ("amt", DataType::Float),
    ])
}

/// Detail rows over a small key domain (so groups collide across batches)
/// with ~1/4-NULL measure columns and floats with repeating binary
/// fractions — any re-association or double-rounding shows up in the bits.
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let row = (0i64..6, 1i64..4, 0u8..3, -20i64..15, -16i64..10);
    proptest::collection::vec(row, 0..60).prop_map(|rows| {
        rows.into_iter()
            .map(|(c, m, s, q, f)| {
                Row::new(vec![
                    Value::Int(c),
                    Value::Int(m),
                    Value::str(["NY", "NJ", "CA"][s as usize]),
                    if q < -15 { Value::Null } else { Value::Int(q) },
                    if f < -12 {
                        Value::Null
                    } else {
                        Value::Float(f as f64 * 0.3)
                    },
                ])
            })
            .collect()
    })
}

/// Raw cut draws, independent of the row count (the vendored proptest has
/// no `prop_flat_map`); [`resolve_cuts`] scales them to the relation.
fn raw_cuts_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..5)
}

/// Sorted, deduplicated cut points `[0, …, n]`: the first segment seeds the
/// table, every later segment arrives as one ingest batch.
fn resolve_cuts(raw: &[usize], n: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = raw.iter().map(|&r| r % (n + 1)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Ordered, bit-exact relation equality: same row count, every value equal,
/// floats by `to_bits` (NaN-safe, distinguishes `-0.0` from `0.0`).
fn bit_identical(a: &Relation, b: &Relation) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.values().len() == y.values().len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, v)| match (u, v) {
                        (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                        _ => u == v,
                    })
        })
}

/// Build one engine seeded with `initial` and one seeded with the full
/// relation, both with a cuboid cache.
fn engines(rows: &[Row], cuts: &[usize]) -> (Arc<EngineConfig>, Arc<EngineConfig>) {
    let initial = rows[..cuts.get(1).copied().unwrap_or(0)].to_vec();
    let grown = EngineConfig::new()
        .register_table("Sales", Relation::from_rows(sales_schema(), initial))
        .with_cuboid_cache(1 << 20)
        .build();
    let scratch = EngineConfig::new()
        .register_table("Sales", Relation::from_rows(sales_schema(), rows.to_vec()))
        .with_cuboid_cache(1 << 20)
        .build();
    (grown, scratch)
}

fn ctx_for(engine: &Arc<EngineConfig>, stats: &Arc<ScanStats>) -> ExecContext {
    ExecContext::from_parts(engine.clone(), QueryCtx::new().with_stats(stats.clone()))
}

fn cuboid_plan(dims: &[&str], aggs: Vec<AggSpec>) -> Plan {
    Plan::table("Sales")
        .group_by_base(dims)
        .md_join(Plan::table("Sales"), aggs, cuboid_theta(dims))
}

/// All-distributive aggregate list (maintained in place on ingest),
/// including a float sum — the bit-level stress case.
fn distributive_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::on_column("sum", "amt"),
        AggSpec::on_column("sum", "qty"),
        AggSpec::count_star(),
        AggSpec::on_column("count", "qty"),
        AggSpec::on_column("min", "qty"),
        AggSpec::on_column("max", "amt"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole property: any batch split, cache cold or warm, ends in the
    /// same catalog contents, the same cuboid bits, and the exact expected
    /// cache/ingest counters.
    #[test]
    fn ingest_in_random_splits_matches_from_scratch_bit_for_bit(
        rows in rows_strategy(),
        raw_cuts in raw_cuts_strategy(),
        warm in any::<bool>(),
    ) {
        let cuts = resolve_cuts(&raw_cuts, rows.len());
        let (grown, scratch) = engines(&rows, &cuts);
        let dims = ["cust", "month"];
        let plan = cuboid_plan(&dims, distributive_aggs());
        let stats = Arc::new(ScanStats::new());
        let ctx = ctx_for(&grown, &stats);
        if warm {
            execute(&plan, grown.catalog(), &ctx).unwrap();
            prop_assert_eq!(stats.cache_misses(), 1);
        }
        let mut batches = 0u64;
        for w in cuts.windows(2).skip(1) {
            let batch = rows[w[0]..w[1]].to_vec();
            let expect = batch.len();
            let report = ctx.ingest("Sales", batch).unwrap();
            prop_assert_eq!(report.rows, expect);
            // Every aggregate is distributive: nothing may be dropped.
            prop_assert_eq!(report.cache_invalidated, 0);
            batches += 1;
        }
        prop_assert_eq!(stats.ingest_batches(), batches);
        prop_assert_eq!(stats.cache_invalidations(), 0);

        // The grown catalog holds exactly the full relation, bit for bit.
        let grown_rel = grown.catalog().get("Sales").unwrap();
        let scratch_rel = scratch.catalog().get("Sales").unwrap();
        prop_assert!(bit_identical(&grown_rel, &scratch_rel));

        // The canonical cuboid query agrees with a from-scratch engine.
        // Warm, it must be served from the maintained entry (a hit, not a
        // recompute); cold, it is computed once and cached.
        let answer = execute(&plan, grown.catalog(), &ctx).unwrap();
        if warm {
            prop_assert_eq!(stats.cache_hits(), 1);
            prop_assert_eq!(stats.cache_misses(), 1);
        } else {
            prop_assert_eq!(stats.cache_hits(), 0);
            prop_assert_eq!(stats.cache_misses(), 1);
        }
        let reference = execute(
            &plan,
            scratch.catalog(),
            &ctx_for(&scratch, &Arc::new(ScanStats::new())),
        )
        .unwrap();
        prop_assert!(bit_identical(&answer, &reference));

        // Strategy sweep through the builder (no cache): the grown and the
        // from-scratch relations are interchangeable under every executor.
        let aggs = distributive_aggs();
        let theta = cuboid_theta(&dims);
        for strategy in [ExecStrategy::Serial, ExecStrategy::Vectorized] {
            let plain = ExecContext::new();
            let run = |r: &Relation| {
                let b = r.distinct_on(&dims).unwrap();
                MdJoin::new(&b, r)
                    .aggs(&aggs)
                    .theta(theta.clone())
                    .strategy(strategy)
                    .run(&plain)
                    .unwrap()
            };
            prop_assert!(
                bit_identical(&run(&grown_rel), &run(&scratch_rel)),
                "strategy {:?} diverged between grown and from-scratch relations",
                strategy
            );
        }
    }

    /// A non-distributive aggregate (`avg`) cannot be folded forward:
    /// ingest must drop the entry — never serve it stale — and the
    /// recomputed answer still matches from-scratch exactly.
    #[test]
    fn non_distributive_entries_are_dropped_not_served_stale(
        rows in rows_strategy(),
        raw_cuts in raw_cuts_strategy(),
    ) {
        let cuts = resolve_cuts(&raw_cuts, rows.len());
        let (grown, scratch) = engines(&rows, &cuts);
        let dims = ["cust"];
        let aggs = vec![AggSpec::on_column("avg", "amt"), AggSpec::count_star()];
        let plan = cuboid_plan(&dims, aggs);
        let stats = Arc::new(ScanStats::new());
        let ctx = ctx_for(&grown, &stats);
        execute(&plan, grown.catalog(), &ctx).unwrap(); // warm the cache
        let mut ingested = 0usize;
        let mut dropped = 0u64;
        for w in cuts.windows(2).skip(1) {
            let report = ctx.ingest("Sales", rows[w[0]..w[1]].to_vec()).unwrap();
            prop_assert_eq!(report.cache_maintained, 0);
            dropped += report.cache_invalidated;
            ingested += w[1] - w[0];
        }
        if ingested > 0 {
            // The warmed avg entry was dropped by the first batch.
            prop_assert_eq!(dropped, 1);
            prop_assert_eq!(stats.cache_invalidations(), 1);
        }
        let answer = execute(&plan, grown.catalog(), &ctx).unwrap();
        if ingested > 0 {
            prop_assert_eq!(stats.cache_hits(), 0);
            prop_assert_eq!(stats.cache_misses(), 2); // warm-up + recompute
        }
        let reference = execute(
            &plan,
            scratch.catalog(),
            &ctx_for(&scratch, &Arc::new(ScanStats::new())),
        )
        .unwrap();
        prop_assert!(bit_identical(&answer, &reference));
    }

    /// Theorem 4.5: a coarser cuboid served by rolling up a cached finer
    /// one is bit-identical to computing it directly. Integer measures
    /// only — roll-up re-associates the sum, which is exact on `Int`.
    #[test]
    fn rollup_hits_are_bit_identical_to_direct_computation(
        rows in rows_strategy(),
    ) {
        let engine = EngineConfig::new()
            .register_table("Sales", Relation::from_rows(sales_schema(), rows))
            .with_cuboid_cache(1 << 20)
            .build();
        let aggs = vec![
            AggSpec::on_column("sum", "qty"),
            AggSpec::count_star(),
            AggSpec::on_column("count", "qty"),
            AggSpec::on_column("min", "qty"),
            AggSpec::on_column("max", "qty"),
        ];
        let fine = cuboid_plan(&["cust", "month"], aggs.clone());
        let coarse = cuboid_plan(&["cust"], aggs);
        let stats = Arc::new(ScanStats::new());
        let ctx = ctx_for(&engine, &stats);
        execute(&fine, engine.catalog(), &ctx).unwrap(); // cache the finer cuboid
        let rolled = execute(&coarse, engine.catalog(), &ctx).unwrap();
        prop_assert_eq!(stats.cache_rollup_hits(), 1);
        let direct = execute(
            &coarse,
            engine.catalog(),
            &ExecContext::new(),
        )
        .unwrap();
        prop_assert!(bit_identical(&rolled, &direct));
    }

    /// A rolled-up cuboid becomes resident in its own right: the first
    /// coarse query pays the Theorem 4.5 join once (rollup hit), the repeat
    /// is an *exact* hit — no second roll-up — and the answers stay
    /// bit-identical.
    #[test]
    fn rolled_up_cuboids_become_resident(
        rows in rows_strategy(),
    ) {
        let engine = EngineConfig::new()
            .register_table("Sales", Relation::from_rows(sales_schema(), rows))
            .with_cuboid_cache(1 << 20)
            .build();
        let aggs = vec![AggSpec::on_column("sum", "qty"), AggSpec::count_star()];
        let fine = cuboid_plan(&["cust", "month"], aggs.clone());
        let coarse = cuboid_plan(&["cust"], aggs);
        let stats = Arc::new(ScanStats::new());
        let ctx = ctx_for(&engine, &stats);
        execute(&fine, engine.catalog(), &ctx).unwrap(); // resident finer cuboid
        let warm = execute(&coarse, engine.catalog(), &ctx).unwrap();
        prop_assert_eq!(stats.cache_rollup_hits(), 1);
        prop_assert_eq!(stats.cache_hits(), 0);
        let warm_again = execute(&coarse, engine.catalog(), &ctx).unwrap();
        prop_assert_eq!(stats.cache_rollup_hits(), 1); // no second roll-up
        prop_assert_eq!(stats.cache_hits(), 1);        // served exactly
        prop_assert!(bit_identical(&warm, &warm_again));
    }
}

/// Deterministic detail rows for the concurrent arm: the same small key
/// domain, NULLs and repeating binary fractions as [`rows_strategy`].
fn seeded_rows(n: usize) -> Vec<Row> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m) as i64
    };
    (0..n)
        .map(|_| {
            let (q, f) = (next(35) - 20, next(26) - 16);
            Row::new(vec![
                Value::Int(next(6)),
                Value::Int(1 + next(3)),
                Value::str(["NY", "NJ", "CA"][next(3) as usize]),
                if q < -15 { Value::Null } else { Value::Int(q) },
                if f < -12 {
                    Value::Null
                } else {
                    Value::Float(f as f64 * 0.3)
                },
            ])
        })
        .collect()
}

/// Snapshot reads under concurrent ingest, with the interleaving forced by a
/// barrier: in round `r` every reader first takes what it will hold, then the
/// writer lands batch `r`, then every reader checks what it sees.
///
/// * Even rounds: each reader pins a catalog snapshot the way
///   `QueryService::run` does, so the append must go onto a copy; afterwards
///   the pinned table still has exactly its rows, the cache refuses to serve
///   the moved-on cuboid to it, and a query over it is the oracle's answer at
///   the version it pinned.
/// * Every round: a fresh query is an *exact hit* on the maintained cuboid
///   and equals the oracle at the new version; the answer lent a round ago
///   is still the oracle's at its own version (the fold in between went onto
///   a copy because the reader held it).
/// * Rounds 3, 7, …: nobody holds anything while the batch lands, so the
///   append and the fold must both have happened in place — the table's and
///   the cuboid's first value buffers are where they were a round earlier.
#[test]
fn readers_pinning_snapshots_across_batches_see_the_version_they_read() {
    use mdj_core::{CacheAnswer, CuboidRequest};
    const INITIAL: usize = 120;
    const BATCH: usize = 16;
    const ROUNDS: usize = 24;
    let rows = seeded_rows(INITIAL + BATCH * ROUNDS);
    let fine = ["cust", "month"];
    let fine_plan = cuboid_plan(&fine, distributive_aggs());
    let fine_req = CuboidRequest::new(
        "Sales",
        fine.iter().map(|d| d.to_string()).collect(),
        distributive_aggs(),
    );
    let coarse_plan = cuboid_plan(&["cust"], distributive_aggs());
    // The oracle at every version: a cold, cache-less run over the prefix.
    let oracle = |plan: &Plan, len: usize| {
        let mut catalog = mdj_storage::Catalog::new();
        catalog.register(
            "Sales",
            Relation::from_rows(sales_schema(), rows[..len].to_vec()),
        );
        execute(plan, &catalog, &ExecContext::new()).unwrap()
    };
    let first_buffer = |rel: &Relation| rel.rows()[0].values().as_ptr() as usize;
    for threads in [1usize, 2] {
        let engine = EngineConfig::new()
            .register_table(
                "Sales",
                Relation::from_rows(sales_schema(), rows[..INITIAL].to_vec()),
            )
            .with_cuboid_cache(1 << 20)
            .build();
        let cache = engine.cuboid_cache().unwrap();
        // Warm the cache so the folds have an entry to maintain.
        let warm = ctx_for(&engine, &Arc::new(ScanStats::new()));
        execute(&fine_plan, engine.catalog(), &warm).unwrap();
        let barrier = std::sync::Barrier::new(threads + 1);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let fresh_stats = Arc::new(ScanStats::new());
                    let fresh_ctx = ctx_for(&engine, &fresh_stats);
                    let stale_ctx = ctx_for(&engine, &Arc::new(ScanStats::new()));
                    // The cuboid lent last round, the version it answers
                    // for, and where the table and it kept their first row.
                    let mut lent: Option<(Arc<Relation>, usize)> = None;
                    let (mut table_at, mut cuboid_at) = (0usize, 0usize);
                    for r in 0..ROUNDS {
                        let before = INITIAL + BATCH * r;
                        let pinned = (r % 2 == 0).then(|| engine.catalog().clone());
                        if r % 4 == 3 {
                            lent = None;
                        }
                        barrier.wait();
                        // The writer lands batch `r` here.
                        barrier.wait();
                        let after = before + BATCH;
                        if let Some(snapshot) = &pinned {
                            let table = snapshot.get("Sales").unwrap();
                            assert_eq!(table.rows(), &rows[..before]);
                            assert!(matches!(
                                cache.lookup(&fine_req, &table, &stale_ctx).unwrap(),
                                CacheAnswer::Miss
                            ));
                            let stale = execute(&coarse_plan, snapshot, &stale_ctx).unwrap();
                            assert!(bit_identical(&stale, &oracle(&coarse_plan, before)));
                        }
                        let table = engine.catalog().get("Sales").unwrap();
                        assert_eq!(table.rows(), &rows[..after]);
                        let answer = execute(&fine_plan, engine.catalog(), &fresh_ctx).unwrap();
                        assert!(bit_identical(&answer, &oracle(&fine_plan, after)));
                        // Served from the entry every batch was folded into.
                        assert_eq!(fresh_stats.cache_hits(), r as u64 + 1);
                        assert_eq!(fresh_stats.cache_misses(), 0);
                        if let Some((cuboid, len)) = &lent {
                            assert!(bit_identical(cuboid, &oracle(&fine_plan, *len)));
                        }
                        if r > 0 {
                            // Copied exactly when somebody was holding it.
                            let table_held = pinned.is_some();
                            assert_eq!(first_buffer(&table) != table_at, table_held);
                            assert_eq!(first_buffer(&answer) != cuboid_at, lent.is_some());
                        }
                        (table_at, cuboid_at) = (first_buffer(&table), first_buffer(&answer));
                        lent = Some((answer, after));
                    }
                });
            }
            let ctx = ctx_for(&engine, &Arc::new(ScanStats::new()));
            for batch in rows[INITIAL..].chunks(BATCH) {
                barrier.wait();
                let report = ctx.ingest("Sales", batch.to_vec()).unwrap();
                assert_eq!(report.rows, BATCH);
                assert!(report.cache_maintained >= 1, "{report:?}");
                barrier.wait();
            }
        });
    }
}
