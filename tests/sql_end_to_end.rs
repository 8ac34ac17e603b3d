//! SQL-surface integration tests on generated workloads, cross-checked
//! against the classical evaluator.

use mdj_agg::{AggSpec, Registry};
use mdj_app::demo_engine;
use mdj_naive::groupby::group_by_agg;
use mdj_storage::{Relation, Value};

/// Example 2.5: per (`prod`, `month`) of 1997, the sales between the
/// previous and the next month's averages.
const EX25: &str = "select prod, month, count(Z.*) as cnt from Sales where year = 1997 \
     group by prod, month ; X, Y, Z \
     such that X.prod = prod and X.month = month - 1, \
               Y.prod = prod and Y.month = month + 1, \
               Z.prod = prod and Z.month = month \
                 and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)";

/// Every float as its bit pattern, every other value as itself.
fn bits(rel: &Relation) -> Vec<Vec<Result<u64, Value>>> {
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
}

#[test]
fn group_by_matches_classical_group_by() {
    let e = demo_engine(3_000, 7);
    let sales = e.catalog.get("Sales").unwrap();
    let md = e
        .query("select state, sum(sale), count(*), min(sale), max(sale) from Sales group by state")
        .unwrap();
    let oracle = group_by_agg(
        &sales,
        &["state"],
        &[
            AggSpec::on_column("sum", "sale"),
            AggSpec::count_star(),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ],
        &Registry::standard(),
    )
    .unwrap();
    assert!(md.same_multiset(&oracle));
}

#[test]
fn cube_query_matches_naive_cube() {
    let e = demo_engine(2_000, 8);
    let sales = e.catalog.get("Sales").unwrap();
    let md = e
        .query("select prod, state, sum(sale) from Sales analyze by cube(prod, state)")
        .unwrap();
    let oracle = mdj_naive::plans::cube_by_groupbys(
        &sales,
        &["prod", "state"],
        &[AggSpec::on_column("sum", "sale")],
        &Registry::standard(),
    )
    .unwrap();
    // Tolerant compare: the fast cube path rolls partial float sums up.
    assert!(md.approx_same_multiset(&oracle, 1e-9));
}

#[test]
fn rollup_is_a_subset_of_cube() {
    let e = demo_engine(1_500, 9);
    let cube = e
        .query("select prod, month, sum(sale) from Sales analyze by cube(prod, month)")
        .unwrap();
    let rollup = e
        .query("select prod, month, sum(sale) from Sales analyze by rollup(prod, month)")
        .unwrap();
    assert!(rollup.len() < cube.len());
    // Tolerant subset check: rollup cells must match their cube counterparts
    // (the cube side was computed by roll-up chains, the rollup side by
    // per-cuboid probes, so float totals differ in the last bits).
    for row in rollup.iter() {
        let matched = cube.iter().any(|c| {
            c[0] == row[0]
                && c[1] == row[1]
                && match (c[2].as_float(), row[2].as_float()) {
                    (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                    _ => c[2] == row[2],
                }
        });
        assert!(matched, "rollup row {row} missing from cube");
    }
    // No (ALL, month) rows in a rollup.
    assert!(!rollup.iter().any(|r| r[0].is_all() && !r[1].is_all()));
}

#[test]
fn grouping_variables_match_hand_built_answer() {
    let e = demo_engine(2_500, 10);
    let sales = e.catalog.get("Sales").unwrap();
    let md = e
        .query(
            "select cust, count(Z.*) as big from Sales group by cust ; Z \
             such that Z.cust = cust and Z.sale > 900",
        )
        .unwrap();
    for row in md.iter().take(20) {
        let expected = sales
            .iter()
            .filter(|t| {
                t[0] == row[0]
                    && t[6].sql_cmp(&Value::Float(900.0)) == Some(std::cmp::Ordering::Greater)
            })
            .count() as i64;
        assert_eq!(row[1], Value::Int(expected));
    }
}

#[test]
fn emf_example_2_5_equals_multiblock_plan() {
    let e = demo_engine(4_000, 11);
    let sales = e.catalog.get("Sales").unwrap();
    let md = e.query(EX25).unwrap();
    let naive = mdj_naive::plans::example_2_5(&sales, 1997, &Registry::standard()).unwrap();
    let cols = ["prod", "month", "cnt"];
    assert!(md
        .project(&cols)
        .unwrap()
        .same_multiset(&naive.project(&cols).unwrap()));
}

/// Example 2.5 as served: `X` and `Y` are independent, so Theorem 4.3 fuses
/// them into one generalized MD-join, one scan of `Sales`; `Z` reads their
/// averages and scans once more. Two detail scans, not three, and the
/// answer is bit-equal to the literal three-scan plan.
#[test]
fn example_2_5_is_served_with_two_detail_scans() {
    use mdj_algebra::{optimize, rules::coalesce::detail_scan_count, Plan};
    let e = demo_engine(4_000, 18);
    let compiled = e.compile(EX25).unwrap();
    assert_eq!(detail_scan_count(&compiled.plan), 3);
    let plan = optimize(compiled.plan, &e.catalog, &Registry::standard()).unwrap();
    assert_eq!(detail_scan_count(&plan), 2);
    // Parallel{MdJoin Z over Parallel{GenMdJoin{X, Y}}}.
    let Plan::Parallel { input: z, .. } = &plan else {
        panic!("{plan:?}")
    };
    let Plan::MdJoin { base, .. } = z.as_ref() else {
        panic!("{plan:?}")
    };
    let Plan::Parallel { input: xy, .. } = base.as_ref() else {
        panic!("{plan:?}")
    };
    assert!(
        matches!(xy.as_ref(), Plan::GenMdJoin { blocks, .. } if blocks.len() == 2),
        "{plan:?}"
    );
    let served = e.query(EX25).unwrap();
    let oracle = e.query_unoptimized(EX25).unwrap();
    assert!(!served.is_empty());
    assert_eq!(bits(&served), bits(&oracle));
}

#[test]
fn having_matches_post_filter() {
    let e = demo_engine(2_000, 12);
    let with_having = e
        .query("select cust, sum(sale) from Sales group by cust having sum(sale) > 10000")
        .unwrap();
    let all = e
        .query("select cust, sum(sale) from Sales group by cust")
        .unwrap();
    let filtered =
        all.filter(|r| r[1].sql_cmp(&Value::Float(10_000.0)) == Some(std::cmp::Ordering::Greater));
    assert!(with_having.same_multiset(&filtered));
}

#[test]
fn where_clause_restricts_both_base_and_detail() {
    let e = demo_engine(2_000, 13);
    let sales = e.catalog.get("Sales").unwrap();
    let out = e
        .query("select cust, count(*) from Sales where state = 'NY' group by cust")
        .unwrap();
    let ny_customers = sales
        .filter(|t| t[5] == Value::str("NY"))
        .distinct_on(&["cust"])
        .unwrap();
    assert_eq!(out.len(), ny_customers.len());
    // Counts are NY-only.
    for row in out.iter().take(10) {
        let expected = sales
            .iter()
            .filter(|t| t[0] == row[0] && t[5] == Value::str("NY"))
            .count() as i64;
        assert_eq!(row[1], Value::Int(expected));
    }
}

#[test]
fn multi_fact_query_over_payments() {
    let e = demo_engine(2_000, 14);
    let out = e
        .query("select cust, sum(amount) from Payments group by cust")
        .unwrap();
    assert!(!out.is_empty());
    let payments = e.catalog.get("Payments").unwrap();
    for row in out.iter().take(10) {
        let expected: f64 = payments
            .iter()
            .filter(|t| t[0] == row[0])
            .map(|t| t[4].as_float().unwrap())
            .sum();
        assert!((row[1].as_float().unwrap() - expected).abs() < 1e-6);
    }
}

#[test]
fn optimizer_preserves_every_query_shape() {
    let e = demo_engine(1_500, 15);
    for sql in [
        "select cust, sum(sale) from Sales group by cust",
        "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
        "select prod, sum(sale) from Sales analyze by unpivot(prod, month)",
        "select cust, avg(X.sale) as a, avg(Y.sale) as b from Sales group by cust ; X, Y \
         such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'CA'",
        "select count(*) from Sales",
    ] {
        let a = e.query(sql).unwrap();
        let b = e.query_unoptimized(sql).unwrap();
        // Tolerant compare: query() may take the fast cube path, which sums
        // floats in a different order than the generic plan.
        assert!(a.approx_same_multiset(&b, 1e-9), "{sql}");
    }
}

/// The server's path through the engine: `SqlEngine::query` optimizes, the
/// optimizer wraps each MD-join in `Plan::Parallel`, and that runs the batch
/// evaluator once, on no workers. A WHERE is never copied on that path: the
/// optimizer folds its σ into θ, so every detail scan reads all of `R` and
/// the batch prefilter drops what σ would have. The base is
/// built in one filtered pass. `query_unoptimized` stays the literal scalar
/// Algorithm 3.1 (no batches, no workers, each σ materialized and
/// scanned), so it remains an independent oracle, and the two answers agree
/// to the bit, rows in the same order.
#[test]
fn server_path_runs_the_batch_evaluator_and_the_oracle_stays_scalar() {
    use mdj_core::ExecContext;
    use mdj_sql::SqlEngine;
    use mdj_storage::{Row, ScanStats};
    use std::sync::Arc;
    let catalog = demo_engine(20_000, 17).catalog;
    let sales = catalog.get("Sales").unwrap();
    // Sales is (cust, prod, day, month, year, state, sale).
    let month = |t: &Row| t[3].as_int().unwrap();
    let engine = |stats: &Arc<ScanStats>| {
        SqlEngine::with_context(
            catalog.clone(),
            ExecContext::new().with_stats(stats.clone()),
        )
    };
    // Every shape of the benchmark's WHERE clauses, with the rows its WHERE
    // keeps (every row where the statement has none), and whether its
    // group-by base is built inside the join's scan.
    type Kept<'a> = &'a dyn Fn(&Row) -> bool;
    let statements: [(&str, Kept, bool); 9] = [
        // `olap-mem`'s gb1, and `paged-*`'s point, range and nonkey.
        (
            "select cust, sum(sale), count(*) from Sales where month = 3 group by cust",
            &|t| month(t) == 3,
            true,
        ),
        (
            "select cust, sum(sale), count(*) from Sales where month between 3 and 5 group by cust",
            &|t| (3..=5).contains(&month(t)),
            true,
        ),
        (
            "select cust, sum(sale), count(*) from Sales where state = 'NY' group by cust",
            &|t| t[5] == Value::str("NY"),
            true,
        ),
        // gb2; gv1, whose `Z.sale > ?` stays in θ as the prefilter.
        (
            "select prod, state, sum(sale), avg(sale) from Sales group by prod, state",
            &|_| true,
            true,
        ),
        (
            "select cust, count(Z.*) from Sales group by cust ; Z such that Z.cust = cust and Z.sale > 500",
            &|_| true,
            true,
        ),
        // pivot3: three blocks over one group-by, one scan.
        (
            "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj from Sales group by cust ; \
             X, Y such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'NJ'",
            &|_| true,
            true,
        ),
        // ex25: `year = 1997` under the base and two detail scans, the
        // generalized X–Y one and Z's. X and Y probe the neighbouring
        // months' groups, so the base keeps its own pass.
        (EX25, &|t| t[4] == Value::Int(1997), false),
        // A WHERE under a pushed-down condition: two nested σs fold.
        (
            "select cust, count(Z.*) from Sales where month = 3 group by cust ; \
             Z such that Z.cust = cust and Z.sale > 500",
            &|t| month(t) == 3,
            true,
        ),
        // A holistic aggregate has no typed kernel: the scalar loop updates
        // it chunk by chunk inside the same batched, base-building scan.
        (
            "select cust, median(sale) from Sales group by cust",
            &|_| true,
            true,
        ),
    ];
    for (sql, kept, fused) in statements {
        let served = Arc::new(ScanStats::new());
        let answer = engine(&served).query(sql).unwrap();
        assert!(served.batches() > 0, "{sql}");
        assert!(served.workers().is_empty(), "{sql}");
        // σ ran as the batch prefilter over the whole table, every batch.
        let r = sales.len() as u64;
        assert_eq!(served.tuples_scanned(), served.scans() * r, "{sql}");
        assert_eq!(served.fallback_prefilter(), 0, "{sql}");
        // A fusable group-by reads `R` once: its base is built in the scan,
        // never in a pass of its own.
        assert_eq!(served.base_fused(), fused as u64, "{sql}");
        assert_eq!(served.base_passes(), !fused as u64, "{sql}");
        let oracle_stats = Arc::new(ScanStats::new());
        let oracle = engine(&oracle_stats).query_unoptimized(sql).unwrap();
        assert_eq!(oracle_stats.batches(), 0, "{sql}");
        assert!(oracle_stats.workers().is_empty(), "{sql}");
        assert_eq!(oracle_stats.base_fused(), 0, "{sql}");
        assert_eq!(oracle_stats.base_passes(), 1, "{sql}");
        // The reference scans the σ it materialized.
        let selected = sales.iter().filter(|t| kept(t)).count() as u64;
        assert_eq!(
            oracle_stats.tuples_scanned(),
            oracle_stats.scans() * selected,
            "{sql}"
        );
        assert_eq!(bits(&answer), bits(&oracle), "{sql}");
    }
}

/// A served θ with no hash binding runs the batch evaluator's nested loop.
/// Over a base of ~2 000 groups each chunk meets `B` a block of base rows at
/// a time, and each block's pairs are charged to the query's budget while
/// they are applied: an ample budget sees one block's worth at its peak and
/// never degrades, a budget one block breaches degrades into Theorem 4.1
/// partitions, and both answers are bit-equal to the scalar oracle.
#[test]
fn served_unbound_theta_over_a_large_base_is_charged_and_degrades() {
    use mdj_core::ExecContext;
    use mdj_sql::SqlEngine;
    use mdj_storage::{Catalog, ScanStats};
    use std::sync::Arc;
    let mut catalog = Catalog::new();
    catalog.register(
        "Sales",
        mdj_datagen::sales(
            &mdj_datagen::SalesConfig::default()
                .with_rows(6_000)
                .with_customers(2_000)
                .with_seed(5),
        ),
    );
    let sql = "select cust, sum(X.sale), count(X.*) from Sales group by cust ; \
               X such that X.cust <= cust";
    let oracle = SqlEngine::new(catalog.clone())
        .query_unoptimized(sql)
        .unwrap();
    let pairs: u64 = oracle
        .rows()
        .iter()
        .map(|row| row[2].as_int().unwrap() as u64)
        .sum();
    let served = |budget: usize| {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_stats(stats.clone())
            .with_budget_bytes(budget);
        let tracker = ctx.memory().unwrap().clone();
        let answer = SqlEngine::with_context(catalog.clone(), ctx)
            .query(sql)
            .unwrap();
        assert_eq!(bits(&answer), bits(&oracle), "budget {budget}");
        (stats, tracker.peak())
    };
    let (ample, peak) = served(64 << 20);
    assert!(ample.batches() > 0);
    assert!(ample.workers().is_empty());
    assert_eq!(ample.degradations(), 0);
    // Every pair was charged once, on top of the states and the base.
    assert!(
        ample.bytes_charged() > pairs * 20,
        "{}",
        ample.bytes_charged()
    );
    // ... but never more than a block's worth at a time: 65 536 pairs.
    assert!(peak < (65_536 * 20) + (1 << 20), "peak {peak}");
    let (tight, _) = served(peak as usize / 2);
    assert!(tight.degradations() > 0);
}

#[test]
fn errors_are_reported_not_panicked() {
    let e = demo_engine(100, 16);
    for bad in [
        "select bogus_col, count(*) from Sales group by cust",
        "select cust, frobnicate(sale) from Sales group by cust",
        "select cust from Sales group by",
        "select count(*) from Missing",
        "select cust, count(X.*) from Sales group by cust ; X such that X.cust = cust and X.sale > avg(Y.sale)",
    ] {
        assert!(e.query(bad).is_err(), "{bad} should fail");
    }
}
