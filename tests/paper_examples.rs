//! End-to-end reproductions of every worked example in the paper, each
//! cross-checked against the classical relational formulation (the paper's
//! own description of what a user must write without the MD-join).

use mdj_agg::Registry;
use mdj_algebra::{execute, rules::split_into_join, Plan};
use mdj_core::basevalues::{cube, cube_match_theta};
use mdj_core::prelude::*;
use mdj_datagen::{payments, sales, PaymentsConfig, SalesConfig};
use mdj_sql::SqlEngine;
use mdj_storage::Catalog;

/// The examples below are stated over the serial Algorithm 3.1 plan.
fn md_join(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(ctx)
}

fn sales_rel(rows: usize) -> Relation {
    sales(
        &SalesConfig::default()
            .with_rows(rows)
            .with_customers(40)
            .with_products(6)
            .with_states(5)
            .with_years(1996, 1999),
    )
}

fn engine(rows: usize) -> SqlEngine {
    let mut catalog = Catalog::new();
    catalog.register("Sales", sales_rel(rows));
    SqlEngine::new(catalog)
}

/// Example 2.1 / Figure 1: the cube-by query. The MD-join cube must agree
/// with 2ⁿ independent group-bys padded with ALL.
#[test]
fn example_2_1_cube_by() {
    let r = sales_rel(3_000);
    let e = {
        let mut catalog = Catalog::new();
        catalog.register("Sales", r.clone());
        SqlEngine::new(catalog)
    };
    let via_sql = e
        .query(
            "select prod, month, state, sum(sale) from Sales analyze by cube(prod, month, state)",
        )
        .unwrap();
    let via_groupbys = mdj_naive::plans::cube_by_groupbys(
        &r,
        &["prod", "month", "state"],
        &[AggSpec::on_column("sum", "sale")],
        &Registry::standard(),
    )
    .unwrap();
    // Float tolerance: the engine's fast cube path (Theorem 4.5 roll-up)
    // sums partial aggregates, so totals differ in the last bits.
    assert!(via_sql.approx_same_multiset(&via_groupbys, 1e-9));
    // Figure 1's shape: ALL markers appear at every granularity.
    assert!(via_sql
        .iter()
        .any(|row| row[0].is_all() && !row[1].is_all()));
    assert!(via_sql
        .iter()
        .any(|row| row[0].is_all() && row[1].is_all() && row[2].is_all()));
}

/// Example 2.1 (second query): grouping sets = the one-dimensional marginals.
#[test]
fn example_2_1_grouping_sets_marginals() {
    let e = engine(2_000);
    let gs = e
        .query(
            "select prod, month, state, sum(sale) from Sales \
             analyze by grouping sets ((prod), (month), (state))",
        )
        .unwrap();
    let unpivot = e
        .query(
            "select prod, month, state, sum(sale) from Sales \
             analyze by unpivot(prod, month, state)",
        )
        .unwrap();
    assert!(gs.approx_same_multiset(&unpivot, 1e-9));
    // Every row keeps exactly one dimension.
    for row in gs.iter() {
        let alls = row.values()[..3].iter().filter(|v| v.is_all()).count();
        assert_eq!(alls, 2);
    }
}

/// Example 2.2 / 3.1: the tri-state pivot. SQL grouping variables vs the
/// four-subquery outer-join plan.
#[test]
fn example_2_2_tristate_pivot() {
    let r = sales_rel(5_000);
    let mut catalog = Catalog::new();
    catalog.register("Sales", r.clone());
    let e = SqlEngine::new(catalog);
    let md = e
        .query(
            "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct \
             from Sales group by cust ; X, Y, Z \
             such that X.cust = cust and X.state = 'NY', \
                       Y.cust = cust and Y.state = 'NJ', \
                       Z.cust = cust and Z.state = 'CT'",
        )
        .unwrap();
    let naive = mdj_naive::plans::example_2_2(&r, &Registry::standard()).unwrap();
    let cols = ["cust", "avg_ny", "avg_nj", "avg_ct"];
    assert!(md
        .project(&cols)
        .unwrap()
        .same_multiset(&naive.project(&cols).unwrap()));
    // |output| = |customers| — outer-join semantics.
    assert_eq!(md.len(), r.distinct_on(&["cust"]).unwrap().len());
}

/// Example 2.3 / 3.2: count above the cube-cell average — two MD-joins over
/// a cube base vs eight group-bys + joins + eight more group-bys.
#[test]
fn example_2_3_count_above_cell_average() {
    let r = sales_rel(800);
    let ctx = ExecContext::new();
    let dims = ["prod", "month", "state"];
    // MD-join formulation (Example 3.2).
    let b = cube(&r, &dims).unwrap();
    let theta1 = cube_match_theta(&dims);
    let step1 = md_join(&b, &r, &[AggSpec::on_column("avg", "sale")], &theta1, &ctx).unwrap();
    let theta2 = and(
        cube_match_theta(&dims),
        gt(col_r("sale"), col_b("avg_sale")),
    );
    let step2 = md_join(
        &step1,
        &r,
        &[AggSpec::count_star().with_alias("cnt")],
        &theta2,
        &ctx,
    )
    .unwrap();
    let md = step2.project(&["prod", "month", "state", "cnt"]).unwrap();
    // Classical formulation.
    let naive = mdj_naive::plans::example_2_3(&r, &Registry::standard()).unwrap();
    assert!(md.same_multiset(&naive), "MD:\n{md}\nnaive:\n{naive}");
}

/// Example 2.5 / Section 5's EMF query: per (prod, month of 1997), count
/// sales between the previous and following months' averages.
#[test]
fn example_2_5_between_neighbor_month_averages() {
    let r = sales_rel(6_000);
    let mut catalog = Catalog::new();
    catalog.register("Sales", r.clone());
    let e = SqlEngine::new(catalog);
    let md = e
        .query(
            "select prod, month, count(Z.*) as cnt from Sales where year = 1997 \
             group by prod, month ; X, Y, Z \
             such that X.prod = prod and X.month = month - 1, \
                       Y.prod = prod and Y.month = month + 1, \
                       Z.prod = prod and Z.month = month \
                         and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)",
        )
        .unwrap();
    let naive = mdj_naive::plans::example_2_5(&r, 1997, &Registry::standard()).unwrap();
    let cols = ["prod", "month", "cnt"];
    assert!(md
        .project(&cols)
        .unwrap()
        .same_multiset(&naive.project(&cols).unwrap()));
    // There is real signal: some cell counts are positive.
    assert!(md
        .iter()
        .any(|row| row[2].sql_cmp(&Value::Int(0)) == Some(std::cmp::Ordering::Greater)));
}

/// Example 2.4: aggregate only at externally supplied cube points.
#[test]
fn example_2_4_external_base_table() {
    let r = sales_rel(2_000);
    let ctx = ExecContext::new();
    // "Crucial points" — two product rollups and one month rollup.
    let t = {
        let schema = mdj_storage::Schema::from_pairs(&[
            ("prod", mdj_storage::DataType::Int),
            ("month", mdj_storage::DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            vec![
                mdj_storage::Row::new(vec![Value::Int(1), Value::All]),
                mdj_storage::Row::new(vec![Value::Int(2), Value::All]),
                mdj_storage::Row::new(vec![Value::All, Value::Int(6)]),
            ],
        )
    };
    let out = md_join(
        &t,
        &r,
        &[AggSpec::on_column("sum", "sale")],
        &cube_match_theta(&["prod", "month"]),
        &ctx,
    )
    .unwrap();
    assert_eq!(out.len(), 3);
    // Cross-check each point against the full cube.
    let full = cube(&r, &["prod", "month"]).unwrap();
    let full_cube = md_join(
        &full,
        &r,
        &[AggSpec::on_column("sum", "sale")],
        &cube_match_theta(&["prod", "month"]),
        &ctx,
    )
    .unwrap();
    for row in out.iter() {
        let matching = full_cube
            .iter()
            .find(|f| f[0] == row[0] && f[1] == row[1])
            .expect("point exists in full cube");
        assert_eq!(matching[2], row[2]);
    }
}

/// Example 3.3 + Theorem 4.4: totals over two fact tables, split into an
/// equijoin of per-table MD-joins.
#[test]
fn example_3_3_sales_and_payments() {
    let s = sales_rel(3_000);
    let p = payments(
        &PaymentsConfig::default()
            .with_rows(3_000)
            .with_customers(40),
    );
    let mut catalog = Catalog::new();
    catalog.register("Sales", s.clone());
    catalog.register("Payments", p.clone());
    let ctx = ExecContext::new();
    let registry = Registry::standard();
    let chain = Plan::table("Sales")
        .group_by_base(&["cust", "month"])
        .md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            and(
                eq(col_r("cust"), col_b("cust")),
                eq(col_r("month"), col_b("month")),
            ),
        )
        .md_join(
            Plan::table("Payments"),
            vec![AggSpec::on_column("sum", "amount")],
            and(
                eq(col_r("cust"), col_b("cust")),
                eq(col_r("month"), col_b("month")),
            ),
        );
    let seq = execute(&chain, &catalog, &ctx).unwrap();
    let split = split_into_join(&chain, &catalog, &registry).unwrap();
    let par = execute(&split, &catalog, &ctx).unwrap();
    assert!(seq.same_multiset(&par));
    // Oracle for a few rows: manual sums.
    for row in seq.rows().iter().take(5) {
        let (c, m) = (row[0].clone(), row[1].clone());
        let sum_sales: f64 = s
            .iter()
            .filter(|t| t[0] == c && t[3] == m)
            .map(|t| t[6].as_float().unwrap())
            .sum();
        match row[2].as_float() {
            Some(f) => assert!((f - sum_sales).abs() < 1e-6),
            None => assert_eq!(sum_sales, 0.0),
        }
    }
}

/// Example 4.1: 1994–96 vs 1999 totals, each period a σ on `Sales` — by
/// Theorem 4.2 the σs fold into θ, where they prefilter the scan; results
/// must match the σ plan.
#[test]
fn example_4_1_period_comparison() {
    let r = sales_rel(4_000);
    let mut catalog = Catalog::new();
    catalog.register("Sales", r.clone());
    let ctx = ExecContext::new();
    let chain = Plan::table("Sales")
        .group_by_base(&["prod"])
        .md_join(
            Plan::table("Sales")
                .select(ge(col_r("year"), lit(1996i64)))
                .select(le(col_r("year"), lit(1997i64))),
            vec![AggSpec::on_column("sum", "sale").with_alias("sum_94_96")],
            eq(col_r("prod"), col_b("prod")),
        )
        .md_join(
            Plan::table("Sales").select(eq(col_r("year"), lit(1999i64))),
            vec![AggSpec::on_column("sum", "sale").with_alias("sum_99")],
            eq(col_r("prod"), col_b("prod")),
        );
    let direct = execute(&chain, &catalog, &ctx).unwrap();
    let folded = mdj_algebra::rules::fold_detail_selections(chain);
    let mut selects = 0;
    folded.visit(&mut |p| selects += matches!(p, Plan::Select { .. }) as usize);
    assert_eq!(selects, 0, "every period σ folds into its θ");
    let via_fold = execute(&folded, &catalog, &ctx).unwrap();
    assert_eq!(direct.rows(), via_fold.rows());
    // And the optimizer coalesces the two period aggregates into one scan.
    let optimized = mdj_algebra::rules::coalesce_chains(via_chain(&r));
    assert_eq!(
        mdj_algebra::rules::coalesce::detail_scan_count(&optimized),
        1
    );
}

fn via_chain(_r: &Relation) -> Plan {
    Plan::table("Sales")
        .group_by_base(&["prod"])
        .md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("a")],
            and(
                eq(col_r("prod"), col_b("prod")),
                ge(col_r("year"), lit(1996i64)),
            ),
        )
        .md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("b")],
            and(
                eq(col_r("prod"), col_b("prod")),
                eq(col_r("year"), lit(1999i64)),
            ),
        )
}

/// Section 5's EMF-SQL example parses and runs through the full stack.
#[test]
fn section_5_query_surface() {
    let e = engine(1_000);
    for q in [
        "select prod, month, state, sum(sale) from Sales analyze by cube(prod, month, state)",
        "select prod, month, sum(sale) from Sales analyze by unpivot(prod, month, state)",
        "select prod, month, state, sum(sale) from Sales analyze by rollup(prod, month, state)",
    ] {
        let out = e.query(q).unwrap();
        assert!(!out.is_empty(), "{q}");
    }
    // The explain surface shows MD-joins.
    let plan = e
        .explain("select prod, sum(sale) from Sales analyze by cube(prod, month)")
        .unwrap();
    assert!(plan.contains("MDJoin"));
}
