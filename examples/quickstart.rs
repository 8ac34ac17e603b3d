//! Quickstart: the MD-join in five minutes.
//!
//! Builds a small Sales table, then shows the same query three ways:
//! 1. the raw operator API (the [`MdJoin`] builder from `mdj_core::prelude`),
//! 2. the algebra / optimizer API (`mdj_algebra::Plan`),
//! 3. the SQL surface (`mdj_sql::SqlEngine`).
//!
//! Run with: `cargo run -p mdj-app --example quickstart`

use mdj_algebra::{execute, explain::explain, optimize, Plan};
use mdj_core::prelude::*;
use mdj_datagen::{sales, SalesConfig};
use mdj_sql::SqlEngine;
use mdj_storage::Catalog;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sales_rel = sales(&SalesConfig::default().with_rows(1_000).with_customers(8));
    println!(
        "Sales: {} rows, schema {}\n",
        sales_rel.len(),
        sales_rel.schema()
    );

    // ------------------------------------------------------------------
    // 1. The operator itself: MD(B, R, l, θ).
    //    B = distinct customers; θ = Sales.cust = cust; l = avg, count.
    // ------------------------------------------------------------------
    let b = sales_rel.distinct_on(&["cust"])?;
    let ctx = ExecContext::new();
    let out = MdJoin::new(&b, &sales_rel)
        .theta(eq(col_b("cust"), col_r("cust")))
        .agg("avg(sale) as avg_sale")?
        .agg("count(*) as purchases")?
        .run(&ctx)?;
    println!("1) Operator API — per-customer averages:\n{out}");

    // The same builder drives every execution strategy; here a parallel plan
    // (4 workers computing 128-row morsels, applied in morsel order), with
    // per-worker counters.
    let stats = Arc::new(ScanStats::new());
    let pctx = ExecContext::new()
        .with_morsel_size(128)
        .with_stats(stats.clone());
    let par = MdJoin::new(&b, &sales_rel)
        .theta(eq(col_b("cust"), col_r("cust")))
        .agg("avg(sale) as avg_sale")?
        .agg("count(*) as purchases")?
        .strategy(ExecStrategy::Morsel)
        .threads(4)
        .run(&pctx)?;
    assert_eq!(out, par); // row- and bit-identical to serial at any thread count
    println!("   Same answer on the parallel plan; per-worker counters:");
    for w in stats.workers() {
        println!("     {w}");
    }
    println!();

    // ------------------------------------------------------------------
    // 2. The algebra: same query as a plan, plus a more interesting one —
    //    Example 2.2's tri-state pivot as a series of MD-joins, which the
    //    optimizer coalesces into ONE scan (Theorem 4.3).
    // ------------------------------------------------------------------
    let mut catalog = Catalog::new();
    catalog.register("Sales", sales_rel.clone());
    let mut plan = Plan::table("Sales").group_by_base(&["cust"]);
    for st in ["NY", "NJ", "CT"] {
        plan =
            plan.md_join(
                Plan::table("Sales"),
                vec![AggSpec::on_column("avg", "sale")
                    .with_alias(format!("avg_{}", st.to_lowercase()))],
                and(
                    eq(col_r("cust"), col_b("cust")),
                    eq(col_r("state"), lit(st)),
                ),
            );
    }
    println!(
        "2) Logical plan (3 MD-joins = 3 scans):\n{}",
        explain(&plan)
    );
    let registry = ctx.registry().clone();
    let optimized = optimize(plan, &catalog, &registry)?;
    println!(
        "   After optimization (1 generalized MD-join = 1 scan):\n{}",
        explain(&optimized)
    );
    let pivot = execute(&optimized, &catalog, &ctx)?;
    println!("   Tri-state pivot (first 5 rows):");
    print_first(&pivot, 5);

    // ------------------------------------------------------------------
    // 3. The SQL surface (Section 5 of the paper).
    // ------------------------------------------------------------------
    let engine = SqlEngine::new(catalog);
    let out =
        engine.query("select prod, month, sum(sale) from Sales analyze by cube(prod, month)")?;
    println!(
        "3) SQL `ANALYZE BY cube(prod, month)` — {} cube cells; first 8:",
        out.len()
    );
    print_first(&out, 8);

    Ok(())
}

fn print_first(rel: &Relation, n: usize) {
    let head = Relation::from_rows(
        rel.schema().clone(),
        rel.rows().iter().take(n).cloned().collect(),
    );
    println!("{head}");
}
