//! The rewrite driver: the paper's equivalences, applied wherever they match.

use crate::error::Result;
use crate::plan::Plan;
use crate::rules::{coalesce_chains, fold_detail_selections, push_base_ranges_to_detail};
use mdj_agg::Registry;
use mdj_storage::Catalog;

/// Optimize a plan with the paper's rewrites. Each is an equivalence, so it
/// applies wherever its precondition holds; no plan is priced, and `catalog`
/// and `registry` go unused. Never errors.
///
/// 1. Theorem 4.2 read right to left: every detail-side σ on an MD-join's
///    detail folds into θ ([`fold_detail_selections`]), where the executor
///    runs it as a prefilter and as page pruning.
/// 2. Observation 4.1: a base range predicate is copied into θ.
/// 3. Theorem 4.3: chains coalesce into generalized MD-joins — stages whose
///    details differ only by a σ share one scan, since step 1 folded it.
/// 4. Every MD-join, single or generalized, is wrapped in a
///    [`Plan::Parallel`] node: it runs under `ExecStrategy::Auto` with all
///    cores as its thread cap, and `Auto` picks the evaluator and the driver
///    from the input at run time. The plan — and its `EXPLAIN` — is
///    therefore the same on every host.
pub fn optimize(plan: Plan, _catalog: &Catalog, _registry: &Registry) -> Result<Plan> {
    let folded = fold_detail_selections(plan);
    let coalesced = coalesce_chains(push_base_ranges_to_detail(folded));
    Ok(coalesced.transform_up(&|p| match p {
        Plan::MdJoin { .. } | Plan::GenMdJoin { .. } => p.parallel(0),
        other => other,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::rules::coalesce::detail_scan_count;
    use mdj_agg::AggSpec;
    use mdj_core::ExecContext;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Relation, Row, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("year", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let mk = |c: i64, st: &str, y: i64, s: f64| {
            Row::from_values(vec![
                Value::Int(c),
                Value::str(st),
                Value::Int(y),
                Value::Float(s),
            ])
        };
        let rel = Relation::from_rows(
            schema,
            vec![
                mk(1, "NY", 1994, 10.0),
                mk(1, "NJ", 1996, 20.0),
                mk(1, "CT", 1999, 30.0),
                mk(2, "NY", 1999, 40.0),
            ],
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    fn tri_state_chain() -> Plan {
        let mut plan = Plan::table("Sales").group_by_base(&["cust"]);
        for st in ["NY", "NJ", "CT"] {
            plan = plan.md_join(
                Plan::table("Sales"),
                vec![AggSpec::on_column("avg", "sale")
                    .with_alias(format!("avg_{}", st.to_lowercase()))],
                and(
                    eq(col_r("cust"), col_b("cust")),
                    eq(col_r("state"), lit(st)),
                ),
            );
        }
        plan
    }

    #[test]
    fn optimizer_pushes_and_coalesces_example_2_2() {
        let cat = catalog();
        let reg = Registry::standard();
        let plan = tri_state_chain();
        let optimized = optimize(plan.clone(), &cat, &reg).unwrap();
        // One scan: the per-state selections live on the θs of one
        // generalized MD-join, which runs under `Parallel` too.
        assert_eq!(detail_scan_count(&optimized), 1);
        assert!(
            matches!(&optimized, Plan::Parallel { input, .. } if matches!(**input, Plan::GenMdJoin { .. })),
            "{optimized:?}"
        );
        // Equivalence.
        let ctx = ExecContext::new();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&optimized, &cat, &ctx).unwrap();
        let cols = ["cust", "avg_ny", "avg_nj", "avg_ct"];
        assert!(a
            .project(&cols)
            .unwrap()
            .same_multiset(&b.project(&cols).unwrap()));
    }

    #[test]
    fn plain_table_passes_through() {
        let cat = catalog();
        let reg = Registry::standard();
        let plan = Plan::table("Sales");
        assert_eq!(optimize(plan.clone(), &cat, &reg).unwrap(), plan);
    }

    #[test]
    fn small_md_joins_stay_serial() {
        // Even a 4-row join is wrapped: the plan no longer prices
        // parallelism. It stays serial at run time, where `Auto` sees the
        // input is smaller than one morsel.
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let cat = catalog();
        let reg = Registry::standard();
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("median", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let optimized = optimize(plan.clone(), &cat, &reg).unwrap();
        assert!(
            matches!(optimized, Plan::Parallel { threads: 0, .. }),
            "expected Parallel wrapping, got {optimized:?}"
        );
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let a = execute(&plan, &cat, &ExecContext::new()).unwrap();
        let b = execute(&optimized, &cat, &ctx).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(stats.auto_decisions(), 1);
        assert!(stats.workers().is_empty());
    }

    #[test]
    fn large_md_joins_get_parallelized() {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
        let rel = Relation::from_rows(
            schema,
            (0..50_000)
                .map(|i| Row::from_values(vec![Value::Int(i % 64), Value::Float(i as f64)]))
                .collect(),
        );
        let mut cat = Catalog::new();
        cat.register("Big", rel);
        let reg = Registry::standard();
        // Every MD-join is wrapped, nested ones too, with all cores as the
        // cap — the same plan on any host.
        let plan = Plan::table("Big").group_by_base(&["cust"]).md_join(
            Plan::table("Big"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let optimized = optimize(plan.clone(), &cat, &reg).unwrap();
        assert!(
            matches!(optimized, Plan::Parallel { threads: 0, .. }),
            "expected Parallel wrapping, got {optimized:?}"
        );
        let mut wrapped = 0;
        let union = Plan::Union(vec![plan.clone(), plan.clone()]);
        optimize(union, &cat, &reg).unwrap().visit(&mut |p| {
            if let Plan::Parallel { input, threads } = p {
                assert!(matches!(**input, Plan::MdJoin { .. }) && *threads == 0);
                wrapped += 1;
            }
        });
        assert_eq!(wrapped, 2);
        // And the wrapped plan computes the same answer, bit for bit.
        let ctx = ExecContext::new();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&optimized, &cat, &ctx).unwrap();
        assert_eq!(a.rows(), b.rows());
    }
}
