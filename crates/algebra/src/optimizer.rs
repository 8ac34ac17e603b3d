//! The rewrite driver: apply the paper's transformations, keep what the cost
//! model likes.

use crate::cost::estimate_cost;
use crate::error::Result;
use crate::plan::Plan;
use crate::rules::{coalesce_chains, push_base_ranges_to_detail, pushdown_detail_selection};
use mdj_agg::Registry;
use mdj_storage::Catalog;

/// Cost-based optimizer over the paper's rule set.
///
/// Pipeline (each of steps 1–3 keeps its output only if the cost model does
/// not regress, so a pathological estimate cannot produce a worse plan than
/// the input):
///
/// 1. Theorem 4.2 pushdown (detail-only conjuncts → σ on `R`).
/// 2. Observation 4.1 (base range predicates copied to `R`).
/// 3. Theorem 4.3 coalescing (chains → generalized MD-joins).
/// 4. Every single-block MD-join is wrapped in a [`Plan::Parallel`] node: it
///    runs under `ExecStrategy::Auto` with all cores as its thread cap, and
///    `Auto` picks the evaluator and the driver from the input at run time.
///    The plan — and its `EXPLAIN` — is therefore the same on every host.
#[derive(Debug, Default)]
pub struct Optimizer {
    /// Skip the coalescing phase (ablation knob for benches).
    pub disable_coalesce: bool,
}

impl Optimizer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimize a plan. Never errors on rule preconditions (rules are
    /// applied where they match); only cost estimation can fail.
    pub fn optimize(&self, plan: Plan, catalog: &Catalog, registry: &Registry) -> Result<Plan> {
        let mut best = plan;
        let mut best_cost = estimate_cost(&best, catalog, registry)?;
        let consider = |candidate: Plan, best: &mut Plan, best_cost: &mut f64| -> Result<()> {
            let cost = estimate_cost(&candidate, catalog, registry)?;
            if cost < *best_cost {
                *best = candidate;
                *best_cost = cost;
            }
            Ok(())
        };
        let pushed = pushdown_detail_selection(best.clone());
        consider(pushed, &mut best, &mut best_cost)?;
        let ranged = push_base_ranges_to_detail(best.clone());
        consider(ranged, &mut best, &mut best_cost)?;
        if !self.disable_coalesce {
            let coalesced = coalesce_chains(best.clone());
            consider(coalesced, &mut best, &mut best_cost)?;
        }
        Ok(parallelize(best))
    }
}

/// Wrap every MD-join node in a [`Plan::Parallel`] node with all cores as
/// its cap, so it runs under `Auto`. Generalized MD-joins stay serial (their
/// single-scan evaluation is already the coalescing win).
fn parallelize(plan: Plan) -> Plan {
    plan.transform_up(&|p| match p {
        Plan::MdJoin { .. } => p.parallel(0),
        other => other,
    })
}

/// One-shot convenience: default optimizer.
pub fn optimize(plan: Plan, catalog: &Catalog, registry: &Registry) -> Result<Plan> {
    Optimizer::new().optimize(plan, catalog, registry)
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
        // One scan, and the per-state selections live on the θs or σs, not in
        // three separate scans.
        assert_eq!(detail_scan_count(&optimized), 1);
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
    fn optimizer_never_regresses_cost() {
        let cat = catalog();
        let reg = Registry::standard();
        let plan = tri_state_chain();
        let before = estimate_cost(&plan, &cat, &reg).unwrap();
        let optimized = optimize(plan, &cat, &reg).unwrap();
        let after = estimate_cost(&optimized, &cat, &reg).unwrap();
        assert!(after <= before);
    }

    #[test]
    fn ablation_knobs() {
        let cat = catalog();
        let reg = Registry::standard();
        let plan = tri_state_chain();
        let no_coalesce = Optimizer {
            disable_coalesce: true,
        }
        .optimize(plan.clone(), &cat, &reg)
        .unwrap();
        assert_eq!(detail_scan_count(&no_coalesce), 3);
        let full = Optimizer::new().optimize(plan, &cat, &reg).unwrap();
        assert_eq!(detail_scan_count(&full), 1);
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
        // Every single-block MD-join is wrapped, nested ones too, with all
        // cores as the cap — the same plan on any host.
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
