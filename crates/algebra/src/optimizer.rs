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
/// Pipeline (each step keeps its output only if the cost model does not
/// regress, so a pathological estimate cannot produce a worse plan than the
/// input):
///
/// 1. Theorem 4.2 pushdown (detail-only conjuncts → σ on `R`).
/// 2. Observation 4.1 (base range predicates copied to `R`).
/// 3. Theorem 4.3 coalescing (chains → generalized MD-joins).
/// 4. Theorem 4.1 parallelization (MD-joins → morsel-parallel [`Plan::Parallel`]
///    nodes, kept only when the modeled work exceeds the per-thread startup
///    charge — small plans stay serial).
#[derive(Debug, Default)]
pub struct Optimizer {
    /// Skip the coalescing phase (ablation knob for benches).
    pub disable_coalesce: bool,
    /// Worker threads used when costing/wrapping `Plan::Parallel` nodes.
    /// `None` → all available cores.
    pub parallel_threads: Option<usize>,
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
        let threads = self.parallel_threads.unwrap_or(0); // 0 → all cores
        let parallelized = parallelize(best.clone(), threads);
        consider(parallelized, &mut best, &mut best_cost)?;
        Ok(best)
    }
}

/// Wrap every MD-join node in a [`Plan::Parallel`] node so it runs on the
/// morsel-driven executor. Generalized MD-joins stay serial (their single-scan
/// evaluation is already the coalescing win). The caller cost-gates the
/// result, so this is safe to apply unconditionally.
fn parallelize(plan: Plan, threads: usize) -> Plan {
    plan.transform_up(&|p| match p {
        Plan::MdJoin { .. } => p.parallel(threads),
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
            ..Default::default()
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
        // 4-row catalog: the per-thread startup charge dwarfs the work, so
        // the cost gate must reject the Parallel wrapping.
        let cat = catalog();
        let reg = Registry::standard();
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("avg", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let optimized = optimize(plan, &cat, &reg).unwrap();
        let mut parallel_nodes = 0;
        optimized.visit(&mut |p| {
            if matches!(p, Plan::Parallel { .. }) {
                parallel_nodes += 1;
            }
        });
        assert_eq!(parallel_nodes, 0);
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
        let plan = Plan::table("Big").group_by_base(&["cust"]).md_join(
            Plan::table("Big"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let opt = Optimizer {
            parallel_threads: Some(8),
            ..Default::default()
        };
        let optimized = opt.optimize(plan.clone(), &cat, &reg).unwrap();
        assert!(
            matches!(optimized, Plan::Parallel { threads: 8, .. }),
            "expected Parallel wrapping, got {optimized:?}"
        );
        // And the parallel plan computes the same answer.
        let ctx = ExecContext::new();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&optimized, &cat, &ctx).unwrap();
        assert!(a.same_multiset(&b));
    }
}
