//! A coarse cost model for MD-join plans.
//!
//! The paper's claim is that MD-join queries "can be incorporated immediately
//! into present cost- and algebraic-based query optimizers". This model is
//! deliberately simple — cardinality estimates from catalog row counts plus
//! per-operator work formulas — but it is enough to rank the paper's rewrite
//! alternatives correctly (coalesced vs sequential scans, hash probe vs
//! nested loop, pushed-down vs full scans), which is what the optimizer
//! needs.

use crate::error::Result;
use crate::plan::Plan;
use mdj_agg::Registry;
use mdj_expr::analysis::probe_bindings;
use mdj_storage::Catalog;

/// Default selectivity assumed for a selection predicate.
pub const SELECT_SELECTIVITY: f64 = 0.3;
/// Distinctness exponent: |distinct(dims)| ≈ |input|^DISTINCT_EXP.
pub const DISTINCT_EXP: f64 = 0.75;

/// Estimated output rows of a plan.
pub fn estimate_rows(plan: &Plan, catalog: &Catalog) -> f64 {
    match plan {
        Plan::Table(name) => catalog.get(name).map(|r| r.len() as f64).unwrap_or(1000.0),
        Plan::Inline(rel) => rel.len() as f64,
        Plan::Select { input, .. } => SELECT_SELECTIVITY * estimate_rows(input, catalog),
        Plan::Project { input, .. } => estimate_rows(input, catalog),
        Plan::Base { input, shape } => {
            let n = estimate_rows(input, catalog).max(1.0);
            let distinct = n.powf(DISTINCT_EXP);
            let factor = match shape {
                crate::plan::BaseShape::GroupBy(_) => 1.0,
                crate::plan::BaseShape::Cube(d) => (1u64 << d.len().min(20)) as f64,
                crate::plan::BaseShape::Rollup(d) => (d.len() + 1) as f64,
                crate::plan::BaseShape::GroupingSets(_, sets) => sets.len() as f64,
                crate::plan::BaseShape::Unpivot(d) => d.len() as f64,
            };
            // Coarser cuboids are smaller; cap by the factor-weighted distinct.
            (distinct * factor).min(n * factor)
        }
        Plan::Union(parts) => parts.iter().map(|p| estimate_rows(p, catalog)).sum(),
        // MD-join output cardinality is exactly |B| (Definition 3.1).
        Plan::MdJoin { base, .. } | Plan::GenMdJoin { base, .. } => estimate_rows(base, catalog),
        Plan::Join { left, .. } => estimate_rows(left, catalog),
        Plan::Parallel { input, .. } => estimate_rows(input, catalog),
    }
}

/// Estimated work (abstract units ≈ tuples touched) to execute a plan.
pub fn estimate_cost(plan: &Plan, catalog: &Catalog, _registry: &Registry) -> Result<f64> {
    Ok(match plan {
        Plan::Table(_) | Plan::Inline(_) => estimate_rows(plan, catalog),
        Plan::Select { input, .. } | Plan::Project { input, .. } => {
            estimate_cost(input, catalog, _registry)? + estimate_rows(input, catalog)
        }
        Plan::Base { input, shape } => {
            let n = estimate_rows(input, catalog);
            let passes = match shape {
                crate::plan::BaseShape::Cube(d) => (1u64 << d.len().min(20)) as f64,
                crate::plan::BaseShape::Rollup(d) => (d.len() + 1) as f64,
                crate::plan::BaseShape::GroupingSets(_, s) => s.len() as f64,
                crate::plan::BaseShape::Unpivot(d) => d.len() as f64,
                crate::plan::BaseShape::GroupBy(_) => 1.0,
            };
            estimate_cost(input, catalog, _registry)? + n * passes
        }
        Plan::Union(parts) => {
            let mut c = 0.0;
            for p in parts {
                c += estimate_cost(p, catalog, _registry)?;
            }
            c
        }
        Plan::MdJoin {
            base,
            detail,
            theta,
            ..
        } => {
            let b_rows = estimate_rows(base, catalog);
            let r_rows = estimate_rows(detail, catalog);
            let probe = probe_cost(theta, b_rows);
            estimate_cost(base, catalog, _registry)?
                + estimate_cost(detail, catalog, _registry)?
                + r_rows * probe
        }
        Plan::GenMdJoin {
            base,
            detail,
            blocks,
        } => {
            let b_rows = estimate_rows(base, catalog);
            let r_rows = estimate_rows(detail, catalog);
            let probes: f64 = blocks
                .iter()
                .map(|blk| probe_cost(&blk.theta, b_rows))
                .sum();
            estimate_cost(base, catalog, _registry)?
                + estimate_cost(detail, catalog, _registry)?
                + r_rows * probes
        }
        Plan::Join { left, right, .. } => {
            estimate_cost(left, catalog, _registry)?
                + estimate_cost(right, catalog, _registry)?
                + estimate_rows(left, catalog)
                + estimate_rows(right, catalog)
        }
        // Whether the node runs parallel is decided at run time (`Auto`), so
        // it costs what its input costs.
        Plan::Parallel { input, .. } => estimate_cost(input, catalog, _registry)?,
    })
}

/// Per-detail-tuple probe cost: ~1 for a hash probe (θ has usable equality
/// bindings), |B| for a nested loop (Section 4.5's observation).
fn probe_cost(theta: &mdj_expr::Expr, b_rows: f64) -> f64 {
    let (bindings, _) = probe_bindings(theta);
    if bindings.is_empty() {
        b_rows.max(1.0)
    } else {
        2.0 // hash probe + residual check
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Relation, Row, Schema};

    fn catalog(n: i64) -> Catalog {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        let rel = Relation::from_rows(
            schema,
            (0..n).map(|i| Row::from_values([i % 10, i])).collect(),
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    #[test]
    fn md_join_cardinality_is_base_cardinality() {
        let cat = catalog(1000);
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let rows = estimate_rows(&plan, &cat);
        let base_rows = estimate_rows(&Plan::table("Sales").group_by_base(&["cust"]), &cat);
        assert_eq!(rows, base_rows);
    }

    #[test]
    fn coalesced_plan_is_cheaper_than_chain() {
        let cat = catalog(10_000);
        let reg = Registry::standard();
        let b = Plan::table("Sales").group_by_base(&["cust"]);
        let stage = |p: Plan, i: usize| {
            p.md_join(
                Plan::table("Sales"),
                vec![AggSpec::count_star().with_alias(format!("c{i}"))],
                eq(col_b("cust"), col_r("cust")),
            )
        };
        let chain = stage(stage(stage(b, 0), 1), 2);
        let coalesced = crate::rules::coalesce_chains(chain.clone());
        let c1 = estimate_cost(&chain, &cat, &reg).unwrap();
        let c2 = estimate_cost(&coalesced, &cat, &reg).unwrap();
        assert!(c2 < c1, "coalesced {c2} !< chain {c1}");
    }

    #[test]
    fn hash_probe_theta_is_cheaper_than_nested() {
        let cat = catalog(10_000);
        let reg = Registry::standard();
        let b = Plan::table("Sales").group_by_base(&["cust"]);
        let hash_plan = b.clone().md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let nested_plan = b.md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star().with_alias("c2")],
            le(col_b("cust"), col_r("cust")),
        );
        let ch = estimate_cost(&hash_plan, &cat, &reg).unwrap();
        let cn = estimate_cost(&nested_plan, &cat, &reg).unwrap();
        assert!(ch < cn);
    }

    #[test]
    fn pushdown_reduces_cost() {
        let cat = catalog(10_000);
        let reg = Registry::standard();
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            and(
                eq(col_b("cust"), col_r("cust")),
                gt(col_r("sale"), lit(100i64)),
            ),
        );
        let pushed = crate::rules::pushdown_detail_selection(plan.clone());
        let c1 = estimate_cost(&plan, &cat, &reg).unwrap();
        let c2 = estimate_cost(&pushed, &cat, &reg).unwrap();
        assert!(c2 < c1);
    }

    #[test]
    fn unknown_table_has_fallback_estimate() {
        let cat = Catalog::new();
        assert_eq!(estimate_rows(&Plan::table("Nope"), &cat), 1000.0);
    }
}
