//! Theorem 4.2 and Observation 4.1 — selections on the detail side.
//!
//! **Theorem 4.2**: if `θ = θ₁ AND θ₂` with `θ₂` over `R` only, then
//! `MD(B, R, l, θ) = MD(B, σ_{θ₂}(R), l, θ₁)`. The optimizer reads it right
//! to left: a σ on an MD-join's detail input folds into θ. Detail tuples
//! failing `θ₂` still never join, because the executor evaluates θ's
//! detail-only conjuncts as a per-chunk prefilter (a selection vector on the
//! batch evaluator) and, over a page store, as clustered-key page pruning
//! (Example 4.1) — so the fold filters as early as a σ would, without
//! copying `R`, and MD-joins whose details differed only by a σ now read one
//! table, which is what Theorem 4.3 coalesces.
//!
//! **Observation 4.1**: a selection on `B` whose predicate only references
//! columns that θ *equates* with detail columns can additionally be *copied*
//! to `R` (with the column references substituted), conjoined into θ. The
//! base selection must stay — it determines which rows appear in the output
//! — but the copy prunes the scan.

use crate::plan::{Plan, PlanBlock};
use mdj_expr::analysis::conjuncts;
use mdj_expr::builder::and;
use mdj_expr::rewrite::base_predicate_to_detail;
use mdj_expr::{Expr, Side};

/// Apply Theorem 4.2 right to left everywhere: the detail-side σs on top of
/// each MD-join's detail input fold into θ, `MD(B, σ_p(R), l, θ) =
/// MD(B, R, l, p ∧ θ)`. A generalized MD-join conjoins `p` into every block
/// (its blocks share the one scan of `σ_p(R)`).
pub fn fold_detail_selections(plan: Plan) -> Plan {
    plan.transform_up(&|node| match node {
        Plan::MdJoin {
            base,
            detail,
            aggs,
            theta,
        } => {
            let (detail, pred) = peel_detail_selections(*detail);
            Plan::MdJoin {
                base,
                detail: Box::new(detail),
                aggs,
                theta: conjoin(pred, theta),
            }
        }
        Plan::GenMdJoin {
            base,
            detail,
            blocks,
        } => {
            let (detail, pred) = peel_detail_selections(*detail);
            Plan::GenMdJoin {
                base,
                detail: Box::new(detail),
                blocks: blocks
                    .into_iter()
                    .map(|b| PlanBlock::new(b.aggs, conjoin(pred.clone(), b.theta)))
                    .collect(),
            }
        }
        other => other,
    })
}

/// Split the detail-side σs off the top of `plan`: the plan under them and
/// the conjunction of their predicates, innermost first (`None` without a
/// σ). A σ whose predicate references the base side (an Observation 4.1 base
/// input) does not fold: in θ its `B` columns would mean the MD-join's base.
fn peel_detail_selections(plan: Plan) -> (Plan, Option<Expr>) {
    match plan {
        Plan::Select { input, pred } if !pred.uses_side(Side::Base) => {
            let (inner, below) = peel_detail_selections(*input);
            (inner, Some(conjoin(below, pred)))
        }
        other => (other, None),
    }
}

/// `p ∧ rest`, or `rest` without a `p`.
fn conjoin(p: Option<Expr>, rest: Expr) -> Expr {
    match p {
        Some(p) => and(p, rest),
        None => rest,
    }
}

/// Apply Observation 4.1 everywhere: when an MD-join's base is
/// `σ_pred(B)` and every base column in `pred` has an equality partner in θ,
/// conjoin the substituted predicate into θ (once: a copy already among θ's
/// conjuncts is not added again).
pub fn push_base_ranges_to_detail(plan: Plan) -> Plan {
    plan.transform_up(&|node| match node {
        Plan::MdJoin {
            base,
            detail,
            aggs,
            theta,
        } => {
            let copy = match base.as_ref() {
                Plan::Select { pred, .. } => base_predicate_to_detail(pred, &theta),
                _ => None,
            }
            .filter(|p| {
                let present = conjuncts(&theta);
                !conjuncts(p).iter().all(|c| present.contains(c))
            });
            Plan::MdJoin {
                base,
                detail,
                aggs,
                theta: conjoin(copy, theta),
            }
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use mdj_agg::AggSpec;
    use mdj_core::ExecContext;
    use mdj_expr::builder::*;
    use mdj_storage::{Catalog, DataType, Relation, Row, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("year", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let mk = |p: i64, y: i64, s: f64| {
            Row::from_values(vec![Value::Int(p), Value::Int(y), Value::Float(s)])
        };
        let rel = Relation::from_rows(
            schema,
            vec![
                mk(1, 1994, 10.0),
                mk(1, 1996, 20.0),
                mk(1, 1999, 40.0),
                mk(2, 1998, 80.0),
                mk(2, 1999, 160.0),
            ],
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    fn period() -> [Expr; 2] {
        [
            ge(col_r("year"), lit(1994i64)),
            le(col_r("year"), lit(1996i64)),
        ]
    }

    /// Example 4.1's 1994–96 MD-join with its period written as a σ on `R`.
    fn example_4_1_plan() -> Plan {
        let [lo, hi] = period();
        Plan::table("Sales").group_by_base(&["prod"]).md_join(
            Plan::table("Sales").select(lo).select(hi),
            vec![AggSpec::on_column("sum", "sale").with_alias("sum_94_96")],
            eq(col_r("prod"), col_b("prod")),
        )
    }

    #[test]
    fn theorem_4_2_shape() {
        let plan = fold_detail_selections(example_4_1_plan());
        // The detail input is the bare table again, and θ holds both σs,
        // innermost first, ahead of the join condition.
        match &plan {
            Plan::MdJoin { detail, theta, .. } => {
                assert_eq!(detail.as_ref(), &Plan::table("Sales"));
                let [lo, hi] = period();
                assert_eq!(
                    conjuncts(theta),
                    vec![lo, hi, eq(col_r("prod"), col_b("prod"))]
                );
            }
            _ => panic!("unexpected shape"),
        }
    }

    #[test]
    fn theorem_4_2_preserves_semantics() {
        let original = example_4_1_plan();
        let folded = fold_detail_selections(original.clone());
        let cat = catalog();
        let ctx = ExecContext::new();
        let a = execute(&original, &cat, &ctx).unwrap();
        let b = execute(&folded, &cat, &ctx).unwrap();
        assert_eq!(a.rows(), b.rows());
        // Sanity: prod 1 sums 10+20 in 1994–1996.
        let p1 = a.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(p1[1], Value::Float(30.0));
        // Prod 2 has no 94–96 sales → NULL (outer semantics preserved!).
        let p2 = a.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(p2[1], Value::Null);
    }

    #[test]
    fn no_detail_only_conjuncts_is_identity() {
        let plan = Plan::table("Sales").group_by_base(&["prod"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            eq(col_b("prod"), col_r("prod")),
        );
        assert_eq!(fold_detail_selections(plan.clone()), plan);
        // A σ over the base side stays where it is: in θ its `B.prod` would
        // name the MD-join's base instead.
        let plan = Plan::table("Sales").group_by_base(&["prod"]).md_join(
            Plan::table("Sales").select(ge(col_b("prod"), lit(2i64))),
            vec![AggSpec::count_star()],
            eq(col_b("prod"), col_r("prod")),
        );
        assert_eq!(fold_detail_selections(plan.clone()), plan);
    }

    #[test]
    fn gen_md_join_folds_into_every_block() {
        let shared = eq(col_r("prod"), lit(1i64));
        let block = |alias: &str, year: i64| {
            PlanBlock::new(
                vec![AggSpec::on_column("sum", "sale").with_alias(alias)],
                and(
                    eq(col_b("prod"), col_r("prod")),
                    eq(col_r("year"), lit(year)),
                ),
            )
        };
        let plan = Plan::GenMdJoin {
            base: Box::new(Plan::table("Sales").group_by_base(&["prod"])),
            detail: Box::new(Plan::table("Sales").select(shared.clone())),
            blocks: vec![block("a", 1994), block("b", 1999)],
        };
        let folded = fold_detail_selections(plan.clone());
        match &folded {
            Plan::GenMdJoin { detail, blocks, .. } => {
                assert_eq!(detail.as_ref(), &Plan::table("Sales"));
                for blk in blocks {
                    assert_eq!(conjuncts(&blk.theta)[0], shared, "{}", blk.theta);
                }
            }
            _ => panic!("unexpected shape"),
        }
        // Semantics preserved.
        let cat = catalog();
        let ctx = ExecContext::new();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&folded, &cat, &ctx).unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn observation_4_1_copies_base_range() {
        // σ_{B.prod >= 2}(B), θ has a prod equality → the substituted range
        // is conjoined into θ; the base selection stays.
        let plan = Plan::MdJoin {
            base: Box::new(
                Plan::table("Sales")
                    .group_by_base(&["prod"])
                    .select(ge(col_b("prod"), lit(2i64))),
            ),
            detail: Box::new(Plan::table("Sales")),
            aggs: vec![AggSpec::on_column("sum", "sale")],
            theta: eq(col_b("prod"), col_r("prod")),
        };
        let rewritten = push_base_ranges_to_detail(plan.clone());
        match &rewritten {
            Plan::MdJoin {
                base,
                detail,
                theta,
                ..
            } => {
                assert!(matches!(base.as_ref(), Plan::Select { .. }));
                assert_eq!(detail.as_ref(), &Plan::table("Sales"));
                assert_eq!(conjuncts(theta)[0], ge(col_r("prod"), lit(2i64)));
            }
            _ => panic!("unexpected shape"),
        }
        // Idempotent: the copy is not conjoined twice.
        assert_eq!(push_base_ranges_to_detail(rewritten.clone()), rewritten);
        // Semantics preserved (Observation 4.1 equivalence).
        let cat = catalog();
        let ctx = ExecContext::new();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&rewritten, &cat, &ctx).unwrap();
        assert!(a.same_multiset(&b));
        assert_eq!(a.len(), 1); // only prod 2 survives the base selection
    }

    #[test]
    fn observation_4_1_not_applicable_without_equality() {
        // θ equates nothing with B.prod → rule is an identity.
        let plan = Plan::MdJoin {
            base: Box::new(
                Plan::table("Sales")
                    .group_by_base(&["prod"])
                    .select(ge(col_b("prod"), lit(2i64))),
            ),
            detail: Box::new(Plan::table("Sales")),
            aggs: vec![AggSpec::count_star()],
            theta: gt(col_r("sale"), col_b("prod")),
        };
        assert_eq!(push_base_ranges_to_detail(plan.clone()), plan);
    }
}
