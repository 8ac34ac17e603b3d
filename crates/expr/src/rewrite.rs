//! Expression rewrites used by the algebraic transformations.

use crate::analysis::{conjuncts, equi_pairs};
use crate::ast::{ColRef, Expr, Side};
use crate::builder::and_all;
use std::collections::HashMap;

/// Observation 4.1: rewrite a *base-side* selection predicate `σᵢ` into the
/// equivalent *detail-side* predicate `σ'ᵢ` by replacing each `B.x` with the
/// `R.y` that θ equates it to. Returns `None` when some referenced base column
/// has no equality partner in θ (the observation's precondition fails).
pub fn base_predicate_to_detail(pred: &Expr, theta: &Expr) -> Option<Expr> {
    let mapping: HashMap<String, String> = equi_pairs(theta)
        .into_iter()
        .map(|p| (p.base_col, p.detail_col))
        .collect();
    let mut ok = true;
    let rewritten = pred.map_cols(&mut |c: &ColRef| match c.side {
        Side::Base => match mapping.get(&c.name) {
            Some(detail) => Expr::Col(ColRef::detail(detail.clone())),
            None => {
                ok = false;
                Expr::Col(c.clone())
            }
        },
        Side::Detail => Expr::Col(c.clone()),
    });
    ok.then_some(rewritten)
}

/// Rename detail-side column references (footnote 3: each MD-join application
/// over the same table is preceded by a renaming of that table).
pub fn rename_detail_cols(expr: &Expr, mapping: &HashMap<String, String>) -> Expr {
    expr.map_cols(&mut |c: &ColRef| {
        if c.side == Side::Detail {
            if let Some(new) = mapping.get(&c.name) {
                return Expr::Col(ColRef::detail(new.clone()));
            }
        }
        Expr::Col(c.clone())
    })
}

/// Drop conjuncts that mention any of the given base columns. Used by the
/// cube roll-up rule (Theorem 4.5): the θ for a coarser cuboid omits the
/// equality tests on rolled-up dimensions.
pub fn drop_conjuncts_on_base_cols(theta: &Expr, cols: &[&str]) -> Expr {
    let kept = conjuncts(theta).into_iter().filter(|c| {
        let mut mentions = false;
        c.visit_cols(&mut |cr| {
            if cr.side == Side::Base && cols.contains(&cr.name.as_str()) {
                mentions = true;
            }
        });
        !mentions
    });
    and_all(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn observation_4_1_rewrite() {
        // θ: B.month = R.month AND B.cust = R.cust; predicate: B.month >= 4
        let theta = and(
            eq(col_b("month"), col_r("month")),
            eq(col_b("cust"), col_r("cust")),
        );
        let pred = and(ge(col_b("month"), lit(4i64)), le(col_b("month"), lit(8i64)));
        let out = base_predicate_to_detail(&pred, &theta).unwrap();
        assert_eq!(
            out,
            and(ge(col_r("month"), lit(4i64)), le(col_r("month"), lit(8i64)))
        );
    }

    #[test]
    fn observation_4_1_fails_without_matching_equality() {
        let theta = eq(col_b("cust"), col_r("cust"));
        let pred = ge(col_b("month"), lit(4i64));
        assert!(base_predicate_to_detail(&pred, &theta).is_none());
    }

    #[test]
    fn rename_detail_only_touches_detail() {
        let e = eq(col_b("cust"), col_r("cust"));
        let mut m = HashMap::new();
        m.insert("cust".to_string(), "Sales2.cust".to_string());
        let out = rename_detail_cols(&e, &m);
        assert_eq!(out, eq(col_b("cust"), col_r("Sales2.cust")));
    }

    #[test]
    fn drop_conjuncts_for_rollup() {
        // Full cube θ over (prod, month, state); roll up month and state.
        let theta = group_theta(&["prod", "month", "state"]);
        let coarse = drop_conjuncts_on_base_cols(&theta, &["month", "state"]);
        assert_eq!(coarse, eq(col_b("prod"), col_r("prod")));
        // Rolling up everything yields the constant-true θ of the apex cuboid.
        let apex = drop_conjuncts_on_base_cols(&theta, &["prod", "month", "state"]);
        assert_eq!(apex, Expr::always_true());
    }
}
