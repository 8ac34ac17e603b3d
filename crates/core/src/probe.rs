//! `Rel(t)` computation — Section 4.5.
//!
//! Algorithm 3.1's inner loop examines, for each scanned detail tuple `t`,
//! candidate rows of `B`. Definition 4.1 calls the rows actually updated the
//! *relative set* `Rel(t)`. A [`ProbePlan`] decides how candidates are found:
//!
//! * **Nested loop** — every row of `B` is examined (the literal algorithm).
//! * **Hash probe** — θ is decomposed into *probe bindings*
//!   `B.col = f(R-row)` (see [`mdj_expr::analysis::probe_bindings`]); a hash
//!   index over `B`'s bound columns is built once, each detail tuple computes
//!   its probe key, and only the matching bucket is examined. Residual
//!   conjuncts (e.g. `R.sale > B.avg_sale` in Example 3.2's θ₂) are
//!   re-checked per candidate. The index hashes with
//!   [`mdj_storage::KeyBuildHasher`] — the *same* multiplicative hasher the
//!   vectorized executor uses for its typed fast-int probe map, so both
//!   probing layers agree on bucket assignment by construction (they used to
//!   carry independent copies of the mixing function).
//!
//! Both variants apply Theorem 4.2 *inside* the operator: conjuncts of θ that
//! reference only the detail side become a per-tuple **prefilter**, evaluated
//! once before any base row is examined — the same work saving as pushing
//! `σ_{θ₂}(R)` below the MD-join, but without materializing the selection
//! (important when several blocks of a generalized MD-join share one scan,
//! each with different detail-only conjuncts).

use crate::context::{ExecContext, ProbeStrategy};
use crate::error::{CoreError, Result};
use crate::governor::{self, MemCharge};
use mdj_expr::analysis::probe_bindings;
use mdj_expr::builder::and_all;
use mdj_expr::{BoundExpr, Expr, Side};
use mdj_storage::{Counter, HashIndex, Relation, Schema, Value};

/// Normalize a key value for structural hashing: integral floats become
/// ints so `B.month = R.month + 1` matches even when one side computed a
/// float. NULL keys are preserved (and never match — see [`ProbePlan::matches`]).
pub(crate) fn canon_key(v: Value) -> Value {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() <= (i64::MAX as f64) / 2.0 => {
            Value::Int(f as i64)
        }
        other => other,
    }
}

/// Split an expression list into (detail-only prefilter, remainder).
pub(crate) fn split_prefilter(conjs: Vec<Expr>) -> (Option<Expr>, Vec<Expr>) {
    let (detail_only, rest): (Vec<Expr>, Vec<Expr>) = conjs
        .into_iter()
        .partition(|c| !c.uses_side(Side::Base) && c.uses_side(Side::Detail));
    let prefilter = if detail_only.is_empty() {
        None
    } else {
        Some(and_all(detail_only))
    };
    (prefilter, rest)
}

/// A compiled strategy for finding the candidate `B` rows for each detail
/// tuple.
#[derive(Debug)]
pub enum ProbePlan {
    /// Examine all of `B` for tuples passing the prefilter.
    NestedLoop {
        /// Detail-only conjuncts, checked once per tuple (Theorem 4.2).
        prefilter: Option<BoundExpr>,
        /// The remaining condition, checked per (tuple, base row).
        theta: BoundExpr,
    },
    /// Hash-probe on equality bindings, then check the residual condition.
    Hash {
        index: HashIndex,
        /// Detail-only expressions producing the probe key, aligned with the
        /// index's key columns.
        key_exprs: Vec<BoundExpr>,
        /// Detail-only conjuncts, checked once per tuple before probing.
        prefilter: Option<BoundExpr>,
        /// Mixed conjuncts not covered by the bindings (None = always true).
        residual: Option<BoundExpr>,
    },
}

impl ProbePlan {
    /// Build a plan for `θ` over `B` and the detail schema (prefilter on).
    pub fn build(
        b: &Relation,
        r_schema: &Schema,
        theta: &Expr,
        strategy: ProbeStrategy,
    ) -> Result<ProbePlan> {
        Self::build_opts(b, r_schema, theta, strategy, true)
    }

    /// Build under a context, charging the probe index's footprint (bucket
    /// structure plus the canonicalized key copies) against the context's
    /// memory budget *before* building it. The returned guard holds the
    /// charge for the plan's lifetime; for nested-loop plans it is inert.
    pub fn build_charged(
        b: &Relation,
        r_schema: &Schema,
        theta: &Expr,
        ctx: &ExecContext,
    ) -> Result<(ProbePlan, MemCharge)> {
        Self::build_inner(
            b,
            r_schema,
            theta,
            ctx.strategy(),
            ctx.prefilter(),
            Some(ctx),
        )
    }

    /// Build with explicit control over the Theorem 4.2 prefilter.
    pub fn build_opts(
        b: &Relation,
        r_schema: &Schema,
        theta: &Expr,
        strategy: ProbeStrategy,
        apply_prefilter: bool,
    ) -> Result<ProbePlan> {
        Ok(Self::build_inner(b, r_schema, theta, strategy, apply_prefilter, None)?.0)
    }

    fn build_inner(
        b: &Relation,
        r_schema: &Schema,
        theta: &Expr,
        strategy: ProbeStrategy,
        apply_prefilter: bool,
        charge_ctx: Option<&ExecContext>,
    ) -> Result<(ProbePlan, MemCharge)> {
        let use_hash = match strategy {
            ProbeStrategy::NestedLoop => false,
            ProbeStrategy::HashProbe | ProbeStrategy::Auto => {
                let (bindings, _) = probe_bindings(theta);
                let ok = !bindings.is_empty()
                    && bindings.iter().all(|bi| b.schema().contains(&bi.base_col));
                if !ok && strategy == ProbeStrategy::HashProbe {
                    return Err(CoreError::BadConfig(format!(
                        "HashProbe requested but θ `{theta}` yields no usable B-column bindings"
                    )));
                }
                ok
            }
        };
        if !use_hash {
            if !apply_prefilter {
                let bound = theta.bind(Some(b.schema()), Some(r_schema))?;
                return Ok((
                    ProbePlan::NestedLoop {
                        prefilter: None,
                        theta: bound,
                    },
                    MemCharge::default(),
                ));
            }
            let (prefilter, rest) = split_prefilter(mdj_expr::analysis::conjuncts(theta));
            let prefilter = prefilter
                .map(|p| p.bind(None, Some(r_schema)))
                .transpose()?;
            let bound = and_all(rest).bind(Some(b.schema()), Some(r_schema))?;
            return Ok((
                ProbePlan::NestedLoop {
                    prefilter,
                    theta: bound,
                },
                MemCharge::default(),
            ));
        }
        let (bindings, residual) = probe_bindings(theta);
        let key_cols: Vec<usize> = bindings
            .iter()
            .map(|bi| b.schema().index_of(&bi.base_col))
            .collect::<std::result::Result<_, _>>()?;
        // Charge the index before building it: bucket structure plus the
        // canonicalized key copies (|B| × key width), so a budget breach is
        // reported before the allocation exists.
        let charge = match charge_ctx {
            Some(ctx) => MemCharge::try_new(
                ctx,
                governor::index_bytes(b.len())
                    .saturating_add(governor::index_key_bytes(b.len(), key_cols.len())),
            )?,
            None => MemCharge::default(),
        };
        // Index keys are canonicalized the same way probe keys are — but only
        // the key columns are copied, not a shadow of the whole relation.
        let index = HashIndex::from_keys(
            key_cols.clone(),
            b.iter().map(|row| {
                key_cols
                    .iter()
                    .map(|&c| canon_key(row[c].clone()))
                    .collect()
            }),
        );
        let key_exprs: Vec<BoundExpr> = bindings
            .iter()
            .map(|bi| bi.detail_expr.bind(None, Some(r_schema)))
            .collect::<std::result::Result<_, _>>()?;
        let (prefilter, rest) = if apply_prefilter {
            split_prefilter(residual)
        } else {
            (None, residual)
        };
        let prefilter = prefilter
            .map(|p| p.bind(None, Some(r_schema)))
            .transpose()?;
        let residual = if rest.is_empty() {
            None
        } else {
            Some(and_all(rest).bind(Some(b.schema()), Some(r_schema))?)
        };
        Ok((
            ProbePlan::Hash {
                index,
                key_exprs,
                prefilter,
                residual,
            },
            charge,
        ))
    }

    /// True if the plan uses the hash index.
    pub fn is_hash(&self) -> bool {
        matches!(self, ProbePlan::Hash { .. })
    }

    /// Collect into `out` the ids of `B` rows matched by detail tuple `t`
    /// (this *is* `Rel(t)`), recording probe counts in `ctx`. `key_scratch`
    /// is a caller-provided buffer reused across tuples to avoid per-probe
    /// allocation.
    pub fn matches(
        &self,
        b: &Relation,
        t: &[Value],
        ctx: &ExecContext,
        out: &mut Vec<usize>,
        key_scratch: &mut Vec<Value>,
    ) -> Result<()> {
        out.clear();
        match self {
            ProbePlan::NestedLoop { prefilter, theta } => {
                if let Some(p) = prefilter {
                    if !p.eval_bool(&[], t)? {
                        return Ok(());
                    }
                }
                ctx.count(Counter::probes, b.len() as u64);
                for (i, row) in b.iter().enumerate() {
                    if theta.eval_bool(row.values(), t)? {
                        out.push(i);
                    }
                }
            }
            ProbePlan::Hash {
                index,
                key_exprs,
                prefilter,
                residual,
            } => {
                if let Some(p) = prefilter {
                    if !p.eval_bool(&[], t)? {
                        return Ok(());
                    }
                }
                key_scratch.clear();
                for e in key_exprs {
                    let v = canon_key(e.eval_detail(t)?);
                    if v.is_null() {
                        // SQL equality with NULL never matches.
                        return Ok(());
                    }
                    key_scratch.push(v);
                }
                let bucket = index.get(key_scratch);
                ctx.count(Counter::probes, bucket.len() as u64);
                match residual {
                    None => out.extend_from_slice(bucket),
                    Some(res) => {
                        for &i in bucket {
                            if res.eval_bool(b.rows()[i].values(), t)? {
                                out.push(i);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Row, Schema};

    fn b_rel() -> Relation {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("month", DataType::Int)]);
        Relation::from_rows(
            schema,
            vec![
                Row::from_values([1i64, 1]),
                Row::from_values([1i64, 2]),
                Row::from_values([2i64, 1]),
            ],
        )
    }

    fn r_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ])
    }

    fn t(c: i64, m: i64, s: f64) -> Vec<Value> {
        vec![Value::Int(c), Value::Int(m), Value::Float(s)]
    }

    fn run(plan: &ProbePlan, b: &Relation, tup: &[Value], ctx: &ExecContext) -> Vec<usize> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        plan.matches(b, tup, ctx, &mut out, &mut scratch).unwrap();
        out.sort_unstable();
        out
    }

    #[test]
    fn auto_picks_hash_for_equality_theta() {
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), col_r("month")),
        );
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        assert!(plan.is_hash());
        let ctx = ExecContext::new();
        assert_eq!(run(&plan, &b_rel(), &t(1, 2, 5.0), &ctx), vec![1]);
        assert!(run(&plan, &b_rel(), &t(9, 9, 5.0), &ctx).is_empty());
    }

    #[test]
    fn computed_probe_key_previous_month() {
        // B.month = R.month + 1 (Example 2.5's previous-month θ).
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), add(col_r("month"), lit(1i64))),
        );
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        assert!(plan.is_hash());
        let ctx = ExecContext::new();
        // t.month = 1 probes B.month = 2.
        assert_eq!(run(&plan, &b_rel(), &t(1, 1, 5.0), &ctx), vec![1]);
    }

    #[test]
    fn isolated_binding_from_detail_side_equation() {
        // R.month = B.month - 1 is isolated to B.month = R.month + 1.
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_r("month"), sub(col_b("month"), lit(1i64))),
        );
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        assert!(plan.is_hash());
        let ctx = ExecContext::new();
        assert_eq!(run(&plan, &b_rel(), &t(1, 1, 5.0), &ctx), vec![1]);
    }

    #[test]
    fn detail_only_conjuncts_become_prefilter() {
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            gt(col_r("sale"), lit(10.0)),
        );
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        match &plan {
            ProbePlan::Hash {
                prefilter,
                residual,
                ..
            } => {
                assert!(prefilter.is_some());
                assert!(residual.is_none()); // fully absorbed
            }
            _ => panic!("expected hash plan"),
        }
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        // Prefiltered-out tuple: zero probes recorded.
        assert!(run(&plan, &b_rel(), &t(1, 1, 5.0), &ctx).is_empty());
        assert_eq!(stats.probes(), 0);
        assert_eq!(run(&plan, &b_rel(), &t(1, 1, 50.0), &ctx), vec![0, 1]);
        assert!(stats.probes() > 0);
    }

    #[test]
    fn nested_loop_prefilter() {
        // Non-equi θ with a detail-only conjunct.
        let theta = and(
            le(col_b("month"), col_r("month")),
            gt(col_r("sale"), lit(10.0)),
        );
        let plan =
            ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::NestedLoop).unwrap();
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        assert!(run(&plan, &b_rel(), &t(1, 1, 5.0), &ctx).is_empty());
        assert_eq!(stats.probes(), 0); // prefilter rejected before probing B
        let matches = run(&plan, &b_rel(), &t(1, 2, 50.0), &ctx);
        assert_eq!(matches, vec![0, 1, 2]);
    }

    #[test]
    fn mixed_residual_checked_per_candidate() {
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            gt(col_r("sale"), col_b("month")), // mixed: stays residual
        );
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        match &plan {
            ProbePlan::Hash { residual, .. } => assert!(residual.is_some()),
            _ => panic!("expected hash plan"),
        }
        let ctx = ExecContext::new();
        assert_eq!(run(&plan, &b_rel(), &t(1, 9, 1.5), &ctx), vec![0]); // sale 1.5 > month 1 only
    }

    #[test]
    fn nested_loop_equals_hash_results() {
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), col_r("month")),
        );
        let hash =
            ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::HashProbe).unwrap();
        let nl =
            ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::NestedLoop).unwrap();
        let ctx = ExecContext::new();
        for tup in [t(1, 1, 1.0), t(1, 2, 1.0), t(2, 1, 1.0), t(3, 3, 1.0)] {
            assert_eq!(
                run(&hash, &b_rel(), &tup, &ctx),
                run(&nl, &b_rel(), &tup, &ctx)
            );
        }
    }

    #[test]
    fn hash_probe_demanded_but_unavailable_errors() {
        let theta = gt(col_r("sale"), col_b("month")); // no equality binding
        let err = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::HashProbe);
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
        // Auto silently falls back.
        let plan = ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::Auto).unwrap();
        assert!(!plan.is_hash());
    }

    #[test]
    fn null_probe_key_matches_nothing() {
        let theta = eq(col_b("cust"), col_r("cust"));
        let plan =
            ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::HashProbe).unwrap();
        let ctx = ExecContext::new();
        let tup = vec![Value::Null, Value::Int(1), Value::Float(1.0)];
        assert!(run(&plan, &b_rel(), &tup, &ctx).is_empty());
    }

    #[test]
    fn int_float_key_canonicalization() {
        // Probe value computed as Float(2.0) must match Int(2) key.
        let theta = eq(col_b("month"), mul(col_r("month"), lit(1.0f64)));
        let plan =
            ProbePlan::build(&b_rel(), &r_schema(), &theta, ProbeStrategy::HashProbe).unwrap();
        let ctx = ExecContext::new();
        assert_eq!(run(&plan, &b_rel(), &t(1, 2, 1.0), &ctx), vec![1]);
    }

    #[test]
    fn build_charged_accounts_for_keys_and_releases() {
        use crate::governor;
        let b = b_rel();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), col_r("month")),
        );
        let ctx = ExecContext::new().with_budget_bytes(1 << 20);
        let tracker = ctx.memory().cloned().unwrap();
        {
            let (plan, _charge) = ProbePlan::build_charged(&b, &r_schema(), &theta, &ctx).unwrap();
            assert!(plan.is_hash());
            // Bucket structure + 2 canonicalized key columns × |B| rows.
            let expected =
                (governor::index_bytes(b.len()) + governor::index_key_bytes(b.len(), 2)) as u64;
            assert_eq!(tracker.charged(), expected);
        }
        assert_eq!(tracker.charged(), 0); // guard released on drop
                                          // Nested-loop plans charge nothing.
        let nl_theta = gt(col_r("sale"), col_b("month"));
        let (plan, _charge) = ProbePlan::build_charged(&b, &r_schema(), &nl_theta, &ctx).unwrap();
        assert!(!plan.is_hash());
        assert_eq!(tracker.charged(), 0);
        // A budget too small for the index fails before building it.
        let tiny = ExecContext::new().with_budget_bytes(1);
        assert!(matches!(
            ProbePlan::build_charged(&b, &r_schema(), &theta, &tiny),
            Err(CoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn probe_counting_nested_vs_hash() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let theta = eq(col_b("cust"), col_r("cust"));
        let b = b_rel();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let nl = ProbePlan::build(&b, &r_schema(), &theta, ProbeStrategy::NestedLoop).unwrap();
        run(&nl, &b, &t(1, 1, 1.0), &ctx);
        assert_eq!(stats.probes(), 3); // all of B
        stats.reset();
        let hp = ProbePlan::build(&b, &r_schema(), &theta, ProbeStrategy::HashProbe).unwrap();
        run(&hp, &b, &t(1, 1, 1.0), &ctx);
        assert_eq!(stats.probes(), 2); // only cust=1 bucket
    }
}
