//! The generalized MD-join of Section 4.3:
//! `MD(B, R, (l₁, …, l_k), (θ₁, …, θ_k))`.
//!
//! A series of MD-joins whose θs are mutually independent (no θ references a
//! column produced by an earlier MD-join in the series) and whose detail
//! relation is the same can be coalesced into one operator that defines, for
//! each base tuple, `k` subsets of `R` — and therefore evaluates in a single
//! scan instead of `k` scans. The scheduling that decides *which* MD-joins
//! coalesce lives in `mdj-algebra`; the evaluation is the executor core's:
//! every driver and both evaluators run over `k ≥ 1` blocks, and the
//! single-block join is simply `k = 1`. Under the batch evaluator each
//! columnar chunk is shared by all `k` condition sets (one transposition per
//! batch, not per set); a set's expression with no batch form is interpreted
//! into that set's columns only — per set, per batch — with per-set counters
//! in `ScanStats` (`gen_sets` / `gen_set_fallbacks`, tallied for `k > 1`).

use mdj_agg::AggSpec;
use mdj_expr::Expr;

/// One (θ, l) block of a generalized MD-join.
#[derive(Debug, Clone)]
pub struct Block {
    pub theta: Expr,
    pub aggs: Vec<AggSpec>,
}

impl Block {
    pub fn new(theta: Expr, aggs: Vec<AggSpec>) -> Self {
        Block { theta, aggs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExecStrategy, MdJoin};
    use crate::context::ExecContext;
    use crate::error::{CoreError, Result};
    use crate::mdjoin::md_join_serial;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Relation, Row, Schema, Value};

    fn run(
        b: &Relation,
        r: &Relation,
        blocks: &[Block],
        strategy: ExecStrategy,
        ctx: &ExecContext,
    ) -> Result<Relation> {
        MdJoin::new(b, r)
            .blocks(blocks.iter().cloned())
            .strategy(strategy)
            .threads(1)
            .run(ctx)
    }

    /// The scalar single-scan evaluation of `k` blocks.
    fn multi(b: &Relation, r: &Relation, blocks: &[Block], ctx: &ExecContext) -> Result<Relation> {
        run(b, r, blocks, ExecStrategy::Serial, ctx)
    }

    /// The fused batch evaluation of `k` blocks.
    fn multi_vectorized(
        b: &Relation,
        r: &Relation,
        blocks: &[Block],
        ctx: &ExecContext,
    ) -> Result<Relation> {
        run(b, r, blocks, ExecStrategy::Vectorized, ctx)
    }

    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NJ"), Value::Float(20.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("CT"), Value::Float(30.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("NY"), Value::Float(40.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("PA"), Value::Float(50.0)]),
            ],
        )
    }

    fn state_block(state: &str) -> Block {
        Block::new(
            and(
                eq(col_r("cust"), col_b("cust")),
                eq(col_r("state"), lit(state)),
            ),
            vec![AggSpec::on_column("avg", "sale")
                .with_alias(format!("avg_{}", state.to_lowercase()))],
        )
    }

    #[test]
    fn example_2_2_tristate_in_one_scan() {
        // The paper's pivot query: per customer, avg sale in NY, NJ, CT.
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let out = multi(
            &b,
            &s,
            &[state_block("NY"), state_block("NJ"), state_block("CT")],
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["cust", "avg_ny", "avg_nj", "avg_ct"]
        );
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(10.0));
        assert_eq!(c1[2], Value::Float(20.0));
        assert_eq!(c1[3], Value::Float(30.0));
        let c2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(c2[1], Value::Float(40.0));
        assert_eq!(c2[2], Value::Null); // no NJ purchases: outer semantics
        assert_eq!(c2[3], Value::Null);
    }

    #[test]
    fn multi_equals_sequence_of_single_md_joins() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let multi = multi(
            &b,
            &s,
            &[state_block("NY"), state_block("NJ")],
            &ExecContext::new(),
        )
        .unwrap();
        // Sequential: B → MD(NY) → MD(NJ).
        let step1 = md_join_serial(
            &b,
            &s,
            &state_block("NY").aggs,
            &state_block("NY").theta,
            &ExecContext::new(),
        )
        .unwrap();
        let step2 = md_join_serial(
            &step1,
            &s,
            &state_block("NJ").aggs,
            &state_block("NJ").theta,
            &ExecContext::new(),
        )
        .unwrap();
        assert!(multi.same_multiset(&step2));
    }

    #[test]
    fn single_scan_recorded() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        multi(
            &b,
            &s,
            &[state_block("NY"), state_block("NJ"), state_block("CT")],
            &ctx,
        )
        .unwrap();
        assert_eq!(stats.scans(), 1);
        assert_eq!(stats.tuples_scanned(), s.len() as u64);
    }

    fn sales_n(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 7),
                        Value::str(match i % 4 {
                            0 => "NY",
                            1 => "NJ",
                            2 => "CT",
                            _ => "PA",
                        }),
                        if i % 11 == 0 {
                            Value::Null
                        } else {
                            Value::Float((i as f64) * 0.25)
                        },
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn fused_matches_scalar_multi_rows_and_counters() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let s = sales_n(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let blocks = [state_block("NY"), state_block("NJ"), state_block("CT")];
        let scalar_stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(scalar_stats.clone());
        let scalar = multi(&b, &s, &blocks, &sctx).unwrap();
        let fused_stats = Arc::new(ScanStats::new());
        let fctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(fused_stats.clone());
        let fused = multi_vectorized(&b, &s, &blocks, &fctx).unwrap();
        assert_eq!(scalar.schema(), fused.schema());
        assert_eq!(scalar.rows(), fused.rows());
        // One scan of R, and probe/update work identical to the interpreter.
        assert_eq!(fused_stats.scans(), 1);
        assert_eq!(scalar_stats.tuples_scanned(), fused_stats.tuples_scanned());
        assert_eq!(scalar_stats.probes(), fused_stats.probes());
        assert_eq!(scalar_stats.updates(), fused_stats.updates());
        // Each of the k sets evaluates per batch; all stayed vectorized.
        assert_eq!(fused_stats.batches(), 3 * 300u64.div_ceil(64));
        assert_eq!(fused_stats.batch_fallbacks(), 0);
        assert_eq!(fused_stats.gen_sets(), 3);
        assert_eq!(fused_stats.gen_set_fallbacks(), 0);
    }

    #[test]
    fn fused_uncovered_set_delegates_only_itself() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let s = sales_n(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        // One fully covered set next to one whose Div prefilter can never
        // batch: only the second set goes scalar, and the fused output still
        // matches the interpreter exactly.
        let covered = state_block("NY");
        let uncovered = Block::new(
            and(
                eq(col_r("cust"), col_b("cust")),
                gt(div(col_r("sale"), lit(2i64)), lit(0i64)),
            ),
            vec![AggSpec::on_column("sum", "sale").with_alias("sum_big")],
        );
        let blocks = [covered, uncovered];
        let scalar = multi(&b, &s, &blocks, &ExecContext::new()).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let fused = multi_vectorized(&b, &s, &blocks, &ctx).unwrap();
        assert_eq!(scalar.rows(), fused.rows());
        assert_eq!(stats.gen_sets(), 2);
        assert_eq!(stats.gen_set_fallbacks(), 1);
        let batches = 300u64.div_ceil(64);
        assert_eq!(stats.batch_fallbacks(), batches);
        assert_eq!(stats.fallback_prefilter(), batches);
    }

    #[test]
    fn colliding_block_outputs_rejected() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let blk = Block::new(
            eq(col_b("cust"), col_r("cust")),
            vec![AggSpec::on_column("sum", "sale")],
        );
        let err = multi(&b, &s, &[blk.clone(), blk], &ExecContext::new());
        assert!(matches!(err, Err(CoreError::DuplicateColumn(_))));
    }

    #[test]
    fn empty_block_list_rejected() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        assert!(matches!(
            multi(&b, &s, &[], &ExecContext::new()),
            Err(CoreError::BadConfig(_))
        ));
    }
}
