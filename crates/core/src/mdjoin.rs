//! Algorithm 3.1 — aggregate binding, the output schema, and the tests'
//! scalar serial entry point.

use crate::error::{CoreError, Result};
use mdj_agg::{AggInput, AggSpec, Registry};
use mdj_storage::{DataType, Field, Schema};

/// One aggregate of `l`, bound to its implementation and input column.
pub(crate) struct BoundAgg {
    pub agg: mdj_agg::traits::AggRef,
    /// Detail column position; `None` for `count(*)`-style star input.
    pub input_col: Option<usize>,
    pub output: Field,
}

/// Bind the aggregate list `l` against the detail schema.
pub(crate) fn bind_aggs(
    l: &[AggSpec],
    r_schema: &Schema,
    registry: &Registry,
) -> Result<Vec<BoundAgg>> {
    l.iter()
        .map(|spec| {
            let agg = registry.get(&spec.function)?;
            let (input_col, input_type) = match &spec.input {
                AggInput::Star => (None, DataType::Int),
                AggInput::Column(c) => {
                    let idx = r_schema.index_of(c)?;
                    (Some(idx), r_schema.field(idx).dtype)
                }
            };
            Ok(BoundAgg {
                output: Field::new(spec.output_name(), agg.output_type(input_type)),
                agg,
                input_col,
            })
        })
        .collect()
}

/// `B`'s columns followed by one column per aggregate of each list in
/// order. Fails on colliding names: two aggregates resolving to the same
/// output column — or one shadowing a column of `B` — would silently lose a
/// value.
pub(crate) fn joined_schema<'l>(
    b_schema: &Schema,
    r_schema: &Schema,
    lists: impl IntoIterator<Item = &'l [AggSpec]>,
    registry: &Registry,
) -> Result<Schema> {
    let mut fields = b_schema.fields().to_vec();
    for l in lists {
        for ba in bind_aggs(l, r_schema, registry)? {
            if fields.iter().any(|f| f.name == ba.output.name) {
                return Err(CoreError::DuplicateColumn(ba.output.name));
            }
            fields.push(ba.output);
        }
    }
    Ok(Schema::new(fields))
}

/// The output schema of `MD(B, R, l, θ)`: `B`'s columns followed by one
/// column per aggregate (Definition 3.1's `B, f₁_R_c₁, …, f_n_R_c_n`).
pub fn output_schema(
    b_schema: &Schema,
    r_schema: &Schema,
    l: &[AggSpec],
    registry: &Registry,
) -> Result<Schema> {
    joined_schema(b_schema, r_schema, [l], registry)
}

/// Evaluate `MD(B, R, l, θ)` with Algorithm 3.1 (single-threaded): the
/// executor core's serial driver over a resident `R` with the scalar
/// evaluator and `k = 1`.
///
/// Scans `R` once; for each detail tuple the probe plan yields the candidate
/// base rows (`Rel(t)`), whose aggregate states are updated. Every base row
/// produces exactly one output row — base rows with no matches report each
/// aggregate's empty value (SQL semantics: `count` → 0, others → NULL). This
/// is the outer-join behaviour Definition 3.1 prescribes ("the row count of
/// the result of the MD-join is the same as the row count of B").
#[cfg(test)]
pub(crate) fn md_join_serial(
    b: &mdj_storage::Relation,
    r: &mdj_storage::Relation,
    l: &[AggSpec],
    theta: &mdj_expr::Expr,
    ctx: &crate::ExecContext,
) -> Result<mdj_storage::Relation> {
    use crate::executor::{self, DetailSource, Driver, Eval, Grid};
    let blocks = [crate::generalized::Block::new(theta.clone(), l.to_vec())];
    let grid = Grid::new(DetailSource::Resident(r), &blocks, ctx.morsel_size());
    executor::run(b, &grid, &blocks, &Driver::Serial(Eval::Scalar), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ExecContext, ProbeStrategy};
    use mdj_expr::builder::*;
    use mdj_storage::{Relation, Row, Value};

    /// Small Sales table used across the tests:
    /// (cust, month, state, sale)
    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let rows = vec![
            Row::from_values(vec![
                Value::Int(1),
                Value::Int(1),
                Value::str("NY"),
                Value::Float(10.0),
            ]),
            Row::from_values(vec![
                Value::Int(1),
                Value::Int(1),
                Value::str("NY"),
                Value::Float(30.0),
            ]),
            Row::from_values(vec![
                Value::Int(1),
                Value::Int(2),
                Value::str("NJ"),
                Value::Float(100.0),
            ]),
            Row::from_values(vec![
                Value::Int(2),
                Value::Int(1),
                Value::str("CT"),
                Value::Float(7.0),
            ]),
        ];
        Relation::from_rows(schema, rows)
    }

    #[test]
    fn definition_3_1_schema_and_cardinality() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let out = md_join_serial(
            &b,
            &s,
            &[AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), b.len()); // |output| = |B|
        assert_eq!(out.schema().names(), vec!["cust", "sum_sale", "count_star"]);
    }

    #[test]
    fn aggregates_over_rng() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let out = md_join_serial(
            &b,
            &s,
            &[
                AggSpec::on_column("sum", "sale"),
                AggSpec::on_column("avg", "sale"),
                AggSpec::on_column("min", "sale"),
                AggSpec::on_column("max", "sale"),
            ],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        let cust1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(cust1[1], Value::Float(140.0));
        assert_eq!(cust1[2], Value::Float(140.0 / 3.0));
        assert_eq!(cust1[3], Value::Float(10.0));
        assert_eq!(cust1[4], Value::Float(100.0));
    }

    #[test]
    fn outer_join_semantics_unmatched_base_rows() {
        // Example 2.2's point: customers with no NY purchases still appear.
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_r("state"), lit("NY")),
        );
        let out = md_join_serial(
            &b,
            &s,
            &[
                AggSpec::on_column("avg", "sale").with_alias("avg_ny"),
                AggSpec::count_star().with_alias("cnt_ny"),
            ],
            &theta,
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let cust2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(cust2[1], Value::Null); // avg of empty set
        assert_eq!(cust2[2], Value::Int(0)); // count of empty set
        let cust1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(cust1[1], Value::Float(20.0));
        assert_eq!(cust1[2], Value::Int(2));
    }

    #[test]
    fn empty_base_and_empty_detail() {
        let s = sales();
        let empty_b = Relation::empty(s.distinct_on(&["cust"]).unwrap().schema().clone());
        let out = md_join_serial(
            &empty_b,
            &s,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        assert!(out.is_empty());

        let b = s.distinct_on(&["cust"]).unwrap();
        let empty_r = Relation::empty(s.schema().clone());
        let out = md_join_serial(
            &b,
            &empty_r,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.rows().iter().all(|r| r[1] == Value::Int(0)));
    }

    #[test]
    fn tuple_may_update_many_base_rows() {
        // θ non-equijoin: every base row with month <= t.month matches
        // (a running total — impossible for plain GROUP BY, fine for MD-join).
        let s = sales();
        let b = s.distinct_on(&["month"]).unwrap();
        let theta = le(col_b("month"), col_r("month"));
        let out = md_join_serial(
            &b,
            &s,
            &[AggSpec::on_column("sum", "sale").with_alias("running")],
            &theta,
            &ExecContext::new(),
        )
        .unwrap();
        let m1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        let m2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(m1[1], Value::Float(147.0)); // all sales (months >= 1)
        assert_eq!(m2[1], Value::Float(100.0)); // only month-2 sales
    }

    #[test]
    fn strategies_agree() {
        let s = sales();
        let b = s.distinct_on(&["cust", "month"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), col_r("month")),
        );
        let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let nl = md_join_serial(
            &b,
            &s,
            &l,
            &theta,
            &ExecContext::new().with_strategy(ProbeStrategy::NestedLoop),
        )
        .unwrap();
        let hp = md_join_serial(
            &b,
            &s,
            &l,
            &theta,
            &ExecContext::new().with_strategy(ProbeStrategy::HashProbe),
        )
        .unwrap();
        assert!(nl.same_multiset(&hp));
    }

    #[test]
    fn duplicate_output_column_rejected() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        // Alias collides with B's column.
        let err = md_join_serial(
            &b,
            &s,
            &[AggSpec::on_column("sum", "sale").with_alias("cust")],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        );
        assert!(matches!(err, Err(CoreError::DuplicateColumn(_))));
        // Two aggregates with the same default name collide too.
        let err = md_join_serial(
            &b,
            &s,
            &[
                AggSpec::on_column("sum", "sale"),
                AggSpec::on_column("sum", "sale"),
            ],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        );
        assert!(matches!(err, Err(CoreError::DuplicateColumn(_))));
    }

    #[test]
    fn output_schema_matches_run() {
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let l = [AggSpec::on_column("avg", "sale")];
        let reg = Registry::standard();
        let schema = output_schema(b.schema(), s.schema(), &l, &reg).unwrap();
        let out = md_join_serial(
            &b,
            &s,
            &l,
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.schema(), &schema);
        assert_eq!(schema.field(1).dtype, DataType::Float);
    }

    #[test]
    fn base_rows_need_not_be_distinct() {
        // Definition 3.1: each tuple b ∈ B contributes an output tuple —
        // duplicates in B are preserved.
        let s = sales();
        let b = Relation::from_rows(
            Schema::from_pairs(&[("cust", DataType::Int)]),
            vec![Row::from_values([1i64]), Row::from_values([1i64])],
        );
        let out = md_join_serial(
            &b,
            &s,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], out.rows()[1]);
    }

    #[test]
    fn builder_entry_point_matches_serial_evaluator() {
        use crate::builder::{ExecStrategy, MdJoin};
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale").with_alias("total")];
        let via_builder = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        let direct = md_join_serial(&b, &s, &l, &theta, &ExecContext::new()).unwrap();
        assert_eq!(via_builder.rows(), direct.rows());
        assert_eq!(via_builder.schema().names(), vec!["cust", "total"]);
    }

    #[test]
    fn stats_recorded() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let s = sales();
        let b = s.distinct_on(&["cust"]).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_strategy(ProbeStrategy::NestedLoop)
            .with_stats(stats.clone());
        md_join_serial(
            &b,
            &s,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            &ctx,
        )
        .unwrap();
        assert_eq!(stats.scans(), 1);
        assert_eq!(stats.tuples_scanned(), 4);
        assert_eq!(stats.probes(), 8); // 4 tuples × |B|=2
        assert_eq!(stats.updates(), 4); // each tuple matches exactly one base row
    }
}
