//! Base-values table builders — every group-definition shape from Section 2.
//!
//! The point of the MD-join is that *any* relation can serve as `B`: a plain
//! `select distinct` (group-by), a cube with `ALL` values (Example 2.1), a
//! restricted collection of group-bys (grouping sets / unpivot marginals), a
//! roll-up chain, or an externally supplied table of "crucial/representative
//! points" (Example 2.4 — just pass that relation straight in). These
//! builders produce such tables; the aggregation that follows is always the
//! same operator.

use crate::context::ExecContext;
use crate::error::Result;
use crate::executor::split;
use mdj_expr::builder::{and_all, col_b, col_r, eq, lit, or};
use mdj_expr::vectorized::{batchable_bound_shape, collect_detail_cols, eval_batch};
use mdj_expr::Expr;
use mdj_storage::{KeyIndex, Relation, Row, Value};

/// The grouping sets a base-values table holds over its dimension list.
#[derive(Debug, Clone, Copy)]
pub enum Sets<'a> {
    /// `select distinct dims`: the one set that keeps every dimension.
    GroupBy,
    /// All `2^n` subsets (Example 2.1's data cube).
    Cube,
    /// The `n + 1` prefixes `(d₁..d_n), (d₁..d_{n-1}), …, ()`.
    Rollup,
    /// The listed sets; each names the dimensions it keeps.
    GroupingSets(&'a [Vec<&'a str>]),
    /// The one-dimensional marginals `((d₁), (d₂), …, (d_n))`.
    Unpivot,
}

impl Sets<'_> {
    /// One mask per set (bit `d` set = dimension `d` kept, clear = `ALL`),
    /// or `None` for a group-by, which keeps every dimension.
    fn keep_masks(&self, dims: &[&str]) -> Result<Option<Vec<u32>>> {
        let n = dims.len();
        Ok(Some(match self {
            Sets::GroupBy => return Ok(None),
            Sets::Cube => (0..(1u32 << n)).rev().collect(),
            Sets::Rollup => (0..=n).rev().map(|k| ((1u64 << k) - 1) as u32).collect(),
            Sets::GroupingSets(sets) => set_masks(dims, sets.iter().map(Vec::as_slice))?,
            Sets::Unpivot => set_masks(dims, dims.chunks(1))?,
        }))
    }
}

/// The keep-mask of each listed set; every member must be one of `dims`.
fn set_masks<'s>(dims: &[&str], sets: impl Iterator<Item = &'s [&'s str]>) -> Result<Vec<u32>> {
    let masks = sets.map(|set| {
        set.iter().try_fold(0u32, |mask, name| {
            let d = dims.iter().position(|x| x == name).ok_or_else(|| {
                mdj_storage::StorageError::UnknownColumn {
                    name: (*name).to_string(),
                    schema: format!("grouping dims {dims:?}"),
                }
            })?;
            Ok(mask | (1 << d))
        })
    });
    Ok(masks.collect::<std::result::Result<_, mdj_storage::StorageError>>()?)
}

/// The base table of `sets` over every row of `r`.
pub fn build(r: &Relation, dims: &[&str], sets: Sets) -> Result<Relation> {
    distinct_sets(r, || r.iter(), dims, sets)
}

/// The base table of `sets` over `σ_pred(r)`, for a detail-side `pred`,
/// built in one filtered pass over `r` instead of over a copy of the
/// selection: `pred` is evaluated once per row and only the rows it passes
/// offer their dimensions. Equal, row for row and in first-seen order, to
/// [`build`] over `mdj_naive::ops::select(r, pred)`.
pub fn build_filtered(
    r: &Relation,
    pred: &Expr,
    dims: &[&str],
    sets: Sets,
    ctx: &ExecContext,
) -> Result<Relation> {
    let kept = select_rows(r, pred, ctx)?;
    distinct_sets(r, || kept.iter().map(|&i| &r.rows()[i]), dims, sets)
}

/// The ids of the rows of `r` that pass the detail-side `pred`, in order. Per
/// chunk of `ctx.morsel_size()` rows, `pred` evaluates into a selection
/// vector over the chunk's cached columns where it has a batch form, and row
/// by row through the scalar interpreter where it does not (`Div`/`Mod`, or
/// a chunk whose column has no typed form).
fn select_rows(r: &Relation, pred: &Expr, ctx: &ExecContext) -> Result<Vec<usize>> {
    let bound = pred.bind(None, Some(r.schema()))?;
    let batchable = batchable_bound_shape(&bound);
    let mut needed = vec![false; r.schema().len()];
    if batchable {
        collect_detail_cols(&bound, &mut needed);
    }
    let morsel = ctx.morsel_size().max(1);
    let stats = ctx.stats().map(|s| s.as_ref());
    let mut kept = Vec::new();
    for (idx, chunk) in split(r.len(), morsel).into_iter().enumerate() {
        ctx.check_interrupt()?;
        let sel = batchable
            .then(|| r.chunk(idx, morsel, &needed, stats))
            .and_then(|columns| eval_batch(&bound, &columns))
            .map(|verdicts| verdicts.to_selection(chunk.len()));
        match sel {
            Some(sel) => kept.extend(chunk.zip(sel).filter_map(|(i, pass)| pass.then_some(i))),
            None => {
                for i in chunk {
                    if bound.eval_bool(&[], r.rows()[i].values())? {
                        kept.push(i);
                    }
                }
            }
        }
    }
    Ok(kept)
}

/// For each set in turn, the distinct values of its kept dimensions over
/// `rows()`, with `ALL` in the rolled-up ones, in first-seen order: keys are
/// numbered through a [`KeyIndex`], and a row is cloned only for a new key.
fn distinct_sets<'r, I: Iterator<Item = &'r Row>>(
    r: &Relation,
    rows: impl Fn() -> I,
    dims: &[&str],
    sets: Sets,
) -> Result<Relation> {
    let idx = r.schema().indices_of(dims)?;
    // `None` keeps every dimension.
    let masks: Vec<Option<u32>> = match sets.keep_masks(dims)? {
        None => vec![None],
        Some(masks) => masks.into_iter().map(Some).collect(),
    };
    let mut keys = KeyIndex::new(idx.len());
    let mut out = Vec::new();
    for mask in masks {
        let key = |row: &'r Row| {
            idx.iter().enumerate().map(move |(d, &col)| match mask {
                Some(mask) if mask & (1 << d) == 0 => &Value::All,
                _ => &row[col],
            })
        };
        for row in rows() {
            if keys.insert(key(row)).1 {
                out.push(Row::new(key(row).cloned().collect()));
            }
        }
    }
    Ok(Relation::from_rows(r.schema().project(&idx), out))
}

/// Group-by base table: `select distinct attrs from r` (Example 3.1's `B`).
pub fn group_by(r: &Relation, attrs: &[&str]) -> Result<Relation> {
    build(r, attrs, Sets::GroupBy)
}

/// The data-cube base table of Example 2.1: all `2^n` group-bys of `dims`
/// merged into one relation using `ALL` (Gray et al.). Ordered coarse-to-fine
/// free; rows are unique.
pub fn cube(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build(r, dims, Sets::Cube)
}

/// SQL99 `ROLLUP(dims)`: the n+1 prefix group-bys
/// `(d₁..d_n), (d₁..d_{n-1}), …, ()`.
pub fn rollup(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build(r, dims, Sets::Rollup)
}

/// SQL99 `GROUPING SETS`: a user-controlled collection of group-bys. Each set
/// lists the dimensions *kept*; the rest become `ALL`. The paper's marginals
/// example: `Grouping Sets ((prod), (month), (state))`.
pub fn grouping_sets(r: &Relation, dims: &[&str], sets: &[Vec<&str>]) -> Result<Relation> {
    build(r, dims, Sets::GroupingSets(sets))
}

/// The unpivot base table of \[GFC98\] as discussed in Example 2.1: the
/// one-dimensional marginals, i.e. `GROUPING SETS ((d₁), (d₂), …, (d_n))`.
pub fn unpivot(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build(r, dims, Sets::Unpivot)
}

/// θ matching a cube/rollup/grouping-sets base table against detail tuples:
/// for each dimension, `B.d = ALL OR B.d = R.d`. An `ALL` cell aggregates
/// every detail value of that dimension — precisely the roll-up meaning of
/// `ALL` in \[GBLP96\]. (The optimized cube algorithms in `mdj-cube` avoid this
/// OR-form by partitioning per cuboid, per Theorem 4.1.)
pub fn cube_match_theta(dims: &[&str]) -> Expr {
    and_all(
        dims.iter()
            .map(|d| or(eq(col_b(*d), lit(Value::All)), eq(col_b(*d), col_r(*d)))),
    )
}

/// θ for one specific cuboid (the kept dimensions get equality tests; rolled
/// up dimensions are unconstrained). Used by the per-cuboid evaluation plans.
pub fn cuboid_theta(kept: &[&str]) -> Expr {
    and_all(kept.iter().map(|d| eq(col_b(*d), col_r(*d))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_storage::{DataType, Row, Schema};
    use std::collections::HashSet;

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::str("NY"),
                    Value::Float(1.0),
                ]),
                Row::from_values(vec![
                    Value::Int(1),
                    Value::Int(2),
                    Value::str("NY"),
                    Value::Float(2.0),
                ]),
                Row::from_values(vec![
                    Value::Int(2),
                    Value::Int(1),
                    Value::str("CA"),
                    Value::Float(3.0),
                ]),
            ],
        )
    }

    #[test]
    fn group_by_is_distinct() {
        let b = group_by(&rel(), &["prod"]).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn cube_counts() {
        // Distinct combos: (prod,month,state): 3; (prod,month): 3; (prod,state): 2;
        // (month,state): 3; (prod): 2; (month): 2; (state): 2; (): 1. Total 18.
        let b = cube(&rel(), &["prod", "month", "state"]).unwrap();
        assert_eq!(b.len(), 18);
        // Apex row present.
        assert!(b.iter().any(|r| r.values().iter().all(|v| v.is_all())));
        // No duplicates.
        let uniq: HashSet<_> = b.iter().cloned().collect();
        assert_eq!(uniq.len(), b.len());
    }

    #[test]
    fn cube_of_two_dims() {
        let b = cube(&rel(), &["prod", "month"]).unwrap();
        // (p,m): 3; (p,ALL): 2; (ALL,m): 2; (ALL,ALL): 1 → 8
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn rollup_prefixes_only() {
        let b = rollup(&rel(), &["prod", "month"]).unwrap();
        // (p,m): 3; (p,ALL): 2; (ALL,ALL): 1 → 6; no (ALL,m) rows.
        assert_eq!(b.len(), 6);
        assert!(!b.iter().any(|r| r[0].is_all() && !r[1].is_all()));
    }

    #[test]
    fn grouping_sets_marginals() {
        let b = grouping_sets(
            &rel(),
            &["prod", "month", "state"],
            &[vec!["prod"], vec!["month"], vec!["state"]],
        )
        .unwrap();
        // prods: 2 + months: 2 + states: 2 = 6 rows.
        assert_eq!(b.len(), 6);
        for row in b.iter() {
            let all_count = row.values().iter().filter(|v| v.is_all()).count();
            assert_eq!(all_count, 2);
        }
    }

    #[test]
    fn unpivot_equals_singleton_grouping_sets() {
        let a = unpivot(&rel(), &["prod", "month"]).unwrap();
        let b = grouping_sets(&rel(), &["prod", "month"], &[vec!["prod"], vec!["month"]]).unwrap();
        assert!(a.same_multiset(&b));
    }

    #[test]
    fn grouping_sets_rejects_unknown_dims() {
        let err = grouping_sets(&rel(), &["prod"], &[vec!["bogus"]]);
        assert!(err.is_err());
    }

    #[test]
    fn grouping_sets_with_duplicate_sets_dedups() {
        let b = grouping_sets(&rel(), &["prod"], &[vec!["prod"], vec!["prod"]]).unwrap();
        assert_eq!(b.len(), 2); // distinct prods once
    }

    #[test]
    fn cube_match_theta_semantics() {
        use crate::context::ExecContext;
        use crate::mdjoin::md_join_serial;
        use mdj_agg::AggSpec;
        let r = rel();
        let b = cube(&r, &["prod", "month"]).unwrap();
        let out = md_join_serial(
            &b,
            &r,
            &[AggSpec::on_column("sum", "sale")],
            &cube_match_theta(&["prod", "month"]),
            &ExecContext::new(),
        )
        .unwrap();
        // Apex = total of all sales.
        let apex = out
            .rows()
            .iter()
            .find(|row| row[0].is_all() && row[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(6.0));
        // (prod=1, ALL) = 1.0 + 2.0.
        let p1 = out
            .rows()
            .iter()
            .find(|row| row[0] == Value::Int(1) && row[1].is_all())
            .unwrap();
        assert_eq!(p1[2], Value::Float(3.0));
        // Finest cell (1, 2) = 2.0.
        let cell = out
            .rows()
            .iter()
            .find(|row| row[0] == Value::Int(1) && row[1] == Value::Int(2))
            .unwrap();
        assert_eq!(cell[2], Value::Float(2.0));
    }

    #[test]
    fn cuboid_theta_is_group_theta() {
        assert_eq!(
            cuboid_theta(&["prod", "state"]),
            and_all([
                eq(col_b("prod"), col_r("prod")),
                eq(col_b("state"), col_r("state"))
            ])
        );
        assert_eq!(cuboid_theta(&[]), Expr::always_true());
    }

    #[test]
    fn external_table_is_just_a_relation() {
        // Example 2.4: a precomputed table of cube points is usable directly.
        let csv = "prod,month\n1,ALL\nALL,2\n";
        let schema = Schema::from_pairs(&[("prod", DataType::Int), ("month", DataType::Int)]);
        let b = mdj_storage::csv::read_str(csv, &schema).unwrap();
        use crate::context::ExecContext;
        use crate::mdjoin::md_join_serial;
        use mdj_agg::AggSpec;
        let out = md_join_serial(
            &b,
            &rel(),
            &[AggSpec::on_column("sum", "sale")],
            &cube_match_theta(&["prod", "month"]),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let r1 = &out.rows()[0];
        assert_eq!(r1[2], Value::Float(3.0)); // prod 1, any month
    }
}
