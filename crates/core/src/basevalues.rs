//! Base-values table builders — every group-definition shape from Section 2.
//!
//! The point of the MD-join is that *any* relation can serve as `B`: a plain
//! `select distinct` (group-by), a cube with `ALL` values (Example 2.1), a
//! restricted collection of group-bys (grouping sets / unpivot marginals), a
//! roll-up chain, or an externally supplied table of "crucial/representative
//! points" (Example 2.4 — just pass that relation straight in). These
//! builders produce such tables; the aggregation that follows is always the
//! same operator.
//!
//! Each shape is a union of group-bys over one input (Gray et al.), which
//! Theorem 4.1 read right to left makes one pass: [`build`], the engine's
//! only base builder, groups every set in one scan of resident rows or pages.

use crate::context::ExecContext;
use crate::error::Result;
use crate::executor::{DetailSource, Grid};
use crate::grouped::{scan_block, GroupTable, Where};
use mdj_expr::builder::{and_all, col_b, col_r, eq, lit, or};
use mdj_expr::Expr;
use mdj_storage::{Counter, KeyIndex, Relation, Row, StorageError, Value};

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
    /// One keep-mask per set, in set order: bit `d` set keeps `dims[d]`,
    /// clear rolls it up to `ALL`.
    pub fn keep_masks(&self, dims: &[&str]) -> Result<Vec<u32>> {
        let Sets::GroupingSets(sets) = self else {
            return Ok(self.masks(dims.len()).unwrap_or_default());
        };
        let position = |name: &&str| {
            dims.iter()
                .position(|d| d == name)
                .ok_or_else(|| StorageError::UnknownColumn {
                    name: name.to_string(),
                    schema: format!("grouping dims {dims:?}"),
                })
        };
        let masks = sets.iter().map(|set| {
            set.iter()
                .try_fold(0, |m, name| Ok(m | 1 << position(name)?))
        });
        Ok(masks.collect::<std::result::Result<_, StorageError>>()?)
    }

    /// The keep-masks of a shape over `n` dimensions, or `None` for
    /// grouping sets, which name their dimensions: cube masks run from the
    /// finest to the apex, roll-up prefixes from the longest, unpivot
    /// marginals in dimension order.
    pub fn masks(&self, n: usize) -> Option<Vec<u32>> {
        let prefix = |k: usize| ((1u64 << k) - 1) as u32;
        Some(match self {
            Sets::GroupBy => vec![prefix(n)],
            Sets::Cube => (0..=prefix(n)).rev().collect(),
            Sets::Rollup => (0..=n).rev().map(prefix).collect(),
            Sets::Unpivot => (0..n).map(|d| 1 << d).collect(),
            Sets::GroupingSets(_) => return None,
        })
    }
}

/// The base table of `sets` over `σ_pred(R)`, `R` read from `source` (`pred`
/// a detail-side predicate; `None` keeps every row), in one scan: per chunk
/// `pred` is evaluated once into a selection, and the rows it keeps are
/// offered to one `GroupTable` per distinct set. Over a page store the scan
/// reads the pages `pred`'s clustered-key bounds admit (Theorem 4.2).
///
/// The rows are the sets' groups in set order, each set's in first-seen
/// order, with `ALL` in its rolled-up dimensions; a row an earlier set gave
/// (a repeated set, or key data that holds `ALL`) is left out.
pub fn build(
    source: DetailSource,
    pred: Option<&Expr>,
    dims: &[&str],
    sets: Sets,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.count(Counter::base_passes, 1);
    let schema = source.schema();
    let idx = schema.indices_of(dims)?;
    let filter = Where::bind(pred, schema)?;
    let mut needed = vec![false; schema.len()];
    filter.collect_needed(&mut needed);
    let kept = |mask: u32| (0..idx.len()).filter(move |d| mask & (1 << d) != 0);
    // One table per distinct set, in the order the sets first list them: a
    // repeated set adds no row.
    let mut tables: Vec<(u32, GroupTable)> = Vec::new();
    for mask in sets.keep_masks(dims)? {
        if tables.iter().all(|(m, _)| *m != mask) {
            let table = GroupTable::new(schema, kept(mask).map(|d| idx[d]).collect());
            table.collect_needed(&mut needed);
            tables.push((mask, table));
        }
    }
    let grid = Grid::new(source, &[scan_block(pred)], ctx.morsel_size());
    let mut ids = Vec::new();
    grid.scan_columns(ctx, &needed, |chunk| {
        let sel = filter.select(chunk)?;
        for (_, table) in &mut tables {
            table.assign(chunk, sel.as_deref(), &mut ids);
        }
        Ok(0)
    })?;
    // A group-by's groups are its rows.
    if tables.len() == 1 && kept(tables[0].0).count() == idx.len() {
        return Ok(tables.remove(0).1.into_base());
    }
    let mut keys = KeyIndex::new(idx.len());
    let mut out = Relation::empty(schema.project(&idx));
    for (mask, table) in tables {
        for group in table.base().iter() {
            let mut vals = group.values().iter().cloned();
            let row: Vec<Value> = (0..idx.len())
                .map(|d| match mask & (1 << d) {
                    0 => Value::All,
                    _ => vals.next().expect("a kept dimension"),
                })
                .collect();
            if keys.insert(&row).1 {
                out.push_unchecked(Row::new(row));
            }
        }
    }
    Ok(out)
}

/// [`build`] over every row of the resident `r`, on a default context.
fn build_resident(r: &Relation, dims: &[&str], sets: Sets) -> Result<Relation> {
    let ctx = ExecContext::new();
    build(DetailSource::Resident(r), None, dims, sets, &ctx)
}

/// Group-by base table: `select distinct attrs from r` (Example 3.1's `B`).
pub fn group_by(r: &Relation, attrs: &[&str]) -> Result<Relation> {
    build_resident(r, attrs, Sets::GroupBy)
}

/// The data-cube base table of Example 2.1: all `2^n` group-bys of `dims`
/// merged into one relation using `ALL` (Gray et al.). Ordered coarse-to-fine
/// free; rows are unique.
pub fn cube(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build_resident(r, dims, Sets::Cube)
}

/// SQL99 `ROLLUP(dims)`: the n+1 prefix group-bys
/// `(d₁..d_n), (d₁..d_{n-1}), …, ()`.
pub fn rollup(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build_resident(r, dims, Sets::Rollup)
}

/// SQL99 `GROUPING SETS`: a user-controlled collection of group-bys. Each set
/// lists the dimensions *kept*; the rest become `ALL`. The paper's marginals
/// example: `Grouping Sets ((prod), (month), (state))`.
pub fn grouping_sets(r: &Relation, dims: &[&str], sets: &[Vec<&str>]) -> Result<Relation> {
    build_resident(r, dims, Sets::GroupingSets(sets))
}

/// The unpivot base table of \[GFC98\] as discussed in Example 2.1: the
/// one-dimensional marginals, i.e. `GROUPING SETS ((d₁), (d₂), …, (d_n))`.
pub fn unpivot(r: &Relation, dims: &[&str]) -> Result<Relation> {
    build_resident(r, dims, Sets::Unpivot)
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
