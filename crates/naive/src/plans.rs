//! Literal multi-block relational plans for the paper's worked examples —
//! what a user had to write *without* the MD-join, and what the benchmark
//! harness uses as the commercial-DBMS stand-in.

use crate::error::Result;
use crate::groupby::group_by_agg;
use crate::join::{hash_join, left_outer_join};
use crate::ops::{kept, pad_into, select};
use mdj_agg::{AggSpec, Registry};
use mdj_expr::builder::*;
use mdj_storage::{Relation, Row, Schema, Value};

/// Positional projection helper (needed because joins produce duplicate
/// column names).
fn project_idx(r: &Relation, indices: &[usize]) -> Relation {
    let schema = r.schema().project(indices);
    let rows = r.iter().map(|row| Row::new(row.key(indices))).collect();
    Relation::from_rows(schema, rows)
}

/// Rename columns positionally.
fn rename(r: &Relation, names: &[&str]) -> Relation {
    let fields: Vec<mdj_storage::Field> = r
        .schema()
        .fields()
        .iter()
        .zip(names)
        .map(|(f, n)| mdj_storage::Field::new(*n, f.dtype))
        .collect();
    r.with_schema(Schema::new(fields)).expect("same arity")
}

/// Replace NULL with 0 in the given column (COALESCE for count columns after
/// outer joins).
fn coalesce_zero(r: &Relation, col: usize) -> Relation {
    let rows = r
        .iter()
        .map(|row| {
            let mut vals = row.values().to_vec();
            if vals[col].is_null() {
                vals[col] = Value::Int(0);
            }
            Row::new(vals)
        })
        .collect();
    Relation::from_rows(r.schema().clone(), rows)
}

/// **Example 2.2** (tri-state pivot), as the paper describes the SQL: three
/// per-state group-by subqueries, a fourth subquery for the distinct
/// customers, and outer joins to attach each average.
///
/// Output: `(cust, avg_ny, avg_nj, avg_ct)`.
pub fn example_2_2(sales: &Relation, registry: &Registry) -> Result<Relation> {
    let states = ["NY", "NJ", "CT"];
    // Subquery 4: all unique customers.
    let mut acc = sales.distinct_on(&["cust"])?;
    for st in states {
        // Subquery per state: SELECT cust, AVG(sale) FROM Sales WHERE state=st GROUP BY cust.
        let filtered = select(sales, &eq(col_r("state"), lit(st)))?;
        let avgs = group_by_agg(
            &filtered,
            &["cust"],
            &[AggSpec::on_column("avg", "sale").with_alias(format!("avg_{}", st.to_lowercase()))],
            registry,
        )?;
        // Outer join keeps customers with no purchases in `st`.
        let joined = left_outer_join(&acc, &avgs, &["cust"], &["cust"])?;
        // Drop the duplicated join key.
        let keep: Vec<usize> = (0..acc.schema().len())
            .chain([acc.schema().len() + 1])
            .collect();
        acc = project_idx(&joined, &keep);
    }
    Ok(acc)
}

/// **Example 2.5** (for each product, count 1997 sales strictly between the
/// previous month's and the following month's average sale), as multi-block
/// SQL: an averages-per-(prod, month) subquery joined twice against the fact
/// table with shifted months, filtered, re-aggregated, and outer-joined onto
/// the group list.
///
/// Output: `(prod, month, cnt)` over all (prod, month) pairs present in
/// `year`.
pub fn example_2_5(sales: &Relation, year: i64, registry: &Registry) -> Result<Relation> {
    let sales_y = select(sales, &eq(col_r("year"), lit(year)))?;
    // Group list (the output rows): distinct (prod, month).
    let base = sales_y.distinct_on(&["prod", "month"])?;
    // Averages per (prod, month) across the same year.
    let avgs = group_by_agg(
        &sales_y,
        &["prod", "month"],
        &[AggSpec::on_column("avg", "sale")],
        registry,
    )?;
    // X: previous month's average, keyed so that X.month + 1 = group month.
    let prev = rename(
        &crate::ops::project_exprs(
            &avgs,
            &[
                ("prod", col_r("prod")),
                ("month", add(col_r("month"), lit(1i64))),
                ("prev_avg", col_r("avg_sale")),
            ],
        )?,
        &["prod", "month", "prev_avg"],
    );
    // Y: following month's average, keyed so that Y.month - 1 = group month.
    let next = rename(
        &crate::ops::project_exprs(
            &avgs,
            &[
                ("prod", col_r("prod")),
                ("month", sub(col_r("month"), lit(1i64))),
                ("next_avg", col_r("avg_sale")),
            ],
        )?,
        &["prod", "month", "next_avg"],
    );
    // Join the fact table with both shifted average tables.
    let j1 = hash_join(&sales_y, &prev, &["prod", "month"], &["prod", "month"])?;
    let n1 = sales_y.schema().len();
    // Keep sales columns + prev_avg.
    let mut keep: Vec<usize> = (0..n1).collect();
    keep.push(n1 + 2);
    let j1 = project_idx(&j1, &keep);
    let j2 = hash_join(&j1, &next, &["prod", "month"], &["prod", "month"])?;
    let n2 = j1.schema().len();
    let mut keep: Vec<usize> = (0..n2).collect();
    keep.push(n2 + 2);
    let j2 = project_idx(&j2, &keep);
    // Filter: prev_avg < sale < next_avg.
    let filtered = select(
        &j2,
        &and(
            gt(col_r("sale"), col_r("prev_avg")),
            lt(col_r("sale"), col_r("next_avg")),
        ),
    )?;
    // Re-aggregate.
    let counts = group_by_agg(
        &filtered,
        &["prod", "month"],
        &[AggSpec::count_star().with_alias("cnt")],
        registry,
    )?;
    // Outer join onto the group list so empty groups report 0.
    let joined = left_outer_join(&base, &counts, &["prod", "month"], &["prod", "month"])?;
    let out = project_idx(&joined, &[0, 1, 4]);
    Ok(coalesce_zero(&out, 2))
}

/// **Example 2.2, sort-based executor profile** — the same four-subquery /
/// three-outer-join plan, but evaluated the way a 2001 commercial engine
/// would: sort-based group-bys and sort-merge outer joins, each operator
/// re-sorting and materializing its inputs. See [`crate::sortexec`].
pub fn example_2_2_sort_based(sales: &Relation, registry: &Registry) -> Result<Relation> {
    use crate::sortexec::{sort_group_by, sort_merge_left_outer};
    let states = ["NY", "NJ", "CT"];
    let mut acc = sales.distinct_on(&["cust"])?;
    for st in states {
        let filtered = select(sales, &eq(col_r("state"), lit(st)))?;
        let avgs = sort_group_by(
            &filtered,
            &["cust"],
            &[AggSpec::on_column("avg", "sale").with_alias(format!("avg_{}", st.to_lowercase()))],
            registry,
        )?;
        let joined = sort_merge_left_outer(&acc, &avgs, &["cust"], &["cust"])?;
        let keep: Vec<usize> = (0..acc.schema().len())
            .chain([acc.schema().len() + 1])
            .collect();
        acc = project_idx(&joined, &keep);
    }
    Ok(acc)
}

/// **Example 2.5, sort-based executor profile** — the multi-block plan with
/// sort-based group-bys and sort-merge joins (both fact-table joins re-sort
/// the fact table: exactly the repeated large sorts a 2001 engine pays).
pub fn example_2_5_sort_based(
    sales: &Relation,
    year: i64,
    registry: &Registry,
) -> Result<Relation> {
    use crate::sortexec::{sort_group_by, sort_merge_join, sort_merge_left_outer};
    let sales_y = select(sales, &eq(col_r("year"), lit(year)))?;
    let base = sales_y.distinct_on(&["prod", "month"])?;
    let avgs = sort_group_by(
        &sales_y,
        &["prod", "month"],
        &[AggSpec::on_column("avg", "sale")],
        registry,
    )?;
    let prev = rename(
        &crate::ops::project_exprs(
            &avgs,
            &[
                ("prod", col_r("prod")),
                ("month", add(col_r("month"), lit(1i64))),
                ("prev_avg", col_r("avg_sale")),
            ],
        )?,
        &["prod", "month", "prev_avg"],
    );
    let next = rename(
        &crate::ops::project_exprs(
            &avgs,
            &[
                ("prod", col_r("prod")),
                ("month", sub(col_r("month"), lit(1i64))),
                ("next_avg", col_r("avg_sale")),
            ],
        )?,
        &["prod", "month", "next_avg"],
    );
    let j1 = sort_merge_join(&sales_y, &prev, &["prod", "month"], &["prod", "month"])?;
    let n1 = sales_y.schema().len();
    let mut keep: Vec<usize> = (0..n1).collect();
    keep.push(n1 + 2);
    let j1 = project_idx(&j1, &keep);
    let j2 = sort_merge_join(&j1, &next, &["prod", "month"], &["prod", "month"])?;
    let n2 = j1.schema().len();
    let mut keep: Vec<usize> = (0..n2).collect();
    keep.push(n2 + 2);
    let j2 = project_idx(&j2, &keep);
    let filtered = select(
        &j2,
        &and(
            gt(col_r("sale"), col_r("prev_avg")),
            lt(col_r("sale"), col_r("next_avg")),
        ),
    )?;
    let counts = sort_group_by(
        &filtered,
        &["prod", "month"],
        &[AggSpec::count_star().with_alias("cnt")],
        registry,
    )?;
    let joined = sort_merge_left_outer(&base, &counts, &["prod", "month"], &["prod", "month"])?;
    let out = project_idx(&joined, &[0, 1, 4]);
    Ok(coalesce_zero(&out, 2))
}

/// **Cube by 2ⁿ group-bys** — the pre-\[AAD+96\] naive cube plan: one
/// independent group-by per cuboid, results padded with `ALL` and unioned.
/// Used as the baseline of experiment E1.
pub fn cube_by_groupbys(
    r: &Relation,
    dims: &[&str],
    specs: &[AggSpec],
    registry: &Registry,
) -> Result<Relation> {
    let n = dims.len();
    let mut out: Option<Relation> = None;
    for mask in (0..(1u32 << n)).rev() {
        let kept = kept(dims, mask);
        let grouped = group_by_agg(r, &kept, specs, registry)?;
        // Pad rolled-up dimensions with ALL, restoring dim order.
        let padded = pad_with_all(&grouped, dims, &kept, specs);
        out = Some(match out {
            None => padded,
            Some(acc) => acc.union(&padded)?,
        });
    }
    Ok(out.expect("at least the apex cuboid"))
}

/// Reshape a cuboid's group-by output to the full `(dims…, aggs…)` schema,
/// inserting `ALL` for rolled-up dimensions.
fn pad_with_all(grouped: &Relation, dims: &[&str], kept: &[&str], specs: &[AggSpec]) -> Relation {
    let fields = dims
        .iter()
        .map(|d| mdj_storage::Field::new(*d, mdj_storage::DataType::Any))
        .chain((0..specs.len()).map(|i| grouped.schema().field(kept.len() + i).clone()));
    let mut out = Relation::empty(Schema::new(fields.collect()));
    pad_into(grouped, dims, kept, &mut out);
    out
}

/// **Example 2.3** (count sales above the average of their cube cell), as
/// the paper describes the naive formulation: "the user has to define eight
/// group bys, join each one with the Sales table and perform eight new group
/// bys". Output: `(prod, month, state, cnt)` with `ALL` markers, one row per
/// cube cell.
pub fn example_2_3(sales: &Relation, registry: &Registry) -> Result<Relation> {
    let dims = ["prod", "month", "state"];
    let n = dims.len();
    let mut out: Option<Relation> = None;
    let cnt = [AggSpec::count_star().with_alias("cnt")];
    for mask in (0..(1u32 << n)).rev() {
        let kept = kept(&dims, mask);
        // Group-by #1: per-cell averages.
        let avgs = group_by_agg(sales, &kept, &[AggSpec::on_column("avg", "sale")], registry)?;
        // Join the cell averages back onto the fact table.
        let joined = hash_join(sales, &avgs, &kept, &kept)?;
        let n_sales = sales.schema().len();
        let avg_col = n_sales + kept.len();
        let mut keep: Vec<usize> = (0..n_sales).collect();
        keep.push(avg_col);
        let joined = project_idx(&joined, &keep);
        // Filter above-average tuples.
        let above = select(&joined, &gt(col_r("sale"), col_r("avg_sale")))?;
        // Group-by #2: count per cell.
        let counts = group_by_agg(&above, &kept, &cnt, registry)?;
        // Keep zero-count cells via outer join onto the cell list.
        let cells = sales.distinct_on(&kept)?;
        let joined = left_outer_join(&cells, &counts, &kept, &kept)?;
        let keep: Vec<usize> = (0..kept.len()).chain([2 * kept.len()]).collect();
        let cuboid = coalesce_zero(&project_idx(&joined, &keep), kept.len());
        let padded = pad_with_all(&cuboid, &dims, &kept, &cnt);
        out = Some(match out {
            None => padded,
            Some(acc) => acc.union(&padded)?,
        });
    }
    Ok(out.expect("at least the apex cuboid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_storage::DataType;

    /// Tiny Sales table with the full paper schema.
    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("prod", DataType::Int),
            ("day", DataType::Int),
            ("month", DataType::Int),
            ("year", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mk = |cust: i64, prod: i64, month: i64, year: i64, state: &str, sale: f64| {
            Row::from_values(vec![
                Value::Int(cust),
                Value::Int(prod),
                Value::Int(1),
                Value::Int(month),
                Value::Int(year),
                Value::str(state),
                Value::Float(sale),
            ])
        };
        Relation::from_rows(
            schema,
            vec![
                mk(1, 10, 1, 1997, "NY", 10.0),
                mk(1, 10, 2, 1997, "NY", 25.0),
                mk(1, 10, 3, 1997, "NJ", 50.0),
                mk(2, 10, 2, 1997, "CT", 15.0),
                mk(2, 20, 2, 1997, "NY", 100.0),
                mk(3, 20, 2, 1996, "CA", 999.0), // other year: ignored by 2.5
            ],
        )
    }

    #[test]
    fn example_2_2_schema_and_outer_semantics() {
        let out = example_2_2(&sales(), &Registry::standard()).unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["cust", "avg_ny", "avg_nj", "avg_ct"]
        );
        assert_eq!(out.len(), 3);
        let c3 = out.rows().iter().find(|r| r[0] == Value::Int(3)).unwrap();
        assert_eq!(c3[1], Value::Null); // no NY purchases in any year? cust 3 only CA
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(17.5)); // (10+25)/2
        assert_eq!(c1[2], Value::Float(50.0));
        assert_eq!(c1[3], Value::Null);
    }

    #[test]
    fn example_2_5_counts_between_neighbor_averages() {
        // prod 10: month 1 avg 10, month 2 avg (25+15)/2 = 20, month 3 avg 50.
        // Month-2 tuples between avg(month 1)=10 and avg(month 3)=50:
        // 25 (yes), 15 (yes) → cnt 2. Months 1 and 3 lack a neighbor → 0.
        let out = example_2_5(&sales(), 1997, &Registry::standard()).unwrap();
        assert_eq!(out.schema().names(), vec!["prod", "month", "cnt"]);
        let m2 = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(10) && r[1] == Value::Int(2))
            .unwrap();
        assert_eq!(m2[2], Value::Int(2));
        let m1 = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(10) && r[1] == Value::Int(1))
            .unwrap();
        assert_eq!(m1[2], Value::Int(0));
        // prod 20 has no month-1/month-3 averages in 1997, so the inner joins
        // drop its tuples and the outer join restores it with count 0. (The
        // 1996 row is excluded by the year filter.)
        let p20 = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(20) && r[1] == Value::Int(2))
            .unwrap();
        assert_eq!(p20[2], Value::Int(0));
    }

    #[test]
    fn sort_based_plans_match_hash_based_plans() {
        let reg = Registry::standard();
        let s = sales();
        let a = example_2_2(&s, &reg).unwrap();
        let b = example_2_2_sort_based(&s, &reg).unwrap();
        assert!(a.same_multiset(&b));
        let a = example_2_5(&s, 1997, &reg).unwrap();
        let b = example_2_5_sort_based(&s, 1997, &reg).unwrap();
        assert!(a.same_multiset(&b));
    }

    #[test]
    fn cube_by_groupbys_row_count_matches_cube() {
        let s = sales();
        let cube = cube_by_groupbys(
            &s,
            &["prod", "state"],
            &[AggSpec::on_column("sum", "sale")],
            &Registry::standard(),
        )
        .unwrap();
        // Cross-check with the MD-join cube base builder's cardinality.
        // distinct (prod,state): NY10,NJ10,CT10,NY20,CA20 = 5; prods: 2;
        // states: 4; apex: 1 → 12.
        assert_eq!(cube.len(), 12);
        let apex = cube
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(1199.0));
    }

    #[test]
    fn example_2_3_counts_above_average() {
        let s = sales();
        let out = example_2_3(&s, &Registry::standard()).unwrap();
        // Apex cell: global avg = 1199/6 ≈ 199.8; above it: 999 only → 1.
        let apex = out
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all() && r[2].is_all())
            .unwrap();
        assert_eq!(apex[3], Value::Int(1));
        // Cell (prod=10, ALL, ALL): avg 25; above: 50 → 1.
        let p10 = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(10) && r[1].is_all() && r[2].is_all())
            .unwrap();
        assert_eq!(p10[3], Value::Int(1));
        // Finest single-tuple cells can never beat their own average → 0.
        let fine = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(10) && r[1] == Value::Int(1) && r[2] == Value::str("NY"))
            .unwrap();
        assert_eq!(fine[3], Value::Int(0));
    }
}
