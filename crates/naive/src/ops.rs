//! Single-relation operators: selection, projection over expressions — and
//! the Definition 3.1 reference every MD-join executor is tested against.

use crate::error::Result;
use mdj_agg::{AggInput, AggSpec, AggState, Registry};
use mdj_expr::{Expr, Side};
use mdj_storage::{DataType, Field, Relation, Row, Schema, Value};

/// Definition 3.1, executed verbatim and as slowly as it reads: for each
/// base row in order, scan all of `R`, keep the tuples with `θ(b, t)`, and
/// fold them into fresh aggregate states in scan order. One output row per
/// base row; an empty range reports each aggregate's empty-input value.
/// This is the reference association for every float aggregate: executors
/// must match it to the bit.
pub fn md_join_reference(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    registry: &Registry,
) -> Result<Relation> {
    let theta = theta.bind(Some(b.schema()), Some(r.schema()))?;
    let mut fields = b.schema().fields().to_vec();
    let mut bound = Vec::with_capacity(l.len());
    for spec in l {
        let agg = registry.get(&spec.function)?;
        let (col, input_type) = match &spec.input {
            AggInput::Star => (None, DataType::Int),
            AggInput::Column(c) => {
                let i = r.schema().index_of(c)?;
                (Some(i), r.schema().field(i).dtype)
            }
        };
        fields.push(Field::new(spec.output_name(), agg.output_type(input_type)));
        bound.push((agg, col));
    }
    let mut out = Relation::empty(Schema::new(fields));
    for base_row in b.iter() {
        let mut states: Vec<Box<dyn AggState>> = bound.iter().map(|(agg, _)| agg.init()).collect();
        for t in r.iter() {
            if theta.eval_bool(base_row.values(), t.values())? {
                for (state, (_, col)) in states.iter_mut().zip(&bound) {
                    state.update(col.map_or(&Value::Null, |c| &t[c]))?;
                }
            }
        }
        let mut vals = base_row.values().to_vec();
        vals.extend(states.iter().map(|s| s.finalize()));
        out.push_unchecked(Row::new(vals));
    }
    Ok(out)
}

/// σ — filter rows by a detail-side predicate. Column references must use
/// [`Side::Detail`] (there is no base side in a one-relation context).
pub fn select(r: &Relation, pred: &Expr) -> Result<Relation> {
    let bound = pred.bind(None, Some(r.schema()))?;
    let mut out = Relation::empty(r.schema().clone());
    for row in r.iter() {
        if bound.eval_bool(&[], row.values())? {
            out.push_unchecked(row.clone());
        }
    }
    Ok(out)
}

/// The base-values table of the grouping sets `masks` over `dims` (bit `d`
/// of a mask keeps `dims[d]`, a clear bit makes it `ALL`), computed as
/// written: per set `select distinct` its dimensions, padded with `ALL`,
/// then one `select distinct` over the union of the sets. Rows come in set
/// order, each set's in first-seen order.
pub fn base_values(r: &Relation, dims: &[&str], masks: &[u32]) -> Result<Relation> {
    let mut union = Relation::empty(r.schema().project(&r.schema().indices_of(dims)?));
    for &mask in masks {
        let kept = kept(dims, mask);
        pad_into(&r.distinct_on(&kept)?, dims, &kept, &mut union);
    }
    Ok(union.distinct_on(dims)?)
}

/// The dimensions of `dims` that keep-`mask` keeps (bit `d` is `dims[d]`).
pub(crate) fn kept<'d>(dims: &[&'d str], mask: u32) -> Vec<&'d str> {
    let on = |d: &usize| mask & (1 << d) != 0;
    (0..dims.len()).filter(on).map(|d| dims[d]).collect()
}

/// Append each row of `grouped` — its `kept` dimensions, then any other
/// columns — to `out` as `(dims…, others…)`, with `ALL` in the dimensions
/// it does not keep.
pub(crate) fn pad_into(grouped: &Relation, dims: &[&str], kept: &[&str], out: &mut Relation) {
    let at: Vec<Option<usize>> = dims
        .iter()
        .map(|d| kept.iter().position(|k| k == d))
        .collect();
    for row in grouped.iter() {
        let padded = at.iter().map(|i| i.map_or(Value::All, |i| row[i].clone()));
        let rest = row.values()[kept.len()..].iter().cloned();
        out.push_unchecked(Row::new(padded.chain(rest).collect()));
    }
}

/// π with computation — each output column is `(name, expr)` where `expr`
/// references the input with [`Side::Detail`]. Output types are `Any` unless
/// the expression is a bare column reference (whose type is preserved).
pub fn project_exprs(r: &Relation, cols: &[(&str, Expr)]) -> Result<Relation> {
    let bound: Vec<_> = cols
        .iter()
        .map(|(_, e)| e.bind(None, Some(r.schema())))
        .collect::<std::result::Result<_, _>>()?;
    let fields: Vec<Field> = cols
        .iter()
        .map(|(name, e)| {
            let dtype = match e {
                Expr::Col(c) if c.side == Side::Detail => r
                    .schema()
                    .index_of(&c.name)
                    .map(|i| r.schema().field(i).dtype)
                    .unwrap_or(DataType::Any),
                _ => DataType::Any,
            };
            Field::new(*name, dtype)
        })
        .collect();
    let mut out = Relation::empty(Schema::new(fields));
    for row in r.iter() {
        let vals = bound
            .iter()
            .map(|b| b.eval_detail(row.values()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        out.push_unchecked(Row::new(vals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Value};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]);
        Relation::from_rows(
            schema,
            (0..10).map(|i| Row::from_values([i, i * i])).collect(),
        )
    }

    #[test]
    fn select_filters() {
        let out = select(&rel(), &gt(col_r("x"), lit(6i64))).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn select_true_keeps_everything() {
        let out = select(&rel(), &Expr::always_true()).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn project_computes() {
        let out = project_exprs(
            &rel(),
            &[("x", col_r("x")), ("x_plus_y", add(col_r("x"), col_r("y")))],
        )
        .unwrap();
        assert_eq!(out.schema().names(), vec!["x", "x_plus_y"]);
        assert_eq!(out.schema().field(0).dtype, DataType::Int);
        assert_eq!(out.schema().field(1).dtype, DataType::Any);
        assert_eq!(out.rows()[3][1], Value::Int(12));
    }

    #[test]
    fn project_unknown_column_errors() {
        assert!(project_exprs(&rel(), &[("z", col_r("z"))]).is_err());
    }
}
