//! Shared cube machinery: the cube specification, one-scan cuboids, cuboid
//! padding, and sorted single-pass aggregation.

use crate::lattice::{Lattice, Mask};
use mdj_agg::{AggInput, AggSpec, AggState, Registry};
use mdj_core::basevalues::cuboid_theta;
use mdj_core::{DetailSource, ExecContext, ExecStrategy, MdJoin, Result};
use mdj_expr::Expr;
use mdj_storage::{DataType, Field, Relation, Row, Schema, Value};

/// One single-threaded MD-join via the [`MdJoin`] builder. The cube
/// algorithms schedule their own evaluation order (and any parallelism)
/// across cuboids, so each per-cuboid join stays single-threaded — but it
/// runs the *vectorized* evaluator (`threads(1)` pins it to one core): a
/// cuboid's θ is pure equality over the kept dimensions, which the batch
/// layer covers end to end, and shapes it cannot cover (e.g. the naive
/// cube-match θ with `ALL` wildcards) fall back per batch with output
/// identical to the serial interpreter by construction.
pub(crate) fn serial_md_join(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Vectorized)
        .threads(1)
        .run(ctx)
}

/// One cuboid, `MD(γ_kept(r), r, l, θ)` with θ the plain equality on the
/// kept dimensions, in one scan of `r`: the MD-join builds its group-by base
/// inside Algorithm 3.1's scan ([`MdJoin::group_by`]), single-threaded on the
/// batch evaluator. The output equals building `γ_kept(r)` first and running
/// [`serial_md_join`] over it, row for row and bit for bit: groups come in
/// first-seen order and each group's updates in scan order. A cuboid whose
/// scan cannot build its base (a kept dimension not declared `Int` or `Str`)
/// builds it in a pass of its own first, as that plan does.
pub(crate) fn cuboid(
    r: &Relation,
    kept: &[&str],
    l: &[AggSpec],
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::group_by(DetailSource::Resident(r), kept, None)
        .aggs(l)
        .theta(cuboid_theta(kept))
        .strategy(ExecStrategy::Vectorized)
        .threads(1)
        .run(ctx)
}

/// What cube to compute: the dimension columns and the aggregate list `l`.
#[derive(Debug, Clone)]
pub struct CubeSpec {
    pub dims: Vec<String>,
    pub aggs: Vec<AggSpec>,
}

impl CubeSpec {
    pub fn new(dims: &[&str], aggs: Vec<AggSpec>) -> Self {
        CubeSpec {
            dims: dims.iter().map(|s| s.to_string()).collect(),
            aggs,
        }
    }

    pub fn lattice(&self) -> Lattice {
        Lattice::new(self.dims.len())
    }

    /// Kept dimension names for a mask.
    pub fn kept(&self, mask: Mask) -> Vec<&str> {
        self.lattice()
            .kept_dims(mask)
            .into_iter()
            .map(|i| self.dims[i].as_str())
            .collect()
    }

    /// The full output schema: every dimension (type `Any`, as cells hold
    /// `ALL`) followed by the aggregate output columns typed against `r`.
    pub fn output_schema(&self, r: &Relation, registry: &Registry) -> Result<Schema> {
        let mut fields: Vec<Field> = Vec::with_capacity(self.dims.len() + self.aggs.len());
        for d in &self.dims {
            let i = r.schema().index_of(d)?;
            fields.push(Field::new(d.clone(), r.schema().field(i).dtype));
        }
        for spec in &self.aggs {
            let agg = registry.get(&spec.function)?;
            let input_type = match &spec.input {
                AggInput::Star => DataType::Int,
                AggInput::Column(c) => {
                    let i = r.schema().index_of(c)?;
                    r.schema().field(i).dtype
                }
            };
            fields.push(Field::new(spec.output_name(), agg.output_type(input_type)));
        }
        Ok(Schema::new(fields))
    }
}

/// Append a cuboid relation `(kept dims…, aggs…)` to `out`, reshaped to
/// `out`'s full `(dims…, aggs…)` schema with `ALL` inserted for rolled-up
/// dimensions. The cube drivers accumulate their answer through this, so no
/// cuboid is copied more than once.
pub fn pad_cuboid(cuboid: &Relation, spec: &CubeSpec, mask: Mask, out: &mut Relation) {
    let kept = spec.kept(mask);
    // Each output dimension's column of the cuboid, or `None` for `ALL`.
    let cols: Vec<Option<usize>> = spec
        .dims
        .iter()
        .map(|d| kept.iter().position(|k| k == d))
        .collect();
    for row in cuboid.iter() {
        let mut vals = Vec::with_capacity(out.schema().len());
        vals.extend(cols.iter().map(|c| match c {
            Some(i) => row[*i].clone(),
            None => Value::All,
        }));
        vals.extend(row.values()[kept.len()..].iter().cloned());
        out.push_unchecked(Row::new(vals));
    }
}

/// Single-pass aggregation over a relation **sorted by `key_cols`**: emit one
/// row per key run. This is the pipelined evaluator PIPESORT relies on ("a
/// more efficient algorithm is possible because the detail relation is
/// provided in sorted order" — Section 4.4).
pub fn sorted_group_agg(
    sorted: &Relation,
    key_cols: &[usize],
    specs: &[AggSpec],
    registry: &Registry,
) -> Result<Relation> {
    let mut bound: Vec<(mdj_agg::traits::AggRef, Option<usize>, Field)> = Vec::new();
    for spec in specs {
        let agg = registry.get(&spec.function)?;
        let (col, input_type) = match &spec.input {
            AggInput::Star => (None, DataType::Int),
            AggInput::Column(c) => {
                let i = sorted.schema().index_of(c)?;
                (Some(i), sorted.schema().field(i).dtype)
            }
        };
        bound.push((
            agg.clone(),
            col,
            Field::new(spec.output_name(), agg.output_type(input_type)),
        ));
    }
    let mut fields: Vec<Field> = key_cols
        .iter()
        .map(|&i| sorted.schema().field(i).clone())
        .collect();
    fields.extend(bound.iter().map(|(_, _, f)| f.clone()));
    let mut out = Relation::empty(Schema::new(fields));

    let mut current_key: Option<Vec<Value>> = None;
    let mut states: Vec<Box<dyn AggState>> = Vec::new();
    let flush = |key: &[Value], states: &[Box<dyn AggState>], out: &mut Relation| {
        let mut vals = key.to_vec();
        vals.extend(states.iter().map(|s| s.finalize()));
        out.push_unchecked(Row::new(vals));
    };
    for row in sorted.iter() {
        let key = row.key(key_cols);
        if current_key.as_deref() != Some(&key[..]) {
            if let Some(k) = current_key.take() {
                flush(&k, &states, &mut out);
            }
            states = bound.iter().map(|(agg, _, _)| agg.init()).collect();
            current_key = Some(key);
        }
        for (j, (_, col, _)) in bound.iter().enumerate() {
            let v = match col {
                Some(c) => &row[*c],
                None => &Value::Null,
            };
            states[j].update(v)?;
        }
    }
    if let Some(k) = current_key {
        flush(&k, &states, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(1.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(2.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("CA"), Value::Float(4.0)]),
            ],
        )
    }

    fn spec() -> CubeSpec {
        CubeSpec::new(
            &["prod", "state"],
            vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
        )
    }

    #[test]
    fn output_schema_types() {
        let s = spec().output_schema(&rel(), &Registry::standard()).unwrap();
        assert_eq!(s.names(), vec!["prod", "state", "sum_sale", "count_star"]);
        assert_eq!(s.field(0).dtype, DataType::Int);
        assert_eq!(s.field(2).dtype, DataType::Float);
        assert_eq!(s.field(3).dtype, DataType::Int);
    }

    #[test]
    fn kept_names_follow_mask_bits() {
        let sp = spec();
        assert_eq!(sp.kept(0b01), vec!["prod"]);
        assert_eq!(sp.kept(0b10), vec!["state"]);
        assert_eq!(sp.kept(0b11), vec!["prod", "state"]);
        assert!(sp.kept(0).is_empty());
    }

    #[test]
    fn pad_inserts_all() {
        let sp = spec();
        let reg = Registry::standard();
        let schema = sp.output_schema(&rel(), &reg).unwrap();
        // A (state)-only cuboid: schema (state, sum_sale, count_star).
        let cuboid = Relation::from_rows(
            Schema::from_pairs(&[
                ("state", DataType::Str),
                ("sum_sale", DataType::Float),
                ("count_star", DataType::Int),
            ]),
            vec![Row::from_values(vec![
                Value::str("NY"),
                Value::Float(3.0),
                Value::Int(2),
            ])],
        );
        let mut padded = Relation::empty(schema);
        pad_cuboid(&cuboid, &sp, 0b10, &mut padded);
        assert_eq!(padded.rows()[0][0], Value::All);
        assert_eq!(padded.rows()[0][1], Value::str("NY"));
        assert_eq!(padded.rows()[0][2], Value::Float(3.0));
    }

    #[test]
    fn sorted_group_agg_one_pass() {
        let mut r = rel();
        r.sort_by(&["prod", "state"]).unwrap();
        let out = sorted_group_agg(
            &r,
            &[0, 1],
            &[AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
            &Registry::standard(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let p1 = out.rows().iter().find(|x| x[0] == Value::Int(1)).unwrap();
        assert_eq!(p1[2], Value::Float(3.0));
        assert_eq!(p1[3], Value::Int(2));
    }

    #[test]
    fn sorted_group_agg_empty_keys_is_grand_total() {
        let r = rel();
        let out = sorted_group_agg(
            &r,
            &[],
            &[AggSpec::on_column("sum", "sale")],
            &Registry::standard(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Float(7.0));
    }

    #[test]
    fn sorted_group_agg_empty_input() {
        let r = Relation::empty(rel().schema().clone());
        let out =
            sorted_group_agg(&r, &[0], &[AggSpec::count_star()], &Registry::standard()).unwrap();
        assert!(out.is_empty());
    }
}
