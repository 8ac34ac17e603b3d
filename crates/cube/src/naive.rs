//! Baseline cube computations.
//!
//! Two shapes, both straight from the paper:
//!
//! * [`cube_via_wildcard_theta`] — one MD-join of the detail table against
//!   the *whole* cube base table, with the `ALL`-wildcard θ. Semantically the
//!   most direct reading of Example 2.1, but the OR-form θ defeats hash
//!   probing, so every detail tuple examines 2ⁿ-ish base rows.
//! * [`cube_per_cuboid`] — Example 4.2's first expansion: Theorem 4.1 splits
//!   the base table per cuboid, and each cuboid's θ is a plain conjunctive
//!   equality (hash-probe friendly). `2ⁿ` scans of the detail table.

use crate::common::{pad_cuboid, serial_md_join, CubeSpec};
use mdj_core::basevalues::{cube, cube_match_theta, cuboid_theta};
use mdj_core::{ExecContext, Result};
use mdj_storage::Relation;

/// One MD-join over the merged cube base table (wildcard θ, nested-loop
/// probing).
pub fn cube_via_wildcard_theta(
    r: &Relation,
    spec: &CubeSpec,
    ctx: &ExecContext,
) -> Result<Relation> {
    let dims: Vec<&str> = spec.dims.iter().map(String::as_str).collect();
    let b = cube(r, &dims)?;
    serial_md_join(&b, r, &spec.aggs, &cube_match_theta(&dims), ctx)
}

/// Theorem 4.1 expansion: one hash-probed MD-join per cuboid, results padded
/// with `ALL` and unioned. Each cuboid's base is its `select distinct`
/// ([`Relation::distinct_on`]), not the engine's group table.
pub fn cube_per_cuboid(r: &Relation, spec: &CubeSpec, ctx: &ExecContext) -> Result<Relation> {
    let lattice = spec.lattice();
    let schema = spec.output_schema(r, ctx.registry())?;
    let mut out = Relation::empty(schema);
    for mask in lattice.masks_fine_to_coarse() {
        let kept = spec.kept(mask);
        let b = r.distinct_on(&kept)?;
        let cuboid = serial_md_join(&b, r, &spec.aggs, &cuboid_theta(&kept), ctx)?;
        pad_cuboid(&cuboid, spec, mask, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_agg::AggSpec;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::Int(1), Value::Float(1.0)]),
                Row::from_values(vec![Value::Int(1), Value::Int(2), Value::Float(2.0)]),
                Row::from_values(vec![Value::Int(2), Value::Int(1), Value::Float(4.0)]),
                Row::from_values(vec![Value::Int(2), Value::Int(1), Value::Float(8.0)]),
            ],
        )
    }

    fn spec() -> CubeSpec {
        CubeSpec::new(
            &["prod", "month"],
            vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
        )
    }

    #[test]
    fn both_baselines_agree() {
        let r = rel();
        let ctx = ExecContext::new();
        let a = cube_via_wildcard_theta(&r, &spec(), &ctx).unwrap();
        let b = cube_per_cuboid(&r, &spec(), &ctx).unwrap();
        assert!(a.same_multiset(&b), "\n{a}\nvs\n{b}");
    }

    #[test]
    fn cube_cell_values() {
        let r = rel();
        let ctx = ExecContext::new();
        let out = cube_per_cuboid(&r, &spec(), &ctx).unwrap();
        // Cells: (1,1),(1,2),(2,1) + prods 2 + months 2 + apex 1 = 8.
        assert_eq!(out.len(), 8);
        let apex = out
            .rows()
            .iter()
            .find(|x| x[0].is_all() && x[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(15.0));
        assert_eq!(apex[3], Value::Int(4));
        let p2 = out
            .rows()
            .iter()
            .find(|x| x[0] == Value::Int(2) && x[1].is_all())
            .unwrap();
        assert_eq!(p2[2], Value::Float(12.0));
        let m1 = out
            .rows()
            .iter()
            .find(|x| x[0].is_all() && x[1] == Value::Int(1))
            .unwrap();
        assert_eq!(m1[2], Value::Float(13.0));
        assert_eq!(m1[3], Value::Int(3));
    }

    #[test]
    fn empty_detail_table() {
        let r = Relation::empty(rel().schema().clone());
        let ctx = ExecContext::new();
        let out = cube_per_cuboid(&r, &spec(), &ctx).unwrap();
        assert!(out.is_empty()); // no cells exist without data
    }

    #[test]
    fn single_dimension_cube() {
        let r = rel();
        let ctx = ExecContext::new();
        let sp = CubeSpec::new(&["prod"], vec![AggSpec::count_star()]);
        let out = cube_per_cuboid(&r, &sp, &ctx).unwrap();
        assert_eq!(out.len(), 3); // prods 1,2 + apex
    }
}
