//! Aggregation over an arbitrary *collection* of cuboids — the engine behind
//! `ANALYZE BY rollup/unpivot/grouping sets` and the Theorem 4.1 expansion of
//! `ANALYZE BY cube`.
//!
//! The paper's Example 4.2 expands a cube MD-join into a union of per-cuboid
//! MD-joins; the same expansion evaluates any *subset* of the lattice (the
//! "materializing an optimal set of subcubes" use case of the conclusions).
//! Each listed cuboid gets a hash-probed MD-join with a plain conjunctive θ,
//! so the wildcard `ALL`-θ (and its nested-loop probing) never runs, and
//! each is one scan of the detail table ([`crate::common::cuboid`]).

use crate::common::{cuboid, pad_cuboid, CubeSpec};
use crate::lattice::Mask;
use mdj_core::basevalues::Sets;
use mdj_core::{CoreError, ExecContext, Result};
use mdj_storage::Relation;

/// Which cuboids a grouping shape materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetShape {
    /// All 2ⁿ cuboids.
    Cube,
    /// The n+1 prefix cuboids (SQL99 ROLLUP).
    Rollup,
    /// The n singleton cuboids (\[GFC98\] unpivot marginals).
    Unpivot,
    /// An explicit list of kept-dimension masks (SQL99 GROUPING SETS).
    Explicit(Vec<Mask>),
}

/// The masks a shape denotes over `n` dimensions. Masks use bit `i` for
/// `dims[i]`, matching [`crate::lattice::Lattice`]; the rule is the one every
/// base-values table uses ([`Sets::masks`]).
pub fn shape_masks(n: usize, shape: &SetShape) -> Vec<Mask> {
    let sets = match shape {
        SetShape::Cube => Sets::Cube,
        SetShape::Rollup => Sets::Rollup,
        SetShape::Unpivot => Sets::Unpivot,
        SetShape::Explicit(masks) => return masks.clone(),
    };
    sets.masks(n).unwrap_or_default()
}

/// Evaluate the aggregates over every listed cuboid: one hash-probed MD-join
/// per cuboid, each one scan of `r`, outputs padded with `ALL` and unioned.
/// Duplicate masks are evaluated once. Works for *any* aggregate mix
/// (holistic included) — this is the generic Theorem 4.1 expansion, not the
/// Theorem 4.5 roll-up.
pub fn sets_agg(
    r: &Relation,
    spec: &CubeSpec,
    masks: &[Mask],
    ctx: &ExecContext,
) -> Result<Relation> {
    let n = spec.dims.len();
    let bound = (1u64 << n) as Mask;
    let schema = spec.output_schema(r, ctx.registry())?;
    let mut out = Relation::empty(schema);
    let mut done: Vec<Mask> = Vec::new();
    for &mask in masks {
        if mask >= bound {
            return Err(CoreError::BadConfig(format!(
                "cuboid mask {mask:#b} out of range for {n} dimensions"
            )));
        }
        if done.contains(&mask) {
            continue;
        }
        done.push(mask);
        let rel = cuboid(r, &spec.kept(mask), &spec.aggs, ctx)?;
        pad_cuboid(&rel, spec, mask, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cube_per_cuboid;
    use mdj_agg::AggSpec;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("v", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            (0..24)
                .map(|i| Row::from_values([i % 3, i % 4, i]))
                .collect(),
        )
    }

    fn spec() -> CubeSpec {
        CubeSpec::new(
            &["a", "b"],
            vec![AggSpec::on_column("sum", "v"), AggSpec::count_star()],
        )
    }

    #[test]
    fn shape_masks_enumerate_correctly() {
        assert_eq!(
            shape_masks(2, &SetShape::Cube),
            vec![0b11, 0b10, 0b01, 0b00]
        );
        assert_eq!(
            shape_masks(3, &SetShape::Rollup),
            vec![0b111, 0b011, 0b001, 0b000]
        );
        assert_eq!(
            shape_masks(3, &SetShape::Unpivot),
            vec![0b001, 0b010, 0b100]
        );
        assert_eq!(
            shape_masks(3, &SetShape::Explicit(vec![0b101])),
            vec![0b101]
        );
    }

    #[test]
    fn cube_shape_equals_per_cuboid_driver() {
        let r = rel();
        let ctx = ExecContext::new();
        let masks = shape_masks(2, &SetShape::Cube);
        let a = sets_agg(&r, &spec(), &masks, &ctx).unwrap();
        let b = cube_per_cuboid(&r, &spec(), &ctx).unwrap();
        assert!(a.same_multiset(&b));
    }

    #[test]
    fn rollup_is_the_prefix_subset_of_the_cube() {
        let r = rel();
        let ctx = ExecContext::new();
        let cube = sets_agg(&r, &spec(), &shape_masks(2, &SetShape::Cube), &ctx).unwrap();
        let rollup = sets_agg(&r, &spec(), &shape_masks(2, &SetShape::Rollup), &ctx).unwrap();
        assert!(rollup.len() < cube.len());
        let cube_rows: std::collections::HashSet<_> = cube.iter().cloned().collect();
        for row in rollup.iter() {
            assert!(cube_rows.contains(row));
        }
        // No (ALL, b) rows.
        assert!(!rollup.iter().any(|r| r[0].is_all() && !r[1].is_all()));
    }

    #[test]
    fn explicit_sets_and_dedup() {
        let r = rel();
        let ctx = ExecContext::new();
        let masks = vec![0b01, 0b01, 0b10];
        let out = sets_agg(&r, &spec(), &masks, &ctx).unwrap();
        // a-marginals (3) + b-marginals (4), the duplicate 0b01 ignored.
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn holistic_aggregates_supported() {
        let r = rel();
        let ctx = ExecContext::new();
        let sp = CubeSpec::new(&["a"], vec![AggSpec::on_column("median", "v")]);
        let out = sets_agg(&r, &sp, &shape_masks(1, &SetShape::Cube), &ctx).unwrap();
        let apex = out.iter().find(|row| row[0].is_all()).unwrap();
        assert_eq!(apex[1], Value::Float(11.5)); // median of 0..=23
    }

    #[test]
    fn out_of_range_mask_rejected() {
        let r = rel();
        let ctx = ExecContext::new();
        assert!(sets_agg(&r, &spec(), &[0b100], &ctx).is_err());
    }
}
