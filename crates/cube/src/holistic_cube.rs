//! Cubes over holistic aggregates (footnote 2 of the paper).
//!
//! Theorem 4.5's roll-up requires distributive aggregates, so a cube of
//! `median(sale)` or `mode(prod)` cannot reuse finer cuboids — every cuboid
//! must aggregate the detail table. Two strategies are provided:
//!
//! * [`cube_holistic`] — exact: the per-cuboid expansion (Theorem 4.1 +
//!   hash probing), one pass over `R` per cuboid, holistic state per cell.
//! * [`approximate_spec`] — the paper's suggested escape hatch: "some
//!   holistic aggregates can be made algebraic by using approximation, e.g.
//!   approximate medians \[MRL98\]". Swapping `median` for `approx_median`
//!   bounds every cell's state; the result is then roll-up-*evaluable* per
//!   cuboid with bounded memory (though still not mergeable across cuboids).

use crate::common::{pad_cuboid, serial_md_join, CubeSpec};
use mdj_agg::{AggClass, AggSpec, Registry};
use mdj_core::basevalues::{cuboid_theta, group_by};
use mdj_core::{ExecContext, Result};
use mdj_storage::Relation;

/// True if any aggregate in the spec is holistic (unbounded state).
pub fn has_holistic(spec: &CubeSpec, registry: &Registry) -> bool {
    spec.aggs.iter().any(|s| {
        registry
            .get(&s.function)
            .map(|a| a.class() == AggClass::Holistic)
            .unwrap_or(false)
    })
}

/// Exact holistic cube: per-cuboid MD-joins straight from the detail table.
/// Works for *any* aggregate mix (the generic fallback the optimizer uses
/// when Theorem 4.5 does not apply).
pub fn cube_holistic(r: &Relation, spec: &CubeSpec, ctx: &ExecContext) -> Result<Relation> {
    let lattice = spec.lattice();
    let schema = spec.output_schema(r, ctx.registry())?;
    let mut out = Relation::empty(schema);
    for mask in lattice.masks_fine_to_coarse() {
        let kept = spec.kept(mask);
        let b = group_by(r, &kept)?;
        let cuboid = serial_md_join(&b, r, &spec.aggs, &cuboid_theta(&kept), ctx)?;
        pad_cuboid(&cuboid, spec, mask, &mut out);
    }
    Ok(out)
}

/// Rewrite a spec's exact medians into bounded-state approximate medians
/// (the \[MRL98\] substitution the paper cites). Other aggregates pass through.
pub fn approximate_spec(spec: &CubeSpec) -> CubeSpec {
    let aggs = spec
        .aggs
        .iter()
        .map(|s| {
            if s.function == "median" {
                let mut out = AggSpec::new("approx_median", s.input.clone());
                out.alias = Some(s.output_name());
                out
            } else {
                s.clone()
            }
        })
        .collect();
    CubeSpec {
        dims: spec.dims.clone(),
        aggs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Int),
        ]);
        let mk = |p: i64, st: &str, s: i64| {
            Row::from_values(vec![Value::Int(p), Value::str(st), Value::Int(s)])
        };
        Relation::from_rows(
            schema,
            vec![
                mk(1, "NY", 10),
                mk(1, "NY", 20),
                mk(1, "CA", 30),
                mk(2, "NY", 40),
                mk(2, "CA", 50),
                mk(2, "CA", 60),
                mk(2, "CA", 70),
            ],
        )
    }

    fn spec() -> CubeSpec {
        CubeSpec::new(
            &["prod", "state"],
            vec![
                AggSpec::on_column("median", "sale"),
                AggSpec::on_column("mode", "sale"),
                AggSpec::on_column("count_distinct", "sale"),
            ],
        )
    }

    #[test]
    fn holistic_cube_cells_are_exact() {
        let ctx = ExecContext::new();
        let out = cube_holistic(&rel(), &spec(), &ctx).unwrap();
        // Apex: median of {10..70} = 40; mode ties → smallest = 10;
        // 7 distinct values.
        let apex = out.iter().find(|r| r[0].is_all() && r[1].is_all()).unwrap();
        assert_eq!(apex[2], Value::Float(40.0));
        assert_eq!(apex[3], Value::Int(10));
        assert_eq!(apex[4], Value::Int(7));
        // Cell (2, CA): {50, 60, 70} → median 60.
        let cell = out
            .iter()
            .find(|r| r[0] == Value::Int(2) && r[1] == Value::str("CA"))
            .unwrap();
        assert_eq!(cell[2], Value::Float(60.0));
        assert_eq!(cell[4], Value::Int(3));
    }

    #[test]
    fn rollup_chain_rejects_holistic_but_fallback_succeeds() {
        let ctx = ExecContext::new();
        assert!(has_holistic(&spec(), ctx.registry()));
        assert!(crate::rollup_chain::cube_rollup_chain(&rel(), &spec(), &ctx).is_err());
        assert!(cube_holistic(&rel(), &spec(), &ctx).is_ok());
    }

    #[test]
    fn approximate_substitution_bounds_state_and_stays_close() {
        let ctx = ExecContext::new();
        let exact = cube_holistic(&rel(), &spec(), &ctx).unwrap();
        let approx = cube_holistic(&rel(), &approximate_spec(&spec()), &ctx).unwrap();
        assert!(!has_holistic(
            &CubeSpec::new(
                &["prod", "state"],
                vec![AggSpec::on_column("approx_median", "sale")]
            ),
            ctx.registry()
        ));
        // Same schema (aliases preserved), same cells; medians agree exactly
        // at this size (the reservoir never fills).
        assert_eq!(exact.schema().names(), approx.schema().names());
        assert!(exact.same_multiset(&approx));
    }

    #[test]
    fn holistic_cube_matches_distributive_path_on_shared_aggregates() {
        // For a purely distributive spec, the holistic fallback and the
        // roll-up chain must agree.
        let ctx = ExecContext::new();
        let dspec = CubeSpec::new(
            &["prod", "state"],
            vec![AggSpec::count_star(), AggSpec::on_column("sum", "sale")],
        );
        let a = cube_holistic(&rel(), &dspec, &ctx).unwrap();
        let b = crate::rollup_chain::cube_rollup_chain(&rel(), &dspec, &ctx).unwrap();
        assert!(a.same_multiset(&b));
    }
}
