//! Theorem 4.5 roll-up chains: every cuboid computed from its cheapest
//! already-computed parent.
//!
//! `MD(π_{X,ALL}(S), R, l, θ) = MD(π_{X,ALL}(S), MD(π_{X,Y}(S), R, l, θ), l', θ)`
//!
//! — the coarser cuboid over dimensions `X` aggregates the *finer cuboid*
//! over `X ∪ Y` instead of re-scanning the detail table, with `l'` the
//! roll-up-adapted aggregate list (count→sum). Only the finest cuboid reads
//! `R`; everything else reads a (much smaller) intermediate, and every
//! cuboid is one scan of its input ([`crate::common::cuboid`]). The parent
//! choice is greedy-by-size, which is how \[AAD+96\]-style planners pick
//! roll-up edges when sizes are known; among parents of equal size the one
//! with the lowest mask wins, so a float aggregate's bits never depend on
//! which of two equal candidates a run happened to pick.

use crate::common::{cuboid, pad_cuboid, serial_md_join, CubeSpec};
use crate::lattice::Mask;
use mdj_agg::rollup::rollup_specs;
use mdj_core::basevalues::{cuboid_theta, group_by};
use mdj_core::{CoreError, ExecContext, Result};
use mdj_storage::Relation;

/// Compute the full cube via roll-up chains. Requires every aggregate in
/// `spec.aggs` to be distributive (Theorem 4.5's precondition); errors with
/// [`mdj_agg::AggError::NotRollupable`] otherwise.
///
/// The finest cuboid is one scan of `r`; each coarser one is one scan of its
/// parent: the computed strict superset with the fewest rows, ties broken by
/// the lowest mask.
pub fn cube_rollup_chain(r: &Relation, spec: &CubeSpec, ctx: &ExecContext) -> Result<Relation> {
    let lattice = spec.lattice();
    let schema = spec.output_schema(r, ctx.registry())?;
    let rolled = rollup_specs(&spec.aggs, ctx.registry())?;

    // Unpadded cuboid relations, in the order they were computed.
    let mut computed: Vec<(Mask, Relation)> = Vec::new();
    let mut out = Relation::empty(schema);

    for mask in lattice.masks_fine_to_coarse() {
        let kept = spec.kept(mask);
        let rel = if mask == lattice.full() {
            // Finest cuboid: from the detail table with the original l.
            cuboid(r, &kept, &spec.aggs, ctx)?
        } else {
            // Coarser cuboid: from the smallest computed strict superset.
            let (_, parent) = computed
                .iter()
                .filter(|(p, _)| lattice.rolls_up_from(mask, *p))
                .min_by_key(|(p, rel)| (rel.len(), *p))
                .ok_or_else(|| CoreError::BadConfig("no computed parent".into()))?;
            cuboid(parent, &kept, &rolled, ctx)?
        };
        pad_cuboid(&rel, spec, mask, &mut out);
        computed.push((mask, rel));
    }
    Ok(out)
}

/// Theorem 4.5 as a standalone equivalence, usable by property tests: roll
/// one specific coarser cuboid up from a finer one and compare with direct
/// computation.
pub fn rollup_one(
    r: &Relation,
    spec: &CubeSpec,
    coarse: Mask,
    fine: Mask,
    ctx: &ExecContext,
) -> Result<(Relation, Relation)> {
    let lattice = spec.lattice();
    assert!(
        lattice.rolls_up_from(coarse, fine),
        "coarse {coarse:b} must be a strict subset of fine {fine:b}"
    );
    let fine_kept = spec.kept(fine);
    let coarse_kept = spec.kept(coarse);
    // Finer cuboid from detail.
    let fine_b = group_by(r, &fine_kept)?;
    let fine_rel = serial_md_join(&fine_b, r, &spec.aggs, &cuboid_theta(&fine_kept), ctx)?;
    // Roll up.
    let rolled_specs = rollup_specs(&spec.aggs, ctx.registry())?;
    let coarse_b = group_by(&fine_rel, &coarse_kept)?;
    let via_rollup = serial_md_join(
        &coarse_b,
        &fine_rel,
        &rolled_specs,
        &cuboid_theta(&coarse_kept),
        ctx,
    )?;
    // Direct.
    let direct_b = group_by(r, &coarse_kept)?;
    let direct = serial_md_join(&direct_b, r, &spec.aggs, &cuboid_theta(&coarse_kept), ctx)?;
    Ok((via_rollup, direct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cube_per_cuboid;
    use mdj_agg::AggSpec;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("prod", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mk = |p: i64, m: i64, st: &str, s: f64| {
            Row::from_values(vec![
                Value::Int(p),
                Value::Int(m),
                Value::str(st),
                Value::Float(s),
            ])
        };
        Relation::from_rows(
            schema,
            vec![
                mk(1, 1, "NY", 1.0),
                mk(1, 2, "NY", 2.0),
                mk(2, 1, "CA", 4.0),
                mk(2, 1, "NY", 8.0),
                mk(2, 2, "CA", 16.0),
                mk(1, 1, "NY", 32.0),
            ],
        )
    }

    fn spec() -> CubeSpec {
        CubeSpec::new(
            &["prod", "month", "state"],
            vec![
                AggSpec::on_column("sum", "sale"),
                AggSpec::count_star(),
                AggSpec::on_column("min", "sale"),
                AggSpec::on_column("max", "sale"),
            ],
        )
    }

    #[test]
    fn rollup_chain_matches_per_cuboid_baseline() {
        let r = rel();
        let ctx = ExecContext::new();
        let a = cube_rollup_chain(&r, &spec(), &ctx).unwrap();
        let b = cube_per_cuboid(&r, &spec(), &ctx).unwrap();
        assert!(a.same_multiset(&b), "\n{a}\nvs\n{b}");
    }

    #[test]
    fn theorem_4_5_single_rollup_equivalence() {
        let r = rel();
        let ctx = ExecContext::new();
        let sp = spec();
        // (prod) rolled up from (prod, month).
        let (via, direct) = rollup_one(&r, &sp, 0b001, 0b011, &ctx).unwrap();
        assert!(via.same_multiset(&direct));
        // Apex rolled up from (state).
        let (via, direct) = rollup_one(&r, &sp, 0b000, 0b100, &ctx).unwrap();
        assert!(via.same_multiset(&direct));
    }

    #[test]
    fn count_becomes_sum_through_the_chain() {
        // The classic pitfall Theorem 4.5's l' fixes: re-counting the finer
        // cuboid would report cuboid sizes, not tuple counts.
        let r = rel();
        let ctx = ExecContext::new();
        let out = cube_rollup_chain(&r, &spec(), &ctx).unwrap();
        let apex = out
            .rows()
            .iter()
            .find(|x| x[0].is_all() && x[1].is_all() && x[2].is_all())
            .unwrap();
        assert_eq!(apex[4], Value::Int(6)); // count over 6 detail tuples
        assert_eq!(apex[3], Value::Float(63.0));
        assert_eq!(apex[5], Value::Float(1.0)); // min
        assert_eq!(apex[6], Value::Float(32.0)); // max
    }

    #[test]
    fn non_distributive_aggregates_rejected() {
        let r = rel();
        let ctx = ExecContext::new();
        let sp = CubeSpec::new(&["prod", "month"], vec![AggSpec::on_column("avg", "sale")]);
        let err = cube_rollup_chain(&r, &sp, &ctx);
        assert!(err.is_err());
    }

    #[test]
    fn detail_scanned_once_only() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let r = rel();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        cube_rollup_chain(&r, &spec(), &ctx).unwrap();
        // The finest cuboid's MD-join is the only scan over the 6-row detail
        // table; all other scans are over intermediates. With 3 dims there
        // are 8 MD-joins total, but total tuples scanned is far below
        // 8 × |R| only because intermediates shrink — verify the finest scan
        // count: exactly one scan of 6 tuples plus intermediate scans.
        let snapshots = stats.snapshot();
        assert_eq!(snapshots.scans, 8);
        // First scan reads R (6 tuples); the rest read intermediates whose
        // sizes are the cuboid row counts.
        assert!(snapshots.tuples_scanned < 8 * 6);
    }

    #[test]
    fn equal_sized_parents_break_the_tie_on_the_lowest_mask() {
        use crate::lattice::Lattice;
        // Two 10-value dims: the apex has two parents of 10 rows each, (a)
        // and (b), whose float sums round differently.
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let rows = (0..100i64)
            .map(|i| {
                let sale = 10f64.powi((i * 37 % 9 - 4) as i32) * (1.0 + i as f64 / 7.0);
                Row::from_values(vec![
                    Value::Int(i % 10),
                    Value::Int(i / 10),
                    Value::Float(sale),
                ])
            })
            .collect();
        let r = Relation::from_rows(schema, rows);
        let sp = CubeSpec::new(&["a", "b"], vec![AggSpec::on_column("sum", "sale")]);
        let ctx = ExecContext::new();
        let rolled = rollup_specs(&sp.aggs, ctx.registry()).unwrap();
        let two_pass = |rel: &Relation, mask: Mask, l: &[AggSpec]| {
            let kept = sp.kept(mask);
            let b = group_by(rel, &kept).unwrap();
            serial_md_join(&b, rel, l, &cuboid_theta(&kept), &ctx).unwrap()
        };
        let full = Lattice::new(2).full();
        let finest = two_pass(&r, full, &sp.aggs);
        let apex_via = |parent: Mask| {
            let parent = two_pass(&finest, parent, &rolled);
            assert_eq!(parent.len(), 10);
            two_pass(&parent, 0, &rolled).rows()[0][0].clone()
        };
        let (via_a, via_b) = (apex_via(0b01), apex_via(0b10));
        assert_ne!(via_a, via_b, "the tie must decide the bits");
        for _ in 0..32 {
            let out = cube_rollup_chain(&r, &sp, &ctx).unwrap();
            let apex = out.iter().find(|row| row[0].is_all() && row[1].is_all());
            assert_eq!(apex.unwrap()[2], via_a);
        }
    }
}
