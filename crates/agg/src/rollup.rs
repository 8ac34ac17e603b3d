//! Theorem 4.5's aggregate adaptation `l → l'`.
//!
//! When a coarser cuboid is computed from a finer cuboid instead of from the
//! detail table, each distributive aggregate `f(c)` in `l` is replaced by an
//! aggregate over the finer cuboid's *output column*: "a count in l becomes a
//! sum in l'", a sum stays a sum, min stays min, max stays max. Aggregates
//! without a roll-up form (avg, holistic) make the transformation
//! inapplicable, which is exactly the theorem's "list of distributive
//! aggregates" precondition.

use crate::error::{AggError, Result};
use crate::registry::Registry;
use crate::spec::AggSpec;

/// Whether every aggregate in `l` has a roll-up form (Theorem 4.5
/// precondition).
pub fn is_rollupable(specs: &[AggSpec], registry: &Registry) -> bool {
    specs.iter().all(|s| {
        matches!(
            registry.get(&s.function).map(|a| a.rollup_name()),
            Ok(Some(_))
        )
    })
}

/// Compute `l'`: for each spec `f(c) [as out]`, produce
/// `rollup_f(out) as out`, reading the finer cuboid's output column and
/// writing the same output column name, so the coarser cuboid's schema is
/// identical to a direct computation.
pub fn rollup_specs(specs: &[AggSpec], registry: &Registry) -> Result<Vec<AggSpec>> {
    specs
        .iter()
        .map(|s| {
            let agg = registry.get(&s.function)?;
            let rollup = agg
                .rollup_name()
                .ok_or_else(|| AggError::NotRollupable(s.function.clone()))?;
            let out = s.output_name();
            Ok(AggSpec::on_column(rollup, out.clone()).with_alias(out))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AggInput;

    #[test]
    fn count_becomes_sum() {
        let reg = Registry::standard();
        let l = vec![AggSpec::count_star(), AggSpec::on_column("sum", "sale")];
        let l2 = rollup_specs(&l, &reg).unwrap();
        assert_eq!(l2[0].function, "sum");
        assert_eq!(l2[0].input, AggInput::Column("count_star".into()));
        assert_eq!(l2[0].output_name(), "count_star");
        assert_eq!(l2[1].function, "sum");
        assert_eq!(l2[1].input, AggInput::Column("sum_sale".into()));
        // The rolled-up list reads the columns the original list writes.
        assert_eq!(l.len(), l2.len());
        for (o, r) in l.iter().zip(&l2) {
            assert_eq!(r.input, AggInput::Column(o.output_name()));
            assert_eq!(r.output_name(), o.output_name());
        }
    }

    #[test]
    fn min_max_roll_up_as_themselves() {
        let reg = Registry::standard();
        let l = vec![
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ];
        let l2 = rollup_specs(&l, &reg).unwrap();
        assert_eq!(l2[0].function, "min");
        assert_eq!(l2[1].function, "max");
    }

    #[test]
    fn avg_and_holistic_are_rejected() {
        let reg = Registry::standard();
        for func in ["avg", "median", "mode", "count_distinct"] {
            let l = vec![AggSpec::on_column(func, "sale")];
            assert!(!is_rollupable(&l, &reg), "{func}");
            assert!(matches!(
                rollup_specs(&l, &reg),
                Err(AggError::NotRollupable(_))
            ));
        }
    }

    #[test]
    fn aliased_specs_keep_their_alias_through_rollup() {
        let reg = Registry::standard();
        let l = vec![AggSpec::on_column("sum", "sale").with_alias("total")];
        let l2 = rollup_specs(&l, &reg).unwrap();
        assert_eq!(l2[0].input, AggInput::Column("total".into()));
        assert_eq!(l2[0].output_name(), "total");
    }

    #[test]
    fn double_rollup_is_stable() {
        // Rolling up twice (three-level cuboid chain) keeps reading/writing
        // the same column names.
        let reg = Registry::standard();
        let l = vec![AggSpec::count_star()];
        let l2 = rollup_specs(&l, &reg).unwrap();
        let l3 = rollup_specs(&l2, &reg).unwrap();
        assert_eq!(l2, l3);
    }
}
