//! # mdj-app
//!
//! Facade crate: re-exports the whole MD-join stack under one name and hosts
//! the repository-level `examples/` and `tests/` targets.
//!
//! Layering (bottom to top):
//!
//! * [`storage`] — relations, values (incl. `ALL`), schemas, indexes.
//! * [`expr`] — θ-condition AST, evaluation, and analysis.
//! * [`agg`] — aggregate functions (distributive/algebraic/holistic, UDAFs).
//! * [`core`] — the MD-join operator: Algorithm 3.1, generalized MD-join,
//!   base-values builders, partitioned & parallel evaluation.
//! * [`naive`] — classical relational operators (baseline + test oracle).
//! * [`algebra`] — plans, the paper's transformation rules, optimizer.
//! * [`cube`] — cube algorithms (naive, roll-up chain, PIPESORT, partitioned).
//! * [`sql`] — the `ANALYZE BY` / grouping-variable SQL frontend.
//! * [`datagen`] — seeded Sales/Payments generators.

#![forbid(unsafe_code)]

pub use mdj_agg as agg;
pub use mdj_algebra as algebra;
pub use mdj_core as core;
pub use mdj_cube as cube;
pub use mdj_datagen as datagen;
pub use mdj_expr as expr;
pub use mdj_naive as naive;
pub use mdj_sql as sql;
pub use mdj_storage as storage;

/// A ready-to-use engine over freshly generated Sales + Payments tables —
/// the common setup of the examples and integration tests.
pub fn demo_engine(rows: usize, seed: u64) -> mdj_sql::SqlEngine {
    let sales = mdj_datagen::sales(
        &mdj_datagen::SalesConfig::default()
            .with_rows(rows)
            .with_seed(seed),
    );
    let payments = mdj_datagen::payments(
        &mdj_datagen::PaymentsConfig::default()
            .with_rows(rows)
            .with_seed(seed ^ 0xBEEF),
    );
    let mut catalog = mdj_storage::Catalog::new();
    catalog.register("Sales", sales);
    catalog.register("Payments", payments);
    mdj_sql::SqlEngine::new(catalog)
}

#[cfg(test)]
mod tests {
    #[test]
    fn demo_engine_is_queryable() {
        let e = super::demo_engine(500, 1);
        let out = e.query("select count(*) from Sales").unwrap();
        assert_eq!(out.rows()[0][0], mdj_storage::Value::Int(500));
        let out = e.query("select count(*) from Payments").unwrap();
        assert_eq!(out.rows()[0][0], mdj_storage::Value::Int(500));
    }
}
