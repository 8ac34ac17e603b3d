//! Seeded fixtures for the `repro` harness.
//!
//! Every experiment Eₙ from DESIGN.md is one table-printing function in the
//! `repro` binary; they all build their data through these functions, so the
//! data is identical across runs.

#![forbid(unsafe_code)]

use mdj_agg::AggSpec;
use mdj_datagen::{payments, sales, PaymentsConfig, SalesConfig};
use mdj_storage::Relation;

/// Standard Sales table for benches: seeded, mild product skew.
pub fn bench_sales(rows: usize, customers: usize) -> Relation {
    sales(
        &SalesConfig::default()
            .with_rows(rows)
            .with_customers(customers)
            .with_products(20)
            .with_states(10)
            .with_years(1994, 1999)
            .with_product_skew(0.5)
            .with_seed(20010402), // ICDE 2001 ;-)
    )
}

/// Standard Payments table aligned with [`bench_sales`].
pub fn bench_payments(rows: usize, customers: usize) -> Relation {
    payments(
        &PaymentsConfig::default()
            .with_rows(rows)
            .with_customers(customers)
            .with_seed(20010403),
    )
}

/// The tri-state grouping-variable blocks of Example 2.2.
pub fn tristate_blocks() -> Vec<mdj_core::generalized::Block> {
    use mdj_expr::builder::*;
    ["NY", "NJ", "CT"]
        .iter()
        .map(|st| {
            mdj_core::generalized::Block::new(
                and(
                    eq(col_r("cust"), col_b("cust")),
                    eq(col_r("state"), lit(*st)),
                ),
                vec![AggSpec::on_column("avg", "sale")
                    .with_alias(format!("avg_{}", st.to_lowercase()))],
            )
        })
        .collect()
}

/// Sales with Zipf-skewed customer ids, clustered (sorted) by customer — the
/// adversarial layout for static chunk scheduling: a hot customer's rows sit
/// in one contiguous run, so one-chunk-per-thread plans hand a single worker
/// the whole hot slice when `skew ≥ 1`.
pub fn bench_sales_zipf(rows: usize, customers: usize, products: usize, skew: f64) -> Relation {
    use mdj_datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(20010404);
    let cust_dist = Zipf::new(customers, skew);
    let base = sales(
        &SalesConfig::default()
            .with_rows(rows)
            .with_customers(customers)
            .with_products(products)
            .with_states(10)
            .with_years(1994, 1999)
            .with_seed(20010402),
    );
    let schema = base.schema().clone();
    let cust_col = schema.index_of("cust").expect("sales schema has cust");
    let rows: Vec<mdj_storage::Row> = base
        .into_rows()
        .into_iter()
        .map(|row| {
            let mut vals = row.into_values();
            vals[cust_col] = mdj_storage::Value::Int(cust_dist.sample(&mut rng) as i64);
            mdj_storage::Row::new(vals)
        })
        .collect();
    let mut rel = Relation::from_rows(schema, rows);
    rel.sort_by(&["cust"]).expect("cust column exists");
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(bench_sales(100, 10), bench_sales(100, 10));
        assert_eq!(bench_payments(100, 10), bench_payments(100, 10));
        assert_eq!(tristate_blocks().len(), 3);
    }
}
