//! # mdj-datagen
//!
//! Seeded synthetic workload generators for the MD-join reproduction.
//!
//! The paper's running example tables are `Sales(cust, prod, day, month,
//! year, state, sale)` and `Payments(cust, day, month, year, amount)`
//! (Section 1 and Example 3.3). The authors evaluated on proprietary data; we
//! substitute seeded generators with controllable cardinalities and skew so
//! the benchmark harness can sweep the parameters that each optimization's
//! shape depends on (|R|, |B|, selectivity, dimension cardinalities).

#![forbid(unsafe_code)]

pub mod config;
pub mod payments;
pub mod sales;
pub mod zipf;

pub use config::{PaymentsConfig, SalesConfig};
pub use payments::payments;
pub use sales::{sales, STATES};
pub use zipf::Zipf;
