//! The paper's algebraic transformations as rewrite rules.

pub mod coalesce;
pub mod commute;
pub mod partition;
pub mod pushdown;
pub mod split;

pub use coalesce::coalesce_chains;
pub use commute::commute_md_joins;
pub use partition::{partition_by_ranges, partition_inline};
pub use pushdown::{fold_detail_selections, push_base_ranges_to_detail};
pub use split::split_into_join;
