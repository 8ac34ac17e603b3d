//! # mdj-core
//!
//! The MD-join operator (Chatziantoniou & Johnson, ICDE 2001).
//!
//! `MD(B, R, l, θ)` (Definition 3.1) aggregates a detail relation `R` onto a
//! base-values relation `B`: every tuple `b ∈ B` yields exactly one output
//! tuple carrying `b`'s attributes plus, for each aggregate `fᵢ(cᵢ)` in `l`,
//! the aggregate of `cᵢ` over `RNG(b, R, θ) = { r ∈ R | θ(b, r) }`.
//!
//! ## Quick start — the `MdJoin` builder
//!
//! Every evaluation mode is reachable through one entrypoint,
//! [`MdJoin`](builder::MdJoin):
//!
//! ```
//! use mdj_core::prelude::*;
//! use mdj_expr::builder::*;
//! use mdj_storage::{Relation, Row, Schema, DataType, Value};
//!
//! let sales = Relation::from_rows(
//!     Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]),
//!     vec![Row::new(vec![Value::Int(1), Value::Float(10.0)]),
//!          Row::new(vec![Value::Int(1), Value::Float(30.0)])],
//! );
//! let b = sales.distinct_on(&["cust"]).unwrap();
//! let out = MdJoin::new(&b, &sales)
//!     .theta(eq(col_b("cust"), col_r("cust")))   // θ: which detail rows feed each base row
//!     .agg("avg(sale)").unwrap()                  // l: the aggregate list
//!     .strategy(ExecStrategy::Auto)               // serial / partitioned / morsel-parallel
//!     .run(&ExecContext::new())
//!     .unwrap();
//! assert_eq!(out.rows()[0][1], Value::Float(20.0));
//! ```
//!
//! [`ExecStrategy`] names a (driver, evaluator) pair of the executor core:
//! [`ExecStrategy::Serial`] is Algorithm 3.1; [`ExecStrategy::Partitioned`]
//! the Theorem 4.1 memory-bounded multi-scan plan;
//! [`ExecStrategy::MorselBase`] / [`ExecStrategy::MorselDetail`] the two
//! parallel plans ([`ExecStrategy::Morsel`] picks the side);
//! [`ExecStrategy::Vectorized`] the batch evaluator. Multi-θ generalized
//! MD-joins (Section 4.3) are expressed by adding
//! [`block`](builder::MdJoin::block)s, and a disk-resident detail table is
//! read through [`MdJoin::paged`](builder::MdJoin::paged); both compose with
//! every strategy.
//!
//! The deprecated free functions from the first release (`md_join`,
//! `md_join_partitioned`, …) have been removed; see the migration table in
//! the repository README. [`prelude`] is the single documented entry point.
//!
//! ## Modules
//!
//! * `executor` (private) — the one scan/probe/update loop: detail source ×
//!   driver × evaluator, with the ordered-apply protocol that makes the
//!   parallel plans bit-identical to the serial one.
//! * [`builder`] — the [`MdJoin`] entrypoint and the strategy table.
//! * [`mdjoin`] — aggregate binding and the Definition 3.1 output schema
//!   (output cardinality equals `|B|`: outer-join semantics).
//! * [`generalized`] — the (θ, l) [`Block`] of Section 4.3's
//!   `MD(B, R, (l₁..l_k), (θ₁..θ_k))`.
//! * [`probe`] — Section 4.5 index selection: θ is analyzed for
//!   `B.col = f(R-row)` bindings and a hash index on `B` replaces the inner
//!   nested loop with a `Rel(t)` lookup.
//! * [`vectorized`] — the batch evaluator's machinery: columnar chunks with
//!   selection-vector prefilters, batched key probing, and typed aggregate
//!   kernels, row-identical to the scalar evaluator.
//! * [`paged`] — the disk-resident detail source ([`PagedScan`]) and
//!   Theorem 4.2 page pruning.
//! * [`basevalues`] — builders for every base-table shape in Section 2:
//!   group-by distinct, cube-by with `ALL`, roll-up, grouping sets, unpivot
//!   marginals, and externally supplied tables (Example 2.4).

#![forbid(unsafe_code)]

pub mod basevalues;
pub mod builder;
pub mod cache;
pub mod context;
pub mod cost;
pub mod error;
mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod generalized;
pub mod governor;
pub mod mdjoin;
pub mod paged;
pub mod probe;
mod spill_exec;
pub mod vectorized;

pub use builder::{choose_side, ExecStrategy, MdJoin, MorselSide};
pub use cache::{CacheAnswer, CacheIngestReport, CacheMetricsSnapshot, CuboidCache, CuboidRequest};
pub use context::{
    EngineConfig, ExecContext, IngestReport, ProbeStrategy, QueryCtx, SpillPolicy,
    DEFAULT_MORSEL_RETRIES, DEFAULT_MORSEL_SIZE,
};
pub use error::{CoreError, Result};
#[cfg(feature = "fault-injection")]
pub use fault::FaultInjector;
pub use generalized::Block;
pub use governor::{CancelToken, MemoryPool, MemoryTracker, PoolGrant};
pub use mdjoin::output_schema;
pub use paged::{key_bounds_from_theta, PagedScan, PoolChargeAdapter};
pub use spill_exec::recover_spill_dir;

/// Curated re-exports: everything a typical MD-join program needs.
///
/// ```
/// use mdj_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::basevalues;
    pub use crate::builder::{ExecStrategy, MdJoin, MorselSide};
    pub use crate::context::{EngineConfig, ExecContext, ProbeStrategy, QueryCtx, SpillPolicy};
    pub use crate::error::{CoreError, Result};
    #[cfg(feature = "fault-injection")]
    pub use crate::fault::FaultInjector;
    pub use crate::generalized::Block;
    pub use crate::governor::{CancelToken, MemoryPool, MemoryTracker, PoolGrant};
    pub use crate::mdjoin::output_schema;
    pub use crate::paged::{PagedScan, PoolChargeAdapter};
    pub use mdj_agg::{AggInput, AggSpec};
    pub use mdj_expr::builder::{and, col_b, col_r, eq, ge, gt, le, lit, lt, ne, not, or};
    pub use mdj_expr::Expr;
    pub use mdj_storage::{DataType, Field, Relation, Row, ScanStats, Schema, Value};
}
