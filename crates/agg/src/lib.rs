//! # mdj-agg
//!
//! Aggregate-function framework for the MD-join.
//!
//! Definition 3.1 parameterizes the MD-join with a list `l` of aggregate
//! functions over detail columns. Algorithm 3.1 (and its partitioned/parallel
//! variants from Theorem 4.1) requires aggregates with *state* that can be
//! initialized, updated one value at a time, merged across partitions, and
//! finalized — the classic UDAF shape the paper cites from [JM98, WZ00a].
//!
//! Aggregates are classified per Gray et al.:
//!
//! * **Distributive** (count, sum, min, max): partial states combine exactly;
//!   these are the aggregates Theorem 4.5's roll-up covers.
//! * **Algebraic** (avg, variance, stddev, approximate median): a fixed-size
//!   intermediate state combines exactly.
//! * **Holistic** (median, mode, count-distinct): state is unbounded
//!   (footnote 2 of the paper); supported by Algorithm 3.1 but excluded from
//!   the roll-up transformation. The paper notes holistic aggregates can be
//!   made algebraic by approximation \[MRL98\] — see
//!   [`holistic::ApproxMedian`].

#![deny(unsafe_code)]

pub mod builtins;
pub mod error;
pub mod holistic;
pub mod kernels;
pub mod registry;
pub mod rollup;
pub mod spec;
pub mod traits;

pub use error::{AggError, Result};
pub use kernels::{KernelKind, KernelState};
pub use registry::Registry;
pub use spec::{AggInput, AggSpec};
pub use traits::{AggClass, AggState, Aggregate};
