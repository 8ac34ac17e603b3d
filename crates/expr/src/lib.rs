//! # mdj-expr
//!
//! Scalar expressions and θ-condition machinery for the MD-join.
//!
//! The MD-join `MD(B, R, l, θ)` evaluates θ over *pairs* of rows — one from the
//! base-values table `B`, one from the detail table `R` — so expressions here
//! carry a [`Side`] on every column reference. The [`analysis`] module implements
//! the θ decompositions that the paper's optimization theorems need:
//!
//! * conjunct splitting and side classification (Theorem 4.2: detail-only
//!   conjuncts push into a selection on `R`);
//! * equality-pair extraction `B.x = R.y` (Section 4.5 `Rel(t)` indexing and
//!   Observation 4.1);
//! * range-predicate extraction (clustered-index scans of Example 4.1);
//! * base→detail attribute substitution (Observation 4.1's `σ'ᵢ`).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod builder;
pub mod error;
pub mod eval;
pub mod rewrite;
pub mod vectorized;

pub use ast::{BinOp, ColRef, Expr, Side};
pub use error::{ExprError, Result};
pub use eval::BoundExpr;
pub use vectorized::{eval_batch, BatchVals};
