//! # mdj-naive
//!
//! The classical relational evaluator — our stand-in for the "commercially
//! available DBMS" of the paper's Section 5 performance discussion.
//!
//! Without the MD-join, the paper's example queries require multi-block SQL:
//! one group-by subquery per aggregate context, joined (outer-joined, to keep
//! groups with no matches) back together. This crate implements exactly those
//! operators — selection, projection, hash group-by, hash equi-join, left
//! outer join, theta join, union — and, in [`plans`], the literal multi-block
//! plans for the paper's worked examples. The benchmark harness compares
//! these against the MD-join formulations; the *shape* of the gap (number of
//! scans, joins, and intermediate tuples) reproduces the paper's
//! order-of-magnitude claim.
//!
//! The same operators double as the *test oracle*: MD-join outputs are
//! cross-checked against outer-join + group-by compositions in the
//! integration and property tests.

#![forbid(unsafe_code)]

pub mod error;
pub mod groupby;
pub mod join;
pub mod ops;
pub mod plans;
pub mod sortexec;

pub use error::{NaiveError, Result};
