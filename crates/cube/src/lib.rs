//! # mdj-cube
//!
//! Data-cube computation expressed through the MD-join algebra (Section 4.4).
//!
//! The paper's Theorem 4.5 (roll-up: a coarser cuboid is an MD-join over a
//! finer cuboid with adapted aggregates `l'`) together with Theorem 4.1
//! (partitioning) and Theorem 4.2 / Observation 4.1 (pushdown) algebraically
//! express the classic efficient cube algorithms — PIPESORT of \[AAD+96\] and
//! the partitioned cube of Ross–Srivastava \[RS96\]. This crate implements:
//!
//! * [`naive`] — two baselines: a single MD-join against the whole cube base
//!   table with the `ALL`-wildcard θ (the direct reading of Example 2.1), and
//!   the per-cuboid expansion via Theorem 4.1 (Example 4.2's first step).
//! * [`rollup_chain`] — greedy smallest-parent roll-up: every cuboid is
//!   computed from its cheapest already-computed parent via Theorem 4.5.
//! * [`pipesort`] — pipelined paths over sort orders (Figure 2): one sort per
//!   path, all cuboids on a path computed in a single pass.
//! * [`partitioned`] — the Ross–Srivastava partitioned cube: partition the
//!   detail table on one dimension's values (Theorem 4.1 + Observation 4.1),
//!   build each in-memory subcube, and roll the partitions up.
//!
//! All four produce identical relations (verified by tests and the E1/E9
//! benches); they differ in scans, sorts, and memory — which is the paper's
//! point: the *algebra* exposes these alternatives to a cost-based optimizer.

#![forbid(unsafe_code)]

pub mod common;
pub mod lattice;
pub mod naive;
pub mod partitioned;
pub mod pipesort;
pub mod rollup_chain;
pub mod sets;

pub use common::CubeSpec;
pub use lattice::Lattice;
