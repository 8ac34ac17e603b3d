//! Degradation cost model: pricing the two answers to a budget breach.
//!
//! When the governor reports [`CoreError::BudgetExceeded`](crate::CoreError)
//! the builder re-plans into Theorem 4.1 partitioned evaluation with `m`
//! partitions of `B`. There are two ways to feed each partition its detail
//! tuples:
//!
//! * **Rescan** — scan the in-memory `R` once per partition: `m·|R|` tuples
//!   touched (the paper's "well-defined increase in the number of scans of
//!   R").
//! * **Spill** — hash-partition `R` to temporary page tables once on θ's
//!   equality bindings, then evaluate each `(Bᵢ, Rᵢ)` pair over its table:
//!   every tuple is touched once to route it, once more when its partition
//!   is read back, plus priced spill I/O.
//!
//! Costs are in the crate's machine-independent currency — tuples touched —
//! with disk traffic converted at fixed multipliers, mirroring the E5 model
//! in `mdj-algebra` (which this crate cannot depend on). The multipliers are
//! deliberately pessimistic about I/O: spilling only wins when `R` is large
//! *and* the partition count is high, which is exactly the regime where
//! `m·|R|` re-scanning explodes.
//!
//! This module also closes the deferred roadmap item of choosing the
//! degradation partition count from the cost model instead of only scaling
//! the observed peak: [`cost_partitions`] computes the smallest `m` whose
//! per-partition static footprint (aggregate state + probe index) fits the
//! budget, so one degradation step usually lands on a feasible plan instead
//! of ratcheting `m` up breach by breach.

use crate::context::SpillPolicy;
use crate::governor;

/// Cost of writing one spilled tuple, in touched-tuple units. Sequential
/// appends are cheap but not free.
pub const SPILL_WRITE_COST: u64 = 4;

/// Cost of reading one spilled tuple back, in touched-tuple units.
pub const SPILL_READ_COST: u64 = 2;

/// Fixed per-partition-file overhead (create/seal/checksum/unlink), in
/// touched-tuple units. Keeps tiny inputs from spilling into `m` files that
/// cost more to open than to fill.
pub const SPILL_FILE_OVERHEAD: u64 = 512;

/// How a degraded (partitioned) plan feeds `R` to each partition of `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeMode {
    /// Re-scan the in-memory `R` once per partition.
    Rescan,
    /// Hash-partition `R` to disk once; each partition reads only its file.
    Spill,
}

/// Touched-tuple cost of rescan degradation: `m` scans of `R`.
pub fn rescan_cost(m: usize, r_rows: usize) -> u64 {
    (m as u64).saturating_mul(r_rows as u64)
}

/// Touched-tuple cost of spill degradation: one routing pass over `R`, the
/// priced write and read of every tuple, and per-file overhead.
pub fn spill_cost(m: usize, r_rows: usize) -> u64 {
    (r_rows as u64)
        .saturating_mul(1 + SPILL_WRITE_COST + SPILL_READ_COST)
        .saturating_add(SPILL_FILE_OVERHEAD.saturating_mul(m as u64))
}

/// Static footprint of evaluating one partition of `rows` base rows:
/// aggregate state plus, when θ hash-probes on `key_width` columns, the
/// probe index and its key copies. This mirrors what `md_join_serial`
/// actually charges, so "fits" here means "fits there".
fn partition_bytes(rows: usize, n_aggs: usize, key_width: Option<usize>) -> u64 {
    let mut bytes = governor::state_bytes(rows, n_aggs);
    if let Some(k) = key_width {
        bytes = bytes
            .saturating_add(governor::index_bytes(rows))
            .saturating_add(governor::index_key_bytes(rows, k));
    }
    bytes as u64
}

/// Smallest partition count whose per-partition static footprint fits
/// `budget` bytes (the deferred cost-based choice of `m`). Returns `b_rows`
/// — one row per partition, the finest Theorem 4.1 split — when even that
/// does not fit; the caller surfaces the breach. Monotone in the budget, so
/// a binary search suffices.
pub fn cost_partitions(
    b_rows: usize,
    n_aggs: usize,
    key_width: Option<usize>,
    budget: u64,
) -> usize {
    if b_rows == 0 {
        return 1;
    }
    let fits = |m: usize| partition_bytes(b_rows.div_ceil(m), n_aggs, key_width) <= budget;
    if fits(1) {
        return 1;
    }
    if !fits(b_rows) {
        return b_rows;
    }
    // Invariant: !fits(lo), fits(hi); per-partition rows shrink with m, so
    // `fits` is monotone and the search closes on the smallest fitting m.
    let (mut lo, mut hi) = (1usize, b_rows);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Pick the feed mode for a degraded plan with `m` partitions. Spilling
/// requires θ to carry hash-partitionable equality bindings (`key_width`)
/// and more than one partition; within that, the policy decides directly or
/// delegates to the cost comparison.
pub fn choose_mode(
    m: usize,
    r_rows: usize,
    key_width: Option<usize>,
    policy: SpillPolicy,
) -> DegradeMode {
    if key_width.is_none() || m <= 1 {
        return DegradeMode::Rescan;
    }
    match policy {
        SpillPolicy::Never => DegradeMode::Rescan,
        SpillPolicy::Always => DegradeMode::Spill,
        SpillPolicy::Auto => {
            if spill_cost(m, r_rows) < rescan_cost(m, r_rows) {
                DegradeMode::Spill
            } else {
                DegradeMode::Rescan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Per-row footprints used by the pinned grids below (2 aggregates, one
    // probe key column): 32 + 2×64 state, 48 index, 24 key = 232 bytes.
    const PER_ROW: u64 = (governor::BYTES_PER_BASE_ROW
        + 2 * governor::BYTES_PER_AGG_STATE
        + governor::BYTES_PER_INDEX_ROW
        + governor::BYTES_PER_INDEX_KEY) as u64;

    #[test]
    fn cost_partitions_is_pinned_across_a_budget_grid() {
        // 100 base rows, 2 aggs, 1-column key. Budget in rows-that-fit.
        for (rows_fit, expected_m) in [(100, 1), (50, 2), (25, 4), (10, 10), (3, 34), (1, 100)] {
            let m = cost_partitions(100, 2, Some(1), rows_fit * PER_ROW);
            assert_eq!(m, expected_m, "budget fits {rows_fit} rows");
            // The chosen m is feasible and minimal.
            assert!(100usize.div_ceil(m) as u64 * PER_ROW <= rows_fit * PER_ROW);
            if m > 1 {
                assert!(100usize.div_ceil(m - 1) as u64 * PER_ROW > rows_fit * PER_ROW);
            }
        }
    }

    #[test]
    fn cost_partitions_is_pinned_across_a_row_grid() {
        // Fixed budget of 4 rows' worth; vary |B|.
        let budget = 4 * PER_ROW;
        for (b_rows, expected_m) in [(1, 1), (4, 1), (5, 2), (11, 3), (23, 6), (1000, 250)] {
            assert_eq!(
                cost_partitions(b_rows, 2, Some(1), budget),
                expected_m,
                "|B| = {b_rows}"
            );
        }
    }

    #[test]
    fn cost_partitions_edge_cases() {
        assert_eq!(cost_partitions(0, 3, Some(2), 0), 1); // empty B
        assert_eq!(cost_partitions(10, 2, Some(1), 0), 10); // nothing fits
        assert_eq!(cost_partitions(10, 2, Some(1), u64::MAX), 1); // all fits
                                                                  // No probe key: only state is charged, so more rows fit.
        let with_key = cost_partitions(100, 2, Some(1), 10 * PER_ROW);
        let without = cost_partitions(100, 2, None, 10 * PER_ROW);
        assert!(without <= with_key);
    }

    #[test]
    fn mode_choice_is_pinned_across_size_grids() {
        use SpillPolicy::*;
        // (m, r_rows, policy, expected): spill needs big R *and* high m.
        let grid: &[(usize, usize, SpillPolicy, DegradeMode)] = &[
            // Small R never spills under Auto: 7·r + 512·m ≥ m·r for r ≤ 512.
            (6, 400, Auto, DegradeMode::Rescan),
            (6, 4_000, Auto, DegradeMode::Rescan),
            (100, 512, Auto, DegradeMode::Rescan),
            // Crossover: at r = 100 000, spill wins from m = 8 up.
            (7, 100_000, Auto, DegradeMode::Rescan),
            (8, 100_000, Auto, DegradeMode::Spill),
            (16, 100_000, Auto, DegradeMode::Spill),
            (250, 1_000_000, Auto, DegradeMode::Spill),
            // Policy overrides.
            (16, 100_000, Never, DegradeMode::Rescan),
            (2, 10, Always, DegradeMode::Spill),
        ];
        for &(m, r, policy, expected) in grid {
            assert_eq!(
                choose_mode(m, r, Some(1), policy),
                expected,
                "m={m} r={r} policy={policy:?}"
            );
        }
        // No equality bindings: spill is impossible under every policy.
        for policy in [Auto, Never, Always] {
            assert_eq!(choose_mode(16, 100_000, None, policy), DegradeMode::Rescan);
        }
        // A single partition never spills (nothing to co-partition).
        assert_eq!(
            choose_mode(1, 100_000, Some(1), Always),
            DegradeMode::Rescan
        );
    }

    #[test]
    fn choose_degradation_combines_count_and_mode() {
        // The builder's degradation step: the partition count from the
        // budget, then the feed mode for that count.
        let decide = |b_rows: usize, r_rows: usize, budget: u64| {
            let m = cost_partitions(b_rows, 3, Some(1), budget);
            (m, choose_mode(m, r_rows, Some(1), SpillPolicy::Auto))
        };
        // The resource-governor scenario: 23 base rows, 3 aggs, r = 4000,
        // budget sized to ~5 rows of state+index. Pinned: m = 6, rescan.
        let per_row = (governor::BYTES_PER_BASE_ROW
            + 3 * governor::BYTES_PER_AGG_STATE
            + governor::BYTES_PER_INDEX_ROW) as u64;
        assert_eq!(decide(23, 4000, 5 * per_row), (6, DegradeMode::Rescan));
        // Same shape at warehouse scale flips to spill.
        let (m, mode) = decide(10_000, 1_000_000, 5 * per_row);
        assert!(m >= 8);
        assert_eq!(mode, DegradeMode::Spill);
    }

    #[test]
    fn costs_saturate_instead_of_overflowing() {
        assert_eq!(rescan_cost(usize::MAX, usize::MAX), u64::MAX);
        assert!(spill_cost(usize::MAX, usize::MAX) == u64::MAX);
        let _ = cost_partitions(usize::MAX, usize::MAX, Some(usize::MAX), 1);
    }
}
