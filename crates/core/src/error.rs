//! Unified error type for MD-join evaluation.

use std::fmt;

pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Errors surfaced while planning or evaluating an MD-join.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    Storage(mdj_storage::StorageError),
    Expr(mdj_expr::ExprError),
    Agg(mdj_agg::AggError),
    /// An aggregate output column collides with a `B` column or another
    /// aggregate output.
    DuplicateColumn(String),
    /// A configuration value is out of range (e.g. zero partitions).
    BadConfig(String),
    /// The query's [`CancelToken`](crate::governor::CancelToken) was
    /// triggered; evaluation stopped at the next cooperative check.
    Cancelled,
    /// The query ran past its wall-clock deadline.
    DeadlineExceeded,
    /// The memory budget could not be satisfied even after Theorem 4.1
    /// degradation (or the strategy does not support degradation). `needed`
    /// is the estimated bytes of the allocation that breached the budget.
    BudgetExceeded {
        needed: u64,
        budget: u64,
    },
    /// Admission control could not reserve the query's budget from the
    /// shared [`MemoryPool`](crate::governor::MemoryPool): the pool is
    /// exhausted (or the request exceeds its whole capacity) and no bytes
    /// freed within the admission wait. The query was *shed*, not started.
    PoolExhausted {
        needed: u64,
        available: u64,
        capacity: u64,
    },
    /// The admission wait queue is at its bound; the query was shed
    /// immediately instead of queued (overload back-pressure).
    QueueFull {
        waiting: usize,
        limit: usize,
    },
    /// A morsel panicked on every attempt; `attempts` counts the initial run
    /// plus all retries, and `message` is the final panic payload.
    MorselPanicked {
        morsel: usize,
        attempts: u32,
        message: String,
    },
    /// A worker thread died outside the per-morsel isolation boundary.
    WorkerPanicked {
        worker: usize,
        message: String,
    },
    /// An internal invariant broke. Always a bug — reported as a typed error
    /// instead of a panic so callers never see a poisoned run.
    Internal(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Expr(e) => write!(f, "expression error: {e}"),
            CoreError::Agg(e) => write!(f, "aggregate error: {e}"),
            CoreError::DuplicateColumn(c) => {
                write!(f, "duplicate output column `{c}` in MD-join result")
            }
            CoreError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            CoreError::Cancelled => write!(f, "query cancelled"),
            CoreError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            CoreError::BudgetExceeded { needed, budget } => write!(
                f,
                "memory budget exceeded: needed ≈{needed} B against a {budget} B budget \
                 (even at maximum Theorem 4.1 partitioning)"
            ),
            CoreError::PoolExhausted {
                needed,
                available,
                capacity,
            } => write!(
                f,
                "memory pool exhausted: needed {needed} B but only {available} B of the \
                 {capacity} B pool are free (query shed by admission control)"
            ),
            CoreError::QueueFull { waiting, limit } => write!(
                f,
                "admission queue full: {waiting} queries already waiting (limit {limit}); \
                 query shed"
            ),
            CoreError::MorselPanicked {
                morsel,
                attempts,
                message,
            } => write!(
                f,
                "morsel {morsel} panicked on all {attempts} attempts: {message}"
            ),
            CoreError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            CoreError::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl CoreError {
    /// True for errors raised by the query governor / fault-tolerance layer
    /// (as opposed to planning or data errors). The fault-injection property
    /// tests assert that any injected fault surfaces as one of these.
    pub fn is_governor(&self) -> bool {
        matches!(
            self,
            CoreError::Cancelled
                | CoreError::DeadlineExceeded
                | CoreError::BudgetExceeded { .. }
                | CoreError::PoolExhausted { .. }
                | CoreError::QueueFull { .. }
                | CoreError::MorselPanicked { .. }
                | CoreError::WorkerPanicked { .. }
        )
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Expr(e) => Some(e),
            CoreError::Agg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mdj_storage::StorageError> for CoreError {
    fn from(e: mdj_storage::StorageError) -> Self {
        match e {
            // A buffer-pool starvation is the same governor condition as an
            // admission-control shed: keep it retryable, not a storage fault.
            mdj_storage::StorageError::PoolExhausted {
                needed,
                available,
                capacity,
            } => CoreError::PoolExhausted {
                needed,
                available,
                capacity,
            },
            other => CoreError::Storage(other),
        }
    }
}

impl From<mdj_expr::ExprError> for CoreError {
    fn from(e: mdj_expr::ExprError) -> Self {
        CoreError::Expr(e)
    }
}

impl From<mdj_agg::AggError> for CoreError {
    fn from(e: mdj_agg::AggError) -> Self {
        CoreError::Agg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = mdj_agg::AggError::UnknownFunction("x".into()).into();
        assert!(e.to_string().contains("aggregate"));
        let e: CoreError = mdj_storage::StorageError::UnknownRelation("T".into()).into();
        assert!(e.to_string().contains("storage"));
        let e = CoreError::DuplicateColumn("sum_sale".into());
        assert!(e.to_string().contains("sum_sale"));
    }

    #[test]
    fn governor_errors_display_and_classify() {
        let cases: Vec<CoreError> = vec![
            CoreError::Cancelled,
            CoreError::DeadlineExceeded,
            CoreError::BudgetExceeded {
                needed: 2048,
                budget: 1024,
            },
            CoreError::MorselPanicked {
                morsel: 7,
                attempts: 3,
                message: "boom".into(),
            },
            CoreError::WorkerPanicked {
                worker: 2,
                message: "boom".into(),
            },
            CoreError::PoolExhausted {
                needed: 512,
                available: 128,
                capacity: 4096,
            },
            CoreError::QueueFull {
                waiting: 9,
                limit: 8,
            },
        ];
        for e in &cases {
            assert!(e.is_governor(), "{e}");
            assert!(!e.to_string().is_empty());
        }
        assert!(!CoreError::BadConfig("x".into()).is_governor());
        assert!(!CoreError::Internal("x".into()).is_governor());
        let budget = &cases[2];
        assert!(budget.to_string().contains("2048"));
        assert!(budget.to_string().contains("1024"));
    }

    #[test]
    fn spill_errors_classify() {
        // Spill partitions are temporary page tables: their I/O faults are
        // the pager's, storage errors and never governor sheds.
        let e = mdj_storage::StorageError::PagerIo {
            path: "mdj-spill-1-0-part0of4.run".into(),
            detail: "injected page write failure (torn write)".into(),
        };
        let core: CoreError = e.clone().into();
        assert_eq!(core, CoreError::Storage(e));
        assert!(!core.is_governor());
    }

    #[test]
    fn buffer_pool_exhaustion_maps_to_the_governor_variant() {
        let e: CoreError = mdj_storage::StorageError::PoolExhausted {
            needed: 512,
            available: 128,
            capacity: 4096,
        }
        .into();
        assert_eq!(
            e,
            CoreError::PoolExhausted {
                needed: 512,
                available: 128,
                capacity: 4096,
            }
        );
        assert!(e.is_governor());
    }
}
