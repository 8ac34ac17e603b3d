//! The query governor: cooperative cancellation, wall-clock deadlines, and
//! runtime memory accounting with Theorem 4.1 degradation.
//!
//! Section 4.1.1 presents partitioned evaluation as *the* mechanism for
//! bounded-memory MD-joins: split `B` into `m` pieces that fit, trading one
//! scan of `R` for `m` — "a well-defined increase in the number of scans of
//! R". The governor turns that planning argument into a runtime contract:
//!
//! * a [`CancelToken`] and/or deadline on [`ExecContext`](crate::ExecContext)
//!   is polled at morsel/partition/chunk granularity by every strategy, so a
//!   runaway θ or an impatient caller stops the query with a typed
//!   [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] instead of
//!   running to completion;
//! * a [`MemoryTracker`] charges base-table aggregate state and probe-index
//!   allocations against a configurable budget. A breach surfaces as
//!   [`CoreError::BudgetExceeded`] — which the `MdJoin` builder answers, for
//!   the in-memory strategies, by re-planning into Theorem 4.1 partitioned
//!   evaluation with `m` raised until the per-partition footprint fits.
//!
//! All charges are estimates (we do not hook the allocator): the per-row
//! constants below are deliberately round numbers sized for the in-memory
//! `Vec<Box<dyn AggState>>` representation. What matters for the Theorem 4.1
//! contract is that the estimate is *monotone in `|B|`*, so halving a
//! partition halves its charge and the degradation loop terminates.

use crate::error::{CoreError, Result};
use mdj_storage::Counter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Estimated bytes of one aggregate state (`Box<dyn AggState>` plus a small
/// scratchpad struct). Holistic states grow with the data; the estimate is a
/// floor, not a ceiling — budgets are best-effort governance, not cgroups.
pub const BYTES_PER_AGG_STATE: usize = 64;

/// Estimated fixed overhead per base row of state bookkeeping (the per-row
/// `Vec` of state boxes).
pub const BYTES_PER_BASE_ROW: usize = 32;

/// Estimated bytes per base row of a hash probe index (bucket entry + key).
pub const BYTES_PER_INDEX_ROW: usize = 48;

/// Estimated aggregate-state footprint of evaluating `n_aggs` aggregates
/// over a base table of `b_rows` rows.
pub fn state_bytes(b_rows: usize, n_aggs: usize) -> usize {
    b_rows.saturating_mul(
        BYTES_PER_BASE_ROW.saturating_add(n_aggs.saturating_mul(BYTES_PER_AGG_STATE)),
    )
}

/// Estimated footprint of a hash probe index over `b_rows` base rows.
pub fn index_bytes(b_rows: usize) -> usize {
    b_rows.saturating_mul(BYTES_PER_INDEX_ROW)
}

/// Estimated bytes per canonicalized key value copied into a hash probe
/// index (`Value` + `Vec` bookkeeping amortized per slot).
pub const BYTES_PER_INDEX_KEY: usize = 24;

/// Estimated footprint of the canonicalized key copies a hash probe index
/// holds: one `Vec<Value>` of `key_cols` values per base row. This is the
/// part of the index cost that scales with the key width, charged separately
/// from the bucket structure ([`index_bytes`]).
pub fn index_key_bytes(b_rows: usize, key_cols: usize) -> usize {
    b_rows.saturating_mul(key_cols.saturating_mul(BYTES_PER_INDEX_KEY))
}

/// Render a caught panic payload (`Box<dyn Any>`) as a message for the typed
/// `MorselPanicked` / `WorkerPanicked` errors.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A shared, cloneable cancellation flag. Clones observe the same flag, so a
/// token handed to a query can be triggered from another thread (or a signal
/// handler — flipping the flag is async-signal-safe).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Re-arm the token for a new query (e.g. an interactive shell reusing
    /// one token across statements).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// A process-wide memory pool that per-query budgets are *reserved* from.
///
/// This is the admission-control half of multi-tenant memory governance: a
/// query's [`MemoryTracker`] bounds what one query may use, the pool bounds
/// what all concurrent queries may hold *together*. Admission reserves a
/// query's whole budget up front (so an admitted query can never be starved
/// mid-flight by a later arrival) and the RAII [`PoolGrant`] returns the
/// bytes when the query's tracker dies — on success, error, cancellation,
/// or panic alike, the pool balance always returns to zero.
///
/// Waiting is bounded two ways: by wall-clock (`reserve_timeout`) and by a
/// caller-supplied cap on concurrent waiters, so an overloaded server sheds
/// load with typed [`CoreError::PoolExhausted`] / [`CoreError::QueueFull`]
/// errors instead of building an unbounded queue.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    state: Mutex<PoolState>,
    freed: Condvar,
}

#[derive(Debug)]
struct PoolState {
    reserved: u64,
    waiters: usize,
}

impl MemoryPool {
    pub fn new(capacity_bytes: usize) -> Self {
        MemoryPool {
            capacity: capacity_bytes as u64,
            state: Mutex::new(PoolState {
                reserved: 0,
                waiters: 0,
            }),
            freed: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved by live grants.
    pub fn reserved(&self) -> u64 {
        self.lock().reserved
    }

    /// Bytes still available for new reservations.
    pub fn available(&self) -> u64 {
        self.capacity - self.lock().reserved
    }

    /// Queries currently blocked waiting for a reservation.
    pub fn waiters(&self) -> usize {
        self.lock().waiters
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reserve `bytes` now or fail with [`CoreError::PoolExhausted`] — the
    /// non-blocking admission path.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Result<PoolGrant> {
        let mut state = self.lock();
        self.grant_or_exhausted(&mut state, bytes)
    }

    /// Reserve `bytes`, waiting up to `wait` for other queries to finish.
    /// At most `max_waiters` callers may be queued at once; one more gets
    /// the typed [`CoreError::QueueFull`] shedding error immediately. A wait
    /// that times out surfaces [`CoreError::PoolExhausted`].
    pub fn reserve_timeout(
        self: &Arc<Self>,
        bytes: u64,
        wait: Duration,
        max_waiters: usize,
    ) -> Result<PoolGrant> {
        let deadline = Instant::now() + wait;
        let mut state = self.lock();
        if state.reserved + bytes <= self.capacity || bytes > self.capacity {
            return self.grant_or_exhausted(&mut state, bytes);
        }
        if state.waiters >= max_waiters {
            return Err(CoreError::QueueFull {
                waiting: state.waiters,
                limit: max_waiters,
            });
        }
        state.waiters += 1;
        let result = loop {
            let now = Instant::now();
            if state.reserved + bytes <= self.capacity {
                break self.grant_or_exhausted(&mut state, bytes);
            }
            if now >= deadline {
                break Err(CoreError::PoolExhausted {
                    needed: bytes,
                    available: self.capacity - state.reserved,
                    capacity: self.capacity,
                });
            }
            let (next, timeout) = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
            if timeout.timed_out() && state.reserved + bytes > self.capacity {
                break Err(CoreError::PoolExhausted {
                    needed: bytes,
                    available: self.capacity - state.reserved,
                    capacity: self.capacity,
                });
            }
        };
        state.waiters -= 1;
        result
    }

    fn grant_or_exhausted(
        self: &Arc<Self>,
        state: &mut PoolState,
        bytes: u64,
    ) -> Result<PoolGrant> {
        if state.reserved + bytes > self.capacity {
            return Err(CoreError::PoolExhausted {
                needed: bytes,
                available: self.capacity - state.reserved,
                capacity: self.capacity,
            });
        }
        state.reserved += bytes;
        Ok(PoolGrant {
            pool: self.clone(),
            bytes,
        })
    }

    fn release(&self, bytes: u64) {
        let mut state = self.lock();
        state.reserved = state.reserved.saturating_sub(bytes);
        drop(state);
        self.freed.notify_all();
    }
}

/// RAII reservation against a [`MemoryPool`]: the bytes return to the pool
/// (waking any queued queries) when the grant drops.
#[derive(Debug)]
pub struct PoolGrant {
    pool: Arc<MemoryPool>,
    bytes: u64,
}

impl PoolGrant {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grow or shrink this reservation to `bytes` in place. Growth reserves
    /// only the difference, so the pool never sees the old and new sizes at
    /// once; a refusal leaves the grant as it was.
    pub fn resize(&mut self, bytes: u64) -> Result<()> {
        if bytes > self.bytes {
            // The extra reservation is folded into this grant, not dropped.
            std::mem::forget(self.pool.try_reserve(bytes - self.bytes)?);
        } else if bytes < self.bytes {
            self.pool.release(self.bytes - bytes);
        }
        self.bytes = bytes;
        Ok(())
    }
}

impl Drop for PoolGrant {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

/// Runtime memory accounting against a fixed byte budget.
///
/// Evaluators charge their big allocations (base-state vectors, probe
/// indexes) before making them and release the charge when the allocation
/// dies (via [`MemCharge`]'s `Drop`). `peak` records the high-water mark
/// *including* the charge that breached, which is exactly the number the
/// Theorem 4.1 degradation loop needs to size its next partition count.
///
/// In a multi-tenant server the tracker is built with
/// [`MemoryTracker::draw_from`], which reserves its whole budget from a
/// shared [`MemoryPool`] and carries the [`PoolGrant`] for its lifetime, so
/// dropping the tracker (query done) gives the bytes back to the pool.
#[derive(Debug)]
pub struct MemoryTracker {
    budget: u64,
    charged: AtomicU64,
    peak: AtomicU64,
    /// Held so a pooled budget returns to the pool exactly when the tracker
    /// dies; `None` for standalone (single-user) trackers.
    _grant: Option<PoolGrant>,
}

impl MemoryTracker {
    pub fn new(budget_bytes: usize) -> Self {
        MemoryTracker {
            budget: budget_bytes as u64,
            charged: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            _grant: None,
        }
    }

    /// A tracker whose budget is reserved from `pool` right now; fails with
    /// [`CoreError::PoolExhausted`] when the pool cannot cover it.
    pub fn draw_from(pool: &Arc<MemoryPool>, budget_bytes: usize) -> Result<Self> {
        let grant = pool.try_reserve(budget_bytes as u64)?;
        Ok(Self::with_grant(budget_bytes, grant))
    }

    /// A tracker over an already-obtained reservation (admission control
    /// that queued via [`MemoryPool::reserve_timeout`]).
    pub fn with_grant(budget_bytes: usize, grant: PoolGrant) -> Self {
        MemoryTracker {
            budget: budget_bytes as u64,
            charged: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            _grant: Some(grant),
        }
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged.
    pub fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// High-water mark of attempted charges (counting rejected ones).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Forget the high-water mark (between degradation attempts).
    pub fn reset_peak(&self) {
        self.peak.store(self.charged(), Ordering::Relaxed);
    }

    fn bump_peak(&self, candidate: u64) {
        self.peak.fetch_max(candidate, Ordering::Relaxed);
    }

    /// Charge `bytes`, failing with [`CoreError::BudgetExceeded`] if the
    /// total would exceed the budget. The attempted total still raises the
    /// peak, so a failed charge tells the degradation loop how much was
    /// actually needed.
    pub fn try_charge(&self, bytes: u64) -> Result<()> {
        let after = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.bump_peak(after);
        if after > self.budget {
            self.charged.fetch_sub(bytes, Ordering::Relaxed);
            return Err(CoreError::BudgetExceeded {
                needed: after,
                budget: self.budget,
            });
        }
        Ok(())
    }

    pub fn release(&self, bytes: u64) {
        self.charged.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// RAII guard for a [`MemoryTracker`] charge: releases on drop, so partition
/// attempts and per-worker states give their bytes back automatically (and
/// on *any* exit path, including errors and caught panics).
#[derive(Debug, Default)]
pub struct MemCharge {
    tracker: Option<Arc<MemoryTracker>>,
    bytes: u64,
}

impl MemCharge {
    /// Charge `bytes` against the context's tracker, if it has one. With no
    /// tracker this is free and the guard is inert.
    pub fn try_new(ctx: &crate::ExecContext, bytes: usize) -> Result<MemCharge> {
        match ctx.memory() {
            None => Ok(MemCharge::default()),
            Some(tracker) => {
                #[cfg(feature = "fault-injection")]
                if let Some(f) = ctx.fault() {
                    if f.should_fail_charge() {
                        return Err(CoreError::BudgetExceeded {
                            needed: tracker.charged() + bytes as u64,
                            budget: tracker.budget(),
                        });
                    }
                }
                tracker.try_charge(bytes as u64)?;
                ctx.count(Counter::bytes_charged, bytes as u64);
                Ok(MemCharge {
                    tracker: Some(tracker.clone()),
                    bytes: bytes as u64,
                })
            }
        }
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.release(self.bytes);
        }
    }
}

/// Incremental charge accumulator for state that grows while a query runs —
/// holistic aggregates (median, mode, count-distinct) whose footprint is
/// data-dependent (footnote 2 of the paper) and therefore invisible to the
/// up-front [`state_bytes`] estimate. Executors meter actual growth by
/// diffing `AggState::heap_bytes` around each update and charging the delta;
/// everything charged is released when the meter drops (states die with the
/// evaluation attempt, so their bytes come back on success *and* on a
/// [`CoreError::BudgetExceeded`] degradation retry).
#[derive(Debug)]
pub struct GrowthMeter {
    tracker: Option<Arc<MemoryTracker>>,
    stats: Option<Arc<mdj_storage::ScanStats>>,
    charged: u64,
}

impl GrowthMeter {
    /// A meter against the context's tracker; inert when no budget is set.
    pub fn new(ctx: &crate::ExecContext) -> GrowthMeter {
        GrowthMeter {
            tracker: ctx.memory().cloned(),
            stats: ctx.stats().cloned(),
            charged: 0,
        }
    }

    /// True when metering would actually charge something (callers skip the
    /// per-update `heap_bytes` bookkeeping entirely otherwise).
    pub fn active(&self) -> bool {
        self.tracker.is_some()
    }

    /// Charge `delta` additional bytes of state growth.
    pub fn charge(&mut self, delta: usize) -> Result<()> {
        if delta == 0 {
            return Ok(());
        }
        if let Some(tracker) = &self.tracker {
            tracker.try_charge(delta as u64)?;
            self.charged += delta as u64;
            if let Some(s) = &self.stats {
                s.count(Counter::bytes_charged, delta as u64);
            }
        }
        Ok(())
    }
}

impl Drop for GrowthMeter {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.release(self.charged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!t2.is_cancelled());
    }

    #[test]
    fn tracker_charges_releases_and_tracks_peak() {
        let t = MemoryTracker::new(100);
        t.try_charge(60).unwrap();
        assert_eq!(t.charged(), 60);
        let err = t.try_charge(50).unwrap_err();
        assert!(matches!(
            err,
            CoreError::BudgetExceeded {
                needed: 110,
                budget: 100
            }
        ));
        // The failed charge was rolled back but raised the peak.
        assert_eq!(t.charged(), 60);
        assert_eq!(t.peak(), 110);
        t.release(60);
        assert_eq!(t.charged(), 0);
        t.reset_peak();
        assert_eq!(t.peak(), 0);
        t.try_charge(100).unwrap(); // exactly at budget is fine
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        let ctx = crate::ExecContext::new().with_budget_bytes(1000);
        let tracker = ctx.memory().cloned().unwrap();
        {
            let _g = MemCharge::try_new(&ctx, 400).unwrap();
            assert_eq!(tracker.charged(), 400);
            assert!(MemCharge::try_new(&ctx, 700).is_err());
        }
        assert_eq!(tracker.charged(), 0);
        // No tracker: inert guard.
        let free = crate::ExecContext::new();
        let _g = MemCharge::try_new(&free, usize::MAX).unwrap();
    }

    #[test]
    fn pool_reserves_releases_and_sheds() {
        let pool = Arc::new(MemoryPool::new(1000));
        assert_eq!(pool.capacity(), 1000);
        let g1 = pool.try_reserve(600).unwrap();
        assert_eq!(pool.available(), 400);
        let err = pool.try_reserve(500).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PoolExhausted {
                needed: 500,
                available: 400,
                capacity: 1000
            }
        ));
        let g2 = pool.try_reserve(400).unwrap();
        assert_eq!(pool.available(), 0);
        drop(g1);
        assert_eq!(pool.available(), 600);
        drop(g2);
        assert_eq!(pool.reserved(), 0);
        // A request larger than the whole pool is exhausted, never queued.
        let err = pool
            .reserve_timeout(2000, Duration::from_secs(60), 8)
            .unwrap_err();
        assert!(matches!(err, CoreError::PoolExhausted { .. }));
        assert_eq!(pool.waiters(), 0);
    }

    #[test]
    fn pool_wait_times_out_and_queue_bounds() {
        let pool = Arc::new(MemoryPool::new(100));
        let _g = pool.try_reserve(100).unwrap();
        // Zero queue slots: immediate QueueFull.
        let err = pool
            .reserve_timeout(50, Duration::from_secs(60), 0)
            .unwrap_err();
        assert!(matches!(err, CoreError::QueueFull { limit: 0, .. }));
        // One slot, but nothing frees within the wait: PoolExhausted.
        let err = pool
            .reserve_timeout(50, Duration::from_millis(10), 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::PoolExhausted { .. }));
        assert_eq!(pool.waiters(), 0);
    }

    #[test]
    fn pool_wait_succeeds_when_bytes_free() {
        let pool = Arc::new(MemoryPool::new(100));
        let g = pool.try_reserve(100).unwrap();
        let p2 = pool.clone();
        let waiter = std::thread::spawn(move || {
            p2.reserve_timeout(60, Duration::from_secs(30), 4)
                .map(|g| g.bytes())
        });
        // Give the waiter time to queue, then free the pool.
        std::thread::sleep(Duration::from_millis(30));
        drop(g);
        assert_eq!(waiter.join().unwrap().unwrap(), 60);
        // The waiter's grant was dropped when its thread returned the size.
        assert_eq!(pool.reserved(), 0);
        assert_eq!(pool.waiters(), 0);
    }

    #[test]
    fn tracker_draws_budget_from_pool_for_its_lifetime() {
        let pool = Arc::new(MemoryPool::new(1 << 20));
        {
            let tracker = MemoryTracker::draw_from(&pool, 4096).unwrap();
            assert_eq!(pool.reserved(), 4096);
            tracker.try_charge(1000).unwrap();
            assert!(matches!(
                tracker.try_charge(4096),
                Err(CoreError::BudgetExceeded { .. })
            ));
            // Charges move within the reservation; the pool sees only it.
            assert_eq!(pool.reserved(), 4096);
        }
        assert_eq!(pool.reserved(), 0);
        let err = MemoryTracker::draw_from(&pool, (1 << 20) + 1).unwrap_err();
        assert!(matches!(err, CoreError::PoolExhausted { .. }));
    }

    #[test]
    fn footprint_estimates_are_monotone() {
        assert_eq!(state_bytes(0, 3), 0);
        assert!(state_bytes(100, 2) > state_bytes(50, 2));
        assert!(state_bytes(100, 4) > state_bytes(100, 2));
        assert!(index_bytes(10) < index_bytes(1000));
        assert!(index_key_bytes(10, 2) > index_key_bytes(10, 1));
        assert_eq!(index_key_bytes(0, 3), 0);
        // Saturates instead of overflowing.
        assert_eq!(state_bytes(usize::MAX, usize::MAX), usize::MAX);
        assert_eq!(index_key_bytes(usize::MAX, usize::MAX), usize::MAX);
    }

    #[test]
    fn growth_meter_charges_and_releases() {
        let ctx = crate::ExecContext::new().with_budget_bytes(1000);
        let tracker = ctx.memory().cloned().unwrap();
        {
            let mut meter = GrowthMeter::new(&ctx);
            assert!(meter.active());
            meter.charge(300).unwrap();
            meter.charge(0).unwrap(); // free
            meter.charge(400).unwrap();
            assert_eq!(tracker.charged(), 700);
            let err = meter.charge(500).unwrap_err();
            assert!(matches!(err, CoreError::BudgetExceeded { .. }));
            // The failed delta was rolled back; prior charges stand.
            assert_eq!(tracker.charged(), 700);
        }
        // Drop released everything that was successfully charged.
        assert_eq!(tracker.charged(), 0);
        // No budget: inert.
        let mut free = GrowthMeter::new(&crate::ExecContext::new());
        assert!(!free.active());
        free.charge(usize::MAX).unwrap();
    }
}
