//! Deterministic fault injection for the execution layer.
//!
//! Compiled only with the `fault-injection` feature. A [`FaultInjector`] on
//! [`ExecContext`](crate::ExecContext) arms these fault kinds, each with a
//! bounded count:
//!
//! * **panics** — a morsel execution site panics (caught by the morsel
//!   executor's isolation boundary and retried);
//! * **charge failures** — a [`MemCharge`](crate::governor::MemCharge)
//!   attempt fails as if the budget were breached (exercising Theorem 4.1
//!   degradation without needing a real footprint);
//! * **slow morsels** — a morsel sleeps before running (exercising deadline
//!   enforcement under stragglers);
//! * **pager write / fsync failures** — a page or manifest write tears
//!   mid-way, or a durability barrier fails. Spill partitions are
//!   temporary page tables, so their page writes are these same sites
//!   (exercising the spill path's typed-error and RAII-cleanup contract);
//! * **planner failures** — a parse/compile/optimize site fails with a
//!   typed SQL error before any execution starts (exercising the server's
//!   error path for queries that never reach the engine);
//! * **server accept/read/write failures** — the TCP front end drops an
//!   accepted connection, treats a read as failed, or skips a response
//!   write, so clients see exactly what a flaky network produces.
//!
//! *Which* site hits inject is a pure function of the seed and a global site
//! counter, so a single-threaded run is exactly reproducible; under threads
//! the interleaving varies but the *number* of injected faults is fixed,
//! which is what the result-or-clean-error property needs. Because the
//! counts are bounded, retries eventually run fault-free: an injector armed
//! with `panics(1)` and one allowed retry must still produce the exact
//! serial answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Mixer for deciding whether a given site hit injects (SplitMix64 finalizer
/// over seed ⊕ hit index).
fn mix(seed: u64, hit: u64) -> u64 {
    let mut z = seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, bounded fault injector. See the module docs.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// Inject at roughly one in `period` eligible site hits.
    period: u64,
    remaining_panics: AtomicU64,
    remaining_charge_failures: AtomicU64,
    remaining_slow: AtomicU64,
    slow_for: Duration,
    remaining_pager_write_failures: AtomicU64,
    remaining_pager_fsync_failures: AtomicU64,
    remaining_planner_failures: AtomicU64,
    remaining_server_accept_failures: AtomicU64,
    remaining_server_read_failures: AtomicU64,
    remaining_server_write_failures: AtomicU64,
    morsel_hits: AtomicU64,
    charge_hits: AtomicU64,
    pager_write_hits: AtomicU64,
    pager_fsync_hits: AtomicU64,
    planner_hits: AtomicU64,
    server_accept_hits: AtomicU64,
    server_read_hits: AtomicU64,
    server_write_hits: AtomicU64,
    injected_panics: AtomicU64,
    injected_planner_failures: AtomicU64,
    injected_server_faults: AtomicU64,
    injected_pager_faults: AtomicU64,
}

impl FaultInjector {
    /// An injector that injects nothing until armed via the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            period: 3,
            remaining_panics: AtomicU64::new(0),
            remaining_charge_failures: AtomicU64::new(0),
            remaining_slow: AtomicU64::new(0),
            slow_for: Duration::from_millis(5),
            remaining_pager_write_failures: AtomicU64::new(0),
            remaining_pager_fsync_failures: AtomicU64::new(0),
            remaining_planner_failures: AtomicU64::new(0),
            remaining_server_accept_failures: AtomicU64::new(0),
            remaining_server_read_failures: AtomicU64::new(0),
            remaining_server_write_failures: AtomicU64::new(0),
            morsel_hits: AtomicU64::new(0),
            charge_hits: AtomicU64::new(0),
            pager_write_hits: AtomicU64::new(0),
            pager_fsync_hits: AtomicU64::new(0),
            planner_hits: AtomicU64::new(0),
            server_accept_hits: AtomicU64::new(0),
            server_read_hits: AtomicU64::new(0),
            server_write_hits: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_planner_failures: AtomicU64::new(0),
            injected_server_faults: AtomicU64::new(0),
            injected_pager_faults: AtomicU64::new(0),
        }
    }

    /// Inject at roughly one in `period` eligible site hits (default 3).
    pub fn period(self, period: u64) -> Self {
        FaultInjector {
            period: period.max(1),
            ..self
        }
    }

    /// Arm `n` injected panics at morsel execution sites.
    pub fn panics(self, n: u64) -> Self {
        self.remaining_panics.store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected memory-charge failures.
    pub fn charge_failures(self, n: u64) -> Self {
        self.remaining_charge_failures.store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` artificially slow morsels, each sleeping `for_` first.
    pub fn slow_morsels(mut self, n: u64, for_: Duration) -> Self {
        self.remaining_slow.store(n, Ordering::Relaxed);
        self.slow_for = for_;
        self
    }

    /// Arm `n` injected pager page-write failures (torn writes: only half
    /// of the page bytes reach the data file before the write errors).
    pub fn pager_write_failures(self, n: u64) -> Self {
        self.remaining_pager_write_failures
            .store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected pager fsync failures (the durability barrier in a
    /// manifest checkpoint reports an error after data may have reached the
    /// kernel but before it is known stable).
    pub fn pager_fsync_failures(self, n: u64) -> Self {
        self.remaining_pager_fsync_failures
            .store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected planner failures (parse/compile/optimize sites).
    pub fn planner_failures(self, n: u64) -> Self {
        self.remaining_planner_failures.store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected accept failures in the server front end (the
    /// accepted connection is dropped before it is served).
    pub fn server_accept_failures(self, n: u64) -> Self {
        self.remaining_server_accept_failures
            .store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected read failures in the server front end (a request
    /// read is treated as a connection error).
    pub fn server_read_failures(self, n: u64) -> Self {
        self.remaining_server_read_failures
            .store(n, Ordering::Relaxed);
        self
    }

    /// Arm `n` injected write failures in the server front end (a response
    /// write is skipped as if the peer closed mid-write).
    pub fn server_write_failures(self, n: u64) -> Self {
        self.remaining_server_write_failures
            .store(n, Ordering::Relaxed);
        self
    }

    /// Number of panics actually injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Number of planner failures actually injected so far.
    pub fn planner_failures_injected(&self) -> u64 {
        self.injected_planner_failures.load(Ordering::Relaxed)
    }

    /// Number of server accept/read/write faults actually injected so far.
    pub fn server_faults_injected(&self) -> u64 {
        self.injected_server_faults.load(Ordering::Relaxed)
    }

    /// Number of pager write/fsync faults actually injected so far.
    pub fn pager_faults_injected(&self) -> u64 {
        self.injected_pager_faults.load(Ordering::Relaxed)
    }

    /// Atomically consume one unit of `budget` if any remain.
    fn take(budget: &AtomicU64) -> bool {
        budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Called by the morsel executor inside its isolation boundary, at the
    /// start of each morsel attempt. May sleep, then may panic.
    pub(crate) fn on_morsel(&self, morsel: usize) {
        let hit = self.morsel_hits.fetch_add(1, Ordering::Relaxed);
        if !mix(self.seed, hit).is_multiple_of(self.period) {
            return;
        }
        if Self::take(&self.remaining_slow) {
            std::thread::sleep(self.slow_for);
        }
        if Self::take(&self.remaining_panics) {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: morsel {morsel} (seed {})", self.seed);
        }
    }

    /// Called by [`MemCharge`](crate::governor::MemCharge); true = fail this
    /// charge as a budget breach.
    pub(crate) fn should_fail_charge(&self) -> bool {
        let hit = self.charge_hits.fetch_add(1, Ordering::Relaxed);
        mix(self.seed.rotate_left(17), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_charge_failures)
    }

    /// Called at a planner site (parse, compile, or optimize); true = fail
    /// the site with a typed SQL error. Public: the SQL layer consults the
    /// injector through [`ExecContext`](crate::ExecContext) without a
    /// feature gate of its own.
    pub fn should_fail_planner(&self) -> bool {
        let hit = self.planner_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(7), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_planner_failures);
        if inject {
            self.injected_planner_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Called after the server accepts a connection; true = drop it
    /// unserved, as if the peer vanished between accept and first read.
    pub fn should_fail_server_accept(&self) -> bool {
        let hit = self.server_accept_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(11), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_server_accept_failures);
        if inject {
            self.injected_server_faults.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Called per request read in the server; true = treat the read as a
    /// connection error and close.
    pub fn should_fail_server_read(&self) -> bool {
        let hit = self.server_read_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(19), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_server_read_failures);
        if inject {
            self.injected_server_faults.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Called per response write in the server; true = skip the write, as
    /// if the peer closed mid-response.
    pub fn should_fail_server_write(&self) -> bool {
        let hit = self.server_write_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(23), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_server_write_failures);
        if inject {
            self.injected_server_faults.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Called at a pager page-write site — a durable table's or a spill
    /// partition's; true = tear the write (only a prefix of the bytes
    /// reaches the data file). Distinct mix stream from every other site.
    pub fn should_fail_pager_write(&self) -> bool {
        let hit = self.pager_write_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(37), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_pager_write_failures);
        if inject {
            self.injected_pager_faults.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Called at a pager fsync site (data file or manifest durability
    /// barrier); true = report the sync as failed.
    pub fn should_fail_pager_fsync(&self) -> bool {
        let hit = self.pager_fsync_hits.fetch_add(1, Ordering::Relaxed);
        let inject = mix(self.seed.rotate_left(43), hit).is_multiple_of(self.period)
            && Self::take(&self.remaining_pager_fsync_failures);
        if inject {
            self.injected_pager_faults.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }
}

/// Let the pager consult the engine's injector directly: an armed
/// [`FaultInjector`] can be handed to
/// [`PagedStore::open_with_faults`](mdj_storage::PagedStore::open_with_faults)
/// as its write/fsync fault source.
impl mdj_storage::PagerFaults for FaultInjector {
    fn fail_page_write(&self) -> bool {
        self.should_fail_pager_write()
    }

    fn fail_fsync(&self) -> bool {
        self.should_fail_pager_fsync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_budget_is_bounded_and_deterministic() {
        let f = FaultInjector::new(42).period(1).panics(2);
        let mut caught = 0;
        for morsel in 0..10 {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.on_morsel(morsel)))
                .is_err()
            {
                caught += 1;
            }
        }
        assert_eq!(caught, 2);
        assert_eq!(f.panics_injected(), 2);
        // A fresh injector with the same seed injects at the same hits.
        let g = FaultInjector::new(42).period(3).panics(u64::MAX);
        let pattern: Vec<bool> = (0..20)
            .map(|m| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.on_morsel(m))).is_err()
            })
            .collect();
        let h = FaultInjector::new(42).period(3).panics(u64::MAX);
        let pattern2: Vec<bool> = (0..20)
            .map(|m| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.on_morsel(m))).is_err()
            })
            .collect();
        assert_eq!(pattern, pattern2);
        assert!(pattern.iter().any(|&p| p));
        assert!(pattern.iter().any(|&p| !p));
    }

    #[test]
    fn charge_failures_are_bounded() {
        let f = FaultInjector::new(7).period(1).charge_failures(3);
        let failures = (0..10).filter(|_| f.should_fail_charge()).count();
        assert_eq!(failures, 3);
    }

    #[test]
    fn unarmed_injector_is_inert() {
        let f = FaultInjector::new(0).period(1);
        for m in 0..100 {
            f.on_morsel(m); // must not panic
        }
        assert!(!(0..100).any(|_| f.should_fail_charge()));
        assert!(!(0..100).any(|_| f.should_fail_planner()));
        assert!(!(0..100).any(|_| f.should_fail_server_accept()));
        assert!(!(0..100).any(|_| f.should_fail_server_read()));
        assert!(!(0..100).any(|_| f.should_fail_server_write()));
        assert!(!(0..100).any(|_| f.should_fail_pager_write()));
        assert!(!(0..100).any(|_| f.should_fail_pager_fsync()));
    }

    #[test]
    fn pager_budgets_are_bounded_counted_and_on_distinct_streams() {
        let f = FaultInjector::new(13)
            .period(1)
            .pager_write_failures(2)
            .pager_fsync_failures(3);
        assert_eq!((0..10).filter(|_| f.should_fail_pager_write()).count(), 2);
        assert_eq!((0..10).filter(|_| f.should_fail_pager_fsync()).count(), 3);
        assert_eq!(f.pager_faults_injected(), 5);
        // Same seed, different rotate constants: the two pager sites and the
        // charge site must not be copies of each other.
        let g = FaultInjector::new(555)
            .period(2)
            .charge_failures(u64::MAX)
            .pager_write_failures(u64::MAX)
            .pager_fsync_failures(u64::MAX);
        let charges: Vec<bool> = (0..64).map(|_| g.should_fail_charge()).collect();
        let writes: Vec<bool> = (0..64).map(|_| g.should_fail_pager_write()).collect();
        let syncs: Vec<bool> = (0..64).map(|_| g.should_fail_pager_fsync()).collect();
        assert_ne!(charges, writes);
        assert_ne!(writes, syncs);
        // Deterministic per seed.
        let h = FaultInjector::new(555)
            .period(2)
            .pager_write_failures(u64::MAX);
        let writes2: Vec<bool> = (0..64).map(|_| h.should_fail_pager_write()).collect();
        assert_eq!(writes, writes2);
    }

    #[test]
    fn planner_and_server_budgets_are_bounded_and_counted() {
        let f = FaultInjector::new(5)
            .period(1)
            .planner_failures(2)
            .server_accept_failures(1)
            .server_read_failures(2)
            .server_write_failures(3);
        assert_eq!((0..10).filter(|_| f.should_fail_planner()).count(), 2);
        assert_eq!((0..10).filter(|_| f.should_fail_server_accept()).count(), 1);
        assert_eq!((0..10).filter(|_| f.should_fail_server_read()).count(), 2);
        assert_eq!((0..10).filter(|_| f.should_fail_server_write()).count(), 3);
        assert_eq!(f.planner_failures_injected(), 2);
        assert_eq!(f.server_faults_injected(), 6);
    }

    #[test]
    fn planner_and_server_sites_use_distinct_streams() {
        let f = FaultInjector::new(777)
            .period(2)
            .planner_failures(u64::MAX)
            .server_accept_failures(u64::MAX)
            .server_read_failures(u64::MAX)
            .server_write_failures(u64::MAX);
        let planner: Vec<bool> = (0..64).map(|_| f.should_fail_planner()).collect();
        let accepts: Vec<bool> = (0..64).map(|_| f.should_fail_server_accept()).collect();
        let reads: Vec<bool> = (0..64).map(|_| f.should_fail_server_read()).collect();
        let writes: Vec<bool> = (0..64).map(|_| f.should_fail_server_write()).collect();
        assert_ne!(planner, accepts);
        assert_ne!(accepts, reads);
        assert_ne!(reads, writes);
        // Deterministic per seed: a fresh injector reproduces the pattern.
        let g = FaultInjector::new(777).period(2).planner_failures(u64::MAX);
        let planner2: Vec<bool> = (0..64).map(|_| g.should_fail_planner()).collect();
        assert_eq!(planner, planner2);
    }
}
