//! Execution context, split for multi-tenant service use into an immutable,
//! shareable [`EngineConfig`] and a per-query [`QueryCtx`].
//!
//! One `Arc<EngineConfig>` — aggregate registry, planning knobs, spill
//! policy, and a catalog of copy-on-write relations — serves any number of
//! concurrent queries without cloning relation data. Everything that must be
//! isolated per query (stats, cancellation, deadline, memory tracker) lives
//! in `QueryCtx`. [`ExecContext`], the handle every evaluator consumes, is
//! just the pair; cloning it clones the cheap per-query half and bumps the
//! engine `Arc`.
//!
//! The raw fields of all three types are sealed: read through the accessor
//! methods, write through the builder-style `with_*` setters (or the few
//! explicit `set_*` mutators shells need). This keeps the public surface
//! stable while the internals move between the two halves.

use crate::cache::CuboidCache;
use crate::error::{CoreError, Result};
use crate::governor::{CancelToken, MemoryTracker};
use mdj_agg::Registry;
use mdj_storage::{Catalog, Counter, NoFaults, PagerFaults, Row, ScanStats};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the inner loop of Algorithm 3.1 locates `Rel(t)` — the base rows a
/// detail tuple may update (Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStrategy {
    /// Analyze θ: if it yields `B.col = f(R-row)` bindings, hash-index `B`
    /// on those columns; otherwise fall back to the nested loop.
    #[default]
    Auto,
    /// Always examine every row of `B` per detail tuple (the literal
    /// Algorithm 3.1 inner loop).
    NestedLoop,
    /// Require the hash probe; planning fails if θ has no usable bindings.
    HashProbe,
}

/// Whether a budget breach may degrade into *spilling* partitioned
/// evaluation (hash-partition `R` once into temporary page tables on disk,
/// evaluate each `(Bᵢ, Rᵢ)` pair over its table) instead of re-scanning the
/// in-memory `R` m times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillPolicy {
    /// Cost the two degradation modes (`core::cost`) and pick the cheaper:
    /// re-scan work `m·|R|` vs one partitioning pass plus priced spill
    /// I/O. Requires θ to carry hash-partitionable equality bindings.
    #[default]
    Auto,
    /// Never spill; always degrade by re-scanning (the PR-2 behaviour).
    Never,
    /// Spill whenever θ permits it, regardless of modeled cost (ablations
    /// and tests).
    Always,
}

/// Default morsel granularity (rows per task) for the parallel executor.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Default bound on per-morsel panic retries (initial attempt + 1 retry).
pub const DEFAULT_MORSEL_RETRIES: u32 = 1;

/// Detail tuples between governor polls in the serial scan loops: cheap
/// enough that `Instant::now` never shows up in a profile, frequent enough
/// that cancellation latency stays far below human-visible.
pub(crate) const CANCEL_CHECK_INTERVAL: usize = 1024;

/// The immutable, `Send + Sync` half of the execution context: everything
/// that is property of the *engine*, not of one query.
///
/// Build one, wrap it in an `Arc`, and share it across every session and
/// worker thread of a process. Relations in the [`catalog`](Self::catalog)
/// are stored behind `Arc`s, so queries read them without copies; replacing
/// a table produces a new catalog entry and never disturbs in-flight readers
/// (copy-on-write at the granularity of whole relations).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    registry: Registry,
    strategy: ProbeStrategy,
    prefilter: bool,
    morsel_size: usize,
    max_morsel_retries: u32,
    spill: SpillPolicy,
    spill_dir: Option<PathBuf>,
    catalog: Catalog,
    cuboid_cache: Option<Arc<CuboidCache>>,
    /// Shared buffer pool for paged catalog tables. Interior-mutable (like
    /// the catalog's paged handles) so a daemon can attach it after the
    /// config is built and `Arc`-shared; cloning the config shares the slot.
    buffer_pool: Arc<std::sync::Mutex<Option<Arc<mdj_storage::BufferPool>>>>,
}

/// What [`EngineConfig::ingest`] did: the catalog grew, and resident cuboids
/// were folded forward or dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Rows appended in this batch.
    pub rows: usize,
    /// Table version after the append (1 = first registration).
    pub version: u64,
    /// Cached cuboids dropped because they could not be maintained.
    pub cache_invalidated: u64,
    /// Cached cuboids incrementally maintained per Algorithm 3.1.
    pub cache_maintained: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            registry: Registry::default(),
            strategy: ProbeStrategy::default(),
            prefilter: true,
            morsel_size: DEFAULT_MORSEL_SIZE,
            max_morsel_retries: DEFAULT_MORSEL_RETRIES,
            spill: SpillPolicy::default(),
            spill_dir: None,
            catalog: Catalog::new(),
            cuboid_cache: None,
            buffer_pool: Arc::new(std::sync::Mutex::new(None)),
        }
    }
}

impl EngineConfig {
    pub fn new() -> Self {
        Self::default()
    }

    // ----- builder setters -----

    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    pub fn with_strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Disable the operator-level Theorem 4.2 prefilter (ablation knob).
    pub fn without_prefilter(mut self) -> Self {
        self.prefilter = false;
        self
    }

    /// Set the morsel granularity (rows per task) for the parallel executor.
    pub fn with_morsel_size(mut self, rows: usize) -> Self {
        self.morsel_size = rows;
        self
    }

    /// Bound per-morsel panic retries (0 = fail on first panic).
    pub fn with_morsel_retries(mut self, retries: u32) -> Self {
        self.max_morsel_retries = retries;
        self
    }

    /// Choose whether budget-breach degradation may spill `R` partitions to
    /// disk (default: cost-based [`SpillPolicy::Auto`]).
    pub fn with_spill_policy(mut self, policy: SpillPolicy) -> Self {
        self.spill = policy;
        self
    }

    /// Directory for spill files (default: the system temp directory).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Register (or replace) a relation in the catalog.
    pub fn register_table(mut self, name: impl Into<String>, rel: mdj_storage::Relation) -> Self {
        self.catalog.register(name, rel);
        self
    }

    /// Enable the cuboid result cache with a byte budget for finalized
    /// results (see [`crate::cache`]). Repeated canonical group-by MD-joins
    /// are answered from memory; coarser ones roll up from finer cached
    /// cuboids (Theorem 4.5); ingest maintains distributive entries
    /// incrementally (Algorithm 3.1).
    pub fn with_cuboid_cache(mut self, budget_bytes: usize) -> Self {
        self.cuboid_cache = Some(Arc::new(CuboidCache::new(budget_bytes)));
        self
    }

    /// Finish building: wrap in the `Arc` that sessions share.
    pub fn build(self) -> Arc<Self> {
        Arc::new(self)
    }

    // ----- accessors -----

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn strategy(&self) -> ProbeStrategy {
        self.strategy
    }

    pub fn prefilter(&self) -> bool {
        self.prefilter
    }

    pub fn morsel_size(&self) -> usize {
        self.morsel_size
    }

    pub fn max_morsel_retries(&self) -> u32 {
        self.max_morsel_retries
    }

    pub fn spill_policy(&self) -> SpillPolicy {
        self.spill
    }

    /// Configured spill directory, if any (`None` = system temp dir).
    pub fn spill_dir(&self) -> Option<&PathBuf> {
        self.spill_dir.as_ref()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cuboid result cache, if enabled.
    pub fn cuboid_cache(&self) -> Option<&Arc<CuboidCache>> {
        self.cuboid_cache.as_ref()
    }

    /// Attach the buffer pool that paged catalog tables are read through.
    /// Takes `&self` (interior mutability) so it can be called after
    /// [`build`](Self::build) — the daemon constructs the pool once its
    /// shared [`MemoryPool`](crate::governor::MemoryPool) exists, charging
    /// resident pages and query state to one budget.
    pub fn attach_buffer_pool(&self, pool: Arc<mdj_storage::BufferPool>) {
        *self
            .buffer_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(pool);
    }

    /// The shared buffer pool for paged tables, if one is attached.
    pub fn buffer_pool(&self) -> Option<Arc<mdj_storage::BufferPool>> {
        self.buffer_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Append `rows` to catalog table `table` (Algorithm 3.1 maintenance
    /// path). The batch is validated against the schema atomically — on any
    /// bad row nothing is appended — then folded into the resident cuboid
    /// cache: distributive entries are maintained in place, the rest are
    /// invalidated. In-flight queries keep reading the pre-append relation
    /// (copy-on-write at relation granularity).
    pub fn ingest(&self, table: &str, rows: Vec<Row>) -> Result<IngestReport> {
        let outcome = self.catalog.ingest(table, rows)?;
        let (cache_invalidated, cache_maintained) = match &self.cuboid_cache {
            Some(cache) => {
                let r = cache.on_ingest(&outcome, &self.registry);
                (r.invalidated, r.maintained)
            }
            None => (0, 0),
        };
        Ok(IngestReport {
            rows: outcome.appended.len(),
            version: outcome.version,
            cache_invalidated,
            cache_maintained,
        })
    }
}

/// The mutable, per-query half of the execution context: stats sink,
/// cancellation token, deadline, and memory tracker. One `QueryCtx` belongs
/// to exactly one query execution; sharing its `stats` or `memory` across
/// queries makes their counters bleed together (see
/// `tests/concurrent_sessions.rs` for the regression this caused).
#[derive(Debug, Clone, Default)]
pub struct QueryCtx {
    stats: Option<Arc<ScanStats>>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    memory: Option<Arc<MemoryTracker>>,
    #[cfg(feature = "fault-injection")]
    fault: Option<Arc<crate::fault::FaultInjector>>,
}

impl QueryCtx {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_stats(mut self, stats: Arc<ScanStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Give the query `budget` of wall-clock time from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Bound the estimated memory footprint with a fresh tracker.
    pub fn with_budget_bytes(mut self, budget: usize) -> Self {
        self.memory = Some(Arc::new(MemoryTracker::new(budget)));
        self
    }

    /// Attach an already-built tracker (e.g. one drawing its budget from a
    /// shared [`MemoryPool`](crate::governor::MemoryPool)).
    pub fn with_tracker(mut self, tracker: Arc<MemoryTracker>) -> Self {
        self.memory = Some(tracker);
        self
    }

    /// Attach a deterministic fault injector (robustness test harness).
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_injector(mut self, fault: Arc<crate::fault::FaultInjector>) -> Self {
        self.fault = Some(fault);
        self
    }

    pub fn stats(&self) -> Option<&Arc<ScanStats>> {
        self.stats.as_ref()
    }

    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    pub fn memory(&self) -> Option<&Arc<MemoryTracker>> {
        self.memory.as_ref()
    }
}

/// The evaluation context every operator consumes: one shared
/// [`EngineConfig`] plus one per-query [`QueryCtx`].
///
/// The default context uses the standard aggregate registry, the `Auto`
/// strategy, no stats collection, and no governor limits (no cancellation
/// token, no deadline, no memory budget).
///
/// For single-user use the fluent `with_*` methods keep working exactly as
/// before the split — each engine-side setter copies the config on write
/// (`Arc::make_mut`), so a context built inline never mutates a config
/// another session shares.
#[derive(Debug, Clone)]
pub struct ExecContext {
    engine: Arc<EngineConfig>,
    query: QueryCtx,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            engine: Arc::new(EngineConfig::default()),
            query: QueryCtx::default(),
        }
    }
}

impl ExecContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble a context from a shared engine config and a per-query half.
    /// This is the multi-tenant entry point: many threads call this against
    /// the same `Arc` without cloning registry or relations.
    pub fn from_parts(engine: Arc<EngineConfig>, query: QueryCtx) -> Self {
        ExecContext { engine, query }
    }

    /// The shared engine half.
    pub fn engine(&self) -> &Arc<EngineConfig> {
        &self.engine
    }

    /// The per-query half.
    pub fn query_ctx(&self) -> &QueryCtx {
        &self.query
    }

    fn engine_mut(&mut self) -> &mut EngineConfig {
        Arc::make_mut(&mut self.engine)
    }

    // ----- builder setters (engine half: copy-on-write) -----

    pub fn with_strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.engine_mut().strategy = strategy;
        self
    }

    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.engine_mut().registry = registry;
        self
    }

    /// Disable the operator-level Theorem 4.2 prefilter (ablation knob).
    pub fn without_prefilter(mut self) -> Self {
        self.engine_mut().prefilter = false;
        self
    }

    /// Set the morsel granularity (rows per task) for the parallel executor.
    pub fn with_morsel_size(mut self, rows: usize) -> Self {
        self.engine_mut().morsel_size = rows;
        self
    }

    /// Bound per-morsel panic retries (0 = fail on first panic).
    pub fn with_morsel_retries(mut self, retries: u32) -> Self {
        self.engine_mut().max_morsel_retries = retries;
        self
    }

    /// Choose whether budget-breach degradation may spill `R` partitions to
    /// disk (default: cost-based [`SpillPolicy::Auto`]).
    pub fn with_spill_policy(mut self, policy: SpillPolicy) -> Self {
        self.engine_mut().spill = policy;
        self
    }

    /// Directory for spill files (default: the system temp directory).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.engine_mut().spill_dir = Some(dir.into());
        self
    }

    // ----- builder setters (query half) -----

    pub fn with_stats(mut self, stats: Arc<ScanStats>) -> Self {
        self.query.stats = Some(stats);
        self
    }

    /// Attach a cancellation token (cancel it from any thread to stop the
    /// query at its next governor poll).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.query.cancel = Some(token);
        self
    }

    /// Give queries run under this context `budget` of wall-clock time from
    /// now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.query.deadline = Some(Instant::now() + budget);
        self
    }

    /// Bound the estimated memory footprint of base-table aggregate state
    /// and probe-index allocations. A breach degrades in-memory strategies
    /// into Theorem 4.1 partitioned evaluation (see `builder`).
    pub fn with_budget_bytes(mut self, budget: usize) -> Self {
        self.query.memory = Some(Arc::new(MemoryTracker::new(budget)));
        self
    }

    /// Attach a deterministic fault injector (robustness test harness).
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_injector(mut self, fault: Arc<crate::fault::FaultInjector>) -> Self {
        self.query.fault = Some(fault);
        self
    }

    // ----- explicit mutators (interactive shells re-arm between queries) -----

    /// Install or clear the cancellation token in place.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.query.cancel = token;
    }

    /// Install or clear the absolute deadline in place.
    pub fn set_deadline_at(&mut self, deadline: Option<Instant>) {
        self.query.deadline = deadline;
    }

    /// Install or clear the memory tracker in place.
    pub fn set_memory(&mut self, tracker: Option<Arc<MemoryTracker>>) {
        self.query.memory = tracker;
    }

    /// Swap the per-query half wholesale, keeping the shared engine.
    pub fn set_query_ctx(&mut self, query: QueryCtx) {
        self.query = query;
    }

    // ----- accessors (the sealed fields' public surface) -----

    pub fn registry(&self) -> &Registry {
        &self.engine.registry
    }

    /// The engine's cuboid result cache, if enabled.
    pub fn cuboid_cache(&self) -> Option<&Arc<CuboidCache>> {
        self.engine.cuboid_cache.as_ref()
    }

    /// The engine's shared buffer pool for paged tables, if attached.
    pub fn buffer_pool(&self) -> Option<Arc<mdj_storage::BufferPool>> {
        self.engine.buffer_pool()
    }

    /// Ingest through this context's engine (see [`EngineConfig::ingest`]),
    /// recording the batch and any cache invalidations on the context's
    /// [`ScanStats`] so they surface in EXPLAIN ANALYZE and stats snapshots.
    pub fn ingest(&self, table: &str, rows: Vec<Row>) -> Result<IngestReport> {
        let report = self.engine.ingest(table, rows)?;
        self.count(Counter::ingest_batches, 1);
        self.count(Counter::cache_invalidations, report.cache_invalidated);
        Ok(report)
    }

    pub fn strategy(&self) -> ProbeStrategy {
        self.engine.strategy
    }

    pub fn prefilter(&self) -> bool {
        self.engine.prefilter
    }

    pub fn morsel_size(&self) -> usize {
        self.engine.morsel_size
    }

    pub fn max_morsel_retries(&self) -> u32 {
        self.engine.max_morsel_retries
    }

    pub fn spill_policy(&self) -> SpillPolicy {
        self.engine.spill
    }

    pub fn stats(&self) -> Option<&Arc<ScanStats>> {
        self.query.stats.as_ref()
    }

    pub fn cancel(&self) -> Option<&CancelToken> {
        self.query.cancel.as_ref()
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.query.deadline
    }

    pub fn memory(&self) -> Option<&Arc<MemoryTracker>> {
        self.query.memory.as_ref()
    }

    #[cfg(feature = "fault-injection")]
    pub fn fault(&self) -> Option<&Arc<crate::fault::FaultInjector>> {
        self.query.fault.as_ref()
    }

    /// Resolved spill directory.
    pub(crate) fn spill_dir(&self) -> PathBuf {
        self.engine
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
    }

    /// Governor poll: fail fast with [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] if the query was cancelled or ran past
    /// its deadline. Free when neither limit is configured. Public so outer
    /// layers (plan executors, shells) can poll between operators at the same
    /// cost model as the strategies' internal polls.
    #[inline]
    pub fn check_interrupt(&self) -> Result<()> {
        if self.query.cancel.is_none() && self.query.deadline.is_none() {
            return Ok(());
        }
        self.count(Counter::cancel_polls, 1);
        if let Some(token) = &self.query.cancel {
            if token.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
        }
        if let Some(deadline) = &self.query.deadline {
            if Instant::now() >= *deadline {
                return Err(CoreError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Fault-injection hook at a morsel execution site. No-op without the
    /// `fault-injection` feature or with no injector armed.
    #[inline]
    #[allow(unused_variables)]
    pub(crate) fn fault_on_morsel(&self, morsel: usize) {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &self.query.fault {
            f.on_morsel(morsel);
        }
    }

    /// Fault-injection hook at a planner site (parse/compile/optimize):
    /// true = the SQL layer must fail the site with a typed error. Always
    /// compiled — callers in `mdj-sql`/`mdj-algebra` need no feature gate of
    /// their own; without the `fault-injection` feature this is a constant
    /// `false` the optimizer removes.
    #[inline]
    pub fn fault_should_fail_planner(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &self.query.fault {
            return f.should_fail_planner();
        }
        false
    }

    /// Record `n` against counter `c` of this query's [`ScanStats`]; a no-op
    /// when the query collects none.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        if let Some(s) = &self.query.stats {
            s.count(c, n);
        }
    }

    /// The fault hooks of page writes made on this query's behalf (its
    /// spill partitions): the armed injector's pager sites, or none.
    pub(crate) fn pager_faults(&self) -> Arc<dyn PagerFaults> {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &self.query.fault {
            return f.clone();
        }
        Arc::new(NoFaults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The shared half must be safe to hand to every worker thread.
    #[test]
    fn engine_config_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<EngineConfig>>();
        assert_send_sync::<ExecContext>();
    }

    #[test]
    fn builder_and_recording() {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_strategy(ProbeStrategy::NestedLoop)
            .with_stats(stats.clone());
        ctx.count(Counter::scans, 1);
        ctx.count(Counter::tuples_scanned, 10);
        ctx.count(Counter::probes, 5);
        ctx.count(Counter::updates, 2);
        assert_eq!(stats.scans(), 1);
        assert_eq!(stats.tuples_scanned(), 10);
        assert_eq!(stats.probes(), 5);
        assert_eq!(stats.updates(), 2);
    }

    #[test]
    fn recording_without_stats_is_a_noop() {
        let ctx = ExecContext::new();
        ctx.count(Counter::scans, 1); // must not panic
        assert!(ctx.stats().is_none());
    }

    #[test]
    fn interrupt_checks_report_typed_errors() {
        // No limits: free and Ok.
        assert!(ExecContext::new().check_interrupt().is_ok());
        // Cancelled token.
        let token = CancelToken::new();
        let ctx = ExecContext::new().with_cancel_token(token.clone());
        assert!(ctx.check_interrupt().is_ok());
        token.cancel();
        assert!(matches!(ctx.check_interrupt(), Err(CoreError::Cancelled)));
        // Expired deadline.
        let ctx = ExecContext::new().with_deadline(Duration::ZERO);
        assert!(matches!(
            ctx.check_interrupt(),
            Err(CoreError::DeadlineExceeded)
        ));
        // Generous deadline.
        let ctx = ExecContext::new().with_deadline(Duration::from_secs(3600));
        assert!(ctx.check_interrupt().is_ok());
    }

    #[test]
    fn interrupt_polls_are_counted() {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_stats(stats.clone())
            .with_cancel_token(CancelToken::new());
        ctx.check_interrupt().unwrap();
        ctx.check_interrupt().unwrap();
        assert_eq!(stats.cancel_polls(), 2);
        // Without limits, polling is skipped entirely (and not counted).
        let free = ExecContext::new().with_stats(stats.clone());
        free.check_interrupt().unwrap();
        assert_eq!(stats.cancel_polls(), 2);
    }

    #[test]
    fn context_is_cloneable_with_shared_governor_state() {
        let token = CancelToken::new();
        let ctx = ExecContext::new()
            .with_cancel_token(token.clone())
            .with_budget_bytes(1 << 20);
        let clone = ctx.clone();
        token.cancel();
        assert!(matches!(clone.check_interrupt(), Err(CoreError::Cancelled)));
        // The tracker is shared, not duplicated.
        ctx.memory().unwrap().try_charge(100).unwrap();
        assert_eq!(clone.memory().unwrap().charged(), 100);
    }

    #[test]
    fn clones_share_the_engine_config_allocation() {
        let cfg = EngineConfig::new().with_morsel_size(99).build();
        let a = ExecContext::from_parts(cfg.clone(), QueryCtx::new());
        let b = a.clone();
        assert!(Arc::ptr_eq(a.engine(), b.engine()));
        assert_eq!(b.morsel_size(), 99);
    }

    #[test]
    fn engine_side_setters_copy_on_write() {
        let cfg = EngineConfig::new().build();
        let shared = ExecContext::from_parts(cfg.clone(), QueryCtx::new());
        // A per-context override forks the config instead of mutating the
        // shared one.
        let forked = shared.clone().with_morsel_size(7).without_prefilter();
        assert_eq!(forked.morsel_size(), 7);
        assert!(!forked.prefilter());
        assert_eq!(shared.morsel_size(), DEFAULT_MORSEL_SIZE);
        assert!(shared.prefilter());
        assert_eq!(cfg.morsel_size(), DEFAULT_MORSEL_SIZE);
        assert!(!Arc::ptr_eq(shared.engine(), forked.engine()));
    }

    #[test]
    fn from_parts_exposes_catalog_and_query_halves() {
        use mdj_storage::{DataType, Relation, Schema};
        let rel = Relation::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        let cfg = EngineConfig::new()
            .register_table("T", rel)
            .with_spill_policy(SpillPolicy::Never)
            .build();
        let stats = Arc::new(ScanStats::new());
        let q = QueryCtx::new()
            .with_stats(stats.clone())
            .with_budget_bytes(1024);
        let ctx = ExecContext::from_parts(cfg.clone(), q);
        assert!(ctx.engine().catalog().contains("T"));
        assert_eq!(ctx.spill_policy(), SpillPolicy::Never);
        assert!(Arc::ptr_eq(ctx.stats().unwrap(), &stats));
        assert_eq!(ctx.memory().unwrap().budget(), 1024);
        assert!(ctx.query_ctx().cancel().is_none());
    }

    #[test]
    fn shell_mutators_rearm_in_place() {
        let mut ctx = ExecContext::new();
        let token = CancelToken::new();
        ctx.set_cancel_token(Some(token.clone()));
        ctx.set_deadline_at(Some(Instant::now() + Duration::from_secs(3600)));
        assert!(ctx.cancel().is_some() && ctx.deadline().is_some());
        ctx.set_cancel_token(None);
        ctx.set_deadline_at(None);
        assert!(ctx.cancel().is_none() && ctx.deadline().is_none());
        ctx.set_query_ctx(QueryCtx::new().with_cancel_token(token));
        assert!(ctx.cancel().is_some());
    }
}
