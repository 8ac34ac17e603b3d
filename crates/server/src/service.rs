//! The multi-tenant query service: sessions, prepared statements, and
//! governed execution over one shared [`EngineConfig`].
//!
//! A [`QueryService`] is transport-agnostic — the TCP front end in
//! [`server`](crate::server) and the in-process stress tests drive the same
//! object. One service holds:
//!
//! * one immutable `Arc<EngineConfig>` (registry, strategy, spill policy,
//!   catalog of `Arc`-shared, never-mutated relations) shared by every query
//!   thread;
//! * an [`AdmissionController`] deciding which queries may start;
//! * a session table mapping session ids to their prepared statements and
//!   the cancel tokens of in-flight queries.
//!
//! Every execution builds a *fresh* [`QueryCtx`] — new `ScanStats`, new
//! `CancelToken`, new pool-backed `MemoryTracker` — so no counter, token,
//! or budget is ever shared between queries (see the per-query isolation
//! regression tests).

use crate::admission::AdmissionController;
use crate::error::ServerError;
use crate::shutdown::{DrainReport, ShutdownController};
use mdj_core::governor::{CancelToken, MemoryPool};
use mdj_core::{CoreError, EngineConfig, ExecContext, IngestReport, QueryCtx};
use mdj_sql::{PreparedStatement, SqlEngine};
use mdj_storage::{Counter, Relation, Row, ScanStats, StatsSnapshot, SweepReport, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service-level policy: pool size, admission bounds, default limits.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Global memory pool capacity shared by all queries.
    pub pool_bytes: usize,
    /// Per-query budget when the client doesn't specify one.
    pub default_budget: usize,
    /// Max queries queued for admission before `QueueFull` shedding.
    pub max_waiters: usize,
    /// Max time a query waits for admission before `PoolExhausted`.
    pub admission_wait: Duration,
    /// Wall-clock deadline applied to queries that don't specify one.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool_bytes: 256 << 20,
            default_budget: 16 << 20,
            max_waiters: 32,
            admission_wait: Duration::from_millis(500),
            default_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// Per-execution overrides supplied by the client.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Memory budget in bytes (reserved from the pool at admission).
    pub budget: Option<usize>,
    /// Wall-clock deadline for this execution.
    pub deadline: Option<Duration>,
    /// Client-chosen tag identifying the query for mid-flight `cancel`.
    pub tag: Option<String>,
}

/// A successful query result plus its isolated per-query statistics.
///
/// `relation` is the `Arc` the engine answered with — for an identity
/// select list over a catalog table or a cached cuboid, the resident one —
/// so it is read, serialised once by [`wire`](crate::wire), and never
/// modified.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub relation: Arc<Relation>,
    pub stats: StatsSnapshot,
}

#[derive(Default)]
struct Session {
    statements: HashMap<u64, Arc<PreparedStatement>>,
    next_statement: u64,
    /// Cancel tokens of queries currently executing on behalf of this
    /// session, keyed by the client-supplied tag.
    running: HashMap<String, CancelToken>,
}

/// The shared, thread-safe query service.
pub struct QueryService {
    engine: Arc<EngineConfig>,
    admission: AdmissionController,
    config: ServiceConfig,
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
    /// Cancel tokens of *every* in-flight query (tagged or not), keyed by a
    /// monotone query id. This is what a drain cancels; the per-session tag
    /// map remains the client-facing `cancel` surface.
    running: Mutex<HashMap<u64, CancelToken>>,
    next_query: AtomicU64,
    shutdown: ShutdownController,
    /// What the startup crash-recovery sweep of the spill dir found.
    recovery: SweepReport,
    /// Lifetime counter totals: every query's snapshot is absorbed here
    /// however the query ended, and ingest batches are counted directly
    /// (per-query figures travel in each response's `stats` object).
    totals: ScanStats,
    /// Lifetime rows ingested (per-batch figures travel in each `ingest`
    /// response).
    ingest_rows: AtomicU64,
    /// Durable page store backing the catalog, when the daemon was started
    /// with `--data`. Ingest batches are appended here *before* the
    /// in-memory commit so restarts serve the same tables.
    paged_store: Mutex<Option<Arc<mdj_storage::PagedStore>>>,
    /// Held across a store-backed ingest's durable append, in-memory commit
    /// and re-attach, so disk and memory apply batches in one order.
    durable_ingest: Mutex<()>,
    #[cfg(feature = "fault-injection")]
    fault: Mutex<Option<Arc<mdj_core::FaultInjector>>>,
}

impl QueryService {
    pub fn new(engine: Arc<EngineConfig>, config: ServiceConfig) -> Self {
        let pool = Arc::new(MemoryPool::new(config.pool_bytes));
        // Cached cuboid bytes compete with query admission for the same
        // pool, so a hot cache cannot starve queries invisibly.
        if let Some(cache) = engine.cuboid_cache() {
            cache.attach_pool(pool.clone());
        }
        let admission = AdmissionController::new(
            pool,
            config.default_budget,
            config.admission_wait,
            config.max_waiters,
        );
        // Crash recovery: a SIGKILLed predecessor skipped its RAII spill
        // cleanup; sweep its orphaned spill files before serving anyone. A
        // sweep failure (e.g. an unreadable dir) must not block boot.
        let recovery = mdj_core::recover_spill_dir(&engine).unwrap_or_else(|e| {
            eprintln!("mdjd: spill recovery sweep failed: {e}");
            SweepReport::default()
        });
        QueryService {
            engine,
            admission,
            config,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            running: Mutex::new(HashMap::new()),
            next_query: AtomicU64::new(1),
            shutdown: ShutdownController::new(),
            recovery,
            totals: ScanStats::new(),
            ingest_rows: AtomicU64::new(0),
            paged_store: Mutex::new(None),
            durable_ingest: Mutex::new(()),
            #[cfg(feature = "fault-injection")]
            fault: Mutex::new(None),
        }
    }

    pub fn engine(&self) -> &Arc<EngineConfig> {
        &self.engine
    }

    pub fn pool(&self) -> &Arc<MemoryPool> {
        self.admission.pool()
    }

    /// The shared shutdown state (also observed by the TCP front end).
    pub fn shutdown(&self) -> &ShutdownController {
        &self.shutdown
    }

    /// What the startup crash-recovery sweep found in the spill directory.
    pub fn recovery_report(&self) -> SweepReport {
        self.recovery
    }

    /// Number of queries executing right now (tagged or not).
    pub fn running_query_count(&self) -> usize {
        self.lock_running().len()
    }

    /// Cancel every in-flight query; returns how many tokens were flipped.
    pub fn cancel_all_running(&self) -> usize {
        let running = self.lock_running();
        for token in running.values() {
            token.cancel();
        }
        running.len()
    }

    /// Graceful drain: stop admitting queries, wait for in-flight work up
    /// to `deadline`, cancel stragglers, and wait (bounded) for the memory
    /// pool to return to zero. Idempotent; safe to call from any thread.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        const POLL: Duration = Duration::from_millis(5);
        /// Bound on the post-cancel unwind and pool-drain waits: generous
        /// next to any governor poll interval, far from a CI hang.
        const GRACE: Duration = Duration::from_secs(10);

        self.shutdown.request();
        let in_flight_at_request = self.running_query_count();
        let start = Instant::now();
        while self.running_query_count() > 0 && start.elapsed() < deadline {
            std::thread::sleep(POLL);
        }
        let drained_in_time = self.running_query_count() == 0;
        let cancelled = if drained_in_time {
            0
        } else {
            self.cancel_all_running()
        };
        // Cancelled queries still need to unwind to their next governor
        // poll and release their grants; bound the wait so a wedged query
        // cannot hang shutdown.
        let grace = Instant::now();
        while self.running_query_count() > 0 && grace.elapsed() < GRACE {
            std::thread::sleep(POLL);
        }
        // Resident cuboid-cache entries hold pool grants by design; a drain
        // must hand those bytes back or the pool can never reach zero.
        if let Some(cache) = self.engine.cuboid_cache() {
            cache.clear();
        }
        let pool_wait = Instant::now();
        while (self.pool().reserved() > 0 || self.pool().waiters() > 0)
            && pool_wait.elapsed() < GRACE
        {
            std::thread::sleep(POLL);
        }
        DrainReport {
            in_flight_at_request,
            cancelled,
            drained_in_time,
            pool_reserved: self.pool().reserved(),
            pool_waiters: self.pool().waiters(),
            sessions: self.session_count(),
        }
    }

    /// Arm (or disarm) a deterministic fault injector consulted by every
    /// subsequent query and by the TCP front end's accept/read/write sites.
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_injector(&self, fault: Option<Arc<mdj_core::FaultInjector>>) {
        *self
            .fault
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = fault;
    }

    #[cfg(feature = "fault-injection")]
    fn fault_injector(&self) -> Option<Arc<mdj_core::FaultInjector>> {
        self.fault
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Fault hook for the acceptor (constant false without the feature).
    pub(crate) fn fault_server_accept(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = self.fault_injector() {
            return f.should_fail_server_accept();
        }
        false
    }

    /// Fault hook per request read (constant false without the feature).
    pub(crate) fn fault_server_read(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = self.fault_injector() {
            return f.should_fail_server_read();
        }
        false
    }

    /// Fault hook per response write (constant false without the feature).
    pub(crate) fn fault_server_write(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        if let Some(f) = self.fault_injector() {
            return f.should_fail_server_write();
        }
        false
    }

    /// Open a session; returns its id.
    pub fn open_session(&self) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.lock_sessions().insert(id, Session::default());
        id
    }

    /// Close a session, cancelling any queries still running under it.
    pub fn close_session(&self, session: u64) -> Result<(), ServerError> {
        let removed = self.lock_sessions().remove(&session);
        match removed {
            Some(s) => {
                for token in s.running.values() {
                    token.cancel();
                }
                Ok(())
            }
            None => Err(ServerError::UnknownSession(session)),
        }
    }

    pub fn session_count(&self) -> usize {
        self.lock_sessions().len()
    }

    /// Parse `sql` once and store it under the session. Returns the
    /// statement id and its `?`-parameter count.
    pub fn prepare(&self, session: u64, sql: &str) -> Result<(u64, usize), ServerError> {
        let stmt = Arc::new(PreparedStatement::parse(sql)?);
        let params = stmt.param_count();
        let mut sessions = self.lock_sessions();
        let s = sessions
            .get_mut(&session)
            .ok_or(ServerError::UnknownSession(session))?;
        s.next_statement += 1;
        let id = s.next_statement;
        s.statements.insert(id, stmt);
        Ok((id, params))
    }

    /// Drop a prepared statement.
    pub fn deallocate(&self, session: u64, statement: u64) -> Result<(), ServerError> {
        let mut sessions = self.lock_sessions();
        let s = sessions
            .get_mut(&session)
            .ok_or(ServerError::UnknownSession(session))?;
        s.statements
            .remove(&statement)
            .map(|_| ())
            .ok_or(ServerError::UnknownStatement(statement))
    }

    /// Execute a prepared statement with bound parameter values.
    pub fn execute(
        &self,
        session: u64,
        statement: u64,
        params: &[Value],
        opts: ExecOptions,
    ) -> Result<QueryOutcome, ServerError> {
        let stmt = {
            let sessions = self.lock_sessions();
            let s = sessions
                .get(&session)
                .ok_or(ServerError::UnknownSession(session))?;
            s.statements
                .get(&statement)
                .cloned()
                .ok_or(ServerError::UnknownStatement(statement))?
        };
        self.run(session, opts, |engine| {
            engine.execute_prepared(&stmt, params)
        })
    }

    /// Execute a one-shot SQL string (no preparation step).
    pub fn query(
        &self,
        session: u64,
        sql: &str,
        opts: ExecOptions,
    ) -> Result<QueryOutcome, ServerError> {
        if !self.lock_sessions().contains_key(&session) {
            return Err(ServerError::UnknownSession(session));
        }
        self.run(session, opts, |engine| engine.query(sql))
    }

    /// Append a validated batch of rows to a catalog table (Algorithm 3.1
    /// maintenance path). Cached cuboids over the table are incrementally
    /// maintained where distributive and dropped otherwise; in-flight
    /// queries keep reading the pre-append relation.
    pub fn ingest(
        &self,
        session: u64,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<IngestReport, ServerError> {
        if self.shutdown.is_requested() {
            return Err(ServerError::ShuttingDown);
        }
        if !self.lock_sessions().contains_key(&session) {
            return Err(ServerError::UnknownSession(session));
        }
        // Durable-first when a page store backs this table: if the disk
        // append fails (ENOSPC, injected fault) the batch is rejected whole
        // and the in-memory catalog never sees it, so a restart can never
        // serve *fewer* rows than clients were acknowledged.
        let store = self.paged_store();
        let durable = store.as_ref().filter(|s| s.table(table).is_some());
        // Two sessions could otherwise commit A,B to disk and B,A to memory,
        // and a paged plan, a resident plan and a restart would then sum
        // floats in different orders. In-memory tables take no lock.
        let _ordered = durable.map(|_| {
            self.durable_ingest
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        let rows = if let Some(s) = &durable {
            // Validate the whole batch against the live schema *before* the
            // durable append: disk and memory must reject the same batches,
            // and the store's append only checks arity, not types.
            let schema = self
                .engine
                .catalog()
                .get(table)
                .map_err(CoreError::from)?
                .schema()
                .clone();
            let mut staged = Relation::empty(schema);
            for row in rows {
                staged.push(row).map_err(CoreError::from)?;
            }
            let rows = staged.into_rows();
            s.append(table, &rows).map_err(CoreError::from)?;
            rows
        } else {
            rows
        };
        let report = self.engine.ingest(table, rows)?;
        if let Some(s) = &durable {
            // Re-attach the post-append handle so paged scans see the batch.
            if let Some(t) = s.table(table) {
                let _ = self.engine.catalog().attach_paged(table, t);
            }
        }
        self.totals.count(Counter::ingest_batches, 1);
        self.totals
            .count(Counter::cache_invalidations, report.cache_invalidated);
        self.ingest_rows
            .fetch_add(report.rows as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Attach the durable page store that backs this service's catalog
    /// (`mdjd --data`). Ingest batches for tables present in the store are
    /// appended durably before the in-memory commit.
    pub fn attach_paged_store(&self, store: Arc<mdj_storage::PagedStore>) {
        *self
            .paged_store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(store);
    }

    /// The attached durable page store, if any.
    pub fn paged_store(&self) -> Option<Arc<mdj_storage::PagedStore>> {
        self.paged_store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Lifetime rows ingested through this service (batches are the
    /// `ingest_batches` row of [`totals`](Self::totals)).
    pub fn ingest_rows(&self) -> u64 {
        self.ingest_rows.load(Ordering::Relaxed)
    }

    /// Lifetime counter totals over every query this service ran —
    /// failed, cancelled and shed-mid-flight ones included — plus its
    /// ingest batches.
    pub fn totals(&self) -> StatsSnapshot {
        self.totals.snapshot()
    }

    /// Cancel the running query tagged `tag` in `session`. Returns whether
    /// a running query was found (a `false` is not an error — the query may
    /// have already finished).
    pub fn cancel(&self, session: u64, tag: &str) -> Result<bool, ServerError> {
        let sessions = self.lock_sessions();
        let s = sessions
            .get(&session)
            .ok_or(ServerError::UnknownSession(session))?;
        match s.running.get(tag) {
            Some(token) => {
                token.cancel();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The admission + isolation + execution spine shared by `execute` and
    /// `query`.
    fn run(
        &self,
        session: u64,
        opts: ExecOptions,
        body: impl FnOnce(&SqlEngine) -> mdj_sql::Result<Arc<Relation>>,
    ) -> Result<QueryOutcome, ServerError> {
        // 0. A draining server admits nothing: shed before touching the
        //    pool so the drain's pool-at-zero invariant cannot regress.
        if self.shutdown.is_requested() {
            return Err(ServerError::ShuttingDown);
        }

        // 1. Admission: reserve the whole budget, or shed with a typed error.
        let tracker = self.admission.admit(opts.budget)?;

        // 2. Fresh per-query context: nothing here is shared with any other
        //    query, so stats and budgets cannot bleed across sessions.
        let stats = Arc::new(ScanStats::new());
        let token = CancelToken::new();
        let mut qctx = QueryCtx::new()
            .with_stats(stats.clone())
            .with_cancel_token(token.clone())
            .with_tracker(Arc::new(tracker));
        if let Some(d) = opts.deadline.or(self.config.default_deadline) {
            qctx = qctx.with_deadline(d);
        }
        #[cfg(feature = "fault-injection")]
        if let Some(f) = self.fault_injector() {
            qctx = qctx.with_fault_injector(f);
        }

        // 3a. Register the token in the service-wide in-flight registry so
        //     a drain can cancel it even when the client sent no tag. The
        //     guard deregisters on every exit path, panic included.
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.lock_running().insert(query_id, token.clone());
        let running = RunningGuard {
            service: self,
            query_id,
        };

        // 3b. Register the token for client-driven mid-flight cancellation,
        //     if tagged.
        let tag = opts.tag.clone();
        if let Some(t) = &tag {
            let mut sessions = self.lock_sessions();
            let s = sessions
                .get_mut(&session)
                .ok_or(ServerError::UnknownSession(session))?;
            s.running.insert(t.clone(), token.clone());
        }

        // 4. Execute over the shared engine config. The catalog clone copies
        //    a map of `Arc`s, and the plan layer lends those same `Arc`s to
        //    its operators (DESIGN §3.3): no table row is copied per query.
        let ctx = ExecContext::from_parts(self.engine.clone(), qctx);
        let engine = SqlEngine::with_context(self.engine.catalog().clone(), ctx);
        let result = body(&engine);

        // 5. Deregister, and unregister the tag, no matter how execution
        //    ended. A query cancelled before it deregistered answers
        //    `cancelled` instead of its rows: a drain counted it. One that
        //    had already failed keeps its own error.
        let cancelled = running.finish();
        if let Some(t) = &tag {
            if let Some(s) = self.lock_sessions().get_mut(&session) {
                s.running.remove(t);
            }
        }

        // 6. A query that failed still did its I/O: count it before `?`.
        let snapshot = stats.snapshot();
        self.totals.absorb(&snapshot);
        let relation = result?;
        if cancelled {
            return Err(ServerError::Core(CoreError::Cancelled));
        }
        Ok(QueryOutcome {
            relation,
            stats: snapshot,
        })
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Session>> {
        self.sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_running(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CancelToken>> {
        self.running
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Deregisters an in-flight query from the service-wide registry on every
/// exit path (success, typed error, or panic).
struct RunningGuard<'a> {
    service: &'a QueryService,
    query_id: u64,
}

impl RunningGuard<'_> {
    /// Deregister the query; true if its token was cancelled first. Read
    /// under the registry lock [`QueryService::cancel_all_running`] holds, so
    /// a drain's cancel either reached the query and is seen here, or finds
    /// it gone.
    fn finish(self) -> bool {
        let token = self.service.lock_running().remove(&self.query_id);
        token.is_some_and(|t| t.is_cancelled())
    }
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.service.lock_running().remove(&self.query_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_storage::{DataType, Schema};

    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let mk = |c: i64, m: i64, s: f64| {
            Row::from_values(vec![Value::Int(c), Value::Int(m), Value::Float(s)])
        };
        Relation::from_rows(
            schema,
            vec![
                mk(1, 1, 10.0),
                mk(1, 2, 30.0),
                mk(2, 1, 7.0),
                mk(2, 2, 50.0),
            ],
        )
    }

    fn service(config: ServiceConfig) -> QueryService {
        let engine = EngineConfig::new().register_table("Sales", sales()).build();
        QueryService::new(engine, config)
    }

    #[test]
    fn prepare_execute_lifecycle() {
        let svc = service(ServiceConfig::default());
        let sid = svc.open_session();
        let (stmt, params) = svc
            .prepare(
                sid,
                "select cust, sum(sale) from Sales where month = ? group by cust",
            )
            .unwrap();
        assert_eq!(params, 1);
        let out = svc
            .execute(sid, stmt, &[Value::Int(2)], ExecOptions::default())
            .unwrap();
        assert_eq!(out.relation.schema().names(), vec!["cust", "sum_sale"]);
        assert_eq!(out.relation.len(), 2);
        assert!(out.stats.tuples_scanned > 0);
        svc.deallocate(sid, stmt).unwrap();
        assert!(matches!(
            svc.execute(sid, stmt, &[Value::Int(2)], ExecOptions::default()),
            Err(ServerError::UnknownStatement(_))
        ));
        svc.close_session(sid).unwrap();
        assert!(matches!(
            svc.prepare(sid, "select count(*) from Sales"),
            Err(ServerError::UnknownSession(_))
        ));
    }

    #[test]
    fn a_cached_cuboid_is_answered_with_the_resident_relation_itself() {
        let engine = EngineConfig::new()
            .register_table("Sales", sales())
            .with_cuboid_cache(1 << 20)
            .build();
        let svc = QueryService::new(engine, ServiceConfig::default());
        let sid = svc.open_session();
        // A `dash-hot` statement: the select list is the cuboid's own
        // columns in order, so nothing stands between cache and wire.
        let sql = "select cust, month, sum(sale), count(*) from Sales group by cust, month";
        let run = |sql: &str| svc.query(sid, sql, ExecOptions::default()).unwrap();
        let (cold, warm) = (run(sql), run(sql));
        assert_eq!((cold.stats.cache_misses, warm.stats.cache_hits), (1, 1));
        assert!(Arc::ptr_eq(&cold.relation, &warm.relation));
        let before = cold.relation.rows().to_vec();

        // Reordering and truncating work on the projection's fresh copy:
        // the resident cuboid keeps its order and length.
        let top = run(&format!("{sql} order by sum_sale desc limit 1"));
        assert_eq!(top.stats.cache_hits, 1);
        assert_eq!(top.relation.len(), 1);
        assert_eq!(top.relation.rows()[0][2], Value::Float(50.0));
        assert!(!Arc::ptr_eq(&top.relation, &cold.relation));
        let again = run(sql);
        assert!(Arc::ptr_eq(&again.relation, &cold.relation));
        assert_eq!(again.relation.rows(), &before[..]);
    }

    #[test]
    fn pool_returns_to_zero_after_queries() {
        let svc = service(ServiceConfig::default());
        let sid = svc.open_session();
        for _ in 0..3 {
            svc.query(
                sid,
                "select cust, sum(sale) from Sales group by cust",
                ExecOptions::default(),
            )
            .unwrap();
        }
        assert_eq!(svc.pool().reserved(), 0);
    }

    #[test]
    fn oversized_budget_is_shed_with_typed_error() {
        let svc = service(ServiceConfig {
            pool_bytes: 1 << 20,
            ..ServiceConfig::default()
        });
        let sid = svc.open_session();
        let err = svc
            .query(
                sid,
                "select count(*) from Sales",
                ExecOptions {
                    budget: Some(2 << 20),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.code(), "pool_exhausted");
        assert!(err.is_shed());
        assert_eq!(svc.pool().reserved(), 0);
    }

    #[test]
    fn per_query_stats_are_isolated() {
        let svc = service(ServiceConfig::default());
        let sid = svc.open_session();
        let sql = "select cust, sum(sale) from Sales group by cust";
        let a = svc.query(sid, sql, ExecOptions::default()).unwrap();
        let b = svc.query(sid, sql, ExecOptions::default()).unwrap();
        // Identical queries see identical — not accumulating — counters.
        assert_eq!(a.stats.tuples_scanned, b.stats.tuples_scanned);
        assert_eq!(a.stats.updates, b.stats.updates);
    }

    #[test]
    fn failed_queries_still_reach_the_lifetime_totals() {
        use mdj_storage::{BufferPool, PagedStore};
        let dir = std::env::temp_dir().join(format!("mdj-service-totals-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // `big` overflows an i64 sum at the third row of a group, so a
        // `sum(big)` query fails mid-scan, after reading pages.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("big", DataType::Int)]);
        let rel = Relation::from_rows(
            schema,
            (0..64)
                .map(|i: i64| Row::from_values(vec![Value::Int(i % 2), Value::Int(i64::MAX / 2)]))
                .collect(),
        );
        let (store, _) = PagedStore::open(&dir).unwrap();
        let table = store.create_table("T", &rel, "cust", 256).unwrap();
        let engine = EngineConfig::new()
            .register_table("T", table.read_all(None).unwrap())
            .build();
        engine.catalog().attach_paged("T", table).unwrap();
        engine.attach_buffer_pool(BufferPool::new(64 * 1024));
        let svc = QueryService::new(engine, ServiceConfig::default());
        let sid = svc.open_session();

        // Cold pool: the failing query is the one that reads the pages.
        let err = svc
            .query(
                sid,
                "select cust, sum(big) from T group by cust",
                ExecOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err.code(), "execution_error", "{err}");
        let failed = svc.totals();
        assert!(failed.pages_read > 0, "{failed}");
        assert!(
            failed.bytes_read > 0 && failed.tuples_scanned > 0,
            "{failed}"
        );

        // A deadline that has already passed is detected by the first
        // governor poll; that poll (and whatever I/O preceded it) is counted.
        let err = svc
            .query(
                sid,
                "select count(*) from T",
                ExecOptions {
                    deadline: Some(Duration::from_nanos(1)),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded");
        let timed_out = svc.totals();
        assert!(timed_out.cancel_polls > failed.cancel_polls);

        // A successful query adds exactly its own snapshot.
        let ok = svc
            .query(sid, "select count(*) from T", ExecOptions::default())
            .unwrap();
        assert_eq!(
            svc.totals().tuples_scanned,
            timed_out.tuples_scanned + ok.stats.tuples_scanned
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_durable_ingests_apply_in_one_order_on_disk_and_in_memory() {
        use mdj_storage::PagedStore;
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join(format!("mdj-service-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = PagedStore::open(&dir).unwrap();
        // Large enough that an in-memory append under a reader's snapshot
        // is a copy other ingests queue behind.
        let mk = |c: i64, m: i64, s: f64| {
            Row::from_values(vec![Value::Int(c), Value::Int(m), Value::Float(s)])
        };
        let rows = (0..20_000).map(|i| mk(i % 7, i % 12, 1.0)).collect();
        let base = Relation::from_rows(sales().schema().clone(), rows);
        let table = store.create_table("Sales", &base, "cust", 1 << 16).unwrap();
        let engine = EngineConfig::new()
            .register_table("Sales", table.read_all(None).unwrap())
            .build();
        engine.catalog().attach_paged("Sales", table).unwrap();
        let svc = QueryService::new(engine, ServiceConfig::default());
        svc.attach_paged_store(Arc::clone(&store));
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            // Readers hold snapshots, as running queries do.
            for _ in 0..2 {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        std::hint::black_box(svc.engine().catalog().get("Sales").unwrap());
                    }
                });
            }
            let writers: Vec<_> = (0..4i64)
                .map(|w| {
                    let (svc, start) = (&svc, &start);
                    s.spawn(move || {
                        let sid = svc.open_session();
                        start.wait();
                        for i in 0..25 {
                            // Inexact sums: only one order gives these bits.
                            let row = mk(w, i, 0.1 * (w * 25 + i) as f64);
                            svc.ingest(sid, "Sales", vec![row]).unwrap();
                        }
                    })
                })
                .collect();
            for h in writers {
                h.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        let on_disk = store.table("Sales").unwrap().read_all(None).unwrap();
        let in_memory = svc.engine().catalog().get("Sales").unwrap();
        assert_eq!(on_disk.len(), 20_000 + 4 * 25);
        // `Value` equality on floats is `to_bits` equality.
        assert_eq!(on_disk.rows(), in_memory.rows());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_service_sheds_new_queries_and_reports_clean() {
        let svc = service(ServiceConfig::default());
        let sid = svc.open_session();
        let report = svc.drain(Duration::from_millis(100));
        assert!(report.drained_in_time);
        assert!(report.is_clean());
        assert_eq!(report.in_flight_at_request, 0);
        let err = svc
            .query(sid, "select count(*) from Sales", ExecOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), "shutting_down");
        assert_eq!(svc.pool().reserved(), 0);
    }

    #[test]
    fn drain_cancels_stragglers_past_the_deadline() {
        let svc = Arc::new(service(ServiceConfig {
            default_deadline: None,
            ..ServiceConfig::default()
        }));
        let sid = svc.open_session();
        let sql = "select cust, sum(sale) from Sales group by cust";
        let opts = ExecOptions::default;
        // Cancelled after its rows were built, before it deregistered: the
        // cancel counted it, so it is cancelled.
        let outcome = svc.run(sid, opts(), |engine| {
            let rows = engine.query(sql);
            assert_eq!(svc.cancel_all_running(), 1);
            rows
        });
        assert_eq!(outcome.unwrap_err().code(), "cancelled");
        // Failed before the cancel landed: the cancel counted it, but its
        // own error stands.
        let failed = |cancel: bool| {
            let outcome = svc.run(sid, opts(), |engine| {
                let rows = engine.query("select bogus from Sales group by cust");
                if cancel {
                    assert_eq!(svc.cancel_all_running(), 1);
                }
                rows
            });
            outcome.unwrap_err().code()
        };
        assert_ne!(failed(false), "cancelled");
        assert_eq!(failed(true), failed(false));
        // Deregistered first: no cancel reaches it, and its rows stand.
        svc.run(sid, opts(), |engine| engine.query(sql)).unwrap();
        assert_eq!(svc.cancel_all_running(), 0);
        // A straggler still running past the drain's deadline is cancelled,
        // counted, and answers `cancelled`.
        let (started, in_flight) = std::sync::mpsc::channel();
        let bg = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                svc.run(sid, opts(), |engine| {
                    started.send(()).unwrap();
                    loop {
                        engine.query(sql)?;
                    }
                })
            })
        };
        in_flight.recv().unwrap();
        let report = svc.drain(Duration::ZERO);
        let outcome = bg.join().unwrap();
        assert!(
            !report.drained_in_time && report.cancelled == 1,
            "{report:?}"
        );
        assert_eq!(outcome.unwrap_err().code(), "cancelled");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(svc.running_query_count(), 0);
    }

    #[test]
    fn recovery_report_is_exposed() {
        let svc = service(ServiceConfig::default());
        // The default engine spills to the system temp dir; the sweep ran
        // and found nothing of ours to remove (live files are kept).
        let _ = svc.recovery_report();
    }

    #[test]
    fn cancel_of_unknown_tag_reports_not_found() {
        let svc = service(ServiceConfig::default());
        let sid = svc.open_session();
        assert!(!svc.cancel(sid, "nope").unwrap());
        assert!(svc.cancel(999, "nope").is_err());
    }
}
