//! Cuboid result cache with Algorithm 3.1 incremental maintenance.
//!
//! Canonical MD-join cuboids — `MD(γ_dims(T), T, l, θ_dims)` over a catalog
//! table `T` with the per-dimension equi-match θ — are memoized under their
//! canonicalized `(B-definition, θ, l)` fingerprint. A repeat of the same
//! query is answered from the cached, finalized result relation; a *coarser*
//! query (its dims a subset of a cached cuboid's, its distributive
//! aggregates matched one-to-one by `(function, input)`) is answered by
//! rolling the cached cuboid up with Theorem 4.5's adapted list `l'`
//! (count → sum of counts, sum → sum of sums, min/max → themselves) instead
//! of rescanning the detail table.
//!
//! Validity is pointer-based: each entry holds a [`Weak`] reference to the
//! exact detail `Arc<Relation>` it was computed from, so replacing a table
//! wholesale can never serve stale results — the pointers simply stop
//! matching and the entry decays into a miss. Appends go through
//! [`CuboidCache::on_ingest`]: entries whose aggregate list is distributive
//! (`count`/`count(*)`/`sum`/`min`/`max`) are *maintained* in place by
//! folding the appended batch per Algorithm 3.1 — bit-identical to a
//! from-scratch recompute because the fold order (each group's retained
//! finalized value, then its batch rows in arrival order) is exactly the
//! serial scan's order — while entries with any other aggregate (e.g. `avg`,
//! whose finalized value is not a sufficient retained state) are dropped.
//! A fold costs the batch's groups, not the cuboid: the entry keeps a
//! group-key → row index (a [`KeyIndex`], exact on the key values), and the
//! touched cells are written through
//! `Arc::make_mut`, which copies the cuboid only while a reader still holds
//! the lent result (that reader keeps its pre-ingest rows).
//!
//! Capacity is a byte budget with LRU eviction. When a shared [`MemoryPool`]
//! is attached (the multi-tenant server does this), every resident entry
//! holds a [`PoolGrant`], so cached bytes compete with query admission
//! instead of hiding from the governor.

use crate::context::ExecContext;
use crate::error::Result;
use crate::governor::{MemoryPool, PoolGrant};
use mdj_agg::{AggInput, AggSpec, AggState, Registry};
use mdj_expr::Expr;
use mdj_storage::{IngestOutcome, KeyBuildHasher, KeyIndex, Relation, Row, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// θ for a canonical cuboid over `dims`: `⋀ᵢ B.dᵢ = R.dᵢ`. The plan layer
/// compares a candidate MD-join's θ against this shape to decide
/// cacheability. Owned-slice convenience over
/// [`basevalues::cuboid_theta`](crate::basevalues::cuboid_theta).
pub fn cuboid_theta(dims: &[String]) -> Expr {
    let refs: Vec<&str> = dims.iter().map(String::as_str).collect();
    crate::basevalues::cuboid_theta(&refs)
}

/// A canonical cacheable cuboid: `MD(γ_dims(table), table, aggs, θ_dims)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CuboidRequest {
    /// Catalog name of the detail table (also the base-derivation input).
    pub table: String,
    /// Grouping dimensions, in base-table column order (order is part of the
    /// identity — it fixes the result schema).
    pub dims: Vec<String>,
    /// The aggregate list `l`, with output aliases resolved.
    pub aggs: Vec<AggSpec>,
}

impl CuboidRequest {
    pub fn new(table: impl Into<String>, dims: Vec<String>, aggs: Vec<AggSpec>) -> Self {
        CuboidRequest {
            table: table.into(),
            dims,
            aggs,
        }
    }

    /// Canonical `(B, θ, l)` fingerprint. Dims and aggs keep their order;
    /// each agg is normalized to `function(input) as output` so spelling
    /// variants that produce the same column land on the same key.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "T={}|D=", self.table);
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(d);
        }
        s.push_str("|L=");
        for (i, a) in self.aggs.iter().enumerate() {
            if i > 0 {
                s.push(';');
            }
            let _ = match &a.input {
                AggInput::Star => write!(s, "{}(*) as {}", a.function, a.output_name()),
                AggInput::Column(c) => write!(s, "{}({c}) as {}", a.function, a.output_name()),
            };
        }
        s
    }
}

/// What a [`CuboidCache::lookup`] produced.
#[derive(Debug)]
pub enum CacheAnswer {
    /// The exact cuboid was resident; the stored result is returned as-is.
    Exact(Arc<Relation>),
    /// A finer cuboid was resident; the answer was rolled up from it via
    /// Theorem 4.5 without touching the detail table.
    Rollup(Arc<Relation>),
    /// Nothing usable was resident; the caller must execute and may
    /// [`insert`](CuboidCache::insert) the result.
    Miss,
}

/// Ingest outcome for the cache: how many entries were dropped vs folded
/// forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheIngestReport {
    /// Entries invalidated (non-distributive aggs, type surprises, overflow,
    /// or a stale detail pointer).
    pub invalidated: u64,
    /// Entries incrementally maintained (Algorithm 3.1 fold of the batch).
    pub maintained: u64,
}

/// Point-in-time cache figures for observability surfaces (`server stats`,
/// self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetricsSnapshot {
    pub hits: u64,
    pub rollup_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub maintained: u64,
    pub entries: u64,
    pub bytes: u64,
    pub budget_bytes: u64,
}

#[derive(Debug)]
struct CacheEntry {
    fingerprint: String,
    request: CuboidRequest,
    /// The exact detail relation this result was computed from (or folded
    /// forward to). Pointer identity is the validity test.
    detail: Weak<Relation>,
    result: Arc<Relation>,
    /// Group key (the result's dim prefix) → row index in `result`: a key's
    /// number is its row. Built by the first ingest fold and kept current by
    /// every later one; its bytes are part of `bytes` and of the grant.
    groups: Option<KeyIndex>,
    bytes: u64,
    last_used: u64,
    /// Reservation against the attached [`MemoryPool`], if any.
    grant: Option<PoolGrant>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<CacheEntry>,
    bytes: u64,
    tick: u64,
}

/// The cuboid cache. One per [`EngineConfig`](crate::EngineConfig); shared
/// (via `Arc`) by every per-query snapshot of the engine, so repeated
/// queries hit across sessions.
#[derive(Debug)]
pub struct CuboidCache {
    budget: u64,
    pool: OnceLock<Arc<MemoryPool>>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    rollup_hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    maintained: AtomicU64,
}

impl CuboidCache {
    /// A cache holding at most `budget_bytes` of finalized results.
    pub fn new(budget_bytes: usize) -> Self {
        CuboidCache {
            budget: budget_bytes as u64,
            pool: OnceLock::new(),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            rollup_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            maintained: AtomicU64::new(0),
        }
    }

    /// Charge resident entries against a shared pool from now on. Existing
    /// entries are not retroactively charged; first attach wins.
    pub fn attach_pool(&self, pool: Arc<MemoryPool>) {
        let _ = self.pool.set(pool);
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Bytes of finalized results (and the group indexes of maintained
    /// ones) currently resident.
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Drop every entry (returning all pool grants).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.bytes = 0;
    }

    pub fn metrics(&self) -> CacheMetricsSnapshot {
        let (entries, bytes) = {
            let inner = self.lock();
            (inner.entries.len() as u64, inner.bytes)
        };
        CacheMetricsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            rollup_hits: self.rollup_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            maintained: self.maintained.load(Ordering::Relaxed),
            entries,
            bytes,
            budget_bytes: self.budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Answer `req` from the cache if possible. `detail` must be the
    /// resolved catalog relation the query would scan — entries computed
    /// from any other version of the table cannot match.
    pub fn lookup(
        &self,
        req: &CuboidRequest,
        detail: &Arc<Relation>,
        ctx: &ExecContext,
    ) -> Result<CacheAnswer> {
        let fingerprint = req.fingerprint();
        // Phase 1 (under the lock): find an exact entry, or clone out the
        // best (smallest) rollup candidate. The Theorem 4.5 join itself runs
        // outside the lock — it can be slow and polls the governor.
        let candidate: Option<(Arc<Relation>, Vec<AggSpec>)> = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner
                .entries
                .iter_mut()
                .find(|e| e.fingerprint == fingerprint && weak_matches(&e.detail, detail))
            {
                e.last_used = tick;
                let result = e.result.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CacheAnswer::Exact(result));
            }
            let mut best: Option<usize> = None;
            for (i, e) in inner.entries.iter().enumerate() {
                if e.request.table == req.table
                    && weak_matches(&e.detail, detail)
                    && rollup_serves(req, &e.request, ctx.registry())
                {
                    let better = match best {
                        Some(j) => e.result.len() < inner.entries[j].result.len(),
                        None => true,
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            best.map(|i| {
                inner.entries[i].last_used = tick;
                (
                    inner.entries[i].result.clone(),
                    inner.entries[i].request.aggs.clone(),
                )
            })
        };
        match candidate {
            Some((finer, finer_aggs)) => {
                let rolled = Arc::new(roll_up(req, &finer, &finer_aggs, ctx)?);
                self.rollup_hits.fetch_add(1, Ordering::Relaxed);
                // The rolled-up cuboid becomes resident under its own
                // request: a repeat of this coarser query is then an exact
                // hit instead of re-running the Theorem 4.5 join each time.
                self.insert(req, detail, rolled.clone());
                Ok(CacheAnswer::Rollup(rolled))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(CacheAnswer::Miss)
            }
        }
    }

    /// Make `result` resident for `req` (replacing any same-fingerprint
    /// entry). The cache shares the caller's `Arc`; nothing is copied.
    /// Oversized results and pool-reservation failures degrade to a silent
    /// no-op that leaves every resident entry in place — caching is an
    /// optimization, never an error source.
    pub fn insert(&self, req: &CuboidRequest, detail: &Arc<Relation>, result: Arc<Relation>) {
        let bytes = approx_relation_bytes(&result);
        if bytes > self.budget {
            return;
        }
        // Reserve before touching any entry: an insert that cannot be
        // charged must not have replaced or evicted anything.
        let grant = match self.pool.get() {
            Some(pool) => match pool.try_reserve(bytes) {
                Ok(g) => Some(g),
                // The pool is tighter than our own budget right now; skip
                // caching rather than compete with query admission.
                Err(_) => return,
            },
            None => None,
        };
        let fingerprint = req.fingerprint();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(i) = inner
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)
        {
            let old = inner.entries.swap_remove(i);
            inner.bytes -= old.bytes;
        }
        self.evict_to_fit(&mut inner, bytes);
        inner.bytes += bytes;
        inner.entries.push(CacheEntry {
            fingerprint,
            request: req.clone(),
            detail: Arc::downgrade(detail),
            result,
            groups: None,
            bytes,
            last_used: tick,
            grant,
        });
        drop(inner);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    fn evict_to_fit(&self, inner: &mut Inner, incoming: u64) {
        while inner.bytes + incoming > self.budget && !inner.entries.is_empty() {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty entries have a minimum");
            let evicted = inner.entries.swap_remove(lru);
            inner.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold an ingest batch into the resident cuboids of the grown table.
    ///
    /// Distributive entries (`count`/`count(*)`/`sum`/`min`/`max`) are
    /// maintained per Algorithm 3.1 and re-pointed at the grown relation;
    /// everything else for this table is dropped. Any surprise mid-fold —
    /// typed overflow, a type mismatch, a vanished column — drops the entry
    /// instead of risking a wrong cached answer.
    pub fn on_ingest(&self, outcome: &IngestOutcome, registry: &Registry) -> CacheIngestReport {
        let mut report = CacheIngestReport::default();
        let mut inner = self.lock();
        let mut i = 0;
        while i < inner.entries.len() {
            let entry = &mut inner.entries[i];
            if entry.request.table != outcome.table {
                i += 1;
                continue;
            }
            let before = entry.bytes;
            // An entry pointed at neither the pre- nor post-ingest relation
            // is a leftover from an older replace: never servable again.
            let maintained = Weak::ptr_eq(&entry.detail, &outcome.old)
                && maintain_entry(entry, outcome, registry, self.budget).is_some();
            if maintained {
                let after = entry.bytes;
                inner.bytes = inner.bytes - before + after;
                report.maintained += 1;
                self.maintained.fetch_add(1, Ordering::Relaxed);
                i += 1;
            } else {
                inner.entries.swap_remove(i);
                inner.bytes -= before;
                report.invalidated += 1;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        report
    }
}

fn weak_matches(weak: &Weak<Relation>, arc: &Arc<Relation>) -> bool {
    weak.upgrade().is_some_and(|r| Arc::ptr_eq(&r, arc))
}

/// Estimated resident bytes of a finalized result relation.
fn approx_relation_bytes(rel: &Relation) -> u64 {
    rel.iter().map(|row| row_bytes(row.values())).sum()
}

/// One result row's share of [`approx_relation_bytes`].
fn row_bytes(values: &[Value]) -> u64 {
    let strs: u64 = values.iter().map(str_bytes).sum();
    (std::mem::size_of::<Row>() + std::mem::size_of_val(values)) as u64 + strs
}

fn str_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.len() as u64,
        _ => 0,
    }
}

/// Bytes one group is charged for a maintained cuboid's group index. The
/// figure predates the [`KeyIndex`], which also holds each column's distinct
/// values; it is kept so that cache eviction does not move (ROADMAP item 10
/// reconciles such estimates with the allocator).
const GROUP_INDEX_BYTES: u64 = 2 * std::mem::size_of::<(u64, usize)>() as u64;

/// Index `result`'s rows by their first `ndims` columns, a key's number
/// being its row; `None` if two rows share a key, which no group-by yields.
fn index_groups(result: &Relation, ndims: usize) -> Option<KeyIndex> {
    let mut index = KeyIndex::new(ndims);
    for row in result.iter() {
        index.insert(&row.values()[..ndims]).1.then_some(())?;
    }
    Some(index)
}

/// Can `req` be answered by rolling up the cached `entry` cuboid?
/// Requires: `req.dims ⊆ entry.dims` (as sets), every `req` aggregate
/// rollupable (Theorem 4.5) and matched in the entry by `(function, input)`.
fn rollup_serves(req: &CuboidRequest, entry: &CuboidRequest, registry: &Registry) -> bool {
    req.dims.iter().all(|d| entry.dims.contains(d))
        && !req.aggs.is_empty()
        && req.aggs.iter().all(|q| {
            let rollupable = matches!(
                registry.get(&q.function).map(|a| a.rollup_name()),
                Ok(Some(_))
            );
            rollupable
                && entry
                    .aggs
                    .iter()
                    .any(|e| e.function == q.function && e.input == q.input)
        })
}

/// Theorem 4.5: compute the coarser cuboid `req` from the finer cached
/// result, by MD-joining the finer cuboid onto its own distinct `req.dims`
/// with the adapted aggregate list `l'` reading the finer output columns, in
/// one scan that builds that base too.
fn roll_up(
    req: &CuboidRequest,
    finer: &Arc<Relation>,
    finer_aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<Relation> {
    let dims: Vec<&str> = req.dims.iter().map(String::as_str).collect();
    let mut adapted = Vec::with_capacity(req.aggs.len());
    for q in &req.aggs {
        let e = finer_aggs
            .iter()
            .find(|e| e.function == q.function && e.input == q.input)
            .ok_or_else(|| {
                crate::error::CoreError::Internal(
                    "rollup candidate lost its matching aggregate".into(),
                )
            })?;
        let rollup = ctx
            .registry()
            .get(&q.function)?
            .rollup_name()
            .ok_or_else(|| mdj_agg::AggError::NotRollupable(q.function.clone()))?;
        adapted.push(AggSpec::on_column(rollup, e.output_name()).with_alias(q.output_name()));
    }
    crate::builder::MdJoin::group_by(crate::executor::DetailSource::Resident(finer), &dims, None)
        .aggs(&adapted)
        .theta(cuboid_theta(&req.dims))
        .run(ctx)
}

/// Per-aggregate maintenance strategy for the ingest fold.
enum Slot {
    /// `count` / `count(*)`: a batch delta added to the retained `Int`
    /// count with overflow checking. (`input = None` ⇔ `count(*)`, which
    /// counts NULLs too.)
    Count { input: Option<usize>, delta: i64 },
    /// `sum` / `min` / `max`: a state seeded with the retained finalized
    /// value (for these, finalized output *is* sufficient state), then fed
    /// the group's batch values in arrival order — the exact fold order a
    /// serial recompute would use.
    Seeded {
        input: usize,
        state: Box<dyn AggState>,
    },
}

enum SlotKind {
    Count { input: Option<usize> },
    Seeded { input: usize },
}

/// One batch group's pending change to a maintained cuboid.
struct GroupFold {
    /// Row of the resident cuboid this group extends; `None` for a group new
    /// to the base.
    target: Option<usize>,
    /// A new group's key (empty for a retained one).
    key: Vec<Value>,
    slots: Vec<Slot>,
}

/// Fold `outcome.appended` into `entry` in place per Algorithm 3.1 and
/// re-point it at the grown relation. `None` means the entry cannot be
/// maintained safely (or no longer fits) and must be dropped; nothing of
/// the batch has been written to its result in that case.
fn maintain_entry(
    entry: &mut CacheEntry,
    outcome: &IngestOutcome,
    registry: &Registry,
    budget: u64,
) -> Option<()> {
    let req = &entry.request;
    let schema = outcome.new.schema();
    let dim_names: Vec<&str> = req.dims.iter().map(String::as_str).collect();
    let dim_idx = schema.indices_of(&dim_names).ok()?;
    // Resolve each aggregate's strategy up front; any non-distributive or
    // unresolvable spec makes the whole entry unmaintainable.
    let mut kinds = Vec::with_capacity(req.aggs.len());
    for spec in &req.aggs {
        let distributive = matches!(
            registry.get(&spec.function).map(|a| a.rollup_name()),
            Ok(Some(_))
        );
        if !distributive {
            return None;
        }
        let input = match spec.input.column() {
            Some(c) => Some(schema.index_of(c).ok()?),
            None => None,
        };
        match spec.function.as_str() {
            "count" | "count(*)" => kinds.push(SlotKind::Count { input }),
            "sum" | "min" | "max" => kinds.push(SlotKind::Seeded { input: input? }),
            // A distributive UDAF we don't know to be seedable from its
            // finalized value: refuse rather than guess.
            _ => return None,
        }
    }
    let ndims = req.dims.len();
    let mut bytes = entry.bytes;
    // Existing groups by their dim prefix (the result's first `ndims`
    // columns, in request order): indexed once, on the first fold.
    let result = &entry.result;
    if entry.groups.is_none() {
        entry.groups = Some(index_groups(result, ndims)?);
        bytes += result.len() as u64 * GROUP_INDEX_BYTES;
    }
    let groups = entry.groups.as_mut()?;
    // Fold the batch in arrival order. `folds` keeps first-touch order: a
    // serial recompute appends the groups new to the base in exactly that
    // order, and the index numbers them in it too, so a new group's number
    // is the row it is appended as. (A refused fold drops the entry, and the
    // keys the index took with it.)
    let mut folds: Vec<GroupFold> = Vec::new();
    // Group number → its fold.
    let mut touched: HashMap<u32, usize, KeyBuildHasher> = HashMap::default();
    for row in &outcome.appended {
        let (group, new) = groups.insert(dim_idx.iter().map(|&i| &row[i]));
        let at = match touched.get(&group) {
            Some(&at) => at,
            None => {
                let target = (!new).then_some(group as usize);
                let key = match new {
                    true => dim_idx.iter().map(|&i| row[i].clone()).collect(),
                    false => Vec::new(),
                };
                let mut slots = Vec::with_capacity(kinds.len());
                for (j, kind) in kinds.iter().enumerate() {
                    slots.push(match kind {
                        SlotKind::Count { input } => Slot::Count {
                            input: *input,
                            delta: 0,
                        },
                        SlotKind::Seeded { input } => {
                            let mut state = registry.get(&req.aggs[j].function).ok()?.init();
                            if let Some(i) = target {
                                // Seed with the retained finalized value; NULL
                                // (empty group so far) seeds nothing, matching
                                // a fresh state.
                                state.update(&result.rows()[i][ndims + j]).ok()?;
                            }
                            Slot::Seeded {
                                input: *input,
                                state,
                            }
                        }
                    });
                }
                touched.insert(group, folds.len());
                folds.push(GroupFold { target, key, slots });
                folds.len() - 1
            }
        };
        for slot in folds[at].slots.iter_mut() {
            match slot {
                Slot::Count { input, delta } => {
                    let counts = match input {
                        Some(i) => row[*i] != Value::Null,
                        None => true,
                    };
                    if counts {
                        *delta += 1;
                    }
                }
                Slot::Seeded { input, state } => state.update(&row[*input]).ok()?,
            }
        }
    }
    // Finalize every touched cell before any is written, so an overflow or a
    // type surprise refuses the whole batch with the result untouched.
    let mut patches: Vec<(Option<usize>, Vec<Value>)> = Vec::with_capacity(folds.len());
    for GroupFold { target, key, slots } in folds {
        match target {
            Some(i) => {
                let retained = &result.rows()[i].values()[ndims..];
                let mut cells = Vec::with_capacity(slots.len());
                for (slot, old) in slots.iter().zip(retained) {
                    let cell = finalize_slot(slot, Some(old))?;
                    bytes = bytes + str_bytes(&cell) - str_bytes(old);
                    cells.push(cell);
                }
                patches.push((Some(i), cells));
            }
            None => {
                let mut vals = key;
                for slot in &slots {
                    vals.push(finalize_slot(slot, None)?);
                }
                bytes += row_bytes(&vals) + GROUP_INDEX_BYTES;
                patches.push((None, vals));
            }
        }
    }
    // Charge the growth (the index included) before committing to it.
    if bytes > budget {
        return None;
    }
    if let Some(grant) = entry.grant.as_mut() {
        grant.resize(bytes).ok()?;
    }
    // Apply: retained rows get their aggregate columns overwritten, new
    // groups are appended in first-touch order. A reader still holding the
    // lent cuboid makes this a copy, and keeps the rows it was lent.
    let rows = Arc::make_mut(&mut entry.result).rows_mut();
    for (target, vals) in patches {
        match target {
            Some(i) => {
                for (cell, v) in rows[i].values_mut()[ndims..].iter_mut().zip(vals) {
                    *cell = v;
                }
            }
            None => rows.push(Row::new(vals)),
        }
    }
    debug_assert_eq!(rows.len(), groups.len(), "a group's number is its row");
    entry.bytes = bytes;
    entry.detail = Arc::downgrade(&outcome.new);
    Some(())
}

/// Final value of one maintained aggregate column. `retained` is the
/// pre-ingest finalized value for existing groups (`None` for new groups).
fn finalize_slot(slot: &Slot, retained: Option<&Value>) -> Option<Value> {
    match slot {
        Slot::Count { delta, .. } => {
            let old = match retained {
                Some(Value::Int(n)) => *n,
                None => 0,
                // A count column that isn't Int means the entry predates a
                // semantics change; refuse.
                Some(_) => return None,
            };
            old.checked_add(*delta).map(Value::Int)
        }
        Slot::Seeded { state, .. } => Some(state.finalize()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basevalues;
    use crate::builder::{ExecStrategy, MdJoin};
    use mdj_storage::{Catalog, DataType, Schema};

    fn sales_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::from_values(vec![
                    Value::Int(i % 3),
                    Value::Int(i % 4),
                    Value::str(if i % 2 == 0 { "NY" } else { "NJ" }),
                    Value::Int(i * 7),
                ])
            })
            .collect()
    }

    fn sales_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Int),
        ])
    }

    fn sales(n: i64) -> Relation {
        Relation::from_rows(sales_schema(), sales_rows(n))
    }

    fn cuboid(rel: &Relation, dims: &[&str], aggs: &[AggSpec]) -> Relation {
        let b = basevalues::group_by(rel, dims).unwrap();
        let dims: Vec<String> = dims.iter().map(|s| s.to_string()).collect();
        MdJoin::new(&b, rel)
            .aggs(aggs)
            .theta(cuboid_theta(&dims))
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap()
    }

    fn req(dims: &[&str], aggs: &[AggSpec]) -> CuboidRequest {
        CuboidRequest::new(
            "Sales",
            dims.iter().map(|s| s.to_string()).collect(),
            aggs.to_vec(),
        )
    }

    #[test]
    fn exact_hit_round_trips_the_stored_relation() {
        let detail = Arc::new(sales(60));
        let aggs = vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let result = Arc::new(cuboid(&detail, &["cust"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        let r = req(&["cust"], &aggs);
        let ctx = ExecContext::new();
        assert!(matches!(
            cache.lookup(&r, &detail, &ctx).unwrap(),
            CacheAnswer::Miss
        ));
        cache.insert(&r, &detail, result.clone());
        match cache.lookup(&r, &detail, &ctx).unwrap() {
            CacheAnswer::Exact(got) => assert!(Arc::ptr_eq(&got, &result)),
            other => panic!("expected exact hit, got {other:?}"),
        }
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.insertions), (1, 1, 1));
        assert!(m.bytes > 0 && m.entries == 1);
    }

    #[test]
    fn detail_pointer_mismatch_is_a_miss() {
        let detail = Arc::new(sales(60));
        let aggs = vec![AggSpec::count_star()];
        let result = Arc::new(cuboid(&detail, &["cust"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        let r = req(&["cust"], &aggs);
        cache.insert(&r, &detail, result);
        // Same data, different allocation: must not serve.
        let other = Arc::new(sales(60));
        assert!(matches!(
            cache.lookup(&r, &other, &ExecContext::new()).unwrap(),
            CacheAnswer::Miss
        ));
    }

    #[test]
    fn rollup_hit_matches_direct_computation() {
        let detail = Arc::new(sales(120));
        let aggs = vec![
            AggSpec::on_column("sum", "sale").with_alias("total"),
            AggSpec::count_star().with_alias("n"),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ];
        let fine = Arc::new(cuboid(&detail, &["cust", "month"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        cache.insert(&req(&["cust", "month"], &aggs), &detail, fine);
        // Coarser query: same aggs (different aliases allowed), fewer dims.
        let coarse_aggs = vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::count_star(),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ];
        let r = req(&["cust"], &coarse_aggs);
        let ctx = ExecContext::new();
        let rolled = match cache.lookup(&r, &detail, &ctx).unwrap() {
            CacheAnswer::Rollup(rel) => rel,
            other => panic!("expected rollup hit, got {other:?}"),
        };
        let direct = cuboid(&detail, &["cust"], &coarse_aggs);
        assert_eq!(direct.rows(), rolled.rows());
        assert_eq!(direct.schema().names(), rolled.schema().names());
        assert_eq!(cache.metrics().rollup_hits, 1);
    }

    #[test]
    fn avg_never_serves_rollups() {
        let detail = Arc::new(sales(60));
        let aggs = vec![AggSpec::on_column("avg", "sale")];
        let fine = Arc::new(cuboid(&detail, &["cust", "month"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        cache.insert(&req(&["cust", "month"], &aggs), &detail, fine);
        let ctx = ExecContext::new();
        assert!(matches!(
            cache.lookup(&req(&["cust"], &aggs), &detail, &ctx).unwrap(),
            CacheAnswer::Miss
        ));
        // But the exact shape still hits.
        assert!(matches!(
            cache
                .lookup(&req(&["cust", "month"], &aggs), &detail, &ctx)
                .unwrap(),
            CacheAnswer::Exact(_)
        ));
    }

    #[test]
    fn ingest_maintains_distributive_entries_bit_identically() {
        let mut catalog = Catalog::new();
        catalog.register("Sales", sales(60));
        let aggs = vec![
            AggSpec::on_column("sum", "sale").with_alias("total"),
            AggSpec::count_star().with_alias("n"),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
            AggSpec::on_column("count", "sale").with_alias("nn"),
        ];
        let detail = catalog.get("Sales").unwrap();
        let result = Arc::new(cuboid(&detail, &["cust", "month"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        let r = req(&["cust", "month"], &aggs);
        cache.insert(&r, &detail, result);
        // Ingest a batch that extends existing groups AND creates new ones
        // (cust=7 never appeared).
        let mut batch = sales_rows(10);
        batch.push(Row::from_values(vec![
            Value::Int(7),
            Value::Int(0),
            Value::str("CT"),
            Value::Int(-5),
        ]));
        let outcome = catalog.ingest("Sales", batch).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (1, 0));
        // The maintained entry now answers for the grown relation, exactly.
        let ctx = ExecContext::new();
        let got = match cache.lookup(&r, &outcome.new, &ctx).unwrap() {
            CacheAnswer::Exact(rel) => rel,
            other => panic!("expected exact hit after maintenance, got {other:?}"),
        };
        let recomputed = cuboid(&outcome.new, &["cust", "month"], &aggs);
        assert_eq!(recomputed.rows(), got.rows());
        // And the pre-ingest pointer no longer matches.
        assert!(matches!(
            cache.lookup(&r, &detail, &ctx).unwrap(),
            CacheAnswer::Miss
        ));
    }

    /// `Sales` with a float measure whose sums depend on fold order.
    fn float_sales(range: std::ops::Range<i64>) -> Vec<Row> {
        range
            .map(|i| {
                Row::from_values(vec![
                    Value::Int(i % 5),
                    Value::str(if i % 3 == 0 { "NY" } else { "NJ" }),
                    Value::Float(0.1 * (i as f64) + 1e-3 / (1.0 + i as f64)),
                ])
            })
            .collect()
    }

    fn float_catalog(n: i64) -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mut catalog = Catalog::new();
        catalog.register("Sales", Relation::from_rows(schema, float_sales(0..n)));
        catalog
    }

    fn bits(rel: &Relation) -> Vec<Vec<Option<u64>>> {
        let cell = |v: &Value| v.as_float().map(f64::to_bits);
        rel.iter()
            .map(|row| row.values().iter().map(cell).collect())
            .collect()
    }

    #[test]
    fn folds_happen_in_place_and_stay_bit_identical_to_a_recompute() {
        let catalog = float_catalog(40);
        let aggs = vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("min", "state"),
            AggSpec::count_star(),
        ];
        let r = req(&["cust", "state"], &aggs);
        let cache = CuboidCache::new(1 << 20);
        let pool = Arc::new(MemoryPool::new(1 << 20));
        cache.attach_pool(pool.clone());
        let ctx = ExecContext::new();
        let first_row = {
            let detail = catalog.get("Sales").unwrap();
            let result = Arc::new(cuboid(&detail, &["cust", "state"], &aggs));
            let at = result.rows()[0].values().as_ptr();
            cache.insert(&r, &detail, result);
            at
        };
        let unindexed = cache.bytes();
        // Nobody holds the table or the cuboid across these batches; the
        // last one also opens groups the base never had (cust 5, 6).
        for (lo, hi) in [(40, 47), (47, 48), (48, 90)] {
            let mut batch = float_sales(lo..hi);
            if hi == 90 {
                batch.push(Row::from_values(vec![
                    Value::Int(6),
                    Value::str("CT"),
                    Value::Null,
                ]));
                batch.push(Row::from_values(vec![
                    Value::Int(5),
                    Value::str("CT"),
                    Value::Float(-0.5),
                ]));
            }
            let outcome = catalog.ingest("Sales", batch).unwrap();
            let report = cache.on_ingest(&outcome, &Registry::standard());
            assert_eq!((report.maintained, report.invalidated), (1, 0));
            let got = match cache.lookup(&r, &outcome.new, &ctx).unwrap() {
                CacheAnswer::Exact(rel) => rel,
                other => panic!("expected exact hit after maintenance, got {other:?}"),
            };
            let recomputed = cuboid(&outcome.new, &["cust", "state"], &aggs);
            assert_eq!(recomputed.rows(), got.rows());
            assert_eq!(bits(&recomputed), bits(&got));
            // Row 0's value buffer never moved: the cuboid was not copied.
            assert_eq!(got.rows()[0].values().as_ptr(), first_row);
            // The retained index is charged, to the cache and to the pool.
            let index = got.len() as u64 * GROUP_INDEX_BYTES;
            assert_eq!(cache.bytes(), approx_relation_bytes(&got) + index);
            assert_eq!(pool.reserved(), cache.bytes());
        }
        assert!(cache.bytes() > unindexed);
        cache.clear();
        assert_eq!((cache.bytes(), pool.reserved()), (0, 0));
    }

    #[test]
    fn a_reader_holding_a_lent_cuboid_keeps_its_pre_ingest_rows() {
        let catalog = float_catalog(30);
        let aggs = vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let r = req(&["cust"], &aggs);
        let cache = CuboidCache::new(1 << 20);
        let ctx = ExecContext::new();
        let lent = {
            let detail = catalog.get("Sales").unwrap();
            cache.insert(&r, &detail, Arc::new(cuboid(&detail, &["cust"], &aggs)));
            match cache.lookup(&r, &detail, &ctx).unwrap() {
                CacheAnswer::Exact(rel) => rel,
                other => panic!("expected exact hit, got {other:?}"),
            }
        };
        let before = (*lent).clone();
        let outcome = catalog.ingest("Sales", float_sales(30..45)).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (1, 0));
        // The reader's answer is the one it was lent...
        assert_eq!(lent.rows(), before.rows());
        assert_eq!(bits(&lent), bits(&before));
        // ...and the cache serves the folded copy.
        let got = match cache.lookup(&r, &outcome.new, &ctx).unwrap() {
            CacheAnswer::Exact(rel) => rel,
            other => panic!("expected exact hit after maintenance, got {other:?}"),
        };
        assert!(!Arc::ptr_eq(&got, &lent));
        assert_eq!(bits(&cuboid(&outcome.new, &["cust"], &aggs)), bits(&got));
    }

    #[test]
    fn a_refused_fold_drops_the_entry_and_writes_no_cell() {
        let mut catalog = Catalog::new();
        catalog.register("Sales", sales(12));
        let aggs = vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::count_star().with_alias("n"),
        ];
        let r = req(&["cust"], &aggs);
        let ctx = ExecContext::new();
        let pool = Arc::new(MemoryPool::new(1 << 20));
        // A batch touching cust 0 and then cust 1.
        let batch = || sales_rows(2);

        // Overflow: cust 1's retained count cannot absorb one more row.
        let cache = CuboidCache::new(1 << 20);
        cache.attach_pool(pool.clone());
        let detail = catalog.get("Sales").unwrap();
        let mut full = cuboid(&detail, &["cust"], &aggs);
        full.rows_mut()[1].values_mut()[2] = Value::Int(i64::MAX);
        cache.insert(&r, &detail, Arc::new(full.clone()));
        let lent = match cache.lookup(&r, &detail, &ctx).unwrap() {
            CacheAnswer::Exact(rel) => rel,
            other => panic!("expected exact hit, got {other:?}"),
        };
        drop(detail);
        let outcome = catalog.ingest("Sales", batch()).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (0, 1));
        assert!(cache.is_empty());
        assert_eq!((cache.bytes(), pool.reserved()), (0, 0));
        // cust 0 folded cleanly before cust 1 overflowed; neither was
        // written, and no copy was made to write them into.
        assert_eq!(lent.rows(), full.rows());
        assert_eq!(Arc::strong_count(&lent), 1);

        // Type surprise: a retained count cell that is not an `Int`.
        let detail = catalog.get("Sales").unwrap();
        let mut odd = cuboid(&detail, &["cust"], &aggs);
        odd.rows_mut()[1].values_mut()[2] = Value::str("many");
        cache.insert(&r, &detail, Arc::new(odd));
        drop(detail);
        let outcome = catalog.ingest("Sales", batch()).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (0, 1));
        assert_eq!((cache.len(), cache.bytes(), pool.reserved()), (0, 0, 0));

        // A cuboid whose rows repeat a group key cannot be indexed by row.
        let detail = catalog.get("Sales").unwrap();
        let mut twice = cuboid(&detail, &["cust"], &aggs);
        let first = twice.rows()[0].clone();
        twice.push_unchecked(first);
        cache.insert(&r, &detail, Arc::new(twice));
        drop(detail);
        let outcome = catalog.ingest("Sales", batch()).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (0, 1));
        assert_eq!((cache.len(), cache.bytes(), pool.reserved()), (0, 0, 0));
    }

    #[test]
    fn ingest_drops_non_distributive_entries() {
        let mut catalog = Catalog::new();
        catalog.register("Sales", sales(40));
        let aggs = vec![AggSpec::on_column("avg", "sale")];
        let detail = catalog.get("Sales").unwrap();
        let result = Arc::new(cuboid(&detail, &["cust"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        cache.insert(&req(&["cust"], &aggs), &detail, result);
        let outcome = catalog.ingest("Sales", sales_rows(5)).unwrap();
        let report = cache.on_ingest(&outcome, &Registry::standard());
        assert_eq!((report.maintained, report.invalidated), (0, 1));
        assert!(cache.is_empty());
        assert_eq!(cache.metrics().invalidations, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let detail = Arc::new(sales(200));
        let aggs = vec![AggSpec::count_star()];
        let big = Arc::new(cuboid(&detail, &["cust", "month"], &aggs));
        let budget = approx_relation_bytes(&big) + 64; // fits ~one entry
        let cache = CuboidCache::new(budget as usize);
        cache.insert(&req(&["cust", "month"], &aggs), &detail, big);
        assert_eq!(cache.len(), 1);
        let second = Arc::new(cuboid(&detail, &["cust"], &aggs));
        cache.insert(&req(&["cust"], &aggs), &detail, second);
        // First entry was evicted to make room.
        assert_eq!(cache.len(), 1);
        assert!(cache.metrics().evictions >= 1);
        assert!(cache.bytes() <= budget);
        assert!(matches!(
            cache
                .lookup(
                    &req(&["cust", "month"], &aggs),
                    &detail,
                    &ExecContext::new()
                )
                .unwrap(),
            CacheAnswer::Miss
        ));
    }

    #[test]
    fn pool_grants_charge_and_release() {
        let detail = Arc::new(sales(100));
        let aggs = vec![AggSpec::count_star()];
        let result = Arc::new(cuboid(&detail, &["cust"], &aggs));
        let cache = CuboidCache::new(1 << 20);
        let pool = Arc::new(MemoryPool::new(1 << 20));
        cache.attach_pool(pool.clone());
        cache.insert(&req(&["cust"], &aggs), &detail, result);
        assert_eq!(pool.reserved(), cache.bytes());
        cache.clear();
        assert_eq!(pool.reserved(), 0);
    }

    #[test]
    fn an_insert_the_pool_refuses_leaves_the_cache_as_it_was() {
        let detail = Arc::new(sales(200));
        let aggs = vec![AggSpec::count_star()];
        let small = Arc::new(cuboid(&detail, &["cust"], &aggs));
        let big = Arc::new(cuboid(&detail, &["cust", "month"], &aggs));
        let (small_bytes, big_bytes) = (approx_relation_bytes(&small), approx_relation_bytes(&big));
        // The cache's own budget fits only one of the two, so a successful
        // insert of `big` would evict `small`; the pool fits only `small`.
        let cache = CuboidCache::new(big_bytes as usize);
        let pool = Arc::new(MemoryPool::new((small_bytes + big_bytes - 1) as usize));
        cache.attach_pool(pool.clone());
        cache.insert(&req(&["cust"], &aggs), &detail, small.clone());
        assert_eq!((cache.len(), cache.bytes()), (1, small_bytes));

        // Neither a new fingerprint nor a same-fingerprint replacement may
        // remove or evict anything when the reservation fails.
        cache.insert(&req(&["cust", "month"], &aggs), &detail, big.clone());
        cache.insert(&req(&["cust"], &aggs), &detail, big);
        assert_eq!((cache.len(), cache.bytes()), (1, small_bytes));
        assert_eq!(pool.reserved(), small_bytes);
        assert_eq!(cache.metrics().evictions, 0);
        match cache
            .lookup(&req(&["cust"], &aggs), &detail, &ExecContext::new())
            .unwrap()
        {
            CacheAnswer::Exact(got) => assert!(Arc::ptr_eq(&got, &small)),
            other => panic!("expected the old entry, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_distinguish_dims_aggs_and_aliases() {
        let a = req(&["cust"], &[AggSpec::on_column("sum", "sale")]);
        let b = req(&["month"], &[AggSpec::on_column("sum", "sale")]);
        let c = req(
            &["cust"],
            &[AggSpec::on_column("sum", "sale").with_alias("t")],
        );
        let d = req(&["cust"], &[AggSpec::count_star()]);
        let prints = [
            a.fingerprint(),
            b.fingerprint(),
            c.fingerprint(),
            d.fingerprint(),
        ];
        for (i, x) in prints.iter().enumerate() {
            for y in &prints[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(
            a.fingerprint(),
            req(&["cust"], &[AggSpec::on_column("sum", "sale")]).fingerprint()
        );
    }
}
