//! The paged detail source: disk-resident MD-join input over the paged
//! table store.
//!
//! [`PagedScan`] turns a [`PagedTable`] + [`BufferPool`] pair into a detail
//! source the executor core consumes through
//! [`MdJoin::paged`](crate::MdJoin::paged) — every strategy runs over it
//! unchanged, because a source only decides how the chunk grid is cut:
//!
//! * **Theorem 4.2 as page pruning** — θ's detail-only conjuncts on the
//!   clustered key become [`KeyBounds`] ([`key_bounds_from_theta`]), and
//!   because pages are sealed in clustered-key order with min/max keys in
//!   the manifest, the prefilter is answered *before any I/O*: pages whose
//!   key range cannot satisfy θ are never read. Observation 4.1's clustered
//!   index scan is exactly the surviving contiguous page range.
//! * **Chunks are pinned page runs** — consecutive admitted pages totalling
//!   `ctx.morsel_size` rows; one page is pinned at a time, so memory is one
//!   page per worker plus aggregate state, never the table. Under the batch
//!   evaluator the run is the batch: its pages' columns are appended into
//!   one chunk as each page is read and unpinned
//!   ([`ChunkConcat`](mdj_storage::ChunkConcat)), and a one-page run lends
//!   the buffer-pool frame's own chunk. A page is decoded once per
//!   residency, straight into columns, and builds rows only when a scalar
//!   path asks (`page_rows_built`).
//!
//! All paths record `pages_read` / `bytes_read` / `pool_evictions` through
//! [`ScanStats`](mdj_storage::ScanStats), so `EXPLAIN ANALYZE` shows the
//! Theorem 4.2 pushdown cutting physical I/O.

use crate::context::ExecContext;
use crate::error::{CoreError, Result};
use crate::governor::MemoryPool;
use mdj_expr::analysis::{conjuncts, extract_range};
use mdj_expr::{Expr, Side};
use mdj_storage::{
    BufferPool, Counter, KeyBounds, PagedTable, PinnedPage, PoolChargeFailed, PoolChargeHook,
    Relation, Schema,
};
use std::any::Any;
use std::ops::Bound;
use std::sync::Arc;

/// Bridges the storage crate's [`PoolChargeHook`] to the engine's shared
/// [`MemoryPool`]: every byte a [`BufferPool`] holds resident is reserved
/// from the same admission-control pool queries draw their budgets from, so
/// cached pages and query state compete for one limit instead of two.
#[derive(Debug)]
pub struct PoolChargeAdapter {
    pool: Arc<MemoryPool>,
}

impl PoolChargeAdapter {
    pub fn new(pool: Arc<MemoryPool>) -> Arc<Self> {
        Arc::new(PoolChargeAdapter { pool })
    }

    /// A buffer pool of `budget` bytes whose residency is charged to `mem`.
    pub fn hooked_pool(mem: Arc<MemoryPool>, budget: u64) -> Arc<BufferPool> {
        BufferPool::with_charge_hook(budget, Some(Self::new(mem)))
    }
}

impl PoolChargeHook for PoolChargeAdapter {
    fn reserve(&self, bytes: u64) -> std::result::Result<Box<dyn Any + Send>, PoolChargeFailed> {
        match self.pool.try_reserve(bytes) {
            Ok(grant) => Ok(Box::new(grant)),
            Err(CoreError::PoolExhausted {
                needed,
                available,
                capacity,
            }) => Err(PoolChargeFailed {
                needed,
                available,
                capacity,
            }),
            // try_reserve only fails with PoolExhausted today; map anything
            // new conservatively rather than panicking in the storage layer.
            Err(_) => Err(PoolChargeFailed {
                needed: bytes,
                available: self.pool.available(),
                capacity: self.pool.capacity(),
            }),
        }
    }
}

/// The Theorem 4.2 prefilter, restricted to what the clustered index can
/// answer: the tightest bounds on `key` implied by θ's *detail-only*
/// conjuncts (`R.key (op) literal` and mirrored forms). Conjuncts that
/// mention `B` depend on the base row and cannot prune pages; everything
/// else θ checks is still evaluated per tuple, so the bounds are a sound
/// superset filter, never a replacement for θ.
pub fn key_bounds_from_theta(theta: &Expr, key: &str) -> KeyBounds {
    let detail_only: Vec<Expr> = conjuncts(theta)
        .into_iter()
        .filter(|c| !c.uses_side(Side::Base))
        .collect();
    let (range, _rest) = extract_range(&detail_only, key);
    let mut kb = KeyBounds::default();
    if let Some(r) = range {
        match r.lower {
            Bound::Included(v) => kb.and_lo(v, true),
            Bound::Excluded(v) => kb.and_lo(v, false),
            Bound::Unbounded => {}
        }
        match r.upper {
            Bound::Included(v) => kb.and_hi(v, true),
            Bound::Excluded(v) => kb.and_hi(v, false),
            Bound::Unbounded => {}
        }
    }
    kb
}

/// A disk-resident detail source: one paged table read through a buffer
/// pool, optionally restricted to a clustered-key range.
#[derive(Debug, Clone)]
pub struct PagedScan {
    table: Arc<PagedTable>,
    pool: Arc<BufferPool>,
    bounds: KeyBounds,
}

impl PagedScan {
    /// A full-table scan of `table` through `pool`.
    pub fn new(table: Arc<PagedTable>, pool: Arc<BufferPool>) -> Self {
        PagedScan {
            table,
            pool,
            bounds: KeyBounds::default(),
        }
    }

    /// Tighten the scan with the key range θ implies (Theorem 4.2 pushdown).
    pub fn prefiltered(mut self, theta: &Expr) -> Self {
        let extra = key_bounds_from_theta(theta, self.table.key_name());
        if let Some((v, incl)) = extra.lo {
            self.bounds.and_lo(v, incl);
        }
        if let Some((v, incl)) = extra.hi {
            self.bounds.and_hi(v, incl);
        }
        self
    }

    pub fn table(&self) -> &Arc<PagedTable> {
        &self.table
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn bounds(&self) -> &KeyBounds {
        &self.bounds
    }

    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Pages admitted by the bounds, in clustered order. Answered from the
    /// manifest's per-page min/max keys — zero I/O.
    pub fn admitted_pages(&self) -> Vec<usize> {
        self.table.pruned_pages(&self.bounds)
    }

    /// Pin one page through the pool, recording I/O to the context's stats.
    pub fn fetch(&self, page_no: usize, ctx: &ExecContext) -> Result<PinnedPage> {
        self.pool
            .fetch(&self.table, page_no, ctx.stats().map(|s| s.as_ref()))
            .map_err(CoreError::from)
    }

    /// Read the admitted pages into an in-memory [`Relation`] (clustered
    /// order), each page fetched — and cached — through the pool. Records
    /// one scan of the admitted rows.
    pub fn materialize(&self, ctx: &ExecContext) -> Result<Relation> {
        let mut rel = Relation::empty(self.table.schema().clone());
        let pages = self.admitted_pages();
        let mut rows = 0u64;
        for &pno in &pages {
            ctx.check_interrupt()?;
            let pin = self.fetch(pno, ctx)?;
            let page = pin.page().rows_recorded(ctx.stats().map(|s| s.as_ref()));
            rows += page.len() as u64;
            for row in page {
                rel.push_unchecked(row.clone());
            }
        }
        ctx.count(Counter::scans, 1);
        ctx.count(Counter::tuples_scanned, rows);
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ExecStrategy, MdJoin};
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, PagedStore, Row, ScanStats, Value};

    fn paged_md_join(
        b: &Relation,
        scan: &PagedScan,
        l: &[AggSpec],
        theta: &Expr,
        strategy: ExecStrategy,
        threads: usize,
        ctx: &ExecContext,
    ) -> Result<Relation> {
        MdJoin::paged(b, scan)
            .theta(theta.clone())
            .aggs(l)
            .strategy(strategy)
            .threads(threads)
            .run(ctx)
    }

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("cust", DataType::Int),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 37),
                        Value::Int(i % 7),
                        // Dyadic: every partial-sum order is bit-exact.
                        Value::Float(i as f64 * 0.5),
                    ])
                })
                .collect(),
        )
    }

    fn store_with(rel: &Relation, page_bytes: u64) -> (tempdir::Dir, PagedScan) {
        let dir = tempdir::Dir::new("mdj-core-paged");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", rel, "k", page_bytes).unwrap();
        let pool = BufferPool::new(64 * 1024);
        (dir, PagedScan::new(table, pool))
    }

    /// Minimal tempdir (no external crates): unique path under the target
    /// tmpdir, removed on drop.
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct Dir(PathBuf);

        impl Dir {
            pub fn new(prefix: &str) -> Dir {
                let n = NEXT.fetch_add(1, Ordering::Relaxed);
                let path =
                    std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&path).unwrap();
                Dir(path)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn key_bounds_extraction_covers_shapes_and_sides() {
        // Detail-only range on the key, both orientations.
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            and(ge(col_r("k"), lit(5i64)), gt(lit(20i64), col_r("k"))),
        );
        let kb = key_bounds_from_theta(&theta, "k");
        assert_eq!(kb.lo, Some((Value::Int(5), true)));
        assert_eq!(kb.hi, Some((Value::Int(20), false)));
        // Equality pins both ends.
        let kb = key_bounds_from_theta(&eq(col_r("k"), lit(7i64)), "k");
        assert_eq!(kb.lo, Some((Value::Int(7), true)));
        assert_eq!(kb.hi, Some((Value::Int(7), true)));
        // A bound involving B cannot prune (depends on the base row).
        let kb = key_bounds_from_theta(&ge(col_r("k"), col_b("cust")), "k");
        assert!(kb.is_unbounded());
        // Ranges on non-key columns do not leak onto the key.
        let kb = key_bounds_from_theta(&ge(col_r("cust"), lit(3i64)), "k");
        assert!(kb.is_unbounded());
    }

    #[test]
    fn theorem_4_2_pushdown_cuts_pages_read() {
        let rel = sales(600);
        let (_dir, scan) = store_with(&rel, 256);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let l = [AggSpec::on_column("sum", "sale")];
        let run = |theta: &Expr| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new().with_stats(stats.clone());
            scan.pool().clear();
            paged_md_join(&b, &scan, &l, theta, ExecStrategy::Serial, 1, &ctx).unwrap();
            (stats.pages_read(), stats.bytes_read())
        };
        let full = eq(col_b("cust"), col_r("cust"));
        let pruned = and(
            eq(col_b("cust"), col_r("cust")),
            and(ge(col_r("k"), lit(10i64)), le(col_r("k"), lit(12i64))),
        );
        let (full_pages, full_bytes) = run(&full);
        let (pruned_pages, pruned_bytes) = run(&pruned);
        assert!(full_pages > 0 && full_bytes > 0);
        assert!(
            pruned_pages < full_pages,
            "pushdown must cut pages: {pruned_pages} vs {full_pages}"
        );
        assert!(pruned_bytes < full_bytes);
        // Pruning is sound: the pruned run equals filtering in memory.
        let sorted = scan.materialize(&ExecContext::new()).unwrap();
        let reference = MdJoin::new(&b, &sorted)
            .theta(pruned.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        let out = paged_md_join(
            &b,
            &scan,
            &l,
            &pruned,
            ExecStrategy::Serial,
            1,
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(reference.rows(), out.rows());
    }

    #[test]
    fn pool_charge_adapter_reserves_and_releases_engine_memory() {
        let mem = Arc::new(MemoryPool::new(16 * 1024));
        let hook = PoolChargeAdapter::new(Arc::clone(&mem));
        let grant = hook.reserve(4096).expect("reserve within capacity");
        assert_eq!(mem.reserved(), 4096);
        drop(grant);
        assert_eq!(mem.reserved(), 0);
        // Starvation surfaces typed, with real numbers.
        let _held = hook.reserve(12 * 1024).unwrap();
        let err = hook.reserve(8 * 1024).unwrap_err();
        assert_eq!(err.needed, 8 * 1024);
        assert_eq!(err.capacity, 16 * 1024);
        assert_eq!(err.available, 4 * 1024);
    }

    #[test]
    fn hooked_buffer_pool_charges_resident_pages_to_the_engine_pool() {
        let rel = sales(300);
        let dir = tempdir::Dir::new("mdj-core-paged-hooked");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", &rel, "k", 512).unwrap();
        let mem = Arc::new(MemoryPool::new(1024 * 1024));
        let pool = PoolChargeAdapter::hooked_pool(Arc::clone(&mem), 64 * 1024);
        let scan = PagedScan::new(table, pool);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::count_star()];
        paged_md_join(
            &b,
            &scan,
            &l,
            &theta,
            ExecStrategy::Serial,
            1,
            &ExecContext::new(),
        )
        .unwrap();
        assert!(
            mem.reserved() > 0,
            "cached pages must hold engine-pool reservations"
        );
        scan.pool().clear();
        assert_eq!(mem.reserved(), 0, "clearing the pool releases every grant");
    }

    #[test]
    fn detail_parallel_over_pages_reports_workers_and_unpins_everything() {
        let rel = sales(1000);
        let (_dir, scan) = store_with(&rel, 256);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale")];
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        paged_md_join(&b, &scan, &l, &theta, ExecStrategy::Morsel, 4, &ctx).unwrap();
        let workers = stats.workers();
        assert_eq!(workers.len(), 4);
        let tuples: u64 = workers.iter().map(|w| w.tuples).sum();
        assert_eq!(tuples, 1000);
        assert_eq!(stats.scans(), 1);
        assert!(stats.pages_read() > 0);
        assert_eq!(scan.pool().pinned_total(), 0);
    }

    #[test]
    fn auto_records_its_decision_and_matches_serial() {
        let rel = sales(500);
        let (_dir, scan) = store_with(&rel, 512);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale")];
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let auto = paged_md_join(&b, &scan, &l, &theta, ExecStrategy::default(), 2, &ctx).unwrap();
        let serial = paged_md_join(
            &b,
            &scan,
            &l,
            &theta,
            ExecStrategy::Serial,
            1,
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(auto.rows(), serial.rows());
        assert!(stats.batches() > 0 && stats.workers().is_empty());
    }

    /// `sales(n)` and two more columns: `m` (`Any`) mixes `Int` and `Float`
    /// on every page, so its chunks are untyped, and `st` is a `Str`.
    fn with_untyped(n: i64) -> Relation {
        let mut fields = sales(0).schema().fields().to_vec();
        fields.push(mdj_storage::Field::new("m", DataType::Any));
        fields.push(mdj_storage::Field::new("st", DataType::Str));
        let rows = sales(n)
            .rows()
            .iter()
            .zip(0..)
            .map(|(row, i)| {
                let mut vals = row.values().to_vec();
                vals.push(match i % 3 {
                    0 => Value::Int(i % 5),
                    1 => Value::Float((i % 5) as f64 + 0.5),
                    _ => Value::Null,
                });
                vals.push(Value::str(["NY", "NJ", "CT"][(i % 3) as usize]));
                Row::from_values(vals)
            })
            .collect();
        Relation::from_rows(mdj_storage::Schema::new(fields), rows)
    }

    /// The batch evaluator reads a page's columns only, however much of a
    /// query has no batch form: a `Div` key, a `Div` or `Mod` prefilter, a
    /// nested-loop θ with no batch form, a residual over an untyped column,
    /// and the aggregates it replays value by value (`median`, `min` over
    /// strings) interpret the chunk's values, never the page's rows. Over
    /// 256 B and 4 KiB pages at morsel sizes 1, 7 and 4096 each answers as
    /// the scalar scan does, rows, probes and updates, and the scalar scan
    /// builds each page's rows once per residency.
    #[test]
    fn only_scalar_paths_build_page_rows_and_once_per_residency() {
        let rel = with_untyped(600);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let by_cust = || eq(col_b("cust"), col_r("cust"));
        let kernels = || vec![AggSpec::on_column("sum", "sale")];
        let cases = [
            (by_cust(), kernels()),
            (eq(col_b("cust"), div(col_r("cust"), lit(1i64))), kernels()),
            (
                and(by_cust(), gt(div(col_r("sale"), lit(2i64)), lit(40i64))),
                kernels(),
            ),
            (
                and(by_cust(), eq(modulo(col_r("cust"), lit(2i64)), lit(0i64))),
                kernels(),
            ),
            (le(col_b("cust"), div(col_r("cust"), lit(2i64))), kernels()),
            (and(by_cust(), gt(col_r("m"), col_b("cust"))), kernels()),
            (
                by_cust(),
                vec![
                    AggSpec::on_column("median", "sale"),
                    AggSpec::on_column("min", "st"),
                    AggSpec::on_column("count", "m"),
                ],
            ),
        ];
        for page_bytes in [256, 4096] {
            let (_dir, scan) = store_with(&rel, page_bytes);
            for (theta, l) in &cases {
                let run = |strategy: ExecStrategy, morsel: usize| {
                    let stats = Arc::new(ScanStats::new());
                    let ctx = ExecContext::new()
                        .with_morsel_size(morsel)
                        .with_stats(stats.clone());
                    let out = paged_md_join(&b, &scan, l, theta, strategy, 1, &ctx).unwrap();
                    let work = (stats.probes(), stats.updates());
                    (out, work, stats.pages_read(), stats.page_rows_built())
                };
                let label = format!("θ = {theta} over {page_bytes} B pages");
                scan.pool().clear();
                let mut batches = Vec::new();
                for morsel in [1, 7, 4096] {
                    let (out, work, read, built) = run(ExecStrategy::Vectorized, morsel);
                    assert!(morsel != 1 || read > 0, "{label}");
                    assert_eq!(built, 0, "{label} at morsel {morsel}: columns only");
                    batches.push((out, work));
                }
                // Every page is resident now: the scalar scan reads none, and
                // builds each page's rows once; a second scalar scan builds
                // none.
                let (serial, work, read, built) = run(ExecStrategy::Serial, 4096);
                assert_eq!(read, 0, "{label}");
                assert_eq!(built as usize, scan.admitted_pages().len(), "{label}");
                assert_eq!(run(ExecStrategy::Serial, 4096).3, 0, "{label}");
                for (batch, batch_work) in &batches {
                    assert_eq!(batch.rows(), serial.rows(), "{label}");
                    assert_eq!(*batch_work, work, "{label}");
                }
            }
        }
    }

    /// A run of dozens of pages is one batch, read through a pool that holds
    /// two pages: the run pins one page at a time while it appends its
    /// columns, so it answers as the scalar scan does, with the same probes,
    /// updates, pages read and evictions, and leaves nothing pinned.
    #[test]
    fn a_run_longer_than_the_pool_pins_one_page_at_a_time() {
        let rel = with_untyped(3000);
        let dir = tempdir::Dir::new("mdj-core-paged-two-frames");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", &rel, "k", 256).unwrap();
        let largest = table.page_metas().iter().map(|m| m.len).max().unwrap();
        let scan = PagedScan::new(table, BufferPool::new(2 * largest as u64));
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = and(eq(col_b("cust"), col_r("cust")), ne(col_r("st"), lit("CT")));
        let l = [
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("min", "st"),
            AggSpec::on_column("count", "m"),
        ];
        let run = |strategy: ExecStrategy| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(4096)
                .with_stats(stats.clone());
            scan.pool().clear();
            let out = paged_md_join(&b, &scan, &l, &theta, strategy, 1, &ctx).unwrap();
            assert_eq!(scan.pool().pinned_total(), 0, "{strategy:?}");
            let io = (stats.pages_read(), stats.pool_evictions());
            (out, (stats.probes(), stats.updates()), io, stats.batches())
        };
        let (batch, work, io, batches) = run(ExecStrategy::Vectorized);
        let (serial, serial_work, serial_io, _) = run(ExecStrategy::Serial);
        assert!(scan.admitted_pages().len() > 24, "the run spans dozens");
        assert_eq!(batches, 1, "one run, one batch");
        assert!(io.1 > 0, "the pool evicts");
        assert_eq!(batch.rows(), serial.rows());
        assert_eq!(work, serial_work);
        assert_eq!(io, serial_io);
    }

    #[test]
    fn starved_pool_surfaces_pool_exhausted_not_wrong_rows() {
        let rel = sales(400);
        let dir = tempdir::Dir::new("mdj-core-paged-starved");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", &rel, "k", 512).unwrap();
        // Budget smaller than a single frame: the first fetch must fail.
        let pool = BufferPool::new(16);
        let scan = PagedScan::new(table, pool);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let err = paged_md_join(
            &b,
            &scan,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            ExecStrategy::Serial,
            1,
            &ExecContext::new(),
        );
        assert!(
            matches!(err, Err(CoreError::PoolExhausted { .. })),
            "{err:?}"
        );
    }
}
