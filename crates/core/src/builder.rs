//! The `MdJoin` builder — the single entrypoint for every evaluation mode.
//!
//! Every strategy is a row of one table from name to (driver, evaluator)
//! over the executor core (`executor.rs`): serial Algorithm 3.1 with the
//! scalar or the batch evaluator, and the Theorem 4.1 base-partitioned plans
//! and the detail-parallel plan with the scalar one, over a resident or a
//! paged detail source, for `k ≥ 1` (θ, l) blocks (the generalized MD-join of
//! Section 4.3), over a base the caller supplies or a group-by of the detail
//! relation the join builds itself ([`MdJoin::group_by`]):
//!
//! ```
//! use mdj_core::prelude::*;
//! use mdj_expr::builder::*;
//! use mdj_storage::{Relation, Row, Schema, DataType, Value};
//!
//! let sales = Relation::from_rows(
//!     Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]),
//!     vec![Row::new(vec![Value::Int(1), Value::Float(10.0)]),
//!          Row::new(vec![Value::Int(1), Value::Float(30.0)])],
//! );
//! let b = sales.distinct_on(&["cust"]).unwrap();
//! let out = MdJoin::new(&b, &sales)
//!     .theta(eq(col_b("cust"), col_r("cust")))
//!     .agg("avg(sale)")
//!     .unwrap()
//!     .run(&ExecContext::new())
//!     .unwrap();
//! assert_eq!(out.rows()[0][1], Value::Float(20.0));
//! ```

use crate::context::ExecContext;
use crate::cost::{self, DegradeMode};
use crate::error::{CoreError, Result};
use crate::executor::{
    self, default_threads, split, split_even, DetailSource, Driver, Grid, Grouped,
};
use crate::generalized::Block;
use crate::governor::{CancelToken, MemoryTracker};
use crate::grouped::GroupBy;
use crate::paged::PagedScan;
use crate::spill_exec::{md_join_spilled, partition_key_width};
use mdj_agg::AggSpec;
use mdj_expr::Expr;
use mdj_storage::{Counter, Relation, Schema};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

/// Which evaluation plan [`MdJoin::run`] uses: a (driver, evaluator) pair of
/// the executor core. Every plan returns rows bit-identical to
/// [`ExecStrategy::Serial`], at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Single-threaded Algorithm 3.1, scalar evaluator. Under a memory
    /// budget a breach degrades into Theorem 4.1 partitioned evaluation.
    Serial,
    /// Theorem 4.1 memory-bounded plan: `B` in `partitions` sequential
    /// fragments, one scan of `R` per fragment.
    Partitioned { partitions: usize },
    /// Parallel scalar plan, side chosen from the cardinalities.
    Morsel,
    /// Base-partitioned parallel plan: `B` in morsel-size fragments spread
    /// over the workers by work stealing (memory-bounded; `R` re-scanned per
    /// fragment). With `with_morsel_size(⌈|B|/threads⌉)` this is the paper's
    /// static Section 4.1.2 plan.
    MorselBase,
    /// Detail-parallel plan: workers compute per-morsel deltas over `R`,
    /// applied to one state set in morsel order (one logical scan).
    MorselDetail,
    /// The batch evaluator (see [`crate::vectorized`]) on the serial driver,
    /// the default and the plan every served MD-join runs: `R` is processed
    /// in columnar chunks with selection-vector prefilters, batched key
    /// probing and typed aggregate kernels. Shapes without a vectorized form
    /// (holistic aggregates, `Div`/`Mod`) fall back per batch to the scalar
    /// interpreter. It never runs on a parallel driver, whose per-chunk
    /// deltas would carry row-form values through scalar updates; `threads`
    /// is ignored. Under a budget it degrades like [`ExecStrategy::Serial`].
    #[default]
    Vectorized,
}

/// Which relation a parallel plan splits into work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorselSide {
    /// Fragments of `B`: memory-bounded, one scan of `R` per fragment.
    Base,
    /// Morsels of `R`: one logical scan, one state set.
    Detail,
}

/// Pick the partitioning side from the input cardinalities: `Detail` unless
/// `B` is much larger than `R` (≥ 4×), where re-scanning the small `R` per
/// fragment is cheaper than holding state for all of a huge `B`.
pub fn choose_side(b_rows: usize, r_rows: usize) -> MorselSide {
    if b_rows >= 4 * r_rows.max(1) {
        MorselSide::Base
    } else {
        MorselSide::Detail
    }
}

/// Builder for `MD(B, R, l, θ)` over borrowed inputs. See the module docs
/// for an end-to-end example.
#[derive(Debug, Clone)]
pub struct MdJoin<'a> {
    b: Base<'a>,
    r: DetailSource<'a>,
    theta: Option<Expr>,
    aggs: Vec<AggSpec>,
    blocks: Vec<Block>,
    strategy: ExecStrategy,
    threads: Option<usize>,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    budget: Option<usize>,
}

/// The base-values relation of a join.
#[derive(Debug, Clone)]
enum Base<'a> {
    /// Supplied by the caller.
    Rows(&'a Relation),
    /// The group-by of the detail relation itself, built by the join.
    GroupBy(GroupBy),
}

impl<'a> MdJoin<'a> {
    /// Start a builder joining the resident detail relation `r` onto
    /// base-values `b`.
    pub fn new(b: &'a Relation, r: &'a Relation) -> Self {
        Self::over(Base::Rows(b), DetailSource::Resident(r))
    }

    /// Start a builder whose base-values table is `γ_dims(σ_pred(R))`, the
    /// group-by of the detail relation `r` itself (`pred` a detail-side
    /// predicate). The batch evaluator builds `B` inside Algorithm 3.1's one
    /// scan wherever every block's θ matches each group on exactly its key
    /// and implies `pred`; otherwise `B` is built in a pass of its own first.
    /// Either way the output equals [`MdJoin::new`] over that `B`.
    pub fn group_by(r: DetailSource<'a>, dims: &[&str], pred: Option<Expr>) -> Self {
        let dims = dims.iter().map(|d| d.to_string()).collect();
        Self::over(Base::GroupBy(GroupBy { dims, pred }), r)
    }

    /// Start a builder whose detail relation streams from the paged store:
    /// θ's detail-only conjuncts on the clustered key prune pages before any
    /// I/O (Theorem 4.2) and one page is pinned at a time. Output is
    /// bit-identical to [`MdJoin::new`] over [`PagedScan::materialize`].
    pub fn paged(b: &'a Relation, scan: &'a PagedScan) -> Self {
        Self::over(Base::Rows(b), DetailSource::Paged(scan))
    }

    fn over(b: Base<'a>, r: DetailSource<'a>) -> Self {
        MdJoin {
            b,
            r,
            theta: None,
            aggs: Vec::new(),
            blocks: Vec::new(),
            strategy: ExecStrategy::default(),
            threads: None,
            cancel: None,
            deadline: None,
            budget: None,
        }
    }

    /// Set the θ-condition for the leading aggregate list.
    pub fn theta(mut self, theta: Expr) -> Self {
        self.theta = Some(theta);
        self
    }

    /// Append aggregates to the leading list.
    pub fn aggs(mut self, l: &[AggSpec]) -> Self {
        self.aggs.extend_from_slice(l);
        self
    }

    /// Append one aggregate from a spec string (`"sum(sale)"`,
    /// `"avg(sale) as a"`, `"count(*)"`).
    pub fn agg(mut self, spec: &str) -> Result<Self> {
        self.aggs.push(AggSpec::parse(spec)?);
        Ok(self)
    }

    /// Append an already-built [`AggSpec`].
    pub fn agg_spec(mut self, spec: AggSpec) -> Self {
        self.aggs.push(spec);
        self
    }

    /// Append a further (θ, l) block, turning the join into the generalized
    /// `MD(B, R, (l₁..l_k), (θ₁..θ_k))` of Section 4.3 (single scan of `R`).
    pub fn block(mut self, theta: Expr, aggs: Vec<AggSpec>) -> Self {
        self.blocks.push(Block::new(theta, aggs));
        self
    }

    /// Append several pre-built blocks.
    pub fn blocks(mut self, blocks: impl IntoIterator<Item = Block>) -> Self {
        self.blocks.extend(blocks);
        self
    }

    /// Choose the evaluation plan (default: [`ExecStrategy::Vectorized`]).
    pub fn strategy(mut self, strategy: ExecStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Worker count for the parallel strategies (`Morsel*`). Defaults to the
    /// machine's available parallelism; ignored by `Serial`, `Partitioned`
    /// and `Vectorized`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attach a cancellation token for this run. Cancel it from any thread to
    /// stop the query at its next governor poll with
    /// [`CoreError::Cancelled`]. Overrides any token on the [`ExecContext`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Give this run `budget` of wall-clock time (measured from the `run`
    /// call); past it the query stops with [`CoreError::DeadlineExceeded`].
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bound the estimated memory footprint of this run. Serial, partitioned
    /// and vectorized plans answer a breach by re-planning into Theorem 4.1
    /// partitioned evaluation (raising `m` until each `Bᵢ` fits); the
    /// parallel plans surface [`CoreError::BudgetExceeded`].
    pub fn budget_bytes(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Assemble the effective block list: the leading (θ, l) pair, if set,
    /// followed by any explicitly added blocks.
    fn effective_blocks(&self) -> Result<Vec<Block>> {
        let mut blocks = Vec::with_capacity(self.blocks.len() + 1);
        match (&self.theta, self.aggs.is_empty()) {
            (Some(theta), _) => blocks.push(Block::new(theta.clone(), self.aggs.clone())),
            (None, false) => {
                return Err(CoreError::BadConfig(
                    "aggregates were added but no θ-condition was set".into(),
                ));
            }
            (None, true) => {}
        }
        blocks.extend(self.blocks.iter().cloned());
        if blocks.is_empty() {
            return Err(CoreError::BadConfig(
                "MD-join needs a θ-condition (or at least one block)".into(),
            ));
        }
        // Two aggregates resolving to the same output column would silently
        // shadow each other in the result schema: reject up front, across
        // the whole block list (all blocks share one output row).
        let mut seen = std::collections::HashSet::new();
        for block in &blocks {
            for spec in &block.aggs {
                let name = spec.output_name();
                if !seen.insert(name.clone()) {
                    return Err(CoreError::DuplicateColumn(name));
                }
            }
        }
        Ok(blocks)
    }

    /// The output schema [`run`](Self::run) will produce.
    pub fn output_schema(&self, ctx: &ExecContext) -> Result<Schema> {
        let blocks = self.effective_blocks()?;
        executor::output_schema(&*self.base_schema()?, self.r.schema(), &blocks, ctx)
    }

    fn base_schema(&self) -> Result<Cow<'_, Schema>> {
        Ok(match &self.b {
            Base::Rows(b) => Cow::Borrowed(b.schema()),
            Base::GroupBy(g) => Cow::Owned(g.schema(self.r.schema())?),
        })
    }

    /// Evaluate the join.
    pub fn run(&self, ctx: &ExecContext) -> Result<Relation> {
        if self.cancel.is_none() && self.deadline.is_none() && self.budget.is_none() {
            return self.run_with(ctx);
        }
        // Per-run governor overrides: applied to a clone so the caller's
        // context (possibly shared across queries) is never mutated.
        let mut ctx = ctx.clone();
        if let Some(token) = &self.cancel {
            ctx.set_cancel_token(Some(token.clone()));
        }
        if let Some(budget) = self.deadline {
            ctx.set_deadline_at(Some(std::time::Instant::now() + budget));
        }
        if let Some(bytes) = self.budget {
            ctx.set_memory(Some(Arc::new(MemoryTracker::new(bytes))));
        }
        self.run_with(&ctx)
    }

    /// The strategy table: resolve the strategy name to a (driver,
    /// evaluator) pair of the executor core and run it.
    fn run_with(&self, ctx: &ExecContext) -> Result<Relation> {
        let blocks = self.effective_blocks()?;
        if let ExecStrategy::Partitioned { partitions: 0 } = self.strategy {
            return Err(CoreError::BadConfig("partition count must be ≥ 1".into()));
        }
        let batch = self.strategy == ExecStrategy::Vectorized;
        let built;
        let b = match &self.b {
            Base::Rows(b) => *b,
            Base::GroupBy(g) => {
                let fused = batch
                    .then(|| g.fused_blocks(self.r.schema(), &blocks, ctx))
                    .flatten();
                built = match fused {
                    None => g.build(self.r, ctx)?,
                    Some(fused) => {
                        let grid = Grid::new(self.r, &[g.grid_block()], ctx.morsel_size());
                        match executor::run_grouped(g.table(self.r.schema())?, &grid, &fused, ctx)?
                        {
                            Grouped::Answer(out) => return Ok(out),
                            // The scan stopped answering; a breach's high-water
                            // mark died with its states.
                            Grouped::Base(b) => {
                                if let Some(tracker) = ctx.memory() {
                                    tracker.reset_peak();
                                }
                                b
                            }
                        }
                    }
                };
                &built
            }
        };
        let grid = Grid::new(self.r, &blocks, ctx.morsel_size());
        let threads = self.threads.unwrap_or_else(default_threads);
        let (b_rows, r_rows) = (b.len(), grid.rows() as usize);
        let parallel = |side: MorselSide| match side {
            MorselSide::Base => Driver::Base {
                fragments: split(b_rows, ctx.morsel_size()),
                threads: Some(threads),
            },
            MorselSide::Detail => Driver::Detail { threads },
        };
        // `None` = the serial driver with Theorem 4.1 budget degradation, the
        // only driver the batch evaluator runs on.
        let (driver, m) = match self.strategy {
            ExecStrategy::Serial | ExecStrategy::Vectorized => (None, 1),
            ExecStrategy::Partitioned { partitions } => (None, partitions),
            ExecStrategy::Morsel => (Some(parallel(choose_side(b_rows, r_rows))), 1),
            ExecStrategy::MorselBase => (Some(parallel(MorselSide::Base)), 1),
            ExecStrategy::MorselDetail => (Some(parallel(MorselSide::Detail)), 1),
        };
        match driver {
            Some(driver) => executor::run(b, &grid, &blocks, &driver, ctx),
            None => run_degradable(b, self.r, &grid, &blocks, ctx, m, batch),
        }
    }
}

/// Serial/partitioned evaluation with Theorem 4.1 budget degradation.
///
/// Starts at `m` partitions (`1` = plain serial). On
/// [`CoreError::BudgetExceeded`] the partition count is raised to the
/// largest of three estimates — `⌈m · peak / budget⌉` from the tracker's
/// high-water mark, the cost model's [`cost::cost_partitions`] static
/// sizing, and `m + 1` for guaranteed progress — and the query re-runs.
/// Each retry is counted as a degradation event in
/// [`ScanStats`](mdj_storage::ScanStats). The loop is bounded by `m = |B|`
/// (one base row per partition, the finest Theorem 4.1 split); a budget too
/// small even for that surfaces the breach to the caller.
///
/// How each degraded retry feeds `R` to its partitions is a costed choice
/// ([`cost::choose_mode`], steered by [`ExecContext::spill`]): re-scan the
/// source once per partition, or — for a single-block join over a resident
/// `R` — hash-partition `R` to temporary page tables once and read each
/// partition's table back ([`md_join_spilled`]). Spill I/O errors propagate as typed
/// [`CoreError::Storage`] errors — they are never silently retried on the
/// rescan path, so fault-injection tests see exactly the failure they armed.
///
/// With `batch`, the single-partition attempt runs the batch evaluator;
/// degraded (`m > 1`) retries always use the scalar one — degradation means
/// memory pressure, where batch scratch buffers are the wrong trade.
fn run_degradable(
    b: &Relation,
    source: DetailSource,
    grid: &Grid,
    blocks: &[Block],
    ctx: &ExecContext,
    mut m: usize,
    batch: bool,
) -> Result<Relation> {
    let n_aggs: usize = blocks.iter().map(|blk| blk.aggs.len()).sum();
    let mut mode = DegradeMode::Rescan;
    loop {
        let attempt = match (source.resident(), blocks) {
            _ if m <= 1 => executor::run(b, grid, blocks, &Driver::Serial { batch }, ctx),
            (Some(r), [blk]) if mode == DegradeMode::Spill => {
                md_join_spilled(b, r, &blk.aggs, &blk.theta, m, ctx)
            }
            _ => {
                let driver = Driver::Base {
                    fragments: split_even(b.len(), m),
                    threads: None,
                };
                executor::run(b, grid, blocks, &driver, ctx)
            }
        };
        match attempt {
            Err(CoreError::BudgetExceeded { .. }) if m < b.len() => {
                let tracker = ctx.memory().ok_or_else(|| {
                    CoreError::Internal("budget breach reported without a tracker".into())
                })?;
                let peak = tracker.peak().max(1);
                let budget = tracker.budget().max(1);
                // Total footprint ≈ m × per-partition peak, so the smallest
                // fitting count is its ratio to the budget; the cost model's
                // static sizing usually lands on a feasible m in one step
                // where the observed peak alone would ratchet breach by
                // breach (never shrinking, always progressing, capped at one
                // row per partition).
                let scaled = (m as u64).saturating_mul(peak).div_ceil(budget) as usize;
                let key_width = match blocks {
                    [blk] => partition_key_width(b.schema(), &blk.theta),
                    _ => None,
                };
                let costed = cost::cost_partitions(b.len(), n_aggs, key_width, budget);
                m = scaled.max(costed).max(m + 1).min(b.len());
                // Only a resident R can be routed into spill partitions.
                let spill_width = key_width.filter(|_| source.resident().is_some());
                mode = cost::choose_mode(m, grid.rows() as usize, spill_width, ctx.spill_policy());
                ctx.count(Counter::degradations, 1);
                tracker.reset_peak();
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 11),
                        Value::str(if i % 3 == 0 { "NY" } else { "NJ" }),
                        Value::Int(i),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn builder_api_schema() {
        let s = sales(50);
        let b = s.distinct_on(&["cust"]).unwrap();
        let join = MdJoin::new(&b, &s)
            .theta(eq(col_b("cust"), col_r("cust")))
            .agg("sum(sale) as total")
            .unwrap()
            .agg("count(*)")
            .unwrap();
        let out = join.run(&ExecContext::new()).unwrap();
        assert_eq!(out.schema().names(), vec!["cust", "total", "count_star"]);
        assert_eq!(
            join.output_schema(&ExecContext::new()).unwrap(),
            *out.schema()
        );
    }

    #[test]
    fn strategy_table_scans_and_workers() {
        use mdj_storage::ScanStats;
        // What each name resolves to, read off the work counters: scans of R
        // (one per base fragment) and reporting workers (parallel drivers).
        let s = sales(500);
        let b = s.distinct_on(&["cust"]).unwrap(); // 11 rows
        let theta = eq(col_b("cust"), col_r("cust"));
        let serial = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .agg("sum(sale)")
            .unwrap()
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        for (strategy, morsel, scans, workers, batched) in [
            (ExecStrategy::Serial, 32, 1, 0, false),
            (ExecStrategy::Partitioned { partitions: 4 }, 32, 4, 0, false),
            (ExecStrategy::MorselBase, 3, 4, 3, false), // ⌈11/3⌉ fragments
            (ExecStrategy::MorselDetail, 32, 1, 3, false),
            (ExecStrategy::Morsel, 32, 1, 3, false), // |B| < 4|R| → detail
            // The batch evaluator runs on the serial driver only, whatever
            // the thread count and however many morsels the input spans.
            (ExecStrategy::Vectorized, 32, 1, 0, true),
            (ExecStrategy::Vectorized, 4096, 1, 0, true),
        ] {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(morsel)
                .with_stats(stats.clone());
            let out = MdJoin::new(&b, &s)
                .theta(theta.clone())
                .agg("sum(sale)")
                .unwrap()
                .strategy(strategy)
                .threads(3)
                .run(&ctx)
                .unwrap();
            assert_eq!(serial.rows(), out.rows(), "{strategy:?}");
            assert_eq!(stats.scans(), scans, "{strategy:?} scans");
            assert_eq!(stats.workers().len(), workers, "{strategy:?} workers");
            assert_eq!(stats.batches() > 0, batched, "{strategy:?} batches");
            // Single-scan plans: every matching tuple updated its one base
            // row once, whoever computed the delta; every morsel ran exactly
            // once, on some worker, or as one batch when batched.
            if scans == 1 {
                assert_eq!(stats.updates(), 500, "{strategy:?}");
                assert_eq!(stats.probes(), 500, "{strategy:?}");
            }
            if scans == 1 && workers > 0 {
                let sum = |f: fn(&mdj_storage::WorkerStats) -> u64| -> u64 {
                    stats.workers().iter().map(f).sum()
                };
                assert_eq!(sum(|w| w.morsels), 500u64.div_ceil(32), "{strategy:?}");
                assert_eq!(sum(|w| w.tuples), 500, "{strategy:?}");
                assert_eq!(sum(|w| w.updates), 500, "{strategy:?}");
            }
            if batched {
                assert_eq!(
                    stats.batches(),
                    500u64.div_ceil(morsel as u64),
                    "{strategy:?}"
                );
                assert_eq!(stats.batch_fallbacks(), 0, "{strategy:?}");
            }
        }
        // More partitions than base rows is the finest Theorem 4.1 split.
        let stats = Arc::new(ScanStats::new());
        let out = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .agg("sum(sale)")
            .unwrap()
            .strategy(ExecStrategy::Partitioned { partitions: 50 })
            .run(&ExecContext::new().with_stats(stats.clone()))
            .unwrap();
        assert_eq!(serial.rows(), out.rows());
        assert_eq!(stats.scans(), 11);
    }

    #[test]
    fn auto_side_selection() {
        assert_eq!(choose_side(100, 1000), MorselSide::Detail);
        assert_eq!(choose_side(1000, 1000), MorselSide::Detail);
        assert_eq!(choose_side(4000, 1000), MorselSide::Base);
        assert_eq!(choose_side(10, 0), MorselSide::Base);
        assert_eq!(choose_side(0, 0), MorselSide::Detail);
    }

    #[test]
    fn multi_block_pivot() {
        let s = sales(60);
        let b = s.distinct_on(&["cust"]).unwrap();
        let block = |state: &str| {
            (
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("state"), lit(state)),
                ),
                vec![AggSpec::on_column("sum", "sale")
                    .with_alias(format!("sum_{}", state.to_lowercase()))],
            )
        };
        let (t1, l1) = block("NY");
        let (t2, l2) = block("NJ");
        let out = MdJoin::new(&b, &s)
            .theta(t1)
            .aggs(&l1)
            .block(t2, l2)
            .run(&ExecContext::new())
            .unwrap();
        assert_eq!(out.schema().names(), vec!["cust", "sum_ny", "sum_nj"]);
        assert_eq!(out.len(), b.len());
    }

    #[test]
    fn multi_block_vectorized_and_auto_run_fused() {
        use mdj_storage::ScanStats;
        let s = sales(200);
        let b = s.distinct_on(&["cust"]).unwrap();
        let block = |state: &str| {
            (
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("state"), lit(state)),
                ),
                vec![AggSpec::on_column("sum", "sale")
                    .with_alias(format!("sum_{}", state.to_lowercase()))],
            )
        };
        let run = |strategy: ExecStrategy, stats: Arc<ScanStats>| {
            let (t1, l1) = block("NY");
            let (t2, l2) = block("NJ");
            let ctx = ExecContext::new().with_morsel_size(64).with_stats(stats);
            MdJoin::new(&b, &s)
                .theta(t1)
                .aggs(&l1)
                .block(t2, l2)
                .strategy(strategy)
                .run(&ctx)
                .unwrap()
        };
        let serial = run(ExecStrategy::Serial, Arc::new(ScanStats::new()));
        let stats = Arc::new(ScanStats::new());
        let out = run(ExecStrategy::default(), stats.clone());
        assert_eq!(serial.rows(), out.rows());
        // The default routes to the fused executor: per-set counters move
        // and no set fell back for this fully covered pivot.
        assert_eq!(stats.gen_sets(), 2);
        assert_eq!(stats.gen_set_fallbacks(), 0);
        assert_eq!(stats.scans(), 1);
    }

    #[test]
    fn multi_block_runs_on_every_driver() {
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let mk = |strategy| {
            MdJoin::new(&b, &s)
                .theta(theta.clone())
                .agg("sum(sale)")
                .unwrap()
                .block(theta.clone(), vec![AggSpec::count_star()])
                .strategy(strategy)
                .threads(2)
                .run(&ExecContext::new().with_morsel_size(16))
                .unwrap()
        };
        let serial = mk(ExecStrategy::Serial);
        for strategy in [
            ExecStrategy::Partitioned { partitions: 3 },
            ExecStrategy::Morsel,
            ExecStrategy::MorselBase,
            ExecStrategy::MorselDetail,
        ] {
            assert_eq!(serial.rows(), mk(strategy).rows(), "{strategy:?}");
        }
    }

    #[test]
    fn colliding_alias_is_duplicate_column_on_every_driver() {
        let s = sales(100);
        let b = s.distinct_on(&["cust"]).unwrap();
        for strategy in [
            ExecStrategy::Serial,
            ExecStrategy::Partitioned { partitions: 2 },
            ExecStrategy::Morsel,
            ExecStrategy::MorselBase,
            ExecStrategy::MorselDetail,
            ExecStrategy::Vectorized,
        ] {
            // An alias shadowing a column of B, single- and multi-block.
            let single = MdJoin::new(&b, &s)
                .theta(eq(col_b("cust"), col_r("cust")))
                .agg("sum(sale) as cust")
                .unwrap();
            let multi = single.clone().block(
                eq(col_b("cust"), col_r("cust")),
                vec![AggSpec::count_star()],
            );
            for join in [single, multi] {
                let err = join
                    .strategy(strategy)
                    .threads(2)
                    .run(&ExecContext::new().with_morsel_size(16));
                assert!(
                    matches!(err, Err(CoreError::DuplicateColumn(_))),
                    "{strategy:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn misconfigurations_rejected() {
        let s = sales(10);
        let b = s.distinct_on(&["cust"]).unwrap();
        // No θ at all.
        let err = MdJoin::new(&b, &s).run(&ExecContext::new());
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
        // Aggregates without a θ.
        let err = MdJoin::new(&b, &s)
            .agg("count(*)")
            .unwrap()
            .run(&ExecContext::new());
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
        // Zero threads / zero partitions.
        let theta = eq(col_b("cust"), col_r("cust"));
        for strategy in [
            ExecStrategy::MorselBase,
            ExecStrategy::MorselDetail,
            ExecStrategy::Morsel,
        ] {
            let err = MdJoin::new(&b, &s)
                .theta(theta.clone())
                .agg("count(*)")
                .unwrap()
                .strategy(strategy)
                .threads(0)
                .run(&ExecContext::new());
            assert!(matches!(err, Err(CoreError::BadConfig(_))), "{strategy:?}");
        }
        let err = MdJoin::new(&b, &s)
            .theta(theta)
            .agg("count(*)")
            .unwrap()
            .strategy(ExecStrategy::Partitioned { partitions: 0 })
            .run(&ExecContext::new());
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
    }

    #[test]
    fn budget_degrades_into_partitioned_evaluation() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let s = sales(400);
        let b = s.distinct_on(&["cust"]).unwrap(); // 11 rows
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let serial = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        // Budget fits ~3 base rows of state+index: forces Theorem 4.1
        // degradation but is satisfiable well before one-row partitions.
        let per_row = governor::state_bytes(1, l.len()) + governor::index_bytes(1);
        let stats = Arc::new(ScanStats::new());
        let out = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .budget_bytes(3 * per_row)
            .run(&ExecContext::new().with_stats(stats.clone()))
            .unwrap();
        assert_eq!(serial.rows(), out.rows()); // row-identical, same order
        assert!(stats.degradations() >= 1);
        assert!(stats.scans() > 1, "degradation must cost extra scans of R");
        // A budget too small even for one-row partitions surfaces the breach.
        let err = MdJoin::new(&b, &s)
            .theta(theta)
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .budget_bytes(1)
            .run(&ExecContext::new());
        assert!(matches!(err, Err(CoreError::BudgetExceeded { .. })));
    }

    #[test]
    fn budget_meters_holistic_growth() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        // 4 base rows, 50 detail values each: every median state's reservoir
        // grows to ≥ 400 heap bytes, invisible to the fixed per-row estimate.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        let s = Relation::from_rows(
            schema,
            (0..200i64).map(|i| Row::from_values([i % 4, i])).collect(),
        );
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("median", "sale")];
        let serial = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        // Fixed m=1 footprint: 4×(32 + 1×64) state + 4×48 index + 4×24 key
        // = 672 bytes — fits a 1500-byte budget. The ~2 KiB of metered
        // reservoir growth breaches it mid-scan, forcing Theorem 4.1
        // degradation; at m=2 each partition's fixed + growth cost fits.
        let stats = Arc::new(ScanStats::new());
        let out = MdJoin::new(&b, &s)
            .theta(theta)
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .budget_bytes(1500)
            .run(&ExecContext::new().with_stats(stats.clone()))
            .unwrap();
        assert_eq!(serial.rows(), out.rows());
        assert!(
            stats.degradations() >= 1,
            "holistic growth must trigger degradation"
        );
        assert!(stats.bytes_charged() > 672, "growth must be metered");
    }

    #[test]
    fn budget_meters_holistic_growth_for_k_blocks_and_parallel_drivers() {
        use mdj_storage::ScanStats;
        // Same data as above; the governor lives in one place, so a second
        // median block and the parallel drivers meter growth exactly like
        // the single-block serial join.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        let s = Relation::from_rows(
            schema,
            (0..200i64).map(|i| Row::from_values([i % 4, i])).collect(),
        );
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let two_blocks = || {
            MdJoin::new(&b, &s)
                .theta(theta.clone())
                .aggs(&[AggSpec::on_column("median", "sale")])
                .block(
                    theta.clone(),
                    vec![AggSpec::on_column("median", "sale").with_alias("m2")],
                )
        };
        let unbudgeted = two_blocks().run(&ExecContext::new()).unwrap();
        // Fixed footprint of two blocks at m = 1: 4×(32 + 2×64) state +
        // 2×(4×48 index + 4×24 keys) = 1216 bytes — fits 2500; the ~4 KiB of
        // reservoir growth does not, so the serial plans degrade.
        for strategy in [ExecStrategy::Serial, ExecStrategy::Vectorized] {
            let stats = Arc::new(ScanStats::new());
            let out = two_blocks()
                .strategy(strategy)
                .budget_bytes(2500)
                .run(&ExecContext::new().with_stats(stats.clone()))
                .unwrap();
            assert_eq!(unbudgeted.rows(), out.rows(), "{strategy:?}");
            assert!(stats.degradations() >= 1, "{strategy:?} never degraded");
            assert!(
                stats.bytes_charged() > 1216,
                "{strategy:?}: growth unmetered"
            );
        }
        // The parallel drivers cannot degrade: the same growth surfaces as a
        // typed breach, for one block or two.
        let one_block = MdJoin::new(&b, &s)
            .theta(theta.clone())
            .aggs(&[AggSpec::on_column("median", "sale")]);
        for join in [one_block, two_blocks()] {
            for strategy in [ExecStrategy::MorselDetail, ExecStrategy::MorselBase] {
                let err = join
                    .clone()
                    .strategy(strategy)
                    .threads(2)
                    .budget_bytes(1500)
                    .run(&ExecContext::new().with_morsel_size(64));
                assert!(
                    matches!(err, Err(CoreError::BudgetExceeded { .. })),
                    "{strategy:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn run_overrides_do_not_mutate_the_callers_context() {
        let s = sales(50);
        let b = s.distinct_on(&["cust"]).unwrap();
        let ctx = ExecContext::new();
        let token = crate::governor::CancelToken::new();
        token.cancel();
        let err = MdJoin::new(&b, &s)
            .theta(eq(col_b("cust"), col_r("cust")))
            .agg("count(*)")
            .unwrap()
            .cancel_token(token)
            .run(&ctx);
        assert!(matches!(err, Err(CoreError::Cancelled)));
        assert!(ctx.cancel().is_none() && ctx.memory().is_none() && ctx.deadline().is_none());
        // The same builder without the token still runs under the same ctx.
        MdJoin::new(&b, &s)
            .theta(eq(col_b("cust"), col_r("cust")))
            .agg("count(*)")
            .unwrap()
            .run(&ctx)
            .unwrap();
    }

    #[test]
    fn deadline_expiry_and_generous_deadline() {
        let s = sales(200);
        let b = s.distinct_on(&["cust"]).unwrap();
        let mk = || {
            MdJoin::new(&b, &s)
                .theta(eq(col_b("cust"), col_r("cust")))
                .agg("count(*)")
                .unwrap()
        };
        let err = mk().deadline(Duration::ZERO).run(&ExecContext::new());
        assert!(matches!(err, Err(CoreError::DeadlineExceeded)));
        mk().deadline(Duration::from_secs(3600))
            .run(&ExecContext::new())
            .unwrap();
    }

    #[test]
    fn default_runs_the_batch_evaluator_serially_on_every_shape() {
        use mdj_storage::ScanStats;
        // Holistic aggregates alone and an unbound θ, at many morsels and
        // four threads: one batched serial scan, bit-identical to `Serial`.
        let s = sales(2000);
        let b = s.distinct_on(&["cust"]).unwrap();
        let bound = eq(col_b("cust"), col_r("cust"));
        for (theta, agg) in [
            (bound.clone(), "median(sale)"),
            (bound, "count_distinct(sale)"),
            (le(col_r("cust"), col_b("cust")), "sum(sale)"),
        ] {
            let run = |strategy: ExecStrategy, stats: Arc<ScanStats>| {
                let ctx = ExecContext::new().with_morsel_size(128).with_stats(stats);
                MdJoin::new(&b, &s)
                    .theta(theta.clone())
                    .agg(agg)
                    .unwrap()
                    .strategy(strategy)
                    .threads(4)
                    .run(&ctx)
                    .unwrap()
            };
            let serial = run(ExecStrategy::Serial, Arc::new(ScanStats::new()));
            let stats = Arc::new(ScanStats::new());
            let out = run(ExecStrategy::default(), stats.clone());
            assert!(stats.batches() > 0, "{agg}");
            assert!(stats.workers().is_empty(), "{agg}");
            let bits = |r: &Relation| -> Vec<Vec<Option<u64>>> {
                r.rows()
                    .iter()
                    .map(|row| {
                        row.values()
                            .iter()
                            .map(|v| v.as_float().map(f64::to_bits))
                            .collect()
                    })
                    .collect()
            };
            assert_eq!(serial.rows(), out.rows(), "{agg}");
            assert_eq!(bits(&serial), bits(&out), "{agg}");
        }
    }
}
