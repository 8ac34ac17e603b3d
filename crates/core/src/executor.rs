//! The executor core: Algorithm 3.1's scan / probe / update loop, once.
//!
//! Every [`ExecStrategy`](crate::ExecStrategy) is a choice along three
//! orthogonal axes, and this module is the only place any of them is
//! implemented:
//!
//! * a **detail source** ([`DetailSource`] → [`Grid`]) hands out `R` as
//!   ordered [`Slice`]s on a chunk grid fixed by `(source, morsel size)` —
//!   never by the thread count: `morsel`-row ranges of a resident relation,
//!   or runs of pinned pages of a [`PagedScan`] (one page pinned at a time;
//!   pages Theorem 4.2 rules out are never read). A page is read as its
//!   buffer-pool frame's columns, a resident chunk as its relation's cached
//!   columns; only a scalar path asks a page for rows;
//! * an **evaluator** bound once per query over `k ≥ 1` (θ, l) blocks — the
//!   single-block join is the `k = 1` case of Theorem 4.3's generalized join:
//!   the scalar [`Evaluator`], feeding a [`Sink`], or the [`BatchEvaluator`],
//!   feeding the state set's typed kernels;
//! * a **driver** ([`Driver`]): serial, base-partitioned per Theorem 4.1
//!   (sequential or parallel), or detail-parallel. The batch evaluator pairs
//!   with the serial driver only.
//!
//! ## The ordered-apply protocol
//!
//! The detail-parallel driver keeps **one** state set. Workers claim chunk
//! indexes in increasing order from a shared counter and compute each chunk's
//! pure [`Delta`] — which base rows matched, and the aggregate inputs of each
//! matching tuple — in parallel, inside the panic-isolation boundary. A
//! worker then waits at a turnstile until every earlier chunk has been
//! applied, applies its own delta to the state set, and passes the turn on.
//! Every aggregate state therefore sees exactly the update sequence of the
//! serial scan — `(a + b) + c` in tuple order, never `a + (b + c)` — so
//! results are `f64::to_bits`-identical to [`Driver::Serial`] at any thread
//! count without ever calling `merge`; a worker holds at most one delta, so
//! at most `threads` are in flight; and the worker holding the lowest
//! unapplied chunk never waits, so the line always moves.
//!
//! Governor polling, fault sites, memory charging, growth metering, the
//! duplicate-column check and stats recording all live here.

use crate::context::{ExecContext, CANCEL_CHECK_INTERVAL};
use crate::error::{CoreError, Result};
use crate::generalized::Block;
use crate::governor::{self, panic_message, GrowthMeter, MemCharge};
use crate::grouped::GroupTable;
use crate::mdjoin::{bind_aggs, joined_schema, BoundAgg};
use crate::paged::PagedScan;
use crate::probe::ProbePlan;
use crate::vectorized::{apply_batch, BatchProbe, ColStates, Scoreboard, MAX_BATCH};
use crossbeam::deque::{Steal, Stealer, Worker};
use mdj_storage::{ColumnarChunk, Counter, PinnedPage, Relation, Row, Schema, Value, WorkerStats};
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The machine's available parallelism: the builder's thread count when
/// none is set.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ------------------------------------------------------------ detail source

/// Where the detail relation `R` lives.
#[derive(Debug, Clone, Copy)]
pub enum DetailSource<'a> {
    /// Rows resident in memory.
    Resident(&'a Relation),
    /// A paged table read through a buffer pool.
    Paged(&'a PagedScan),
}

impl<'a> DetailSource<'a> {
    pub(crate) fn schema(&self) -> &'a Schema {
        match self {
            DetailSource::Resident(r) => r.schema(),
            DetailSource::Paged(scan) => scan.schema(),
        }
    }

    pub(crate) fn resident(&self) -> Option<&'a Relation> {
        match self {
            DetailSource::Resident(r) => Some(r),
            DetailSource::Paged(_) => None,
        }
    }
}

/// Cut `0..n` into ranges of at most `size` rows — always at least one range
/// (`0..0` for an empty input), so every driver has a unit to evaluate.
pub(crate) fn split(n: usize, size: usize) -> Vec<Range<usize>> {
    let size = size.max(1);
    let mut out: Vec<Range<usize>> = (0..n)
        .step_by(size)
        .map(|start| start..(start + size).min(n))
        .collect();
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

/// Cut `0..n` into `m` near-equal contiguous ranges (fewer when `n < m`).
pub(crate) fn split_even(n: usize, m: usize) -> Vec<Range<usize>> {
    let m = m.clamp(1, n.max(1));
    let (base, extra) = (n / m, n % m);
    let mut start = 0;
    (0..m)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// One piece of a chunk as a scan reads it: one chunk of a resident
/// relation's grid, or one pinned page.
#[derive(Clone, Copy)]
pub(crate) enum Slice<'s> {
    /// Chunk `idx` of `rel`'s grid of `morsel`-row chunks, and its rows.
    Resident {
        rel: &'s Relation,
        idx: usize,
        morsel: usize,
        rows: &'s [Row],
    },
    Page(&'s PinnedPage),
}

impl<'s> Slice<'s> {
    /// Chunk `idx` of `rel`'s grid of `morsel`-row chunks.
    pub(crate) fn resident(rel: &'s Relation, idx: usize, morsel: usize) -> Self {
        let rows = rel.rows();
        Slice::Resident {
            rel,
            idx,
            morsel,
            rows: &rows[idx * morsel..((idx + 1) * morsel).min(rows.len())],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Slice::Resident { rows, .. } => rows.len(),
            Slice::Page(pin) => pin.page().len(),
        }
    }

    /// The slice's rows. A page builds them from its columns on the first
    /// request of its residency, counted as `page_rows_built`: only scalar
    /// paths ask.
    pub(crate) fn rows(&self, ctx: &ExecContext) -> &'s [Row] {
        match self {
            Slice::Resident { rows, .. } => rows,
            Slice::Page(pin) => pin.page().rows_recorded(ctx.stats().map(|s| s.as_ref())),
        }
    }

    /// The slice in columnar form: a page's own chunk, every column decoded
    /// once per residency; a resident chunk's `needed` columns from its
    /// relation's column cache, each transposed once per relation.
    pub(crate) fn chunk(&self, needed: &[bool], ctx: &ExecContext) -> Cow<'s, ColumnarChunk> {
        match *self {
            Slice::Resident {
                rel, idx, morsel, ..
            } => Cow::Owned(rel.chunk(idx, morsel, needed, ctx.stats().map(|s| s.as_ref()))),
            Slice::Page(pin) => Cow::Borrowed(pin.page().chunk()),
        }
    }
}

/// One scan's chunk grid over a [`DetailSource`].
pub(crate) struct Grid<'a> {
    schema: &'a Schema,
    rows: u64,
    chunks: Chunks<'a>,
}

enum Chunks<'a> {
    Resident {
        rel: &'a Relation,
        morsel: usize,
    },
    /// Runs of consecutive admitted pages totalling ≥ `morsel` rows each.
    Paged {
        scan: &'a PagedScan,
        runs: Vec<Vec<usize>>,
    },
}

impl<'a> Grid<'a> {
    /// The grid for scanning `source` under the blocks' θs. For a paged
    /// source a page is admitted when any block's clustered-key bounds
    /// (Theorem 4.2) admit it — answered from the manifest, zero I/O.
    pub(crate) fn new(source: DetailSource<'a>, blocks: &[Block], morsel: usize) -> Self {
        let morsel = morsel.clamp(1, MAX_BATCH);
        let (rows, chunks) = match source {
            DetailSource::Resident(r) => (r.len() as u64, Chunks::Resident { rel: r, morsel }),
            DetailSource::Paged(scan) => {
                let mut pages: Vec<usize> = blocks
                    .iter()
                    .flat_map(|blk| scan.clone().prefiltered(&blk.theta).admitted_pages())
                    .collect();
                pages.sort_unstable();
                pages.dedup();
                let (mut runs, mut cur, mut in_run, mut total) = (Vec::new(), Vec::new(), 0, 0u64);
                for pno in pages {
                    let page_rows = scan.table().page_meta(pno).map_or(0, |m| m.rows as usize);
                    cur.push(pno);
                    in_run += page_rows;
                    total += page_rows as u64;
                    if in_run >= morsel {
                        runs.push(std::mem::take(&mut cur));
                        in_run = 0;
                    }
                }
                if !cur.is_empty() {
                    runs.push(cur);
                }
                (total, Chunks::Paged { scan, runs })
            }
        };
        Grid {
            schema: source.schema(),
            rows,
            chunks,
        }
    }

    /// Rows one scan of the grid delivers.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    fn len(&self) -> usize {
        match &self.chunks {
            Chunks::Resident { rel, morsel } => rel.len().div_ceil(*morsel),
            Chunks::Paged { runs, .. } => runs.len(),
        }
    }

    /// Hand chunk `idx`'s slices to `f`, in order: the one range of a
    /// resident chunk, or each page of a run — pinned only while `f` reads it.
    fn scan_chunk(
        &self,
        idx: usize,
        ctx: &ExecContext,
        f: &mut dyn FnMut(Slice) -> Result<()>,
    ) -> Result<()> {
        match &self.chunks {
            Chunks::Resident { rel, morsel } => f(Slice::resident(rel, idx, *morsel)),
            Chunks::Paged { scan, runs } => {
                for &pno in &runs[idx] {
                    f(Slice::Page(&scan.fetch(pno, ctx)?))?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------- evaluator

struct BoundBlock {
    plan: ProbePlan,
    aggs: Vec<BoundAgg>,
    /// The distinct detail columns the aggregates read, and per aggregate its
    /// position among them (`None` = star input): a [`Delta`] carries each
    /// matching tuple's inputs once, however many aggregates share a column.
    inputs: Vec<usize>,
    input_of: Vec<Option<usize>>,
    _index_charge: MemCharge,
}

/// Bind every block against `B` and the detail schema, charging each probe
/// index against the budget before it is built.
fn bind_blocks(
    b: &Relation,
    r_schema: &Schema,
    blocks: &[Block],
    ctx: &ExecContext,
) -> Result<Vec<BoundBlock>> {
    blocks
        .iter()
        .map(|blk| {
            let aggs = bind_aggs(&blk.aggs, r_schema, ctx.registry())?;
            let (plan, _index_charge) = ProbePlan::build_charged(b, r_schema, &blk.theta, ctx)?;
            let mut inputs: Vec<usize> = aggs.iter().filter_map(|ba| ba.input_col).collect();
            inputs.sort_unstable();
            inputs.dedup();
            let input_of = aggs
                .iter()
                .map(|ba| ba.input_col.and_then(|c| inputs.binary_search(&c).ok()))
                .collect();
            Ok(BoundBlock {
                plan,
                aggs,
                inputs,
                input_of,
                _index_charge,
            })
        })
        .collect()
}

/// Aggregate input of `ba` for detail tuple `t` (star input: value unused).
fn input<'t>(ba: &BoundAgg, t: &'t Row) -> &'t Value {
    match ba.input_col {
        Some(c) => &t[c],
        None => &Value::Null,
    }
}

/// Where the scalar evaluator's matches go: straight into the state set, or
/// into a chunk's [`Delta`].
trait Sink {
    /// Tuple `t` matched base rows `matches` under block `k`.
    fn tuple(&mut self, k: usize, blk: &BoundBlock, t: &Row, matches: &[usize]) -> Result<()>;
}

/// The probe side of Algorithm 3.1 for `k` blocks, one tuple at a time: per
/// detail slice, find `Rel(t)` for every tuple and block and hand it to a
/// [`Sink`].
struct Evaluator<'a> {
    b: &'a Relation,
    blocks: &'a [BoundBlock],
}

impl Evaluator<'_> {
    /// Evaluate one detail slice into `sink`; returns the aggregate updates
    /// it implies (recorded by the driver, outside any retry boundary).
    /// The slice's probes are counted once, also when a tuple errors.
    fn scan(&self, rows: &[Row], ctx: &ExecContext, sink: &mut impl Sink) -> Result<u64> {
        let mut updates = 0usize;
        let mut probes = 0u64;
        let mut matches: Vec<usize> = Vec::new();
        let mut codes: Vec<u32> = Vec::new();
        let scanned = (|| -> Result<()> {
            for (ti, t) in rows.iter().enumerate() {
                if ti % CANCEL_CHECK_INTERVAL == 0 {
                    ctx.check_interrupt()?;
                }
                for (k, blk) in self.blocks.iter().enumerate() {
                    blk.plan
                        .matches(self.b, t.values(), &mut matches, &mut codes, &mut probes)?;
                    if matches.is_empty() || blk.aggs.is_empty() {
                        continue;
                    }
                    updates += matches.len() * blk.aggs.len();
                    sink.tuple(k, blk, t, &matches)?;
                }
            }
            Ok(())
        })();
        ctx.count(Counter::probes, probes);
        scanned.map(|()| updates as u64)
    }
}

/// The same probe side over columnar chunks: one [`BatchProbe`] per block,
/// feeding the state set's typed kernels straight from the chunk. It runs on
/// the serial driver only — a parallel driver's [`Delta`] would carry row-form
/// values back through one scalar update each, discarding the kernels
/// (DESIGN §3.1, E11d).
struct BatchEvaluator<'a> {
    b: &'a Relation,
    blocks: &'a [BoundBlock],
    probes: Vec<BatchProbe<'a>>,
    /// The detail columns each slice transposes: the probes' and the kernels'.
    needed: Vec<bool>,
    /// Per block: did any batch fall back to the scalar interpreter?
    fell_back: Vec<bool>,
}

impl<'a> BatchEvaluator<'a> {
    /// `kernel_inputs` marks the aggregate input columns the typed kernels
    /// read from each chunk.
    fn new(b: &'a Relation, blocks: &'a [BoundBlock], kernel_inputs: Vec<bool>) -> Self {
        let probes: Vec<BatchProbe> = blocks
            .iter()
            .map(|blk| BatchProbe::new(&blk.plan))
            .collect();
        let mut needed = kernel_inputs;
        for probe in &probes {
            probe.collect_needed(&mut needed);
        }
        BatchEvaluator {
            b,
            blocks,
            probes,
            needed,
            fell_back: vec![false; blocks.len()],
        }
    }

    /// Evaluate one detail slice into `states`; returns the aggregate updates
    /// it implies.
    fn scan(&mut self, slice: Slice, ctx: &ExecContext, states: &mut States) -> Result<u64> {
        ctx.check_interrupt()?;
        if slice.len() == 0 {
            return Ok(0);
        }
        // One columnar form per slice, shared by all k blocks.
        let chunk = slice.chunk(&self.needed, ctx);
        let b = self.b;
        self.update(&chunk, slice, b, None, ctx, states)
    }

    /// Probe every block with `slice` (`chunk` its columnar form) over `b`
    /// and apply the matches to `states`. `groups`, when given, is each
    /// row's own group of a `B` this scan is building.
    fn update(
        &mut self,
        chunk: &ColumnarChunk,
        slice: Slice,
        b: &Relation,
        groups: Option<&[usize]>,
        ctx: &ExecContext,
        states: &mut States,
    ) -> Result<u64> {
        let mut pairs: Vec<(u32, usize)> = Vec::new();
        let mut updates = 0usize;
        for (k, (blk, probe)) in self.blocks.iter().zip(&self.probes).enumerate() {
            ctx.count(Counter::batches, 1);
            let mut apply = |pairs: &[(u32, usize)]| {
                if pairs.is_empty() || blk.aggs.is_empty() {
                    return Ok(());
                }
                updates += pairs.len() * blk.aggs.len();
                states.batch(k, blk, chunk, slice, pairs)
            };
            if probe.matches_batch(chunk, slice, b, groups, ctx, &mut pairs, &mut apply)? {
                ctx.count(Counter::batch_fallbacks, 1);
                self.fell_back[k] = true;
            }
        }
        Ok(updates as u64)
    }

    /// Report a generalized join's sets, and how many fell back.
    fn count_sets(&self, ctx: &ExecContext) {
        if self.blocks.len() > 1 {
            let fell = self.fell_back.iter().filter(|&&f| f).count();
            ctx.count(Counter::gen_sets, self.blocks.len() as u64);
            ctx.count(Counter::gen_set_fallbacks, fell as u64);
        }
    }
}

// ------------------------------------------------------------------- states

/// The one aggregate-state set of an evaluation: `cols[block][agg]` holds a
/// state per base row, typed kernels where the aggregate has one.
struct States<'a> {
    cols: Vec<Vec<ColStates>>,
    /// Base rows the columns hold a state for.
    rows: usize,
    /// Holistic aggregates grow with the data (footnote 2): under a budget
    /// their actual growth is metered per update.
    metered: Vec<Vec<bool>>,
    meter: GrowthMeter,
    board: Scoreboard,
    ctx: &'a ExecContext,
    _charge: MemCharge,
}

impl<'a> States<'a> {
    fn new(blocks: &[BoundBlock], b_len: usize, ctx: &'a ExecContext) -> Result<Self> {
        let n_aggs: usize = blocks.iter().map(|blk| blk.aggs.len()).sum();
        let _charge = MemCharge::try_new(ctx, governor::state_bytes(b_len, n_aggs))?;
        let meter = GrowthMeter::new(ctx);
        let holistic = |ba: &BoundAgg| ba.agg.class() == mdj_agg::AggClass::Holistic;
        Ok(States {
            rows: b_len,
            cols: blocks
                .iter()
                .map(|blk| {
                    blk.aggs
                        .iter()
                        .map(|ba| ColStates::init(ba, b_len))
                        .collect()
                })
                .collect(),
            // The meter is inert without a budget, and then so is the
            // per-update `heap_bytes` bookkeeping.
            metered: blocks
                .iter()
                .map(|blk| {
                    blk.aggs
                        .iter()
                        .map(|ba| meter.active() && holistic(ba))
                        .collect()
                })
                .collect(),
            meter,
            board: Scoreboard::new(b_len),
            ctx,
            _charge,
        })
    }

    /// Extend every column to the rows of `b`, a `B` the scan is building,
    /// charging each new group's states and index entry as it appears.
    fn grow(&mut self, blocks: &[BoundBlock], b: &Relation) -> Result<()> {
        let new = b.len() - self.rows;
        if new == 0 {
            return Ok(());
        }
        let n_aggs: usize = blocks.iter().map(|blk| blk.aggs.len()).sum();
        self.meter.charge(
            governor::state_bytes(new, n_aggs)
                .saturating_add(governor::index_bytes(new))
                .saturating_add(governor::index_key_bytes(new, b.schema().len())),
        )?;
        for (cols, blk) in self.cols.iter_mut().zip(blocks) {
            for (col, ba) in cols.iter_mut().zip(&blk.aggs) {
                col.grow(ba, b.len());
            }
        }
        self.board.grow(b.len());
        self.rows = b.len();
        Ok(())
    }

    /// Detail columns the typed kernels read from a batch's chunk.
    fn kernel_inputs(&self, blocks: &[BoundBlock], width: usize) -> Vec<bool> {
        let mut needed = vec![false; width];
        for (blk, cols) in blocks.iter().zip(&self.cols) {
            for (ba, col) in blk.aggs.iter().zip(cols) {
                if let (ColStates::Kernel(_), Some(c)) = (col, ba.input_col) {
                    needed[c] = true;
                }
            }
        }
        needed
    }

    /// Apply one chunk's delta, replaying exactly the updates the serial
    /// scan of that chunk performs.
    fn apply(&mut self, blocks: &[BoundBlock], delta: &Delta) -> Result<()> {
        let states = self.cols.iter_mut().zip(&self.metered);
        for ((blk, delta), (cols, metered)) in blocks.iter().zip(&delta.0).zip(states) {
            let width = blk.inputs.len();
            for &(bi, slot) in &delta.pairs {
                let values = &delta.values[slot * width..][..width];
                for ((col, &metered), at) in cols.iter_mut().zip(metered).zip(&blk.input_of) {
                    let v = at.map_or(&Value::Null, |i| &values[i]);
                    update(col, metered, &mut self.meter, bi, v)?;
                }
            }
        }
        Ok(())
    }

    /// The batch loop's sink: block `k`'s `(slice-local tuple, base row)`
    /// pairs, in tuple order, over `chunk` (the columnar form of `slice`).
    fn batch(
        &mut self,
        k: usize,
        blk: &BoundBlock,
        chunk: &ColumnarChunk,
        slice: Slice,
        pairs: &[(u32, usize)],
    ) -> Result<()> {
        let groups = self.board.group(pairs);
        for (j, ba) in blk.aggs.iter().enumerate() {
            apply_batch(
                &mut self.cols[k][j],
                ba,
                groups,
                chunk,
                slice,
                0,
                self.metered[k][j],
                &mut self.meter,
                self.ctx,
            )?;
        }
        Ok(())
    }

    /// `B`'s columns, then each block's finalized aggregates in block order.
    fn finalize(&self, b: &Relation, schema: Schema) -> Relation {
        let mut out = Relation::empty(schema);
        for (bi, row) in b.iter().enumerate() {
            let mut vals = row.values().to_vec();
            vals.extend(self.cols.iter().flatten().map(|col| col.finalize(bi)));
            out.push_unchecked(Row::new(vals));
        }
        out
    }
}

/// The scalar update protocol: fold one value into base row `bi`'s state.
#[inline]
fn update(
    col: &mut ColStates,
    metered: bool,
    meter: &mut GrowthMeter,
    bi: usize,
    v: &Value,
) -> Result<()> {
    match col {
        ColStates::Kernel(states) => states[bi].update_value(v)?,
        ColStates::Boxed(states) if metered => {
            let before = states[bi].heap_bytes();
            states[bi].update(v)?;
            meter.charge(states[bi].heap_bytes().saturating_sub(before))?;
        }
        ColStates::Boxed(states) => states[bi].update(v)?,
    }
    Ok(())
}

impl Sink for States<'_> {
    fn tuple(&mut self, k: usize, blk: &BoundBlock, t: &Row, matches: &[usize]) -> Result<()> {
        let (cols, metered) = (&mut self.cols[k], &self.metered[k]);
        for &bi in matches {
            for ((col, &metered), ba) in cols.iter_mut().zip(metered).zip(&blk.aggs) {
                update(col, metered, &mut self.meter, bi, input(ba, t))?;
            }
        }
        Ok(())
    }
}

/// One chunk's pure contribution, per block: each matching tuple deposits its
/// aggregate inputs once (one value per distinct input column per slot) and
/// `pairs` records which base rows consume which slot. Building it touches no
/// shared state, so the isolation boundary can retry it without
/// double-counting.
struct Delta(Vec<BlockDelta>);

#[derive(Default)]
struct BlockDelta {
    pairs: Vec<(usize, usize)>,
    values: Vec<Value>,
    slots: usize,
}

impl Sink for Delta {
    fn tuple(&mut self, k: usize, blk: &BoundBlock, t: &Row, matches: &[usize]) -> Result<()> {
        let delta = &mut self.0[k];
        delta
            .values
            .extend(blk.inputs.iter().map(|&c| t[c].clone()));
        let slot = delta.slots;
        delta.slots += 1;
        delta.pairs.extend(matches.iter().map(|&bi| (bi, slot)));
        Ok(())
    }
}

// ------------------------------------------------------------------ drivers

/// How the scan / probe / update loop is driven.
#[derive(Debug, Clone)]
pub(crate) enum Driver {
    /// One thread, one state set, chunks in order; the only driver the batch
    /// evaluator ([`BatchEvaluator`]) runs on, selected by `batch`.
    Serial { batch: bool },
    /// Theorem 4.1: each `B` fragment is an independent serial evaluation
    /// against the whole source (one scan of `R` per fragment); the output is
    /// the ordered union. `threads = None` runs the fragments in sequence.
    Base {
        fragments: Vec<Range<usize>>,
        threads: Option<usize>,
    },
    /// Workers compute chunk deltas in parallel; one state set receives them
    /// in chunk order (see the module docs).
    Detail { threads: usize },
}

/// `B`'s columns, then each block's aggregate columns in block order.
pub(crate) fn output_schema(
    b_schema: &Schema,
    r_schema: &Schema,
    blocks: &[Block],
    ctx: &ExecContext,
) -> Result<Schema> {
    let lists = blocks.iter().map(|blk| blk.aggs.as_slice());
    joined_schema(b_schema, r_schema, lists, ctx.registry())
}

/// Evaluate `MD(B, R, (l₁..l_k), (θ₁..θ_k))` over `grid` with `driver`.
/// Output is row- and bit-identical across every (driver, evaluator, thread
/// count) combination.
pub(crate) fn run(
    b: &Relation,
    grid: &Grid,
    blocks: &[Block],
    driver: &Driver,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.check_interrupt()?;
    if blocks.is_empty() {
        return Err(CoreError::BadConfig(
            "MD-join needs at least one (θ, l) block".into(),
        ));
    }
    if let Driver::Base { fragments, threads } = driver {
        return base_partitioned(b, grid, blocks, fragments, *threads, ctx);
    }
    let schema = output_schema(b.schema(), grid.schema, blocks, ctx)?;
    let bound = bind_blocks(b, grid.schema, blocks, ctx)?;
    let mut states = States::new(&bound, b.len(), ctx)?;
    ctx.count(Counter::scans, 1);
    ctx.count(Counter::tuples_scanned, grid.rows());
    let eval = Evaluator { b, blocks: &bound };
    match driver {
        Driver::Detail { threads } => {
            states = detail_parallel(&eval, grid, states, *threads, ctx)?;
        }
        Driver::Serial { batch: true } => {
            let kernel_inputs = states.kernel_inputs(&bound, grid.schema.len());
            let mut batch = BatchEvaluator::new(b, &bound, kernel_inputs);
            scan_in_order(grid, ctx, |slice| batch.scan(slice, ctx, &mut states))?;
            batch.count_sets(ctx);
        }
        // `Serial { batch: false }`; `Base` returned above.
        _ => scan_in_order(grid, ctx, |slice| {
            eval.scan(slice.rows(ctx), ctx, &mut states)
        })?,
    }
    Ok(states.finalize(b, schema))
}

/// How a scan that builds its group-by base ends ([`run_grouped`]).
pub(crate) enum Grouped {
    /// The join's answer.
    Answer(Relation),
    /// `B` alone, every group in first-seen order: the scan stopped answering
    /// and finished as `B`'s pass.
    Base(Relation),
}

/// Evaluate `MD(γ_D(σ_p(R)), R, (l₁..l_k), (θ₁..θ_k))` in one scan of `grid`
/// on the batch evaluator, `table` finding each group of `B` as the scan
/// first meets it (see [`crate::grouped`]): each slice first finds or inserts
/// its rows' groups, the state set grows to the new groups, and the blocks
/// probe by group id.
///
/// A key that is not its own probe key, or a budget breach, stops the
/// answering: the states are dropped and the rest of the scan only collects
/// keys, so the caller gets [`Grouped::Base`] and answers over it without a
/// further pass to build `B`. That scan still read `R` once, and counts as
/// such; it counts as `B`'s pass too, and the probes, updates and bytes
/// charged before it stopped stay counted, as a degraded plan's abandoned
/// attempts' do.
pub(crate) fn run_grouped(
    mut table: GroupTable,
    grid: &Grid,
    blocks: &[Block],
    ctx: &ExecContext,
) -> Result<Grouped> {
    ctx.check_interrupt()?;
    let empty = Relation::empty(table.base().schema().clone());
    let schema = output_schema(empty.schema(), grid.schema, blocks, ctx)?;
    let bound = bind_blocks(&empty, grid.schema, blocks, ctx)?;
    let fresh = States::new(&bound, 0, ctx)?;
    ctx.count(Counter::scans, 1);
    ctx.count(Counter::tuples_scanned, grid.rows());
    let mut batch = BatchEvaluator::new(
        &empty,
        &bound,
        fresh.kernel_inputs(&bound, grid.schema.len()),
    );
    let mut states = Some(fresh);
    table.collect_needed(&mut batch.needed);
    let mut ids = Vec::new();
    scan_in_order(grid, ctx, |slice| {
        ctx.check_interrupt()?;
        if slice.len() == 0 {
            return Ok(0);
        }
        let chunk = slice.chunk(&batch.needed, ctx);
        table.assign(&chunk, slice, ctx, &mut ids)?;
        let Some(st) = states.as_mut() else {
            return Ok(0);
        };
        let answered = match table.exact() {
            true => st
                .grow(&bound, table.base())
                .and_then(|()| batch.update(&chunk, slice, table.base(), Some(&ids), ctx, st))
                .map(Some),
            false => Ok(None),
        };
        match answered {
            Ok(Some(updates)) => Ok(updates),
            Ok(None) | Err(CoreError::BudgetExceeded { .. }) => {
                states = None;
                batch.needed.fill(false);
                table.collect_needed(&mut batch.needed);
                Ok(0)
            }
            Err(e) => Err(e),
        }
    })?;
    match states {
        Some(states) => {
            ctx.count(Counter::base_fused, 1);
            batch.count_sets(ctx);
            Ok(Grouped::Answer(states.finalize(table.base(), schema)))
        }
        None => {
            ctx.count(Counter::base_passes, 1);
            Ok(Grouped::Base(table.into_base()))
        }
    }
}

/// The serial driver's loop: every chunk in order through `scan`, counting
/// the updates each implies.
pub(crate) fn scan_in_order(
    grid: &Grid,
    ctx: &ExecContext,
    mut scan: impl FnMut(Slice) -> Result<u64>,
) -> Result<()> {
    for idx in 0..grid.len() {
        let mut updates = 0;
        grid.scan_chunk(idx, ctx, &mut |slice| {
            updates += scan(slice)?;
            Ok(())
        })?;
        ctx.count(Counter::updates, updates);
    }
    Ok(())
}

/// Run one unit's *pure* computation inside a panic-isolation boundary,
/// retrying up to `ctx.max_morsel_retries` times. The closure must be free of
/// externally visible side effects, so a retried attempt cannot double-count
/// work; callers apply its result afterwards, outside the boundary. After the
/// retry budget is spent the panic surfaces as a structured
/// [`CoreError::MorselPanicked`] — never a poisoned or hung run.
fn run_isolated<T>(ctx: &ExecContext, morsel: usize, f: impl Fn() -> Result<T>) -> Result<T> {
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(result) => return result,
            Err(payload) => {
                if attempts > ctx.max_morsel_retries() {
                    return Err(CoreError::MorselPanicked {
                        morsel,
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
                ctx.count(Counter::morsel_retries, 1);
            }
        }
    }
}

/// Spawn one worker per seed and join them all; a worker that dies outside
/// an isolation boundary surfaces as [`CoreError::WorkerPanicked`].
fn run_workers<W: Send, T: Send>(
    seeds: Vec<W>,
    worker: impl Fn(usize, W) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let results: Vec<Result<T>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .into_iter()
            .enumerate()
            .map(|(me, seed)| {
                let worker = &worker;
                scope.spawn(move |_| worker(me, seed))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(CoreError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    })
    .map_err(|payload| {
        CoreError::Internal(format!(
            "crossbeam scope failed: {}",
            panic_message(payload.as_ref())
        ))
    })?;
    results.into_iter().collect()
}

fn check_threads(threads: usize) -> Result<()> {
    if threads == 0 {
        return Err(CoreError::BadConfig("thread count must be ≥ 1".into()));
    }
    Ok(())
}

/// The ordered-apply turnstile: the one state set, and whose turn it is.
struct Turn<'a> {
    /// Next chunk index to apply; everything below it is in `states`.
    next: usize,
    /// A worker failed: everyone waiting for a turn gives up.
    failed: bool,
    states: States<'a>,
}

/// Marks the run failed (and wakes waiting workers) unless disarmed, so an
/// error or panic in one worker can never strand the others at the turnstile.
struct FailGuard<'t, 'a>(&'t Mutex<Turn<'a>>, &'t Condvar, bool);

impl Drop for FailGuard<'_, '_> {
    fn drop(&mut self) {
        if self.2 {
            lock(self.0).failed = true;
            self.1.notify_all();
        }
    }
}

fn detail_parallel<'a>(
    eval: &Evaluator,
    grid: &Grid,
    states: States<'a>,
    threads: usize,
    ctx: &ExecContext,
) -> Result<States<'a>> {
    check_threads(threads)?;
    let claimed = AtomicUsize::new(0);
    let turn = Mutex::new(Turn {
        next: 0,
        failed: false,
        states,
    });
    let turned = Condvar::new();

    let worker = |me: usize, (): ()| -> Result<()> {
        let mut ws = WorkerStats::new(me);
        let mut guard = FailGuard(&turn, &turned, true);
        loop {
            let idx = claimed.fetch_add(1, Ordering::Relaxed);
            if idx >= grid.len() {
                break;
            }
            ws.morsels += 1;
            let (delta, tuples, updates) = run_isolated(ctx, idx, || {
                ctx.fault_on_morsel(idx);
                let mut delta = Delta(eval.blocks.iter().map(|_| BlockDelta::default()).collect());
                let (mut tuples, mut updates) = (0u64, 0u64);
                grid.scan_chunk(idx, ctx, &mut |slice| {
                    tuples += slice.len() as u64;
                    updates += eval.scan(slice.rows(ctx), ctx, &mut delta)?;
                    Ok(())
                })?;
                Ok((delta, tuples, updates))
            })?;
            ctx.count(Counter::updates, updates);
            ws.tuples += tuples;
            ws.updates += updates;
            // Wait for this chunk's turn, apply, pass the turn on. The worker
            // holding chunk `next` never waits, so the line always moves.
            let mut t = lock(&turn);
            while t.next != idx && !t.failed {
                t = turned.wait(t).unwrap_or_else(PoisonError::into_inner);
            }
            if t.failed {
                break;
            }
            t.states.apply(eval.blocks, &delta)?;
            t.next += 1;
            drop(t);
            turned.notify_all();
        }
        guard.2 = false;
        if let Some(stats) = ctx.stats() {
            stats.record_worker(ws);
        }
        Ok(())
    };
    run_workers(vec![(); threads], worker)?;
    Ok(turn
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .states)
}

/// Build one deque per worker and seed each with a contiguous run of tasks
/// (contiguity keeps a worker's own morsels adjacent in memory; stealing only
/// breaks locality when the load is actually imbalanced).
fn seed_queues<T>(tasks: Vec<T>, threads: usize) -> (Vec<Worker<T>>, Vec<Stealer<T>>) {
    let queues: Vec<Worker<T>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<T>> = queues.iter().map(Worker::stealer).collect();
    let n = tasks.len();
    let base = n / threads;
    let extra = n % threads;
    let mut it = tasks.into_iter();
    for (i, q) in queues.iter().enumerate() {
        let take = base + usize::from(i < extra);
        for task in it.by_ref().take(take) {
            q.push(task);
        }
    }
    (queues, stealers)
}

/// Pop the next task: own queue first, then steal round-robin from the other
/// workers (recording the steal).
fn next_task<T>(
    own: &Worker<T>,
    stealers: &[Stealer<T>],
    me: usize,
    stats: &mut WorkerStats,
) -> Option<T> {
    if let Some(task) = own.pop() {
        return Some(task);
    }
    let n = stealers.len();
    for k in 1..n {
        let victim = &stealers[(me + k) % n];
        loop {
            match victim.steal() {
                Steal::Success(task) => {
                    stats.steals += 1;
                    return Some(task);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn base_partitioned(
    b: &Relation,
    grid: &Grid,
    blocks: &[Block],
    fragments: &[Range<usize>],
    threads: Option<usize>,
    ctx: &ExecContext,
) -> Result<Relation> {
    let schema = output_schema(b.schema(), grid.schema, blocks, ctx)?;
    // A fragment is already pure — an independent MD-join deposited only on
    // success — so the whole join sits inside the isolation boundary.
    let fragment = |slot: usize, range: Range<usize>| -> Result<Vec<Row>> {
        ctx.check_interrupt()?;
        let frag = Relation::from_rows(b.schema().clone(), b.rows()[range].to_vec());
        let piece = run_isolated(ctx, slot, || {
            ctx.fault_on_morsel(slot);
            run(&frag, grid, blocks, &Driver::Serial { batch: false }, ctx)
        })?;
        Ok(piece.into_rows())
    };
    let tasks = fragments.iter().cloned().enumerate();
    let mut pieces: Vec<(usize, Vec<Row>)> = match threads {
        None => tasks
            .map(|(slot, range)| Ok((slot, fragment(slot, range)?)))
            .collect::<Result<_>>()?,
        Some(threads) => {
            check_threads(threads)?;
            let (queues, stealers) = seed_queues(tasks.collect(), threads);
            run_workers(queues, |me, own| {
                let mut ws = WorkerStats::new(me);
                let mut done = Vec::new();
                while let Some((slot, range)) = next_task(&own, &stealers, me, &mut ws) {
                    ws.morsels += 1;
                    ws.tuples += range.len() as u64;
                    done.push((slot, fragment(slot, range)?));
                }
                if let Some(stats) = ctx.stats() {
                    stats.record_worker(ws);
                }
                Ok(done)
            })?
            .into_iter()
            .flatten()
            .collect()
        }
    };
    pieces.sort_by_key(|(slot, _)| *slot);
    let mut out = Relation::empty(schema);
    for row in pieces.into_iter().flat_map(|(_, rows)| rows) {
        out.push_unchecked(row);
    }
    Ok(out)
}
