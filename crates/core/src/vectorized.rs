//! Vectorized batch execution of Algorithm 3.1.
//!
//! The serial evaluator interprets everything per row: each conjunct of θ is
//! a `BoundExpr` tree walk, each aggregate update a virtual call through
//! `Box<dyn AggState>` with a `Value` in between. This module processes `R`
//! in columnar batches instead:
//!
//! 1. each batch of `ctx.morsel_size` resident tuples is a [`ColumnarChunk`]
//!    of the columns θ and `l` actually read, each transposed once per
//!    relation and kept in its column cache (`Relation::chunk`); a run of
//!    pages of a page store, about as many tuples, is its pages' columns
//!    appended into one chunk, each page decoded once per residency. A
//!    column with no typed form keeps its values ([`Column::Untyped`]), so
//!    the chunk is the only form of the batch;
//! 2. the Theorem 4.2 prefilter evaluates over the whole batch into a
//!    selection vector ([`mdj_expr::vectorized::eval_batch`]);
//! 3. hash-probe keys are computed for the whole batch in one typed loop per
//!    key column and resolved through the plan's [`KeyIndex`] without row
//!    materialization ([`BatchProbe`]): a lone `i64` key through the index's
//!    `Int` dictionary, every other key by coding each key column of the
//!    chunk, translating each distinct chunk code into the index's column
//!    code once per chunk ([`Translation`]) and resolving each distinct key
//!    tuple once per chunk; θ's cross-side residual runs once over the
//!    chunk's candidate pairs, each side's columns gathered at the pairs
//!    ([`PairResidual`]);
//! 4. matched tuples are grouped per base row and aggregate updates applied
//!    through typed [`KernelState`] kernels — one dispatch per (base row,
//!    batch) run over native slices, not one per value.
//!
//! An expression with no batch form is interpreted into the column its batch
//! form would write — a prefilter into the selection vector, a key into its
//! codes, θ or a residual into the pairs — from the chunk's values, one row
//! at a time through one reused buffer ([`ColumnarChunk::row_into`]), for
//! the rows the batch still holds (counted in `ScanStats::batch_fallbacks`).
//! No tuple reaches the scalar matcher, so every pass of a served query,
//! degraded and spilled ones included, runs here. All work accounting
//! (scans, probes, updates) is identical to the scalar evaluator's, and the
//! output row-identical — including `f64` accumulation order, which follows
//! tuple order per base row in both.

use crate::context::ExecContext;
use crate::error::Result;
use crate::governor::{GrowthMeter, MemCharge};
use crate::mdjoin::BoundAgg;
use crate::probe::{canon_key, ProbePlan};
use mdj_agg::{AggState, KernelState};
use mdj_expr::eval::BoundExpr;
use mdj_expr::vectorized::{
    batchable_bound_shape, bind_base, collect_detail_cols, eval_batch, eval_columns, BatchVals,
};
use mdj_storage::{
    pair_key, Column, ColumnarChunk, Counter, KeyBuildHasher, KeyIndex, Relation, Value,
};
use std::collections::HashMap;

/// Largest batch the executor will form. Batches index tuples with `u32`
/// selection vectors; anything near this is already far past the size where
/// batching helps.
pub(crate) const MAX_BATCH: usize = u32::MAX as usize;

/// Batched `Rel(t)` computation over a [`ProbePlan`]: the probe side of the
/// executor's batch evaluator.
///
/// Vectorizes three layers when possible:
///
/// * the Theorem 4.2 prefilter (batch → selection vector);
/// * hash-probe keys, computed per key column over the whole batch: a lone
///   `i64` key is looked up in the index's `Int` dictionary; any other key —
///   strings, floats, constants, composite tuples — is coded per column
///   ([`KeyCodes`]: ints by value, strings by dictionary code, floats by
///   their [`canon_key`] form), each chunk code is translated into the
///   index's column code once, and each distinct key tuple meets the index
///   once per chunk, each row probing by table lookup (one probe's worth of
///   accounting per row, no row-form key ever built);
/// * θ's cross-side residual, evaluated once per chunk over its candidate
///   pairs ([`PairResidual`]).
///
/// Nested-loop plans run over the chunk too: per chunk, θ is bound to each
/// base row ([`bind_base`]) and the bound form runs over the whole chunk, a
/// block of base rows at a time ([`NL_PAIRS`]). An expression with no batch
/// form is interpreted into the column its batch form writes (module docs),
/// so no tuple reaches [`ProbePlan::matches`]. Probe accounting is identical
/// to the scalar path in every mode: prefiltered-out and NULL-key tuples
/// record zero probes, hash probes record the bucket length, nested-loop
/// probes record `|B|`.
pub(crate) struct BatchProbe<'a> {
    plan: &'a ProbePlan,
    /// A nested-loop plan whose θ shape batches.
    nl_batch: bool,
    /// A hash plan's cross-side residual.
    residual: Option<PairResidual<'a>>,
    /// The pass runs after a budget breach ([`pair_block`](Self::pair_block)).
    degraded: bool,
}

/// Most `(tuple, base row)` pairs one block of a vectorized nested loop
/// forms before they are applied: a chunk of `n` tuples meets `B` in blocks
/// of `NL_PAIRS / n` base rows, so the pairs in flight (and the scoreboard's
/// copy of them) stay near 1.3 MB however large `B` is.
pub(crate) const NL_PAIRS: usize = 1 << 16;

/// Where [`BatchProbe::matches_batch`] hands its `(tuple, base row)` pairs.
pub(crate) type PairSink<'s> = dyn FnMut(&[(u32, usize)]) -> Result<()> + 's;

/// Bytes one applied pair occupies: the pair itself and its scoreboard copy.
const PAIR_BYTES: usize = std::mem::size_of::<(u32, usize)>() + std::mem::size_of::<u32>();

impl<'a> BatchProbe<'a> {
    pub(crate) fn new(plan: &'a ProbePlan, degraded: bool) -> Self {
        let nl_batch =
            matches!(plan, ProbePlan::NestedLoop { theta, .. } if batchable_bound_shape(theta));
        let residual = match plan {
            ProbePlan::Hash {
                residual: Some(res),
                ..
            } => Some(PairResidual::new(res)),
            _ => None,
        };
        BatchProbe {
            plan,
            nl_batch,
            residual,
            degraded,
        }
    }

    /// Mark the detail columns batches must materialize for this plan: those
    /// of the prefilter, the probe-key expressions, the hash residual and a
    /// nested loop's θ. An expression with no batch form is interpreted from
    /// the chunk's values ([`ColumnarChunk::row_into`]), so its columns are
    /// marked too.
    pub(crate) fn collect_needed(&self, needed: &mut [bool]) {
        let exprs: Vec<&BoundExpr> = match self.plan {
            ProbePlan::NestedLoop { prefilter, theta } => prefilter.iter().chain([theta]).collect(),
            ProbePlan::Hash {
                key_exprs,
                prefilter,
                residual,
                ..
            } => key_exprs.iter().chain(prefilter).chain(residual).collect(),
        };
        for e in exprs {
            collect_detail_cols(e, needed);
        }
    }

    /// Compute `Rel(t)` over `b` for every tuple of `chunk` and hand the
    /// `(batch-local tuple index, base row id)` pairs to `emit`, each base
    /// row's in tuple order: once per chunk, or once per block of base rows
    /// for a nested loop. `pairs` is scratch. `groups`, when given, is each
    /// tuple's own group of a `B` built in this scan
    /// ([`GroupTable::assign`](crate::grouped::GroupTable::assign)): a hash
    /// plan then probes by it instead of by its index. Returns `true` if any
    /// expression of the batch was interpreted, which reads the chunk's
    /// values, never a row.
    pub(crate) fn matches_batch(
        &self,
        chunk: &ColumnarChunk,
        b: &Relation,
        groups: Option<&[usize]>,
        ctx: &ExecContext,
        pairs: &mut Vec<(u32, usize)>,
        emit: &mut PairSink<'_>,
    ) -> Result<bool> {
        pairs.clear();
        let n = chunk.len();
        let mut fell_back = false;
        let mut fall_back = |reason| {
            ctx.count(reason, 1);
            fell_back = true;
        };
        let prefilter = match self.plan {
            ProbePlan::NestedLoop { prefilter, .. } | ProbePlan::Hash { prefilter, .. } => {
                prefilter
            }
        };
        // The prefilter's verdicts are the batch's selection vector.
        let sel = prefilter
            .as_ref()
            .map(|p| select(p, chunk, || fall_back(Counter::fallback_prefilter)))
            .transpose()?;
        let selected = |i: usize| sel.as_ref().is_none_or(|s| s[i]);
        match self.plan {
            ProbePlan::Hash {
                index, key_exprs, ..
            } => {
                let mut prober = match groups {
                    Some(ids) => Prober::Groups(ids),
                    None => Prober::new(index, key_exprs, chunk, &selected, || {
                        fall_back(Counter::fallback_key)
                    })?,
                };
                // NULL key component: SQL equality never matches — the tuple
                // records zero probes, exactly like the scalar path.
                let mut cands: Vec<(u32, usize)> = Vec::new();
                for i in (0..n).filter(|&i| selected(i)) {
                    if let Some(bucket) = prober.bucket(i) {
                        cands.extend(bucket.iter().map(|&bi| (i as u32, bi)));
                    }
                }
                // Each candidate is one probe of its tuple's bucket: counted
                // once per batch, not with an atomic add per tuple.
                ctx.count(Counter::probes, cands.len() as u64);
                match &self.residual {
                    None => emit(&cands)?,
                    Some(res) => {
                        res.filter(b, chunk, &cands, pairs, || {
                            fall_back(Counter::fallback_theta)
                        })?;
                        emit(pairs)?;
                    }
                }
            }
            ProbePlan::NestedLoop { theta, .. } => {
                // θ meets the chunk a block of base rows at a time
                // ([`pair_block`](Self::pair_block)), each block's pairs
                // applied before the next block's are formed. Bound to one
                // base row ([`bind_base`]), a θ with a batch form runs over
                // the whole chunk; a θ without one, or a base row whose
                // inlined literals break it (a string bound into an
                // arithmetic slot), takes its pairs from the interpreter.
                // Each base row's pairs come in tuple order, so every group
                // accumulates exactly as in the scalar nested loop.
                let survive: Vec<usize> = (0..n).filter(|&i| selected(i)).collect();
                // Every surviving tuple examines all of B; prefiltered-out
                // tuples record zero probes.
                ctx.count(Counter::probes, (survive.len() * b.len()) as u64);
                if survive.is_empty() {
                    return Ok(fell_back);
                }
                let mut interpreted = false;
                let block = self.pair_block(n, ctx);
                for (first, rows) in b.rows().chunks(block).enumerate() {
                    pairs.clear();
                    for (bi, b_row) in (first * block..).zip(rows) {
                        let batch = self
                            .nl_batch
                            .then(|| eval_batch(&bind_base(theta, b_row.values()), chunk));
                        match batch.flatten() {
                            Some(bv) => {
                                let verdict = bv.to_selection(n);
                                let kept = survive.iter().filter(|&&i| verdict[i]);
                                pairs.extend(kept.map(|&i| (i as u32, bi)));
                            }
                            None => {
                                interpreted = true;
                                let cands = survive.iter().map(|&i| (i as u32, bi));
                                interpret_pairs(theta, b, chunk, cands, pairs)?;
                            }
                        }
                    }
                    let _scratch = match self.degraded {
                        true => MemCharge::default(),
                        false => MemCharge::try_new(ctx, pairs.len() * PAIR_BYTES)?,
                    };
                    emit(pairs)?;
                }
                if interpreted {
                    fall_back(Counter::fallback_theta);
                }
            }
        }
        Ok(fell_back)
    }

    /// Base rows per block of the nested loop over a chunk of `n` tuples,
    /// so that a block's pairs stay under [`NL_PAIRS`]. A first pass charges
    /// each block to the budget while it is applied. A degraded pass does not
    /// — a charge held while the block's updates meter holistic growth could
    /// breach where the scalar pass, which holds its matches uncharged,
    /// answers — and bounds its blocks by what the budget has left instead,
    /// down to one base row.
    fn pair_block(&self, n: usize, ctx: &ExecContext) -> usize {
        let pairs = match ctx.memory().filter(|_| self.degraded) {
            Some(t) => NL_PAIRS.min(t.budget().saturating_sub(t.charged()) as usize / PAIR_BYTES),
            None => NL_PAIRS,
        };
        (pairs / n).max(1)
    }
}

/// The verdict of the detail-only `p` on each row of `chunk`: the selection
/// vector of its batch form, or, where it has none, interpreted row by row
/// from the chunk's values once `fallback` has been told.
pub(crate) fn select(
    p: &BoundExpr,
    chunk: &ColumnarChunk,
    fallback: impl FnOnce(),
) -> Result<Vec<bool>> {
    if let Some(verdicts) = eval_batch(p, chunk) {
        return Ok(verdicts.to_selection(chunk.len()));
    }
    fallback();
    let mut row = RowBuf::new(p, chunk.width());
    (0..chunk.len())
        .map(|i| Ok(p.eval_bool(&[], row.read(chunk, i))?))
        .collect()
}

/// A chunk row as the scalar interpreter reads it: the values of the detail
/// columns an expression reads ([`ColumnarChunk::row_into`]), NULL in the
/// other slots, in one buffer reused for every row.
struct RowBuf {
    cols: Vec<usize>,
    row: Vec<Value>,
}

impl RowBuf {
    /// The buffer for rows of `width` columns of which `expr` reads some.
    fn new(expr: &BoundExpr, width: usize) -> RowBuf {
        let mut read = vec![false; width];
        collect_detail_cols(expr, &mut read);
        RowBuf {
            cols: (0..width).filter(|&c| read[c]).collect(),
            row: vec![Value::Null; width],
        }
    }

    /// Row `i` of `chunk`.
    fn read(&mut self, chunk: &ColumnarChunk, i: usize) -> &[Value] {
        chunk.row_into(i, &self.cols, &mut self.row);
        &self.row
    }
}

/// Append to `pairs` each `(tuple, base row)` pair of `cands` on which
/// `expr` holds, in order, interpreted from `chunk`'s values and `b`'s
/// rows. A tuple's values are read once for a run of its pairs.
#[inline(never)]
fn interpret_pairs(
    expr: &BoundExpr,
    b: &Relation,
    chunk: &ColumnarChunk,
    cands: impl IntoIterator<Item = (u32, usize)>,
    pairs: &mut Vec<(u32, usize)>,
) -> Result<()> {
    let (mut row, mut at) = (RowBuf::new(expr, chunk.width()), None);
    for (i, bi) in cands {
        if at != Some(i) {
            row.read(chunk, i as usize);
            at = Some(i);
        }
        if expr.eval_bool(b.rows()[bi].values(), &row.row)? {
            pairs.push((i, bi));
        }
    }
    Ok(())
}

/// θ's cross-side residual `θres(b, t)`, checked over the candidate pairs of
/// one chunk at a time: each detail column it reads is gathered at the
/// pairs' tuples ([`Column::gather`]), each `B` column is read at the pairs'
/// base rows and typed as a chunk column is ([`Column::from_values`]), and
/// one [`eval_columns`] over those columns keeps or drops each pair, in
/// pair order. A column is gathered once per block however many leaves of
/// the residual read it (`Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)`
/// gathers `Z.sale` once). Pairs come in blocks of at most [`NL_PAIRS`], so
/// the gathered columns stay small however many candidates a chunk has or
/// however large `B` is, and a `B` the scan is building needs no special
/// case.
///
/// A residual with no batch form (`Div`/`Mod`), or a block whose columns
/// have no typed form (mixed `Int`/`Float`, a boolean, `ALL`), is
/// interpreted pair by pair from the chunk's values, and the batch counts
/// one `fallback_theta` however many of its blocks were. Either way the
/// verdicts are the interpreter's: a batchable residual is total, so no
/// error path diverges.
pub(crate) struct PairResidual<'a> {
    expr: &'a BoundExpr,
    /// The shape has a batch form.
    batches: bool,
    /// Each distinct column leaf of `expr`, and how many leaves read it.
    leaves: Vec<(&'a BoundExpr, usize)>,
}

/// Count each distinct column leaf of `expr` into `leaves`.
fn count_leaves<'e>(expr: &'e BoundExpr, leaves: &mut Vec<(&'e BoundExpr, usize)>) {
    match expr {
        BoundExpr::BCol(_) | BoundExpr::RCol(_) => {
            match leaves.iter_mut().find(|(leaf, _)| *leaf == expr) {
                Some((_, uses)) => *uses += 1,
                None => leaves.push((expr, 1)),
            }
        }
        BoundExpr::Lit(_) => {}
        BoundExpr::Binary { lhs, rhs, .. } => {
            count_leaves(lhs, leaves);
            count_leaves(rhs, leaves);
        }
        BoundExpr::Not(e) => count_leaves(e, leaves),
    }
}

impl<'a> PairResidual<'a> {
    fn new(expr: &'a BoundExpr) -> Self {
        let mut leaves = Vec::new();
        count_leaves(expr, &mut leaves);
        PairResidual {
            expr,
            batches: batchable_bound_shape(expr),
            leaves,
        }
    }

    /// Fill `pairs` with the candidates `cands` of `chunk` over `b` for
    /// which the residual holds, in order, telling `fallback` when any block
    /// was interpreted. Kept out of line: it runs once
    /// per chunk, and inlined it grew [`BatchProbe::matches_batch`], the
    /// probe loop every statement runs, which measured slower on the
    /// statements that have no residual.
    #[inline(never)]
    fn filter(
        &self,
        b: &Relation,
        chunk: &ColumnarChunk,
        cands: &[(u32, usize)],
        pairs: &mut Vec<(u32, usize)>,
        fallback: impl FnOnce(),
    ) -> Result<()> {
        pairs.clear();
        let mut interpreted = false;
        for block in cands.chunks(NL_PAIRS) {
            match self
                .batches
                .then(|| self.verdicts(b, chunk, block))
                .flatten()
            {
                Some(keep) => pairs.extend(
                    block
                        .iter()
                        .zip(keep)
                        .filter_map(|(&pair, keep)| keep.then_some(pair)),
                ),
                None => {
                    interpreted = true;
                    interpret_pairs(self.expr, b, chunk, block.iter().copied(), pairs)?;
                }
            }
        }
        if interpreted {
            fallback();
        }
        Ok(())
    }

    /// The residual's verdict on each pair of `block`, or `None` when a
    /// column it reads has no typed form there. Each column is gathered at
    /// its first leaf, copied for every later leaf but the last, which
    /// takes it.
    fn verdicts(
        &self,
        b: &Relation,
        chunk: &ColumnarChunk,
        block: &[(u32, usize)],
    ) -> Option<Vec<bool>> {
        let n = block.len();
        let mut gathered: Vec<(Option<Column>, usize)> =
            self.leaves.iter().map(|&(_, uses)| (None, uses)).collect();
        let verdict = eval_columns(self.expr, n, &mut |leaf| {
            let at = self.leaves.iter().position(|&(l, _)| l == leaf)?;
            let (slot, left) = &mut gathered[at];
            let col = match (slot.take(), leaf) {
                (Some(col), _) => col,
                (None, &BoundExpr::RCol(c)) => chunk
                    .column(c)
                    .gather(block.iter().map(|&(i, _)| i as usize)),
                (None, &BoundExpr::BCol(j)) => {
                    Column::from_values(block.iter().map(|&(_, bi)| &b.rows()[bi][j]), n)
                }
                (None, _) => return None,
            };
            *left -= 1;
            if *left > 0 {
                *slot = Some(col.clone());
            }
            BatchVals::from_column(col)
        })?;
        Some(verdict.to_selection(n))
    }
}

/// How each selected row of one batch finds its bucket of the plan's
/// [`KeyIndex`] (`None` = a NULL key component, which never matches and
/// records no probes).
enum Prober<'p> {
    /// A lone `i64` key, looked up row by row in the index's `Int`
    /// dictionary.
    Int {
        vals: Vec<i64>,
        nulls: Vec<bool>,
        index: &'p KeyIndex,
    },
    /// Any other key: row `i` carries the chunk-local id `ids[i]` of its key
    /// tuple, and `slots[id]` caches that tuple's bucket once it is first
    /// probed — one index lookup per distinct tuple per chunk, a table lookup
    /// per row.
    Coded {
        cols: Vec<KeyCodes>,
        ids: Vec<u32>,
        slots: Vec<Option<&'p [usize]>>,
        index: &'p KeyIndex,
        translation: Translation,
        /// Reused index codes of the tuple being resolved.
        codes: Vec<u32>,
    },
    /// `B` is being built by this scan: row `i`'s bucket is its own group
    /// `ids[i]`, or none ([`NO_GROUP`]).
    Groups(&'p [usize]),
}

impl<'p> Prober<'p> {
    /// The prober for one batch: a lone `i64` key is looked up by value;
    /// every other key is coded per chunk ([`KeyCodes`]) so that each
    /// distinct key tuple is looked up in the index once. A key column with
    /// no batch form is interpreted into its codes where the scalar matcher
    /// would evaluate it — on the rows `selected` keeps, up to the row's
    /// first NULL component — and `fallback` is told.
    fn new(
        index: &'p KeyIndex,
        key_exprs: &[BoundExpr],
        chunk: &ColumnarChunk,
        selected: &dyn Fn(usize) -> bool,
        fallback: impl FnOnce(),
    ) -> Result<Prober<'p>> {
        let n = chunk.len();
        let mut cols: Vec<KeyCodes> = Vec::with_capacity(key_exprs.len());
        let mut interpreted = false;
        for e in key_exprs {
            let col = match eval_batch(e, chunk) {
                Some(BatchVals::Ints { vals, nulls }) if key_exprs.len() == 1 => {
                    return Ok(Prober::Int { vals, nulls, index });
                }
                Some(bv) => KeyCodes::new(bv, n),
                None => {
                    interpreted = true;
                    let live = |i| selected(i) && cols.iter().all(|c| c.code(i) != NULL_CODE);
                    KeyCodes::interpret(e, chunk, live)?
                }
            };
            cols.push(col);
        }
        if interpreted {
            fallback();
        }
        let (ids, card) = tuple_ids(&cols, n);
        Ok(Prober::Coded {
            translation: Translation::new(&cols),
            cols,
            ids,
            slots: vec![None; card],
            index,
            codes: Vec::new(),
        })
    }

    /// The index bucket for row `i`, or `None` when any key component is
    /// NULL.
    fn bucket(&mut self, i: usize) -> Option<&'p [usize]> {
        match self {
            Prober::Int { vals, nulls, index } => {
                let index: &'p KeyIndex = index;
                if nulls[i] {
                    return None;
                }
                let key = index.int_code(0, vals[i]).and_then(|c| index.find(&[c]));
                Some(key.map_or(&[][..], |k| index.rows(k)))
            }
            Prober::Coded {
                cols,
                ids,
                slots,
                index,
                translation,
                codes,
            } => {
                let (id, index) = (ids[i], *index);
                if id == NULL_CODE {
                    return None;
                }
                Some(*slots[id as usize].get_or_insert_with(|| {
                    // A component absent from its column's dictionary is a
                    // miss.
                    let known = translation.codes(cols, i, codes, |j, v| index.code(j, v));
                    let key = if known { index.find(codes) } else { None };
                    key.map_or(&[][..], |k| index.rows(k))
                }))
            }
            Prober::Groups(ids) => {
                let ids: &'p [usize] = ids;
                (ids[i] != NO_GROUP).then(|| std::slice::from_ref(&ids[i]))
            }
        }
    }
}

/// A chunk code not translated yet, and one whose component the index
/// lacks ([`Translation`]).
const UNSEEN: u32 = u32::MAX;
const ABSENT: u32 = u32::MAX - 1;

/// Per key column of one chunk, the [`KeyIndex`] column code of each chunk
/// code ([`KeyCodes`]), resolved on the chunk code's first use: a probe and
/// a group table meet the index's dictionaries once per distinct chunk code,
/// never once per row. A translation holds for its own chunk only — the next
/// chunk numbers its components afresh.
pub(crate) struct Translation(Vec<Vec<u32>>);

impl Translation {
    pub(crate) fn new(cols: &[KeyCodes]) -> Translation {
        Translation(cols.iter().map(|col| vec![UNSEEN; col.card()]).collect())
    }

    /// Row `i`'s index codes, one per key column, into `codes`:
    /// `resolve(j, component)` gives column `j`'s code of a component the
    /// first time the chunk code holding it is met. `false` — with `codes`
    /// cut short — when `resolve` had no code for a component.
    pub(crate) fn codes(
        &mut self,
        cols: &[KeyCodes],
        i: usize,
        codes: &mut Vec<u32>,
        mut resolve: impl FnMut(usize, &Value) -> Option<u32>,
    ) -> bool {
        codes.clear();
        for (j, (col, table)) in cols.iter().zip(&mut self.0).enumerate() {
            let code = &mut table[col.code(i) as usize];
            if *code == UNSEEN {
                *code = resolve(j, &col.value(col.code(i))).unwrap_or(ABSENT);
            }
            if *code == ABSENT {
                return false;
            }
            codes.push(*code);
        }
        true
    }
}

/// A NULL key component in [`KeyCodes::codes`] and in tuple ids.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// A row of a scan that builds `B` whose key matches no group: it failed the
/// base's selection, or a key component is NULL.
pub(crate) const NO_GROUP: usize = usize::MAX;

/// Largest code space a chunk of `n` rows indexes directly: ints whose
/// values span at most this many are coded by value, and two columns whose
/// code spaces multiply to at most this many combine arithmetically.
/// Anything wider is renumbered densely through a hash map instead.
fn direct_limit(n: usize) -> usize {
    n.saturating_mul(4)
        .saturating_add(64)
        .min(NULL_CODE as usize)
}

/// One key column of a chunk coded for per-chunk key resolution: equal
/// canonical ([`canon_key`]) components get equal codes in `0..card`, and
/// `value(code)` rebuilds the component the index was built from.
pub(crate) struct KeyCodes {
    codes: Vec<u32>,
    card: usize,
    decode: Decode,
}

/// How a [`KeyCodes`] code turns back into its key component.
enum Decode {
    /// Ints coded by value: code `c` is `Int(base + c)`.
    Offset(i64),
    /// Code `c` is `values[c]`.
    Table(Vec<Value>),
}

impl KeyCodes {
    pub(crate) fn new(bv: BatchVals, n: usize) -> KeyCodes {
        match bv {
            BatchVals::Ints { vals, nulls } => {
                let live = || vals.iter().zip(&nulls).filter(|(_, &null)| !null);
                let lo = live().map(|(&v, _)| v).min().unwrap_or(0);
                let hi = live().map(|(&v, _)| v).max().unwrap_or(0);
                // The true span, without overflow for any `lo ≤ hi`.
                let span = hi.wrapping_sub(lo) as u64;
                if span < direct_limit(n) as u64 {
                    let codes = vals
                        .iter()
                        .zip(&nulls)
                        .map(|(&v, &null)| match null {
                            true => NULL_CODE,
                            false => v.wrapping_sub(lo) as u32,
                        })
                        .collect();
                    KeyCodes {
                        codes,
                        card: span as usize + 1,
                        decode: Decode::Offset(lo),
                    }
                } else {
                    Self::dense(
                        vals.iter()
                            .zip(&nulls)
                            .map(|(&v, &null)| (!null).then_some(Value::Int(v))),
                    )
                }
            }
            BatchVals::Strs { codes, dict, nulls } => KeyCodes {
                codes: codes
                    .iter()
                    .zip(&nulls)
                    .map(|(&c, &null)| if null { NULL_CODE } else { c })
                    .collect(),
                card: dict.len(),
                decode: Decode::Table(dict.into_iter().map(Value::Str).collect()),
            },
            BatchVals::Floats { vals, nulls } => Self::dense(
                vals.iter()
                    .zip(&nulls)
                    .map(|(&f, &null)| (!null).then(|| canon_key(Value::Float(f)))),
            ),
            BatchVals::Bools(b) => KeyCodes {
                codes: b.iter().map(|&b| u32::from(b)).collect(),
                card: 2,
                decode: Decode::Table(vec![Value::Bool(false), Value::Bool(true)]),
            },
            BatchVals::Const(v) => match canon_key(v) {
                Value::Null => KeyCodes {
                    codes: vec![NULL_CODE; n],
                    card: 0,
                    decode: Decode::Table(Vec::new()),
                },
                v => KeyCodes {
                    codes: vec![0; n],
                    card: 1,
                    decode: Decode::Table(vec![v]),
                },
            },
        }
    }

    /// The detail-only `e` interpreted from `chunk`'s values on the rows
    /// `live` admits, each value canonical ([`canon_key`]); NULL, and every
    /// other row, is `NULL_CODE`. The values are typed as a chunk column is,
    /// so integers (a `Div` key's canonical form) are coded by value.
    fn interpret(
        e: &BoundExpr,
        chunk: &ColumnarChunk,
        live: impl Fn(usize) -> bool,
    ) -> Result<KeyCodes> {
        let (n, mut row) = (chunk.len(), RowBuf::new(e, chunk.width()));
        let vals = (0..n)
            .map(|i| match live(i) {
                true => Ok(canon_key(e.eval_detail(row.read(chunk, i))?)),
                false => Ok(Value::Null),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(
            match BatchVals::from_column(Column::from_values(&vals, n)) {
                Some(bv) => Self::new(bv, n),
                None => Self::dense(vals.into_iter().map(|v| (!v.is_null()).then_some(v))),
            },
        )
    }

    /// Number the distinct canonical values of a column in first-seen order.
    fn dense(vals: impl Iterator<Item = Option<Value>>) -> KeyCodes {
        let mut seen: HashMap<Value, u32, KeyBuildHasher> = HashMap::default();
        let mut table = Vec::new();
        let codes = vals
            .map(|v| match v {
                None => NULL_CODE,
                Some(v) => *seen.entry(v).or_insert_with_key(|v| {
                    table.push(v.clone());
                    table.len() as u32 - 1
                }),
            })
            .collect();
        KeyCodes {
            codes,
            card: table.len(),
            decode: Decode::Table(table),
        }
    }

    /// The size of the code space: every non-NULL code is below it.
    pub(crate) fn card(&self) -> usize {
        self.card
    }

    /// The code of row `i`'s component.
    pub(crate) fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// The canonical key component a (non-NULL) code stands for.
    pub(crate) fn value(&self, code: u32) -> Value {
        match &self.decode {
            Decode::Offset(base) => Value::Int(base.wrapping_add(i64::from(code))),
            Decode::Table(values) => values[code as usize].clone(),
        }
    }
}

/// Combine the coded key columns of a chunk of `n` rows into one tuple id per
/// row (`NULL_CODE` when any component is NULL) and the size of the id
/// space. Equal key tuples get equal ids.
pub(crate) fn tuple_ids(cols: &[KeyCodes], n: usize) -> (Vec<u32>, usize) {
    let limit = direct_limit(n);
    let mut ids = vec![0u32; n];
    let mut card = 1usize;
    for col in cols {
        let pairs = ids.iter_mut().zip(&col.codes);
        if card.saturating_mul(col.card) <= limit {
            // Mixed radix: the pair (id, c) is `id · card(col) + c`.
            let width = col.card as u32;
            for (id, &c) in pairs {
                *id = match (*id, c) {
                    (NULL_CODE, _) | (_, NULL_CODE) => NULL_CODE,
                    (id, c) => id * width + c,
                };
            }
            card *= col.card;
        } else {
            // Too wide to index directly: renumber the pairs that occur.
            let mut dense: HashMap<u64, u32, KeyBuildHasher> = HashMap::default();
            for (id, &c) in pairs {
                *id = match (*id, c) {
                    (NULL_CODE, _) | (_, NULL_CODE) => NULL_CODE,
                    (id, c) => {
                        let fresh = dense.len() as u32;
                        *dense.entry(pair_key(id, c)).or_insert(fresh)
                    }
                };
            }
            card = dense.len();
        }
    }
    (ids, card)
}

/// Per-aggregate state column: a typed kernel column when the aggregate has
/// a kernel form, the boxed scalar states otherwise.
pub(crate) enum ColStates {
    Kernel(Vec<KernelState>),
    Boxed(Vec<Box<dyn AggState>>),
}

impl ColStates {
    /// One state column over `b_len` base rows for `ba`.
    pub(crate) fn init(ba: &BoundAgg, b_len: usize) -> ColStates {
        match ba.agg.kernel() {
            Some(kind) => ColStates::Kernel((0..b_len).map(|_| kind.init()).collect()),
            None => ColStates::Boxed((0..b_len).map(|_| ba.agg.init()).collect()),
        }
    }

    /// Extend to `b_len` base rows, each new one in the empty state.
    pub(crate) fn grow(&mut self, ba: &BoundAgg, b_len: usize) {
        match (self, ba.agg.kernel()) {
            (ColStates::Kernel(states), Some(kind)) => states.resize_with(b_len, || kind.init()),
            (ColStates::Boxed(states), _) => states.resize_with(b_len, || ba.agg.init()),
            // `init` makes a kernel column only for an aggregate with a kernel.
            (ColStates::Kernel(_), None) => {}
        }
    }

    /// Finalized output value for base row `bi`.
    pub(crate) fn finalize(&self, bi: usize) -> Value {
        match self {
            ColStates::Kernel(states) => states[bi].finalize(),
            ColStates::Boxed(states) => states[bi].finalize(),
        }
    }
}

/// Batch-local grouping of matched `(tuple, base row)` pairs per base row, in
/// tuple order (so f64 accumulation order matches the serial evaluator
/// exactly). The scoreboard is direct-mapped over `B` — no hashing per pair —
/// and only the slots a batch touched are reset; group buffers are recycled
/// across batches (and, in the fused generalized executor, across condition
/// sets within a batch).
pub(crate) struct Scoreboard {
    groups: Vec<(usize, Vec<u32>)>,
    n_groups: usize,
    group_of: Vec<usize>,
}

impl Scoreboard {
    pub(crate) fn new(b_len: usize) -> Self {
        Scoreboard {
            groups: Vec::new(),
            n_groups: 0,
            group_of: vec![usize::MAX; b_len],
        }
    }

    /// Extend the scoreboard to `b_len` base rows.
    pub(crate) fn grow(&mut self, b_len: usize) {
        self.group_of.resize(b_len, usize::MAX);
    }

    /// Group one batch's pairs per base row; the returned slice lives until
    /// the next call.
    pub(crate) fn group(&mut self, pairs: &[(u32, usize)]) -> &[(usize, Vec<u32>)] {
        for (bi, _) in &self.groups[..self.n_groups] {
            self.group_of[*bi] = usize::MAX;
        }
        self.n_groups = 0;
        for &(i, bi) in pairs {
            let mut g = self.group_of[bi];
            if g == usize::MAX {
                g = self.n_groups;
                self.group_of[bi] = g;
                if self.n_groups == self.groups.len() {
                    self.groups.push((bi, Vec::new()));
                } else {
                    self.groups[self.n_groups].0 = bi;
                    self.groups[self.n_groups].1.clear();
                }
                self.n_groups += 1;
            }
            self.groups[g].1.push(i);
        }
        &self.groups[..self.n_groups]
    }
}

/// Apply one batch's matched tuples to one aggregate column. Kernel columns
/// consume typed slices with one dispatch per (base row, batch); boxed
/// columns, and a kernel over a string or untyped column, replay the scalar
/// per-value protocol from the chunk's values (including growth metering for
/// holistic states under a budget).
pub(crate) fn apply_batch(
    col: &mut ColStates,
    ba: &BoundAgg,
    groups: &[(usize, Vec<u32>)],
    chunk: &ColumnarChunk,
    metered: bool,
    meter: &mut GrowthMeter,
    ctx: &ExecContext,
) -> Result<()> {
    match col {
        ColStates::Kernel(states) => match ba.input_col {
            None => {
                for (bi, idxs) in groups {
                    states[*bi].update_star(idxs.len() as u64)?;
                }
            }
            Some(c) => match chunk.column(c) {
                Column::Int { vals, nulls } => {
                    for (bi, idxs) in groups {
                        states[*bi].update_ints(vals, nulls, idxs)?;
                    }
                }
                Column::Float { vals, nulls } => {
                    for (bi, idxs) in groups {
                        states[*bi].update_floats(vals, nulls, idxs)?;
                    }
                }
                // Strings and untyped columns.
                _ => {
                    ctx.count(Counter::fallback_agg, 1);
                    replay(groups, Some(chunk.column(c)), &mut |bi, v| {
                        Ok(states[bi].update_value(v)?)
                    })?;
                }
            },
        },
        ColStates::Boxed(states) => {
            // Kernel-less (e.g. holistic) aggregates never batch.
            ctx.count(Counter::fallback_agg, 1);
            let input = ba.input_col.map(|c| chunk.column(c));
            replay(groups, input, &mut |bi, v| {
                let st = &mut states[bi];
                if metered {
                    let before = st.heap_bytes();
                    st.update(v)?;
                    meter.charge(st.heap_bytes().saturating_sub(before))?;
                } else {
                    st.update(v)?;
                }
                Ok(())
            })?;
        }
    }
    Ok(())
}

/// Hand `update` each matched tuple's value of the chunk's input column
/// (NULL for a star input) with its base row, group by group in tuple
/// order: the scalar update protocol, read from the column's values.
#[inline(never)]
fn replay(
    groups: &[(usize, Vec<u32>)],
    input: Option<&Column>,
    update: &mut dyn FnMut(usize, &Value) -> Result<()>,
) -> Result<()> {
    for (bi, idxs) in groups {
        for &i in idxs {
            let v = input.and_then(|col| col.value(i as usize));
            update(*bi, v.as_ref().unwrap_or(&Value::Null))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProbeStrategy;
    use crate::executor::{self, DetailSource, Driver, Eval, Grid};
    use crate::generalized::Block;
    use crate::mdjoin::md_join_serial;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_expr::Expr;
    use mdj_storage::{DataType, Row, ScanStats, Schema};
    use std::sync::Arc;

    /// The serial driver with the batch evaluator, `k = 1`.
    fn md_join_vectorized(
        b: &Relation,
        r: &Relation,
        l: &[AggSpec],
        theta: &Expr,
        ctx: &ExecContext,
    ) -> Result<Relation> {
        let blocks = [Block::new(theta.clone(), l.to_vec())];
        let grid = Grid::new(DetailSource::Resident(r), &blocks, ctx.morsel_size());
        executor::run(
            b,
            &grid,
            &blocks,
            &Driver::Serial(Eval::Batch { degraded: false }),
            ctx,
        )
    }

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
            ("qty", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 7),
                        Value::Int(i % 12),
                        Value::str(if i % 3 == 0 { "NY" } else { "NJ" }),
                        if i % 11 == 0 {
                            Value::Null
                        } else {
                            Value::Float((i as f64) * 0.25)
                        },
                        Value::Int(i % 5),
                    ])
                })
                .collect(),
        )
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("avg", "sale"),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "qty"),
            AggSpec::on_column("count", "sale"),
            AggSpec::count_star(),
        ]
    }

    fn assert_identical(theta: mdj_expr::Expr, l: &[AggSpec], ctx: &ExecContext) {
        let s = sales(400);
        let b = s.distinct_on(&["cust"]).unwrap();
        let serial = md_join_serial(&b, &s, l, &theta, ctx).unwrap();
        let vector = md_join_vectorized(&b, &s, l, &theta, ctx).unwrap();
        assert_eq!(serial.schema(), vector.schema());
        assert_eq!(serial.rows(), vector.rows(), "θ = {theta}");
    }

    #[test]
    fn equality_theta_row_identical() {
        assert_identical(
            eq(col_b("cust"), col_r("cust")),
            &specs(),
            &ExecContext::new().with_morsel_size(64),
        );
    }

    #[test]
    fn computed_key_and_prefilter_row_identical() {
        assert_identical(
            and(
                eq(col_b("cust"), add(col_r("cust"), lit(1i64))),
                eq(col_r("state"), lit("NY")),
            ),
            &specs(),
            &ExecContext::new().with_morsel_size(64),
        );
    }

    #[test]
    fn mixed_residual_row_identical() {
        assert_identical(
            and(
                eq(col_b("cust"), col_r("cust")),
                gt(col_r("sale"), col_b("cust")), // mixed: residual per candidate
            ),
            &specs(),
            &ExecContext::new().with_morsel_size(64),
        );
    }

    #[test]
    fn non_equi_nested_loop_row_identical() {
        assert_identical(
            le(col_b("cust"), col_r("qty")),
            &specs(),
            &ExecContext::new().with_morsel_size(64),
        );
    }

    #[test]
    fn holistic_aggs_take_boxed_path_and_match() {
        assert_identical(
            eq(col_b("cust"), col_r("cust")),
            &[
                AggSpec::on_column("median", "sale"),
                AggSpec::on_column("mode", "qty"),
                AggSpec::on_column("sum", "sale"),
            ],
            &ExecContext::new().with_morsel_size(64),
        );
    }

    #[test]
    fn work_accounting_matches_serial_exactly() {
        let s = sales(500);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_r("state"), lit("NY")),
        );
        let l = specs();
        for strategy in [ProbeStrategy::Auto, ProbeStrategy::NestedLoop] {
            let serial_stats = Arc::new(ScanStats::new());
            let sctx = ExecContext::new()
                .with_strategy(strategy)
                .with_stats(serial_stats.clone());
            md_join_serial(&b, &s, &l, &theta, &sctx).unwrap();
            let vec_stats = Arc::new(ScanStats::new());
            let vctx = ExecContext::new()
                .with_strategy(strategy)
                .with_morsel_size(64)
                .with_stats(vec_stats.clone());
            md_join_vectorized(&b, &s, &l, &theta, &vctx).unwrap();
            assert_eq!(serial_stats.scans(), vec_stats.scans(), "{strategy:?}");
            assert_eq!(
                serial_stats.tuples_scanned(),
                vec_stats.tuples_scanned(),
                "{strategy:?}"
            );
            assert_eq!(serial_stats.probes(), vec_stats.probes(), "{strategy:?}");
            assert_eq!(serial_stats.updates(), vec_stats.updates(), "{strategy:?}");
            assert_eq!(vec_stats.batches(), 500u64.div_ceil(64), "{strategy:?}");
        }
    }

    #[test]
    fn fully_covered_query_reports_no_fallbacks() {
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
        assert!(stats.batches() > 0);
        assert_eq!(stats.batch_fallbacks(), 0);
        // A Div in the prefilter has no vectorized form: every batch falls back.
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            gt(div(col_r("sale"), lit(2i64)), lit(0i64)),
        );
        md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
        assert_eq!(stats.batch_fallbacks(), stats.batches());
    }

    #[test]
    fn nested_loop_theta_vectorizes_without_fallback() {
        // A batchable non-equi θ runs the vectorized nested loop: no batch
        // falls back, and probe accounting (|B| per surviving tuple) is
        // identical to the scalar nested loop.
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = le(col_b("cust"), col_r("qty"));
        let serial_stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(serial_stats.clone());
        let serial = md_join_serial(&b, &s, &specs(), &theta, &sctx).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let vector = md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
        assert_eq!(serial.rows(), vector.rows());
        assert_eq!(stats.batches(), 300u64.div_ceil(64));
        assert_eq!(stats.batch_fallbacks(), 0);
        assert_eq!(stats.fallback_theta(), 0);
        assert_eq!(serial_stats.probes(), stats.probes());
        // With a prefilter attached, prefiltered-out tuples record zero
        // probes in both paths.
        let theta = and(
            le(col_b("cust"), col_r("qty")),
            eq(col_r("state"), lit("NY")),
        );
        let serial_stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(serial_stats.clone());
        let serial = md_join_serial(&b, &s, &specs(), &theta, &sctx).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let vector = md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
        assert_eq!(serial.rows(), vector.rows());
        assert_eq!(stats.batch_fallbacks(), 0);
        assert_eq!(serial_stats.probes(), stats.probes());
    }

    #[test]
    fn nested_loop_meets_a_large_base_in_charged_blocks() {
        // |B| = 3000 at 64-row chunks: each chunk meets B in three blocks of
        // NL_PAIRS / 64 base rows. Every pair is charged while its block is
        // applied, so the tracker's peak is the states plus one block, and a
        // budget one block breaches degrades (Theorem 4.1) to the same answer.
        let b = Relation::from_rows(
            Schema::from_pairs(&[("k", DataType::Int)]),
            (0..3000)
                .map(|k| Row::from_values(vec![Value::Int(k)]))
                .collect(),
        );
        let r = Relation::from_rows(
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]),
            (0..500i64)
                .map(|i| {
                    Row::from_values(vec![Value::Int(i * 7 % 3000), Value::Float(i as f64 * 0.5)])
                })
                .collect(),
        );
        let theta = le(col_r("k"), col_b("k"));
        let l = [AggSpec::on_column("sum", "v"), AggSpec::count_star()];
        let serial = md_join_serial(&b, &r, &l, &theta, &ExecContext::new()).unwrap();
        let pairs: u64 = serial
            .rows()
            .iter()
            .map(|row| row[2].as_int().unwrap() as u64)
            .sum();
        let states = crate::governor::state_bytes(b.len(), l.len()) as u64;

        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_budget_bytes(1 << 30)
            .with_stats(stats.clone());
        let vector = md_join_vectorized(&b, &r, &l, &theta, &ctx).unwrap();
        assert_eq!(serial.rows(), vector.rows());
        assert_eq!(stats.batch_fallbacks(), 0);
        assert_eq!(stats.updates(), pairs * l.len() as u64);
        assert_eq!(stats.bytes_charged(), states + pairs * PAIR_BYTES as u64);
        let peak = ctx.memory().unwrap().peak();
        assert!(
            peak > states && peak <= states + (NL_PAIRS * PAIR_BYTES) as u64,
            "{peak}"
        );

        // A base row whose inlined literal has no batch form (a Bool in
        // arithmetic) takes its pairs from the interpreter, which reports the
        // same error the scalar nested loop does.
        let mixed = Relation::from_rows(
            Schema::from_pairs(&[("k", DataType::Int)]),
            [Value::Int(1), Value::Bool(true), Value::Int(2)]
                .map(|v| Row::from_values(vec![v]))
                .to_vec(),
        );
        let sum = le(add(col_b("k"), col_r("k")), lit(100i64));
        let error = |res: Result<Relation>| res.unwrap_err().to_string();
        assert_eq!(
            error(md_join_serial(&mixed, &r, &l, &sum, &ExecContext::new())),
            error(md_join_vectorized(&mixed, &r, &l, &sum, &ctx)),
        );

        let budget = states as usize + 10_000;
        let tight = ExecContext::new()
            .with_morsel_size(64)
            .with_budget_bytes(budget);
        assert!(matches!(
            md_join_vectorized(&b, &r, &l, &theta, &tight),
            Err(crate::CoreError::BudgetExceeded { .. })
        ));
        let stats = Arc::new(ScanStats::new());
        let degraded = crate::MdJoin::new(&b, &r)
            .aggs(&l)
            .theta(theta.clone())
            .budget_bytes(budget)
            .run(
                &ExecContext::new()
                    .with_morsel_size(64)
                    .with_stats(stats.clone()),
            )
            .unwrap();
        assert!(stats.degradations() > 0);
        assert_eq!(serial.rows(), degraded.rows());
    }

    #[test]
    fn fallback_reasons_attributed_per_site() {
        let s = sales(300);
        let b = s.distinct_on(&["cust"]).unwrap();
        let run = |theta: &mdj_expr::Expr, l: &[AggSpec]| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(64)
                .with_stats(stats.clone());
            md_join_vectorized(&b, &s, l, theta, &ctx).unwrap();
            stats
        };
        let batches = 300u64.div_ceil(64);
        // Div in the prefilter: every batch charges the prefilter.
        let stats = run(
            &and(
                eq(col_b("cust"), col_r("cust")),
                gt(div(col_r("sale"), lit(2i64)), lit(0i64)),
            ),
            &specs(),
        );
        assert_eq!(stats.fallback_prefilter(), batches);
        assert_eq!(stats.fallback_key(), 0);
        assert_eq!(stats.fallback_theta(), 0);
        // Div in the probe-key expression: every batch charges the key.
        let stats = run(&eq(col_b("cust"), div(col_r("cust"), lit(1i64))), &specs());
        assert_eq!(stats.fallback_key(), batches);
        assert_eq!(stats.fallback_prefilter(), 0);
        // Div inside a nested-loop θ: no batch form, every batch charges θ.
        let stats = run(&le(col_b("cust"), div(col_r("qty"), lit(2i64))), &specs());
        assert_eq!(stats.fallback_theta(), batches);
        assert_eq!(stats.batch_fallbacks(), batches);
        // A kernel-less aggregate charges the aggregate on every batch that
        // applies updates, without making the batch itself a fallback.
        let stats = run(
            &eq(col_b("cust"), col_r("cust")),
            &[AggSpec::on_column("median", "sale")],
        );
        assert_eq!(stats.fallback_agg(), batches);
        assert_eq!(stats.batch_fallbacks(), 0);
    }

    /// A cross-side residual the interpreter answers counts one
    /// `fallback_theta` per batch, however many of its pair blocks it
    /// interpreted: one with no batch form (`Div`), and one whose pair block
    /// has no typed form (a `B` column mixing `Int` and `Float`).
    #[test]
    fn interpreted_residual_blocks_count_as_theta_fallbacks() {
        let s = sales(300);
        let custs = s.distinct_on(&["cust"]).unwrap();
        let b = Relation::from_rows(
            Schema::from_pairs(&[("cust", DataType::Int), ("w", DataType::Float)]),
            custs
                .iter()
                .map(|row| {
                    let k = row[0].as_int().unwrap();
                    let w = match k % 2 {
                        0 => Value::Int(k * 4),
                        _ => Value::Float(k as f64 * 4.5),
                    };
                    Row::from_values(vec![row[0].clone(), w])
                })
                .collect(),
        );
        let batches = 300u64.div_ceil(64);
        let key = eq(col_b("cust"), col_r("cust"));
        for residual in [
            gt(col_r("sale"), div(col_b("w"), lit(2i64))),
            gt(col_r("sale"), col_b("w")),
        ] {
            let theta = and(key.clone(), residual);
            let serial = md_join_serial(&b, &s, &specs(), &theta, &ExecContext::new()).unwrap();
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(64)
                .with_stats(stats.clone());
            let vector = md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
            assert_eq!(serial.rows(), vector.rows(), "θ = {theta}");
            assert_eq!(stats.batches(), batches, "θ = {theta}");
            assert_eq!(stats.fallback_theta(), batches, "θ = {theta}");
            assert_eq!(stats.batch_fallbacks(), batches, "θ = {theta}");
            assert_eq!(stats.fallback_key(), 0, "θ = {theta}");
        }
    }

    #[test]
    fn empty_inputs_and_empty_rel_t() {
        let s = sales(50);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_r("state"), lit("ZZ")), // matches nothing: every Rel(t) empty
        );
        let ctx = ExecContext::new().with_morsel_size(16);
        let serial = md_join_serial(&b, &s, &specs(), &theta, &ctx).unwrap();
        let vector = md_join_vectorized(&b, &s, &specs(), &theta, &ctx).unwrap();
        assert_eq!(serial.rows(), vector.rows());
        let empty_r = Relation::empty(s.schema().clone());
        let theta = eq(col_b("cust"), col_r("cust"));
        let out = md_join_vectorized(&b, &empty_r, &specs(), &theta, &ctx).unwrap();
        assert_eq!(out.len(), b.len());
        let empty_b = Relation::empty(b.schema().clone());
        let out = md_join_vectorized(&empty_b, &s, &specs(), &theta, &ctx).unwrap();
        assert!(out.is_empty());
    }

    /// Tentpole: multi-column integer keys probe vectorized — row- and
    /// counter-identical to serial with zero batch fallbacks.
    #[test]
    fn multi_column_keys_vectorize_without_fallback() {
        let s = sales(400);
        let b = s.distinct_on(&["cust", "month"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), col_r("month")),
        );
        assert_vectorized_covered(&b, &s, &specs(), &theta);
    }

    /// Tentpole: dictionary-coded string keys probe by code translation —
    /// row- and counter-identical to serial with zero batch fallbacks.
    #[test]
    fn string_keys_vectorize_without_fallback() {
        let s = sales(400);
        let b = s.distinct_on(&["state"]).unwrap();
        let theta = eq(col_b("state"), col_r("state"));
        assert_vectorized_covered(&b, &s, &specs(), &theta);
    }

    /// Tentpole: mixed int + string key tuples assemble from typed columns.
    #[test]
    fn mixed_int_string_keys_vectorize_without_fallback() {
        let s = sales(400);
        let b = s.distinct_on(&["cust", "state"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("state"), col_r("state")),
        );
        assert_vectorized_covered(&b, &s, &specs(), &theta);
    }

    /// A mixed residual, checked over each chunk's candidate pairs, stays
    /// identical to serial with zero fallbacks — also one whose leaves read
    /// the same columns twice, which each block gathers once.
    #[test]
    fn batch_residual_matches_serial_without_fallback() {
        let s = sales(400);
        let b = s.distinct_on(&["cust", "state"]).unwrap();
        let key = || eq(col_b("cust"), col_r("cust"));
        let thetas = [
            and(key(), gt(col_r("sale"), col_b("cust"))),
            and(
                key(),
                and(
                    gt(col_r("sale"), col_b("cust")),
                    or(
                        lt(col_r("sale"), add(col_b("cust"), lit(60.0))),
                        eq(col_r("state"), col_b("state")),
                    ),
                ),
            ),
            and(
                key(),
                or(
                    eq(col_r("state"), col_b("state")),
                    and(
                        ne(col_r("state"), col_b("state")),
                        gt(col_r("sale"), lit(50.0)),
                    ),
                ),
            ),
        ];
        for theta in &thetas {
            assert_vectorized_covered(&b, &s, &specs(), theta);
        }
    }

    /// The batch probers against [`ProbePlan::matches`], tuple by tuple, at
    /// morsel sizes 1, 7 and 4096: lone `Int` keys, narrow and wide (the
    /// row-by-row `Int` lookup), and (`Int`, `Str`) keys whose strings are
    /// dictionary-coded differently in every chunk, a NULL in either
    /// component (zero probes), a float component whose integral values must
    /// meet `Int` base keys, constant components (NULL too), ints too wide to
    /// code by value, and three components whose code spaces multiply past
    /// the direct limit. Pairs and probe counts must be identical.
    #[test]
    fn coded_prober_matches_scalar_probe_plan() {
        const WIDE: i64 = 1_000_000_007;
        const STATES: [&str; 4] = ["NY", "NJ", "CA", "TX"]; // TX is not in B
        let b_schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("m", DataType::Int),
            ("w", DataType::Int),
        ]);
        let mut b_rows = Vec::new();
        for k in 0..5i64 {
            for s in &STATES[..3] {
                for m in 0..4i64 {
                    let row = vec![
                        Value::Int(k),
                        Value::str(*s),
                        Value::Int(m),
                        Value::Int(k * WIDE),
                    ];
                    // Duplicate keys make buckets longer than one row.
                    if m == 2 {
                        b_rows.push(Row::from_values(row.clone()));
                    }
                    b_rows.push(Row::from_values(row));
                }
            }
        }
        let b = Relation::from_rows(b_schema, b_rows);
        let r_schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("w", DataType::Int),
        ]);
        let r = Relation::from_rows(
            r_schema.clone(),
            (0..300i64)
                .map(|i| {
                    // Neighbouring tuples share (k, s) but not f. k = 5 is
                    // not in B.
                    let k = (i / 2) % 6;
                    Row::from_values(vec![
                        if i % 13 == 0 {
                            Value::Null
                        } else {
                            Value::Int(k)
                        },
                        // A phase that drifts by chunk, so each chunk's
                        // dictionary meets the strings in another order.
                        if i % 17 == 0 {
                            Value::Null
                        } else {
                            Value::str(STATES[((i / 4 + i / 7) % 4) as usize])
                        },
                        match (i % 5, i % 2) {
                            (0, _) => Value::Null,
                            (_, 0) => Value::Float((i % 11) as f64),
                            _ => Value::Float((i % 11) as f64 + 0.5),
                        },
                        Value::Int(k * WIDE),
                    ])
                })
                .collect(),
        );
        let key = |col: &str| eq(col_b(col), col_r(col));
        let thetas = [
            key("k"),
            key("w"),
            and(key("k"), key("s")),
            and(key("s"), eq(col_b("m"), col_r("f"))),
            and(key("k"), eq(col_b("m"), lit(2i64))),
            and(key("k"), eq(col_b("m"), lit(Value::Null))),
            and(key("w"), key("s")),
            and_all([key("k"), key("s"), eq(col_b("m"), col_r("f"))]),
        ];
        for morsel in [1usize, 7, 4096] {
            for theta in &thetas {
                let plan =
                    ProbePlan::build(&b, &r_schema, theta, ProbeStrategy::HashProbe).unwrap();
                let probe = BatchProbe::new(&plan, false);
                let mut needed = vec![false; r_schema.len()];
                probe.collect_needed(&mut needed);
                let batch_stats = Arc::new(ScanStats::new());
                let bctx = ExecContext::new().with_stats(batch_stats.clone());
                let (mut out, mut codes, mut probes) = (Vec::new(), Vec::new(), 0);
                for idx in 0..r.len().div_ceil(morsel) {
                    let chunk = r.chunk(idx, morsel, &needed, None);
                    let rows = &r.rows()[idx * morsel..((idx + 1) * morsel).min(r.len())];
                    let mut pairs = Vec::new();
                    let fell_back = probe
                        .matches_batch(&chunk, &b, None, &bctx, &mut Vec::new(), &mut |got| {
                            pairs.extend_from_slice(got);
                            Ok(())
                        })
                        .unwrap();
                    assert!(!fell_back, "θ = {theta}, morsel {morsel}");
                    let mut want = Vec::new();
                    for (i, t) in rows.iter().enumerate() {
                        plan.matches(&b, t.values(), &mut out, &mut codes, &mut probes)
                            .unwrap();
                        want.extend(out.iter().map(|&bi| (i as u32, bi)));
                    }
                    assert_eq!(pairs, want, "θ = {theta}, morsel {morsel}");
                }
                assert_eq!(batch_stats.probes(), probes, "θ = {theta}, morsel {morsel}");
            }
        }
    }

    fn assert_vectorized_covered(
        b: &Relation,
        s: &Relation,
        l: &[AggSpec],
        theta: &mdj_expr::Expr,
    ) {
        let serial_stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(serial_stats.clone());
        let serial = md_join_serial(b, s, l, theta, &sctx).unwrap();
        let vec_stats = Arc::new(ScanStats::new());
        let vctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(vec_stats.clone());
        let vector = md_join_vectorized(b, s, l, theta, &vctx).unwrap();
        assert_eq!(serial.rows(), vector.rows(), "θ = {theta}");
        assert_eq!(serial_stats.scans(), vec_stats.scans());
        assert_eq!(serial_stats.tuples_scanned(), vec_stats.tuples_scanned());
        assert_eq!(serial_stats.probes(), vec_stats.probes(), "θ = {theta}");
        assert_eq!(serial_stats.updates(), vec_stats.updates(), "θ = {theta}");
        assert!(vec_stats.batches() > 0);
        assert_eq!(vec_stats.batch_fallbacks(), 0, "θ = {theta}");
    }

    /// Satellite: adversarial scoreboard stress — tiny batches so slots are
    /// recycled every few tuples, duplicate base keys so buckets span rows,
    /// and extreme key values that collide in a naive multiplicative hash.
    /// Rows and every counter must match serial exactly.
    #[test]
    fn scoreboard_slot_recycling_under_adversarial_keys() {
        let keys = [
            0i64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            2 << 40,
            3 << 40,
            -(1 << 40),
            7,
            -7,
            42,
        ];
        let b_schema = Schema::from_pairs(&[("k", DataType::Int), ("tag", DataType::Int)]);
        let b_rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| {
                // Duplicate keys → every probe returns a two-row bucket, so
                // distinct base rows always share a batch's scoreboard.
                [
                    Row::from_values(vec![Value::Int(k), Value::Int(i as i64)]),
                    Row::from_values(vec![Value::Int(k), Value::Int(100 + i as i64)]),
                ]
            })
            .collect();
        let b = Relation::from_rows(b_schema, b_rows);
        let r_schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
        // Rotate through the keys (plus misses) so consecutive tuples hit
        // different base rows and every 3-row batch recycles all its slots.
        let r_rows: Vec<Row> = (0..200)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Int(999) // absent key: empty bucket
                } else {
                    Value::Int(keys[i % keys.len()])
                };
                Row::from_values(vec![k, Value::Float(i as f64 * 0.5)])
            })
            .collect();
        let r = Relation::from_rows(r_schema, r_rows);
        let theta = eq(col_b("k"), col_r("k"));
        let l = [
            AggSpec::on_column("sum", "v"),
            AggSpec::on_column("min", "v"),
            AggSpec::count_star(),
        ];
        let serial_stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(serial_stats.clone());
        let serial = md_join_serial(&b, &r, &l, &theta, &sctx).unwrap();
        let vec_stats = Arc::new(ScanStats::new());
        let vctx = ExecContext::new()
            .with_morsel_size(3)
            .with_stats(vec_stats.clone());
        let vector = md_join_vectorized(&b, &r, &l, &theta, &vctx).unwrap();
        assert_eq!(serial.rows(), vector.rows());
        assert_eq!(serial_stats.probes(), vec_stats.probes());
        assert_eq!(serial_stats.updates(), vec_stats.updates());
        assert_eq!(vec_stats.batches(), 200u64.div_ceil(3));
        assert_eq!(vec_stats.batch_fallbacks(), 0);
    }
}
