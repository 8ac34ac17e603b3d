//! Vectorized batch execution of Algorithm 3.1.
//!
//! The serial evaluator interprets everything per row: each conjunct of θ is
//! a `BoundExpr` tree walk, each aggregate update a virtual call through
//! `Box<dyn AggState>` with a `Value` in between. This module processes `R`
//! in columnar batches instead:
//!
//! 1. each batch of `ctx.morsel_size` resident tuples is a [`ColumnarChunk`]
//!    of the columns θ and `l` actually read, each transposed once per
//!    relation and kept in its column cache (`Relation::chunk`); a page
//!    of a page store is its buffer-pool frame's chunk, decoded once per
//!    residency, and builds rows only for a scalar fallback;
//! 2. the Theorem 4.2 prefilter evaluates over the whole batch into a
//!    selection vector ([`mdj_expr::vectorized::eval_batch`]);
//! 3. hash-probe keys are computed for the whole batch in one typed loop per
//!    key column and resolved through the plan's [`KeyIndex`] without row
//!    materialization ([`BatchProbe`]): a lone `i64` key through the index's
//!    `Int` dictionary, every other key by coding each key column of the
//!    chunk, translating each distinct chunk code into the index's column
//!    code once per chunk ([`Translation`]) and resolving each distinct key
//!    tuple once per chunk; mixed hash residuals are bound per candidate base
//!    row and evaluated batch-at-a-time when dense enough;
//! 4. matched tuples are grouped per base row and aggregate updates applied
//!    through typed [`KernelState`] kernels — one dispatch per (base row,
//!    batch) run over native slices, not one per value.
//!
//! Every step falls back to the scalar interpreter for shapes it cannot
//! prove equivalent (counted in `ScanStats::batch_fallbacks`), and all work
//! accounting (scans, probes, updates) is identical to [`md_join_serial`] by
//! construction, so the two paths are interchangeable in experiments. The
//! output is row-identical to the serial evaluator — including `f64`
//! accumulation order, which follows tuple order per base row in both.

use crate::context::ExecContext;
use crate::error::Result;
use crate::executor::Slice;
use crate::governor::{GrowthMeter, MemCharge};
use crate::mdjoin::BoundAgg;
use crate::probe::{canon_key, ProbePlan};
use mdj_agg::{AggState, KernelState};
use mdj_expr::eval::BoundExpr;
use mdj_expr::vectorized::{
    batchable_bound_shape, bind_base, collect_detail_cols, eval_batch, BatchVals,
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
/// * mixed hash residuals, bound per candidate base row ([`bind_base`]) and
///   evaluated batch-at-a-time over the chunk when that base row has enough
///   candidates to amortize the whole-chunk pass.
///
/// Nested-loop plans whose θ shape batches are evaluated vectorized too: per
/// chunk, θ is bound to each base row ([`bind_base`]) and the bound form runs
/// over the whole chunk, a block of base rows at a time ([`NL_PAIRS`]).
/// Batches whose key expressions have no vectorized form (and nested-loop θ
/// shapes that don't batch) delegate per row to [`ProbePlan::matches`].
/// Probe accounting is identical to the scalar path in every mode:
/// prefiltered-out and NULL-key tuples record zero probes, hash probes record
/// the bucket length, nested-loop probes record `|B|`.
pub(crate) struct BatchProbe<'a> {
    plan: &'a ProbePlan,
    /// A nested-loop plan whose θ shape batches.
    nl_batch: bool,
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
    pub(crate) fn new(plan: &'a ProbePlan) -> Self {
        let nl_batch =
            matches!(plan, ProbePlan::NestedLoop { theta, .. } if batchable_bound_shape(theta));
        BatchProbe { plan, nl_batch }
    }

    /// Mark the detail columns batches must materialize for this plan: the
    /// prefilter's, the probe-key expressions', the hash residual's (batch
    /// residual evaluation reads the residual's detail columns from the
    /// chunk), and — when the nested-loop θ shape batches — θ's own detail
    /// columns. An expression whose *shape* can never batch
    /// ([`batchable_bound_shape`]) marks nothing: its evaluation is bound for
    /// the scalar interpreter over row storage, so transposing its columns
    /// would be pure dead weight discarded every batch.
    pub(crate) fn collect_needed(&self, needed: &mut [bool]) {
        match self.plan {
            ProbePlan::NestedLoop { prefilter, theta } => {
                if let Some(p) = prefilter {
                    if batchable_bound_shape(p) {
                        collect_detail_cols(p, needed);
                    }
                }
                if self.nl_batch {
                    collect_detail_cols(theta, needed);
                }
            }
            ProbePlan::Hash {
                key_exprs,
                prefilter,
                residual,
                ..
            } => {
                // One unbatchable key sends every batch to the scalar
                // delegate, so the other keys' columns would go unread too.
                if key_exprs.iter().all(batchable_bound_shape) {
                    for e in key_exprs {
                        collect_detail_cols(e, needed);
                    }
                }
                if let Some(p) = prefilter {
                    if batchable_bound_shape(p) {
                        collect_detail_cols(p, needed);
                    }
                }
                if let Some(res) = residual {
                    if batchable_bound_shape(res) {
                        collect_detail_cols(res, needed);
                    }
                }
            }
        }
    }

    /// Compute `Rel(t)` over `b` for every tuple of `chunk` and hand the
    /// `(batch-local tuple index, base row id)` pairs to `emit`, each base
    /// row's in tuple order: once per chunk, or once per block of base rows
    /// for a vectorized nested loop. `pairs` is scratch. `groups`, when
    /// given, is each tuple's own group of a `B` built in this scan
    /// ([`GroupTable::assign`](crate::grouped::GroupTable::assign)): a hash
    /// plan then probes by it instead of by its index. Returns `true` if any
    /// part of the batch fell back to the scalar interpreter.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matches_batch(
        &self,
        chunk: &ColumnarChunk,
        slice: Slice,
        b: &Relation,
        groups: Option<&[usize]>,
        ctx: &ExecContext,
        pairs: &mut Vec<(u32, usize)>,
        emit: &mut PairSink<'_>,
    ) -> Result<bool> {
        pairs.clear();
        let n = chunk.len();
        let start = chunk.start();
        let mut fell_back = false;

        let prefilter = match self.plan {
            ProbePlan::NestedLoop { prefilter, .. } => prefilter.as_ref(),
            ProbePlan::Hash { prefilter, .. } => prefilter.as_ref(),
        };
        // A vectorized prefilter yields the batch's selection vector. When it
        // doesn't vectorize, `sel` stays `None` and the scalar paths below
        // apply the prefilter per row themselves (ProbePlan::matches does it
        // internally).
        let sel: Option<Vec<bool>> = match prefilter {
            Some(p) => match eval_batch(p, chunk) {
                Some(bv) => Some(bv.to_selection(n)),
                None => {
                    ctx.count(Counter::fallback_prefilter, 1);
                    fell_back = true;
                    None
                }
            },
            None => None,
        };
        let selected = |i: usize| sel.as_ref().is_none_or(|s| s[i]);

        // Batched probing: vectorize every key column of a hash plan. A key
        // expression with no vectorized form sends the whole batch to the
        // scalar delegate below; everything else probes without ever
        // materializing a row-form key per tuple.
        if let ProbePlan::Hash {
            index,
            key_exprs,
            residual,
            ..
        } = self.plan
        {
            let prober = match groups {
                Some(ids) => Some(Prober::Groups(ids)),
                None => key_exprs
                    .iter()
                    .map(|e| eval_batch(e, chunk))
                    .collect::<Option<Vec<BatchVals>>>()
                    .map(|batches| Prober::new(index, batches, n)),
            };
            if let Some(mut prober) = prober {
                let mut cands: Vec<(u32, usize)> = Vec::new();
                let probed = (|| -> Result<()> {
                    for i in 0..n {
                        if !selected(i) {
                            continue;
                        }
                        if sel.is_none() {
                            if let Some(p) = prefilter {
                                if !p.eval_bool(&[], slice.rows(ctx)[start + i].values())? {
                                    continue;
                                }
                            }
                        }
                        // NULL key component: SQL equality never matches —
                        // the tuple records zero probes, exactly like the
                        // scalar path.
                        let Some(bucket) = prober.bucket(i) else {
                            continue;
                        };
                        cands.extend(bucket.iter().map(|&bi| (i as u32, bi)));
                    }
                    Ok(())
                })();
                // Each candidate is one probe of its tuple's bucket: counted
                // once per batch, not with an atomic add per tuple, and also
                // when the prefilter failed part-way.
                ctx.count(Counter::probes, cands.len() as u64);
                probed?;
                match residual {
                    None => emit(&cands)?,
                    Some(res) => {
                        self.filter_residual(res, b, chunk, slice, ctx, &cands, pairs)?;
                        emit(pairs)?;
                    }
                }
                return Ok(fell_back);
            }
            ctx.count(Counter::fallback_key, 1);
            fell_back = true;
        } else if let (true, ProbePlan::NestedLoop { theta, .. }) = (self.nl_batch, self.plan) {
            // Vectorized nested loop: θ bound to one base row runs over the
            // whole chunk, replacing |chunk| interpreted tree walks. Base
            // rows are taken in blocks, each block's pairs applied before the
            // next block's are formed, so the pairs in flight stay under
            // NL_PAIRS and are charged to the budget while they exist. Each
            // base row's pairs come in tuple order, so every group
            // accumulates exactly as in the scalar nested loop, f64 order
            // included.
            let mut survive = vec![false; n];
            let mut n_survive = 0u64;
            for (i, slot) in survive.iter_mut().enumerate() {
                if !selected(i) {
                    continue;
                }
                if sel.is_none() {
                    if let Some(p) = prefilter {
                        if !p.eval_bool(&[], slice.rows(ctx)[start + i].values())? {
                            continue;
                        }
                    }
                }
                *slot = true;
                n_survive += 1;
            }
            // Every surviving tuple examines all of B — exactly the scalar
            // nested loop's accounting; prefiltered-out tuples record zero
            // probes.
            ctx.count(Counter::probes, n_survive * b.len() as u64);
            if n_survive == 0 {
                return Ok(fell_back);
            }
            let mut theta_fell_back = false;
            let block = (NL_PAIRS / n).max(1);
            for (first, rows) in b.rows().chunks(block).enumerate() {
                pairs.clear();
                for (j, b_row) in rows.iter().enumerate() {
                    let bi = first * block + j;
                    match eval_batch(&bind_base(theta, b_row.values()), chunk) {
                        Some(bv) => {
                            let verdict = bv.to_selection(n);
                            pairs.extend(
                                (0..n)
                                    .filter(|&i| survive[i] && verdict[i])
                                    .map(|i| (i as u32, bi)),
                            );
                        }
                        None => {
                            // This base row's inlined literals broke the
                            // batch form (e.g. a string bound into an
                            // arithmetic slot): its pairs come from the
                            // interpreter.
                            theta_fell_back = true;
                            let detail = slice.rows(ctx);
                            for i in (0..n).filter(|&i| survive[i]) {
                                if theta.eval_bool(b_row.values(), detail[start + i].values())? {
                                    pairs.push((i as u32, bi));
                                }
                            }
                        }
                    }
                }
                let _scratch = MemCharge::try_new(ctx, pairs.len() * PAIR_BYTES)?;
                emit(pairs)?;
            }
            if theta_fell_back {
                ctx.count(Counter::fallback_theta, 1);
                fell_back = true;
            }
            return Ok(fell_back);
        } else {
            // Nested loop whose θ shape has no batch form: inherently scalar.
            ctx.count(Counter::fallback_theta, 1);
            fell_back = true;
        }

        // Scalar path: delegate each surviving tuple to the interpreter's
        // `matches`, which applies prefilter/keys/θ with identical probe
        // accounting, counted once per batch. (For tuples a vectorized
        // prefilter already rejected we skip the call entirely — `matches`
        // would record nothing for them.)
        let (mut matches, mut codes, mut probes) = (Vec::new(), Vec::new(), 0u64);
        let rows = slice.rows(ctx);
        let delegated = (|| -> Result<()> {
            for i in (0..n).filter(|&i| selected(i)) {
                let t = rows[start + i].values();
                self.plan
                    .matches(b, t, &mut matches, &mut codes, &mut probes)?;
                pairs.extend(matches.iter().map(|&bi| (i as u32, bi)));
            }
            Ok(())
        })();
        ctx.count(Counter::probes, probes);
        delegated?;
        emit(pairs)?;
        Ok(fell_back)
    }

    /// Apply the mixed residual `θres(b, t)` to pre-residual candidate pairs,
    /// preserving tuple order. Base rows with enough candidates in this batch
    /// get the residual bound to their row ([`bind_base`]) and evaluated once
    /// over the whole chunk; sparse base rows — and bound forms with no
    /// vectorized shape — take the scalar per-pair check. Results and work
    /// accounting are identical either way (vectorizable residuals are total,
    /// so no error path diverges), which is why this mode never reports a
    /// batch fallback.
    #[allow(clippy::too_many_arguments)]
    fn filter_residual(
        &self,
        res: &BoundExpr,
        b: &Relation,
        chunk: &ColumnarChunk,
        slice: Slice,
        ctx: &ExecContext,
        cands: &[(u32, usize)],
        pairs: &mut Vec<(u32, usize)>,
    ) -> Result<()> {
        let n = chunk.len();
        let start = chunk.start();
        let mut counts: HashMap<usize, usize, KeyBuildHasher> = HashMap::default();
        for &(_, bi) in cands {
            *counts.entry(bi).or_insert(0) += 1;
        }
        // One whole-chunk pass evaluates the bound residual at all `n` rows
        // but is consulted only at this base row's candidates, so it pays off
        // only when candidates are dense: at least 4, covering ≥ 1/8 of the
        // chunk (a vectorized op costs roughly an eighth of an interpreted
        // one).
        let mut verdicts: HashMap<usize, Vec<bool>, KeyBuildHasher> = HashMap::default();
        for (&bi, &count) in &counts {
            if count >= 4 && count * 8 >= n {
                let bound = bind_base(res, b.rows()[bi].values());
                if let Some(bv) = eval_batch(&bound, chunk) {
                    verdicts.insert(bi, bv.to_selection(n));
                }
            }
        }
        for &(i, bi) in cands {
            let keep = match verdicts.get(&bi) {
                Some(v) => v[i as usize],
                None => res.eval_bool(
                    b.rows()[bi].values(),
                    slice.rows(ctx)[start + i as usize].values(),
                )?,
            };
            if keep {
                pairs.push((i, bi));
            }
        }
        Ok(())
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
    /// The prober for one batch of `n` rows whose key columns evaluated to
    /// `batches`: a lone `i64` key is looked up by value; every other key is
    /// coded per chunk ([`KeyCodes`]) so that each distinct key tuple is
    /// looked up in the index once.
    fn new(index: &'p KeyIndex, mut batches: Vec<BatchVals>, n: usize) -> Prober<'p> {
        if let [BatchVals::Ints { vals, nulls }] = &mut batches[..] {
            let (vals, nulls) = (std::mem::take(vals), std::mem::take(nulls));
            return Prober::Int { vals, nulls, index };
        }
        let cols: Vec<KeyCodes> = batches.into_iter().map(|bv| KeyCodes::new(bv, n)).collect();
        let (ids, card) = tuple_ids(&cols, n);
        Prober::Coded {
            translation: Translation::new(&cols),
            cols,
            ids,
            slots: vec![None; card],
            index,
            codes: Vec::new(),
        }
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
/// columns replay the scalar per-value protocol (including growth metering
/// for holistic states under a budget).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_batch(
    col: &mut ColStates,
    ba: &BoundAgg,
    groups: &[(usize, Vec<u32>)],
    chunk: &ColumnarChunk,
    slice: Slice,
    start: usize,
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
                // Strings, mixed-typed, or unmaterialized columns: replay
                // the exact scalar update protocol value by value.
                _ => {
                    ctx.count(Counter::fallback_agg, 1);
                    let rows = slice.rows(ctx);
                    for (bi, idxs) in groups {
                        for &i in idxs {
                            states[*bi].update_value(&rows[start + i as usize][c])?;
                        }
                    }
                }
            },
        },
        ColStates::Boxed(states) => {
            // Kernel-less (e.g. holistic) aggregates never batch.
            ctx.count(Counter::fallback_agg, 1);
            let rows = slice.rows(ctx);
            for (bi, idxs) in groups {
                for &i in idxs {
                    let v = match ba.input_col {
                        Some(c) => &rows[start + i as usize][c],
                        None => &Value::Null,
                    };
                    if metered {
                        let st = &mut states[*bi];
                        let before = st.heap_bytes();
                        st.update(v)?;
                        meter.charge(st.heap_bytes().saturating_sub(before))?;
                    } else {
                        states[*bi].update(v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProbeStrategy;
    use crate::executor::{self, DetailSource, Driver, Grid};
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
        executor::run(b, &grid, &blocks, &Driver::Serial { batch: true }, ctx)
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

    /// Tentpole: a dense mixed residual takes the batch-evaluation path (7
    /// base rows over 64-row chunks ⇒ every base row clears the density
    /// cutoff) and stays identical to serial, still with zero fallbacks.
    #[test]
    fn batch_residual_matches_serial_without_fallback() {
        let s = sales(400);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            gt(col_r("sale"), col_b("cust")),
        );
        assert_vectorized_covered(&b, &s, &specs(), &theta);
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
                let probe = BatchProbe::new(&plan);
                let mut needed = vec![false; r_schema.len()];
                probe.collect_needed(&mut needed);
                let batch_stats = Arc::new(ScanStats::new());
                let bctx = ExecContext::new().with_stats(batch_stats.clone());
                let (mut out, mut codes, mut probes) = (Vec::new(), Vec::new(), 0);
                for idx in 0..r.len().div_ceil(morsel) {
                    let slice = Slice::resident(&r, idx, morsel);
                    let chunk = slice.chunk(&needed, &bctx);
                    let rows = slice.rows(&bctx);
                    let mut pairs = Vec::new();
                    let fell_back = probe
                        .matches_batch(
                            &chunk,
                            slice,
                            &b,
                            None,
                            &bctx,
                            &mut Vec::new(),
                            &mut |got| {
                                pairs.extend_from_slice(got);
                                Ok(())
                            },
                        )
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
