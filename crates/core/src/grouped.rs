//! A group-by base built inside Algorithm 3.1's scan.
//!
//! In the paper's examples `B` is most often a group-by of the detail
//! relation itself, `γ_D(σ_p(R))`, and θ matches each group on exactly its
//! key: `B.D = R.D`, plus detail-only conditions that include `p`. Such a join
//! needs no separate pass over `R` to build `B`. Scanning `R` once, each row
//! that passes `p` finds or inserts the group of its key in one keyed table —
//! at once the distinct-key set that builds `B` and the §4.5 index the blocks
//! probe — and the rows θ keeps then update that group.
//!
//! This is an equivalence, not an approximation: new keys are numbered in
//! first-seen order, which is the order a separate pass gives `B`, and each
//! group's updates arrive in scan order, so rows, float bits and the probe and
//! update counts equal those of building `B` first. Two things keep the
//! passes apart:
//!
//! * θ's probe key must be the group key itself. `X.month = month − 1`
//!   probes a *different* group, possibly one the scan has not met yet.
//! * A group key must be its own canonical probe key ([`canon_key`]). A probe
//!   reads an integral float as the equal integer, so `0.0` and `-0.0`, or an
//!   untyped column's `1` and `1.0`, are two groups that one probe key
//!   matches — including a group first seen after the row. Key columns must
//!   be declared `Int` or `Str`, and a scan that meets a float key anyway
//!   says so ([`GroupTable::exact`]).
//!
//! Such a scan, and one that breaches its memory budget, stops answering
//! but not scanning: the rest of it only collects keys, so it still yields
//! `B`, and the join is then evaluated over that `B` (degrading by Theorem 4.1
//! after a breach) without another pass to build it.
//!
//! A cube, roll-up or grouping-sets query runs one such scan per cuboid
//! (`mdj_cube::common::cuboid`); the merged multi-set base tables of
//! [`basevalues`] keep their separate pass.
//!
//! The table is a [`KeyIndex`], the same index a two-pass plan probes: it
//! resolves a key through per-column codes, never by hashing the key as a
//! row ([`GroupTable::assign`]). A chunk's per-chunk codes ([`KeyCodes`])
//! are translated into the index's column codes once per distinct chunk
//! code ([`Translation`], shared with the batch prober), and the key's
//! number is its group: keys and groups are both numbered in first-seen
//! order. A lone `Int` key is looked up by value.

use crate::basevalues::{self, Sets};
use crate::context::{ExecContext, ProbeStrategy};
use crate::error::Result;
use crate::executor::{scan_in_order, DetailSource, Grid, Slice};
use crate::generalized::Block;
use crate::probe::canon_key;
use crate::vectorized::{tuple_ids, KeyCodes, Translation, NO_GROUP, NULL_CODE};
use mdj_expr::analysis::{conjuncts, probe_bindings};
use mdj_expr::builder::and_all;
use mdj_expr::vectorized::{batchable_bound_shape, collect_detail_cols};
use mdj_expr::{eval_batch, BatchVals, BoundExpr, ColRef, Expr, Side};
use mdj_storage::{
    Column, ColumnarChunk, Counter, DataType, KeyIndex, Relation, Row, Schema, Value,
};

/// `B = γ_dims(σ_pred(R))` over an MD-join's own detail relation `R`.
#[derive(Debug, Clone)]
pub(crate) struct GroupBy {
    pub dims: Vec<String>,
    /// A detail-side predicate; `None` keeps every row.
    pub pred: Option<Expr>,
}

impl GroupBy {
    /// `B`'s schema: `R`'s `dims` columns.
    pub(crate) fn schema(&self, r: &Schema) -> Result<Schema> {
        Ok(r.project(&self.key_cols(r)?))
    }

    fn key_cols(&self, r: &Schema) -> Result<Vec<usize>> {
        let dims: Vec<&str> = self.dims.iter().map(String::as_str).collect();
        Ok(r.indices_of(&dims)?)
    }

    /// The grid block for a scan that builds `B`: its pages are those `pred`
    /// can keep (Theorem 4.2), every page without one.
    pub(crate) fn grid_block(&self) -> Block {
        let pred = self.pred.clone().unwrap_or_else(Expr::always_true);
        Block::new(pred, Vec::new())
    }

    /// An empty group table over `R`'s schema.
    pub(crate) fn table(&self, r: &Schema) -> Result<GroupTable> {
        let key_cols = self.key_cols(r)?;
        Ok(GroupTable {
            pred: self
                .pred
                .as_ref()
                .map(|p| p.bind(None, Some(r)))
                .transpose()?,
            index: KeyIndex::new(key_cols.len()),
            base: Relation::empty(r.project(&key_cols)),
            key_cols,
            exact: true,
            key: Vec::new(),
            codes: Vec::new(),
        })
    }

    /// `B` in a pass of its own over `source`: the distinct keys of
    /// `σ_pred(R)` in first-seen order. Resident rows take the filtered base
    /// build, which transposes only `pred`'s columns and hashes only the rows
    /// it keeps; a page store is read page by page into a group table.
    pub(crate) fn build(&self, source: DetailSource, ctx: &ExecContext) -> Result<Relation> {
        ctx.count(Counter::base_passes, 1);
        if let DetailSource::Resident(r) = source {
            let dims: Vec<&str> = self.dims.iter().map(String::as_str).collect();
            return match &self.pred {
                Some(p) => basevalues::build_filtered(r, p, &dims, Sets::GroupBy, ctx),
                None => basevalues::group_by(r, &dims),
            };
        }
        let grid = Grid::new(source, &[self.grid_block()], ctx.morsel_size());
        let mut table = self.table(source.schema())?;
        let mut needed = vec![false; source.schema().len()];
        table.collect_needed(&mut needed);
        let mut ids = Vec::new();
        scan_in_order(&grid, ctx, |slice| {
            ctx.check_interrupt()?;
            table.assign(&slice.chunk(&needed, ctx), slice, ctx, &mut ids)?;
            Ok(0)
        })?;
        Ok(table.into_base())
    }

    /// The blocks to evaluate in one scan that builds `B`, or `None` when
    /// θ does not allow it. Every block must probe on exactly `B.d = R.d` for
    /// each dimension (hash probing with the prefilter on, so the probe and
    /// update counts equal the two-pass plan's) and carry each conjunct of
    /// `pred` among its own; those conjuncts are dropped from the returned
    /// θs, since a row `pred` rejects belongs to no group.
    pub(crate) fn fused_blocks(
        &self,
        r: &Schema,
        blocks: &[Block],
        ctx: &ExecContext,
    ) -> Option<Vec<Block>> {
        let typed = |d: &String| {
            r.index_of(d)
                .is_ok_and(|c| matches!(r.field(c).dtype, DataType::Int | DataType::Str))
        };
        // An empty key is one group, which the scan's first row inserts
        // before any row updates it, so θ may take it from a nested loop —
        // unless `pred` drops rows that precede that first row in its chunk.
        if ctx.strategy() == ProbeStrategy::NestedLoop
            || !ctx.prefilter()
            || (self.dims.is_empty() && self.pred.is_some())
            || !self.dims.iter().all(typed)
        {
            return None;
        }
        let implied = self.pred.as_ref().map(conjuncts).unwrap_or_default();
        let mut dims: Vec<&str> = self.dims.iter().map(String::as_str).collect();
        dims.sort_unstable();
        blocks
            .iter()
            .map(|blk| {
                let conjs = conjuncts(&blk.theta);
                if !implied.iter().all(|p| conjs.contains(p)) {
                    return None;
                }
                let theta = and_all(conjs.into_iter().filter(|c| !implied.contains(c)));
                let (bindings, _) = probe_bindings(&theta);
                let mut keys: Vec<&str> = bindings
                    .iter()
                    .filter(|bi| {
                        bi.detail_expr
                            == Expr::Col(ColRef {
                                side: Side::Detail,
                                name: bi.base_col.clone(),
                            })
                    })
                    .map(|bi| bi.base_col.as_str())
                    .collect();
                keys.sort_unstable();
                (bindings.len() == dims.len() && keys == dims)
                    .then(|| Block::new(theta, blk.aggs.clone()))
            })
            .collect()
    }
}

/// `B = γ_D(σ_p(R))` while a scan builds it: one keyed table that is both
/// `B`'s distinct-key set and the index its probes use.
pub(crate) struct GroupTable {
    /// `R`'s columns of `D`, in `D`'s order.
    key_cols: Vec<usize>,
    pred: Option<BoundExpr>,
    /// Group key → row of `base`: a key's number is its group.
    index: KeyIndex,
    /// The groups so far, in first-seen order.
    base: Relation,
    /// Every key so far is its own canonical probe key.
    exact: bool,
    /// Reused key of the group being resolved.
    key: Vec<Value>,
    /// Reused per-column codes of the group being resolved.
    codes: Vec<u32>,
}

impl GroupTable {
    /// The groups found so far, in first-seen order.
    pub(crate) fn base(&self) -> &Relation {
        &self.base
    }

    /// `B`: every group, in first-seen order.
    pub(crate) fn into_base(self) -> Relation {
        self.base
    }

    /// Whether every group key is its own canonical probe key, so the groups
    /// the probes found are exactly those of the two-pass plan.
    pub(crate) fn exact(&self) -> bool {
        self.exact
    }

    /// Mark the detail columns [`assign`](Self::assign) reads from a chunk.
    pub(crate) fn collect_needed(&self, needed: &mut [bool]) {
        for &c in &self.key_cols {
            needed[c] = true;
        }
        if let Some(p) = self.pred.as_ref().filter(|p| batchable_bound_shape(p)) {
            collect_detail_cols(p, needed);
        }
    }

    /// Offer the rows of one slice (`chunk` is its columnar form), inserting
    /// each new key as a group in row order. `ids[i]` becomes row `i`'s group,
    /// or [`NO_GROUP`] when the row fails `p` or its key has a NULL component
    /// (its group exists, but SQL equality never matches it).
    ///
    /// A lone `Int` key is looked up by value. Other ints and strings are
    /// coded per chunk ([`KeyCodes`]), so each distinct key of the chunk meets
    /// the table once, and then through the index's per-column codes: each
    /// distinct chunk code of a column is translated to the column's code
    /// once ([`Translation`]), and the key resolves through `u64`-keyed
    /// maps, never hashing a row-form key. Keys with a NULL, and chunks whose key columns have no
    /// typed form, are read one by one (a typed column's value from the
    /// chunk, anything else from the row) into the same codes. Against
    /// reading every key row by row (`SqlEngine::query` over 50 k rows on a
    /// 2-vCPU host, min of 60), the lone-`Int` path takes `cust` group-bys
    /// from 2.3–3.5 to 1.4 ms (one block) and 3.5–4.0 to 2.8–2.9 ms (three),
    /// and chunk coding takes a `(prod, state)` group-by from 4.4–5.2 to
    /// 3.3–3.5 ms.
    pub(crate) fn assign(
        &mut self,
        chunk: &ColumnarChunk,
        slice: Slice,
        ctx: &ExecContext,
        ids: &mut Vec<usize>,
    ) -> Result<()> {
        let n = slice.len();
        ids.clear();
        ids.resize(n, NO_GROUP);
        let sel = match &self.pred {
            None => None,
            Some(p) => Some(match eval_batch(p, chunk) {
                Some(verdicts) => verdicts.to_selection(n),
                None => slice
                    .rows(ctx)
                    .iter()
                    .map(|t| p.eval_bool(&[], t.values()))
                    .collect::<std::result::Result<_, _>>()?,
            }),
        };
        let kept = |i: usize| sel.as_ref().is_none_or(|s: &Vec<bool>| s[i]);
        if let [c] = self.key_cols[..] {
            if let Column::Int { vals, nulls } = chunk.column(c) {
                for i in 0..n {
                    if !kept(i) {
                        continue;
                    }
                    ids[i] = match (nulls[i], self.index.int_code(0, vals[i])) {
                        (true, _) => self.offer_row(chunk, slice, ctx, i),
                        (false, Some(group)) => group as usize,
                        (false, None) => {
                            self.key.clear();
                            self.key.push(Value::Int(vals[i]));
                            self.find_or_insert()
                        }
                    };
                }
                return Ok(());
            }
        }
        let coded: Option<Vec<KeyCodes>> = self
            .key_cols
            .iter()
            .map(|&c| match eval_batch(&BoundExpr::RCol(c), chunk)? {
                bv @ (BatchVals::Ints { .. } | BatchVals::Strs { .. }) => {
                    Some(KeyCodes::new(bv, n))
                }
                _ => None,
            })
            .collect();
        let Some(cols) = coded else {
            for (i, id) in ids.iter_mut().enumerate() {
                if kept(i) {
                    *id = self.offer_row(chunk, slice, ctx, i);
                }
            }
            return Ok(());
        };
        let (tuples, card) = tuple_ids(&cols, n);
        let mut slots = vec![NO_GROUP; card];
        let mut translation = Translation::new(&cols);
        for i in 0..n {
            if !kept(i) {
                continue;
            }
            let id = tuples[i];
            if id == NULL_CODE {
                self.offer_row(chunk, slice, ctx, i);
                continue;
            }
            let slot = &mut slots[id as usize];
            if *slot == NO_GROUP {
                let index = &mut self.index;
                translation.codes(&cols, i, &mut self.codes, |j, v| {
                    Some(index.code_or_insert(j, v))
                });
                *slot = match self.index.find_or_insert(&self.codes) {
                    (group, false) => group as usize,
                    (_, true) => {
                        self.key.clear();
                        self.key
                            .extend(cols.iter().map(|col| col.value(col.code(i))));
                        self.insert()
                    }
                };
            }
            ids[i] = *slot;
        }
        Ok(())
    }

    /// Row `i`'s group, read from its values — from `chunk` where a key
    /// column is typed, from its row otherwise: the group id, or
    /// [`NO_GROUP`] when a key component is NULL.
    fn offer_row(
        &mut self,
        chunk: &ColumnarChunk,
        slice: Slice,
        ctx: &ExecContext,
        i: usize,
    ) -> usize {
        self.key.clear();
        self.key.extend(self.key_cols.iter().map(|&c| {
            chunk
                .column(c)
                .value(i)
                .unwrap_or_else(|| slice.rows(ctx)[i][c].clone())
        }));
        let group = self.find_or_insert();
        match self.key.iter().any(Value::is_null) {
            true => NO_GROUP,
            false => group,
        }
    }

    /// The group of `self.key`, inserted as a new row of `B` when unseen.
    fn find_or_insert(&mut self) -> usize {
        match self.index.insert(&self.key) {
            (group, false) => group as usize,
            (_, true) => self.insert(),
        }
    }

    /// Append `self.key` to `B` as the group the index just numbered.
    fn insert(&mut self) -> usize {
        let group = self.base.len();
        debug_assert_eq!(group + 1, self.index.len(), "a key's number is its group");
        self.exact &= self.key.iter().all(|v| canon_key(v.clone()) == *v);
        self.base.push_unchecked(Row::new(self.key.clone()));
        group
    }
}

#[cfg(test)]
mod tests {
    use crate::basevalues::{self, Sets};
    use crate::builder::{ExecStrategy, MdJoin};
    use crate::context::ExecContext;
    use crate::executor::DetailSource;
    use crate::paged::PagedScan;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_expr::Expr;
    use mdj_storage::{BufferPool, DataType, PagedStore, Relation, Row, ScanStats, Schema, Value};
    use std::sync::Arc;

    /// `(cust Int, state Str, sale Float)`, with NULL keys in both columns.
    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            (0..200i64)
                .map(|i| {
                    Row::from_values(vec![
                        if i % 17 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i % 7)
                        },
                        match i % 5 {
                            0 => Value::Null,
                            x => Value::str(["NY", "NJ", "CT", "CA"][x as usize - 1]),
                        },
                        Value::Float(i as f64 * 0.1),
                    ])
                })
                .collect(),
        )
    }

    fn aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::count_star(),
            AggSpec::on_column("median", "sale"),
        ]
    }

    /// The plan that builds `B` first, on the same evaluator.
    fn two_pass(r: &Relation, dims: &[&str], pred: Option<&Expr>, theta: &Expr) -> Relation {
        let ctx = ExecContext::new().with_morsel_size(16);
        let b = match pred {
            Some(p) => basevalues::build_filtered(r, p, dims, Sets::GroupBy, &ctx).unwrap(),
            None => basevalues::build(r, dims, Sets::GroupBy).unwrap(),
        };
        MdJoin::new(&b, r)
            .theta(theta.clone())
            .aggs(&aggs())
            .strategy(ExecStrategy::Vectorized)
            .run(&ctx)
            .unwrap()
    }

    fn one_scan(
        r: &Relation,
        dims: &[&str],
        pred: Option<Expr>,
        theta: &Expr,
    ) -> (Relation, Arc<ScanStats>) {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(16)
            .with_stats(stats.clone());
        let out = MdJoin::group_by(DetailSource::Resident(r), dims, pred)
            .theta(theta.clone())
            .aggs(&aggs())
            .strategy(ExecStrategy::Vectorized)
            .run(&ctx)
            .unwrap();
        (out, stats)
    }

    #[test]
    fn null_keys_form_groups_that_match_nothing() {
        let r = sales();
        let dims = ["cust", "state"];
        let pred = ne(col_r("state"), lit("CA"));
        let theta = and_all([
            eq(col_b("cust"), col_r("cust")),
            pred.clone(),
            eq(col_r("state"), col_b("state")),
        ]);
        let (out, stats) = one_scan(&r, &dims, Some(pred.clone()), &theta);
        assert_eq!((stats.base_fused(), stats.base_passes()), (1, 0));
        assert_eq!((stats.scans(), stats.tuples_scanned()), (1, r.len() as u64));
        assert_eq!(out.rows(), two_pass(&r, &dims, Some(&pred), &theta).rows());
        // A group with a NULL key component exists and keeps the empty
        // aggregates: NULL sum, zero count.
        let null_group = out.iter().find(|row| row[0].is_null()).unwrap();
        assert_eq!(
            (&null_group[2], &null_group[3]),
            (&Value::Null, &Value::Int(0))
        );
    }

    #[test]
    fn derived_probe_keys_keep_two_passes() {
        let r = sales();
        // `B.cust = R.cust + 1` probes another group than the row's own.
        let theta = eq(col_b("cust"), add(col_r("cust"), lit(1i64)));
        let (out, stats) = one_scan(&r, &["cust"], None, &theta);
        assert_eq!((stats.base_fused(), stats.base_passes()), (0, 1));
        assert_eq!(out.rows(), two_pass(&r, &["cust"], None, &theta).rows());
        // So does a WHERE that θ does not repeat: a row θ keeps may precede
        // its group's first row that passes the WHERE.
        let pred = eq(col_r("state"), lit("NY"));
        let theta = eq(col_b("cust"), col_r("cust"));
        let (out, stats) = one_scan(&r, &["cust"], Some(pred.clone()), &theta);
        assert_eq!((stats.base_fused(), stats.base_passes()), (0, 1));
        assert_eq!(
            out.rows(),
            two_pass(&r, &["cust"], Some(&pred), &theta).rows()
        );
    }

    /// The work counters two plans are compared on: scans, tuples scanned,
    /// probes, updates and degradations.
    fn work(stats: &ScanStats) -> [u64; 5] {
        [
            stats.scans(),
            stats.tuples_scanned(),
            stats.probes(),
            stats.updates(),
            stats.degradations(),
        ]
    }

    /// The two-pass plan's work plus that of a scan of `rows` rows that
    /// built `B` and stopped answering after `probes` probes and `updates`
    /// updates.
    fn with_stopped_scan(two_pass: &ScanStats, rows: usize, probes: u64, updates: u64) -> [u64; 5] {
        let [scans, tuples, p, u, degradations] = work(two_pass);
        [
            scans + 1,
            tuples + rows as u64,
            p + probes,
            u + updates,
            degradations,
        ]
    }

    #[test]
    fn a_float_key_in_an_int_column_stops_the_answering_scan() {
        // A trusted relation whose `Int` column holds `1.0` next to `1`: two
        // groups, and each probe key matches both. Only building `B` first
        // gives every row to both. A lone key is looked up by value, a wider
        // one through the coded index.
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("v", DataType::Int),
        ]);
        let rows = [
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.0),
            Value::Int(1),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| Row::from_values(vec![k, Value::str("a"), Value::Int(i as i64)]))
        .collect();
        let r = Relation::from_rows(schema, rows);
        let l = [AggSpec::on_column("sum", "v")];
        for dims in [&["k"][..], &["k", "s"]] {
            let theta = and_all(dims.iter().map(|d| eq(col_b(*d), col_r(*d))));
            let b = basevalues::build(&r, dims, Sets::GroupBy).unwrap();
            let want = MdJoin::new(&b, &r)
                .theta(theta.clone())
                .aggs(&l)
                .strategy(ExecStrategy::Serial)
                .run(&ExecContext::new())
                .unwrap();
            // Group `1.0` sums rows 0, 2 and 3: its own and `1`'s.
            assert_eq!(want.rows()[2][dims.len()], Value::Int(5));
            // The scan answers until the slice that holds `1.0`, then only
            // collects keys: its `B` is the two-pass plan's, and the join
            // runs over it. The scan, and the probes and updates of the
            // slice it answered (two rows at morsel 2), come on top of the
            // two-pass plan's work.
            for (morsel, answered) in [(4, 0), (2, 2)] {
                let run = |fused: bool| {
                    let stats = Arc::new(ScanStats::new());
                    let ctx = ExecContext::new()
                        .with_morsel_size(morsel)
                        .with_stats(stats.clone());
                    let join = match fused {
                        true => MdJoin::group_by(DetailSource::Resident(&r), dims, None),
                        false => MdJoin::new(&b, &r),
                    };
                    let out = join
                        .theta(theta.clone())
                        .aggs(&l)
                        .strategy(ExecStrategy::Vectorized)
                        .run(&ctx)
                        .unwrap();
                    (out, stats)
                };
                let ((out, stats), (_, two_pass)) = (run(true), run(false));
                let label = format!("{dims:?} at morsel {morsel}");
                assert_eq!(out.rows(), want.rows(), "{label}");
                assert_eq!((stats.base_fused(), stats.base_passes()), (0, 1));
                let expect = with_stopped_scan(&two_pass, r.len(), answered, answered);
                assert_eq!(work(&stats), expect, "{label}");
            }
        }
    }

    #[test]
    fn a_budget_breach_degrades_over_the_base_its_scan_built() {
        use crate::governor::{index_bytes, index_key_bytes, state_bytes};
        // Rows 0–31 all fall in group 0; rows 32–47 bring sixteen new groups.
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
        let skewed = Relation::from_rows(
            schema,
            (0..48i64)
                .map(|i| {
                    Row::from_values(vec![Value::Int((i - 31).max(0)), Value::Float(i as f64)])
                })
                .collect(),
        );
        let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let group = state_bytes(1, l.len()) + index_bytes(1) + index_key_bytes(1, 1);
        // `sales()` meets all eight of its groups in its first slice, so the
        // breach stops the scan before any probe; `skewed` answers two slices
        // (32 probes, 64 updates) first.
        for (r, l, budget, answered) in [
            (sales(), aggs(), 1500, [0, 0]),
            (skewed.clone(), l.to_vec(), 3 * group, [32, 64]),
        ] {
            let theta = eq(col_b("cust"), col_r("cust"));
            let b = basevalues::build(&r, &["cust"], Sets::GroupBy).unwrap();
            let run = |fused: bool| {
                let stats = Arc::new(ScanStats::new());
                let ctx = ExecContext::new()
                    .with_morsel_size(16)
                    .with_stats(stats.clone());
                let join = match fused {
                    true => MdJoin::group_by(DetailSource::Resident(&r), &["cust"], None),
                    false => MdJoin::new(&b, &r),
                };
                let out = join
                    .theta(theta.clone())
                    .aggs(&l)
                    .strategy(ExecStrategy::Vectorized)
                    .budget_bytes(budget)
                    .run(&ctx)
                    .unwrap();
                (out, stats)
            };
            let ((out, stats), (want, two_pass)) = (run(true), run(false));
            assert_eq!(out.rows(), want.rows());
            assert_eq!((stats.base_fused(), stats.base_passes()), (0, 1));
            assert!(two_pass.degradations() >= 1);
            // The degraded plan's work over `B`, plus the one scan that
            // built `B` and what it did before the breach.
            let expect = with_stopped_scan(&two_pass, r.len(), answered[0], answered[1]);
            assert_eq!(work(&stats), expect);
        }
        // Over a page store that scan is the only read of the pages beyond
        // the degraded plan's: a one-page pool misses on every fetch, so the
        // pages read count the passes.
        let dir = std::env::temp_dir().join(format!("mdj-core-grouped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _) = PagedStore::open(&dir).unwrap();
        let table = store.create_table("skewed", &skewed, "cust", 256).unwrap();
        let scan = PagedScan::new(table.clone(), BufferPool::new(256));
        let b = basevalues::build(&skewed, &["cust"], Sets::GroupBy).unwrap();
        let run = |join: MdJoin| {
            let stats = Arc::new(ScanStats::new());
            let out = join
                .theta(eq(col_b("cust"), col_r("cust")))
                .aggs(&l)
                .strategy(ExecStrategy::Vectorized)
                .budget_bytes(3 * group)
                .run(&ExecContext::new().with_stats(stats.clone()))
                .unwrap();
            (out, stats)
        };
        let (out, stats) = run(MdJoin::group_by(
            DetailSource::Paged(&scan),
            &["cust"],
            None,
        ));
        let (want, two_pass) = run(MdJoin::paged(&b, &scan));
        assert_eq!(out.rows(), want.rows());
        assert!(two_pass.degradations() >= 1);
        assert_eq!(
            (stats.scans(), stats.pages_read()),
            (
                two_pass.scans() + 1,
                two_pass.pages_read() + table.page_count() as u64
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(k Int, st Str, sale Float)` in chunks of four rows whose `st`
    /// values come in a different order in each chunk, so each chunk's
    /// string dictionary numbers them differently.
    fn shuffled_dictionaries() -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("st", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let names = ["NY", "NJ", "CT"];
        Relation::from_rows(
            schema,
            (0..24i64)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 2),
                        Value::str(names[(i + i / 4) as usize % 3]),
                        Value::Float(if i == 5 { -0.0 } else { i as f64 * 0.3 - 2.0 }),
                    ])
                })
                .collect(),
        )
    }

    /// `c0`–`c4`, Int and Str by turns with NULLs in three of them, and a
    /// `sale` Float.
    fn five_key_columns(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("c0", DataType::Int),
            ("c1", DataType::Str),
            ("c2", DataType::Int),
            ("c3", DataType::Str),
            ("c4", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let names = ["NY", "NJ", "CT", "CA"];
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 3),
                        match i % 11 {
                            0 => Value::Null,
                            _ => Value::str(["x", "y"][i as usize % 2]),
                        },
                        Value::Int(i % 5 - 2),
                        match i % 19 {
                            0 => Value::Null,
                            _ => Value::str(names[(i + i / 7) as usize % 4]),
                        },
                        match i % 13 {
                            0 => Value::Null,
                            _ => Value::Int(i % 2),
                        },
                        Value::Float(i as f64 * 0.1),
                    ])
                })
                .collect(),
        )
    }

    /// The scan that builds `B` answers as the plan that builds it first
    /// does: rows in first-seen order, float bits, probes and updates.
    fn assert_agrees(r: &Relation, dims: &[&str], morsel: usize) {
        let theta = and_all(dims.iter().map(|d| eq(col_b(*d), col_r(*d))));
        let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
        let b = basevalues::build(r, dims, Sets::GroupBy).unwrap();
        let run = |fused: bool| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new()
                .with_morsel_size(morsel)
                .with_stats(stats.clone());
            let join = match fused {
                true => MdJoin::group_by(DetailSource::Resident(r), dims, None),
                false => MdJoin::new(&b, r),
            };
            let out = join
                .theta(theta.clone())
                .aggs(&l)
                .strategy(ExecStrategy::Vectorized)
                .run(&ctx)
                .unwrap();
            (out, stats)
        };
        let ((got, stats), (want, two_pass)) = (run(true), run(false));
        let label = format!("{dims:?} over {} rows at morsel {morsel}", r.len());
        assert_eq!(got.rows(), want.rows(), "{label}");
        assert_eq!(
            (stats.probes(), stats.updates()),
            (two_pass.probes(), two_pass.updates()),
            "{label}"
        );
        assert_eq!((stats.base_fused(), stats.base_passes()), (1, 0), "{label}");
    }

    #[test]
    fn coded_keys_answer_as_building_the_base_first() {
        // Chunk dictionaries that number the same strings differently.
        let r = shuffled_dictionaries();
        for dims in [&["st"][..], &["k", "st"], &["st", "k"]] {
            for morsel in [1, 4, 7, 4096] {
                assert_agrees(&r, dims, morsel);
            }
        }
        // NULL key components, in the typed chunks and in the row path.
        let r = sales();
        for dims in [&["state"][..], &["cust", "state"], &["state", "cust"]] {
            for morsel in [1, 7, 16, 4096] {
                assert_agrees(&r, dims, morsel);
            }
        }
        // Five key columns.
        let r = five_key_columns(400);
        for morsel in [7, 64, 4096] {
            assert_agrees(&r, &["c0", "c1", "c2", "c3", "c4"], morsel);
            assert_agrees(&r, &["c4", "c3", "c2", "c1", "c0"], morsel);
        }
        // Chunks where almost every key repeats one met before.
        let r = five_key_columns(10_000);
        assert_agrees(&r, &["c0", "c1"], 4096);
        assert_agrees(&r, &["c0", "c2", "c4"], 4096);
    }
}
