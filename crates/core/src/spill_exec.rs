//! Spill-degradation executor: Theorem 4.1 partitioning with `R` fed from
//! temporary page tables instead of `m` re-scans.
//!
//! The rescan plan (`core::partitioned`) answers a budget breach by
//! splitting `B` into `m` chunks and scanning the in-memory `R` once per
//! chunk — `m·|R|` tuples touched. When θ carries equality bindings
//! `B.col = f(R-row)` (the same ones the §4.5 hash probe uses), there is a
//! cheaper shape for large `R`: hash-partition *both* sides on the binding
//! key, write each `Rᵢ` to a temporary paged table in one routing pass, and
//! evaluate each `(Bᵢ, Rᵢ)` pair over its table. Correctness is by
//! construction: any `(b-row, t)` pair that satisfies θ satisfies the
//! equality bindings, so both rows hash to the same partition — no
//! cross-partition match can exist. Tuples whose key appears in no `B`
//! partition (or is NULL), or that fail θ's detail-only conjuncts — the
//! Theorem 4.2 prefilter, which holds any σ folded into θ — can match
//! nothing and are dropped during routing. Every written tuple then lies
//! within θ's bounds on the tables' clustered key, so page pruning never
//! skips a written page and every byte written is read back exactly once.
//!
//! Each pass is the serial driver with the query's evaluator (a served one
//! batches, reading pages as columns) over its table through a pool one page
//! large: the in-memory plan's loop over the same rows in the same order, so
//! the output is row- and bit-identical — each partition's rows scattered
//! back to their base rows' positions — while a pass pins one page at a time.
//!
//! Failure model: every partition file is RAII-owned ([`TempTableWriter`]
//! until sealed, [`TempTable`] after), so any error path — a torn page
//! write, a checksum mismatch, a budget breach inside a partition,
//! cancellation — unwinds without leaking a file and without producing
//! partial results. Page writes consult the query's fault injector as the
//! pager's write site, so an injected spill fault surfaces as a typed
//! [`StorageError::PagerIo`](mdj_storage::StorageError::PagerIo) wrapped in
//! [`CoreError::Storage`]; there is deliberately no silent fallback to the
//! rescan plan.

use crate::context::{ExecContext, CANCEL_CHECK_INTERVAL};
use crate::error::{CoreError, Result};
use crate::executor::{self, DetailSource, Driver, Eval, Grid};
use crate::generalized::Block;
use crate::paged::PagedScan;
use crate::probe::{canon_key, split_prefilter};
use mdj_agg::AggSpec;
use mdj_expr::analysis::{conjuncts, probe_bindings};
use mdj_expr::{BoundExpr, Expr};
use mdj_storage::{BufferPool, Counter, Relation, Row, Schema, TempTable, TempTableWriter, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Startup crash-recovery sweep over an engine's spill directory: remove
/// spill files orphaned by a crashed process (see
/// [`mdj_storage::sweep_orphans`]). Resolves the directory the same way the
/// spill executor does — the configured `spill_dir`, falling back to the
/// system temp directory — so a restart cleans up exactly where a crashed
/// predecessor spilled.
pub fn recover_spill_dir(
    engine: &crate::context::EngineConfig,
) -> Result<mdj_storage::SweepReport> {
    let dir = engine
        .spill_dir()
        .cloned()
        .unwrap_or_else(std::env::temp_dir);
    mdj_storage::sweep_orphans(&dir).map_err(CoreError::from)
}

/// Number of hash-partition key columns θ yields over `B`'s schema, or
/// `None` when θ has no usable equality bindings (spilling impossible; the
/// cost model then prices rescan only).
pub(crate) fn partition_key_width(b_schema: &Schema, theta: &Expr) -> Option<usize> {
    let (bindings, _) = probe_bindings(theta);
    if !bindings.is_empty() && bindings.iter().all(|bi| b_schema.contains(&bi.base_col)) {
        Some(bindings.len())
    } else {
        None
    }
}

/// Deterministic bucket assignment shared by both sides: canonicalized key
/// values hashed into `m` buckets.
fn bucket_of(key: &[Value], m: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % m as u64) as usize
}

/// Evaluate `MD(B, R, l, θ)` with both sides hash-partitioned into `m`
/// buckets on θ's equality bindings and each `Rᵢ` spilled to a temporary
/// page table, every pass with `eval`. Row-identical to serial; see above.
pub(crate) fn md_join_spilled(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    m: usize,
    eval: Eval,
    ctx: &ExecContext,
) -> Result<Relation> {
    if m == 0 {
        return Err(CoreError::BadConfig("partition count must be ≥ 1".into()));
    }
    let blocks = [Block::new(theta.clone(), l.to_vec())];
    let resident = |bi: &Relation, r: &Relation| {
        let grid = Grid::new(DetailSource::Resident(r), &blocks, ctx.morsel_size());
        executor::run(bi, &grid, &blocks, &Driver::Serial(eval), ctx)
    };
    // A table needs a column to cluster on.
    if m <= 1 || b.is_empty() || r.schema().is_empty() {
        return resident(b, r);
    }
    let (bindings, _) = probe_bindings(theta);
    if bindings.is_empty() || !bindings.iter().all(|bi| b.schema().contains(&bi.base_col)) {
        return Err(CoreError::BadConfig(format!(
            "spill degradation needs hash-partitionable equality bindings in θ `{theta}`"
        )));
    }
    let key_cols: Vec<usize> = bindings
        .iter()
        .map(|bi| b.schema().index_of(&bi.base_col))
        .collect::<std::result::Result<_, _>>()?;
    let key_exprs: Vec<BoundExpr> = bindings
        .iter()
        .map(|bi| bi.detail_expr.bind(None, Some(r.schema())))
        .collect::<std::result::Result<_, _>>()?;

    // Partition B's row ids by key hash. NULL-keyed base rows match nothing
    // (the probe skips NULL keys) but must still appear in the output with
    // their empty-Rel(t) aggregate values; hashing routes them like any
    // other key, deterministically.
    let mut b_parts: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut key_scratch: Vec<Value> = Vec::with_capacity(key_cols.len());
    for (i, row) in b.iter().enumerate() {
        key_scratch.clear();
        for &c in &key_cols {
            key_scratch.push(canon_key(row[c].clone()));
        }
        b_parts[bucket_of(&key_scratch, m)].push(i);
    }

    // One routing pass over R: stream each tuple into its partition's
    // table, whose clustered key is column 0. Tuples that cannot match (see
    // the module docs) are dropped, so every byte written is read back
    // exactly once.
    let dir = ctx.spill_dir();
    let faults = ctx.pager_faults();
    let prefilter = split_prefilter(conjuncts(theta))
        .0
        .map(|p| p.bind(None, Some(r.schema())))
        .transpose()?;
    let mut writers: Vec<Option<TempTableWriter>> = (0..m).map(|_| None).collect();
    ctx.count(Counter::scans, 1);
    ctx.count(Counter::tuples_scanned, r.len() as u64);
    for (n, t) in r.iter().enumerate() {
        if n % CANCEL_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        if let Some(p) = &prefilter {
            if !p.eval_bool(&[], t.values())? {
                continue;
            }
        }
        key_scratch.clear();
        let mut null_key = false;
        for e in &key_exprs {
            let v = canon_key(e.eval_detail(t.values())?);
            null_key |= v.is_null();
            key_scratch.push(v);
        }
        if null_key {
            continue; // SQL equality with NULL never matches
        }
        let p = bucket_of(&key_scratch, m);
        if b_parts[p].is_empty() {
            continue;
        }
        let w = match &mut writers[p] {
            Some(w) => w,
            None => writers[p].insert(TempTableWriter::create(
                &dir,
                &format!("part{p}of{m}"),
                r.schema().clone(),
                Arc::clone(&faults),
            )?),
        };
        w.push(t.clone())?;
    }

    // Seal the tables. On any error every writer and sealed table drops,
    // unlinking its file before the typed error reaches the caller.
    let mut tables: Vec<Option<TempTable>> = Vec::with_capacity(m);
    for w in writers {
        let table = w.map(TempTableWriter::finish).transpose()?;
        if let Some(t) = &table {
            ctx.count(Counter::spill_partitions, 1);
            ctx.count(Counter::bytes_spilled, t.table().data_len());
        }
        tables.push(table);
    }

    // Evaluate each (Bᵢ, Rᵢ) and scatter its rows back to the base rows'
    // original positions, making the result row-identical to serial.
    let mut out_rows: Vec<Option<Row>> = vec![None; b.len()];
    let mut out_schema: Option<Schema> = None;
    for (p, part) in b_parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        ctx.check_interrupt()?;
        let bi = Relation::from_rows(
            b.schema().clone(),
            part.iter().map(|&i| b.rows()[i].clone()).collect(),
        );
        // A table drops at the end of its pass: its file is unlinked as
        // soon as it has been read, not at the end of the query.
        let piece = match tables[p].take() {
            None => resident(&bi, &Relation::empty(r.schema().clone()))?,
            Some(table) => spilled_pass(&bi, &table, &blocks, eval, ctx)?,
        };
        if out_schema.is_none() {
            out_schema = Some(piece.schema().clone());
        }
        for (j, &orig) in part.iter().enumerate() {
            out_rows[orig] = Some(piece.rows()[j].clone());
        }
    }
    let schema = out_schema
        .ok_or_else(|| CoreError::Internal("non-empty B produced no partitions".into()))?;
    let rows = out_rows
        .into_iter()
        .map(|o| o.ok_or_else(|| CoreError::Internal("base row missing from scatter".into())))
        .collect::<Result<Vec<Row>>>()?;
    Ok(Relation::from_rows(schema, rows))
}

/// One `(Bᵢ, Rᵢ)` pass: the serial driver over the partition's table,
/// through a pool whose budget is the table's largest page — a pass that
/// pinned more would fail with `PoolExhausted`. The pages read back count
/// as `spill_read_bytes` (and, like any fetch, as `pages_read`/`bytes_read`).
fn spilled_pass(
    bi: &Relation,
    temp: &TempTable,
    blocks: &[Block],
    eval: Eval,
    ctx: &ExecContext,
) -> Result<Relation> {
    let table = temp.table();
    let page = table.page_metas().iter().map(|m| u64::from(m.len)).max();
    let scan = PagedScan::new(Arc::clone(table), BufferPool::new(page.unwrap_or(0)));
    let grid = Grid::new(DetailSource::Paged(&scan), blocks, ctx.morsel_size());
    let out = executor::run(bi, &grid, blocks, &Driver::Serial(eval), ctx);
    ctx.count(Counter::spill_read_bytes, scan.pool().bytes_read());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdjoin::md_join_serial;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, ScanStats};

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mdj-spill-exec-{}-{tag}", std::process::id()))
    }

    /// Assert `dir` holds no files, then remove it.
    fn assert_clean(dir: &std::path::Path) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            let leaked: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            assert!(leaked.is_empty(), "leaked spill files: {leaked:?}");
        }
        let _ = std::fs::remove_dir(dir);
    }

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        if i % 13 == 0 {
                            Value::Null // NULL keys must not disturb routing
                        } else {
                            Value::Int(i % 17)
                        },
                        Value::Int(i % 12),
                        Value::Float(i as f64 * 1.5),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn spilled_is_row_identical_to_serial() {
        let s = sales(500);
        let b = s.distinct_on(&["cust"]).unwrap();
        let l = [
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("avg", "sale"),
            AggSpec::count_star(),
        ];
        let theta = eq(col_b("cust"), col_r("cust"));
        let serial = md_join_serial(&b, &s, &l, &theta, &ExecContext::new()).unwrap();
        let dir = spill_dir("identical");
        for m in [2, 3, 7, 16, 64] {
            let work = |eval: Eval| {
                let stats = Arc::new(ScanStats::new());
                let ctx = ExecContext::new()
                    .with_spill_dir(&dir)
                    .with_stats(stats.clone());
                let out = md_join_spilled(&b, &s, &l, &theta, m, eval, &ctx).unwrap();
                assert_eq!(serial.rows(), out.rows(), "m = {m}, {eval:?}");
                stats.snapshot()
            };
            let (scalar, batch) = (work(Eval::Scalar), work(Eval::Batch { degraded: true }));
            assert_eq!(scalar.batches, 0);
            // A batch pass reads its partition's pages as columns.
            assert!(batch.batches > 0, "m = {m}");
            assert_eq!(batch.page_rows_built, 0, "m = {m}");
            assert!(scalar.page_rows_built > 0, "m = {m}");
            let work = |s: &mdj_storage::StatsSnapshot| {
                (
                    s.scans,
                    s.tuples_scanned,
                    s.probes,
                    s.updates,
                    s.spill_read_bytes,
                )
            };
            assert_eq!(work(&scalar), work(&batch), "m = {m}");
        }
        assert_clean(&dir);
    }

    #[test]
    fn computed_key_and_residual_conjuncts_respect_partitioning() {
        // B.month = R.month + 1 with a mixed residual conjunct: matches are
        // still confined to one partition because the equality binding is a
        // conjunct of θ.
        let s = sales(300);
        let b = s.distinct_on(&["month"]).unwrap();
        let l = [AggSpec::on_column("sum", "sale")];
        let theta = and(
            eq(col_b("month"), add(col_r("month"), lit(1i64))),
            gt(col_r("sale"), lit(30.0)),
        );
        let serial = md_join_serial(&b, &s, &l, &theta, &ExecContext::new()).unwrap();
        let dir = spill_dir("computed");
        let ctx = ExecContext::new().with_spill_dir(&dir);
        let out = md_join_spilled(&b, &s, &l, &theta, 5, Eval::Scalar, &ctx).unwrap();
        assert_eq!(serial.rows(), out.rows());
        assert_clean(&dir);
    }

    #[test]
    fn counters_are_conserved_and_tempdir_left_clean() {
        let s = sales(400);
        let b = s.distinct_on(&["cust"]).unwrap();
        let l = [AggSpec::count_star()];
        let theta = eq(col_b("cust"), col_r("cust"));
        let dir = spill_dir("counters");
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_stats(stats.clone())
            .with_spill_dir(&dir);
        md_join_spilled(&b, &s, &l, &theta, 6, Eval::Batch { degraded: true }, &ctx).unwrap();
        let snap = stats.snapshot();
        assert!(snap.spill_partitions >= 1 && snap.spill_partitions <= 6);
        assert!(snap.bytes_spilled > 0);
        // Every spilled byte is read back exactly once.
        assert_eq!(snap.bytes_spilled, snap.spill_read_bytes);
        // One routing scan plus one per evaluated partition.
        assert!(snap.scans >= 2);
        assert_clean(&dir);
    }

    #[test]
    fn empty_detail_and_unmatched_keys_still_produce_all_base_rows() {
        let s = sales(100);
        let b = s.distinct_on(&["cust"]).unwrap();
        let l = [AggSpec::count_star()];
        let theta = eq(col_b("cust"), col_r("cust"));
        let dir = spill_dir("empty");
        let ctx = ExecContext::new().with_spill_dir(&dir);
        // Empty R: every base row still comes back (count 0).
        let empty = Relation::empty(s.schema().clone());
        let batch = Eval::Batch { degraded: true };
        let out = md_join_spilled(&b, &empty, &l, &theta, 4, batch, &ctx).unwrap();
        assert_eq!(out.len(), b.len());
        assert!(out.rows().iter().all(|row| row[1] == Value::Int(0)));
        assert_clean(&dir);
    }

    #[test]
    fn theta_without_bindings_is_rejected() {
        let s = sales(50);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = gt(col_r("sale"), lit(10.0)); // no B-column equality
        let err = md_join_spilled(
            &b,
            &s,
            &[AggSpec::count_star()],
            &theta,
            4,
            Eval::Scalar,
            &ExecContext::new(),
        );
        assert!(matches!(err, Err(CoreError::BadConfig(_))));
        assert_eq!(partition_key_width(b.schema(), &theta), None);
        let good = eq(col_b("cust"), col_r("cust"));
        assert_eq!(partition_key_width(b.schema(), &good), Some(1));
    }

    #[test]
    fn cancellation_unwinds_without_leaking_run_files() {
        use crate::governor::CancelToken;
        let s = sales(2000);
        let b = s.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let dir = spill_dir("cancel");
        let token = CancelToken::new();
        token.cancel();
        let ctx = ExecContext::new()
            .with_spill_dir(&dir)
            .with_cancel_token(token);
        let count = [AggSpec::count_star()];
        let err = md_join_spilled(&b, &s, &count, &theta, 4, Eval::Scalar, &ctx);
        assert!(matches!(err, Err(CoreError::Cancelled)));
        assert_clean(&dir);
    }
}
