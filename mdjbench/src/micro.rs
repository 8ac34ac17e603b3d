//! Layer micro-benchmarks: each layer's public hot functions timed alone on
//! the workload's own `Sales` table, so a change to one layer shows in that
//! layer's number before it shows end to end.
//!
//! Every measurement runs once per round; rounds repeat until the time
//! budget is used and each metric reports the median of its rounds.

use crate::harness::Scratch;
use crate::sys::median;
use crate::workload::{ingest_batch, SplitMix, Workload, CUBOIDS};
use crate::Metric;
use mdj_agg::{AggSpec, KernelKind};
use mdj_core::basevalues::{cuboid_theta, group_by};
use mdj_core::{
    CuboidCache, CuboidRequest, EngineConfig, ExecContext, ExecStrategy, MdJoin, QueryCtx,
};
use mdj_expr::builder::{and, col_b, col_r, eq, gt, lit, lt};
use mdj_expr::vectorized::{bind_base, collect_detail_cols, eval_batch};
use mdj_expr::Expr;
use mdj_sql::SqlEngine;
use mdj_storage::{
    BufferPool, ColumnarChunk, DataType, PagedStore, Relation, Row, ScanStats, Schema, Value,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rounds run even when the time budget is already spent.
const MIN_ROUNDS: usize = 3;
/// Rows per columnar chunk, as the vectorized executor cuts them.
const CHUNK: usize = mdj_core::DEFAULT_MORSEL_SIZE;
/// Pages sampled per round by the page-level measurements.
const PAGE_SAMPLES: usize = 128;
/// Page size of the side store on workloads that have no store of their own.
const DEFAULT_PAGE_BYTES: u64 = 4096;

/// Named samples, one per round.
#[derive(Default)]
struct Rounds(BTreeMap<&'static str, (Vec<f64>, &'static str)>);

impl Rounds {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .entry(name)
            .or_insert((Vec::new(), unit))
            .0
            .push(value);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Payload bytes of a row: 8 per number, the length of a string.
fn payload_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .flat_map(|r| r.values())
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            _ => 8,
        })
        .sum()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The two grouping-variable θs the expression layer is timed on: `gv1`'s
/// (`Z.cust = cust and Z.sale > ?`) and Example 2.5's dependent one.
fn thetas(sales: &Relation) -> Vec<(mdj_expr::BoundExpr, Vec<Value>)> {
    let gv1_base = Schema::from_pairs(&[("cust", DataType::Int)]);
    let gv1 = and(
        eq(col_r("cust"), col_b("cust")),
        gt(col_r("sale"), lit(900.0)),
    );
    let ex25_base = Schema::from_pairs(&[
        ("prod", DataType::Int),
        ("month", DataType::Int),
        ("avg_X_sale", DataType::Float),
        ("avg_Y_sale", DataType::Float),
    ]);
    let ex25 = and(
        and(
            eq(col_r("prod"), col_b("prod")),
            eq(col_r("month"), col_b("month")),
        ),
        and(
            gt(col_r("sale"), col_b("avg_X_sale")),
            lt(col_r("sale"), col_b("avg_Y_sale")),
        ),
    );
    let bind = |e: Expr, b: &Schema| {
        e.bind(Some(b), Some(sales.schema()))
            .expect("micro-benchmark θ binds")
    };
    vec![
        (bind(gv1, &gv1_base), vec![Value::Int(7)]),
        (
            bind(ex25, &ex25_base),
            vec![
                Value::Int(7),
                Value::Int(6),
                Value::Float(400.0),
                Value::Float(600.0),
            ],
        ),
    ]
}

/// Run the micro-benchmarks for about `budget_s` seconds (at least
/// [`MIN_ROUNDS`] rounds) and return one metric per name.
pub fn run(w: &Workload, sales: &Relation, budget_s: f64) -> Vec<Metric> {
    let started = Instant::now();
    let n = sales.len().max(1) as f64;
    let mut rounds = Rounds::default();

    // core: the workload's dominant (B, R, l, θ) under forced strategies.
    let aggs = [
        AggSpec::on_column("sum", "sale"),
        AggSpec::on_column("avg", "sale"),
        AggSpec::count_star(),
    ];
    let base = group_by(sales, w.dominant_dims).expect("dominant dims exist");
    let theta = cuboid_theta(w.dominant_dims);

    // core::cache: one resident cuboid, and an engine whose cache holds the
    // canonical cuboids so that ingest has entries to maintain.
    let detail = Arc::new(sales.clone());
    let request = CuboidRequest::new(
        "Sales",
        w.dominant_dims.iter().map(|d| d.to_string()).collect(),
        aggs.to_vec(),
    );
    let cache = CuboidCache::new(64 << 20);
    let serial = MdJoin::new(&base, sales)
        .aggs(&aggs)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(&ExecContext::new())
        .expect("serial MD-join");
    cache.insert(&request, &detail, Arc::new(serial));
    let cached_engine = EngineConfig::new()
        .register_table("Sales", sales.clone())
        .with_cuboid_cache(64 << 20)
        .build();
    let warm = SqlEngine::with_context(
        cached_engine.catalog().clone(),
        ExecContext::from_parts(cached_engine.clone(), QueryCtx::new()),
    );
    for s in &CUBOIDS {
        // The unoptimized plan is the canonical MD-join the cache recognizes.
        warm.query_unoptimized(s.sql).expect("canonical cuboid");
    }
    let resident = cached_engine
        .cuboid_cache()
        .expect("cache was configured above");
    let batch = ingest_batch(&mut SplitMix::new(0));

    // expr, agg: a float column and the θs.
    let thetas = thetas(sales);
    let sale_col = sales.col("sale").expect("Sales has a sale column");
    let sale: Vec<f64> = sales
        .iter()
        .map(|r| r[sale_col].as_float().unwrap_or(0.0))
        .collect();
    let no_nulls = vec![false; CHUNK];
    let selection: Vec<u32> = (0..CHUNK as u32).collect();

    // storage: a side store clustered like mdjd's.
    let scratch = Scratch::new("micro");
    let store_dir = scratch.path().join("store");
    let page_bytes = w.paged.map_or(DEFAULT_PAGE_BYTES, |p| p.page_bytes);
    let (mut store, _) = PagedStore::open(&store_dir).expect("open side store");
    store
        .create_table("Sales", sales, "month", page_bytes)
        .expect("create side table");
    let space_amp = dir_bytes(&store_dir) as f64 / payload_bytes(sales.rows()).max(1) as f64;

    let cube_dims: Vec<&str> = w.cube_dims.to_vec();
    let cube_spec = mdj_cube::CubeSpec::new(&cube_dims, vec![AggSpec::on_column("sum", "sale")]);
    let cube_masks = mdj_cube::sets::shape_masks(cube_dims.len(), &mdj_cube::sets::SetShape::Cube);

    let mut written_per_user_byte = 0.0;
    let mut round = 0;
    loop {
        // ---- core ----
        let mut per_tuple = BTreeMap::new();
        for (name, strategy, threads) in [
            ("core.serial_ns_per_tuple", ExecStrategy::Serial, 1),
            ("core.vectorized_ns_per_tuple", ExecStrategy::Vectorized, 1),
            ("core.morsel_t1_ns_per_tuple", ExecStrategy::Morsel, 1),
            ("core.morsel_t2_ns_per_tuple", ExecStrategy::Morsel, 2),
        ] {
            let start = Instant::now();
            let out = MdJoin::new(&base, sales)
                .aggs(&aggs)
                .theta(theta.clone())
                .strategy(strategy)
                .threads(threads)
                .run(&ExecContext::new().with_stats(Arc::new(ScanStats::new())))
                .expect("forced-strategy MD-join");
            let ns = start.elapsed().as_secs_f64() * 1e9 / n;
            black_box(out);
            per_tuple.insert(name, ns);
            rounds.push(name, ns, "ns");
        }
        rounds.push(
            "core.parallel_speedup_t2",
            per_tuple["core.morsel_t1_ns_per_tuple"] / per_tuple["core.morsel_t2_ns_per_tuple"],
            "x",
        );

        let start = Instant::now();
        black_box(
            cache
                .lookup(&request, &detail, &ExecContext::new())
                .expect("cache lookup"),
        );
        rounds.push("core.cache_lookup_us", ms_since(start) * 1e3, "us");

        // `EngineConfig::ingest` is these two calls back to back.
        let start = Instant::now();
        let outcome = cached_engine
            .catalog()
            .ingest("Sales", batch.clone())
            .expect("catalog ingest");
        rounds.push("storage.catalog_ingest_ms_per_batch", ms_since(start), "ms");
        let start = Instant::now();
        black_box(resident.on_ingest(&outcome, cached_engine.registry()));
        rounds.push("core.cache_maintain_ms_per_batch", ms_since(start), "ms");

        // ---- expr ----
        let (mut scalar_ns, mut batch_ns) = (0.0, 0.0);
        for (bound, b_row) in &thetas {
            let start = Instant::now();
            let mut hits = 0u64;
            for row in sales.iter() {
                hits += u64::from(bound.eval_bool(b_row, row.values()).unwrap_or(false));
            }
            black_box(hits);
            scalar_ns += start.elapsed().as_secs_f64() * 1e9;

            let detail_only = bind_base(bound, b_row);
            let mut needed = vec![false; sales.schema().len()];
            collect_detail_cols(&detail_only, &mut needed);
            let chunks: Vec<ColumnarChunk> = (0..sales.len())
                .step_by(CHUNK)
                .map(|at| {
                    ColumnarChunk::from_rows(sales.rows(), at, CHUNK.min(sales.len() - at), &needed)
                })
                .collect();
            let start = Instant::now();
            for chunk in &chunks {
                black_box(eval_batch(&detail_only, chunk));
            }
            batch_ns += start.elapsed().as_secs_f64() * 1e9;
        }
        let evaluated = n * thetas.len() as f64;
        rounds.push("expr.scalar_ns_per_row", scalar_ns / evaluated, "ns");
        rounds.push("expr.batch_ns_per_row", batch_ns / evaluated, "ns");

        // ---- agg ----
        for (name, kind) in [
            ("agg.sum_f64_ns_per_value", KernelKind::Sum),
            ("agg.avg_f64_ns_per_value", KernelKind::Avg),
            ("agg.count_ns_per_value", KernelKind::Count { star: false }),
        ] {
            let mut state = kind.init();
            let start = Instant::now();
            for vals in sale.chunks(CHUNK) {
                state
                    .update_floats(vals, &no_nulls[..vals.len()], &selection[..vals.len()])
                    .expect("kernel update");
            }
            black_box(state.finalize());
            rounds.push(name, start.elapsed().as_secs_f64() * 1e9 / n, "ns");
        }

        // ---- cube ----
        let ctx = ExecContext::new();
        let start = Instant::now();
        black_box(
            mdj_cube::sets::sets_agg(sales, &cube_spec, &cube_masks, &ctx).expect("sets_agg"),
        );
        rounds.push("cube.sets_agg_ms", ms_since(start), "ms");
        let start = Instant::now();
        let cube = mdj_cube::rollup_chain::cube_rollup_chain(sales, &cube_spec, &ctx)
            .expect("rollup chain");
        let chain_ms = ms_since(start);
        rounds.push("cube.rollup_chain_ms", chain_ms, "ms");
        rounds.push(
            "cube.cells_per_s",
            cube.len() as f64 / (chain_ms / 1e3),
            "1/s",
        );

        // ---- storage ----
        let table = store.table("Sales").expect("side table");
        let pages = table.page_count();
        let step = (pages / PAGE_SAMPLES).max(1);
        let sample: Vec<usize> = (0..pages).step_by(step).collect();
        let mut read_us = Vec::new();
        let (mut decoded_bytes, mut decode_s) = (0u64, 0.0);
        let mut chunk_us = Vec::new();
        let all_cols = vec![true; table.schema().len()];
        for &page_no in &sample {
            let start = Instant::now();
            let (rows, bytes) = table.read_page(page_no).expect("read page");
            let took = start.elapsed().as_secs_f64();
            read_us.push(took * 1e6);
            decode_s += took;
            decoded_bytes += bytes;
            let start = Instant::now();
            black_box(ColumnarChunk::from_rows(&rows, 0, rows.len(), &all_cols));
            chunk_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        rounds.push("storage.page_read_us", median(&mut read_us), "us");
        rounds.push(
            "storage.decode_mb_s",
            decoded_bytes as f64 / 1e6 / decode_s,
            "MB/s",
        );
        rounds.push("storage.columnar_chunk_us", median(&mut chunk_us), "us");
        let pool = BufferPool::new(u64::MAX);
        for &page_no in &sample {
            drop(pool.fetch(&table, page_no, None).expect("pool miss"));
        }
        let mut hit_us = Vec::new();
        for &page_no in &sample {
            let start = Instant::now();
            let pin = pool.fetch(&table, page_no, None).expect("pool hit");
            hit_us.push(start.elapsed().as_secs_f64() * 1e6);
            drop(pin);
        }
        rounds.push("storage.pool_hit_us", median(&mut hit_us), "us");

        let before = table.data_len();
        let start = Instant::now();
        store.append("Sales", &batch).expect("durable append");
        rounds.push("storage.append_ms_per_batch", ms_since(start), "ms");
        let manifest = std::fs::metadata(store_dir.join(mdj_storage::pager::MANIFEST_FILE))
            .map_or(0, |m| m.len());
        let table = store.table("Sales").expect("side table");
        if round == 0 {
            // A count, not a timing: taken on the first append only, because
            // the manifest (rewritten whole on every append) grows with each.
            written_per_user_byte =
                (table.data_len() - before + manifest) as f64 / payload_bytes(&batch).max(1) as f64;
        }
        drop(table);
        drop(store);
        let start = Instant::now();
        store = PagedStore::open(&store_dir).expect("reopen side store").0;
        rounds.push("storage.reopen_ms", ms_since(start), "ms");

        round += 1;
        if round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }

    let mut metrics: Vec<Metric> = rounds
        .0
        .into_iter()
        .map(|(name, (mut samples, unit))| Metric::new(name, median(&mut samples), unit))
        .collect();
    metrics.push(Metric::new("storage.space_amp", space_amp, "ratio"));
    metrics.push(Metric::new(
        "storage.bytes_written_per_user_byte",
        written_per_user_byte,
        "ratio",
    ));
    metrics
}
