//! The traced run: one connection, three fixed cycles of the schedule, spans
//! recorded from the benchmark's own files around calls into each layer's
//! public functions.
//!
//! Nothing inside the server is instrumented, so a request cannot be timed
//! layer by layer while it runs. Instead the same cycle is run five times,
//! each pass entering the system one public boundary deeper:
//!
//! ```text
//! net      TcpStream round trip              (what the client sees)
//! wire     wire::handle_line                 (no socket)
//! service  QueryService::{execute,query}     (no JSON)
//! sql      SqlEngine::{execute_prepared,query}  (no admission, session, row copy)
//! staged   parse | bind | compile | optimize | execute, one span each
//! ```
//!
//! A span's parent is the span of the same op one pass up; a layer's self
//! time is its span minus its child span(s). Passes run back to back per
//! cycle and every pass performs the cycle's ingests, so each sees the same
//! buffer-pool, cache and table state.

use crate::harness::out_dir;
use crate::load::Outcome;
use crate::micro;
use crate::oracle::{head, raw_rows, Verdict};
use crate::prepare::{prepare, Prepared};
use crate::sys::{median, run_record};
use crate::workload::{Op, Workload};
use crate::Metric;
use mdj_algebra::Plan;
use mdj_core::{CancelToken, ExecContext, QueryCtx};
use mdj_server::json::{parse, Json};
use mdj_server::{wire, ExecOptions, ServiceConfig};
use mdj_sql::{PreparedStatement, SqlEngine};
use mdj_storage::{ScanStats, StatsSnapshot, Value};
use std::sync::Arc;
use std::time::Instant;

/// Cycles of the schedule each pass runs.
const CYCLES: usize = 3;
/// Wire codes of requests the server shed (`ServerError::is_shed`).
const SHED_CODES: [&str; 3] = [
    "\"code\":\"pool_exhausted\"",
    "\"code\":\"queue_full\"",
    "\"code\":\"server_busy\"",
];
/// Times the JSON codec is run over one cycle's responses when it is timed.
const JSON_REPS: usize = 10;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Run `f` inside a span; returns its result and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (out, self.spans.len() - 1)
    }

    /// Milliseconds per cycle spent in the spans called `name`: for each
    /// schedule position the median over the cycles, summed over positions.
    /// (Layer self times are differences of these between passes; the median
    /// keeps one disturbed op from dominating a difference of a few percent.)
    fn cycle_ms(&self, name: &str, cycle_len: usize) -> f64 {
        let mut by_position: Vec<Vec<f64>> = vec![Vec::new(); cycle_len];
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_position[s.op_id % cycle_len].push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        by_position.iter_mut().map(|v| median(v)).sum()
    }

    fn write(&self, workload: &str) -> std::io::Result<()> {
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("op_id", Json::Int(s.op_id as i64)),
                    ])
                })
                .collect(),
        );
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{workload}.trace.json")),
            Json::obj(vec![("spans", spans)]).encode(),
        )
    }
}

/// Counters summed over the read ops of the service pass.
#[derive(Default)]
struct Counts {
    reads: u64,
    stats: Vec<StatsSnapshot>,
    parallel_roots: u64,
    pages_total: u64,
    pages_pruned: u64,
    resp_bytes: u64,
    shed: u64,
    failed: u64,
    float_bits: u64,
}

fn sum(stats: &[StatsSnapshot], f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
    stats.iter().map(f).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The context `QueryService::run` builds for one query, minus the
/// pool-backed tracker it gets from admission (private to the service): a
/// plain budget of the same size stands in.
fn query_ctx(p: &Prepared) -> ExecContext {
    let config = ServiceConfig::default();
    let mut qctx = QueryCtx::new()
        .with_stats(Arc::new(ScanStats::new()))
        .with_cancel_token(CancelToken::new())
        .with_budget_bytes(config.default_budget);
    if let Some(d) = config.default_deadline {
        qctx = qctx.with_deadline(d);
    }
    ExecContext::from_parts(p.inst.service.engine().clone(), qctx)
}

/// The share of a paged table's pages that the statement's θ ∧ σ rules out
/// (Theorem 4.2), found the way the executor finds it: the detail input of
/// an MD-join is a paged catalog table, optionally under a detail-side σ.
fn pruning(plan: &Plan, p: &Prepared, counts: &mut Counts) {
    let catalog = p.inst.service.engine().catalog();
    plan.visit(&mut |node| {
        let Plan::MdJoin { detail, theta, .. } = node else {
            return;
        };
        let (table, folded) = match detail.as_ref() {
            Plan::Select { input, pred } if !pred.uses_side(mdj_expr::Side::Base) => (
                input.as_ref(),
                mdj_expr::builder::and(theta.clone(), pred.clone()),
            ),
            other => (other, theta.clone()),
        };
        let Plan::Table(name) = table else { return };
        let Some(paged) = catalog.paged(name) else {
            return;
        };
        let bounds = mdj_core::key_bounds_from_theta(&folded, paged.key_name());
        let admitted = paged.pruned_pages(&bounds).len() as u64;
        let total = paged.page_count() as u64;
        counts.pages_total += total;
        counts.pages_pruned += total - admitted;
    });
}

/// Time `basevalues::*` for every base-table node of an optimized plan
/// (its input is computed off the clock).
fn base_build_ms(plan: &Plan, ctx: &ExecContext, catalog: &mdj_storage::Catalog) -> f64 {
    use mdj_algebra::BaseShape;
    use mdj_core::basevalues;
    let mut total = 0.0;
    plan.visit(&mut |node| {
        let Plan::Base { input, shape } = node else {
            return;
        };
        let Ok(rel) = mdj_algebra::execute(input, catalog, ctx) else {
            return;
        };
        let dims: Vec<&str> = shape.dims().iter().map(String::as_str).collect();
        let start = Instant::now();
        let built = match shape {
            BaseShape::GroupBy(_) => basevalues::group_by(&rel, &dims),
            BaseShape::Cube(_) => basevalues::cube(&rel, &dims),
            BaseShape::Rollup(_) => basevalues::rollup(&rel, &dims),
            BaseShape::Unpivot(_) => basevalues::unpivot(&rel, &dims),
            BaseShape::GroupingSets(_, sets) => {
                let sets: Vec<Vec<&str>> = sets
                    .iter()
                    .map(|s| s.iter().map(String::as_str).collect())
                    .collect();
                basevalues::grouping_sets(&rel, &dims, &sets)
            }
        };
        total += start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(built.is_ok());
    });
    total
}

/// The staged pass for one read op: each stage `SqlEngine` runs, in its own
/// span. Returns the optimized plan, or `None` for an `ANALYZE BY` statement
/// (which skips the optimizer for the cube fast path).
fn staged_op(
    tracer: &mut Tracer,
    parent: Option<usize>,
    op_id: usize,
    prepared: Option<(&PreparedStatement, &[Value])>,
    sql: &str,
    ctx: &ExecContext,
) -> Result<Option<Plan>, String> {
    let catalog = ctx.engine().catalog().clone();
    let query = match prepared {
        Some((stmt, params)) => tracer.span("sql.bind", parent, op_id, || stmt.bind(params)),
        None => tracer.span("sql.parse", parent, op_id, || mdj_sql::parser::parse(sql)),
    }
    .0
    .map_err(|e| e.to_string())?;
    let compiled = tracer
        .span("sql.compile", parent, op_id, || {
            mdj_sql::compile::compile(&query, &catalog, ctx.registry())
        })
        .0
        .map_err(|e| e.to_string())?;
    if let Some(fast) = &compiled.fast_cube {
        // As `SqlEngine::run_query` takes it: source scan, then the roll-up
        // chain (or per-cuboid sets when an aggregate cannot roll up).
        return tracer
            .span("algebra.execute", parent, op_id, || {
                let source =
                    mdj_algebra::execute(&fast.source, &catalog, ctx).map_err(|e| e.to_string())?;
                let dims: Vec<&str> = fast.dims.iter().map(String::as_str).collect();
                let spec = mdj_cube::CubeSpec::new(&dims, fast.aggs.clone());
                if fast.shape == mdj_cube::sets::SetShape::Cube
                    && mdj_agg::rollup::is_rollupable(&fast.aggs, ctx.registry())
                {
                    mdj_cube::rollup_chain::cube_rollup_chain(&source, &spec, ctx)
                } else {
                    let masks = mdj_cube::sets::shape_masks(dims.len(), &fast.shape);
                    mdj_cube::sets::sets_agg(&source, &spec, &masks, ctx)
                }
                .map_err(|e| e.to_string())
            })
            .0
            .map(|_| None);
    }
    let plan = tracer
        .span("algebra.optimize", parent, op_id, || {
            mdj_algebra::optimize(compiled.plan.clone(), &catalog, ctx.registry())
        })
        .0
        .map_err(|e| e.to_string())?;
    tracer
        .span("algebra.execute", parent, op_id, || {
            mdj_algebra::execute(&plan, &catalog, ctx)
        })
        .0
        .map_err(|e| e.to_string())?;
    Ok(Some(plan))
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut p = prepare(w, seed, 1);
    let read_only = w.ingest_every.is_none();
    let mut client = p.clients.remove(0);
    let lines: Vec<String> = p.ops.iter().map(|op| client.request(w, op)).collect();
    let statements: Vec<PreparedStatement> = w
        .statements
        .iter()
        .map(|s| PreparedStatement::parse(s.sql).expect("workload SQL parses"))
        .collect();
    let session = client.session as u64;
    let n_ops = p.ops.len();
    let mut resp = String::new();
    let mut counts = Counts::default();

    // Untraced reference pass: same connection, same cycles, no spans. It
    // also carries the server into the cycle's periodic state.
    let mut untraced_s = 0.0;
    for _ in 0..CYCLES {
        for line in &lines {
            untraced_s += client.call(line, &mut resp).as_secs_f64();
        }
    }

    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut traced_s = 0.0;
    let mut ingest_ms: Vec<f64> = Vec::new();
    let mut sample_responses: Vec<String> = Vec::new();
    let mut base_ms = 0.0;
    let pool = p.inst.service.engine().buffer_pool();
    let mut pool_hits = 0u64;
    let mut pool_misses = 0u64;

    for cycle in 0..CYCLES {
        let op_id = |i: usize| cycle * n_ops + i;
        let mut parents: Vec<Option<usize>> = vec![None; n_ops];

        // Pass 1: the real socket. Only the call and its span are on the
        // pass clock; judging the response is not.
        for (i, line) in lines.iter().enumerate() {
            let name = if p.entry_of[i].is_some() {
                "net.roundtrip"
            } else {
                "net.ingest"
            };
            let on_clock = Instant::now();
            let (_, id) = tracer.span(name, None, op_id(i), || client.call(line, &mut resp));
            traced_s += on_clock.elapsed().as_secs_f64();
            parents[i] = Some(id);
            let span = &tracer.spans[id];
            let front = head(&resp);
            let ok = front.contains("\"ok\":true");
            if !ok {
                counts.failed += 1;
                counts.shed += u64::from(SHED_CODES.iter().any(|c| front.contains(c)));
                eprintln!("mdjbench: op {i} failed: {front}");
            }
            let Some(e) = p.entry_of[i] else {
                ingest_ms.push((span.end_ns - span.start_ns) as f64 / 1e6);
                continue;
            };
            counts.reads += 1;
            counts.resp_bytes += resp.len() as u64;
            if cycle == 0 {
                sample_responses.push(resp.clone());
            }
            // While the tables grow, answers are only checked for `ok` here
            // and re-verified at the end.
            if ok && read_only && raw_rows(&resp) != Some(p.entries[e].raw_rows.as_str()) {
                match p.entries[e].expected.check(&resp) {
                    Verdict::Exact => {}
                    Verdict::FloatBits => counts.float_bits += 1,
                    Verdict::Wrong(why) => {
                        counts.failed += 1;
                        eprintln!("mdjbench: WRONG RESULT for `{}`: {why}", p.entries[e].sql);
                    }
                }
            }
        }

        // Pass 2: the wire handler, in process.
        for (i, line) in lines.iter().enumerate() {
            let name = if p.entry_of[i].is_some() {
                "server.handle_line"
            } else {
                "server.handle_line.ingest"
            };
            let service = &p.inst.service;
            let (_, id) = tracer.span(name, parents[i], op_id(i), || {
                wire::handle_line(service, line)
            });
            parents[i] = Some(id);
        }

        // Pass 3: the service.
        let before = pool.as_ref().map(|b| (b.hits(), b.misses()));
        for (i, op) in p.ops.iter().enumerate() {
            let service = &p.inst.service;
            match op {
                Op::Read { stmt, params } => {
                    let sql = w.literal_sql(*stmt, params);
                    let (out, id) = tracer.span("server.service", parents[i], op_id(i), || {
                        if w.prepared {
                            service.execute(
                                session,
                                client.stmts[*stmt] as u64,
                                params,
                                ExecOptions::default(),
                            )
                        } else {
                            service.query(session, &sql, ExecOptions::default())
                        }
                    });
                    parents[i] = Some(id);
                    match out {
                        Ok(o) => counts.stats.push(o.stats),
                        Err(e) => {
                            counts.failed += 1;
                            if e.is_shed() {
                                counts.shed += 1;
                            }
                            eprintln!("mdjbench: service pass failed on `{sql}`: {e}");
                        }
                    }
                }
                Op::Ingest { rows } => {
                    let (out, _) =
                        tracer.span("server.service.ingest", parents[i], op_id(i), || {
                            service.ingest(session, "Sales", rows.clone())
                        });
                    if out.is_err() {
                        counts.failed += 1;
                    }
                }
            }
        }
        if let (Some(b), Some((h, m))) = (&pool, before) {
            pool_hits += b.hits() - h;
            pool_misses += b.misses() - m;
        }

        // Passes 4 and 5: the SQL engine whole, then stage by stage.
        for staged in [false, true] {
            for (i, op) in p.ops.iter().enumerate() {
                let (stmt, params) = match op {
                    Op::Read { stmt, params } => (*stmt, params),
                    Op::Ingest { rows } => {
                        // Keep the table growing as in the passes above.
                        if p.inst
                            .service
                            .ingest(session, "Sales", rows.clone())
                            .is_err()
                        {
                            counts.failed += 1;
                        }
                        continue;
                    }
                };
                let sql = w.literal_sql(stmt, params);
                let ctx = query_ctx(&p);
                let catalog = p.inst.service.engine().catalog().clone();
                if !staged {
                    let engine = SqlEngine::with_context(catalog, ctx);
                    let (out, id) = tracer.span("sql.engine", parents[i], op_id(i), || {
                        if w.prepared {
                            engine.execute_prepared(&statements[stmt], params)
                        } else {
                            engine.query(&sql)
                        }
                    });
                    parents[i] = Some(id);
                    if let Err(e) = out {
                        counts.failed += 1;
                        eprintln!("mdjbench: sql pass failed on `{sql}`: {e}");
                    }
                    continue;
                }
                let prepared = w.prepared.then(|| (&statements[stmt], params.as_slice()));
                let executed = staged_op(&mut tracer, parents[i], op_id(i), prepared, &sql, &ctx);
                if let Ok(Some(plan)) = &executed {
                    if matches!(plan, Plan::Parallel { .. }) {
                        counts.parallel_roots += 1;
                    }
                    pruning(plan, &p, &mut counts);
                    if cycle == 0 {
                        base_ms += base_build_ms(plan, &ctx, &catalog);
                    }
                }
                if let Err(e) = executed {
                    counts.failed += 1;
                    eprintln!("mdjbench: staged pass failed on `{sql}`: {e}");
                }
            }
        }
    }

    // JSON throughput on the first cycle's responses, off the pass clock.
    let json_bytes = JSON_REPS * sample_responses.iter().map(String::len).sum::<usize>();
    let mut parsed: Vec<Json> = Vec::new();
    let parse_start = Instant::now();
    for _ in 0..JSON_REPS {
        parsed = sample_responses
            .iter()
            .filter_map(|r| parse(r).ok())
            .collect();
    }
    let parse_s = parse_start.elapsed().as_secs_f64();
    let encode_start = Instant::now();
    for _ in 0..JSON_REPS {
        std::hint::black_box(parsed.iter().map(|j| j.encode().len()).sum::<usize>());
    }
    let encode_s = encode_start.elapsed().as_secs_f64();

    // Quiesced: final oracle check on ingesting workloads, then tear down.
    p.clients.insert(0, client);
    if !read_only {
        p.reverify(w);
    }
    let checks = p.checks;
    if let Err(e) = tracer.write(w.name) {
        eprintln!("mdjbench: could not write the trace file: {e}");
    }
    let tables = crate::harness::generate(w, seed);
    drop(p.clients);
    let (scratch, clean) = p.inst.shutdown();
    drop(scratch);

    // Per read op: `n` reads were traced in all, `per_cycle` in each cycle.
    let n = counts.reads.max(1) as f64;
    let per_cycle = n / CYCLES as f64;
    let s = &counts.stats;
    let level = |name: &str| tracer.cycle_ms(name, n_ops) / per_cycle;
    let l0 = level("net.roundtrip");
    let l1 = level("server.handle_line");
    let l2 = level("server.service");
    let l3 = level("sql.engine");
    let parse_ms = level("sql.parse");
    let bind_ms = level("sql.bind");
    let compile_ms = level("sql.compile");
    let optimize_ms = level("algebra.optimize");
    let execute_ms = level("algebra.execute");
    let staged_ms = parse_ms + bind_ms + compile_ms + optimize_ms + execute_ms;
    // A pass that enters deeper does strictly less work, so a negative
    // difference is timing noise around a layer that costs next to nothing.
    let gap = |outer: f64, inner: f64| (outer - inner).max(0.0);
    let self_sum = gap(l0, l1) + gap(l1, l2) + gap(l2, l3) + gap(l3, staged_ms) + staged_ms;
    let tuples = sum(s, |x| x.tuples_scanned);

    let mut metrics = vec![
        Metric::new("trace.e2e_ms_per_op", l0, "ms"),
        Metric::new("trace.attributed_ratio", ratio(self_sum, l0), "x"),
        Metric::new("trace.overhead_ratio", ratio(untraced_s, traced_s), "x"),
        Metric::new("server.net_ms_per_op", gap(l0, l1), "ms"),
        Metric::new("server.wire_ms_per_op", gap(l1, l2), "ms"),
        Metric::new("server.service_ms_per_op", gap(l2, l3), "ms"),
        Metric::new(
            "server.json_encode_mb_s",
            ratio(json_bytes as f64 / 1e6, encode_s),
            "MB/s",
        ),
        Metric::new(
            "server.json_parse_mb_s",
            ratio(json_bytes as f64 / 1e6, parse_s),
            "MB/s",
        ),
        Metric::new(
            "server.resp_bytes_per_op",
            counts.resp_bytes as f64 / n,
            "B/op",
        ),
        Metric::new("server.shed_ops", counts.shed as f64, "count"),
        Metric::new("server.ingest_lat_p50_ms", median(&mut ingest_ms), "ms"),
        Metric::new("sql.parse_us_per_op", parse_ms * 1e3, "us"),
        Metric::new("sql.bind_us_per_op", bind_ms * 1e3, "us"),
        Metric::new("sql.compile_us_per_op", compile_ms * 1e3, "us"),
        Metric::new("sql.present_ms_per_op", gap(l3, staged_ms), "ms"),
        Metric::new("algebra.optimize_us_per_op", optimize_ms * 1e3, "us"),
        Metric::new("algebra.execute_ms_per_op", execute_ms, "ms"),
        Metric::new(
            "algebra.parallel_plan_ratio",
            counts.parallel_roots as f64 / n,
            "ratio",
        ),
        Metric::new(
            "core.base_build_ms_per_op",
            base_ms * CYCLES as f64 / n,
            "ms",
        ),
        Metric::new("core.tuples_per_op", tuples / n, "tuples/op"),
        Metric::new(
            "core.probes_per_tuple",
            ratio(sum(s, |x| x.probes), tuples),
            "ratio",
        ),
        Metric::new(
            "core.updates_per_tuple",
            ratio(sum(s, |x| x.updates), tuples),
            "ratio",
        ),
        Metric::new(
            "core.batch_fallback_ratio",
            ratio(sum(s, |x| x.batch_fallbacks), sum(s, |x| x.batches)),
            "ratio",
        ),
        Metric::new("core.degradations", sum(s, |x| x.degradations), "count"),
        Metric::new(
            "core.spill_bytes_per_op",
            sum(s, |x| x.bytes_spilled) / n,
            "B/op",
        ),
        Metric::new(
            "core.float_bit_mismatch_ops",
            (checks.float_bits + counts.float_bits) as f64,
            "ops",
        ),
        Metric::new(
            "core.cache_hit_ratio",
            sum(s, |x| x.cache_hits) / n,
            "ratio",
        ),
        Metric::new(
            "core.cache_rollup_ratio",
            sum(s, |x| x.cache_rollup_hits) / n,
            "ratio",
        ),
        Metric::new(
            "storage.pool_hit_ratio",
            ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
            "ratio",
        ),
        Metric::new(
            "storage.pages_read_per_op",
            sum(s, |x| x.pages_read) / n,
            "pages/op",
        ),
        Metric::new(
            "storage.bytes_read_per_op",
            sum(s, |x| x.bytes_read) / n,
            "B/op",
        ),
        Metric::new(
            "storage.evictions_per_op",
            sum(s, |x| x.pool_evictions) / n,
            "1/op",
        ),
        Metric::new(
            "storage.pruned_page_ratio",
            ratio(counts.pages_pruned as f64, counts.pages_total as f64),
            "ratio",
        ),
    ];

    // Layer micro-benchmarks fill what is left of `--seconds`.
    let budget = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    metrics.extend(micro::run(w, &tables.0, budget));

    let attempted = (CYCLES * n_ops * 5) as u64 + checks.attempted + 1;
    let failed = counts.failed + checks.failed + u64::from(!clean);
    if !clean {
        eprintln!("mdjbench: server drain was not clean");
    }
    let record = run_record(
        w,
        seed,
        1,
        seconds,
        vec![
            ("cycles", Json::Int(CYCLES as i64)),
            ("ops_per_cycle", Json::Int(n_ops as i64)),
            ("read_samples", Json::Int(counts.reads as i64)),
            ("spans", Json::Int(tracer.spans.len() as i64)),
            (
                "trace_file",
                Json::Str(
                    out_dir()
                        .join(format!("{}.trace.json", w.name))
                        .display()
                        .to_string(),
                ),
            ),
        ],
    );
    Outcome {
        metrics,
        attempted,
        failed,
        record,
    }
}
