//! `repro` — regenerate every experiment table from DESIGN.md in one run.
//!
//! Prints Markdown tables (wall time, work counters, and the shape check for
//! each experiment) suitable for pasting into EXPERIMENTS.md:
//!
//! ```text
//! cargo run -p mdj-bench --bin repro --release [--quick] [--json <path>] [--only <eN>]
//! cargo run -p mdj-bench --bin repro --release -- --check <new.json> <baseline.json>
//! ```
//!
//! `--only e11` (etc.) runs a single experiment — handy when iterating on
//! one table. `--check` diffs a fresh `--json` baseline against a committed
//! one and exits non-zero if any machine-independent work counter grew —
//! CI's perf-smoke job uses it to fail on counter regressions instead of
//! flaky wall-clock thresholds.
//!
//! With `--json <path>` the run also emits a machine-readable baseline: one
//! entry per experiment with its wall time, plus per-variant entries carrying
//! every row of the `mdj_storage::COUNTERS` table under its table name (E8,
//! E11, E12, E13, E14). `--check` gates the rows the table flags `check`:
//! a baseline gates exactly the counters and entries it carries, every one
//! of them must still be present in the new run, and a disappearing one
//! fails with an explicit missing-counter diff (a vanished gate is itself a
//! regression). `BENCH.json` at the repository root is the committed
//! baseline; CI's perf-smoke job checks a fresh run against it and uploads
//! the fresh file. Both directions go through `mdj_server::json`, so the
//! layout of a baseline (one line, one entry per line, `jq .`) is immaterial.
//!
//! Parallel plans (E5's Theorem 4.1 drivers and Observation 4.1 sites, E7's
//! two Theorem 4.4 sites) run on real threads and report measured wall time
//! at `threads = 1` and `2`; E11c times the typed aggregate kernels alone, so
//! a `--features simd` build can be compared kernel by kernel.

#![forbid(unsafe_code)]

use mdj_agg::{AggSpec, KernelKind, Registry};
use mdj_algebra::rules::{coalesce::detail_scan_count, coalesce_chains};
use mdj_algebra::{execute, Plan};
use mdj_bench::{bench_payments, bench_sales, bench_sales_zipf, tristate_blocks};
use mdj_core::basevalues::{cube, cube_match_theta, cuboid_theta};
use mdj_core::{Block, EngineConfig, ExecContext, ExecStrategy, MdJoin, ProbeStrategy, QueryCtx};
use mdj_cube::naive::{cube_per_cuboid, cube_via_wildcard_theta};
use mdj_cube::partitioned::cube_partitioned;
use mdj_cube::pipesort::{build_pipelines, cube_pipesort, sort_count};
use mdj_cube::rollup_chain::cube_rollup_chain;
use mdj_cube::CubeSpec;
use mdj_expr::builder::*;
use mdj_expr::Expr;
use mdj_server::json::{parse, Json};
use mdj_server::wire::counter_fields;
use mdj_sql::SqlEngine;
use mdj_storage::{
    Catalog, Counter, DataType, Relation, Row, ScanStats, Schema, SortedIndex, Value, COUNTERS,
};
use std::ops::Bound;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serial MD-join through the `MdJoin` builder (every experiment below pins
/// the plan it measures explicitly).
fn md_join(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> mdj_core::Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(ctx)
}

/// The MD-join every served query runs (`ExecStrategy::Vectorized`, the
/// batch evaluator on one thread): E3 and E4 time the served plans. The
/// experiments whose entries carry gated counters keep [`md_join`].
fn md_join_served(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> mdj_core::Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Vectorized)
        .run(ctx)
}

/// Theorem 4.1 partitioned plan through the builder.
fn md_join_partitioned(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    m: usize,
    ctx: &ExecContext,
) -> mdj_core::Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Partitioned { partitions: m })
        .run(ctx)
}

/// Generalized (multi-θ) MD-join through the builder.
fn md_join_multi(
    b: &Relation,
    r: &Relation,
    blocks: &[Block],
    ctx: &ExecContext,
) -> mdj_core::Result<Relation> {
    MdJoin::new(b, r).blocks(blocks.iter().cloned()).run(ctx)
}

/// One `--json` baseline entry: `{"name", "wall_ms"}` plus, where an
/// experiment measures a single variant under a dedicated [`ScanStats`],
/// every counter-table row by name (exact and machine-independent, unlike
/// milliseconds).
fn entry_json(name: &str, wall: Duration, stats: Option<&ScanStats>) -> Json {
    let wall_ms = (wall.as_secs_f64() * 1e6).round() / 1e3;
    let mut fields = vec![
        ("name", Json::Str(name.into())),
        ("wall_ms", Json::Float(wall_ms)),
    ];
    if let Some(s) = stats {
        fields.extend(counter_fields(&s.snapshot(), |_| true));
    }
    Json::obj(fields)
}

static JSON_ENTRIES: std::sync::Mutex<Vec<Json>> = std::sync::Mutex::new(Vec::new());

fn record_entry(name: &str, wall: Duration, stats: Option<&ScanStats>) {
    let entry = entry_json(name, wall, stats);
    JSON_ENTRIES.lock().unwrap().push(entry);
}

/// The baseline document: entries are encoded by [`Json`], laid out one per
/// line so a regenerated `BENCH.json` diffs entry by entry.
fn baseline_text(entries: &[Json], quick: bool) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|e| format!("    {}", e.encode()))
        .collect();
    format!(
        "{{\n  \"tool\": \"repro\",\n  \"quick\": {quick},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// One parsed baseline entry (`--check` mode): the gated counters it
/// carries. Wall time is deliberately not gated: it is machine-dependent.
struct CheckEntry {
    name: String,
    counters: Vec<(Counter, u64)>,
}

/// Parse a `--json` document, however it is laid out. Entries are sparse —
/// each carries whichever gated counters its object has — and entries with
/// none at all (wall-time-only) are skipped.
fn parse_entries(text: &str) -> Result<Vec<CheckEntry>, String> {
    let doc = parse(text)?;
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("no `experiments` array")?;
    let mut out = Vec::new();
    for e in experiments {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("experiment without a string `name`")?;
        let counters: Vec<(Counter, u64)> = COUNTERS
            .iter()
            .filter(|def| def.gated)
            .filter_map(|def| {
                let v = e.get(def.name)?.as_int()?;
                Some((def.counter, u64::try_from(v).ok()?))
            })
            .collect();
        if !counters.is_empty() {
            out.push(CheckEntry {
                name: name.to_string(),
                counters,
            });
        }
    }
    Ok(out)
}

/// Diff two parsed baselines. A baseline may carry *fewer* counters than the
/// new run (it was committed before those counters existed) and it gates
/// only the counters it has; entries that exist only in the new run are new
/// coverage and pass freely. The other direction is a failure, not a skip:
/// an entry or counter the baseline carries but the new run lacks means a
/// gate silently disappeared — exactly the regression `--check` exists to
/// catch — so it is reported with an explicit missing-counter diff. Any
/// shared counter that *grew* is a regression: the counters are exact and
/// deterministic, so more probes/updates/spilled-bytes means the engine is
/// doing more work (or falling back) on a shape it used to cover.
fn compare_entries(new: &[CheckEntry], baseline: &[CheckEntry]) -> Vec<String> {
    let mut regressions = Vec::new();
    for base in baseline {
        let Some(cur) = new.iter().find(|e| e.name == base.name) else {
            regressions.push(format!(
                "{}: entry missing from the new run ({} baseline counters no longer gated)",
                base.name,
                base.counters.len()
            ));
            continue;
        };
        for &(c, base_v) in &base.counters {
            let key = c.def().name;
            match cur.counters.iter().find(|(j, _)| *j == c) {
                None => regressions.push(format!(
                    "{}: {key} missing from the new run (baseline gates it at {base_v})",
                    base.name
                )),
                Some(&(_, cur_v)) if cur_v > base_v => regressions.push(format!(
                    "{}: {key} regressed {base_v} -> {cur_v}",
                    base.name
                )),
                Some(_) => {}
            }
        }
    }
    regressions
}

/// `--check <new.json> <baseline.json>`: exit 0 when no counter regressed,
/// 1 on regression, 2 on usage/IO/parse trouble.
fn run_check(new_path: &str, baseline_path: &str) -> i32 {
    let read = |path: &str| {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_entries(&text));
        if let Err(e) = &parsed {
            eprintln!("repro --check: cannot read {path}: {e}");
        }
        parsed.ok()
    };
    let (Some(new), Some(baseline)) = (read(new_path), read(baseline_path)) else {
        return 2;
    };
    let common = baseline
        .iter()
        .filter(|b| new.iter().any(|n| n.name == b.name))
        .count();
    if common == 0 {
        eprintln!(
            "repro --check: no common counter entries between {new_path} ({} entries) \
             and {baseline_path} ({} entries)",
            new.len(),
            baseline.len()
        );
        return 2;
    }
    let regressions = compare_entries(&new, &baseline);
    if regressions.is_empty() {
        println!("repro --check: {common} entries compared against {baseline_path}, no counter regressions");
        0
    } else {
        for r in &regressions {
            eprintln!("repro --check: REGRESSION {r}");
        }
        1
    }
}

fn time<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    // Warm once, then report the best of three (stable on shared machines).
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
            out = Some(v);
        }
    }
    (best, out.expect("ran at least once"))
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// `before / after` as a speedup cell.
fn speedup(before: Duration, after: Duration) -> String {
    format!(
        "{:.2}×",
        before.as_secs_f64() / after.as_secs_f64().max(1e-12)
    )
}

/// The first `n` rows of `rel`.
fn head(rel: &Relation, n: usize) -> Relation {
    Relation::from_rows(rel.schema().clone(), rel.rows()[..n].to_vec())
}

fn header(title: &str, cols: &[&str]) {
    println!("\n### {title}\n");
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let (Some(new_path), Some(baseline_path)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: repro --check <new.json> <baseline.json>");
            std::process::exit(2);
        };
        std::process::exit(run_check(new_path, baseline_path));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let scale = if quick { 1 } else { 4 };
    println!("# MD-join reproduction — experiment tables");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n(quick = {quick}; sizes scale with the flag — shapes are invariant; \
         available_parallelism = {cores})"
    );
    type Experiment = (&'static str, fn(usize));
    let experiments: [Experiment; 14] = [
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
    ];
    for (name, f) in experiments {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let t0 = Instant::now();
        f(scale);
        record_entry(name, t0.elapsed(), None);
    }
    println!("\nAll experiments completed; every equivalence assertion held.");
    if let Some(path) = json_path {
        let text = baseline_text(&JSON_ENTRIES.lock().unwrap(), quick);
        std::fs::write(&path, text).expect("write --json baseline");
        println!("wrote work-counter baseline to {path}");
    }
}

fn e1(scale: usize) {
    let ctx = ExecContext::new();
    let spec = CubeSpec::new(
        &["prod", "month", "state"],
        vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
    );
    header(
        "E1 — Fig. 1 / Ex. 2.1: cube computation strategies (sum+count over prod×month×state)",
        &[
            "|R|",
            "wildcard-θ (ms)",
            "per-cuboid (ms)",
            "rollup-chain (ms)",
            "pipesort (ms)",
            "partitioned (ms)",
            "cells",
        ],
    );
    for rows in [2_000 * scale, 8_000 * scale] {
        let r = bench_sales(rows, 200);
        let (t_wild, a) = time(|| cube_via_wildcard_theta(&r, &spec, &ctx).unwrap());
        let (t_per, b) = time(|| cube_per_cuboid(&r, &spec, &ctx).unwrap());
        let (t_roll, c) = time(|| cube_rollup_chain(&r, &spec, &ctx).unwrap());
        let (t_pipe, d) = time(|| cube_pipesort(&r, &spec, &ctx).unwrap());
        let (t_part, e) = time(|| cube_partitioned(&r, &spec, 0, &ctx).unwrap());
        assert!(
            a.approx_same_multiset(&b, 1e-9)
                && b.approx_same_multiset(&c, 1e-9)
                && c.approx_same_multiset(&d, 1e-9)
                && d.approx_same_multiset(&e, 1e-9)
        );
        println!(
            "| {rows} | {} | {} | {} | {} | {} | {} |",
            ms(t_wild),
            ms(t_per),
            ms(t_roll),
            ms(t_pipe),
            ms(t_part),
            a.len()
        );
    }
}

fn e2(scale: usize) {
    let registry = Registry::standard();
    header(
        "E2 — Ex. 2.2 / Thm 4.3: tri-state pivot (3 MD-joins coalesced to 1 scan)",
        &[
            "|R|",
            "coalesced 1-scan (ms)",
            "sequential 3-scans (ms)",
            "classical hash (ms)",
            "classical sort-based (ms)",
            "scans coalesced/seq",
        ],
    );
    for rows in [10_000 * scale, 50_000 * scale] {
        let r = bench_sales(rows, rows / 100);
        let b = r.distinct_on(&["cust"]).unwrap();
        let blocks = tristate_blocks();
        let stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(stats.clone());
        let (t_co, out1) = time(|| md_join_multi(&b, &r, &blocks, &sctx).unwrap());
        let coalesced_scans = stats.scans() / 3;
        stats.reset();
        let (t_seq, out2) = time(|| {
            let mut acc = b.clone();
            for blk in &blocks {
                acc = md_join(&acc, &r, &blk.aggs, &blk.theta, &sctx).unwrap();
            }
            acc
        });
        let seq_scans = stats.scans() / 3;
        let (t_cls, out3) = time(|| mdj_naive::plans::example_2_2(&r, &registry).unwrap());
        let (t_sort, out4) =
            time(|| mdj_naive::plans::example_2_2_sort_based(&r, &registry).unwrap());
        assert!(out1.approx_same_multiset(&out2, 1e-9));
        let cols = ["cust", "avg_ny", "avg_nj", "avg_ct"];
        assert!(out1
            .project(&cols)
            .unwrap()
            .approx_same_multiset(&out3.project(&cols).unwrap(), 1e-9));
        assert!(out3.approx_same_multiset(&out4, 1e-9));
        println!(
            "| {rows} | {} | {} | {} | {} | {coalesced_scans}/{seq_scans} |",
            ms(t_co),
            ms(t_seq),
            ms(t_cls),
            ms(t_sort)
        );
    }
}

fn e3(scale: usize) {
    let ctx = ExecContext::new();
    let registry = Registry::standard();
    let dims = ["prod", "month", "state"];
    header(
        "E3 — Ex. 2.3 / 3.2: count above cube-cell average",
        &[
            "|R|",
            "MD unoptimized wildcard-θ (ms)",
            "MD optimized Thm 4.1 + §4.5 (ms)",
            "classical 8×(group-by + join) (ms)",
            "cells",
        ],
    );
    // Under `--quick` (scale 1) the second step is 1 000 rows: the
    // unoptimized arm is a nested loop over |cube(R)|·|R| pairs, quadratic
    // in |R|. Every arm shares the row's |R| so the equivalence assertions
    // compare plans over one relation.
    let big = if scale == 1 { 1_000 } else { 2_000 * scale };
    for rows in [500 * scale, big] {
        let r = bench_sales(rows, 100);
        // Unoptimized: literal Example 3.2 against the merged cube base.
        let (t_raw, raw) = time(|| {
            let b = cube(&r, &dims).unwrap();
            let theta1 = cube_match_theta(&dims);
            let step1 = md_join_served(&b, &r, &[AggSpec::on_column("avg", "sale")], &theta1, &ctx)
                .unwrap();
            let theta2 = and(
                cube_match_theta(&dims),
                gt(col_r("sale"), col_b("avg_sale")),
            );
            md_join_served(
                &step1,
                &r,
                &[AggSpec::count_star().with_alias("cnt")],
                &theta2,
                &ctx,
            )
            .unwrap()
        });
        // Optimized: Theorem 4.1 splits the cube base per cuboid so every
        // MD-join hash-probes (§4.5).
        let (t_md, md) = time(|| e3_optimized(&r, &dims, &ctx));
        let (t_cls, cls) = time(|| mdj_naive::plans::example_2_3(&r, &registry).unwrap());
        let raw_p = raw.project(&["prod", "month", "state", "cnt"]).unwrap();
        assert!(raw_p.approx_same_multiset(&cls, 1e-9));
        assert!(md.approx_same_multiset(&cls, 1e-9));
        println!(
            "| {rows} | {} | {} | {} | {} |",
            ms(t_raw),
            ms(t_md),
            ms(t_cls),
            md.len()
        );
    }
}

/// Example 2.3's optimized plan: per-cuboid MD-join pairs (avg then count),
/// hash-probed, unioned with ALL padding.
fn e3_optimized(r: &Relation, dims: &[&str; 3], ctx: &ExecContext) -> Relation {
    let n = dims.len();
    let mut out: Option<Relation> = None;
    for mask in (0..(1u32 << n)).rev() {
        let kept: Vec<&str> = dims
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, d)| *d)
            .collect();
        let b = r.distinct_on(&kept).unwrap();
        let theta = mdj_core::basevalues::cuboid_theta(&kept);
        let avg = md_join_served(&b, r, &[AggSpec::on_column("avg", "sale")], &theta, ctx).unwrap();
        let theta2 = and(
            mdj_core::basevalues::cuboid_theta(&kept),
            gt(col_r("sale"), col_b("avg_sale")),
        );
        let cnt = md_join_served(
            &avg,
            r,
            &[AggSpec::count_star().with_alias("cnt")],
            &theta2,
            ctx,
        )
        .unwrap();
        // Pad to (prod, month, state, cnt) with ALL for rolled-up dims.
        let mut fields: Vec<mdj_storage::Field> = dims
            .iter()
            .map(|d| mdj_storage::Field::new(*d, mdj_storage::DataType::Any))
            .collect();
        fields.push(mdj_storage::Field::new("cnt", mdj_storage::DataType::Int));
        let mut padded = Relation::empty(mdj_storage::Schema::new(fields));
        let cnt_col = cnt.schema().index_of("cnt").unwrap();
        for row in cnt.iter() {
            let mut vals = Vec::with_capacity(n + 1);
            for d in dims.iter() {
                match kept.iter().position(|k| k == d) {
                    Some(i) => vals.push(row[i].clone()),
                    None => vals.push(Value::All),
                }
            }
            vals.push(row[cnt_col].clone());
            padded.push_unchecked(mdj_storage::Row::new(vals));
        }
        out = Some(match out {
            None => padded,
            Some(acc) => acc.union(&padded).unwrap(),
        });
    }
    out.expect("at least the apex cuboid")
}

fn e4(scale: usize) {
    let ctx = ExecContext::new();
    let registry = Registry::standard();
    header(
        "E4 — §5 / Ex. 2.5: MD-join vs commercial-style multi-block plan",
        &[
            "|R|",
            "MD-join (ms)",
            "multi-block hash (ms)",
            "multi-block sort-based (ms)",
            "speedup vs sort-based",
        ],
    );
    for rows in [10_000 * scale, 40_000 * scale] {
        let r = bench_sales(rows, 200);
        let (t_md, md) = time(|| {
            let r97 = mdj_naive::ops::select(&r, &eq(col_r("year"), lit(1997i64))).unwrap();
            let b = r97.distinct_on(&["prod", "month"]).unwrap();
            let xy = vec![
                Block::new(
                    and(
                        eq(col_r("prod"), col_b("prod")),
                        eq(col_r("month"), sub(col_b("month"), lit(1i64))),
                    ),
                    vec![AggSpec::on_column("avg", "sale").with_alias("avg_x")],
                ),
                Block::new(
                    and(
                        eq(col_r("prod"), col_b("prod")),
                        eq(col_r("month"), add(col_b("month"), lit(1i64))),
                    ),
                    vec![AggSpec::on_column("avg", "sale").with_alias("avg_y")],
                ),
            ];
            let step1 = md_join_multi(&b, &r97, &xy, &ctx).unwrap();
            let theta_z = and_all([
                eq(col_r("prod"), col_b("prod")),
                eq(col_r("month"), col_b("month")),
                gt(col_r("sale"), col_b("avg_x")),
                lt(col_r("sale"), col_b("avg_y")),
            ]);
            md_join_served(
                &step1,
                &r97,
                &[AggSpec::count_star().with_alias("cnt")],
                &theta_z,
                &ctx,
            )
            .unwrap()
        });
        let (t_cls, cls) = time(|| mdj_naive::plans::example_2_5(&r, 1997, &registry).unwrap());
        let (t_sort, srt) =
            time(|| mdj_naive::plans::example_2_5_sort_based(&r, 1997, &registry).unwrap());
        let cols = ["prod", "month", "cnt"];
        assert!(md
            .project(&cols)
            .unwrap()
            .approx_same_multiset(&cls.project(&cols).unwrap(), 1e-9));
        assert!(cls.approx_same_multiset(&srt, 1e-9));
        println!(
            "| {rows} | {} | {} | {} | {:.1}× |",
            ms(t_md),
            ms(t_cls),
            ms(t_sort),
            t_sort.as_secs_f64() / t_md.as_secs_f64().max(1e-12)
        );
    }
}

fn e5(scale: usize) {
    let r = bench_sales(50_000 * scale, 2_000);
    let b = r.distinct_on(&["cust", "month"]).unwrap();
    let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
    let theta = and(
        eq(col_b("cust"), col_r("cust")),
        eq(col_b("month"), col_r("month")),
    );
    header(
        "E5 — Thm 4.1: partitioned evaluation and intra-operator parallelism \
         (parallel plans run on real threads; speedup is the same plan at \
         threads = 1 → 2)",
        &[
            "plan",
            "threads",
            "time (ms)",
            "speedup",
            "scans of R",
            "tuples scanned",
        ],
    );
    // `time` runs each plan three times: counters are reported per run.
    let stats = Arc::new(ScanStats::new());
    let sctx = ExecContext::new().with_stats(stats.clone());
    let row = |label: &str, threads: usize, t: Duration, speedup: &str| {
        println!(
            "| {label} | {threads} | {} | {speedup} | {} | {} |",
            ms(t),
            stats.scans() / 3,
            stats.tuples_scanned() / 3
        );
        stats.reset();
    };
    let (t, base_out) = time(|| md_join(&b, &r, &l, &theta, &sctx).unwrap());
    row("direct (1 scan)", 1, t, "—");
    // Sequential multi-scan evaluation (the in-memory plan of §4.1.1).
    for m in [2usize, 4, 8] {
        let (t, out) = time(|| md_join_partitioned(&b, &r, &l, &theta, m, &sctx).unwrap());
        assert!(base_out.approx_same_multiset(&out, 1e-9));
        row(&format!("partitioned m={m} (sequential)"), 1, t, "—");
    }
    // §4.1.2 parallelism: the static plans are the parallel drivers with one
    // morsel of ⌈n/threads⌉ rows of the split side per thread, so
    // `threads = 1` is the same plan on one core. Both drivers apply updates
    // in scan order, so their rows equal the direct plan's bit for bit.
    for (label, strategy, split_rows) in [
        ("parallel B-partition", ExecStrategy::MorselBase, b.len()),
        ("parallel R-partition", ExecStrategy::MorselDetail, r.len()),
    ] {
        let mut t1 = Duration::ZERO;
        for threads in [1usize, 2] {
            let ctx = sctx.clone().with_morsel_size(split_rows.div_ceil(threads));
            let join = MdJoin::new(&b, &r)
                .aggs(&l)
                .theta(theta.clone())
                .strategy(strategy)
                .threads(threads);
            let (t, out) = time(|| join.run(&ctx).unwrap());
            assert_eq!(base_out.rows(), out.rows(), "E5 {label} ×{threads}");
            if threads == 1 {
                t1 = t;
            }
            row(label, threads, t, &speedup(t1, t));
        }
    }
    // Obs 4.1: range-partition B on month into one site per thread and push
    // each range to R — every site scans only its slice, so even the *total*
    // work stays at |R|. Each site is one scoped thread; the slices are the
    // sites' local data, cut before the clock starts.
    let mut t1 = Duration::ZERO;
    for sites in [1usize, 2] {
        let ranges = mdj_algebra::rules::partition::int_ranges(1, 12, sites);
        let b_parts = mdj_storage::partition::by_ranges(&b, "month", &ranges).unwrap();
        let slices: Vec<Relation> = ranges
            .iter()
            .map(|range| r.filter(|t| range.contains(&t[3])))
            .collect();
        let (t, merged) = time(|| {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = b_parts
                    .iter()
                    .zip(&slices)
                    .map(|(part, slice)| {
                        let sctx = &sctx;
                        let (l, theta) = (&l, &theta);
                        scope.spawn(move |_| md_join(part, slice, l, theta, sctx).unwrap())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .reduce(|a, c| a.union(&c).unwrap())
                    .unwrap()
            })
            .unwrap()
        });
        assert!(base_out.same_multiset(&merged), "E5 Obs 4.1 ×{sites}");
        if sites == 1 {
            t1 = t;
        }
        row(
            "range-partition + Obs 4.1, one site per thread",
            sites,
            t,
            &speedup(t1, t),
        );
    }

    // Static-chunk vs morsel scheduling ablation on Zipf-skewed, clustered
    // data. At 8 workers on a 2-core host wall clock would mostly measure
    // oversubscription, so the table reports each schedule's *makespan* in
    // machine-independent units: the largest per-worker aggregate-update
    // count (the slowest worker gates the join once every worker has a
    // core). The base is every (cust, prod) pair and θ joins on cust alone,
    // so a hot customer's sale tuples each fan out into hundreds of updates —
    // and clustering puts them all in the same static chunk.
    header(
        "E5b — static chunks vs work-stealing morsels under Zipf(1.1) skew \
         (8 workers; makespan = max per-worker updates)",
        &[
            "schedule",
            "makespan (updates)",
            "vs ideal",
            "steals",
            "vs static chunks",
        ],
    );
    let r = bench_sales_zipf(15_000 * scale, 5_000 * scale, 500, 1.1);
    let b = r.distinct_on(&["cust", "prod"]).unwrap();
    let join = MdJoin::new(&b, &r)
        .aggs(&[
            AggSpec::on_column("sum", "sale").with_alias("cust_total"),
            AggSpec::count_star().with_alias("cust_rows"),
        ])
        .theta(eq(col_b("cust"), col_r("cust")));
    let mut static_makespan = 0u64;
    // Both arms are the detail-parallel driver: a static chunk is a morsel of
    // ⌈|R|/threads⌉ rows, one per worker.
    for (label, morsel) in [
        ("static chunks", r.len().div_ceil(8)),
        ("morsels (1024 rows)", 1024),
    ] {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(morsel)
            .with_stats(stats.clone());
        let out = join
            .clone()
            .strategy(ExecStrategy::MorselDetail)
            .threads(8)
            .run(&ctx)
            .unwrap();
        assert_eq!(out.len(), b.len());
        let workers = stats.workers();
        let makespan = workers.iter().map(|w| w.updates).max().unwrap_or(0);
        let total: u64 = workers.iter().map(|w| w.updates).sum();
        let steals: u64 = workers.iter().map(|w| w.steals).sum();
        let ideal = (total / 8).max(1);
        if static_makespan == 0 {
            static_makespan = makespan;
            println!(
                "| {label} | {makespan} | {:.2}× | {steals} | 1.00× |",
                makespan as f64 / ideal as f64
            );
        } else {
            let speedup = static_makespan as f64 / makespan.max(1) as f64;
            println!(
                "| {label} | {makespan} | {:.2}× | {steals} | {speedup:.2}× |",
                makespan as f64 / ideal as f64
            );
            assert!(
                speedup >= 1.3,
                "morsel scheduling should beat static chunks ≥1.3× under skew, got {speedup:.2}×"
            );
        }
    }
}

fn e6(scale: usize) {
    let r = bench_sales(50_000 * scale, 1_000);
    let b = r.distinct_on(&["prod"]).unwrap();
    let l = [AggSpec::on_column("sum", "sale")];
    let index = SortedIndex::build_on(&r, &["year"]).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("Sales", r.clone());
    let sql = SqlEngine::new(catalog);
    header(
        "E6 — Thm 4.2 / Obs 4.1 / Ex. 4.1: selection pushdown to a clustered index",
        &[
            "predicate",
            "no pushdown (ablation, ms)",
            "operator prefilter (ms)",
            "pushed σ materialized (ms)",
            "clustered index (ms)",
            "SQL WHERE, optimized (ms)",
            "tuples full/slice",
        ],
    );
    for (label, lo, hi) in [
        ("year = 1999", 1999i64, 1999i64),
        ("1994 ≤ year ≤ 1996", 1994, 1996),
    ] {
        let theta_full = and_all([
            eq(col_r("prod"), col_b("prod")),
            ge(col_r("year"), lit(lo)),
            le(col_r("year"), lit(hi)),
        ]);
        let theta_res = eq(col_r("prod"), col_b("prod"));
        // Ablation: Theorem 4.2 disabled — the year range is re-checked per
        // candidate base row instead of filtering the scan.
        let no_push = ExecContext::new().without_prefilter();
        let (t_raw, out_raw) = time(|| md_join(&b, &r, &l, &theta_full, &no_push).unwrap());
        // Operator-level Theorem 4.2 (the default): detail-only conjuncts
        // prefilter each scanned tuple.
        let stats = Arc::new(ScanStats::new());
        let sctx = ExecContext::new().with_stats(stats.clone());
        let (t_full, out_full) = time(|| md_join(&b, &r, &l, &theta_full, &sctx).unwrap());
        let full_tuples = stats.tuples_scanned() / 3;
        // Theorem 4.2 as a materialized σ (what a plan-level rewrite does).
        let (t_push, out_push) = time(|| {
            let sigma = mdj_naive::ops::select(
                &r,
                &and(ge(col_r("year"), lit(lo)), le(col_r("year"), lit(hi))),
            )
            .unwrap();
            md_join(&b, &sigma, &l, &theta_res, &ExecContext::new()).unwrap()
        });
        // Example 4.1: the σ served by a clustered index — only the matching
        // run of tuples is even read.
        let mut slice_tuples = 0u64;
        let (t_idx, out_idx) = time(|| {
            let ids = index.range_first(
                Bound::Included(&Value::Int(lo)),
                Bound::Included(&Value::Int(hi)),
            );
            slice_tuples = ids.len() as u64;
            let slice = Relation::from_rows(
                r.schema().clone(),
                ids.iter().map(|&i| r.rows()[i].clone()).collect(),
            );
            md_join(&b, &slice, &l, &theta_res, &ExecContext::new()).unwrap()
        });
        // The same predicate as a SQL WHERE through the optimizer: it folds
        // into θ, so it runs as the batch evaluator's prefilter, never as a
        // copied σ (every product sells in every year, so the base built
        // over σ holds the same products as `b`).
        let (t_sql, out_sql) = time(|| {
            sql.query(&format!(
                "select prod, sum(sale) from Sales where year >= {lo} and year <= {hi} group by prod"
            ))
            .unwrap()
        });
        assert!(out_raw.approx_same_multiset(&out_full, 1e-9));
        assert!(out_full.approx_same_multiset(&out_push, 1e-9));
        assert!(out_push.approx_same_multiset(&out_idx, 1e-9));
        assert!(out_full.approx_same_multiset(&out_sql, 1e-9));
        println!(
            "| {label} | {} | {} | {} | {} | {} | {full_tuples}/{slice_tuples} |",
            ms(t_raw),
            ms(t_full),
            ms(t_push),
            ms(t_idx),
            ms(t_sql)
        );
    }
}

fn e7(scale: usize) {
    let ctx = ExecContext::new();
    let sales = bench_sales(40_000 * scale, 1_000);
    let payments = bench_payments(40_000 * scale, 1_000);
    let b = sales.distinct_on(&["cust", "month"]).unwrap();
    let theta = and(
        eq(col_r("cust"), col_b("cust")),
        eq(col_r("month"), col_b("month")),
    );
    let l_sales = [AggSpec::on_column("sum", "sale")];
    let l_pay = [AggSpec::on_column("sum", "amount")];
    let join_on_b = |left: &Relation, right: &Relation| {
        let joined =
            mdj_naive::join::hash_join(left, right, &["cust", "month"], &["cust", "month"])
                .unwrap();
        let idx: Vec<usize> = (0..left.schema().len())
            .chain([left.schema().len() + 2])
            .collect();
        let schema = joined.schema().project(&idx);
        let rows = joined
            .iter()
            .map(|row| mdj_storage::Row::new(row.key(&idx)))
            .collect();
        Relation::from_rows(schema, rows)
    };
    header(
        "E7 — Thm 4.4 / Ex. 3.3: split into equijoin of MD-joins (multi-fact)",
        &["plan", "threads", "time (ms)"],
    );
    let (t_seq, seq) = time(|| {
        let s1 = md_join(&b, &sales, &l_sales, &theta, &ctx).unwrap();
        md_join(&s1, &payments, &l_pay, &theta, &ctx).unwrap()
    });
    println!("| sequential chain | 1 | {} |", ms(t_seq));
    let (t_split, split) = time(|| {
        let left = md_join(&b, &sales, &l_sales, &theta, &ctx).unwrap();
        let right = md_join(&b, &payments, &l_pay, &theta, &ctx).unwrap();
        join_on_b(&left, &right)
    });
    assert!(seq.approx_same_multiset(&split, 1e-9));
    println!("| split + equijoin (serial) | 1 | {} |", ms(t_split));
    // Two sites: each local MD-join runs on its own scoped thread, then the
    // two small results are equijoined on B's key.
    let (t_par, par) = time(|| {
        let (left, right) = crossbeam::thread::scope(|scope| {
            let left = scope.spawn(|_| md_join(&b, &sales, &l_sales, &theta, &ctx).unwrap());
            let right = scope.spawn(|_| md_join(&b, &payments, &l_pay, &theta, &ctx).unwrap());
            (left.join().unwrap(), right.join().unwrap())
        })
        .unwrap();
        join_on_b(&left, &right)
    });
    assert!(seq.approx_same_multiset(&par, 1e-9));
    println!(
        "| split, one site per thread + equijoin | 2 | {} |",
        ms(t_par)
    );
}

fn e8(scale: usize) {
    // Under `--quick` (scale 1) R is every 8th row of the table B is cut
    // from, which divides the O(|B|·|R|) scalar nested loop by 8. B keeps
    // every step, and a sampled tuple matches B as often as a full-table
    // one, so each NL/hash probe ratio stays ≈ the table's number of
    // distinct (cust, month) pairs.
    let full = bench_sales(10_000 * scale, 5_000);
    let b_full = full.distinct_on(&["cust", "month"]).unwrap();
    let r = if scale == 1 {
        Relation::from_rows(
            full.schema().clone(),
            full.rows().iter().step_by(8).cloned().collect(),
        )
    } else {
        full
    };
    let l = [AggSpec::on_column("sum", "sale")];
    let theta = and(
        eq(col_b("cust"), col_r("cust")),
        eq(col_b("month"), col_r("month")),
    );
    header(
        "E8 — §4.5: Rel(t) probing — nested loop vs hash index on B, scalar \
         interpreter vs batched evaluator (scalar columns are single-shot \
         equivalence runs; vec columns are best-of-three)",
        &[
            "|B|",
            "NL scalar (ms)",
            "NL vec (ms)",
            "hash scalar (ms)",
            "hash vec (ms)",
            "probes NL/hash",
        ],
    );
    for b_rows in [16usize, 128, 1024, 8192] {
        let b = head(&b_full, b_rows);
        let run = |probe: ProbeStrategy, strat: ExecStrategy, stats: &Arc<ScanStats>| {
            let ctx = ExecContext::new()
                .with_strategy(probe)
                .with_stats(stats.clone());
            MdJoin::new(&b, &r)
                .aggs(&l)
                .theta(theta.clone())
                .strategy(strat)
                .threads(1)
                .run(&ctx)
                .unwrap()
        };
        // Scalar interpreter runs once per probe plan: it pins the answer and
        // the probe accounting the batched runs below must reproduce, and its
        // single-shot wall time is reported as-is (the O(|B|·|R|) scalar
        // nested loop is exactly the dead weight the batch layer removes, so
        // it is no longer the arm worth best-of-three precision).
        let nl_s = Arc::new(ScanStats::new());
        let t0 = Instant::now();
        let out_nl = run(ProbeStrategy::NestedLoop, ExecStrategy::Serial, &nl_s);
        let t_nl_s = t0.elapsed();
        let hp_s = Arc::new(ScanStats::new());
        let t0 = Instant::now();
        let out_hp = run(ProbeStrategy::HashProbe, ExecStrategy::Serial, &hp_s);
        let t_hp_s = t0.elapsed();
        assert!(out_nl.approx_same_multiset(&out_hp, 1e-9));
        // Batched evaluator, timed best-of-three: the pure-equality θ is
        // batch-covered under both probe plans (the NL form evaluates every
        // bound base row over the shared chunk), so neither run may fall
        // back to scalar or diverge from the interpreter's probe counters.
        let nl_v = Arc::new(ScanStats::new());
        let (t_nl_v, out_nl_v) = time(|| {
            nl_v.reset();
            run(ProbeStrategy::NestedLoop, ExecStrategy::Vectorized, &nl_v)
        });
        let hp_v = Arc::new(ScanStats::new());
        let (t_hp_v, out_hp_v) = time(|| {
            hp_v.reset();
            run(ProbeStrategy::HashProbe, ExecStrategy::Vectorized, &hp_v)
        });
        assert_eq!(out_nl.rows(), out_nl_v.rows(), "E8 NL |B|={b_rows}");
        assert_eq!(out_hp.rows(), out_hp_v.rows(), "E8 hash |B|={b_rows}");
        for (label, scalar, vec) in [("NL", &nl_s, &nl_v), ("hash", &hp_s, &hp_v)] {
            assert_eq!(scalar.probes(), vec.probes(), "E8 {label} |B|={b_rows}");
            assert_eq!(
                vec.batch_fallbacks(),
                0,
                "E8 {label} |B|={b_rows}: equality θ must stay batch-covered"
            );
        }
        println!(
            "| {} | {} | {} | {} | {} | {}/{} |",
            b.len(),
            ms(t_nl_s),
            ms(t_nl_v),
            ms(t_hp_s),
            ms(t_hp_v),
            nl_s.probes(),
            hp_s.probes()
        );
        record_entry(&format!("e8/b{b_rows}/nl/serial"), t_nl_s, Some(&nl_s));
        record_entry(&format!("e8/b{b_rows}/nl/vectorized"), t_nl_v, Some(&nl_v));
        record_entry(&format!("e8/b{b_rows}/hash/serial"), t_hp_s, Some(&hp_s));
        record_entry(
            &format!("e8/b{b_rows}/hash/vectorized"),
            t_hp_v,
            Some(&hp_v),
        );
    }
}

fn e9(scale: usize) {
    let ctx = ExecContext::new();
    let r = bench_sales(15_000 * scale, 500);
    header(
        "E9 — Fig. 2: PIPESORT pipelines vs per-cuboid vs rollup-chain",
        &[
            "dims",
            "cuboids",
            "sorts (pipesort)",
            "per-cuboid (ms)",
            "pipesort (ms)",
            "rollup-chain (ms)",
        ],
    );
    let dim_sets: [&[&str]; 3] = [
        &["prod", "month"],
        &["prod", "month", "state"],
        &["prod", "month", "state", "year"],
    ];
    for dims in dim_sets {
        let spec = CubeSpec::new(
            dims,
            vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
        );
        let pipelines = build_pipelines(&spec);
        let (t_per, a) = time(|| cube_per_cuboid(&r, &spec, &ctx).unwrap());
        let (t_pipe, b) = time(|| cube_pipesort(&r, &spec, &ctx).unwrap());
        let (t_roll, c) = time(|| cube_rollup_chain(&r, &spec, &ctx).unwrap());
        assert!(a.approx_same_multiset(&b, 1e-9) && b.approx_same_multiset(&c, 1e-9));
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            dims.len(),
            spec.lattice().cuboid_count(),
            sort_count(&pipelines),
            ms(t_per),
            ms(t_pipe),
            ms(t_roll)
        );
    }
}

fn e10(scale: usize) {
    let ctx = ExecContext::new();
    let mut catalog = Catalog::new();
    catalog.register("Sales", bench_sales(10_000 * scale, 500));
    header(
        "E10 — Thm 4.3: series scheduling (O(k²)) and executed scan counts",
        &[
            "k",
            "deps",
            "scans before",
            "scans after",
            "schedule (µs)",
            "exec chain (ms)",
            "exec coalesced (ms)",
        ],
    );
    for k in [2usize, 4, 8, 16] {
        for dependent in [false, true] {
            let plan = e10_chain(k, dependent);
            let before = detail_scan_count(&plan);
            let (t_sched, coalesced) = time(|| coalesce_chains(plan.clone()));
            let after = detail_scan_count(&coalesced);
            let (t_chain, a) = time(|| execute(&plan, &catalog, &ctx).unwrap());
            let (t_co, b) = time(|| execute(&coalesced, &catalog, &ctx).unwrap());
            // Column order may differ after coalescing; compare projected.
            let names: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
            let mut cols = vec!["cust".to_string()];
            cols.extend(names);
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            assert!(a
                .project(&refs)
                .unwrap()
                .approx_same_multiset(&b.project(&refs).unwrap(), 1e-9));
            println!(
                "| {k} | {} | {before} | {after} | {:.1} | {} | {} |",
                if dependent { "i→i−2" } else { "none" },
                t_sched.as_secs_f64() * 1e6,
                ms(t_chain),
                ms(t_co)
            );
        }
    }
}

fn e11(scale: usize) {
    let r = bench_sales(40_000 * scale, 1_000);
    let b = r.distinct_on(&["cust"]).unwrap();
    let b_multi = r.distinct_on(&["cust", "month"]).unwrap();
    let b_state = r.distinct_on(&["state"]).unwrap();
    // All five aggregates are kernel-covered (sum/avg/min/max over the Float
    // sale column plus count(*)), and every θ below — including the non-equi
    // nested loop — is batch-covered, so each shape must report zero
    // fallbacks.
    let l = [
        AggSpec::on_column("sum", "sale"),
        AggSpec::on_column("avg", "sale"),
        AggSpec::on_column("min", "sale"),
        AggSpec::on_column("max", "sale"),
        AggSpec::count_star(),
    ];
    // The nested-loop shape probes |B| rows per tuple; a small B keeps its
    // runtime comparable to the hash-probed shapes.
    let b_small = head(&b, 64);
    header(
        "E11 — vectorized batch execution vs scalar serial (identical rows and \
         work counters; Mt/s = detail tuples per second)",
        &[
            "θ shape",
            "scalar (ms)",
            "vectorized (ms)",
            "Mt/s scalar",
            "Mt/s vec",
            "speedup",
            "batches (fallbacks)",
        ],
    );
    // `covered` marks the shapes the batch layer handles without scalar
    // delegation: their vectorized runs must report zero batch fallbacks.
    let shapes: [(&str, &Relation, Expr, bool); 6] = [
        (
            "equality (fast path)",
            &b,
            eq(col_b("cust"), col_r("cust")),
            true,
        ),
        (
            "computed key",
            &b,
            eq(col_b("cust"), add(col_r("cust"), lit(0i64))),
            true,
        ),
        (
            "multi-column key",
            &b_multi,
            and(
                eq(col_b("cust"), col_r("cust")),
                eq(col_b("month"), col_r("month")),
            ),
            true,
        ),
        (
            "string key",
            &b_state,
            eq(col_b("state"), col_r("state")),
            true,
        ),
        (
            "mixed residual",
            &b,
            and(
                eq(col_b("cust"), col_r("cust")),
                ge(col_r("sale"), col_b("cust")),
            ),
            true,
        ),
        (
            "non-equi (vectorized NL)",
            &b_small,
            le(col_b("cust"), col_r("month")),
            true,
        ),
    ];
    for (label, bb, theta, covered) in shapes.clone() {
        let run = |strategy: ExecStrategy, stats: Option<Arc<ScanStats>>| {
            let mut ctx = ExecContext::new();
            if let Some(s) = stats {
                ctx = ctx.with_stats(s);
            }
            MdJoin::new(bb, &r)
                .aggs(&l)
                .theta(theta.clone())
                .strategy(strategy)
                .threads(1)
                .run(&ctx)
                .unwrap()
        };
        // Counter runs (uncounted in the timings): both paths must agree on
        // every work counter, and on the answer row-for-row.
        let s_stats = Arc::new(ScanStats::new());
        let serial_out = run(ExecStrategy::Serial, Some(s_stats.clone()));
        let v_stats = Arc::new(ScanStats::new());
        let vec_out = run(ExecStrategy::Vectorized, Some(v_stats.clone()));
        assert_eq!(serial_out.rows(), vec_out.rows(), "E11 {label}");
        assert_eq!(s_stats.scans(), v_stats.scans(), "E11 {label}");
        assert_eq!(
            s_stats.tuples_scanned(),
            v_stats.tuples_scanned(),
            "E11 {label}"
        );
        assert_eq!(s_stats.probes(), v_stats.probes(), "E11 {label}");
        assert_eq!(s_stats.updates(), v_stats.updates(), "E11 {label}");
        if covered {
            assert_eq!(
                v_stats.batch_fallbacks(),
                0,
                "E11 {label}: covered shape must not fall back to scalar"
            );
        }
        // Timed runs.
        let (t_s, _) = time(|| run(ExecStrategy::Serial, None));
        let (t_v, _) = time(|| run(ExecStrategy::Vectorized, None));
        let mts = |d: Duration| r.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6;
        println!(
            "| {label} | {} | {} | {:.1} | {:.1} | {} | {} ({}) |",
            ms(t_s),
            ms(t_v),
            mts(t_s),
            mts(t_v),
            speedup(t_s, t_v),
            v_stats.batches(),
            v_stats.batch_fallbacks()
        );
        let slug = label.split(' ').next().unwrap_or(label);
        record_entry(&format!("e11/{slug}/serial"), t_s, Some(&s_stats));
        record_entry(&format!("e11/{slug}/vectorized"), t_v, Some(&v_stats));
    }
    e11f(&r, &shapes, &l);

    // Fused generalized (Theorem 4.3) batch execution: k E8-style pivot
    // condition sets — per-month slices of an equality join — evaluated as
    // one single-scan batched query sharing each chunk transposition across
    // all k sets, vs the serial generalized interpreter and vs k sequential
    // vectorized MD-joins (k scans). Every set is batch-covered: the fused
    // runs must report zero scalar condition sets.
    header(
        "E11b — fused generalized MD-join: k pivot condition sets in one \
         batched scan vs serial 1-scan vs k sequential vectorized scans",
        &[
            "k",
            "serial 1-scan (ms)",
            "sequential vec (ms)",
            "fused vec (ms)",
            "fused/serial",
            "sets (scalar)",
        ],
    );
    for k in [2usize, 4, 8] {
        let blocks: Vec<Block> = (0..k as i64)
            .map(|m| {
                Block::new(
                    and(
                        eq(col_b("cust"), col_r("cust")),
                        eq(col_r("month"), lit(m + 1)),
                    ),
                    vec![
                        AggSpec::on_column("sum", "sale").with_alias(format!("sum_{m}")),
                        AggSpec::on_column("count", "sale").with_alias(format!("cnt_{m}")),
                    ],
                )
            })
            .collect();
        let run_multi = |strategy: ExecStrategy, stats: Option<Arc<ScanStats>>| {
            let mut ctx = ExecContext::new();
            if let Some(s) = stats {
                ctx = ctx.with_stats(s);
            }
            MdJoin::new(&b, &r)
                .blocks(blocks.iter().cloned())
                .strategy(strategy)
                .run(&ctx)
                .unwrap()
        };
        let run_sequential = || {
            for blk in &blocks {
                MdJoin::new(&b, &r)
                    .aggs(&blk.aggs)
                    .theta(blk.theta.clone())
                    .strategy(ExecStrategy::Vectorized)
                    .threads(1)
                    .run(&ExecContext::new())
                    .unwrap();
            }
        };
        // Counter runs: the fused executor must match the serial generalized
        // interpreter row-for-row with identical work accounting, keep the
        // single shared scan, and batch every condition set end to end.
        let s_stats = Arc::new(ScanStats::new());
        let serial_out = run_multi(ExecStrategy::Serial, Some(s_stats.clone()));
        let f_stats = Arc::new(ScanStats::new());
        let fused_out = run_multi(ExecStrategy::Vectorized, Some(f_stats.clone()));
        assert_eq!(serial_out.rows(), fused_out.rows(), "E11b k={k}");
        assert_eq!(s_stats.scans(), f_stats.scans(), "E11b k={k}");
        assert_eq!(s_stats.probes(), f_stats.probes(), "E11b k={k}");
        assert_eq!(s_stats.updates(), f_stats.updates(), "E11b k={k}");
        assert_eq!(f_stats.scans(), 1, "E11b k={k}: fused run must scan once");
        assert_eq!(f_stats.gen_sets(), k as u64, "E11b k={k}");
        assert_eq!(
            f_stats.gen_set_fallbacks(),
            0,
            "E11b k={k}: every pivot set must stay batch-covered"
        );
        let (t_serial, _) = time(|| run_multi(ExecStrategy::Serial, None));
        let (t_seq, _) = time(run_sequential);
        let (t_fused, _) = time(|| run_multi(ExecStrategy::Vectorized, None));
        println!(
            "| {k} | {} | {} | {} | {} | {}/{} |",
            ms(t_serial),
            ms(t_seq),
            ms(t_fused),
            speedup(t_serial, t_fused),
            f_stats.gen_set_fallbacks(),
            f_stats.gen_sets()
        );
        record_entry(&format!("e11/fused-k{k}/serial"), t_serial, Some(&s_stats));
        record_entry(
            &format!("e11/fused-k{k}/vectorized"),
            t_fused,
            Some(&f_stats),
        );
    }

    // The typed kernels alone: one `update_ints`/`update_floats` call, the
    // loop the vectorized executor runs per (base row, column) run. With
    // `--features simd` the int sum and every min/max reduce through AVX2;
    // either way each result must equal a plain scalar fold bit for bit.
    header(
        "E11c — typed aggregate kernels: one update over a 64 Ki-row column \
         (⅔ selected, 1 in 11 NULL), ns per selected value",
        &["kernel", "ints (ns/value)", "floats (ns/value)"],
    );
    const N: usize = 1 << 16;
    const REPS: usize = 16;
    let ints: Vec<i64> = (0..N as i64).map(|i| i.wrapping_mul(0x9E37)).collect();
    let floats: Vec<f64> = (0..N).map(|i| (i as f64) * 0.25 - 1000.0).collect();
    let nulls: Vec<bool> = (0..N).map(|i| i % 11 == 0).collect();
    let sel: Vec<u32> = (0..N as u32).filter(|i| i % 3 != 0).collect();
    let kept: Vec<usize> = sel
        .iter()
        .map(|&i| i as usize)
        .filter(|&i| !nulls[i])
        .collect();
    let ints_kept: Vec<i64> = kept.iter().map(|&i| ints[i]).collect();
    let floats_kept: Vec<f64> = kept.iter().map(|&i| floats[i]).collect();
    let count = Value::Int(kept.len() as i64);
    let kernels = [
        (
            "sum",
            KernelKind::Sum,
            Value::Int(ints_kept.iter().sum()),
            Value::Float(floats_kept.iter().fold(0.0, |acc, &x| acc + x)),
        ),
        (
            "min",
            KernelKind::Min,
            Value::Int(*ints_kept.iter().min().unwrap()),
            Value::Float(floats_kept.iter().copied().min_by(f64::total_cmp).unwrap()),
        ),
        (
            "max",
            KernelKind::Max,
            Value::Int(*ints_kept.iter().max().unwrap()),
            Value::Float(floats_kept.iter().copied().max_by(f64::total_cmp).unwrap()),
        ),
        (
            "count",
            KernelKind::Count { star: false },
            count.clone(),
            count,
        ),
    ];
    for (label, kind, want_ints, want_floats) in kernels {
        let fold = |on_floats: bool| {
            let mut state = kind.init();
            let sel = std::hint::black_box(&sel[..]);
            if on_floats {
                state.update_floats(&floats, &nulls, sel).unwrap();
            } else {
                state.update_ints(&ints, &nulls, sel).unwrap();
            }
            state.finalize()
        };
        let mut cells = Vec::new();
        for (on_floats, want) in [(false, want_ints), (true, want_floats)] {
            let got = fold(on_floats);
            assert!(
                same_bits(&got, &want),
                "E11c {label} (floats: {on_floats}): kernel {got:?} vs scalar fold {want:?}"
            );
            let (t, _) = time(|| {
                for _ in 0..REPS {
                    std::hint::black_box(fold(on_floats));
                }
            });
            cells.push(t.as_secs_f64() * 1e9 / (REPS * sel.len()) as f64);
        }
        println!("| {label} | {:.2} | {:.2} |", cells[0], cells[1]);
    }
    e11d(scale);
    e11e(scale);
}

/// E11f — what a relation's column cache saves: per E11 θ shape, the first
/// batch scan of a fresh relation, which transposes every column it reads
/// into the cache (cold), against the second, which reads them from it
/// (warm). Best of five fresh relations; print-only, like E11d.
fn e11f(r: &Relation, shapes: &[(&str, &Relation, Expr, bool)], l: &[AggSpec]) {
    header(
        "E11f — column cache: first batch scan of a fresh relation (cold, \
         transposes) vs the second (warm, reads the cache), ns per detail tuple",
        &[
            "θ shape",
            "cold ns/tuple",
            "warm ns/tuple",
            "cold / warm",
            "columns transposed (cold, warm)",
        ],
    );
    for (label, bb, theta, _) in shapes {
        let (mut cold, mut warm) = (Duration::MAX, Duration::MAX);
        let mut transposed = (0, 0);
        for _ in 0..5 {
            // A copy of the rows, not a clone: a clone shares the cache.
            let fresh = Relation::from_rows(r.schema().clone(), r.rows().to_vec());
            let scan = || {
                let stats = Arc::new(ScanStats::new());
                let ctx = ExecContext::new().with_stats(stats.clone());
                let t0 = Instant::now();
                let out = MdJoin::new(bb, &fresh)
                    .aggs(l)
                    .theta(theta.clone())
                    .strategy(ExecStrategy::Vectorized)
                    .run(&ctx)
                    .unwrap();
                let dt = t0.elapsed();
                std::hint::black_box(out);
                (dt, stats.columns_transposed())
            };
            let (c, w) = (scan(), scan());
            cold = cold.min(c.0);
            warm = warm.min(w.0);
            transposed = (c.1, w.1);
        }
        let ns = |d: Duration| d.as_secs_f64() * 1e9 / r.len() as f64;
        println!(
            "| {label} | {:.1} | {:.1} | {} | {}, {} |",
            ns(cold),
            ns(warm),
            speedup(cold, warm),
            transposed.0,
            transposed.1
        );
    }
}

/// E11d — one batch thread against two scalar ones: the batch evaluator on
/// one thread against the scalar plan on two, in wall time and in process
/// CPU time (the resource two connections on two cores share). Print-only:
/// no `--check` entry, so the gated baseline keeps its names.
fn e11d(scale: usize) {
    header(
        "E11d — one batch thread vs two scalar threads: scalar serial vs batch \
         (1 thread) vs scalar morsel (2 threads), ms per query, wall / process \
         CPU (sum, avg, count(*) per group)",
        &[
            "rows of R",
            "key",
            "serial wall",
            "serial CPU",
            "vectorized wall",
            "vectorized CPU",
            "morsel t2 wall",
            "morsel t2 CPU",
        ],
    );
    let l = [
        AggSpec::on_column("sum", "sale"),
        AggSpec::on_column("avg", "sale"),
        AggSpec::count_star(),
    ];
    // Each cell repeats its query for at least this long.
    let window = Duration::from_millis(100 * scale as u64);
    for rows in [50_000, 400_000, 800_000].map(|n| n * scale / 4) {
        let r = bench_sales(rows, 1_000);
        for (label, dims) in [("Int", &["cust"][..]), ("(Int, Str)", &["prod", "state"])] {
            let b = r.distinct_on(dims).unwrap();
            let run = |strategy: ExecStrategy, threads: usize| {
                MdJoin::new(&b, &r)
                    .aggs(&l)
                    .theta(cuboid_theta(dims))
                    .strategy(strategy)
                    .threads(threads)
                    .run(&ExecContext::new())
                    .unwrap()
            };
            let serial = run(ExecStrategy::Serial, 1);
            let mut cells = Vec::new();
            for (strategy, threads) in [
                (ExecStrategy::Serial, 1),
                (ExecStrategy::Vectorized, 1),
                (ExecStrategy::Morsel, 2),
            ] {
                assert_eq!(serial.rows(), run(strategy, threads).rows(), "E11d");
                cells.extend(wall_and_cpu_ms(window, || run(strategy, threads)));
            }
            println!("| {rows} | {label} | {} |", cells.join(" | "));
        }
    }
}

/// E11e — the shapes the removed `Auto` planner sent to the scalar
/// evaluator (holistic aggregates dominating the work, an unbound θ), plus
/// the `Div`/`Mod` prefilters its coverage model marked uncovered, under
/// the one served plan (`Vectorized`) and under what `Auto` picked for them
/// (`Morsel` on two threads). Every answer is `to_bits`-equal to `Serial`.
/// Print-only, like E11d.
fn e11e(scale: usize) {
    header(
        "E11e — shapes the scalar gate used to take: serial vs batch (1 thread) \
         vs scalar morsel (2 threads), ms per query, wall / process CPU",
        &[
            "rows of R",
            "shape",
            "serial wall",
            "serial CPU",
            "vectorized wall",
            "vectorized CPU",
            "morsel t2 wall",
            "morsel t2 CPU",
        ],
    );
    let by_cust = eq(col_b("cust"), col_r("cust"));
    let agg = |spec: &str| AggSpec::parse(spec).unwrap();
    let kernels = || vec![agg("sum(sale)"), agg("count(*)")];
    let window = Duration::from_millis(100 * scale as u64);
    for (size, rows) in [50_000, 400_000]
        .map(|n| n * scale / 4)
        .into_iter()
        .enumerate()
    {
        let r = bench_sales(rows, 1_000);
        let (b_cust, b_month) = (
            r.distinct_on(&["cust"]).unwrap(),
            r.distinct_on(&["month"]).unwrap(),
        );
        let mut shapes: Vec<(&str, &Relation, Expr, Vec<AggSpec>)> = vec![
            (
                "median",
                &b_cust,
                by_cust.clone(),
                vec![agg("median(sale)")],
            ),
            ("mode", &b_cust, by_cust.clone(), vec![agg("mode(sale)")]),
            (
                "count_distinct",
                &b_cust,
                by_cust.clone(),
                vec![agg("count_distinct(sale)")],
            ),
            (
                "median + sum",
                &b_cust,
                by_cust.clone(),
                vec![agg("median(sale)"), agg("sum(sale)")],
            ),
            (
                "Div prefilter",
                &b_cust,
                and(
                    by_cust.clone(),
                    gt(div(col_r("sale"), lit(2i64)), lit(100i64)),
                ),
                kernels(),
            ),
            (
                "Mod prefilter",
                &b_cust,
                and(
                    by_cust.clone(),
                    eq(modulo(col_r("month"), lit(2i64)), lit(0i64)),
                ),
                kernels(),
            ),
            (
                "unbound θ (R.month <= B.month)",
                &b_month,
                le(col_r("month"), col_b("month")),
                kernels(),
            ),
        ];
        // A base of 1 000 groups, which each chunk meets in blocks of base
        // rows. Its scalar plans test θ 1 000 times per tuple, so it is
        // timed at the smaller size only.
        if size == 0 {
            shapes.push((
                "unbound θ (R.cust <= B.cust)",
                &b_cust,
                le(col_r("cust"), col_b("cust")),
                kernels(),
            ));
        }
        for (label, b, theta, l) in shapes {
            let run = |strategy: ExecStrategy, threads: usize| {
                MdJoin::new(b, &r)
                    .aggs(&l)
                    .theta(theta.clone())
                    .strategy(strategy)
                    .threads(threads)
                    .run(&ExecContext::new())
                    .unwrap()
            };
            let serial = run(ExecStrategy::Serial, 1);
            let mut cells = Vec::new();
            for (strategy, threads) in [
                (ExecStrategy::Serial, 1),
                (ExecStrategy::Vectorized, 1),
                (ExecStrategy::Morsel, 2),
            ] {
                assert_same_bits(
                    &serial,
                    &run(strategy, threads),
                    &format!("E11e {label} {strategy:?}"),
                );
                cells.extend(wall_and_cpu_ms(window, || run(strategy, threads)));
            }
            println!("| {rows} | {label} | {} |", cells.join(" | "));
        }
    }
}

/// Repeat `query` for at least `window` (and three times), then format its
/// mean wall time and mean process CPU time per run, in ms. The window sits
/// well above the 10 ms resolution of the CPU clock.
fn wall_and_cpu_ms<T>(window: Duration, mut query: impl FnMut() -> T) -> [String; 2] {
    let (cpu0, t0, mut reps) = (process_cpu_ms(), Instant::now(), 0u32);
    while reps < 3 || t0.elapsed() < window {
        std::hint::black_box(query());
        reps += 1;
    }
    let wall = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
    let cpu = match (cpu0, process_cpu_ms()) {
        (Some(a), Some(z)) => format!("{:.2}", (z - a) / f64::from(reps)),
        _ => "n/a".into(),
    };
    [format!("{wall:.2}"), cpu]
}

/// User + system CPU of this process in ms, every thread included (exited
/// workers too), read from `/proc/self/stat`; `None` off Linux. The kernel
/// reports it in `USER_HZ` = 100 ticks per second.
fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// Assert `got` has `want`'s rows in order, floats compared by `to_bits`.
fn assert_same_bits(want: &Relation, got: &Relation, label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: row count");
    for (w, g) in want.rows().iter().zip(got.rows()) {
        for (a, b) in w.values().iter().zip(g.values()) {
            assert!(same_bits(a, b), "{label}: {a:?} vs {b:?}");
        }
    }
}

/// Equal values, floats compared by `f64::to_bits`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn e12(scale: usize) {
    use mdj_core::governor::{index_bytes, index_key_bytes, state_bytes};
    use mdj_core::SpillPolicy;
    let r = bench_sales(40_000 * scale, 1_000);
    let b = r.distinct_on(&["cust", "month"]).unwrap();
    let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
    let theta = and(
        eq(col_b("cust"), col_r("cust")),
        eq(col_b("month"), col_r("month")),
    );
    // A budget for ~30% of B: the serial plan must breach and degrade, and
    // the costed partition count (m=4, ~25% of B per partition) leaves
    // enough headroom that the tightly balanced hash buckets of thousands
    // of base keys fit on the first attempt — the ablation is a
    // deterministic single spill pass.
    let per_row = state_bytes(1, l.len()) + index_bytes(1) + index_key_bytes(1, 2);
    let budget = b.len() * 3 / 10 * per_row;
    let spill_dir = std::env::temp_dir().join(format!("mdj-repro-e12-{}", std::process::id()));
    header(
        "E12 — degradation ablation under a budget for ~30% of B: in-memory vs \
         Theorem 4.1 rescan vs single-pass spill (identical rows; the cost \
         model prices m·|R| re-scan work against 7·|R|+overhead spill I/O), \
         each on the scalar evaluator (`Serial`) and on the served one \
         (`Vectorized`, every pass batched)",
        &[
            "plan",
            "evaluator",
            "time (ms)",
            "scans of R",
            "tuples scanned",
            "spill parts",
            "bytes spilled",
            "bytes read",
            "batches",
        ],
    );
    let mut reference: Option<Relation> = None;
    for (label, slug, budgeted, policy) in [
        (
            "in-memory (no budget)",
            "in-memory",
            false,
            SpillPolicy::Auto,
        ),
        (
            "rescan degradation (SpillPolicy::Never)",
            "rescan",
            true,
            SpillPolicy::Never,
        ),
        (
            "spill degradation (SpillPolicy::Always)",
            "spill",
            true,
            SpillPolicy::Always,
        ),
    ] {
        let mut scalar: Option<mdj_storage::StatsSnapshot> = None;
        for (evaluator, strategy, name) in [
            ("scalar", ExecStrategy::Serial, format!("e12/{slug}")),
            (
                "batch",
                ExecStrategy::Vectorized,
                format!("e12/served/{slug}"),
            ),
        ] {
            let stats = Arc::new(ScanStats::new());
            let mut ctx = ExecContext::new()
                .with_stats(stats.clone())
                .with_spill_policy(policy)
                .with_spill_dir(&spill_dir);
            if budgeted {
                ctx = ctx.with_budget_bytes(budget);
            }
            let join = MdJoin::new(&b, &r).aggs(&l).theta(theta.clone());
            let (t, out) = time(|| join.clone().strategy(strategy).run(&ctx).unwrap());
            match &reference {
                None => reference = Some(out),
                // Every plan on either evaluator is row-identical to the
                // scalar in-memory one.
                Some(expected) => assert_eq!(expected.rows(), out.rows(), "E12 {label}"),
            }
            let snap = stats.snapshot();
            match &scalar {
                None => scalar = Some(snap.clone()),
                // The served plan makes the scalar plan's passes, over
                // columns: every pass is batched and no page row is built.
                Some(want) => {
                    let work = |s: &mdj_storage::StatsSnapshot| {
                        (
                            (s.scans, s.tuples_scanned, s.degradations),
                            (s.spill_partitions, s.bytes_spilled, s.spill_read_bytes),
                            (s.probes, s.updates),
                        )
                    };
                    assert_eq!(work(want), work(&snap), "E12 served {label}");
                    assert!(snap.batches > 0, "E12 served {label}");
                    assert_eq!(snap.page_rows_built, 0, "E12 served {label}");
                }
            }
            // `time` runs the query three times; report per-run counters.
            println!(
                "| {label} | {evaluator} | {} | {} | {} | {} | {} | {} | {} |",
                ms(t),
                snap.scans / 3,
                snap.tuples_scanned / 3,
                snap.spill_partitions / 3,
                snap.bytes_spilled / 3,
                snap.spill_read_bytes / 3,
                snap.batches / 3
            );
            record_entry(&name, t, Some(&stats));
        }
    }
    if let Ok(entries) = std::fs::read_dir(&spill_dir) {
        assert_eq!(entries.count(), 0, "E12 leaked spill files");
    }
    let _ = std::fs::remove_dir(&spill_dir);
}

/// `bench_sales` with the measure re-typed to integer cents. Theorem 4.5
/// roll-up re-associates the sum, which is bit-transparent on `Int` but not
/// on `Float` — so E13's cached-vs-direct equivalences can assert exact
/// equality instead of a tolerance.
fn int_cents_sales(rows: usize, customers: usize) -> Relation {
    let src = bench_sales(rows, customers);
    let schema = Schema::from_pairs(&[
        ("cust", DataType::Int),
        ("prod", DataType::Int),
        ("day", DataType::Int),
        ("month", DataType::Int),
        ("year", DataType::Int),
        ("state", DataType::Str),
        ("cents", DataType::Int),
    ]);
    let rows = src
        .iter()
        .map(|row| {
            let mut vals = row.0.clone();
            let last = vals.len() - 1;
            if let Value::Float(f) = vals[last] {
                vals[last] = Value::Int((f * 100.0).round() as i64);
            }
            Row::new(vals)
        })
        .collect();
    Relation::from_rows(schema, rows)
}

fn e13(scale: usize) {
    let sales = int_cents_sales(40_000 * scale, 1_000);
    let engine = EngineConfig::new()
        .register_table("Sales", sales)
        .with_cuboid_cache(64 << 20)
        .build();
    let cat = engine.catalog();
    header(
        "E13 — dashboard replay over the cuboid cache: a repeated fine query is \
         served from cache, a coarser query rolls up from the cached finer \
         cuboid (Theorem 4.5), and an appended batch is folded into the \
         resident cuboid in place (Algorithm 3.1) so the refreshed answer \
         never rescans R",
        &[
            "step",
            "time (ms)",
            "rows",
            "hits",
            "rollup hits",
            "misses",
            "ingest batches",
        ],
    );
    let l = vec![AggSpec::on_column("sum", "cents"), AggSpec::count_star()];
    let fine = Plan::table("Sales")
        .group_by_base(&["cust", "month"])
        .md_join(
            Plan::table("Sales"),
            l.clone(),
            cuboid_theta(&["cust", "month"]),
        );
    let coarse = Plan::table("Sales").group_by_base(&["cust"]).md_join(
        Plan::table("Sales"),
        l.clone(),
        cuboid_theta(&["cust"]),
    );
    let ctx_with = |stats: &Arc<ScanStats>| {
        ExecContext::from_parts(engine.clone(), QueryCtx::new().with_stats(stats.clone()))
    };
    let step = |label: &str, slug: &str, t: Duration, out: &Relation, stats: &Arc<ScanStats>| {
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} |",
            ms(t),
            out.len(),
            stats.cache_hits(),
            stats.cache_rollup_hits(),
            stats.cache_misses(),
            stats.ingest_batches()
        );
        record_entry(&format!("e13/{slug}"), t, Some(stats));
    };

    // Cold: computes the (cust, month) cuboid and caches it.
    let s_cold = Arc::new(ScanStats::new());
    let t0 = Instant::now();
    let cold = execute(&fine, cat, &ctx_with(&s_cold)).unwrap();
    let t_cold = t0.elapsed();
    assert_eq!(s_cold.cache_misses(), 1, "E13 cold run must miss");
    step("cold (computes + caches)", "cold", t_cold, &cold, &s_cold);

    // Warm: the identical query is answered from the cache — bit-identical
    // to both the cold answer and an uncached execution, and ≥10× faster
    // than the cold computation even at --quick sizes.
    let s_warm = Arc::new(ScanStats::new());
    let warm_ctx = ctx_with(&s_warm);
    let (t_warm, warm) = time(|| execute(&fine, cat, &warm_ctx).unwrap());
    assert!(s_warm.cache_hits() >= 1, "E13 warm run must hit");
    assert!(warm.same_multiset(&cold), "E13 warm != cold");
    let direct = execute(&fine, cat, &ExecContext::new()).unwrap();
    assert!(warm.same_multiset(&direct), "E13 cached != uncached");
    assert!(
        t_warm * 10 <= t_cold,
        "E13 warm re-answer not 10x faster: cold {t_cold:?}, warm {t_warm:?}"
    );
    step("warm repeat (cache hit)", "warm", t_warm, &warm, &s_warm);

    // Roll-up: the coarser (cust) cuboid is adapted from the cached finer
    // one — sum stays sum, count re-aggregates as sum — without touching R.
    let s_roll = Arc::new(ScanStats::new());
    let t0 = Instant::now();
    let rolled = execute(&coarse, cat, &ctx_with(&s_roll)).unwrap();
    let t_roll = t0.elapsed();
    assert_eq!(
        s_roll.cache_rollup_hits(),
        1,
        "E13 coarse query must roll up"
    );
    let direct_coarse = execute(&coarse, cat, &ExecContext::new()).unwrap();
    assert!(
        rolled.same_multiset(&direct_coarse),
        "E13 roll-up != direct"
    );
    step(
        "coarser (Thm 4.5 roll-up)",
        "rollup",
        t_roll,
        &rolled,
        &s_roll,
    );

    // Ingest + refresh: the appended batch is folded into the resident
    // cuboid in place (sum/count are distributive, so nothing is dropped),
    // and the refreshed answer — served from the maintained entry — is
    // identical to recomputing over the grown relation from scratch.
    let s_fresh = Arc::new(ScanStats::new());
    let fresh_ctx = ctx_with(&s_fresh);
    let batch: Vec<Row> = (0..64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 7),
                Value::Int(i % 11),
                Value::Int(i % 28 + 1),
                Value::Int(i % 12 + 1),
                Value::Int(2024),
                Value::str("NY"),
                Value::Int(100 + i),
            ])
        })
        .collect();
    let t0 = Instant::now();
    let report = fresh_ctx.ingest("Sales", batch).unwrap();
    let refreshed = execute(&fine, cat, &fresh_ctx).unwrap();
    let t_refresh = t0.elapsed();
    assert_eq!(report.rows, 64);
    assert_eq!(
        report.cache_invalidated, 0,
        "E13 sum/count entries must be maintained, not dropped"
    );
    assert!(
        report.cache_maintained >= 1,
        "E13 ingest must maintain the cuboid"
    );
    assert!(
        s_fresh.cache_hits() >= 1,
        "E13 refresh must be served from cache"
    );
    assert_eq!(s_fresh.ingest_batches(), 1);
    let rescan = execute(&fine, cat, &ExecContext::new()).unwrap();
    assert!(
        refreshed.same_multiset(&rescan),
        "E13 maintained cuboid != recompute"
    );
    step(
        "ingest 64 rows + refresh (maintained)",
        "refresh",
        t_refresh,
        &refreshed,
        &s_fresh,
    );
}

fn e14(scale: usize) {
    use mdj_core::PagedScan;
    use mdj_storage::{BufferPool, PagedStore};
    // E8's workload, made disk-resident: the detail relation is written
    // through the pager clustered on `month` and every run re-reads it page
    // by page through a buffer pool holding at most a quarter of the table,
    // so the I/O counters — not just wall time — are part of the table.
    let r = bench_sales(10_000 * scale, 5_000);
    let b_full = r.distinct_on(&["cust", "month"]).unwrap();
    let b = head(&b_full, 1024);
    let l = [AggSpec::on_column("sum", "sale")];
    let theta = and(
        eq(col_b("cust"), col_r("cust")),
        eq(col_b("month"), col_r("month")),
    );
    let dir = std::env::temp_dir().join(format!("mdj-repro-e14-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("E14 scratch dir");
    let (store, _) = PagedStore::open(&dir).expect("E14 paged store");
    let table = store
        .create_table("Sales", &r, "month", 4096)
        .expect("E14 table");
    let pool = BufferPool::new(table.data_len() / 4);
    assert!(
        pool.budget() >= 4096 && pool.budget() * 4 <= table.data_len(),
        "E14 pool must be at most a quarter of the table"
    );
    let scan = PagedScan::new(table.clone(), pool.clone());
    // In-memory reference over the clustered row order: every paged variant
    // below must reproduce it bit-for-bit.
    let clustered = scan
        .materialize(&ExecContext::new())
        .expect("E14 materialize");
    pool.clear();
    let reference = md_join(&b, &clustered, &l, &theta, &ExecContext::new()).unwrap();
    header(
        "E14 — disk-resident ablation of E1/E8: the same MD-join over pages \
         instead of memory, pool = table/4 (Theorem 4.2 range pushdown prunes \
         whole pages via the manifest min/max, before any I/O)",
        &[
            "plan",
            "time (ms)",
            "pages read",
            "of",
            "bytes read",
            "evictions",
            "rows",
        ],
    );
    // Single-shot timings: repeating a run would serve pages from the pool
    // and make the I/O counters depend on the repetition count.
    // `slug: None` keeps a variant out of the JSON baseline: the morsel
    // run's `pool_evictions` depends on worker interleaving (±1 run to
    // run), so only the deterministic single-threaded variants are gated.
    let run = |label: &str,
               slug: Option<&str>,
               strategy: ExecStrategy,
               threads: usize,
               theta: &Expr,
               expect_rows: Option<&Relation>| {
        pool.clear();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(1024)
            .with_stats(stats.clone());
        let t0 = Instant::now();
        let out = MdJoin::paged(&b, &scan)
            .aggs(&l)
            .theta(theta.clone())
            .strategy(strategy)
            .threads(threads)
            .run(&ctx)
            .unwrap();
        let t = t0.elapsed();
        if let Some(expected) = expect_rows {
            // Every driver applies updates in scan order, so even the
            // parallel run's float sums match the reference bit for bit.
            assert_same_bits(expected, &out, &format!("E14 {label}"));
        }
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} |",
            ms(t),
            stats.pages_read(),
            table.page_count(),
            stats.bytes_read(),
            stats.pool_evictions(),
            out.len()
        );
        if let Some(slug) = slug {
            record_entry(&format!("e14/{slug}"), t, Some(&stats));
        }
        stats
    };
    let full = run(
        "full scan, serial",
        Some("full/serial"),
        ExecStrategy::Serial,
        1,
        &theta,
        Some(&reference),
    );
    assert_eq!(
        full.pages_read() as usize,
        table.page_count(),
        "E14 serial full scan reads every page exactly once"
    );
    assert_eq!(full.bytes_read(), table.data_len(), "E14 full-scan bytes");
    assert!(
        full.pool_evictions() > 0,
        "E14 quarter-size pool must evict"
    );
    run(
        "full scan, vectorized",
        Some("full/vectorized"),
        ExecStrategy::Vectorized,
        1,
        &theta,
        Some(&reference),
    );
    run(
        "full scan, morsel ×4",
        None,
        ExecStrategy::Morsel,
        4,
        &theta,
        Some(&reference),
    );
    // Theorem 4.2: a detail-only range on the clustered key is folded into
    // the scan and prunes pages from the manifest min/max without reading
    // them. The answer equals the in-memory join with the same θ.
    let theta_pruned = and(
        theta.clone(),
        and(ge(col_r("month"), lit(4i64)), le(col_r("month"), lit(6i64))),
    );
    let pruned_ref = md_join(&b, &clustered, &l, &theta_pruned, &ExecContext::new()).unwrap();
    let pruned = run(
        "month ∈ [4,6], serial (Thm 4.2 page pruning)",
        Some("pruned/serial"),
        ExecStrategy::Serial,
        1,
        &theta_pruned,
        Some(&pruned_ref),
    );
    assert!(
        pruned.pages_read() < full.pages_read(),
        "E14 pushdown must cut pages_read: {} vs {}",
        pruned.pages_read(),
        full.pages_read()
    );
    assert!(pruned.pages_read() > 0, "E14 three months of pages remain");

    // One page miss split into its phases, over every page of the table,
    // each read straight from the (warm) file. Print-only: wall time.
    let pass = || {
        (0..table.page_count())
            .map(|p| table.read_profile(p).expect("E14c page read"))
            .collect::<Vec<_>>()
    };
    pass();
    let profiles = pass();
    let median_us = |phase: fn(&mdj_storage::PageReadProfile) -> Duration| {
        let mut us: Vec<f64> = profiles
            .iter()
            .map(|p| phase(p).as_secs_f64() * 1e6)
            .collect();
        us.sort_by(f64::total_cmp);
        us[us.len() / 2]
    };
    let per_page = |total: u64| total as f64 / profiles.len() as f64;
    header(
        "E14c — one page miss of the E14 table, phase by phase (median over \
         its pages; bytes and rows are means)",
        &[
            "pages",
            "pread (µs)",
            "checksum (µs)",
            "decode (µs)",
            "bytes",
            "rows",
        ],
    );
    println!(
        "| {} | {:.2} | {:.2} | {:.2} | {:.0} | {:.1} |",
        profiles.len(),
        median_us(|p| p.pread),
        median_us(|p| p.check),
        median_us(|p| p.decode),
        per_page(profiles.iter().map(|p| p.bytes).sum()),
        per_page(profiles.iter().map(|p| p.rows as u64).sum()),
    );

    // Two full scans at once over one pool of an eighth of the table. The
    // second scan reads a copy of the table, so the two never share a page
    // and each must read all of its own; a pool that reads under its lock
    // runs them one page at a time. Print-only: the ratio is wall time.
    let copy = store
        .create_table("Sales2", &clustered, "month", 4096)
        .expect("E14 second table");
    let pool8 = BufferPool::new(table.data_len() / 8);
    let scans = [
        PagedScan::new(table.clone(), pool8.clone()),
        PagedScan::new(copy, pool8.clone()),
    ];
    let scan_once = |scan: &PagedScan| {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let t0 = Instant::now();
        let out = MdJoin::paged(&b, scan)
            .aggs(&l)
            .theta(theta.clone())
            .strategy(ExecStrategy::Vectorized)
            .run(&ctx)
            .unwrap();
        let t = t0.elapsed();
        assert_same_bits(&reference, &out, "E14 concurrent scans");
        assert_eq!(stats.pages_read() as usize, table.page_count());
        t
    };
    let median = |mut ts: Vec<Duration>| {
        ts.sort();
        ts[ts.len() / 2]
    };
    const REPS: usize = 9;
    let solo = median((0..REPS).map(|_| scan_once(&scans[0])).collect());
    let pair = median(
        (0..REPS)
            .flat_map(|_| {
                std::thread::scope(|s| {
                    let runs = scans.each_ref().map(|scan| s.spawn(|| scan_once(scan)));
                    runs.map(|r| r.join().expect("E14 concurrent scan"))
                })
            })
            .collect(),
    );
    header(
        "E14b — two concurrent full scans (vectorized) over one pool of \
         table/8, each over its own copy of the table (median of 9 per scan)",
        &["scans at once", "time per scan (ms)", "vs one alone"],
    );
    println!("| 1 | {} | 1.00× |", ms(solo));
    println!("| 2 | {} | {} |", ms(pair), speedup(pair, solo));
    let _ = std::fs::remove_dir_all(&dir);
}

fn e10_chain(k: usize, dependent: bool) -> Plan {
    let mut plan = Plan::table("Sales").group_by_base(&["cust"]);
    for i in 0..k {
        let theta = if dependent && i >= 2 {
            and_all([
                eq(col_b("cust"), col_r("cust")),
                eq(col_r("month"), lit((i % 12 + 1) as i64)),
                gt(col_b(format!("c{}", i - 2)), lit(-1i64)),
            ])
        } else {
            and(
                eq(col_b("cust"), col_r("cust")),
                eq(col_r("month"), lit((i % 12 + 1) as i64)),
            )
        };
        plan = plan.md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star().with_alias(format!("c{i}"))],
            theta,
        );
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use Counter::*;

    /// The nine counters a spill-era baseline carried, in its order.
    const DENSE: [Counter; 9] = [
        scans,
        tuples_scanned,
        probes,
        updates,
        batches,
        batch_fallbacks,
        bytes_spilled,
        spill_partitions,
        spill_read_bytes,
    ];

    fn entry(name: &str, counters: &[(Counter, u64)]) -> CheckEntry {
        CheckEntry {
            name: name.into(),
            counters: counters.to_vec(),
        }
    }

    fn dense(name: &str, values: [u64; 9]) -> CheckEntry {
        let counters: Vec<_> = DENSE.into_iter().zip(values).collect();
        entry(name, &counters)
    }

    /// What the writer emits for one run whose every counter is `c as u64 + 1`.
    fn written(name: &str) -> String {
        let stats = ScanStats::new();
        for def in &COUNTERS {
            stats.count(def.counter, def.counter as u64 + 1);
        }
        let entries = [
            entry_json("e1", Duration::from_millis(10), None),
            entry_json(name, Duration::from_micros(1500), Some(&stats)),
        ];
        baseline_text(&entries, true)
    }

    #[test]
    fn hostile_label_emits_parseable_baseline_line() {
        let hostile = "evil \"label\" with \\ and \n\ttab\u{1}ctl";
        let text = written(hostile);
        // One entry per line: no raw newline from the label survives.
        assert_eq!(text.lines().count(), 8, "{text}");
        let entries = parse_entries(&text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, hostile);
    }

    #[test]
    fn check_parses_writer_output_and_skips_wall_only_entries() {
        // The writer's own output: the wall-only entry is skipped, the
        // counter entry carries exactly the gated rows of the table.
        let text = written("e11/equality/serial");
        let doc = parse(&text).unwrap();
        let raw = &doc.get("experiments").and_then(Json::as_arr).unwrap()[1];
        for def in &COUNTERS {
            let want = Json::Int(def.counter as i64 + 1);
            assert_eq!(raw.get(def.name), Some(&want), "{}", def.name);
        }
        let entries = parse_entries(&text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "e11/equality/serial");
        let gated: Vec<(Counter, u64)> = COUNTERS
            .iter()
            .filter(|def| def.gated)
            .map(|def| (def.counter, def.counter as u64 + 1))
            .collect();
        assert_eq!(gated.len(), 23);
        assert_eq!(entries[0].counters, gated);
        // A sparse hand-written entry carries exactly the counters it has.
        let text = r#"{"tool": "repro", "quick": true, "experiments": [
            {"name": "e1", "wall_ms": 10.000},
            {"name": "e12/spill", "wall_ms": 2.000, "scans": 2, "tuples_scanned": 80000,
             "bytes_spilled": 65536, "spill_partitions": 4, "cancel_polls": 7}]}"#;
        let entries = parse_entries(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].counters,
            vec![
                (scans, 2),
                (tuples_scanned, 80000),
                (spill_partitions, 4),
                (bytes_spilled, 65536)
            ],
            "ungated cancel_polls must not gate"
        );
    }

    #[test]
    fn check_is_layout_independent_and_rejects_malformed_json() {
        // A `jq .`-style reflow of the same baseline gates identically: the
        // old line-based reader parsed it to zero counters and passed.
        let single = written("e11/equality/serial");
        let pretty = single
            .replace(",\"", ",\n        \"")
            .replace('{', "{\n        ")
            .replace('}', "\n    }");
        assert!(pretty.lines().count() > 40, "{pretty}");
        let grown = single.replace("\"probes\":3", "\"probes\":4");
        assert_ne!(grown, single);
        let new = parse_entries(&grown).unwrap();
        let from_single = compare_entries(&new, &parse_entries(&single).unwrap());
        let from_pretty = compare_entries(&new, &parse_entries(&pretty).unwrap());
        assert_eq!(from_single.len(), 1, "{from_single:?}");
        assert!(from_single[0].contains("probes regressed 3 -> 4"));
        assert_eq!(from_single, from_pretty);
        // Malformed JSON is a usage error (exit 2), never a clean pass.
        let dir = std::env::temp_dir();
        let good = dir.join(format!("repro-check-good-{}.json", std::process::id()));
        let bad = dir.join(format!("repro-check-bad-{}.json", std::process::id()));
        std::fs::write(&good, &single).unwrap();
        std::fs::write(
            &bad,
            single.replace("\"experiments\": [", "\"experiments\": "),
        )
        .unwrap();
        let (good_s, bad_s) = (good.to_str().unwrap(), bad.to_str().unwrap());
        assert_eq!(run_check(good_s, good_s), 0);
        assert_eq!(run_check(good_s, bad_s), 2);
        assert_eq!(run_check(bad_s, good_s), 2);
        let _ = std::fs::remove_file(good);
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn check_flags_grown_counters_only() {
        let name = "e11/equality/vectorized";
        let base = vec![dense(name, [1, 40000, 40000, 200000, 10, 0, 0, 0, 0])];
        // Identical counters: clean.
        let same = vec![dense(name, [1, 40000, 40000, 200000, 10, 0, 0, 0, 0])];
        assert!(compare_entries(&same, &base).is_empty());
        // A shrunk counter (less work) is not a regression.
        let better = vec![dense(name, [1, 40000, 39000, 200000, 10, 0, 0, 0, 0])];
        assert!(compare_entries(&better, &base).is_empty());
        // A grown counter is.
        let worse = vec![dense(name, [1, 40000, 40000, 200000, 10, 3, 0, 0, 0])];
        let regressions = compare_entries(&worse, &base);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("batch_fallbacks regressed 0 -> 3"));
        // Entries present only in the new run are new coverage and pass...
        let extra = vec![
            dense(name, [1, 40000, 40000, 200000, 10, 0, 0, 0, 0]),
            dense("e11/new-shape/vectorized", [9; 9]),
        ];
        assert!(compare_entries(&extra, &base).is_empty());
        // ...but a baseline entry that disappeared from the new run is a
        // lost gate and fails loudly, not a silent skip.
        let disjoint = vec![dense("e11/new-shape/vectorized", [9; 9])];
        let missing = compare_entries(&disjoint, &base);
        assert_eq!(missing.len(), 1);
        assert!(
            missing[0].contains("e11/equality/vectorized: entry missing from the new run"),
            "{missing:?}"
        );
    }

    #[test]
    fn check_flags_disappearing_counters_with_an_explicit_diff() {
        // The baseline gates nine counters; the new run dropped two of them
        // (e.g. a refactor stopped emitting the spill counters). An
        // intersection gate would pass this silently — it must fail, naming
        // each vanished counter and the value it used to gate.
        let base = vec![dense(
            "e12/spill",
            [2, 100, 100, 100, 0, 0, 65536, 4, 65536],
        )];
        let mut shrunk = dense("e12/spill", [2, 100, 100, 100, 0, 0, 65536, 4, 65536]);
        shrunk.counters.truncate(7);
        let regressions = compare_entries(&[shrunk], &base);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0]
            .contains("spill_partitions missing from the new run (baseline gates it at 4)"));
        assert!(regressions[1]
            .contains("spill_read_bytes missing from the new run (baseline gates it at 65536)"));
        // A new run carrying a superset of the baseline's counters stays
        // clean: sparseness is tolerated in the old-baseline direction only.
        let mut superset = dense("e12/spill", [2, 100, 100, 100, 0, 0, 65536, 4, 65536]);
        superset
            .counters
            .extend([(cache_hits, 3), (ingest_batches, 1)]);
        assert!(compare_entries(&[superset], &base).is_empty());
    }

    #[test]
    fn check_parses_and_gates_the_cache_counters() {
        // A warm query newly falling out of the cache (hits stay, but
        // misses grow) fails the gate.
        let with = |misses: u64| {
            vec![entry(
                "e13/warm",
                &[(cache_hits, 3), (cache_misses, misses)],
            )]
        };
        assert!(compare_entries(&with(0), &with(0)).is_empty());
        let regressions = compare_entries(&with(1), &with(0));
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("cache_misses regressed 0 -> 1"));
    }

    #[test]
    fn check_parses_and_gates_the_paged_counters() {
        // A pruned scan newly touching extra pages fails the gate: losing
        // the Theorem 4.2 pushdown is an I/O regression even when the
        // answer (and every in-memory counter) stays the same.
        let with = |pages: u64| {
            vec![entry(
                "e14/pruned/serial",
                &[
                    (bytes_read, pages * 4096),
                    (pages_read, pages),
                    (pool_evictions, 6),
                ],
            )]
        };
        assert!(compare_entries(&with(10), &with(10)).is_empty());
        let regressions = compare_entries(&with(12), &with(10));
        assert_eq!(regressions.len(), 2);
        assert!(regressions
            .iter()
            .any(|r| r.contains("pages_read regressed 10 -> 12")));
        assert!(regressions
            .iter()
            .any(|r| r.contains("bytes_read regressed 40960 -> 49152")));
    }

    #[test]
    fn check_compares_sparse_entries_over_the_key_intersection() {
        // A baseline carrying six counters gates only those against a
        // nine-counter run...
        let mut old_base = dense("e11/equality/serial", [100; 9]);
        old_base.counters.truncate(6);
        let old_base = vec![old_base];
        let name = "e11/equality/serial";
        let current = vec![dense(name, [100, 100, 100, 100, 100, 100, 77777, 5, 77777])];
        assert!(compare_entries(&current, &old_base).is_empty());
        // ...a regression in a shared counter still fires...
        let grown = vec![dense(name, [100, 100, 101, 100, 100, 100, 77777, 5, 77777])];
        let regressions = compare_entries(&grown, &old_base);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("probes regressed 100 -> 101"));
        // ...and a nine-counter baseline gates the spill counters too.
        let new_base = vec![dense(
            "e12/spill",
            [2, 100, 100, 100, 0, 0, 65536, 4, 65536],
        )];
        let spill_grew = vec![dense(
            "e12/spill",
            [2, 100, 100, 100, 0, 0, 70000, 4, 70000],
        )];
        let regressions = compare_entries(&spill_grew, &new_base);
        assert_eq!(regressions.len(), 2);
        assert!(regressions[0].contains("bytes_spilled regressed 65536 -> 70000"));
        assert!(regressions[1].contains("spill_read_bytes regressed 65536 -> 70000"));
    }

    #[test]
    fn check_gates_fallback_attribution_and_generalized_counters() {
        // A condition set newly delegating to scalar — or a batch newly
        // falling back for an attributed reason — fails the gate, while the
        // overall set count holding steady stays clean.
        let with = |theta: u64, gen_fall: u64| {
            vec![entry(
                "e11/fused-k4/vectorized",
                &[
                    (fallback_theta, theta),
                    (gen_sets, 4),
                    (gen_set_fallbacks, gen_fall),
                ],
            )]
        };
        assert!(compare_entries(&with(0, 0), &with(0, 0)).is_empty());
        let regressions = compare_entries(&with(5, 1), &with(0, 0));
        assert_eq!(regressions.len(), 2);
        assert!(regressions[0].contains("fallback_theta regressed 0 -> 5"));
        assert!(regressions[1].contains("gen_set_fallbacks regressed 0 -> 1"));
    }
}
