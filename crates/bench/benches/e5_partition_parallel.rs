//! E5 (Theorem 4.1): base-table partitioning, intra-operator parallelism,
//! and the static-chunk vs morsel-driven scheduling ablation.
//!
//! Expected shape: partitioned (m scans) costs ≈ m× the single scan —
//! "a well-defined increase in the number of scans of R" — while parallel
//! execution scales down with threads until the per-thread scan dominates.
//! On Zipf-skewed, customer-clustered data the static one-chunk-per-thread
//! plans inherit the skew (one worker gets the hot slice and the others
//! wait), whereas the work-stealing morsel executor rebalances at morsel
//! granularity and should win by ≥1.3× at 8 threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdj_agg::AggSpec;
use mdj_bench::{bench_sales, bench_sales_zipf, ctx};
use mdj_core::{ExecContext, ExecStrategy, MdJoin};
use mdj_expr::builder::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_partition_parallel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let ctx = ctx();
    let r = bench_sales(100_000, 2_000);
    let b = r.distinct_on(&["cust", "month"]).unwrap();
    let l = [AggSpec::on_column("sum", "sale"), AggSpec::count_star()];
    let theta = and(
        eq(col_b("cust"), col_r("cust")),
        eq(col_b("month"), col_r("month")),
    );
    let join = MdJoin::new(&b, &r).aggs(&l).theta(theta);

    group.bench_function("direct_1_scan", |bch| {
        let j = join.clone().strategy(ExecStrategy::Serial);
        bch.iter(|| j.run(&ctx).unwrap())
    });
    for m in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("partitioned_m_scans", m), &m, |bch, &m| {
            let j = join
                .clone()
                .strategy(ExecStrategy::Partitioned { partitions: m });
            bch.iter(|| j.run(&ctx).unwrap())
        });
    }
    for threads in [2usize, 4, 8] {
        // The static Section 4.1.2 plans are the parallel drivers with one
        // morsel per thread: ⌈n/threads⌉ rows of the split side.
        let per_thread = |n: usize| ExecContext::new().with_morsel_size(n.div_ceil(threads));
        for (name, strategy, ctx) in [
            (
                "parallel_base",
                ExecStrategy::MorselBase,
                per_thread(b.len()),
            ),
            (
                "parallel_detail",
                ExecStrategy::MorselDetail,
                per_thread(r.len()),
            ),
            ("morsel", ExecStrategy::Morsel, ctx.clone()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |bch, &t| {
                let j = join.clone().strategy(strategy).threads(t);
                bch.iter(|| j.run(&ctx).unwrap())
            });
        }
    }
    group.finish();

    // ------------------------------------------------------------------
    // Scheduling ablation: static chunks vs work-stealing morsels on
    // Zipf(1.1) customers with the detail table clustered by customer.
    //
    // The base is every (cust, prod) pair and θ joins on cust alone — the
    // Example 2.1 "share of customer total" denominator, where each sale
    // must update the running total of *every* product row of its customer.
    // A hot Zipf customer has bought hundreds of distinct products, so each
    // of its (contiguous, thanks to clustering) sale tuples fans out into
    // hundreds of aggregate updates, while a tail customer's tuple updates
    // one or two. Static chunking hands the hot run to a single worker and
    // the others idle; morsel stealing rebalances it.
    //
    // Wall clock only separates the schedulers on a multi-core host; the
    // `repro` binary's E5b table reports the same ablation in
    // machine-independent units (max per-worker updates from WorkerStats).
    // ------------------------------------------------------------------
    let mut group = c.benchmark_group("e5_morsel_ablation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let r = bench_sales_zipf(60_000, 20_000, 500, 1.1);
    let b = r.distinct_on(&["cust", "prod"]).unwrap();
    let fanout = MdJoin::new(&b, &r)
        .aggs(&[
            AggSpec::on_column("sum", "sale").with_alias("cust_total"),
            AggSpec::count_star().with_alias("cust_rows"),
        ])
        .theta(eq(col_b("cust"), col_r("cust")));
    let threads = 8usize;

    group.bench_function("static_chunk_8t", |bch| {
        let sctx = ExecContext::new().with_morsel_size(r.len().div_ceil(threads));
        let j = fanout
            .clone()
            .strategy(ExecStrategy::MorselDetail)
            .threads(threads);
        bch.iter(|| j.run(&sctx).unwrap())
    });
    for morsel_rows in [1_024usize, 4_096] {
        let mctx = ExecContext::new().with_morsel_size(morsel_rows);
        group.bench_with_input(
            BenchmarkId::new("morsel_8t", morsel_rows),
            &morsel_rows,
            |bch, _| {
                let j = fanout
                    .clone()
                    .strategy(ExecStrategy::MorselDetail)
                    .threads(threads);
                bch.iter(|| j.run(&mctx).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
