//! Property-based tests: Definition 3.1 and every theorem in Section 4 hold
//! on randomized inputs.
//!
//! The oracle implements Definition 3.1 *literally* — for each base tuple,
//! collect `RNG(b, R, θ)` by scanning `R`, then fold the aggregates — while
//! the production code implements Algorithm 3.1 (tuple-at-a-time probing)
//! plus the optimized variants. Agreement between the two directions on
//! random inputs is the core soundness property.

use mdj_agg::Registry;
use mdj_core::prelude::*;
use mdj_cube::rollup_chain::rollup_one;
use mdj_cube::CubeSpec;
use mdj_expr::builder::*;
use proptest::prelude::*;

/// The legacy free-function shapes, expressed through the [`MdJoin`] builder
/// so the properties exercise the single public entrypoint.
fn md_join(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Serial)
        .run(ctx)
}

fn md_join_partitioned(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    m: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::Partitioned { partitions: m })
        .run(ctx)
}

fn md_join_parallel(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    // The static Section 4.1.2 plan: one B fragment per thread.
    let ctx = ctx
        .clone()
        .with_morsel_size(b.len().div_ceil(threads).max(1));
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::MorselBase)
        .threads(threads)
        .run(&ctx)
}

fn md_join_parallel_detail(
    b: &Relation,
    r: &Relation,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    // The static dual plan: one R chunk per thread.
    let ctx = ctx
        .clone()
        .with_morsel_size(r.len().div_ceil(threads).max(1));
    MdJoin::new(b, r)
        .aggs(l)
        .theta(theta.clone())
        .strategy(ExecStrategy::MorselDetail)
        .threads(threads)
        .run(&ctx)
}

/// Definition 3.1, executed verbatim.
fn oracle_md_join(
    b: &Relation,
    r: &Relation,
    specs: &[AggSpec],
    theta: &Expr,
    registry: &Registry,
) -> Relation {
    mdj_naive::ops::md_join_reference(b, r, specs, theta, registry).unwrap()
}

fn detail_strategy() -> impl Strategy<Value = Relation> {
    // (k, m, v) rows with small domains so groups collide.
    proptest::collection::vec((0i64..6, 0i64..5, -50i64..50), 0..60).prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("m", DataType::Int),
            ("v", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(k, m, v)| Row::from_values([k, m, v]))
                .collect(),
        )
    })
}

fn base_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::btree_set((0i64..6, 0i64..5), 0..12).prop_map(|keys| {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("m", DataType::Int)]);
        Relation::from_rows(
            schema,
            keys.into_iter()
                .map(|(k, m)| Row::from_values([k, m]))
                .collect(),
        )
    })
}

/// A grab-bag of θ shapes: equi, computed-key, inequality, mixed.
fn theta_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(eq(col_b("k"), col_r("k"))),
        Just(and(eq(col_b("k"), col_r("k")), eq(col_b("m"), col_r("m")))),
        Just(and(
            eq(col_b("k"), col_r("k")),
            eq(col_b("m"), add(col_r("m"), lit(1i64)))
        )),
        Just(le(col_b("m"), col_r("m"))),
        Just(and(eq(col_b("k"), col_r("k")), gt(col_r("v"), lit(0i64)))),
        Just(Expr::always_true()),
    ]
}

fn all_specs() -> Vec<AggSpec> {
    vec![
        AggSpec::count_star(),
        AggSpec::on_column("sum", "v"),
        AggSpec::on_column("avg", "v"),
        AggSpec::on_column("min", "v"),
        AggSpec::on_column("max", "v"),
    ]
}

fn approx_same(a: &Relation, b: &Relation) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ar = a.rows().to_vec();
    let mut br = b.rows().to_vec();
    ar.sort();
    br.sort();
    ar.iter().zip(&br).all(|(x, y)| {
        x.values()
            .iter()
            .zip(y.values())
            .all(|(u, w)| match (u, w) {
                (Value::Float(p), Value::Float(q)) => (p - q).abs() < 1e-9,
                _ => u == w,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 3.1 (both probe strategies) ≡ Definition 3.1.
    #[test]
    fn definition_equals_algorithm(b in base_strategy(), r in detail_strategy(), theta in theta_strategy()) {
        let registry = Registry::standard();
        let specs = all_specs();
        let expected = oracle_md_join(&b, &r, &specs, &theta, &registry);
        for strategy in [ProbeStrategy::NestedLoop, ProbeStrategy::Auto] {
            let ctx = ExecContext::new().with_strategy(strategy);
            let got = md_join(&b, &r, &specs, &theta, &ctx).unwrap();
            prop_assert!(approx_same(&expected, &got), "strategy {strategy:?}");
        }
    }

    /// Theorem 4.1: any chunk partition of B yields the same result.
    #[test]
    fn theorem_4_1_partition(b in base_strategy(), r in detail_strategy(), theta in theta_strategy(), m in 1usize..6) {
        let ctx = ExecContext::new();
        let specs = all_specs();
        let direct = md_join(&b, &r, &specs, &theta, &ctx).unwrap();
        let parted = md_join_partitioned(&b, &r, &specs, &theta, m, &ctx).unwrap();
        prop_assert!(approx_same(&direct, &parted));
    }

    /// Theorem 4.1 (§4.1.2): base- and detail-partitioned parallel plans
    /// agree with the sequential result (merge correctness included).
    #[test]
    fn theorem_4_1_parallel(b in base_strategy(), r in detail_strategy(), theta in theta_strategy(), threads in 1usize..5) {
        let ctx = ExecContext::new();
        let specs = all_specs();
        let direct = md_join(&b, &r, &specs, &theta, &ctx).unwrap();
        let p1 = md_join_parallel(&b, &r, &specs, &theta, threads, &ctx).unwrap();
        prop_assert!(approx_same(&direct, &p1));
        let p2 = md_join_parallel_detail(&b, &r, &specs, &theta, threads, &ctx).unwrap();
        prop_assert!(approx_same(&direct, &p2));
    }

    /// Theorem 4.2: detail-only conjuncts push into a selection on R.
    #[test]
    fn theorem_4_2_pushdown(b in base_strategy(), r in detail_strategy(), v in -20i64..20) {
        let ctx = ExecContext::new();
        let specs = all_specs();
        let theta = and(eq(col_b("k"), col_r("k")), gt(col_r("v"), lit(v)));
        let direct = md_join(&b, &r, &specs, &theta, &ctx).unwrap();
        // Pushed: σ_{v > c}(R), residual equality only.
        let sigma = r.filter(|row| row[2].sql_cmp(&Value::Int(v)) == Some(std::cmp::Ordering::Greater));
        let pushed = md_join(&b, &sigma, &specs, &eq(col_b("k"), col_r("k")), &ctx).unwrap();
        prop_assert!(approx_same(&direct, &pushed));
    }

    /// Theorem 4.3: independent MD-joins commute (up to column order).
    #[test]
    fn theorem_4_3_commute(b in base_strategy(), r in detail_strategy(), v in -10i64..10) {
        let ctx = ExecContext::new();
        let l1 = vec![AggSpec::on_column("sum", "v").with_alias("s1")];
        let l2 = vec![AggSpec::count_star().with_alias("c2")];
        let t1 = and(eq(col_b("k"), col_r("k")), gt(col_r("v"), lit(v)));
        let t2 = and(eq(col_b("k"), col_r("k")), eq(col_b("m"), col_r("m")));
        let ab = {
            let s1 = md_join(&b, &r, &l1, &t1, &ctx).unwrap();
            md_join(&s1, &r, &l2, &t2, &ctx).unwrap()
        };
        let ba = {
            let s1 = md_join(&b, &r, &l2, &t2, &ctx).unwrap();
            md_join(&s1, &r, &l1, &t1, &ctx).unwrap()
        };
        let cols = ["k", "m", "s1", "c2"];
        prop_assert!(approx_same(&ab.project(&cols).unwrap(), &ba.project(&cols).unwrap()));
    }

    /// Theorem 4.3 (generalized): a coalesced evaluation equals the chain.
    #[test]
    fn theorem_4_3_coalesce(b in base_strategy(), r in detail_strategy(), v in -10i64..10) {
        let md_join_multi = |b: &Relation, r: &Relation, blocks: &[Block], ctx: &ExecContext| {
            MdJoin::new(b, r).blocks(blocks.iter().cloned()).run(ctx)
        };
        let ctx = ExecContext::new();
        let blk1 = Block::new(
            and(eq(col_b("k"), col_r("k")), gt(col_r("v"), lit(v))),
            vec![AggSpec::on_column("sum", "v").with_alias("s1")],
        );
        let blk2 = Block::new(
            le(col_b("m"), col_r("m")),
            vec![AggSpec::count_star().with_alias("c2")],
        );
        let multi = md_join_multi(&b, &r, &[blk1.clone(), blk2.clone()], &ctx).unwrap();
        let chain = {
            let s1 = md_join(&b, &r, &blk1.aggs, &blk1.theta, &ctx).unwrap();
            md_join(&s1, &r, &blk2.aggs, &blk2.theta, &ctx).unwrap()
        };
        prop_assert!(approx_same(&multi, &chain));
    }

    /// Theorem 4.4: the chain over two detail tables equals the equijoin of
    /// independent MD-joins (B's rows are distinct by construction).
    #[test]
    fn theorem_4_4_split(b in base_strategy(), r1 in detail_strategy(), r2 in detail_strategy()) {
        let ctx = ExecContext::new();
        let l1 = vec![AggSpec::on_column("sum", "v").with_alias("s1")];
        let l2 = vec![AggSpec::on_column("min", "v").with_alias("m2")];
        let theta = and(eq(col_b("k"), col_r("k")), eq(col_b("m"), col_r("m")));
        let chain = {
            let s1 = md_join(&b, &r1, &l1, &theta, &ctx).unwrap();
            md_join(&s1, &r2, &l2, &theta, &ctx).unwrap()
        };
        // Split: MD(B,R1) ⋈ MD(B,R2) on B's columns.
        let left = md_join(&b, &r1, &l1, &theta, &ctx).unwrap();
        let right = md_join(&b, &r2, &l2, &theta, &ctx).unwrap();
        let joined = mdj_naive::join::hash_join(&left, &right, &["k", "m"], &["k", "m"]).unwrap();
        let split = {
            // keep left cols + right's aggregate.
            let idx: Vec<usize> = (0..left.schema().len()).chain([left.schema().len() + 2]).collect();
            let schema = joined.schema().project(&idx);
            let rows = joined.iter().map(|row| Row::new(row.key(&idx))).collect();
            Relation::from_rows(schema, rows)
        };
        prop_assert!(approx_same(&chain, &split));
    }

    /// Theorem 4.5: a coarser cuboid rolled up from a finer one equals direct
    /// computation, for random cuboid pairs and distributive aggregates.
    #[test]
    fn theorem_4_5_rollup(r in detail_strategy(), fine_bits in 1u32..8, coarse_seed in 0u32..8) {
        let spec = CubeSpec::new(
            &["k", "m", "v"],
            vec![
                AggSpec::count_star(),
                AggSpec::on_column("sum", "v"),
                AggSpec::on_column("min", "v"),
                AggSpec::on_column("max", "v"),
            ],
        );
        let fine = fine_bits & 0b111;
        prop_assume!(fine != 0);
        let coarse = coarse_seed & fine;
        prop_assume!(coarse != fine);
        let ctx = ExecContext::new();
        let (via, direct) = rollup_one(&r, &spec, coarse, fine, &ctx).unwrap();
        prop_assert!(approx_same(&via, &direct));
    }

    /// The MD-join's outer semantics: output cardinality is exactly |B|, for
    /// any θ and any detail table.
    #[test]
    fn output_cardinality_is_base_cardinality(b in base_strategy(), r in detail_strategy(), theta in theta_strategy()) {
        let ctx = ExecContext::new();
        let out = md_join(&b, &r, &[AggSpec::count_star()], &theta, &ctx).unwrap();
        prop_assert_eq!(out.len(), b.len());
    }
}
