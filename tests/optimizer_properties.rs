//! Whole-optimizer fuzzing: random MD-join chains over a small catalog, with
//! their filters in θ or WHERE-shaped (a σ on the detail), must execute to
//! the same relation before and after optimization. The optimizer must never
//! increase the number of detail scans, must leave no σ on any MD-join's
//! detail, and must wrap every MD-join in a `Parallel` node.

use mdj_agg::Registry;
use mdj_algebra::rules::coalesce::detail_scan_count;
use mdj_algebra::{execute, optimize, Plan};
use mdj_core::prelude::*;
use mdj_expr::builder::and_all;
use mdj_expr::Side;
use mdj_storage::Catalog;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("m", DataType::Int),
        ("s", DataType::Str),
        ("v", DataType::Int),
    ]);
    let states = ["NY", "NJ", "CT", "CA"];
    let rows: Vec<Row> = (0..400i64)
        .map(|i| {
            Row::from_values(vec![
                Value::Int(i % 7),
                Value::Int(i % 12 + 1),
                Value::str(states[(i % 4) as usize]),
                Value::Int((i * 37) % 100 - 50),
            ])
        })
        .collect();
    let mut c = Catalog::new();
    c.register("T", Relation::from_rows(schema, rows));
    c
}

/// One stage of a random chain. `dep` makes the stage's θ read the output of
/// an earlier stage (when one exists), exercising the scheduler's dependency
/// analysis. `sigma` puts a WHERE-shaped σ on the stage's detail.
#[derive(Debug, Clone)]
struct StageSpec {
    func: usize,
    filter: usize,
    dep: bool,
    sigma: usize,
}

fn stage_strategy() -> impl Strategy<Value = StageSpec> {
    (0usize..4, 0usize..5, any::<bool>(), 0usize..4).prop_map(|(func, filter, dep, sigma)| {
        StageSpec {
            func,
            filter,
            dep,
            sigma,
        }
    })
}

/// The detail of a stage: `T`, or `T` under a σ (two nested for `sigma` 3).
fn detail(sigma: usize) -> Plan {
    let t = Plan::table("T");
    match sigma {
        1 => t.select(le(col_r("m"), lit(6i64))),
        2 => t.select(eq(col_r("s"), lit("NY"))),
        3 => t
            .select(gt(col_r("v"), lit(0i64)))
            .select(le(col_r("m"), lit(9i64))),
        _ => t,
    }
}

/// The optimized plan's shape: no detail-side σ anywhere under an MD-join's
/// detail, and every MD-join (single or generalized) the direct input of a
/// `Parallel` node, which wraps nothing else.
fn assert_optimized_shape(plan: &Plan) -> Result<(), TestCaseError> {
    let mut wrapped = 0;
    let mut stray_sigma = false;
    let mut stray_parallel = false;
    plan.visit(&mut |node| match node {
        Plan::MdJoin { detail, .. } | Plan::GenMdJoin { detail, .. } => detail.visit(&mut |d| {
            stray_sigma |= matches!(d, Plan::Select { pred, .. } if !pred.uses_side(Side::Base));
        }),
        Plan::Parallel { input, .. } => match input.as_ref() {
            Plan::MdJoin { .. } | Plan::GenMdJoin { .. } => wrapped += 1,
            _ => stray_parallel = true,
        },
        _ => {}
    });
    prop_assert!(!stray_sigma, "σ left on a detail: {:?}", plan);
    prop_assert!(!stray_parallel, "Parallel over a non-MD-join: {:?}", plan);
    prop_assert_eq!(
        wrapped,
        plan.md_join_count(),
        "unwrapped MD-join: {:?}",
        plan
    );
    Ok(())
}

fn build_chain(stages: &[StageSpec]) -> Plan {
    let mut plan = Plan::table("T").group_by_base(&["k"]);
    let mut produced: Vec<String> = Vec::new();
    for (i, st) in stages.iter().enumerate() {
        let alias = format!("a{i}");
        let agg = match st.func {
            0 => AggSpec::count_star().with_alias(alias.clone()),
            1 => AggSpec::on_column("sum", "v").with_alias(alias.clone()),
            2 => AggSpec::on_column("min", "v").with_alias(alias.clone()),
            _ => AggSpec::on_column("max", "v").with_alias(alias.clone()),
        };
        let mut conjs: Vec<Expr> = vec![eq(col_b("k"), col_r("k"))];
        match st.filter {
            0 => conjs.push(eq(col_r("s"), lit("NY"))),
            1 => conjs.push(gt(col_r("v"), lit(0i64))),
            2 => conjs.push(le(col_r("m"), lit(6i64))),
            3 => conjs.push(eq(col_r("s"), lit("CT"))),
            _ => {}
        }
        if st.dep {
            if let Some(earlier) = produced.first() {
                conjs.push(gt(col_b(earlier.clone()), lit(-1_000i64)));
            }
        }
        plan = plan.md_join(detail(st.sigma), vec![agg], and_all(conjs));
        produced.push(alias);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// optimize(plan) executes to the same relation as plan (up to column
    /// order, which coalescing may permute).
    #[test]
    fn optimizer_preserves_semantics(stages in proptest::collection::vec(stage_strategy(), 1..6)) {
        let cat = catalog();
        let reg = Registry::standard();
        let ctx = ExecContext::new();
        let plan = build_chain(&stages);
        let optimized = optimize(plan.clone(), &cat, &reg).unwrap();
        let a = execute(&plan, &cat, &ctx).unwrap();
        let b = execute(&optimized, &cat, &ctx).unwrap();
        // Compare on a canonical column order.
        let mut cols: Vec<String> = vec!["k".into()];
        cols.extend((0..stages.len()).map(|i| format!("a{i}")));
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        prop_assert!(a
            .project(&refs)
            .unwrap()
            .same_multiset(&b.project(&refs).unwrap()));
    }

    /// The optimizer never increases the detail-scan count, and its output
    /// has the optimized shape.
    #[test]
    fn optimizer_never_regresses(stages in proptest::collection::vec(stage_strategy(), 1..6)) {
        let cat = catalog();
        let reg = Registry::standard();
        let plan = build_chain(&stages);
        let before_scans = detail_scan_count(&plan);
        let optimized = optimize(plan, &cat, &reg).unwrap();
        prop_assert!(detail_scan_count(&optimized) <= before_scans);
        assert_optimized_shape(&optimized)?;
    }

    /// Fully independent chains always coalesce to a single scan, whether
    /// each stage's filter is written in θ or as a σ on its detail.
    #[test]
    fn independent_chains_fully_coalesce(
        sigmas in proptest::collection::vec(0usize..4, 1..6),
        filter in 0usize..5,
    ) {
        let stages: Vec<StageSpec> = sigmas
            .into_iter()
            .map(|sigma| StageSpec { func: 1, filter, dep: false, sigma })
            .collect();
        let cat = catalog();
        let reg = Registry::standard();
        let plan = build_chain(&stages);
        let optimized = optimize(plan, &cat, &reg).unwrap();
        prop_assert_eq!(detail_scan_count(&optimized), 1);
    }
}
