//! Property tests: every cube algorithm computes the same relation, and the
//! base-values builders satisfy their definitional relationships.

use mdj_agg::rollup::rollup_specs;
use mdj_core::prelude::*;
use mdj_cube::common::pad_cuboid;
use mdj_cube::lattice::Mask;
use mdj_cube::naive::{cube_per_cuboid, cube_via_wildcard_theta};
use mdj_cube::partitioned::cube_partitioned;
use mdj_cube::pipesort::cube_pipesort;
use mdj_cube::rollup_chain::cube_rollup_chain;
use mdj_cube::sets::{sets_agg, shape_masks, SetShape};
use mdj_cube::CubeSpec;
use proptest::prelude::*;
use std::sync::Arc;

fn detail_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..4, 0i64..3, 0i64..3, -20i64..20), 0..40).prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("v", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(a, b, c, v)| Row::from_values([a, b, c, v]))
                .collect(),
        )
    })
}

fn spec() -> CubeSpec {
    CubeSpec::new(
        &["a", "b", "c"],
        vec![
            AggSpec::count_star(),
            AggSpec::on_column("sum", "v"),
            AggSpec::on_column("min", "v"),
            AggSpec::on_column("max", "v"),
        ],
    )
}

/// `(i Int, s Str, j Int, f Float, sale Float)`: NULLs in `i` and `s`,
/// `0.0`, `-0.0` and NaN in the float dimension `f`, and NaN, `-0.0`, NULL
/// and magnitudes far apart in `sale`.
fn typed_detail_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..5, 0usize..4, 0i64..3, 0usize..4, 0usize..8), 0..80).prop_map(
        |rows| {
            let schema = Schema::from_pairs(&[
                ("i", DataType::Int),
                ("s", DataType::Str),
                ("j", DataType::Int),
                ("f", DataType::Float),
                ("sale", DataType::Float),
            ]);
            let floats = [0.0, -0.0, 1.5, f64::NAN];
            let sales = [1.5, -0.0, f64::NAN, 0.1, 1e16, -2.25, 3.0];
            let rows = rows
                .into_iter()
                .map(|(i, s, j, f, sale)| {
                    Row::from_values(vec![
                        if i == 4 { Value::Null } else { Value::Int(i) },
                        match s {
                            3 => Value::Null,
                            s => Value::str(["NY", "NJ", "CT"][s]),
                        },
                        Value::Int(j),
                        Value::Float(floats[f]),
                        sales.get(sale).map_or(Value::Null, |&x| Value::Float(x)),
                    ])
                })
                .collect();
            Relation::from_rows(schema, rows)
        },
    )
}

/// One cuboid the two-pass way: build `γ_kept(rel)`, then MD-join it with
/// `rel` on the batch evaluator.
fn two_pass_cuboid(rel: &Relation, kept: &[&str], l: &[AggSpec], ctx: &ExecContext) -> Relation {
    let b = basevalues::group_by(rel, kept).unwrap();
    MdJoin::new(&b, rel)
        .aggs(l)
        .theta(basevalues::cuboid_theta(kept))
        .strategy(ExecStrategy::Vectorized)
        .threads(1)
        .run(ctx)
        .unwrap()
}

/// The roll-up chain the two-pass way, each coarser cuboid from its
/// smallest computed parent, ties to the lowest mask.
fn two_pass_chain(r: &Relation, spec: &CubeSpec, ctx: &ExecContext) -> Relation {
    let lattice = spec.lattice();
    let rolled = rollup_specs(&spec.aggs, ctx.registry()).unwrap();
    let mut out = Relation::empty(spec.output_schema(r, ctx.registry()).unwrap());
    let mut computed: Vec<(Mask, Relation)> = Vec::new();
    for mask in lattice.masks_fine_to_coarse() {
        let kept = spec.kept(mask);
        let rel = match computed
            .iter()
            .filter(|(p, _)| lattice.rolls_up_from(mask, *p))
            .min_by_key(|(p, rel)| (rel.len(), *p))
        {
            None => two_pass_cuboid(r, &kept, &spec.aggs, ctx),
            Some((_, parent)) => two_pass_cuboid(parent, &kept, &rolled, ctx),
        };
        pad_cuboid(&rel, spec, mask, &mut out);
        computed.push((mask, rel));
    }
    out
}

/// Grouping sets the two-pass way: each distinct mask from `r`.
fn two_pass_sets(r: &Relation, spec: &CubeSpec, masks: &[Mask], ctx: &ExecContext) -> Relation {
    let mut out = Relation::empty(spec.output_schema(r, ctx.registry()).unwrap());
    let mut done = Vec::new();
    for &mask in masks {
        if !done.contains(&mask) {
            done.push(mask);
            pad_cuboid(
                &two_pass_cuboid(r, &spec.kept(mask), &spec.aggs, ctx),
                spec,
                mask,
                &mut out,
            );
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every cuboid of the roll-up chain and of `sets_agg` is one scan that
    /// builds its own group-by base, and answers as building the base in a
    /// pass of its own first: same rows in the same order, same float bits,
    /// same probes and updates. A float dimension keeps its cuboids' second
    /// pass.
    #[test]
    fn one_scan_cuboids_equal_the_two_pass_reference(
        r in typed_detail_strategy(),
        dims_pick in 0usize..3,
        shape_pick in 0usize..4,
        explicit in proptest::collection::vec(0u32..8, 1..5),
        morsel_pick in 0usize..3,
    ) {
        let dims: &[&str] = [&["i", "s", "j"][..], &["s", "i"], &["i", "f", "s"]][dims_pick];
        let n = dims.len();
        let morsel = [1, 7, 4096][morsel_pick];
        let ctx = |stats: &Arc<ScanStats>| {
            ExecContext::new().with_morsel_size(morsel).with_stats(stats.clone())
        };
        let distributive = vec![
            AggSpec::on_column("sum", "sale"),
            AggSpec::count_star(),
            AggSpec::on_column("min", "sale"),
            AggSpec::on_column("max", "sale"),
        ];
        let with_avg = [distributive.clone(), vec![AggSpec::on_column("avg", "sale")]].concat();
        // How many of `masks` keep the float dimension, which declines the
        // one-scan build.
        let float_kept = |masks: &[Mask]| {
            let f = dims.iter().position(|d| *d == "f");
            masks.iter().filter(|&&m| f.is_some_and(|f| m & (1 << f) != 0)).count() as u64
        };
        let label = format!("dims {dims:?} over {} rows at morsel {morsel}", r.len());

        let spec = CubeSpec::new(dims, distributive);
        let (want_stats, stats) = (Arc::new(ScanStats::new()), Arc::new(ScanStats::new()));
        let want = two_pass_chain(&r, &spec, &ctx(&want_stats));
        let got = cube_rollup_chain(&r, &spec, &ctx(&stats)).unwrap();
        prop_assert_eq!(got.rows(), want.rows(), "chain: {}", label);
        prop_assert_eq!(stats.probes(), want_stats.probes(), "chain: {}", label);
        prop_assert_eq!(stats.updates(), want_stats.updates(), "chain: {}", label);
        let all: Vec<Mask> = spec.lattice().masks_fine_to_coarse();
        let cuboids = all.len() as u64;
        prop_assert_eq!(stats.scans(), cuboids, "chain: {}", label);
        prop_assert_eq!(stats.base_passes(), float_kept(&all), "chain: {}", label);
        prop_assert_eq!(stats.base_fused(), cuboids - float_kept(&all), "chain: {}", label);

        let shape = match shape_pick {
            0 => SetShape::Cube,
            1 => SetShape::Rollup,
            2 => SetShape::Unpivot,
            _ => SetShape::Explicit(explicit.iter().map(|m| m % (1 << n)).collect()),
        };
        let masks = shape_masks(n, &shape);
        let mut distinct = masks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let spec = CubeSpec::new(dims, with_avg);
        let (want_stats, stats) = (Arc::new(ScanStats::new()), Arc::new(ScanStats::new()));
        let want = two_pass_sets(&r, &spec, &masks, &ctx(&want_stats));
        let got = sets_agg(&r, &spec, &masks, &ctx(&stats)).unwrap();
        prop_assert_eq!(got.rows(), want.rows(), "{:?}: {}", shape, label);
        prop_assert_eq!(stats.probes(), want_stats.probes(), "{:?}: {}", shape, label);
        prop_assert_eq!(stats.updates(), want_stats.updates(), "{:?}: {}", shape, label);
        let cuboids = distinct.len() as u64;
        prop_assert_eq!(stats.scans(), cuboids, "{:?}: {}", shape, label);
        prop_assert_eq!(stats.base_passes(), float_kept(&distinct), "{:?}: {}", shape, label);
        prop_assert_eq!(stats.base_fused(), cuboids - float_kept(&distinct), "{:?}: {}", shape, label);
    }

    /// All five cube algorithms agree on random inputs.
    #[test]
    fn five_cube_algorithms_agree(r in detail_strategy()) {
        let ctx = ExecContext::new();
        let sp = spec();
        let wildcard = cube_via_wildcard_theta(&r, &sp, &ctx).unwrap();
        let per_cuboid = cube_per_cuboid(&r, &sp, &ctx).unwrap();
        prop_assert!(wildcard.same_multiset(&per_cuboid));
        let rollup = cube_rollup_chain(&r, &sp, &ctx).unwrap();
        prop_assert!(per_cuboid.same_multiset(&rollup));
        let pipesorted = cube_pipesort(&r, &sp, &ctx).unwrap();
        prop_assert!(rollup.same_multiset(&pipesorted));
        for dim in 0..3 {
            let parted = cube_partitioned(&r, &sp, dim, &ctx).unwrap();
            prop_assert!(pipesorted.same_multiset(&parted), "partition dim {dim}");
        }
    }

    /// Base-builder relationships: rollup ⊆ cube, unpivot ⊆ cube, grouping
    /// sets with all singletons ≡ unpivot, group-by ≡ finest cuboid slice.
    #[test]
    fn base_builders_are_consistent(r in detail_strategy()) {
        let dims = ["a", "b", "c"];
        let cube_b = basevalues::cube(&r, &dims).unwrap();
        let rollup_b = basevalues::rollup(&r, &dims).unwrap();
        let unpivot_b = basevalues::unpivot(&r, &dims).unwrap();
        let gb = basevalues::group_by(&r, &dims).unwrap();

        let cube_rows: std::collections::HashSet<_> = cube_b.iter().cloned().collect();
        for row in rollup_b.iter() {
            prop_assert!(cube_rows.contains(row), "rollup row missing from cube");
        }
        for row in unpivot_b.iter() {
            prop_assert!(cube_rows.contains(row), "unpivot row missing from cube");
        }
        // Group-by = the fully-concrete rows of the cube base.
        let finest: Vec<_> = cube_b
            .iter()
            .filter(|row| row.values().iter().all(|v| !v.is_all()))
            .cloned()
            .collect();
        let finest_rel = Relation::from_rows(gb.schema().clone(), finest);
        prop_assert!(finest_rel.same_multiset(&gb));
        // Singleton grouping sets ≡ unpivot.
        let sets: Vec<Vec<&str>> = dims.iter().map(|d| vec![*d]).collect();
        let gs = basevalues::grouping_sets(&r, &dims, &sets).unwrap();
        prop_assert!(gs.same_multiset(&unpivot_b));
    }

    /// Cube base-table cardinality: |cube| ≤ Σ over masks of |distinct kept|,
    /// rows are unique, and the apex row exists iff the detail is non-empty.
    #[test]
    fn cube_base_cardinality(r in detail_strategy()) {
        let dims = ["a", "b"];
        let b = basevalues::cube(&r, &dims).unwrap();
        let uniq: std::collections::HashSet<_> = b.iter().cloned().collect();
        prop_assert_eq!(uniq.len(), b.len());
        let has_apex = b.iter().any(|row| row.values().iter().all(Value::is_all));
        prop_assert_eq!(has_apex, !r.is_empty());
    }

    /// The cube's apex cell always equals the global aggregate.
    #[test]
    fn apex_equals_global_aggregate(r in detail_strategy()) {
        prop_assume!(!r.is_empty());
        let ctx = ExecContext::new();
        let sp = spec();
        let out = cube_rollup_chain(&r, &sp, &ctx).unwrap();
        let apex = out
            .iter()
            .find(|row| row.values()[..3].iter().all(Value::is_all))
            .expect("apex exists");
        let count = r.len() as i64;
        let sum: i64 = r.iter().map(|t| t[3].as_int().unwrap()).sum();
        prop_assert_eq!(apex[3].clone(), Value::Int(count));
        prop_assert_eq!(apex[4].clone(), Value::Int(sum));
    }

    /// Every concrete (non-ALL) cube cell's count equals the number of
    /// matching detail tuples (spot-check of cell semantics).
    #[test]
    fn concrete_cells_count_matching_tuples(r in detail_strategy()) {
        let ctx = ExecContext::new();
        let sp = spec();
        let out = cube_per_cuboid(&r, &sp, &ctx).unwrap();
        for row in out.iter().filter(|row| row.values()[..3].iter().all(|v| !v.is_all())).take(10) {
            let expected = r
                .iter()
                .filter(|t| t[0] == row[0] && t[1] == row[1] && t[2] == row[2])
                .count() as i64;
            prop_assert_eq!(row[3].clone(), Value::Int(expected));
        }
    }
}
