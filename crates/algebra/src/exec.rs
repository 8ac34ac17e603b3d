//! Plan execution.

use crate::error::{AlgebraError, Result};
use crate::plan::{BaseShape, Plan};
use mdj_core::basevalues::{self, Sets};
use mdj_core::cache::{cuboid_theta, CacheAnswer, CuboidRequest};
use mdj_core::{Block, DetailSource, ExecContext, ExecStrategy, MdJoin, PagedScan};
use mdj_expr::Expr;
use mdj_storage::{Catalog, Counter, Relation, Row};
use std::sync::Arc;

/// Execute a logical plan against a catalog.
///
/// MD-join nodes, single or generalized (all blocks in one scan), run
/// Algorithm 3.1 serially with the context's probe strategy over their base
/// and detail plans as written — the scalar reference `query_unoptimized`
/// answers with — and a [`Plan::Parallel`] node serves its MD-join on the
/// batch evaluator (see [`md_join`]).
///
/// Relations travel as `Arc<Relation>` (DESIGN §3.3): table and inline nodes
/// lend the `Arc` the catalog or the plan already holds, a cache hit lends
/// the resident one, and an operator that computes a new relation wraps it
/// once. No node mutates a relation it did not build.
pub fn execute(plan: &Plan, catalog: &Catalog, ctx: &ExecContext) -> Result<Arc<Relation>> {
    enter_node(ctx)?;
    Ok(Arc::new(match plan {
        Plan::Table(name) => return Ok(catalog.get(name)?),
        Plan::Inline(rel) => return Ok(rel.clone()),
        Plan::Select { input, pred } => {
            let rel = execute(input, catalog, ctx)?;
            // σ predicates are usually written over the detail side, but
            // predicates produced for *base* plans (Observation 4.1 inputs)
            // use base-side references; accept both.
            if pred.uses_side(mdj_expr::Side::Base) {
                let bound = pred.bind(Some(rel.schema()), None)?;
                let mut out = Relation::empty(rel.schema().clone());
                for row in rel.iter() {
                    if bound.eval_bool(row.values(), &[])? {
                        out.push_unchecked(row.clone());
                    }
                }
                out
            } else {
                mdj_naive::ops::select(&rel, pred)?
            }
        }
        Plan::Project { input, cols } => {
            let rel = execute(input, catalog, ctx)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            rel.project(&names)?
        }
        Plan::Base { input, shape } => {
            base_values(&*execute(input, catalog, ctx)?, None, shape, ctx)?
        }
        Plan::Union(parts) => {
            let mut iter = parts.iter();
            let first = iter
                .next()
                .ok_or_else(|| AlgebraError::InvalidPlan("union of zero plans".into()))?;
            // The first part may be a lent relation: copy it once, then
            // append the rest in place.
            let mut acc = Arc::unwrap_or_clone(execute(first, catalog, ctx)?);
            for p in iter {
                let next = execute(p, catalog, ctx)?;
                acc.append(&next)?;
            }
            acc
        }
        Plan::MdJoin { .. } | Plan::GenMdJoin { .. } => return md_join(plan, false, catalog, ctx),
        Plan::Parallel { input } => return md_join(input, true, catalog, ctx),
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            keep_right,
        } => {
            let l = execute(left, catalog, ctx)?;
            let r = execute(right, catalog, ctx)?;
            let lk: Vec<&str> = left_keys.iter().map(String::as_str).collect();
            let rk: Vec<&str> = right_keys.iter().map(String::as_str).collect();
            let joined = mdj_naive::join::hash_join(&l, &r, &lk, &rk)?;
            // Keep left columns + the requested right columns.
            let keep_idx: Vec<usize> = {
                let mut idx: Vec<usize> = (0..l.schema().len()).collect();
                for name in keep_right {
                    let i = r.schema().index_of(name)?;
                    idx.push(l.schema().len() + i);
                }
                idx
            };
            let schema = joined.schema().project(&keep_idx);
            let rows = joined
                .iter()
                .map(|row| Row::new(row.key(&keep_idx)))
                .collect();
            Relation::from_rows(schema, rows)
        }
    }))
}

/// The per-plan-node prelude.
fn enter_node(ctx: &ExecContext) -> Result<()> {
    // Governor poll per plan node: a cancelled or timed-out query stops
    // between operators even when an individual operator's own polls are far
    // apart (e.g. a cheap Select feeding an expensive MD-join).
    ctx.check_interrupt()?;
    // Fault-injection site per plan node (constant false unless armed): a
    // typed failure here exercises the same error path a planner bug would.
    if ctx.fault_should_fail_planner() {
        return Err(AlgebraError::Core(mdj_core::CoreError::Internal(
            "injected fault: plan execution".into(),
        )));
    }
    Ok(())
}

/// The one place an MD-join node — single or generalized, k ≥ 1 (θ, l)
/// blocks — is evaluated: a bare node runs the scalar `Serial` reference, a
/// `served` one (under `Plan::Parallel`) the `Vectorized` batch evaluator.
///
/// 1. With one block, the cuboid cache answers the canonical group-by shape
///    `MD(γ_dims(T), T, l, θ_dims)` — exact repeats from the cached result,
///    coarser queries by rolling up a finer cached cuboid (Theorem 4.5); a
///    miss executes below over the shared resident table and the `Arc` it
///    returns is the one that becomes resident.
/// 2. The detail resolves to one source ([`detail_source`]). θ's detail-only
///    conjuncts — where the optimizer folds a `WHERE` (Theorem 4.2) — run as
///    the operator's prefilter, a selection vector per chunk on the batch
///    evaluator, and over a page store as clustered-key page pruning.
/// 3. Under `Parallel`, a group-by `γ_D(σ_p(T))` of the detail table `T`
///    itself is left to the operator ([`MdJoin::group_by`]), which builds it
///    inside its one scan of the source where θ allows; any other base
///    `γ(σ_p(T))` is built in one filtered pass over `T`
///    ([`basevalues::build_filtered`]).
///
/// A bare node's σs execute as written, so the reference `query_unoptimized`
/// runs shares neither the fold nor the base builds.
fn md_join(
    node: &Plan,
    served: bool,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> Result<Arc<Relation>> {
    let (base, detail, blocks) = match node {
        Plan::MdJoin {
            base,
            detail,
            aggs,
            theta,
        } => (base, detail, vec![Block::new(theta.clone(), aggs.clone())]),
        Plan::GenMdJoin {
            base,
            detail,
            blocks,
        } => (
            base,
            detail,
            blocks
                .iter()
                .map(|blk| Block::new(blk.theta.clone(), blk.aggs.clone()))
                .collect(),
        ),
        _ => {
            return Err(AlgebraError::InvalidPlan(format!(
                "Parallel may only wrap an MD-join node, got {node:?}"
            )))
        }
    };
    let miss = match blocks.as_slice() {
        [blk] => match cached_cuboid(base, detail, &blk.aggs, &blk.theta, catalog, ctx)? {
            Cached::Hit(rel) => return Ok(rel),
            Cached::Miss(req, detail_rel) => Some((req, detail_rel)),
            Cached::Bypass => None,
        },
        _ => None,
    };
    let source = match &miss {
        Some((_, detail_rel)) => Detail::Resident(detail_rel.clone()),
        None => detail_source(detail, catalog, ctx)?,
    };
    let src = match &source {
        Detail::Resident(r) => DetailSource::Resident(r),
        Detail::Paged(scan) => DetailSource::Paged(scan),
    };
    let b;
    let join = match own_group_by(base, detail).filter(|_| served) {
        Some((dims, pred)) => {
            enter_node(ctx)?;
            let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
            MdJoin::group_by(src, &dims, pred)
        }
        None => {
            b = match base.as_ref() {
                Plan::Base { input, shape } if served => match selected_table(input) {
                    Some((name, Some(pred))) => {
                        enter_node(ctx)?;
                        Arc::new(base_values(&*catalog.get(name)?, Some(&pred), shape, ctx)?)
                    }
                    _ => execute(base, catalog, ctx)?,
                },
                _ => execute(base, catalog, ctx)?,
            };
            match src {
                DetailSource::Resident(r) => MdJoin::new(&b, r),
                DetailSource::Paged(scan) => MdJoin::paged(&b, scan),
            }
        }
    }
    .blocks(blocks)
    .strategy(if served {
        ExecStrategy::Vectorized
    } else {
        ExecStrategy::Serial
    });
    let out = Arc::new(join.run(ctx)?);
    if let (Some((req, detail_rel)), Some(cache)) = (miss, ctx.cuboid_cache()) {
        cache.insert(&req, &detail_rel, out.clone());
    }
    Ok(out)
}

/// Where an MD-join node reads `R` from.
enum Detail {
    Resident(Arc<Relation>),
    Paged(PagedScan),
}

/// Resolve an MD-join node's detail plan to its source: a catalog table
/// streams from its page store whenever the engine has a buffer pool
/// attached, and is otherwise the catalog's shared `Arc`; any other detail
/// plan executes as written.
fn detail_source(detail: &Plan, catalog: &Catalog, ctx: &ExecContext) -> Result<Detail> {
    if let Plan::Table(name) = detail {
        if let Some((paged, pool)) = catalog.paged(name).zip(ctx.buffer_pool()) {
            return Ok(Detail::Paged(PagedScan::new(paged, pool)));
        }
    }
    Ok(Detail::Resident(execute(detail, catalog, ctx)?))
}

/// `(D, p)` when `base` is `γ_D(σ_p(T))`, a group-by of the node's own
/// detail table `T` under zero or more detail-side σs (`p` their conjunction,
/// `None` without one).
fn own_group_by<'p>(base: &'p Plan, detail: &Plan) -> Option<(&'p [String], Option<Expr>)> {
    let (
        Plan::Base {
            input,
            shape: BaseShape::GroupBy(dims),
        },
        Plan::Table(table),
    ) = (base, detail)
    else {
        return None;
    };
    let (name, pred) = selected_table(input)?;
    (name == table).then_some((dims.as_slice(), pred))
}

/// `(T, p)` when `plan` is catalog table `T` under zero or more detail-side
/// σs, `p` the conjunction of their predicates, innermost first (`None`
/// without a σ). A base-side predicate (an Observation 4.1 base input) does
/// not qualify.
fn selected_table(plan: &Plan) -> Option<(&str, Option<Expr>)> {
    match plan {
        Plan::Table(name) => Some((name, None)),
        Plan::Select { input, pred } if !pred.uses_side(mdj_expr::Side::Base) => {
            let (name, inner) = selected_table(input)?;
            let pred = match inner {
                Some(inner) => mdj_expr::builder::and(inner, pred.clone()),
                None => pred.clone(),
            };
            Some((name, Some(pred)))
        }
        _ => None,
    }
}

/// The base-values table of `shape` over `rel`, or over `σ_pred(rel)` in one
/// filtered pass when a detail-side `pred` is given.
fn base_values(
    rel: &Relation,
    pred: Option<&Expr>,
    shape: &BaseShape,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.count(Counter::base_passes, 1);
    let dims: Vec<&str> = shape.dims().iter().map(String::as_str).collect();
    let listed: Vec<Vec<&str>>;
    let sets = match shape {
        BaseShape::GroupBy(_) => Sets::GroupBy,
        BaseShape::Cube(_) => Sets::Cube,
        BaseShape::Rollup(_) => Sets::Rollup,
        BaseShape::GroupingSets(_, sets) => {
            listed = sets
                .iter()
                .map(|s| s.iter().map(String::as_str).collect())
                .collect();
            Sets::GroupingSets(&listed)
        }
        BaseShape::Unpivot(_) => Sets::Unpivot,
    };
    Ok(match pred {
        Some(pred) => basevalues::build_filtered(rel, pred, &dims, sets, ctx)?,
        None => basevalues::build(rel, &dims, sets)?,
    })
}

/// What the cuboid cache says about an MD-join node.
enum Cached {
    /// Resident, exactly or by a Theorem 4.5 roll-up.
    Hit(Arc<Relation>),
    /// Canonical but not resident: the request to make resident once the
    /// join has run, and the shared detail relation its validity is keyed on.
    Miss(CuboidRequest, Arc<Relation>),
    /// No cache configured, or the plan is not in canonical form.
    Bypass,
}

/// Consult the cuboid cache for the canonical group-by shape
/// `MD(γ_dims(T), T, l, θ_dims)`.
fn cached_cuboid(
    base: &Plan,
    detail: &Plan,
    aggs: &[mdj_agg::AggSpec],
    theta: &Expr,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> Result<Cached> {
    let Some(cache) = ctx.cuboid_cache() else {
        return Ok(Cached::Bypass);
    };
    let (
        Plan::Table(detail_name),
        Plan::Base {
            input,
            shape: BaseShape::GroupBy(dims),
        },
    ) = (detail, base)
    else {
        return Ok(Cached::Bypass);
    };
    let Plan::Table(base_name) = input.as_ref() else {
        return Ok(Cached::Bypass);
    };
    if base_name != detail_name || *theta != cuboid_theta(dims) {
        return Ok(Cached::Bypass);
    }
    // Resolve the *shared* Arc so the cache's pointer-identity validity test
    // sees the same allocation on every repeat of the query.
    let detail_rel = catalog.get(detail_name)?;
    let req = CuboidRequest::new(detail_name.clone(), dims.clone(), aggs.to_vec());
    let answer = cache.lookup(&req, &detail_rel, ctx)?;
    let outcome = match answer {
        CacheAnswer::Exact(_) => Counter::cache_hits,
        CacheAnswer::Rollup(_) => Counter::cache_rollup_hits,
        CacheAnswer::Miss => Counter::cache_misses,
    };
    ctx.count(outcome, 1);
    Ok(match answer {
        CacheAnswer::Exact(rel) | CacheAnswer::Rollup(rel) => Cached::Hit(rel),
        CacheAnswer::Miss => Cached::Miss(req, detail_rel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mk = |c: i64, m: i64, st: &str, s: f64| {
            Row::from_values(vec![
                Value::Int(c),
                Value::Int(m),
                Value::str(st),
                Value::Float(s),
            ])
        };
        let rel = Relation::from_rows(
            schema,
            vec![
                mk(1, 1, "NY", 10.0),
                mk(1, 2, "NY", 20.0),
                mk(2, 1, "NJ", 30.0),
                mk(2, 2, "CT", 40.0),
            ],
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    #[test]
    fn end_to_end_group_by_md_join() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.len(), 2);
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(30.0));
    }

    #[test]
    fn table_and_inline_nodes_lend_their_arc() {
        let cat = catalog();
        let ctx = ExecContext::new();
        let table = execute(&Plan::table("Sales"), &cat, &ctx).unwrap();
        assert!(Arc::ptr_eq(&table, &cat.get("Sales").unwrap()));
        let held = Arc::new(Relation::empty(table.schema().clone()));
        let inline = execute(&Plan::Inline(held.clone()), &cat, &ctx).unwrap();
        assert!(Arc::ptr_eq(&inline, &held));
    }

    #[test]
    fn select_pushes_into_detail() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales").select(eq(col_r("state"), lit("NY"))),
            vec![AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        let c2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(c2[1], Value::Int(0)); // outer semantics
    }

    #[test]
    fn cube_base_execution() {
        let plan = Plan::table("Sales").cube_base(&["cust", "month"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            mdj_core::basevalues::cube_match_theta(&["cust", "month"]),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        // distinct pairs 4 + custs 2 + months 2 + apex 1 = 9
        assert_eq!(out.len(), 9);
        let apex = out
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(100.0));
    }

    #[test]
    fn union_and_project() {
        let p = Plan::Union(vec![
            Plan::table("Sales").select(eq(col_r("cust"), lit(1i64))),
            Plan::table("Sales").select(eq(col_r("cust"), lit(2i64))),
        ])
        .project(&["cust", "sale"]);
        let out = execute(&p, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema().names(), vec!["cust", "sale"]);
    }

    #[test]
    fn gen_md_join_node() {
        use mdj_storage::ScanStats;
        let blocks = vec![
            crate::plan::PlanBlock::new(
                vec![AggSpec::on_column("sum", "sale").with_alias("s1")],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("month"), lit(1i64)),
                ),
            ),
            crate::plan::PlanBlock::new(
                vec![AggSpec::on_column("sum", "sale").with_alias("s2")],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("month"), lit(2i64)),
                ),
            ),
        ];
        let plan = Plan::GenMdJoin {
            base: Box::new(Plan::table("Sales").group_by_base(&["cust"])),
            detail: Box::new(Plan::table("Sales")),
            blocks,
        };
        let run = |plan: &Plan| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new().with_stats(stats.clone());
            (execute(plan, &catalog(), &ctx).unwrap(), stats)
        };
        // A bare generalized node is the scalar serial reference, as a bare
        // single-block node is: no batches.
        let (out, stats) = run(&plan);
        assert_eq!(stats.batches(), 0);
        assert_eq!(stats.scans(), 1, "all blocks share one scan");
        assert_eq!((stats.base_passes(), stats.base_fused()), (1, 0));
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(10.0));
        assert_eq!(c1[2], Value::Float(20.0));
        // Under `Parallel` it runs the batch evaluator, with no workers, and
        // builds the group-by base inside that one scan.
        let (par, stats) = run(&plan.parallel());
        assert!(stats.batches() > 0 && stats.workers().is_empty());
        assert_eq!(stats.scans(), 1);
        assert_eq!((stats.base_passes(), stats.base_fused()), (0, 1));
        assert_eq!(out.rows(), par.rows());
    }

    #[test]
    fn join_node_keeps_selected_right_columns() {
        let left = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("total")],
            eq(col_b("cust"), col_r("cust")),
        );
        let right = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star().with_alias("n")],
            eq(col_b("cust"), col_r("cust")),
        );
        let plan = Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec!["cust".into()],
            right_keys: vec!["cust".into()],
            keep_right: vec!["n".into()],
        };
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.schema().names(), vec!["cust", "total", "n"]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let plan = Plan::table("Nope");
        assert!(execute(&plan, &catalog(), &ExecContext::new()).is_err());
    }

    #[test]
    fn cuboid_cache_serves_repeats_and_rollups() {
        use mdj_core::EngineConfig;
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let cat = catalog();
        let engine = EngineConfig::new().with_cuboid_cache(1 << 20).build();
        let stats = Arc::new(ScanStats::new());
        let ctx = mdj_core::ExecContext::from_parts(
            engine,
            mdj_core::QueryCtx::new().with_stats(stats.clone()),
        );
        let fine = Plan::table("Sales")
            .group_by_base(&["cust", "month"])
            .md_join(
                Plan::table("Sales"),
                vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_b("month"), col_r("month")),
                ),
            );
        let cold = execute(&fine, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_misses(), 1);
        let warm = execute(&fine, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_hits(), 1);
        // The miss made resident the very `Arc` it returned, and the hit
        // lent it out again: one relation, never copied.
        assert!(Arc::ptr_eq(&cold, &warm));
        // A coarser query rolls up from the cached finer cuboid.
        let coarse = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let rolled = execute(&coarse, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_rollup_hits(), 1);
        let direct = execute(&coarse, &cat, &mdj_core::ExecContext::new()).unwrap();
        assert!(direct.same_multiset(&rolled));
        // ...and the rolled-up cuboid is resident too: its repeat is lent.
        assert!(Arc::ptr_eq(&rolled, &execute(&coarse, &cat, &ctx).unwrap()));
        // Non-canonical θ (extra predicate) bypasses the cache entirely.
        let filtered = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            and(
                eq(col_b("cust"), col_r("cust")),
                eq(col_r("state"), lit("NY")),
            ),
        );
        let (h, rh, m) = (
            stats.cache_hits(),
            stats.cache_rollup_hits(),
            stats.cache_misses(),
        );
        execute(&filtered, &cat, &ctx).unwrap();
        assert_eq!(
            (
                stats.cache_hits(),
                stats.cache_rollup_hits(),
                stats.cache_misses()
            ),
            (h, rh, m)
        );
    }

    #[test]
    fn cuboid_cache_is_consulted_under_parallel_too() {
        use mdj_core::EngineConfig;
        use mdj_storage::ScanStats;
        let cat = catalog();
        let engine = EngineConfig::new().with_cuboid_cache(1 << 20).build();
        let stats = Arc::new(ScanStats::new());
        let ctx = mdj_core::ExecContext::from_parts(
            engine,
            mdj_core::QueryCtx::new().with_stats(stats.clone()),
        );
        let md = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let serial = execute(&md, &cat, &ExecContext::new()).unwrap();
        let cold = execute(&md.clone().parallel(), &cat, &ctx).unwrap();
        assert_eq!((stats.cache_misses(), stats.cache_hits()), (1, 0));
        // The miss ran the join the plan asked for: the batch evaluator, on
        // no workers, building the group-by base inside its scan of the
        // resident table.
        assert!(stats.batches() > 0);
        assert!(stats.workers().is_empty());
        assert_eq!((stats.base_fused(), stats.base_passes()), (1, 0));
        let warm = execute(&md.parallel(), &cat, &ctx).unwrap();
        assert_eq!((stats.cache_misses(), stats.cache_hits()), (1, 1));
        assert_eq!(stats.scans(), 1, "the hit never touched the detail table");
        assert_eq!(serial.rows(), cold.rows());
        assert!(Arc::ptr_eq(&cold, &warm));
    }

    #[test]
    fn paged_detail_runs_from_disk_and_prunes_with_theta() {
        use mdj_core::{EngineConfig, PagedScan, QueryCtx};
        use mdj_storage::{BufferPool, PagedStore, ScanStats};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("mdj-algebra-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let rel = Relation::from_rows(
            schema,
            (0..240)
                .map(|i: i64| {
                    Row::from_values(vec![
                        Value::Int(i % 5),
                        Value::Int(1 + i % 12),
                        Value::Float(i as f64 * 0.5),
                    ])
                })
                .collect(),
        );
        cat.register("Sales", rel.clone());
        let rel = std::sync::Arc::new(rel);
        let (store, _) = PagedStore::open(&dir).unwrap();
        let table = store.create_table("Sales", &rel, "month", 256).unwrap();
        // Re-register in clustered order so the in-memory reference scans
        // rows exactly as the page store serves them.
        let clustered = table.read_all(None).unwrap();
        cat.register("Sales", clustered);
        cat.attach_paged("Sales", table.clone()).unwrap();
        let engine = EngineConfig::new().build();
        engine.attach_buffer_pool(BufferPool::new(64 * 1024));
        // `month >= 2` in θ, where the optimizer folds a WHERE.
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            and(
                ge(col_r("month"), lit(2i64)),
                eq(col_b("cust"), col_r("cust")),
            ),
        );
        let run = |plan: &Plan, engine: &Arc<EngineConfig>| {
            let stats = Arc::new(ScanStats::new());
            let ctx = mdj_core::ExecContext::from_parts(
                engine.clone(),
                QueryCtx::new().with_stats(stats.clone()),
            );
            (execute(plan, &cat, &ctx).unwrap(), stats)
        };
        let (paged_out, stats) = run(&plan, &engine);
        assert!(stats.pages_read() > 0, "detail must stream from disk");
        // The σ on the clustered key pruned at least one page: fewer pages
        // than the table holds were ever read.
        assert!(
            (stats.pages_read() as usize) < table.page_count(),
            "{} pages read of {}",
            stats.pages_read(),
            table.page_count()
        );
        // Identical rows to the pure in-memory path (no buffer pool → the
        // paged fast path never engages).
        let plain = EngineConfig::new().build();
        let (mem_out, mem_stats) = run(&plan, &plain);
        assert_eq!(mem_stats.pages_read(), 0);
        assert_eq!(mem_out.rows(), paged_out.rows());
        // A bare σ on the detail executes as written, from the resident
        // table: only the optimizer folds it.
        let Plan::MdJoin {
            base, aggs, theta, ..
        } = &plan
        else {
            unreachable!()
        };
        let sigma = Plan::MdJoin {
            base: base.clone(),
            detail: Box::new(Plan::table("Sales").select(ge(col_r("month"), lit(2i64)))),
            aggs: aggs.clone(),
            theta: theta.clone(),
        };
        engine.buffer_pool().unwrap().clear();
        let (sigma_out, sigma_stats) = run(&sigma, &engine);
        assert_eq!(sigma_stats.pages_read(), 0);
        assert_eq!(sigma_out.rows(), paged_out.rows());
        // A generalized node streams the same pages, bare or under
        // `Parallel`, and answers as its resident run does.
        let generalized = Plan::GenMdJoin {
            base: base.clone(),
            detail: Box::new(Plan::table("Sales")),
            blocks: vec![
                crate::plan::PlanBlock::new(aggs.clone(), theta.clone()),
                crate::plan::PlanBlock::new(
                    vec![AggSpec::count_star()],
                    and(
                        le(col_r("month"), lit(6i64)),
                        eq(col_b("cust"), col_r("cust")),
                    ),
                ),
            ],
        };
        let (mem_gen, _) = run(&generalized, &plain);
        for plan in [generalized.clone(), generalized.parallel()] {
            engine.buffer_pool().unwrap().clear();
            let (gen_out, gen_stats) = run(&plan, &engine);
            assert!(gen_stats.pages_read() > 0, "generalized detail must stream");
            assert_eq!(gen_out.rows(), mem_gen.rows());
        }
        // Under `Parallel` the group-by base is built inside the one paged
        // scan, never from the resident copy. With no σ under the base every
        // customer is a group, so no page may be pruned.
        engine.buffer_pool().unwrap().clear();
        let (fused_out, fused_stats) = run(&plan.clone().parallel(), &engine);
        assert_eq!(
            (fused_stats.base_fused(), fused_stats.base_passes()),
            (1, 0)
        );
        assert_eq!(fused_stats.pages_read() as usize, table.page_count());
        assert_eq!(fused_out.rows(), mem_out.rows());
        // A σ under the base prunes that one scan by its clustered-key bounds.
        let Plan::MdJoin { detail, .. } = &plan else {
            unreachable!()
        };
        let where_month = Plan::MdJoin {
            base: Box::new(
                Plan::table("Sales")
                    .select(ge(col_r("month"), lit(2i64)))
                    .group_by_base(&["cust"]),
            ),
            detail: detail.clone(),
            aggs: aggs.clone(),
            theta: theta.clone(),
        };
        let (mem_where, _) = run(&where_month, &plain);
        engine.buffer_pool().unwrap().clear();
        let (fused_where, where_stats) = run(&where_month.parallel(), &engine);
        assert_eq!(
            (where_stats.base_fused(), where_stats.base_passes()),
            (1, 0)
        );
        assert!((where_stats.pages_read() as usize) < table.page_count());
        assert_eq!(fused_where.rows(), mem_where.rows());
        // Materialized pruning is sound for strategies that delegate.
        let scan = PagedScan::new(table, engine.buffer_pool().unwrap());
        let ctx = mdj_core::ExecContext::from_parts(engine.clone(), QueryCtx::default());
        assert_eq!(scan.materialize(&ctx).unwrap().len(), rel.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_over_non_md_join_is_rejected() {
        let plan = Plan::table("Sales").parallel();
        let err = execute(&plan, &catalog(), &ExecContext::new());
        assert!(matches!(err, Err(AlgebraError::InvalidPlan(_))));
    }
}
