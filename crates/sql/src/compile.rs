//! Query compilation: parsed AST → MD-join algebra plan.
//!
//! The compilation scheme is the paper's: the group clause defines a
//! base-values table; every aggregation context — the group itself or a
//! grouping variable — becomes one MD-join over the (WHERE-filtered) source
//! table; conditions that reference earlier aggregates read them as base
//! columns (exactly Example 3.2's θ₂). The resulting chain is handed to the
//! optimizer, which coalesces independent stages into single scans.

use crate::ast::{GroupClause, PExpr, Query, SelectItem, Shape};
use crate::error::{Result, SqlError};
use mdj_agg::{AggInput, AggSpec, Registry};
use mdj_algebra::{BaseShape, Plan};
use mdj_core::basevalues::{cube_match_theta, cuboid_theta};
use mdj_expr::builder::{col_b, col_r};
use mdj_expr::{BinOp, Expr};
use mdj_storage::{Catalog, Relation, Row, Schema};

/// A compiled query: the (unoptimized) plan, the select-list output columns
/// in order, an optional post-filter (HAVING) over the plan's output, and
/// presentation clauses (ORDER BY / LIMIT).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub plan: Plan,
    pub output_cols: Vec<String>,
    pub having: Option<Expr>,
    pub order_by: Vec<crate::ast::OrderKey>,
    pub limit: Option<usize>,
    /// A faster physical alternative for `ANALYZE BY` cuboid-family queries:
    /// the Theorem 4.1 per-cuboid expansion (hash probes) or, for fully
    /// distributive cubes, the Theorem 4.5 roll-up chain — instead of the
    /// generic plan's wildcard `ALL`-θ MD-join. `query()` takes this path;
    /// `query_unoptimized()` executes the generic plan, so the two can be
    /// cross-checked.
    pub fast_cube: Option<FastCube>,
}

/// The ingredients of the fast cuboid-family path (see [`CompiledQuery::fast_cube`]).
#[derive(Debug, Clone)]
pub struct FastCube {
    /// The (WHERE-filtered) detail source.
    pub source: Plan,
    pub dims: Vec<String>,
    pub aggs: Vec<AggSpec>,
    pub shape: mdj_cube::sets::SetShape,
}

/// Alias for an aggregate in a scope (`avg(X.sale)` → `avg_X_sale`).
fn scoped_alias(func: &str, scope: Option<&str>, column: Option<&str>) -> String {
    let col = column.unwrap_or("star");
    match scope {
        Some(s) => format!("{func}_{s}_{col}"),
        None => format!("{func}_{col}"),
    }
}

fn agg_spec(func: &str, column: Option<&str>, alias: String) -> AggSpec {
    match column {
        Some(c) => AggSpec::on_column(func, c).with_alias(alias),
        None => AggSpec::new(
            if func == "count" { "count(*)" } else { func },
            AggInput::Star,
        )
        .with_alias(alias),
    }
}

/// A `?` placeholder reached compilation without a bound value: the query
/// must go through `SqlEngine::prepare` + `execute_prepared`.
fn unbound_param(i: usize) -> SqlError {
    SqlError::Bind(format!(
        "unbound parameter ?{} — prepare the statement and execute it with values",
        i + 1
    ))
}

fn binop(op: &str) -> Result<BinOp> {
    Ok(match op {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Mod,
        "=" => BinOp::Eq,
        "<>" => BinOp::Ne,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "AND" => BinOp::And,
        "OR" => BinOp::Or,
        other => return Err(SqlError::Compile(format!("unknown operator `{other}`"))),
    })
}

/// How bare / qualified / aggregate references resolve in one context.
struct ResolveCtx<'a> {
    /// Grouping attributes (base columns).
    attrs: &'a [String],
    /// Name of the grouping variable whose condition we are compiling
    /// (its columns are the detail side). `None` outside var conditions.
    current_var: Option<&'a str>,
    /// The source table name (whose columns are detail columns).
    from: &'a str,
    /// Aggregates already computed (scope → available) — referenced via base
    /// columns. Checked so `avg(X.sale)` can't read a later variable.
    available_scopes: &'a [String],
    /// All aggregate aliases demanded so far; resolution may add group-scope
    /// aggregates discovered inside conditions.
    demanded: &'a mut Vec<(Option<String>, AggSpec)>,
}

fn resolve(e: &PExpr, ctx: &mut ResolveCtx<'_>) -> Result<Expr> {
    match e {
        PExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        PExpr::Param(i) => Err(unbound_param(*i)),
        PExpr::Ident(name) => {
            if ctx.attrs.contains(name) {
                Ok(col_b(name.clone()))
            } else if ctx.current_var.is_some() {
                // Inside a var condition a bare non-attribute name is a
                // detail column of the variable's range.
                Ok(col_r(name.clone()))
            } else {
                Ok(col_r(name.clone()))
            }
        }
        PExpr::Qualified(q, name) => {
            if Some(q.as_str()) == ctx.current_var || q == ctx.from {
                Ok(col_r(name.clone()))
            } else if ctx.attrs.contains(q) {
                Err(SqlError::Compile(format!(
                    "`{q}.{name}`: `{q}` is a grouping attribute, not a relation"
                )))
            } else {
                Err(SqlError::Compile(format!(
                    "`{q}.{name}`: grouping variable `{q}` columns are only \
                     readable inside its own condition or via aggregates"
                )))
            }
        }
        PExpr::AggCall {
            func,
            scope,
            column,
        } => {
            // An aggregate in expression position reads a base column
            // produced by an earlier MD-join.
            if let Some(s) = scope {
                let ok = ctx.available_scopes.iter().any(|a| a == s);
                if !ok {
                    return Err(SqlError::Compile(format!(
                        "aggregate over grouping variable `{s}` referenced \
                         before `{s}` is computed"
                    )));
                }
            }
            let alias = scoped_alias(func, scope.as_deref(), column.as_deref());
            let key = (
                scope.clone(),
                agg_spec(func, column.as_deref(), alias.clone()),
            );
            if !ctx
                .demanded
                .iter()
                .any(|(sc, sp)| sc == &key.0 && sp.output_name() == key.1.output_name())
            {
                ctx.demanded.push(key);
            }
            Ok(col_b(alias))
        }
        PExpr::Binary { op, lhs, rhs } => {
            let op = binop(op)?;
            Ok(Expr::Binary {
                op,
                lhs: Box::new(resolve(lhs, ctx)?),
                rhs: Box::new(resolve(rhs, ctx)?),
            })
        }
        PExpr::Not(inner) => Ok(Expr::Not(Box::new(resolve(inner, ctx)?))),
    }
}

/// Resolve a WHERE predicate (detail columns only, no aggregates).
fn resolve_where(e: &PExpr, from: &str) -> Result<Expr> {
    match e {
        PExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        PExpr::Param(i) => Err(unbound_param(*i)),
        PExpr::Ident(name) => Ok(col_r(name.clone())),
        PExpr::Qualified(q, name) if q == from => Ok(col_r(name.clone())),
        PExpr::Qualified(q, name) => Err(SqlError::Compile(format!(
            "WHERE cannot reference `{q}.{name}`"
        ))),
        PExpr::AggCall { func, .. } => Err(SqlError::Compile(format!(
            "aggregate `{func}` not allowed in WHERE"
        ))),
        PExpr::Binary { op, lhs, rhs } => Ok(Expr::Binary {
            op: binop(op)?,
            lhs: Box::new(resolve_where(lhs, from)?),
            rhs: Box::new(resolve_where(rhs, from)?),
        }),
        PExpr::Not(inner) => Ok(Expr::Not(Box::new(resolve_where(inner, from)?))),
    }
}

/// Resolve HAVING over the *result* schema: attrs and aggregate aliases are
/// plain (detail-side) columns of the final relation.
fn resolve_having(e: &PExpr) -> Result<Expr> {
    match e {
        PExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        PExpr::Param(i) => Err(unbound_param(*i)),
        PExpr::Ident(name) => Ok(col_r(name.clone())),
        PExpr::Qualified(q, name) => Err(SqlError::Compile(format!(
            "HAVING cannot reference `{q}.{name}`"
        ))),
        PExpr::AggCall {
            func,
            scope,
            column,
        } => Ok(col_r(scoped_alias(
            func,
            scope.as_deref(),
            column.as_deref(),
        ))),
        PExpr::Binary { op, lhs, rhs } => Ok(Expr::Binary {
            op: binop(op)?,
            lhs: Box::new(resolve_having(lhs)?),
            rhs: Box::new(resolve_having(rhs)?),
        }),
        PExpr::Not(inner) => Ok(Expr::Not(Box::new(resolve_having(inner)?))),
    }
}

/// Compile a parsed query to a plan.
pub fn compile(q: &Query, _catalog: &Catalog, _registry: &Registry) -> Result<CompiledQuery> {
    let src = {
        let table = Plan::table(&q.from);
        match &q.where_clause {
            Some(w) => table.select(resolve_where(w, &q.from)?),
            None => table,
        }
    };

    match &q.group {
        GroupClause::None => compile_global(q, src),
        GroupClause::GroupBy { attrs, vars } => compile_group_by(q, src, attrs, vars),
        GroupClause::AnalyzeBy { shape, attrs } => compile_analyze_by(q, src, shape, attrs),
    }
}

/// No grouping: one global group (a one-row, zero-column base table).
fn compile_global(q: &Query, src: Plan) -> Result<CompiledQuery> {
    let mut aggs = Vec::new();
    let mut output_cols = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Column(c) => {
                return Err(SqlError::Compile(format!(
                    "column `{c}` requires a GROUP BY or ANALYZE BY clause"
                )))
            }
            SelectItem::Agg {
                func,
                scope,
                column,
                ..
            } => {
                if scope.is_some() {
                    return Err(SqlError::Compile(
                        "grouping variables require a GROUP BY clause".into(),
                    ));
                }
                let alias = item.output_name();
                aggs.push(agg_spec(func, column.as_deref(), alias.clone()));
                output_cols.push(alias);
            }
        }
    }
    reject_duplicate_outputs(&output_cols)?;
    let one_row = Relation::from_rows(Schema::new(vec![]), vec![Row::new(vec![])]);
    let plan = Plan::inline(one_row).md_join(src, aggs, Expr::always_true());
    let having = q.having.as_ref().map(resolve_having).transpose()?;
    let order_by = validated_order(q, &output_cols)?;
    Ok(CompiledQuery {
        plan,
        output_cols,
        having,
        order_by,
        limit: q.limit,
        fast_cube: None,
    })
}

/// Two select items resolving to the same output column would silently
/// shadow each other (the `demanded` dedup keys on output name, so
/// `sum(sale) as x, count(*) as x` would even drop the second aggregate):
/// reject with the typed error instead.
fn reject_duplicate_outputs(output_cols: &[String]) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    for name in output_cols {
        if !seen.insert(name.as_str()) {
            return Err(SqlError::DuplicateAlias(name.clone()));
        }
    }
    Ok(())
}

/// ORDER BY keys must name select-list output columns.
fn validated_order(q: &Query, output_cols: &[String]) -> Result<Vec<crate::ast::OrderKey>> {
    for key in &q.order_by {
        if !output_cols.contains(&key.column) {
            return Err(SqlError::Compile(format!(
                "ORDER BY column `{}` is not in the select list",
                key.column
            )));
        }
    }
    Ok(q.order_by.clone())
}

fn compile_group_by(
    q: &Query,
    src: Plan,
    attrs: &[String],
    vars: &[crate::ast::GroupingVar],
) -> Result<CompiledQuery> {
    // Pass 1: demanded aggregates from the select list.
    let mut demanded: Vec<(Option<String>, AggSpec)> = Vec::new();
    let mut output_cols = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Column(c) => {
                if !attrs.contains(c) {
                    return Err(SqlError::Compile(format!(
                        "select column `{c}` is not a grouping attribute"
                    )));
                }
                output_cols.push(c.clone());
            }
            SelectItem::Agg {
                func,
                scope,
                column,
                ..
            } => {
                if let Some(s) = scope {
                    if !vars.iter().any(|v| &v.name == s) {
                        return Err(SqlError::Compile(format!(
                            "unknown grouping variable `{s}`"
                        )));
                    }
                }
                let alias = item.output_name();
                let spec = agg_spec(func, column.as_deref(), alias.clone());
                if !demanded
                    .iter()
                    .any(|(sc, sp)| sc == scope && sp.output_name() == alias)
                {
                    demanded.push((scope.clone(), spec));
                }
                output_cols.push(alias);
            }
        }
    }

    reject_duplicate_outputs(&output_cols)?;

    // Pass 2: resolve each variable's θ in declaration order; resolution may
    // demand additional aggregates (from earlier scopes only).
    let group_theta_expr = if attrs.is_empty() {
        Expr::always_true()
    } else {
        let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
        cuboid_theta(&names)
    };
    let mut available: Vec<String> = Vec::new(); // scopes computed so far (group = "")
    let mut var_thetas: Vec<(String, Expr)> = Vec::new();
    for var in vars {
        let mut ctx = ResolveCtx {
            attrs,
            current_var: Some(&var.name),
            from: &q.from,
            available_scopes: &{
                let mut v = available.clone();
                // Group-scope aggregates are always available (the group block
                // is emitted first).
                v.push(String::new());
                v
            },
            demanded: &mut demanded,
        };
        // Group-scope aggs are referenced with scope None → allowed; var
        // scopes must be in `available`.
        let theta_own = resolve(&var.condition, &mut ctx)?;
        // The variable ranges over detail tuples satisfying its condition
        // *and* belonging to... no: EMF grouping variables are constrained
        // only by their such-that condition (which typically includes the
        // group equalities explicitly).
        var_thetas.push((var.name.clone(), theta_own));
        available.push(var.name.clone());
    }
    // HAVING may also demand aggregates.
    if let Some(h) = &q.having {
        collect_having_demands(h, vars, &mut demanded)?;
    }

    // Assemble: base → group block → one MD-join per variable.
    let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let mut plan = src.clone().group_by_base(&names);
    let group_aggs: Vec<AggSpec> = demanded
        .iter()
        .filter(|(sc, _)| sc.is_none())
        .map(|(_, sp)| sp.clone())
        .collect();
    if !group_aggs.is_empty() {
        plan = plan.md_join(src.clone(), group_aggs, group_theta_expr);
    }
    for (name, theta) in var_thetas {
        let var_aggs: Vec<AggSpec> = demanded
            .iter()
            .filter(|(sc, _)| sc.as_deref() == Some(name.as_str()))
            .map(|(_, sp)| sp.clone())
            .collect();
        if var_aggs.is_empty() {
            // A variable nobody aggregates is legal but useless; count(*) it
            // so the stage still materializes (and the user can see why).
            continue;
        }
        plan = plan.md_join(src.clone(), var_aggs, theta);
    }

    let having = q.having.as_ref().map(resolve_having).transpose()?;
    let order_by = validated_order(q, &output_cols)?;
    Ok(CompiledQuery {
        plan,
        output_cols,
        having,
        order_by,
        limit: q.limit,
        fast_cube: None,
    })
}

/// Pass over HAVING to demand aggregates it references (scope must exist).
fn collect_having_demands(
    e: &PExpr,
    vars: &[crate::ast::GroupingVar],
    demanded: &mut Vec<(Option<String>, AggSpec)>,
) -> Result<()> {
    match e {
        PExpr::AggCall {
            func,
            scope,
            column,
        } => {
            if let Some(s) = scope {
                if !vars.iter().any(|v| &v.name == s) {
                    return Err(SqlError::Compile(format!(
                        "unknown grouping variable `{s}` in HAVING"
                    )));
                }
            }
            let alias = scoped_alias(func, scope.as_deref(), column.as_deref());
            if !demanded
                .iter()
                .any(|(sc, sp)| sc == scope && sp.output_name() == alias)
            {
                demanded.push((scope.clone(), agg_spec(func, column.as_deref(), alias)));
            }
            Ok(())
        }
        PExpr::Binary { lhs, rhs, .. } => {
            collect_having_demands(lhs, vars, demanded)?;
            collect_having_demands(rhs, vars, demanded)
        }
        PExpr::Not(inner) => collect_having_demands(inner, vars, demanded),
        _ => Ok(()),
    }
}

fn compile_analyze_by(
    q: &Query,
    src: Plan,
    shape: &Shape,
    attrs: &[String],
) -> Result<CompiledQuery> {
    let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let base = match shape {
        Shape::Group => src.clone().group_by_base(&names),
        Shape::Cube => src.clone().cube_base(&names),
        Shape::Rollup => src.clone().base(BaseShape::Rollup(attrs.to_vec())),
        Shape::Unpivot => src.clone().base(BaseShape::Unpivot(attrs.to_vec())),
        Shape::GroupingSets(sets) => src
            .clone()
            .base(BaseShape::GroupingSets(attrs.to_vec(), sets.clone())),
        Shape::Table(t) => Plan::table(t).project(&names),
    };
    let theta = match shape {
        Shape::Group => cuboid_theta(&names),
        // Cube-family bases (and external tables, which may hold ALL
        // markers, per Example 2.4) use the ALL-wildcard θ.
        _ => cube_match_theta(&names),
    };
    let mut aggs = Vec::new();
    let mut output_cols = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Column(c) => {
                if !attrs.contains(c) {
                    return Err(SqlError::Compile(format!(
                        "select column `{c}` is not an ANALYZE BY attribute"
                    )));
                }
                output_cols.push(c.clone());
            }
            SelectItem::Agg {
                func,
                scope,
                column,
                ..
            } => {
                if scope.is_some() {
                    return Err(SqlError::Compile(
                        "grouping variables are not allowed with ANALYZE BY".into(),
                    ));
                }
                let alias = item.output_name();
                aggs.push(agg_spec(func, column.as_deref(), alias.clone()));
                output_cols.push(alias);
            }
        }
    }
    if aggs.is_empty() {
        return Err(SqlError::Compile(
            "ANALYZE BY requires at least one aggregate in the select list".into(),
        ));
    }
    reject_duplicate_outputs(&output_cols)?;
    let fast_shape = match shape {
        Shape::Cube => Some(mdj_cube::sets::SetShape::Cube),
        Shape::Rollup => Some(mdj_cube::sets::SetShape::Rollup),
        Shape::Unpivot => Some(mdj_cube::sets::SetShape::Unpivot),
        Shape::GroupingSets(sets) => {
            let masks: Vec<u32> = sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|name| {
                            attrs
                                .iter()
                                .position(|a| a == name)
                                .map(|i| 1u32 << i)
                                .ok_or_else(|| {
                                    SqlError::Compile(format!(
                                        "grouping set member `{name}` not in dims"
                                    ))
                                })
                        })
                        .try_fold(0u32, |m, bit| bit.map(|b| m | b))
                })
                .collect::<Result<_>>()?;
            Some(mdj_cube::sets::SetShape::Explicit(masks))
        }
        // Plain GROUP shape is already hash-probed; external tables cannot
        // be enumerated into cuboids.
        Shape::Group | Shape::Table(_) => None,
    };
    let fast_cube = fast_shape.map(|shape| FastCube {
        source: src.clone(),
        dims: attrs.to_vec(),
        aggs: aggs.clone(),
        shape,
    });
    let plan = base.md_join(src, aggs, theta);
    let having = q.having.as_ref().map(resolve_having).transpose()?;
    let order_by = validated_order(q, &output_cols)?;
    Ok(CompiledQuery {
        plan,
        output_cols,
        having,
        order_by,
        limit: q.limit,
        fast_cube,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_str(s: &str) -> Result<CompiledQuery> {
        let q = parse(s)?;
        compile(&q, &Catalog::new(), &Registry::standard())
    }

    #[test]
    fn duplicate_output_aliases_are_rejected() {
        // Explicit AS collision.
        let err =
            compile_str("select cust, sum(sale) as x, count(*) as x from Sales group by cust")
                .unwrap_err();
        assert!(
            matches!(err, SqlError::DuplicateAlias(ref n) if n == "x"),
            "{err}"
        );
        // Implicit collision: the same aggregate twice.
        let err =
            compile_str("select cust, sum(sale), sum(sale) from Sales group by cust").unwrap_err();
        assert!(matches!(err, SqlError::DuplicateAlias(ref n) if n == "sum_sale"));
        // Aggregate alias shadowing a grouping column.
        let err =
            compile_str("select cust, count(*) as cust from Sales group by cust").unwrap_err();
        assert!(matches!(err, SqlError::DuplicateAlias(ref n) if n == "cust"));
        // Global and ANALYZE BY paths reject too.
        assert!(matches!(
            compile_str("select sum(sale) as t, count(*) as t from Sales"),
            Err(SqlError::DuplicateAlias(_))
        ));
        assert!(matches!(
            compile_str(
                "select cust, sum(sale) as t, min(sale) as t from Sales analyze by cube(cust)"
            ),
            Err(SqlError::DuplicateAlias(_))
        ));
        // Distinct aliases for the same aggregate stay legal.
        assert!(compile_str(
            "select cust, sum(sale) as a, sum(sale) as b from Sales group by cust"
        )
        .is_ok());
    }

    #[test]
    fn group_by_compiles_to_single_md_join() {
        let c = compile_str("select cust, avg(sale), count(*) from Sales group by cust").unwrap();
        assert_eq!(c.plan.md_join_count(), 1);
        assert_eq!(c.output_cols, vec!["cust", "avg_sale", "count_star"]);
    }

    #[test]
    fn grouping_vars_compile_to_chain() {
        let c = compile_str(
            "select cust, avg(X.sale), avg(Y.sale) from Sales group by cust ; X, Y \
             such that X.cust = cust and X.state = 'NY', \
                       Y.cust = cust and Y.state = 'NJ'",
        )
        .unwrap();
        assert_eq!(c.plan.md_join_count(), 2);
        assert_eq!(c.output_cols, vec!["cust", "avg_X_sale", "avg_Y_sale"]);
    }

    #[test]
    fn later_var_may_read_earlier_aggregate() {
        let c = compile_str(
            "select prod, count(Z.*) from Sales group by prod ; X, Z \
             such that X.prod = prod, \
                       Z.prod = prod and Z.sale > avg(X.sale)",
        )
        .unwrap();
        // X block + Z block.
        assert_eq!(c.plan.md_join_count(), 2);
    }

    #[test]
    fn forward_reference_rejected() {
        let err = compile_str(
            "select prod, count(X.*) from Sales group by prod ; X, Z \
             such that X.prod = prod and X.sale > avg(Z.sale), \
                       Z.prod = prod",
        );
        assert!(matches!(err, Err(SqlError::Compile(_))));
    }

    #[test]
    fn group_aggregate_demanded_by_condition() {
        // avg(sale) appears only inside Z's condition → the group block must
        // still compute it.
        let c = compile_str(
            "select prod, count(Z.*) from Sales group by prod ; Z \
             such that Z.prod = prod and Z.sale > avg(sale)",
        )
        .unwrap();
        // Group block (for avg_sale) + Z block.
        assert_eq!(c.plan.md_join_count(), 2);
    }

    #[test]
    fn analyze_by_cube_theta_is_wildcard() {
        let c =
            compile_str("select prod, month, sum(sale) from Sales analyze by cube(prod, month)")
                .unwrap();
        match &c.plan {
            Plan::MdJoin { theta, .. } => {
                assert!(theta.to_string().contains("ALL"));
            }
            _ => panic!("expected MdJoin root"),
        }
    }

    #[test]
    fn analyze_by_table_projects_external_base() {
        let c = compile_str("select prod, month, sum(sale) from Sales analyze by T(prod, month)")
            .unwrap();
        match &c.plan {
            Plan::MdJoin { base, .. } => {
                assert!(matches!(base.as_ref(), Plan::Project { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn global_aggregate_without_grouping() {
        let c = compile_str("select count(*), sum(sale) from Sales").unwrap();
        assert_eq!(c.output_cols, vec!["count_star", "sum_sale"]);
        assert_eq!(c.plan.md_join_count(), 1);
    }

    #[test]
    fn bad_select_column_rejected() {
        assert!(matches!(
            compile_str("select state, count(*) from Sales group by cust"),
            Err(SqlError::Compile(_))
        ));
        assert!(matches!(
            compile_str("select cust from Sales"),
            Err(SqlError::Compile(_))
        ));
    }

    #[test]
    fn where_with_aggregate_rejected() {
        assert!(matches!(
            compile_str("select count(*) from Sales where avg(sale) > 1"),
            Err(SqlError::Compile(_))
        ));
    }

    #[test]
    fn having_demands_aggregates() {
        let c = compile_str("select cust from Sales group by cust having sum(sale) > 100").unwrap();
        // The group block is created solely for HAVING's sum.
        assert_eq!(c.plan.md_join_count(), 1);
        assert!(c.having.is_some());
    }
}
