//! Logical plans with an MD-join node.

use crate::error::{AlgebraError, Result};
use mdj_agg::{AggSpec, Registry};
use mdj_core::output_schema;
use mdj_expr::Expr;
use mdj_storage::{Catalog, Relation, Schema};
use std::sync::Arc;

/// How a base-values table is derived from its input (Section 2's shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum BaseShape {
    /// `select distinct dims` — plain group-by base.
    GroupBy(Vec<String>),
    /// Full data cube with `ALL` (Example 2.1).
    Cube(Vec<String>),
    /// SQL99 ROLLUP prefixes.
    Rollup(Vec<String>),
    /// SQL99 GROUPING SETS; each inner list names the kept dims.
    GroupingSets(Vec<String>, Vec<Vec<String>>),
    /// One-dimensional marginals (\[GFC98\] unpivot).
    Unpivot(Vec<String>),
}

impl BaseShape {
    /// The dimension columns of the resulting base table.
    pub fn dims(&self) -> &[String] {
        match self {
            BaseShape::GroupBy(d)
            | BaseShape::Cube(d)
            | BaseShape::Rollup(d)
            | BaseShape::GroupingSets(d, _)
            | BaseShape::Unpivot(d) => d,
        }
    }
}

/// One (l, θ) block of a generalized MD-join plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBlock {
    pub aggs: Vec<AggSpec>,
    pub theta: Expr,
}

impl PlanBlock {
    pub fn new(aggs: Vec<AggSpec>, theta: Expr) -> Self {
        PlanBlock { aggs, theta }
    }

    /// Output column names this block appends.
    pub fn output_names(&self) -> Vec<String> {
        self.aggs.iter().map(|a| a.output_name()).collect()
    }
}

/// A logical query plan. `B` and `R` operands of MD-joins are full plans,
/// matching the paper's "B as well as R can be the result of a relational
/// algebra expression".
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A named relation resolved against the catalog at execution time.
    Table(String),
    /// A literal relation embedded in the plan.
    Inline(Arc<Relation>),
    /// σ — predicate references the input with `Side::Detail`.
    Select { input: Box<Plan>, pred: Expr },
    /// π — plain column projection.
    Project { input: Box<Plan>, cols: Vec<String> },
    /// Base-values derivation (distinct / cube / rollup / …).
    Base { input: Box<Plan>, shape: BaseShape },
    /// Multiset union of identically-shaped plans (Theorem 4.1's ⋃).
    Union(Vec<Plan>),
    /// The MD-join `MD(base, detail, aggs, θ)`.
    MdJoin {
        base: Box<Plan>,
        detail: Box<Plan>,
        aggs: Vec<AggSpec>,
        theta: Expr,
    },
    /// The generalized MD-join `MD(base, detail, (l₁..l_k), (θ₁..θ_k))`.
    GenMdJoin {
        base: Box<Plan>,
        detail: Box<Plan>,
        blocks: Vec<PlanBlock>,
    },
    /// Equi-join (Theorem 4.4's ⋈). Keys name columns on each side.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        /// Right columns to append (by name); defaults to all non-key columns.
        keep_right: Vec<String>,
    },
    /// Serve the wrapped MD-join: the batch evaluator in one scan of `R`
    /// on the serial driver, degrading under a budget by Theorem 4.1. Only
    /// meaningful around `MdJoin` or `GenMdJoin`; the optimizer wraps every
    /// MD-join in one.
    Parallel { input: Box<Plan> },
}

impl Plan {
    pub fn table(name: impl Into<String>) -> Plan {
        Plan::Table(name.into())
    }

    pub fn inline(rel: Relation) -> Plan {
        Plan::Inline(Arc::new(rel))
    }

    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    pub fn project(self, cols: &[&str]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            cols: cols.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn base(self, shape: BaseShape) -> Plan {
        Plan::Base {
            input: Box::new(self),
            shape,
        }
    }

    pub fn group_by_base(self, dims: &[&str]) -> Plan {
        self.base(BaseShape::GroupBy(
            dims.iter().map(|s| s.to_string()).collect(),
        ))
    }

    pub fn cube_base(self, dims: &[&str]) -> Plan {
        self.base(BaseShape::Cube(
            dims.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// Wrap in an MD-join as the base operand.
    pub fn md_join(self, detail: Plan, aggs: Vec<AggSpec>, theta: Expr) -> Plan {
        Plan::MdJoin {
            base: Box::new(self),
            detail: Box::new(detail),
            aggs,
            theta,
        }
    }

    /// Wrap in a [`Plan::Parallel`] node, the served plan.
    pub fn parallel(self) -> Plan {
        Plan::Parallel {
            input: Box::new(self),
        }
    }

    /// The schema this plan produces. Requires the catalog (for `Table`) and
    /// the aggregate registry (for MD-join output columns).
    pub fn schema(&self, catalog: &Catalog, registry: &Registry) -> Result<Schema> {
        match self {
            Plan::Table(name) => Ok(catalog.get(name)?.schema().clone()),
            Plan::Inline(rel) => Ok(rel.schema().clone()),
            Plan::Select { input, .. } => input.schema(catalog, registry),
            Plan::Project { input, cols } => {
                let s = input.schema(catalog, registry)?;
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                let idx = s.indices_of(&names)?;
                Ok(s.project(&idx))
            }
            Plan::Base { input, shape } => {
                let s = input.schema(catalog, registry)?;
                let names: Vec<&str> = shape.dims().iter().map(String::as_str).collect();
                let idx = s.indices_of(&names)?;
                Ok(s.project(&idx))
            }
            Plan::Union(parts) => {
                let first = parts
                    .first()
                    .ok_or_else(|| AlgebraError::InvalidPlan("union of zero plans".into()))?;
                first.schema(catalog, registry)
            }
            Plan::MdJoin {
                base, detail, aggs, ..
            } => {
                let b = base.schema(catalog, registry)?;
                let r = detail.schema(catalog, registry)?;
                Ok(output_schema(&b, &r, aggs, registry)?)
            }
            Plan::GenMdJoin {
                base,
                detail,
                blocks,
            } => {
                let mut schema = base.schema(catalog, registry)?;
                let r = detail.schema(catalog, registry)?;
                for blk in blocks {
                    // output_schema checks collisions against the growing schema.
                    schema = output_schema(&schema, &r, &blk.aggs, registry)?;
                }
                Ok(schema)
            }
            Plan::Join {
                left,
                right,
                keep_right,
                ..
            } => {
                let l = left.schema(catalog, registry)?;
                let r = right.schema(catalog, registry)?;
                let mut fields = l.fields().to_vec();
                for name in keep_right {
                    let i = r.index_of(name)?;
                    fields.push(r.field(i).clone());
                }
                Ok(Schema::new(fields))
            }
            Plan::Parallel { input, .. } => input.schema(catalog, registry),
        }
    }

    /// The names of columns appended by this node if it is an MD-join
    /// (used by the Theorem 4.3 independence test).
    pub fn appended_columns(&self) -> Vec<String> {
        match self {
            Plan::MdJoin { aggs, .. } => aggs.iter().map(|a| a.output_name()).collect(),
            Plan::GenMdJoin { blocks, .. } => {
                blocks.iter().flat_map(|b| b.output_names()).collect()
            }
            Plan::Parallel { input, .. } => input.appended_columns(),
            _ => Vec::new(),
        }
    }

    /// Visit the plan tree bottom-up, rebuilding nodes with `f`.
    pub fn transform_up(self, f: &impl Fn(Plan) -> Plan) -> Plan {
        let rebuilt = match self {
            Plan::Select { input, pred } => Plan::Select {
                input: Box::new(input.transform_up(f)),
                pred,
            },
            Plan::Project { input, cols } => Plan::Project {
                input: Box::new(input.transform_up(f)),
                cols,
            },
            Plan::Base { input, shape } => Plan::Base {
                input: Box::new(input.transform_up(f)),
                shape,
            },
            Plan::Union(parts) => {
                Plan::Union(parts.into_iter().map(|p| p.transform_up(f)).collect())
            }
            Plan::MdJoin {
                base,
                detail,
                aggs,
                theta,
            } => Plan::MdJoin {
                base: Box::new(base.transform_up(f)),
                detail: Box::new(detail.transform_up(f)),
                aggs,
                theta,
            },
            Plan::GenMdJoin {
                base,
                detail,
                blocks,
            } => Plan::GenMdJoin {
                base: Box::new(base.transform_up(f)),
                detail: Box::new(detail.transform_up(f)),
                blocks,
            },
            Plan::Join {
                left,
                right,
                left_keys,
                right_keys,
                keep_right,
            } => Plan::Join {
                left: Box::new(left.transform_up(f)),
                right: Box::new(right.transform_up(f)),
                left_keys,
                right_keys,
                keep_right,
            },
            Plan::Parallel { input } => Plan::Parallel {
                input: Box::new(input.transform_up(f)),
            },
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// Count the MD-join nodes (single + generalized) in the plan.
    pub fn md_join_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if matches!(p, Plan::MdJoin { .. } | Plan::GenMdJoin { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Plan)) {
        f(self);
        match self {
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Base { input, .. }
            | Plan::Parallel { input, .. } => input.visit(f),
            Plan::Union(parts) => parts.iter().for_each(|p| p.visit(f)),
            Plan::MdJoin { base, detail, .. } | Plan::GenMdJoin { base, detail, .. } => {
                base.visit(f);
                detail.visit(f);
            }
            Plan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Plan::Table(_) | Plan::Inline(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Row, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let rel = Relation::from_rows(
            schema,
            vec![Row::from_values(vec![
                Value::Int(1),
                Value::str("NY"),
                Value::Float(1.0),
            ])],
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    #[test]
    fn schema_inference_through_md_join() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("avg", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let s = plan.schema(&catalog(), &Registry::standard()).unwrap();
        assert_eq!(s.names(), vec!["cust", "avg_sale"]);
        assert_eq!(s.field(1).dtype, DataType::Float);
    }

    #[test]
    fn schema_inference_gen_md_join() {
        let blocks = vec![
            PlanBlock::new(
                vec![AggSpec::on_column("avg", "sale").with_alias("a1")],
                eq(col_b("cust"), col_r("cust")),
            ),
            PlanBlock::new(
                vec![AggSpec::on_column("avg", "sale").with_alias("a2")],
                eq(col_b("cust"), col_r("cust")),
            ),
        ];
        let plan = Plan::GenMdJoin {
            base: Box::new(Plan::table("Sales").group_by_base(&["cust"])),
            detail: Box::new(Plan::table("Sales")),
            blocks,
        };
        let s = plan.schema(&catalog(), &Registry::standard()).unwrap();
        assert_eq!(s.names(), vec!["cust", "a1", "a2"]);
    }

    #[test]
    fn appended_columns_for_independence_checks() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("avg", "sale").with_alias("avg_ny")],
            eq(col_b("cust"), col_r("cust")),
        );
        assert_eq!(plan.appended_columns(), vec!["avg_ny"]);
    }

    #[test]
    fn transform_up_rewrites_leaves() {
        let plan = Plan::table("Sales").select(gt(col_r("sale"), lit(0i64)));
        let renamed = plan.transform_up(&|p| match p {
            Plan::Table(_) => Plan::Table("Other".into()),
            other => other,
        });
        match renamed {
            Plan::Select { input, .. } => assert_eq!(*input, Plan::Table("Other".into())),
            _ => panic!("shape changed"),
        }
    }

    #[test]
    fn md_join_count() {
        let inner = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("s1")],
            eq(col_b("cust"), col_r("cust")),
        );
        let outer = inner.md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("s2")],
            eq(col_b("cust"), col_r("cust")),
        );
        assert_eq!(outer.md_join_count(), 2);
    }

    #[test]
    fn union_schema_requires_parts() {
        let err = Plan::Union(vec![]).schema(&catalog(), &Registry::standard());
        assert!(matches!(err, Err(AlgebraError::InvalidPlan(_))));
    }

    #[test]
    fn duplicate_agg_names_rejected_in_schema() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![
                AggSpec::on_column("sum", "sale"),
                AggSpec::on_column("sum", "sale"),
            ],
            eq(col_b("cust"), col_r("cust")),
        );
        assert!(plan.schema(&catalog(), &Registry::standard()).is_err());
    }
}
