//! Expression AST.
//!
//! θ-conditions in the paper compare attributes of the base-values table `B`
//! with attributes of the detail table `R` (Definition 3.1), so every column
//! reference names which side it reads from. A second use of the same AST is
//! one-sided: selection predicates (σ) and computed projections bind only one
//! side and leave the other unavailable.

use mdj_storage::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which operand relation a column reference reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The base-values table `B` (includes aggregate columns added by previous
    /// MD-joins in a series, e.g. `avg_sale` in Example 3.2).
    Base,
    /// The detail table `R`.
    Detail,
}

impl Side {
    pub fn name(self) -> &'static str {
        match self {
            Side::Base => "B",
            Side::Detail => "R",
        }
    }
}

/// A sided column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColRef {
    pub side: Side,
    pub name: String,
}

impl ColRef {
    pub fn base(name: impl Into<String>) -> Self {
        ColRef {
            side: Side::Base,
            name: name.into(),
        }
    }

    pub fn detail(name: impl Into<String>) -> Self {
        ColRef {
            side: Side::Detail,
            name: name.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.side.name(), self.name)
    }
}

/// Binary operators. Comparisons use SQL semantics (NULL operands → false);
/// `And`/`Or` treat their operands as booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for `= != < <= > >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> Self {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// An expression tree over sided columns and literals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    Col(ColRef),
    Lit(Value),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Not(Box<Expr>),
}

impl Expr {
    /// The constant `true` predicate (an unconditional MD-join aggregates every
    /// detail tuple into every base row).
    pub fn always_true() -> Expr {
        Expr::Lit(Value::Bool(true))
    }

    /// Visit every column reference.
    pub fn visit_cols(&self, f: &mut impl FnMut(&ColRef)) {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_cols(f);
                rhs.visit_cols(f);
            }
            Expr::Not(e) => e.visit_cols(f),
        }
    }

    /// Rebuild the tree, mapping every column reference.
    pub fn map_cols(&self, f: &mut impl FnMut(&ColRef) -> Expr) -> Expr {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.map_cols(f)),
                rhs: Box::new(rhs.map_cols(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_cols(f))),
        }
    }

    /// Whether the expression references the given side.
    pub fn uses_side(&self, side: Side) -> bool {
        let mut found = false;
        self.visit_cols(&mut |c| found |= c.side == side);
        found
    }

    /// Names of all columns referenced on `side`, in first-visit order,
    /// without duplicates.
    pub fn cols_on(&self, side: Side) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.visit_cols(&mut |c| {
            if c.side == side && !out.iter().any(|n| n == &c.name) {
                out.push(c.name.clone());
            }
        });
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Not(e) => write!(f, "(NOT {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn display_roundtrips_shape() {
        let e = and(
            eq(col_b("cust"), col_r("cust")),
            gt(col_r("sale"), lit(100i64)),
        );
        assert_eq!(e.to_string(), "((B.cust = R.cust) AND (R.sale > 100))");
    }

    #[test]
    fn uses_side_and_cols_on() {
        let e = and(
            eq(col_b("cust"), col_r("cust")),
            eq(col_b("month"), add(col_r("month"), lit(1i64))),
        );
        assert!(e.uses_side(Side::Base));
        assert!(e.uses_side(Side::Detail));
        assert_eq!(e.cols_on(Side::Base), vec!["cust", "month"]);
        assert_eq!(e.cols_on(Side::Detail), vec!["cust", "month"]);
        assert!(!lit(1i64).uses_side(Side::Base));
    }

    #[test]
    fn map_cols_rewrites() {
        let e = eq(col_b("cust"), col_r("cust"));
        let renamed = e.map_cols(&mut |c| {
            if c.side == Side::Base {
                Expr::Col(ColRef::base(format!("{}_renamed", c.name)))
            } else {
                Expr::Col(c.clone())
            }
        });
        assert_eq!(renamed.cols_on(Side::Base), vec!["cust_renamed"]);
    }

    #[test]
    fn flip_is_involutive_on_inequalities() {
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq] {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
    }

    #[test]
    fn string_literals_display_quoted() {
        let e = eq(col_r("state"), lit("NY"));
        assert_eq!(e.to_string(), "(R.state = 'NY')");
    }
}
