//! Binding and evaluation.
//!
//! Algorithm 3.1 evaluates θ once per (detail tuple × candidate base row), so
//! evaluation must not re-resolve column names. [`BoundExpr`] is the compiled
//! form: column references are replaced by positions at bind time, and
//! evaluation is a straight tree walk over `&[Value]` slices.

use crate::ast::{BinOp, Expr, Side};
use crate::error::{ExprError, Result};
use mdj_storage::{Schema, Value};
use std::cmp::Ordering;

/// An expression with column references resolved to positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    BCol(usize),
    RCol(usize),
    Lit(Value),
    Binary {
        op: BinOp,
        lhs: Box<BoundExpr>,
        rhs: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
}

impl Expr {
    /// Bind against both sides' schemas. Pass `None` for a side the context
    /// does not provide; referencing it is then a bind error.
    pub fn bind(&self, b: Option<&Schema>, r: Option<&Schema>) -> Result<BoundExpr> {
        match self {
            Expr::Col(c) => {
                let (schema, side) = match c.side {
                    Side::Base => (b, "B"),
                    Side::Detail => (r, "R"),
                };
                let schema = schema.ok_or(ExprError::SideUnavailable(side))?;
                let idx = schema.index_of(&c.name).map_err(|e| ExprError::Bind {
                    side,
                    inner: e.to_string(),
                })?;
                Ok(match c.side {
                    Side::Base => BoundExpr::BCol(idx),
                    Side::Detail => BoundExpr::RCol(idx),
                })
            }
            Expr::Lit(v) => Ok(BoundExpr::Lit(v.clone())),
            Expr::Binary { op, lhs, rhs } => Ok(BoundExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.bind(b, r)?),
                rhs: Box::new(rhs.bind(b, r)?),
            }),
            Expr::Not(e) => Ok(BoundExpr::Not(Box::new(e.bind(b, r)?))),
        }
    }
}

pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let type_err = || ExprError::Type {
        op: op.symbol().to_string(),
        lhs: l.type_name().to_string(),
        rhs: r.type_name().to_string(),
    };
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.wrapping_add(*b),
                    BinOp::Sub => a.wrapping_sub(*b),
                    _ => a.wrapping_mul(*b),
                };
                Ok(Value::Int(v))
            }
            _ => {
                let (a, b) = (
                    l.as_float().ok_or_else(type_err)?,
                    r.as_float().ok_or_else(type_err)?,
                );
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                };
                Ok(Value::Float(v))
            }
        },
        BinOp::Div => {
            let (a, b) = (
                l.as_float().ok_or_else(type_err)?,
                r.as_float().ok_or_else(type_err)?,
            );
            if b == 0.0 {
                return Err(ExprError::DivideByZero);
            }
            Ok(Value::Float(a / b))
        }
        BinOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(ExprError::DivideByZero)
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => Err(type_err()),
        },
        _ => unreachable!("arith called with non-arithmetic op"),
    }
}

pub(crate) fn compare(op: BinOp, l: &Value, r: &Value) -> Value {
    // SQL semantics: a comparison with NULL (or incomparable types) is false.
    // Exception: Eq/Ne between non-null values of incomparable type is a plain
    // "not equal" rather than an error, so θs like `state = 'NY'` stay total.
    match l.sql_cmp(r) {
        Some(ord) => {
            let b = match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Value::Bool(b)
        }
        None => {
            if l.is_null() || r.is_null() {
                Value::Bool(false)
            } else {
                match op {
                    BinOp::Eq => Value::Bool(false),
                    BinOp::Ne => Value::Bool(true),
                    _ => Value::Bool(false),
                }
            }
        }
    }
}

impl BoundExpr {
    /// Evaluate against a pair of rows (`b`, `r`). Either slice may be empty
    /// when the corresponding side is unused (binding guarantees no access).
    pub fn eval(&self, b: &[Value], r: &[Value]) -> Result<Value> {
        match self {
            BoundExpr::BCol(i) => Ok(b[*i].clone()),
            BoundExpr::RCol(i) => Ok(r[*i].clone()),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    // Short-circuit: the common θ shape is a conjunction whose
                    // first conjunct (the equality) usually fails.
                    if !lhs.eval_bool(b, r)? {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(rhs.eval_bool(b, r)?))
                }
                BinOp::Or => {
                    if lhs.eval_bool(b, r)? {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(rhs.eval_bool(b, r)?))
                }
                op if op.is_comparison() => {
                    let l = lhs.eval(b, r)?;
                    let rv = rhs.eval(b, r)?;
                    Ok(compare(*op, &l, &rv))
                }
                op => {
                    let l = lhs.eval(b, r)?;
                    let rv = rhs.eval(b, r)?;
                    arith(*op, &l, &rv)
                }
            },
            BoundExpr::Not(e) => Ok(Value::Bool(!e.eval_bool(b, r)?)),
        }
    }

    /// Evaluate as a predicate: `true` only for `Bool(true)`. NULL and
    /// non-boolean results are false, mirroring SQL WHERE semantics.
    pub fn eval_bool(&self, b: &[Value], r: &[Value]) -> Result<bool> {
        Ok(matches!(self.eval(b, r)?, Value::Bool(true)))
    }

    /// Evaluate with only a detail row (base side unused).
    pub fn eval_detail(&self, r: &[Value]) -> Result<Value> {
        self.eval(&[], r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use mdj_storage::DataType;

    fn b_schema() -> Schema {
        Schema::from_pairs(&[("cust", DataType::Int), ("month", DataType::Int)])
    }

    fn r_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
            ("state", DataType::Str),
        ])
    }

    fn bvals(c: i64, m: i64) -> Vec<Value> {
        vec![Value::Int(c), Value::Int(m)]
    }

    fn rvals(c: i64, m: i64, s: f64, st: &str) -> Vec<Value> {
        vec![
            Value::Int(c),
            Value::Int(m),
            Value::Float(s),
            Value::str(st),
        ]
    }

    #[test]
    fn example_2_5_previous_month_theta() {
        // Sales.cust = cust AND Sales.month = month - 1
        let theta = and(
            eq(col_r("cust"), col_b("cust")),
            eq(col_r("month"), sub(col_b("month"), lit(1i64))),
        );
        let bound = theta.bind(Some(&b_schema()), Some(&r_schema())).unwrap();
        assert!(bound
            .eval_bool(&bvals(7, 5), &rvals(7, 4, 10.0, "NY"))
            .unwrap());
        assert!(!bound
            .eval_bool(&bvals(7, 5), &rvals(7, 5, 10.0, "NY"))
            .unwrap());
        assert!(!bound
            .eval_bool(&bvals(8, 5), &rvals(7, 4, 10.0, "NY"))
            .unwrap());
    }

    #[test]
    fn string_equality_theta() {
        let theta = eq(col_r("state"), lit("NY"));
        let bound = theta.bind(None, Some(&r_schema())).unwrap();
        assert!(bound.eval_bool(&[], &rvals(1, 1, 1.0, "NY")).unwrap());
        assert!(!bound.eval_bool(&[], &rvals(1, 1, 1.0, "CA")).unwrap());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = add(lit(2i64), mul(lit(3i64), lit(4i64)));
        let b = e.bind(None, None).unwrap();
        assert_eq!(b.eval(&[], &[]).unwrap(), Value::Int(14));
        let e = div(lit(7i64), lit(2i64));
        let b = e.bind(None, None).unwrap();
        assert_eq!(b.eval(&[], &[]).unwrap(), Value::Float(3.5));
        let e = modulo(lit(-7i64), lit(3i64));
        let b = e.bind(None, None).unwrap();
        assert_eq!(b.eval(&[], &[]).unwrap(), Value::Int(2)); // rem_euclid
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let b = div(lit(1i64), lit(0i64)).bind(None, None).unwrap();
        assert_eq!(b.eval(&[], &[]), Err(ExprError::DivideByZero));
        let b = modulo(lit(1i64), lit(0i64)).bind(None, None).unwrap();
        assert_eq!(b.eval(&[], &[]), Err(ExprError::DivideByZero));
    }

    #[test]
    fn null_propagates_through_arithmetic_and_fails_predicates() {
        let e = gt(add(col_r("sale"), lit(1i64)), lit(0i64));
        let bound = e.bind(None, Some(&r_schema())).unwrap();
        let mut row = rvals(1, 1, 1.0, "NY");
        row[2] = Value::Null;
        assert!(!bound.eval_bool(&[], &row).unwrap());
    }

    #[test]
    fn comparisons_between_incompatible_types() {
        let e = eq(col_r("state"), lit(3i64));
        let bound = e.bind(None, Some(&r_schema())).unwrap();
        assert!(!bound.eval_bool(&[], &rvals(1, 1, 1.0, "NY")).unwrap());
        let e = ne(col_r("state"), lit(3i64));
        let bound = e.bind(None, Some(&r_schema())).unwrap();
        assert!(bound.eval_bool(&[], &rvals(1, 1, 1.0, "NY")).unwrap());
    }

    #[test]
    fn and_or_short_circuit() {
        // Right side would divide by zero; AND must not evaluate it.
        let e = and(lit(false), eq(div(lit(1i64), lit(0i64)), lit(1i64)));
        let b = e.bind(None, None).unwrap();
        assert!(!b.eval_bool(&[], &[]).unwrap());
        let e = or(lit(true), eq(div(lit(1i64), lit(0i64)), lit(1i64)));
        let b = e.bind(None, None).unwrap();
        assert!(b.eval_bool(&[], &[]).unwrap());
    }

    #[test]
    fn not_negates() {
        let e = not(lit(false));
        assert!(e.bind(None, None).unwrap().eval_bool(&[], &[]).unwrap());
    }

    #[test]
    fn bind_errors() {
        let e = col_b("missing");
        assert!(matches!(
            e.bind(Some(&b_schema()), None),
            Err(ExprError::Bind { side: "B", .. })
        ));
        let e = col_r("cust");
        assert_eq!(e.bind(None, None), Err(ExprError::SideUnavailable("R")));
    }

    #[test]
    fn all_value_comparisons() {
        // ALL = ALL is true; ALL = 3 is false (Eq between incomparables).
        let e = eq(lit(Value::All), lit(Value::All));
        assert!(e.bind(None, None).unwrap().eval_bool(&[], &[]).unwrap());
        let e = eq(lit(Value::All), lit(3i64));
        assert!(!e.bind(None, None).unwrap().eval_bool(&[], &[]).unwrap());
    }

    #[test]
    fn wrapping_add_does_not_panic() {
        let e = add(lit(i64::MAX), lit(1i64));
        let v = e.bind(None, None).unwrap().eval(&[], &[]).unwrap();
        assert_eq!(v, Value::Int(i64::MIN));
    }
}
