//! Vectorized expression evaluation over columnar batches.
//!
//! [`eval_batch`] evaluates a [`BoundExpr`] against a whole
//! [`ColumnarChunk`] at once, returning typed arrays instead of per-row
//! [`Value`]s. It vectorizes only expression shapes that are *provably
//! equivalent* to the scalar interpreter and returns `None` for everything
//! else, so callers can always fall back to per-row evaluation:
//!
//! * Detail column references over typed columns; literals.
//! * Comparisons between numeric columns and numeric columns/literals,
//!   reproducing `sql_cmp` exactly: `Int × Int` stays in `i64`, cross-type
//!   goes through the exact [`cmp_int_float`] (no `as f64` precision loss
//!   above 2⁵³ — shared with the scalar interpreter so the two cannot
//!   diverge), any NULL operand yields `false`, and `Eq`/`Ne` against an
//!   incomparable non-null literal yield `false`/`true`.
//! * String comparisons against a string literal via the dictionary: the
//!   ordering of each distinct dictionary entry against the literal is
//!   computed once, then applied per row. Two string columns compare their
//!   rows' dictionary entries.
//! * Floats compare by [`cmp_float`], as `sql_cmp` does: `0.0 = -0.0`, and a
//!   NaN keeps `total_cmp`'s place.
//! * `AND`/`OR`/`NOT` over boolean results. Eager evaluation is equivalent to
//!   the interpreter's short-circuit here because vectorizable subexpressions
//!   are total — `Div`/`Mod` (the only fallible scalar operators) never
//!   vectorize, which also preserves `AND(false, 1/0 = 1)` not erroring.
//! * `Add`/`Sub`/`Mul` over numeric columns/literals, mirroring scalar
//!   `arith`: `Int × Int` wraps in `i64`, anything else computes in `f64`,
//!   NULL propagates.
//!
//! Base-side column references never vectorize in [`eval_batch`] (a chunk
//! carries only detail tuples), which is exactly right for Theorem 4.2
//! prefilters (detail-only by construction) and hash-probe key expressions
//! (detail-only by `split_equalities`). An expression over both sides
//! batches through [`eval_columns`] once both sides' columns are at hand:
//! the executor gathers them at θ's candidate pairs.

use crate::ast::BinOp;
use crate::eval::{arith, compare, BoundExpr};
use mdj_storage::columnar::{Column, ColumnarChunk};
use mdj_storage::{cmp_float, cmp_int_float, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Result of evaluating an expression over a batch: one slot per row.
#[derive(Debug, Clone)]
pub enum BatchVals {
    Ints {
        vals: Vec<i64>,
        nulls: Vec<bool>,
    },
    Floats {
        vals: Vec<f64>,
        nulls: Vec<bool>,
    },
    Strs {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
        nulls: Vec<bool>,
    },
    /// Predicate results. Scalar NULL/non-boolean predicate outcomes are
    /// already folded to `false`, mirroring `eval_bool`.
    Bools(Vec<bool>),
    /// Every row has this value (a literal or folded literal expression).
    Const(Value),
}

impl BatchVals {
    /// A typed column's values; `None` for an absent or untyped column.
    pub fn from_column(col: Column) -> Option<BatchVals> {
        match col {
            Column::Int { vals, nulls } => Some(BatchVals::Ints { vals, nulls }),
            Column::Float { vals, nulls } => Some(BatchVals::Floats { vals, nulls }),
            Column::Str { codes, dict, nulls } => Some(BatchVals::Strs { codes, dict, nulls }),
            Column::Absent | Column::Untyped(_) => None,
        }
    }

    /// Materialize as a per-row predicate (`eval_bool` semantics: only
    /// `Bool(true)` passes). Total for every variant, so a vectorized
    /// predicate never needs the scalar path.
    pub fn to_selection(self, len: usize) -> Vec<bool> {
        match self {
            BatchVals::Bools(b) => b,
            BatchVals::Const(v) => vec![matches!(v, Value::Bool(true)); len],
            // Non-boolean batch results are falsy per row, like eval_bool.
            _ => vec![false; len],
        }
    }
}

/// Collect the detail-side column positions an expression reads, setting
/// `needed[c] = true` for each. Used to decide which columns a
/// [`ColumnarChunk`] must materialize.
pub fn collect_detail_cols(expr: &BoundExpr, needed: &mut [bool]) {
    match expr {
        BoundExpr::RCol(i) => {
            if let Some(slot) = needed.get_mut(*i) {
                *slot = true;
            }
        }
        BoundExpr::BCol(_) | BoundExpr::Lit(_) => {}
        BoundExpr::Binary { lhs, rhs, .. } => {
            collect_detail_cols(lhs, needed);
            collect_detail_cols(rhs, needed);
        }
        BoundExpr::Not(e) => collect_detail_cols(e, needed),
    }
}

/// True if the expression references the base side anywhere (such
/// expressions can never evaluate against a detail-only batch).
pub fn uses_base(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::BCol(_) => true,
        BoundExpr::RCol(_) | BoundExpr::Lit(_) => false,
        BoundExpr::Binary { lhs, rhs, .. } => uses_base(lhs) || uses_base(rhs),
        BoundExpr::Not(e) => uses_base(e),
    }
}

/// Substitute one base row's values for every `BCol` reference, producing a
/// detail-only expression. For a fixed base row `b`, a nested loop's
/// `θ(b, t)` becomes a function of `t` alone, which [`eval_batch`] can then
/// evaluate over a whole chunk in one pass instead of replaying every
/// tuple through the interpreter. Scalar evaluation of the bound
/// expression is identical to evaluating the original against `b` (a `BCol`
/// lookup returns exactly the value we inline as a literal).
pub fn bind_base(expr: &BoundExpr, b_row: &[Value]) -> BoundExpr {
    match expr {
        BoundExpr::BCol(i) => BoundExpr::Lit(b_row.get(*i).cloned().unwrap_or(Value::Null)),
        BoundExpr::RCol(_) | BoundExpr::Lit(_) => expr.clone(),
        BoundExpr::Binary { op, lhs, rhs } => BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind_base(lhs, b_row)),
            rhs: Box::new(bind_base(rhs, b_row)),
        },
        BoundExpr::Not(e) => BoundExpr::Not(Box::new(bind_base(e, b_row))),
    }
}

/// Whether a bound expression's *shape* can vectorize: true iff it contains
/// no `Div`/`Mod`, the only operators with no batch form at any type. Column
/// typing (mixed-type or boolean columns) can still force a per-batch scalar
/// fallback at runtime. Executors use this to skip the batch attempt for a
/// shape that can never batch, and interpret it row by row instead.
pub fn batchable_bound_shape(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::BCol(_) | BoundExpr::RCol(_) | BoundExpr::Lit(_) => true,
        BoundExpr::Binary { op, lhs, rhs } => {
            !matches!(op, BinOp::Div | BinOp::Mod)
                && batchable_bound_shape(lhs)
                && batchable_bound_shape(rhs)
        }
        BoundExpr::Not(e) => batchable_bound_shape(e),
    }
}

/// Evaluate `expr` over every row of `chunk`. Returns `None` when the
/// expression shape (or the batch's column data) has no vectorized form that
/// is exactly equivalent to the scalar interpreter; the caller then falls
/// back to per-row evaluation.
pub fn eval_batch(expr: &BoundExpr, chunk: &ColumnarChunk) -> Option<BatchVals> {
    eval_columns(expr, chunk.len(), &mut |leaf| match leaf {
        BoundExpr::RCol(i) => match chunk.column(*i) {
            Column::Untyped(_) => None,
            col => BatchVals::from_column(col.clone()),
        },
        _ => None,
    })
}

/// Evaluate `expr` over `n` rows whose columns `column` supplies: it is
/// handed each `BCol`/`RCol` leaf and returns that column's `n` values, or
/// `None` when it has no typed form (the whole evaluation is then `None`,
/// as in [`eval_batch`]). A mixed expression batches this way once both
/// sides of its rows are at hand — the executor's candidate pairs, each
/// side gathered at the pairs' rows.
pub fn eval_columns(
    expr: &BoundExpr,
    n: usize,
    column: &mut impl FnMut(&BoundExpr) -> Option<BatchVals>,
) -> Option<BatchVals> {
    match expr {
        BoundExpr::BCol(_) | BoundExpr::RCol(_) => column(expr),
        BoundExpr::Lit(v) => Some(BatchVals::Const(v.clone())),
        BoundExpr::Not(e) => match eval_columns(e, n, column)? {
            BatchVals::Bools(mut b) => {
                for v in &mut b {
                    *v = !*v;
                }
                Some(BatchVals::Bools(b))
            }
            BatchVals::Const(v) => Some(BatchVals::Const(Value::Bool(!matches!(
                v,
                Value::Bool(true)
            )))),
            _ => None,
        },
        BoundExpr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => {
                let l = eval_columns(lhs, n, column)?;
                let r = eval_columns(rhs, n, column)?;
                let and = *op == BinOp::And;
                match (l, r) {
                    (BatchVals::Const(a), BatchVals::Const(b)) => {
                        let (a, b) = (truthy(&a), truthy(&b));
                        Some(BatchVals::Const(Value::Bool(if and {
                            a && b
                        } else {
                            a || b
                        })))
                    }
                    (BatchVals::Const(a), BatchVals::Bools(b))
                    | (BatchVals::Bools(b), BatchVals::Const(a)) => {
                        let a = truthy(&a);
                        let out = b
                            .into_iter()
                            .map(|v| if and { a && v } else { a || v })
                            .collect();
                        Some(BatchVals::Bools(out))
                    }
                    (BatchVals::Bools(a), BatchVals::Bools(b)) => {
                        let out = a
                            .into_iter()
                            .zip(b)
                            .map(|(x, y)| if and { x && y } else { x || y })
                            .collect();
                        Some(BatchVals::Bools(out))
                    }
                    _ => None,
                }
            }
            op if op.is_comparison() => {
                let l = eval_columns(lhs, n, column)?;
                let r = eval_columns(rhs, n, column)?;
                compare_batch(*op, l, r, n)
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let l = eval_columns(lhs, n, column)?;
                let r = eval_columns(rhs, n, column)?;
                arith_batch(*op, l, r, n)
            }
            // Div/Mod can raise DivideByZero (and Mod type errors): keep
            // them — and anything containing them — on the scalar path so
            // short-circuit error behavior is preserved.
            _ => None,
        },
    }
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Dispatch a comparison operator ONCE per batch: each arm binds `$t` to a
/// distinct monomorphizing closure over [`Ordering`], so the per-row loops in
/// the body inline a fixed test with no operator branch left inside the loop
/// — the shape LLVM autovectorizes. (The old code matched on `op` per
/// element, which blocked vectorization of every comparison loop.)
macro_rules! dispatch_cmp {
    ($op:expr, |$t:ident| $body:expr) => {
        match $op {
            BinOp::Eq => {
                let $t = |o: Ordering| o == Ordering::Equal;
                $body
            }
            BinOp::Ne => {
                let $t = |o: Ordering| o != Ordering::Equal;
                $body
            }
            BinOp::Lt => {
                let $t = |o: Ordering| o == Ordering::Less;
                $body
            }
            BinOp::Le => {
                let $t = |o: Ordering| o != Ordering::Greater;
                $body
            }
            BinOp::Gt => {
                let $t = |o: Ordering| o == Ordering::Greater;
                $body
            }
            BinOp::Ge => {
                let $t = |o: Ordering| o != Ordering::Less;
                $body
            }
            _ => unreachable!("comparison dispatch on non-comparison"),
        }
    };
}

/// Same trick for `Add`/`Sub`/`Mul`: bind monomorphized int/float operators
/// once per batch instead of matching on `op` inside every element closure.
macro_rules! dispatch_arith {
    ($op:expr, |$i:ident, $f:ident| $body:expr) => {
        match $op {
            BinOp::Add => {
                let $i = |a: i64, b: i64| a.wrapping_add(b);
                let $f = |a: f64, b: f64| a + b;
                $body
            }
            BinOp::Sub => {
                let $i = |a: i64, b: i64| a.wrapping_sub(b);
                let $f = |a: f64, b: f64| a - b;
                $body
            }
            _ => {
                let $i = |a: i64, b: i64| a.wrapping_mul(b);
                let $f = |a: f64, b: f64| a * b;
                $body
            }
        }
    };
}

/// Mirror of the comparison's argument order: `a OP b` ⇔ `b FLIP(OP) a`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn compare_batch(op: BinOp, l: BatchVals, r: BatchVals, n: usize) -> Option<BatchVals> {
    use BatchVals::*;
    dispatch_cmp!(op, |t| match (l, r) {
        (Const(a), Const(b)) => Some(Const(compare(op, &a, &b))),
        // Normalize const-on-the-left to const-on-the-right.
        (Const(a), other) => compare_batch(flip(op), other, Const(a), n),
        (Ints { vals, nulls }, Const(c)) => Some(Bools(match &c {
            Value::Int(k) => vals
                .iter()
                .zip(&nulls)
                .map(|(v, &null)| !null & t(v.cmp(k)))
                .collect(),
            Value::Float(f) => vals
                .iter()
                .zip(&nulls)
                .map(|(v, &null)| !null & t(cmp_int_float(*v, *f)))
                .collect(),
            // NULL literal: always false. Incomparable non-null literal:
            // Ne is true for non-null rows, everything else false.
            Value::Null => vec![false; n],
            _ if op == BinOp::Ne => nulls.iter().map(|&null| !null).collect(),
            _ => vec![false; n],
        })),
        (Floats { vals, nulls }, Const(c)) => Some(Bools(match &c {
            Value::Int(k) => vals
                .iter()
                .zip(&nulls)
                .map(|(v, &null)| !null & t(cmp_int_float(*k, *v).reverse()))
                .collect(),
            Value::Float(f) => vals
                .iter()
                .zip(&nulls)
                .map(|(v, &null)| !null & t(cmp_float(*v, *f)))
                .collect(),
            Value::Null => vec![false; n],
            _ if op == BinOp::Ne => nulls.iter().map(|&null| !null).collect(),
            _ => vec![false; n],
        })),
        (Strs { codes, dict, nulls }, Const(c)) => Some(Bools(match &c {
            Value::Str(s) => {
                // One comparison per distinct dictionary entry, then a table
                // lookup per row.
                let verdicts: Vec<bool> =
                    dict.iter().map(|d| t(d.as_ref().cmp(s.as_ref()))).collect();
                codes
                    .iter()
                    .zip(&nulls)
                    .map(|(&code, &null)| !null & verdicts[code as usize])
                    .collect()
            }
            Value::Null => vec![false; n],
            _ if op == BinOp::Ne => nulls.iter().map(|&null| !null).collect(),
            _ => vec![false; n],
        })),
        (Ints { vals: a, nulls: an }, Ints { vals: b, nulls: bn }) => Some(Bools(
            a.iter()
                .zip(&b)
                .zip(an.iter().zip(&bn))
                .map(|((x, y), (&xn, &yn))| !xn & !yn & t(x.cmp(y)))
                .collect(),
        )),
        (Floats { vals: a, nulls: an }, Floats { vals: b, nulls: bn }) => Some(Bools(
            a.iter()
                .zip(&b)
                .zip(an.iter().zip(&bn))
                .map(|((x, y), (&xn, &yn))| !xn & !yn & t(cmp_float(*x, *y)))
                .collect(),
        )),
        (Ints { vals: a, nulls: an }, Floats { vals: b, nulls: bn }) => Some(Bools(
            a.iter()
                .zip(&b)
                .zip(an.iter().zip(&bn))
                .map(|((x, y), (&xn, &yn))| !xn & !yn & t(cmp_int_float(*x, *y)))
                .collect(),
        )),
        (Floats { vals: a, nulls: an }, Ints { vals: b, nulls: bn }) => Some(Bools(
            a.iter()
                .zip(&b)
                .zip(an.iter().zip(&bn))
                .map(|((x, y), (&xn, &yn))| !xn & !yn & t(cmp_int_float(*y, *x).reverse()))
                .collect(),
        )),
        (
            Strs {
                codes: a,
                dict: ad,
                nulls: an,
            },
            Strs {
                codes: b,
                dict: bd,
                nulls: bn,
            },
        ) => Some(Bools(
            a.iter()
                .zip(&b)
                .zip(an.iter().zip(&bn))
                .map(|((&x, &y), (&xn, &yn))| {
                    !xn & !yn && t(ad[x as usize].as_ref().cmp(bd[y as usize].as_ref()))
                })
                .collect(),
        )),
        // A string against a number is incomparable: only `<>` holds, and
        // only where neither side is NULL. (A column of NULLs alone is typed
        // `Int`, so a string column meets one whenever its partner's rows
        // are all NULL.)
        (Strs { nulls: an, .. }, Ints { nulls: bn, .. } | Floats { nulls: bn, .. })
        | (Ints { nulls: an, .. } | Floats { nulls: an, .. }, Strs { nulls: bn, .. }) => {
            Some(Bools(
                an.iter()
                    .zip(&bn)
                    .map(|(&xn, &yn)| !xn & !yn & (op == BinOp::Ne))
                    .collect(),
            ))
        }
        // Bool batches etc.: scalar fallback.
        _ => None,
    })
}

fn arith_batch(op: BinOp, l: BatchVals, r: BatchVals, n: usize) -> Option<BatchVals> {
    use BatchVals::*;
    dispatch_arith!(op, |int_op, float_op| match (l, r) {
        (Const(a), Const(b)) => arith(op, &a, &b).ok().map(Const),
        (Ints { vals, nulls }, Const(c)) | (Const(c), Ints { vals, nulls })
            if matches!(op, BinOp::Add | BinOp::Mul) || matches!(c, Value::Null) =>
        {
            // Commutative ops (and NULL, which annihilates regardless of
            // side) let both orders share one arm.
            match c {
                Value::Null => Some(Ints {
                    vals: vec![0; n],
                    nulls: vec![true; n],
                }),
                Value::Int(k) => Some(Ints {
                    vals: vals.iter().map(|&v| int_op(v, k)).collect(),
                    nulls,
                }),
                Value::Float(f) => Some(Floats {
                    vals: vals.iter().map(|&v| float_op(v as f64, f)).collect(),
                    nulls,
                }),
                _ => None,
            }
        }
        (Ints { vals, nulls }, Const(c)) => match c {
            // Non-commutative Sub, column on the left.
            Value::Int(k) => Some(Ints {
                vals: vals.iter().map(|&v| int_op(v, k)).collect(),
                nulls,
            }),
            Value::Float(f) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(v as f64, f)).collect(),
                nulls,
            }),
            _ => None,
        },
        (Const(c), Ints { vals, nulls }) => match c {
            Value::Int(k) => Some(Ints {
                vals: vals.iter().map(|&v| int_op(k, v)).collect(),
                nulls,
            }),
            Value::Float(f) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(f, v as f64)).collect(),
                nulls,
            }),
            _ => None,
        },
        (Floats { vals, nulls }, Const(c)) => match c {
            Value::Null => Some(Ints {
                vals: vec![0; n],
                nulls: vec![true; n],
            }),
            Value::Int(k) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(v, k as f64)).collect(),
                nulls,
            }),
            Value::Float(f) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(v, f)).collect(),
                nulls,
            }),
            _ => None,
        },
        (Const(c), Floats { vals, nulls }) => match c {
            Value::Null => Some(Ints {
                vals: vec![0; n],
                nulls: vec![true; n],
            }),
            Value::Int(k) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(k as f64, v)).collect(),
                nulls,
            }),
            Value::Float(f) => Some(Floats {
                vals: vals.iter().map(|&v| float_op(f, v)).collect(),
                nulls,
            }),
            _ => None,
        },
        (Ints { vals: a, nulls: an }, Ints { vals: b, nulls: bn }) => Some(Ints {
            vals: a.iter().zip(&b).map(|(&x, &y)| int_op(x, y)).collect(),
            nulls: an.iter().zip(&bn).map(|(&x, &y)| x || y).collect(),
        }),
        (Floats { vals: a, nulls: an }, Floats { vals: b, nulls: bn }) => Some(Floats {
            vals: a.iter().zip(&b).map(|(&x, &y)| float_op(x, y)).collect(),
            nulls: an.iter().zip(&bn).map(|(&x, &y)| x || y).collect(),
        }),
        (Ints { vals: a, nulls: an }, Floats { vals: b, nulls: bn }) => Some(Floats {
            vals: a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| float_op(x as f64, y))
                .collect(),
            nulls: an.iter().zip(&bn).map(|(&x, &y)| x || y).collect(),
        }),
        (Floats { vals: a, nulls: an }, Ints { vals: b, nulls: bn }) => Some(Floats {
            vals: a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| float_op(x, y as f64))
                .collect(),
            nulls: an.iter().zip(&bn).map(|(&x, &y)| x || y).collect(),
        }),
        // String/bool operands would be scalar type errors: fall back so the
        // interpreter raises them (or short-circuits around them) exactly as
        // before.
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::builder::*;
    use mdj_storage::{DataType, Row, Schema};

    fn r_schema() -> Schema {
        Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
            ("state", DataType::Str),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            Row::new(vec![
                Value::Int(1),
                Value::Int(3),
                Value::Float(10.0),
                Value::str("NY"),
            ]),
            Row::new(vec![
                Value::Int(2),
                Value::Null,
                Value::Float(20.0),
                Value::str("CA"),
            ]),
            Row::new(vec![
                Value::Int(1),
                Value::Int(4),
                Value::Null,
                Value::str("NY"),
            ]),
        ]
    }

    fn chunk() -> ColumnarChunk {
        ColumnarChunk::from_rows(&sample_rows(), 0, 3, &[true, true, true, true])
    }

    /// Every vectorized result must equal the interpreter row by row.
    fn assert_matches_scalar(expr: &crate::ast::Expr) {
        let bound = expr.bind(None, Some(&r_schema())).unwrap();
        let chunk = chunk();
        let batch = eval_batch(&bound, &chunk).expect("expected vectorized form");
        let sel = batch.to_selection(chunk.len());
        for (i, row) in sample_rows().iter().enumerate() {
            assert_eq!(
                sel[i],
                bound.eval_bool(&[], row.values()).unwrap(),
                "row {i} diverged for {expr:?}"
            );
        }
    }

    #[test]
    fn int_equality_and_null_rows() {
        assert_matches_scalar(&eq(col_r("month"), lit(3i64)));
        assert_matches_scalar(&ne(col_r("month"), lit(3i64)));
        assert_matches_scalar(&lt(col_r("cust"), lit(2i64)));
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_matches_scalar(&gt(col_r("sale"), lit(15i64)));
        assert_matches_scalar(&le(col_r("cust"), lit(1.5f64)));
    }

    #[test]
    fn string_dictionary_comparison() {
        assert_matches_scalar(&eq(col_r("state"), lit("NY")));
        assert_matches_scalar(&ne(col_r("state"), lit("NY")));
        assert_matches_scalar(&eq(col_r("state"), lit("TX"))); // absent from dict
        assert_matches_scalar(&gt(col_r("state"), lit("CA")));
        // Incomparable literal: Eq false, Ne true on non-null rows.
        assert_matches_scalar(&eq(col_r("state"), lit(3i64)));
        assert_matches_scalar(&ne(col_r("state"), lit(3i64)));
    }

    /// Two string columns compare entry by entry across their own
    /// dictionaries, as `sql_cmp` compares the strings: every operator, with
    /// NULLs on either side and both, checked row by row.
    #[test]
    fn string_column_against_string_column() {
        let s = |v: Option<&str>| v.map_or(Value::Null, Value::str);
        let pairs = [
            (Some("NY"), Some("NY")),
            (Some("NY"), Some("CA")),
            (Some("CA"), Some("NY")),
            (None, Some("NY")),
            (Some("TX"), None),
            (None, None),
            (Some(""), Some("A")),
            (Some("NJ"), Some("NJ")),
        ];
        let rows: Vec<Row> = pairs
            .iter()
            .map(|&(a, b)| Row::new(vec![s(a), s(b)]))
            .collect();
        let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]);
        let chunk = ColumnarChunk::from_rows(&rows, 0, rows.len(), &[true, true]);
        for cmp in [eq, ne, lt, le, gt, ge] {
            let bound = cmp(col_r("a"), col_r("b"))
                .bind(None, Some(&schema))
                .unwrap();
            let sel = eval_batch(&bound, &chunk)
                .expect("two string columns batch")
                .to_selection(rows.len());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    sel[i],
                    bound.eval_bool(&[], row.values()).unwrap(),
                    "row {i} diverged for {bound:?}"
                );
            }
        }
    }

    /// A string column against a numeric one — an `Int` column of NULLs
    /// alone among them — batches as the interpreter compares the pair: only
    /// `<>` holds, and only where neither side is NULL.
    #[test]
    fn string_column_against_numeric_column() {
        let rows: Vec<Row> = [
            (Value::str("NY"), Value::Int(1), Value::Null),
            (Value::str("CA"), Value::Float(2.5), Value::Null),
            (Value::Null, Value::Int(3), Value::Null),
            (Value::str("NJ"), Value::Null, Value::Null),
        ]
        .into_iter()
        .map(|(s, x, z)| Row::new(vec![s, x, z]))
        .collect();
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("x", DataType::Any),
            ("z", DataType::Int),
        ]);
        let all = [true, true, true];
        let chunks = [
            ColumnarChunk::from_rows(&rows, 0, rows.len(), &all),
            // The first two rows alone: `x` mixes `Int` and `Float` over all
            // four (no typed form), but not here.
            ColumnarChunk::from_rows(&rows, 0, 1, &all),
            ColumnarChunk::from_rows(&rows, 1, 1, &all),
        ];
        for chunk in &chunks {
            for cmp in [eq, ne, lt, le, gt, ge] {
                for (l, r) in [("s", "z"), ("z", "s"), ("s", "x"), ("x", "s")] {
                    let bound = cmp(col_r(l), col_r(r)).bind(None, Some(&schema)).unwrap();
                    let Some(sel) = eval_batch(&bound, chunk) else {
                        assert!(matches!(chunk.column(1), Column::Untyped(_)));
                        continue;
                    };
                    let sel = sel.to_selection(chunk.len());
                    for (i, row) in rows[chunk.start()..][..chunk.len()].iter().enumerate() {
                        assert_eq!(
                            sel[i],
                            bound.eval_bool(&[], row.values()).unwrap(),
                            "row {i} diverged for {bound:?}"
                        );
                    }
                }
            }
        }
    }

    /// `0.0` and `-0.0` compare equal, float column against float column and
    /// against a float literal, as the interpreter compares them; NaN keeps
    /// its place above every number.
    #[test]
    fn float_zeros_compare_equal_in_batches() {
        let f = Value::Float;
        let pairs = [
            (f(0.0), f(-0.0)),
            (f(-0.0), f(0.0)),
            (f(-0.0), f(-0.0)),
            (f(f64::NAN), f(1.0)),
            (f(-1e-300), f(-0.0)),
            (Value::Null, f(0.0)),
        ];
        let rows: Vec<Row> = pairs
            .iter()
            .map(|(a, b)| Row::new(vec![a.clone(), b.clone()]))
            .collect();
        let schema = Schema::from_pairs(&[("x", DataType::Float), ("y", DataType::Float)]);
        let chunk = ColumnarChunk::from_rows(&rows, 0, rows.len(), &[true, true]);
        for cmp in [eq, ne, lt, le, gt, ge] {
            for expr in [cmp(col_r("x"), col_r("y")), cmp(col_r("x"), lit(-0.0))] {
                let bound = expr.bind(None, Some(&schema)).unwrap();
                let sel = eval_batch(&bound, &chunk).unwrap().to_selection(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        sel[i],
                        bound.eval_bool(&[], row.values()).unwrap(),
                        "row {i}: {bound:?}"
                    );
                }
            }
        }
        let zeros = eq(col_r("x"), col_r("y"))
            .bind(None, Some(&schema))
            .unwrap();
        let sel = eval_batch(&zeros, &chunk).unwrap().to_selection(rows.len());
        assert_eq!(sel, [true, true, true, false, false, false]);
    }

    #[test]
    fn conjunction_and_negation() {
        assert_matches_scalar(&and(
            eq(col_r("state"), lit("NY")),
            gt(col_r("sale"), lit(5i64)),
        ));
        assert_matches_scalar(&or(
            eq(col_r("cust"), lit(2i64)),
            eq(col_r("month"), lit(4i64)),
        ));
        assert_matches_scalar(&not(eq(col_r("state"), lit("NY"))));
    }

    #[test]
    fn arithmetic_in_comparisons() {
        // month = cust + 2 (Int×Int stays integral).
        assert_matches_scalar(&eq(col_r("month"), add(col_r("cust"), lit(2i64))));
        // sale * 2 > 25 (Float path).
        assert_matches_scalar(&gt(mul(col_r("sale"), lit(2i64)), lit(25i64)));
        // Sub is non-commutative both ways.
        assert_matches_scalar(&eq(sub(col_r("month"), lit(1i64)), lit(2i64)));
        assert_matches_scalar(&eq(sub(lit(5i64), col_r("cust")), lit(4i64)));
    }

    #[test]
    fn int_arithmetic_stays_in_i64() {
        // Values above 2^53 are indistinguishable in f64; i64 math must not go
        // through floats.
        let rows = vec![
            Row::new(vec![Value::Int(i64::MAX - 1)]),
            Row::new(vec![Value::Int(i64::MAX)]),
        ];
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let chunk = ColumnarChunk::from_rows(&rows, 0, 2, &[true]);
        let expr = eq(col_r("x"), lit(i64::MAX))
            .bind(None, Some(&schema))
            .unwrap();
        let sel = eval_batch(&expr, &chunk).unwrap().to_selection(2);
        assert_eq!(sel, vec![false, true]);
        // Wrapping add matches the interpreter.
        let expr = eq(add(col_r("x"), lit(1i64)), lit(i64::MIN))
            .bind(None, Some(&schema))
            .unwrap();
        let sel = eval_batch(&expr, &chunk).unwrap().to_selection(2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(sel[i], expr.eval_bool(&[], row.values()).unwrap());
        }
    }

    #[test]
    fn cross_type_comparison_is_exact_above_2_53() {
        // (2⁵³+1 as f64) rounds down to 2⁵³ and (i64::MAX as f64) rounds up
        // to 2⁶³; the lossy cast made both spuriously Equal.
        let p53 = 1i64 << 53;
        let rows = vec![
            Row::new(vec![Value::Int(p53 + 1), Value::Float(p53 as f64)]),
            Row::new(vec![Value::Int(i64::MAX), Value::Float(i64::MAX as f64)]),
        ];
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Float)]);
        let chunk = ColumnarChunk::from_rows(&rows, 0, 2, &[true, true]);
        let check = |expr: &crate::ast::Expr, expect: [bool; 2]| {
            let bound = expr.bind(None, Some(&schema)).unwrap();
            let sel = eval_batch(&bound, &chunk)
                .expect("vectorized form")
                .to_selection(2);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    sel[i],
                    bound.eval_bool(&[], row.values()).unwrap(),
                    "row {i} diverged from scalar for {expr:?}"
                );
                assert_eq!(sel[i], expect[i], "row {i} wrong for {expr:?}");
            }
        };
        // Int column vs Float literal and Float column vs Int literal.
        check(&eq(col_r("x"), lit(p53 as f64)), [false, false]);
        check(&gt(col_r("x"), lit(p53 as f64)), [true, true]);
        check(&eq(col_r("y"), lit(p53 + 1)), [false, false]);
        check(&lt(col_r("y"), lit(p53 + 1)), [true, false]);
        check(&gt(col_r("y"), lit(i64::MAX)), [false, true]);
        // Int column vs Float column (both in the same chunk).
        check(&eq(col_r("x"), col_r("y")), [false, false]);
        check(&gt(col_r("x"), col_r("y")), [true, false]);
        check(&lt(col_r("x"), col_r("y")), [false, true]);
    }

    #[test]
    fn bind_base_inlines_base_row() {
        let schema = r_schema();
        let theta = and(
            ge(col_r("sale"), col_b("cust")),
            eq(col_r("state"), lit("NY")),
        );
        let bound = theta.bind(Some(&schema), Some(&schema)).unwrap();
        let b_row = [
            Value::Int(15),
            Value::Int(1),
            Value::Float(0.0),
            Value::str("CA"),
        ];
        let inlined = bind_base(&bound, &b_row);
        assert!(!uses_base(&inlined));
        for row in sample_rows() {
            assert_eq!(
                inlined.eval_bool(&[], row.values()).unwrap(),
                bound.eval_bool(&b_row, row.values()).unwrap()
            );
        }
        // And the inlined form vectorizes where the original could not.
        assert!(eval_batch(&bound, &chunk()).is_none());
        assert!(eval_batch(&inlined, &chunk()).is_some());
    }

    #[test]
    fn batchable_shape_rejects_div_mod_only() {
        let schema = r_schema();
        let shape = |e: Expr| batchable_bound_shape(&e.bind(Some(&schema), Some(&schema)).unwrap());
        assert!(shape(eq(col_b("cust"), col_r("cust"))));
        assert!(shape(not(gt(
            add(col_r("sale"), lit(1i64)),
            mul(col_r("cust"), lit(2i64))
        ))));
        assert!(!shape(eq(div(col_r("sale"), lit(2i64)), lit(5i64))));
        assert!(!shape(and(
            lit(true),
            eq(modulo(col_r("cust"), lit(2i64)), lit(0i64))
        )));
    }

    #[test]
    fn div_mod_and_base_refs_fall_back() {
        let schema = r_schema();
        let c = chunk();
        let e = eq(div(col_r("sale"), lit(2i64)), lit(5i64))
            .bind(None, Some(&schema))
            .unwrap();
        assert!(eval_batch(&e, &c).is_none());
        let e = eq(modulo(col_r("cust"), lit(2i64)), lit(0i64))
            .bind(None, Some(&schema))
            .unwrap();
        assert!(eval_batch(&e, &c).is_none());
        let e = eq(col_b("cust"), col_r("cust"))
            .bind(Some(&schema), Some(&schema))
            .unwrap();
        assert!(eval_batch(&e, &c).is_none());
        // A conjunction containing a fallible branch must also fall back,
        // preserving short-circuit error semantics.
        let e = and(lit(false), eq(div(lit(1i64), lit(0i64)), lit(1i64)))
            .bind(None, Some(&schema))
            .unwrap();
        assert!(eval_batch(&e, &c).is_none());
    }

    #[test]
    fn fallback_column_disables_vectorization() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Bool(true)]),
            Row::new(vec![Value::Float(2.0), Value::Bool(false)]),
        ];
        let chunk = ColumnarChunk::from_rows(&rows, 0, 2, &[true, true]);
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Bool)]);
        let e = eq(col_r("x"), lit(1i64)).bind(None, Some(&schema)).unwrap();
        assert!(eval_batch(&e, &chunk).is_none()); // mixed Int/Float column
    }

    #[test]
    fn collect_detail_cols_and_uses_base() {
        let schema = r_schema();
        let e = and(eq(col_r("state"), lit("NY")), gt(col_r("sale"), lit(5i64)))
            .bind(None, Some(&schema))
            .unwrap();
        let mut needed = vec![false; 4];
        collect_detail_cols(&e, &mut needed);
        assert_eq!(needed, vec![false, false, true, true]);
        assert!(!uses_base(&e));
        let e = eq(col_b("cust"), col_r("cust"))
            .bind(Some(&schema), Some(&schema))
            .unwrap();
        assert!(uses_base(&e));
    }
}
