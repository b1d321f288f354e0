//! Compile-once, evaluate-per-row expressions.
//!
//! [`eval()`](crate::eval()) is the reference interpreter: it resolves every
//! column through the [`EvalContext`] `HashMap` per row, recurses through
//! boxed [`Expr`] nodes and clones a [`Datum`] at every step. That is fine
//! at plan time (partition selection, constant folding) but it is the inner
//! loop of every Filter/Join/Agg at run time. [`compile()`] lowers an
//! `Expr` + `EvalContext` into a [`CompiledExpr`] once per plan node (the
//! executor caches it across executions):
//!
//! * column references become direct row offsets (no per-row map lookup),
//! * constant subtrees, and parameters the context binds, are folded at
//!   compile time; the executor compiles without parameters and binds
//!   them per execution with [`CompiledExpr::bind_params`],
//! * the dominant predicate shapes get dedicated fast paths that evaluate
//!   by reference without cloning: `col OP const`, `col BETWEEN const AND
//!   const`, and `col IN (const, …)` via a hash set ([`ConstSet`]) instead
//!   of a linear list walk.
//!
//! Compilation is **infallible** and **semantics-preserving**: whatever the
//! interpreter returns for (expr, row, ctx) — value or error, in the same
//! evaluation order — the compiled form returns too. That forces three
//! rules, each of which matches a short-circuit in the interpreter:
//!
//! 1. Unbound columns/parameters compile to error-*at-eval* nodes, not
//!    compile errors: `false AND $99` must still evaluate to `false`.
//! 2. A constant subtree is replaced by its value only when evaluation
//!    *succeeds*; erroring subtrees (`1/0`) stay unfolded so the error
//!    surfaces exactly where the interpreter would raise it.
//! 3. The `IN` hash set is only used for non-null, all-literal lists of a
//!    single comparability class; anything else keeps the ordered walk,
//!    whose error/NULL behaviour is position-dependent.

use crate::ast::{CmpOp, Expr};
use crate::colref::ColRef;
use crate::eval::{cmp_holds, EvalContext};
use mpp_common::value::ArithOp;
use mpp_common::{Datum, Error, Result, Row};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Comparability class of a non-null [`Datum`]: SQL comparison
/// ([`Datum::sql_cmp`]) succeeds exactly between values of the same class
/// (numerics coerce through `DataType::common_super_type`; dates count as
/// numeric there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    Numeric,
    Text,
    Bool,
}

impl TypeClass {
    /// `None` for NULL, which belongs to no class.
    pub fn of(v: &Datum) -> Option<TypeClass> {
        match v {
            Datum::Null => None,
            Datum::Bool(_) => Some(TypeClass::Bool),
            Datum::Int32(_) | Datum::Int64(_) | Datum::Float64(_) | Datum::Date(_) => {
                Some(TypeClass::Numeric)
            }
            Datum::Str(_) => Some(TypeClass::Text),
        }
    }
}

/// A prepared `IN`-list: non-null literals of one comparability class,
/// probed through a hash set. `Datum`'s `Hash` is normalized across the
/// numeric types (`distribution_hash`), so set membership agrees with
/// `sql_cmp` equality within a class.
#[derive(Debug, Clone)]
pub struct ConstSet {
    set: HashSet<Datum>,
    class: TypeClass,
    /// A representative list element, used to reproduce the interpreter's
    /// comparison error for probes outside `class`.
    witness: Datum,
    negated: bool,
}

impl ConstSet {
    /// Build from literal list values; `None` when the list is empty,
    /// contains NULL, or spans more than one comparability class (those
    /// keep the ordered walk).
    pub fn try_new(values: &[Datum], negated: bool) -> Option<ConstSet> {
        let witness = values.first()?.clone();
        let class = TypeClass::of(&witness)?;
        let mut set = HashSet::with_capacity(values.len());
        for v in values {
            if TypeClass::of(v) != Some(class) {
                return None;
            }
            set.insert(v.clone());
        }
        Some(ConstSet {
            set,
            class,
            witness,
            negated,
        })
    }

    /// `probe IN set` under SQL semantics: NULL probe → NULL, class
    /// mismatch → the same comparison error the interpreted walk raises.
    pub fn probe(&self, v: &Datum) -> Result<Datum> {
        match TypeClass::of(v) {
            None => Ok(Datum::Null),
            Some(c) if c == self.class => Ok(Datum::Bool(self.set.contains(v) != self.negated)),
            Some(_) => {
                // Cross-class probes cannot compare; the interpreter errors
                // on the first list element.
                v.sql_cmp(&self.witness)?;
                Err(Error::TypeMismatch(format!(
                    "cannot probe {v:?} against IN-list of different type"
                )))
            }
        }
    }
}

/// An [`Expr`] lowered against a fixed [`EvalContext`]: columns are row
/// offsets, parameters and constant subtrees are [`CompiledExpr::Const`],
/// and the hot predicate shapes have dedicated variants.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    Const(Datum),
    /// Bound column: direct row offset. The [`ColRef`] is kept for error
    /// messages only.
    Col {
        pos: usize,
        col: ColRef,
    },
    /// Column the context could not resolve: errors when (and only when)
    /// evaluated, like the interpreter.
    UnboundCol(ColRef),
    /// Parameter with no binding (or `$0`): errors when evaluated.
    UnboundParam(u32),
    /// Fast path: `col OP const`, compared by reference.
    CmpColConst {
        op: CmpOp,
        pos: usize,
        col: ColRef,
        val: Datum,
    },
    Cmp {
        op: CmpOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    And(Vec<CompiledExpr>),
    Or(Vec<CompiledExpr>),
    Not(Box<CompiledExpr>),
    IsNull(Box<CompiledExpr>),
    Arith {
        op: ArithOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    /// Fast path: `col BETWEEN const AND const`, compared by reference.
    BetweenColConst {
        pos: usize,
        col: ColRef,
        low: Datum,
        high: Datum,
    },
    Between {
        expr: Box<CompiledExpr>,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
    },
    /// Fast path: `input [NOT] IN (const, …)` through a hash set.
    InConstSet {
        input: Box<CompiledExpr>,
        set: ConstSet,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
}

/// Lower `expr` against `ctx`. Infallible: resolution failures become
/// error-at-eval nodes so short-circuit semantics survive compilation.
pub fn compile(expr: &Expr, ctx: &EvalContext<'_>) -> CompiledExpr {
    match expr {
        Expr::Col(c) => match ctx.position_of(c) {
            Ok(pos) => CompiledExpr::Col {
                pos,
                col: c.clone(),
            },
            Err(_) => CompiledExpr::UnboundCol(c.clone()),
        },
        Expr::Lit(d) => CompiledExpr::Const(d.clone()),
        Expr::Param(n) => match ctx.param(*n) {
            Ok(v) => CompiledExpr::Const(v.clone()),
            Err(_) => CompiledExpr::UnboundParam(*n),
        },
        Expr::Cmp { op, left, right } => {
            let left = compile(left, ctx);
            let right = compile(right, ctx);
            // Only the col-op-const orientation is specialized: flipping
            // const-op-col would swap the operands of `sql_cmp` and change
            // error messages.
            fold(match (left, right) {
                (CompiledExpr::Col { pos, col }, CompiledExpr::Const(val)) => {
                    CompiledExpr::CmpColConst {
                        op: *op,
                        pos,
                        col,
                        val,
                    }
                }
                (left, right) => CompiledExpr::Cmp {
                    op: *op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
            })
        }
        Expr::And(exprs) => fold(CompiledExpr::And(
            exprs.iter().map(|e| compile(e, ctx)).collect(),
        )),
        Expr::Or(exprs) => fold(CompiledExpr::Or(
            exprs.iter().map(|e| compile(e, ctx)).collect(),
        )),
        Expr::Not(e) => fold(CompiledExpr::Not(Box::new(compile(e, ctx)))),
        Expr::IsNull(e) => fold(CompiledExpr::IsNull(Box::new(compile(e, ctx)))),
        Expr::Arith { op, left, right } => fold(CompiledExpr::Arith {
            op: *op,
            left: Box::new(compile(left, ctx)),
            right: Box::new(compile(right, ctx)),
        }),
        Expr::Between { expr, low, high } => {
            let expr = compile(expr, ctx);
            let low = compile(low, ctx);
            let high = compile(high, ctx);
            fold(match (expr, low, high) {
                (
                    CompiledExpr::Col { pos, col },
                    CompiledExpr::Const(low),
                    CompiledExpr::Const(high),
                ) => CompiledExpr::BetweenColConst {
                    pos,
                    col,
                    low,
                    high,
                },
                (expr, low, high) => CompiledExpr::Between {
                    expr: Box::new(expr),
                    low: Box::new(low),
                    high: Box::new(high),
                },
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let input = compile(expr, ctx);
            let list: Vec<CompiledExpr> = list.iter().map(|e| compile(e, ctx)).collect();
            let values: Option<Vec<Datum>> = list
                .iter()
                .map(|e| match e {
                    CompiledExpr::Const(d) => Some(d.clone()),
                    _ => None,
                })
                .collect();
            fold(
                match values.and_then(|vs| ConstSet::try_new(&vs, *negated)) {
                    Some(set) => CompiledExpr::InConstSet {
                        input: Box::new(input),
                        set,
                    },
                    None => CompiledExpr::InList {
                        expr: Box::new(input),
                        list,
                        negated: *negated,
                    },
                },
            )
        }
    }
}

/// Replace an all-constant node by its value — but only when evaluation
/// succeeds. Erroring constants (`1/0`) stay unfolded so the error keeps
/// its place in the evaluation order.
fn fold(node: CompiledExpr) -> CompiledExpr {
    if !node.is_const() {
        return node;
    }
    match node.eval(&Row::new(Vec::new())) {
        Ok(d) => CompiledExpr::Const(d),
        Err(_) => node,
    }
}

impl CompiledExpr {
    /// Row-independent? Children are already folded, so one level of
    /// `Const` checks suffices.
    fn is_const(&self) -> bool {
        use CompiledExpr::*;
        let c = |e: &CompiledExpr| matches!(e, Const(_));
        match self {
            Const(_) => true,
            Col { .. }
            | UnboundCol(_)
            | UnboundParam(_)
            | CmpColConst { .. }
            | BetweenColConst { .. } => false,
            Cmp { left, right, .. } | Arith { left, right, .. } => c(left) && c(right),
            And(es) | Or(es) => es.iter().all(c),
            Not(e) | IsNull(e) => c(e),
            Between { expr, low, high } => c(expr) && c(low) && c(high),
            InConstSet { input, .. } => c(input),
            InList { expr, list, .. } => c(expr) && list.iter().all(c),
        }
    }

    /// Does this tree reference any bindable (`$1`-based) parameter?
    /// Templates without parameters evaluate identically under every
    /// binding, so a caller caching compiled forms can share them as-is;
    /// `UnboundParam(0)` errors regardless of bindings and does not count.
    pub fn has_params(&self) -> bool {
        use CompiledExpr::*;
        match self {
            UnboundParam(n) => *n >= 1,
            Const(_) | Col { .. } | UnboundCol(_) | CmpColConst { .. } | BetweenColConst { .. } => {
                false
            }
            Cmp { left, right, .. } | Arith { left, right, .. } => {
                left.has_params() || right.has_params()
            }
            And(es) | Or(es) => es.iter().any(|e| e.has_params()),
            Not(e) | IsNull(e) => e.has_params(),
            Between { expr, low, high } => {
                expr.has_params() || low.has_params() || high.has_params()
            }
            InConstSet { input, .. } => input.has_params(),
            InList { expr, list, .. } => expr.has_params() || list.iter().any(|e| e.has_params()),
        }
    }

    /// Bind prepared-statement parameters into a *template* — a tree
    /// compiled against a context **without** parameter values, so every
    /// `$n` lowered to [`CompiledExpr::UnboundParam`]. Substituting the
    /// bindings re-enables exactly the specializations [`compile`] would
    /// have applied had the parameters been known at compile time
    /// (col-op-const, BETWEEN, `IN` hash sets, constant folding), so
    /// `compile(e, ctx_without_params).bind_params(p)` evaluates
    /// identically to `compile(e, ctx.with_params(p))` — values and
    /// errors alike. Parameters outside `params` (and the invalid `$0`)
    /// stay unbound and keep their error-at-eval behaviour.
    pub fn bind_params(&self, params: &[Datum]) -> CompiledExpr {
        match self {
            CompiledExpr::UnboundParam(n) if *n >= 1 && (*n as usize) <= params.len() => {
                CompiledExpr::Const(params[*n as usize - 1].clone())
            }
            CompiledExpr::Const(_)
            | CompiledExpr::Col { .. }
            | CompiledExpr::UnboundCol(_)
            | CompiledExpr::UnboundParam(_)
            | CompiledExpr::CmpColConst { .. }
            | CompiledExpr::BetweenColConst { .. } => self.clone(),
            CompiledExpr::Cmp { op, left, right } => {
                let left = left.bind_params(params);
                let right = right.bind_params(params);
                fold(match (left, right) {
                    (CompiledExpr::Col { pos, col }, CompiledExpr::Const(val)) => {
                        CompiledExpr::CmpColConst {
                            op: *op,
                            pos,
                            col,
                            val,
                        }
                    }
                    (left, right) => CompiledExpr::Cmp {
                        op: *op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                })
            }
            CompiledExpr::And(es) => fold(CompiledExpr::And(
                es.iter().map(|e| e.bind_params(params)).collect(),
            )),
            CompiledExpr::Or(es) => fold(CompiledExpr::Or(
                es.iter().map(|e| e.bind_params(params)).collect(),
            )),
            CompiledExpr::Not(e) => fold(CompiledExpr::Not(Box::new(e.bind_params(params)))),
            CompiledExpr::IsNull(e) => fold(CompiledExpr::IsNull(Box::new(e.bind_params(params)))),
            CompiledExpr::Arith { op, left, right } => fold(CompiledExpr::Arith {
                op: *op,
                left: Box::new(left.bind_params(params)),
                right: Box::new(right.bind_params(params)),
            }),
            CompiledExpr::Between { expr, low, high } => {
                let expr = expr.bind_params(params);
                let low = low.bind_params(params);
                let high = high.bind_params(params);
                fold(match (expr, low, high) {
                    (
                        CompiledExpr::Col { pos, col },
                        CompiledExpr::Const(low),
                        CompiledExpr::Const(high),
                    ) => CompiledExpr::BetweenColConst {
                        pos,
                        col,
                        low,
                        high,
                    },
                    (expr, low, high) => CompiledExpr::Between {
                        expr: Box::new(expr),
                        low: Box::new(low),
                        high: Box::new(high),
                    },
                })
            }
            CompiledExpr::InConstSet { input, set } => fold(CompiledExpr::InConstSet {
                input: Box::new(input.bind_params(params)),
                set: set.clone(),
            }),
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let input = expr.bind_params(params);
                let list: Vec<CompiledExpr> = list.iter().map(|e| e.bind_params(params)).collect();
                let values: Option<Vec<Datum>> = list
                    .iter()
                    .map(|e| match e {
                        CompiledExpr::Const(d) => Some(d.clone()),
                        _ => None,
                    })
                    .collect();
                fold(
                    match values.and_then(|vs| ConstSet::try_new(&vs, *negated)) {
                        Some(set) => CompiledExpr::InConstSet {
                            input: Box::new(input),
                            set,
                        },
                        None => CompiledExpr::InList {
                            expr: Box::new(input),
                            list,
                            negated: *negated,
                        },
                    },
                )
            }
        }
    }

    /// Evaluate against a row. Mirrors [`crate::eval()`] exactly, including
    /// three-valued logic, short circuits and evaluation-order-dependent
    /// errors.
    pub fn eval(&self, row: &Row) -> Result<Datum> {
        Ok(self.eval_cow(row)?.into_owned())
    }

    /// Evaluate as a WHERE condition: `unknown` does not pass.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval_cow(row)?.as_bool()?.unwrap_or(false))
    }

    fn eval_cow<'a>(&'a self, row: &'a Row) -> Result<Cow<'a, Datum>> {
        match self {
            CompiledExpr::Const(d) => Ok(Cow::Borrowed(d)),
            CompiledExpr::Col { pos, col } => row
                .get(*pos)
                .map(Cow::Borrowed)
                .ok_or_else(|| Error::Execution(format!("row too short for {col} at {pos}"))),
            CompiledExpr::UnboundCol(c) => Err(Error::Execution(format!("unbound column {c}"))),
            CompiledExpr::UnboundParam(0) => {
                Err(Error::Execution("parameter numbers are 1-based".into()))
            }
            CompiledExpr::UnboundParam(n) => {
                Err(Error::Execution(format!("unbound parameter ${n}")))
            }
            CompiledExpr::CmpColConst { op, pos, col, val } => {
                let v = row
                    .get(*pos)
                    .ok_or_else(|| Error::Execution(format!("row too short for {col} at {pos}")))?;
                Ok(Cow::Owned(match v.sql_cmp(val)? {
                    None => Datum::Null,
                    Some(ord) => Datum::Bool(cmp_holds(*op, ord)),
                }))
            }
            CompiledExpr::Cmp { op, left, right } => {
                let l = left.eval_cow(row)?;
                let r = right.eval_cow(row)?;
                Ok(Cow::Owned(match l.sql_cmp(&r)? {
                    None => Datum::Null,
                    Some(ord) => Datum::Bool(cmp_holds(*op, ord)),
                }))
            }
            CompiledExpr::And(exprs) => {
                let mut saw_null = false;
                for e in exprs {
                    match e.eval_cow(row)?.as_bool()? {
                        Some(false) => return Ok(Cow::Owned(Datum::Bool(false))),
                        Some(true) => {}
                        None => saw_null = true,
                    }
                }
                Ok(Cow::Owned(if saw_null {
                    Datum::Null
                } else {
                    Datum::Bool(true)
                }))
            }
            CompiledExpr::Or(exprs) => {
                let mut saw_null = false;
                for e in exprs {
                    match e.eval_cow(row)?.as_bool()? {
                        Some(true) => return Ok(Cow::Owned(Datum::Bool(true))),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(Cow::Owned(if saw_null {
                    Datum::Null
                } else {
                    Datum::Bool(false)
                }))
            }
            CompiledExpr::Not(e) => Ok(Cow::Owned(match e.eval_cow(row)?.as_bool()? {
                None => Datum::Null,
                Some(b) => Datum::Bool(!b),
            })),
            CompiledExpr::IsNull(e) => Ok(Cow::Owned(Datum::Bool(e.eval_cow(row)?.is_null()))),
            CompiledExpr::Arith { op, left, right } => {
                let l = left.eval_cow(row)?;
                let r = right.eval_cow(row)?;
                Ok(Cow::Owned(l.arith(*op, &r)?))
            }
            CompiledExpr::BetweenColConst {
                pos,
                col,
                low,
                high,
            } => {
                let v = row
                    .get(*pos)
                    .ok_or_else(|| Error::Execution(format!("row too short for {col} at {pos}")))?;
                Ok(Cow::Owned(between_result(v, low, high)?))
            }
            CompiledExpr::Between { expr, low, high } => {
                let v = expr.eval_cow(row)?;
                let lo = low.eval_cow(row)?;
                let hi = high.eval_cow(row)?;
                Ok(Cow::Owned(between_result(&v, &lo, &hi)?))
            }
            CompiledExpr::InConstSet { input, set } => {
                let v = input.eval_cow(row)?;
                Ok(Cow::Owned(set.probe(&v)?))
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_cow(row)?;
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = item.eval_cow(row)?;
                    match v.sql_cmp(&iv)? {
                        None => saw_null = true,
                        Some(Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                Ok(Cow::Owned(if found {
                    Datum::Bool(!negated)
                } else if saw_null {
                    Datum::Null
                } else {
                    Datum::Bool(*negated)
                }))
            }
        }
    }
}

/// Shared BETWEEN combination: `v >= low AND v <= high` under 3VL.
pub(crate) fn between_result(v: &Datum, low: &Datum, high: &Datum) -> Result<Datum> {
    let ge_low = v.sql_cmp(low)?.map(|ord| ord != Ordering::Less);
    let le_high = v.sql_cmp(high)?.map(|ord| ord != Ordering::Greater);
    Ok(match (ge_low, le_high) {
        (Some(false), _) | (_, Some(false)) => Datum::Bool(false),
        (Some(true), Some(true)) => Datum::Bool(true),
        _ => Datum::Null,
    })
}

/// One-shot `v IN list` over an all-literal list, shared with the
/// interpreter ([`crate::eval()`]): same ordered-walk semantics (lazy
/// errors, positional NULL handling) but compares by reference with no
/// recursion or cloning. Returns `None` when any element is not a literal,
/// telling the caller to take the general path.
pub(crate) fn in_list_literals(v: &Datum, list: &[Expr], negated: bool) -> Result<Option<Datum>> {
    let mut saw_null = false;
    let mut found = false;
    for item in list {
        let Expr::Lit(iv) = item else {
            return Ok(None);
        };
        match v.sql_cmp(iv)? {
            None => saw_null = true,
            Some(Ordering::Equal) => {
                found = true;
                break;
            }
            Some(_) => {}
        }
    }
    Ok(Some(if found {
        Datum::Bool(!negated)
    } else if saw_null {
        Datum::Null
    } else {
        Datum::Bool(negated)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_common::row;

    fn ctx2() -> EvalContext<'static> {
        EvalContext::from_columns(&[ColRef::new(1, "a"), ColRef::new(2, "b")])
    }

    fn col(id: u32) -> Expr {
        Expr::col(ColRef::new(id, "c"))
    }

    #[test]
    fn col_refs_become_offsets() {
        let c = compile(&Expr::lt(col(1), col(2)), &ctx2());
        assert!(matches!(c, CompiledExpr::Cmp { op: CmpOp::Lt, .. }));
        assert_eq!(c.eval(&row![5i32, 10i32]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn col_op_const_fast_path() {
        let c = compile(&Expr::lt(col(1), Expr::lit(7i32)), &ctx2());
        assert!(matches!(c, CompiledExpr::CmpColConst { .. }));
        assert_eq!(c.eval(&row![5i32, 0i32]).unwrap(), Datum::Bool(true));
        assert_eq!(c.eval(&row![9i32, 0i32]).unwrap(), Datum::Bool(false));
        assert_eq!(
            c.eval(&Row::new(vec![Datum::Null, Datum::Int32(0)]))
                .unwrap(),
            Datum::Null
        );
    }

    #[test]
    fn params_fold_to_consts() {
        let params = vec![Datum::Int32(7)];
        let ctx = ctx2().with_params(&params);
        let c = compile(&Expr::eq(col(1), Expr::Param(1)), &ctx);
        assert!(matches!(c, CompiledExpr::CmpColConst { .. }));
        assert_eq!(c.eval(&row![7i32, 0i32]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn constant_subtrees_fold() {
        // (1 + 2) < b   →   3 < b
        let e = Expr::lt(
            Expr::Arith {
                op: ArithOp::Add,
                left: Box::new(Expr::lit(1i32)),
                right: Box::new(Expr::lit(2i32)),
            },
            col(2),
        );
        let c = compile(&e, &ctx2());
        assert!(matches!(
            &c,
            CompiledExpr::Cmp { left, .. } if matches!(**left, CompiledExpr::Const(_))
        ));
        assert_eq!(c.eval(&row![0i32, 10i32]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn erroring_constants_stay_lazy() {
        // false AND (1/0 = 1): the interpreter short-circuits before the
        // division; folding must not hoist the error to compile time.
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::lit(1i32)),
            right: Box::new(Expr::lit(0i32)),
        };
        let e = Expr::and(vec![
            Expr::lit(false),
            Expr::eq(div.clone(), Expr::lit(1i32)),
        ]);
        let c = compile(&e, &ctx2());
        assert_eq!(c.eval(&row![0i32, 0i32]).unwrap(), Datum::Bool(false));
        // Standalone, the error still surfaces at eval.
        let c = compile(&Expr::eq(div, Expr::lit(1i32)), &ctx2());
        assert!(c.eval(&row![0i32, 0i32]).is_err());
    }

    #[test]
    fn unbound_refs_error_only_when_reached() {
        let e = Expr::and(vec![Expr::lit(false), Expr::eq(col(99), Expr::lit(1i32))]);
        let c = compile(&e, &ctx2());
        assert_eq!(c.eval(&row![0i32, 0i32]).unwrap(), Datum::Bool(false));
        let e = Expr::and(vec![Expr::eq(col(99), Expr::lit(1i32)), Expr::lit(false)]);
        let c = compile(&e, &ctx2());
        assert!(c.eval(&row![0i32, 0i32]).is_err());
        // Same for parameters.
        let e = Expr::or(vec![Expr::lit(true), Expr::eq(col(1), Expr::Param(3))]);
        let c = compile(&e, &ctx2());
        assert_eq!(c.eval(&row![0i32, 0i32]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn in_const_set_fast_path() {
        let e = Expr::in_list(
            col(1),
            vec![Expr::lit(1i32), Expr::lit(3i32), Expr::lit(5i32)],
        );
        let c = compile(&e, &ctx2());
        assert!(matches!(c, CompiledExpr::InConstSet { .. }));
        assert_eq!(c.eval(&row![3i32, 0i32]).unwrap(), Datum::Bool(true));
        assert_eq!(c.eval(&row![4i32, 0i32]).unwrap(), Datum::Bool(false));
        // NULL probe → unknown.
        assert_eq!(
            c.eval(&Row::new(vec![Datum::Null, Datum::Int32(0)]))
                .unwrap(),
            Datum::Null
        );
        // Coerced equality: Int64 probe against Int32 literals.
        assert_eq!(
            c.eval(&Row::new(vec![Datum::Int64(5), Datum::Int32(0)]))
                .unwrap(),
            Datum::Bool(true)
        );
        // Cross-class probe errors like the interpreter.
        assert!(c
            .eval(&Row::new(vec![Datum::str("x"), Datum::Int32(0)]))
            .is_err());
    }

    #[test]
    fn in_list_with_null_keeps_ordered_walk() {
        let e = Expr::in_list(col(1), vec![Expr::lit(1i32), Expr::Lit(Datum::Null)]);
        let c = compile(&e, &ctx2());
        assert!(matches!(c, CompiledExpr::InList { .. }));
        assert_eq!(c.eval(&row![1i32, 0i32]).unwrap(), Datum::Bool(true));
        assert_eq!(c.eval(&row![2i32, 0i32]).unwrap(), Datum::Null);
    }

    #[test]
    fn between_col_const_fast_path() {
        let e = Expr::between(col(1), Expr::lit(1i32), Expr::lit(9i32));
        let c = compile(&e, &ctx2());
        assert!(matches!(c, CompiledExpr::BetweenColConst { .. }));
        assert_eq!(c.eval(&row![5i32, 0i32]).unwrap(), Datum::Bool(true));
        assert_eq!(c.eval(&row![10i32, 0i32]).unwrap(), Datum::Bool(false));
        assert_eq!(
            c.eval(&Row::new(vec![Datum::Null, Datum::Int32(0)]))
                .unwrap(),
            Datum::Null
        );
    }

    #[test]
    fn template_bind_matches_direct_compile() {
        // Every parameterized shape: template (no params at compile time)
        // + bind_params must reach the same specialized form and the same
        // results as compiling with the params in the context.
        let params = vec![Datum::Int32(7), Datum::Int32(40)];
        let shapes = vec![
            Expr::eq(col(1), Expr::Param(1)),
            Expr::between(col(1), Expr::Param(1), Expr::Param(2)),
            Expr::in_list(
                col(1),
                vec![Expr::Param(1), Expr::Param(2), Expr::lit(9i32)],
            ),
            Expr::and(vec![
                Expr::lt(col(1), Expr::Param(2)),
                Expr::gt(col(2), Expr::Param(1)),
            ]),
            // Constant subtree enabled by binding: $1 + 1.
            Expr::eq(
                col(1),
                Expr::Arith {
                    op: ArithOp::Add,
                    left: Box::new(Expr::Param(1)),
                    right: Box::new(Expr::lit(1i32)),
                },
            ),
        ];
        for e in shapes {
            let template = compile(&e, &ctx2());
            assert!(template.has_params());
            let bound = template.bind_params(&params);
            assert!(!bound.has_params());
            let direct = compile(&e, &ctx2().with_params(&params));
            for a in [0i32, 7, 8, 39, 40, 41, 9] {
                for b in [0i32, 7, 100] {
                    let r = row![a, b];
                    assert_eq!(
                        bound.eval(&r).ok(),
                        direct.eval(&r).ok(),
                        "divergence on {e:?} at ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn bind_params_respecializes_fast_paths() {
        let params = vec![Datum::Int32(7), Datum::Int32(40)];
        let t = compile(&Expr::eq(col(1), Expr::Param(1)), &ctx2());
        assert!(matches!(t, CompiledExpr::Cmp { .. }));
        assert!(matches!(
            t.bind_params(&params),
            CompiledExpr::CmpColConst { .. }
        ));
        let t = compile(
            &Expr::between(col(1), Expr::Param(1), Expr::Param(2)),
            &ctx2(),
        );
        assert!(matches!(
            t.bind_params(&params),
            CompiledExpr::BetweenColConst { .. }
        ));
        let t = compile(
            &Expr::in_list(col(1), vec![Expr::Param(1), Expr::Param(2)]),
            &ctx2(),
        );
        assert!(matches!(
            t.bind_params(&params),
            CompiledExpr::InConstSet { .. }
        ));
    }

    #[test]
    fn bind_params_leaves_out_of_range_params_unbound() {
        let t = compile(&Expr::eq(col(1), Expr::Param(5)), &ctx2());
        let bound = t.bind_params(&[Datum::Int32(1)]);
        assert!(bound.has_params());
        assert!(bound.eval(&row![1i32, 2i32]).is_err());
        // $0 never binds: its 1-based error is part of the semantics.
        let t = compile(&Expr::eq(col(1), Expr::Param(0)), &ctx2());
        assert!(!t.has_params());
        assert!(t
            .bind_params(&[Datum::Int32(1)])
            .eval(&row![1i32, 2i32])
            .is_err());
    }

    #[test]
    fn fully_constant_predicate_folds_to_const() {
        let e = Expr::and(vec![
            Expr::lt(Expr::lit(1i32), Expr::lit(2i32)),
            Expr::in_list(Expr::lit(3i32), vec![Expr::lit(3i32), Expr::lit(4i32)]),
        ]);
        let c = compile(&e, &ctx2());
        assert!(matches!(c, CompiledExpr::Const(Datum::Bool(true))));
    }
}
