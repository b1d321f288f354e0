//! Batch (vectorized) evaluation of [`CompiledExpr`] over [`RowBlock`]s.
//!
//! Two public entry points extend the per-row API of `compile`:
//!
//! * [`CompiledExpr::eval_predicate_block`] — evaluate a WHERE predicate
//!   over a block and return the **refined selection vector** (physical
//!   indices of rows where the predicate is `true`), plus a flag telling
//!   whether the row-at-a-time fallback ran.
//! * [`CompiledExpr::eval_column`] — evaluate a scalar expression over a
//!   block into a [`ColumnVec`] with one value per selected row (projection
//!   targets, join keys, aggregate arguments, group keys).
//!
//! # Semantics: exactly the row path, or fall back to it
//!
//! SQL three-valued logic and evaluation-order-dependent errors make naive
//! column-at-a-time evaluation subtly wrong: `AND` only short-circuits on
//! `false` (a NULL conjunct keeps evaluating later conjuncts, which may
//! error), and evaluating a whole column of a subexpression visits rows the
//! row-at-a-time path may never reach. The batch evaluator therefore:
//!
//! 1. evaluates *provably error-free* predicate trees as word-packed
//!    **dual bitmaps** (`Mask3`): a value mask and a valid mask encode
//!    the three truth values, leaves run branch-free typed loops over all
//!    physical rows (NULL slots hold dummy values and are masked by the
//!    column's validity bitmap), and `AND`/`OR`/`NOT`/`IS NULL` compose
//!    with Kleene word formulas — 64 rows per op, order-independent
//!    because no covered leaf can error;
//! 2. for everything else tracks **alive sets** through `AND`/`OR` —
//!    conjunct *k* is evaluated only on rows not yet decided `false`
//!    (resp. `true`), which is exactly the set of rows the row path
//!    evaluates it on;
//! 3. treats *any* internal error as "this block needs row semantics" and
//!    re-runs the expression row-at-a-time over the block's selection. The
//!    fallback reproduces the row path bit for bit — including *which* row
//!    errors first and whether an error is masked by a short circuit that
//!    the column-major order missed. Arithmetic kernels use the same
//!    mechanism as a **deferred error mask**: overflow and division by
//!    zero on non-NULL slots are accumulated branch-free, and one set bit
//!    aborts the whole block to the row path.
//!
//! The net effect: `eval_predicate_block` ≡ filtering with
//! [`CompiledExpr::eval_predicate`] per row, and `eval_column` ≡ mapping
//! [`CompiledExpr::eval`] per row — values *and* errors — while the common
//! shapes (col-op-const, BETWEEN, IN-set, IS NULL, AND/OR of those) run as
//! word-mask kernels with no `Datum` construction, NULLs included.

use crate::ast::CmpOp;
use crate::compile::{between_result, CompiledExpr};
use crate::eval::cmp_holds;
use mpp_common::value::ArithOp;
use mpp_common::{
    bitmap_get, bitmap_ones, bitmap_zero_tail, ColumnData, ColumnVec, Datum, Error, Result,
    RowBlock,
};

/// Three-valued logic as a byte: `1` true, `0` false, `-1` null/unknown.
pub type Trool = i8;
pub const T_TRUE: Trool = 1;
pub const T_FALSE: Trool = 0;
pub const T_NULL: Trool = -1;

#[inline]
fn datum_to_trool(d: &Datum) -> Result<Trool> {
    Ok(match d.as_bool()? {
        None => T_NULL,
        Some(true) => T_TRUE,
        Some(false) => T_FALSE,
    })
}

/// Build a boolean result column from trools: typed `Bool` values with a
/// validity bitmap marking the NULL slots (dummy `false` underneath).
fn trools_to_column(tr: &[Trool]) -> ColumnVec {
    let n = tr.len();
    let mut vals = Vec::with_capacity(n);
    let mut valid = vec![0u64; n.div_ceil(64)];
    let mut any_null = false;
    for (i, &t) in tr.iter().enumerate() {
        vals.push(t == T_TRUE);
        if t == T_NULL {
            any_null = true;
        } else {
            valid[i >> 6] |= 1 << (i & 63);
        }
    }
    ColumnVec::from_parts(ColumnData::Bool(vals), any_null.then_some(valid))
}

/// Integer-class view of a constant (Int32/Int64/Date — the combinations
/// `sql_cmp` compares through `as_i64`).
#[inline]
fn const_i64(d: &Datum) -> Option<i64> {
    match d {
        Datum::Int32(v) => Some(*v as i64),
        Datum::Int64(v) => Some(*v),
        Datum::Date(v) => Some(*v as i64),
        _ => None,
    }
}

/// Numeric-class view of a constant (used when either side is Float64).
#[inline]
fn const_f64(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int32(v) => Some(*v as f64),
        Datum::Int64(v) => Some(*v as f64),
        Datum::Float64(v) => Some(*v),
        Datum::Date(v) => Some(*v as f64),
        _ => None,
    }
}

/// `col OP const` over a selection: typed loops for the class-compatible
/// combinations (NULL slots yield three-valued NULL via the validity
/// bitmap), per-row `sql_cmp` otherwise (same values, same errors).
fn cmp_const_trools(col: &ColumnVec, sel: &[u32], op: CmpOp, val: &Datum) -> Result<Vec<Trool>> {
    // NULL constant: sql_cmp returns None before any type check.
    if val.is_null() {
        return Ok(vec![T_NULL; sel.len()]);
    }
    let tr = |b: bool| if b { T_TRUE } else { T_FALSE };
    macro_rules! int_loop {
        ($v:expr, $c:expr) => {{
            let c = $c;
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !col.is_valid(i) {
                        T_NULL
                    } else {
                        tr(cmp_holds(op, ($v[i] as i64).cmp(&c)))
                    }
                })
                .collect())
        }};
    }
    macro_rules! f64_loop {
        ($v:expr, $c:expr) => {{
            let c = $c;
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !col.is_valid(i) {
                        T_NULL
                    } else {
                        tr(cmp_holds(op, ($v[i] as f64).total_cmp(&c)))
                    }
                })
                .collect())
        }};
    }
    match (col.data(), const_i64(val), const_f64(val)) {
        (ColumnData::Int32(v), Some(c), _) => int_loop!(v, c),
        (ColumnData::Int64(v), Some(c), _) => int_loop!(v, c),
        (ColumnData::Date(v), Some(c), _) => int_loop!(v, c),
        (ColumnData::Int32(v), None, Some(c)) => f64_loop!(v, c),
        (ColumnData::Int64(v), None, Some(c)) => f64_loop!(v, c),
        (ColumnData::Date(v), None, Some(c)) => f64_loop!(v, c),
        (ColumnData::Float64(v), _, Some(c)) => f64_loop!(v, c),
        (ColumnData::Str(v), _, _) if matches!(val, Datum::Str(_)) => {
            let Datum::Str(c) = val else { unreachable!() };
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !col.is_valid(i) {
                        T_NULL
                    } else {
                        tr(cmp_holds(op, v[i].as_ref().cmp(c.as_ref())))
                    }
                })
                .collect())
        }
        (ColumnData::Bool(v), _, _) if matches!(val, Datum::Bool(_)) => {
            let Datum::Bool(c) = val else { unreachable!() };
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !col.is_valid(i) {
                        T_NULL
                    } else {
                        tr(cmp_holds(op, v[i].cmp(c)))
                    }
                })
                .collect())
        }
        // Mixed classes or an `Any` column: per-row semantics by reference
        // (`get` materializes NULL slots as `Datum::Null`).
        _ => sel
            .iter()
            .map(|&i| {
                Ok(match col.get(i as usize).sql_cmp(val)? {
                    None => T_NULL,
                    Some(ord) => {
                        if cmp_holds(op, ord) {
                            T_TRUE
                        } else {
                            T_FALSE
                        }
                    }
                })
            })
            .collect(),
    }
}

/// `col BETWEEN low AND high` over a selection with typed loops when the
/// column and both bounds share a comparability class.
fn between_const_trools(
    col: &ColumnVec,
    sel: &[u32],
    low: &Datum,
    high: &Datum,
) -> Result<Vec<Trool>> {
    let tr = |b: bool| if b { T_TRUE } else { T_FALSE };
    macro_rules! typed_loop {
        ($f:expr) => {{
            let f = $f;
            return Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if !col.is_valid(i) {
                        T_NULL
                    } else {
                        tr(f(i))
                    }
                })
                .collect());
        }};
    }
    match (col.data(), const_i64(low), const_i64(high)) {
        (ColumnData::Int32(v), Some(lo), Some(hi)) => {
            typed_loop!(|i: usize| {
                let x = v[i] as i64;
                x >= lo && x <= hi
            })
        }
        (ColumnData::Int64(v), Some(lo), Some(hi)) => {
            typed_loop!(|i: usize| {
                let x = v[i];
                x >= lo && x <= hi
            })
        }
        (ColumnData::Date(v), Some(lo), Some(hi)) => {
            typed_loop!(|i: usize| {
                let x = v[i] as i64;
                x >= lo && x <= hi
            })
        }
        _ => {}
    }
    if let (ColumnData::Float64(v), Some(lo), Some(hi)) =
        (col.data(), const_f64(low), const_f64(high))
    {
        typed_loop!(|i: usize| {
            let x = v[i];
            x.total_cmp(&lo) != std::cmp::Ordering::Less
                && x.total_cmp(&hi) != std::cmp::Ordering::Greater
        });
    }
    if let (ColumnData::Str(v), Datum::Str(lo), Datum::Str(hi)) = (col.data(), low, high) {
        typed_loop!(|i: usize| {
            let x = v[i].as_ref();
            x >= lo.as_ref() && x <= hi.as_ref()
        });
    }
    // NULL bounds, mixed classes, or `Any` columns: per-row 3VL.
    sel.iter()
        .map(|&i| datum_to_trool(&between_result(&col.get(i as usize), low, high)?))
        .collect()
}

// ---------------------------------------------------------------------
// Word-packed three-valued predicate masks.
//
// A predicate tree whose every leaf compares a *typed* column against a
// class-compatible constant cannot error on any row: NULL slots flow
// through the validity bitmap and Kleene logic is evaluation-order
// independent, so the alive-set bookkeeping below is unnecessary. Those
// trees evaluate here as **dual bitmaps**, one bit per physical row
// packed into `u64` words:
//
// * `value` — bit set iff the predicate is definitely TRUE;
// * `valid` — bit set iff the truth value is known (not NULL);
// * canonical form: `value ⊆ valid` (a TRUE row is always known), and
//   tail bits past the block's row count are zero in both.
//
// Leaves run branch-free store loops over all slots (dummy values in
// NULL slots make this safe) and intersect with the column's validity;
// combinators run word-at-a-time:
//
//   AND: value = a.value & b.value
//        valid = value | (a.valid & !a.value) | (b.valid & !b.value)
//   OR:  value = a.value | b.value
//        valid = value | (a.valid & !a.value & b.valid & !b.value)
//   NOT: value = valid & !value          (valid unchanged)
//
// Anything outside the shape (mixed-class comparisons, `Any` columns,
// arithmetic, `InList` walks) returns `None` and takes the exact trools
// path below.

/// Set bit `i` of the mask for every row where `f` holds — branch-free,
/// one shift/or per element.
#[inline]
fn fill_mask<T: Copy>(vals: &[T], mask: &mut [u64], f: impl Fn(T) -> bool) {
    for (i, &x) in vals.iter().enumerate() {
        mask[i >> 6] |= (f(x) as u64) << (i & 63);
    }
}

/// Integer-class `col OP const` kernels, one monomorphized loop per op.
#[inline]
fn cmp_mask_int<T: Copy>(v: &[T], to: impl Fn(T) -> i64 + Copy, op: CmpOp, c: i64, m: &mut [u64]) {
    match op {
        CmpOp::Eq => fill_mask(v, m, |x| to(x) == c),
        CmpOp::Ne => fill_mask(v, m, |x| to(x) != c),
        CmpOp::Lt => fill_mask(v, m, |x| to(x) < c),
        CmpOp::Le => fill_mask(v, m, |x| to(x) <= c),
        CmpOp::Gt => fill_mask(v, m, |x| to(x) > c),
        CmpOp::Ge => fill_mask(v, m, |x| to(x) >= c),
    }
}

/// Float-class kernels — `total_cmp`, bit-identical to the trools loops.
#[inline]
fn cmp_mask_f64<T: Copy>(v: &[T], to: impl Fn(T) -> f64 + Copy, op: CmpOp, c: f64, m: &mut [u64]) {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => fill_mask(v, m, |x| to(x).total_cmp(&c) == Equal),
        CmpOp::Ne => fill_mask(v, m, |x| to(x).total_cmp(&c) != Equal),
        CmpOp::Lt => fill_mask(v, m, |x| to(x).total_cmp(&c) == Less),
        CmpOp::Le => fill_mask(v, m, |x| to(x).total_cmp(&c) != Greater),
        CmpOp::Gt => fill_mask(v, m, |x| to(x).total_cmp(&c) == Greater),
        CmpOp::Ge => fill_mask(v, m, |x| to(x).total_cmp(&c) != Less),
    }
}

/// `col OP const` as a physical-row *value* mask computed over all slots
/// (NULL slots hold dummies — the caller intersects with validity), for
/// typed columns in the same comparability class as the non-NULL constant.
fn cmp_const_mask(col: &ColumnData, op: CmpOp, val: &Datum, n: usize) -> Option<Vec<u64>> {
    let mut mask = vec![0u64; n.div_ceil(64)];
    match (col, const_i64(val), const_f64(val)) {
        (ColumnData::Int32(v), Some(c), _) => cmp_mask_int(v, |x| x as i64, op, c, &mut mask),
        (ColumnData::Int64(v), Some(c), _) => cmp_mask_int(v, |x| x, op, c, &mut mask),
        (ColumnData::Date(v), Some(c), _) => cmp_mask_int(v, |x| x as i64, op, c, &mut mask),
        (ColumnData::Int32(v), None, Some(c)) => cmp_mask_f64(v, |x| x as f64, op, c, &mut mask),
        (ColumnData::Int64(v), None, Some(c)) => cmp_mask_f64(v, |x| x as f64, op, c, &mut mask),
        (ColumnData::Date(v), None, Some(c)) => cmp_mask_f64(v, |x| x as f64, op, c, &mut mask),
        (ColumnData::Float64(v), _, Some(c)) => cmp_mask_f64(v, |x| x, op, c, &mut mask),
        (ColumnData::Str(v), _, _) if matches!(val, Datum::Str(_)) => {
            let Datum::Str(c) = val else { unreachable!() };
            for (i, s) in v.iter().enumerate() {
                mask[i >> 6] |= (cmp_holds(op, s.as_ref().cmp(c.as_ref())) as u64) << (i & 63);
            }
        }
        (ColumnData::Bool(v), _, _) if matches!(val, Datum::Bool(_)) => {
            let Datum::Bool(c) = val else { unreachable!() };
            let c = *c;
            fill_mask(v, &mut mask, |x| cmp_holds(op, x.cmp(&c)));
        }
        _ => return None,
    }
    Some(mask)
}

/// `col BETWEEN low AND high` as a physical-row value mask (the same
/// combinations `between_const_trools` runs typed; non-NULL bounds only).
fn between_const_mask(col: &ColumnData, low: &Datum, high: &Datum, n: usize) -> Option<Vec<u64>> {
    let mut mask = vec![0u64; n.div_ceil(64)];
    match (col, const_i64(low), const_i64(high)) {
        (ColumnData::Int32(v), Some(lo), Some(hi)) => {
            fill_mask(v, &mut mask, |x| (x as i64) >= lo && (x as i64) <= hi);
            return Some(mask);
        }
        (ColumnData::Int64(v), Some(lo), Some(hi)) => {
            fill_mask(v, &mut mask, |x| x >= lo && x <= hi);
            return Some(mask);
        }
        (ColumnData::Date(v), Some(lo), Some(hi)) => {
            fill_mask(v, &mut mask, |x| (x as i64) >= lo && (x as i64) <= hi);
            return Some(mask);
        }
        _ => {}
    }
    if let (ColumnData::Float64(v), Some(lo), Some(hi)) = (col, const_f64(low), const_f64(high)) {
        use std::cmp::Ordering::*;
        fill_mask(v, &mut mask, |x| {
            x.total_cmp(&lo) != Less && x.total_cmp(&hi) != Greater
        });
        return Some(mask);
    }
    if let (ColumnData::Str(v), Datum::Str(lo), Datum::Str(hi)) = (col, low, high) {
        for (i, s) in v.iter().enumerate() {
            let x = s.as_ref();
            mask[i >> 6] |= ((x >= lo.as_ref() && x <= hi.as_ref()) as u64) << (i & 63);
        }
        return Some(mask);
    }
    None
}

/// A word-packed three-valued predicate result over all physical rows:
/// TRUE where `value` is set, FALSE where known but not set, NULL where
/// `valid` is clear. Canonical: `value ⊆ valid`, tail bits zero.
struct Mask3 {
    value: Vec<u64>,
    valid: Vec<u64>,
}

impl Mask3 {
    /// A leaf over a typed column: `value` was computed branch-free over
    /// all slots (dummies included); intersect it with the column's
    /// validity so NULL slots become three-valued NULL.
    fn leaf(mut value: Vec<u64>, col: &ColumnVec, n: usize) -> Mask3 {
        let valid = match col.validity() {
            Some(w) => w.to_vec(),
            None => bitmap_ones(n),
        };
        for (v, &k) in value.iter_mut().zip(&valid) {
            *v &= k;
        }
        Mask3 { value, valid }
    }

    /// A mask that is NULL on every row.
    fn all_null(n: usize) -> Mask3 {
        let words = n.div_ceil(64);
        Mask3 {
            value: vec![0; words],
            valid: vec![0; words],
        }
    }
}

/// Intersect a physical-row mask with the block's selection. Dense blocks
/// walk set bits (`trailing_zeros`) into a popcount-sized vector;
/// filtered blocks compact the selection with a branch-free conditional
/// append.
fn mask_to_sel(mask: &[u64], block: &RowBlock) -> Vec<u32> {
    match block.sel() {
        None => {
            // Exact allocation: one slot per set bit, not per physical row.
            let mut out = Vec::with_capacity(mpp_common::bitmap_count(mask));
            for (w, &word) in mask.iter().enumerate() {
                let mut word = word;
                let base = (w as u32) << 6;
                while word != 0 {
                    out.push(base + word.trailing_zeros());
                    word &= word - 1;
                }
            }
            out
        }
        Some(sel) => {
            let mut out = vec![0u32; sel.len()];
            let mut k = 0usize;
            for &i in sel {
                out[k] = i;
                k += ((mask[(i >> 6) as usize] >> (i & 63)) & 1) as usize;
            }
            out.truncate(k);
            out
        }
    }
}

// ---------------------------------------------------------------------
// Typed arithmetic kernels with deferred error masks.
// ---------------------------------------------------------------------

/// AND of two optional validity bitmaps (NULL if either input is NULL).
fn and_valid(a: Option<&[u64]>, b: Option<&[u64]>) -> Option<Vec<u64>> {
    match (a, b) {
        (None, None) => None,
        (Some(w), None) | (None, Some(w)) => Some(w.to_vec()),
        (Some(x), Some(y)) => Some(x.iter().zip(y).map(|(p, q)| p & q).collect()),
    }
}

#[inline]
fn valid_bit(valid: &Option<Vec<u64>>, i: usize) -> bool {
    match valid {
        None => true,
        Some(w) => bitmap_get(w, i),
    }
}

/// The abort signal for a deferred batch error: the caller re-runs the
/// block row-at-a-time, reproducing the exact first error. Never surfaced.
fn needs_row_path() -> Error {
    Error::Execution("batch arithmetic needs row semantics".into())
}

/// Integer lanes (`Int32`/`Int64` operands, `Int64` result — the row
/// path's widening rule). Overflow and division by zero are collected as
/// deferred errors: any error on a non-NULL slot aborts to the row path.
fn int_arith(
    op: ArithOp,
    n: usize,
    a: impl Fn(usize) -> i64,
    b: impl Fn(usize) -> i64,
    valid: Option<Vec<u64>>,
) -> Result<ColumnVec> {
    let mut out = Vec::with_capacity(n);
    let mut err = false;
    match op {
        ArithOp::Add => {
            for i in 0..n {
                let (v, o) = a(i).overflowing_add(b(i));
                out.push(v);
                err |= o && valid_bit(&valid, i);
            }
        }
        ArithOp::Sub => {
            for i in 0..n {
                let (v, o) = a(i).overflowing_sub(b(i));
                out.push(v);
                err |= o && valid_bit(&valid, i);
            }
        }
        ArithOp::Mul => {
            for i in 0..n {
                let (v, o) = a(i).overflowing_mul(b(i));
                out.push(v);
                err |= o && valid_bit(&valid, i);
            }
        }
        ArithOp::Div => {
            for i in 0..n {
                let (x, y) = (a(i), b(i));
                let bad = y == 0 || (x == i64::MIN && y == -1);
                out.push(x.wrapping_div(if bad { 1 } else { y }));
                err |= bad && valid_bit(&valid, i);
            }
        }
        ArithOp::Mod => {
            for i in 0..n {
                let (x, y) = (a(i), b(i));
                let bad = y == 0 || (x == i64::MIN && y == -1);
                out.push(x.wrapping_rem(if bad { 1 } else { y }));
                err |= bad && valid_bit(&valid, i);
            }
        }
    }
    if err {
        return Err(needs_row_path());
    }
    Ok(ColumnVec::from_parts(ColumnData::Int64(out), valid))
}

/// Float lanes (either operand `Float64`): plain IEEE ops, bit-identical
/// to the row path's `as_f64` coercions. Division/modulo by zero errors
/// in the row path, so it defers the same way.
fn f64_arith(
    op: ArithOp,
    n: usize,
    a: impl Fn(usize) -> f64,
    b: impl Fn(usize) -> f64,
    valid: Option<Vec<u64>>,
) -> Result<ColumnVec> {
    let mut out = Vec::with_capacity(n);
    let mut err = false;
    match op {
        ArithOp::Add => {
            for i in 0..n {
                out.push(a(i) + b(i));
            }
        }
        ArithOp::Sub => {
            for i in 0..n {
                out.push(a(i) - b(i));
            }
        }
        ArithOp::Mul => {
            for i in 0..n {
                out.push(a(i) * b(i));
            }
        }
        ArithOp::Div => {
            for i in 0..n {
                let y = b(i);
                err |= y == 0.0 && valid_bit(&valid, i);
                out.push(a(i) / y);
            }
        }
        ArithOp::Mod => {
            for i in 0..n {
                let y = b(i);
                err |= y == 0.0 && valid_bit(&valid, i);
                out.push(a(i) % y);
            }
        }
    }
    if err {
        return Err(needs_row_path());
    }
    Ok(ColumnVec::from_parts(ColumnData::Float64(out), valid))
}

/// Typed arithmetic over dense argument columns. `None` means the shape
/// is not covered (Date result-type rules, strings, `Any` columns) and
/// the caller should evaluate per row. NULL slots propagate through the
/// combined validity bitmap without branching the value loops.
fn arith_column(op: ArithOp, l: &ColumnVec, r: &ColumnVec) -> Option<Result<ColumnVec>> {
    use ColumnData::*;
    let n = l.len();
    let valid = and_valid(l.validity(), r.validity());
    macro_rules! ii {
        ($a:expr, $b:expr) => {
            Some(int_arith(op, n, $a, $b, valid))
        };
    }
    macro_rules! ff {
        ($a:expr, $b:expr) => {
            Some(f64_arith(op, n, $a, $b, valid))
        };
    }
    match (l.data(), r.data()) {
        (Int32(a), Int32(b)) => ii!(|i| a[i] as i64, |i| b[i] as i64),
        (Int32(a), Int64(b)) => ii!(|i| a[i] as i64, |i| b[i]),
        (Int64(a), Int32(b)) => ii!(|i| a[i], |i| b[i] as i64),
        (Int64(a), Int64(b)) => ii!(|i| a[i], |i| b[i]),
        (Float64(a), Float64(b)) => ff!(|i| a[i], |i| b[i]),
        (Float64(a), Int32(b)) => ff!(|i| a[i], |i| b[i] as f64),
        (Float64(a), Int64(b)) => ff!(|i| a[i], |i| b[i] as f64),
        (Float64(a), Date(b)) => ff!(|i| a[i], |i| b[i] as f64),
        (Int32(a), Float64(b)) => ff!(|i| a[i] as f64, |i| b[i]),
        (Int64(a), Float64(b)) => ff!(|i| a[i] as f64, |i| b[i]),
        (Date(a), Float64(b)) => ff!(|i| a[i] as f64, |i| b[i]),
        _ => None,
    }
}

impl CompiledExpr {
    /// Word-packed three-valued evaluation over **all physical rows** of
    /// `block`, when this predicate provably cannot error on any row.
    /// `None` means "shape not covered" — not a failure.
    fn try_mask3(&self, block: &RowBlock) -> Option<Mask3> {
        let n = block.phys_rows();
        let words = n.div_ceil(64);
        match self {
            CompiledExpr::Const(d) => match d {
                Datum::Bool(true) => Some(Mask3 {
                    value: bitmap_ones(n),
                    valid: bitmap_ones(n),
                }),
                Datum::Bool(false) => Some(Mask3 {
                    value: vec![0; words],
                    valid: bitmap_ones(n),
                }),
                Datum::Null => Some(Mask3::all_null(n)),
                _ => None,
            },
            CompiledExpr::Col { pos, .. } => {
                let col = block.columns().get(*pos)?;
                match col.data() {
                    ColumnData::Bool(v) => {
                        let mut value = vec![0u64; words];
                        fill_mask(v, &mut value, |x| x);
                        Some(Mask3::leaf(value, col, n))
                    }
                    _ => None,
                }
            }
            CompiledExpr::CmpColConst { op, pos, val, .. } => {
                let col = block.columns().get(*pos)?;
                if val.is_null() {
                    // `col op NULL` is NULL on every row, whatever the col.
                    return Some(Mask3::all_null(n));
                }
                let value = cmp_const_mask(col.data(), *op, val, n)?;
                Some(Mask3::leaf(value, col, n))
            }
            CompiledExpr::BetweenColConst { pos, low, high, .. } => {
                let col = block.columns().get(*pos)?;
                let value = between_const_mask(col.data(), low, high, n)?;
                Some(Mask3::leaf(value, col, n))
            }
            CompiledExpr::IsNull(e) => {
                let CompiledExpr::Col { pos, .. } = e.as_ref() else {
                    return None;
                };
                let col = block.columns().get(*pos)?;
                if matches!(col.data(), ColumnData::Any(_)) {
                    return None;
                }
                // The complement of the validity bitmap, in one word op
                // per 64 rows; the result itself is never NULL.
                let mut value = match col.validity() {
                    None => vec![0u64; words],
                    Some(w) => w.iter().map(|x| !x).collect(),
                };
                bitmap_zero_tail(&mut value, n);
                Some(Mask3 {
                    value,
                    valid: bitmap_ones(n),
                })
            }
            CompiledExpr::InConstSet { input, set } => {
                let CompiledExpr::Col { pos, .. } = input.as_ref() else {
                    return None;
                };
                let col = block.columns().get(*pos)?;
                if matches!(col.data(), ColumnData::Any(_)) {
                    return None;
                }
                let mut value = vec![0u64; words];
                let mut valid = vec![0u64; words];
                for i in 0..n {
                    if !col.is_valid(i) {
                        continue; // NULL probe → NULL: both bits stay 0.
                    }
                    match set.probe(&col.get(i)) {
                        Ok(Datum::Bool(b)) => {
                            valid[i >> 6] |= 1 << (i & 63);
                            value[i >> 6] |= (b as u64) << (i & 63);
                        }
                        Ok(_) => continue,
                        // Cross-class probe: the row path errors — take it.
                        Err(_) => return None,
                    }
                }
                Some(Mask3 { value, valid })
            }
            CompiledExpr::And(exprs) => {
                let (first, rest) = exprs.split_first()?;
                let mut acc = first.try_mask3(block)?;
                for e in rest {
                    let m = e.try_mask3(block)?;
                    for k in 0..acc.value.len() {
                        let value = acc.value[k] & m.value[k];
                        acc.valid[k] =
                            value | (acc.valid[k] & !acc.value[k]) | (m.valid[k] & !m.value[k]);
                        acc.value[k] = value;
                    }
                }
                Some(acc)
            }
            CompiledExpr::Or(exprs) => {
                let (first, rest) = exprs.split_first()?;
                let mut acc = first.try_mask3(block)?;
                for e in rest {
                    let m = e.try_mask3(block)?;
                    for k in 0..acc.value.len() {
                        let value = acc.value[k] | m.value[k];
                        acc.valid[k] =
                            value | (acc.valid[k] & !acc.value[k] & m.valid[k] & !m.value[k]);
                        acc.value[k] = value;
                    }
                }
                Some(acc)
            }
            CompiledExpr::Not(e) => {
                let mut m = e.try_mask3(block)?;
                for k in 0..m.value.len() {
                    m.value[k] = m.valid[k] & !m.value[k];
                }
                Some(m)
            }
            _ => None,
        }
    }

    /// Evaluate a WHERE predicate over `block` and return `(refined
    /// selection, fell_back)`: the physical indices (subset of the block's
    /// selection, in order) where the predicate is `true`. Errors are
    /// exactly the errors per-row filtering raises, at the same first row.
    pub fn eval_predicate_block(&self, block: &RowBlock) -> Result<(Vec<u32>, bool)> {
        // Error-free typed shapes (NULLs included) collapse to dual-bitmap
        // word masks: Kleene logic is order-independent, so the masks are
        // equivalence-preserving. The canonical form guarantees a set
        // `value` bit means definitely TRUE.
        if let Some(m) = self.try_mask3(block) {
            return Ok((mask_to_sel(&m.value, block), false));
        }
        let ident;
        let sel: &[u32] = match block.sel() {
            Some(s) => s,
            None => {
                ident = (0..block.phys_rows() as u32).collect::<Vec<u32>>();
                &ident
            }
        };
        match self.trools(block, sel) {
            Ok(tr) => Ok((
                sel.iter()
                    .zip(tr.iter())
                    .filter(|&(_, &t)| t == T_TRUE)
                    .map(|(&i, _)| i)
                    .collect(),
                false,
            )),
            // Any internal error: re-run with exact row-at-a-time
            // semantics (values, short circuits, and first-error row).
            Err(_) => {
                let mut out = Vec::new();
                for &i in sel {
                    if self.eval_predicate(&block.row_at_phys(i as usize))? {
                        out.push(i);
                    }
                }
                Ok((out, true))
            }
        }
    }

    /// Evaluate a scalar expression over `block` into a column with one
    /// value per selected row, plus a flag telling whether the row
    /// fallback ran. Equivalent to mapping [`CompiledExpr::eval`] over the
    /// selected rows — values and errors.
    pub fn eval_column(&self, block: &RowBlock) -> Result<(ColumnVec, bool)> {
        let ident;
        let sel: &[u32] = match block.sel() {
            Some(s) => s,
            None => {
                ident = (0..block.phys_rows() as u32).collect::<Vec<u32>>();
                &ident
            }
        };
        match self.values(block, sel) {
            Ok(col) => Ok((col, false)),
            Err(_) => {
                let mut out = Vec::with_capacity(sel.len());
                for &i in sel {
                    out.push(self.eval(&block.row_at_phys(i as usize))?);
                }
                Ok((ColumnVec::from_datums(out), true))
            }
        }
    }

    /// Strict batch evaluation: one value per selected row, with **no
    /// internal row fallback**. An `Err` means "this block needs the
    /// row-at-a-time path" — it is *not* the error per-row evaluation
    /// would raise and must never be surfaced. Callers evaluating
    /// several expressions over one block (projections, join keys,
    /// aggregate arguments) use this so a failure in *any* expression
    /// falls back jointly, preserving the row-major evaluation order
    /// across expressions that decides which error surfaces first.
    pub fn eval_column_strict(&self, block: &RowBlock) -> Result<ColumnVec> {
        let ident;
        let sel: &[u32] = match block.sel() {
            Some(s) => s,
            None => {
                ident = (0..block.phys_rows() as u32).collect::<Vec<u32>>();
                &ident
            }
        };
        self.values(block, sel)
    }

    /// Three-valued truth value per selected row. An `Err` means "this
    /// block needs the row-at-a-time path", not necessarily that the row
    /// path errors — callers must fall back, never propagate.
    fn trools(&self, block: &RowBlock, sel: &[u32]) -> Result<Vec<Trool>> {
        match self {
            CompiledExpr::Const(d) => Ok(vec![datum_to_trool(d)?; sel.len()]),
            CompiledExpr::Col { pos, col } => {
                if *pos >= block.width() {
                    return Err(Error::Execution(format!(
                        "row too short for {col} at {pos}"
                    )));
                }
                let c = block.column(*pos);
                match c.data() {
                    ColumnData::Bool(v) => Ok(sel
                        .iter()
                        .map(|&i| {
                            let i = i as usize;
                            if !c.is_valid(i) {
                                T_NULL
                            } else if v[i] {
                                T_TRUE
                            } else {
                                T_FALSE
                            }
                        })
                        .collect()),
                    ColumnData::Any(v) => sel
                        .iter()
                        .map(|&i| datum_to_trool(&v[i as usize]))
                        .collect(),
                    // A non-bool typed column: NULL slots are three-valued
                    // NULL; the first non-NULL slot errors like the row
                    // path's `as_bool`.
                    _ => sel
                        .iter()
                        .map(|&i| datum_to_trool(&c.get(i as usize)))
                        .collect(),
                }
            }
            CompiledExpr::CmpColConst { op, pos, col, val } => {
                if *pos >= block.width() {
                    return Err(Error::Execution(format!(
                        "row too short for {col} at {pos}"
                    )));
                }
                cmp_const_trools(block.column(*pos), sel, *op, val)
            }
            CompiledExpr::BetweenColConst {
                pos,
                col,
                low,
                high,
            } => {
                if *pos >= block.width() {
                    return Err(Error::Execution(format!(
                        "row too short for {col} at {pos}"
                    )));
                }
                between_const_trools(block.column(*pos), sel, low, high)
            }
            CompiledExpr::And(exprs) => {
                // Alive tracking: conjunct k is evaluated only on rows not
                // yet `false` — the exact rows the row path evaluates it
                // on. A NULL row stays alive (later conjuncts still run and
                // may error or turn it false) but can never turn true.
                let mut result = vec![T_TRUE; sel.len()];
                let mut alive_sel: Vec<u32> = sel.to_vec();
                let mut alive_slots: Vec<u32> = (0..sel.len() as u32).collect();
                for e in exprs {
                    if alive_sel.is_empty() {
                        break;
                    }
                    let tr = e.trools(block, &alive_sel)?;
                    let mut keep = 0usize;
                    for k in 0..alive_sel.len() {
                        let slot = alive_slots[k] as usize;
                        match tr[k] {
                            T_FALSE => result[slot] = T_FALSE,
                            t => {
                                if t == T_NULL {
                                    result[slot] = T_NULL;
                                }
                                alive_sel[keep] = alive_sel[k];
                                alive_slots[keep] = alive_slots[k];
                                keep += 1;
                            }
                        }
                    }
                    alive_sel.truncate(keep);
                    alive_slots.truncate(keep);
                }
                Ok(result)
            }
            CompiledExpr::Or(exprs) => {
                // Mirror of AND: a row dies once `true`; a NULL row stays
                // alive and may still turn true later.
                let mut result = vec![T_FALSE; sel.len()];
                let mut alive_sel: Vec<u32> = sel.to_vec();
                let mut alive_slots: Vec<u32> = (0..sel.len() as u32).collect();
                for e in exprs {
                    if alive_sel.is_empty() {
                        break;
                    }
                    let tr = e.trools(block, &alive_sel)?;
                    let mut keep = 0usize;
                    for k in 0..alive_sel.len() {
                        let slot = alive_slots[k] as usize;
                        match tr[k] {
                            T_TRUE => result[slot] = T_TRUE,
                            t => {
                                if t == T_NULL {
                                    result[slot] = T_NULL;
                                }
                                alive_sel[keep] = alive_sel[k];
                                alive_slots[keep] = alive_slots[k];
                                keep += 1;
                            }
                        }
                    }
                    alive_sel.truncate(keep);
                    alive_slots.truncate(keep);
                }
                Ok(result)
            }
            CompiledExpr::Not(e) => Ok(e
                .trools(block, sel)?
                .into_iter()
                .map(|t| match t {
                    T_TRUE => T_FALSE,
                    T_FALSE => T_TRUE,
                    t => t,
                })
                .collect()),
            CompiledExpr::IsNull(e) => {
                // IS NULL of a typed column reads the validity bitmap
                // without touching values (uniformly false when
                // null-free).
                if let CompiledExpr::Col { pos, .. } = e.as_ref() {
                    if *pos < block.width() {
                        let c = block.column(*pos);
                        if !matches!(c.data(), ColumnData::Any(_)) {
                            return Ok(sel
                                .iter()
                                .map(|&i| {
                                    if c.is_valid(i as usize) {
                                        T_FALSE
                                    } else {
                                        T_TRUE
                                    }
                                })
                                .collect());
                        }
                    }
                }
                let vals = e.values(block, sel)?;
                Ok((0..sel.len())
                    .map(|k| {
                        if vals.get(k).is_null() {
                            T_TRUE
                        } else {
                            T_FALSE
                        }
                    })
                    .collect())
            }
            CompiledExpr::Cmp { op, left, right } => {
                let l = left.values(block, sel)?;
                let r = right.values(block, sel)?;
                (0..sel.len())
                    .map(|k| {
                        Ok(match l.get(k).sql_cmp(&r.get(k))? {
                            None => T_NULL,
                            Some(ord) => {
                                if cmp_holds(*op, ord) {
                                    T_TRUE
                                } else {
                                    T_FALSE
                                }
                            }
                        })
                    })
                    .collect()
            }
            CompiledExpr::Between { expr, low, high } => {
                let v = expr.values(block, sel)?;
                let lo = low.values(block, sel)?;
                let hi = high.values(block, sel)?;
                (0..sel.len())
                    .map(|k| datum_to_trool(&between_result(&v.get(k), &lo.get(k), &hi.get(k))?))
                    .collect()
            }
            CompiledExpr::InConstSet { input, set } => {
                if let CompiledExpr::Col { pos, col } = input.as_ref() {
                    if *pos >= block.width() {
                        return Err(Error::Execution(format!(
                            "row too short for {col} at {pos}"
                        )));
                    }
                    let c = block.column(*pos);
                    return sel
                        .iter()
                        .map(|&i| datum_to_trool(&set.probe(&c.get(i as usize))?))
                        .collect();
                }
                let vals = input.values(block, sel)?;
                (0..sel.len())
                    .map(|k| datum_to_trool(&set.probe(&vals.get(k))?))
                    .collect()
            }
            // The ordered `IN`-walk short-circuits per row (break on match,
            // positional NULLs/errors); evaluate it with row semantics
            // directly rather than approximating column-wise.
            CompiledExpr::InList { .. } => sel
                .iter()
                .map(|&i| datum_to_trool(&self.eval(&block.row_at_phys(i as usize))?))
                .collect(),
            // Value-producing or always-erroring nodes used in predicate
            // position: evaluate as values, then convert (errors included).
            CompiledExpr::UnboundCol(_)
            | CompiledExpr::UnboundParam(_)
            | CompiledExpr::Arith { .. } => {
                let vals = self.values(block, sel)?;
                (0..sel.len())
                    .map(|k| datum_to_trool(&vals.get(k)))
                    .collect()
            }
        }
    }

    /// Value per selected row. Same error contract as [`Self::trools`].
    fn values(&self, block: &RowBlock, sel: &[u32]) -> Result<ColumnVec> {
        match self {
            CompiledExpr::Const(d) => Ok(ColumnVec::broadcast(d, sel.len())),
            CompiledExpr::Col { pos, col } => {
                if *pos >= block.width() {
                    return Err(Error::Execution(format!(
                        "row too short for {col} at {pos}"
                    )));
                }
                Ok(block.column(*pos).gather(sel))
            }
            CompiledExpr::UnboundCol(c) => Err(Error::Execution(format!("unbound column {c}"))),
            CompiledExpr::UnboundParam(0) => {
                Err(Error::Execution("parameter numbers are 1-based".into()))
            }
            CompiledExpr::UnboundParam(n) => {
                Err(Error::Execution(format!("unbound parameter ${n}")))
            }
            CompiledExpr::Arith { op, left, right } => {
                let l = left.values(block, sel)?;
                let r = right.values(block, sel)?;
                // Typed lanes with deferred error masks; NULL slots ride
                // the combined validity bitmap.
                if let Some(res) = arith_column(*op, &l, &r) {
                    return res;
                }
                let mut out = Vec::with_capacity(sel.len());
                for k in 0..sel.len() {
                    out.push(l.get(k).arith(*op, &r.get(k))?);
                }
                Ok(ColumnVec::from_datums(out))
            }
            // Predicate-shaped nodes in value position produce a boolean
            // column through the trool path.
            CompiledExpr::CmpColConst { .. }
            | CompiledExpr::Cmp { .. }
            | CompiledExpr::And(_)
            | CompiledExpr::Or(_)
            | CompiledExpr::Not(_)
            | CompiledExpr::IsNull(_)
            | CompiledExpr::BetweenColConst { .. }
            | CompiledExpr::Between { .. }
            | CompiledExpr::InConstSet { .. }
            | CompiledExpr::InList { .. } => Ok(trools_to_column(&self.trools(block, sel)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::colref::ColRef;
    use crate::compile::compile;
    use crate::eval::EvalContext;
    use mpp_common::value::ArithOp;
    use mpp_common::{row, Row};

    fn ctx3() -> EvalContext<'static> {
        EvalContext::from_columns(&[
            ColRef::new(1, "a"),
            ColRef::new(2, "b"),
            ColRef::new(3, "c"),
        ])
    }

    fn col(id: u32) -> Expr {
        Expr::col(ColRef::new(id, "c"))
    }

    /// Rows covering typed columns, NULLs, and mixed types.
    fn mixed_rows() -> Vec<Row> {
        vec![
            row![1i32, 10i64, "x"],
            Row::new(vec![Datum::Int32(2), Datum::Null, Datum::str("y")]),
            row![3i32, 30i64, "z"],
            Row::new(vec![Datum::Int32(4), Datum::Int64(40), Datum::Null]),
            row![5i32, 50i64, "x"],
        ]
    }

    /// The reference: filter with the per-row API.
    fn row_filter(c: &CompiledExpr, rows: &[Row]) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            if c.eval_predicate(r)? {
                out.push(i as u32);
            }
        }
        Ok(out)
    }

    fn assert_block_matches_rows(e: &Expr, rows: &[Row]) {
        let c = compile(e, &ctx3());
        let block = RowBlock::from_rows(rows, 3);
        let batch = c.eval_predicate_block(&block);
        let byrow = row_filter(&c, rows);
        match (batch, byrow) {
            (Ok((bsel, _)), Ok(rsel)) => assert_eq!(bsel, rsel, "selection mismatch for {e:?}"),
            (Err(be), Err(re)) => {
                assert_eq!(be.to_string(), re.to_string(), "error mismatch for {e:?}")
            }
            (b, r) => panic!("outcome mismatch for {e:?}: batch={b:?} rows={r:?}"),
        }
    }

    #[test]
    fn typed_cmp_between_in_match_row_path() {
        let rows = mixed_rows();
        let shapes = vec![
            Expr::lt(col(1), Expr::lit(4i32)),
            Expr::gt(col(1), Expr::lit(2.5f64)),
            Expr::eq(col(3), Expr::lit("x")),
            Expr::between(col(1), Expr::lit(2i32), Expr::lit(4i32)),
            Expr::in_list(col(1), vec![Expr::lit(1i32), Expr::lit(5i32)]),
            Expr::in_list(col(3), vec![Expr::lit("x"), Expr::lit("q")]),
        ];
        for e in shapes {
            assert_block_matches_rows(&e, &rows);
        }
    }

    #[test]
    fn null_columns_and_consts_match_row_path() {
        let rows = mixed_rows();
        let shapes = vec![
            Expr::eq(col(2), Expr::lit(30i64)),       // nullable typed probe
            Expr::eq(col(1), Expr::Lit(Datum::Null)), // NULL const
            Expr::IsNull(Box::new(col(2))),
            Expr::Not(Box::new(Expr::IsNull(Box::new(col(3))))),
            Expr::between(col(2), Expr::lit(10i64), Expr::lit(40i64)),
            Expr::in_list(col(2), vec![Expr::lit(10i64), Expr::lit(40i64)]),
        ];
        for e in shapes {
            assert_block_matches_rows(&e, &rows);
        }
    }

    #[test]
    fn and_or_alive_tracking_matches_short_circuit() {
        let rows = mixed_rows();
        let shapes = vec![
            Expr::and(vec![
                Expr::lt(col(1), Expr::lit(4i32)),
                Expr::gt(col(2), Expr::lit(5i64)),
            ]),
            Expr::or(vec![
                Expr::eq(col(3), Expr::lit("x")),
                Expr::lt(col(1), Expr::lit(2i32)),
            ]),
            // NULL in the middle of an AND: rows stay alive, never true.
            Expr::and(vec![
                Expr::eq(col(2), Expr::lit(40i64)),
                Expr::gt(col(1), Expr::lit(0i32)),
            ]),
        ];
        for e in shapes {
            assert_block_matches_rows(&e, &rows);
        }
    }

    #[test]
    fn short_circuit_masks_batch_error() {
        // a != 0 AND 10/a > 1: the row path never divides where a == 0.
        // With a zero filtered out by the first conjunct the batch path
        // must agree (alive tracking skips the dead row).
        let rows = vec![
            row![2i32, 0i64, "x"],
            row![0i32, 0i64, "x"],
            row![10i32, 0i64, "x"],
        ];
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::lit(10i32)),
            right: Box::new(col(1)),
        };
        let e = Expr::and(vec![
            Expr::Not(Box::new(Expr::eq(col(1), Expr::lit(0i32)))),
            Expr::gt(div, Expr::lit(1i32)),
        ]);
        assert_block_matches_rows(&e, &rows);
    }

    #[test]
    fn genuine_errors_surface_identically() {
        let rows = vec![row![1i32, 1i64, "x"], row![0i32, 2i64, "y"]];
        // Division by zero reached on row 1.
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::lit(10i32)),
            right: Box::new(col(1)),
        };
        assert_block_matches_rows(&Expr::gt(div, Expr::lit(0i32)), &rows);
        // Cross-class comparison errors.
        assert_block_matches_rows(&Expr::eq(col(1), Expr::lit("nope")), &rows);
        // Unbound column.
        assert_block_matches_rows(&Expr::lt(col(99), Expr::lit(1i32)), &rows);
        // Cross-class IN probe.
        assert_block_matches_rows(
            &Expr::in_list(col(3), vec![Expr::lit(1i32), Expr::lit(2i32)]),
            &rows,
        );
    }

    #[test]
    fn eval_column_matches_row_eval() {
        let rows = mixed_rows();
        let exprs = vec![
            col(1),
            col(2),
            Expr::Arith {
                op: ArithOp::Add,
                left: Box::new(col(1)),
                right: Box::new(Expr::lit(100i32)),
            },
            Expr::lt(col(1), Expr::lit(3i32)),
            Expr::Arith {
                op: ArithOp::Add,
                left: Box::new(col(1)),
                right: Box::new(col(2)), // NULL row → NULL result
            },
        ];
        let block = RowBlock::from_rows(&rows, 3);
        for e in exprs {
            let c = compile(&e, &ctx3());
            let (vals, _) = c.eval_column(&block).unwrap();
            assert_eq!(vals.len(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(vals.get(i), c.eval(r).unwrap(), "{e:?} row {i}");
            }
        }
    }

    #[test]
    fn arith_kernels_match_row_eval() {
        // Typed lanes across ops and operand classes, with NULLs: values
        // (and float bit patterns) must equal the per-row results.
        let rows: Vec<Row> = (0..150)
            .map(|i| {
                if i % 11 == 0 {
                    Row::new(vec![Datum::Null, Datum::Int64(i), Datum::str("s")])
                } else if i % 7 == 0 {
                    Row::new(vec![Datum::Int32(i as i32), Datum::Null, Datum::str("s")])
                } else {
                    row![i as i32, i * 3 + 1, "s"]
                }
            })
            .collect();
        let block = RowBlock::from_rows(&rows, 3);
        let mk = |op, l: Expr, r: Expr| Expr::Arith {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let exprs = vec![
            mk(ArithOp::Add, col(1), col(2)),
            mk(ArithOp::Sub, col(2), col(1)),
            mk(ArithOp::Mul, col(1), col(2)),
            mk(ArithOp::Div, col(2), Expr::lit(3i32)),
            mk(ArithOp::Mod, col(2), Expr::lit(7i64)),
            mk(ArithOp::Add, col(1), Expr::lit(0.5f64)),
            mk(ArithOp::Div, col(2), Expr::lit(2.5f64)),
            mk(ArithOp::Mod, col(2), Expr::lit(1.5f64)),
            mk(ArithOp::Mul, Expr::lit(1.25f64), col(1)),
        ];
        for e in exprs {
            let c = compile(&e, &ctx3());
            let (vals, _) = c.eval_column(&block).unwrap();
            for (i, r) in rows.iter().enumerate() {
                let want = c.eval(r).unwrap();
                let got = vals.get(i);
                // Bit-identity for floats (total_cmp distinguishes -0.0).
                match (&got, &want) {
                    (Datum::Float64(a), Datum::Float64(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{e:?} row {i}")
                    }
                    _ => assert_eq!(got, want, "{e:?} row {i}"),
                }
            }
        }
    }

    #[test]
    fn arith_deferred_errors_match_row_eval() {
        // Division by zero mid-block, overflow, and date arithmetic all
        // leave the kernels and reproduce exact row-path errors.
        let rows = vec![
            row![4i32, 2i64, "x"],
            row![9i32, 0i64, "y"],
            row![16i32, 4i64, "z"],
        ];
        let mk = |op, l: Expr, r: Expr| Expr::Arith {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let shapes = vec![
            mk(ArithOp::Div, col(1), col(2)),
            mk(ArithOp::Mod, col(1), col(2)),
            mk(ArithOp::Mul, Expr::lit(i64::MAX), col(1)),
            mk(ArithOp::Div, Expr::lit(1.0f64), col(2)),
        ];
        for e in shapes {
            let c = compile(&e, &ctx3());
            let block = RowBlock::from_rows(&rows, 3);
            let batch = c.eval_column(&block);
            let mut byrow: Result<Vec<Datum>> = rows.iter().map(|r| c.eval(r)).collect();
            match (&batch, &mut byrow) {
                (Ok((vals, _)), Ok(want)) => {
                    for (i, w) in want.iter().enumerate() {
                        assert_eq!(&vals.get(i), w, "{e:?} row {i}");
                    }
                }
                (Err(be), Err(re)) => {
                    assert_eq!(be.to_string(), re.to_string(), "error mismatch for {e:?}")
                }
                (b, r) => panic!("outcome mismatch for {e:?}: batch={b:?} rows={r:?}"),
            }
        }
    }

    #[test]
    fn eval_column_under_selection() {
        let rows = mixed_rows();
        let block = RowBlock::from_rows(&rows, 3).with_sel(vec![0, 2, 4]);
        let c = compile(&col(1), &ctx3());
        let (vals, fell_back) = c.eval_column(&block).unwrap();
        assert!(!fell_back);
        assert_eq!(vals.len(), 3);
        assert_eq!(vals.get(1), Datum::Int32(3));
    }

    #[test]
    fn word_mask_matches_row_path_across_word_boundaries() {
        // 150 rows spans three mask words with a ragged tail; every op,
        // plus NOT (tail complement) and nested AND/OR, must agree with
        // the per-row reference bit for bit.
        let rows: Vec<Row> = (0..150)
            .map(|i| row![i % 13, (i * 7 % 29) as i64, "s"])
            .collect();
        let ops = [
            Expr::eq(col(1), Expr::lit(5i32)),
            Expr::cmp(CmpOp::Ne, col(1), Expr::lit(5i32)),
            Expr::lt(col(1), Expr::lit(6i32)),
            Expr::le(col(1), Expr::lit(6i32)),
            Expr::gt(col(2), Expr::lit(14i64)),
            Expr::ge(col(2), Expr::lit(14i64)),
            Expr::between(col(2), Expr::lit(3i64), Expr::lit(21i64)),
            Expr::Not(Box::new(Expr::lt(col(1), Expr::lit(6i32)))),
            Expr::and(vec![
                Expr::gt(col(1), Expr::lit(2i32)),
                Expr::Not(Box::new(Expr::eq(col(2), Expr::lit(0i64)))),
            ]),
            Expr::or(vec![
                Expr::lt(col(1), Expr::lit(1i32)),
                Expr::gt(col(2), Expr::lit(25i64)),
            ]),
            // Float constant against an integer column.
            Expr::gt(col(1), Expr::lit(5.5f64)),
        ];
        for e in ops {
            assert_block_matches_rows(&e, &rows);
        }
    }

    #[test]
    fn null_word_masks_match_row_path_across_word_boundaries() {
        // Nullable typed columns spanning three mask words: every leaf
        // shape, IS NULL, NOT, and nested AND/OR run as dual bitmaps and
        // must agree with per-row three-valued logic bit for bit.
        let rows: Vec<Row> = (0..150)
            .map(|i| {
                let a = if i % 5 == 0 {
                    Datum::Null
                } else {
                    Datum::Int32(i % 13)
                };
                let b = if i % 9 == 0 {
                    Datum::Null
                } else {
                    Datum::Int64((i * 7 % 29) as i64)
                };
                let s = if i % 4 == 0 {
                    Datum::Null
                } else {
                    Datum::str(if i % 2 == 0 { "x" } else { "y" })
                };
                Row::new(vec![a, b, s])
            })
            .collect();
        let ops = [
            Expr::eq(col(1), Expr::lit(5i32)),
            Expr::cmp(CmpOp::Ne, col(1), Expr::lit(5i32)),
            Expr::lt(col(1), Expr::lit(6i32)),
            Expr::gt(col(2), Expr::lit(14i64)),
            Expr::eq(col(3), Expr::lit("x")),
            Expr::between(col(2), Expr::lit(3i64), Expr::lit(21i64)),
            Expr::between(col(3), Expr::lit("x"), Expr::lit("y")),
            Expr::in_list(col(1), vec![Expr::lit(1i32), Expr::lit(5i32)]),
            Expr::IsNull(Box::new(col(1))),
            Expr::Not(Box::new(Expr::IsNull(Box::new(col(2))))),
            Expr::Not(Box::new(Expr::lt(col(1), Expr::lit(6i32)))),
            Expr::eq(col(1), Expr::Lit(Datum::Null)),
            Expr::and(vec![
                Expr::gt(col(1), Expr::lit(2i32)),
                Expr::lt(col(2), Expr::lit(20i64)),
            ]),
            Expr::or(vec![
                Expr::lt(col(1), Expr::lit(2i32)),
                Expr::gt(col(2), Expr::lit(25i64)),
                Expr::IsNull(Box::new(col(3))),
            ]),
            Expr::and(vec![
                Expr::or(vec![
                    Expr::eq(col(3), Expr::lit("x")),
                    Expr::IsNull(Box::new(col(1))),
                ]),
                Expr::Not(Box::new(Expr::eq(col(2), Expr::lit(0i64)))),
            ]),
        ];
        for e in ops {
            assert_block_matches_rows(&e, &rows);
        }
        // The dual-bitmap path really ran (no fallback) on a covered shape.
        let c = compile(
            &Expr::and(vec![
                Expr::gt(col(1), Expr::lit(2i32)),
                Expr::IsNull(Box::new(col(2))),
            ]),
            &ctx3(),
        );
        let block = RowBlock::from_rows(&rows, 3);
        let (_, fell_back) = c.eval_predicate_block(&block).unwrap();
        assert!(!fell_back);
    }

    #[test]
    fn word_mask_compacts_existing_selection() {
        let rows: Vec<Row> = (0..100).map(|i| row![i, 0i64, "s"]).collect();
        let sel: Vec<u32> = (0..100).filter(|i| i % 3 == 0).collect();
        let block = RowBlock::from_rows(&rows, 3).with_sel(sel.clone());
        let c = compile(&Expr::lt(col(1), Expr::lit(50i32)), &ctx3());
        let (got, fell_back) = c.eval_predicate_block(&block).unwrap();
        assert!(!fell_back);
        let want: Vec<u32> = sel.into_iter().filter(|&i| i < 50).collect();
        assert_eq!(got, want);
    }

    /// Validity-bitmap columns against the same block degraded to `Any`
    /// per-datum columns, at 0/10/50% NULLs: the `filter` and `and_or`
    /// predicates select identical rows (the typed side without falling
    /// back), and distribution hashes of the nullable key are
    /// bit-identical.
    #[test]
    fn typed_and_degraded_blocks_agree_across_null_fractions() {
        let ctx = EvalContext::from_columns(&[ColRef::new(1, "v"), ColRef::new(2, "w")]);
        let v = || Expr::col(ColRef::new(1, "v"));
        let w = || Expr::col(ColRef::new(2, "w"));
        let shapes = [
            ("filter", Expr::lt(v(), Expr::lit(100i32))),
            (
                "and_or",
                Expr::or(vec![
                    Expr::and(vec![
                        Expr::lt(v(), Expr::lit(120i32)),
                        Expr::gt(w(), Expr::lit(40i32)),
                    ]),
                    Expr::IsNull(Box::new(v())),
                ]),
            ),
        ];
        for null_pct in [0u64, 10, 50] {
            // splitmix64: a fixed, dependency-free pseudo-random stream.
            let mut state = 2014 + null_pct;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut cell = || {
                if next() % 100 < null_pct {
                    Datum::Null
                } else {
                    Datum::Int32((next() % 200) as i32)
                }
            };
            let rows: Vec<Row> = (0..2_000).map(|_| Row::new(vec![cell(), cell()])).collect();
            let typed = RowBlock::from_rows(&rows, 2);
            let degraded = typed.degraded();
            assert!(!matches!(typed.columns()[0].data(), ColumnData::Any(_)));
            assert!(matches!(degraded.columns()[0].data(), ColumnData::Any(_)));
            for (label, e) in &shapes {
                let c = compile(e, &ctx);
                let (sel_t, fell_back) = c.eval_predicate_block(&typed).unwrap();
                let (sel_d, _) = c.eval_predicate_block(&degraded).unwrap();
                assert_eq!(sel_t, sel_d, "selection mismatch: {label} @ {null_pct}%");
                assert!(!fell_back, "typed path fell back: {label} @ {null_pct}%");
            }
            assert_eq!(
                typed.hash_columns(&[0]),
                degraded.hash_columns(&[0]),
                "hash mismatch @ {null_pct}%"
            );
        }
    }

    #[test]
    fn predicate_block_respects_existing_selection() {
        let rows = mixed_rows();
        let block = RowBlock::from_rows(&rows, 3).with_sel(vec![1, 2, 3, 4]);
        let c = compile(&Expr::lt(col(1), Expr::lit(4i32)), &ctx3());
        let (sel, fell_back) = c.eval_predicate_block(&block).unwrap();
        assert!(!fell_back);
        // Rows 1 (a=2) and 2 (a=3) pass; row 0 was pre-filtered out.
        assert_eq!(sel, vec![1, 2]);
    }
}
