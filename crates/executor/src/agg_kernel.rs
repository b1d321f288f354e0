//! The typed aggregation kernel of the block engine.
//!
//! [`PartialAgg`] folds [`RowBlock`]s into typed per-group accumulators
//! without building a `Vec<Datum>` per row. It has one caller,
//! [`crate::block_exec::hash_agg_blocks`] — the `HashAgg` arm of
//! [`crate::block_exec::exec_block`], which the fused morsel driver also
//! calls with a segment's morsel blocks. One instance absorbs a
//! segment's chunks in order, with no merge, so a float sum is the row
//! engine's sequential fold, bit for bit.
//!
//! [`PartialAgg::finalize`] answers [`Finalized::NeedsExact`] when the
//! typed state cannot prove its result equals the row engine's, and the
//! caller replays the chunks through [`crate::exec::AggExec`].
//!
//! Group keys take one of three shapes (see [`Keys`]): none at all for a
//! scalar aggregate, typed `i64` tuples while every key column of every
//! block is a null-free `Int32`/`Int64`/`Date` column of an unchanged
//! variant, datum keys otherwise. A typed tuple is bijective with the
//! datum key the row engine builds *per column variant*: within one
//! variant `i64` equality is `Datum` equality, and the moment a block
//! brings a different variant (or a NULL) the stored keys degrade to
//! datums in place, first-seen order kept, and `Datum` equality decides.
//! The typed index and the integer readers live in `typed_key.rs`,
//! shared with the block hash join.

use crate::exec::{empty_scalar_row, AggExec};
use crate::stats::SegmentStats;
use crate::typed_key::{BlockCol, IntSlice, IntVar, TypedIndex};
use mpp_common::{bitmap_get, ColumnData, Datum, Result, Row, RowBlock, SegmentId};
use mpp_expr::CompiledExpr;
use mpp_plan::{AggCall, AggFunc};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One `HashAgg` node, compiled once per stage.
pub(crate) struct AggSpec<'p> {
    /// Child-output positions of the GROUP BY columns.
    positions: Vec<usize>,
    /// Compiled aggregate arguments (`None` = COUNT(*)).
    args: Vec<Option<Arc<CompiledExpr>>>,
    pub(crate) calls: &'p [AggCall],
    /// Output width of the HashAgg node.
    pub(crate) width: usize,
}

impl<'p> AggSpec<'p> {
    pub(crate) fn new(prep: &AggExec, calls: &'p [AggCall], width: usize) -> AggSpec<'p> {
        AggSpec {
            positions: prep.positions.clone(),
            args: prep.args.clone(),
            calls,
            width,
        }
    }
}

const F64_EXACT: i128 = 1 << 53;

/// One aggregate call's typed state. Mirrors the row engine's accumulator
/// exactly, except that integer sums ride in i128 with running prefix
/// extremes instead of erroring on overflow: a prefix that ever leaves
/// the i64 range proves the sequential engine would have errored
/// mid-stream, and the caller takes the exact path.
struct PartialAcc {
    count: i64,
    non_null: i64,
    sum_f: f64,
    sum_is_float: bool,
    sum_i: i128,
    min_p: i128,
    max_p: i128,
    min: Option<Datum>,
    max: Option<Datum>,
    /// Typed min/max lane state, folded into `min`/`max` by
    /// [`PartialAcc::fold_minmax`] before anything reads them.
    min_i: i64,
    max_i: i64,
}

impl PartialAcc {
    fn new() -> PartialAcc {
        PartialAcc {
            count: 0,
            non_null: 0,
            sum_f: 0.0,
            sum_is_float: false,
            sum_i: 0,
            min_p: 0,
            max_p: 0,
            min: None,
            max: None,
            min_i: i64::MAX,
            max_i: i64::MIN,
        }
    }

    #[inline]
    fn add_int_sum(&mut self, i: i64) {
        self.sum_i += i as i128;
        self.min_p = self.min_p.min(self.sum_i);
        self.max_p = self.max_p.max(self.sum_i);
    }

    /// Typed integer observation for Count/Sum/Avg calls (no min/max
    /// tracking needed — those calls never read it).
    #[inline]
    fn observe_int(&mut self, i: i64) {
        self.count += 1;
        self.non_null += 1;
        self.add_int_sum(i);
    }

    /// Typed integer observation for Min/Max calls.
    #[inline]
    fn observe_int_minmax(&mut self, i: i64) {
        self.observe_int(i);
        self.min_i = self.min_i.min(i);
        self.max_i = self.max_i.max(i);
    }

    /// Typed float observation for Count/Sum/Avg calls.
    #[inline]
    fn observe_float(&mut self, f: f64) {
        self.count += 1;
        self.non_null += 1;
        self.sum_is_float = true;
        self.sum_f += f;
    }

    /// Exact mirror of the row accumulator's `observe`.
    fn observe(&mut self, v: Option<Datum>) {
        self.count += 1;
        let Some(v) = v.filter(|v| !v.is_null()) else {
            return;
        };
        self.non_null += 1;
        match v {
            Datum::Float64(f) => {
                self.sum_is_float = true;
                self.sum_f += f;
            }
            Datum::Int32(i) | Datum::Date(i) => {
                self.add_int_sum(i as i64);
                self.sum_f += i as f64;
            }
            Datum::Int64(i) => {
                self.add_int_sum(i);
                self.sum_f += i as f64;
            }
            _ => {}
        }
        self.keep_min(v.clone());
        self.keep_max(v);
    }

    /// First-seen minimum under `Datum` order (ties keep the earlier).
    fn keep_min(&mut self, v: Datum) {
        match &self.min {
            Some(m) if &v >= m => {}
            _ => self.min = Some(v),
        }
    }

    fn keep_max(&mut self, v: Datum) {
        match &self.max {
            Some(m) if &v <= m => {}
            _ => self.max = Some(v),
        }
    }

    /// Fold the typed min/max lane (values of variant `var`) into the
    /// datum form.
    fn fold_minmax(&mut self, var: IntVar) {
        if self.min_i <= self.max_i {
            self.keep_min(var.datum(self.min_i));
            self.keep_max(var.datum(self.max_i));
            self.min_i = i64::MAX;
            self.max_i = i64::MIN;
        }
    }

    /// Does finalizing this accumulator for `func` require the exact
    /// sequential path? `int_lane` says a typed integer lane fed it (such
    /// a lane does not maintain the running float sum).
    fn needs_exact(&self, func: AggFunc, int_lane: bool) -> bool {
        // An integer running sum that ever left i64 means the sequential
        // engine errored mid-accumulation (it checks on every observe,
        // whatever the call).
        if self.min_p < i64::MIN as i128 || self.max_p > i64::MAX as i128 {
            return true;
        }
        match func {
            AggFunc::Sum | AggFunc::Avg => {
                if self.sum_is_float && int_lane {
                    // A typed integer lane skips the running float sum, so
                    // a float sum that also took typed ints is incomplete.
                    return true;
                }
                // The sequential f64 fold of these ints may have rounded;
                // `sum_i as f64` can't reproduce it.
                func == AggFunc::Avg
                    && !self.sum_is_float
                    && (self.min_p < -F64_EXACT || self.max_p > F64_EXACT)
            }
            _ => false,
        }
    }

    fn finalize(&self, call: &AggCall) -> Datum {
        match call.func {
            AggFunc::Count => match &call.arg {
                None => Datum::Int64(self.count),
                Some(_) => Datum::Int64(self.non_null),
            },
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Datum::Null
                } else if self.sum_is_float {
                    Datum::Float64(self.sum_f)
                } else {
                    Datum::Int64(self.sum_i as i64)
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Datum::Null
                } else {
                    let sum = if self.sum_is_float {
                        self.sum_f
                    } else {
                        self.sum_i as f64
                    };
                    Datum::Float64(sum / self.non_null as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
        }
    }
}

/// Group-key storage; group `g`'s key is the `g`-th stored, in
/// first-seen order. A kernel only ever moves down this list.
enum Keys {
    /// Nothing stored and nothing hashed: a fresh kernel, or a scalar
    /// aggregate's single keyless group.
    Empty,
    /// `vars.len()` widened integers per group, flattened in `flat`.
    Typed {
        vars: Vec<IntVar>,
        index: TypedIndex,
        flat: Vec<i64>,
    },
    General {
        index: HashMap<Vec<Datum>, u32>,
        keys: Vec<Vec<Datum>>,
    },
}

/// Aggregation state over any number of blocks. Groups are kept in
/// first-seen order; absorbing blocks in order reproduces the sequential
/// engine's group order exactly.
pub(crate) struct PartialAgg {
    keys: Keys,
    n_calls: usize,
    n_groups: usize,
    /// Group-major accumulators, `n_calls` per group.
    accs: Vec<PartialAcc>,
    /// Per call: the variant of a typed min/max lane not yet folded into
    /// the datum form. Folded only when a different variant, a datum
    /// observation or the finalize needs it — not per block.
    pending: Vec<Option<IntVar>>,
    /// Per call: a typed integer lane has fed it.
    int_lane: Vec<bool>,
}

pub(crate) enum Finalized {
    Rows(Vec<Row>),
    /// Some accumulator can't prove its value matches the sequential
    /// engine — the caller takes the exact path.
    NeedsExact,
}

/// Visit the logical rows of a typed lane in order: `f(k, Some(value))`,
/// or `f(k, None)` for a NULL slot. The selection and validity dispatch
/// is hoisted out of the row loop.
#[inline(always)]
fn lane<T: Copy>(
    v: &[T],
    sel: Option<&[u32]>,
    valid: Option<&[u64]>,
    mut f: impl FnMut(usize, Option<T>),
) {
    match (sel, valid) {
        (None, None) => v.iter().enumerate().for_each(|(k, &x)| f(k, Some(x))),
        (None, Some(w)) => v
            .iter()
            .enumerate()
            .for_each(|(k, &x)| f(k, bitmap_get(w, k).then_some(x))),
        (Some(sel), None) => sel
            .iter()
            .enumerate()
            .for_each(|(k, &p)| f(k, Some(v[p as usize]))),
        (Some(sel), Some(w)) => sel
            .iter()
            .enumerate()
            .for_each(|(k, &p)| f(k, bitmap_get(w, p as usize).then_some(v[p as usize]))),
    }
}

/// Feed one typed lane into call `j` of every row's group (`slots`), or
/// of the single scalar group. A NULL slot counts the row
/// (`observe(Null)` ≡ `count += 1`) without touching sums or extremes.
#[inline(always)]
fn feed<T: Copy>(
    accs: &mut [PartialAcc],
    n_calls: usize,
    j: usize,
    slots: Option<&[u32]>,
    v: &[T],
    arg: &BlockCol<'_>,
    obs: impl Fn(&mut PartialAcc, T),
) {
    let valid = arg.col.validity();
    let step = |acc: &mut PartialAcc, x: Option<T>| match x {
        Some(x) => obs(acc, x),
        None => acc.count += 1,
    };
    match slots {
        None => {
            let acc = &mut accs[j];
            lane(v, arg.sel, valid, |_, x| step(acc, x));
        }
        Some(slots) => lane(v, arg.sel, valid, |k, x| {
            step(&mut accs[slots[k] as usize * n_calls + j], x)
        }),
    }
}

impl PartialAgg {
    pub(crate) fn new(n_calls: usize) -> PartialAgg {
        PartialAgg {
            keys: Keys::Empty,
            n_calls,
            n_groups: 0,
            accs: Vec::new(),
            pending: vec![None; n_calls],
            int_lane: vec![false; n_calls],
        }
    }

    /// Fold one block in. Strict columnar argument evaluation with a
    /// per-block row fallback; `rows_vectorized` / `rows_row_fallback`
    /// count the block under whichever ran.
    pub(crate) fn absorb(
        &mut self,
        b: &RowBlock,
        spec: &AggSpec<'_>,
        stats: &mut SegmentStats,
    ) -> Result<()> {
        // A scalar aggregate has one keyless group: no slot vector, no
        // hashing, and `count(*)` is one addition per block.
        if spec.positions.is_empty() && self.n_groups == 0 && !b.is_empty() {
            self.new_group();
        }
        let mut args: Vec<Option<BlockCol<'_>>> = Vec::with_capacity(spec.args.len());
        for a in &spec.args {
            args.push(match a.as_deref() {
                None => None,
                Some(e) => match BlockCol::eval(e, b) {
                    Ok(c) => Some(c),
                    Err(_) => {
                        // Some argument needs row semantics: the whole
                        // block goes row-major so the first error
                        // surfaces in row order.
                        self.absorb_rows(b, spec)?;
                        stats.rows_row_fallback += b.len() as u64;
                        return Ok(());
                    }
                },
            });
        }
        self.absorb_strict(b, spec, &args);
        stats.rows_vectorized += b.len() as u64;
        Ok(())
    }

    fn new_group(&mut self) -> u32 {
        self.accs
            .extend(std::iter::repeat_with(PartialAcc::new).take(self.n_calls));
        self.n_groups += 1;
        (self.n_groups - 1) as u32
    }

    fn absorb_strict(&mut self, b: &RowBlock, spec: &AggSpec<'_>, args: &[Option<BlockCol<'_>>]) {
        let n = b.len();
        if n == 0 {
            return;
        }
        let slots = (!spec.positions.is_empty()).then(|| self.slot_vector(b, &spec.positions));
        let slots = slots.as_deref();
        let nc = self.n_calls;
        for (j, call) in spec.calls.iter().enumerate() {
            let Some(arg) = &args[j] else {
                match slots {
                    None => self.accs[j].count += n as i64,
                    Some(slots) => {
                        for &s in slots {
                            self.accs[s as usize * nc + j].count += 1;
                        }
                    }
                }
                continue;
            };
            let sums_only = matches!(call.func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg);
            match (IntSlice::of(&arg.col), arg.col.data()) {
                (Some((var, vals)), _) => {
                    self.int_lane[j] = true;
                    if !sums_only && self.pending[j] != Some(var) {
                        self.fold_pending(j);
                        self.pending[j] = Some(var);
                    }
                    let accs = &mut self.accs;
                    match (vals, sums_only) {
                        (IntSlice::I32(v), true) => {
                            feed(accs, nc, j, slots, v, arg, |a, x| a.observe_int(x as i64))
                        }
                        (IntSlice::I64(v), true) => {
                            feed(accs, nc, j, slots, v, arg, |a, x| a.observe_int(x))
                        }
                        (IntSlice::I32(v), false) => feed(accs, nc, j, slots, v, arg, |a, x| {
                            a.observe_int_minmax(x as i64)
                        }),
                        (IntSlice::I64(v), false) => {
                            feed(accs, nc, j, slots, v, arg, |a, x| a.observe_int_minmax(x))
                        }
                    }
                }
                (None, ColumnData::Float64(v)) if sums_only => {
                    feed(&mut self.accs, nc, j, slots, v, arg, |a, x| {
                        a.observe_float(x)
                    })
                }
                _ => {
                    self.fold_pending(j);
                    for k in 0..n {
                        let g = slots.map_or(0, |s| s[k] as usize);
                        self.accs[g * nc + j].observe(Some(arg.get(k)));
                    }
                }
            }
        }
    }

    /// Row-major fallback: mirror `AggExec::observe_row` per row. Errors
    /// propagate (the caller's exact path reproduces them in row order).
    fn absorb_rows(&mut self, b: &RowBlock, spec: &AggSpec<'_>) -> Result<()> {
        for j in 0..self.n_calls {
            self.fold_pending(j);
        }
        for k in 0..b.len() {
            let row = b.row_at_phys(b.phys_index(k));
            let g = if spec.positions.is_empty() {
                0
            } else {
                let key = spec
                    .positions
                    .iter()
                    .map(|&i| row.values()[i].clone())
                    .collect();
                self.general_slot(key) as usize
            };
            for (j, arg) in spec.args.iter().enumerate() {
                let v = match arg {
                    None => None,
                    Some(e) => Some(e.eval(&row)?),
                };
                self.accs[g * self.n_calls + j].observe(v);
            }
        }
        Ok(())
    }

    /// Fold call `j`'s typed min/max lane into the datum form, so a
    /// later observation of another variant (or a datum) ties first-seen.
    fn fold_pending(&mut self, j: usize) {
        if let Some(var) = self.pending[j].take() {
            for acc in self.accs.iter_mut().skip(j).step_by(self.n_calls) {
                acc.fold_minmax(var);
            }
        }
    }

    /// Group slots for every row of the block. Typed keys are kept while
    /// every key column is a null-free integer column of the variant the
    /// kernel started with; anything else degrades the stored keys.
    fn slot_vector(&mut self, b: &RowBlock, positions: &[usize]) -> Vec<u32> {
        // NULL group keys need datum identity — only null-free integer
        // columns qualify.
        let typed: Option<Vec<(IntVar, IntSlice<'_>)>> = positions
            .iter()
            .map(|&p| {
                let col = b.columns().get(p)?;
                IntSlice::of(col).filter(|_| col.validity().is_none())
            })
            .collect();
        if let Some(cols) = &typed {
            if matches!(self.keys, Keys::Empty) {
                self.keys = Keys::Typed {
                    vars: cols.iter().map(|c| c.0).collect(),
                    index: TypedIndex::default(),
                    flat: Vec::new(),
                };
            }
            if matches!(&self.keys, Keys::Typed { vars, .. } if vars.iter().eq(cols.iter().map(|c| &c.0)))
            {
                return self.typed_slots(b, cols);
            }
        }
        let n = b.len();
        let mut slots = Vec::with_capacity(n);
        for k in 0..n {
            let key = positions.iter().map(|&p| b.datum_at(k, p)).collect();
            slots.push(self.general_slot(key));
        }
        slots
    }

    fn typed_slots(&mut self, b: &RowBlock, cols: &[(IntVar, IntSlice<'_>)]) -> Vec<u32> {
        let n = b.len();
        let sel = b.sel();
        let mut key = vec![0i64; cols.len()];
        let mut slots = Vec::with_capacity(n);
        for k in 0..n {
            let p = sel.map_or(k, |s| s[k] as usize);
            for (x, c) in key.iter_mut().zip(cols) {
                *x = c.1.at(p);
            }
            slots.push(self.typed_slot(&key));
        }
        slots
    }

    fn typed_slot(&mut self, key: &[i64]) -> u32 {
        let Keys::Typed { index, flat, .. } = &mut self.keys else {
            unreachable!("typed slots follow the Keys::Typed check");
        };
        match index.find_or_insert(key, flat) {
            (slot, false) => slot,
            (_, true) => self.new_group(),
        }
    }

    fn general_slot(&mut self, key: Vec<Datum>) -> u32 {
        self.degrade();
        let Keys::General { index, keys } = &mut self.keys else {
            unreachable!("degraded to general keys");
        };
        match index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                keys.push(e.key().clone());
                e.insert(self.n_groups as u32);
                self.new_group()
            }
        }
    }

    /// Convert the stored keys to datum keys in place (order preserved).
    fn degrade(&mut self) {
        let keys: Vec<Vec<Datum>> = match &self.keys {
            Keys::General { .. } => return,
            Keys::Empty => Vec::new(),
            Keys::Typed { vars, flat, .. } => flat
                .chunks(vars.len())
                .map(|key| vars.iter().zip(key).map(|(var, &k)| var.datum(k)).collect())
                .collect(),
        };
        let index = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        self.keys = Keys::General { index, keys };
    }

    /// Emit output rows (first-seen group order), mirroring
    /// `AggExec::finalize` — including the scalar-aggregate default row
    /// on segment 0 over empty input.
    pub(crate) fn finalize(mut self, spec: &AggSpec<'_>, seg: SegmentId) -> Finalized {
        if self.n_groups == 0 && spec.positions.is_empty() {
            if seg != SegmentId(0) {
                return Finalized::Rows(Vec::new());
            }
            return Finalized::Rows(vec![empty_scalar_row(spec.calls)]);
        }
        for j in 0..self.n_calls {
            self.fold_pending(j);
        }
        let nc = self.n_calls;
        for (i, acc) in self.accs.iter().enumerate() {
            if acc.needs_exact(spec.calls[i % nc].func, self.int_lane[i % nc]) {
                return Finalized::NeedsExact;
            }
        }
        let mut out = Vec::with_capacity(self.n_groups);
        for g in 0..self.n_groups {
            let mut vals: Vec<Datum> = match &mut self.keys {
                Keys::Empty => Vec::new(),
                Keys::Typed { vars, flat, .. } => {
                    let key = &flat[g * vars.len()..(g + 1) * vars.len()];
                    vars.iter().zip(key).map(|(var, &k)| var.datum(k)).collect()
                }
                Keys::General { keys, .. } => std::mem::take(&mut keys[g]),
            };
            let accs = &self.accs[g * nc..(g + 1) * nc];
            vals.extend(
                accs.iter()
                    .zip(spec.calls)
                    .map(|(acc, call)| acc.finalize(call)),
            );
            out.push(Row::new(vals));
        }
        Finalized::Rows(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_common::value::ArithOp;
    use mpp_common::ColumnVec;
    use mpp_expr::{compile, ColRef, EvalContext, Expr};

    fn block(cols: Vec<Vec<Datum>>) -> RowBlock {
        let rows = cols[0].len();
        let cols = cols
            .into_iter()
            .map(|c| Arc::new(ColumnVec::from_datums(c)))
            .collect();
        RowBlock::from_columns(cols, rows)
    }

    /// A spec over child columns `c0, c1, ..`: group by `positions`, one
    /// compiled argument per call.
    fn spec<'p>(positions: &[usize], calls: &'p [AggCall], child_width: usize) -> AggSpec<'p> {
        let cols: Vec<ColRef> = (0..child_width)
            .map(|i| ColRef::new(i as u32 + 1, "c"))
            .collect();
        let ctx = EvalContext::from_columns(&cols);
        AggSpec {
            positions: positions.to_vec(),
            args: calls
                .iter()
                .map(|c| c.arg.as_ref().map(|e| Arc::new(compile(e, &ctx))))
                .collect(),
            calls,
            width: positions.len() + calls.len(),
        }
    }

    fn col(i: u32) -> Expr {
        Expr::col(ColRef::new(i + 1, "c"))
    }

    /// Absorb the blocks in order with one kernel; rows rendered with
    /// `{:?}` so datum *variants* and float bits are compared, not just
    /// `Datum` equality (under which `Int32(1) == Int64(1)`).
    fn run(blocks: &[RowBlock], spec: &AggSpec<'_>) -> (Vec<String>, &'static str) {
        let mut pa = PartialAgg::new(spec.calls.len());
        let mut stats = SegmentStats::default();
        for b in blocks {
            pa.absorb(b, spec, &mut stats).unwrap();
        }
        let shape = match &pa.keys {
            Keys::Empty => "empty",
            Keys::Typed { .. } => "typed",
            Keys::General { .. } => "general",
        };
        let Finalized::Rows(rows) = pa.finalize(spec, SegmentId(0)) else {
            panic!("typed state should be exact here");
        };
        (
            rows.iter().map(|r| format!("{:?}", r.values())).collect(),
            shape,
        )
    }

    /// The datum-keyed reference: first-seen order, `Datum` equality.
    fn count_by_datum_key(blocks: &[RowBlock], width: usize) -> Vec<String> {
        let mut groups: Vec<(Vec<Datum>, i64)> = Vec::new();
        for b in blocks {
            for k in 0..b.len() {
                let key: Vec<Datum> = (0..width).map(|c| b.datum_at(k, c)).collect();
                match groups.iter_mut().find(|(g, _)| *g == key) {
                    Some((_, n)) => *n += 1,
                    None => groups.push((key, 1)),
                }
            }
        }
        groups
            .into_iter()
            .map(|(mut key, n)| {
                key.push(Datum::Int64(n));
                format!("{key:?}")
            })
            .collect()
    }

    #[test]
    fn typed_multi_column_keys_are_bijective_with_datum_keys() {
        let calls = [AggCall::count_star()];
        let spec = spec(&[0, 1], &calls, 2);
        let i32s = |v: &[i32]| v.iter().map(|&x| Datum::Int32(x)).collect::<Vec<_>>();
        let i64s = |v: &[i64]| v.iter().map(|&x| Datum::Int64(x)).collect::<Vec<_>>();
        let narrow = block(vec![i32s(&[1, 3, 1, 1]), i64s(&[2, 2, 2, 9])]);
        let wide = block(vec![i64s(&[1, 5, 1]), i64s(&[2, 2, 2])]);

        // One variant per column: typed keys, output in that variant.
        let (rows, shape) = run(std::slice::from_ref(&narrow), &spec);
        assert_eq!(shape, "typed");
        assert_eq!(rows, count_by_datum_key(std::slice::from_ref(&narrow), 2));
        assert_eq!(rows[0], "[Int32(1), Int64(2), Int64(2)]");
        let (rows_wide, shape) = run(std::slice::from_ref(&wide), &spec);
        assert_eq!(shape, "typed");
        assert_eq!(rows_wide[0], "[Int64(1), Int64(2), Int64(2)]");
        assert_ne!(rows[0], rows_wide[0], "the variant is part of the key");

        // A second variant in the same column degrades in place, and
        // from then on `Datum` equality decides: `(Int32(1), Int64(2))`
        // and `(Int64(1), Int64(2))` are one group, first-seen variant.
        for order in [[&narrow, &wide], [&wide, &narrow]] {
            let blocks: Vec<RowBlock> = order.into_iter().cloned().collect();
            let (rows, shape) = run(&blocks, &spec);
            assert_eq!(shape, "general");
            assert_eq!(rows, count_by_datum_key(&blocks, 2));
        }

        // A NULL in a key column never takes typed keys.
        let nulls = block(vec![
            vec![Datum::Int32(1), Datum::Null, Datum::Null],
            i64s(&[2, 2, 2]),
        ]);
        let (rows, shape) = run(&[narrow.clone(), nulls.clone()], &spec);
        assert_eq!(shape, "general");
        assert_eq!(rows, count_by_datum_key(&[narrow, nulls], 2));
    }

    #[test]
    fn scalar_path_stores_no_key_and_folds_floats_in_order() {
        let calls = [
            AggCall::count_star(),
            AggCall::new(AggFunc::Sum, col(0)),
            AggCall::new(AggFunc::Avg, col(1)),
        ];
        let spec = spec(&[], &calls, 2);
        let floats: Vec<f64> = (0..200)
            .map(|i| i as f64 * 0.1 + 1e10 / (i + 1) as f64)
            .collect();
        let mk = |range: std::ops::Range<usize>| {
            block(vec![
                floats[range.clone()]
                    .iter()
                    .map(|&f| Datum::Float64(f))
                    .collect(),
                range
                    .map(|i| {
                        if i % 7 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int64(i as i64)
                        }
                    })
                    .collect(),
            ])
        };
        // The second block reaches the kernel through a selection vector.
        let blocks = [
            mk(0..90),
            mk(90..200).with_sel((0..110).step_by(2).collect()),
        ];
        let mut pa = PartialAgg::new(calls.len());
        let mut stats = SegmentStats::default();
        for b in &blocks {
            pa.absorb(b, &spec, &mut stats).unwrap();
            assert!(matches!(pa.keys, Keys::Empty), "scalar groups are keyless");
            assert_eq!(pa.n_groups, 1);
        }
        let Finalized::Rows(rows) = pa.finalize(&spec, SegmentId(3)) else {
            panic!("exact");
        };
        let kept: Vec<usize> = (0..90).chain((90..200).step_by(2)).collect();
        let sum = kept.iter().fold(0.0f64, |s, &i| s + floats[i]);
        let ints: Vec<i64> = kept
            .iter()
            .filter(|&&i| i % 7 != 0)
            .map(|&i| i as i64)
            .collect();
        let avg = ints.iter().sum::<i64>() as f64 / ints.len() as f64;
        let want = vec![
            Datum::Int64(kept.len() as i64),
            Datum::Float64(sum),
            Datum::Float64(avg),
        ];
        assert_eq!(format!("{:?}", rows[0].values()), format!("{want:?}"));
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn stats_attribution_per_block() {
        // 100 / c0: strict over a zero-free block, errors on a zero.
        let div = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::lit(Datum::Int64(100))),
            right: Box::new(col(0)),
        };
        let calls = [AggCall::new(AggFunc::Sum, div)];
        let spec = spec(&[], &calls, 1);
        let ok = block(vec![(1..=5).map(Datum::Int64).collect()]);
        let bad = block(vec![[4, 0, 2].into_iter().map(Datum::Int64).collect()]);

        let mut pa = PartialAgg::new(1);
        let mut stats = SegmentStats::default();
        pa.absorb(&ok, &spec, &mut stats).unwrap();
        assert_eq!((stats.rows_vectorized, stats.rows_row_fallback), (5, 0));
        // The erroring block surfaces its error before anything is
        // counted for it, as the per-row arm did.
        let err = pa.absorb(&bad, &spec, &mut stats).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
        assert_eq!((stats.rows_vectorized, stats.rows_row_fallback), (5, 0));
    }

    #[test]
    fn min_max_ties_keep_the_first_seen_variant_across_blocks() {
        let calls = [
            AggCall::new(AggFunc::Min, col(0)),
            AggCall::new(AggFunc::Max, col(0)),
        ];
        let spec = spec(&[], &calls, 1);
        let narrow = block(vec![vec![Datum::Int32(7), Datum::Int32(1)]]);
        let wide = block(vec![vec![Datum::Int64(1), Datum::Int64(7)]]);
        let (rows, _) = run(&[narrow.clone(), wide.clone()], &spec);
        assert_eq!(rows, ["[Int32(1), Int32(7)]"]);
        let (rows, _) = run(&[wide, narrow], &spec);
        assert_eq!(rows, ["[Int64(1), Int64(7)]"]);
    }

    #[test]
    fn float_sum_that_also_took_typed_ints_needs_exact() {
        let calls = [AggCall::new(AggFunc::Sum, col(0))];
        let spec = spec(&[], &calls, 1);
        let ints = block(vec![vec![Datum::Int64(1), Datum::Int64(2)]]);
        let floats = block(vec![vec![Datum::Float64(0.5)]]);
        let mut pa = PartialAgg::new(1);
        let mut stats = SegmentStats::default();
        pa.absorb(&ints, &spec, &mut stats).unwrap();
        pa.absorb(&floats, &spec, &mut stats).unwrap();
        assert!(matches!(
            pa.finalize(&spec, SegmentId(0)),
            Finalized::NeedsExact
        ));
    }
}
