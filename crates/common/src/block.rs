//! Columnar batches: [`ColumnVec`] and [`RowBlock`].
//!
//! The executor's vectorized engine moves tuples between operators as
//! column-major blocks instead of one [`Row`] at a time. A block holds one
//! [`ColumnVec`] per output column plus an optional *selection vector* — the
//! list of physical row indices that are logically present. Filters refine
//! the selection without touching the columns; projections drop or reorder
//! the `Arc`-shared columns without touching the rows; motions clone blocks
//! by bumping refcounts.
//!
//! A `ColumnVec` stores values in a typed vector when the column is
//! monotyped (`Vec<i64>`, `Vec<f64>`, …) plus an optional word-packed
//! validity bitmap ([`ColumnVec::validity`]) marking which slots are
//! non-NULL, and degrades to a `Vec<Datum>` ([`ColumnData::Any`]) only when
//! a second runtime type appears (or the column is entirely NULL, leaving
//! its type unknown). Typed vectors are what make tight per-kind predicate
//! loops possible (`mpp_expr`'s batch evaluator); the validity bitmap keeps
//! nullable columns on those typed paths; the `Any` fallback keeps every
//! SQL value representable with unchanged semantics.
//!
//! Invariants:
//! * every column of a block has exactly `rows` physical entries;
//! * every selection index is `< rows` and indices are in increasing order
//!   (operators only ever *refine* selections, so order is preserved);
//! * `Row`↔block conversion is lossless: `RowBlock::from_rows(rows).to_rows()
//!   == rows` for equal-width rows.
//!
//! Validity bitmap invariants (enforced by every constructor):
//! * `valid` is `None` when every slot is non-NULL (all-valid normalizes to
//!   `None`, so derived equality is representation-independent), and never
//!   present on an `Any` column (NULLs live as `Datum::Null` there);
//! * when present, the bitmap has `len().div_ceil(64)` words, bit `i` set
//!   iff slot `i` is non-NULL, and the tail bits of the last word zero;
//! * invalid slots hold a canonical *dummy* value (`false`, `0`, `0.0`,
//!   `""`), so kernels may run branch-free over all slots and two columns
//!   with equal logical contents compare equal.

use crate::row::{hash_combine, Row, HASH_COLUMNS_SEED};
use crate::value::{
    dist_hash_bool, dist_hash_f64, dist_hash_int, dist_hash_null, dist_hash_str, Datum,
};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Word-packed bitmap helpers (shared with the batch kernels).
// ---------------------------------------------------------------------

/// Bit `i` of a word-packed bitmap.
#[inline]
pub fn bitmap_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 != 0
}

#[inline]
fn bitmap_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// An all-ones bitmap of `n` bits with a zeroed tail.
pub fn bitmap_ones(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    bitmap_zero_tail(&mut words, n);
    words
}

/// Clear the bits at and past `n` (the tail of the last word).
#[inline]
pub fn bitmap_zero_tail(words: &mut [u64], n: usize) {
    if n & 63 != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (n & 63)) - 1;
        }
    }
}

/// Number of set bits.
#[inline]
pub fn bitmap_count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Append one bit to a validity bitmap of `len` bits (`None` = all valid),
/// materializing the bitmap only when the first invalid bit arrives.
fn validity_push(valid: &mut Option<Vec<u64>>, len: usize, is_valid: bool) {
    if valid.is_none() {
        if is_valid {
            return;
        }
        *valid = Some(bitmap_ones(len));
    }
    let words = valid.as_mut().unwrap();
    if len & 63 == 0 {
        words.push(0);
    }
    if is_valid {
        bitmap_set(words, len);
    }
}

/// The dense value buffer of a [`ColumnVec`]: typed, or the `Any`
/// fallback holding arbitrary datums.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Days since 1970-01-01, like [`Datum::Date`].
    Date(Vec<i32>),
    Str(Vec<Arc<str>>),
    /// Fallback for columns of mixed runtime types (or all-NULL columns,
    /// whose type is unknown).
    Any(Vec<Datum>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Any(v) => v.len(),
        }
    }

    /// Overwrite every invalid slot with the canonical dummy value.
    fn scrub_invalid(&mut self, valid: &[u64]) {
        macro_rules! scrub {
            ($v:expr, $dummy:expr) => {
                for (i, x) in $v.iter_mut().enumerate() {
                    if !bitmap_get(valid, i) {
                        *x = $dummy;
                    }
                }
            };
        }
        match self {
            ColumnData::Bool(v) => scrub!(v, false),
            ColumnData::Int32(v) => scrub!(v, 0),
            ColumnData::Int64(v) => scrub!(v, 0),
            ColumnData::Float64(v) => scrub!(v, 0.0),
            ColumnData::Date(v) => scrub!(v, 0),
            ColumnData::Str(v) => {
                let empty: Arc<str> = Arc::from("");
                scrub!(v, Arc::clone(&empty))
            }
            ColumnData::Any(_) => unreachable!("validity bitmap on an Any column"),
        }
    }
}

/// One column of a [`RowBlock`]: a dense [`ColumnData`] buffer plus an
/// optional validity bitmap (see the module docs for the invariants).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    data: ColumnData,
    valid: Option<Vec<u64>>,
}

impl ColumnVec {
    /// Physical length of the column.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column that will re-type itself on first push.
    pub fn empty() -> ColumnVec {
        ColumnVec {
            data: ColumnData::Any(Vec::new()),
            valid: None,
        }
    }

    /// The dense value buffer. Callers matching a typed variant must also
    /// consult [`Self::validity`] — invalid slots hold dummy values.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap: `None` means every slot is non-NULL.
    #[inline]
    pub fn validity(&self) -> Option<&[u64]> {
        self.valid.as_deref()
    }

    /// Is slot `i` non-NULL? (Always true for `Any` columns, whose NULLs
    /// live in the datums themselves.)
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.valid {
            None => true,
            Some(w) => bitmap_get(w, i),
        }
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        match (&self.data, &self.valid) {
            (ColumnData::Any(v), _) => v.iter().filter(|d| d.is_null()).count(),
            (_, None) => 0,
            (_, Some(w)) => self.len() - bitmap_count(w),
        }
    }

    /// Assemble a column from a dense buffer and validity bitmap,
    /// canonicalizing: all-valid normalizes to `None`, tail bits are
    /// cleared, and invalid slots are scrubbed to the dummy value.
    /// Panics if `valid` is present on an `Any` buffer or has the wrong
    /// word count.
    pub fn from_parts(mut data: ColumnData, valid: Option<Vec<u64>>) -> ColumnVec {
        let n = data.len();
        let valid = match valid {
            None => None,
            Some(mut words) => {
                assert!(
                    !matches!(data, ColumnData::Any(_)),
                    "validity bitmap on an Any column"
                );
                assert_eq!(words.len(), n.div_ceil(64), "validity word count");
                bitmap_zero_tail(&mut words, n);
                if bitmap_count(&words) == n {
                    None
                } else {
                    data.scrub_invalid(&words);
                    Some(words)
                }
            }
        };
        ColumnVec { data, valid }
    }

    /// A null-free column over a dense buffer.
    pub fn from_data(data: ColumnData) -> ColumnVec {
        ColumnVec { data, valid: None }
    }

    /// The datum at physical index `i`. Cheap for every variant (`Str`
    /// clones an `Arc`).
    #[inline]
    pub fn get(&self, i: usize) -> Datum {
        if let Some(w) = &self.valid {
            if !bitmap_get(w, i) {
                return Datum::Null;
            }
        }
        match &self.data {
            ColumnData::Bool(v) => Datum::Bool(v[i]),
            ColumnData::Int32(v) => Datum::Int32(v[i]),
            ColumnData::Int64(v) => Datum::Int64(v[i]),
            ColumnData::Float64(v) => Datum::Float64(v[i]),
            ColumnData::Date(v) => Datum::Date(v[i]),
            ColumnData::Str(v) => Datum::Str(Arc::clone(&v[i])),
            ColumnData::Any(v) => v[i].clone(),
        }
    }

    /// Build a column from owned datums in a single pass: the first
    /// non-NULL value decides the typed representation (earlier NULLs
    /// backfill as invalid dummy slots), a second runtime type degrades
    /// to `Any`, and an all-NULL column stays `Any`.
    pub fn from_datums(values: Vec<Datum>) -> ColumnVec {
        let mut col = ColumnVec::empty();
        for d in values {
            col.push(d);
        }
        col
    }

    /// A column of `n` copies of `d` (constant broadcast).
    pub fn broadcast(d: &Datum, n: usize) -> ColumnVec {
        let data = match d {
            Datum::Bool(b) => ColumnData::Bool(vec![*b; n]),
            Datum::Int32(v) => ColumnData::Int32(vec![*v; n]),
            Datum::Int64(v) => ColumnData::Int64(vec![*v; n]),
            Datum::Float64(v) => ColumnData::Float64(vec![*v; n]),
            Datum::Date(v) => ColumnData::Date(vec![*v; n]),
            Datum::Str(s) => ColumnData::Str(vec![Arc::clone(s); n]),
            Datum::Null => ColumnData::Any(vec![Datum::Null; n]),
        };
        ColumnVec { data, valid: None }
    }

    /// Append one datum. NULLs onto a typed column set an invalid bit
    /// (dummy value slot); a mismatched runtime type degrades to `Any`;
    /// the first non-NULL value onto an all-NULL column adopts its type.
    pub fn push(&mut self, d: Datum) {
        let n = self.len();
        match (&mut self.data, &d) {
            (ColumnData::Bool(v), Datum::Bool(b)) => {
                v.push(*b);
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Int32(v), Datum::Int32(x)) => {
                v.push(*x);
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Int64(v), Datum::Int64(x)) => {
                v.push(*x);
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Float64(v), Datum::Float64(x)) => {
                v.push(*x);
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Date(v), Datum::Date(x)) => {
                v.push(*x);
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Str(v), Datum::Str(s)) => {
                v.push(Arc::clone(s));
                validity_push(&mut self.valid, n, true);
            }
            (ColumnData::Any(v), _) => {
                if v.is_empty() {
                    // Re-type an empty fallback column on first push.
                    *self = ColumnVec::from_typed_datum(&d).unwrap_or(ColumnVec {
                        data: ColumnData::Any(vec![d]),
                        valid: None,
                    });
                } else if !d.is_null() && v.iter().all(|x| x.is_null()) {
                    // An all-NULL column meets its first typed value:
                    // adopt the typed representation, backfilling the
                    // NULLs as invalid dummy slots. (`all()` bails at the
                    // first non-NULL, so mixed columns stay O(1) here.)
                    self.upgrade_all_null(&d);
                } else {
                    v.push(d);
                }
            }
            (_, Datum::Null) => {
                self.push_dummy();
                validity_push(&mut self.valid, n, false);
            }
            _ => {
                self.degrade();
                match &mut self.data {
                    ColumnData::Any(v) => v.push(d),
                    _ => unreachable!("degrade always yields Any"),
                }
            }
        }
    }

    /// A one-element typed column for a non-NULL datum.
    fn from_typed_datum(d: &Datum) -> Option<ColumnVec> {
        let data = match d {
            Datum::Bool(b) => ColumnData::Bool(vec![*b]),
            Datum::Int32(x) => ColumnData::Int32(vec![*x]),
            Datum::Int64(x) => ColumnData::Int64(vec![*x]),
            Datum::Float64(x) => ColumnData::Float64(vec![*x]),
            Datum::Date(x) => ColumnData::Date(vec![*x]),
            Datum::Str(s) => ColumnData::Str(vec![Arc::clone(s)]),
            Datum::Null => return None,
        };
        Some(ColumnVec { data, valid: None })
    }

    /// Append the dummy value for the current typed representation.
    fn push_dummy(&mut self) {
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int32(v) => v.push(0),
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Str(v) => v.push(Arc::from("")),
            ColumnData::Any(_) => unreachable!("push_dummy on Any"),
        }
    }

    /// Replace an all-NULL `Any` column of length `n` with a typed column
    /// of `n` invalid dummy slots followed by `d`.
    fn upgrade_all_null(&mut self, d: &Datum) {
        let n = self.len();
        let mut col = ColumnVec::from_typed_datum(d).expect("non-NULL upgrade value");
        match &mut col.data {
            ColumnData::Bool(v) => {
                v.splice(0..0, std::iter::repeat_n(false, n));
            }
            ColumnData::Int32(v) => {
                v.splice(0..0, std::iter::repeat_n(0, n));
            }
            ColumnData::Int64(v) => {
                v.splice(0..0, std::iter::repeat_n(0, n));
            }
            ColumnData::Float64(v) => {
                v.splice(0..0, std::iter::repeat_n(0.0, n));
            }
            ColumnData::Date(v) => {
                v.splice(0..0, std::iter::repeat_n(0, n));
            }
            ColumnData::Str(v) => {
                v.splice(0..0, std::iter::repeat_with(|| Arc::from("")).take(n));
            }
            ColumnData::Any(_) => unreachable!(),
        }
        let mut words = vec![0u64; (n + 1).div_ceil(64)];
        bitmap_set(&mut words, n);
        col.valid = Some(words);
        *self = col;
    }

    /// Convert the representation to `Any` in place.
    fn degrade(&mut self) {
        let datums: Vec<Datum> = (0..self.len()).map(|i| self.get(i)).collect();
        self.data = ColumnData::Any(datums);
        self.valid = None;
    }

    /// A copy of this column in the `Any` representation — the degraded
    /// pre-validity-bitmap form. Testing aid.
    pub fn degraded(&self) -> ColumnVec {
        let mut c = self.clone();
        c.degrade();
        c
    }

    /// A new column holding the rows at `idx`, in that order.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Int32(v) => ColumnData::Int32(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Int64(v) => ColumnData::Int64(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float64(v) => {
                ColumnData::Float64(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Date(v) => ColumnData::Date(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| Arc::clone(&v[i as usize])).collect())
            }
            ColumnData::Any(v) => {
                ColumnData::Any(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        let valid = match &self.valid {
            None => None,
            Some(w) => {
                let mut out = vec![0u64; idx.len().div_ceil(64)];
                let mut invalid = false;
                for (k, &i) in idx.iter().enumerate() {
                    if bitmap_get(w, i as usize) {
                        bitmap_set(&mut out, k);
                    } else {
                        invalid = true;
                    }
                }
                invalid.then_some(out)
            }
        };
        ColumnVec { data, valid }
    }

    /// Append `other`'s rows at `idx` (all of `other` when `idx` is `None`),
    /// degrading the representation if the variants differ.
    pub fn extend_gather(&mut self, other: &ColumnVec, idx: Option<&[u32]>) {
        if self.is_empty() {
            *self = match idx {
                None => other.clone(),
                Some(idx) => other.gather(idx),
            };
            return;
        }
        let old_len = self.len();
        let added = idx.map_or(other.len(), |s| s.len());
        use ColumnData::*;
        match (&mut self.data, &other.data, idx) {
            (Bool(a), Bool(b), None) => a.extend_from_slice(b),
            (Int32(a), Int32(b), None) => a.extend_from_slice(b),
            (Int64(a), Int64(b), None) => a.extend_from_slice(b),
            (Float64(a), Float64(b), None) => a.extend_from_slice(b),
            (Date(a), Date(b), None) => a.extend_from_slice(b),
            (Str(a), Str(b), None) => a.extend(b.iter().map(Arc::clone)),
            (Any(a), Any(b), None) => a.extend(b.iter().cloned()),
            (Bool(a), Bool(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize])),
            (Int32(a), Int32(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize])),
            (Int64(a), Int64(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize])),
            (Float64(a), Float64(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize])),
            (Date(a), Date(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize])),
            (Str(a), Str(b), Some(idx)) => {
                a.extend(idx.iter().map(|&i| Arc::clone(&b[i as usize])))
            }
            (Any(a), Any(b), Some(idx)) => a.extend(idx.iter().map(|&i| b[i as usize].clone())),
            _ => {
                self.degrade();
                let Any(a) = &mut self.data else {
                    unreachable!("degrade always yields Any")
                };
                match idx {
                    None => a.extend((0..other.len()).map(|i| other.get(i))),
                    Some(idx) => a.extend(idx.iter().map(|&i| other.get(i as usize))),
                }
                return;
            }
        }
        // Same-variant append: merge the validity bitmaps.
        if self.valid.is_none() && other.valid.is_none() {
            return;
        }
        if self.valid.is_none() {
            self.valid = Some(bitmap_ones(old_len));
        }
        let words = self.valid.as_mut().unwrap();
        words.resize((old_len + added).div_ceil(64), 0);
        // The old tail bits are zero (canonical), so setting is enough.
        for k in 0..added {
            let i = match idx {
                None => k,
                Some(s) => s[k] as usize,
            };
            if other.valid.as_deref().is_none_or(|w| bitmap_get(w, i)) {
                bitmap_set(words, old_len + k);
            }
        }
        if bitmap_count(words) == old_len + added {
            self.valid = None;
        }
    }

    /// Distribution hash of the value at physical index `i`, identical to
    /// `Datum::distribution_hash` of [`ColumnVec::get`]`(i)`.
    #[inline]
    pub fn dist_hash(&self, i: usize) -> u64 {
        if !self.is_valid(i) {
            return dist_hash_null();
        }
        match &self.data {
            ColumnData::Bool(v) => dist_hash_bool(v[i]),
            ColumnData::Int32(v) => dist_hash_int(v[i] as i64),
            ColumnData::Int64(v) => dist_hash_int(v[i]),
            ColumnData::Float64(v) => dist_hash_f64(v[i]),
            ColumnData::Date(v) => dist_hash_int(v[i] as i64),
            ColumnData::Str(v) => dist_hash_str(&v[i]),
            ColumnData::Any(v) => match &v[i] {
                Datum::Null => dist_hash_null(),
                d => d.distribution_hash(),
            },
        }
    }

    /// Combine this column's distribution hashes into `hs`, one slot per
    /// selected row (all physical rows when `sel` is `None`). Columnar:
    /// the variant dispatch is hoisted out of the row loop.
    pub fn dist_hash_into(&self, hs: &mut [u64], sel: Option<&[u32]>) {
        macro_rules! lanes {
            ($v:expr, $h:expr) => {{
                let h = $h;
                match (sel, &self.valid) {
                    (None, None) => {
                        for (k, slot) in hs.iter_mut().enumerate() {
                            *slot = hash_combine(*slot, h(&$v[k]));
                        }
                    }
                    (None, Some(w)) => {
                        for (k, slot) in hs.iter_mut().enumerate() {
                            let hx = if bitmap_get(w, k) {
                                h(&$v[k])
                            } else {
                                dist_hash_null()
                            };
                            *slot = hash_combine(*slot, hx);
                        }
                    }
                    (Some(sel), None) => {
                        for (k, slot) in hs.iter_mut().enumerate() {
                            *slot = hash_combine(*slot, h(&$v[sel[k] as usize]));
                        }
                    }
                    (Some(sel), Some(w)) => {
                        for (k, slot) in hs.iter_mut().enumerate() {
                            let i = sel[k] as usize;
                            let hx = if bitmap_get(w, i) {
                                h(&$v[i])
                            } else {
                                dist_hash_null()
                            };
                            *slot = hash_combine(*slot, hx);
                        }
                    }
                }
            }};
        }
        match &self.data {
            ColumnData::Bool(v) => lanes!(v, |x: &bool| dist_hash_bool(*x)),
            ColumnData::Int32(v) => lanes!(v, |x: &i32| dist_hash_int(*x as i64)),
            ColumnData::Int64(v) => lanes!(v, |x: &i64| dist_hash_int(*x)),
            ColumnData::Float64(v) => lanes!(v, |x: &f64| dist_hash_f64(*x)),
            ColumnData::Date(v) => lanes!(v, |x: &i32| dist_hash_int(*x as i64)),
            ColumnData::Str(v) => lanes!(v, |x: &Arc<str>| dist_hash_str(x)),
            ColumnData::Any(v) => lanes!(v, |d: &Datum| match d {
                Datum::Null => dist_hash_null(),
                d => d.distribution_hash(),
            }),
        }
    }
}

/// A column-major batch of rows with an optional selection vector.
///
/// Columns are `Arc`-shared: cloning a block, projecting columns, and
/// storing blocks in the motion cache are refcount bumps. The selection
/// vector (when present) lists the physical row indices that are logically
/// in the block, in increasing order; `len()` counts selected rows.
#[derive(Debug, Clone)]
pub struct RowBlock {
    columns: Vec<Arc<ColumnVec>>,
    /// Physical row count (every column's length).
    rows: usize,
    sel: Option<Vec<u32>>,
}

impl RowBlock {
    /// A block over pre-built columns (no selection). Every column must
    /// have exactly `rows` entries.
    pub fn from_columns(columns: Vec<Arc<ColumnVec>>, rows: usize) -> RowBlock {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        RowBlock {
            columns,
            rows,
            sel: None,
        }
    }

    /// An empty block of the given width.
    pub fn empty(width: usize) -> RowBlock {
        RowBlock {
            columns: (0..width).map(|_| Arc::new(ColumnVec::empty())).collect(),
            rows: 0,
            sel: None,
        }
    }

    /// Column-major conversion from rows. `width` fixes the column count
    /// (needed when `rows` is empty); rows shorter than `width` pad with
    /// NULL and longer rows truncate — the SQL layer never produces ragged
    /// rows, so this only normalizes hand-built plans.
    pub fn from_rows(rows: &[Row], width: usize) -> RowBlock {
        let mut cols: Vec<ColumnVec> = (0..width).map(|_| ColumnVec::empty()).collect();
        for r in rows {
            for (c, col) in cols.iter_mut().enumerate() {
                col.push(r.get(c).cloned().unwrap_or(Datum::Null));
            }
        }
        RowBlock {
            columns: cols.into_iter().map(Arc::new).collect(),
            rows: rows.len(),
            sel: None,
        }
    }

    /// Row-major conversion back to rows (selected rows only, in order).
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        match &self.sel {
            None => {
                for i in 0..self.rows {
                    out.push(self.row_at_phys(i));
                }
            }
            Some(sel) => {
                for &i in sel {
                    out.push(self.row_at_phys(i as usize));
                }
            }
        }
        out
    }

    /// Materialize the row at *physical* index `i` (ignores the selection).
    pub fn row_at_phys(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Number of selected (logical) rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            None => self.rows,
            Some(sel) => sel.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical row count, the length of every column.
    pub fn phys_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    pub fn column(&self, c: usize) -> &ColumnVec {
        &self.columns[c]
    }

    /// The selection vector, if any (physical indices, increasing).
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Physical index of logical row `i`.
    #[inline]
    pub fn phys_index(&self, i: usize) -> usize {
        match &self.sel {
            None => i,
            Some(sel) => sel[i] as usize,
        }
    }

    /// The datum at (logical row, column).
    #[inline]
    pub fn datum_at(&self, row: usize, col: usize) -> Datum {
        self.columns[col].get(self.phys_index(row))
    }

    /// Replace the selection with `sel` (physical indices into this
    /// block's columns — callers produce refinements, so indices must
    /// already be a subset of the current selection).
    pub fn with_sel(mut self, sel: Vec<u32>) -> RowBlock {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.rows));
        self.sel = Some(sel);
        self
    }

    /// Keep only the first `n` selected rows (LIMIT).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.sel {
            Some(sel) => sel.truncate(n),
            None => self.sel = Some((0..n as u32).collect()),
        }
    }

    /// Gather the selection into dense columns (selection becomes `None`).
    /// No-op (refcount bumps only) when nothing is filtered out.
    pub fn compact(&self) -> RowBlock {
        match &self.sel {
            None => self.clone(),
            Some(sel) => RowBlock {
                columns: self
                    .columns
                    .iter()
                    .map(|c| Arc::new(c.gather(sel)))
                    .collect(),
                rows: sel.len(),
                sel: None,
            },
        }
    }

    /// A view of the logical rows `lo..hi` (morsel cut). Columns are
    /// shared, not copied: a dense block gets a dense range selection, a
    /// filtered block a sub-slice of its selection. `lo == 0 && hi ==
    /// len()` returns a plain clone so single-morsel blocks stay dense.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> RowBlock {
        debug_assert!(lo <= hi && hi <= self.len());
        if lo == 0 && hi == self.len() {
            return self.clone();
        }
        let sel = match &self.sel {
            None => (lo as u32..hi as u32).collect(),
            Some(sel) => sel[lo..hi].to_vec(),
        };
        RowBlock {
            columns: self.columns.clone(),
            rows: self.rows,
            sel: Some(sel),
        }
    }

    /// Keep the listed columns, in order (projection by position). Columns
    /// are shared, not copied; the selection carries over.
    pub fn project(&self, cols: &[usize]) -> RowBlock {
        RowBlock {
            columns: cols.iter().map(|&c| Arc::clone(&self.columns[c])).collect(),
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Concatenate blocks (all of width `width`) into one dense block.
    pub fn concat(blocks: &[RowBlock], width: usize) -> RowBlock {
        if blocks.len() == 1 && blocks[0].sel.is_none() {
            return blocks[0].clone();
        }
        let mut cols: Vec<ColumnVec> = (0..width).map(|_| ColumnVec::empty()).collect();
        let mut rows = 0usize;
        for b in blocks {
            debug_assert_eq!(b.width(), width);
            rows += b.len();
            for (c, col) in cols.iter_mut().enumerate() {
                col.extend_gather(&b.columns[c], b.sel());
            }
        }
        RowBlock {
            columns: cols.into_iter().map(Arc::new).collect(),
            rows,
            sel: None,
        }
    }

    /// Append rows in place, copy-on-writing any `Arc`-shared column.
    /// Only valid on dense blocks (no selection) — the storage engine's
    /// resident blocks are always dense.
    pub fn append_rows(&mut self, rows: &[Row]) {
        assert!(self.sel.is_none(), "append_rows on a filtered block");
        for (c, col) in self.columns.iter_mut().enumerate() {
            let col = Arc::make_mut(col);
            for r in rows {
                col.push(r.get(c).cloned().unwrap_or(Datum::Null));
            }
        }
        self.rows += rows.len();
    }

    /// A copy of this block with every column degraded to the `Any`
    /// representation (the pre-validity-bitmap form): the reference the
    /// typed kernels are tested against.
    pub fn degraded(&self) -> RowBlock {
        RowBlock {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.degraded()))
                .collect(),
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Per-selected-row hash of the listed columns — bit-identical to
    /// calling [`Row::hash_columns`] on each materialized row, computed
    /// column-at-a-time.
    pub fn hash_columns(&self, indices: &[usize]) -> Vec<u64> {
        let mut hs = vec![HASH_COLUMNS_SEED; self.len()];
        for &c in indices {
            self.columns[c].dist_hash_into(&mut hs, self.sel.as_deref());
        }
        hs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample_rows() -> Vec<Row> {
        vec![
            row![1i32, "a", 1.5f64],
            row![2i32, "b", 2.5f64],
            row![3i32, "c", 3.5f64],
            row![4i32, "d", 4.5f64],
        ]
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = sample_rows();
        let b = RowBlock::from_rows(&rows, 3);
        assert_eq!(b.len(), 4);
        assert_eq!(b.width(), 3);
        assert_eq!(b.to_rows(), rows);
        // Null-free monotyped columns pick the typed representation.
        assert!(matches!(b.column(0).data(), ColumnData::Int32(_)));
        assert!(matches!(b.column(1).data(), ColumnData::Str(_)));
        assert!(matches!(b.column(2).data(), ColumnData::Float64(_)));
        assert!(b.column(0).validity().is_none());
    }

    #[test]
    fn nulls_stay_typed_with_validity() {
        let rows = vec![row![1i32], Row::new(vec![Datum::Null]), row![3i32]];
        let b = RowBlock::from_rows(&rows, 1);
        let c = b.column(0);
        assert!(matches!(c.data(), ColumnData::Int32(_)));
        assert!(c.validity().is_some());
        assert!(c.is_valid(0) && !c.is_valid(1) && c.is_valid(2));
        assert_eq!(c.null_count(), 1);
        assert_eq!(b.to_rows(), rows);
        // The dummy slot holds the canonical value.
        let ColumnData::Int32(v) = c.data() else {
            unreachable!()
        };
        assert_eq!(v[1], 0);
    }

    #[test]
    fn leading_nulls_adopt_first_typed_value() {
        let rows = vec![
            Row::new(vec![Datum::Null]),
            Row::new(vec![Datum::Null]),
            row!["x"],
            Row::new(vec![Datum::Null]),
        ];
        let b = RowBlock::from_rows(&rows, 1);
        let c = b.column(0);
        assert!(matches!(c.data(), ColumnData::Str(_)));
        assert_eq!(c.null_count(), 3);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn all_null_columns_stay_any() {
        let c = ColumnVec::from_datums(vec![Datum::Null, Datum::Null]);
        assert!(matches!(c.data(), ColumnData::Any(_)));
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.get(0), Datum::Null);
    }

    #[test]
    fn mixed_types_degrade_to_any() {
        let rows = vec![row![1i32], row![2i64]];
        let b = RowBlock::from_rows(&rows, 1);
        assert!(matches!(b.column(0).data(), ColumnData::Any(_)));
        assert_eq!(b.to_rows(), rows);
        // NULL-then-mixed also degrades, keeping the NULL as a datum.
        let c = ColumnVec::from_datums(vec![Datum::Null, Datum::Int32(1), Datum::str("s")]);
        assert!(matches!(c.data(), ColumnData::Any(_)));
        assert_eq!(c.get(0), Datum::Null);
        assert_eq!(c.get(2), Datum::str("s"));
    }

    #[test]
    fn from_parts_canonicalizes() {
        // All-valid bitmap normalizes away.
        let c = ColumnVec::from_parts(ColumnData::Int64(vec![1, 2]), Some(vec![0b11]));
        assert!(c.validity().is_none());
        // Invalid slots are scrubbed to the dummy value; equality is
        // representation-independent.
        let a = ColumnVec::from_parts(ColumnData::Int64(vec![7, 99]), Some(vec![0b01]));
        let b = ColumnVec::from_parts(ColumnData::Int64(vec![7, 0]), Some(vec![0b01]));
        assert_eq!(a, b);
        assert_eq!(a.get(1), Datum::Null);
        // And matches the push-built column.
        let p = ColumnVec::from_datums(vec![Datum::Int64(7), Datum::Null]);
        assert_eq!(a, p);
    }

    #[test]
    fn selection_filters_to_rows() {
        let rows = sample_rows();
        let b = RowBlock::from_rows(&rows, 3).with_sel(vec![1, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_rows(), vec![rows[1].clone(), rows[3].clone()]);
        let c = b.compact();
        assert_eq!(c.len(), 2);
        assert!(c.sel().is_none());
        assert_eq!(c.to_rows(), b.to_rows());
    }

    #[test]
    fn gather_carries_validity() {
        let c = ColumnVec::from_datums(vec![
            Datum::Int64(1),
            Datum::Null,
            Datum::Int64(3),
            Datum::Null,
        ]);
        let g = c.gather(&[1, 2, 3]);
        assert_eq!(g.get(0), Datum::Null);
        assert_eq!(g.get(1), Datum::Int64(3));
        assert_eq!(g.get(2), Datum::Null);
        assert_eq!(g.null_count(), 2);
        // Gathering only valid slots normalizes back to all-valid.
        let v = c.gather(&[0, 2]);
        assert!(v.validity().is_none());
        assert_eq!(v.get(1), Datum::Int64(3));
    }

    #[test]
    fn extend_gather_merges_validity() {
        let mut a = ColumnVec::from_datums(vec![Datum::Int64(1), Datum::Null]);
        let b = ColumnVec::from_datums(vec![Datum::Int64(3), Datum::Null, Datum::Int64(5)]);
        a.extend_gather(&b, None);
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(1), Datum::Null);
        assert_eq!(a.get(3), Datum::Null);
        assert_eq!(a.get(4), Datum::Int64(5));
        // Null-free extending nullable keeps the bitmap; nullable
        // extending null-free materializes it.
        let mut c = ColumnVec::from_datums(vec![Datum::Int64(9)]);
        c.extend_gather(&b, Some(&[1]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Datum::Int64(9));
        assert_eq!(c.get(1), Datum::Null);
    }

    #[test]
    fn project_shares_columns() {
        let b = RowBlock::from_rows(&sample_rows(), 3);
        let p = b.project(&[2, 0]);
        assert_eq!(p.width(), 2);
        assert_eq!(p.to_rows()[0], row![1.5f64, 1i32]);
        assert!(Arc::ptr_eq(&p.columns()[1], &b.columns()[0]));
    }

    #[test]
    fn concat_preserves_selection_and_types() {
        let rows = sample_rows();
        let a = RowBlock::from_rows(&rows[..2], 3);
        let b = RowBlock::from_rows(&rows[2..], 3).with_sel(vec![1]);
        let c = RowBlock::concat(&[a, b], 3);
        assert_eq!(c.len(), 3);
        assert!(c.sel().is_none());
        assert_eq!(
            c.to_rows(),
            vec![rows[0].clone(), rows[1].clone(), rows[3].clone()]
        );
        assert!(matches!(c.column(0).data(), ColumnData::Int32(_)));
    }

    #[test]
    fn concat_keeps_nullable_columns_typed() {
        let rows1 = vec![row![1i64], Row::new(vec![Datum::Null])];
        let rows2 = vec![Row::new(vec![Datum::Null]), row![4i64]];
        let a = RowBlock::from_rows(&rows1, 1);
        let b = RowBlock::from_rows(&rows2, 1);
        let c = RowBlock::concat(&[a, b], 1);
        assert!(matches!(c.column(0).data(), ColumnData::Int64(_)));
        assert_eq!(c.column(0).null_count(), 2);
        assert_eq!(
            c.to_rows(),
            rows1.iter().chain(&rows2).cloned().collect::<Vec<_>>()
        );
    }

    #[test]
    fn hash_columns_matches_row_hash() {
        let rows = vec![
            row![1i32, "a", 1.5f64],
            Row::new(vec![Datum::Null, Datum::str("b"), Datum::Int64(7)]),
            row![3i64, "c", 3.5f64],
            Row::new(vec![
                Datum::Bool(true),
                Datum::str("d"),
                Datum::Float64(4.0),
            ]),
            Row::new(vec![
                Datum::Date(15_000),
                Datum::str("e"),
                Datum::Float64(-0.25),
            ]),
        ];
        let b = RowBlock::from_rows(&rows, 3);
        for idx in [vec![0usize], vec![2], vec![0, 1, 2], vec![2, 0]] {
            let hs = b.hash_columns(&idx);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(hs[i], r.hash_columns(&idx), "cols {idx:?} row {i}");
            }
        }
        // And under a selection.
        let s = b.clone().with_sel(vec![0, 2, 4]);
        let hs = s.hash_columns(&[0, 2]);
        assert_eq!(hs.len(), 3);
        for (k, &i) in [0usize, 2, 4].iter().enumerate() {
            assert_eq!(hs[k], rows[i].hash_columns(&[0, 2]));
        }
    }

    #[test]
    fn hash_columns_nullable_typed_matches_row_hash() {
        // A typed Int64 column with a validity bitmap must hash NULL
        // slots exactly like the row engine hashes Datum::Null.
        let rows: Vec<Row> = (0..130)
            .map(|i| {
                if i % 7 == 0 {
                    Row::new(vec![Datum::Null, Datum::str("k")])
                } else {
                    row![i as i64, "k"]
                }
            })
            .collect();
        let b = RowBlock::from_rows(&rows, 2);
        assert!(matches!(b.column(0).data(), ColumnData::Int64(_)));
        let hs = b.hash_columns(&[0, 1]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(hs[i], r.hash_columns(&[0, 1]), "row {i}");
        }
    }

    #[test]
    fn truncate_limits_selected_rows() {
        let mut b = RowBlock::from_rows(&sample_rows(), 3);
        b.truncate(2);
        assert_eq!(b.len(), 2);
        let mut s = RowBlock::from_rows(&sample_rows(), 3).with_sel(vec![0, 2, 3]);
        s.truncate(2);
        assert_eq!(s.to_rows().len(), 2);
        assert_eq!(s.to_rows()[1], sample_rows()[2]);
    }

    #[test]
    fn slice_rows_cuts_logical_ranges() {
        let rows = sample_rows();
        let b = RowBlock::from_rows(&rows, 3);
        // Whole-range slice of a dense block stays dense (shared columns).
        let whole = b.slice_rows(0, 4);
        assert!(whole.sel().is_none());
        assert!(Arc::ptr_eq(&whole.columns()[0], &b.columns()[0]));
        let m = b.slice_rows(1, 3);
        assert_eq!(m.to_rows(), vec![rows[1].clone(), rows[2].clone()]);
        assert!(Arc::ptr_eq(&m.columns()[0], &b.columns()[0]));
        // Slicing a filtered block sub-slices its selection.
        let f = b.clone().with_sel(vec![0, 2, 3]);
        let fm = f.slice_rows(1, 3);
        assert_eq!(fm.to_rows(), vec![rows[2].clone(), rows[3].clone()]);
        assert!(fm.slice_rows(0, 0).is_empty());
        // Morsel cuts tile the block: concatenation restores the rows.
        let parts: Vec<RowBlock> = (0..2).map(|k| b.slice_rows(k * 2, k * 2 + 2)).collect();
        let back = RowBlock::concat(&parts, 3);
        assert_eq!(back.to_rows(), rows);
    }

    #[test]
    fn push_keeps_types_and_degrades_on_mix() {
        let mut c = ColumnVec::from_datums(vec![Datum::Int32(1), Datum::Int32(2)]);
        assert!(matches!(c.data(), ColumnData::Int32(_)));
        // A NULL no longer degrades: it sets an invalid dummy slot.
        c.push(Datum::Null);
        assert!(matches!(c.data(), ColumnData::Int32(_)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Datum::Int32(1));
        assert_eq!(c.get(2), Datum::Null);
        // A mismatched runtime type still degrades, NULLs intact.
        c.push(Datum::str("x"));
        assert!(matches!(c.data(), ColumnData::Any(_)));
        assert_eq!(c.get(2), Datum::Null);
        assert_eq!(c.get(3), Datum::str("x"));
        // Empty fallback re-types on first push.
        let mut e = ColumnVec::empty();
        e.push(Datum::str("x"));
        assert!(matches!(e.data(), ColumnData::Str(_)));
    }

    #[test]
    fn degraded_roundtrips_values() {
        let c = ColumnVec::from_datums(vec![Datum::Int64(1), Datum::Null, Datum::Int64(3)]);
        let d = c.degraded();
        assert!(matches!(d.data(), ColumnData::Any(_)));
        for i in 0..3 {
            assert_eq!(c.get(i), d.get(i));
            assert_eq!(c.dist_hash(i), d.dist_hash(i));
        }
    }

    #[test]
    fn validity_spans_word_boundaries() {
        // 200 slots exercises multi-word bitmaps with a ragged tail.
        let datums: Vec<Datum> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Datum::Null
                } else {
                    Datum::Int64(i)
                }
            })
            .collect();
        let c = ColumnVec::from_datums(datums.clone());
        assert!(matches!(c.data(), ColumnData::Int64(_)));
        for (i, d) in datums.iter().enumerate() {
            assert_eq!(&c.get(i), d, "slot {i}");
        }
        assert_eq!(
            c.null_count(),
            datums.iter().filter(|d| d.is_null()).count()
        );
    }
}
