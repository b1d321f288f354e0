//! Typed integer keys, shared by the aggregation kernel
//! (`agg_kernel.rs`) and the block hash join (`block_exec.rs`).
//!
//! * [`BlockCol`] reads one expression over a block column-at-a-time: a
//!   bare column reference borrows the block's column through its
//!   selection, anything else is evaluated strictly.
//! * [`IntSlice`] / [`IntCol`] read an `Int32` / `Int64` / `Date` column
//!   widened to `i64`, and [`IntVar`] remembers which variant it was.
//! * [`TypedIndex`] maps `i64` key tuples to dense key numbers.
//!
//! Widening is bijective with `Datum` equality across the three
//! variants: `Int32(1) = Int64(1) = Date(1)`, all compared as `i64`
//! (`Datum::cmp_non_null`). `Float64` is never widened: `Float64(1.0)`
//! equals `Int64(1)` under `Datum` equality, which no `i64` tuple can
//! express.

use mpp_common::{bitmap_get, ColumnData, ColumnVec, Datum, Result, RowBlock};
use mpp_expr::CompiledExpr;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// One expression over a block: the column, and the selection mapping
/// logical row `k` to its slot (`None` = slot `k`).
pub(crate) struct BlockCol<'a> {
    pub(crate) col: Cow<'a, ColumnVec>,
    pub(crate) sel: Option<&'a [u32]>,
}

impl<'a> BlockCol<'a> {
    /// Evaluate `e` over `b` strictly. A bare column reference borrows
    /// the block's column instead of gathering a copy. An `Err` means
    /// "this block needs row semantics", not necessarily a row error.
    pub(crate) fn eval(e: &CompiledExpr, b: &'a RowBlock) -> Result<BlockCol<'a>> {
        Ok(match e {
            CompiledExpr::Col { pos, .. } if *pos < b.width() => BlockCol {
                col: Cow::Borrowed(b.column(*pos)),
                sel: b.sel(),
            },
            e => BlockCol {
                col: Cow::Owned(e.eval_column_strict(b)?),
                sel: None,
            },
        })
    }

    /// The datum of logical row `k`.
    #[inline]
    pub(crate) fn get(&self, k: usize) -> Datum {
        self.col.get(self.sel.map_or(k, |s| s[k] as usize))
    }
}

/// Which integer column variant backs a typed key or min/max value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum IntVar {
    I32,
    I64,
    Date,
}

impl IntVar {
    pub(crate) fn datum(self, v: i64) -> Datum {
        match self {
            IntVar::I32 => Datum::Int32(v as i32),
            IntVar::I64 => Datum::Int64(v),
            IntVar::Date => Datum::Date(v as i32),
        }
    }
}

/// The values of an integer column, widened on read.
#[derive(Clone, Copy)]
pub(crate) enum IntSlice<'a> {
    I32(&'a [i32]),
    I64(&'a [i64]),
}

impl IntSlice<'_> {
    pub(crate) fn of(col: &ColumnVec) -> Option<(IntVar, IntSlice<'_>)> {
        match col.data() {
            ColumnData::Int32(v) => Some((IntVar::I32, IntSlice::I32(v))),
            ColumnData::Int64(v) => Some((IntVar::I64, IntSlice::I64(v))),
            ColumnData::Date(v) => Some((IntVar::Date, IntSlice::I32(v))),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn at(self, p: usize) -> i64 {
        match self {
            IntSlice::I32(v) => v[p] as i64,
            IntSlice::I64(v) => v[p],
        }
    }
}

/// A [`BlockCol`] of integers read by logical row, widened to `i64`, with
/// NULL slots read as `None`.
#[derive(Clone, Copy)]
pub(crate) struct IntCol<'a> {
    vals: IntSlice<'a>,
    valid: Option<&'a [u64]>,
    sel: Option<&'a [u32]>,
}

impl<'a> IntCol<'a> {
    /// `None` unless `c` is an `Int32` / `Int64` / `Date` column.
    pub(crate) fn of(c: &'a BlockCol<'_>) -> Option<IntCol<'a>> {
        let (_, vals) = IntSlice::of(&c.col)?;
        Some(IntCol {
            vals,
            valid: c.col.validity(),
            sel: c.sel,
        })
    }

    #[inline]
    pub(crate) fn at(self, k: usize) -> Option<i64> {
        let p = self.sel.map_or(k, |s| s[k] as usize);
        match self.valid {
            Some(w) if !bitmap_get(w, p) => None,
            _ => Some(self.vals.at(p)),
        }
    }
}

/// Hash index from a typed key tuple to its key number: open addressing
/// over `(hash tag, key number)` entries, the tuples themselves living in
/// the caller's flat key array (no allocation per key). Keyed SipHash,
/// like `HashMap`: keys are user data.
#[derive(Default)]
pub(crate) struct TypedIndex {
    hasher: RandomState,
    /// Power-of-two table, kept at most half full: the hash's high half
    /// over the key number, or `VACANT`.
    table: Vec<u64>,
    len: usize,
}

const VACANT: u64 = u64::MAX;

impl TypedIndex {
    fn hash(&self, key: &[i64]) -> u64 {
        let mut h = self.hasher.build_hasher();
        for &k in key {
            h.write_i64(k);
        }
        h.finish()
    }

    /// The number of `key` and whether it had to be created — as number
    /// `flat.len() / key.len()`, its key appended to `flat`.
    pub(crate) fn find_or_insert(&mut self, key: &[i64], flat: &mut Vec<i64>) -> (u32, bool) {
        let w = key.len();
        if self.len * 2 >= self.table.len() {
            let mut table = vec![VACANT; (self.table.len() * 2).max(16)];
            for (g, k) in flat.chunks(w).enumerate() {
                let h = self.hash(k);
                let at = Self::probe(&table, h, k, flat);
                table[at] = (h & !0xffff_ffff) | g as u64;
            }
            self.table = table;
        }
        let h = self.hash(key);
        let at = Self::probe(&self.table, h, key, flat);
        if self.table[at] != VACANT {
            return (self.table[at] as u32, false);
        }
        let g = (flat.len() / w) as u32;
        flat.extend_from_slice(key);
        self.table[at] = (h & !0xffff_ffff) | g as u64;
        self.len += 1;
        (g, true)
    }

    /// The number of `key`, if it was inserted.
    pub(crate) fn find(&self, key: &[i64], flat: &[i64]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let at = Self::probe(&self.table, self.hash(key), key, flat);
        (self.table[at] != VACANT).then_some(self.table[at] as u32)
    }

    /// The table position holding `key`'s number, or the vacancy where it
    /// belongs (linear probing; `h` is `key`'s hash).
    fn probe(table: &[u64], h: u64, key: &[i64], flat: &[i64]) -> usize {
        let (w, mask) = (key.len(), table.len() - 1);
        let mut at = h as usize & mask;
        loop {
            let e = table[at];
            if e == VACANT {
                return at;
            }
            if e >> 32 == h >> 32 {
                let stored = &flat[e as u32 as usize * w..][..w];
                if stored.iter().zip(key).all(|(a, b)| a == b) {
                    return at;
                }
            }
            at = (at + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_expr::{compile, ColRef, EvalContext, Expr};
    use std::sync::Arc;

    #[test]
    fn index_numbers_keys_in_insert_order_across_growth() {
        let mut index = TypedIndex::default();
        let mut flat = Vec::new();
        assert_eq!(index.find(&[1, 2], &flat), None, "empty index");
        // Enough keys to grow the table several times; every key is then
        // found under the number it was given, and only those keys are.
        for i in 0..1000i64 {
            assert_eq!(index.find_or_insert(&[i, -i], &mut flat), (i as u32, true));
        }
        for i in 0..1000i64 {
            assert_eq!(index.find_or_insert(&[i, -i], &mut flat), (i as u32, false));
            assert_eq!(index.find(&[i, -i], &flat), Some(i as u32));
            assert_eq!(index.find(&[i, i + 1], &flat), None);
        }
        assert_eq!(flat.len(), 2000);
    }

    #[test]
    fn widened_reads_follow_the_selection_and_skip_nulls() {
        let b = RowBlock::from_columns(
            vec![
                Arc::new(ColumnVec::from_datums(vec![
                    Datum::Date(7),
                    Datum::Null,
                    Datum::Date(-3),
                ])),
                Arc::new(ColumnVec::from_datums(vec![
                    Datum::Float64(1.0),
                    Datum::Float64(2.0),
                    Datum::Float64(3.0),
                ])),
            ],
            3,
        )
        .with_sel(vec![1, 2]);
        let cols = [ColRef::new(1, "d"), ColRef::new(2, "f")];
        let ctx = EvalContext::from_columns(&cols);
        let d = compile(&Expr::col(cols[0].clone()), &ctx);
        let f = compile(&Expr::col(cols[1].clone()), &ctx);

        let dc = BlockCol::eval(&d, &b).unwrap();
        assert!(
            matches!(dc.col, Cow::Borrowed(_)),
            "a bare column is borrowed"
        );
        let ic = IntCol::of(&dc).unwrap();
        assert_eq!((ic.at(0), ic.at(1)), (None, Some(-3)));
        assert_eq!(dc.get(1), Datum::Date(-3));
        // Floats are never widened: `Float64(1.0) = Int64(1)` has no
        // `i64` form.
        assert!(IntCol::of(&BlockCol::eval(&f, &b).unwrap()).is_none());
    }
}
