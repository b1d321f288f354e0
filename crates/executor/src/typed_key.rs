//! Typed integer keys, shared by the aggregation kernel
//! (`agg_kernel.rs`) and the block hash join (`block_exec.rs`).
//!
//! * [`BlockCol`] reads one expression over a block column-at-a-time: a
//!   bare column reference borrows the block's column through its
//!   selection, anything else is evaluated strictly.
//! * [`IntSlice`] / [`IntCol`] read an `Int32` / `Int64` / `Date` column
//!   widened to `i64`, and [`IntVar`] remembers which variant it was.
//! * [`TypedIndex`] maps `i64` key tuples to dense key numbers: through a
//!   direct-mapped array while keys are one column over a narrow range,
//!   through keyed SipHash otherwise.
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

/// Index from a typed key tuple to its key number, in one of two forms.
///
/// * **Dense** while keys have one column and the array covering them
///   fits [`dense_bound`]: `slots[v - base]` holds key `v`'s number + 1
///   (0 = absent). Star-schema surrogate keys (`d_id`, `i_id`, `c_id`)
///   are dense ranges, so joins and groups on them never hash.
/// * **Hashed** from the first key that does not fit, for good: open
///   addressing over `(hash tag, key number)` entries, the tuples
///   themselves living in the caller's flat key array (no allocation per
///   key). Keyed SipHash, like `HashMap`: keys are user data.
///
/// Both forms number keys `0, 1, 2, …` in first-insert order, so the
/// form never shows in a result. Adversarial keys either fit the bounded
/// array (at most 64 B per distinct key above a 16 KiB floor) or go to
/// keyed SipHash: crafted keys can neither inflate memory nor force
/// collisions.
pub(crate) struct TypedIndex {
    /// `Some` while the index is dense.
    dense: Option<Dense>,
    hasher: RandomState,
    /// Power-of-two table, kept at most half full: the hash's high half
    /// over the key number, or `VACANT`. Empty while dense.
    table: Vec<u64>,
    /// Keys inserted, in either form.
    len: usize,
}

const VACANT: u64 = u64::MAX;

/// The most slots the dense form may hold for `keys` distinct keys:
/// 4-byte slots, so at most 64 B per key above a 16 KiB floor.
fn dense_bound(keys: usize) -> i128 {
    (16 * keys as i128).max(4096)
}

/// The dense form: one-column key `v` at `slots[v - base]`; the keys
/// held span `lo..=hi`.
#[derive(Default)]
struct Dense {
    base: i64,
    slots: Vec<u32>,
    lo: i64,
    hi: i64,
}

impl Dense {
    /// `v`'s slot, if the array covers it.
    #[inline]
    fn at(&self, v: i64) -> Option<usize> {
        // `v < base` wraps to at least 2^63, past any array length.
        let i = v.wrapping_sub(self.base) as u64;
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// Reallocate the array to cover `v` as well, for an index about to
    /// hold `keys` keys, and return `v`'s slot; `None` when the span would
    /// pass [`dense_bound`]. The array doubles, or grows to the span if
    /// that is more, every new slot toward `v`. Where the bound caps the
    /// growth below half the array's size, the keys are instead centred
    /// in an array of at least twice their span, or the index goes
    /// hashed. Either way a key costs amortized O(1) copying.
    fn grow_to(&mut self, v: i64, keys: usize) -> Option<usize> {
        let (old, w) = (self.slots.len() as i128, v as i128);
        let (lo, hi) = if old == 0 {
            (w, w)
        } else {
            (w.min(self.lo as i128), w.max(self.hi as i128))
        };
        let span = hi - lo + 1;
        let size = span.max(2 * old).min(dense_bound(keys));
        let base = if size < span {
            return None;
        } else if size >= old + old / 2 {
            if w == lo {
                hi - size + 1
            } else {
                lo
            }
        } else if size >= 2 * span {
            lo - (size - span) / 2
        } else {
            return None;
        };
        // Clamp to `i64`: the array still covers `lo..=hi`.
        let base = base.max(i64::MIN as i128);
        let size = size.min(i64::MAX as i128 - base + 1);
        let mut slots = vec![0u32; size as usize];
        if old > 0 {
            let held = (self.lo - self.base) as usize..=(self.hi - self.base) as usize;
            let at = (self.lo as i128 - base) as usize;
            slots[at..=at + (self.hi - self.lo) as usize].copy_from_slice(&self.slots[held]);
        }
        (self.base, self.slots, self.lo, self.hi) = (base as i64, slots, lo as i64, hi as i64);
        self.at(v)
    }
}

impl Default for TypedIndex {
    fn default() -> TypedIndex {
        TypedIndex {
            dense: Some(Dense::default()),
            hasher: RandomState::new(),
            table: Vec::new(),
            len: 0,
        }
    }
}

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
        if let Some(d) = &mut self.dense {
            if let [v] = *key {
                if let Some(i) = d.at(v).or_else(|| d.grow_to(v, self.len + 1)) {
                    let slot = &mut d.slots[i];
                    if *slot != 0 {
                        return (*slot - 1, false);
                    }
                    let g = flat.len() as u32;
                    flat.push(v);
                    *slot = g + 1;
                    (d.lo, d.hi) = (d.lo.min(v), d.hi.max(v));
                    self.len += 1;
                    return (g, true);
                }
            }
            // Out of bounds, or a multi-column key: hashed from here on.
            self.dense = None;
            self.rehash(key.len(), flat);
        }
        let w = key.len();
        if self.len * 2 >= self.table.len() {
            self.rehash(w, flat);
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

    /// Re-insert every key of `flat` (width `w`) into a hash table with
    /// room for twice as many.
    fn rehash(&mut self, w: usize, flat: &[i64]) {
        let mut table = vec![VACANT; (4 * self.len).next_power_of_two().max(16)];
        for (g, k) in flat.chunks(w).enumerate() {
            let h = self.hash(k);
            let at = Self::probe(&table, h, k, flat);
            table[at] = (h & !0xffff_ffff) | g as u64;
        }
        self.table = table;
    }

    /// The number of `key`, if it was inserted.
    #[inline]
    pub(crate) fn find(&self, key: &[i64], flat: &[i64]) -> Option<u32> {
        if let Some(d) = &self.dense {
            return match *key {
                [v] => d.at(v).and_then(|i| d.slots[i].checked_sub(1)),
                _ => None,
            };
        }
        if self.len == 0 {
            return None;
        }
        let at = Self::probe(&self.table, self.hash(key), key, flat);
        (self.table[at] != VACANT).then_some(self.table[at] as u32)
    }

    /// Whether the index is still in its dense form.
    #[cfg(test)]
    fn is_dense(&self) -> bool {
        self.dense.is_some()
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
    use std::collections::hash_map::Entry;
    use std::collections::{BTreeSet, HashMap};
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

    /// Splitmix64: a fixed pseudo-random stream for key draws.
    fn draws(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Insert `keys` in order into a fresh index and a `HashMap`
    /// reference; both must number every key alike, find exactly the
    /// inserted keys, and the dense array must stay within its bound.
    fn agrees_with_reference(keys: &[i64]) -> TypedIndex {
        let mut index = TypedIndex::default();
        let mut flat = Vec::new();
        let mut reference: HashMap<i64, u32> = HashMap::new();
        for &v in keys {
            let n = reference.len() as u32;
            let want = match reference.entry(v) {
                Entry::Occupied(e) => (*e.get(), false),
                Entry::Vacant(e) => (*e.insert(n), true),
            };
            assert_eq!(index.find_or_insert(&[v], &mut flat), want, "insert {v}");
            if let Some(d) = &index.dense {
                assert!(d.slots.len() as i128 <= dense_bound(reference.len()));
            }
        }
        assert_eq!(flat.len(), reference.len());
        let mut probes: Vec<i64> = keys
            .iter()
            .flat_map(|&v| [v, v.saturating_sub(1), v.saturating_add(1)])
            .collect();
        if let Some(d) = &index.dense {
            // Just outside both ends of the array, and its last slot.
            let end = d.base.saturating_add(d.slots.len() as i64);
            probes.extend([d.base.saturating_sub(1), end, end.saturating_sub(1)]);
        }
        probes.extend([i64::MIN, i64::MAX, 0]);
        for v in probes {
            assert_eq!(
                index.find(&[v], &flat),
                reference.get(&v).copied(),
                "find {v}"
            );
        }
        index
    }

    #[test]
    fn dense_and_hashed_forms_number_keys_like_a_hash_map() {
        let mut next = draws(7);
        let ascending: Vec<i64> = (1..=3000).collect();
        let descending: Vec<i64> = (1..=3000).rev().collect();
        let mut shuffled: Vec<i64> = (-1000..1000).collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, next() as usize % (i + 1));
        }
        let negative: Vec<i64> = (0..500).map(|_| -((next() % 700) as i64) - 40).collect();
        // Dense for the first half, then a key past the bound midway.
        let crossing: Vec<i64> = (0..400)
            .chain([10_000_000])
            .chain((0..400).map(|_| (next() % 800) as i64))
            .collect();
        for keys in [&ascending, &descending, &shuffled, &negative] {
            assert!(agrees_with_reference(keys).is_dense());
        }
        assert!(!agrees_with_reference(&crossing).is_dense());
        for keys in [
            vec![i64::MIN, i64::MAX, i64::MIN, 0, i64::MAX],
            vec![i64::MAX, i64::MAX - 1, i64::MAX - 7, i64::MAX],
            vec![i64::MIN + 2, i64::MIN, i64::MIN + 9, i64::MIN],
        ] {
            agrees_with_reference(&keys);
        }
    }

    #[test]
    fn descending_surrogate_keys_stay_dense_and_wide_spans_hash() {
        // A filtered dimension's keys, built back to front as `Chains`
        // does: growing toward each new key keeps the array near the span.
        let mut next = draws(11);
        let mut keys = BTreeSet::new();
        while keys.len() < 319 {
            keys.insert(1 + (next() % 2000) as i64);
        }
        let keys: Vec<i64> = keys.into_iter().rev().collect();
        assert!(agrees_with_reference(&keys).is_dense());
        let (mut index, mut flat) = (TypedIndex::default(), Vec::new());
        for &v in &keys {
            index.find_or_insert(&[v], &mut flat);
            let d = index.dense.as_ref().expect("dense");
            assert!(
                d.slots.len() < 2 * (d.hi - d.lo + 1) as usize,
                "{} slots for keys {}..={}",
                d.slots.len(),
                d.lo,
                d.hi
            );
        }
        // Two keys: a span of 4096 fits the 4096-slot floor, 4097 does not.
        assert!(agrees_with_reference(&[0, 4095]).is_dense());
        assert!(!agrees_with_reference(&[0, 4096]).is_dense());
        assert!(!agrees_with_reference(&[i64::MIN, i64::MAX]).is_dense());
        // Multi-column keys are always hashed.
        let mut index = TypedIndex::default();
        index.find_or_insert(&[1, 2], &mut Vec::new());
        assert!(!index.is_dense());
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
