//! Cardinality estimation.
//!
//! System-R-style estimation upgraded with the statistics ANALYZE
//! collects: equality folds in NDV *and* null fraction (equality never
//! matches NULL), range/BETWEEN/IN predicates consult the column's
//! equi-depth histogram when one exists, and partition-aware paths
//! estimate against the rows of the *surviving* leaf partitions rather
//! than a uniform whole-table fraction. The estimator works with a
//! [`ColumnBinding`] that maps column identities (colref ids) back to
//! base-table columns, which the optimizer builds while walking `Get`
//! nodes — this is what lets a predicate high in the tree find the
//! statistics of the base column it references.

use mpp_catalog::{Catalog, TableStats};
use mpp_common::{Datum, PartOid, TableOid};
use mpp_expr::{CmpOp, Expr};
use std::cell::RefCell;
use std::collections::HashMap;

/// colref id → (base table, column index). Columns produced by projections
/// or aggregates are unbound and fall back to default selectivities.
#[derive(Debug, Clone, Default)]
pub struct ColumnBinding {
    map: HashMap<u32, (TableOid, usize)>,
}

impl ColumnBinding {
    pub fn new() -> ColumnBinding {
        ColumnBinding::default()
    }

    pub fn bind(&mut self, colref_id: u32, table: TableOid, column: usize) {
        self.map.insert(colref_id, (table, column));
    }

    pub fn lookup(&self, colref_id: u32) -> Option<(TableOid, usize)> {
        self.map.get(&colref_id).copied()
    }

    pub fn merge(&mut self, other: &ColumnBinding) {
        self.map.extend(other.map.iter().map(|(k, v)| (*k, *v)));
    }
}

/// Default selectivities when nothing better is known — the classic
/// Selinger constants.
const DEFAULT_EQ_SEL: f64 = 0.005;
const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
const DEFAULT_SEL: f64 = 0.25;

/// The estimator. Caches `TableStats` per table for its lifetime (one
/// optimize call) so histogram lookups don't re-clone catalog state on
/// every predicate.
pub struct CardinalityEstimator<'a> {
    catalog: &'a Catalog,
    binding: &'a ColumnBinding,
    cache: RefCell<HashMap<TableOid, TableStats>>,
}

impl<'a> CardinalityEstimator<'a> {
    pub fn new(catalog: &'a Catalog, binding: &'a ColumnBinding) -> CardinalityEstimator<'a> {
        CardinalityEstimator {
            catalog,
            binding,
            cache: RefCell::new(HashMap::new()),
        }
    }

    fn with_stats<T>(&self, table: TableOid, f: impl FnOnce(&TableStats) -> T) -> T {
        let mut cache = self.cache.borrow_mut();
        let stats = cache
            .entry(table)
            .or_insert_with(|| self.catalog.stats(table));
        f(stats)
    }

    /// (table, column) behind a bare column reference.
    fn col_of(&self, e: &Expr) -> Option<(TableOid, usize)> {
        if let Expr::Col(c) = e {
            self.binding.lookup(c.id)
        } else {
            None
        }
    }

    fn ndv_of(&self, e: &Expr) -> Option<f64> {
        let (table, col) = self.col_of(e)?;
        Some(self.with_stats(table, |s| s.ndv(col)) as f64)
    }

    fn null_frac_of(&self, e: &Expr) -> f64 {
        match self.col_of(e) {
            Some((table, col)) => self.with_stats(table, |s| s.null_frac(col)),
            None => 0.0,
        }
    }

    /// Integer value of a literal, if it is one.
    fn lit_i64(e: &Expr) -> Option<i64> {
        if let Expr::Lit(d) = e {
            match d {
                Datum::Int32(v) => Some(*v as i64),
                Datum::Int64(v) => Some(*v),
                Datum::Date(v) => Some(*v as i64),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Histogram-backed fraction of col's non-null values `op v`, when a
    /// histogram exists.
    fn hist_cmp_frac(&self, col_expr: &Expr, op: CmpOp, v: i64) -> Option<f64> {
        let (table, col) = self.col_of(col_expr)?;
        self.with_stats(table, |s| {
            let cs = s.columns.get(&col)?;
            let h = cs.histogram.as_ref()?;
            let frac = match op {
                CmpOp::Le => h.le_frac(v),
                CmpOp::Lt => h.le_frac(v.saturating_sub(1)),
                CmpOp::Ge => 1.0 - h.le_frac(v.saturating_sub(1)),
                CmpOp::Gt => 1.0 - h.le_frac(v),
                CmpOp::Eq | CmpOp::Ne => return None,
            };
            Some(frac.clamp(0.0, 1.0))
        })
    }

    /// Selectivity of a predicate in `[0, 1]`.
    pub fn selectivity(&self, pred: &Expr) -> f64 {
        let s = match pred {
            Expr::Lit(d) => match d.as_bool() {
                Ok(Some(true)) => 1.0,
                Ok(Some(false)) | Ok(None) => 0.0,
                Err(_) => DEFAULT_SEL,
            },
            // Independence product, clamped: conjunct products must never
            // escape [0, 1] no matter how many terms compound.
            Expr::And(v) => v
                .iter()
                .map(|e| self.selectivity(e))
                .product::<f64>()
                .clamp(0.0, 1.0),
            Expr::Or(v) => {
                // Inclusion-exclusion under independence.
                let mut not_any = 1.0;
                for e in v {
                    not_any *= 1.0 - self.selectivity(e);
                }
                1.0 - not_any
            }
            Expr::Not(e) => 1.0 - self.selectivity(e),
            Expr::Cmp { op, left, right } => self.cmp_selectivity(*op, left, right),
            Expr::Between { expr, low, high } => self.between_selectivity(expr, low, high),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let per = match self.col_of(expr) {
                    Some((t, col)) => self.with_stats(t, |s| s.eq_selectivity(col)),
                    None => DEFAULT_EQ_SEL,
                };
                let s = (per * list.len() as f64).clamp(0.0, 1.0);
                if *negated {
                    // NOT IN also rejects NULLs in the column.
                    (1.0 - s - self.null_frac_of(expr)).clamp(0.0, 1.0)
                } else {
                    s
                }
            }
            Expr::IsNull(e) => {
                if let Some((t, col)) = self.col_of(e) {
                    return self.with_stats(t, |s| {
                        s.columns
                            .get(&col)
                            .map(|cs| cs.null_frac)
                            .unwrap_or(0.01)
                            .clamp(0.0, 1.0)
                    });
                }
                0.01
            }
            _ => DEFAULT_SEL,
        };
        s.clamp(0.0, 1.0)
    }

    fn between_selectivity(&self, expr: &Expr, low: &Expr, high: &Expr) -> f64 {
        // Histogram path: col BETWEEN int AND int.
        if let Some((table, col)) = self.col_of(expr) {
            let lo = Self::lit_i64(low);
            let hi = Self::lit_i64(high);
            if lo.is_some() || hi.is_some() {
                if let Some(s) = self.with_stats(table, |s| {
                    let cs = s.columns.get(&col)?;
                    let h = cs.histogram.as_ref()?;
                    let notnull = 1.0 - s.null_frac(col);
                    Some((h.range_frac(lo, hi) * notnull).clamp(0.0, 1.0))
                }) {
                    return s;
                }
            }
        }
        DEFAULT_RANGE_SEL / 2.0
    }

    fn cmp_selectivity(&self, op: CmpOp, left: &Expr, right: &Expr) -> f64 {
        let l_col = matches!(left, Expr::Col(_));
        let r_col = matches!(right, Expr::Col(_));
        match op {
            CmpOp::Eq => {
                if l_col && r_col {
                    // Join predicate: 1/max(ndv), scaled by both sides'
                    // non-null fractions (NULL joins nothing).
                    let nl = self.ndv_of(left).unwrap_or(1.0 / DEFAULT_EQ_SEL);
                    let nr = self.ndv_of(right).unwrap_or(1.0 / DEFAULT_EQ_SEL);
                    let notnull =
                        (1.0 - self.null_frac_of(left)) * (1.0 - self.null_frac_of(right));
                    notnull / nl.max(nr).max(1.0)
                } else if l_col || r_col {
                    let col = if l_col { left } else { right };
                    match self.col_of(col) {
                        Some((t, c)) => self.with_stats(t, |s| s.eq_selectivity(c)),
                        None => DEFAULT_EQ_SEL,
                    }
                } else {
                    DEFAULT_EQ_SEL
                }
            }
            CmpOp::Ne => (1.0 - self.cmp_selectivity(CmpOp::Eq, left, right)).clamp(0.0, 1.0),
            _ => {
                // Range comparison: histogram when col-vs-int-literal (in
                // either order), Selinger constant otherwise.
                let hist = if l_col {
                    Self::lit_i64(right).and_then(|v| self.hist_cmp_frac(left, op, v))
                } else if r_col {
                    Self::lit_i64(left).and_then(|v| self.hist_cmp_frac(right, op.flip(), v))
                } else {
                    None
                };
                match hist {
                    Some(frac) => {
                        let col = if l_col { left } else { right };
                        (frac * (1.0 - self.null_frac_of(col))).clamp(0.0, 1.0)
                    }
                    None => DEFAULT_RANGE_SEL,
                }
            }
        }
    }

    /// Join output cardinality under the standard independence model.
    pub fn join_cardinality(&self, left_rows: f64, right_rows: f64, pred: &Expr) -> f64 {
        (left_rows * right_rows * self.selectivity(pred)).max(1.0)
    }

    /// Grouped-aggregation output cardinality: product of group-column
    /// NDVs, capped by input.
    pub fn agg_cardinality(&self, input_rows: f64, group_cols: &[mpp_expr::ColRef]) -> f64 {
        if group_cols.is_empty() {
            return 1.0;
        }
        let mut groups = 1.0f64;
        for c in group_cols {
            let ndv = self
                .ndv_of(&Expr::col(c.clone()))
                .unwrap_or((input_rows / 10.0).max(1.0));
            groups *= ndv;
        }
        groups.min(input_rows).max(1.0)
    }

    /// Base-table cardinality.
    pub fn table_cardinality(&self, table: TableOid) -> f64 {
        self.with_stats(table, |s| s.row_count) as f64
    }

    /// Cardinality of the *surviving* partitions of a table after static
    /// elimination: the sum of per-partition row counts when ANALYZE has
    /// collected them, else a uniform `survivors/total` fraction of the
    /// table. This is what makes DynamicScan costs reflect the skew of
    /// what will actually be scanned.
    pub fn partition_cardinality(
        &self,
        table: TableOid,
        surviving: &[PartOid],
        total_parts: usize,
    ) -> f64 {
        self.with_stats(table, |s| match s.rows_in_parts(surviving.iter()) {
            Some(rows) => rows as f64,
            None => {
                let frac = if total_parts == 0 {
                    1.0
                } else {
                    surviving.len() as f64 / total_parts as f64
                };
                s.row_count as f64 * frac.clamp(0.0, 1.0)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_catalog::{ColumnStats, Histogram, TableStats, ValueSample, TABLE_SAMPLE_CAP};
    use mpp_expr::ColRef;

    fn setup() -> (Catalog, ColumnBinding) {
        let cat = Catalog::new();
        let t = TableOid(1);
        cat.set_stats(
            t,
            TableStats::new(10_000)
                .with_column(0, ColumnStats::new(100))
                .with_column(1, ColumnStats::new(10_000)),
        );
        let mut b = ColumnBinding::new();
        b.bind(1, t, 0); // colref 1 → col 0, ndv 100
        b.bind(2, t, 1); // colref 2 → col 1, ndv 10000
        (cat, b)
    }

    fn c(id: u32) -> Expr {
        Expr::col(ColRef::new(id, "c"))
    }

    #[test]
    fn equality_uses_ndv() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let s = est.selectivity(&Expr::eq(c(1), Expr::lit(5i32)));
        assert!((s - 0.01).abs() < 1e-9);
        let s = est.selectivity(&Expr::eq(c(2), Expr::lit(5i32)));
        assert!((s - 0.0001).abs() < 1e-9);
    }

    #[test]
    fn equality_folds_null_frac() {
        let cat = Catalog::new();
        let t = TableOid(1);
        let mut cs = ColumnStats::new(100);
        cs.null_frac = 0.5;
        cat.set_stats(t, TableStats::new(10_000).with_column(0, cs));
        let mut b = ColumnBinding::new();
        b.bind(1, t, 0);
        let est = CardinalityEstimator::new(&cat, &b);
        let s = est.selectivity(&Expr::eq(c(1), Expr::lit(5i32)));
        assert!((s - 0.005).abs() < 1e-9, "0.5 non-null / 100 ndv, got {s}");
    }

    #[test]
    fn join_pred_uses_max_ndv() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let s = est.selectivity(&Expr::eq(c(1), c(2)));
        assert!((s - 1.0 / 10_000.0).abs() < 1e-9);
        let card = est.join_cardinality(10_000.0, 100.0, &Expr::eq(c(1), c(2)));
        assert!((card - 100.0).abs() < 1.0);
    }

    #[test]
    fn and_or_combinators() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let p = Expr::eq(c(1), Expr::lit(5i32));
        let s_and = est.selectivity(&Expr::and(vec![p.clone(), p.clone()]));
        assert!((s_and - 0.0001).abs() < 1e-9);
        let s_or = est.selectivity(&Expr::or(vec![p.clone(), p.clone()]));
        assert!(s_or > 0.01 && s_or < 0.02001);
        let s_not = est.selectivity(&Expr::not(p));
        assert!((s_not - 0.99).abs() < 1e-9);
    }

    #[test]
    fn selectivities_stay_in_unit_interval() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let p = Expr::in_list(c(1), (0..500).map(Expr::lit).collect());
        let s = est.selectivity(&p);
        assert!((0.0..=1.0).contains(&s));
        assert!((s - 1.0).abs() < 1e-9); // 500 values / ndv 100, capped
    }

    #[test]
    fn agg_cardinality_capped_by_input() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let g = est.agg_cardinality(10_000.0, &[ColRef::new(2, "c")]);
        assert!((g - 10_000.0).abs() < 1.0);
        let g = est.agg_cardinality(10_000.0, &[ColRef::new(1, "c")]);
        assert!((g - 100.0).abs() < 1.0);
        assert!((est.agg_cardinality(500.0, &[]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn literal_predicates() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        assert_eq!(est.selectivity(&Expr::lit(true)), 1.0);
        assert_eq!(est.selectivity(&Expr::lit(false)), 0.0);
    }

    /// Stats with a histogram over 0..1000 uniform on column 0.
    fn hist_setup() -> (Catalog, ColumnBinding) {
        let cat = Catalog::new();
        let t = TableOid(1);
        let mut sample = ValueSample::new(TABLE_SAMPLE_CAP);
        for v in 0..1000i64 {
            sample.add(v);
        }
        let hist = Histogram::from_samples([&sample]).unwrap();
        let cs = ColumnStats::new(1000).with_histogram(hist);
        cat.set_stats(t, TableStats::new(1000).with_column(0, cs));
        let mut b = ColumnBinding::new();
        b.bind(1, t, 0);
        (cat, b)
    }

    #[test]
    fn histogram_drives_range_selectivity() {
        let (cat, b) = hist_setup();
        let est = CardinalityEstimator::new(&cat, &b);
        // col < 100 over uniform 0..1000 → ~10%, nothing like the 1/3 default.
        let s = est.selectivity(&Expr::lt(c(1), Expr::lit(100i64)));
        assert!((s - 0.1).abs() < 0.05, "col < 100 → {s}");
        // Flipped literal side: 900 < col → ~10%.
        let s = est.selectivity(&Expr::lt(Expr::lit(900i64), c(1)));
        assert!((s - 0.1).abs() < 0.05, "900 < col → {s}");
        // BETWEEN covers exactly the bucket span.
        let s = est.selectivity(&Expr::Between {
            expr: Box::new(c(1)),
            low: Box::new(Expr::lit(250i64)),
            high: Box::new(Expr::lit(750i64)),
        });
        assert!((s - 0.5).abs() < 0.06, "between 250 and 750 → {s}");
    }

    #[test]
    fn histogram_absent_falls_back_to_default() {
        let (cat, b) = setup();
        let est = CardinalityEstimator::new(&cat, &b);
        let s = est.selectivity(&Expr::lt(c(1), Expr::lit(100i64)));
        assert!((s - DEFAULT_RANGE_SEL).abs() < 1e-9);
    }

    #[test]
    fn partition_cardinality_uses_part_rows() {
        let cat = Catalog::new();
        let t = TableOid(1);
        let mut parts = HashMap::new();
        parts.insert(PartOid(1), 9_000);
        parts.insert(PartOid(2), 500);
        parts.insert(PartOid(3), 500);
        cat.set_stats(t, TableStats::new(10_000).with_part_rows(parts));
        let b = ColumnBinding::new();
        let est = CardinalityEstimator::new(&cat, &b);
        // Surviving the small partitions only: 1000 rows, not 2/3 of the table.
        let survivors = [PartOid(2), PartOid(3)];
        assert!((est.partition_cardinality(t, &survivors, 3) - 1_000.0).abs() < 1e-9);
        // Without part stats: uniform fraction.
        let t2 = TableOid(2);
        cat.set_stats(t2, TableStats::new(9_000));
        assert!((est.partition_cardinality(t2, &survivors, 3) - 6_000.0).abs() < 1e-9);
    }
}
