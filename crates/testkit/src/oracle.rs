//! The deliberately naive single-node reference engine.
//!
//! Every table is a flat `Vec<Row>`; queries interpret the **same bound
//! [`LogicalPlan`]** the real planners consume, with the tree-walking
//! expression interpreter ([`mpp_expr::eval`](fn@mpp_expr::eval)) — no partitions, no
//! motions, no compiled expressions, no vectorization. That makes it an
//! independent ground truth for the compiled/vectorized/distributed
//! engines under test.
//!
//! In addition to result rows the oracle tracks **provenance**: each base
//! row of a partitioned table carries the leaf partition it was routed to
//! (by an independent linear routing over the oracle's own piece model,
//! not the engine's binary-search `PartTree::route`). Provenance flows
//! through filters, joins and aggregates, so after a query the oracle can
//! name exactly which partitions contributed qualifying rows — the set
//! `parts_scanned` must be a superset of (paper §2.3 soundness).

use crate::case::{AlterKind, ColTy, LevelSpec, PredSpec, TableSpec, Val};
use mpp_common::{Datum, Error, Result, Row};
use mpp_expr::{eval, eval_predicate, EvalContext};
use mpp_plan::{AggCall, AggFunc, JoinType, LogicalPlan};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Provenance of one intermediate row: the (table, leaf-partition) pairs
/// whose stored rows contributed to it. Leaf partitions are identified by
/// their dotted name path, keeping the oracle independent of engine OIDs.
pub type Prov = BTreeSet<(String, String)>;

/// Qualifying partitions per table after a query.
pub type Qualifying = BTreeMap<String, BTreeSet<String>>;

/// One piece of one partitioning level in the oracle's own model.
#[derive(Debug, Clone)]
pub enum RefPiece {
    Range { name: String, lo: i64, hi: i64 },
    List { name: String, vals: Vec<String> },
    Default { name: String },
}

impl RefPiece {
    pub fn name(&self) -> &str {
        match self {
            RefPiece::Range { name, .. }
            | RefPiece::List { name, .. }
            | RefPiece::Default { name } => name,
        }
    }

    fn contains(&self, v: &Datum) -> bool {
        match self {
            RefPiece::Range { lo, hi, .. } => match v.as_i64() {
                Ok(x) => *lo <= x && x < *hi,
                Err(_) => false,
            },
            RefPiece::List { vals, .. } => match v.as_str() {
                Ok(s) => vals.iter().any(|x| x == s),
                Err(_) => false,
            },
            RefPiece::Default { .. } => false,
        }
    }
}

/// One live partitioning level (evolves under ALTER).
#[derive(Debug, Clone)]
pub struct RefLevel {
    /// Column index of the key in the table schema.
    pub key_col: usize,
    pub pieces: Vec<RefPiece>,
}

impl RefLevel {
    /// Independent `f_T` for one level: linear scan over the pieces, with
    /// NULL and uncovered values falling to the default piece if any.
    pub fn route(&self, v: &Datum) -> Option<usize> {
        if !v.is_null() {
            if let Some(i) = self.pieces.iter().position(|p| p.contains(v)) {
                return Some(i);
            }
        }
        self.pieces
            .iter()
            .position(|p| matches!(p, RefPiece::Default { .. }))
    }

    pub fn default_index(&self) -> Option<usize> {
        self.pieces
            .iter()
            .position(|p| matches!(p, RefPiece::Default { .. }))
    }
}

/// One oracle table: schema info, live partitioning, and a flat row store.
#[derive(Debug, Clone)]
pub struct RefTable {
    pub name: String,
    pub col_names: Vec<String>,
    pub col_types: Vec<ColTy>,
    pub levels: Vec<RefLevel>,
    /// `(row, leaf name path)`; the path is `None` for unpartitioned
    /// tables.
    pub rows: Vec<(Row, Option<String>)>,
}

impl RefTable {
    fn from_spec(spec: &TableSpec) -> RefTable {
        let levels = spec
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| RefLevel {
                key_col: spec.key_col(i),
                pieces: match l {
                    LevelSpec::Range {
                        start,
                        every,
                        count,
                    } => (0..*count as i64)
                        .map(|p| RefPiece::Range {
                            name: format!("p{p}"),
                            lo: start + every * p,
                            hi: start + every * (p + 1),
                        })
                        .collect(),
                    LevelSpec::List {
                        groups,
                        has_default,
                    } => {
                        let mut pieces: Vec<RefPiece> = groups
                            .iter()
                            .enumerate()
                            .map(|(g, vals)| RefPiece::List {
                                name: format!("l{g}"),
                                vals: vals.clone(),
                            })
                            .collect();
                        if *has_default {
                            pieces.push(RefPiece::Default {
                                name: "ldef".into(),
                            });
                        }
                        pieces
                    }
                },
            })
            .collect();
        RefTable {
            name: spec.name.clone(),
            col_names: spec.col_names(),
            col_types: spec.col_types(),
            levels,
            rows: Vec::new(),
        }
    }

    /// Route a full row to its leaf name path (`None` = unpartitioned;
    /// `Err` = no matching partition).
    pub fn route_row(&self, row: &Row) -> Result<Option<String>> {
        if self.levels.is_empty() {
            return Ok(None);
        }
        let mut parts = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            let v = &row.values()[level.key_col];
            match level.route(v) {
                Some(i) => parts.push(level.pieces[i].name().to_string()),
                None => {
                    return Err(Error::NoMatchingPartition(format!(
                        "value {v} has no partition in table {}",
                        self.name
                    )))
                }
            }
        }
        Ok(Some(parts.join(".")))
    }

    fn datum_row(&self, vals: &[Val]) -> Result<Row> {
        if vals.len() != self.col_types.len() {
            return Err(Error::Bind(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.col_types.len(),
                vals.len()
            )));
        }
        Ok(Row::new(
            vals.iter()
                .zip(&self.col_types)
                .map(|(v, ty)| v.to_datum_for(*ty))
                .collect(),
        ))
    }
}

/// The naive reference database.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    tables: HashMap<String, RefTable>,
}

/// Result of one oracle query.
#[derive(Debug)]
pub struct OracleResult {
    pub rows: Vec<Row>,
    /// Per-table leaf partitions that contributed at least one qualifying
    /// row to the output.
    pub qualifying: Qualifying,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle::default()
    }

    pub fn create_table(&mut self, spec: &TableSpec) -> Result<()> {
        if self.tables.contains_key(&spec.name) {
            return Err(Error::Duplicate(format!("table '{}'", spec.name)));
        }
        self.tables
            .insert(spec.name.clone(), RefTable::from_spec(spec));
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&RefTable> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("table '{name}'")))
    }

    /// Insert rows, routing each to a leaf. All-or-nothing: the first
    /// unroutable row fails the batch with no rows applied (callers keep
    /// hazardous inserts single-row so the engine can't diverge on
    /// partial application).
    pub fn insert(&mut self, table: &str, rows: &[Vec<Val>]) -> Result<()> {
        let t = self.table(table)?;
        let mut staged = Vec::with_capacity(rows.len());
        for vals in rows {
            let row = t.datum_row(vals)?;
            let leaf = t.route_row(&row)?;
            staged.push((row, leaf));
        }
        self.tables.get_mut(table).unwrap().rows.extend(staged);
        Ok(())
    }

    /// Mirror of `ALTER TABLE … ADD/DROP PARTITION` semantics, including
    /// the validation error kinds the engine produces. A successful DROP
    /// removes the piece's rows; surviving rows keep their leaf paths.
    pub fn alter(&mut self, table: &str, kind: &AlterKind) -> Result<()> {
        let t = self.table(table)?;
        if t.levels.is_empty() {
            return Err(Error::InvalidMetadata(format!(
                "table '{table}' is not partitioned"
            )));
        }
        let level0 = &t.levels[0];
        let dup = |name: &str| {
            level0
                .pieces
                .iter()
                .any(|p| p.name().eq_ignore_ascii_case(name))
        };
        match kind {
            AlterKind::AddRange { name, lo, hi } => {
                if dup(name) {
                    return Err(Error::Duplicate(format!("partition '{name}'")));
                }
                if level0.default_index().is_some() {
                    return Err(Error::InvalidMetadata(
                        "cannot add a partition to a level with a default partition".into(),
                    ));
                }
                if lo >= hi {
                    return Err(Error::InvalidMetadata(format!(
                        "partition '{name}' has an empty range"
                    )));
                }
                for p in &level0.pieces {
                    if let RefPiece::Range {
                        lo: plo, hi: phi, ..
                    } = p
                    {
                        if *lo < *phi && *plo < *hi {
                            return Err(Error::InvalidMetadata(format!(
                                "partition '{name}' overlaps '{}'",
                                p.name()
                            )));
                        }
                    }
                }
                self.tables.get_mut(table).unwrap().levels[0]
                    .pieces
                    .push(RefPiece::Range {
                        name: name.clone(),
                        lo: *lo,
                        hi: *hi,
                    });
            }
            AlterKind::AddList { name, vals } => {
                if dup(name) {
                    return Err(Error::Duplicate(format!("partition '{name}'")));
                }
                if level0.default_index().is_some() {
                    return Err(Error::InvalidMetadata(
                        "cannot add a partition to a level with a default partition".into(),
                    ));
                }
                for p in &level0.pieces {
                    if let RefPiece::List { vals: pv, .. } = p {
                        if vals.iter().any(|v| pv.contains(v)) {
                            return Err(Error::InvalidMetadata(format!(
                                "partition '{name}' overlaps '{}'",
                                p.name()
                            )));
                        }
                    }
                }
                self.tables.get_mut(table).unwrap().levels[0]
                    .pieces
                    .push(RefPiece::List {
                        name: name.clone(),
                        vals: vals.clone(),
                    });
            }
            AlterKind::Drop { name } => {
                let i = level0
                    .pieces
                    .iter()
                    .position(|p| p.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| Error::NotFound(format!("partition '{name}'")))?;
                if level0.pieces.len() == 1 {
                    return Err(Error::InvalidMetadata(
                        "cannot drop the last partition".into(),
                    ));
                }
                let t = self.tables.get_mut(table).unwrap();
                let piece_name = t.levels[0].pieces[i].name().to_string();
                t.levels[0].pieces.remove(i);
                t.rows.retain(|(_, leaf)| match leaf {
                    Some(path) => {
                        let head = path.split('.').next().unwrap_or(path);
                        head != piece_name
                    }
                    None => true,
                });
            }
        }
        Ok(())
    }

    /// Execute a bound logical plan against the flat stores. Returns rows
    /// plus the qualifying-partition sets.
    pub fn query(&self, plan: &LogicalPlan, params: &[Datum]) -> Result<OracleResult> {
        let out = self.exec(plan, params)?;
        let mut qualifying: Qualifying = BTreeMap::new();
        let mut rows = Vec::with_capacity(out.rows.len());
        for (row, prov) in out.rows {
            for (table, leaf) in prov {
                qualifying.entry(table).or_default().insert(leaf);
            }
            rows.push(row);
        }
        Ok(OracleResult { rows, qualifying })
    }

    fn exec(&self, plan: &LogicalPlan, params: &[Datum]) -> Result<RSet> {
        match plan {
            LogicalPlan::Get {
                table_name, output, ..
            } => {
                let t = self.table(table_name)?;
                let rows = t
                    .rows
                    .iter()
                    .map(|(row, leaf)| {
                        let prov = match leaf {
                            Some(l) => BTreeSet::from([(t.name.clone(), l.clone())]),
                            None => BTreeSet::new(),
                        };
                        (row.clone(), prov)
                    })
                    .collect();
                Ok(RSet {
                    cols: output.clone(),
                    rows,
                })
            }
            LogicalPlan::Select { pred, child } => {
                let input = self.exec(child, params)?;
                let ctx = EvalContext::from_columns(&input.cols).with_params(params);
                let mut rows = Vec::new();
                for (row, prov) in input.rows {
                    eval_arith_eagerly(pred, &row, &ctx)?;
                    if eval_predicate(pred, &row, &ctx)? {
                        rows.push((row, prov));
                    }
                }
                Ok(RSet {
                    cols: input.cols,
                    rows,
                })
            }
            LogicalPlan::Project {
                exprs,
                output,
                child,
            } => {
                let input = self.exec(child, params)?;
                let ctx = EvalContext::from_columns(&input.cols).with_params(params);
                let mut rows = Vec::with_capacity(input.rows.len());
                for (row, prov) in input.rows {
                    let vals = exprs
                        .iter()
                        .map(|e| eval(e, &row, &ctx))
                        .collect::<Result<Vec<_>>>()?;
                    rows.push((Row::new(vals), prov));
                }
                Ok(RSet {
                    cols: output.clone(),
                    rows,
                })
            }
            LogicalPlan::Join {
                join_type,
                pred,
                left,
                right,
            } => self.exec_join(*join_type, pred, left, right, params),
            LogicalPlan::Agg {
                group_by,
                aggs,
                output,
                child,
            } => self.exec_agg(group_by, aggs, output, child, params),
            LogicalPlan::Values { rows, output } => Ok(RSet {
                cols: output.clone(),
                rows: rows
                    .iter()
                    .map(|r| (Row::new(r.clone()), BTreeSet::new()))
                    .collect(),
            }),
            LogicalPlan::Limit { n, child } => {
                let mut input = self.exec(child, params)?;
                input.rows.truncate(*n as usize);
                Ok(input)
            }
            LogicalPlan::Sort { keys, child } => {
                let input = self.exec(child, params)?;
                let pos: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|(c, desc)| {
                        input
                            .cols
                            .iter()
                            .position(|x| x == c)
                            .map(|i| (i, *desc))
                            .ok_or_else(|| Error::Execution(format!("sort column {c} missing")))
                    })
                    .collect::<Result<_>>()?;
                let mut rows = input.rows;
                rows.sort_by(|(a, _), (b, _)| {
                    for &(i, desc) in &pos {
                        let ord = a.values()[i].cmp(&b.values()[i]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(RSet {
                    cols: input.cols,
                    rows,
                })
            }
            LogicalPlan::Update { .. }
            | LogicalPlan::Delete { .. }
            | LogicalPlan::Insert { .. } => Err(Error::Unsupported(
                "the oracle interprets queries only; apply DML structurally".into(),
            )),
        }
    }

    fn exec_join(
        &self,
        join_type: JoinType,
        pred: &mpp_expr::Expr,
        left: &LogicalPlan,
        right: &LogicalPlan,
        params: &[Datum],
    ) -> Result<RSet> {
        let l = self.exec(left, params)?;
        let r = self.exec(right, params)?;
        let mut cols = l.cols.clone();
        cols.extend(r.cols.iter().cloned());
        let ctx = EvalContext::from_columns(&cols).with_params(params);
        let out_cols = match join_type {
            JoinType::Inner | JoinType::LeftOuter => cols.clone(),
            JoinType::LeftSemi | JoinType::LeftAnti => l.cols.clone(),
        };
        let right_arity = r.cols.len();
        let mut rows = Vec::new();
        for (lrow, lprov) in &l.rows {
            let mut matched = false;
            for (rrow, rprov) in &r.rows {
                let joined = lrow.concat(rrow);
                eval_arith_eagerly(pred, &joined, &ctx)?;
                if eval_predicate(pred, &joined, &ctx)? {
                    matched = true;
                    match join_type {
                        JoinType::Inner | JoinType::LeftOuter => {
                            let mut prov = lprov.clone();
                            prov.extend(rprov.iter().cloned());
                            rows.push((joined, prov));
                        }
                        JoinType::LeftSemi => {
                            rows.push((lrow.clone(), lprov.clone()));
                            break;
                        }
                        JoinType::LeftAnti => break,
                    }
                }
            }
            if !matched {
                match join_type {
                    JoinType::LeftOuter => {
                        let mut vals = lrow.values().to_vec();
                        vals.extend(std::iter::repeat_n(Datum::Null, right_arity));
                        rows.push((Row::new(vals), lprov.clone()));
                    }
                    JoinType::LeftAnti => rows.push((lrow.clone(), lprov.clone())),
                    _ => {}
                }
            }
        }
        Ok(RSet {
            cols: out_cols,
            rows,
        })
    }

    fn exec_agg(
        &self,
        group_by: &[mpp_expr::ColRef],
        aggs: &[AggCall],
        output: &[mpp_expr::ColRef],
        child: &LogicalPlan,
        params: &[Datum],
    ) -> Result<RSet> {
        let input = self.exec(child, params)?;
        let ctx = EvalContext::from_columns(&input.cols).with_params(params);
        let positions: Vec<usize> = group_by
            .iter()
            .map(|c| {
                input
                    .cols
                    .iter()
                    .position(|x| x == c)
                    .ok_or_else(|| Error::Execution(format!("group column {c} missing")))
            })
            .collect::<Result<_>>()?;
        // Groups in first-seen order, mirroring the engine's AggExec.
        let mut index: HashMap<Vec<Datum>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Datum>, Vec<NaiveAcc>, Prov)> = Vec::new();
        for (row, prov) in &input.rows {
            let key: Vec<Datum> = positions.iter().map(|&i| row.values()[i].clone()).collect();
            let slot = match index.get(&key) {
                Some(&s) => s,
                None => {
                    let s = groups.len();
                    index.insert(key.clone(), s);
                    groups.push((key, vec![NaiveAcc::default(); aggs.len()], BTreeSet::new()));
                    s
                }
            };
            let (_, accs, gprov) = &mut groups[slot];
            gprov.extend(prov.iter().cloned());
            for (acc, call) in accs.iter_mut().zip(aggs) {
                let v = match &call.arg {
                    None => None,
                    Some(e) => Some(eval(e, row, &ctx)?),
                };
                acc.observe(v)?;
            }
        }
        if groups.is_empty() && positions.is_empty() {
            // Scalar aggregate over empty input: one default row.
            let vals: Vec<Datum> = aggs
                .iter()
                .map(|call| match call.func {
                    AggFunc::Count => Datum::Int64(0),
                    _ => Datum::Null,
                })
                .collect();
            return Ok(RSet {
                cols: output.to_vec(),
                rows: vec![(Row::new(vals), BTreeSet::new())],
            });
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, accs, prov) in groups {
            let mut vals = key;
            for (acc, call) in accs.iter().zip(aggs) {
                vals.push(acc.finalize(call)?);
            }
            rows.push((Row::new(vals), prov));
        }
        Ok(RSet {
            cols: output.to_vec(),
            rows,
        })
    }
}

struct RSet {
    cols: Vec<mpp_expr::ColRef>,
    rows: Vec<(Row, Prov)>,
}

/// Naive aggregate accumulator, mirroring the engine's SQL semantics
/// (NULLs skipped, COUNT(*) counts rows, int SUM overflow is an
/// arithmetic error, AVG is a float).
#[derive(Debug, Clone, Default)]
struct NaiveAcc {
    count: i64,
    non_null: i64,
    sum_i: Option<i64>,
    sum_f: f64,
    sum_is_float: bool,
    min: Option<Datum>,
    max: Option<Datum>,
}

impl NaiveAcc {
    fn observe(&mut self, v: Option<Datum>) -> Result<()> {
        self.count += 1;
        let Some(v) = v else { return Ok(()) };
        if v.is_null() {
            return Ok(());
        }
        self.non_null += 1;
        match &v {
            Datum::Float64(f) => {
                self.sum_is_float = true;
                self.sum_f += f;
            }
            Datum::Int32(_) | Datum::Int64(_) | Datum::Date(_) => {
                let i = v.as_i64()?;
                self.sum_i = Some(
                    self.sum_i
                        .unwrap_or(0)
                        .checked_add(i)
                        .ok_or_else(|| Error::Arithmetic("sum overflow".into()))?,
                );
                self.sum_f += i as f64;
            }
            _ => {}
        }
        match &self.min {
            Some(m) if &v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if &v <= m => {}
            _ => self.max = Some(v),
        }
        Ok(())
    }

    fn finalize(&self, call: &AggCall) -> Result<Datum> {
        Ok(match call.func {
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
                    Datum::Int64(self.sum_i.unwrap_or(0))
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Datum::Null
                } else {
                    Datum::Float64(self.sum_f / self.non_null as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
        })
    }
}

/// Evaluate a [`PredSpec`] over a partial assignment of columns (3VL:
/// `None` = unknown). Used by the static upper-bound computation, where
/// only partition-key columns are bound.
/// Evaluate every arithmetic subexpression of `expr` against `row`, eagerly,
/// surfacing any runtime error (division by zero) before the short-circuiting
/// [`eval_predicate`] runs. The engines may push a single-table conjunct below
/// a join and hit the division on rows the oracle's nested-loop join would
/// short-circuit past; SQL leaves the evaluation order unspecified, so the
/// oracle errs whenever *any* order could. The harness treats
/// oracle-errors-engine-succeeds as a pass for arithmetic kinds (sound
/// pruning legitimately skips erroring rows), so eagerness never causes a
/// spurious failure — it only makes engine-errors-oracle-succeeds a true bug.
fn eval_arith_eagerly(expr: &mpp_expr::Expr, row: &Row, ctx: &EvalContext) -> Result<()> {
    use mpp_expr::Expr as E;
    match expr {
        E::Col(_) | E::Lit(_) | E::Param(_) => Ok(()),
        E::Arith { left, right, .. } => {
            eval_arith_eagerly(left, row, ctx)?;
            eval_arith_eagerly(right, row, ctx)?;
            eval(expr, row, ctx).map(|_| ())
        }
        E::Cmp { left, right, .. } => {
            eval_arith_eagerly(left, row, ctx)?;
            eval_arith_eagerly(right, row, ctx)
        }
        E::And(es) | E::Or(es) => {
            for e in es {
                eval_arith_eagerly(e, row, ctx)?;
            }
            Ok(())
        }
        E::Not(e) | E::IsNull(e) => eval_arith_eagerly(e, row, ctx),
        E::Between { expr, low, high } => {
            eval_arith_eagerly(expr, row, ctx)?;
            eval_arith_eagerly(low, row, ctx)?;
            eval_arith_eagerly(high, row, ctx)
        }
        E::InList { expr, list, .. } => {
            eval_arith_eagerly(expr, row, ctx)?;
            for e in list {
                eval_arith_eagerly(e, row, ctx)?;
            }
            Ok(())
        }
    }
}

pub fn eval_pred_spec(
    pred: &PredSpec,
    lookup: &dyn Fn(&crate::case::ColId) -> Option<Datum>,
    params: &[Val],
) -> Option<bool> {
    use crate::case::Operand;
    let operand = |o: &Operand| -> Option<Datum> {
        match o {
            Operand::Lit(v) => Some(v.to_datum()),
            Operand::Param(n) => params.get((*n - 1) as usize).map(Val::to_datum),
        }
    };
    let cmp3 = |a: &Datum, b: &Datum, op: &str| -> Option<bool> {
        let ord = a.sql_cmp(b).ok()??;
        Some(match op {
            "=" => ord == std::cmp::Ordering::Equal,
            "<>" => ord != std::cmp::Ordering::Equal,
            "<" => ord == std::cmp::Ordering::Less,
            "<=" => ord != std::cmp::Ordering::Greater,
            ">" => ord == std::cmp::Ordering::Greater,
            ">=" => ord != std::cmp::Ordering::Less,
            _ => return None,
        })
    };
    match pred {
        PredSpec::Cmp { col, op, rhs } => {
            let l = lookup(col)?;
            let r = operand(rhs)?;
            if l.is_null() || r.is_null() {
                return None;
            }
            cmp3(&l, &r, op)
        }
        PredSpec::Between {
            col,
            lo,
            hi,
            negated,
        } => {
            let v = lookup(col)?;
            let lo = operand(lo)?;
            let hi = operand(hi)?;
            let ge = cmp3(&v, &lo, ">=");
            let le = cmp3(&v, &hi, "<=");
            let b = match (ge, le) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            };
            b.map(|x| x != *negated)
        }
        PredSpec::InList {
            col,
            items,
            negated,
        } => {
            let v = lookup(col)?;
            if v.is_null() {
                return None;
            }
            let mut saw_null = false;
            for item in items {
                let iv = item.to_datum();
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if matches!(v.sql_cmp(&iv), Ok(Some(std::cmp::Ordering::Equal))) {
                    return Some(!*negated);
                }
            }
            if saw_null {
                None
            } else {
                Some(*negated)
            }
        }
        PredSpec::IsNull { col, negated } => {
            let v = lookup(col)?;
            Some(v.is_null() != *negated)
        }
        PredSpec::ColCmp { left, op, right } => {
            let l = lookup(left)?;
            let r = lookup(right)?;
            if l.is_null() || r.is_null() {
                return None;
            }
            cmp3(&l, &r, op)
        }
        PredSpec::DivCmp { num, den, rhs } => {
            let d = lookup(den)?;
            if d.is_null() {
                return None;
            }
            let d = d.as_i64().ok()?;
            if d == 0 {
                return None; // the real engines error; unreachable for key-only preds
            }
            Some(num / d == *rhs)
        }
        PredSpec::And(ps) => {
            let mut saw_unknown = false;
            for p in ps {
                match eval_pred_spec(p, lookup, params) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => saw_unknown = true,
                }
            }
            if saw_unknown {
                None
            } else {
                Some(true)
            }
        }
        PredSpec::Or(ps) => {
            let mut saw_unknown = false;
            for p in ps {
                match eval_pred_spec(p, lookup, params) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => saw_unknown = true,
                }
            }
            if saw_unknown {
                None
            } else {
                Some(false)
            }
        }
        PredSpec::Not(p) => eval_pred_spec(p, lookup, params).map(|b| !b),
    }
}

/// Independent f*_T upper bound for a static-prunable single-table query.
///
/// The engines derive one `DerivedSet` per partitioning level and select
/// the Cartesian product of the per-level piece selections (the paper's
/// Figure 10 multi-level generalization). A predicate like
/// `k1 IN (...) OR k2 IN (...)` therefore constrains *neither* level in
/// isolation — the per-level representation cannot express cross-level
/// disjunctions — and a correct engine scans every leaf. The bound here
/// mirrors that: per level, keep each piece for which some
/// boundary-adjacent candidate value routed to it leaves the predicate
/// not-definitely-false under 3VL with every other column unknown, then
/// take the product. Per level this is exact for the predicate forms the
/// generator tags static, so an engine scanning outside the bound failed
/// to apply a per-level elimination it had enough information to make.
pub fn static_upper_bound(
    table: &RefTable,
    table_idx: usize,
    pred: &PredSpec,
    params: &[Val],
) -> BTreeSet<String> {
    // The engines derive intervals over an abstract *dense* ordered domain:
    // `k1 > 24` intersected with piece [20,25) leaves (24,25), which is
    // non-empty there even though no integer inhabits it, so keeping the
    // piece is correct per-level behavior, not a missed elimination. Model
    // the dense domain by doubling every integer — piece bounds, predicate
    // literals, parameters — so odd scaled values stand for the midpoints a
    // dense domain contains. (DivCmp does not survive scaling, but the
    // generator never tags a DivCmp predicate static.)
    let pred = &scale_pred(pred);
    let params: &[Val] = &params.iter().map(scale_val).collect::<Vec<_>>();
    let levels: Vec<RefLevel> = table.levels.iter().map(scale_level).collect();

    // Candidate key values per level: piece boundaries ±1 (ints) or piece
    // values (strings), predicate literals ±1, an uncovered sentinel, and
    // NULL (routes to the default piece; predicates reject it unless they
    // are satisfied by unknown — they are not, under eval_predicate).
    let mut grids: Vec<Vec<Datum>> = Vec::with_capacity(levels.len());
    let mut lits: Vec<Val> = Vec::new();
    collect_literals(pred, params, &mut lits);
    for level in &levels {
        let mut grid: Vec<Datum> = vec![Datum::Null];
        let mut ints: Vec<i64> = Vec::new();
        let mut strs: Vec<String> = Vec::new();
        for p in &level.pieces {
            match p {
                RefPiece::Range { lo, hi, .. } => {
                    ints.extend([*lo - 1, *lo, *hi - 1, *hi]);
                }
                RefPiece::List { vals, .. } => strs.extend(vals.iter().cloned()),
                RefPiece::Default { .. } => {}
            }
        }
        for lit in &lits {
            match lit {
                Val::Int(v) => ints.extend([*v - 1, *v, *v + 1]),
                Val::Str(s) => strs.push(s.clone()),
                Val::Null => {}
            }
        }
        strs.push("~~uncovered~~".into());
        ints.sort_unstable();
        ints.dedup();
        strs.sort();
        strs.dedup();
        grid.extend(ints.into_iter().map(Datum::Int64));
        grid.extend(strs.into_iter().map(|s| Datum::str(s.as_str())));
        grids.push(grid);
    }

    // Per-level projection: a piece survives if some candidate value that
    // routes to it leaves the predicate not-definitely-false when every
    // other column is unknown.
    let mut selected: Vec<Vec<String>> = Vec::with_capacity(levels.len());
    for (li, level) in levels.iter().enumerate() {
        let mut keep: BTreeSet<usize> = BTreeSet::new();
        for v in &grids[li] {
            let Some(pi) = level.route(v) else { continue };
            if keep.contains(&pi) {
                continue;
            }
            let key_name = table.col_names[level.key_col].as_str();
            let lookup = |c: &crate::case::ColId| -> Option<Datum> {
                if c.table == table_idx && c.col == key_name {
                    Some(v.clone())
                } else {
                    None
                }
            };
            if eval_pred_spec(pred, &lookup, params) != Some(false) {
                keep.insert(pi);
            }
        }
        selected.push(
            keep.into_iter()
                .map(|i| level.pieces[i].name().to_string())
                .collect(),
        );
    }

    let mut out = BTreeSet::new();
    let mut path: Vec<String> = Vec::with_capacity(selected.len());
    product_paths(&selected, 0, &mut path, &mut out);
    out
}

fn scale_val(v: &Val) -> Val {
    match v {
        Val::Int(i) => Val::Int(i * 2),
        other => other.clone(),
    }
}

fn scale_operand(o: &crate::case::Operand) -> crate::case::Operand {
    use crate::case::Operand;
    match o {
        Operand::Lit(v) => Operand::Lit(scale_val(v)),
        p => p.clone(),
    }
}

/// Double every integer literal so the predicate lives in the same scaled
/// domain as [`scale_level`] pieces. `DivCmp` is left alone — integer
/// division does not scale — which is fine because the generator never tags
/// a predicate containing one as static.
fn scale_pred(p: &PredSpec) -> PredSpec {
    match p {
        PredSpec::Cmp { col, op, rhs } => PredSpec::Cmp {
            col: col.clone(),
            op: op.clone(),
            rhs: scale_operand(rhs),
        },
        PredSpec::Between {
            col,
            lo,
            hi,
            negated,
        } => PredSpec::Between {
            col: col.clone(),
            lo: scale_operand(lo),
            hi: scale_operand(hi),
            negated: *negated,
        },
        PredSpec::InList {
            col,
            items,
            negated,
        } => PredSpec::InList {
            col: col.clone(),
            items: items.iter().map(scale_val).collect(),
            negated: *negated,
        },
        PredSpec::And(ps) => PredSpec::And(ps.iter().map(scale_pred).collect()),
        PredSpec::Or(ps) => PredSpec::Or(ps.iter().map(scale_pred).collect()),
        PredSpec::Not(inner) => PredSpec::Not(Box::new(scale_pred(inner))),
        PredSpec::IsNull { .. } | PredSpec::ColCmp { .. } | PredSpec::DivCmp { .. } => p.clone(),
    }
}

fn scale_level(l: &RefLevel) -> RefLevel {
    RefLevel {
        key_col: l.key_col,
        pieces: l
            .pieces
            .iter()
            .map(|p| match p {
                RefPiece::Range { name, lo, hi } => RefPiece::Range {
                    name: name.clone(),
                    lo: lo * 2,
                    hi: hi * 2,
                },
                other => other.clone(),
            })
            .collect(),
    }
}

fn product_paths(
    selected: &[Vec<String>],
    level: usize,
    path: &mut Vec<String>,
    out: &mut BTreeSet<String>,
) {
    if level == selected.len() {
        out.insert(path.join("."));
        return;
    }
    for name in &selected[level] {
        path.push(name.clone());
        product_paths(selected, level + 1, path, out);
        path.pop();
    }
}

fn collect_literals(pred: &PredSpec, params: &[Val], out: &mut Vec<Val>) {
    use crate::case::Operand;
    let operand = |o: &Operand, out: &mut Vec<Val>| match o {
        Operand::Lit(v) => out.push(v.clone()),
        Operand::Param(n) => {
            if let Some(v) = params.get((*n - 1) as usize) {
                out.push(v.clone());
            }
        }
    };
    match pred {
        PredSpec::Cmp { rhs, .. } => operand(rhs, out),
        PredSpec::Between { lo, hi, .. } => {
            operand(lo, out);
            operand(hi, out);
        }
        PredSpec::InList { items, .. } => out.extend(items.iter().cloned()),
        PredSpec::IsNull { .. } | PredSpec::ColCmp { .. } => {}
        PredSpec::DivCmp { num, rhs, .. } => out.extend([Val::Int(*num), Val::Int(*rhs)]),
        PredSpec::And(ps) | PredSpec::Or(ps) => {
            for p in ps {
                collect_literals(p, params, out);
            }
        }
        PredSpec::Not(p) => collect_literals(p, params, out),
    }
}
