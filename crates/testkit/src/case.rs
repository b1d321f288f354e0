//! The serializable unit of differential testing: one [`Case`] bundles a
//! schema (tables with range/list partitioning), data, and a sequence of
//! actions (queries, inserts, ALTER TABLE, ANALYZE) to run in order.
//!
//! Cases are structured — predicates are trees, not SQL strings — so the
//! shrinker can delete conjuncts, rows and partitions mechanically. SQL
//! is rendered on demand via [`QuerySpec::sql`] and friends.

use crate::sexp::Sexp;
use mpp_common::{Datum, Error, Result};
use std::fmt::Write as _;

/// A serializable datum: the value domain the generator draws from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Val {
    Null,
    Int(i64),
    Str(String),
}

impl Val {
    pub fn to_datum(&self) -> Datum {
        match self {
            Val::Null => Datum::Null,
            Val::Int(v) => Datum::Int64(*v),
            Val::Str(s) => Datum::str(s.as_str()),
        }
    }

    /// Datum coerced to a column type (`int` columns carry `Int32`).
    pub fn to_datum_for(&self, ty: ColTy) -> Datum {
        match (self, ty) {
            (Val::Null, _) => Datum::Null,
            (Val::Int(v), ColTy::Int) => Datum::Int32(*v as i32),
            (Val::Int(v), _) => Datum::Int64(*v),
            (Val::Str(s), _) => Datum::str(s.as_str()),
        }
    }

    /// Render as a SQL literal.
    pub fn sql(&self) -> String {
        match self {
            Val::Null => "NULL".into(),
            Val::Int(v) => v.to_string(),
            Val::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }

    fn to_sexp(&self) -> Sexp {
        match self {
            Val::Null => Sexp::sym("null"),
            Val::Int(v) => Sexp::Int(*v),
            Val::Str(s) => Sexp::Str(s.clone()),
        }
    }

    fn from_sexp(s: &Sexp) -> Result<Val> {
        Ok(match s {
            Sexp::Sym(sym) if sym == "null" => Val::Null,
            Sexp::Int(v) => Val::Int(*v),
            Sexp::Str(v) => Val::Str(v.clone()),
            other => return Err(Error::Parse(format!("corpus: bad value {other}"))),
        })
    }
}

/// Column type in the fixed table shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColTy {
    Int,
    Str,
}

/// One partitioning level as declared at CREATE time. ALTER actions then
/// evolve the live piece set; the spec stays the creation-time shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelSpec {
    /// `PARTITION BY RANGE (kN) (START (start) END (start+every*count)
    /// EVERY (every))`, pieces auto-named `p0 … p{count-1}`.
    Range { start: i64, every: i64, count: u32 },
    /// `PARTITION BY LIST (kN) (PARTITION l0 VALUES (…), … [, DEFAULT
    /// PARTITION ldef])`, pieces named `l0 … l{n-1}` (+ `ldef`).
    List {
        groups: Vec<Vec<String>>,
        has_default: bool,
    },
}

impl LevelSpec {
    pub fn key_ty(&self) -> ColTy {
        match self {
            LevelSpec::Range { .. } => ColTy::Int,
            LevelSpec::List { .. } => ColTy::Str,
        }
    }
}

/// One table: `id int NOT NULL` (distribution key), one key column per
/// partitioning level (`k1`, `k2` — int for range levels, text for list
/// levels), then payloads `v int` and `s text` (both nullable). `levels`
/// empty means unpartitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    pub name: String,
    pub levels: Vec<LevelSpec>,
    /// Initial rows, in column order (`id, k…, v, s`).
    pub rows: Vec<Vec<Val>>,
}

impl TableSpec {
    /// Column names in schema order.
    pub fn col_names(&self) -> Vec<String> {
        let mut names = vec!["id".to_string()];
        for i in 0..self.levels.len() {
            names.push(format!("k{}", i + 1));
        }
        names.push("v".into());
        names.push("s".into());
        names
    }

    pub fn col_types(&self) -> Vec<ColTy> {
        let mut tys = vec![ColTy::Int];
        for l in &self.levels {
            tys.push(l.key_ty());
        }
        tys.push(ColTy::Int);
        tys.push(ColTy::Str);
        tys
    }

    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.col_names().iter().position(|n| n == name)
    }

    /// Index of the key column for partitioning level `lvl`.
    pub fn key_col(&self, lvl: usize) -> usize {
        1 + lvl
    }

    pub fn create_sql(&self) -> String {
        let mut sql = format!("CREATE TABLE {} (id int NOT NULL", self.name);
        for (i, l) in self.levels.iter().enumerate() {
            let ty = match l.key_ty() {
                ColTy::Int => "int",
                ColTy::Str => "text",
            };
            let _ = write!(sql, ", k{} {}", i + 1, ty);
        }
        sql.push_str(", v int, s text) DISTRIBUTED BY (id)");
        for (i, l) in self.levels.iter().enumerate() {
            let kw = if i == 0 { "PARTITION" } else { "SUBPARTITION" };
            match l {
                LevelSpec::Range {
                    start,
                    every,
                    count,
                } => {
                    let end = start + every * (*count as i64);
                    let _ = write!(
                        sql,
                        " {kw} BY RANGE (k{}) (START ({start}) END ({end}) EVERY ({every}))",
                        i + 1
                    );
                }
                LevelSpec::List {
                    groups,
                    has_default,
                } => {
                    let mut parts: Vec<String> = groups
                        .iter()
                        .enumerate()
                        .map(|(g, vals)| {
                            let items: Vec<String> =
                                vals.iter().map(|v| Val::Str(v.clone()).sql()).collect();
                            format!("PARTITION l{g} VALUES ({})", items.join(", "))
                        })
                        .collect();
                    if *has_default {
                        parts.push("DEFAULT PARTITION ldef".into());
                    }
                    let _ = write!(sql, " {kw} BY LIST (k{}) ({})", i + 1, parts.join(", "));
                }
            }
        }
        sql
    }

    fn to_sexp(&self) -> Sexp {
        let levels = self
            .levels
            .iter()
            .map(|l| match l {
                LevelSpec::Range {
                    start,
                    every,
                    count,
                } => Sexp::tagged(
                    "range",
                    vec![
                        Sexp::Int(*start),
                        Sexp::Int(*every),
                        Sexp::Int(*count as i64),
                    ],
                ),
                LevelSpec::List {
                    groups,
                    has_default,
                } => {
                    let mut items = vec![Sexp::Int(*has_default as i64)];
                    for g in groups {
                        items.push(Sexp::list(g.iter().map(|v| Sexp::Str(v.clone())).collect()));
                    }
                    Sexp::tagged("list", items)
                }
            })
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| Sexp::list(r.iter().map(Val::to_sexp).collect()))
            .collect();
        Sexp::tagged(
            "table",
            vec![
                Sexp::Str(self.name.clone()),
                Sexp::tagged("levels", levels),
                Sexp::tagged("rows", rows),
            ],
        )
    }

    fn from_sexp(s: &Sexp) -> Result<TableSpec> {
        let items = s.items("table")?;
        let name = items
            .first()
            .ok_or_else(|| Error::Parse("corpus: table needs a name".into()))?
            .as_str()?
            .to_string();
        let mut levels = Vec::new();
        for l in Sexp::field(items, "levels")?.items("levels")? {
            let list = l.as_list()?;
            match list.first().map(|h| h.as_sym()).transpose()? {
                Some("range") => levels.push(LevelSpec::Range {
                    start: list[1].as_int()?,
                    every: list[2].as_int()?,
                    count: list[3].as_int()? as u32,
                }),
                Some("list") => {
                    let has_default = list[1].as_int()? != 0;
                    let mut groups = Vec::new();
                    for g in &list[2..] {
                        groups.push(
                            g.as_list()?
                                .iter()
                                .map(|v| Ok(v.as_str()?.to_string()))
                                .collect::<Result<Vec<_>>>()?,
                        );
                    }
                    levels.push(LevelSpec::List {
                        groups,
                        has_default,
                    });
                }
                _ => return Err(Error::Parse(format!("corpus: bad level {l}"))),
            }
        }
        let mut rows = Vec::new();
        for r in Sexp::field(items, "rows")?.items("rows")? {
            rows.push(
                r.as_list()?
                    .iter()
                    .map(Val::from_sexp)
                    .collect::<Result<Vec<_>>>()?,
            );
        }
        Ok(TableSpec { name, levels, rows })
    }
}

/// A column reference inside a query: table index into `Case::tables`
/// plus column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColId {
    pub table: usize,
    pub col: String,
}

impl ColId {
    pub fn new(table: usize, col: impl Into<String>) -> ColId {
        ColId {
            table,
            col: col.into(),
        }
    }

    fn to_sexp(&self) -> Sexp {
        Sexp::list(vec![
            Sexp::Int(self.table as i64),
            Sexp::sym(self.col.clone()),
        ])
    }

    fn from_sexp(s: &Sexp) -> Result<ColId> {
        let l = s.as_list()?;
        Ok(ColId {
            table: l[0].as_int()? as usize,
            col: l[1].as_sym()?.to_string(),
        })
    }
}

/// Literal or `$n` parameter operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    Lit(Val),
    /// 1-based parameter index into `QuerySpec::params`.
    Param(u32),
}

impl Operand {
    fn to_sexp(&self) -> Sexp {
        match self {
            Operand::Lit(v) => v.to_sexp(),
            Operand::Param(n) => Sexp::tagged("param", vec![Sexp::Int(*n as i64)]),
        }
    }

    fn from_sexp(s: &Sexp) -> Result<Operand> {
        if let Sexp::List(l) = s {
            if let Some(Sexp::Sym(tag)) = l.first() {
                if tag == "param" {
                    return Ok(Operand::Param(l[1].as_int()? as u32));
                }
            }
        }
        Ok(Operand::Lit(Val::from_sexp(s)?))
    }
}

/// Structured predicate tree, rendered to SQL by [`PredSpec::sql`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredSpec {
    /// `col OP operand` with OP one of `= <> < <= > >=`.
    Cmp {
        col: ColId,
        op: String,
        rhs: Operand,
    },
    /// `col [NOT] BETWEEN lo AND hi`.
    Between {
        col: ColId,
        lo: Operand,
        hi: Operand,
        negated: bool,
    },
    /// `col [NOT] IN (…)`.
    InList {
        col: ColId,
        items: Vec<Val>,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        col: ColId,
        negated: bool,
    },
    /// `left OP right` between two columns (non-equi join predicates).
    ColCmp {
        left: ColId,
        op: String,
        right: ColId,
    },
    /// `num / den_col = rhs` — a deliberate division hazard (den may be 0
    /// or NULL) exercising error-kind parity.
    DivCmp {
        num: i64,
        den: ColId,
        rhs: i64,
    },
    And(Vec<PredSpec>),
    Or(Vec<PredSpec>),
    Not(Box<PredSpec>),
}

impl PredSpec {
    /// Render to SQL. `qualify` prefixes column names with their table
    /// name (needed whenever more than one table is in scope).
    pub fn sql(&self, tables: &[&TableSpec], qualify: bool) -> String {
        let col = |c: &ColId| {
            if qualify {
                format!("{}.{}", tables[c.table].name, c.col)
            } else {
                c.col.clone()
            }
        };
        let opnd = |o: &Operand| match o {
            Operand::Lit(v) => v.sql(),
            Operand::Param(n) => format!("${n}"),
        };
        match self {
            PredSpec::Cmp { col: c, op, rhs } => format!("{} {} {}", col(c), op, opnd(rhs)),
            PredSpec::Between {
                col: c,
                lo,
                hi,
                negated,
            } => format!(
                "{} {}BETWEEN {} AND {}",
                col(c),
                if *negated { "NOT " } else { "" },
                opnd(lo),
                opnd(hi)
            ),
            PredSpec::InList {
                col: c,
                items,
                negated,
            } => {
                let list: Vec<String> = items.iter().map(Val::sql).collect();
                format!(
                    "{} {}IN ({})",
                    col(c),
                    if *negated { "NOT " } else { "" },
                    list.join(", ")
                )
            }
            PredSpec::IsNull { col: c, negated } => {
                format!("{} IS {}NULL", col(c), if *negated { "NOT " } else { "" })
            }
            PredSpec::ColCmp { left, op, right } => {
                format!("{} {} {}", col(left), op, col(right))
            }
            PredSpec::DivCmp { num, den, rhs } => format!("{} / {} = {}", num, col(den), rhs),
            PredSpec::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.sql(tables, qualify)).collect();
                format!("({})", parts.join(" AND "))
            }
            PredSpec::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.sql(tables, qualify)).collect();
                format!("({})", parts.join(" OR "))
            }
            PredSpec::Not(p) => format!("NOT ({})", p.sql(tables, qualify)),
        }
    }

    /// Every column referenced by this predicate.
    pub fn cols(&self, out: &mut Vec<ColId>) {
        match self {
            PredSpec::Cmp { col, .. }
            | PredSpec::Between { col, .. }
            | PredSpec::InList { col, .. }
            | PredSpec::IsNull { col, .. }
            | PredSpec::DivCmp { den: col, .. } => out.push(col.clone()),
            PredSpec::ColCmp { left, right, .. } => {
                out.push(left.clone());
                out.push(right.clone());
            }
            PredSpec::And(ps) | PredSpec::Or(ps) => {
                for p in ps {
                    p.cols(out);
                }
            }
            PredSpec::Not(p) => p.cols(out),
        }
    }

    fn to_sexp(&self) -> Sexp {
        match self {
            PredSpec::Cmp { col, op, rhs } => Sexp::tagged(
                "cmp",
                vec![col.to_sexp(), Sexp::sym(op.clone()), rhs.to_sexp()],
            ),
            PredSpec::Between {
                col,
                lo,
                hi,
                negated,
            } => Sexp::tagged(
                "between",
                vec![
                    col.to_sexp(),
                    lo.to_sexp(),
                    hi.to_sexp(),
                    Sexp::Int(*negated as i64),
                ],
            ),
            PredSpec::InList {
                col,
                items,
                negated,
            } => {
                let mut v = vec![col.to_sexp(), Sexp::Int(*negated as i64)];
                v.extend(items.iter().map(Val::to_sexp));
                Sexp::tagged("in", v)
            }
            PredSpec::IsNull { col, negated } => {
                Sexp::tagged("isnull", vec![col.to_sexp(), Sexp::Int(*negated as i64)])
            }
            PredSpec::ColCmp { left, op, right } => Sexp::tagged(
                "colcmp",
                vec![left.to_sexp(), Sexp::sym(op.clone()), right.to_sexp()],
            ),
            PredSpec::DivCmp { num, den, rhs } => Sexp::tagged(
                "divcmp",
                vec![Sexp::Int(*num), den.to_sexp(), Sexp::Int(*rhs)],
            ),
            PredSpec::And(ps) => Sexp::tagged("and", ps.iter().map(PredSpec::to_sexp).collect()),
            PredSpec::Or(ps) => Sexp::tagged("or", ps.iter().map(PredSpec::to_sexp).collect()),
            PredSpec::Not(p) => Sexp::tagged("not", vec![p.to_sexp()]),
        }
    }

    fn from_sexp(s: &Sexp) -> Result<PredSpec> {
        let list = s.as_list()?;
        let tag = list
            .first()
            .ok_or_else(|| Error::Parse("corpus: empty predicate".into()))?
            .as_sym()?;
        Ok(match tag {
            "cmp" => PredSpec::Cmp {
                col: ColId::from_sexp(&list[1])?,
                op: list[2].as_sym()?.to_string(),
                rhs: Operand::from_sexp(&list[3])?,
            },
            "between" => PredSpec::Between {
                col: ColId::from_sexp(&list[1])?,
                lo: Operand::from_sexp(&list[2])?,
                hi: Operand::from_sexp(&list[3])?,
                negated: list[4].as_int()? != 0,
            },
            "in" => PredSpec::InList {
                col: ColId::from_sexp(&list[1])?,
                negated: list[2].as_int()? != 0,
                items: list[3..]
                    .iter()
                    .map(Val::from_sexp)
                    .collect::<Result<_>>()?,
            },
            "isnull" => PredSpec::IsNull {
                col: ColId::from_sexp(&list[1])?,
                negated: list[2].as_int()? != 0,
            },
            "colcmp" => PredSpec::ColCmp {
                left: ColId::from_sexp(&list[1])?,
                op: list[2].as_sym()?.to_string(),
                right: ColId::from_sexp(&list[3])?,
            },
            "divcmp" => PredSpec::DivCmp {
                num: list[1].as_int()?,
                den: ColId::from_sexp(&list[2])?,
                rhs: list[3].as_int()?,
            },
            "and" => PredSpec::And(
                list[1..]
                    .iter()
                    .map(PredSpec::from_sexp)
                    .collect::<Result<_>>()?,
            ),
            "or" => PredSpec::Or(
                list[1..]
                    .iter()
                    .map(PredSpec::from_sexp)
                    .collect::<Result<_>>()?,
            ),
            "not" => PredSpec::Not(Box::new(PredSpec::from_sexp(&list[1])?)),
            other => return Err(Error::Parse(format!("corpus: bad predicate tag {other}"))),
        })
    }
}

/// Join shape for multi-table queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// `a JOIN b ON …` when true; comma join with the condition folded
    /// into WHERE when false. Ignored for `QuerySpec::extra_joins`,
    /// which always render comma-style.
    pub explicit: bool,
    /// `LEFT JOIN` (implies `explicit`).
    pub left_outer: bool,
    pub left: ColId,
    pub op: String,
    pub right: ColId,
    /// A second `ON` conjunct between the same two tables: with `=` the
    /// hash join gets a two-column key, with any other comparison a
    /// residual. Only `QuerySpec::join` sets it.
    pub second: Option<JoinConjunct>,
}

/// `left OP right` between the columns of a join's two tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinConjunct {
    pub left: ColId,
    pub op: String,
    pub right: ColId,
}

impl JoinSpec {
    /// The join condition; `col` renders a column reference.
    fn on_sql(&self, col: impl Fn(&ColId) -> String) -> String {
        let mut on = format!("{} {} {}", col(&self.left), self.op, col(&self.right));
        if let Some(c) = &self.second {
            let _ = write!(on, " AND {} {} {}", col(&c.left), c.op, col(&c.right));
        }
        on
    }

    fn to_sexp(&self) -> Sexp {
        let mut items = vec![
            Sexp::Int(self.explicit as i64),
            Sexp::Int(self.left_outer as i64),
            self.left.to_sexp(),
            Sexp::sym(self.op.clone()),
            self.right.to_sexp(),
        ];
        if let Some(c) = &self.second {
            items.extend([c.left.to_sexp(), Sexp::sym(c.op.clone()), c.right.to_sexp()]);
        }
        Sexp::tagged("join", items)
    }

    /// Corpus files written before the second conjunct existed have five
    /// items and decode to `second: None`.
    fn from_sexp(s: &Sexp) -> Result<JoinSpec> {
        let ji = s.items("join")?;
        let second = match ji.get(5..8) {
            None => None,
            Some(c) => Some(JoinConjunct {
                left: ColId::from_sexp(&c[0])?,
                op: c[1].as_sym()?.to_string(),
                right: ColId::from_sexp(&c[2])?,
            }),
        };
        Ok(JoinSpec {
            explicit: ji[0].as_int()? != 0,
            left_outer: ji[1].as_int()? != 0,
            left: ColId::from_sexp(&ji[2])?,
            op: ji[3].as_sym()?.to_string(),
            right: ColId::from_sexp(&ji[4])?,
            second,
        })
    }
}

/// One aggregate call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCallSpec {
    /// `count`, `sum`, `avg`, `min` or `max`; `arg` None = `count(*)`.
    pub func: String,
    pub arg: Option<ColId>,
}

/// Aggregation shape: `SELECT [group,] calls… [GROUP BY group]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    pub group_by: Option<ColId>,
    pub calls: Vec<AggCallSpec>,
}

/// A structured SELECT over one or more case tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Indices into `Case::tables`; distinct.
    pub tables: Vec<usize>,
    /// Joins `tables[0]` with `tables[1]`.
    pub join: Option<JoinSpec>,
    /// The join-order axis: `extra_joins[k]` chains `tables[k + 2]` onto
    /// the query (comma-style, condition in WHERE), giving the optimizer
    /// a ≥3-relation inner-join space to enumerate.
    pub extra_joins: Vec<JoinSpec>,
    pub pred: Option<PredSpec>,
    pub agg: Option<AggSpec>,
    /// `$n` bindings, 1-based.
    pub params: Vec<Val>,
    /// True when `pred` is an exactly-analyzable filter over partition-key
    /// columns of a single partitioned table — the harness then also
    /// checks the static f*_T upper bound on `parts_scanned`.
    pub static_prunable: bool,
}

impl QuerySpec {
    pub fn sql(&self, all_tables: &[TableSpec]) -> String {
        let specs: Vec<&TableSpec> = self.tables.iter().map(|&t| &all_tables[t]).collect();
        let qualify = specs.len() > 1;
        let col = |c: &ColId| {
            if qualify {
                format!("{}.{}", all_tables[c.table].name, c.col)
            } else {
                c.col.clone()
            }
        };

        let select_list = match &self.agg {
            None => {
                if specs.len() == 1 {
                    "id, v, s".to_string()
                } else {
                    // Project every side's payload plus the left id.
                    let mut items = vec![format!("{0}.id, {0}.v", specs[0].name)];
                    for s in &specs[1..] {
                        items.push(format!("{}.v", s.name));
                    }
                    items.join(", ")
                }
            }
            Some(agg) => {
                let mut items = Vec::new();
                if let Some(g) = &agg.group_by {
                    items.push(col(g));
                }
                for c in &agg.calls {
                    match &c.arg {
                        None => items.push("count(*)".into()),
                        Some(a) => items.push(format!("{}({})", c.func, col(a))),
                    }
                }
                items.join(", ")
            }
        };

        let mut from = specs[0].name.clone();
        let mut where_parts: Vec<String> = Vec::new();
        if let Some(j) = &self.join {
            let on = j.on_sql(col);
            if j.explicit {
                let kw = if j.left_outer { "LEFT JOIN" } else { "JOIN" };
                let _ = write!(from, " {kw} {} ON {on}", specs[1].name);
            } else {
                let _ = write!(from, ", {}", specs[1].name);
                where_parts.push(on);
            }
        }
        for (k, j) in self.extra_joins.iter().enumerate() {
            let _ = write!(from, ", {}", specs[k + 2].name);
            where_parts.push(j.on_sql(col));
        }
        let table_refs: Vec<&TableSpec> = all_tables.iter().collect();
        if let Some(p) = &self.pred {
            where_parts.push(p.sql(&table_refs, qualify));
        }

        let mut sql = format!("SELECT {select_list} FROM {from}");
        if !where_parts.is_empty() {
            let _ = write!(sql, " WHERE {}", where_parts.join(" AND "));
        }
        if let Some(AggSpec {
            group_by: Some(g), ..
        }) = &self.agg
        {
            let _ = write!(sql, " GROUP BY {}", col(g));
        }
        sql
    }

    fn to_sexp(&self) -> Sexp {
        let mut items = vec![Sexp::tagged(
            "tables",
            self.tables.iter().map(|&t| Sexp::Int(t as i64)).collect(),
        )];
        if let Some(j) = &self.join {
            items.push(j.to_sexp());
        }
        if !self.extra_joins.is_empty() {
            items.push(Sexp::tagged(
                "joins",
                self.extra_joins.iter().map(JoinSpec::to_sexp).collect(),
            ));
        }
        if let Some(p) = &self.pred {
            items.push(Sexp::tagged("pred", vec![p.to_sexp()]));
        }
        if let Some(a) = &self.agg {
            let mut ai = Vec::new();
            if let Some(g) = &a.group_by {
                ai.push(Sexp::tagged("group", vec![g.to_sexp()]));
            }
            for c in &a.calls {
                let mut ci = vec![Sexp::sym(c.func.clone())];
                if let Some(arg) = &c.arg {
                    ci.push(arg.to_sexp());
                }
                ai.push(Sexp::tagged("call", ci));
            }
            items.push(Sexp::tagged("agg", ai));
        }
        if !self.params.is_empty() {
            items.push(Sexp::tagged(
                "params",
                self.params.iter().map(Val::to_sexp).collect(),
            ));
        }
        items.push(Sexp::tagged(
            "static",
            vec![Sexp::Int(self.static_prunable as i64)],
        ));
        Sexp::tagged("query", items)
    }

    fn from_sexp(s: &Sexp) -> Result<QuerySpec> {
        let items = s.items("query")?;
        let tables = Sexp::field(items, "tables")?
            .items("tables")?
            .iter()
            .map(|t| Ok(t.as_int()? as usize))
            .collect::<Result<Vec<_>>>()?;
        let join = match Sexp::field_opt(items, "join")? {
            None => None,
            Some(j) => Some(JoinSpec::from_sexp(j)?),
        };
        let extra_joins = match Sexp::field_opt(items, "joins")? {
            None => Vec::new(),
            Some(js) => js
                .items("joins")?
                .iter()
                .map(JoinSpec::from_sexp)
                .collect::<Result<_>>()?,
        };
        let pred = match Sexp::field_opt(items, "pred")? {
            None => None,
            Some(p) => Some(PredSpec::from_sexp(&p.items("pred")?[0])?),
        };
        let agg = match Sexp::field_opt(items, "agg")? {
            None => None,
            Some(a) => {
                let mut group_by = None;
                let mut calls = Vec::new();
                for it in a.items("agg")? {
                    let l = it.as_list()?;
                    match l[0].as_sym()? {
                        "group" => group_by = Some(ColId::from_sexp(&l[1])?),
                        "call" => {
                            calls.push(AggCallSpec {
                                func: l[1].as_sym()?.to_string(),
                                arg: match l.get(2) {
                                    None => None,
                                    Some(c) => Some(ColId::from_sexp(c)?),
                                },
                            });
                        }
                        other => return Err(Error::Parse(format!("corpus: bad agg item {other}"))),
                    }
                }
                Some(AggSpec { group_by, calls })
            }
        };
        let params = match Sexp::field_opt(items, "params")? {
            None => Vec::new(),
            Some(p) => p
                .items("params")?
                .iter()
                .map(Val::from_sexp)
                .collect::<Result<_>>()?,
        };
        let static_prunable = Sexp::field(items, "static")?.items("static")?[0].as_int()? != 0;
        Ok(QuerySpec {
            tables,
            join,
            extra_joins,
            pred,
            agg,
            params,
            static_prunable,
        })
    }
}

/// ALTER TABLE action on a case table's outermost partitioning level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlterKind {
    AddRange { name: String, lo: i64, hi: i64 },
    AddList { name: String, vals: Vec<String> },
    Drop { name: String },
}

/// One step in the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Alter {
        table: usize,
        kind: AlterKind,
    },
    /// Extra rows inserted mid-workload via SQL `INSERT`.
    Insert {
        table: usize,
        rows: Vec<Vec<Val>>,
    },
    /// `ANALYZE <table>`: recomputes statistics mid-workload. Results of
    /// every later query must be unchanged — statistics may only move the
    /// optimizer between equivalent plans.
    Analyze {
        table: usize,
    },
    Query(Box<QuerySpec>),
}

impl Action {
    pub fn alter_sql(table: &TableSpec, kind: &AlterKind) -> String {
        match kind {
            AlterKind::AddRange { name, lo, hi } => format!(
                "ALTER TABLE {} ADD PARTITION {name} START ({lo}) END ({hi})",
                table.name
            ),
            AlterKind::AddList { name, vals } => {
                let items: Vec<String> = vals.iter().map(|v| Val::Str(v.clone()).sql()).collect();
                format!(
                    "ALTER TABLE {} ADD PARTITION {name} VALUES ({})",
                    table.name,
                    items.join(", ")
                )
            }
            AlterKind::Drop { name } => {
                format!("ALTER TABLE {} DROP PARTITION {name}", table.name)
            }
        }
    }

    pub fn insert_sql(table: &TableSpec, rows: &[Vec<Val>]) -> String {
        let tuples: Vec<String> = rows
            .iter()
            .map(|r| {
                let vals: Vec<String> = r.iter().map(Val::sql).collect();
                format!("({})", vals.join(", "))
            })
            .collect();
        format!("INSERT INTO {} VALUES {}", table.name, tuples.join(", "))
    }

    fn to_sexp(&self) -> Sexp {
        match self {
            Action::Alter { table, kind } => {
                let k = match kind {
                    AlterKind::AddRange { name, lo, hi } => Sexp::tagged(
                        "add-range",
                        vec![Sexp::Str(name.clone()), Sexp::Int(*lo), Sexp::Int(*hi)],
                    ),
                    AlterKind::AddList { name, vals } => {
                        let mut items = vec![Sexp::Str(name.clone())];
                        items.extend(vals.iter().map(|v| Sexp::Str(v.clone())));
                        Sexp::tagged("add-list", items)
                    }
                    AlterKind::Drop { name } => Sexp::tagged("drop", vec![Sexp::Str(name.clone())]),
                };
                Sexp::tagged("alter", vec![Sexp::Int(*table as i64), k])
            }
            Action::Insert { table, rows } => {
                let mut items = vec![Sexp::Int(*table as i64)];
                items.extend(
                    rows.iter()
                        .map(|r| Sexp::list(r.iter().map(Val::to_sexp).collect())),
                );
                Sexp::tagged("insert", items)
            }
            Action::Analyze { table } => Sexp::tagged("analyze", vec![Sexp::Int(*table as i64)]),
            Action::Query(q) => q.to_sexp(),
        }
    }

    fn from_sexp(s: &Sexp) -> Result<Action> {
        let list = s.as_list()?;
        match list.first().map(|h| h.as_sym()).transpose()? {
            Some("alter") => {
                let table = list[1].as_int()? as usize;
                let kl = list[2].as_list()?;
                let kind = match kl[0].as_sym()? {
                    "add-range" => AlterKind::AddRange {
                        name: kl[1].as_str()?.to_string(),
                        lo: kl[2].as_int()?,
                        hi: kl[3].as_int()?,
                    },
                    "add-list" => AlterKind::AddList {
                        name: kl[1].as_str()?.to_string(),
                        vals: kl[2..]
                            .iter()
                            .map(|v| Ok(v.as_str()?.to_string()))
                            .collect::<Result<_>>()?,
                    },
                    "drop" => AlterKind::Drop {
                        name: kl[1].as_str()?.to_string(),
                    },
                    other => return Err(Error::Parse(format!("corpus: bad alter kind {other}"))),
                };
                Ok(Action::Alter { table, kind })
            }
            Some("insert") => Ok(Action::Insert {
                table: list[1].as_int()? as usize,
                rows: list[2..]
                    .iter()
                    .map(|r| {
                        r.as_list()?
                            .iter()
                            .map(Val::from_sexp)
                            .collect::<Result<Vec<_>>>()
                    })
                    .collect::<Result<_>>()?,
            }),
            Some("analyze") => Ok(Action::Analyze {
                table: list[1].as_int()? as usize,
            }),
            Some("query") => Ok(Action::Query(Box::new(QuerySpec::from_sexp(s)?))),
            _ => Err(Error::Parse(format!("corpus: bad action {s}"))),
        }
    }
}

/// A complete differential test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Generator seed (0 for hand-written or shrunk cases).
    pub seed: u64,
    pub segments: usize,
    /// Adaptive-planning axis pin. `None` means the harness runs the case
    /// under BOTH adaptive settings (the differential axis); `Some(on)`
    /// pins one setting — used by shrunk reproducers so a corpus file
    /// replays exactly the cell that diverged.
    pub adaptive: Option<bool>,
    pub tables: Vec<TableSpec>,
    pub actions: Vec<Action>,
}

impl Case {
    pub fn to_sexp(&self) -> Sexp {
        let mut items = vec![
            Sexp::tagged("seed", vec![Sexp::Int(self.seed as i64)]),
            Sexp::tagged("segments", vec![Sexp::Int(self.segments as i64)]),
        ];
        // Emitted only when pinned, so pre-axis corpus files and
        // unpinned cases share one canonical encoding.
        if let Some(on) = self.adaptive {
            items.push(Sexp::tagged("adaptive", vec![Sexp::Int(on as i64)]));
        }
        items.push(Sexp::tagged(
            "tables",
            self.tables.iter().map(TableSpec::to_sexp).collect(),
        ));
        items.push(Sexp::tagged(
            "actions",
            self.actions.iter().map(Action::to_sexp).collect(),
        ));
        Sexp::tagged("case", items)
    }

    pub fn from_sexp(s: &Sexp) -> Result<Case> {
        let items = s.items("case")?;
        Ok(Case {
            seed: Sexp::field(items, "seed")?.items("seed")?[0].as_int()? as u64,
            segments: Sexp::field(items, "segments")?.items("segments")?[0].as_int()? as usize,
            adaptive: Sexp::field_opt(items, "adaptive")?
                .map(|s| Ok::<_, Error>(s.items("adaptive")?[0].as_int()? != 0))
                .transpose()?,
            tables: Sexp::field(items, "tables")?
                .items("tables")?
                .iter()
                .map(TableSpec::from_sexp)
                .collect::<Result<_>>()?,
            actions: Sexp::field(items, "actions")?
                .items("actions")?
                .iter()
                .map(Action::from_sexp)
                .collect::<Result<_>>()?,
        })
    }

    pub fn encode(&self) -> String {
        crate::sexp::pretty(&self.to_sexp())
    }

    pub fn decode(text: &str) -> Result<Case> {
        Case::from_sexp(&crate::sexp::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> Case {
        Case {
            seed: 7,
            segments: 3,
            adaptive: None,
            tables: vec![TableSpec {
                name: "t0".into(),
                levels: vec![
                    LevelSpec::Range {
                        start: 0,
                        every: 10,
                        count: 4,
                    },
                    LevelSpec::List {
                        groups: vec![vec!["a".into(), "b".into()], vec!["c".into()]],
                        has_default: true,
                    },
                ],
                rows: vec![vec![
                    Val::Int(1),
                    Val::Int(5),
                    Val::Str("a".into()),
                    Val::Null,
                    Val::Str("x".into()),
                ]],
            }],
            actions: vec![
                Action::Alter {
                    table: 0,
                    kind: AlterKind::Drop { name: "p2".into() },
                },
                Action::Query(Box::new(QuerySpec {
                    tables: vec![0],
                    join: None,
                    extra_joins: vec![],
                    pred: Some(PredSpec::And(vec![
                        PredSpec::Cmp {
                            col: ColId::new(0, "k1"),
                            op: "<".into(),
                            rhs: Operand::Lit(Val::Int(20)),
                        },
                        PredSpec::InList {
                            col: ColId::new(0, "k2"),
                            items: vec![Val::Str("a".into())],
                            negated: false,
                        },
                    ])),
                    agg: None,
                    params: vec![],
                    static_prunable: true,
                })),
            ],
        }
    }

    #[test]
    fn case_round_trips_through_sexp() {
        let case = sample_case();
        let text = case.encode();
        // Unpinned cases keep the pre-axis encoding, so old corpus
        // files decode unchanged (adaptive -> None).
        assert!(!text.contains("adaptive"));
        assert_eq!(Case::decode(&text).unwrap(), case);
    }

    #[test]
    fn pinned_adaptive_round_trips_through_sexp() {
        for on in [true, false] {
            let mut case = sample_case();
            case.adaptive = Some(on);
            let text = case.encode();
            assert!(text.contains("(adaptive"));
            assert_eq!(Case::decode(&text).unwrap(), case);
        }
    }

    #[test]
    fn second_join_conjunct_renders_and_round_trips() {
        let mut case = sample_case();
        let mut t1 = case.tables[0].clone();
        t1.name = "t1".into();
        case.tables.push(t1);
        let query = QuerySpec {
            tables: vec![0, 1],
            join: Some(JoinSpec {
                explicit: true,
                left_outer: false,
                left: ColId::new(0, "id"),
                op: "=".into(),
                right: ColId::new(1, "id"),
                second: Some(JoinConjunct {
                    left: ColId::new(0, "v"),
                    op: "<".into(),
                    right: ColId::new(1, "v"),
                }),
            }),
            extra_joins: vec![],
            pred: None,
            agg: None,
            params: vec![],
            static_prunable: false,
        };
        assert_eq!(
            query.sql(&case.tables),
            "SELECT t0.id, t0.v, t1.v FROM t0 JOIN t1 ON t0.id = t1.id AND t0.v < t1.v"
        );
        case.actions = vec![Action::Query(Box::new(query))];
        assert_eq!(Case::decode(&case.encode()).unwrap(), case);
        // Without it the encoding is the five-item form older corpus
        // files use, which decodes to `None`.
        let Action::Query(q) = &mut case.actions[0] else {
            unreachable!()
        };
        q.join.as_mut().unwrap().second = None;
        let text = case.encode();
        assert!(text.contains("(join 1 0 (0 id) = (1 id))"), "{text}");
        assert_eq!(Case::decode(&text).unwrap(), case);
    }

    #[test]
    fn create_sql_renders_partition_clauses() {
        let case = sample_case();
        let sql = case.tables[0].create_sql();
        assert!(sql.contains("PARTITION BY RANGE (k1) (START (0) END (40) EVERY (10))"));
        assert!(sql.contains("SUBPARTITION BY LIST (k2)"));
        assert!(sql.contains("DEFAULT PARTITION ldef"));
    }

    #[test]
    fn query_sql_renders_where() {
        let case = sample_case();
        if let Action::Query(q) = &case.actions[1] {
            let sql = q.sql(&case.tables);
            assert_eq!(
                sql,
                "SELECT id, v, s FROM t0 WHERE (k1 < 20 AND k2 IN ('a'))"
            );
        } else {
            panic!("expected query action");
        }
    }
}
