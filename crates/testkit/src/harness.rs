//! The differential harness: run one [`Case`] against the real engine in
//! every {planner} × {exec engine} combination, under every scheduler
//! shape of [`sched_axis`], and against the naive [`Oracle`], and diff
//! everything that should agree:
//!
//! 1. **Results** — the row multiset of every combo must equal the
//!    oracle's (floats compared within epsilon, since distributed
//!    aggregation legally reorders summation).
//! 2. **Errors** — when one side rejects a statement the other must
//!    reject it with the same error kind. Runtime errors (arithmetic)
//!    are one-sided: the oracle full-scans every row, so sound partition
//!    pruning may legitimately skip the row that would have erred.
//! 3. **Partition-elimination soundness** — `parts_scanned` must cover
//!    every partition the oracle proves contributed a qualifying row
//!    (scanned ⊇ qualifying; paper §2.3).
//! 4. **Static minimality** — for queries the generator tags as
//!    exactly-analyzable static filters, `parts_scanned` must also stay
//!    inside the independent f*_T upper bound (scanned ⊆ bound). Applies
//!    to Orca always; to the legacy planner only without parameters
//!    (legacy resolves partitions at plan time, so `$n` defeats its
//!    static elimination by design).
//! 5. **Prepared statements** — `prepare` + `execute_prepared` on the
//!    served configuration (default engine and scheduler) must agree
//!    with the oracle under both planners.
//!
//! Every query additionally runs under both settings of the **adaptive
//! axis** ([`adaptive_axis`]): per-partition plan specialization plus
//! runtime cardinality feedback on, then off. Adaptive planning may only
//! change plan shape, never results or scan soundness.

use crate::case::{Action, Case, PredSpec, QuerySpec, Val};
use crate::oracle::{static_upper_bound, Oracle, OracleResult};
use mpp_common::{Datum, Result};
use mpp_expr::ColRefGenerator;
use mppart::testing::approx_same_bag;
use mppart::{ExecEngine, MppDb, Planner, QueryOutcome, SchedConfig};
use std::collections::BTreeSet;
use std::fmt;

/// One cell of the execution matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    pub planner: Planner,
    pub engine: ExecEngine,
}

impl fmt::Display for Combo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}", self.planner, self.engine)
    }
}

/// All four {Orca,Legacy} × {Row,Batch} cells.
pub fn combos() -> Vec<Combo> {
    let mut v = Vec::with_capacity(4);
    for planner in [Planner::Orca, Planner::Legacy] {
        for engine in [ExecEngine::Row, ExecEngine::Batch] {
            v.push(Combo { planner, engine });
        }
    }
    v
}

/// Scheduler configurations every combo runs under. The worker count
/// decides whether a root Gather streams (one worker) or is staged
/// (more), so the axis covers both, each with multi-morsel merges:
///
/// * `default` — the served shape: one worker, 4,096-row morsels,
///   streamed root;
/// * `morsel7x1` — streamed root with tiny morsels, so even the
///   fuzzer's little tables split into several morsels per segment;
/// * `morsel7x3` — staged root, tiny morsels and more workers than a
///   small case has segments: decomposition with stealing.
pub fn sched_axis() -> Vec<(&'static str, SchedConfig)> {
    let tiny = |workers| SchedConfig {
        workers: Some(workers),
        morsel_rows: 7,
    };
    vec![
        ("default", SchedConfig::default()),
        ("morsel7x1", tiny(1)),
        ("morsel7x3", tiny(3)),
    ]
}

/// Adaptive-planning settings one case runs under. Unpinned cases run
/// BOTH — adaptive per-partition specialization plus runtime feedback
/// must be invisible in results, so every cell of the matrix is diffed
/// against the oracle under each setting. A pinned case (shrunk
/// reproducer) runs only the setting that diverged.
pub fn adaptive_axis(case: &Case) -> Vec<(&'static str, bool)> {
    match case.adaptive {
        Some(true) => vec![("adapt", true)],
        Some(false) => vec![("noadapt", false)],
        None => vec![("adapt", true), ("noadapt", false)],
    }
}

/// What kind of disagreement was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Setup (CREATE/initial load) did not behave identically.
    Setup,
    /// One side errored and the other did not, or kinds differ.
    ErrorKind,
    /// Row multisets differ.
    Rows,
    /// `parts_scanned` missed a partition that contributed a qualifying
    /// row — an unsound elimination (wrong results waiting to happen).
    Unsound,
    /// A statically analyzable filter scanned outside the f*_T bound —
    /// static partition elimination failed to prune.
    NotMinimal,
    /// prepare/execute_prepared disagreed with the one-shot path.
    Prepared,
}

/// One reproducible disagreement between engine and oracle.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index into `Case::actions` (`usize::MAX` for setup failures).
    pub action: usize,
    pub combo: String,
    pub kind: FailKind,
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let action = if self.action == usize::MAX {
            "setup".to_string()
        } else {
            self.action.to_string()
        };
        write!(
            f,
            "[{:?}] action {} combo {}: {}",
            self.kind, action, self.combo, self.detail
        )
    }
}

fn datums(params: &[Val]) -> Vec<Datum> {
    params.iter().map(Val::to_datum).collect()
}

/// Run one case end to end. Returns the first disagreement found, if
/// any — `None` means every combo agreed with the oracle on every
/// action. (First-failure semantics keep the shrinker's check cheap and
/// deterministic.)
pub fn run_case(case: &Case) -> Option<Failure> {
    let mut db = MppDb::new(case.segments.max(1));
    let mut oracle = Oracle::new();
    let setup_failure = |sql: &str, e: String| Failure {
        action: usize::MAX,
        combo: "setup".into(),
        kind: FailKind::Setup,
        detail: format!("{e}\n  sql: {sql}"),
    };

    // Schema + initial data. The generator only emits valid setup, so any
    // disagreement here is already a bug.
    for spec in &case.tables {
        let sql = spec.create_sql();
        if let Err(e) = diff_outcomes(db.sql(&sql).map(|_| ()), oracle.create_table(spec)) {
            return Some(setup_failure(&sql, e));
        }
        for chunk in spec.rows.chunks(20) {
            let sql = Action::insert_sql(spec, chunk);
            if let Err(e) =
                diff_outcomes(db.sql(&sql).map(|_| ()), oracle.insert(&spec.name, chunk))
            {
                return Some(setup_failure(&sql, e));
            }
        }
    }

    for (i, action) in case.actions.iter().enumerate() {
        let failure = match action {
            Action::Alter { table, kind } => {
                let sql = Action::alter_sql(&case.tables[*table], kind);
                diff_outcomes(
                    db.sql(&sql).map(|_| ()),
                    oracle.alter(&case.tables[*table].name, kind),
                )
                .err()
                .map(|e| Failure {
                    action: i,
                    combo: "ddl".into(),
                    kind: FailKind::ErrorKind,
                    detail: format!("{e}\n  sql: {sql}"),
                })
            }
            Action::Insert { table, rows } => {
                let sql = Action::insert_sql(&case.tables[*table], rows);
                diff_outcomes(
                    db.sql(&sql).map(|_| ()),
                    oracle.insert(&case.tables[*table].name, rows),
                )
                .err()
                .map(|e| Failure {
                    action: i,
                    combo: "dml".into(),
                    kind: FailKind::ErrorKind,
                    detail: format!("{e}\n  sql: {sql}"),
                })
            }
            Action::Analyze { table } => {
                // The oracle keeps no statistics: ANALYZE must succeed and
                // must not change any later query's result (stats only move
                // the optimizer between equivalent plans — the queries after
                // this action are the real check).
                let sql = format!("ANALYZE {}", case.tables[*table].name);
                db.sql(&sql).err().map(|e| Failure {
                    action: i,
                    combo: "ddl".into(),
                    kind: FailKind::ErrorKind,
                    detail: format!("ANALYZE failed: {e}\n  sql: {sql}"),
                })
            }
            Action::Query(q) => run_query(&mut db, &oracle, case, i, q).err(),
        };
        if let Some(f) = failure {
            return Some(f);
        }
    }
    None
}

/// Diff two DDL/DML outcomes: both-ok or same-error-kind passes.
fn diff_outcomes(engine: Result<()>, oracle: Result<()>) -> std::result::Result<(), String> {
    match (engine, oracle) {
        (Ok(()), Ok(())) => Ok(()),
        (Err(e), Err(o)) if e.kind() == o.kind() => Ok(()),
        (Err(e), Err(o)) => Err(format!(
            "error kinds differ: engine {} vs oracle {}",
            e.kind(),
            o.kind()
        )),
        (Err(e), Ok(())) => Err(format!("engine errored ({e}), oracle succeeded")),
        (Ok(()), Err(o)) => Err(format!("engine succeeded, oracle errored ({o})")),
    }
}

/// Run one query action across every combo under every scheduler shape,
/// plus both prepared paths: 2 adaptive × (3 sched × 4 combos + 2
/// prepared) = 28 engine executions.
fn run_query(
    db: &mut MppDb,
    oracle: &Oracle,
    case: &Case,
    action: usize,
    q: &QuerySpec,
) -> std::result::Result<(), Failure> {
    let sql = q.sql(&case.tables);
    let params = datums(&q.params);

    // Ground truth: bind the same SQL against the engine catalog and
    // interpret the bound logical plan naively.
    let oracle_out: Result<OracleResult> =
        mpp_sql::plan_sql(&sql, db.catalog(), &ColRefGenerator::new())
            .and_then(|bound| oracle.query(&bound.plan, &params));

    for (axis_name, adaptive) in adaptive_axis(case) {
        db.set_adaptive_plans(adaptive);
        for (sched_name, sched) in sched_axis() {
            db.set_sched_config(sched);
            for combo in combos() {
                db.set_exec_engine(combo.engine);
                let engine_out = db.run_sql(&sql, &params, combo.planner);
                let check =
                    diff_query(db, oracle, case, q, combo.planner, &engine_out, &oracle_out);
                if let Err((kind, detail)) = check {
                    return Err(Failure {
                        action,
                        combo: format!("{combo}/{sched_name}/{axis_name}"),
                        kind,
                        detail: format!("{detail}\n  sql: {sql}"),
                    });
                }
            }
        }
        // Prepared-statement path, both planners, on the served engine
        // and scheduler: template-cached `bind_params` execution is what
        // every server query runs.
        db.set_exec_engine(ExecEngine::default());
        db.set_sched_config(SchedConfig::default());
        for planner in [Planner::Orca, Planner::Legacy] {
            let engine_out = db
                .prepare_with(&sql, planner)
                .and_then(|h| db.execute_prepared(&h, &params));
            let check = diff_query(db, oracle, case, q, planner, &engine_out, &oracle_out);
            if let Err((kind, detail)) = check {
                return Err(Failure {
                    action,
                    combo: format!("{planner:?}/prepared/{axis_name}"),
                    kind: if kind == FailKind::Rows {
                        FailKind::Prepared
                    } else {
                        kind
                    },
                    detail: format!("{detail}\n  sql: {sql}"),
                });
            }
        }
    }
    db.set_adaptive_plans(true);
    Ok(())
}

/// Diff one engine execution against the oracle result.
fn diff_query(
    db: &MppDb,
    oracle: &Oracle,
    case: &Case,
    q: &QuerySpec,
    planner: Planner,
    engine_out: &Result<QueryOutcome>,
    oracle_out: &Result<OracleResult>,
) -> std::result::Result<(), (FailKind, String)> {
    match (engine_out, oracle_out) {
        (Ok(out), Ok(oracle_res)) => {
            if !approx_same_bag(out.rows.clone(), oracle_res.rows.clone()) {
                return Err((
                    FailKind::Rows,
                    format!(
                        "row multisets differ: engine returned {} row(s), oracle {} row(s)",
                        out.rows.len(),
                        oracle_res.rows.len()
                    ),
                ));
            }
            check_soundness(db, oracle, case, q, planner, out, oracle_res)
        }
        (Err(e), Err(o)) if e.kind() == o.kind() => Ok(()),
        (Err(e), Err(o)) => Err((
            FailKind::ErrorKind,
            format!(
                "error kinds differ: engine {} vs oracle {}",
                e.kind(),
                o.kind()
            ),
        )),
        // SQL leaves WHERE evaluation order unspecified: an engine may
        // push a single-table division below a join and divide by zero on
        // a row the oracle's join ordering never pairs up (and vice
        // versa). When the query contains a division, arithmetic errors
        // are acceptable from either side alone; without one, an engine
        // arithmetic error has no legitimate source.
        (Err(e), Ok(_)) if e.kind() == "arithmetic" && query_has_division(q) => Ok(()),
        (Err(e), Ok(_)) => Err((
            FailKind::ErrorKind,
            format!("engine errored ({e}), oracle succeeded"),
        )),
        // The oracle scans rows in pruned partitions too, so a runtime
        // arithmetic error there while the engine succeeds is legal.
        (Ok(_), Err(o)) if o.kind() == "arithmetic" => Ok(()),
        (Ok(_), Err(o)) => Err((
            FailKind::ErrorKind,
            format!("engine succeeded, oracle errored ({o})"),
        )),
    }
}

/// Does the query's predicate contain a division (the generator's
/// `DivCmp`)? Only a division can raise an order-dependent runtime
/// arithmetic error.
fn query_has_division(q: &QuerySpec) -> bool {
    fn rec(p: &PredSpec) -> bool {
        match p {
            PredSpec::DivCmp { .. } => true,
            PredSpec::And(ps) | PredSpec::Or(ps) => ps.iter().any(rec),
            PredSpec::Not(inner) => rec(inner),
            _ => false,
        }
    }
    q.pred.as_ref().is_some_and(rec)
}

/// Soundness (and static minimality, when applicable) of `parts_scanned`
/// against the oracle's provenance.
fn check_soundness(
    db: &MppDb,
    oracle: &Oracle,
    case: &Case,
    q: &QuerySpec,
    planner: Planner,
    out: &QueryOutcome,
    oracle_res: &OracleResult,
) -> std::result::Result<(), (FailKind, String)> {
    for &t in &q.tables {
        let spec = &case.tables[t];
        if spec.levels.is_empty() {
            continue;
        }
        let scanned = scanned_leaf_names(db, out, &spec.name).map_err(|e| {
            (
                FailKind::Unsound,
                format!("cannot resolve partitions of {}: {e}", spec.name),
            )
        })?;
        let empty = BTreeSet::new();
        let qualifying = oracle_res.qualifying.get(&spec.name).unwrap_or(&empty);
        let missed: Vec<&String> = qualifying.difference(&scanned).collect();
        if !missed.is_empty() {
            return Err((
                FailKind::Unsound,
                format!(
                    "table {}: partitions {missed:?} contributed qualifying rows \
                     but were not scanned (scanned: {scanned:?})",
                    spec.name
                ),
            ));
        }

        // Static minimality: Orca always; legacy only when no parameters
        // are involved (its elimination happens entirely at plan time).
        let check_minimal = q.static_prunable && (planner == Planner::Orca || q.params.is_empty());
        if check_minimal {
            let pred = q.pred.as_ref().expect("static_prunable implies a filter");
            let reftable = oracle.table(&spec.name).map_err(|e| {
                (
                    FailKind::NotMinimal,
                    format!("oracle lost {}: {e}", spec.name),
                )
            })?;
            let bound = static_upper_bound(reftable, t, pred, &q.params);
            let excess: Vec<&String> = scanned.difference(&bound).collect();
            if !excess.is_empty() {
                return Err((
                    FailKind::NotMinimal,
                    format!(
                        "table {}: scanned partitions {excess:?} outside the static \
                         f*_T bound {bound:?}",
                        spec.name
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Leaf names of the partitions `out` actually scanned for `table`,
/// resolved through the current catalog partition tree.
fn scanned_leaf_names(db: &MppDb, out: &QueryOutcome, table: &str) -> Result<BTreeSet<String>> {
    let desc = db.catalog().table_by_name(table)?;
    let tree = desc.part_tree()?;
    let mut names = BTreeSet::new();
    if let Some(oids) = out.stats.parts_scanned.get(&desc.oid) {
        for leaf in tree.leaves() {
            if oids.contains(&leaf.oid) {
                names.insert(leaf.name.clone());
            }
        }
    }
    Ok(names)
}
