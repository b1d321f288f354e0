//! Delta-debugging failure minimizer.
//!
//! Given a failing [`Case`] and a predicate that re-checks the failure,
//! [`shrink`] greedily applies structure-aware reductions to a fixpoint:
//! truncating and deleting actions, removing unreferenced tables,
//! deleting rows (in halving chunks, then singly), dropping partitions
//! and whole partitioning levels, pinning the adaptive-planning axis to
//! the one setting that reproduces, and simplifying predicates (replacing
//! an AND/OR with one conjunct, unwrapping NOT, shrinking IN lists,
//! inlining `$n` parameters, dropping filters/aggregates/joins).
//!
//! Every candidate is validated by re-running the caller's predicate, so
//! a reduction is kept only when the *same* failure still reproduces.
//! The result is typically a one-table, few-row, single-predicate
//! reproducer ready to be checked into `testkit/corpus/`.

use crate::case::{Action, AggSpec, Case, Operand, PredSpec, QuerySpec};
use crate::harness::{run_case, Failure};

/// Minimize `case` while `fails` keeps returning true. `fails` must be
/// deterministic; it is never called on the input case itself (the
/// caller asserts that).
pub fn shrink(case: &Case, fails: &dyn Fn(&Case) -> bool) -> Case {
    let mut current = case.clone();
    // Pin the adaptive axis first: a pinned case replays only the cell
    // that diverged (halving every later `fails` probe) and records which
    // adaptive setting the reproducer needs.
    pin_adaptive(&mut current, fails);
    loop {
        let mut progressed = false;
        progressed |= shrink_actions(&mut current, fails);
        progressed |= shrink_tables(&mut current, fails);
        progressed |= shrink_rows(&mut current, fails);
        progressed |= shrink_partitions(&mut current, fails);
        progressed |= shrink_queries(&mut current, fails);
        if !progressed {
            return current;
        }
    }
}

/// Shrink a failing case, preserving the failure *kind* observed on the
/// input. Returns the minimized case and the failure it still produces;
/// `None` when the case does not fail at all.
pub fn minimize(case: &Case) -> Option<(Case, Failure)> {
    let original = run_case(case)?;
    let kind = original.kind;
    let small = shrink(case, &|c| matches!(run_case(c), Some(f) if f.kind == kind));
    let failure = run_case(&small)?;
    Some((small, failure))
}

/// Pin an unpinned case to the single adaptive setting that still fails
/// (trying adaptive-on first, the default). Leaves the case unpinned when
/// neither setting reproduces alone — e.g. a failure that needs the
/// cross-setting catalog state the full axis builds up.
fn pin_adaptive(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    if case.adaptive.is_some() {
        return false;
    }
    for on in [true, false] {
        let mut candidate = case.clone();
        candidate.adaptive = Some(on);
        if fails(&candidate) {
            *case = candidate;
            return true;
        }
    }
    false
}

/// Remove list items in halving chunks, then singly, keeping removals
/// that preserve the failure. Returns true when anything was removed.
fn minimize_list<T: Clone>(items: &mut Vec<T>, mut still_fails: impl FnMut(&[T]) -> bool) -> bool {
    let mut progressed = false;
    let mut chunk = (items.len() / 2).max(1);
    while !items.is_empty() {
        let mut removed_any = false;
        let mut start = 0;
        while start < items.len() {
            let end = (start + chunk).min(items.len());
            let mut candidate = items.clone();
            candidate.drain(start..end);
            if still_fails(&candidate) {
                *items = candidate;
                progressed = true;
                removed_any = true;
                // Same start now points at the next chunk.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
    progressed
}

fn shrink_actions(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut actions = case.actions.clone();
    let template = case.clone();
    let progressed = minimize_list(&mut actions, |candidate| {
        let mut c = template.clone();
        c.actions = candidate.to_vec();
        fails(&c)
    });
    if progressed {
        case.actions = actions;
    }
    progressed
}

fn shrink_tables(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    // Remove unreferenced tables, highest index first so remaining
    // removals stay valid.
    for r in (0..case.tables.len()).rev() {
        if case.tables.len() == 1 || table_used(case, r) {
            continue;
        }
        let mut candidate = case.clone();
        candidate.tables.remove(r);
        remap_tables(&mut candidate, r);
        if fails(&candidate) {
            *case = candidate;
            progressed = true;
        }
    }
    progressed
}

fn table_used(case: &Case, t: usize) -> bool {
    case.actions.iter().any(|a| match a {
        Action::Alter { table, .. } | Action::Insert { table, .. } | Action::Analyze { table } => {
            *table == t
        }
        Action::Query(q) => {
            if q.tables.contains(&t) {
                return true;
            }
            let mut cols = Vec::new();
            if let Some(p) = &q.pred {
                p.cols(&mut cols);
            }
            for j in q.join.iter().chain(&q.extra_joins) {
                cols.push(j.left.clone());
                cols.push(j.right.clone());
                if let Some(c) = &j.second {
                    cols.push(c.left.clone());
                    cols.push(c.right.clone());
                }
            }
            if let Some(AggSpec { group_by, calls }) = &q.agg {
                if let Some(g) = group_by {
                    cols.push(g.clone());
                }
                for c in calls {
                    if let Some(a) = &c.arg {
                        cols.push(a.clone());
                    }
                }
            }
            cols.iter().any(|c| c.table == t)
        }
    })
}

/// Decrement every table index greater than the removed index.
fn remap_tables(case: &mut Case, removed: usize) {
    let fix = |t: &mut usize| {
        if *t > removed {
            *t -= 1;
        }
    };
    for a in &mut case.actions {
        match a {
            Action::Alter { table, .. }
            | Action::Insert { table, .. }
            | Action::Analyze { table } => fix(table),
            Action::Query(q) => {
                for t in &mut q.tables {
                    fix(t);
                }
                for j in q.join.iter_mut().chain(&mut q.extra_joins) {
                    fix(&mut j.left.table);
                    fix(&mut j.right.table);
                    if let Some(c) = &mut j.second {
                        fix(&mut c.left.table);
                        fix(&mut c.right.table);
                    }
                }
                if let Some(p) = &mut q.pred {
                    remap_pred(p, removed);
                }
                if let Some(agg) = &mut q.agg {
                    if let Some(g) = &mut agg.group_by {
                        fix(&mut g.table);
                    }
                    for c in &mut agg.calls {
                        if let Some(arg) = &mut c.arg {
                            fix(&mut arg.table);
                        }
                    }
                }
            }
        }
    }
}

fn remap_pred(p: &mut PredSpec, removed: usize) {
    let fix = |t: &mut usize| {
        if *t > removed {
            *t -= 1;
        }
    };
    match p {
        PredSpec::Cmp { col, .. }
        | PredSpec::Between { col, .. }
        | PredSpec::InList { col, .. }
        | PredSpec::IsNull { col, .. }
        | PredSpec::DivCmp { den: col, .. } => fix(&mut col.table),
        PredSpec::ColCmp { left, right, .. } => {
            fix(&mut left.table);
            fix(&mut right.table);
        }
        PredSpec::And(ps) | PredSpec::Or(ps) => {
            for c in ps {
                remap_pred(c, removed);
            }
        }
        PredSpec::Not(inner) => remap_pred(inner, removed),
    }
}

fn shrink_rows(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    // Initial table rows.
    for t in 0..case.tables.len() {
        let mut rows = case.tables[t].rows.clone();
        let template = case.clone();
        if minimize_list(&mut rows, |candidate| {
            let mut c = template.clone();
            c.tables[t].rows = candidate.to_vec();
            fails(&c)
        }) {
            case.tables[t].rows = rows;
            progressed = true;
        }
    }
    // Rows inside Insert actions (an empty insert renders invalid SQL, so
    // dropping the whole action is left to shrink_actions).
    for i in 0..case.actions.len() {
        let Action::Insert { rows, .. } = &case.actions[i] else {
            continue;
        };
        let mut rows = rows.clone();
        let template = case.clone();
        if minimize_list(&mut rows, |candidate| {
            if candidate.is_empty() {
                return false;
            }
            let mut c = template.clone();
            let Action::Insert { rows, .. } = &mut c.actions[i] else {
                unreachable!();
            };
            *rows = candidate.to_vec();
            fails(&c)
        }) {
            let Action::Insert { rows: r, .. } = &mut case.actions[i] else {
                unreachable!();
            };
            *r = rows;
            progressed = true;
        }
    }
    progressed
}

fn shrink_partitions(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    use crate::case::LevelSpec;
    let mut progressed = false;
    for t in 0..case.tables.len() {
        // Try dropping the innermost level entirely (its key column
        // disappears from the schema, so its values leave the rows too;
        // predicates still naming the column make the candidate unbindable
        // and the attempt is simply rejected).
        while !case.tables[t].levels.is_empty() {
            let lvl = case.tables[t].levels.len() - 1;
            let col = case.tables[t].key_col(lvl);
            let mut candidate = case.clone();
            candidate.tables[t].levels.pop();
            for row in &mut candidate.tables[t].rows {
                row.remove(col);
            }
            for a in &mut candidate.actions {
                if let Action::Insert { table, rows } = a {
                    if *table == t {
                        for row in rows {
                            row.remove(col);
                        }
                    }
                }
            }
            if fails(&candidate) {
                *case = candidate;
                progressed = true;
            } else {
                break;
            }
        }
        // Shrink each remaining level's piece count.
        for lvl in 0..case.tables[t].levels.len() {
            loop {
                let mut candidate = case.clone();
                let shrunk = match &mut candidate.tables[t].levels[lvl] {
                    LevelSpec::Range { count, .. } if *count > 1 => {
                        *count -= 1;
                        true
                    }
                    LevelSpec::List {
                        groups,
                        has_default,
                    } => {
                        if groups.len() > 1 {
                            groups.pop();
                            true
                        } else if *has_default {
                            *has_default = false;
                            true
                        } else {
                            false
                        }
                    }
                    _ => false,
                };
                if shrunk && fails(&candidate) {
                    *case = candidate;
                    progressed = true;
                } else {
                    break;
                }
            }
        }
    }
    progressed
}

fn shrink_queries(case: &mut Case, fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    for i in 0..case.actions.len() {
        let Action::Query(q) = &case.actions[i] else {
            continue;
        };
        for candidate_query in query_candidates(q) {
            let mut candidate = case.clone();
            candidate.actions[i] = Action::Query(Box::new(candidate_query));
            if fails(&candidate) {
                case.actions[i] = candidate.actions[i].clone();
                progressed = true;
            }
        }
    }
    progressed
}

/// One-step simplifications of a query, most aggressive first.
fn query_candidates(q: &QuerySpec) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    if q.join.is_some() {
        let mut c = q.clone();
        c.join = None;
        c.extra_joins.clear();
        c.tables.truncate(1);
        out.push(c);
    }
    if q.join.as_ref().is_some_and(|j| j.second.is_some()) {
        // Back to a one-column key and no residual.
        let mut c = q.clone();
        c.join.as_mut().unwrap().second = None;
        out.push(c);
    }
    if !q.extra_joins.is_empty() {
        // Unchain the last extra table.
        let mut c = q.clone();
        c.extra_joins.pop();
        c.tables.truncate(q.tables.len() - 1);
        out.push(c);
    }
    if q.agg.is_some() {
        let mut c = q.clone();
        c.agg = None;
        out.push(c);
    }
    if q.pred.is_some() {
        let mut c = q.clone();
        c.pred = None;
        c.static_prunable = false;
        out.push(c);
    }
    if !q.params.is_empty() {
        // Inline every `$n` as its bound literal.
        let mut c = q.clone();
        if let Some(p) = &mut c.pred {
            inline_params(p, &q.params);
        }
        out.push(c);
    }
    if let Some(p) = &q.pred {
        for cand in pred_candidates(p) {
            let mut c = q.clone();
            c.pred = Some(cand);
            out.push(c);
        }
    }
    if let Some(agg) = &q.agg {
        if agg.calls.len() > 1 {
            let mut c = q.clone();
            c.agg.as_mut().unwrap().calls.truncate(1);
            out.push(c);
        }
        if agg.group_by.is_some() {
            let mut c = q.clone();
            c.agg.as_mut().unwrap().group_by = None;
            out.push(c);
        }
    }
    // The binder's arity is the highest `$n` referenced: a candidate that
    // dropped the last use of a parameter must drop its value too, or it
    // fails on arity instead of reproducing the original failure.
    for c in &mut out {
        c.params.truncate(c.pred.as_ref().map_or(0, max_param));
    }
    out
}

/// The highest `$n` a predicate references (0 when none).
fn max_param(p: &PredSpec) -> usize {
    let of = |o: &Operand| match o {
        Operand::Param(n) => *n as usize,
        Operand::Lit(_) => 0,
    };
    match p {
        PredSpec::Cmp { rhs, .. } => of(rhs),
        PredSpec::Between { lo, hi, .. } => of(lo).max(of(hi)),
        PredSpec::And(ps) | PredSpec::Or(ps) => ps.iter().map(max_param).max().unwrap_or(0),
        PredSpec::Not(inner) => max_param(inner),
        PredSpec::InList { .. }
        | PredSpec::IsNull { .. }
        | PredSpec::ColCmp { .. }
        | PredSpec::DivCmp { .. } => 0,
    }
}

fn inline_params(p: &mut PredSpec, params: &[crate::case::Val]) {
    let fix = |o: &mut Operand| {
        if let Operand::Param(n) = o {
            if let Some(v) = params.get((*n - 1) as usize) {
                *o = Operand::Lit(v.clone());
            }
        }
    };
    match p {
        PredSpec::Cmp { rhs, .. } => fix(rhs),
        PredSpec::Between { lo, hi, .. } => {
            fix(lo);
            fix(hi);
        }
        PredSpec::And(ps) | PredSpec::Or(ps) => {
            for c in ps {
                inline_params(c, params);
            }
        }
        PredSpec::Not(inner) => inline_params(inner, params),
        _ => {}
    }
}

/// One-step simplifications of a predicate tree.
fn pred_candidates(p: &PredSpec) -> Vec<PredSpec> {
    let mut out = Vec::new();
    match p {
        PredSpec::And(ps) | PredSpec::Or(ps) => {
            // Each child alone.
            for c in ps {
                out.push(c.clone());
            }
            // Drop one child, keeping the connective (arity ≥ 2).
            if ps.len() > 2 {
                for i in 0..ps.len() {
                    let mut rest = ps.clone();
                    rest.remove(i);
                    out.push(match p {
                        PredSpec::And(_) => PredSpec::And(rest),
                        _ => PredSpec::Or(rest),
                    });
                }
            }
            // Simplify one child in place.
            for (i, c) in ps.iter().enumerate() {
                for cand in pred_candidates(c) {
                    let mut children = ps.clone();
                    children[i] = cand;
                    out.push(match p {
                        PredSpec::And(_) => PredSpec::And(children),
                        _ => PredSpec::Or(children),
                    });
                }
            }
        }
        PredSpec::Not(inner) => {
            out.push((**inner).clone());
            for cand in pred_candidates(inner) {
                out.push(PredSpec::Not(Box::new(cand)));
            }
        }
        PredSpec::InList {
            col,
            items,
            negated,
        } if items.len() > 1 => {
            for item in items {
                out.push(PredSpec::InList {
                    col: col.clone(),
                    items: vec![item.clone()],
                    negated: *negated,
                });
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{ColId, JoinConjunct, JoinSpec, LevelSpec, Val};

    /// A synthetic check: "fails" whenever the case still contains a query
    /// whose predicate references k1 with a `<` comparison. The shrinker
    /// must strip everything else.
    fn synthetic_fails(c: &Case) -> bool {
        c.actions.iter().any(|a| {
            let Action::Query(q) = a else { return false };
            let Some(p) = &q.pred else { return false };
            pred_has_lt_k1(p)
        })
    }

    fn pred_has_lt_k1(p: &PredSpec) -> bool {
        match p {
            PredSpec::Cmp { col, op, .. } => col.col == "k1" && op == "<",
            PredSpec::And(ps) | PredSpec::Or(ps) => ps.iter().any(pred_has_lt_k1),
            PredSpec::Not(inner) => pred_has_lt_k1(inner),
            _ => false,
        }
    }

    #[test]
    fn shrinker_reduces_generated_case_to_minimum() {
        // Find a generated case containing the synthetic "bug".
        let case = (0..500u64)
            .map(crate::gen::gen_case)
            .find(synthetic_fails)
            .expect("some seed generates a k1 < … query");
        let small = shrink(&case, &synthetic_fails);
        assert!(synthetic_fails(&small), "shrinking preserved the failure");
        assert_eq!(small.tables.len(), 1, "one table survives");
        assert!(
            small.tables[0].rows.len() <= 10,
            "rows minimized: {}",
            small.tables[0].rows.len()
        );
        let total_pieces: usize = small.tables[0]
            .levels
            .iter()
            .map(|l| match l {
                LevelSpec::Range { count, .. } => *count as usize,
                LevelSpec::List {
                    groups,
                    has_default,
                } => groups.len() + *has_default as usize,
            })
            .sum();
        assert!(total_pieces <= 3, "partitions minimized: {total_pieces}");
        assert_eq!(small.actions.len(), 1, "one action survives");
        let Action::Query(q) = &small.actions[0] else {
            panic!("surviving action is the query");
        };
        // The predicate collapsed to the single failing comparison.
        assert!(
            matches!(
                q.pred.as_ref().unwrap(),
                PredSpec::Cmp { col: ColId { col, .. }, op, .. } if col == "k1" && op == "<"
            ),
            "predicate minimized to a single comparison: {:?}",
            q.pred
        );
        assert!(q.join.is_none() && q.agg.is_none());
        // The synthetic failure is adaptive-independent, so the shrinker
        // pins the axis to the first setting it probes (adaptive on).
        assert_eq!(small.adaptive, Some(true));
    }

    #[test]
    fn minimize_list_removes_all_removable() {
        let mut items: Vec<i32> = (0..37).collect();
        // Failure depends only on items 5 and 20 being present.
        minimize_list(&mut items, |c| c.contains(&5) && c.contains(&20));
        assert_eq!(items, vec![5, 20]);
    }

    #[test]
    fn inline_params_substitutes_literals() {
        let mut p = PredSpec::Cmp {
            col: ColId::new(0, "k1"),
            op: "<".into(),
            rhs: Operand::Param(1),
        };
        inline_params(&mut p, &[Val::Int(42)]);
        assert_eq!(
            p,
            PredSpec::Cmp {
                col: ColId::new(0, "k1"),
                op: "<".into(),
                rhs: Operand::Lit(Val::Int(42)),
            }
        );
    }

    #[test]
    fn candidates_drop_the_second_join_conjunct() {
        let join = JoinSpec {
            explicit: true,
            left_outer: false,
            left: ColId::new(0, "id"),
            op: "=".into(),
            right: ColId::new(1, "id"),
            second: Some(JoinConjunct {
                left: ColId::new(0, "v"),
                op: "=".into(),
                right: ColId::new(1, "v"),
            }),
        };
        let q = QuerySpec {
            tables: vec![0, 1],
            join: Some(join.clone()),
            extra_joins: vec![],
            pred: None,
            agg: None,
            params: vec![],
            static_prunable: false,
        };
        let one_key = JoinSpec {
            second: None,
            ..join
        };
        assert!(query_candidates(&q)
            .iter()
            .any(|c| c.join.as_ref() == Some(&one_key) && c.tables == q.tables));
    }

    #[test]
    fn candidates_drop_params_their_predicate_no_longer_uses() {
        let cmp = |col: &str, rhs| PredSpec::Cmp {
            col: ColId::new(0, col),
            op: "<".into(),
            rhs,
        };
        let q = QuerySpec {
            tables: vec![0],
            join: None,
            extra_joins: vec![],
            pred: Some(PredSpec::And(vec![
                cmp("k1", Operand::Param(1)),
                cmp("k2", Operand::Param(2)),
            ])),
            agg: None,
            params: vec![Val::Int(1), Val::Int(2)],
            static_prunable: false,
        };
        let cands = query_candidates(&q);
        let with_pred = |p: PredSpec| cands.iter().find(|c| c.pred.as_ref() == Some(&p)).unwrap();
        // Keeping only `$2` keeps `$1`'s value too: arity is the highest `$n`.
        assert_eq!(with_pred(cmp("k2", Operand::Param(2))).params.len(), 2);
        // Dropping the last use of `$2` drops its value.
        assert_eq!(
            with_pred(cmp("k1", Operand::Param(1))).params,
            vec![Val::Int(1)]
        );
    }
}
