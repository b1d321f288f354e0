//! Seeded random workload generation.
//!
//! One seed deterministically produces one [`Case`]: tables with single-
//! and multi-level range/list partitioning (with DEFAULT partitions),
//! seeded rows, and an action stream interleaving SELECTs (filters with
//! AND/OR/BETWEEN/IN/NULLs, equi- and non-equi joins up to three-way for
//! the join-order enumerator, aggregates, prepared-statement parameters),
//! INSERTs, ANALYZE and ALTER TABLE ADD/DROP PARTITION — including
//! deliberate negative actions (dropping unknown partitions, inserting
//! unroutable rows) so error kinds get diffed too.
//!
//! The generator keeps a shadow [`Oracle`] in sync with the actions it
//! emits, so data and DDL stay valid against the *evolving* piece set
//! while staying independent of the engine's catalog.

use crate::case::{
    Action, AggCallSpec, AggSpec, AlterKind, Case, ColId, ColTy, JoinConjunct, JoinSpec, LevelSpec,
    Operand, PredSpec, QuerySpec, TableSpec, Val,
};
use crate::oracle::{Oracle, RefPiece};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: &[&str] = &["a", "b", "c", "d", "e", "f", "g", "h"];
const CMP_OPS: &[&str] = &["=", "<>", "<", "<=", ">", ">="];
/// Ops whose f*_T derivation is exact (no `<>`).
const STATIC_OPS: &[&str] = &["=", "<", "<=", ">", ">="];

/// Generate the case for one seed.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &mut rng;

    let segments = g.gen_range(2usize..=4);
    let n_tables = g.gen_range(1usize..=3);
    let mut tables = Vec::with_capacity(n_tables);
    let mut shadow = Oracle::new();
    for t in 0..n_tables {
        let spec = gen_table(g, t);
        shadow.create_table(&spec).expect("generated names unique");
        shadow
            .insert(&spec.name, &spec.rows)
            .expect("generated rows route");
        tables.push(spec);
    }

    let mut alter_counter = 0u32;
    let n_actions = g.gen_range(4usize..=10);
    let mut actions = Vec::with_capacity(n_actions);
    for _ in 0..n_actions {
        let roll = g.gen_range(0u32..100);
        let action = if roll < 20 {
            gen_alter(g, &tables, &mut shadow, &mut alter_counter)
        } else if roll < 28 {
            // ANALYZE between queries: statistics may switch the optimizer
            // between plans, never change results.
            Some(Action::Analyze {
                table: g.gen_range(0usize..tables.len()),
            })
        } else if roll < 50 {
            gen_insert(g, &tables, &mut shadow)
        } else {
            Some(Action::Query(Box::new(gen_query(g, &tables, &shadow))))
        };
        match action {
            Some(a) => actions.push(a),
            // Fall back to a query when no alter/insert is possible.
            None => actions.push(Action::Query(Box::new(gen_query(g, &tables, &shadow)))),
        }
    }

    Case {
        seed,
        segments,
        // Generated cases always exercise the full adaptive axis; the
        // shrinker pins one setting only when a failure reproduces there.
        adaptive: None,
        tables,
        actions,
    }
}

fn gen_table(g: &mut StdRng, idx: usize) -> TableSpec {
    let n_levels = match g.gen_range(0u32..100) {
        0..=14 => 0,
        15..=69 => 1,
        _ => 2,
    };
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        if g.gen_range(0u32..100) < 60 {
            let every = *pick(g, &[5i64, 10, 20]);
            let start = g.gen_range(-2i64..=2) * every;
            let count = g.gen_range(2u32..=6);
            levels.push(LevelSpec::Range {
                start,
                every,
                count,
            });
        } else {
            // Partition a prefix of the vocabulary into 2..=4 groups.
            let used = g.gen_range(3usize..=VOCAB.len());
            let n_groups = g.gen_range(2usize..=4.min(used));
            let mut groups: Vec<Vec<String>> = vec![Vec::new(); n_groups];
            for (i, word) in VOCAB[..used].iter().enumerate() {
                groups[i % n_groups].push((*word).to_string());
            }
            levels.push(LevelSpec::List {
                groups,
                has_default: g.gen_range(0u32..100) < 50,
            });
        }
    }
    let mut spec = TableSpec {
        name: format!("t{idx}"),
        levels,
        rows: Vec::new(),
    };
    let n_rows = g.gen_range(0usize..=60);
    let mut next_id = 1i64;
    for _ in 0..n_rows {
        let row = gen_row(g, &spec, &mut next_id, false);
        spec.rows.push(row);
    }
    spec
}

/// Generate one routable row for `spec`'s *creation-time* levels (used
/// for the initial load; mid-workload inserts use the shadow oracle's
/// live pieces instead).
fn gen_row(g: &mut StdRng, spec: &TableSpec, next_id: &mut i64, force_uncovered: bool) -> Vec<Val> {
    let mut row = vec![Val::Int(*next_id)];
    *next_id += 1;
    for level in &spec.levels {
        row.push(match level {
            LevelSpec::Range {
                start,
                every,
                count,
            } => {
                let end = start + every * (*count as i64);
                if force_uncovered {
                    Val::Int(end + g.gen_range(1i64..=20))
                } else {
                    Val::Int(g.gen_range(*start..end))
                }
            }
            LevelSpec::List {
                groups,
                has_default,
            } => {
                if force_uncovered || (*has_default && g.gen_range(0u32..100) < 15) {
                    Val::Str(format!("z{}", g.gen_range(0u32..3)))
                } else {
                    let flat: Vec<&String> = groups.iter().flatten().collect();
                    Val::Str(pick(g, &flat).to_string())
                }
            }
        });
    }
    row.push(gen_v(g));
    row.push(gen_s(g));
    row
}

fn gen_v(g: &mut StdRng) -> Val {
    // High NULL weight on purpose: nullable columns now keep their typed
    // representation (validity bitmaps), and the differential suites must
    // exercise the 3VL mask/agg/hash kernels, not just null-free lanes.
    // About one value in ten is wide (±10^9 plus a small offset): keys
    // that far apart push the executor's typed index off its
    // direct-mapped form, while 60-row sums stay far from `i64` overflow.
    if g.gen_range(0u32..100) < 40 {
        Val::Null
    } else if g.gen_range(0u32..10) == 0 {
        let wide = if g.gen_range(0u32..2) == 0 { 1 } else { -1 } * 1_000_000_000;
        Val::Int(wide + g.gen_range(-5i64..15))
    } else {
        Val::Int(g.gen_range(-5i64..15))
    }
}

fn gen_s(g: &mut StdRng) -> Val {
    if g.gen_range(0u32..100) < 35 {
        Val::Null
    } else {
        Val::Str(pick(g, VOCAB).to_string())
    }
}

fn pick<'a, T>(g: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[g.gen_range(0usize..items.len())]
}

/// Generate an ALTER against the live level-0 piece set; ~20% of emitted
/// alters are deliberate negatives (unknown names, duplicates).
fn gen_alter(
    g: &mut StdRng,
    tables: &[TableSpec],
    shadow: &mut Oracle,
    counter: &mut u32,
) -> Option<Action> {
    let candidates: Vec<usize> = (0..tables.len())
        .filter(|&t| !tables[t].levels.is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let t = *pick(g, &candidates);
    let table = &tables[t];
    let live = shadow.table(&table.name).ok()?.levels[0].pieces.clone();
    let is_range = matches!(table.levels[0], LevelSpec::Range { .. });

    let roll = g.gen_range(0u32..100);
    let kind = if roll < 10 {
        // Negative: drop a partition that does not exist.
        AlterKind::Drop {
            name: format!("nosuch{}", g.gen_range(0u32..100)),
        }
    } else if roll < 20 && !live.is_empty() {
        // Negative: re-add an existing piece name.
        let name = pick(g, &live).name().to_string();
        if is_range {
            AlterKind::AddRange {
                name,
                lo: 1000,
                hi: 1010,
            }
        } else {
            AlterKind::AddList {
                name,
                vals: vec![format!("q{}", g.gen_range(0u32..10))],
            }
        }
    } else if roll < 55 {
        // Add a fresh piece past the current coverage.
        *counter += 1;
        if is_range {
            let max_hi = live
                .iter()
                .filter_map(|p| match p {
                    RefPiece::Range { hi, .. } => Some(*hi),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let width = g.gen_range(1i64..=3) * 10;
            AlterKind::AddRange {
                name: format!("a{counter}"),
                lo: max_hi,
                hi: max_hi + width,
            }
        } else {
            AlterKind::AddList {
                name: format!("a{counter}"),
                vals: vec![format!("n{counter}")],
            }
        }
    } else {
        // Drop an existing piece (occasionally the last one → error).
        AlterKind::Drop {
            name: pick(g, &live).name().to_string(),
        }
    };
    // Keep the shadow in sync; errors are fine — the harness diffs them.
    let _ = shadow.alter(&table.name, &kind);
    Some(Action::Alter { table: t, kind })
}

fn gen_insert(g: &mut StdRng, tables: &[TableSpec], shadow: &mut Oracle) -> Option<Action> {
    let t = g.gen_range(0usize..tables.len());
    let table = &tables[t];
    let live = shadow.table(&table.name).ok()?.clone();
    let max_id = live
        .rows
        .iter()
        .filter_map(|(r, _)| r.values().first().and_then(|d| d.as_i64().ok()))
        .max()
        .unwrap_or(0);
    let mut next_id = max_id + 1;

    // ~12%: a single deliberately unroutable row (expected
    // no_matching_partition), when the live pieces leave a gap.
    if g.gen_range(0u32..100) < 12 {
        if let Some(row) = gen_unroutable_row(g, &live, &mut next_id) {
            let rows = vec![row];
            let _ = shadow.insert(&table.name, &rows);
            return Some(Action::Insert { table: t, rows });
        }
    }
    let n = g.gen_range(1usize..=8);
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(gen_live_row(g, &live, &mut next_id)?);
    }
    shadow
        .insert(&table.name, &rows)
        .expect("live rows must route");
    Some(Action::Insert { table: t, rows })
}

/// A row routed against the *live* piece set (post-ALTER).
fn gen_live_row(
    g: &mut StdRng,
    live: &crate::oracle::RefTable,
    next_id: &mut i64,
) -> Option<Vec<Val>> {
    let mut row = vec![Val::Int(*next_id)];
    *next_id += 1;
    for level in &live.levels {
        let piece = pick(g, &level.pieces);
        row.push(match piece {
            RefPiece::Range { lo, hi, .. } => Val::Int(g.gen_range(*lo..*hi)),
            RefPiece::List { vals, .. } => Val::Str(pick(g, vals).clone()),
            RefPiece::Default { .. } => Val::Str(format!("z{}", g.gen_range(0u32..3))),
        });
    }
    row.push(gen_v(g));
    row.push(gen_s(g));
    Some(row)
}

/// A row no live piece accepts, if the piece set leaves a gap.
fn gen_unroutable_row(
    g: &mut StdRng,
    live: &crate::oracle::RefTable,
    next_id: &mut i64,
) -> Option<Vec<Val>> {
    // Find a level with no default piece; miss it, cover the rest.
    let target = live
        .levels
        .iter()
        .position(|l| l.default_index().is_none())?;
    let mut row = vec![Val::Int(*next_id)];
    *next_id += 1;
    for (i, level) in live.levels.iter().enumerate() {
        if i == target {
            let max_hi = level
                .pieces
                .iter()
                .filter_map(|p| match p {
                    RefPiece::Range { hi, .. } => Some(*hi),
                    _ => None,
                })
                .max();
            row.push(match max_hi {
                Some(hi) => Val::Int(hi + g.gen_range(1i64..=50)),
                None => Val::Str("~nowhere~".into()),
            });
        } else {
            let piece = pick(g, &level.pieces);
            row.push(match piece {
                RefPiece::Range { lo, hi, .. } => Val::Int(g.gen_range(*lo..*hi)),
                RefPiece::List { vals, .. } => Val::Str(pick(g, vals).clone()),
                RefPiece::Default { .. } => Val::Str(format!("z{}", g.gen_range(0u32..3))),
            });
        }
    }
    row.push(gen_v(g));
    row.push(gen_s(g));
    Some(row)
}

fn gen_query(g: &mut StdRng, tables: &[TableSpec], shadow: &Oracle) -> QuerySpec {
    let two = tables.len() >= 2 && g.gen_range(0u32..100) < 30;
    let t0 = g.gen_range(0usize..tables.len());
    let mut chosen = vec![t0];
    if two {
        let mut t1 = g.gen_range(0usize..tables.len());
        if t1 == t0 {
            t1 = (t1 + 1) % tables.len();
        }
        chosen.push(t1);
    }

    let join = if two {
        Some(gen_join(g, tables, &chosen))
    } else {
        None
    };

    // Chain any remaining tables comma-style with equi-conditions in
    // WHERE: a ≥3-relation inner-join space for the join-order
    // enumerator, while the oracle just sees more joins.
    let mut extra_joins = Vec::new();
    if two {
        for t in 0..tables.len() {
            if !chosen.contains(&t) && g.gen_range(0u32..100) < 60 {
                chosen.push(t);
                extra_joins.push(gen_extra_join(g, tables, &chosen));
            }
        }
    }

    let mut params = Vec::new();
    let single_partitioned = !two && !tables[t0].levels.is_empty();
    let want_static = single_partitioned && g.gen_range(0u32..100) < 40;
    let pred = if g.gen_range(0u32..100) < 85 {
        Some(if want_static {
            gen_static_pred(g, tables, t0, shadow, &mut params)
        } else {
            gen_general_pred(g, tables, &chosen, &mut params)
        })
    } else {
        None
    };
    let static_prunable = want_static && pred.is_some();

    let agg = if g.gen_range(0u32..100) < 35 {
        Some(gen_agg(g, tables, &chosen))
    } else {
        None
    };

    QuerySpec {
        tables: chosen,
        join,
        extra_joins,
        pred,
        agg,
        params,
        static_prunable,
    }
}

/// An equi-join chaining the most recently chosen table onto an earlier
/// one; always rendered comma-style with the condition in WHERE.
fn gen_extra_join(g: &mut StdRng, tables: &[TableSpec], chosen: &[usize]) -> JoinSpec {
    let b = *chosen.last().unwrap();
    let a = chosen[g.gen_range(0usize..chosen.len() - 1)];
    let mut pairs: Vec<(String, String)> =
        vec![("v".into(), "v".into()), ("id".into(), "id".into())];
    let (ta, tb) = (&tables[a], &tables[b]);
    for (i, la) in ta.levels.iter().enumerate() {
        for (j, lb) in tb.levels.iter().enumerate() {
            if la.key_ty() == lb.key_ty() {
                pairs.push((format!("k{}", i + 1), format!("k{}", j + 1)));
            }
        }
    }
    let (lc, rc) = pick(g, &pairs).clone();
    JoinSpec {
        explicit: false,
        left_outer: false,
        left: ColId::new(a, lc),
        op: "=".into(),
        right: ColId::new(b, rc),
        second: None,
    }
}

fn gen_join(g: &mut StdRng, tables: &[TableSpec], chosen: &[usize]) -> JoinSpec {
    let (a, b) = (chosen[0], chosen[1]);
    // Join columns must agree on type; int payloads and ids always do.
    let mut pairs: Vec<(String, String)> =
        vec![("v".into(), "v".into()), ("id".into(), "id".into())];
    let (ta, tb) = (&tables[a], &tables[b]);
    for (i, la) in ta.levels.iter().enumerate() {
        for (j, lb) in tb.levels.iter().enumerate() {
            if la.key_ty() == lb.key_ty() {
                pairs.push((format!("k{}", i + 1), format!("k{}", j + 1)));
            }
        }
    }
    if ta.col_types().last() == tb.col_types().last() {
        pairs.push(("s".into(), "s".into()));
    }
    let (lc, rc) = pick(g, &pairs).clone();
    let op = if g.gen_range(0u32..100) < 80 {
        "=".to_string()
    } else {
        pick(g, &["<", "<=", ">", ">="]).to_string()
    };
    let explicit = g.gen_range(0u32..100) < 70;
    let left_outer = explicit && op == "=" && g.gen_range(0u32..100) < 30;
    // A second conjunct: `=` makes a two-column hash key, any other
    // comparison a residual on the hash join.
    let second = (g.gen_range(0u32..100) < 40).then(|| {
        let (l2, r2) = pick(g, &pairs).clone();
        let op = if g.gen_range(0u32..100) < 50 {
            "="
        } else {
            pick(g, &["<", "<=", ">", ">=", "<>"])
        };
        JoinConjunct {
            left: ColId::new(a, l2),
            op: op.to_string(),
            right: ColId::new(b, r2),
        }
    });
    JoinSpec {
        explicit,
        left_outer,
        left: ColId::new(a, lc),
        op,
        right: ColId::new(b, rc),
        second,
    }
}

/// A predicate over only the partition-key columns of `t`, restricted to
/// the exactly-analyzable forms (so f*_T is minimal and the harness can
/// assert the static upper bound).
fn gen_static_pred(
    g: &mut StdRng,
    tables: &[TableSpec],
    t: usize,
    shadow: &Oracle,
    params: &mut Vec<Val>,
) -> PredSpec {
    let n = g.gen_range(1usize..=3);
    let mut leaves = Vec::with_capacity(n);
    for _ in 0..n {
        leaves.push(gen_static_leaf(g, tables, t, shadow, params));
    }
    if leaves.len() == 1 {
        leaves.pop().unwrap()
    } else if g.gen_range(0u32..100) < 50 {
        PredSpec::And(leaves)
    } else {
        PredSpec::Or(leaves)
    }
}

fn gen_static_leaf(
    g: &mut StdRng,
    tables: &[TableSpec],
    t: usize,
    shadow: &Oracle,
    params: &mut Vec<Val>,
) -> PredSpec {
    let table = &tables[t];
    let lvl = g.gen_range(0usize..table.levels.len());
    let col = ColId::new(t, format!("k{}", lvl + 1));
    let live_pieces = shadow
        .table(&table.name)
        .ok()
        .map(|rt| {
            rt.levels
                .get(lvl)
                .map(|l| l.pieces.clone())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    match table.levels[lvl].key_ty() {
        ColTy::Int => {
            // Values around the live coverage so selections are partial.
            let (lo, hi) = live_pieces
                .iter()
                .filter_map(|p| match p {
                    RefPiece::Range { lo, hi, .. } => Some((*lo, *hi)),
                    _ => None,
                })
                .fold((0i64, 10i64), |(a, b), (lo, hi)| (a.min(lo), b.max(hi)));
            let span = (hi - lo).max(1);
            let v = lo - span / 4 + g.gen_range(0..span + span / 2);
            match g.gen_range(0u32..100) {
                0..=49 => PredSpec::Cmp {
                    col,
                    op: pick(g, STATIC_OPS).to_string(),
                    rhs: gen_operand(g, Val::Int(v), params),
                },
                50..=74 => {
                    let w = g.gen_range(1i64..=span / 2 + 1);
                    PredSpec::Between {
                        col,
                        lo: gen_operand(g, Val::Int(v), params),
                        hi: gen_operand(g, Val::Int(v + w), params),
                        negated: false,
                    }
                }
                _ => {
                    let k = g.gen_range(1usize..=3);
                    let items = (0..k)
                        .map(|_| Val::Int(lo + g.gen_range(0..span + 2)))
                        .collect();
                    PredSpec::InList {
                        col,
                        items,
                        negated: false,
                    }
                }
            }
        }
        ColTy::Str => {
            let mut vals: Vec<String> = live_pieces
                .iter()
                .flat_map(|p| match p {
                    RefPiece::List { vals, .. } => vals.clone(),
                    _ => vec![format!("z{}", g.gen_range(0u32..3))],
                })
                .collect();
            if vals.is_empty() {
                vals.push("a".into());
            }
            if g.gen_range(0u32..100) < 60 {
                let v = Val::Str(pick(g, &vals).clone());
                PredSpec::Cmp {
                    col,
                    op: "=".into(),
                    rhs: gen_operand(g, v, params),
                }
            } else {
                let k = g.gen_range(1usize..=3.min(vals.len()));
                let items = (0..k).map(|_| Val::Str(pick(g, &vals).clone())).collect();
                PredSpec::InList {
                    col,
                    items,
                    negated: false,
                }
            }
        }
    }
}

/// 20% of leaf operands become `$n` prepared-statement parameters.
fn gen_operand(g: &mut StdRng, v: Val, params: &mut Vec<Val>) -> Operand {
    if g.gen_range(0u32..100) < 20 {
        params.push(v);
        Operand::Param(params.len() as u32)
    } else {
        Operand::Lit(v)
    }
}

fn gen_general_pred(
    g: &mut StdRng,
    tables: &[TableSpec],
    chosen: &[usize],
    params: &mut Vec<Val>,
) -> PredSpec {
    let depth_roll = g.gen_range(0u32..100);
    let n = if depth_roll < 40 {
        1
    } else {
        g.gen_range(2usize..=3)
    };
    let mut leaves = Vec::with_capacity(n);
    for _ in 0..n {
        let mut leaf = gen_leaf(g, tables, chosen, params);
        if g.gen_range(0u32..100) < 10 {
            leaf = PredSpec::Not(Box::new(leaf));
        }
        leaves.push(leaf);
    }
    if leaves.len() == 1 {
        leaves.pop().unwrap()
    } else if g.gen_range(0u32..100) < 55 {
        PredSpec::And(leaves)
    } else {
        PredSpec::Or(leaves)
    }
}

fn gen_leaf(
    g: &mut StdRng,
    tables: &[TableSpec],
    chosen: &[usize],
    params: &mut Vec<Val>,
) -> PredSpec {
    let t = *pick(g, chosen);
    let table = &tables[t];
    let names = table.col_names();
    let tys = table.col_types();
    let c = g.gen_range(0usize..names.len());
    let col = ColId::new(t, names[c].clone());
    let int_val = |g: &mut StdRng| Val::Int(g.gen_range(-10i64..70));
    match g.gen_range(0u32..100) {
        // Rare division hazard: `10 / v = k` errors when v = 0.
        0..=4 => PredSpec::DivCmp {
            num: 10,
            den: ColId::new(t, "v"),
            rhs: g.gen_range(-2i64..=5),
        },
        5..=14 => PredSpec::IsNull {
            col,
            negated: g.gen_range(0u32..100) < 40,
        },
        15..=29 => {
            // Column-column comparison within or across chosen tables.
            let t2 = *pick(g, chosen);
            let tys2 = tables[t2].col_types();
            let names2 = tables[t2].col_names();
            let int_cols2: Vec<&String> = names2
                .iter()
                .zip(&tys2)
                .filter(|(_, ty)| **ty == ColTy::Int)
                .map(|(n, _)| n)
                .collect();
            let int_cols: Vec<&String> = names
                .iter()
                .zip(&tys)
                .filter(|(_, ty)| **ty == ColTy::Int)
                .map(|(n, _)| n)
                .collect();
            PredSpec::ColCmp {
                left: ColId::new(t, pick(g, &int_cols).to_string()),
                op: pick(g, CMP_OPS).to_string(),
                right: ColId::new(t2, pick(g, &int_cols2).to_string()),
            }
        }
        30..=64 => {
            let v = match tys[c] {
                ColTy::Int => int_val(g),
                ColTy::Str => Val::Str(pick(g, VOCAB).to_string()),
            };
            PredSpec::Cmp {
                col,
                op: pick(g, CMP_OPS).to_string(),
                rhs: gen_operand(g, v, params),
            }
        }
        65..=79 => match tys[c] {
            ColTy::Int => {
                let lo = g.gen_range(-10i64..50);
                let w = g.gen_range(0i64..30);
                PredSpec::Between {
                    col,
                    lo: gen_operand(g, Val::Int(lo), params),
                    hi: gen_operand(g, Val::Int(lo + w), params),
                    negated: g.gen_range(0u32..100) < 25,
                }
            }
            ColTy::Str => {
                let v = Val::Str(pick(g, VOCAB).to_string());
                PredSpec::Cmp {
                    col,
                    op: "=".into(),
                    rhs: gen_operand(g, v, params),
                }
            }
        },
        _ => {
            let k = g.gen_range(1usize..=4);
            let mut items: Vec<Val> = (0..k)
                .map(|_| match tys[c] {
                    ColTy::Int => int_val(g),
                    ColTy::Str => Val::Str(pick(g, VOCAB).to_string()),
                })
                .collect();
            // Occasionally slip a NULL into the list (3VL coverage).
            if g.gen_range(0u32..100) < 15 {
                items.push(Val::Null);
            }
            PredSpec::InList {
                col,
                items,
                negated: g.gen_range(0u32..100) < 30,
            }
        }
    }
}

fn gen_agg(g: &mut StdRng, tables: &[TableSpec], chosen: &[usize]) -> AggSpec {
    let t = chosen[0];
    let table = &tables[t];
    let group_by = if g.gen_range(0u32..100) < 60 {
        let candidates: Vec<String> = {
            let mut v: Vec<String> = (0..table.levels.len())
                .map(|i| format!("k{}", i + 1))
                .collect();
            v.push("s".into());
            v.push("v".into());
            // The distribution key: its GROUP BY is co-located, so the
            // aggregate runs in the scan's slice, fused with it.
            v.push("id".into());
            v
        };
        Some(ColId::new(t, pick(g, &candidates).clone()))
    } else {
        None
    };
    let n = g.gen_range(1usize..=3);
    let mut calls = Vec::with_capacity(n);
    for _ in 0..n {
        calls.push(match g.gen_range(0u32..100) {
            0..=24 => AggCallSpec {
                func: "count".into(),
                arg: None,
            },
            25..=39 => AggCallSpec {
                func: "count".into(),
                arg: Some(ColId::new(t, "v")),
            },
            40..=59 => AggCallSpec {
                func: "sum".into(),
                arg: Some(ColId::new(t, "v")),
            },
            60..=74 => AggCallSpec {
                func: "avg".into(),
                arg: Some(ColId::new(t, "v")),
            },
            75..=87 => AggCallSpec {
                func: "min".into(),
                arg: Some(ColId::new(t, "id")),
            },
            _ => AggCallSpec {
                func: "max".into(),
                arg: Some(ColId::new(t, "id")),
            },
        });
    }
    AggSpec { group_by, calls }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 9999] {
            assert_eq!(gen_case(seed), gen_case(seed));
        }
    }

    /// The join-order and statistics axes must actually be exercised:
    /// across 500 seeds, a healthy share of cases carry ANALYZE actions
    /// and ≥3-relation join queries.
    #[test]
    fn generator_covers_analyze_and_multiway_joins() {
        let (mut analyzes, mut multiway) = (0usize, 0usize);
        for seed in 0..500u64 {
            for a in &gen_case(seed).actions {
                match a {
                    Action::Analyze { .. } => analyzes += 1,
                    Action::Query(q) if !q.extra_joins.is_empty() => {
                        assert_eq!(
                            q.tables.len(),
                            2 + q.extra_joins.len(),
                            "extra_joins[k] chains tables[k + 2]"
                        );
                        multiway += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(analyzes > 50, "ANALYZE actions generated: {analyzes}");
        assert!(multiway > 20, "3-way join queries generated: {multiway}");
    }

    /// The hash join's two-column keys and residuals come from a second
    /// `ON` conjunct: both kinds must be generated, on inner and outer
    /// joins alike. So must a single-table `GROUP BY id`: grouping on the
    /// distribution key is the only aggregate fused with its scan.
    #[test]
    fn generator_covers_two_column_keys_and_residuals() {
        let (mut two_keys, mut residuals, mut outer) = (0usize, 0usize, 0usize);
        let mut colocated_aggs = 0usize;
        for seed in 0..500u64 {
            for a in &gen_case(seed).actions {
                let Action::Query(q) = a else { continue };
                let by_id = q
                    .agg
                    .as_ref()
                    .and_then(|agg| agg.group_by.as_ref())
                    .is_some_and(|c| c.col == "id");
                colocated_aggs += usize::from(by_id && q.tables.len() == 1);
                let Some(j) = &q.join else { continue };
                let Some(c) = &j.second else { continue };
                assert_eq!((c.left.table, c.right.table), (q.tables[0], q.tables[1]));
                if c.op == "=" {
                    two_keys += 1;
                } else {
                    residuals += 1;
                }
                outer += usize::from(j.left_outer);
            }
        }
        assert!(two_keys > 20, "two-column keys generated: {two_keys}");
        assert!(residuals > 20, "residuals generated: {residuals}");
        assert!(outer > 5, "outer joins with a second conjunct: {outer}");
        assert!(
            colocated_aggs > 20,
            "single-table GROUP BY id generated: {colocated_aggs}"
        );
    }

    #[test]
    fn cases_round_trip_and_render() {
        for seed in 0..20u64 {
            let case = gen_case(seed);
            let decoded = Case::decode(&case.encode()).unwrap();
            assert_eq!(decoded, case, "seed {seed} round trip");
            for t in &case.tables {
                assert!(t.create_sql().starts_with("CREATE TABLE "));
            }
            for a in &case.actions {
                if let Action::Query(q) = a {
                    assert!(q.sql(&case.tables).starts_with("SELECT "));
                }
            }
        }
    }
}
