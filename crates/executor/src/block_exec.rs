//! The vectorized (block) execution engine.
//!
//! `exec_block` mirrors the row engine's `exec` operator for operator, but
//! the payload between operators is a list of columnar
//! [`mpp_common::RowBlock`] chunks instead of `Vec<Row>`:
//!
//! * scans hand out the storage blocks themselves (refcounted columns —
//!   no per-row materialization) through `scan_blocks`, which the fused
//!   morsel driver (`morsel.rs`) calls too,
//! * filters refine a block's **selection vector** in place of copying
//!   surviving rows,
//! * projections and join-key extraction evaluate column-at-a-time via
//!   [`mpp_expr::CompiledExpr::eval_column_strict`],
//! * the hash join concatenates only its build side and probes chunk by
//!   chunk: `i64` keys through the shared `TypedIndex` (`typed_key.rs`)
//!   when every key column is an integer column, datum keys otherwise,
//!   candidates in build order, a residual evaluated columnar over each
//!   chunk's candidate pairs, one output block,
//! * aggregation (`hash_agg_blocks`, also the fused driver's) folds the
//!   child's chunks, in order, through one instance of the typed kernel
//!   (`agg_kernel.rs`) — no `Vec<Datum>` per row,
//! * a Motion reads its share of the stage driver's chunk lists through
//!   `read_motion`, which the row engine's Motion arm calls too: Broadcast
//!   destinations share the same materialization (column `Arc` bumps),
//!   Redistribute routes every row once per Motion into per-destination
//!   selections,
//! * the per-tuple `PartitionSelector` probe reads block columns
//!   directly and routes to a dedup'd OID set.
//!
//! Semantics are **exactly** the row engine's. Wherever strict batch
//! evaluation cannot reproduce row-at-a-time behavior (a row error mid
//! block, a multi-expression site whose first error depends on row-major
//! order), the affected block falls back to row-wise evaluation, and the
//! fallback is counted in [`crate::stats::SegmentStats::rows_row_fallback`].
//! A hash join evaluates every key of both sides before it probes, and
//! one strict key failure re-runs the whole join on the row engine.
//! Nested-loops joins run row-wise (their predicate short-circuits per
//! pair). Init plans and DML target subtrees never run on this engine:
//! the driver runs them on the row engine.

use crate::agg_kernel::{AggSpec, Finalized, PartialAgg};
use crate::context::ExecContext;
use crate::exec::{compiled, exec, hash_join, nl_join, AggExec, TupleSelector};
use crate::stats::SegmentStats;
use crate::typed_key::{BlockCol, IntCol, TypedIndex};
use mpp_common::{ColumnVec, Datum, Error, Result, Row, RowBlock, SegmentId};
use mpp_expr::{CompiledExpr, Expr};
use mpp_plan::{JoinType, MotionKind, PhysicalPlan};
use mpp_storage::{PhysId, Storage};
use std::collections::HashMap;
use std::sync::Arc;

/// Flatten chunk lists back into rows (operator fallbacks and the root).
pub(crate) fn blocks_to_rows(chunks: &[RowBlock]) -> Vec<Row> {
    chunks.iter().flat_map(|b| b.to_rows()).collect()
}

/// Wrap a row-engine result back into (at most one) chunk.
pub(crate) fn rows_to_chunks(rows: Vec<Row>, width: usize) -> Vec<RowBlock> {
    if rows.is_empty() {
        Vec::new()
    } else {
        vec![RowBlock::from_rows(&rows, width)]
    }
}

/// Evaluate one subtree on one segment, block-at-a-time.
pub(crate) fn exec_block(
    plan: &PhysicalPlan,
    seg: SegmentId,
    storage: &Storage,
    ctx: &ExecContext<'_>,
) -> Result<Vec<RowBlock>> {
    match plan {
        PhysicalPlan::TableScan { output, filter, .. }
        | PhysicalPlan::PartScan { output, filter, .. }
        | PhysicalPlan::DynamicScan { output, filter, .. } => {
            let chunks = scan_blocks(plan, seg, storage, ctx, &mut ctx.seg_stats(seg))?;
            filter_blocks(chunks, filter.as_ref(), output, seg, ctx)
        }

        PhysicalPlan::PartitionSelector {
            table,
            part_scan_id,
            part_keys,
            predicates,
            child,
            ..
        } => match child {
            None => {
                // Static selection has no tuple flow; share the row
                // engine's arm (it counts the selector run itself).
                exec(plan, seg, storage, ctx)?;
                Ok(Vec::new())
            }
            Some(child) => {
                ctx.seg_stats(seg).selector_runs += 1;
                // Borrowed, not `Catalog::part_tree`: that deep-clones the tree.
                let desc = storage.catalog().table(*table)?;
                let tree = desc.part_tree()?;
                let chunks = exec_block(child, seg, storage, ctx)?;
                ctx.mark_selector_ran(*part_scan_id, seg);
                let child_cols = child.output_cols();
                let mut sel = TupleSelector::prepare(tree, part_keys, predicates, &child_cols)?;
                let mut propagate =
                    |oids: Vec<mpp_common::PartOid>| ctx.propagate_parts(*part_scan_id, seg, oids);
                let mut n = 0u64;
                for b in &chunks {
                    for k in 0..b.len() {
                        sel.observe(&|i| b.datum_at(k, i), ctx, &mut propagate)?;
                    }
                    n += b.len() as u64;
                }
                ctx.seg_stats(seg).rows_vectorized += n;
                Ok(chunks)
            }
        },

        PhysicalPlan::Sequence { children } => {
            let mut last = Vec::new();
            for c in children {
                last = exec_block(c, seg, storage, ctx)?;
            }
            Ok(last)
        }

        PhysicalPlan::Filter { pred, child } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            filter_blocks(chunks, Some(pred), &cols, seg, ctx)
        }

        PhysicalPlan::Project { exprs, child, .. } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let exprs: Vec<Arc<CompiledExpr>> =
                exprs.iter().map(|e| compiled(e, &cols, ctx)).collect();
            let mut out = Vec::with_capacity(chunks.len());
            for b in chunks {
                let nb = project_block(&exprs, &b, seg, ctx)?;
                if !nb.is_empty() {
                    ctx.seg_stats(seg).blocks_produced += 1;
                    out.push(nb);
                }
            }
            Ok(out)
        }

        PhysicalPlan::HashJoin {
            join_type,
            left_keys,
            right_keys,
            residual,
            left,
            right,
        } => {
            let l_chunks = exec_block(left, seg, storage, ctx)?;
            let r_chunks = exec_block(right, seg, storage, ctx)?;
            block_hash_join(
                *join_type, left_keys, right_keys, residual, left, right, l_chunks, r_chunks, seg,
                ctx,
            )
        }

        PhysicalPlan::NLJoin {
            join_type,
            pred,
            left,
            right,
        } => {
            // Nested loops short-circuit per pair; evaluated row-wise.
            let l_rows = blocks_to_rows(&exec_block(left, seg, storage, ctx)?);
            let r_rows = blocks_to_rows(&exec_block(right, seg, storage, ctx)?);
            ctx.seg_stats(seg).rows_row_fallback += (l_rows.len() + r_rows.len()) as u64;
            let rows = nl_join(*join_type, pred, left, right, l_rows, r_rows, ctx)?;
            Ok(rows_to_chunks(rows, plan.output_cols().len()))
        }

        PhysicalPlan::HashAgg { child, .. } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            hash_agg_blocks(plan, &chunks, seg, ctx)
        }

        PhysicalPlan::Motion { kind, child } => read_motion(plan, kind, child, seg, storage, ctx),

        PhysicalPlan::Append { children, .. } => {
            let mut out = Vec::new();
            for c in children {
                out.extend(exec_block(c, seg, storage, ctx)?);
            }
            Ok(out)
        }

        // Published by the driver before the main plan runs.
        PhysicalPlan::InitPlanOids { .. } => Ok(Vec::new()),

        PhysicalPlan::Values { rows, output } => {
            if seg == SegmentId(0) && !rows.is_empty() {
                let built: Vec<Row> = rows.iter().cloned().map(Row::new).collect();
                let width = if output.is_empty() {
                    built.first().map_or(0, |r| r.len())
                } else {
                    output.len()
                };
                Ok(vec![RowBlock::from_rows(&built, width)])
            } else {
                Ok(Vec::new())
            }
        }

        PhysicalPlan::Limit { n, child } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            let mut remaining = *n as usize;
            let mut out = Vec::new();
            for mut b in chunks {
                if remaining == 0 {
                    break;
                }
                if b.len() > remaining {
                    b.truncate(remaining);
                }
                remaining -= b.len();
                out.push(b);
            }
            Ok(out)
        }

        PhysicalPlan::Sort { keys, child } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let block = RowBlock::concat(&chunks, cols.len());
            if block.is_empty() {
                return Ok(Vec::new());
            }
            let positions: Vec<(usize, bool)> = keys
                .iter()
                .map(|(k, desc)| {
                    cols.iter()
                        .position(|c| c == k)
                        .map(|i| (i, *desc))
                        .ok_or_else(|| Error::Execution(format!("sort column {k} missing")))
                })
                .collect::<Result<_>>()?;
            // Materialize the key columns once; the comparator then never
            // reconstructs datums.
            let keymat: Vec<Vec<Datum>> = positions
                .iter()
                .map(|&(i, _)| (0..block.len()).map(|k| block.datum_at(k, i)).collect())
                .collect();
            let mut idx: Vec<u32> = (0..block.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                for (kv, &(_, desc)) in keymat.iter().zip(&positions) {
                    let ord = kv[a as usize].cmp(&kv[b as usize]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let phys: Vec<u32> = idx
                .iter()
                .map(|&k| block.phys_index(k as usize) as u32)
                .collect();
            let sorted: Vec<Arc<ColumnVec>> = block
                .columns()
                .iter()
                .map(|c| Arc::new(c.gather(&phys)))
                .collect();
            ctx.seg_stats(seg).rows_vectorized += block.len() as u64;
            Ok(vec![RowBlock::from_columns(sorted, phys.len())])
        }

        PhysicalPlan::Update { .. } | PhysicalPlan::Delete { .. } | PhysicalPlan::Insert { .. } => {
            Err(Error::Execution(
                "DML must be the plan root (executed via exec_dml)".into(),
            ))
        }
    }
}

/// The non-empty stored blocks a scan node reads on `seg`, unfiltered,
/// with the scan recorded into `stats`. A gated-out `PartScan` reads and
/// records nothing; a `DynamicScan` reads the OIDs its selector
/// propagated, narrowed by `restrict`. Shared by [`exec_block`]'s scan
/// arms and the fused morsel driver.
pub(crate) fn scan_blocks(
    plan: &PhysicalPlan,
    seg: SegmentId,
    storage: &Storage,
    ctx: &ExecContext<'_>,
    stats: &mut SegmentStats,
) -> Result<Vec<RowBlock>> {
    let (table, oids) = match plan {
        PhysicalPlan::TableScan { table, .. } => {
            let block = storage.scan_block(PhysId::Table(*table), seg);
            stats.record_table_scan(*table, block.as_ref().map_or(0, |b| b.len()));
            return Ok(block.into_iter().filter(|b| !b.is_empty()).collect());
        }
        PhysicalPlan::PartScan {
            table, part, gate, ..
        } => {
            ctx.check_cancel()?;
            if let Some(g) = gate {
                if !ctx.oid_param_contains(*g, *part)? {
                    return Ok(Vec::new());
                }
            }
            (table, vec![*part])
        }
        PhysicalPlan::DynamicScan {
            table,
            part_scan_id,
            restrict,
            ..
        } => {
            let mut oids = ctx.consume_parts(*part_scan_id, seg)?;
            // Adaptive group branch: scan only the selector-propagated OIDs
            // that fall inside this branch's partition group.
            if let Some(keep) = restrict {
                oids.retain(|oid| keep.contains(oid));
            }
            (table, oids)
        }
        _ => {
            return Err(Error::Internal(
                "scan_blocks reached a non-scan node".into(),
            ))
        }
    };
    let scans = storage.scan_batch_blocks(oids.iter().map(|&oid| PhysId::Part(oid)), seg);
    let mut chunks = Vec::new();
    for (oid, (_, block)) in oids.iter().zip(scans) {
        ctx.check_cancel()?;
        stats.record_part_scan(*table, *oid, block.as_ref().map_or(0, |b| b.len()));
        chunks.extend(block.filter(|b| !b.is_empty()));
    }
    Ok(chunks)
}

/// The `HashAgg` arm over a segment's already-computed child chunks: one
/// typed kernel instance absorbs them in order, so a float sum is the row
/// engine's sequential fold. Shared by [`exec_block`] and the fused
/// morsel driver, which passes a segment's morsel blocks in morsel order.
pub(crate) fn hash_agg_blocks(
    agg: &PhysicalPlan,
    chunks: &[RowBlock],
    seg: SegmentId,
    ctx: &ExecContext<'_>,
) -> Result<Vec<RowBlock>> {
    let PhysicalPlan::HashAgg {
        group_by,
        aggs,
        child,
        ..
    } = agg
    else {
        return Err(Error::Internal(
            "hash_agg_blocks reached a non-HashAgg node".into(),
        ));
    };
    let mut exact = AggExec::prepare(group_by, aggs, &child.output_cols(), ctx)?;
    let spec = AggSpec::new(&exact, aggs, agg.output_cols().len());
    let mut kernel = PartialAgg::new(aggs.len());
    let mut stats = SegmentStats::default();
    let typed = match chunks
        .iter()
        .try_for_each(|b| kernel.absorb(b, &spec, &mut stats))
    {
        Ok(()) => kernel.finalize(&spec, seg),
        Err(_) => Finalized::NeedsExact,
    };
    let rows = match typed {
        Finalized::Rows(rows) => rows,
        // An argument errored, or the typed state cannot prove its
        // result: replay every chunk through the row accumulator from the
        // start, which surfaces the row-major first error (or the exact
        // value).
        Finalized::NeedsExact => {
            for b in chunks {
                for k in 0..b.len() {
                    exact.observe_row(&b.row_at_phys(b.phys_index(k)))?;
                }
            }
            exact.finalize(aggs, seg)?
        }
    };
    ctx.seg_stats(seg).absorb(stats);
    Ok(rows_to_chunks(rows, spec.width))
}

/// Apply an optional scan/filter predicate by refining each chunk's
/// selection vector. Surviving rows are never copied.
fn filter_blocks(
    chunks: Vec<RowBlock>,
    filter: Option<&Expr>,
    cols: &[mpp_expr::ColRef],
    seg: SegmentId,
    ctx: &ExecContext<'_>,
) -> Result<Vec<RowBlock>> {
    let Some(pred) = filter else {
        return Ok(chunks);
    };
    let pred = compiled(pred, cols, ctx);
    let mut out = Vec::with_capacity(chunks.len());
    for b in chunks {
        let mut stats = ctx.seg_stats(seg);
        if let Some(nb) = filter_block_core(&pred, b, &mut stats)? {
            drop(stats);
            out.push(nb);
        }
    }
    Ok(out)
}

/// Filter one chunk against a compiled predicate, recording stats into
/// the given buffer. Returns `None` when every row is filtered out (a
/// dead chunk produces no `blocks_produced` tick).
pub(crate) fn filter_block_core(
    pred: &CompiledExpr,
    b: RowBlock,
    stats: &mut SegmentStats,
) -> Result<Option<RowBlock>> {
    let n = b.len() as u64;
    let (sel, fell_back) = pred.eval_predicate_block(&b)?;
    if fell_back {
        stats.rows_row_fallback += n;
    } else {
        stats.rows_vectorized += n;
    }
    if sel.is_empty() {
        Ok(None)
    } else {
        stats.blocks_produced += 1;
        Ok(Some(b.with_sel(sel)))
    }
}

/// Project one block column-at-a-time, with a joint row-major fallback
/// when any expression cannot be strictly batch-evaluated.
fn project_block(
    exprs: &[Arc<CompiledExpr>],
    b: &RowBlock,
    seg: SegmentId,
    ctx: &ExecContext<'_>,
) -> Result<RowBlock> {
    let mut stats = ctx.seg_stats(seg);
    project_block_core(exprs, b, &mut stats)
}

/// Project one chunk, recording stats into the given buffer (strict
/// columnar evaluation with a joint row-major fallback).
pub(crate) fn project_block_core(
    exprs: &[Arc<CompiledExpr>],
    b: &RowBlock,
    stats: &mut SegmentStats,
) -> Result<RowBlock> {
    let mut cols = Vec::with_capacity(exprs.len());
    let mut strict = true;
    for e in exprs {
        match e.eval_column_strict(b) {
            Ok(c) => cols.push(Arc::new(c)),
            Err(_) => {
                strict = false;
                break;
            }
        }
    }
    if strict {
        stats.rows_vectorized += b.len() as u64;
        return Ok(RowBlock::from_columns(cols, b.len()));
    }
    let mut rows = Vec::with_capacity(b.len());
    for k in 0..b.len() {
        let row = b.row_at_phys(b.phys_index(k));
        let vals = exprs
            .iter()
            .map(|e| e.eval(&row))
            .collect::<Result<Vec<_>>>()?;
        rows.push(Row::new(vals));
    }
    stats.rows_row_fallback += b.len() as u64;
    Ok(RowBlock::from_rows(&rows, exprs.len()))
}

/// Hash join over blocks, building on the left and probing with the
/// right.
///
/// Only the build side is concatenated; the probe side is read chunk by
/// chunk. Every key column of both sides is evaluated strictly before any
/// probing — the build side, then each probe chunk in order — and any
/// strict failure re-runs the whole join on the row engine's
/// [`hash_join`], so errors surface in its order. Keys are `i64` tuples
/// in a [`TypedIndex`] when every key column of both sides is
/// `Int32`/`Int64`/`Date`, datums otherwise; either way NULL never
/// matches. Each chunk's matched pairs, in the row engine's order (probe
/// row, then build order), are gathered into one growing output block;
/// semi and anti joins reduce to a selection over the build side.
#[allow(clippy::too_many_arguments)]
fn block_hash_join(
    join_type: JoinType,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: &Option<Expr>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    l_chunks: Vec<RowBlock>,
    r_chunks: Vec<RowBlock>,
    seg: SegmentId,
    ctx: &ExecContext<'_>,
) -> Result<Vec<RowBlock>> {
    let l_cols = left.output_cols();
    let r_cols = right.output_cols();
    // Dense, so a build row's logical index is its physical one.
    let build = RowBlock::concat(&l_chunks, l_cols.len());
    let lk: Vec<Arc<CompiledExpr>> = left_keys
        .iter()
        .map(|k| compiled(k, &l_cols, ctx))
        .collect();
    let rk: Vec<Arc<CompiledExpr>> = right_keys
        .iter()
        .map(|k| compiled(k, &r_cols, ctx))
        .collect();

    let keys = key_cols(&lk, &build).and_then(|bk| {
        let pk = r_chunks
            .iter()
            .map(|b| key_cols(&rk, b))
            .collect::<Result<Vec<_>>>()?;
        Ok((bk, pk))
    });
    let Ok((build_keys, probe_keys)) = keys else {
        // A key expression needs row semantics somewhere: the row engine
        // reproduces build-before-probe, row-major error order.
        let l_rows = build.to_rows();
        let r_rows = blocks_to_rows(&r_chunks);
        ctx.seg_stats(seg).rows_row_fallback += (l_rows.len() + r_rows.len()) as u64;
        let width = if join_type.outputs_right() {
            l_cols.len() + r_cols.len()
        } else {
            l_cols.len()
        };
        let rows = hash_join(
            join_type, left_keys, right_keys, residual, left, right, l_rows, r_rows, ctx,
        )?;
        return Ok(rows_to_chunks(rows, width));
    };

    let residual = residual.as_ref().map(|res| {
        let mut joined_cols = l_cols.clone();
        joined_cols.extend(r_cols.clone());
        compiled(res, &joined_cols, ctx)
    });
    let mut out = JoinOut {
        outputs_right: join_type.outputs_right(),
        build: &build,
        residual,
        matched: vec![false; build.len()],
        cols: (0..l_cols.len() + r_cols.len())
            .map(|_| ColumnVec::empty())
            .collect(),
        rows: 0,
        residual_fallback: 0,
    };
    let typed = int_cols(&build_keys).and_then(|b| {
        let p = probe_keys
            .iter()
            .map(|c| int_cols(c))
            .collect::<Option<Vec<_>>>()?;
        Some((b, p))
    });
    // One probe loop; the fork is only how a row's key is looked up.
    match typed {
        Some((build_ints, probe_ints)) => {
            let mut index = TypedIndex::default();
            let mut flat = Vec::new();
            let mut key = vec![0i64; lk.len()];
            let chains = Chains::build(build.len(), |i| {
                int_key(&build_ints, i, &mut key).then(|| index.find_or_insert(&key, &mut flat))
            });
            probe_chunks(&mut out, &chains, &r_chunks, |c, k| {
                if int_key(&probe_ints[c], k, &mut key) {
                    index.find(&key, &flat)
                } else {
                    None
                }
            })?;
        }
        None => {
            let mut map: HashMap<Vec<Datum>, u32> = HashMap::new();
            let mut key = Vec::with_capacity(lk.len());
            let chains = Chains::build(build.len(), |i| {
                if !datum_key(&build_keys, i, &mut key) {
                    return None;
                }
                Some(match map.get(key.as_slice()) {
                    Some(&g) => (g, false),
                    None => {
                        let g = map.len() as u32;
                        map.insert(key.clone(), g);
                        (g, true)
                    }
                })
            });
            probe_chunks(&mut out, &chains, &r_chunks, |c, k| {
                if datum_key(&probe_keys[c], k, &mut key) {
                    map.get(key.as_slice()).copied()
                } else {
                    None
                }
            })?;
        }
    }
    let JoinOut {
        matched,
        cols,
        rows,
        residual_fallback,
        ..
    } = out;
    let probe_rows: usize = r_chunks.iter().map(RowBlock::len).sum();
    let mut stats = ctx.seg_stats(seg);
    stats.rows_vectorized += (build.len() + probe_rows) as u64;
    stats.rows_row_fallback += residual_fallback;
    drop(stats);
    let build_sel = |want: bool| -> Vec<u32> {
        (0..build.len() as u32)
            .filter(|&i| matched[i as usize] == want)
            .collect()
    };
    let mut blocks: Vec<RowBlock> = Vec::new();
    match join_type {
        JoinType::Inner | JoinType::LeftOuter => {
            if rows > 0 {
                blocks.push(RowBlock::from_columns(
                    cols.into_iter().map(Arc::new).collect(),
                    rows,
                ));
            }
            if matches!(join_type, JoinType::LeftOuter) {
                let unmatched = build_sel(false);
                if !unmatched.is_empty() {
                    let mut cols: Vec<Arc<ColumnVec>> =
                        Vec::with_capacity(l_cols.len() + r_cols.len());
                    for c in build.columns() {
                        cols.push(Arc::new(c.gather(&unmatched)));
                    }
                    for _ in 0..r_cols.len() {
                        cols.push(Arc::new(ColumnVec::broadcast(
                            &Datum::Null,
                            unmatched.len(),
                        )));
                    }
                    blocks.push(RowBlock::from_columns(cols, unmatched.len()));
                }
            }
        }
        JoinType::LeftSemi | JoinType::LeftAnti => {
            let sel = build_sel(matches!(join_type, JoinType::LeftSemi));
            if !sel.is_empty() {
                blocks.push(build.with_sel(sel));
            }
        }
    }
    ctx.seg_stats(seg).blocks_produced += blocks.len() as u64;
    Ok(blocks)
}

/// Evaluate `keys` strictly over `b`; an `Err` means some key needs row
/// semantics.
fn key_cols<'a>(keys: &[Arc<CompiledExpr>], b: &'a RowBlock) -> Result<Vec<BlockCol<'a>>> {
    keys.iter().map(|e| BlockCol::eval(e, b)).collect()
}

/// The widened readers of `cols`, if every one is an integer column.
fn int_cols<'a>(cols: &'a [BlockCol<'_>]) -> Option<Vec<IntCol<'a>>> {
    cols.iter().map(IntCol::of).collect()
}

/// Read logical row `k`'s key into `key`; `false` when a component is
/// NULL.
#[inline]
fn int_key(cols: &[IntCol<'_>], k: usize, key: &mut [i64]) -> bool {
    for (x, c) in key.iter_mut().zip(cols) {
        match c.at(k) {
            Some(v) => *x = v,
            None => return false,
        }
    }
    true
}

/// Read logical row `k`'s key into `key`; `false` when a component is
/// NULL.
fn datum_key(cols: &[BlockCol<'_>], k: usize, key: &mut Vec<Datum>) -> bool {
    key.clear();
    for c in cols {
        let v = c.get(k);
        if v.is_null() {
            return false;
        }
        key.push(v);
    }
    true
}

/// Ends a [`Chains`] chain.
const NONE: u32 = u32::MAX;

/// The build side by distinct key: `head[g]` is the first build row with
/// key number `g`, and `next[i]` the build row after `i` with the same key.
struct Chains {
    head: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// `key_of(i)` numbers build row `i`'s key densely in first-insert
    /// order (`true` = new), or is `None` for a NULL key. Rows are
    /// inserted back to front, each at its chain's head, so every chain
    /// walks its rows in build order.
    fn build(n: usize, mut key_of: impl FnMut(usize) -> Option<(u32, bool)>) -> Chains {
        let mut head = Vec::new();
        let mut next = vec![NONE; n];
        for i in (0..n).rev() {
            match key_of(i) {
                None => {}
                Some((_, true)) => head.push(i as u32),
                Some((g, false)) => {
                    next[i] = head[g as usize];
                    head[g as usize] = i as u32;
                }
            }
        }
        Chains { head, next }
    }
}

/// Probe every chunk in order. `lookup(c, k)` is the key number of chunk
/// `c`'s logical row `k`, if the build side has that key.
fn probe_chunks(
    out: &mut JoinOut<'_>,
    chains: &Chains,
    r_chunks: &[RowBlock],
    mut lookup: impl FnMut(usize, usize) -> Option<u32>,
) -> Result<()> {
    let (mut l_idx, mut r_idx) = (Vec::new(), Vec::new());
    for (c, chunk) in r_chunks.iter().enumerate() {
        l_idx.clear();
        r_idx.clear();
        for k in 0..chunk.len() {
            let Some(g) = lookup(c, k) else {
                continue;
            };
            let rp = chunk.phys_index(k) as u32;
            let mut i = chains.head[g as usize];
            while i != NONE {
                l_idx.push(i);
                r_idx.push(rp);
                i = chains.next[i as usize];
            }
        }
        out.absorb(chunk, &l_idx, &r_idx)?;
    }
    Ok(())
}

/// What a hash join has produced so far.
struct JoinOut<'a> {
    /// The join outputs matched pairs (not just build rows).
    outputs_right: bool,
    build: &'a RowBlock,
    residual: Option<Arc<CompiledExpr>>,
    /// Per build row: some pair that passed the residual includes it.
    matched: Vec<bool>,
    /// The output block being grown (joins that output the probe side).
    cols: Vec<ColumnVec>,
    rows: usize,
    /// Candidate pairs whose residual ran on the row fallback.
    residual_fallback: u64,
}

impl JoinOut<'_> {
    /// Keep a probe chunk's candidate pairs (`l_idx[p]` with `r_idx[p]`)
    /// that pass the residual. The residual runs columnar over the
    /// gathered pairs; its exact per-block row fallback keeps the first
    /// error in pair order, which is the row engine's, and is counted
    /// like a filter's.
    fn absorb(&mut self, chunk: &RowBlock, l_idx: &[u32], r_idx: &[u32]) -> Result<()> {
        if l_idx.is_empty() {
            return Ok(());
        }
        let Some(res) = &self.residual else {
            for &i in l_idx {
                self.matched[i as usize] = true;
            }
            if self.outputs_right {
                let (l, r) = self.cols.split_at_mut(self.build.width());
                for (o, c) in l.iter_mut().zip(self.build.columns()) {
                    o.extend_gather(c, Some(l_idx));
                }
                for (o, c) in r.iter_mut().zip(chunk.columns()) {
                    o.extend_gather(c, Some(r_idx));
                }
                self.rows += l_idx.len();
            }
            return Ok(());
        };
        let pairs: Vec<Arc<ColumnVec>> = self
            .build
            .columns()
            .iter()
            .map(|c| c.gather(l_idx))
            .chain(chunk.columns().iter().map(|c| c.gather(r_idx)))
            .map(Arc::new)
            .collect();
        let pairs = RowBlock::from_columns(pairs, l_idx.len());
        let (keep, fell_back) = res.eval_predicate_block(&pairs)?;
        if fell_back {
            self.residual_fallback += pairs.len() as u64;
        }
        for &p in &keep {
            self.matched[l_idx[p as usize] as usize] = true;
        }
        if self.outputs_right && !keep.is_empty() {
            for (o, c) in self.cols.iter_mut().zip(pairs.columns()) {
                o.extend_gather(c, Some(&keep));
            }
            self.rows += keep.len();
        }
        Ok(())
    }
}

/// Read Motion `plan` on `seg`: this segment's share of the chunks the
/// stage driver materialized. Both engines read every Motion through
/// here (the row engine flattens the result with [`blocks_to_rows`]).
/// The cache is keyed by the node's stable [`mpp_common::MotionId`], not its
/// address, so re-executions and clones of a plan read the same entry.
pub(crate) fn read_motion(
    plan: &PhysicalPlan,
    kind: &MotionKind,
    child: &PhysicalPlan,
    seg: SegmentId,
    storage: &Storage,
    ctx: &ExecContext<'_>,
) -> Result<Vec<RowBlock>> {
    let id = ctx.motion_id_of(plan)?;
    if seg == SegmentId(0) && matches!(kind, MotionKind::Gather) {
        // First consumption of a Gather takes the copy the stage tasks
        // pre-assembled; re-executions route from the cache below.
        if let Some(chunks) = ctx.preroute_take(id) {
            return Ok(chunks);
        }
    }
    // The stage driver materializes every Motion before any slice above
    // it runs; a miss is a scheduling bug, not a user error.
    let per_source = ctx.motion_cached(id).ok_or_else(|| {
        Error::Internal(format!(
            "staged execution reached {id} before its stage materialized it"
        ))
    })?;
    match kind {
        MotionKind::Gather => {
            if seg == SegmentId(0) {
                Ok(per_source.iter().flatten().cloned().collect())
            } else {
                Ok(Vec::new())
            }
        }
        MotionKind::GatherOne => {
            if seg == SegmentId(0) {
                Ok(per_source.first().cloned().unwrap_or_default())
            } else {
                Ok(Vec::new())
            }
        }
        MotionKind::Broadcast => {
            // Every destination shares the materialized chunks: cloning a
            // block bumps its columns' refcounts, nothing is re-copied.
            Ok(per_source.iter().flatten().cloned().collect())
        }
        MotionKind::Redistribute(cols) => {
            let child_cols = child.output_cols();
            let positions: Vec<usize> =
                cols.iter()
                    .map(|c| {
                        child_cols.iter().position(|x| x == c).ok_or_else(|| {
                            Error::Execution(format!("redistribute column {c} missing"))
                        })
                    })
                    .collect::<Result<_>>()?;
            let n = storage.num_segments();
            let chunks: Vec<&RowBlock> = per_source.iter().flatten().collect();
            // One routing pass per Motion, not one per destination: row
            // `k` goes to segment `hash % n`, the rule storage places rows
            // by, and every destination keeps its rows in source order.
            // Selections are allocated at their exact sizes: the memo
            // lives as long as the query.
            let routes = ctx.redistribute_routes(id, || {
                let mut routes = vec![Vec::with_capacity(chunks.len()); n];
                for b in &chunks {
                    let dest: Vec<usize> = b
                        .hash_columns(&positions)
                        .into_iter()
                        .map(|h| (h % n as u64) as usize)
                        .collect();
                    let mut rows = vec![0; n];
                    for &d in &dest {
                        rows[d] += 1;
                    }
                    let mut sels: Vec<Vec<u32>> =
                        rows.into_iter().map(Vec::with_capacity).collect();
                    for (k, &d) in dest.iter().enumerate() {
                        sels[d].push(b.phys_index(k) as u32);
                    }
                    for (r, sel) in routes.iter_mut().zip(sels) {
                        r.push(sel);
                    }
                }
                routes
            });
            Ok(chunks
                .iter()
                .zip(&routes[seg.0 as usize])
                .filter(|(_, sel)| !sel.is_empty())
                .map(|(b, sel)| (*b).clone().with_sel(sel.clone()))
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_with_params_sched, ExecEngine, QueryResult};
    use crate::morsel::SchedConfig;
    use crate::prepared::CompiledCache;
    use mpp_catalog::{Catalog, Distribution, TableDesc};
    use mpp_common::{row, Column, DataType, Schema, TableOid};
    use mpp_expr::{CmpOp, ColRef};
    use mpp_plan::{AggCall, AggFunc};

    fn cr(id: u32, name: &str) -> ColRef {
        ColRef::new(id, name)
    }

    fn setup(segs: usize, rows: Vec<Row>) -> (Storage, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::new("g", DataType::Int64),
        ]);
        let t = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: t,
            name: "t".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        let st = Storage::new(cat, segs);
        st.insert(t, rows).unwrap();
        (st, t)
    }

    fn scan(t: TableOid) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: t,
            table_name: "t".into(),
            output: vec![cr(1, "a"), cr(2, "g")],
            filter: None,
        }
    }

    fn run(st: &Storage, plan: &PhysicalPlan, engine: ExecEngine, workers: usize) -> QueryResult {
        execute_with_params_sched(st, plan, &[], engine, &SchedConfig::with_workers(workers))
            .unwrap()
    }

    /// A filter that keeps nothing must still count the rows it
    /// inspected, but must not count a produced block for the dead chunk
    /// — and downstream operators must see clean empty input.
    #[test]
    fn fully_filtered_chunks_leave_no_phantom_stats() {
        let rows: Vec<Row> = (0..50).map(|i| row![i as i64, 0i64]).collect();
        let (st, t) = setup(2, rows);
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Filter {
                pred: Expr::cmp(
                    CmpOp::Lt,
                    Expr::col(cr(1, "a")),
                    Expr::lit(Datum::Int64(-1)),
                ),
                child: Box::new(scan(t)),
            }),
        };
        for workers in [1, st.num_segments()] {
            let res = run(&st, &plan, ExecEngine::Batch, workers);
            assert!(res.rows.is_empty(), "workers={workers}");
            assert_eq!(res.stats.rows_vectorized, 50, "workers={workers}");
            assert_eq!(res.stats.blocks_produced, 0, "workers={workers}");
            assert_eq!(res.stats.rows_row_fallback, 0, "workers={workers}");
        }
    }

    /// An empty table produces no blocks at all: zero vectorized rows,
    /// zero produced blocks — and a scalar aggregate above it still
    /// emits its one default row, from segment 0 only.
    #[test]
    fn empty_input_yields_no_stats_but_keeps_the_agg_default_row() {
        let (st, t) = setup(3, Vec::new());
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::HashAgg {
                group_by: vec![],
                aggs: vec![
                    AggCall::count_star(),
                    AggCall::new(AggFunc::Max, Expr::col(cr(1, "a"))),
                ],
                output: vec![cr(10, "count"), cr(11, "max")],
                child: Box::new(scan(t)),
            }),
        };
        for workers in [1, st.num_segments()] {
            let res = run(&st, &plan, ExecEngine::Batch, workers);
            assert_eq!(
                res.rows,
                vec![Row::new(vec![Datum::Int64(0), Datum::Null])],
                "workers={workers}"
            );
            assert_eq!(res.stats.rows_vectorized, 0, "workers={workers}");
            assert_eq!(res.stats.rows_row_fallback, 0, "workers={workers}");
        }
    }

    /// All-NULL group keys are one real group (`NULL` groups with
    /// `NULL`), not zero groups and not one group per row.
    #[test]
    fn all_null_group_keys_form_exactly_one_group() {
        let rows: Vec<Row> = (0..20).map(|i| row![i as i64, Datum::Null]).collect();
        let (st, t) = setup(2, rows);
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(PhysicalPlan::Motion {
                kind: MotionKind::Redistribute(vec![cr(2, "g")]),
                child: Box::new(PhysicalPlan::HashAgg {
                    group_by: vec![cr(2, "g")],
                    aggs: vec![
                        AggCall::count_star(),
                        AggCall::new(AggFunc::Count, Expr::col(cr(2, "g"))),
                    ],
                    output: vec![cr(2, "g"), cr(10, "count"), cr(11, "count_g")],
                    child: Box::new(scan(t)),
                }),
            }),
        };
        for engine in [ExecEngine::Batch, ExecEngine::Row] {
            for workers in [1, st.num_segments()] {
                let res = run(&st, &plan, engine, workers);
                // One group per *segment* that saw rows, all keyed NULL;
                // COUNT(g) over an all-NULL column is 0.
                assert!(!res.rows.is_empty(), "{engine:?} w={workers}");
                let total: i64 = res
                    .rows
                    .iter()
                    .map(|r| r.values()[1].as_i64().unwrap())
                    .sum();
                assert_eq!(total, 20, "{engine:?} w={workers}");
                for r in &res.rows {
                    assert_eq!(r.values()[0], Datum::Null, "{engine:?} w={workers}");
                    assert_eq!(r.values()[2], Datum::Int64(0), "{engine:?} w={workers}");
                }
            }
        }
    }

    /// Redistribute routing: every source row reaches exactly one
    /// destination, `Row::hash_columns % n` (the rule storage places rows
    /// by), in source order; all destinations share one cached routing.
    #[test]
    fn redistribute_routes_each_row_once_by_the_storage_rule() {
        let (st, t) = setup(3, Vec::new());
        let plan = PhysicalPlan::Motion {
            kind: MotionKind::Redistribute(vec![cr(2, "g")]),
            child: Box::new(scan(t)),
        };
        let PhysicalPlan::Motion { kind, child } = &plan else {
            unreachable!()
        };
        // `a` numbers the rows in source order; the key `g` is nullable.
        let chunk = |from: i64, n: i64| {
            let rows: Vec<Row> = (from..from + n)
                .map(|a| {
                    let g = if a % 7 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int64(a * 31 % 11)
                    };
                    Row::new(vec![Datum::Int64(a), g])
                })
                .collect();
            RowBlock::from_rows(&rows, 2)
        };
        let selected = vec![1, 4, 5, 9, 20, 24];
        let per_source = vec![
            vec![chunk(0, 40), chunk(40, 25).with_sel(selected.clone())],
            vec![],
            vec![chunk(65, 30), chunk(95, 3)],
        ];
        let source: Vec<i64> = (0..40)
            .chain(selected.iter().map(|&k| 40 + k as i64))
            .chain(65..98)
            .collect();
        let cache = CompiledCache::new();
        let ctx = ExecContext::for_plan(&plan, &[], &cache, 3);
        ctx.motion_store(ctx.motion_id_of(&plan).unwrap(), Arc::new(per_source));
        let mut seen = Vec::new();
        for d in 0..3u32 {
            let rows =
                blocks_to_rows(&read_motion(&plan, kind, child, SegmentId(d), &st, &ctx).unwrap());
            assert!(!rows.is_empty(), "segment {d}");
            let got: Vec<i64> = rows
                .iter()
                .map(|r| r.values()[0].as_i64().unwrap())
                .collect();
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "source order on {d}: {got:?}"
            );
            for r in &rows {
                assert_eq!(r.hash_columns(&[1]) % 3, u64::from(d), "row {r:?}");
            }
            seen.extend(got);
            assert_eq!(ctx.routes_cached(), 1);
        }
        seen.sort_unstable();
        assert_eq!(seen, source, "every source row read exactly once");
    }
}
