//! The vectorized (block) execution engine.
//!
//! `exec_block` mirrors [`crate::exec::exec`] operator for operator, but
//! the payload between operators is a list of columnar
//! [`mpp_common::RowBlock`] chunks instead of `Vec<Row>`:
//!
//! * scans hand out the storage blocks themselves (refcounted columns —
//!   no per-row materialization),
//! * filters refine a block's **selection vector** in place of copying
//!   surviving rows,
//! * projections and join-key extraction evaluate column-at-a-time via
//!   [`mpp_expr::CompiledExpr::eval_column_strict`],
//! * aggregation folds the child's chunks, in order, through one instance
//!   of the typed kernel (`agg_kernel.rs`) — no `Vec<Datum>` per row,
//! * Motions cache and ship chunk lists; Broadcast destinations share
//!   the same materialization (column `Arc` bumps), Redistribute hashes
//!   every chunk once per Motion and routes by selection,
//! * the per-tuple `PartitionSelector` probe reads block columns
//!   directly and routes to a dedup'd OID set.
//!
//! Semantics are **exactly** the row engine's. Wherever strict batch
//! evaluation cannot reproduce row-at-a-time behavior (a row error mid
//! block, a multi-expression site whose first error depends on row-major
//! order), the affected block falls back to row-wise evaluation, and the
//! fallback is counted in [`crate::stats::SegmentStats::rows_row_fallback`].
//! Nested-loops joins run row-wise (their predicate short-circuits per
//! pair); DML plans never reach this module (the driver routes them to
//! the row engine).

use crate::agg_kernel::{AggSpec, Finalized, PartialAgg};
use crate::context::ExecContext;
use crate::exec::{compiled, exec, hash_join, nl_join, AggExec, TupleSelector};
use crate::stats::SegmentStats;
use mpp_common::{ColumnVec, Datum, Error, MotionId, Result, Row, RowBlock, SegmentId};
use mpp_expr::analysis::DerivedSet;
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
        PhysicalPlan::TableScan {
            table,
            output,
            filter,
            ..
        } => {
            let block = storage.scan_block(PhysId::Table(*table), seg);
            let n = block.as_ref().map_or(0, |b| b.len());
            ctx.seg_stats(seg).record_table_scan(*table, n);
            let chunks: Vec<RowBlock> = block.into_iter().filter(|b| !b.is_empty()).collect();
            filter_blocks(chunks, filter.as_ref(), output, seg, ctx)
        }

        PhysicalPlan::PartScan {
            table,
            part,
            output,
            filter,
            gate,
            ..
        } => {
            ctx.check_cancel()?;
            if let Some(g) = gate {
                if !ctx.oid_param_contains(*g, *part)? {
                    return Ok(Vec::new());
                }
            }
            let block = storage.scan_block(PhysId::Part(*part), seg);
            let n = block.as_ref().map_or(0, |b| b.len());
            ctx.seg_stats(seg).record_part_scan(*table, *part, n);
            let chunks: Vec<RowBlock> = block.into_iter().filter(|b| !b.is_empty()).collect();
            filter_blocks(chunks, filter.as_ref(), output, seg, ctx)
        }

        PhysicalPlan::DynamicScan {
            table,
            part_scan_id,
            output,
            filter,
            restrict,
            ..
        } => {
            let mut oids = ctx.consume_parts(*part_scan_id, seg)?;
            // Adaptive group branch: scan only the selector-propagated OIDs
            // that fall inside this branch's partition group.
            if let Some(keep) = restrict {
                oids.retain(|oid| keep.contains(oid));
            }
            let scans = storage.scan_batch_blocks(oids.iter().map(|&oid| PhysId::Part(oid)), seg);
            let mut chunks = Vec::new();
            {
                let mut stats = ctx.seg_stats(seg);
                for (oid, (_, block)) in oids.iter().zip(scans) {
                    ctx.check_cancel()?;
                    let n = block.as_ref().map_or(0, |b| b.len());
                    stats.record_part_scan(*table, *oid, n);
                    if let Some(b) = block {
                        if !b.is_empty() {
                            chunks.push(b);
                        }
                    }
                }
            }
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

        PhysicalPlan::HashAgg {
            group_by,
            aggs,
            child,
            ..
        } => {
            let chunks = exec_block(child, seg, storage, ctx)?;
            let cols = child.output_cols();
            let mut exact = AggExec::prepare(group_by, aggs, &cols, ctx)?;
            let spec = AggSpec::new(&exact, aggs, plan.output_cols().len());
            // One kernel instance absorbs the chunks in order — no merge,
            // so a float sum stays the row engine's sequential fold.
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
                // An argument errored, or the typed state cannot prove
                // its result: replay every chunk through the row
                // accumulator from the start, which surfaces the
                // row-major first error (or the exact value).
                Finalized::NeedsExact => {
                    for b in &chunks {
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

        PhysicalPlan::Motion { kind, child } => {
            let id = ctx.motion_id_of(plan)?;
            if seg == SegmentId(0) && matches!(kind, MotionKind::Gather) {
                if let Some(chunks) = ctx.preroute_blocks_take(id) {
                    return Ok(chunks);
                }
            }
            let per_source = match ctx.motion_cached_blocks(id) {
                Some(v) => v,
                None => {
                    if ctx.motions_frozen() {
                        return Err(Error::Internal(format!(
                            "staged execution reached {id} before its stage materialized it"
                        )));
                    }
                    let mut v = Vec::with_capacity(storage.num_segments());
                    for s in storage.segments() {
                        v.push(exec_block(child, s, storage, ctx)?);
                    }
                    let counts: Vec<u64> = v
                        .iter()
                        .map(|chunks| chunks.iter().map(|b| b.len() as u64).sum())
                        .collect();
                    ctx.record_motion_counts(id, &counts);
                    let v = Arc::new(v);
                    ctx.motion_store_blocks(id, v.clone());
                    v
                }
            };
            route_motion_blocks(kind, &per_source, seg, storage, child, ctx, id)
        }

        PhysicalPlan::Append { children, .. } => {
            let mut out = Vec::new();
            for c in children {
                out.extend(exec_block(c, seg, storage, ctx)?);
            }
            Ok(out)
        }

        PhysicalPlan::InitPlanOids { .. } => {
            // Publication logic (and its run-once gate) lives in the row
            // engine's arm; it returns no rows either way.
            exec(plan, seg, storage, ctx)?;
            Ok(Vec::new())
        }

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

/// Hash join over blocks: batch key extraction on both sides, join-pair
/// assembly by column gather. Semi/anti joins reduce to a selection over
/// the build side — zero row copies.
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
    let l_block = RowBlock::concat(&l_chunks, l_cols.len());
    let r_block = RowBlock::concat(&r_chunks, r_cols.len());
    let lk: Vec<Arc<CompiledExpr>> = left_keys
        .iter()
        .map(|k| compiled(k, &l_cols, ctx))
        .collect();
    let rk: Vec<Arc<CompiledExpr>> = right_keys
        .iter()
        .map(|k| compiled(k, &r_cols, ctx))
        .collect();

    let mut key_cols_l: Vec<ColumnVec> = Vec::with_capacity(lk.len());
    let mut key_cols_r: Vec<ColumnVec> = Vec::with_capacity(rk.len());
    let mut strict = true;
    for e in &lk {
        match e.eval_column_strict(&l_block) {
            Ok(c) => key_cols_l.push(c),
            Err(_) => {
                strict = false;
                break;
            }
        }
    }
    if strict {
        for e in &rk {
            match e.eval_column_strict(&r_block) {
                Ok(c) => key_cols_r.push(c),
                Err(_) => {
                    strict = false;
                    break;
                }
            }
        }
    }
    if !strict {
        // A key expression errors somewhere: re-run the whole join on the
        // row engine so build-before-probe error order is preserved.
        let l_rows = l_block.to_rows();
        let r_rows = r_block.to_rows();
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
    }

    let residual_c = residual.as_ref().map(|res| {
        let mut joined_cols = l_cols.clone();
        joined_cols.extend(r_cols.clone());
        compiled(res, &joined_cols, ctx)
    });

    let l_len = l_block.len();
    let r_len = r_block.len();
    // Build on the left: keys read from the extracted key columns (rows
    // with a NULL key component never match).
    let mut table: HashMap<Vec<Datum>, Vec<u32>> = HashMap::new();
    for i in 0..l_len {
        let mut key = Vec::with_capacity(key_cols_l.len());
        let mut has_null = false;
        for c in &key_cols_l {
            let v = c.get(i);
            has_null |= v.is_null();
            key.push(v);
        }
        if !has_null {
            table.entry(key).or_default().push(i as u32);
        }
    }

    let mut matched = vec![false; l_len];
    // Matched pairs, physical indices, in the row engine's output order:
    // probe rows in order, candidates in build order.
    let mut l_out: Vec<u32> = Vec::new();
    let mut r_out: Vec<u32> = Vec::new();
    for j in 0..r_len {
        let mut key = Vec::with_capacity(key_cols_r.len());
        let mut has_null = false;
        for c in &key_cols_r {
            let v = c.get(j);
            has_null |= v.is_null();
            key.push(v);
        }
        if has_null {
            continue;
        }
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        for &i in candidates {
            let lp = l_block.phys_index(i as usize);
            let rp = r_block.phys_index(j);
            if let Some(res) = &residual_c {
                let joined = l_block.row_at_phys(lp).concat(&r_block.row_at_phys(rp));
                if !res.eval_predicate(&joined)? {
                    continue;
                }
            }
            matched[i as usize] = true;
            if join_type.outputs_right() {
                l_out.push(lp as u32);
                r_out.push(rp as u32);
            }
        }
    }
    ctx.seg_stats(seg).rows_vectorized += (l_len + r_len) as u64;

    let mut out: Vec<RowBlock> = Vec::new();
    match join_type {
        JoinType::Inner | JoinType::LeftOuter => {
            if !l_out.is_empty() {
                let mut cols: Vec<Arc<ColumnVec>> = Vec::with_capacity(l_cols.len() + r_cols.len());
                for c in l_block.columns() {
                    cols.push(Arc::new(c.gather(&l_out)));
                }
                for c in r_block.columns() {
                    cols.push(Arc::new(c.gather(&r_out)));
                }
                out.push(RowBlock::from_columns(cols, l_out.len()));
            }
            if matches!(join_type, JoinType::LeftOuter) {
                let unmatched: Vec<u32> = (0..l_len)
                    .filter(|&i| !matched[i])
                    .map(|i| l_block.phys_index(i) as u32)
                    .collect();
                if !unmatched.is_empty() {
                    let mut cols: Vec<Arc<ColumnVec>> =
                        Vec::with_capacity(l_cols.len() + r_cols.len());
                    for c in l_block.columns() {
                        cols.push(Arc::new(c.gather(&unmatched)));
                    }
                    for _ in 0..r_cols.len() {
                        cols.push(Arc::new(ColumnVec::broadcast(
                            &Datum::Null,
                            unmatched.len(),
                        )));
                    }
                    out.push(RowBlock::from_columns(cols, unmatched.len()));
                }
            }
        }
        JoinType::LeftSemi => {
            let sel: Vec<u32> = (0..l_len)
                .filter(|&i| matched[i])
                .map(|i| l_block.phys_index(i) as u32)
                .collect();
            if !sel.is_empty() {
                out.push(l_block.with_sel(sel));
            }
        }
        JoinType::LeftAnti => {
            let sel: Vec<u32> = (0..l_len)
                .filter(|&i| !matched[i])
                .map(|i| l_block.phys_index(i) as u32)
                .collect();
            if !sel.is_empty() {
                out.push(l_block.with_sel(sel));
            }
        }
    }
    let mut stats = ctx.seg_stats(seg);
    stats.blocks_produced += out.len() as u64;
    Ok(out)
}

/// Motion routing over block payloads.
#[allow(clippy::too_many_arguments)]
fn route_motion_blocks(
    kind: &MotionKind,
    per_source: &[Vec<RowBlock>],
    seg: SegmentId,
    storage: &Storage,
    child: &PhysicalPlan,
    ctx: &ExecContext<'_>,
    id: MotionId,
) -> Result<Vec<RowBlock>> {
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
            let n = storage.num_segments() as u64;
            let chunks: Vec<&RowBlock> = per_source.iter().flatten().collect();
            // One hashing pass per Motion (not per destination segment).
            let hashes = ctx.redistribute_hashes(id, || {
                chunks.iter().map(|b| b.hash_columns(&positions)).collect()
            });
            let mut out = Vec::new();
            for (b, hs) in chunks.iter().zip(hashes.iter()) {
                let sel: Vec<u32> = hs
                    .iter()
                    .enumerate()
                    .filter(|&(_, h)| (h % n) as u32 == seg.0)
                    .map(|(k, _)| b.phys_index(k) as u32)
                    .collect();
                if !sel.is_empty() {
                    out.push((*b).clone().with_sel(sel));
                }
            }
            Ok(out)
        }
    }
}

// Keep the unused-import lint honest when DerivedSet is only referenced
// by the static-selector delegation above.
#[allow(unused)]
fn _derived_set_marker(_d: DerivedSet) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_with_params_sched, ExecEngine, QueryResult};
    use crate::morsel::SchedConfig;
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
}
