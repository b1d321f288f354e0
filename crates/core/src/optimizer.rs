//! The optimizer pipeline: bound [`LogicalPlan`] → executable
//! [`PhysicalPlan`].
//!
//! Stages:
//!
//! 1. **Normalization** — conjunct-level predicate pushdown, constant
//!    folding.
//! 2. **Physical implementation** — scans (partitioned tables become
//!    [`PhysicalPlan::DynamicScan`]s with fresh `partScanId`s), join
//!    method selection, aggregate implementation.
//! 3. **Distribution planning** — Motion enforcement for co-location,
//!    choosing cost-based between redistribution and broadcast; the
//!    choice is *partition-aware*: a strategy that leaves a partitioned
//!    inner side motion-free keeps dynamic partition elimination possible
//!    and its DynamicScan is costed at the pruned fraction (the Figure 14
//!    trade-off).
//! 4. **PartitionSelector placement** — the §2.3 algorithms
//!    ([`crate::placement`]).
//! 5. **Validation** — §3.1 pairing rules ([`crate::validate`]).
//!
//! The `use_memo` config flag routes pure SELECT queries through the
//! Cascades-style [`crate::memo`] optimizer instead of stages 2–3; both
//! paths share placement and validation.

use crate::cardinality::{CardinalityEstimator, ColumnBinding};
use crate::cost::CostModel;
use crate::placement::place_partition_selectors;
use crate::validate::validate_selector_pairing;
use mpp_catalog::{Catalog, Distribution};
use mpp_common::{Error, PartOid, PartScanId, Result, TableOid};
use mpp_expr::analysis::{derive_interval_set, DerivedSet};
use mpp_expr::interval::{HighBound, LowBound};
use mpp_expr::{collect_columns, simplify, split_conjuncts, ColRef, Expr, IntervalSet};
use mpp_plan::{JoinType, LogicalPlan, MotionKind, PhysicalPlan};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Number of MPP segments (drives Motion costing).
    pub num_segments: usize,
    /// When false, PartitionSelectors are still placed (the machinery is
    /// identical) but carry no predicates, so every partition is scanned —
    /// the "partition selection disabled" configuration of Figure 17.
    pub enable_partition_selection: bool,
    /// Route SELECT queries through the Memo (cost-based, §3.1) instead of
    /// the deterministic pipeline.
    pub use_memo: bool,
    /// Cost-based join-order search: flatten inner-join subtrees and run a
    /// DPsize enumeration over the relation set (greedy above
    /// [`MAX_DP_RELATIONS`]). When false, joins keep their syntactic
    /// (left-deep, as-written) order — the baseline the join-order
    /// benchmark compares against.
    pub join_order_search: bool,
    /// Adaptive per-partition plan specialization: when the surviving
    /// partitions of a join's inner DynamicScan are strongly skewed (one
    /// heavy partition dominating the per-partition row counts from
    /// ANALYZE), cost and emit a *different* join strategy per partition
    /// group — e.g. leave the heavy group in place behind a tiny
    /// broadcast outer while redistributing only the light remainder —
    /// stitched back together with an `Append` whose branches each
    /// restrict the scan to their own group.
    pub adaptive_plans: bool,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            num_segments: 4,
            enable_partition_selection: true,
            use_memo: false,
            join_order_search: true,
            adaptive_plans: true,
        }
    }
}

/// DPsize enumerates all 3^n subset splits; beyond this relation count the
/// enumerator switches to a greedy (cheapest-pair-first) heuristic.
pub const MAX_DP_RELATIONS: usize = 10;

/// Distribution of a plan subtree's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DistSpec {
    Hashed(Vec<ColRef>),
    Replicated,
    Singleton,
}

/// The optimizer.
pub struct Optimizer {
    catalog: Catalog,
    config: OptimizerConfig,
    cost: CostModel,
    /// Monotonic across this optimizer's lifetime (never reset), so
    /// concurrent `optimize` calls hand out disjoint scan ids.
    next_scan_id: AtomicU32,
}

struct Built {
    plan: PhysicalPlan,
    dist: DistSpec,
    rows: f64,
}

impl Optimizer {
    pub fn new(catalog: Catalog, config: OptimizerConfig) -> Optimizer {
        let cost = CostModel::with_segments(config.num_segments);
        Optimizer::with_cost_model(catalog, config, cost)
    }

    /// An optimizer with explicit cost constants — for cost-model tuning
    /// and ablation experiments.
    pub fn with_cost_model(
        catalog: Catalog,
        config: OptimizerConfig,
        cost: CostModel,
    ) -> Optimizer {
        Optimizer {
            catalog,
            config,
            cost,
            next_scan_id: AtomicU32::new(1),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Toggle adaptive per-partition plan specialization. A runtime knob
    /// (the differential harness flips it per cell), so it gets a
    /// dedicated mutator rather than rebuilding the optimizer: every
    /// other config field feeds derived state (the cost model's segment
    /// count) and must stay fixed.
    pub fn set_adaptive_plans(&mut self, on: bool) {
        self.config.adaptive_plans = on;
    }

    fn fresh_scan_id(&self) -> PartScanId {
        PartScanId(self.next_scan_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Optimize a logical plan into an executable physical plan.
    pub fn optimize(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        let normalized = normalize(logical.clone());
        let mut binding = ColumnBinding::new();
        build_binding(&normalized, &mut binding);

        let built = if self.config.use_memo && !normalized.is_dml() {
            let memo_opt = crate::memo::MemoOptimizer::new(
                &self.catalog,
                &self.cost,
                &binding,
                &self.next_scan_id,
            );
            let res = memo_opt.optimize(&normalized)?;
            Built {
                plan: res.plan,
                dist: res.dist,
                rows: res.rows,
            }
        } else {
            self.build(&normalized, &binding)?
        };

        // Root motion: query results are delivered on the master
        // (segment 0), DML results are counts and need no motion.
        let mut plan = built.plan;
        if !normalized.is_dml() && built.dist != DistSpec::Singleton {
            plan = PhysicalPlan::Motion {
                kind: if built.dist == DistSpec::Replicated {
                    MotionKind::GatherOne
                } else {
                    MotionKind::Gather
                },
                child: Box::new(plan),
            };
        }

        let mut plan = place_partition_selectors(&self.catalog, plan)?;
        if !self.config.enable_partition_selection {
            plan = strip_selector_predicates(plan);
        }
        validate_selector_pairing(&plan)?;
        Ok(plan)
    }

    /// Stage 2+3: deterministic physical implementation with distribution
    /// planning.
    fn build(&self, plan: &LogicalPlan, binding: &ColumnBinding) -> Result<Built> {
        let est = CardinalityEstimator::new(&self.catalog, binding);
        match plan {
            LogicalPlan::Get {
                table,
                table_name,
                output,
            } => {
                let desc = self.catalog.table(*table)?;
                let rows = est.table_cardinality(*table);
                let dist = match &desc.distribution {
                    Distribution::Hashed(cols) => {
                        DistSpec::Hashed(cols.iter().map(|&i| output[i].clone()).collect())
                    }
                    Distribution::Replicated => DistSpec::Replicated,
                    Distribution::Singleton => DistSpec::Singleton,
                };
                let plan = if desc.is_partitioned() {
                    PhysicalPlan::DynamicScan {
                        table: *table,
                        table_name: table_name.clone(),
                        part_scan_id: self.fresh_scan_id(),
                        output: output.clone(),
                        filter: None,
                        restrict: None,
                    }
                } else {
                    PhysicalPlan::TableScan {
                        table: *table,
                        table_name: table_name.clone(),
                        output: output.clone(),
                        filter: None,
                    }
                };
                Ok(Built { plan, dist, rows })
            }

            LogicalPlan::Select { pred, child } => {
                let c = self.build(child, binding)?;
                let mut rows = (c.rows * est.selectivity(pred)).max(1.0);
                // Partition-aware refinement: a predicate that statically
                // eliminates partitions caps the estimate at the rows
                // living in the surviving partitions (per-partition counts
                // from ANALYZE when available).
                if let LogicalPlan::Get { table, output, .. } = child.as_ref() {
                    if let Some(cap) = self.statically_pruned_rows(*table, output, pred, &est) {
                        rows = rows.min(cap.max(1.0));
                    }
                }
                Ok(Built {
                    plan: PhysicalPlan::Filter {
                        pred: pred.clone(),
                        child: Box::new(c.plan),
                    },
                    dist: c.dist,
                    rows,
                })
            }

            LogicalPlan::Project {
                exprs,
                output,
                child,
            } => {
                let c = self.build(child, binding)?;
                // A projection may drop distribution columns; conservative:
                // keep Hashed only if all hash columns survive as pass-through.
                let dist = match &c.dist {
                    DistSpec::Hashed(cols) => {
                        let passthrough: Vec<ColRef> = exprs
                            .iter()
                            .filter_map(|e| match e {
                                Expr::Col(c) => Some(c.clone()),
                                _ => None,
                            })
                            .collect();
                        if cols.iter().all(|c| passthrough.contains(c)) {
                            DistSpec::Hashed(cols.clone())
                        } else {
                            // Rows still live where they were; model as
                            // hashed on an unknown key ≈ keep as-is for
                            // correctness purposes (no co-location claims).
                            DistSpec::Hashed(vec![])
                        }
                    }
                    d => d.clone(),
                };
                Ok(Built {
                    plan: PhysicalPlan::Project {
                        exprs: exprs.clone(),
                        output: output.clone(),
                        child: Box::new(c.plan),
                    },
                    dist,
                    rows: c.rows,
                })
            }

            LogicalPlan::Join {
                join_type,
                pred,
                left,
                right,
            } => self.build_join(*join_type, pred, left, right, binding),

            LogicalPlan::Agg {
                group_by,
                aggs,
                output,
                child,
            } => {
                let c = self.build(child, binding)?;
                let rows = est.agg_cardinality(c.rows, group_by);
                if group_by.is_empty() {
                    // Scalar aggregate: gather everything to one segment.
                    let gathered = match c.dist {
                        DistSpec::Singleton => c.plan,
                        DistSpec::Replicated => PhysicalPlan::Motion {
                            // One copy is enough; a plain Gather from a
                            // replicated child would multiply rows.
                            kind: MotionKind::GatherOne,
                            child: Box::new(c.plan),
                        },
                        _ => PhysicalPlan::Motion {
                            kind: MotionKind::Gather,
                            child: Box::new(c.plan),
                        },
                    };
                    return Ok(Built {
                        plan: PhysicalPlan::HashAgg {
                            group_by: vec![],
                            aggs: aggs.clone(),
                            output: output.clone(),
                            child: Box::new(gathered),
                        },
                        dist: DistSpec::Singleton,
                        rows,
                    });
                }
                // Grouped: co-locate groups. A child hashed on a subset of
                // the group columns already co-locates equal groups.
                let colocated = match &c.dist {
                    DistSpec::Hashed(cols) => {
                        !cols.is_empty() && cols.iter().all(|h| group_by.contains(h))
                    }
                    DistSpec::Singleton => true,
                    DistSpec::Replicated => false,
                };
                let input = if colocated {
                    c.plan
                } else {
                    PhysicalPlan::Motion {
                        kind: MotionKind::Redistribute(group_by.clone()),
                        child: Box::new(c.plan),
                    }
                };
                Ok(Built {
                    plan: PhysicalPlan::HashAgg {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                        output: output.clone(),
                        child: Box::new(input),
                    },
                    dist: DistSpec::Hashed(group_by.clone()),
                    rows,
                })
            }

            LogicalPlan::Values { rows, output } => Ok(Built {
                plan: PhysicalPlan::Values {
                    rows: rows.clone(),
                    output: output.clone(),
                },
                dist: DistSpec::Singleton,
                rows: rows.len() as f64,
            }),

            LogicalPlan::Limit { n, child } => {
                let c = self.build(child, binding)?;
                let gathered = match c.dist {
                    DistSpec::Singleton => c.plan,
                    DistSpec::Replicated => PhysicalPlan::Motion {
                        kind: MotionKind::GatherOne,
                        child: Box::new(c.plan),
                    },
                    _ => PhysicalPlan::Motion {
                        kind: MotionKind::Gather,
                        child: Box::new(c.plan),
                    },
                };
                Ok(Built {
                    plan: PhysicalPlan::Limit {
                        n: *n,
                        child: Box::new(gathered),
                    },
                    dist: DistSpec::Singleton,
                    rows: c.rows.min(*n as f64),
                })
            }

            LogicalPlan::Sort { keys, child } => {
                let c = self.build(child, binding)?;
                let gathered = match c.dist {
                    DistSpec::Singleton => c.plan,
                    DistSpec::Replicated => PhysicalPlan::Motion {
                        kind: MotionKind::GatherOne,
                        child: Box::new(c.plan),
                    },
                    _ => PhysicalPlan::Motion {
                        kind: MotionKind::Gather,
                        child: Box::new(c.plan),
                    },
                };
                Ok(Built {
                    plan: PhysicalPlan::Sort {
                        keys: keys.clone(),
                        child: Box::new(gathered),
                    },
                    dist: DistSpec::Singleton,
                    rows: c.rows,
                })
            }

            LogicalPlan::Update {
                table,
                target_cols,
                assignments,
                child,
            } => {
                let c = self.build(child, binding)?;
                Ok(Built {
                    plan: PhysicalPlan::Update {
                        table: *table,
                        target_cols: target_cols.clone(),
                        assignments: assignments.clone(),
                        child: Box::new(c.plan),
                    },
                    dist: DistSpec::Singleton,
                    rows: c.rows,
                })
            }
            LogicalPlan::Delete {
                table,
                target_cols,
                child,
            } => {
                let c = self.build(child, binding)?;
                Ok(Built {
                    plan: PhysicalPlan::Delete {
                        table: *table,
                        target_cols: target_cols.clone(),
                        child: Box::new(c.plan),
                    },
                    dist: DistSpec::Singleton,
                    rows: c.rows,
                })
            }
            LogicalPlan::Insert { table, child } => {
                let c = self.build(child, binding)?;
                Ok(Built {
                    plan: PhysicalPlan::Insert {
                        table: *table,
                        child: Box::new(c.plan),
                    },
                    dist: DistSpec::Singleton,
                    rows: c.rows,
                })
            }
        }
    }

    /// Join implementation: order enumeration (inner joins) + distribution
    /// strategy selection.
    fn build_join(
        &self,
        join_type: JoinType,
        pred: &Expr,
        left: &LogicalPlan,
        right: &LogicalPlan,
        binding: &ColumnBinding,
    ) -> Result<Built> {
        if join_type == JoinType::Inner && self.config.join_order_search {
            // Flatten the maximal inner-join subtree rooted here into its
            // relation leaves and pooled conjuncts; with three or more
            // relations the order is worth searching.
            let mut rels: Vec<&LogicalPlan> = Vec::new();
            let mut conjs: Vec<Expr> = Vec::new();
            flatten_inner(left, &mut rels, &mut conjs);
            flatten_inner(right, &mut rels, &mut conjs);
            push_conjuncts(pred, &mut conjs);
            if rels.len() >= 3 {
                let original_out: Vec<ColRef> = [left.output_cols(), right.output_cols()].concat();
                return self.build_join_ordered(&rels, conjs, original_out, binding);
            }
        }
        // Two relations (or a non-inner join): keep the syntactic order,
        // search distribution strategies only.
        let est = CardinalityEstimator::new(&self.catalog, binding);
        let l = self.build(left, binding)?;
        let r = self.build(right, binding)?;
        let out_rows = est.join_cardinality(l.rows, r.rows, pred);
        let l = JoinSide {
            cols: left.output_cols().into_iter().collect(),
            out: left.output_cols(),
            base_rows: base_cardinality(left, &self.catalog),
            plan: l.plan,
            dist: l.dist,
            rows: l.rows,
        };
        let r = JoinSide {
            cols: right.output_cols().into_iter().collect(),
            out: right.output_cols(),
            base_rows: base_cardinality(right, &self.catalog),
            plan: r.plan,
            dist: r.dist,
            rows: r.rows,
        };
        let (joined, _cost) =
            self.join_pair(&est, join_type, split_conjuncts(pred), l, r, out_rows)?;
        Ok(Built {
            plan: joined.plan,
            dist: joined.dist,
            rows: joined.rows,
        })
    }

    /// Cost-based join ordering: DPsize over subsets of the flattened
    /// relation list (ISSUE: beats the fixed left-deep order), with a
    /// greedy cheapest-pair fallback above [`MAX_DP_RELATIONS`]. The
    /// per-pair distribution-strategy search ([`Optimizer::pair_cost`]) is
    /// the inner loop, so join order and Motion placement optimize
    /// jointly.
    fn build_join_ordered(
        &self,
        rels: &[&LogicalPlan],
        conjs: Vec<Expr>,
        original_out: Vec<ColRef>,
        binding: &ColumnBinding,
    ) -> Result<Built> {
        let est = CardinalityEstimator::new(&self.catalog, binding);
        let n = rels.len();

        // Build every relation leaf once.
        let mut leaves: Vec<JoinSide> = Vec::with_capacity(n);
        for rel in rels {
            let b = self.build(rel, binding)?;
            leaves.push(JoinSide {
                cols: rel.output_cols().into_iter().collect(),
                out: rel.output_cols(),
                base_rows: base_cardinality(rel, &self.catalog),
                plan: b.plan,
                dist: b.dist,
                rows: b.rows,
            });
        }

        // Classify conjuncts by the set of relations they reference.
        let mut infos: Vec<ConjInfo> = Vec::new();
        let mut top_level: Vec<Expr> = Vec::new();
        for c in conjs {
            let cols = collect_columns(&c);
            let mut support = 0usize;
            for (i, leaf) in leaves.iter().enumerate() {
                if cols.iter().any(|x| leaf.cols.contains(x)) {
                    support |= 1 << i;
                }
            }
            match support.count_ones() {
                // References no relation (params/constants): filter once on
                // top of the final join.
                0 => top_level.push(c),
                // Single-relation conjunct the normalizer did not sink
                // (it can resurface from a nested join predicate): filter
                // the leaf directly so every order sees it applied.
                1 => {
                    let i = support.trailing_zeros() as usize;
                    let leaf = &mut leaves[i];
                    leaf.rows = (leaf.rows * est.selectivity(&c)).max(1.0);
                    let child = std::mem::replace(
                        &mut leaf.plan,
                        PhysicalPlan::Values {
                            rows: vec![],
                            output: vec![],
                        },
                    );
                    leaf.plan = PhysicalPlan::Filter {
                        pred: c,
                        child: Box::new(child),
                    };
                }
                _ => {
                    let sel = est.selectivity(&c);
                    let eq = match &c {
                        Expr::Cmp {
                            op: mpp_expr::CmpOp::Eq,
                            left: a,
                            right: b,
                        } => {
                            let side_mask = |e: &Expr| {
                                let cols = collect_columns(e);
                                let mut m = 0usize;
                                for (i, leaf) in leaves.iter().enumerate() {
                                    if cols.iter().any(|x| leaf.cols.contains(x)) {
                                        m |= 1 << i;
                                    }
                                }
                                m
                            };
                            Some((
                                a.as_ref().clone(),
                                b.as_ref().clone(),
                                side_mask(a),
                                side_mask(b),
                            ))
                        }
                        _ => None,
                    };
                    infos.push(ConjInfo {
                        expr: c,
                        support,
                        sel,
                        eq,
                    });
                }
            }
        }

        let side = if n <= MAX_DP_RELATIONS {
            self.enumerate_dpsize(&est, leaves, &infos)?
        } else {
            self.enumerate_greedy(&est, leaves, &infos)?
        };

        // Constant conjuncts on top, then restore the syntactic column
        // order: downstream operators resolve columns by identity, but the
        // root of the query delivers columns positionally.
        let mut plan = side.plan;
        if !top_level.is_empty() {
            plan = PhysicalPlan::Filter {
                pred: Expr::and(top_level),
                child: Box::new(plan),
            };
        }
        if side.out != original_out {
            plan = PhysicalPlan::Project {
                exprs: original_out.iter().cloned().map(Expr::col).collect(),
                output: original_out,
                child: Box::new(plan),
            };
        }
        Ok(Built {
            plan,
            dist: side.dist,
            rows: side.rows,
        })
    }

    /// Exhaustive DP over subsets (DPsize): for every subset of relations,
    /// keep the cheapest (cost, distribution) over all ordered splits into
    /// two smaller subsets; cross products are considered only when a
    /// subset has no connected split. When the query graph is connected,
    /// the DP visits only subsets whose induced join graph is connected
    /// (the DPccp restriction): every cross-product-free join tree's
    /// subtrees are connected subgraphs, so no plan is lost, and the
    /// subset count collapses from 2^n to O(n²) on chains and O(2^n / 2)
    /// on stars. The winning split tree is materialized afterwards by
    /// [`Optimizer::dp_rebuild`].
    fn enumerate_dpsize(
        &self,
        est: &CardinalityEstimator,
        leaves: Vec<JoinSide>,
        infos: &[ConjInfo],
    ) -> Result<JoinSide> {
        let n = leaves.len();
        let full: usize = (1 << n) - 1;

        // Induced connectivity per subset: BFS over conjunct supports.
        let mut connected = vec![false; full + 1];
        for (mask, conn) in connected.iter_mut().enumerate().skip(1) {
            if mask.count_ones() == 1 {
                *conn = true;
                continue;
            }
            let mut reach = mask & mask.wrapping_neg();
            loop {
                let before = reach;
                for ci in infos {
                    if ci.support & mask == ci.support && ci.support & reach != 0 {
                        reach |= ci.support;
                    }
                }
                if reach == before {
                    break;
                }
            }
            *conn = reach == mask;
        }
        let graph_connected = connected[full];

        // Split-independent per-subset estimates: row product × the
        // selectivity of every conjunct fully covered by the subset, and
        // the base-table row product (for the DPE domain heuristic).
        let mut rows = vec![1.0f64; full + 1];
        let mut base = vec![1.0f64; full + 1];
        for mask in 1..=full {
            let mut r = 1.0f64;
            let mut b = 1.0f64;
            for (i, leaf) in leaves.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    r *= leaf.rows;
                    b *= leaf.base_rows;
                }
            }
            for ci in infos {
                if ci.support & mask == ci.support {
                    r *= ci.sel;
                }
            }
            rows[mask] = r.max(1.0);
            base[mask] = b;
        }

        let mut dp: Vec<Option<DpEntry>> = vec![None; full + 1];
        for (i, leaf) in leaves.iter().enumerate() {
            dp[1 << i] = Some(DpEntry {
                cost: self.leaf_cost(leaf),
                dist: leaf.dist.clone(),
                split: None,
            });
        }

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // DPccp prune: with a connected query graph a disconnected
            // subset can only appear under a cross product, which the
            // connected plan space never needs.
            if graph_connected && !connected[mask] {
                continue;
            }
            // Pass 1: connected splits only; pass 2 (if none): cartesian.
            for allow_cartesian in [false, true] {
                // Enumerate proper non-empty submasks; both (l, r) and
                // (r, l) appear, so build/probe and DPE sides are searched.
                let mut lmask = (mask - 1) & mask;
                while lmask != 0 {
                    let rmask = mask & !lmask;
                    if let (Some(le), Some(re)) = (&dp[lmask], &dp[rmask]) {
                        let (left_keys, right_keys, connected) =
                            split_keys(infos, mask, lmask, rmask);
                        if connected == allow_cartesian {
                            lmask = (lmask - 1) & mask;
                            continue;
                        }
                        let (dpe_fraction, right_scan) = if rmask.count_ones() == 1 {
                            let j = rmask.trailing_zeros() as usize;
                            (
                                self.dpe_fraction(
                                    &leaves[j].plan,
                                    &left_keys,
                                    &right_keys,
                                    rows[lmask],
                                    base[lmask],
                                ),
                                self.partitioned_scan_shape(&leaves[j].plan),
                            )
                        } else {
                            (1.0, None)
                        };
                        let ctx = StrategyCtx {
                            join_type: JoinType::Inner,
                            has_equi: !left_keys.is_empty(),
                            l_rows: rows[lmask],
                            r_rows: rows[rmask],
                            out_rows: rows[mask],
                            l_dist: &le.dist,
                            r_dist: &re.dist,
                            lk_cols: &simple_cols(&left_keys),
                            rk_cols: &simple_cols(&right_keys),
                            dpe_fraction,
                            right_scan,
                        };
                        if let Some((pair, _ml, _mr, dist)) = self.pair_cost(&ctx) {
                            let cost = le.cost + re.cost + pair;
                            if dp[mask].as_ref().map(|e| cost < e.cost).unwrap_or(true) {
                                dp[mask] = Some(DpEntry {
                                    cost,
                                    dist,
                                    split: Some((lmask, rmask)),
                                });
                            }
                        }
                    }
                    lmask = (lmask - 1) & mask;
                }
                if dp[mask].is_some() {
                    break;
                }
            }
            if dp[mask].is_none() {
                return Err(Error::Optimize(
                    "join enumeration found no valid plan for a subset".into(),
                ));
            }
        }

        let mut slots: Vec<Option<JoinSide>> = leaves.into_iter().map(Some).collect();
        let (side, _cost) = self.dp_rebuild(est, full, &dp, &mut slots, infos, &rows)?;
        Ok(side)
    }

    /// Materialize the DP winner: recurse down the recorded splits and run
    /// the same pair-join construction the costing saw.
    fn dp_rebuild(
        &self,
        est: &CardinalityEstimator,
        mask: usize,
        dp: &[Option<DpEntry>],
        slots: &mut [Option<JoinSide>],
        infos: &[ConjInfo],
        rows: &[f64],
    ) -> Result<(JoinSide, f64)> {
        let entry = dp[mask]
            .as_ref()
            .ok_or_else(|| Error::Optimize("missing DP entry during rebuild".into()))?;
        let Some((lmask, rmask)) = entry.split else {
            let i = mask.trailing_zeros() as usize;
            let leaf = slots[i]
                .take()
                .ok_or_else(|| Error::Optimize("leaf consumed twice during rebuild".into()))?;
            let cost = self.leaf_cost(&leaf);
            return Ok((leaf, cost));
        };
        let (l, lc) = self.dp_rebuild(est, lmask, dp, slots, infos, rows)?;
        let (r, rc) = self.dp_rebuild(est, rmask, dp, slots, infos, rows)?;
        let conjs: Vec<Expr> = infos
            .iter()
            .filter(|ci| {
                ci.support & mask == ci.support
                    && ci.support & lmask != 0
                    && ci.support & rmask != 0
            })
            .map(|ci| ci.expr.clone())
            .collect();
        let (side, pair) = self.join_pair(est, JoinType::Inner, conjs, l, r, rows[mask])?;
        Ok((side, lc + rc + pair))
    }

    /// Greedy fallback above [`MAX_DP_RELATIONS`]: repeatedly merge the
    /// pair of subtrees with the cheapest join, preferring connected pairs
    /// over cross products.
    fn enumerate_greedy(
        &self,
        est: &CardinalityEstimator,
        leaves: Vec<JoinSide>,
        infos: &[ConjInfo],
    ) -> Result<JoinSide> {
        let mut entries: Vec<(usize, JoinSide)> = leaves
            .into_iter()
            .enumerate()
            .map(|(i, l)| (1usize << i, l))
            .collect();
        while entries.len() > 1 {
            let mut best: Option<(f64, usize, usize, bool)> = None;
            for li in 0..entries.len() {
                for ri in 0..entries.len() {
                    if li == ri {
                        continue;
                    }
                    let (lm, l) = &entries[li];
                    let (rm, r) = &entries[ri];
                    let mask = lm | rm;
                    let (left_keys, right_keys, connected) = split_keys(infos, mask, *lm, *rm);
                    let out_rows = pair_out_rows(l.rows, r.rows, infos, mask, *lm, *rm);
                    let (dpe_fraction, right_scan) = if rm.count_ones() == 1 {
                        (
                            self.dpe_fraction(
                                &r.plan,
                                &left_keys,
                                &right_keys,
                                l.rows,
                                l.base_rows,
                            ),
                            self.partitioned_scan_shape(&r.plan),
                        )
                    } else {
                        (1.0, None)
                    };
                    let ctx = StrategyCtx {
                        join_type: JoinType::Inner,
                        has_equi: !left_keys.is_empty(),
                        l_rows: l.rows,
                        r_rows: r.rows,
                        out_rows,
                        l_dist: &l.dist,
                        r_dist: &r.dist,
                        lk_cols: &simple_cols(&left_keys),
                        rk_cols: &simple_cols(&right_keys),
                        dpe_fraction,
                        right_scan,
                    };
                    if let Some((cost, _, _, _)) = self.pair_cost(&ctx) {
                        let better = match &best {
                            None => true,
                            // Connected pairs always beat cross products.
                            Some((bc, _, _, bconn)) => {
                                (connected && !bconn) || (connected == *bconn && cost < *bc)
                            }
                        };
                        if better {
                            best = Some((cost, li, ri, connected));
                        }
                    }
                }
            }
            let (_, li, ri, _) = best
                .ok_or_else(|| Error::Optimize("greedy join enumeration found no plan".into()))?;
            // Remove the higher index first so the lower stays valid.
            let (hi, lo) = if li > ri { (li, ri) } else { (ri, li) };
            let b = entries.remove(hi);
            let a = entries.remove(lo);
            let ((lm, l), (rm, r)) = if li > ri { (b, a) } else { (a, b) };
            let mask = lm | rm;
            let conjs: Vec<Expr> = infos
                .iter()
                .filter(|ci| {
                    ci.support & mask == ci.support && ci.support & lm != 0 && ci.support & rm != 0
                })
                .map(|ci| ci.expr.clone())
                .collect();
            let out_rows = pair_out_rows(l.rows, r.rows, infos, mask, lm, rm);
            let (side, _cost) = self.join_pair(est, JoinType::Inner, conjs, l, r, out_rows)?;
            entries.push((mask, side));
        }
        Ok(entries.pop().expect("at least one entry").1)
    }

    /// Cost charged for producing a relation leaf (its scan). Pair costs
    /// use a *credit* for DPE (pruned minus full scan), so leaves carry
    /// the full scan cost and totals stay comparable across orders.
    fn leaf_cost(&self, leaf: &JoinSide) -> f64 {
        match self.partitioned_scan_shape(&leaf.plan) {
            Some((parts, rows)) => self.cost.dynamic_scan(rows, parts, 1.0),
            None => self.cost.table_scan(leaf.rows),
        }
    }

    /// Construct the physical join of two built sides: split the conjuncts
    /// into equi keys and residual, pick the cheapest distribution
    /// strategy, and wrap Motions. Returns the joined side and the pair's
    /// incremental cost (the same figure the enumerators ranked).
    fn join_pair(
        &self,
        est: &CardinalityEstimator,
        join_type: JoinType,
        conjuncts: Vec<Expr>,
        l: JoinSide,
        r: JoinSide,
        out_rows: f64,
    ) -> Result<(JoinSide, f64)> {
        // Split the predicate into equi-key pairs and a residual.
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual = Vec::new();
        for conj in &conjuncts {
            if let Expr::Cmp {
                op: mpp_expr::CmpOp::Eq,
                left: a,
                right: b,
            } = conj
            {
                let a_cols = collect_columns(a);
                let b_cols = collect_columns(b);
                let a_left = a_cols.iter().all(|c| l.cols.contains(c));
                let a_right = a_cols.iter().all(|c| r.cols.contains(c));
                let b_left = b_cols.iter().all(|c| l.cols.contains(c));
                let b_right = b_cols.iter().all(|c| r.cols.contains(c));
                if a_left && b_right && !a_cols.is_empty() && !b_cols.is_empty() {
                    left_keys.push(a.as_ref().clone());
                    right_keys.push(b.as_ref().clone());
                    continue;
                }
                if b_left && a_right && !a_cols.is_empty() && !b_cols.is_empty() {
                    left_keys.push(b.as_ref().clone());
                    right_keys.push(a.as_ref().clone());
                    continue;
                }
            }
            residual.push(conj.clone());
        }

        let dpe_fraction = self.dpe_fraction(&r.plan, &left_keys, &right_keys, l.rows, l.base_rows);
        let lk_cols = simple_cols(&left_keys);
        let rk_cols = simple_cols(&right_keys);
        let ctx = StrategyCtx {
            join_type,
            has_equi: !left_keys.is_empty(),
            l_rows: l.rows,
            r_rows: r.rows,
            out_rows,
            l_dist: &l.dist,
            r_dist: &r.dist,
            lk_cols: &lk_cols,
            rk_cols: &rk_cols,
            dpe_fraction,
            right_scan: self.partitioned_scan_shape(&r.plan),
        };
        let (cost, ml, mr, out_dist) = self
            .pair_cost(&ctx)
            .ok_or_else(|| Error::Optimize("no valid distribution strategy for join".into()))?;

        let out: Vec<ColRef> = [l.out.as_slice(), r.out.as_slice()].concat();
        let cols: BTreeSet<ColRef> = l.cols.union(&r.cols).cloned().collect();
        let base_rows = l.base_rows * r.base_rows;

        if left_keys.is_empty() {
            // No equi keys: nested loops with a broadcast inner.
            let r_plan = if mr == Mv::Bcast {
                PhysicalPlan::Motion {
                    kind: MotionKind::Broadcast,
                    child: Box::new(r.plan),
                }
            } else {
                r.plan
            };
            return Ok((
                JoinSide {
                    plan: PhysicalPlan::NLJoin {
                        join_type,
                        pred: Some(Expr::and(conjuncts)),
                        left: Box::new(l.plan),
                        right: Box::new(r_plan),
                    },
                    dist: out_dist,
                    rows: out_rows,
                    cols,
                    out,
                    base_rows,
                },
                cost,
            ));
        }

        // Adaptive per-partition plan specialization: when the inner side
        // is a skew-partitioned scan, a per-group Append with different
        // strategies per branch may beat the single uniform strategy.
        if let Some((plan, dist, spec_cost)) = self.try_specialize_join(
            est,
            join_type,
            &conjuncts,
            &left_keys,
            &right_keys,
            &residual,
            &l,
            &r,
            out_rows,
            cost,
        ) {
            return Ok((
                JoinSide {
                    plan,
                    dist,
                    rows: out_rows,
                    cols,
                    out,
                    base_rows,
                },
                spec_cost,
            ));
        }

        let residual = if residual.is_empty() {
            None
        } else {
            Some(Expr::and(residual))
        };
        let apply = |plan: PhysicalPlan, mv: Mv, keys: &Option<Vec<ColRef>>| match mv {
            Mv::None => plan,
            Mv::Redist => PhysicalPlan::Motion {
                kind: MotionKind::Redistribute(keys.clone().expect("checked in pair_cost")),
                child: Box::new(plan),
            },
            Mv::Bcast => PhysicalPlan::Motion {
                kind: MotionKind::Broadcast,
                child: Box::new(plan),
            },
        };
        let l_plan = apply(l.plan, ml, &lk_cols);
        let r_plan = apply(r.plan, mr, &rk_cols);
        Ok((
            JoinSide {
                plan: PhysicalPlan::HashJoin {
                    join_type,
                    left_keys,
                    right_keys,
                    residual,
                    left: Box::new(l_plan),
                    right: Box::new(r_plan),
                },
                dist: out_dist,
                rows: out_rows,
                cols,
                out,
                base_rows,
            },
            cost,
        ))
    }

    /// The distribution-strategy search for one join pair: cheapest of
    /// redistribute / broadcast-right / broadcast-left (inner only),
    /// respecting co-location and Replicated-side rules. Partitioned inner
    /// sides that stay in place are credited with the DPE scan saving
    /// (Figure 14), expressed relative to the full scan the leaf already
    /// paid for, so enumerator totals compose. Returns
    /// `(cost, left motion, right motion, output distribution)`.
    fn pair_cost(&self, ctx: &StrategyCtx) -> Option<(f64, Mv, Mv, DistSpec)> {
        if !ctx.has_equi {
            // Nested loops; the inner side is broadcast unless already
            // visible everywhere (or both sides are singletons).
            let (mr, move_cost) = match (ctx.r_dist, ctx.l_dist) {
                (DistSpec::Replicated, _) => (Mv::None, 0.0),
                (DistSpec::Singleton, DistSpec::Singleton) => (Mv::None, 0.0),
                _ => (Mv::Bcast, self.cost.broadcast(ctx.r_rows)),
            };
            let cost = move_cost + self.cost.nl_join(ctx.l_rows, ctx.r_rows);
            return Some((cost, Mv::None, mr, ctx.l_dist.clone()));
        }

        let l_colocated = matches!((ctx.l_dist, ctx.lk_cols), (DistSpec::Hashed(h), Some(k)) if h == k)
            || *ctx.l_dist == DistSpec::Singleton;
        let r_colocated = matches!((ctx.r_dist, ctx.rk_cols), (DistSpec::Hashed(h), Some(k)) if h == k)
            || *ctx.r_dist == DistSpec::Singleton;

        // Candidate strategies: (left motion, right motion).
        let mut candidates: Vec<(Mv, Mv)> = Vec::new();
        // (a) redistribute to co-locate on keys.
        candidates.push((
            if l_colocated { Mv::None } else { Mv::Redist },
            if r_colocated { Mv::None } else { Mv::Redist },
        ));
        // (b) broadcast right, leave left.
        candidates.push((Mv::None, Mv::Bcast));
        // (c) broadcast left, leave right (inner joins and semi-style
        // joins must not duplicate left rows — only Inner allows this).
        if ctx.join_type == JoinType::Inner {
            candidates.push((Mv::Bcast, Mv::None));
        }

        let mut best: Option<(f64, (Mv, Mv))> = None;
        for (ml, mr) in candidates {
            // Redistribution requires simple column keys.
            if ml == Mv::Redist && ctx.lk_cols.is_none() {
                continue;
            }
            if mr == Mv::Redist && ctx.rk_cols.is_none() {
                continue;
            }
            // Replicated sides must not be moved again.
            if *ctx.l_dist == DistSpec::Replicated && ml != Mv::None {
                continue;
            }
            if *ctx.r_dist == DistSpec::Replicated && mr != Mv::None {
                continue;
            }
            // Validity: matching pairs must meet. Either both hashed on
            // keys, or one side replicated/broadcast.
            let l_ok = ml != Mv::None || l_colocated || *ctx.l_dist == DistSpec::Replicated;
            let r_ok = mr != Mv::None || r_colocated || *ctx.r_dist == DistSpec::Replicated;
            let joinable = match (ml, mr) {
                (Mv::Bcast, _) | (_, Mv::Bcast) => true,
                _ => {
                    (l_ok && r_ok)
                        || *ctx.l_dist == DistSpec::Replicated
                        || *ctx.r_dist == DistSpec::Replicated
                }
            };
            if !joinable {
                continue;
            }
            let mut cost = 0.0;
            cost += match ml {
                Mv::None => 0.0,
                Mv::Redist => self.cost.redistribute(ctx.l_rows),
                Mv::Bcast => self.cost.broadcast(ctx.l_rows),
            };
            cost += match mr {
                Mv::None => 0.0,
                Mv::Redist => self.cost.redistribute(ctx.r_rows),
                Mv::Bcast => self.cost.broadcast(ctx.r_rows),
            };
            // DPE saves scan cost on the inner side when it stays in
            // place; charged as a delta against the full scan so the
            // saving is comparable across join orders.
            let scan_fraction = if mr == Mv::None {
                ctx.dpe_fraction
            } else {
                1.0
            };
            if let Some((total_parts, scan_rows)) = ctx.right_scan {
                cost += self
                    .cost
                    .dynamic_scan(scan_rows, total_parts, scan_fraction)
                    - self.cost.dynamic_scan(scan_rows, total_parts, 1.0);
            }
            cost += self
                .cost
                .hash_join(ctx.l_rows, ctx.r_rows * scan_fraction, ctx.out_rows);
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, (ml, mr)));
            }
        }
        let (cost, (ml, mr)) = best?;
        let out_dist = match (ml, mr) {
            (Mv::Bcast, _) => ctx.r_dist.clone(),
            (_, Mv::Bcast) => match ml {
                Mv::Redist => DistSpec::Hashed(ctx.lk_cols.clone().unwrap()),
                _ => ctx.l_dist.clone(),
            },
            (Mv::Redist, _) | (Mv::None, Mv::Redist) => {
                if ml == Mv::Redist {
                    DistSpec::Hashed(ctx.lk_cols.clone().unwrap())
                } else {
                    ctx.l_dist.clone()
                }
            }
            (Mv::None, Mv::None) => ctx.l_dist.clone(),
        };
        Some((cost, ml, mr, out_dist))
    }

    /// Expected fraction of partitions scanned if dynamic partition
    /// elimination applies to the right (inner) side via these join keys;
    /// 1.0 when no DPE opportunity exists.
    ///
    /// Without per-value histograms we estimate the fraction of the key
    /// domain the outer side still covers by how selective its filters
    /// were: an outer side reduced to 1% of its base rows drives roughly
    /// 1% of the partitions (the uniform-key assumption).
    fn dpe_fraction(
        &self,
        right_plan: &PhysicalPlan,
        left_keys: &[Expr],
        right_keys: &[Expr],
        left_rows: f64,
        left_base_rows: f64,
    ) -> f64 {
        let Some((table, output)) = dynamic_scan_of(right_plan) else {
            return 1.0;
        };
        let Ok(tree) = self.catalog.part_tree(table) else {
            return 1.0;
        };
        let key_cols: Vec<ColRef> = tree
            .key_indices()
            .iter()
            .filter_map(|&i| output.get(i).cloned())
            .collect();
        // Which join key pair hits a partition key?
        for (lk, rk) in left_keys.iter().zip(right_keys) {
            let _ = lk;
            if let Expr::Col(rc) = rk {
                if key_cols.contains(rc) {
                    let parts = tree.num_leaves() as f64;
                    // Two independent upper bounds on the touched
                    // fraction: the outer side's filter selectivity (a
                    // filtered outer covers proportionally less of the
                    // key domain) and its absolute row count (n outer
                    // rows can light up at most n partitions).
                    let ratio = if left_base_rows > 0.0 {
                        left_rows / left_base_rows
                    } else {
                        1.0
                    };
                    let by_count = left_rows / parts;
                    return ratio.min(by_count).clamp(1.0 / parts, 1.0);
                }
            }
        }
        1.0
    }

    /// Shape of the partitioned scan rooted in the plan, if any: expected
    /// (leaf count, rows). *Static* elimination by the filters sitting on
    /// the scan is folded in — with per-partition row counts from ANALYZE
    /// the estimate reflects the partitions actually opened, otherwise a
    /// uniform fraction of the table.
    fn partitioned_scan_shape(&self, plan: &PhysicalPlan) -> Option<(usize, f64)> {
        let (table, output) = dynamic_scan_of(plan)?;
        let tree = self.catalog.part_tree(table).ok()?;
        let stats = self.catalog.stats(table);
        let total = tree.num_leaves();
        let mut parts = total;
        let mut rows = stats.row_count as f64;
        let mut preds = Vec::new();
        scan_filters(plan, &mut preds);
        if !preds.is_empty() && self.config.enable_partition_selection {
            let pred = Expr::and(preds);
            let derived: Vec<DerivedSet> = tree
                .key_indices()
                .iter()
                .map(|&i| match output.get(i) {
                    // Plan-time derivation: params unknown → full set.
                    Some(key) => derive_interval_set(&pred, key, None),
                    None => DerivedSet::full(),
                })
                .collect();
            if let Ok(surviving) = tree.select_partitions(&derived) {
                parts = surviving.len();
                rows = match stats.rows_in_parts(surviving.iter()) {
                    Some(n) => n as f64,
                    None => rows * parts as f64 / total.max(1) as f64,
                };
            }
        }
        Some((parts.max(1), rows))
    }

    /// Rows surviving *static* partition elimination of `pred` over a
    /// partitioned `table`, or `None` when nothing is eliminated (not
    /// partitioned, no partition-key conjuncts, or selection disabled).
    fn statically_pruned_rows(
        &self,
        table: TableOid,
        output: &[ColRef],
        pred: &Expr,
        est: &CardinalityEstimator,
    ) -> Option<f64> {
        if !self.config.enable_partition_selection {
            return None;
        }
        let tree = self.catalog.part_tree(table).ok()?;
        let derived: Vec<DerivedSet> = tree
            .key_indices()
            .iter()
            .map(|&i| match output.get(i) {
                Some(key) => derive_interval_set(pred, key, None),
                None => DerivedSet::full(),
            })
            .collect();
        let surviving = tree.select_partitions(&derived).ok()?;
        if surviving.len() >= tree.num_leaves() {
            return None;
        }
        Some(est.partition_cardinality(table, &surviving, tree.num_leaves()))
    }

    /// Adaptive per-partition plan specialization. When the inner side of
    /// an equi join is a partitioned scan whose surviving partitions are
    /// strongly skewed — per-partition ANALYZE counts show one heavy
    /// partition (typically DEFAULT) holding at least half the rows — a
    /// single distribution strategy is a compromise: the heavy group
    /// wants to stay in place behind a small broadcast outer (dynamic
    /// partition elimination then prunes it to almost nothing when the
    /// outer's keys barely reach its range), while the light group is
    /// cheap to redistribute or broadcast wholesale.
    ///
    /// The rewrite splits the join into one branch per partition group.
    /// Each branch filters the *outer* side to the group's key range
    /// (per-group costs then come from the outer histogram, which is what
    /// makes a split cheaper than the uniform plan in the first place),
    /// restricts the inner scan to the group's partition OIDs under a
    /// fresh scan id, picks the cheapest strategy for that branch alone,
    /// and the branches are stitched with `Append`. The group key ranges
    /// partition the non-null key domain of the surviving partitions, and
    /// NULL keys never satisfy an inner equi join, so the union of the
    /// branches is exactly the uniform join's output.
    ///
    /// Returns `(plan, dist, cost)` when the specialized plan costs less
    /// than `uniform_cost`; `None` keeps the uniform join.
    #[allow(clippy::too_many_arguments)]
    fn try_specialize_join(
        &self,
        est: &CardinalityEstimator,
        join_type: JoinType,
        conjuncts: &[Expr],
        left_keys: &[Expr],
        right_keys: &[Expr],
        residual: &[Expr],
        l: &JoinSide,
        r: &JoinSide,
        out_rows: f64,
        uniform_cost: f64,
    ) -> Option<(PhysicalPlan, DistSpec, f64)> {
        if !self.config.adaptive_plans
            || !self.config.enable_partition_selection
            || join_type != JoinType::Inner
            || left_keys.is_empty()
            || l.dist == DistSpec::Replicated
            || r.dist == DistSpec::Replicated
        {
            return None;
        }
        // The rewrite duplicates the outer subtree into every branch and
        // retags the inner scan: only safe when the outer contains no
        // partitioned scan of its own (selector ids must stay unique) and
        // the inner contains exactly one.
        if count_dynamic_scans(&l.plan) != 0 || count_dynamic_scans(&r.plan) != 1 {
            return None;
        }
        let (table, output) = dynamic_scan_of(&r.plan)?;
        let tree = self.catalog.part_tree(table).ok()?;
        let key_idx = match tree.key_indices().as_slice() {
            [i] => *i,
            _ => return None, // multi-level partitioning: keep uniform
        };
        let key_col = output.get(key_idx)?.clone();
        // The branch filter goes on the outer side, so the join-key pair
        // hitting the partition key must be a bare column on both sides.
        let outer_key = left_keys
            .iter()
            .zip(right_keys)
            .find_map(|(lk, rk)| match (lk, rk) {
                (Expr::Col(lc), Expr::Col(rc)) if *rc == key_col => Some(lc.clone()),
                _ => None,
            })?;

        // Surviving partitions after static elimination by the scan's own
        // filters, with per-partition row counts (requires ANALYZE).
        let stats = self.catalog.stats(table);
        let mut preds = Vec::new();
        scan_filters(&r.plan, &mut preds);
        let surviving = if preds.is_empty() {
            tree.partition_expansion()
        } else {
            let pred = Expr::and(preds);
            let derived: Vec<DerivedSet> = tree
                .key_indices()
                .iter()
                .map(|&i| match output.get(i) {
                    Some(key) => derive_interval_set(&pred, key, None),
                    None => DerivedSet::full(),
                })
                .collect();
            tree.select_partitions(&derived).ok()?
        };
        if surviving.len() < 2 {
            return None;
        }
        let mut part_rows: Vec<(PartOid, f64)> = Vec::with_capacity(surviving.len());
        for oid in &surviving {
            part_rows.push((*oid, stats.rows_in_parts(std::iter::once(oid))? as f64));
        }
        let total: f64 = part_rows.iter().map(|(_, n)| n).sum();
        if total <= 0.0 {
            return None;
        }
        // Skew gate: specialization only pays when one partition dominates.
        let (heavy_oid, heavy_rows) = part_rows
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if heavy_rows < 0.5 * total {
            return None;
        }

        // Two groups: the heavy partition alone, and the light remainder.
        let light: Vec<(PartOid, f64)> = part_rows
            .iter()
            .filter(|(oid, _)| *oid != heavy_oid)
            .cloned()
            .collect();
        let light_rows: f64 = light.iter().map(|(_, n)| n).sum();
        let groups: Vec<(Vec<PartOid>, f64)> = vec![
            (vec![heavy_oid], heavy_rows),
            (light.iter().map(|(oid, _)| *oid).collect(), light_rows),
        ];

        // Level-0 key-range constraint per leaf; the DEFAULT partition
        // reports the uncovered complement, so the surviving constraints
        // partition the non-null key domain.
        let constraints: std::collections::HashMap<PartOid, IntervalSet> = tree
            .partition_constraints()
            .into_iter()
            .filter_map(|(oid, mut sets)| {
                if sets.is_empty() {
                    None
                } else {
                    Some((oid, sets.remove(0)))
                }
            })
            .collect();

        let lk_cols = simple_cols(left_keys);
        let rk_cols = simple_cols(right_keys);
        enum Strategy {
            Hash(Mv, Mv, DistSpec),
            NlBcast,
        }
        let mut branches: Vec<(Vec<PartOid>, Option<Expr>, Strategy)> = Vec::new();
        let mut spec_cost = 0.0;
        for (oids, rows) in groups {
            let mut iset = IntervalSet::empty();
            for oid in &oids {
                iset = iset.union(constraints.get(oid)?);
            }
            if iset.is_empty() {
                // Only NULL keys can live here; they never satisfy an
                // inner equi join, so skip the branch (and keep the
                // rewrite only when both branches materialize).
                return None;
            }
            let filter = interval_set_to_pred(&outer_key, &iset);
            let l_rows = match &filter {
                Some(f) => (l.rows * est.selectivity(f)).max(1.0),
                None => l.rows,
            };
            let frac = (rows / total).clamp(0.0, 1.0);
            let r_rows = (r.rows * frac).max(1.0);
            let branch_out = (out_rows * frac).max(1.0);
            let dpe = self.dpe_fraction(&r.plan, left_keys, right_keys, l_rows, l.base_rows);
            let ctx = StrategyCtx {
                join_type,
                has_equi: true,
                l_rows,
                r_rows,
                out_rows: branch_out,
                l_dist: &l.dist,
                r_dist: &r.dist,
                lk_cols: &lk_cols,
                rk_cols: &rk_cols,
                dpe_fraction: dpe,
                right_scan: Some((oids.len(), rows)),
            };
            let hash = self.pair_cost(&ctx);
            // Alternative: broadcast the (restricted) inner wholesale and
            // nested-loop it — wins for slim groups where hashing costs
            // more than it saves.
            let nl = self.cost.broadcast(r_rows) + self.cost.nl_join(l_rows, r_rows);
            let (branch_cost, strategy) = match hash {
                Some((hc, ml, mr, dist)) if hc <= nl => (hc, Strategy::Hash(ml, mr, dist)),
                _ => (nl, Strategy::NlBcast),
            };
            spec_cost += branch_cost;
            if filter.is_some() {
                spec_cost += self.cost.filter(l.rows);
            }
            branches.push((oids, filter, strategy));
        }
        // Every branch re-runs the outer subtree: charge the duplicates.
        spec_cost += (branches.len() - 1) as f64 * self.cost.table_scan(l.base_rows);
        if spec_cost >= uniform_cost || branches.len() < 2 {
            return None;
        }

        // Emit: per branch, a fresh-id inner scan restricted to the
        // group's OIDs under the branch's own strategy, an outer filtered
        // to the group's key range, stitched with Append.
        let residual = if residual.is_empty() {
            None
        } else {
            Some(Expr::and(residual.to_vec()))
        };
        let out_cols: Vec<ColRef> = [l.out.as_slice(), r.out.as_slice()].concat();
        let mut children = Vec::new();
        let mut dists: Vec<DistSpec> = Vec::new();
        for (oids, filter, strategy) in branches {
            let scan_id = self.fresh_scan_id();
            let r_plan = retag_restrict(r.plan.clone(), scan_id, &oids);
            let mut l_plan = l.plan.clone();
            if let Some(f) = &filter {
                l_plan = PhysicalPlan::Filter {
                    pred: f.clone(),
                    child: Box::new(l_plan),
                };
            }
            match strategy {
                Strategy::NlBcast => {
                    children.push(PhysicalPlan::NLJoin {
                        join_type,
                        pred: Some(Expr::and(conjuncts.to_vec())),
                        left: Box::new(l_plan),
                        right: Box::new(PhysicalPlan::Motion {
                            kind: MotionKind::Broadcast,
                            child: Box::new(r_plan),
                        }),
                    });
                    dists.push(l.dist.clone());
                }
                Strategy::Hash(ml, mr, dist) => {
                    let apply = |plan: PhysicalPlan, mv: Mv, keys: &Option<Vec<ColRef>>| match mv {
                        Mv::None => plan,
                        Mv::Redist => PhysicalPlan::Motion {
                            kind: MotionKind::Redistribute(
                                keys.clone().expect("checked in pair_cost"),
                            ),
                            child: Box::new(plan),
                        },
                        Mv::Bcast => PhysicalPlan::Motion {
                            kind: MotionKind::Broadcast,
                            child: Box::new(plan),
                        },
                    };
                    children.push(PhysicalPlan::HashJoin {
                        join_type,
                        left_keys: left_keys.to_vec(),
                        right_keys: right_keys.to_vec(),
                        residual: residual.clone(),
                        left: Box::new(apply(l_plan, ml, &lk_cols)),
                        right: Box::new(apply(r_plan, mr, &rk_cols)),
                    });
                    dists.push(dist);
                }
            }
        }
        // Branch outputs are unioned in place; unless every branch landed
        // on the same hashed distribution, claim only "somewhere hashed"
        // (never co-located) so parents and the root add the Motions they
        // need. Branch dists are never Replicated (both inputs are gated
        // non-Replicated above), so this never under-counts rows.
        let dist =
            if dists.windows(2).all(|w| w[0] == w[1]) && matches!(dists[0], DistSpec::Hashed(_)) {
                dists[0].clone()
            } else {
                DistSpec::Hashed(vec![])
            };
        Some((
            PhysicalPlan::Append {
                output: out_cols,
                children,
            },
            dist,
            spec_cost,
        ))
    }
}

/// Left/right motion applied to a join side.
#[derive(Clone, Copy, PartialEq)]
enum Mv {
    None,
    Redist,
    Bcast,
}

/// One side of a candidate pair join: the built subtree plus what the
/// strategy search and the enumerators track per subset.
struct JoinSide {
    plan: PhysicalPlan,
    dist: DistSpec,
    rows: f64,
    /// Output columns as a set (conjunct ownership tests).
    cols: BTreeSet<ColRef>,
    /// Output columns in order (restoring the syntactic column order at
    /// the root of a reordered join tree).
    out: Vec<ColRef>,
    /// Product of base-table cardinalities under this side (the DPE
    /// selectivity-vs-domain heuristic).
    base_rows: f64,
}

/// Inputs to [`Optimizer::pair_cost`].
struct StrategyCtx<'a> {
    join_type: JoinType,
    has_equi: bool,
    l_rows: f64,
    r_rows: f64,
    out_rows: f64,
    l_dist: &'a DistSpec,
    r_dist: &'a DistSpec,
    lk_cols: &'a Option<Vec<ColRef>>,
    rk_cols: &'a Option<Vec<ColRef>>,
    dpe_fraction: f64,
    /// `(leaf parts, rows)` when the right side roots a partitioned scan.
    right_scan: Option<(usize, f64)>,
}

/// A pooled join conjunct: which relations it references (`support`, a
/// bitmask over the flattened relation list), its selectivity, and — for
/// `a = b` equalities — both sides with their own relation masks, so the
/// enumerator can type it as an equi-key for any split.
struct ConjInfo {
    expr: Expr,
    support: usize,
    sel: f64,
    eq: Option<(Expr, Expr, usize, usize)>,
}

/// Best plan found for one relation subset during DPsize.
#[derive(Clone)]
struct DpEntry {
    cost: f64,
    dist: DistSpec,
    /// `None` for single relations; otherwise the winning (left, right)
    /// submasks.
    split: Option<(usize, usize)>,
}

/// Collect the relation leaves and pooled conjuncts of a maximal
/// inner-join subtree. Anything that is not an inner join (outer joins,
/// aggregates, projections…) is opaque: it becomes a relation of the
/// enumeration, and its own joins are ordered independently when `build`
/// recurses into it.
fn flatten_inner<'a>(
    plan: &'a LogicalPlan,
    rels: &mut Vec<&'a LogicalPlan>,
    conjs: &mut Vec<Expr>,
) {
    if let LogicalPlan::Join {
        join_type: JoinType::Inner,
        pred,
        left,
        right,
    } = plan
    {
        flatten_inner(left, rels, conjs);
        flatten_inner(right, rels, conjs);
        push_conjuncts(pred, conjs);
    } else {
        rels.push(plan);
    }
}

/// Append a predicate's conjuncts, dropping literal `true`.
fn push_conjuncts(pred: &Expr, conjs: &mut Vec<Expr>) {
    let truth = Expr::lit(true);
    conjs.extend(split_conjuncts(pred).into_iter().filter(|c| *c != truth));
}

/// Equi-key pairs between two subsets for one DP split, plus whether any
/// conjunct connects them at all (cross-product detection).
fn split_keys(
    infos: &[ConjInfo],
    mask: usize,
    lmask: usize,
    rmask: usize,
) -> (Vec<Expr>, Vec<Expr>, bool) {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut connected = false;
    for ci in infos {
        if ci.support & mask != ci.support || ci.support & lmask == 0 || ci.support & rmask == 0 {
            continue;
        }
        connected = true;
        if let Some((a, b, am, bm)) = &ci.eq {
            if *am != 0 && *bm != 0 {
                if am & lmask == *am && bm & rmask == *bm {
                    left_keys.push(a.clone());
                    right_keys.push(b.clone());
                } else if bm & lmask == *bm && am & rmask == *am {
                    left_keys.push(b.clone());
                    right_keys.push(a.clone());
                }
            }
        }
    }
    (left_keys, right_keys, connected)
}

/// Key columns usable for redistribution: all keys must be bare columns.
fn simple_cols(keys: &[Expr]) -> Option<Vec<ColRef>> {
    keys.iter()
        .map(|e| match e {
            Expr::Col(c) => Some(c.clone()),
            _ => None,
        })
        .collect()
}

/// Split-independent output estimate for merging two subtrees in the
/// greedy enumerator: row product × selectivity of every conjunct newly
/// covered by the union.
fn pair_out_rows(
    l_rows: f64,
    r_rows: f64,
    infos: &[ConjInfo],
    mask: usize,
    lmask: usize,
    rmask: usize,
) -> f64 {
    let mut rows = l_rows * r_rows;
    for ci in infos {
        if ci.support & mask == ci.support && ci.support & lmask != 0 && ci.support & rmask != 0 {
            rows *= ci.sel;
        }
    }
    rows.max(1.0)
}

/// Conjuncts of the Filter/Project chain sitting directly on a scan.
fn scan_filters(plan: &PhysicalPlan, preds: &mut Vec<Expr>) {
    match plan {
        PhysicalPlan::Filter { pred, child } => {
            preds.extend(split_conjuncts(pred));
            scan_filters(child, preds);
        }
        PhysicalPlan::Project { child, .. } => scan_filters(child, preds),
        _ => {}
    }
}

/// Product of the base-table cardinalities in a logical subtree — the
/// "unfiltered" size the estimator's output is compared against when
/// guessing how much of the key domain survives.
fn base_cardinality(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
    let mut product = 1.0f64;
    for t in plan.base_tables() {
        product *= catalog.stats(t).row_count.max(1) as f64;
    }
    product
}

/// If the plan is a (filter over a) DynamicScan, return its table and
/// output columns.
fn dynamic_scan_of(plan: &PhysicalPlan) -> Option<(TableOid, Vec<ColRef>)> {
    match plan {
        PhysicalPlan::DynamicScan { table, output, .. } => Some((*table, output.clone())),
        PhysicalPlan::Filter { child, .. } | PhysicalPlan::Project { child, .. } => {
            dynamic_scan_of(child)
        }
        _ => None,
    }
}

/// Number of DynamicScans anywhere in a subtree.
fn count_dynamic_scans(plan: &PhysicalPlan) -> usize {
    let mut n = usize::from(matches!(plan, PhysicalPlan::DynamicScan { .. }));
    for c in plan.children() {
        n += count_dynamic_scans(c);
    }
    n
}

/// Clone-rewrite for one adaptive Append branch: give the DynamicScan
/// under `plan` a fresh scan id and restrict it to the branch's group
/// OIDs. The fresh id keeps selector pairing unique across branches.
fn retag_restrict(plan: PhysicalPlan, id: PartScanId, oids: &[PartOid]) -> PhysicalPlan {
    if let PhysicalPlan::DynamicScan {
        table,
        table_name,
        output,
        filter,
        ..
    } = plan
    {
        PhysicalPlan::DynamicScan {
            table,
            table_name,
            part_scan_id: id,
            output,
            filter,
            restrict: Some(oids.to_vec()),
        }
    } else {
        map_children(plan, |c| retag_restrict(c, id, oids))
    }
}

/// Render an interval set as a range predicate over `col`: `None` when
/// the set is unbounded (no filter needed), `false` when it is empty.
/// Used for the per-branch outer filters of an adaptive Append — each
/// branch keeps only the outer rows whose join key can meet its group.
fn interval_set_to_pred(col: &ColRef, iset: &IntervalSet) -> Option<Expr> {
    if iset.is_full() {
        return None;
    }
    if iset.is_empty() {
        return Some(Expr::lit(false));
    }
    let mut arms = Vec::new();
    for iv in iset.intervals() {
        let mut conj = Vec::new();
        match &iv.low {
            LowBound::NegInf => {}
            LowBound::Incl(d) => conj.push(Expr::ge(Expr::col(col.clone()), Expr::lit(d.clone()))),
            LowBound::Excl(d) => conj.push(Expr::gt(Expr::col(col.clone()), Expr::lit(d.clone()))),
        }
        match &iv.high {
            HighBound::PosInf => {}
            HighBound::Incl(d) => conj.push(Expr::le(Expr::col(col.clone()), Expr::lit(d.clone()))),
            HighBound::Excl(d) => conj.push(Expr::lt(Expr::col(col.clone()), Expr::lit(d.clone()))),
        }
        if conj.is_empty() {
            // An unbounded interval inside a non-full set cannot happen;
            // fail safe with no restriction.
            return None;
        }
        arms.push(Expr::and(conj));
    }
    Some(Expr::or(arms))
}

/// Remove every selector predicate, disabling partition elimination while
/// keeping the plan shape (Figure 17's "disabled" configuration).
fn strip_selector_predicates(plan: PhysicalPlan) -> PhysicalPlan {
    fn rec(p: PhysicalPlan) -> PhysicalPlan {
        let p = map_children(p, rec);
        if let PhysicalPlan::PartitionSelector {
            table,
            table_name,
            part_scan_id,
            part_keys,
            predicates,
            child,
        } = p
        {
            PhysicalPlan::PartitionSelector {
                table,
                table_name,
                part_scan_id,
                part_keys,
                predicates: vec![None; predicates.len()],
                child,
            }
        } else {
            p
        }
    }
    rec(plan)
}

/// Rebuild a node with transformed children.
pub(crate) fn map_children(
    plan: PhysicalPlan,
    mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan,
) -> PhysicalPlan {
    use PhysicalPlan::*;
    match plan {
        Filter { pred, child } => Filter {
            pred,
            child: Box::new(f(*child)),
        },
        Project {
            exprs,
            output,
            child,
        } => Project {
            exprs,
            output,
            child: Box::new(f(*child)),
        },
        HashJoin {
            join_type,
            left_keys,
            right_keys,
            residual,
            left,
            right,
        } => {
            let l = f(*left);
            let r = f(*right);
            HashJoin {
                join_type,
                left_keys,
                right_keys,
                residual,
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        NLJoin {
            join_type,
            pred,
            left,
            right,
        } => {
            let l = f(*left);
            let r = f(*right);
            NLJoin {
                join_type,
                pred,
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        HashAgg {
            group_by,
            aggs,
            output,
            child,
        } => HashAgg {
            group_by,
            aggs,
            output,
            child: Box::new(f(*child)),
        },
        Motion { kind, child } => Motion {
            kind,
            child: Box::new(f(*child)),
        },
        Sequence { children } => Sequence {
            children: children.into_iter().map(f).collect(),
        },
        Append { output, children } => Append {
            output,
            children: children.into_iter().map(f).collect(),
        },
        Limit { n, child } => Limit {
            n,
            child: Box::new(f(*child)),
        },
        Sort { keys, child } => Sort {
            keys,
            child: Box::new(f(*child)),
        },
        InitPlanOids {
            param,
            table,
            key,
            child,
        } => InitPlanOids {
            param,
            table,
            key,
            child: Box::new(f(*child)),
        },
        PartitionSelector {
            table,
            table_name,
            part_scan_id,
            part_keys,
            predicates,
            child,
        } => PartitionSelector {
            table,
            table_name,
            part_scan_id,
            part_keys,
            predicates,
            child: child.map(|c| Box::new(f(*c))),
        },
        Update {
            table,
            target_cols,
            assignments,
            child,
        } => Update {
            table,
            target_cols,
            assignments,
            child: Box::new(f(*child)),
        },
        Delete {
            table,
            target_cols,
            child,
        } => Delete {
            table,
            target_cols,
            child: Box::new(f(*child)),
        },
        Insert { table, child } => Insert {
            table,
            child: Box::new(f(*child)),
        },
        leaf => leaf,
    }
}

/// Build the colref → base column binding by walking `Get` nodes.
fn build_binding(plan: &LogicalPlan, binding: &mut ColumnBinding) {
    if let LogicalPlan::Get { table, output, .. } = plan {
        for (i, c) in output.iter().enumerate() {
            binding.bind(c.id, *table, i);
        }
    }
    for c in plan.children() {
        build_binding(c, binding);
    }
}

/// Stage 1: normalization — simplify predicates, push conjuncts below
/// joins where their columns allow it, and rewrite equi-semi-joins into
/// inner joins over a distinct build side. The semi-join rewrite is what
/// turns the paper's Figure 4 `IN (SELECT …)` into a join with the fact
/// table on the *inner* side, where Algorithm 4 can apply dynamic
/// partition elimination.
pub fn normalize(plan: LogicalPlan) -> LogicalPlan {
    normalize_opts(plan, true)
}

/// Normalization without the semi-join rewrite — the legacy planner's
/// weaker normalizer (its subquery plans keep the fact table on the outer
/// side, which is why it cannot eliminate partitions there; §4.3).
pub fn normalize_basic(plan: LogicalPlan) -> LogicalPlan {
    normalize_opts(plan, false)
}

fn normalize_opts(plan: LogicalPlan, rewrite_semi: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { pred, child } => {
            let child = normalize_opts(*child, rewrite_semi);
            let pred = simplify(&pred);
            push_select(pred, child)
        }
        LogicalPlan::Join {
            join_type,
            pred,
            left,
            right,
        } => {
            let mut left = normalize_opts(*left, rewrite_semi);
            let mut right = normalize_opts(*right, rewrite_semi);
            let pred = simplify(&pred);
            // Semi-join → inner join over the distinct right side, with
            // the former probe side as the join's inner child.
            if rewrite_semi && join_type == JoinType::LeftSemi {
                if let Some(r_col) = single_right_equi_col(&pred, &left, &right) {
                    let distinct = LogicalPlan::Agg {
                        group_by: vec![r_col.clone()],
                        aggs: vec![],
                        output: vec![r_col],
                        child: Box::new(right),
                    };
                    let out_cols = left.output_cols();
                    let inner = LogicalPlan::Join {
                        join_type: JoinType::Inner,
                        pred,
                        left: Box::new(distinct),
                        right: Box::new(left),
                    };
                    return LogicalPlan::Project {
                        exprs: out_cols.iter().cloned().map(Expr::col).collect(),
                        output: out_cols,
                        child: Box::new(inner),
                    };
                }
            }
            // Single-side conjuncts of an inner/semi join predicate sink
            // into that side.
            let mut keep = Vec::new();
            if matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
                let lcols: BTreeSet<ColRef> = left.output_cols().into_iter().collect();
                let rcols: BTreeSet<ColRef> = right.output_cols().into_iter().collect();
                for c in split_conjuncts(&pred) {
                    let cols = collect_columns(&c);
                    if !cols.is_empty() && cols.iter().all(|x| lcols.contains(x)) {
                        left = push_select(c, left);
                    } else if !cols.is_empty() && cols.iter().all(|x| rcols.contains(x)) {
                        right = push_select(c, right);
                    } else {
                        keep.push(c);
                    }
                }
            } else {
                keep = split_conjuncts(&pred);
            }
            LogicalPlan::Join {
                join_type,
                pred: Expr::and(keep),
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        LogicalPlan::Project {
            exprs,
            output,
            child,
        } => LogicalPlan::Project {
            exprs,
            output,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Agg {
            group_by,
            aggs,
            output,
            child,
        } => LogicalPlan::Agg {
            group_by,
            aggs,
            output,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Limit { n, child } => LogicalPlan::Limit {
            n,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Sort { keys, child } => LogicalPlan::Sort {
            keys,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Update {
            table,
            target_cols,
            assignments,
            child,
        } => LogicalPlan::Update {
            table,
            target_cols,
            assignments,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Delete {
            table,
            target_cols,
            child,
        } => LogicalPlan::Delete {
            table,
            target_cols,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        LogicalPlan::Insert { table, child } => LogicalPlan::Insert {
            table,
            child: Box::new(normalize_opts(*child, rewrite_semi)),
        },
        leaf => leaf,
    }
}

/// If the predicate is a single equality `l_expr = r_col` with `r_col` a
/// bare column of `right` and the other side referencing only `left`,
/// return that right column (the semi-join rewrite precondition).
fn single_right_equi_col(pred: &Expr, left: &LogicalPlan, right: &LogicalPlan) -> Option<ColRef> {
    let conjuncts = split_conjuncts(pred);
    if conjuncts.len() != 1 {
        return None;
    }
    let Expr::Cmp {
        op: mpp_expr::CmpOp::Eq,
        left: a,
        right: b,
    } = &conjuncts[0]
    else {
        return None;
    };
    let lcols: BTreeSet<ColRef> = left.output_cols().into_iter().collect();
    let rcols: BTreeSet<ColRef> = right.output_cols().into_iter().collect();
    let a_cols = collect_columns(a);
    match (a.as_ref(), b.as_ref()) {
        (_, Expr::Col(rc))
            if rcols.contains(rc)
                && !a_cols.is_empty()
                && a_cols.iter().all(|c| lcols.contains(c)) =>
        {
            Some(rc.clone())
        }
        (Expr::Col(rc), _)
            if rcols.contains(rc) && {
                let b_cols = collect_columns(b);
                !b_cols.is_empty() && b_cols.iter().all(|c| lcols.contains(c))
            } =>
        {
            Some(rc.clone())
        }
        _ => None,
    }
}

/// Push a selection's conjuncts as deep as their column references allow.
fn push_select(pred: Expr, child: LogicalPlan) -> LogicalPlan {
    match child {
        LogicalPlan::Join {
            join_type,
            pred: jpred,
            left,
            right,
        } => {
            let lcols: BTreeSet<ColRef> = left.output_cols().into_iter().collect();
            let rcols: BTreeSet<ColRef> = right.output_cols().into_iter().collect();
            let mut left = *left;
            let mut right = *right;
            let mut keep = Vec::new();
            for c in split_conjuncts(&pred) {
                let cols = collect_columns(&c);
                let all_left = !cols.is_empty() && cols.iter().all(|x| lcols.contains(x));
                let all_right = !cols.is_empty() && cols.iter().all(|x| rcols.contains(x));
                match join_type {
                    // Above an inner join, either side accepts its own
                    // conjuncts.
                    JoinType::Inner if all_left => left = push_select(c, left),
                    JoinType::Inner if all_right => right = push_select(c, right),
                    // Semi/anti/outer joins output left columns only (or
                    // null-extend the right), so only left-side pushes are
                    // safe.
                    JoinType::LeftSemi | JoinType::LeftAnti | JoinType::LeftOuter if all_left => {
                        left = push_select(c, left)
                    }
                    _ => keep.push(c),
                }
            }
            // For inner joins the remaining conjuncts fold into the join
            // predicate itself (they may be equi-join keys); for other
            // join types they must stay above.
            if join_type == JoinType::Inner {
                let mut jconj = split_conjuncts(&jpred);
                jconj.extend(keep);
                LogicalPlan::Join {
                    join_type,
                    pred: simplify(&Expr::and(jconj)),
                    left: Box::new(left),
                    right: Box::new(right),
                }
            } else {
                let joined = LogicalPlan::Join {
                    join_type,
                    pred: jpred,
                    left: Box::new(left),
                    right: Box::new(right),
                };
                wrap_select(keep, joined)
            }
        }
        LogicalPlan::Select { pred: inner, child } => {
            // Merge adjacent selects, then retry the push with the union.
            let mut conj = split_conjuncts(&pred);
            conj.extend(split_conjuncts(&inner));
            push_select(Expr::and(conj), *child)
        }
        other => wrap_select(split_conjuncts(&pred), other),
    }
}

fn wrap_select(conjuncts: Vec<Expr>, child: LogicalPlan) -> LogicalPlan {
    if conjuncts.is_empty() {
        child
    } else {
        LogicalPlan::Select {
            pred: Expr::and(conjuncts),
            child: Box::new(child),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_catalog::builders::range_parts_equal_width;
    use mpp_catalog::{TableDesc, TableStats};
    use mpp_common::{Column, DataType, Datum, Schema};
    use mpp_plan::explain;

    /// R(a, b) hash-distributed on a, partitioned on b into `parts` ranges
    /// over [0, parts*10); S(a, b) hash-distributed on a, unpartitioned.
    fn rs_catalog(parts: u32, r_rows: u64, s_rows: u64) -> (Catalog, TableOid, TableOid) {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
        ]);
        let r = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(parts);
        cat.register(TableDesc {
            oid: r,
            name: "r".into(),
            schema: schema.clone(),
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(
                range_parts_equal_width(
                    1,
                    Datum::Int32(0),
                    Datum::Int32(parts as i32 * 10),
                    parts as usize,
                    first,
                )
                .unwrap(),
            ),
        })
        .unwrap();
        cat.set_stats(r, TableStats::new(r_rows));
        let s = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: s,
            name: "s".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        cat.set_stats(s, TableStats::new(s_rows));
        (cat, r, s)
    }

    fn get(cat: &Catalog, oid: TableOid, ids: &[u32]) -> LogicalPlan {
        let desc = cat.table(oid).unwrap();
        LogicalPlan::Get {
            table: oid,
            table_name: desc.name.clone(),
            output: desc
                .schema
                .columns()
                .iter()
                .zip(ids)
                .map(|(c, &id)| ColRef::new(id, c.name.as_str()))
                .collect(),
        }
    }

    #[test]
    fn simple_selection_query_plans_with_static_selector() {
        let (cat, r, _) = rs_catalog(10, 100_000, 100);
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let rb = ColRef::new(2, "b");
        let logical = LogicalPlan::Select {
            pred: Expr::lt(Expr::col(rb), Expr::lit(30i32)),
            child: Box::new(get(&cat, r, &[1, 2])),
        };
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        assert_eq!(plan.count_op("PartitionSelector"), 1, "{text}");
        assert_eq!(plan.count_op("DynamicScan"), 1, "{text}");
        assert_eq!(plan.count_op("Sequence"), 1, "{text}");
        // Root gather present.
        assert!(text.starts_with("Gather Motion"), "{text}");
        validate_selector_pairing(&plan).unwrap();
    }

    #[test]
    fn join_on_partition_key_produces_dpe_plan() {
        // select * from R, S where R.b = S.b and S.a < 100  (paper §4.4.2)
        let (cat, r, s) = rs_catalog(100, 1_000_000, 1_000);
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let (ra, rb) = (ColRef::new(1, "a"), ColRef::new(2, "b"));
        let (sa, sb) = (ColRef::new(3, "a"), ColRef::new(4, "b"));
        let _ = ra;
        let logical = LogicalPlan::Select {
            pred: Expr::and(vec![
                Expr::eq(Expr::col(rb), Expr::col(sb.clone())),
                Expr::lt(Expr::col(sa), Expr::lit(100i32)),
            ]),
            child: Box::new(LogicalPlan::Join {
                join_type: JoinType::Inner,
                // Keep S as the join's outer side so the DynamicScan of R
                // sits on the inner side (the Figure 5(d) shape).
                pred: Expr::lit(true),
                left: Box::new(get(&cat, s, &[3, 4])),
                right: Box::new(get(&cat, r, &[1, 2])),
            }),
        };
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        // The selector is a pass-through on the outer side with the join
        // predicate — dynamic partition elimination.
        assert_eq!(plan.count_op("PartitionSelector"), 1, "{text}");
        let mut dpe = false;
        plan.visit(&mut |p| {
            if let PhysicalPlan::PartitionSelector {
                child: Some(_),
                predicates,
                ..
            } = p
            {
                if predicates[0].is_some() {
                    dpe = true;
                }
            }
        });
        assert!(dpe, "expected pass-through DPE selector:\n{text}");
        validate_selector_pairing(&plan).unwrap();
    }

    /// R(a, b) hash-distributed on a, partitioned on b into 4 narrow
    /// ranges over [0, 40) plus a DEFAULT partition holding ~99% of the
    /// rows (per-partition counts as if ANALYZE ran); S(a, b)
    /// unpartitioned with a histogram putting every b inside [0, 40).
    fn skewed_catalog() -> (Catalog, TableOid, TableOid) {
        use mpp_catalog::{
            ColumnStats, Histogram, PartTree, PartitionLevel, PartitionPiece, ValueSample,
            TABLE_SAMPLE_CAP,
        };
        use mpp_expr::interval::Interval;
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int32),
        ]);
        let r = cat.allocate_table_oid();
        let first = cat.allocate_part_oids(5);
        let mut pieces: Vec<PartitionPiece> = (0..4)
            .map(|i| {
                PartitionPiece::new(
                    format!("p{i}"),
                    IntervalSet::interval(Interval::half_open(
                        Datum::Int32(i * 10),
                        Datum::Int32((i + 1) * 10),
                    )),
                )
            })
            .collect();
        pieces.push(PartitionPiece::default_piece("pdefault"));
        let tree = PartTree::new(vec![PartitionLevel::new(1, pieces).unwrap()], first).unwrap();
        let leaf_oids: Vec<_> = tree.partition_expansion();
        cat.register(TableDesc {
            oid: r,
            name: "r".into(),
            schema: schema.clone(),
            distribution: Distribution::Hashed(vec![0]),
            partitioning: Some(tree),
        })
        .unwrap();
        let mut part_rows = std::collections::HashMap::new();
        for oid in &leaf_oids[..4] {
            part_rows.insert(*oid, 250u64);
        }
        part_rows.insert(leaf_oids[4], 90_000u64);
        cat.set_stats(r, TableStats::new(91_000).with_part_rows(part_rows));

        let s = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: s,
            name: "s".into(),
            schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        let mut sample = ValueSample::new(TABLE_SAMPLE_CAP);
        for v in 0..1000 {
            sample.add(v % 40);
        }
        cat.set_stats(
            s,
            TableStats::new(1_000).with_column(
                1,
                ColumnStats::new(40)
                    .with_range(Datum::Int32(0), Datum::Int32(39))
                    .with_histogram(Histogram::from_samples([&sample]).unwrap()),
            ),
        );
        (cat, r, s)
    }

    /// The skewed join: S outer, R inner, equi on the partition key b.
    fn skewed_join(cat: &Catalog, r: TableOid, s: TableOid) -> LogicalPlan {
        let (rb, sb) = (ColRef::new(2, "b"), ColRef::new(4, "b"));
        LogicalPlan::Join {
            join_type: JoinType::Inner,
            pred: Expr::eq(Expr::col(sb), Expr::col(rb)),
            left: Box::new(get(cat, s, &[3, 4])),
            right: Box::new(get(cat, r, &[1, 2])),
        }
    }

    #[test]
    fn skewed_partitions_specialize_into_append_branches() {
        let (cat, r, s) = skewed_catalog();
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let plan = opt.optimize(&skewed_join(&cat, r, s)).unwrap();
        let text = explain(&plan);
        assert_eq!(plan.count_op("Append"), 1, "{text}");
        assert_eq!(plan.count_op("DynamicScan"), 2, "{text}");
        assert_eq!(plan.count_op("PartitionSelector"), 2, "{text}");
        // Both branches restrict their scans to their own group.
        let mut restricts = Vec::new();
        plan.visit(&mut |p| {
            if let PhysicalPlan::DynamicScan {
                restrict: Some(oids),
                ..
            } = p
            {
                restricts.push(oids.len());
            }
        });
        restricts.sort_unstable();
        assert_eq!(restricts, vec![1, 4], "{text}");
        // The heavy branch keeps the big partition in place: its outer
        // side is filtered to the uncovered complement and never drags
        // the 90k-row partition through a Motion. The EXPLAIN carries the
        // per-group annotation.
        assert!(text.contains("group: 1 part(s)"), "{text}");
        assert!(text.contains("group: 4 part(s)"), "{text}");
        validate_selector_pairing(&plan).unwrap();
    }

    #[test]
    fn adaptive_off_keeps_uniform_join() {
        let (cat, r, s) = skewed_catalog();
        let opt = Optimizer::new(
            cat.clone(),
            OptimizerConfig {
                adaptive_plans: false,
                ..OptimizerConfig::default()
            },
        );
        let plan = opt.optimize(&skewed_join(&cat, r, s)).unwrap();
        let text = explain(&plan);
        assert_eq!(plan.count_op("Append"), 0, "{text}");
        assert_eq!(plan.count_op("DynamicScan"), 1, "{text}");
        validate_selector_pairing(&plan).unwrap();
    }

    #[test]
    fn uniform_partitions_do_not_specialize() {
        // Same shape but evenly loaded partitions: the skew gate must
        // keep the uniform plan.
        let (cat, r, s) = rs_catalog(5, 91_000, 1_000);
        let mut part_rows = std::collections::HashMap::new();
        for oid in cat.part_tree(r).unwrap().partition_expansion() {
            part_rows.insert(oid, 91_000 / 5);
        }
        cat.set_stats(r, TableStats::new(91_000).with_part_rows(part_rows));
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let plan = opt.optimize(&skewed_join(&cat, r, s)).unwrap();
        assert_eq!(plan.count_op("Append"), 0, "{}", explain(&plan));
    }

    #[test]
    fn disabling_partition_selection_strips_predicates() {
        let (cat, r, _) = rs_catalog(10, 10_000, 100);
        let opt = Optimizer::new(
            cat.clone(),
            OptimizerConfig {
                enable_partition_selection: false,
                ..OptimizerConfig::default()
            },
        );
        let rb = ColRef::new(2, "b");
        let logical = LogicalPlan::Select {
            pred: Expr::lt(Expr::col(rb), Expr::lit(30i32)),
            child: Box::new(get(&cat, r, &[1, 2])),
        };
        let plan = opt.optimize(&logical).unwrap();
        plan.visit(&mut |p| {
            if let PhysicalPlan::PartitionSelector { predicates, .. } = p {
                assert!(predicates.iter().all(Option::is_none));
            }
        });
    }

    #[test]
    fn normalization_pushes_predicates_below_join() {
        let (cat, r, s) = rs_catalog(10, 1000, 1000);
        let (rb, sa) = (ColRef::new(2, "b"), ColRef::new(3, "a"));
        let logical = LogicalPlan::Select {
            pred: Expr::and(vec![
                Expr::lt(Expr::col(rb.clone()), Expr::lit(30i32)),
                Expr::eq(Expr::col(sa.clone()), Expr::lit(5i32)),
            ]),
            child: Box::new(LogicalPlan::Join {
                join_type: JoinType::Inner,
                pred: Expr::eq(Expr::col(ColRef::new(1, "a")), Expr::col(sa.clone())),
                left: Box::new(get(&cat, r, &[1, 2])),
                right: Box::new(get(&cat, s, &[3, 4])),
            }),
        };
        let n = normalize(logical);
        // Both conjuncts sank below the join.
        match &n {
            LogicalPlan::Join { left, right, .. } => {
                assert!(matches!(left.as_ref(), LogicalPlan::Select { .. }));
                assert!(matches!(right.as_ref(), LogicalPlan::Select { .. }));
            }
            other => panic!("expected Join at top, got {}", other.name()),
        }
    }

    #[test]
    fn scalar_agg_gathers_before_aggregating() {
        let (cat, r, _) = rs_catalog(10, 1000, 100);
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let out = ColRef::new(50, "cnt");
        let logical = LogicalPlan::Agg {
            group_by: vec![],
            aggs: vec![mpp_plan::AggCall::count_star()],
            output: vec![out],
            child: Box::new(get(&cat, r, &[1, 2])),
        };
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        // Singleton output: no root gather on top; Gather below the agg.
        assert!(text.contains("HashAgg"), "{text}");
        assert!(text.contains("Gather Motion"), "{text}");
        assert!(
            !text.starts_with("Gather"),
            "agg output is already singleton:\n{text}"
        );
    }

    #[test]
    fn grouped_agg_redistributes_when_not_colocated() {
        let (cat, r, _) = rs_catalog(10, 1000, 100);
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        // Group by b, but r is distributed on a → redistribute.
        let rb = ColRef::new(2, "b");
        let logical = LogicalPlan::Agg {
            group_by: vec![rb.clone()],
            aggs: vec![mpp_plan::AggCall::count_star()],
            output: vec![rb, ColRef::new(50, "cnt")],
            child: Box::new(get(&cat, r, &[1, 2])),
        };
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        assert!(text.contains("Redistribute Motion"), "{text}");
    }

    /// Star schema: fact F(f1, f2, f3) with `fact_rows` rows, three dims
    /// D1, D2, D3 (100/50/10 rows) joined on their first column. Returns
    /// the catalog and the bound Get nodes (colref ids 1.. in order).
    fn star_catalog(fact_rows: u64) -> (Catalog, LogicalPlan, Vec<LogicalPlan>) {
        let cat = Catalog::new();
        let fact_schema = Schema::new(vec![
            Column::new("f1", DataType::Int32),
            Column::new("f2", DataType::Int32),
            Column::new("f3", DataType::Int32),
        ]);
        let f = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: f,
            name: "fact".into(),
            schema: fact_schema,
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        cat.set_stats(f, TableStats::new(fact_rows));
        let mut dims = Vec::new();
        for (i, rows) in [(1u32, 100u64), (2, 50), (3, 10)] {
            let schema = Schema::new(vec![
                Column::new("pk", DataType::Int32),
                Column::new("pay", DataType::Int32),
            ]);
            let d = cat.allocate_table_oid();
            cat.register(TableDesc {
                oid: d,
                name: format!("d{i}"),
                schema,
                distribution: Distribution::Hashed(vec![0]),
                partitioning: None,
            })
            .unwrap();
            cat.set_stats(d, TableStats::new(rows));
            dims.push(d);
        }
        let fact = get(&cat, f, &[1, 2, 3]);
        let dim_gets: Vec<LogicalPlan> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| get(&cat, d, &[10 + 2 * i as u32, 11 + 2 * i as u32]))
            .collect();
        (cat, fact, dim_gets)
    }

    /// Left-deep as written: ((F ⨝ D1) ⨝ D2) ⨝ D3 on fk_i = pk_i.
    fn star_query(fact: &LogicalPlan, dims: &[LogicalPlan]) -> LogicalPlan {
        let mut plan = fact.clone();
        for (i, d) in dims.iter().enumerate() {
            let fk = ColRef::new(1 + i as u32, format!("f{}", i + 1));
            let pk = ColRef::new(10 + 2 * i as u32, "pk");
            plan = LogicalPlan::Join {
                join_type: JoinType::Inner,
                pred: Expr::eq(Expr::col(fk), Expr::col(pk)),
                left: Box::new(plan),
                right: Box::new(d.clone()),
            };
        }
        plan
    }

    /// Does the plan contain a HashJoin whose *left* (build) subtree roots
    /// a scan of `name`?
    fn builds_on(plan: &PhysicalPlan, name: &str) -> bool {
        fn roots_scan(p: &PhysicalPlan, name: &str) -> bool {
            match p {
                PhysicalPlan::TableScan { table_name, .. }
                | PhysicalPlan::DynamicScan { table_name, .. } => table_name == name,
                PhysicalPlan::Filter { child, .. }
                | PhysicalPlan::Project { child, .. }
                | PhysicalPlan::Motion { child, .. } => roots_scan(child, name),
                _ => false,
            }
        }
        let mut found = false;
        plan.visit(&mut |p| {
            if let PhysicalPlan::HashJoin { left, .. } = p {
                if roots_scan(left, name) {
                    found = true;
                }
            }
        });
        found
    }

    #[test]
    fn join_order_search_moves_fact_off_the_build_side() {
        let (cat, fact, dims) = star_catalog(1_000_000);
        let logical = star_query(&fact, &dims);
        // As written, every build (left) side contains the 1M-row fact.
        let left_deep = Optimizer::new(
            cat.clone(),
            OptimizerConfig {
                join_order_search: false,
                ..OptimizerConfig::default()
            },
        )
        .optimize(&logical)
        .unwrap();
        assert!(
            builds_on(&left_deep, "fact"),
            "baseline should build on fact:\n{}",
            explain(&left_deep)
        );
        // The enumerator flips the fact onto the probe side everywhere.
        let searched = Optimizer::new(cat.clone(), OptimizerConfig::default())
            .optimize(&logical)
            .unwrap();
        let text = explain(&searched);
        assert_eq!(searched.count_op("HashJoin"), 3, "{text}");
        assert!(!builds_on(&searched, "fact"), "{text}");
    }

    #[test]
    fn join_order_search_preserves_output_column_order() {
        let (cat, fact, dims) = star_catalog(1_000_000);
        let logical = star_query(&fact, &dims);
        let expected = logical.output_cols();
        let plan = Optimizer::new(cat, OptimizerConfig::default())
            .optimize(&logical)
            .unwrap();
        assert_eq!(
            plan.output_cols(),
            expected,
            "reordered join must deliver the syntactic column order:\n{}",
            explain(&plan)
        );
    }

    #[test]
    fn join_order_search_keeps_dpe_on_partitioned_fact() {
        // R partitioned on b joined to two small relations; the enumerator
        // must keep R inner (motion-free) so DPE still applies.
        let (cat, r, s) = rs_catalog(100, 1_000_000, 1_000);
        // Third table: tiny T(a, b) hashed on a.
        let t = cat.allocate_table_oid();
        cat.register(TableDesc {
            oid: t,
            name: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int32),
                Column::new("b", DataType::Int32),
            ]),
            distribution: Distribution::Hashed(vec![0]),
            partitioning: None,
        })
        .unwrap();
        cat.set_stats(t, TableStats::new(50));
        let (rb, sa, sb) = (
            ColRef::new(2, "b"),
            ColRef::new(3, "a"),
            ColRef::new(4, "b"),
        );
        let (ta, _tb) = (ColRef::new(5, "a"), ColRef::new(6, "b"));
        // select * from t, s, r where t.a = s.a and s.b = r.b and s.a < 100
        let logical = LogicalPlan::Select {
            pred: Expr::and(vec![
                Expr::eq(Expr::col(ta), Expr::col(sa.clone())),
                Expr::eq(Expr::col(sb), Expr::col(rb)),
                Expr::lt(Expr::col(sa), Expr::lit(100i32)),
            ]),
            child: Box::new(LogicalPlan::Join {
                join_type: JoinType::Inner,
                pred: Expr::lit(true),
                left: Box::new(LogicalPlan::Join {
                    join_type: JoinType::Inner,
                    pred: Expr::lit(true),
                    left: Box::new(get(&cat, t, &[5, 6])),
                    right: Box::new(get(&cat, s, &[3, 4])),
                }),
                right: Box::new(get(&cat, r, &[1, 2])),
            }),
        };
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        let mut dpe = false;
        plan.visit(&mut |p| {
            if let PhysicalPlan::PartitionSelector {
                child: Some(_),
                predicates,
                ..
            } = p
            {
                if predicates.iter().any(Option::is_some) {
                    dpe = true;
                }
            }
        });
        assert!(dpe, "expected DPE selector to survive reordering:\n{text}");
        validate_selector_pairing(&plan).unwrap();
    }

    #[test]
    fn grouped_agg_stays_local_when_colocated() {
        let (cat, r, _) = rs_catalog(10, 1000, 100);
        let opt = Optimizer::new(cat.clone(), OptimizerConfig::default());
        // Group by a = the distribution key: no redistribute needed.
        let ra = ColRef::new(1, "a");
        let logical = LogicalPlan::Agg {
            group_by: vec![ra.clone()],
            aggs: vec![mpp_plan::AggCall::count_star()],
            output: vec![ra, ColRef::new(50, "cnt")],
            child: Box::new(get(&cat, r, &[1, 2])),
        };
        let plan = opt.optimize(&logical).unwrap();
        let text = explain(&plan);
        assert!(!text.contains("Redistribute Motion"), "{text}");
    }
}
