//! Plan slicing for parallel execution.
//!
//! A multi-process MPP executor does not interpret the whole plan on one
//! thread: it cuts the tree at [`mpp_plan::PhysicalPlan::Motion`]
//! boundaries into *slices* and runs each slice on every segment's
//! worker process (paper §3.1 — Motions are the only points where rows
//! cross process boundaries). [`SlicePlan::cut`] computes the stage
//! schedule: every Motion node becomes one stage, ordered children
//! before parents so a stage only consumes Motions that earlier stages
//! already materialized; the slice above the topmost Motions runs last
//! as the *root slice*. Init plans ([`init_plan_sites`]) execute before
//! any stage, innermost first, the way classic planners run init plans
//! before the main plan — which is what lets a gated scan below a Motion
//! read a parameter its `InitPlanOids` sibling publishes from the root
//! slice. The Motions inside an init plan are stages too: the driver
//! materializes them with the init plan, and the main plan's stage loop
//! finds them cached.

use mpp_common::MotionId;
use mpp_plan::{MotionKind, PhysicalPlan};

/// One Motion boundary: executing its `child` on every segment and
/// routing the result by `kind` is one parallel stage.
pub struct MotionSite<'a> {
    /// Stable id — identical to the one [`PhysicalPlan::motion_sites`]
    /// assigns (pre-order position among Motion nodes).
    pub id: MotionId,
    pub kind: &'a MotionKind,
    /// The Motion node itself (cache key lookups go through the
    /// context's address overlay).
    pub node: &'a PhysicalPlan,
    /// The subtree the stage executes per segment.
    pub child: &'a PhysicalPlan,
}

/// The stage schedule for one plan.
pub struct SlicePlan<'a> {
    /// Motion stages, children before parents (post-order).
    pub stages: Vec<MotionSite<'a>>,
    /// The plan root; the slice above all Motions runs after every stage.
    pub root: &'a PhysicalPlan,
}

impl<'a> SlicePlan<'a> {
    /// Cut `plan` at its Motion boundaries.
    ///
    /// Ids are assigned in pre-order (matching
    /// [`PhysicalPlan::motion_sites`], hence stable for a given tree
    /// shape); the stage list is emitted in post-order so that by the
    /// time a stage runs, every Motion in its slice is already cached.
    pub fn cut(plan: &'a PhysicalPlan) -> SlicePlan<'a> {
        fn walk<'a>(node: &'a PhysicalPlan, next: &mut u32, out: &mut Vec<MotionSite<'a>>) {
            if let PhysicalPlan::Motion { kind, child } = node {
                let id = MotionId(*next);
                *next += 1;
                walk(child, next, out);
                out.push(MotionSite {
                    id,
                    kind,
                    node,
                    child,
                });
            } else {
                for c in node.children() {
                    walk(c, next, out);
                }
            }
        }
        let mut stages = Vec::new();
        walk(plan, &mut 0, &mut stages);
        SlicePlan { stages, root: plan }
    }

    /// Number of slices (one per Motion, plus the root slice).
    pub fn num_slices(&self) -> usize {
        self.stages.len() + 1
    }
}

/// Every `InitPlanOids` node in the plan, in post-order. The driver runs
/// these once, before the main plan, so every `$oids` parameter is
/// published before any slice that might read it executes — regardless
/// of where in the tree the planner placed the node. Post-order publishes
/// a nested init plan before the init plan that encloses it, whose
/// subtree may read it.
pub fn init_plan_sites(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    fn walk<'a>(node: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
        for c in node.children() {
            walk(c, out);
        }
        if matches!(node, PhysicalPlan::InitPlanOids { .. }) {
            out.push(node);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_common::{PartOid, TableOid};

    fn leaf(part: u32, gate: Option<u32>) -> PhysicalPlan {
        PhysicalPlan::PartScan {
            table: TableOid(1),
            part: PartOid(part),
            part_name: format!("p{part}"),
            output: vec![],
            filter: None,
            gate,
        }
    }

    fn motion(child: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Motion {
            kind: MotionKind::Gather,
            child: Box::new(child),
        }
    }

    #[test]
    fn cut_orders_children_before_parents_with_preorder_ids() {
        // Motion#0( Append[ Motion#1(leaf), Motion#2(leaf) ] )
        let plan = motion(PhysicalPlan::Append {
            output: vec![],
            children: vec![motion(leaf(1, None)), motion(leaf(2, None))],
        });
        let slices = SlicePlan::cut(&plan);
        assert_eq!(slices.num_slices(), 4);
        let ids: Vec<u32> = slices.stages.iter().map(|s| s.id.0).collect();
        // Inner motions (ids 1, 2) stage before the outer one (id 0).
        assert_eq!(ids, vec![1, 2, 0]);
        // Ids agree with the pre-order enumeration the context uses.
        let pre: Vec<u32> = plan.motion_sites().iter().map(|(id, _)| id.0).collect();
        assert_eq!(pre, vec![0, 1, 2]);
    }

    #[test]
    fn plan_without_motions_has_only_the_root_slice() {
        let plan = leaf(1, None);
        let slices = SlicePlan::cut(&plan);
        assert!(slices.stages.is_empty());
        assert_eq!(slices.num_slices(), 1);
    }

    fn init_plan(param: u32, child: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::InitPlanOids {
            param,
            table: TableOid(1),
            key: mpp_expr::Expr::Lit(mpp_common::Datum::Int64(0)),
            child: Box::new(child),
        }
    }

    #[test]
    fn init_plan_sites_found_at_any_depth() {
        let plan = motion(PhysicalPlan::Sequence {
            children: vec![
                init_plan(1, leaf(9, None)),
                motion(init_plan(2, leaf(8, None))),
                // A nested init plan publishes before the one enclosing it.
                init_plan(3, init_plan(4, leaf(7, None))),
                leaf(1, Some(1)),
            ],
        });
        let sites = init_plan_sites(&plan);
        let params: Vec<u32> = sites
            .iter()
            .map(|s| match s {
                PhysicalPlan::InitPlanOids { param, .. } => *param,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(params, vec![1, 2, 4, 3]);
    }
}
