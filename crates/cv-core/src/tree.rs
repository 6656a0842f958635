//! The hierarchical manager tree.
//!
//! A flat manager pushes every patch plan to every member directly — an
//! O(members) fan-out at a single coordinator. At 100k–1M members the single
//! coordinator is the bottleneck: the paper's console (Section 3.2) pushes patches
//! to every Node Manager itself, which is fine at tens of machines and absurd at a
//! million.
//!
//! A [`ManagerTree`] organizes the push as coordinators-of-coordinators with a
//! fixed fan-out `F`: the push travels the tree downward tier by tier
//! ([`ManagerTree::push_tiers`]), every coordinator talks to at most `F` children,
//! and the tree depth is `log_F` of the member count. The fleet's tier-sync plane
//! builds its rows of real coordinators from [`ManagerTree::coordinator_rows`].
//!
//! [`ManagerTree::merge_plans`] merges plans in groups of `F` per tier. Because
//! [`PatchPlan::merge`] concatenates and then **stably** sorts by failure location,
//! that is byte-identical to the flat single-step merge
//! (`flat_and_tree_merges_agree` below). The fleet holds one responder set, so it
//! has one plan per epoch and calls no tree merge; only the repository benchmark
//! times it (`core.plan_merge_us`).

use crate::manager::PatchPlan;

/// Work done at one tier of the merge: `plans_in` plans entered, `groups`
/// coordinators each merged at most `fanout` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierMerge {
    /// Tier number, 1 = the tier that merges the input plans.
    pub tier: u32,
    /// Coordinators active at this tier.
    pub groups: usize,
    /// Plans entering this tier.
    pub plans_in: usize,
}

/// One tier of the downward patch push: `groups` coordinators each forward the
/// merged plan to at most `fanout` children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPush {
    /// Tier number, 1 = the tier closest to the root coordinator.
    pub tier: u32,
    /// Coordinators (or, at the deepest tier, member groups) receiving the plan.
    pub groups: usize,
}

/// A coordinators-of-coordinators tree with fixed fan-out.
#[derive(Debug, Clone, Copy)]
pub struct ManagerTree {
    fanout: usize,
}

impl ManagerTree {
    /// A tree with the given fan-out. Fan-outs below 2 degenerate to a flat
    /// single-coordinator merge and are clamped to 2.
    pub fn new(fanout: usize) -> Self {
        ManagerTree {
            fanout: fanout.max(2),
        }
    }

    /// The fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Merge plans tier by tier. The resulting plan is byte-identical to
    /// `PatchPlan::merge(plans)` (stable sort makes grouping associative); the
    /// per-tier stats record how the work spread across coordinators.
    ///
    /// No production path calls this: the fleet has one responder set and so one
    /// plan per epoch. It is kept because the repository benchmark times it
    /// (`core.plan_merge_us`).
    pub fn merge_plans(&self, mut plans: Vec<PatchPlan>) -> (PatchPlan, Vec<TierMerge>) {
        let mut tiers = Vec::new();
        let mut tier = 1u32;
        while plans.len() > 1 {
            let groups = plans.len().div_ceil(self.fanout);
            tiers.push(TierMerge {
                tier,
                groups,
                plans_in: plans.len(),
            });
            plans = plans
                .chunks(self.fanout)
                .map(|group| PatchPlan::merge(group.iter().cloned()))
                .collect();
            tier += 1;
        }
        (plans.pop().unwrap_or_default(), tiers)
    }

    /// The downward push schedule for a fleet of `members`: tier 1 is the root
    /// fanning to its children, the last tier is the leaf coordinators fanning to
    /// their member groups. Every coordinator contacts at most `fanout` nodes,
    /// so the root's push cost is O(fanout), not O(members).
    pub fn push_tiers(&self, members: usize) -> Vec<TierPush> {
        if members == 0 {
            return Vec::new();
        }
        // Coordinator row widths from the leaves up: the deepest row has one
        // coordinator per `fanout` members, each row above one per `fanout` below.
        let mut widths = vec![members.div_ceil(self.fanout).max(1)];
        while *widths.last().unwrap() > 1 {
            let above = widths.last().unwrap().div_ceil(self.fanout);
            widths.push(above);
        }
        // The trailing 1 is the root itself — it sends, it doesn't receive —
        // unless it is the only row (a tiny fleet: the root pushes straight to
        // its member group).
        if widths.len() > 1 {
            widths.pop();
        }
        widths.reverse();
        widths
            .into_iter()
            .enumerate()
            .map(|(i, groups)| TierPush {
                tier: i as u32 + 1,
                groups,
            })
            .collect()
    }

    /// Number of tiers a push traverses for a fleet of `members`.
    pub fn depth(&self, members: usize) -> usize {
        self.push_tiers(members).len()
    }

    /// The rows of *real* intermediate coordinators for a fleet of `members`:
    /// one [`TierRowSpec`] per coordinator tier, ordered root-down (tier 1 is
    /// directly under the root). A tiny fleet (`members <= fanout`) has no
    /// intermediate coordinators — the root pushes straight to its member
    /// group — and gets an empty vec, exactly the case where `push_tiers`
    /// returns a single one-group tier.
    pub fn coordinator_rows(&self, members: usize) -> Vec<TierRowSpec> {
        let tiers = self.push_tiers(members);
        if tiers.len() == 1 && tiers[0].groups == 1 {
            return Vec::new();
        }
        tiers
            .into_iter()
            .map(|t| TierRowSpec {
                tier: t.tier,
                width: t.groups,
            })
            .collect()
    }
}

/// One row of intermediate coordinators in the tree: `width` coordinators at
/// `tier` (1 = directly under the root), each serving at most `fanout`
/// children in the row below (or a member group at the deepest row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRowSpec {
    /// Tier number, 1 = the tier closest to the root coordinator.
    pub tier: u32,
    /// Coordinators in this row.
    pub width: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::Directive;

    fn plan(locs: &[u32]) -> PatchPlan {
        let mut p = PatchPlan::default();
        for &loc in locs {
            p.push(loc, Directive::RemoveChecks);
        }
        p
    }

    #[test]
    fn flat_and_tree_merges_agree() {
        // Overlapping locations across plans: stability of the op order among
        // equal locations is exactly what byte-identity requires.
        let plans = vec![
            plan(&[0x300, 0x100]),
            plan(&[0x100, 0x200]),
            plan(&[]),
            plan(&[0x100]),
            plan(&[0x200, 0x50]),
            plan(&[0x300]),
            plan(&[0x50]),
        ];
        let flat = PatchPlan::merge(plans.iter().cloned());
        for fanout in [2, 3, 4, 16] {
            let (merged, tiers) = ManagerTree::new(fanout).merge_plans(plans.clone());
            assert_eq!(merged, flat, "fan-out {fanout} diverged from flat merge");
            assert!(!tiers.is_empty());
            assert_eq!(tiers[0].plans_in, plans.len());
        }
    }

    #[test]
    fn merge_tiers_shrink_by_fanout() {
        let plans: Vec<PatchPlan> = (0..64).map(|i| plan(&[i])).collect();
        let (_, tiers) = ManagerTree::new(4).merge_plans(plans);
        let widths: Vec<usize> = tiers.iter().map(|t| t.plans_in).collect();
        assert_eq!(widths, vec![64, 16, 4]);
        assert_eq!(tiers.last().unwrap().groups, 1);
    }

    #[test]
    fn merge_of_one_or_zero_plans_is_trivial() {
        let (merged, tiers) = ManagerTree::new(8).merge_plans(vec![plan(&[0x10])]);
        assert_eq!(merged, plan(&[0x10]));
        assert!(tiers.is_empty());
        let (merged, tiers) = ManagerTree::new(8).merge_plans(Vec::new());
        assert!(merged.is_empty());
        assert!(tiers.is_empty());
    }

    #[test]
    fn push_tiers_cover_the_fleet_with_bounded_fanout() {
        let tree = ManagerTree::new(32);
        let tiers = tree.push_tiers(100_000);
        // 100k members / 32 = 3125 leaf coordinators, / 32 = 98, / 32 = 4, / 32 = root.
        let widths: Vec<usize> = tiers.iter().map(|t| t.groups).collect();
        assert_eq!(widths, vec![4, 98, 3125]);
        assert_eq!(tree.depth(100_000), 3);
        // Tiny fleets need no intermediate coordinators.
        assert_eq!(tree.push_tiers(10).len(), 1);
        assert!(tree.push_tiers(0).is_empty());
    }

    #[test]
    fn coordinator_rows_exist_only_past_the_fanout() {
        let tree = ManagerTree::new(32);
        // members <= fanout: the root serves its member group itself.
        assert!(tree.coordinator_rows(0).is_empty());
        assert!(tree.coordinator_rows(10).is_empty());
        assert!(tree.coordinator_rows(32).is_empty());
        // One past the fan-out: a single real coordinator row appears.
        let rows = tree.coordinator_rows(33);
        assert_eq!(rows, vec![TierRowSpec { tier: 1, width: 2 }]);
        // Deep fleet: rows mirror push_tiers root-down.
        let widths: Vec<usize> = tree
            .coordinator_rows(100_000)
            .iter()
            .map(|r| r.width)
            .collect();
        assert_eq!(widths, vec![4, 98, 3125]);
        let tiers: Vec<u32> = tree
            .coordinator_rows(100_000)
            .iter()
            .map(|r| r.tier)
            .collect();
        assert_eq!(tiers, vec![1, 2, 3]);
    }
}
