//! The manager plane: one responder per failure location, and the patch plans the
//! responders emit.
//!
//! ClearView centralizes every repair decision at the management console
//! (Section 3.2): each failure location owns one [`FailureResponder`], and whoever
//! runs the application feeds the responders run digests and applies the
//! [`Directive`]s they emit. This module factors that *responder driving* out of the
//! single-machine pipeline and the fleet engine into three pieces:
//!
//! 1. **Input** ([`ShardBucket`]) — one batch's digests and failure reports, each
//!    addressed to a failure location, in batch order. A digest is addressed to the
//!    responder of the location it was built for, regardless of its
//!    [`DigestStatus`].
//! 2. **Responders** ([`ResponderShard`]) — the manager's responder set, which
//!    processes one bucket at a time, deterministically and in batch order.
//! 3. **Plan** ([`PatchPlan`]) — the directives one batch produced, as ordered
//!    operations; [`PatchPlan::merge`] puts them in the canonical order (a *stable*
//!    sort by failure location) that the fleet's console log records.
//!
//! The single-machine [`ProtectedApplication`](crate::ProtectedApplication) feeds its
//! responder set one digest source and one presentation per batch; the fleet engine
//! (`cv-fleet`) feeds its one responder set every member's digests of an epoch.

use crate::config::ClearViewConfig;
use crate::responder::{DigestStatus, Directive, FailureResponder, RunDigest};
use cv_inference::LearnedModel;
use cv_isa::Addr;
use cv_runtime::Failure;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies the member (or other digest source) an event originated from. The
/// single-machine pipeline uses source 0 throughout; the fleet uses member node ids.
pub type SourceId = usize;

/// One run digest addressed to the responder of one failure location.
#[derive(Debug, Clone)]
pub struct RoutedDigest {
    /// The member the digest came from.
    pub source: SourceId,
    /// The failure location whose responder should consume the digest.
    pub location: Addr,
    /// The digest itself.
    pub digest: RunDigest,
}

/// One monitor-detected failure, tagged with the member that reported it.
#[derive(Debug, Clone)]
pub struct FailureEvent {
    /// The member the failure occurred on.
    pub source: SourceId,
    /// The failure report.
    pub failure: Failure,
}

/// One batch of manager input: the batch's digests and failure reports, each in
/// batch order.
#[derive(Debug, Clone, Default)]
pub struct ShardBucket {
    /// Digests, each addressed to the responder of one failure location.
    pub digests: Vec<RoutedDigest>,
    /// Failures, at locations with a responder or without one yet.
    pub failures: Vec<FailureEvent>,
}

impl ShardBucket {
    /// True if the bucket carries no work.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty() && self.failures.is_empty()
    }
}

/// One fleet-wide patch operation: a responder directive bound to its failure
/// location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanOp {
    /// The failure location the directive belongs to.
    pub location: Addr,
    /// The directive to apply to every member.
    pub directive: Directive,
}

/// An ordered, deterministic set of fleet-wide patch operations — what one manager
/// pass decided to push.
///
/// [`PatchPlan::merge`] puts plans in a canonical order (stable sort by failure
/// location, preserving each location's directive order), so the fleet's plan is
/// independent of worker count and thread scheduling. Plans are
/// `Serialize`/`Deserialize` (and `PartialEq`), so they can cross the wire protocol
/// and be replayed from a recorded log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PatchPlan {
    ops: Vec<PlanOp>,
}

impl PatchPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one directive for `location`.
    pub fn push(&mut self, location: Addr, directive: Directive) {
        self.ops.push(PlanOp {
            location,
            directive,
        });
    }

    /// Append every directive of `directives` for `location`, in order.
    pub fn extend(&mut self, location: Addr, directives: impl IntoIterator<Item = Directive>) {
        for directive in directives {
            self.push(location, directive);
        }
    }

    /// Merge plans into one canonical plan: concatenate, then stable-sort by
    /// failure location. Per-location directive order is preserved, so for plans
    /// over disjoint locations the result does not depend on their order.
    pub fn merge(plans: impl IntoIterator<Item = PatchPlan>) -> PatchPlan {
        let mut ops: Vec<PlanOp> = plans.into_iter().flat_map(|p| p.ops).collect();
        ops.sort_by_key(|op| op.location);
        PatchPlan { ops }
    }

    /// The operations, in canonical order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the plan carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct failure locations the plan touches, in ascending order
    /// (regardless of the plan's own op order).
    pub fn locations(&self) -> Vec<Addr> {
        let mut locations: Vec<Addr> = self.ops.iter().map(|op| op.location).collect();
        locations.sort_unstable();
        locations.dedup();
        locations
    }

    /// The distinct shards (under `router`) this plan's operations touch, in
    /// ascending order — what plan application stamps into the dirty-epoch plane,
    /// so the persistence layer knows which shards' *configuration* changed
    /// without consulting the plan again.
    pub fn shards_touched(&self, router: &cv_inference::ShardRouter) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .ops
            .iter()
            .map(|op| router.shard_of(op.location))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// The *net* patch configuration of the fleet: what is actually installed on every
/// member once all pushed plans have been applied, folded location by location.
///
/// The console log records plans as an op *history*; replaying it from epoch zero
/// reproduces member state but grows without bound. `NetPatchState` is the compact
/// fixed point: fold every pushed plan with [`NetPatchState::apply`], and
/// [`NetPatchState::to_plan`] emits the minimal plan that brings a fresh member to
/// the current configuration — the payload of a snapshot's PLAN section and of the
/// fleet's `Bootstrap` message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetPatchState {
    checks: BTreeMap<Addr, Vec<cv_patch::CheckPatch>>,
    repairs: BTreeMap<Addr, cv_patch::RepairPatch>,
}

impl NetPatchState {
    /// An empty configuration (a fresh member).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one pushed plan into the net state, mirroring exactly what members do
    /// when they apply the plan.
    pub fn apply(&mut self, plan: &PatchPlan) {
        for op in plan.ops() {
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    self.checks.insert(op.location, checks.clone());
                }
                Directive::RemoveChecks => {
                    self.checks.remove(&op.location);
                }
                Directive::InstallRepair(repair) => {
                    self.repairs.insert(op.location, repair.clone());
                }
                Directive::RemoveRepair => {
                    self.repairs.remove(&op.location);
                }
            }
        }
    }

    /// The minimal plan bringing a fresh member to this configuration: per location
    /// (ascending), `InstallChecks` then `InstallRepair` for whatever is installed.
    pub fn to_plan(&self) -> PatchPlan {
        let mut plan = PatchPlan::new();
        let locations: BTreeSet<Addr> = self
            .checks
            .keys()
            .chain(self.repairs.keys())
            .copied()
            .collect();
        for loc in locations {
            if let Some(checks) = self.checks.get(&loc) {
                plan.push(loc, Directive::InstallChecks(checks.clone()));
            }
            if let Some(repair) = self.repairs.get(&loc) {
                plan.push(loc, Directive::InstallRepair(repair.clone()));
            }
        }
        plan
    }

    /// The subset of [`NetPatchState::to_plan`] that is durable across a restart:
    /// the validated repairs. Checking patches are scaffolding for an *in-flight*
    /// response whose responder state (observation history) is deliberately not
    /// persisted — after a warm start the next failure report simply restarts that
    /// response, while every repaired location stays repaired.
    pub fn repair_plan(&self) -> PatchPlan {
        let mut plan = PatchPlan::new();
        for (loc, repair) in &self.repairs {
            plan.push(*loc, Directive::InstallRepair(repair.clone()));
        }
        plan
    }

    /// The installed repairs, in ascending location order.
    pub fn repairs(&self) -> impl Iterator<Item = (Addr, &cv_patch::RepairPatch)> {
        self.repairs.iter().map(|(a, r)| (*a, r))
    }

    /// The installed checking patches, in ascending location order.
    pub fn checks(&self) -> impl Iterator<Item = (Addr, &[cv_patch::CheckPatch])> {
        self.checks.iter().map(|(a, c)| (*a, c.as_slice()))
    }

    /// True if nothing is installed.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty() && self.repairs.is_empty()
    }
}

/// What the responders decided while processing one bucket.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// The patch operations the responders emitted, in emission order
    /// ([`PatchPlan::merge`] gives the canonical order).
    pub plan: PatchPlan,
    /// Per-location `(source, observation count)` reports consumed this batch, in
    /// ascending location order.
    pub observations: Vec<(Addr, Vec<(SourceId, usize)>)>,
    /// Locations at which a new community-wide response was started this batch.
    pub started: Vec<Addr>,
}

/// The manager's responder set: one [`FailureResponder`] per failure location.
///
/// The set is single-threaded state: it owns its responders outright and processes
/// one bucket at a time. A deployment holds exactly one, as the paper's console does.
///
/// **Community-attributed repair evaluation.** A crashed or completed run carries no
/// failure location, so on its own it says nothing about *which* response it is
/// evidence for. The set therefore tracks, per location, the members that have
/// reported the failure there, and feeds unattributed outcomes (Completed / Crashed)
/// to a responder only when they come from one of its reporters — the members whose
/// workload demonstrably exercises the defect. Monitor-attributed failures are
/// always delivered (and enroll their source as a reporter). With a single source
/// (the single-machine pipeline) every digest after the first failure is from a
/// reporter, so this degenerates to exactly the seed behaviour; in a fleet it is
/// what lets N responses evaluate N repairs simultaneously without one exploit's
/// crashes bleeding into another exploit's evaluation.
#[derive(Default)]
pub struct ResponderShard {
    responders: BTreeMap<Addr, FailureResponder>,
    reporters: BTreeMap<Addr, BTreeSet<SourceId>>,
}

impl ResponderShard {
    /// An empty responder set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of failure locations with live responses.
    pub fn len(&self) -> usize {
        self.responders.len()
    }

    /// True if the set holds no responders.
    pub fn is_empty(&self) -> bool {
        self.responders.is_empty()
    }

    /// The failure locations with a responder, in ascending order.
    pub fn locations(&self) -> impl Iterator<Item = Addr> + '_ {
        self.responders.keys().copied()
    }

    /// The responder for `location`, if there is one.
    pub fn get(&self, location: Addr) -> Option<&FailureResponder> {
        self.responders.get(&location)
    }

    /// The responders, in ascending location order.
    pub fn responders(&self) -> impl Iterator<Item = (Addr, &FailureResponder)> {
        self.responders.iter().map(|(a, r)| (*a, r))
    }

    /// Adopt a responder reconstructed outside the normal failure path — the
    /// warm-start restore installs a [`FailureResponder::restored`] (already
    /// Protected, with its validated repair) for every repaired location of a
    /// snapshot. Every `source` in `reporters` is enrolled so unattributed outcomes
    /// from those members keep feeding the adopted responder's evaluation.
    pub fn adopt(
        &mut self,
        location: Addr,
        responder: FailureResponder,
        reporters: impl IntoIterator<Item = SourceId>,
    ) {
        self.responders.insert(location, responder);
        self.reporters
            .entry(location)
            .or_default()
            .extend(reporters);
    }

    /// Process one bucket: feed each digest to its responder (in bucket order) and
    /// start a response for each failure at a location without one.
    ///
    /// **Batch semantics**: once a responder emits directives mid-batch, the
    /// remaining digests of the same batch for that location are dropped — they
    /// were produced under the patch configuration the directives just replaced.
    /// Likewise a response started mid-batch consumes no digests from the same
    /// batch (none exist: digests are only built for locations that were active
    /// when the batch ran).
    pub fn process(
        &mut self,
        bucket: ShardBucket,
        model: &LearnedModel,
        config: &ClearViewConfig,
    ) -> ShardOutcome {
        let mut plan = PatchPlan::new();
        let mut started = Vec::new();
        let mut observations: BTreeMap<Addr, Vec<(SourceId, usize)>> = BTreeMap::new();
        // Locations whose patch configuration changed mid-batch.
        let mut reconfigured: BTreeSet<Addr> = BTreeSet::new();

        for RoutedDigest {
            source,
            location,
            digest,
        } in bucket.digests
        {
            if reconfigured.contains(&location) {
                continue;
            }
            let Some(responder) = self.responders.get_mut(&location) else {
                continue;
            };
            // Observation reports crossed the wire regardless of how the manager
            // weighs the run, so they are accounted before the delivery gate.
            if !digest.observations.is_empty() {
                let total = digest.observations.values().map(|v| v.len()).sum();
                observations
                    .entry(location)
                    .or_default()
                    .push((source, total));
            }
            // The delivery gate (see the type-level docs): a failure observed at
            // this location always counts and enrolls its source as a reporter;
            // unattributed outcomes count only from known reporters.
            let deliver = match digest.status {
                Some(DigestStatus::FailureAt(at)) if at == location => {
                    self.reporters.entry(location).or_default().insert(source);
                    true
                }
                _ => self
                    .reporters
                    .get(&location)
                    .is_some_and(|r| r.contains(&source)),
            };
            if !deliver {
                continue;
            }
            let directives = responder.on_run(&digest, model);
            if !directives.is_empty() {
                reconfigured.insert(location);
                plan.extend(location, directives);
            }
        }

        for FailureEvent { source, failure } in bucket.failures {
            self.reporters
                .entry(failure.location)
                .or_default()
                .insert(source);
            if self.responders.contains_key(&failure.location) {
                continue;
            }
            // A failure at a new location starts a community-wide response.
            // Same-batch repeats of this failure predate the checking patches and
            // are skipped by the contains_key guard above.
            let (responder, directives) = FailureResponder::new(&failure, model, *config);
            self.responders.insert(failure.location, responder);
            started.push(failure.location);
            plan.extend(failure.location, directives);
        }

        ShardOutcome {
            plan,
            observations: observations.into_iter().collect(),
            started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::DigestStatus;

    fn digest_for(source: SourceId, location: Addr) -> RoutedDigest {
        RoutedDigest {
            source,
            location,
            digest: RunDigest::with_status(DigestStatus::FailureAt(location)),
        }
    }

    #[test]
    fn plan_merge_is_canonical_and_stable() {
        let mut a = PatchPlan::new();
        a.push(0x300, Directive::RemoveChecks);
        a.push(0x300, Directive::RemoveRepair);
        a.push(0x100, Directive::RemoveChecks);
        let mut b = PatchPlan::new();
        b.push(0x200, Directive::RemoveRepair);

        // Merge order of plans over disjoint locations must not matter.
        let ab = PatchPlan::merge([a.clone(), b.clone()]);
        let ba = PatchPlan::merge([b, a]);
        assert_eq!(ab, ba);

        // Canonical order: ascending location, per-location emission order kept.
        assert_eq!(ab.locations(), vec![0x100, 0x200, 0x300]);
        assert_eq!(ab.len(), 4);
        assert!(matches!(ab.ops()[2].directive, Directive::RemoveChecks));
        assert!(matches!(ab.ops()[3].directive, Directive::RemoveRepair));
    }

    #[test]
    fn shards_touched_follows_the_shared_router() {
        let router = cv_inference::ShardRouter::new(4);
        let mut plan = PatchPlan::new();
        for k in 0..16u32 {
            plan.push(0x4_0000 + k * 4, Directive::RemoveChecks);
            plan.push(0x4_0000 + k * 4, Directive::RemoveRepair); // same shard twice
        }
        let touched = plan.shards_touched(&router);
        assert!(touched.windows(2).all(|w| w[0] < w[1]), "ascending, dedup");
        for shard in &touched {
            assert!(*shard < 4);
        }
        let expected: std::collections::BTreeSet<usize> = plan
            .locations()
            .into_iter()
            .map(|loc| router.shard_of(loc))
            .collect();
        assert_eq!(touched, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn empty_shard_ignores_digests_for_unknown_locations() {
        let mut shard = ResponderShard::new();
        let layout = cv_isa::MemoryLayout::default();
        let image = cv_isa::BinaryImage {
            layout,
            code: vec![],
            data: vec![],
            entry: layout.code_base,
        };
        let model = LearnedModel {
            invariants: cv_inference::InvariantDatabase::new(),
            procedures: cv_inference::ProcedureDatabase::new(image),
        };
        let outcome = shard.process(
            ShardBucket {
                digests: vec![digest_for(0, 0x40)],
                failures: vec![],
            },
            &model,
            &ClearViewConfig::default(),
        );
        assert!(outcome.plan.is_empty());
        assert!(outcome.observations.is_empty());
        assert!(outcome.started.is_empty());
        assert!(shard.is_empty());
    }
}
