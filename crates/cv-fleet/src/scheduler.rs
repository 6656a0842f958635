//! The engine's sequential reference — compiled into this crate's test build only.
//!
//! The paper's community as one would first write it down: every member keeps its
//! own long-lived `ManagedExecutionEnvironment` (a private image copy, code cache and
//! hook registry), a presentation runs on its member's environment, and a patch plan
//! is applied to each up member in turn by installing hooks and uninstalling them by
//! handle. Nothing is shared, interned, cached or threaded, so there is nothing here
//! for the [`EventEngine`](crate::EventEngine) to have in common with it but the
//! answers. In a test build every engine carries one of these, forwards it every
//! membership change and plan push, and asserts after each epoch and each learning
//! round that the two returned the same thing (`engine/parity.rs`).

use crate::engine::RunRecord;
use crate::protocol::{NodeId, Presentation};
use cv_core::{DigestStatus, Directive, PatchPlan, RunDigest};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{Addr, BinaryImage, Word};
use cv_patch::{install_hooks, uninstall, PatchHandle};
use cv_runtime::{EnvConfig, HookId, ManagedExecutionEnvironment, MonitorConfig};
use std::collections::BTreeMap;

/// Patches currently installed on one member for one failure location.
#[derive(Default)]
struct NodePatchState {
    checks: Vec<(Invariant, PatchHandle, HookId)>,
    repair: Option<PatchHandle>,
}

/// One community member — member `n` is `members[n]`: its execution environment
/// plus patch bookkeeping.
struct MemberState {
    env: ManagedExecutionEnvironment,
    patches: BTreeMap<Addr, NodePatchState>,
    /// False while the member is down (crashed with state loss, not yet rejoined).
    /// Down members receive no presentations, no patch pushes, and no learning
    /// shares — rejoining is what re-synchronizes them (the delta-sync plane).
    alive: bool,
}

impl MemberState {
    fn fresh(image: &BinaryImage, monitors: MonitorConfig) -> Self {
        MemberState {
            env: ManagedExecutionEnvironment::new(
                image.clone(),
                EnvConfig::with_monitors(monitors),
            ),
            patches: BTreeMap::new(),
            alive: true,
        }
    }
}

/// One environment per member, driven one presentation at a time.
pub(crate) struct EpochScheduler {
    members: Vec<MemberState>,
    /// Kept for member (re)creation under churn: joiners and rejoining members get
    /// a fresh environment built from the same image and monitor configuration.
    image: BinaryImage,
    monitors: MonitorConfig,
}

impl EpochScheduler {
    /// A scheduler for `node_count` members running `image`.
    pub(crate) fn new(image: &BinaryImage, monitors: MonitorConfig, node_count: usize) -> Self {
        EpochScheduler {
            members: (0..node_count)
                .map(|_| MemberState::fresh(image, monitors))
                .collect(),
            image: image.clone(),
            monitors,
        }
    }

    /// Take `node` down with total state loss: its environment (and with it every
    /// installed patch hook) is discarded. The member stops receiving
    /// presentations, patch pushes, and learning shares until it rejoins.
    pub(crate) fn crash(&mut self, node: NodeId) {
        assert!(self.members[node].alive, "node {node} is already down");
        self.members[node] = MemberState::fresh(&self.image, self.monitors);
        self.members[node].alive = false;
    }

    /// Bring a down member back up with a fresh environment and no patches — the
    /// caller is responsible for re-synchronizing it (bootstrap / delta sync).
    pub(crate) fn rejoin(&mut self, node: NodeId) {
        assert!(!self.members[node].alive, "node {node} is already up");
        self.members[node].alive = true;
    }

    /// Add a brand-new member (fresh environment, no patches) and return its id.
    pub(crate) fn join(&mut self) -> NodeId {
        self.members
            .push(MemberState::fresh(&self.image, self.monitors));
        self.members.len() - 1
    }

    /// Reset one member to a fresh environment and install `plan` on it — the
    /// bootstrap primitive. Resetting first guarantees no stale hook survives under
    /// the new configuration (the member may have missed pushes while desynced).
    pub(crate) fn reset_and_apply(&mut self, node: NodeId, plan: &PatchPlan) {
        assert!(self.members[node].alive, "node {node} is down");
        self.members[node] = MemberState::fresh(&self.image, self.monitors);
        apply_plan_to_members(std::slice::from_mut(&mut self.members[node]), plan);
    }

    /// Execute one epoch: run every presentation on its member, in batch order,
    /// collecting one [`RunRecord`] per presentation. `active` lists the failure
    /// locations with live responses; a digest is built for each.
    pub(crate) fn run_epoch(
        &mut self,
        presentations: &[Presentation],
        active: &[Addr],
    ) -> Vec<RunRecord> {
        presentations
            .iter()
            .enumerate()
            .map(|(seq, presentation)| {
                run(
                    &mut self.members[presentation.node],
                    seq,
                    presentation,
                    active,
                )
            })
            .collect()
    }

    /// Apply a shard-merged patch plan to **every** up member — the distribution
    /// step that makes unexposed members immune.
    pub(crate) fn apply_plan(&mut self, plan: &PatchPlan) {
        apply_plan_to_members(&mut self.members, plan);
    }

    /// Amortized learning (Section 3.1): page `i` is traced by member
    /// `i % node_count` (the seed's round-robin), each member infers invariants from
    /// its share only, and every up member returns its local model, in member order
    /// — a member whose share is empty returns an empty one.
    pub(crate) fn learn(
        &mut self,
        image: &BinaryImage,
        pages: &[Vec<Word>],
    ) -> Vec<(NodeId, LearnedModel)> {
        let node_count = self.members.len();
        self.members
            .iter_mut()
            .enumerate()
            .filter(|(_, member)| member.alive)
            .map(|(node, member)| {
                let mut frontend = LearningFrontend::new(image.clone());
                for page in pages.iter().skip(node).step_by(node_count) {
                    let result = member.env.run_with_tracer(page, &mut frontend);
                    if result.is_completed() {
                        frontend.commit_run();
                    } else {
                        frontend.discard_run();
                    }
                }
                (node, frontend.into_model())
            })
            .collect()
    }
}

/// Run one presentation on its member.
fn run(
    member: &mut MemberState,
    seq: usize,
    presentation: &Presentation,
    active: &[Addr],
) -> RunRecord {
    assert!(
        member.alive,
        "presentation scheduled for down member {}",
        presentation.node
    );
    member.env.flush_cache();
    let result = member.env.run(&presentation.page);
    let status = DigestStatus::from(&result.status);
    let digests = active
        .iter()
        .map(|loc| {
            let checks = member.patches.get(loc).into_iter();
            let checks = checks.flat_map(|state| &state.checks);
            let checks = checks.map(|(inv, _, hook)| (inv, *hook));
            (
                *loc,
                RunDigest::of_run(status, &result.observations, checks),
            )
        })
        .collect();
    RunRecord {
        seq,
        node: presentation.node,
        failure: result.failure().cloned(),
        status: result.status,
        rendered: result.rendered,
        digests,
    }
}

/// Apply every operation of a patch plan to every up member. Down members are
/// skipped — they re-synchronize through the bootstrap / delta-sync path when they
/// rejoin. An install over an existing installation replaces it: the old hooks are
/// uninstalled by their handles first, as the console's push does.
fn apply_plan_to_members(members: &mut [MemberState], plan: &PatchPlan) {
    for member in members {
        if !member.alive {
            continue;
        }
        for op in plan.ops() {
            let state = member.patches.entry(op.location).or_default();
            // An install first removes what it replaces.
            match &op.directive {
                Directive::InstallChecks(_) | Directive::RemoveChecks => {
                    for (_, handle, _) in state.checks.drain(..) {
                        let _ = uninstall(&mut member.env, &handle);
                    }
                }
                Directive::InstallRepair(_) | Directive::RemoveRepair => {
                    if let Some(handle) = state.repair.take() {
                        let _ = uninstall(&mut member.env, &handle);
                    }
                }
            }
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    for check in checks {
                        let handle = install_hooks(&mut member.env, check.build_hooks());
                        let hook = *handle.hook_ids().last().expect("check hook");
                        state.checks.push((check.invariant.clone(), handle, hook));
                    }
                }
                Directive::InstallRepair(repair) => {
                    state.repair = Some(install_hooks(&mut member.env, repair.build_hooks()));
                }
                Directive::RemoveChecks | Directive::RemoveRepair => {}
            }
        }
    }
}
