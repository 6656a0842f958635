//! The batched epoch scheduler.
//!
//! Community execution proceeds in *epochs*: a batch of page presentations is fanned
//! out across worker threads (members are partitioned round-robin over workers, one
//! `ManagedExecutionEnvironment` per member, so no run ever crosses a thread), every
//! run's failure report and invariant-check observations are collected into
//! [`RunRecord`]s, and the central manager processes the batch between epochs. Patch
//! operations produced by the manager are applied to every member at the epoch
//! boundary — the fleet equivalent of the paper's console pushing patches to all Node
//! Managers (Section 3.2).
//!
//! Within an epoch members execute with a *fixed* patch configuration; this is what
//! makes the fan-out embarrassingly parallel. The consistency consequences for the
//! responder protocol are handled by the engine (see `Fleet::run_epoch`).

use crate::protocol::{NodeId, Presentation};
use cv_core::{DigestStatus, Directive, PatchPlan, RunDigest};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{Addr, BinaryImage, Word};
use cv_patch::{install_hooks, uninstall, PatchHandle};
use cv_runtime::{
    EnvConfig, Failure, HookId, ManagedExecutionEnvironment, MonitorConfig, RunStatus,
};
use std::collections::BTreeMap;

/// Patches currently installed on one member for one failure location.
#[derive(Default)]
struct NodePatchState {
    checks: Vec<(Invariant, PatchHandle, HookId)>,
    repair: Option<PatchHandle>,
}

/// One community member: its execution environment plus patch bookkeeping.
struct MemberState {
    id: NodeId,
    env: ManagedExecutionEnvironment,
    patches: BTreeMap<Addr, NodePatchState>,
    /// False while the member is down (crashed with state loss, not yet rejoined).
    /// Down members receive no presentations, no patch pushes, and no learning
    /// shares — rejoining is what re-synchronizes them (the delta-sync plane).
    alive: bool,
}

impl MemberState {
    fn fresh(id: NodeId, image: &BinaryImage, monitors: MonitorConfig) -> Self {
        MemberState {
            id,
            env: ManagedExecutionEnvironment::new(
                image.clone(),
                EnvConfig::with_monitors(monitors),
            ),
            patches: BTreeMap::new(),
            alive: true,
        }
    }
}

/// The outcome of one page presentation, as collected by a worker.
pub(crate) struct RunRecord {
    /// Position of the presentation in the epoch's batch (global order).
    pub seq: usize,
    /// The member that loaded the page.
    pub node: NodeId,
    /// How the run ended.
    pub status: RunStatus,
    /// What the member rendered.
    pub rendered: Vec<Word>,
    /// Per-active-failure-location digests (status plus check observations), built
    /// against the patch configuration the run actually executed under.
    pub digests: Vec<(Addr, RunDigest)>,
    /// The failure a monitor reported, if any.
    pub failure: Option<Failure>,
}

/// Fans epochs of presentations out across worker-owned members.
pub struct EpochScheduler {
    workers: Vec<Vec<MemberState>>,
    node_count: usize,
    parallel: bool,
    /// Members currently up (alive flags summed).
    alive_count: usize,
    /// Kept for member (re)creation under churn: joiners and rejoining members get
    /// a fresh environment built from the same image and monitor configuration.
    image: BinaryImage,
    monitors: MonitorConfig,
}

impl EpochScheduler {
    /// A scheduler for `node_count` members running `image`, partitioned over
    /// `worker_count` workers (0 = one per available core). `parallel = false` skips
    /// the worker pool entirely: all members live in one partition that runs on the
    /// calling thread, so the sequential baseline of the `fleet_scale` benchmark
    /// never allocates per-worker structures or spawns threads.
    pub(crate) fn new(
        image: &BinaryImage,
        monitors: MonitorConfig,
        node_count: usize,
        worker_count: usize,
        parallel: bool,
    ) -> Self {
        let node_count = node_count.max(1);
        let worker_count = if !parallel {
            1
        } else if worker_count == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            worker_count
        }
        .clamp(1, node_count);
        let mut workers: Vec<Vec<MemberState>> = (0..worker_count).map(|_| Vec::new()).collect();
        for id in 0..node_count {
            workers[id % worker_count].push(MemberState::fresh(id, image, monitors));
        }
        EpochScheduler {
            workers,
            node_count,
            parallel,
            alive_count: node_count,
            image: image.clone(),
            monitors,
        }
    }

    /// Number of members (including down ones — member ids are never reused).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of members currently up.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// True if `node` is up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.member(node).alive
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn member(&self, node: NodeId) -> &MemberState {
        assert!(node < self.node_count, "unknown node {node}");
        let member = &self.workers[node % self.workers.len()][node / self.workers.len()];
        debug_assert_eq!(member.id, node);
        member
    }

    fn member_mut(&mut self, node: NodeId) -> &mut MemberState {
        assert!(node < self.node_count, "unknown node {node}");
        let worker_count = self.workers.len();
        let member = &mut self.workers[node % worker_count][node / worker_count];
        debug_assert_eq!(member.id, node);
        member
    }

    /// Take `node` down with total state loss: its environment (and with it every
    /// installed patch hook) is discarded. The member stops receiving
    /// presentations, patch pushes, and learning shares until it rejoins.
    pub(crate) fn crash(&mut self, node: NodeId) {
        let (image, monitors) = (self.image.clone(), self.monitors);
        let member = self.member_mut(node);
        assert!(member.alive, "node {node} is already down");
        *member = MemberState::fresh(node, &image, monitors);
        member.alive = false;
        self.alive_count -= 1;
    }

    /// Bring a down member back up with a fresh environment and no patches — the
    /// caller is responsible for re-synchronizing it (bootstrap / delta sync).
    pub(crate) fn rejoin(&mut self, node: NodeId) {
        let member = self.member_mut(node);
        assert!(!member.alive, "node {node} is already up");
        member.alive = true;
        self.alive_count += 1;
    }

    /// Add a brand-new member (fresh environment, no patches) and return its id.
    /// Ids are append-only, so the round-robin worker partition stays valid.
    pub(crate) fn join(&mut self) -> NodeId {
        let id = self.node_count;
        let worker = id % self.workers.len();
        let member = MemberState::fresh(id, &self.image, self.monitors);
        self.workers[worker].push(member);
        self.node_count += 1;
        self.alive_count += 1;
        id
    }

    /// Reset one member to a fresh environment and install `plan` on it — the
    /// bootstrap primitive. Resetting first guarantees no stale hook survives under
    /// the new configuration (the member may have missed pushes while desynced).
    pub(crate) fn reset_and_apply(&mut self, node: NodeId, plan: &PatchPlan) {
        let (image, monitors) = (self.image.clone(), self.monitors);
        let member = self.member_mut(node);
        assert!(member.alive, "node {node} is down");
        *member = MemberState::fresh(node, &image, monitors);
        apply_plan_to_members(std::slice::from_mut(member), plan);
    }

    /// Execute one epoch: run every presentation on its member, collecting one
    /// [`RunRecord`] per presentation (returned in batch order). `active` lists the
    /// failure locations with live responses; a digest is built for each.
    pub(crate) fn run_epoch(
        &mut self,
        presentations: &[Presentation],
        active: &[Addr],
    ) -> Vec<RunRecord> {
        let worker_count = self.workers.len();
        let mut jobs: Vec<Vec<(usize, &Presentation)>> =
            (0..worker_count).map(|_| Vec::new()).collect();
        for (seq, presentation) in presentations.iter().enumerate() {
            assert!(
                presentation.node < self.node_count,
                "unknown node {}",
                presentation.node
            );
            jobs[presentation.node % worker_count].push((seq, presentation));
        }

        let mut records: Vec<RunRecord> = if self.parallel && worker_count > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .workers
                    .iter_mut()
                    .zip(&jobs)
                    .map(|(members, batch)| {
                        scope.spawn(move || run_worker(members, worker_count, batch, active))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        } else {
            self.workers
                .iter_mut()
                .zip(&jobs)
                .flat_map(|(members, batch)| run_worker(members, worker_count, batch, active))
                .collect()
        };
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Apply a shard-merged patch plan to **every** member — the distribution step
    /// that makes unexposed members immune. Fanned out across workers.
    pub(crate) fn apply_plan(&mut self, plan: &PatchPlan) {
        if plan.is_empty() {
            return;
        }
        if self.parallel && self.workers.len() > 1 {
            std::thread::scope(|scope| {
                for members in self.workers.iter_mut() {
                    scope.spawn(move || apply_plan_to_members(members, plan));
                }
            });
        } else {
            for members in self.workers.iter_mut() {
                apply_plan_to_members(members, plan);
            }
        }
    }

    /// Amortized parallel learning (Section 3.1): page `i` is traced by member
    /// `i % node_count` (the seed's round-robin), each member infers invariants from
    /// its share only, and every member returns its local model — the uploads the
    /// sharded store then merges. Fanned out across workers.
    pub(crate) fn learn(
        &mut self,
        image: &BinaryImage,
        pages: &[Vec<Word>],
    ) -> Vec<(NodeId, LearnedModel)> {
        let node_count = self.node_count;
        let mut locals: Vec<(NodeId, LearnedModel)> = if self.parallel && self.workers.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .workers
                    .iter_mut()
                    .map(|members| {
                        scope.spawn(move || learn_on_members(members, image, pages, node_count))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        } else {
            self.workers
                .iter_mut()
                .flat_map(|members| learn_on_members(members, image, pages, node_count))
                .collect()
        };
        locals.sort_by_key(|(node, _)| *node);
        locals
    }
}

/// Run one worker's share of an epoch.
fn run_worker(
    members: &mut [MemberState],
    worker_count: usize,
    jobs: &[(usize, &Presentation)],
    active: &[Addr],
) -> Vec<RunRecord> {
    jobs.iter()
        .map(|(seq, presentation)| {
            let member = &mut members[presentation.node / worker_count];
            debug_assert_eq!(member.id, presentation.node);
            assert!(
                member.alive,
                "presentation scheduled for down member {}",
                member.id
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
                seq: *seq,
                node: presentation.node,
                failure: result.failure().cloned(),
                status: result.status,
                rendered: result.rendered,
                digests,
            }
        })
        .collect()
}

/// Apply every operation of a patch plan to every up member of one worker. Down
/// members are skipped — they re-synchronize through the bootstrap / delta-sync
/// path when they rejoin.
fn apply_plan_to_members(members: &mut [MemberState], plan: &PatchPlan) {
    for member in members {
        if !member.alive {
            continue;
        }
        for op in plan.ops() {
            let state = member.patches.entry(op.location).or_default();
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    let mut installed = Vec::with_capacity(checks.len());
                    for check in checks {
                        let handle = install_hooks(&mut member.env, check.build_hooks());
                        let hook = *handle.hook_ids().last().expect("check hook");
                        installed.push((check.invariant.clone(), handle, hook));
                    }
                    state.checks = installed;
                }
                Directive::RemoveChecks => {
                    let checks: Vec<_> = state.checks.drain(..).collect();
                    for (_, handle, _) in checks {
                        let _ = uninstall(&mut member.env, &handle);
                    }
                }
                Directive::InstallRepair(repair) => {
                    state.repair = Some(install_hooks(&mut member.env, repair.build_hooks()));
                }
                Directive::RemoveRepair => {
                    if let Some(handle) = state.repair.take() {
                        let _ = uninstall(&mut member.env, &handle);
                    }
                }
            }
        }
    }
}

/// Run one worker's members' learning shares.
fn learn_on_members(
    members: &mut [MemberState],
    image: &BinaryImage,
    pages: &[Vec<Word>],
    node_count: usize,
) -> Vec<(NodeId, LearnedModel)> {
    members
        .iter_mut()
        .filter(|member| member.alive)
        .map(|member| {
            let mut frontend = LearningFrontend::new(image.clone());
            for page in pages.iter().skip(member.id).step_by(node_count) {
                let result = member.env.run_with_tracer(page, &mut frontend);
                if result.is_completed() {
                    frontend.commit_run();
                } else {
                    frontend.discard_run();
                }
            }
            (member.id, frontend.into_model())
        })
        .collect()
}
