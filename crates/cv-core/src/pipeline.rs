//! The single-application ClearView pipeline.
//!
//! [`ProtectedApplication`] owns a managed execution environment running one
//! application image, the learned model, and — via the [`manager`](crate::manager)
//! plane — a [`FailureResponder`](crate::FailureResponder) per failure location. Each
//! call to [`ProtectedApplication::present`] runs the application on one input (a
//! "page"), routes the outcome to the responders, applies the patch plan they
//! produce, and accounts the simulated time of each response phase — the per-exploit
//! breakdown reported in Table 3 of the paper.
//!
//! The single-machine pipeline drives the same responder set as the fleet engine
//! (`cv-fleet`): one [`ResponderShard`], here with one digest source and one
//! presentation per batch.

use crate::config::ClearViewConfig;
use crate::manager::{
    FailureEvent, NetPatchState, PatchPlan, ResponderShard, RoutedDigest, ShardBucket,
};
use crate::responder::{DigestStatus, Directive, FailureResponder, Phase, RepairReport, RunDigest};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{Addr, BinaryImage, Word};
use cv_patch::{install_hooks, uninstall, CheckPatch, InvariantCounts, PatchHandle};
use cv_runtime::{
    EnvConfig, ExecutionStats, HookId, ManagedExecutionEnvironment, MonitorConfig, ObservationKind,
    RunResult, RunStatus,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Learn a model of normal behaviour by running the application on a learning suite.
///
/// Pages that complete normally are committed into the model; pages that fail or crash
/// are discarded (Section 3.1's rule that invariants from erroneous executions must be
/// excluded). Returns the learned model and the execution statistics of the traced runs
/// (the learning-overhead experiment compares these against untraced runs).
pub fn learn_model(
    image: &BinaryImage,
    pages: &[Vec<Word>],
    monitors: MonitorConfig,
) -> (LearnedModel, ExecutionStats) {
    let mut env =
        ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(monitors));
    let mut frontend = LearningFrontend::new(image.clone());
    for page in pages {
        let result = env.run_with_tracer(page, &mut frontend);
        if result.is_completed() {
            frontend.commit_run();
        } else {
            frontend.discard_run();
        }
    }
    (frontend.into_model(), env.cumulative_stats())
}

/// Converts execution statistics into simulated wall-clock seconds.
///
/// The paper's per-run times (Table 3) are dominated by warming up the code cache after
/// restarting Firefox; instruction execution and patch hooks contribute the rest. The
/// defaults are calibrated to land individual runs in the 15–60 second range the paper
/// reports, so the *breakdown shape* of Table 3 is reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTimeModel {
    /// Fixed cost of restarting the application and warming up the environment.
    pub restart_base: f64,
    /// Seconds per basic block decoded into the code cache.
    pub per_block: f64,
    /// Seconds per guest instruction executed.
    pub per_instruction: f64,
    /// Seconds per patch-hook invocation (includes reporting observations).
    pub per_hook_invocation: f64,
}

impl Default for SimTimeModel {
    fn default() -> Self {
        SimTimeModel {
            restart_base: 16.0,
            per_block: 0.18,
            per_instruction: 2.0e-5,
            per_hook_invocation: 0.05,
        }
    }
}

impl SimTimeModel {
    /// Simulated seconds for one run.
    pub fn run_seconds(&self, stats: &ExecutionStats) -> f64 {
        self.restart_base
            + stats.blocks_built as f64 * self.per_block
            + stats.instructions as f64 * self.per_instruction
            + stats.hook_invocations as f64 * self.per_hook_invocation
    }
}

/// The per-failure time breakdown reproduced from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackTimeline {
    /// The failure location this timeline describes.
    pub failure_location: Addr,
    /// Time to replay the exploit to detection (the "Shadow Stack, Heap Guard Runs"
    /// column: the initial detection replays).
    pub detection_run_seconds: f64,
    /// Time to build the invariant-checking patches.
    pub check_build_seconds: f64,
    /// `[one-of, lower-bound, less-than]` counts of checked invariants.
    pub check_counts: InvariantCounts,
    /// Time to install the invariant-checking patches.
    pub check_install_seconds: f64,
    /// Time spent replaying the exploit with invariant checks in place.
    pub check_run_seconds: f64,
    /// Number of invariant-check executions observed during those replays.
    pub check_executions: u64,
    /// Number of those checks that reported a violation.
    pub check_violations: u64,
    /// Time to build the repair patches.
    pub repair_build_seconds: f64,
    /// `[one-of, lower-bound, less-than]` counts of correlated invariants repaired.
    pub repair_counts: InvariantCounts,
    /// Time to install repair patches.
    pub repair_install_seconds: f64,
    /// Time spent in runs where an applied repair did not succeed.
    pub unsuccessful_repair_seconds: f64,
    /// Number of unsuccessful repair runs.
    pub unsuccessful_repair_runs: u32,
    /// Time of the successful repair run (including the evaluation window).
    pub successful_repair_seconds: f64,
    /// Exploit presentations observed for this failure.
    pub presentations: u32,
}

impl AttackTimeline {
    fn new(failure_location: Addr) -> Self {
        AttackTimeline {
            failure_location,
            detection_run_seconds: 0.0,
            check_build_seconds: 0.0,
            check_counts: InvariantCounts::default(),
            check_install_seconds: 0.0,
            check_run_seconds: 0.0,
            check_executions: 0,
            check_violations: 0,
            repair_build_seconds: 0.0,
            repair_counts: InvariantCounts::default(),
            repair_install_seconds: 0.0,
            unsuccessful_repair_seconds: 0.0,
            unsuccessful_repair_runs: 0,
            successful_repair_seconds: 0.0,
            presentations: 0,
        }
    }

    /// Total simulated seconds from first detection to a successful patch.
    pub fn total_seconds(&self) -> f64 {
        self.detection_run_seconds
            + self.check_build_seconds
            + self.check_install_seconds
            + self.check_run_seconds
            + self.repair_build_seconds
            + self.repair_install_seconds
            + self.unsuccessful_repair_seconds
            + self.successful_repair_seconds
    }
}

/// Per-failure-location patch bookkeeping: what is installed on *this* machine for
/// the location, plus its Table 3 timeline. The decision state lives in the
/// [`ResponderShard`]; this is purely the local application side.
struct PatchSlot {
    checks: Vec<(Invariant, PatchHandle, HookId)>,
    repair: Option<PatchHandle>,
    timeline: AttackTimeline,
}

impl PatchSlot {
    fn new(timeline: AttackTimeline) -> Self {
        PatchSlot {
            checks: Vec::new(),
            repair: None,
            timeline,
        }
    }
}

/// The outcome of presenting one input to the protected application.
#[derive(Debug, Clone, PartialEq)]
pub struct PresentationOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// What the application rendered.
    pub rendered: Vec<Word>,
    /// Simulated seconds the run took.
    pub run_seconds: f64,
    /// True if this presentation was blocked by a monitor (a failure was detected).
    pub blocked: bool,
    /// Failure locations that became protected as a result of this presentation.
    pub newly_protected: Vec<Addr>,
}

/// One application instance protected by ClearView.
pub struct ProtectedApplication {
    env: ManagedExecutionEnvironment,
    model: LearnedModel,
    config: ClearViewConfig,
    sim: SimTimeModel,
    /// The manager plane: one responder per failure location.
    shard: ResponderShard,
    slots: BTreeMap<Addr, PatchSlot>,
    /// The net patch configuration installed on this machine — the durable state a
    /// checkpoint captures (see [`ProtectedApplication::checkpoint_plan`]).
    net: NetPatchState,
}

impl ProtectedApplication {
    /// Protect `image` using `model`, with the full Red Team monitor configuration.
    pub fn new(image: BinaryImage, model: LearnedModel, config: ClearViewConfig) -> Self {
        Self::with_monitors(image, model, config, MonitorConfig::full())
    }

    /// Protect `image` with an explicit monitor configuration (used by the ablation
    /// experiments).
    pub fn with_monitors(
        image: BinaryImage,
        model: LearnedModel,
        config: ClearViewConfig,
        monitors: MonitorConfig,
    ) -> Self {
        ProtectedApplication {
            env: ManagedExecutionEnvironment::new(image, EnvConfig::with_monitors(monitors)),
            model,
            config,
            sim: SimTimeModel::default(),
            shard: ResponderShard::new(),
            slots: BTreeMap::new(),
            net: NetPatchState::new(),
        }
    }

    /// Warm-start an application from a previously checkpointed protection state:
    /// the learned `model` plus the net patch `plan` of a checkpoint
    /// ([`ProtectedApplication::checkpoint_plan`], typically decoded from a
    /// `cv-store` snapshot). Every validated repair is reinstalled and its responder
    /// adopted directly in [`Phase::Protected`] — zero learning replay, zero
    /// re-checking. In-flight checking patches are dropped: the next failure report
    /// at such a location simply restarts that response.
    pub fn restore(
        image: BinaryImage,
        model: LearnedModel,
        config: ClearViewConfig,
        monitors: MonitorConfig,
        plan: &PatchPlan,
    ) -> Self {
        let mut app = Self::with_monitors(image, model, config, monitors);
        let mut net = NetPatchState::new();
        net.apply(plan);
        for (loc, repair) in net.repairs() {
            let handle = install_hooks(&mut app.env, repair.build_hooks());
            let mut slot = PatchSlot::new(AttackTimeline::new(loc));
            slot.repair = Some(handle);
            app.slots.insert(loc, slot);
            app.shard.adopt(
                loc,
                FailureResponder::restored(loc, repair.clone(), config),
                [0],
            );
        }
        app.net.apply(&net.repair_plan());
        app
    }

    /// The minimal patch plan that brings a fresh instance to this one's installed
    /// configuration — the durable protection state a checkpoint captures.
    pub fn checkpoint_plan(&self) -> PatchPlan {
        self.net.to_plan()
    }

    /// The net patch configuration currently installed.
    pub fn net_state(&self) -> &NetPatchState {
        &self.net
    }

    /// The learned model in use.
    pub fn model(&self) -> &LearnedModel {
        &self.model
    }

    /// Replace the simulated-time model (used by benchmarks).
    pub fn set_sim_time_model(&mut self, sim: SimTimeModel) {
        self.sim = sim;
    }

    /// Failure locations ClearView has observed so far.
    pub fn failure_locations(&self) -> Vec<Addr> {
        self.shard.locations().collect()
    }

    /// True if a successful repair is in place for the failure at `location`.
    pub fn is_protected_against(&self, location: Addr) -> bool {
        self.shard
            .get(location)
            .map(|r| r.is_protected())
            .unwrap_or(false)
    }

    /// The response phase for the failure at `location`.
    pub fn phase_of(&self, location: Addr) -> Option<Phase> {
        self.shard.get(location).map(|r| r.phase())
    }

    /// The number of patches (hooks) currently applied to the running application.
    pub fn applied_hook_count(&self) -> usize {
        self.env.hook_count()
    }

    /// Maintainer-facing reports for every observed failure.
    pub fn reports(&self) -> Vec<RepairReport> {
        self.shard.responders().map(|(_, r)| r.report()).collect()
    }

    /// Table 3-style timelines for every observed failure.
    pub fn timelines(&self) -> Vec<AttackTimeline> {
        self.slots.values().map(|s| s.timeline).collect()
    }

    /// Present one input ("load one page") to the protected application.
    pub fn present(&mut self, input: &[Word]) -> PresentationOutcome {
        // Each presentation models a fresh application launch (the monitor terminated
        // the previous instance on failure), so the code cache starts cold — the
        // dominant per-run cost in the paper's Table 3.
        self.env.flush_cache();
        let result = self.env.run(input);
        let run_seconds = self.sim.run_seconds(&result.stats);
        let status = DigestStatus::from(&result.status);

        let previously_protected: Vec<Addr> = self
            .shard
            .responders()
            .filter(|(_, r)| r.is_protected())
            .map(|(a, _)| a)
            .collect();

        // Attribute the run's time to every active response (the phase *during* the
        // run) and build its digest against the locally installed checking patches.
        let mut digests: Vec<RoutedDigest> = Vec::with_capacity(self.slots.len());
        for (loc, slot) in self.slots.iter_mut() {
            let responder = self.shard.get(*loc).expect("responder for slot");
            Self::attribute_time(slot, responder, status, run_seconds, &result, &self.config);
            digests.push(RoutedDigest {
                source: 0,
                location: *loc,
                digest: RunDigest::of_run(
                    status,
                    &result.observations,
                    slot.checks.iter().map(|(inv, _, hook)| (inv, *hook)),
                ),
            });
        }
        let failures = match &result.status {
            // A failure at a location ClearView has not seen before starts a new
            // response (the responder set ignores reports at locations it has).
            RunStatus::Failure(failure) => vec![FailureEvent {
                source: 0,
                failure: failure.clone(),
            }],
            _ => Vec::new(),
        };

        // Drive the manager plane and apply its patch plan.
        let bucket = ShardBucket { digests, failures };
        let outcome = self.shard.process(bucket, &self.model, &self.config);
        for loc in &outcome.started {
            let mut timeline = AttackTimeline::new(*loc);
            timeline.detection_run_seconds += run_seconds;
            timeline.presentations += 1;
            self.slots.insert(*loc, PatchSlot::new(timeline));
        }
        self.apply_plan(&outcome.plan);

        let newly_protected: Vec<Addr> = self
            .shard
            .responders()
            .filter(|(a, r)| r.is_protected() && !previously_protected.contains(a))
            .map(|(a, _)| a)
            .collect();

        PresentationOutcome {
            blocked: matches!(result.status, RunStatus::Failure(_)),
            status: result.status,
            rendered: result.rendered,
            run_seconds,
            newly_protected,
        }
    }

    fn attribute_time(
        slot: &mut PatchSlot,
        responder: &FailureResponder,
        status: DigestStatus,
        run_seconds: f64,
        result: &RunResult,
        config: &ClearViewConfig,
    ) {
        let ours =
            matches!(status, DigestStatus::FailureAt(loc) if loc == responder.failure_location);
        if ours {
            slot.timeline.presentations += 1;
        }
        match responder.phase() {
            Phase::Checking if ours => {
                slot.timeline.check_run_seconds += run_seconds;
                let check_ids: Vec<HookId> = slot.checks.iter().map(|(_, _, id)| *id).collect();
                for obs in &result.observations {
                    if check_ids.contains(&obs.hook) {
                        slot.timeline.check_executions += 1;
                        if obs.kind == ObservationKind::Violated {
                            slot.timeline.check_violations += 1;
                        }
                    }
                }
            }
            Phase::Repairing => match status {
                DigestStatus::Completed => {
                    slot.timeline.successful_repair_seconds +=
                        run_seconds + config.success_observation_seconds;
                }
                DigestStatus::FailureAt(loc) if loc == responder.failure_location => {
                    slot.timeline.unsuccessful_repair_seconds += run_seconds;
                    slot.timeline.unsuccessful_repair_runs += 1;
                }
                DigestStatus::Crashed => {
                    slot.timeline.unsuccessful_repair_seconds += run_seconds;
                    slot.timeline.unsuccessful_repair_runs += 1;
                }
                DigestStatus::FailureAt(_) => {}
            },
            _ => {}
        }
    }

    /// Apply a manager patch plan to this application, with Table 3 time accounting.
    fn apply_plan(&mut self, plan: &PatchPlan) {
        self.net.apply(plan);
        for op in plan.ops() {
            let loc = op.location;
            let costs = self.config.patch_costs;
            let slot = match self.slots.get_mut(&loc) {
                Some(s) => s,
                None => continue,
            };
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    let invariants: Vec<Invariant> =
                        checks.iter().map(|c| c.invariant.clone()).collect();
                    let counts = InvariantCounts::of(invariants.iter());
                    slot.timeline.check_counts = counts;
                    slot.timeline.check_build_seconds += costs.build_time(counts);
                    slot.timeline.check_install_seconds += costs.install_time(checks.len() as u32);
                    for check in checks {
                        let inv = check.invariant.clone();
                        let handle = install_hooks(&mut self.env, check.build_hooks());
                        let check_hook = *handle.hook_ids().last().expect("check hook present");
                        slot.checks.push((inv, handle, check_hook));
                    }
                }
                Directive::RemoveChecks => {
                    for (_, handle, _) in slot.checks.drain(..) {
                        let _ = uninstall(&mut self.env, &handle);
                    }
                }
                Directive::InstallRepair(repair) => {
                    if slot.timeline.repair_build_seconds == 0.0 {
                        // The paper builds the repair patches for every correlated
                        // invariant in one batch, then installs them one at a time.
                        let correlated: Vec<Invariant> = self
                            .shard
                            .get(loc)
                            .map(|responder| {
                                responder
                                    .classifications()
                                    .iter()
                                    .filter(|(_, c)| **c > crate::correlate::Correlation::Not)
                                    .map(|(i, _)| i.clone())
                                    .collect()
                            })
                            .unwrap_or_default();
                        let counts = InvariantCounts::of(correlated.iter());
                        slot.timeline.repair_counts = counts;
                        slot.timeline.repair_build_seconds += costs.build_time(counts);
                    }
                    slot.timeline.repair_install_seconds += costs.install_time(1);
                    let handle = install_hooks(&mut self.env, repair.build_hooks());
                    slot.repair = Some(handle);
                }
                Directive::RemoveRepair => {
                    if let Some(handle) = slot.repair.take() {
                        let _ = uninstall(&mut self.env, &handle);
                    }
                }
            }
        }
    }
}

// Unit and integration-style tests exercising the full pipeline live in
// `tests/pipeline.rs` of this crate (they need a vulnerable guest application).

/// Convenience: a CheckPatch list for a set of invariants (used by the community layer).
pub fn checks_for(invariants: &[Invariant]) -> Vec<CheckPatch> {
    invariants.iter().cloned().map(CheckPatch::new).collect()
}
