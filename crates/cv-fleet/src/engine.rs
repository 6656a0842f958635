//! The member-execution engine.
//!
//! Community execution proceeds in *epochs*: a batch of page presentations is fanned
//! out across worker threads (the calling thread runs the first worker's share, so
//! an epoch starts one thread fewer), every run's failure report and invariant-check
//! observations are collected into [`RunRecord`]s, and the central manager processes
//! the batch between epochs. Patch operations produced by the manager are applied to
//! every up member at the epoch boundary — the fleet equivalent of the paper's
//! console pushing patches to all Node Managers (Section 3.2). Within an epoch
//! members execute with a *fixed* patch configuration; this is what makes the
//! fan-out embarrassingly parallel. The consistency consequences for the responder
//! protocol are handled by the fleet (see `Fleet::run_epoch`).
//!
//! The *program* is shared once per fleet ([`SharedProgram`]: one image, one
//! pre-decoded instruction index, one pristine address space backing copy-on-write
//! machines), and a member is a [`MemberSlot`] — the id of its *patch configuration*
//! plus an alive flag, 8 bytes — full stop. A patch keeps nothing between runs (the
//! auxiliary value of a two-variable check lives in the run, see
//! `cv_runtime::HookContext::store_aux`), so there is no per-member hook state to
//! carry, load or save.
//!
//! Patch configurations are interned in a [`ConfigTable`]: a config is the ordered
//! list of patch *units* (one check or repair patch each) installed on a member, and
//! nothing else — two members that hold the same patches in the same order hold the
//! same configuration, however each got there. Every epoch-boundary plan push maps
//! each live config to its successor once — O(distinct lineages), not O(members).
//! Workers materialize an environment per *config* (not per member) on demand, so ten
//! thousand homogeneous members share one environment per worker.
//!
//! What all of that must be indistinguishable from is a community in which every
//! member owns a long-lived environment of its own. That reference is
//! `scheduler.rs`; it exists in this crate's test build only, where every engine
//! carries one and checks itself against it call by call (`engine/parity.rs`) — on
//! every plan sequence, not only those the responder protocol emits.

use crate::protocol::{NodeId, Presentation};
use cv_core::{DigestStatus, Directive, PatchPlan, RunDigest};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{Addr, BinaryImage, Word};
use cv_patch::{install_hooks, CheckPatch, RepairPatch};
use cv_runtime::{
    EnvConfig, Failure, HookId, ManagedExecutionEnvironment, MonitorConfig, RunStatus,
    SharedProgram,
};
use std::collections::HashMap;

#[cfg(test)]
use crate::scheduler::EpochScheduler;

/// Identifier of an interned patch configuration (index into the config table).
type ConfigId = u32;

/// The empty configuration (no patches installed). Always present at index 0.
const EMPTY_CONFIG: ConfigId = 0;

/// Epoch batches smaller than this run on the calling thread even when a worker
/// pool is configured: thread spawn and join overhead dwarfs the work itself.
const SMALL_EPOCH_INLINE: usize = 16;

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

/// One community member: this slot is its whole per-member cost.
#[derive(Clone, Copy)]
struct MemberSlot {
    config: ConfigId,
    /// False while the member is down (crashed with state loss, not yet rejoined).
    alive: bool,
}

/// One installed patch: a check or repair patch at one failure location.
#[derive(Clone, PartialEq)]
struct Unit {
    location: Addr,
    kind: UnitKind,
}

#[derive(Clone, PartialEq)]
enum UnitKind {
    Check(CheckPatch),
    Repair(RepairPatch),
}

/// An interned patch configuration: units in installation order. Installation
/// order is what a member's hook registry preserves, and it is observable (hooks
/// at one address run in installation order, and a repair hook's action can
/// shadow later hooks), so it is part of config identity.
#[derive(Default, Clone, PartialEq)]
struct Config {
    units: Vec<Unit>,
}

/// The interning table of patch configurations.
struct ConfigTable {
    configs: Vec<Config>,
}

impl ConfigTable {
    fn new() -> Self {
        ConfigTable {
            configs: vec![Config::default()],
        }
    }

    fn units(&self, id: ConfigId) -> &[Unit] {
        &self.configs[id as usize].units
    }

    /// The configuration a member on `from` holds after `plan` is pushed to it —
    /// the one interning path: the plan's operations applied to `from`'s units (an
    /// install over an existing installation replaces it), then the config with
    /// exactly those units in that order, existing or new. A push that
    /// only removes can fold back onto an ancestor, a no-op push returns `from`,
    /// and a member bootstrapped from [`EMPTY_CONFIG`] lands on the config of the
    /// members that reached the same patches push by push.
    fn successor(&mut self, from: ConfigId, plan: &PatchPlan) -> ConfigId {
        let mut units = self.configs[from as usize].units.clone();
        for op in plan.ops() {
            let loc = op.location;
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Check(_))));
                    units.extend(checks.iter().map(|check| Unit {
                        location: loc,
                        kind: UnitKind::Check(check.clone()),
                    }));
                }
                Directive::RemoveChecks => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Check(_))));
                }
                Directive::InstallRepair(repair) => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Repair(_))));
                    units.push(Unit {
                        location: loc,
                        kind: UnitKind::Repair(repair.clone()),
                    });
                }
                Directive::RemoveRepair => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Repair(_))));
                }
            }
        }
        if let Some(id) = self.configs.iter().position(|c| c.units == units) {
            return id as ConfigId;
        }
        self.configs.push(Config { units });
        (self.configs.len() - 1) as ConfigId
    }
}

/// A worker's materialization of one config: a shared-program environment with the
/// config's hooks installed and the per-location digest index (invariant and
/// check-hook id, in install order).
struct MaterializedConfig {
    env: ManagedExecutionEnvironment,
    checks_by_loc: HashMap<Addr, Vec<(Invariant, HookId)>>,
}

/// Install `units` into `env`, returning the digest index.
fn install_units(
    env: &mut ManagedExecutionEnvironment,
    units: &[Unit],
) -> HashMap<Addr, Vec<(Invariant, HookId)>> {
    let mut checks_by_loc: HashMap<Addr, Vec<(Invariant, HookId)>> = HashMap::new();
    for unit in units {
        match &unit.kind {
            UnitKind::Check(check) => {
                let handle = install_hooks(env, check.build_hooks());
                let hook = *handle.hook_ids().last().expect("check hook");
                checks_by_loc
                    .entry(unit.location)
                    .or_default()
                    .push((check.invariant.clone(), hook));
            }
            UnitKind::Repair(repair) => {
                let _ = install_hooks(env, repair.build_hooks());
            }
        }
    }
    checks_by_loc
}

fn materialize(
    program: &SharedProgram,
    monitors: MonitorConfig,
    units: &[Unit],
) -> MaterializedConfig {
    let mut env =
        ManagedExecutionEnvironment::with_shared(program, EnvConfig::with_monitors(monitors));
    let checks_by_loc = install_units(&mut env, units);
    MaterializedConfig { env, checks_by_loc }
}

/// The member-execution engine behind [`Fleet`](crate::Fleet).
pub struct EventEngine {
    program: SharedProgram,
    monitors: MonitorConfig,
    worker_count: usize,
    /// Hardware parallelism (1 where the machine will not say); with one core the
    /// worker pool can only lose, so epochs run inline regardless of the configured
    /// worker count.
    cores: usize,
    node_count: usize,
    alive_count: usize,
    slots: Vec<MemberSlot>,
    table: ConfigTable,
    /// Per-worker materialized configs, kept warm across epochs and pruned when a
    /// plan push retires a config.
    scratch: Vec<HashMap<ConfigId, MaterializedConfig>>,
    /// The per-member-environment reference this engine is held to, call by call.
    #[cfg(test)]
    reference: EpochScheduler,
}

impl EventEngine {
    /// An engine for `node_count` members running `image`, partitioned over
    /// `worker_count` workers (0 = one per available core).
    pub(crate) fn new(
        image: &BinaryImage,
        monitors: MonitorConfig,
        node_count: usize,
        worker_count: usize,
    ) -> Self {
        let node_count = node_count.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let worker_count = if worker_count == 0 {
            cores
        } else {
            worker_count
        }
        .clamp(1, node_count);
        EventEngine {
            program: SharedProgram::new(image.clone()),
            monitors,
            worker_count,
            cores,
            node_count,
            alive_count: node_count,
            slots: vec![
                MemberSlot {
                    config: EMPTY_CONFIG,
                    alive: true,
                };
                node_count
            ],
            table: ConfigTable::new(),
            scratch: (0..worker_count).map(|_| HashMap::new()).collect(),
            #[cfg(test)]
            reference: EpochScheduler::new(image, monitors, node_count),
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
        self.slot(node).alive
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Threads a fan-out can actually use: the worker count capped at the machine's
    /// parallelism. At 1 everything runs inline on the calling thread.
    pub(crate) fn usable_threads(&self) -> usize {
        self.worker_count.min(self.cores)
    }

    fn slot(&self, node: NodeId) -> &MemberSlot {
        assert!(node < self.node_count, "unknown node {node}");
        &self.slots[node]
    }

    /// Take `node` down with total state loss: its configuration is discarded.
    pub(crate) fn crash(&mut self, node: NodeId) {
        assert!(self.slot(node).alive, "node {node} is already down");
        self.slots[node] = MemberSlot {
            config: EMPTY_CONFIG,
            alive: false,
        };
        self.alive_count -= 1;
        #[cfg(test)]
        self.reference.crash(node);
    }

    /// Bring a down member back up, patchless — the caller re-synchronizes it.
    pub(crate) fn rejoin(&mut self, node: NodeId) {
        assert!(!self.slot(node).alive, "node {node} is already up");
        self.slots[node].alive = true;
        self.alive_count += 1;
        #[cfg(test)]
        self.reference.rejoin(node);
    }

    /// Add a brand-new member (no patches) and return its id.
    pub(crate) fn join(&mut self) -> NodeId {
        let id = self.node_count;
        self.slots.push(MemberSlot {
            config: EMPTY_CONFIG,
            alive: true,
        });
        self.node_count += 1;
        self.alive_count += 1;
        #[cfg(test)]
        assert_eq!(self.reference.join(), id);
        id
    }

    /// Reset one member to patchless and install `plan` on it — the bootstrap
    /// primitive.
    pub(crate) fn reset_and_apply(&mut self, node: NodeId, plan: &PatchPlan) {
        assert!(self.slot(node).alive, "node {node} is down");
        self.slots[node].config = self.table.successor(EMPTY_CONFIG, plan);
        #[cfg(test)]
        self.reference.reset_and_apply(node, plan);
    }

    /// Execute one epoch: run every presentation on its member, collecting one
    /// [`RunRecord`] per presentation (returned in batch order). `active` lists the
    /// failure locations with live responses; a digest is built for each. Members
    /// are partitioned round-robin over workers, so no materialized environment is
    /// ever touched by two threads.
    pub(crate) fn run_epoch(
        &mut self,
        presentations: &[Presentation],
        active: &[Addr],
    ) -> Vec<RunRecord> {
        let worker_count = self.worker_count;
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

        let (program, monitors) = (&self.program, self.monitors);
        let (table, slots) = (&self.table, &self.slots);
        let threaded = self.usable_threads() > 1 && presentations.len() >= SMALL_EPOCH_INLINE;
        // Threaded, the calling thread runs worker 0's share itself.
        let first_spawned = if threaded { 1 } else { worker_count };
        let shares = self.scratch.iter_mut().zip(&jobs);
        let mut records = fan_out(shares, first_spawned, |(scratch, batch)| {
            run_worker(program, monitors, table, slots, scratch, batch, active)
        });
        records.sort_by_key(|r| r.seq);
        #[cfg(test)]
        parity::assert_same_records(&records, &self.reference.run_epoch(presentations, active));
        records
    }

    /// Apply a shard-merged patch plan to every up member: one successor-config
    /// computation per distinct live configuration, one `u32` store per member.
    /// Config ids are dense indices into the table, so the successor memo and the
    /// live set are arrays indexed by id.
    pub(crate) fn apply_plan(&mut self, plan: &PatchPlan) {
        if plan.is_empty() {
            return;
        }
        let mut successors: Vec<Option<ConfigId>> = vec![None; self.table.configs.len()];
        for slot in self.slots.iter_mut().filter(|slot| slot.alive) {
            let from = slot.config;
            slot.config =
                *successors[from as usize].get_or_insert_with(|| self.table.successor(from, plan));
        }
        // Retire materializations of configs no member holds any more.
        let mut live = vec![false; self.table.configs.len()];
        for slot in &self.slots {
            live[slot.config as usize] = true;
        }
        for scratch in &mut self.scratch {
            scratch.retain(|id, _| live[*id as usize]);
        }
        #[cfg(test)]
        self.reference.apply_plan(plan);
    }

    /// Amortized parallel learning (Section 3.1): page `i` is traced by member
    /// `i % node_count` (the seed's round-robin), each member infers invariants from
    /// its share only, and the local models come back in member order — the uploads
    /// the sharded store then merges. Returns only up members with a non-empty
    /// share — a pageless member's local model is empty and merging it is a no-op,
    /// so the fleet reconstructs its (empty) upload from the alive set.
    pub(crate) fn learn(
        &mut self,
        image: &BinaryImage,
        pages: &[Vec<Word>],
    ) -> Vec<(NodeId, LearnedModel)> {
        let node_count = self.node_count;
        let learners: Vec<NodeId> = (0..node_count.min(pages.len()))
            .filter(|n| self.slots[*n].alive)
            .collect();
        let (monitors, table, slots) = (self.monitors, &self.table, &self.slots);
        let learn_one = |node: NodeId| -> (NodeId, LearnedModel) {
            let mut env =
                ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(monitors));
            install_units(&mut env, table.units(slots[node].config));
            let mut frontend = LearningFrontend::new(image.clone());
            for page in pages.iter().skip(node).step_by(node_count) {
                let result = env.run_with_tracer(page, &mut frontend);
                if result.is_completed() {
                    frontend.commit_run();
                } else {
                    frontend.discard_run();
                }
            }
            (node, frontend.into_model())
        };

        let mut buckets: Vec<Vec<NodeId>> = (0..self.worker_count).map(|_| Vec::new()).collect();
        for node in &learners {
            buckets[node % self.worker_count].push(*node);
        }
        // Threaded, every share gets a thread and the calling thread waits. A learner
        // builds and drops whole environments, and with the caller running share 0
        // the scheduler was measured to queue the spawned share behind it on the
        // caller's core until it finished: learning took ×1.5 as long on 2 vCPUs.
        let threaded = self.usable_threads() > 1 && learners.len() > 1;
        let first_spawned = if threaded { 0 } else { buckets.len() };
        let mut locals = fan_out(buckets, first_spawned, |bucket| {
            bucket.into_iter().map(&learn_one).collect()
        });
        locals.sort_by_key(|(node, _)| *node);
        #[cfg(test)]
        parity::assert_same_learning(&locals, &self.reference.learn(image, pages));
        locals
    }

    /// Bytes of state proportional to the member count: the slots. This is the
    /// `bytes_per_member` numerator's member-scaled part.
    pub fn resident_state_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<MemberSlot>()) as u64
    }

    /// Bytes of state shared across all members (amortized per member in
    /// `bytes_per_member`): the shared program, the config table, and the
    /// per-worker materialized environments.
    ///
    /// An estimate, and a low one. Of each materialized environment it leaves out the
    /// hook registry's site table (4 bytes a code word) and the guest the environment
    /// keeps between runs: a page table of 16 bytes a page — 20 KB on the default
    /// layout — and up to 32 KB of spare page buffers. Counting them would move
    /// `bytes_per_member`, so that is a change of its own (ROADMAP C(c)).
    pub fn shared_state_bytes(&self) -> u64 {
        // Estimates: a unit holds a patch (invariant, strategy) — call it 160 B;
        // a materialized env is hooks plus registry plus fixed overhead.
        const UNIT_BYTES: usize = 160;
        const ENV_FIXED_BYTES: usize = 512;
        const HOOK_BYTES: usize = 160;
        let table: usize = self
            .table
            .configs
            .iter()
            .map(|c| 32 + c.units.len() * UNIT_BYTES)
            .sum();
        let envs: usize = self
            .scratch
            .iter()
            .flat_map(|m| m.values())
            .map(|mat| ENV_FIXED_BYTES + mat.env.hook_count() * HOOK_BYTES)
            .sum();
        self.program.resident_bytes() as u64 + (table + envs) as u64
    }
}

/// Run `work` over every share and concatenate the results in share order. Shares
/// from index `first_spawned` on each get a spawned thread; the calling thread runs
/// the shares before that index meanwhile, rather than idling in a join.
fn fan_out<S: Send, R: Send>(
    shares: impl IntoIterator<Item = S>,
    first_spawned: usize,
    work: impl Fn(S) -> Vec<R> + Sync,
) -> Vec<R> {
    let mut shares = shares.into_iter();
    let inline: Vec<S> = shares.by_ref().take(first_spawned).collect();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .map(|share| scope.spawn(move || work(share)))
            .collect();
        let mut results: Vec<R> = inline.into_iter().flat_map(work).collect();
        for handle in handles {
            results.extend(handle.join().expect("worker panicked"));
        }
        results
    })
}

/// Run one worker's share of an epoch against its materialized configs.
fn run_worker(
    program: &SharedProgram,
    monitors: MonitorConfig,
    table: &ConfigTable,
    slots: &[MemberSlot],
    scratch: &mut HashMap<ConfigId, MaterializedConfig>,
    jobs: &[(usize, &Presentation)],
    active: &[Addr],
) -> Vec<RunRecord> {
    jobs.iter()
        .map(|(seq, presentation)| {
            let node = presentation.node;
            let slot = &slots[node];
            assert!(slot.alive, "presentation scheduled for down member {node}");
            let mat = scratch
                .entry(slot.config)
                .or_insert_with(|| materialize(program, monitors, table.units(slot.config)));
            let result = mat.env.run(&presentation.page);
            let status = DigestStatus::from(&result.status);
            let digests = active
                .iter()
                .map(|loc| {
                    let checks = mat.checks_by_loc.get(loc).into_iter().flatten();
                    let checks = checks.map(|(inv, hook)| (inv, *hook));
                    (
                        *loc,
                        RunDigest::of_run(status, &result.observations, checks),
                    )
                })
                .collect();
            RunRecord {
                seq: *seq,
                node,
                failure: result.failure().cloned(),
                status: result.status,
                rendered: result.rendered,
                digests,
            }
        })
        .collect()
}

#[cfg(test)]
mod parity;
#[cfg(test)]
mod tests;
