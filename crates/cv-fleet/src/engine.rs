//! The event-driven epoch engine.
//!
//! The classic [`EpochScheduler`](crate::EpochScheduler) gives every member its own
//! `ManagedExecutionEnvironment` — a private image copy, code cache, and hook
//! registry — which puts a hard memory ceiling of a few thousand members on the
//! fleet. This engine inverts the representation: the *program* is shared once per
//! fleet ([`SharedProgram`]: one image, one pre-decoded instruction index, one
//! pristine address space backing copy-on-write machines), and a member is only
//!
//! * a [`MemberSlot`] — the id of its *patch configuration* plus an alive flag
//!   (8 bytes), and
//! * its auxiliary-store cell values, held sparsely in a side table (most members
//!   never have any: only two-variable checks carry a cell, and only after the
//!   aux-store hook has actually executed).
//!
//! Patch configurations are interned in a [`ConfigTable`]: a config is the ordered
//! list of patch *units* (one check or repair patch each) installed on a member.
//! Every epoch-boundary plan push maps each live config to its successor once —
//! O(distinct lineages), not O(members). Workers materialize an environment per
//! *config* (not per member) on demand, loading and saving a member's cell values
//! around each presentation, so ten thousand homogeneous members share one
//! environment per worker.
//!
//! Observational parity with the classic scheduler is exact on every history the
//! responder protocol can produce, and is locked down by the `engine_parity`
//! proptest: byte-identical `RunRecord` streams (statuses, renders, digests) and
//! identical learning uploads. The one deliberate divergence: re-installing checks
//! or a repair over an existing installation *replaces* the old hooks here, where
//! the classic scheduler leaks them in the environment — a configuration the
//! responder protocol never produces (installs are always preceded by the matching
//! remove).

use crate::protocol::{NodeId, Presentation};
use crate::scheduler::RunRecord;
use cv_core::{DigestStatus, Directive, PatchPlan, RunDigest};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{Addr, BinaryImage, Word};
use cv_patch::{install_hooks, CheckPatch, RepairPatch};
use cv_runtime::{
    EnvConfig, HookId, ManagedExecutionEnvironment, MonitorConfig, ObservationKind, RunResult,
    RunStatus, SharedProgram,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identifier of an interned patch configuration (index into the config table).
type ConfigId = u32;

/// Identifier of one installed patch unit. Unit ids are never reused, so a member's
/// persisted cell value can never leak into a re-installed check: removal and
/// re-installation of the same patch yields a fresh unit id whose cell starts empty,
/// exactly like the fresh `Arc` cell a classic re-install allocates.
type UnitId = u64;

/// The empty configuration (no patches installed). Always present at index 0.
const EMPTY_CONFIG: ConfigId = 0;

/// Epoch batches smaller than this run on the calling thread even when a worker
/// pool is configured: thread spawn and join overhead dwarfs the work itself.
const SMALL_EPOCH_INLINE: usize = 16;

/// One community member. The whole per-member cost of an idle or homogeneous
/// member is this slot; cell values live sparsely in [`EventEngine::aux`].
#[derive(Clone, Copy)]
struct MemberSlot {
    config: ConfigId,
    /// False while the member is down (crashed with state loss, not yet rejoined).
    alive: bool,
}

/// One installed patch: a check or repair patch at one failure location.
#[derive(Clone, PartialEq)]
struct Unit {
    id: UnitId,
    location: Addr,
    kind: UnitKind,
}

#[derive(Clone, PartialEq)]
enum UnitKind {
    Check(CheckPatch),
    Repair(RepairPatch),
}

/// An interned patch configuration: units in installation order. Installation
/// order is what the classic scheduler's hook registry preserves, and it is
/// observable (hooks at one address run in installation order, and a repair
/// hook's action can shadow later hooks), so it is part of config identity.
#[derive(Default, Clone, PartialEq)]
struct Config {
    units: Vec<Unit>,
}

/// The interning table of patch configurations.
struct ConfigTable {
    configs: Vec<Config>,
    next_unit: UnitId,
}

impl ConfigTable {
    fn new() -> Self {
        ConfigTable {
            configs: vec![Config::default()],
            next_unit: 0,
        }
    }

    fn units(&self, id: ConfigId) -> &[Unit] {
        &self.configs[id as usize].units
    }

    /// Apply `plan`'s operations to a unit list, burning fresh unit ids for every
    /// install — mirroring `apply_plan_to_members` of the classic scheduler.
    fn apply_ops(&mut self, units: &mut Vec<Unit>, plan: &PatchPlan) {
        for op in plan.ops() {
            let loc = op.location;
            match &op.directive {
                Directive::InstallChecks(checks) => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Check(_))));
                    for check in checks {
                        units.push(Unit {
                            id: self.bump(),
                            location: loc,
                            kind: UnitKind::Check(check.clone()),
                        });
                    }
                }
                Directive::RemoveChecks => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Check(_))));
                }
                Directive::InstallRepair(repair) => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Repair(_))));
                    units.push(Unit {
                        id: self.bump(),
                        location: loc,
                        kind: UnitKind::Repair(repair.clone()),
                    });
                }
                Directive::RemoveRepair => {
                    units.retain(|u| !(u.location == loc && matches!(u.kind, UnitKind::Repair(_))));
                }
            }
        }
    }

    fn bump(&mut self) -> UnitId {
        let id = self.next_unit;
        self.next_unit += 1;
        id
    }

    /// The configuration a member on `from` holds after `plan` is pushed to it.
    /// Interning is *id-exact*: a push that installs patches always creates a new
    /// config (its units carry fresh cell identities), while a push that only
    /// removes can fold back onto an ancestor, and a no-op push returns `from`.
    fn successor(&mut self, from: ConfigId, plan: &PatchPlan) -> ConfigId {
        let mut units = self.configs[from as usize].units.clone();
        self.apply_ops(&mut units, plan);
        if let Some(id) = self.configs.iter().position(|c| c.units == units) {
            return id as ConfigId;
        }
        self.configs.push(Config { units });
        (self.configs.len() - 1) as ConfigId
    }

    /// The configuration of a member bootstrapped from scratch with `plan` — the
    /// `reset_and_apply` primitive. Interning here is by *shape* (locations and
    /// patches, ignoring unit ids): a resetting member carries no cell state, so it
    /// can share the config (and therefore the materialized environments) of the
    /// members that reached the same patch set incrementally.
    fn reset_config(&mut self, plan: &PatchPlan) -> ConfigId {
        let saved_next = self.next_unit;
        let mut units = Vec::new();
        self.apply_ops(&mut units, plan);
        if let Some(id) = self
            .configs
            .iter()
            .position(|c| same_shape(&c.units, &units))
        {
            self.next_unit = saved_next; // interned: no fresh identities escaped
            return id as ConfigId;
        }
        self.configs.push(Config { units });
        (self.configs.len() - 1) as ConfigId
    }
}

/// Equality of unit lists up to unit ids.
fn same_shape(a: &[Unit], b: &[Unit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.location == y.location && x.kind == y.kind)
}

/// A worker's materialization of one config: a shared-program environment with the
/// config's hooks installed, the aux cells to load and save around each run, and
/// the per-location digest index (invariant and check-hook id, in install order —
/// mirroring the classic scheduler's `NodePatchState::checks`).
struct MaterializedConfig {
    env: ManagedExecutionEnvironment,
    cells: Vec<(UnitId, Arc<Mutex<Option<Word>>>)>,
    checks_by_loc: HashMap<Addr, Vec<(Invariant, HookId)>>,
}

/// Install `units` into `env`, returning the cells and digest index.
#[allow(clippy::type_complexity)]
fn install_units(
    env: &mut ManagedExecutionEnvironment,
    units: &[Unit],
) -> (
    Vec<(UnitId, Arc<Mutex<Option<Word>>>)>,
    HashMap<Addr, Vec<(Invariant, HookId)>>,
) {
    let mut cells = Vec::new();
    let mut checks_by_loc: HashMap<Addr, Vec<(Invariant, HookId)>> = HashMap::new();
    for unit in units {
        match &unit.kind {
            UnitKind::Check(check) => {
                let (hooks, cell) = check.build_hooks_cells();
                let handle = install_hooks(env, hooks);
                let hook = *handle.hook_ids().last().expect("check hook");
                if let Some(cell) = cell {
                    cells.push((unit.id, cell));
                }
                checks_by_loc
                    .entry(unit.location)
                    .or_default()
                    .push((check.invariant.clone(), hook));
            }
            UnitKind::Repair(repair) => {
                let (hooks, cell) = repair.build_hooks_cells();
                let _ = install_hooks(env, hooks);
                if let Some(cell) = cell {
                    cells.push((unit.id, cell));
                }
            }
        }
    }
    (cells, checks_by_loc)
}

fn materialize(
    program: &SharedProgram,
    monitors: MonitorConfig,
    units: &[Unit],
) -> MaterializedConfig {
    let mut env =
        ManagedExecutionEnvironment::with_shared(program, EnvConfig::with_monitors(monitors));
    let (cells, checks_by_loc) = install_units(&mut env, units);
    MaterializedConfig {
        env,
        cells,
        checks_by_loc,
    }
}

/// A member's saved aux-cell values, sparsely: only `Some` values are stored (an
/// absent unit id reads back as the `None` a fresh cell holds).
type AuxValues = Vec<(UnitId, Word)>;

/// One worker's epoch output: its run records plus the aux-cell values its
/// members wrote, to be saved back at the epoch boundary.
type WorkerOutput = (Vec<RunRecord>, Vec<(NodeId, AuxValues)>);

/// The event-driven epoch engine. Drop-in replacement for the classic
/// [`EpochScheduler`](crate::EpochScheduler) behind [`Fleet`](crate::Fleet).
pub struct EventEngine {
    program: SharedProgram,
    monitors: MonitorConfig,
    parallel: bool,
    worker_count: usize,
    /// Hardware parallelism; with one core the worker pool can only lose, so
    /// epochs run inline regardless of the configured worker count.
    cores: usize,
    node_count: usize,
    alive_count: usize,
    slots: Vec<MemberSlot>,
    /// Sparse per-member cell state; absent members (the overwhelming majority)
    /// cost nothing.
    aux: HashMap<NodeId, AuxValues>,
    table: ConfigTable,
    /// Per-worker materialized configs, kept warm across epochs and pruned when a
    /// plan push retires a config.
    scratch: Vec<HashMap<ConfigId, MaterializedConfig>>,
}

impl EventEngine {
    /// An engine for `node_count` members running `image`. The worker-count
    /// resolution matches the classic scheduler so `worker_count()` is identical
    /// for identical fleet configurations.
    pub(crate) fn new(
        image: &BinaryImage,
        monitors: MonitorConfig,
        node_count: usize,
        worker_count: usize,
        parallel: bool,
    ) -> Self {
        let node_count = node_count.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
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
        EventEngine {
            program: SharedProgram::new(image.clone()),
            monitors,
            parallel,
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
            aux: HashMap::new(),
            table: ConfigTable::new(),
            scratch: (0..worker_count).map(|_| HashMap::new()).collect(),
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

    fn slot(&self, node: NodeId) -> &MemberSlot {
        assert!(node < self.node_count, "unknown node {node}");
        &self.slots[node]
    }

    /// Take `node` down with total state loss: its configuration and cell values
    /// are discarded.
    pub(crate) fn crash(&mut self, node: NodeId) {
        assert!(self.slot(node).alive, "node {node} is already down");
        self.slots[node] = MemberSlot {
            config: EMPTY_CONFIG,
            alive: false,
        };
        self.aux.remove(&node);
        self.alive_count -= 1;
    }

    /// Bring a down member back up, patchless — the caller re-synchronizes it.
    pub(crate) fn rejoin(&mut self, node: NodeId) {
        assert!(!self.slot(node).alive, "node {node} is already up");
        self.slots[node].alive = true;
        self.alive_count += 1;
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
        id
    }

    /// Reset one member to patchless and install `plan` on it — the bootstrap
    /// primitive.
    pub(crate) fn reset_and_apply(&mut self, node: NodeId, plan: &PatchPlan) {
        assert!(self.slot(node).alive, "node {node} is down");
        self.aux.remove(&node);
        self.slots[node].config = self.table.reset_config(plan);
    }

    /// Execute one epoch; see `EpochScheduler::run_epoch` for the contract. The
    /// record stream is byte-identical to the classic scheduler's.
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
        let (table, slots, aux) = (&self.table, &self.slots, &self.aux);
        let threaded = self.parallel
            && worker_count > 1
            && self.cores > 1
            && presentations.len() >= SMALL_EPOCH_INLINE;
        let outputs: Vec<WorkerOutput> = if threaded {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .scratch
                    .iter_mut()
                    .zip(&jobs)
                    .map(|(scratch, batch)| {
                        scope.spawn(move || {
                            run_worker(program, monitors, table, slots, aux, scratch, batch, active)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        } else {
            self.scratch
                .iter_mut()
                .zip(&jobs)
                .map(|(scratch, batch)| {
                    run_worker(program, monitors, table, slots, aux, scratch, batch, active)
                })
                .collect()
        };

        let mut records = Vec::with_capacity(presentations.len());
        for (worker_records, aux_updates) in outputs {
            records.extend(worker_records);
            for (node, vals) in aux_updates {
                if vals.is_empty() {
                    self.aux.remove(&node);
                } else {
                    self.aux.insert(node, vals);
                }
            }
        }
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Apply a shard-merged patch plan to every up member: one successor-config
    /// computation per distinct live configuration, one `u32` store per member.
    pub(crate) fn apply_plan(&mut self, plan: &PatchPlan) {
        if plan.is_empty() {
            return;
        }
        let mut successors: HashMap<ConfigId, ConfigId> = HashMap::new();
        for i in 0..self.slots.len() {
            if !self.slots[i].alive {
                continue;
            }
            let from = self.slots[i].config;
            let to = match successors.get(&from) {
                Some(to) => *to,
                None => {
                    let to = self.table.successor(from, plan);
                    successors.insert(from, to);
                    to
                }
            };
            self.slots[i].config = to;
        }
        // Retire materializations of configs no member holds any more.
        let live: HashSet<ConfigId> = self.slots.iter().map(|s| s.config).collect();
        for scratch in &mut self.scratch {
            scratch.retain(|id, _| live.contains(id));
        }
    }

    /// Amortized parallel learning; see `EpochScheduler::learn` for the share
    /// assignment. Returns only members with a non-empty share — a pageless
    /// member's local model is empty and merging it is a no-op, so the fleet
    /// reconstructs its (empty) upload from the alive set.
    pub(crate) fn learn(
        &mut self,
        image: &BinaryImage,
        pages: &[Vec<Word>],
    ) -> Vec<(NodeId, LearnedModel)> {
        let node_count = self.node_count;
        let learners: Vec<NodeId> = (0..node_count.min(pages.len()))
            .filter(|n| self.slots[*n].alive)
            .collect();
        let (monitors, table, slots, aux) = (self.monitors, &self.table, &self.slots, &self.aux);
        let learn_one = |node: NodeId| -> (NodeId, LearnedModel, Option<AuxValues>) {
            let mut env =
                ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(monitors));
            let (cells, _) = install_units(&mut env, table.units(slots[node].config));
            load_cells(&cells, aux.get(&node));
            let mut frontend = LearningFrontend::new(image.clone());
            for page in pages.iter().skip(node).step_by(node_count) {
                let result = env.run_with_tracer(page, &mut frontend);
                if result.is_completed() {
                    frontend.commit_run();
                } else {
                    frontend.discard_run();
                }
            }
            let aux_out = (!cells.is_empty()).then(|| save_cells(&cells));
            (node, frontend.into_model(), aux_out)
        };

        let threaded =
            self.parallel && self.worker_count > 1 && self.cores > 1 && learners.len() > 1;
        let mut results: Vec<(NodeId, LearnedModel, Option<AuxValues>)> = if threaded {
            let mut buckets: Vec<Vec<NodeId>> =
                (0..self.worker_count).map(|_| Vec::new()).collect();
            for node in &learners {
                buckets[node % self.worker_count].push(*node);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .iter()
                    .map(|bucket| {
                        scope.spawn(|| bucket.iter().map(|n| learn_one(*n)).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        } else {
            learners.iter().map(|n| learn_one(*n)).collect()
        };
        results.sort_by_key(|(node, _, _)| *node);

        let mut locals = Vec::with_capacity(results.len());
        for (node, model, aux_out) in results {
            if let Some(vals) = aux_out {
                if vals.is_empty() {
                    self.aux.remove(&node);
                } else {
                    self.aux.insert(node, vals);
                }
            }
            locals.push((node, model));
        }
        locals
    }

    /// Bytes of state proportional to the member count: slots plus sparse cell
    /// values. This is the `bytes_per_member` numerator's member-scaled part.
    pub fn resident_state_bytes(&self) -> u64 {
        const MAP_ENTRY_OVERHEAD: usize = 48;
        let slots = self.slots.len() * std::mem::size_of::<MemberSlot>();
        let aux: usize = self
            .aux
            .values()
            .map(|v| MAP_ENTRY_OVERHEAD + v.len() * std::mem::size_of::<(UnitId, Word)>())
            .sum();
        (slots + aux) as u64
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
            .map(|mat| {
                ENV_FIXED_BYTES
                    + mat.env.hook_count() * HOOK_BYTES
                    + mat.cells.len() * std::mem::size_of::<(UnitId, Word)>()
            })
            .sum();
        self.program.resident_bytes() as u64 + (table + envs) as u64
    }
}

/// Set each cell to the member's saved value (absent = `None`, a fresh cell).
fn load_cells(cells: &[(UnitId, Arc<Mutex<Option<Word>>>)], saved: Option<&AuxValues>) {
    for (uid, cell) in cells {
        *cell.lock() = saved.and_then(|vals| vals.iter().find(|(u, _)| u == uid).map(|(_, w)| *w));
    }
}

/// Read back the cell values a run left behind, sparsely.
fn save_cells(cells: &[(UnitId, Arc<Mutex<Option<Word>>>)]) -> AuxValues {
    cells
        .iter()
        .filter_map(|(uid, cell)| cell.lock().map(|w| (*uid, w)))
        .collect()
}

/// Run one worker's share of an epoch against its materialized configs.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    program: &SharedProgram,
    monitors: MonitorConfig,
    table: &ConfigTable,
    slots: &[MemberSlot],
    aux: &HashMap<NodeId, AuxValues>,
    scratch: &mut HashMap<ConfigId, MaterializedConfig>,
    jobs: &[(usize, &Presentation)],
    active: &[Addr],
) -> (Vec<RunRecord>, Vec<(NodeId, AuxValues)>) {
    // In-epoch overlay: a member's second presentation in one epoch must see the
    // cell values its first left behind, not the stale pre-epoch snapshot.
    let mut local_aux: HashMap<NodeId, AuxValues> = HashMap::new();
    let records = jobs
        .iter()
        .map(|(seq, presentation)| {
            let node = presentation.node;
            let slot = &slots[node];
            assert!(slot.alive, "presentation scheduled for down member {node}");
            let mat = scratch
                .entry(slot.config)
                .or_insert_with(|| materialize(program, monitors, table.units(slot.config)));
            if !mat.cells.is_empty() {
                load_cells(&mat.cells, local_aux.get(&node).or_else(|| aux.get(&node)));
            }
            let result = mat.env.run(&presentation.page);
            if !mat.cells.is_empty() {
                local_aux.insert(node, save_cells(&mat.cells));
            }
            let status = match &result.status {
                RunStatus::Completed => DigestStatus::Completed,
                RunStatus::Failure(f) => DigestStatus::FailureAt(f.location),
                RunStatus::Crash(_) => DigestStatus::Crashed,
            };
            let digests = active
                .iter()
                .map(|loc| (*loc, build_digest(mat, *loc, &result, status)))
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
        .collect();
    (records, local_aux.into_iter().collect())
}

/// Build the per-run digest for one failure location from the config's digest
/// index — the same construction as the classic scheduler's, keyed by invariant
/// and filtered by check-hook id.
fn build_digest(
    mat: &MaterializedConfig,
    loc: Addr,
    result: &RunResult,
    status: DigestStatus,
) -> RunDigest {
    let mut digest = RunDigest::with_status(status);
    if let Some(checks) = mat.checks_by_loc.get(&loc) {
        for (inv, check_hook) in checks {
            let seq: Vec<bool> = result
                .observations
                .iter()
                .filter(|o| o.hook == *check_hook)
                .map(|o| o.kind == ObservationKind::Satisfied)
                .collect();
            if !seq.is_empty() {
                digest.observations.insert(inv.clone(), seq);
            }
        }
    }
    digest
}
