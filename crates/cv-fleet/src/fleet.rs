//! The fleet engine: the ClearView manager for a large application community.
//!
//! A [`Fleet`] owns the member-execution engine (an [`EventEngine`]), the
//! sharded community invariant store, the manager's responder set (one
//! [`ResponderShard`], holding a responder per failure location), the batched
//! console log, and the fleet metrics. Execution is epoch-batched: the caller
//! schedules a batch of presentations, workers run them in parallel, the manager
//! collects the resulting digests and failure reports in batch order, the responders
//! consume them on the calling thread, and their patch operations — in canonical
//! failure-location order — form one fleet-wide [`PatchPlan`] pushed to every member
//! at the epoch boundary.
//!
//! **Batching semantics.** Within an epoch every member executes under the patch
//! configuration established at the previous boundary. The manager therefore feeds a
//! responder only digests consistent with that configuration: once a responder emits
//! directives mid-batch (its expected configuration changed), the remaining digests of
//! the same epoch for that location are dropped — they were produced under the old
//! patches. With one presentation per epoch this degenerates to exactly the seed's
//! sequential community protocol, which is how a small fleet preserves the paper's
//! presentation counts (e.g. four presentations to a patch).
//!
//! **Determinism.** The responders process the batch in batch order and
//! [`PatchPlan::merge`] imposes a canonical op order. A fleet therefore writes a
//! byte-identical [`BatchLog`] whether its members run on one worker thread or many
//! — `tests/manager_parity.rs` proves it.

use crate::engine::EventEngine;
use crate::metrics::{FleetMetrics, MetricEvent};
use crate::protocol::{BatchLog, FleetMessage, NodeId, Presentation};
use crate::shard::ShardedInvariantStore;
use crate::sync::{MembershipOp, SyncOutcome, SyncPayload, SyncSource, TierSyncPlane};
use crate::transport::{
    is_coordinator_side, ChaosConfig, ChaosControls, DedupeWindow, PeerId, Transport,
    TransportKind, TransportStats, COORDINATOR,
};
use cv_core::{
    ClearViewConfig, FailureEvent, FailureResponder, ManagerTree, NetPatchState, PatchPlan, Phase,
    RepairReport, ResponderShard, RoutedDigest, ShardBucket, ShardOutcome,
};
use cv_inference::{InvariantDatabase, LearnedModel, ProcedureDatabase};
use cv_isa::{Addr, BinaryImage, Word};
use cv_obs::recorder;
use cv_runtime::{MonitorConfig, RunStatus};
use cv_store::{DeltaBuilder, DeltaSnapshot, Envelope, EnvelopePayload, Snapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rounds of ack-driven retransmit before the fleet gives up on the unacked
/// peers for this phase. Partitioned members are rolled back and re-synced by
/// the background resync pass instead of stalling the epoch forever; with the
/// per-round exponential backoff below, twelve rounds outlast any fault mix
/// the chaos plane generates short of a partition.
const MAX_RETRANSMIT_ROUNDS: u32 = 12;

/// Cap of the exponential backoff between retransmit rounds, in transport ticks.
const MAX_BACKOFF_TICKS: u32 = 16;

/// Construction knobs for a [`Fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of community members.
    pub node_count: usize,
    /// Worker threads executing members (0 = one per available core).
    pub worker_count: usize,
    /// Shards of the community invariant store.
    pub shard_count: usize,
    /// Monitor configuration for every member.
    pub monitors: MonitorConfig,
    /// Fan-out of the hierarchical manager tree (0 or 1 = flat push, the seed's
    /// single coordinator). With a fan-out of `F`, the push is accounted tier by
    /// tier and tier coordinators serve member syncs; the plan itself is the same
    /// either way.
    pub tree_fanout: usize,
    /// The transport every coordinator↔member exchange crosses (in-process
    /// queues by default; a loopback socket or the seeded chaos wrapper).
    pub transport: TransportKind,
}

impl FleetConfig {
    /// Defaults for `node_count` members: auto worker count, 8 store shards, full
    /// monitors.
    pub fn new(node_count: usize) -> Self {
        FleetConfig {
            node_count,
            worker_count: 0,
            shard_count: 8,
            monitors: MonitorConfig::full(),
            tree_fanout: 0,
            transport: TransportKind::default(),
        }
    }

    /// Override the worker count.
    pub fn with_workers(mut self, worker_count: usize) -> Self {
        self.worker_count = worker_count;
        self
    }

    /// Override the invariant-store shard count.
    pub fn with_shards(mut self, shard_count: usize) -> Self {
        self.shard_count = shard_count.max(1);
        self
    }

    /// Override the monitor configuration.
    pub fn with_monitors(mut self, monitors: MonitorConfig) -> Self {
        self.monitors = monitors;
        self
    }

    /// Force sequential execution: one worker partition, no threads, no worker-pool
    /// setup.
    pub fn sequential(self) -> Self {
        self.with_workers(1)
    }

    /// Merge and push patch plans through a hierarchical manager tree with the
    /// given fan-out (0 or 1 = flat, the default).
    pub fn with_tree_fanout(mut self, tree_fanout: usize) -> Self {
        self.tree_fanout = tree_fanout;
        self
    }

    /// Route all coordinator↔member traffic through the given transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Route traffic through the chaos transport with the ISSUE's standard
    /// fault mix (drop 10%, duplicate 5%, reorder within 3 ticks), seeded.
    pub fn with_chaos(self, seed: u64) -> Self {
        self.with_transport(TransportKind::Chaos(ChaosConfig::standard(seed)))
    }
}

/// The outcome of one presentation within an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberOutcome {
    /// The member that processed the page.
    pub node: NodeId,
    /// How the run ended.
    pub status: RunStatus,
    /// What the member rendered.
    pub rendered: Vec<Word>,
    /// True if a monitor blocked the page.
    pub blocked: bool,
}

/// The outcome of one epoch.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch number (1-based).
    pub epoch: u64,
    /// One outcome per presentation, in batch order.
    pub outcomes: Vec<MemberOutcome>,
}

impl EpochOutcome {
    /// Number of presentations a monitor blocked.
    pub fn blocked(&self) -> usize {
        self.outcomes.iter().filter(|o| o.blocked).count()
    }

    /// Number of presentations that completed normally.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, RunStatus::Completed))
            .count()
    }
}

/// A parallel application community under ClearView protection.
pub struct Fleet {
    image: BinaryImage,
    config: ClearViewConfig,
    monitors: MonitorConfig,
    engine: EventEngine,
    store: ShardedInvariantStore,
    model: LearnedModel,
    /// The manager's responders, one per failure location.
    responders: ResponderShard,
    /// Fan-out of the hierarchical manager tree (0 or 1 = flat push).
    tree_fanout: usize,
    log: BatchLog,
    /// The accounting event stream — the source of truth the [`FleetMetrics`]
    /// aggregate is a fold of (see `metrics.rs`).
    metric_log: Vec<MetricEvent>,
    /// The incrementally-folded aggregate of `metric_log`, cached for cheap reads.
    metrics: FleetMetrics,
    /// This fleet's id in the process-wide trace stream (the `"fleet"` argument
    /// on every span/instant/counter this fleet records).
    obs_id: u64,
    epoch: u64,
    /// The net patch configuration every synced member holds (all pushed plans,
    /// folded) — the durable state a checkpoint captures.
    net: NetPatchState,
    /// Per-member sync flags. A member is *synced* when its patch configuration is
    /// the fleet's current net configuration; digests from unsynced members (cold
    /// joiners, members that missed pushes) are dropped before routing — they ran
    /// under a stale configuration, the membership-level analogue of the mid-batch
    /// reconfiguration rule.
    synced: Vec<bool>,
    /// Members whose sync epoch is awaiting their first completed presentation
    /// (the late-joiner time-to-immunity measurement).
    joiners: BTreeMap<NodeId, u64>,
    /// The coordinator's current snapshot, encoded bytes included, memoized per
    /// epoch (cut once, served to every joiner, delta, and resync of the epoch).
    snapshot_cache: Option<CachedSnapshot>,
    /// The most recent delta's encoded size, keyed by (base epoch, target epoch)
    /// — a churn wave rejoins many members against one checkpoint.
    delta_cache: Option<CachedDelta>,
    /// The wire boundary every coordinator↔member exchange crosses.
    transport: Box<dyn Transport>,
    /// True when the backend can lose or delay envelopes (the chaos wrapper):
    /// gates the rollback/resync bookkeeping lossless runs never need.
    lossy: bool,
    /// Live handle into the chaos backend's partition plane, when one is
    /// configured.
    chaos: Option<ChaosControls>,
    /// The receiver-side `(to, from, epoch, seq)` idempotence window.
    dedupe: DedupeWindow,
    /// One monotonic counter for every envelope the fleet originates, so
    /// `(from, epoch, seq)` is globally unique and sorting by seq reconstructs
    /// send order exactly.
    seq: u64,
    /// Retransmits performed since the last `Transport` metric event.
    retransmits_pending: u64,
    /// `dedupe.suppressed()` at the last `Transport` metric event.
    suppressed_mark: u64,
    /// Backend counters at the last `Transport` metric event.
    stats_mark: TransportStats,
    /// Members rolled back after missing a patch push (lossy transports only);
    /// the end-of-epoch resync pass brings them back once reachable.
    transport_desynced: BTreeSet<NodeId>,
    /// Per member, the epoch of the newest retained checkpoint whose state the
    /// member holds (lossy transports only; indexes `retained`).
    member_base: Vec<u64>,
    /// Retained per-epoch checkpoints serving delta resyncs (lossy transports
    /// only; pruned to the oldest base a desynced member still references).
    retained: BTreeMap<u64, Snapshot>,
    /// The tier-sync plane: per-tier coordinator mirrors serving member sync
    /// from the tree's leaf tier instead of the root (`None` when no manager
    /// tree is configured). Rows are seeded lazily once the fleet outgrows the
    /// fan-out; inside a fleet method the plane is taken out of this `Option`
    /// and put back, never left `None` across a call.
    tier_sync: Option<TierSyncPlane>,
    /// Bumped whenever the fleet's state changes outside the epoch counter
    /// (model replacement, wholesale learning, snapshot restore) so the tier
    /// plane's `(epoch, state_version)` refresh marker catches same-epoch
    /// state swaps.
    state_version: u64,
}

struct CachedSnapshot {
    epoch: u64,
    snapshot: Snapshot,
    encoded: Arc<Vec<u8>>,
}

impl CachedSnapshot {
    fn encoded_bytes(&self) -> u64 {
        self.encoded.len() as u64
    }
}

struct CachedDelta {
    base_epoch: u64,
    target_epoch: u64,
    encoded_bytes: u64,
}

/// The envelopes of one acked exchange and which of them their receivers have
/// acked, indexed by `seq - first`: the exchange stamps the seqs itself, in input
/// order, so they are contiguous.
struct PendingAcks {
    first: u64,
    envelopes: Vec<Envelope>,
    acked: Vec<bool>,
    unacked: usize,
}

impl PendingAcks {
    /// `envelopes`, stamped with the seqs `first, first + 1, …` in input order.
    fn new(first: u64, mut envelopes: Vec<Envelope>) -> Self {
        for (env, seq) in envelopes.iter_mut().zip(first..) {
            env.seq = seq;
        }
        let count = envelopes.len();
        PendingAcks {
            first,
            envelopes,
            acked: vec![false; count],
            unacked: count,
        }
    }

    /// Retire the envelope `seq` names. An ack outside this exchange (another
    /// exchange's seq) or for an envelope already acked is ignored.
    fn ack(&mut self, seq: u64) {
        let index = seq
            .checked_sub(self.first)
            .and_then(|index| usize::try_from(index).ok());
        if let Some(acked) = index.and_then(|index| self.acked.get_mut(index)) {
            if !*acked {
                *acked = true;
                self.unacked -= 1;
            }
        }
    }

    /// The envelopes still unacked, in seq order.
    fn unacked(&self) -> impl Iterator<Item = &Envelope> {
        self.envelopes
            .iter()
            .zip(&self.acked)
            .filter(|(_, &acked)| !acked)
            .map(|(env, _)| env)
    }

    /// Ascending indices into the input of the envelopes that were acked.
    fn acked_indices(&self) -> Vec<usize> {
        (0..self.acked.len()).filter(|&i| self.acked[i]).collect()
    }
}

/// What one reliable exchange produced.
struct ExchangeOutcome {
    /// Ascending indices into the exchange's input of the envelopes their
    /// receivers acked.
    acked: Vec<usize>,
    /// Fresh data envelopes delivered to the coordinator, in seq order.
    received: Vec<Envelope>,
}

/// Process-wide fleet id allocator: every [`Fleet`] gets a distinct id to stamp
/// its trace events with, so one process running several fleets back to back
/// (as `fleet_scale` does) still yields per-fleet traces and summaries.
static NEXT_FLEET_OBS_ID: AtomicU64 = AtomicU64::new(1);

impl Fleet {
    /// Create a fleet of `fleet_config.node_count` members running `image`, with an
    /// empty model.
    pub fn new(image: BinaryImage, config: ClearViewConfig, fleet_config: FleetConfig) -> Self {
        let engine = EventEngine::new(
            &image,
            fleet_config.monitors,
            fleet_config.node_count,
            fleet_config.worker_count,
        );
        let (transport, chaos) = fleet_config.transport.build();
        let lossy = transport.is_lossy();
        Fleet {
            model: LearnedModel {
                invariants: InvariantDatabase::new(),
                procedures: ProcedureDatabase::new(image.clone()),
            },
            store: ShardedInvariantStore::new(fleet_config.shard_count),
            monitors: fleet_config.monitors,
            image,
            config,
            engine,
            responders: ResponderShard::new(),
            tree_fanout: fleet_config.tree_fanout,
            log: BatchLog::new(),
            metric_log: Vec::new(),
            metrics: FleetMetrics::default(),
            obs_id: NEXT_FLEET_OBS_ID.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
            net: NetPatchState::new(),
            synced: vec![true; fleet_config.node_count.max(1)],
            joiners: BTreeMap::new(),
            snapshot_cache: None,
            delta_cache: None,
            transport,
            lossy,
            chaos,
            dedupe: DedupeWindow::new(),
            seq: 0,
            retransmits_pending: 0,
            suppressed_mark: 0,
            stats_mark: TransportStats::default(),
            transport_desynced: BTreeSet::new(),
            member_base: vec![0; fleet_config.node_count.max(1)],
            retained: BTreeMap::new(),
            tier_sync: (fleet_config.tree_fanout >= 2).then(TierSyncPlane::new),
            state_version: 0,
        }
    }

    /// Warm-start a whole fleet from a checkpoint: the learned model is restored
    /// from the snapshot (invariants verbatim, procedure CFGs re-discovered from
    /// the image), every member is bootstrapped with the snapshot's validated
    /// repairs, and a Protected responder is adopted per repaired location — zero
    /// learning-mode replay, zero re-checking. In-flight checking state is
    /// dropped; the next failure report at such a location restarts that response.
    pub fn from_snapshot(
        image: BinaryImage,
        config: ClearViewConfig,
        fleet_config: FleetConfig,
        snapshot: &Snapshot,
    ) -> Self {
        let mut fleet = Fleet::new(image.clone(), config, fleet_config);
        fleet.model = snapshot.restore_model(image);
        fleet.store = ShardedInvariantStore::from_database(
            fleet.model.invariants.clone(),
            fleet.store.shard_count(),
        );
        // The restored state is *a* checkpoint labelled `snapshot.epoch` — but a
        // base carrying the same label is not necessarily this one: learning can
        // land mid-epoch, so two different checkpoints can share an epoch, and
        // the restore has no mutation history to tell them apart (the live
        // coordinator's inclusive dirty_since(B) rule handles exactly this; a
        // restore cannot). Coverage therefore starts at the *next* epoch — same
        // reasoning as set_model below — and the cutter re-checks every address
        // for bases at or before the restore label.
        fleet.store.reset_dirty(snapshot.epoch + 1);
        fleet.state_version += 1;
        let bootstrap = snapshot.bootstrap_plan();
        fleet.engine.apply_plan(&bootstrap);
        for op in bootstrap.ops() {
            if let cv_core::Directive::InstallRepair(repair) = &op.directive {
                fleet.responders.adopt(
                    op.location,
                    FailureResponder::restored(op.location, repair.clone(), config),
                    std::iter::empty(),
                );
            }
        }
        fleet.net.apply(&bootstrap);
        fleet.epoch = snapshot.epoch;
        let snapshot_bytes = snapshot.encode().len() as u64;
        fleet.record(MetricEvent::Bootstrap {
            bytes: snapshot_bytes,
        });
        recorder().instant(
            "churn.bootstrap",
            "churn",
            &[
                ("fleet", fleet.obs_id),
                ("epoch", snapshot.epoch),
                ("members", fleet.node_count() as u64),
                ("bytes", snapshot_bytes),
            ],
        );
        fleet.log.push(FleetMessage::Bootstrap {
            epoch: snapshot.epoch,
            members: fleet.node_count(),
            snapshot_bytes,
            plan_ops: bootstrap.len(),
        });
        fleet
    }

    /// Number of community members.
    pub fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.engine.worker_count()
    }

    /// Number of shards in the community invariant store.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// The batched console log.
    pub fn log(&self) -> &BatchLog {
        &self.log
    }

    /// The fleet metrics collected so far (the fold of [`Fleet::metric_log`]).
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// The accounting event stream the metrics are derived from, in order.
    /// `FleetMetrics::from_events(log)` reproduces
    /// [`Fleet::metrics`] exactly.
    pub fn metric_log(&self) -> &[MetricEvent] {
        &self.metric_log
    }

    /// This fleet's id in the process-wide trace stream (the `"fleet"` argument
    /// stamped on its spans, instants, and counters).
    pub fn obs_id(&self) -> u64 {
        self.obs_id
    }

    /// Append one accounting event: the log is the source of truth, the cached
    /// aggregate folds it immediately.
    fn record(&mut self, event: MetricEvent) {
        self.metrics.apply(&event);
        self.metric_log.push(event);
    }

    /// The merged, community-wide learned model (the fused shard snapshot).
    pub fn model(&self) -> &LearnedModel {
        &self.model
    }

    /// The monitor configuration members run under.
    pub fn monitors(&self) -> MonitorConfig {
        self.monitors
    }

    /// Epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Members currently up (node ids are never reused, so this can be less than
    /// [`Fleet::node_count`] under churn).
    pub fn alive_count(&self) -> usize {
        self.engine.alive_count()
    }

    /// True if `node` is up.
    pub fn is_member_alive(&self, node: NodeId) -> bool {
        self.engine.is_alive(node)
    }

    /// True if `node`'s patch configuration is the fleet's current net
    /// configuration (digests from unsynced members are dropped before routing).
    pub fn is_member_synced(&self, node: NodeId) -> bool {
        self.synced[node]
    }

    /// The net patch configuration every synced member holds.
    pub fn net_state(&self) -> &NetPatchState {
        &self.net
    }

    /// The transport backend's name (`"inprocess"`, `"socket"`, `"chaos"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Cumulative delivery accounting from the transport backend.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// True when the transport can lose or delay envelopes (the chaos
    /// wrapper): the fleet then runs the rollback/resync bookkeeping.
    pub fn transport_is_lossy(&self) -> bool {
        self.lossy
    }

    /// Members the transport has desynced (rolled back after missing a patch
    /// push) and not yet re-synced, in node order.
    pub fn transport_desynced(&self) -> Vec<NodeId> {
        self.transport_desynced.iter().copied().collect()
    }

    /// Cut `nodes` off: every envelope to or from them is dropped until
    /// [`Fleet::heal_partition`]. Panics unless the fleet runs on the chaos
    /// transport — only it has a partition plane.
    pub fn partition_members(&mut self, nodes: &[NodeId]) {
        let controls = self
            .chaos
            .as_ref()
            .expect("partitioning requires the chaos transport");
        let peers: Vec<PeerId> = nodes.iter().map(|&node| node as PeerId).collect();
        controls.partition(&peers);
        recorder().instant(
            "chaos.partition",
            "transport",
            &[
                ("fleet", self.obs_id),
                ("epoch", self.epoch),
                ("members", nodes.len() as u64),
            ],
        );
    }

    /// Reconnect every partitioned member (they stay desynced until the next
    /// epoch's resync pass reaches them).
    pub fn heal_partition(&mut self) {
        let controls = self
            .chaos
            .as_ref()
            .expect("partitioning requires the chaos transport");
        let healed = controls.partitioned_count() as u64;
        controls.heal();
        recorder().instant(
            "chaos.heal",
            "transport",
            &[
                ("fleet", self.obs_id),
                ("epoch", self.epoch),
                ("members", healed),
            ],
        );
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Drain every inbox involved in an exchange once, through the one `inbox`
    /// buffer: acks retire their pending envelope; data envelopes are acked (fresh
    /// and duplicate alike — the earlier ack may have been lost) and, when
    /// addressed to the coordinator and fresh, collected for the caller.
    /// Envelopes from other epochs are stale stragglers and are dropped silently.
    fn pump_protocol(
        &mut self,
        epoch: u64,
        pending: &mut PendingAcks,
        received: &mut Vec<Envelope>,
        peers: &[PeerId],
        inbox: &mut Vec<Envelope>,
    ) {
        for &peer in std::iter::once(&COORDINATOR).chain(peers) {
            self.transport.recv_into(peer, inbox);
            for env in inbox.drain(..) {
                if env.epoch != epoch {
                    continue;
                }
                if matches!(env.payload, EnvelopePayload::Ack) {
                    pending.ack(env.seq);
                    continue;
                }
                let fresh = self.dedupe.accept(&env);
                self.transport.send(env.ack());
                if fresh && peer == COORDINATOR {
                    received.push(env);
                }
            }
        }
    }

    /// Deliver `envelopes` reliably: stamp their seqs in input order, send, collect
    /// acks, retransmit the unacked in seq order with capped exponential backoff.
    /// Gives up after [`MAX_RETRANSMIT_ROUNDS`] — unreachable (partitioned)
    /// receivers simply stay unacked and the caller decides what that means.
    fn exchange(&mut self, epoch: u64, envelopes: Vec<Envelope>) -> ExchangeOutcome {
        let first = self.seq;
        self.seq += envelopes.len() as u64;
        let mut pending = PendingAcks::new(first, envelopes);
        // Every non-root endpoint an envelope touches needs its inbox pumped, in
        // ascending id: the member end of each envelope, plus any tier-coordinator
        // origin (members ack back to the tier peer that served them, so the tier
        // peer's inbox is where those acks land).
        let mut peers: Vec<PeerId> = Vec::with_capacity(pending.envelopes.len());
        for env in &pending.envelopes {
            peers.push(if is_coordinator_side(env.to) {
                env.from
            } else {
                env.to
            });
            if is_coordinator_side(env.from) && env.from != COORDINATOR {
                peers.push(env.from);
            }
        }
        peers.sort_unstable();
        peers.dedup();
        let mut received = Vec::new();
        let mut inbox = Vec::new();
        let flush = self.transport.flush_ticks().max(1);
        let mut backoff = 1u32;
        let mut round = 0u32;
        loop {
            self.pump_protocol(epoch, &mut pending, &mut received, &peers, &mut inbox);
            if pending.unacked == 0 || round >= MAX_RETRANSMIT_ROUNDS {
                break;
            }
            if round > 0 {
                self.retransmits_pending += pending.unacked as u64;
            }
            for env in pending.unacked() {
                self.transport.send(env.clone());
            }
            for _ in 0..flush.max(backoff) {
                self.transport.tick();
                self.pump_protocol(epoch, &mut pending, &mut received, &peers, &mut inbox);
            }
            backoff = (backoff * 2).min(MAX_BACKOFF_TICKS);
            round += 1;
        }
        received.sort_by_key(|env| env.seq);
        ExchangeOutcome {
            acked: pending.acked_indices(),
            received,
        }
    }

    /// Send the epoch's presentations through the transport and reconstruct,
    /// in send order, those that actually arrived. Pages are fire-and-forget:
    /// a page lost to chaos is a presentation that member never saw this epoch
    /// (the community converges through the others); acked delivery is
    /// reserved for state-bearing traffic.
    fn deliver_presentations(
        &mut self,
        epoch: u64,
        presentations: &[Presentation],
    ) -> Vec<Presentation> {
        if presentations.is_empty() {
            return Vec::new();
        }
        // One mark per target node, drained in ascending id. An unknown node is
        // marked too, so that the engine's "unknown node" assert reports it.
        let mut targets = vec![false; presentations.iter().map(|p| p.node + 1).max().unwrap_or(0)];
        for presentation in presentations {
            targets[presentation.node] = true;
            let seq = self.next_seq();
            self.transport.send(Envelope {
                from: COORDINATOR,
                to: presentation.node as PeerId,
                epoch,
                seq,
                payload: EnvelopePayload::Page(presentation.page.clone()),
            });
        }
        for _ in 0..self.transport.flush_ticks() {
            self.transport.tick();
        }
        let mut arrived: Vec<(u64, Presentation)> = Vec::with_capacity(presentations.len());
        let mut inbox = Vec::new();
        for peer in (0..targets.len()).filter(|&node| targets[node]) {
            self.transport.recv_into(peer as PeerId, &mut inbox);
            for env in inbox.drain(..) {
                if env.epoch != epoch || !self.dedupe.accept(&env) {
                    continue; // stale straggler or chaos duplicate
                }
                if let EnvelopePayload::Page(page) = env.payload {
                    arrived.push((env.seq, Presentation::new(env.to as NodeId, page)));
                }
            }
        }
        arrived.sort_by_key(|&(seq, _)| seq);
        arrived.into_iter().map(|(_, p)| p).collect()
    }

    /// Push a non-empty `plan` to every alive member as acked, idempotent
    /// envelopes. Returns the members that acknowledged, in node order — everyone,
    /// on a lossless transport.
    fn push_plan_over_transport(&mut self, epoch: u64, plan: &PatchPlan) -> Vec<NodeId> {
        let alive: Vec<NodeId> = (0..self.node_count())
            .filter(|&node| self.engine.is_alive(node))
            .collect();
        if alive.is_empty() {
            return alive;
        }
        let shared = Arc::new(plan.clone());
        let envelopes = alive
            .iter()
            .map(|&node| Envelope {
                from: COORDINATOR,
                to: node as PeerId,
                epoch,
                seq: 0, // stamped by `exchange`
                payload: EnvelopePayload::PatchPush(Arc::clone(&shared)),
            })
            .collect();
        let outcome = self.exchange(epoch, envelopes);
        outcome.acked.into_iter().map(|i| alive[i]).collect()
    }

    /// Re-sync members the transport desynced, over the transport itself: a
    /// shard-keyed delta when a retained checkpoint covers the member's base,
    /// the full snapshot otherwise. Members still unreachable (partitioned)
    /// stay desynced and are retried next epoch. No-op on lossless transports
    /// — nothing ever desyncs there.
    fn transport_resync_pass(&mut self, epoch: u64) {
        if self.transport_desynced.is_empty() {
            return;
        }
        // State moves from the sync source: the manager tree's leaf tier when
        // the tier plane is active (partition healing is served by a member's
        // parent coordinator, never the root), the root otherwise.
        let (payload, src_peer, src_tier) = self.sync_source_payload();
        let (full_bytes, full_encoded) = (payload.bytes(), Arc::clone(&payload.encoded));
        let net_plan = payload.plan;
        // One delta per distinct covered base epoch — a partition wave shares
        // its base, so the cut and its encode are amortized across members.
        let members: Vec<NodeId> = self.transport_desynced.iter().copied().collect();
        let mut delta_encoded: BTreeMap<u64, Arc<Vec<u8>>> = BTreeMap::new();
        for &node in &members {
            let base_epoch = self.member_base[node];
            if base_epoch >= epoch || delta_encoded.contains_key(&base_epoch) {
                continue;
            }
            // Tier cuts and root cuts are byte-identical for the same base —
            // `DeltaBuilder` output is canonical in the base and the state.
            let delta = if src_tier > 0 {
                self.tier_sync
                    .as_mut()
                    .and_then(|p| p.leaf_row_mut())
                    .and_then(|row| {
                        row.retained_base(base_epoch)
                            .cloned()
                            .map(|base| row.delta_since(&base))
                    })
            } else {
                self.retained
                    .get(&base_epoch)
                    .cloned()
                    .map(|base| self.delta_since(&base))
            };
            if let Some(delta) = delta {
                delta_encoded.insert(base_epoch, Arc::new(delta.encode()));
            }
        }
        // `delta_info[i]` says what `members[i]` is sent: a delta from a base
        // epoch (and its size), or the full snapshot.
        let mut delta_info: Vec<Option<(u64, u64)>> = Vec::with_capacity(members.len());
        let mut envelopes = Vec::with_capacity(members.len());
        for &node in &members {
            let base_epoch = self.member_base[node];
            let payload = match delta_encoded.get(&base_epoch) {
                Some(bytes) => {
                    delta_info.push(Some((base_epoch, bytes.len() as u64)));
                    EnvelopePayload::Delta {
                        base_epoch,
                        bytes: Arc::clone(bytes),
                    }
                }
                None => {
                    delta_info.push(None);
                    EnvelopePayload::Snapshot(Arc::clone(&full_encoded))
                }
            };
            envelopes.push(Envelope {
                from: src_peer,
                to: node as PeerId,
                epoch,
                seq: 0, // stamped by `exchange`
                payload,
            });
        }
        let outcome = self.exchange(epoch, envelopes);
        for i in outcome.acked {
            let (node, delta_info) = (members[i], delta_info[i]);
            self.engine.reset_and_apply(node, &net_plan);
            self.synced[node] = true;
            self.transport_desynced.remove(&node);
            self.member_base[node] = epoch;
            self.joiners.insert(node, epoch);
            match delta_info {
                Some((base_epoch, delta_bytes)) => {
                    self.record_tier_ship(src_tier, delta_bytes, true, node);
                    self.record(MetricEvent::DeltaSync {
                        delta_bytes,
                        full_bytes,
                    });
                    self.record(MetricEvent::TransportResync { delta: true });
                    self.log.push(FleetMessage::DeltaSync {
                        epoch,
                        members: 1,
                        base_epoch,
                        delta_bytes,
                        full_bytes,
                    });
                }
                None => {
                    self.record_tier_ship(src_tier, full_bytes, false, node);
                    self.record(MetricEvent::Bootstrap { bytes: full_bytes });
                    self.record(MetricEvent::TransportResync { delta: false });
                    self.log.push(FleetMessage::Bootstrap {
                        epoch,
                        members: 1,
                        snapshot_bytes: full_bytes,
                        plan_ops: net_plan.len(),
                    });
                }
            }
            recorder().instant(
                "transport.resync",
                "transport",
                &[
                    ("fleet", self.obs_id),
                    ("epoch", epoch),
                    ("node", node as u64),
                    ("delta", delta_info.is_some() as u64),
                    ("source_tier", src_tier as u64),
                ],
            );
        }
    }

    /// Lossy transports retain the end-of-epoch checkpoint so a member that
    /// desyncs later can be advanced by a delta from the last epoch it held
    /// instead of a full snapshot. Checkpoints older than every desynced
    /// member's base are pruned.
    fn retain_checkpoint(&mut self, epoch: u64) {
        if !self.lossy {
            return;
        }
        let snapshot = self.refresh_snapshot_cache().snapshot.clone();
        self.retained.insert(epoch, snapshot);
        for node in 0..self.node_count() {
            if self.engine.is_alive(node) && self.synced[node] {
                self.member_base[node] = epoch;
            }
        }
        let floor = self
            .transport_desynced
            .iter()
            .map(|&node| self.member_base[node])
            .min()
            .unwrap_or(epoch);
        self.retained.retain(|&e, _| e >= floor);
        // The tier rows retain the same checkpoints under the same pruning
        // floor, so partition healing can cut the same deltas from a parent
        // coordinator that the root would have cut.
        if self.tier_sync_active() {
            self.tier_refresh();
            if let Some(plane) = self.tier_sync.as_mut() {
                plane.retain_checkpoints(floor);
            }
        }
    }

    /// Fold the transport activity since the last `Transport` metric event
    /// into the metric stream (as deltas, so replaying the stream reproduces
    /// the cumulative counters).
    fn record_transport_event(&mut self) {
        let stats = self.transport.stats();
        let delta = stats.since(&self.stats_mark);
        let suppressed = self.dedupe.suppressed() - self.suppressed_mark;
        let retransmits = self.retransmits_pending;
        if delta.is_zero() && suppressed == 0 && retransmits == 0 {
            return;
        }
        self.stats_mark = stats;
        self.suppressed_mark = self.dedupe.suppressed();
        self.retransmits_pending = 0;
        self.record(MetricEvent::Transport {
            sent: delta.sent,
            delivered: delta.delivered,
            dropped: delta.dropped,
            duplicated: delta.duplicated,
            retransmits,
            duplicates_suppressed: suppressed,
            partition_dropped: delta.partition_dropped,
        });
    }

    /// Memoize the coordinator's current snapshot for this epoch, and return it.
    fn refresh_snapshot_cache(&mut self) -> &CachedSnapshot {
        let epoch = self.epoch;
        if self
            .snapshot_cache
            .as_ref()
            .is_some_and(|c| c.epoch != epoch)
        {
            self.snapshot_cache = None;
        }
        self.snapshot_cache.get_or_insert_with(|| {
            let snapshot = Snapshot::capture(
                epoch,
                self.store.shard_count() as u32,
                &self.model,
                &self.net,
            );
            let encoded = Arc::new(snapshot.encode());
            CachedSnapshot {
                epoch,
                snapshot,
                encoded,
            }
        })
    }

    /// Checkpoint the full protection state: the community invariant database, the
    /// procedure-discovery state, and the net patch plan, as an encodable
    /// [`Snapshot`]. The snapshot is cut once per epoch and memoized — every
    /// joiner and delta of the same epoch shares it.
    pub fn checkpoint(&mut self) -> Snapshot {
        let span = recorder().span("fleet.checkpoint", "fleet");
        let cache = self.refresh_snapshot_cache();
        let bytes = cache.encoded_bytes();
        let snapshot = cache.snapshot.clone();
        span.arg("fleet", self.obs_id)
            .arg("epoch", self.epoch)
            .arg("bytes", bytes)
            .finish();
        self.record(MetricEvent::Snapshot { bytes });
        snapshot
    }

    /// The shard-keyed delta advancing `base` (a member's last checkpoint) to the
    /// coordinator's current state — strictly smaller than a full snapshot when
    /// little has changed.
    ///
    /// One [`DeltaBuilder`] cut, and no target snapshot is materialized. For a
    /// base the store's dirty-epoch tracker covers (its epoch is at or after the
    /// tracker's floor — always, for a coordinator that has run since its last
    /// wholesale state install), only the addresses stamped dirty since the base
    /// are re-compared, in O(changed). An older base re-compares every address.
    /// Either way the delta is byte-identical to [`DeltaSnapshot::diff`]
    /// (`tests/delta_incremental.rs`). Panics if the base's shard count is not
    /// the store's.
    pub fn delta_since(&mut self, base: &Snapshot) -> DeltaSnapshot {
        let span = recorder().timed_span("fleet.delta_cut", "fleet");
        let builder = DeltaBuilder::new(base, self.store.dirty());
        let delta = builder.cut(
            self.epoch,
            &self.model.invariants,
            self.model.procedures.procedures().map(|p| p.entry),
            self.net.to_plan(),
        );
        let plan_shards = builder.plan_shards() as u64;
        let dirty_shards = delta.dirty_shard_count() as u64;
        // One measurement feeds both planes: the span the trace shows and the
        // elapsed time the metrics fold are the same clock reading.
        let elapsed = span
            .arg("fleet", self.obs_id)
            .arg("epoch", self.epoch)
            .arg("base_epoch", base.epoch)
            .arg("dirty_shards", dirty_shards)
            .finish();
        self.record(MetricEvent::DeltaCut {
            dirty_shards,
            plan_shards,
            elapsed,
        });
        delta
    }

    /// Encoded size of the delta from `base` to the current state, memoized like
    /// the snapshot itself: a churn wave rejoins many members against the *same*
    /// checkpoint, and the delta is identical for all of them — cutting and
    /// re-encoding it per member would repeat the same work for byte-identical
    /// results. Coordinator checkpoints are identified by their epoch (one cut per
    /// epoch, see [`Fleet::refresh_snapshot_cache`]), so (base epoch, current
    /// epoch) keys the memo.
    fn delta_bytes_since(&mut self, base: &Snapshot) -> u64 {
        let target_epoch = self.epoch;
        if let Some(cached) = &self.delta_cache {
            if cached.base_epoch == base.epoch && cached.target_epoch == target_epoch {
                return cached.encoded_bytes;
            }
        }
        let delta = self.delta_since(base);
        let encoded_bytes = delta.encode().len() as u64;
        #[cfg(debug_assertions)]
        {
            // The cut must land members on exactly the coordinator's state —
            // materialize it (debug builds only) and prove it.
            let mut advanced = base.clone();
            assert!(
                advanced.apply_delta(&delta).is_ok()
                    && advanced == self.refresh_snapshot_cache().snapshot,
                "base + delta must reproduce the coordinator's state"
            );
        }
        self.delta_cache = Some(CachedDelta {
            base_epoch: base.epoch,
            target_epoch,
            encoded_bytes,
        });
        encoded_bytes
    }

    /// True when member sync is served from the manager tree's leaf tier
    /// instead of the root: a tree is configured and the fleet has outgrown
    /// the root's own fan-out (equivalently, `ManagerTree::coordinator_rows`
    /// is non-empty — intermediate coordinators actually exist).
    fn tier_sync_active(&self) -> bool {
        self.tier_sync.is_some() && self.node_count() > self.tree_fanout
    }

    /// Bring the tier-coordinator mirrors up to the root's current state: cut
    /// **one** delta at the root and relay it down every row. Rows are seeded
    /// lazily the first time the fleet is large enough to need them, resized
    /// when membership growth adds tiers, and dropped when the fleet shrinks
    /// back under the fan-out. Idempotent per `(epoch, state_version)` — a
    /// sync wave refreshes once, not per member.
    ///
    /// The refresh is local mirror maintenance, not transport traffic: the
    /// relay is accounted (a [`MetricEvent::TierSync`] per row, multiplied by
    /// the row's coordinator count) but never crosses the chaos plane, so a
    /// tiered fleet draws exactly the same fault sequence as a flat one.
    fn tier_refresh(&mut self) {
        let Some(mut plane) = self.tier_sync.take() else {
            return;
        };
        let specs = ManagerTree::new(self.tree_fanout).coordinator_rows(self.node_count());
        if specs.is_empty() {
            plane.clear();
            self.tier_sync = Some(plane);
            return;
        }
        let marker = (self.epoch, self.state_version);
        if plane.synced_marker() == Some(marker) && plane.matches(&specs) {
            self.tier_sync = Some(plane);
            return;
        }
        let cache = self.refresh_snapshot_cache();
        let (root_state, root_bytes) = (cache.snapshot.clone(), cache.encoded_bytes());
        // A wholesale shard-routing change (a model swap with a different
        // shard count) makes deltas impossible — reseed the rows outright.
        if plane
            .rows()
            .first()
            .is_some_and(|row| row.state().shard_count != root_state.shard_count)
        {
            plane.clear();
        }
        let reseeded = plane.is_empty();
        plane.resize(&specs, &root_state);
        if reseeded {
            // Seeding ships the full snapshot down the tree, once per row.
            for (tier, receivers) in plane
                .rows()
                .iter()
                .map(|row| (row.tier() as u64, row.width() as u64))
                .collect::<Vec<_>>()
            {
                self.record(MetricEvent::TierSync {
                    tier,
                    bytes: root_bytes,
                    receivers,
                    delta: false,
                });
            }
        } else {
            let base = plane
                .rows()
                .last()
                .expect("specs are non-empty")
                .state()
                .clone();
            let delta = self.delta_since(&base);
            let bytes = delta.encode().len() as u64;
            for (tier, receivers) in plane
                .rows()
                .iter()
                .map(|row| (row.tier() as u64, row.width() as u64))
                .collect::<Vec<_>>()
            {
                self.record(MetricEvent::TierSync {
                    tier,
                    bytes,
                    receivers,
                    delta: true,
                });
            }
            plane
                .apply_relayed_all(&delta)
                .expect("a refresh delta cut against the rows' shared base must apply");
        }
        recorder().instant(
            "tier.refresh",
            "tier",
            &[
                ("fleet", self.obs_id),
                ("epoch", self.epoch),
                ("rows", plane.rows().len() as u64),
                ("reseeded", reseeded as u64),
            ],
        );
        plane.mark_synced(marker);
        self.tier_sync = Some(plane);
    }

    /// Record that the root served a sync directly. While the tier plane is
    /// active this is the bottleneck the tree exists to remove, so it books a
    /// [`MetricEvent::RootSyncBypass`] — structurally unreachable today, held
    /// at zero by the tree-sync tests.
    fn root_sync_serves(&mut self) {
        if self.tier_sync_active() {
            self.record(MetricEvent::RootSyncBypass);
        }
    }

    /// The full-state payload for the next sync, served through a
    /// [`SyncSource`]: the manager tree's leaf tier when the tier plane is
    /// active, the root itself otherwise. Returns the payload plus the
    /// serving `(peer, tier)` (tier 0 = the root). Accounting-free — the
    /// caller books what actually ships.
    fn sync_source_payload(&mut self) -> (SyncPayload, PeerId, u32) {
        if self.tier_sync_active() {
            self.tier_refresh();
            if let Some(row) = self.tier_sync.as_mut().and_then(|p| p.leaf_row_mut()) {
                let (peer, tier) = (row.peer(), row.tier());
                return (row.snapshot_for(), peer, tier);
            }
        }
        self.root_sync_serves();
        (SyncSource::snapshot_for(self), COORDINATOR, 0)
    }

    /// Encoded size of the delta advancing `base` to the current state, from
    /// the same source that served the sync payload (`tier` as returned by
    /// [`Fleet::sync_source_payload`]). Tier cuts are byte-identical to root
    /// cuts — `DeltaBuilder` output is canonical in the base and the state.
    fn sync_delta_bytes_from(&mut self, tier: u32, base: &Snapshot) -> u64 {
        if tier > 0 {
            if let Some(row) = self.tier_sync.as_mut().and_then(|p| p.leaf_row_mut()) {
                return row.delta_bytes_since(base);
            }
        }
        self.delta_bytes_since(base)
    }

    /// Book one payload shipped across a tier link to a member: a
    /// [`MetricEvent::TierSync`] with a single receiver plus a `tier.sync`
    /// trace instant. No-op for root-direct sync (tier 0).
    fn record_tier_ship(&mut self, tier: u32, bytes: u64, delta: bool, node: NodeId) {
        if tier == 0 {
            return;
        }
        self.record(MetricEvent::TierSync {
            tier: tier as u64,
            bytes,
            receivers: 1,
            delta,
        });
        recorder().instant(
            "tier.sync",
            "tier",
            &[
                ("fleet", self.obs_id),
                ("epoch", self.epoch),
                ("tier", tier as u64),
                ("node", node as u64),
                ("bytes", bytes),
                ("delta", delta as u64),
            ],
        );
    }

    /// The real crash body behind [`MembershipOp::Crash`]: total state loss;
    /// the member misses every push until it rejoins and re-syncs.
    fn crash_one(&mut self, node: NodeId) {
        self.engine.crash(node);
        self.synced[node] = false;
        self.joiners.remove(&node);
        self.transport_desynced.remove(&node);
        self.record(MetricEvent::Crash);
        recorder().instant(
            "churn.crash",
            "churn",
            &[
                ("fleet", self.obs_id),
                ("epoch", self.epoch),
                ("node", node as u64),
            ],
        );
    }

    /// Apply one membership/sync operation — the single entry point every
    /// membership change and state sync routes through. Any state that moves is
    /// served through a [`SyncSource`]: the manager tree's leaf tier when the
    /// tier plane is active, the root otherwise — one code path, one
    /// accounting story, for root-direct and tiered sync alike.
    pub fn apply_membership(&mut self, op: MembershipOp<'_>) -> SyncOutcome {
        match op {
            MembershipOp::Crash(nodes) => {
                for &node in nodes {
                    self.crash_one(node);
                }
                SyncOutcome {
                    nodes: nodes.to_vec(),
                    ..SyncOutcome::default()
                }
            }
            MembershipOp::JoinCold => {
                let node = self.engine.join();
                self.synced.push(false);
                self.member_base.push(self.epoch);
                self.record(MetricEvent::ColdJoin);
                recorder().instant(
                    "churn.join_cold",
                    "churn",
                    &[
                        ("fleet", self.obs_id),
                        ("epoch", self.epoch),
                        ("node", node as u64),
                    ],
                );
                SyncOutcome {
                    nodes: vec![node],
                    ..SyncOutcome::default()
                }
            }
            MembershipOp::JoinWarm => {
                let (payload, peer, tier) = self.sync_source_payload();
                let snapshot_bytes = payload.bytes();
                let node = self.engine.join();
                self.synced.push(true);
                self.member_base.push(self.epoch);
                self.engine.reset_and_apply(node, &payload.plan);
                self.record_tier_ship(tier, snapshot_bytes, false, node);
                self.record(MetricEvent::WarmJoin);
                self.record(MetricEvent::Bootstrap {
                    bytes: snapshot_bytes,
                });
                recorder().instant(
                    "churn.join_warm",
                    "churn",
                    &[
                        ("fleet", self.obs_id),
                        ("epoch", self.epoch),
                        ("node", node as u64),
                        ("bytes", snapshot_bytes),
                    ],
                );
                self.joiners.insert(node, self.epoch);
                self.log.push(FleetMessage::Bootstrap {
                    epoch: self.epoch,
                    members: 1,
                    snapshot_bytes,
                    plan_ops: payload.plan.len(),
                });
                SyncOutcome {
                    nodes: vec![node],
                    source_peer: Some(peer),
                    source_tier: Some(tier),
                    delta: false,
                    bytes: snapshot_bytes,
                }
            }
            MembershipOp::Rejoin { node, checkpoint } => {
                let (payload, peer, tier) = self.sync_source_payload();
                self.engine.rejoin(node);
                let full_bytes = payload.bytes();
                let (delta, bytes) = match checkpoint {
                    Some(base) => {
                        let delta_bytes = self.sync_delta_bytes_from(tier, base);
                        self.engine.reset_and_apply(node, &payload.plan);
                        self.record_tier_ship(tier, delta_bytes, true, node);
                        self.record(MetricEvent::DeltaSync {
                            delta_bytes,
                            full_bytes,
                        });
                        self.log.push(FleetMessage::DeltaSync {
                            epoch: self.epoch,
                            members: 1,
                            base_epoch: base.epoch,
                            delta_bytes,
                            full_bytes,
                        });
                        (true, delta_bytes)
                    }
                    None => {
                        self.engine.reset_and_apply(node, &payload.plan);
                        self.record_tier_ship(tier, full_bytes, false, node);
                        self.record(MetricEvent::Bootstrap { bytes: full_bytes });
                        self.log.push(FleetMessage::Bootstrap {
                            epoch: self.epoch,
                            members: 1,
                            snapshot_bytes: full_bytes,
                            plan_ops: payload.plan.len(),
                        });
                        (false, full_bytes)
                    }
                };
                self.record(MetricEvent::Rejoin);
                recorder().instant(
                    "churn.rejoin",
                    "churn",
                    &[
                        ("fleet", self.obs_id),
                        ("epoch", self.epoch),
                        ("node", node as u64),
                        ("delta", delta as u64),
                    ],
                );
                self.synced[node] = true;
                self.member_base[node] = self.epoch;
                self.joiners.insert(node, self.epoch);
                SyncOutcome {
                    nodes: vec![node],
                    source_peer: Some(peer),
                    source_tier: Some(tier),
                    delta,
                    bytes,
                }
            }
            MembershipOp::Resync(node) => {
                let (payload, peer, tier) = self.sync_source_payload();
                let snapshot_bytes = payload.bytes();
                self.engine.reset_and_apply(node, &payload.plan);
                self.synced[node] = true;
                self.member_base[node] = self.epoch;
                self.transport_desynced.remove(&node);
                self.record_tier_ship(tier, snapshot_bytes, false, node);
                self.record(MetricEvent::Bootstrap {
                    bytes: snapshot_bytes,
                });
                recorder().instant(
                    "churn.resync",
                    "churn",
                    &[
                        ("fleet", self.obs_id),
                        ("epoch", self.epoch),
                        ("node", node as u64),
                        ("bytes", snapshot_bytes),
                    ],
                );
                self.joiners.insert(node, self.epoch);
                self.log.push(FleetMessage::Bootstrap {
                    epoch: self.epoch,
                    members: 1,
                    snapshot_bytes,
                    plan_ops: payload.plan.len(),
                });
                SyncOutcome {
                    nodes: vec![node],
                    source_peer: Some(peer),
                    source_tier: Some(tier),
                    delta: false,
                    bytes: snapshot_bytes,
                }
            }
        }
    }

    /// Maintainer-facing reports for every failure the fleet has responded to, in
    /// ascending failure-location order.
    pub fn reports(&self) -> Vec<RepairReport> {
        self.responders
            .responders()
            .map(|(_, r)| r.report())
            .collect()
    }

    /// The responder for `location`, if the fleet has one.
    fn responder(&self, location: Addr) -> Option<&cv_core::FailureResponder> {
        self.responders.get(location)
    }

    /// True if a successful repair is distributed for the failure at `location`.
    pub fn is_protected_against(&self, location: Addr) -> bool {
        self.responder(location)
            .map(|r| r.is_protected())
            .unwrap_or(false)
    }

    /// The response phase for the failure at `location`.
    pub fn phase_of(&self, location: Addr) -> Option<Phase> {
        self.responder(location).map(|r| r.phase())
    }

    /// Replace the community model wholesale (centralized learning / experiments
    /// needing the exact single-machine model). Resets the sharded store to match.
    pub fn set_model(&mut self, model: LearnedModel) {
        self.store = ShardedInvariantStore::from_database(
            model.invariants.clone(),
            self.store.shard_count(),
        );
        // No checkpoint equals the new state — not even one cut at the current
        // epoch before the swap — so the tracker's answers begin at the *next*
        // epoch; the cutter re-checks every address for bases at or before this
        // one.
        self.store.reset_dirty(self.epoch + 1);
        self.model = model;
        self.snapshot_cache = None;
        self.delta_cache = None;
        // A same-epoch state swap: bump the version so the tier plane refreshes.
        self.state_version += 1;
    }

    /// Amortized parallel learning (Section 3.1): the learning pages are divided among
    /// the members round-robin; each member traces only its share and uploads its
    /// locally inferred invariants; the sharded store merges the uploads in one
    /// routed scan each; the fused snapshot becomes the community model. Erroneous
    /// runs never contribute.
    pub fn distributed_learning(&mut self, pages: &[Vec<Word>]) {
        let span = recorder()
            .span("fleet.learning", "fleet")
            .arg("fleet", self.obs_id)
            .arg("epoch", self.epoch)
            .arg("pages", pages.len() as u64);
        // Stamp this round's mutations into the current epoch's dirty buckets
        // (dirty_since is inclusive of the base epoch precisely because learning
        // can land while an epoch — and a checkpoint cut in it — is still open).
        self.store.begin_epoch(self.epoch);
        let locals = self.engine.learn(&self.image, pages);
        // Each member's locally inferred model crosses the transport as one
        // acked Upload envelope; the coordinator merges whatever arrives, in
        // sequence order — which is exactly the engines' return order, so a
        // lossless run merges byte-identically to the pre-transport fleet.
        let epoch = self.epoch;
        let envelopes = locals
            .into_iter()
            .map(|(node, local)| {
                let procs: Vec<Addr> = local.procedures.procedures().map(|p| p.entry).collect();
                Envelope {
                    from: node as PeerId,
                    to: COORDINATOR,
                    epoch,
                    seq: 0, // stamped by `exchange`
                    payload: EnvelopePayload::Upload {
                        invariants: Arc::new(local.invariants),
                        procs: Arc::new(procs),
                    },
                }
            })
            .collect();
        let uploads_in = self.exchange(epoch, envelopes).received;
        let mut databases = Vec::with_capacity(uploads_in.len());
        let mut upload_lens: BTreeMap<NodeId, usize> = BTreeMap::new();
        for env in uploads_in {
            if let EnvelopePayload::Upload { invariants, procs } = env.payload {
                upload_lens.insert(env.from as NodeId, invariants.len());
                // The central manager re-discovers the procedure CFGs the
                // members saw (rebuilt from the image, not uploaded — as in
                // the seed).
                for &entry in procs.iter() {
                    if let Some(entry) = self.model.procedures.observe_block(entry) {
                        self.store.mark_proc(entry);
                    }
                }
                databases.push(Arc::try_unwrap(invariants).unwrap_or_else(|arc| (*arc).clone()));
            }
        }
        // Every alive member reports, even one whose round-robin share was empty
        // (its upload is zero invariants). The engine returns no model for those
        // members; the console log still lists the whole alive fleet, in node
        // order.
        let mut uploads = Vec::with_capacity(self.alive_count());
        for node in 0..self.node_count() {
            if self.engine.is_alive(node) {
                uploads.push((node, upload_lens.remove(&node).unwrap_or(0)));
            }
        }
        self.store.merge_uploads(&databases);
        self.model.invariants = self.store.snapshot();
        self.log.push(FleetMessage::InvariantUploads {
            epoch: self.epoch,
            uploads,
        });
        self.record(MetricEvent::LearningPages {
            pages: pages.len() as u64,
        });
        self.record_transport_event();
        span.finish();
        self.snapshot_cache = None;
        self.delta_cache = None;
        // Learning mutates state without advancing the epoch: bump the version
        // so the tier plane refreshes before the next sync.
        self.state_version += 1;
    }

    /// Execute one epoch: run `presentations` across the fleet in parallel, feed
    /// the digests and failure reports to the manager's responders, and push the
    /// patch plan they emit to every member.
    pub fn run_epoch(&mut self, presentations: &[Presentation]) -> EpochOutcome {
        self.run_epoch_churn(presentations, &[])
    }

    /// [`Fleet::run_epoch`] with mid-epoch churn: the members in `kills` execute
    /// their presentations, then crash with total state loss *before* the epoch
    /// boundary — so they miss this epoch's patch push and rejoin desynced. This is
    /// the failure mode the delta-sync plane exists to repair.
    pub fn run_epoch_churn(
        &mut self,
        presentations: &[Presentation],
        kills: &[NodeId],
    ) -> EpochOutcome {
        self.epoch += 1;
        let epoch = self.epoch;
        self.store.begin_epoch(epoch);
        let active: Vec<Addr> = self.responders.locations().collect();

        // Every presentation crosses the transport; what the members actually
        // received (everything, on a lossless backend) is what runs.
        let presentations = self.deliver_presentations(epoch, presentations);

        let execution_span = recorder()
            .timed_span("fleet.execution", "fleet")
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch)
            .arg("presentations", presentations.len() as u64)
            .arg("members", self.alive_count() as u64);
        let mut records = self.engine.run_epoch(&presentations, &active);
        let execution = execution_span.finish();

        // Mid-epoch churn: these members ran, reported, and then died — the
        // boundary push below will not reach them.
        for &node in kills {
            self.crash_one(node);
        }

        let manager_span = recorder()
            .timed_span("fleet.manager", "fleet")
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch);

        // Every digest and failure event goes into the manager's bucket, in batch
        // order.
        let routing_span = recorder().span("fleet.routing", "fleet");
        let mut bucket = ShardBucket::default();
        let mut failures: Vec<(NodeId, Addr)> = Vec::new();
        for record in &mut records {
            if matches!(record.status, RunStatus::Completed) {
                if let Some(sync_epoch) = self.joiners.remove(&record.node) {
                    self.record(MetricEvent::JoinerImmunity {
                        epochs: epoch.saturating_sub(sync_epoch),
                    });
                }
            }
            if !self.synced[record.node] {
                // The member ran under a stale patch configuration (cold joiner or
                // missed pushes): its digests are not evidence about the current
                // patches — the membership-level mid-batch reconfiguration rule.
                record.digests.clear();
            }
            for (location, digest) in record.digests.drain(..) {
                bucket.digests.push(RoutedDigest {
                    source: record.node,
                    location,
                    digest,
                });
            }
            if let Some(failure) = &record.failure {
                failures.push((record.node, failure.location));
                if self.metrics.immunity(failure.location).is_none() {
                    // First report ever at this location: the repair timeline for
                    // it starts here.
                    recorder().instant(
                        "timeline.detected",
                        "timeline",
                        &[
                            ("fleet", self.obs_id),
                            ("epoch", epoch),
                            ("location", u64::from(failure.location)),
                        ],
                    );
                }
                self.record(MetricEvent::FirstFailure {
                    location: failure.location,
                    epoch,
                });
                bucket.failures.push(FailureEvent {
                    source: record.node,
                    failure: failure.clone(),
                });
            }
        }
        routing_span
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch)
            .arg("digests", bucket.digests.len() as u64)
            .arg("failures", failures.len() as u64)
            .finish();

        // The responders consume the bucket on the calling thread: a manager pass
        // is tens of microseconds, about what a spawned thread takes to start.
        let fanout_span = recorder()
            .timed_span("fleet.manager_fanout", "fleet")
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch);
        let ShardOutcome {
            plan,
            observations,
            started: _,
        } = self.responders.process(bucket, &self.model, &self.config);
        let fanout = fanout_span.finish();

        // Canonical op order: a stable sort by failure location, which keeps each
        // location's directive order.
        let merge_span = recorder().span("fleet.plan_merge", "fleet");
        let plan = PatchPlan::merge([plan]);
        // On a lossy transport the push below may not reach everyone: keep the
        // pre-push net configuration so an unreachable member can be rolled
        // back to exactly the state it actually still holds.
        let net_before = if self.lossy && !plan.is_empty() {
            Some(self.net.to_plan())
        } else {
            None
        };
        self.net.apply(&plan);
        if !plan.is_empty() {
            // Plan application changes the configuration side of the next
            // checkpoint: stamp the store shards it touched (the shared router —
            // the same keying deltas and the live store use) into the dirty plane.
            let router = cv_inference::ShardRouter::new(self.store.shard_count());
            self.store.mark_plan_shards(&plan.shards_touched(&router));
        }
        merge_span
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch)
            .arg("plan_ops", plan.len() as u64)
            .finish();
        let manager = manager_span.finish();

        // Batch order mirrors the seed's within-browse order as far as batching
        // allows: observation reports first, then failure notifications, then the
        // patch plan (the seed interleaves pushes per location; a batch cannot).
        for (location, reports) in observations {
            self.log.push(FleetMessage::Observations {
                epoch,
                location,
                reports,
            });
        }
        self.log.push(FleetMessage::Failures { epoch, failures });

        let push_span = recorder()
            .timed_span("fleet.patch_push", "fleet")
            .arg("fleet", self.obs_id)
            .arg("epoch", epoch)
            .arg("plan_ops", plan.len() as u64)
            .arg("members", self.alive_count() as u64);
        // The plan reaches members as acked, idempotent envelopes; the engine
        // then applies it once, fleet-wide. The engines share patch state
        // across members, so per-member application is expressed as this
        // global apply plus a rollback of whoever provably missed the push. An
        // empty plan sends nothing (there is no state to miss) and counts every
        // alive member as reached.
        let (acked, reached) = if plan.is_empty() {
            (Vec::new(), self.alive_count())
        } else {
            let acked = self.push_plan_over_transport(epoch, &plan);
            let reached = acked.len();
            (acked, reached)
        };
        self.engine.apply_plan(&plan);
        let push_elapsed = push_span.finish();
        if let Some(net_before) = net_before {
            let mut missed = 0u64;
            for node in 0..self.node_count() {
                // `acked` is in ascending node order.
                if !self.engine.is_alive(node) || acked.binary_search(&node).is_ok() {
                    continue;
                }
                if self.synced[node] {
                    // A synced member that never acked still runs the pre-push
                    // configuration: undo the optimistic apply and park it for
                    // the resync pass.
                    self.engine.reset_and_apply(node, &net_before);
                    self.synced[node] = false;
                    self.joiners.remove(&node);
                    self.transport_desynced.insert(node);
                    missed += 1;
                    recorder().instant(
                        "transport.desync",
                        "transport",
                        &[
                            ("fleet", self.obs_id),
                            ("epoch", epoch),
                            ("node", node as u64),
                        ],
                    );
                }
                // Already-unsynced members (cold joiners) keep the optimistic
                // apply: their state is untrusted either way, and the resync
                // that brings them in reinstalls the whole configuration.
            }
            if missed > 0 {
                self.record(MetricEvent::TransportDesync { members: missed });
            }
        }
        if !plan.is_empty() {
            for op in plan.ops() {
                recorder().instant(
                    "timeline.plan_push",
                    "timeline",
                    &[
                        ("fleet", self.obs_id),
                        ("epoch", epoch),
                        ("location", u64::from(op.location)),
                        ("members", self.alive_count() as u64),
                    ],
                );
            }
            self.record(MetricEvent::PatchPush {
                pushes: plan.len() as u64,
                members: reached as u64,
                elapsed: push_elapsed,
            });
            if self.tree_fanout >= 2 {
                // Account the push tier by tier down the manager tree: the root
                // contacts its children, each contacts theirs — no coordinator
                // talks to more than `tree_fanout` nodes.
                let members = self.alive_count();
                for t in ManagerTree::new(self.tree_fanout).push_tiers(members) {
                    self.record(MetricEvent::TierPush {
                        tier: t.tier as u64,
                        groups: t.groups as u64,
                        members: members as u64,
                    });
                    recorder().instant(
                        "fleet.tier_push",
                        "fleet",
                        &[
                            ("fleet", self.obs_id),
                            ("epoch", epoch),
                            ("tier", t.tier as u64),
                            ("groups", t.groups as u64),
                        ],
                    );
                }
            }
        }
        self.log.push(FleetMessage::PatchPushes {
            epoch,
            members: reached,
            plan,
        });

        // Bring back whoever the transport desynced (a no-op when lossless),
        // retain this epoch's checkpoint for future delta resyncs, and retire
        // idempotence keys nobody can retransmit anymore.
        self.transport_resync_pass(epoch);
        self.retain_checkpoint(epoch);
        self.dedupe.retire_below(epoch);

        let newly_protected: Vec<Addr> = self
            .responders
            .responders()
            .filter(|(loc, responder)| {
                responder.is_protected()
                    && self
                        .metrics
                        .immunity(*loc)
                        .is_some_and(|r| r.protected_epoch.is_none())
            })
            .map(|(loc, _)| loc)
            .collect();
        for loc in newly_protected {
            // The repair survived evaluation fleet-wide: the timeline for this
            // location ends here.
            recorder().instant(
                "timeline.protected",
                "timeline",
                &[
                    ("fleet", self.obs_id),
                    ("epoch", epoch),
                    ("location", u64::from(loc)),
                    ("members", self.alive_count() as u64),
                ],
            );
            self.record(MetricEvent::Protected {
                location: loc,
                epoch,
            });
        }
        self.record(MetricEvent::Epoch {
            pages: records.len() as u64,
            execution,
            manager,
        });
        self.record(MetricEvent::ManagerFanout { fanout });
        self.record(MetricEvent::MemberResidency {
            resident_bytes: self.engine.resident_state_bytes(),
            shared_bytes: self.engine.shared_state_bytes(),
            members: self.node_count() as u64,
        });
        self.record_transport_event();
        let rec = recorder();
        if rec.is_enabled() {
            rec.counter(
                "fleet.pages_processed",
                self.metrics.pages_processed,
                &[("fleet", self.obs_id)],
            );
            rec.counter(
                "fleet.alive_members",
                self.alive_count() as u64,
                &[("fleet", self.obs_id)],
            );
            rec.counter(
                "fleet.patch_applications",
                self.metrics.patch_applications,
                &[("fleet", self.obs_id)],
            );
            rec.counter(
                "transport.envelopes_sent",
                self.metrics.envelopes_sent,
                &[("fleet", self.obs_id)],
            );
            rec.counter(
                "transport.retransmits",
                self.metrics.retransmits,
                &[("fleet", self.obs_id)],
            );
        }

        EpochOutcome {
            epoch,
            outcomes: records
                .into_iter()
                .map(|r| MemberOutcome {
                    node: r.node,
                    blocked: matches!(r.status, RunStatus::Failure(_)),
                    status: r.status,
                    rendered: r.rendered,
                })
                .collect(),
        }
    }

    /// Convenience single-presentation epoch — the seed's sequential community
    /// protocol: present `page` to `node` and return its outcome.
    pub fn present(&mut self, node: NodeId, page: &[Word]) -> MemberOutcome {
        assert!(node < self.node_count(), "unknown node {node}");
        let mut outcome = self.run_epoch(&[Presentation::new(node, page)]);
        outcome.outcomes.remove(0)
    }
}

/// The root coordinator is itself a [`SyncSource`] — the same contract the tier
/// rows implement, so `apply_membership` serves state through one interface
/// whether the fleet is flat or tiered.
impl SyncSource for Fleet {
    fn checkpoint(&mut self) -> Snapshot {
        Fleet::checkpoint(self)
    }

    fn delta_since(&mut self, base: &Snapshot) -> DeltaSnapshot {
        Fleet::delta_since(self, base)
    }

    fn snapshot_for(&mut self) -> SyncPayload {
        let cache = self.refresh_snapshot_cache();
        SyncPayload {
            epoch: cache.epoch,
            plan: cache.snapshot.plan.clone(),
            encoded: Arc::clone(&cache.encoded),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_isa::MemoryLayout;
    use proptest::prelude::*;

    fn tiny_image() -> BinaryImage {
        let layout = MemoryLayout::default();
        BinaryImage {
            layout,
            code: vec![0],
            data: vec![],
            entry: layout.code_base,
        }
    }

    #[test]
    fn sequential_config_skips_the_worker_pool() {
        let fleet = Fleet::new(
            tiny_image(),
            ClearViewConfig::default(),
            FleetConfig::new(64).sequential(),
        );
        assert_eq!(
            fleet.worker_count(),
            1,
            "sequential fleets must not build a worker pool"
        );
        // sequential() after other overrides still collapses to one worker.
        let fleet = Fleet::new(
            tiny_image(),
            ClearViewConfig::default(),
            FleetConfig::new(64).with_workers(8).sequential(),
        );
        assert_eq!(fleet.worker_count(), 1);
    }

    /// Which bases the store's dirty tracker covers, and so which cuts read
    /// the dirty set rather than walk every address: every checkpoint a live
    /// fleet hands out, through learning, churn, rejoins and joins; after a
    /// restore, only bases cut after the restore's epoch.
    #[test]
    fn a_live_fleet_covers_its_checkpoints_and_a_restore_starts_after_its_label() {
        use cv_apps::{learning_suite, red_team_exploits, Browser};

        let browser = Browser::build();
        let exploit = red_team_exploits(&browser)
            .into_iter()
            .find(|e| e.bugzilla == 290162)
            .unwrap();
        let mut fleet = Fleet::new(
            browser.image.clone(),
            ClearViewConfig::default(),
            FleetConfig::new(8),
        );
        fleet.distributed_learning(&learning_suite()[..8]);
        let mut bases = vec![fleet.checkpoint()];
        let batch = [Presentation::new(0, exploit.page())];
        fleet.run_epoch_churn(&batch, &[5, 6]);
        bases.push(fleet.checkpoint());
        fleet.apply_membership(MembershipOp::Rejoin {
            node: 5,
            checkpoint: Some(&bases[0]),
        });
        fleet.apply_membership(MembershipOp::Rejoin {
            node: 6,
            checkpoint: None,
        });
        fleet.apply_membership(MembershipOp::JoinWarm);
        let cold = fleet.apply_membership(MembershipOp::JoinCold).nodes[0];
        fleet.apply_membership(MembershipOp::Resync(cold));
        fleet.run_epoch(&batch);
        bases.push(fleet.checkpoint());
        for base in &bases {
            assert!(
                fleet.store.dirty().covers(base.epoch),
                "a live fleet covers all its own checkpoints (base epoch {})",
                base.epoch
            );
        }

        let old_base = &bases[0];
        let snapshot = bases.last().unwrap();
        let mut restored = Fleet::from_snapshot(
            browser.image.clone(),
            ClearViewConfig::default(),
            FleetConfig::new(8),
            snapshot,
        );
        restored.run_epoch(&batch);
        let mid_base = restored.checkpoint();
        let dirty = restored.store.dirty();
        assert!(
            dirty.covers(mid_base.epoch),
            "a post-restore base is covered"
        );
        assert!(
            !dirty.covers(snapshot.epoch),
            "a base at the restore label is not covered"
        );
        assert!(
            !dirty.covers(old_base.epoch),
            "a pre-restore base is not covered"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The seq-indexed pending set answers every ack stream — in range, past
        /// the end, repeated, or stale from an earlier exchange (below `first`) —
        /// as the map of pending envelopes plus set of acked seqs it replaced: the
        /// same unacked count and resend order after every ack, and the same
        /// acked list at the end.
        #[test]
        fn pending_acks_match_a_map_and_set_model(
            first in 8u64..1_000,
            count in 0usize..24,
            offsets in prop::collection::vec(-8i64..32, 0..64),
        ) {
            let envelopes: Vec<Envelope> = (0..count)
                .map(|node| Envelope {
                    from: COORDINATOR,
                    to: node as PeerId,
                    epoch: 1,
                    seq: 0,
                    payload: EnvelopePayload::Page(vec![node as Word]),
                })
                .collect();
            let mut pending = PendingAcks::new(first, envelopes.clone());
            let mut model: BTreeMap<u64, Envelope> = (first..)
                .zip(envelopes)
                .map(|(seq, mut env)| {
                    env.seq = seq;
                    (seq, env)
                })
                .collect();
            let mut acked: BTreeSet<u64> = BTreeSet::new();
            for offset in offsets {
                let seq = first.checked_add_signed(offset).expect("first >= 8");
                pending.ack(seq);
                if model.remove(&seq).is_some() {
                    acked.insert(seq);
                }
                prop_assert_eq!(pending.unacked, model.len());
                let resend: Vec<(u64, PeerId)> =
                    pending.unacked().map(|env| (env.seq, env.to)).collect();
                let expected: Vec<(u64, PeerId)> =
                    model.values().map(|env| (env.seq, env.to)).collect();
                prop_assert_eq!(resend, expected);
            }
            let expected: Vec<usize> = acked.iter().map(|seq| (seq - first) as usize).collect();
            prop_assert_eq!(pending.acked_indices(), expected);
        }
    }
}
