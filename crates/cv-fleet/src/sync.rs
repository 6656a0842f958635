//! The unified sync plane: one API for every way state reaches a member, and
//! the per-tier coordinator state that serves it.
//!
//! Every membership change — crash, rejoin, warm and cold join, resync, and the
//! transport-resync pass — is one call to
//! [`Fleet::apply_membership`](crate::Fleet::apply_membership) taking a
//! [`MembershipOp`], and every sync inside it is served through a
//! [`SyncSource`] — a trait implemented by both the root
//! [`Fleet`](crate::Fleet) and the [`TierRow`] coordinator state here —
//! so root-direct and tiered sync share one code path and one accounting story.
//!
//! # Tiers as replicas
//!
//! With a fan-out-`F` manager tree, the coordinators of one tier all hold the
//! **same** state: each applies the same refresh deltas in the same order, so
//! within a row they are byte-identical replicas by construction. A [`TierRow`]
//! therefore models a whole row with one representative coordinator state —
//! its own [`Snapshot`] mirror, per-epoch retained checkpoints, and a
//! [`DirtyEpochs`] tracker stamped from the relayed deltas — while `width`
//! records how many real coordinators the row stands for (the byte accounting
//! multiplies by it). A tier-2 coordinator bootstraps, delta-resyncs, and
//! heals transport desyncs from its *parent's* row, never the root: the root
//! cuts one delta per refresh, each row relays it downward, and members are
//! served from the deepest (leaf) row.
//!
//! Byte-identity discipline: [`DeltaBuilder`] cuts are canonical in the base
//! and the current state — a dirty superset only adds lookups, never entries —
//! so a delta cut by a tier row equals the delta the root would have cut for
//! the same base, byte for byte. Tiered sync changes *where* sync payloads are
//! cut, never *what* the fleet log records.

use crate::protocol::NodeId;
use crate::transport::{tier_peer, PeerId};
use cv_core::{PatchPlan, TierRowSpec};
use cv_inference::{DirtyEpochs, ShardRouter};
use cv_store::{DeltaBuilder, DeltaSnapshot, Snapshot, StoreError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An encoded full-state payload a [`SyncSource`] serves: the source's epoch,
/// its net patch plan (what a resynced member must install), and the encoded
/// snapshot bytes that cross the wire.
#[derive(Debug, Clone)]
pub struct SyncPayload {
    /// The epoch the payload's state corresponds to.
    pub epoch: u64,
    /// The source's net patch plan at that epoch.
    pub plan: PatchPlan,
    /// The encoded snapshot container (shared, encode-once).
    pub encoded: Arc<Vec<u8>>,
}

impl SyncPayload {
    /// Encoded payload size in bytes.
    pub fn bytes(&self) -> u64 {
        self.encoded.len() as u64
    }
}

/// Something a member can sync from: the root coordinator or a tier row.
///
/// The methods take `&mut self` because serving is memoized — sources encode
/// their snapshot once per state generation and cache delta cuts.
pub trait SyncSource {
    /// A checkpoint of the source's current state.
    fn checkpoint(&mut self) -> Snapshot;

    /// The delta advancing `base` to the source's current state: one
    /// [`DeltaBuilder`] cut against the source's dirty-epoch tracker,
    /// byte-identical to [`DeltaSnapshot::diff`] whether or not the tracker
    /// covers the base.
    fn delta_since(&mut self, base: &Snapshot) -> DeltaSnapshot;

    /// The encoded full-state payload for a member that needs everything.
    fn snapshot_for(&mut self) -> SyncPayload;
}

/// One membership/sync operation, the argument to
/// [`Fleet::apply_membership`](crate::Fleet::apply_membership).
#[derive(Debug, Clone, Copy)]
pub enum MembershipOp<'a> {
    /// Crash the given members with state loss. No sync happens.
    Crash(&'a [NodeId]),
    /// Rejoin a crashed member: delta sync against the checkpoint it kept, or
    /// a full bootstrap when it kept none.
    Rejoin {
        /// The crashed member to bring back.
        node: NodeId,
        /// The member's surviving checkpoint (`None` = lost everything).
        checkpoint: Option<&'a Snapshot>,
    },
    /// Add a new member warm-started from the sync source's snapshot.
    JoinWarm,
    /// Add a new member with no state transfer (it must be resynced or learn
    /// from scratch). No sync happens.
    JoinCold,
    /// Full bootstrap for a live but unsynced member (e.g. one that cold
    /// joined).
    Resync(NodeId),
}

/// What [`Fleet::apply_membership`](crate::Fleet::apply_membership)
/// did: the members affected and, when state moved, where it came from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// The members the operation affected (the new node id for joins).
    pub nodes: Vec<NodeId>,
    /// The peer the sync payload was served from (`None` when no state
    /// moved): [`COORDINATOR`](crate::transport::COORDINATOR) for root-direct
    /// sync, [`tier_peer`] of the leaf tier when a tier row served.
    pub source_peer: Option<PeerId>,
    /// The serving tier (0 = the root) when state moved.
    pub source_tier: Option<u32>,
    /// Whether a delta sufficed (`false` = full snapshot, or no state moved).
    pub delta: bool,
    /// Encoded payload bytes that crossed the sync link (0 when none did).
    pub bytes: u64,
}

/// A tier-relayed payload was rejected by an intermediate coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierSyncError {
    /// The delta's shard routing does not match the tier's shard routing —
    /// a cross-tier misroute (e.g. a payload cut under a different shard
    /// count, or entries scattered to the wrong shard sections).
    CrossTierMisroute {
        /// The tier that rejected the payload.
        tier: u32,
        /// The underlying store-level validation failure.
        source: StoreError,
    },
    /// The delta's base epoch does not match the tier's current state — the
    /// relay skipped or repeated a refresh.
    StaleBase {
        /// The tier that rejected the payload.
        tier: u32,
        /// The base epoch the tier's state is at.
        expected: u64,
        /// The base epoch the delta was cut against.
        found: u64,
    },
}

impl fmt::Display for TierSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierSyncError::CrossTierMisroute { tier, source } => {
                write!(
                    f,
                    "tier {tier} rejected a misrouted relayed delta: {source}"
                )
            }
            TierSyncError::StaleBase {
                tier,
                expected,
                found,
            } => write!(
                f,
                "tier {tier} at base epoch {expected} got a delta cut against {found}"
            ),
        }
    }
}

impl std::error::Error for TierSyncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierSyncError::CrossTierMisroute { source, .. } => Some(source),
            TierSyncError::StaleBase { .. } => None,
        }
    }
}

/// One row of intermediate tier coordinators, modeled as a single
/// representative replica (see the module docs): its own state mirror,
/// retained per-epoch checkpoints, and a dirty-epoch tracker stamped from the
/// relayed deltas so it can cut children's deltas incrementally.
#[derive(Debug, Clone)]
pub struct TierRow {
    tier: u32,
    width: usize,
    peer: PeerId,
    state: Snapshot,
    encoded: Option<Arc<Vec<u8>>>,
    retained: BTreeMap<u64, Snapshot>,
    dirty: DirtyEpochs,
    delta_cache: Option<(u64, u64, u64)>,
}

impl TierRow {
    /// A row of `width` tier-`tier` coordinators seeded from `state` (their
    /// parent's current snapshot). The dirty tracker's coverage starts at the
    /// epoch *after* the seed: a base checkpoint carrying the seed's epoch
    /// label is not necessarily the seed (state can change mid-epoch), and a
    /// fresh row has no mutation history to tell them apart — the same
    /// reasoning as the fleet's snapshot restore. For such bases the cutter
    /// re-checks every address, which is byte-identical.
    pub fn new(tier: u32, width: usize, state: Snapshot) -> Self {
        let dirty = DirtyEpochs::new(state.shard_count as usize, state.epoch + 1);
        TierRow {
            tier,
            width,
            peer: tier_peer(tier),
            state,
            encoded: None,
            retained: BTreeMap::new(),
            dirty,
            delta_cache: None,
        }
    }

    /// The row's tier, 1 = directly under the root.
    pub fn tier(&self) -> u32 {
        self.tier
    }

    /// How many real coordinators this row stands for.
    pub fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn set_width(&mut self, width: usize) {
        self.width = width;
    }

    /// The transport peer id this row's coordinators serve from.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The row's current state mirror.
    pub fn state(&self) -> &Snapshot {
        &self.state
    }

    /// The retained checkpoint at exactly `epoch`, if the row kept one.
    pub fn retained_base(&self, epoch: u64) -> Option<&Snapshot> {
        self.retained.get(&epoch)
    }

    /// Apply a delta relayed from the parent tier, validating it exactly as
    /// the root validates member-bound deltas: shard routing first (a
    /// cross-tier misroute is caught at the tier that received it), then the
    /// base epoch. On success the delta's contents are stamped into the row's
    /// dirty tracker — that is what lets the row cut its children's deltas
    /// from the dirty set instead of walking every address.
    pub fn apply_relayed(&mut self, delta: &DeltaSnapshot) -> Result<(), TierSyncError> {
        delta
            .validate_routing(self.state.shard_count)
            .map_err(|source| TierSyncError::CrossTierMisroute {
                tier: self.tier,
                source,
            })?;
        if delta.base_epoch != self.state.epoch {
            return Err(TierSyncError::StaleBase {
                tier: self.tier,
                expected: self.state.epoch,
                found: delta.base_epoch,
            });
        }
        self.dirty.begin_epoch(delta.target_epoch);
        for shard in &delta.shards {
            for (addr, _) in &shard.entries {
                self.dirty.mark_in_shard(shard.shard as usize, *addr);
            }
        }
        for &addr in &delta.removed {
            self.dirty.mark(addr);
        }
        for &entry in &delta.procs_added {
            self.dirty.mark_proc(entry);
        }
        if delta.plan != self.state.plan {
            let router = ShardRouter::new(self.state.shard_count as usize);
            for shard in delta.plan.shards_touched(&router) {
                self.dirty.mark_plan_shard(shard);
            }
        }
        self.state
            .apply_delta(delta)
            .map_err(|source| TierSyncError::CrossTierMisroute {
                tier: self.tier,
                source,
            })?;
        self.encoded = None;
        self.delta_cache = None;
        Ok(())
    }

    /// Retain the current state as the row's checkpoint for its epoch, so
    /// later delta requests against this epoch can be served from it.
    pub fn retain_checkpoint(&mut self) {
        self.retained.insert(self.state.epoch, self.state.clone());
    }

    /// Drop retained checkpoints and dirty history below `floor` (the oldest
    /// base any desynced child might still resync from).
    pub fn prune(&mut self, floor: u64) {
        self.retained.retain(|&epoch, _| epoch >= floor);
        self.dirty.retain_since(floor);
    }

    /// Encoded size of the delta advancing `base` to the row's state,
    /// memoized per (base, state) generation.
    pub fn delta_bytes_since(&mut self, base: &Snapshot) -> u64 {
        if let Some((base_epoch, target_epoch, bytes)) = self.delta_cache {
            if base_epoch == base.epoch && target_epoch == self.state.epoch {
                return bytes;
            }
        }
        let bytes = self.delta_since(base).encode().len() as u64;
        self.delta_cache = Some((base.epoch, self.state.epoch, bytes));
        bytes
    }
}

impl SyncSource for TierRow {
    fn checkpoint(&mut self) -> Snapshot {
        self.state.clone()
    }

    fn delta_since(&mut self, base: &Snapshot) -> DeltaSnapshot {
        DeltaBuilder::new(base, &self.dirty).cut(
            self.state.epoch,
            &self.state.invariants,
            self.state.procedures.iter().copied(),
            self.state.plan.clone(),
        )
    }

    fn snapshot_for(&mut self) -> SyncPayload {
        let encoded = match &self.encoded {
            Some(encoded) => Arc::clone(encoded),
            None => {
                let encoded = Arc::new(self.state.encode());
                self.encoded = Some(Arc::clone(&encoded));
                encoded
            }
        };
        SyncPayload {
            epoch: self.state.epoch,
            plan: self.state.plan.clone(),
            encoded,
        }
    }
}

/// The fleet's tier-sync plane: the rows of intermediate coordinators, kept
/// as mirrors of the root's state (see the module docs), plus the
/// `(epoch, state_version)` marker of the last refresh so refreshes are
/// idempotent per state generation.
#[derive(Debug, Clone, Default)]
pub struct TierSyncPlane {
    rows: Vec<TierRow>,
    synced: Option<(u64, u64)>,
}

impl TierSyncPlane {
    /// An empty plane: rows are seeded lazily on the first refresh where the
    /// fleet is large enough to need intermediate coordinators.
    pub fn new() -> Self {
        TierSyncPlane::default()
    }

    /// True when no coordinator rows exist (the fleet fits under the root).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The coordinator rows, root-down (last = the member-facing leaf row).
    pub fn rows(&self) -> &[TierRow] {
        &self.rows
    }

    /// The member-facing leaf row, mutable (it cuts the members' payloads).
    pub fn leaf_row_mut(&mut self) -> Option<&mut TierRow> {
        self.rows.last_mut()
    }

    /// The `(epoch, state_version)` the rows were last refreshed to.
    pub fn synced_marker(&self) -> Option<(u64, u64)> {
        self.synced
    }

    /// Record that the rows now mirror the root at `marker`.
    pub fn mark_synced(&mut self, marker: (u64, u64)) {
        self.synced = Some(marker);
    }

    /// True when the rows match `specs` tier-for-tier (widths included).
    pub fn matches(&self, specs: &[TierRowSpec]) -> bool {
        self.rows.len() == specs.len()
            && self
                .rows
                .iter()
                .zip(specs)
                .all(|(row, spec)| row.tier == spec.tier && row.width == spec.width)
    }

    /// Resize the rows to `specs`: widths update in place, new deeper rows
    /// clone the current leaf's mirror (rows are replicas of one another, so
    /// any row's state seeds a new one), surplus rows are dropped, and an
    /// empty plane seeds every row from `seed` (the root's current snapshot).
    pub fn resize(&mut self, specs: &[TierRowSpec], seed: &Snapshot) {
        self.rows.truncate(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if i < self.rows.len() {
                self.rows[i].set_width(spec.width);
            } else {
                let state = match self.rows.last() {
                    Some(leaf) => leaf.state.clone(),
                    None => seed.clone(),
                };
                self.rows.push(TierRow::new(spec.tier, spec.width, state));
            }
        }
    }

    /// Relay one refresh delta through every row, root-down — the downward
    /// leg of a tier refresh. All rows share one base (they are replicas), so
    /// one delta applies cleanly to each.
    pub fn apply_relayed_all(&mut self, delta: &DeltaSnapshot) -> Result<(), TierSyncError> {
        for row in &mut self.rows {
            row.apply_relayed(delta)?;
        }
        Ok(())
    }

    /// Every row retains its current state as a checkpoint (mirroring the
    /// root's retention at an epoch boundary) and prunes below `floor`.
    pub fn retain_checkpoints(&mut self, floor: u64) {
        for row in &mut self.rows {
            row.retain_checkpoint();
            row.prune(floor);
        }
    }

    /// Drop all rows and the sync marker (the fleet shrank back under the
    /// root's fan-out, or the state was replaced wholesale).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.synced = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::COORDINATOR;

    #[test]
    fn tier_peers_sit_just_under_the_root() {
        assert_eq!(tier_peer(0), COORDINATOR);
        assert_eq!(tier_peer(1), COORDINATOR - 1);
        assert!(crate::transport::is_coordinator_side(tier_peer(3)));
        assert!(!crate::transport::is_coordinator_side(1_000_000));
    }
}
