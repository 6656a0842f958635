//! The batched fleet console log.
//!
//! The seed's community recorded one console message per event — one upload per
//! member, one notification per failure, one push per patch. At community scale the
//! fleet batches instead: everything of one kind that happened in one epoch is
//! recorded as a single [`FleetMessage`], and a patch push carries the epoch's
//! [`PatchPlan`] once, regardless of how many members receive it. What actually
//! crosses the transport are `Envelope`s (`transport.rs`); this log is the protocol
//! *history* the parity tests compare.
//!
//! Messages carry counts, patch plans, and patch descriptions, not raw databases —
//! mirroring the paper's observation that the invariant database, not trace data, is
//! what crosses the network.
//!
//! Because the manager pass is deterministic and [`PatchPlan::merge`] imposes a
//! canonical op order, the log a fleet writes is *byte-identical* whether its
//! members ran on one worker thread or many — the manager-parity tests compare
//! entire [`BatchLog`]s across configurations.

use cv_core::PatchPlan;
use cv_isa::Addr;
use serde::{Deserialize, Serialize};

/// Identifies a fleet member.
pub type NodeId = usize;

/// One page presentation scheduled for one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Presentation {
    /// The member that loads the page.
    pub node: NodeId,
    /// The page content.
    pub page: Vec<cv_isa::Word>,
}

impl Presentation {
    /// Convenience constructor.
    pub fn new(node: NodeId, page: impl Into<Vec<cv_isa::Word>>) -> Self {
        Presentation {
            node,
            page: page.into(),
        }
    }
}

/// A batched protocol message, as recorded in the fleet console log.
///
/// Each variant aggregates everything of its kind that happened in one epoch (or one
/// learning round). A patch push's operations, with their failure locations, are
/// `plan.ops()`.
///
/// Messages are deliberately **sync-source-agnostic**: a [`Bootstrap`] or
/// [`DeltaSync`] record is the same whether the payload was served by the root
/// coordinator or cut by a tier coordinator in the manager tree — tier cuts are
/// byte-identical to root cuts for the same base, so the log stays byte-identical
/// between flat and tiered fleets (the determinism discipline CI diffs). Which
/// tier served a sync lives in the metric stream
/// ([`MetricEvent::TierSync`](crate::MetricEvent)) and the `tier.sync` trace
/// instants, not in the protocol history.
///
/// [`Bootstrap`]: FleetMessage::Bootstrap
/// [`DeltaSync`]: FleetMessage::DeltaSync
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetMessage {
    /// Members uploaded locally inferred invariants (amortized parallel learning).
    InvariantUploads {
        /// The epoch (learning round) of the batch.
        epoch: u64,
        /// `(member, invariant count)` per uploading member.
        uploads: Vec<(NodeId, usize)>,
    },
    /// Monitors detected failures during the epoch.
    Failures {
        /// The epoch of the batch.
        epoch: u64,
        /// `(member, failure location)` per detected failure.
        failures: Vec<(NodeId, Addr)>,
    },
    /// Members reported invariant-check observations for one failure location.
    Observations {
        /// The epoch of the batch.
        epoch: u64,
        /// The failure location the observations belong to.
        location: Addr,
        /// `(member, observation count)` per reporting member.
        reports: Vec<(NodeId, usize)>,
    },
    /// The console pushed the epoch's patch plan to every member.
    PatchPushes {
        /// The epoch of the batch.
        epoch: u64,
        /// How many members received the plan.
        members: usize,
        /// The canonically ordered plan (one copy in the log, applied by every
        /// member).
        plan: PatchPlan,
    },
    /// Members were brought to the current protection state from the coordinator's
    /// full snapshot (warm start / full resync) instead of replaying learning.
    Bootstrap {
        /// The epoch at which the bootstrap happened.
        epoch: u64,
        /// How many members were bootstrapped from this snapshot.
        members: usize,
        /// Encoded snapshot size in bytes (one copy on the wire).
        snapshot_bytes: u64,
        /// Patch-plan operations installed on each bootstrapped member.
        plan_ops: usize,
    },
    /// Members holding the base-epoch snapshot were advanced to the current state
    /// by a shard-keyed delta instead of a full snapshot.
    DeltaSync {
        /// The epoch at which the sync happened.
        epoch: u64,
        /// How many members were synced from this delta.
        members: usize,
        /// The epoch of the checkpoint the members already held.
        base_epoch: u64,
        /// Encoded delta size in bytes (what actually crossed the wire).
        delta_bytes: u64,
        /// Encoded size of the full snapshot the delta replaced.
        full_bytes: u64,
    },
}

impl FleetMessage {
    /// Number of events aggregated in this batch.
    pub fn event_count(&self) -> usize {
        match self {
            FleetMessage::InvariantUploads { uploads, .. } => uploads.len(),
            FleetMessage::Failures { failures, .. } => failures.len(),
            FleetMessage::Observations { reports, .. } => reports.len(),
            FleetMessage::PatchPushes { plan, .. } => plan.len(),
            FleetMessage::Bootstrap { members, .. } => *members,
            FleetMessage::DeltaSync { members, .. } => *members,
        }
    }
}

/// The fleet console log: the batched messages, in order.
///
/// Logs are `PartialEq`, so parity tests can assert that a parallel fleet and a
/// sequential one wrote identical histories.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchLog {
    messages: Vec<FleetMessage>,
}

impl BatchLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a batch (empty batches are dropped).
    pub fn push(&mut self, message: FleetMessage) {
        if message.event_count() > 0 {
            self.messages.push(message);
        }
    }

    /// The recorded batches.
    pub fn messages(&self) -> &[FleetMessage] {
        &self.messages
    }

    /// Every patch plan ever pushed, in epoch order — enough to replay the fleet's
    /// patch state onto a fresh member.
    pub fn patch_plans(&self) -> impl Iterator<Item = &PatchPlan> {
        self.messages.iter().filter_map(|m| match m {
            FleetMessage::PatchPushes { plan, .. } => Some(plan),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_core::Directive;

    #[test]
    fn batching_compresses_patch_distribution() {
        // One plan pushed to a thousand members is one message in the log.
        let mut log = BatchLog::new();
        let mut plan = PatchPlan::new();
        plan.push(0x4000, Directive::RemoveChecks);
        log.push(FleetMessage::PatchPushes {
            epoch: 3,
            members: 1000,
            plan,
        });
        assert_eq!(log.messages().len(), 1);
        assert_eq!(log.messages()[0].event_count(), 1);
    }

    #[test]
    fn empty_batches_are_dropped() {
        let mut log = BatchLog::new();
        log.push(FleetMessage::Failures {
            epoch: 0,
            failures: vec![],
        });
        log.push(FleetMessage::PatchPushes {
            epoch: 0,
            members: 10,
            plan: PatchPlan::new(),
        });
        assert!(log.messages().is_empty());
        log.push(FleetMessage::Failures {
            epoch: 0,
            failures: vec![(7, 0x40)],
        });
        assert_eq!(log.messages().len(), 1);
        assert_eq!(log.messages()[0].event_count(), 1);
    }

    #[test]
    fn patch_plans_replay_in_epoch_order() {
        let mut log = BatchLog::new();
        for epoch in 1..=3u64 {
            let mut plan = PatchPlan::new();
            plan.push(0x100 * epoch as u32, Directive::RemoveRepair);
            log.push(FleetMessage::PatchPushes {
                epoch,
                members: 4,
                plan,
            });
        }
        let locations: Vec<_> = log.patch_plans().flat_map(|p| p.locations()).collect();
        assert_eq!(locations, vec![0x100, 0x200, 0x300]);
    }
}
