//! # cv-fleet — a sharded, parallel application-community engine
//!
//! ClearView's headline result (Section 3 of the paper) is that an *application
//! community* — many machines running the same application — can collaboratively
//! learn invariants, detect attacks, and immunize members that were never attacked.
//! The `cv-community` crate demonstrates the protocol at N = a handful; this crate is
//! the same protocol engineered for thousands of simulated members:
//!
//! * [`ShardedInvariantStore`] (`shard.rs`) — the community invariant database
//!   partitioned by check-address shard; member uploads merge in one routed scan
//!   each, with a result identical to the sequential merge, and the partition keys
//!   the dirty tracking that delta checkpoints are cut from.
//! * [`EventEngine`] (`engine.rs`) — the member-execution engine: execution
//!   batched into epochs and fanned out across worker threads over **one shared
//!   read-only program image** per fleet; a member is an 8-byte slot (an
//!   interned patch-configuration handle and an alive flag), and runs borrow
//!   copy-on-write state from a per-worker materialized-config cache — eight
//!   bytes per member instead of a full environment. What it must be
//!   indistinguishable from — every member owning a long-lived environment of
//!   its own — is `scheduler.rs`, compiled into this crate's test build only,
//!   where every engine checks itself against it call by call.
//! * The **sharded manager plane** (`cv_core::manager`, driven by `fleet.rs`) — the
//!   responder state partitioned by failure location into
//!   [`ResponderShard`](cv_core::ResponderShard)s fed by a pure
//!   [`DigestRouter`](cv_core::DigestRouter); per-shard
//!   [`PatchPlan`](cv_core::PatchPlan)s merge deterministically (stable sort by
//!   failure location), so a fleet writes a byte-identical [`BatchLog`] whatever
//!   its shard and worker counts.
//! * [`FleetMessage`] / [`BatchLog`] (`protocol.rs`) — the batched wire protocol:
//!   invariant uploads, failure notifications, observation reports, and shard-merged
//!   patch plans travel as per-epoch batches instead of one message per event.
//! * [`FleetMetrics`] (`metrics.rs`) — pages/sec throughput, time-to-immunity per
//!   exploit, patch-propagation latency, and per-shard manager time. The
//!   aggregate is a **fold of the fleet's [`MetricEvent`] stream**
//!   ([`Fleet::metric_log`]) — one accounting source of truth — and the hot path
//!   is instrumented with `cv-obs` spans whose measurements are the very
//!   durations the events carry.
//! * [`Fleet`] (`fleet.rs`) — the engine tying them together: the paper's learn →
//!   detect → check → repair → distribute loop, at community scale.
//!
//! `cv-community` is a thin N=small facade over [`Fleet`] (one presentation per
//! epoch reproduces the seed's sequential protocol exactly); `examples/fleet_demo.rs`
//! and the `fleet_scale` binary in `cv-bench` exercise the 1,000+-member
//! configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fleet;
mod metrics;
mod protocol;
#[cfg(test)]
mod scheduler;
mod shard;
mod sync;
mod transport;

pub use engine::EventEngine;
pub use fleet::{EpochOutcome, Fleet, FleetConfig, MemberOutcome};
pub use metrics::{FleetMetrics, ImmunityRecord, MetricEvent};
pub use protocol::{BatchLog, FleetMessage, NodeId, PatchPushKind, Presentation};
pub use shard::ShardedInvariantStore;
pub use sync::{
    MembershipOp, SyncOutcome, SyncPayload, SyncSource, TierRow, TierSyncError, TierSyncPlane,
};
pub use transport::{
    is_coordinator_side, tier_peer, ChaosConfig, ChaosControls, ChaosTransport, DedupeWindow,
    InProcessTransport, PeerId, SequencedApplier, SocketTransport, Transport, TransportKind,
    TransportStats, COORDINATOR, MAX_TIER_PEERS,
};

// The envelope is the unit every transport backend exchanges.
pub use cv_store::{Envelope, EnvelopePayload};

// The manager-plane types live in `cv_core::manager`; re-export the ones fleet
// callers touch so downstream code needs only this crate.
pub use cv_core::{DigestRouter, NetPatchState, PatchPlan, PlanOp, ResponderShard};

// The persistence-plane types fleet callers hold (member checkpoints, deltas).
pub use cv_store::{DeltaSnapshot, Snapshot, StoreError};
