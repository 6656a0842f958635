//! # cv-store — the snapshot + delta-sync persistence plane
//!
//! ClearView's value is community amortization: once one member's failures produce a
//! validated repair and a learned invariant baseline, every other member — including
//! machines that join later or rejoin after a crash — should inherit that protection
//! instead of re-learning it. Until this crate, the fleet was purely in-memory: a
//! restarted process started from zero invariants and zero patches. `cv-store` is
//! the durability plane:
//!
//! * [`Snapshot`] (`snapshot.rs`) — a versioned, self-describing binary container
//!   (magic + format version + section table + per-section CRC-32) holding the full
//!   protection state: the community [`InvariantDatabase`](cv_inference::InvariantDatabase)
//!   written **columnar** (flat per-field arrays, so encode/decode is a sequence of
//!   flat copies), the procedure-discovery state, and the net
//!   [`PatchPlan`](cv_core::PatchPlan).
//! * [`DeltaSnapshot`] (`delta.rs`) — what changed between two checkpoints, keyed
//!   by (epoch, shard): per store shard, only the added/modified entries, plus
//!   removals, new procedures, and the target plan. An up-to-date member syncs
//!   strictly fewer bytes than a full snapshot when little changed.
//! * [`DeltaBuilder`] (`delta.rs`) — the one production cutter: it re-checks the
//!   addresses the dirty-epoch plane ([`cv_inference::DirtyEpochs`]) stamped since
//!   the base, in O(changed), or every address when the tracker does not cover the
//!   base, without materializing a target snapshot. [`DeltaSnapshot::diff`] is the
//!   O(database) executable specification and the oracle the cuts are proven
//!   byte-equal to.
//! * [`StoreError`] (`error.rs`) — the decoder's *reject, never misread* contract:
//!   truncation, checksum mismatches, unknown versions, and structurally impossible
//!   payloads all fail loudly.
//! * [`Envelope`] (`envelope.rs`) — one epoch-tagged, sequence-numbered
//!   coordinator↔member message in the same container format; the unit every
//!   `cv-fleet` transport backend sends and receives, with `(from, epoch, seq)`
//!   as the idempotence key for duplicate and retransmit suppression.
//! * The wire layer (`wire.rs`) — little-endian primitives, flat columns, CRC-32,
//!   and the sectioned container shared by snapshots, deltas, and envelopes.
//!
//! Shard keying reuses [`cv_inference::ShardRouter`] — the *same* routing the live
//! `ShardedInvariantStore` and the manager plane use — and re-validates it on both
//! decode and apply, so snapshots can never silently desync from the store that
//! will absorb them.
//!
//! `cv-fleet` builds its `Bootstrap`/`DeltaSync` protocol and warm-start
//! (`Fleet::from_snapshot`) on this crate; `cv-core::ProtectedApplication::restore`
//! is the single-machine equivalent; `snapshot_bench` (cv-bench) measures encode
//! and decode throughput and warm-start epochs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod delta;
mod envelope;
mod error;
mod snapshot;
mod wire;

pub use envelope::{
    Envelope, EnvelopePayload, ENVELOPE_MAGIC, ENVELOPE_VERSION, SECTION_ENVELOPE_HEADER,
    SECTION_ENVELOPE_PAYLOAD,
};

pub use delta::{
    DeltaBuilder, DeltaSnapshot, ShardDelta, DELTA_MAGIC, SECTION_DELTA_META, SECTION_PROCS_ADDED,
    SECTION_REMOVED, SECTION_STATS, SHARD_SECTION_BASE,
};
pub use error::StoreError;
pub use snapshot::{
    Snapshot, FORMAT_VERSION, SECTION_INVARIANTS, SECTION_META, SECTION_PLAN, SECTION_PROCEDURES,
    SNAPSHOT_MAGIC,
};
pub use wire::crc32;
