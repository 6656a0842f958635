//! Fleet-wide operational metrics, derived from one accounting event stream.
//!
//! The paper evaluates ClearView per machine (overhead, patch-generation time). At
//! community scale the interesting quantities are aggregates: how many pages per
//! second the fleet sustains, how long an exploit takes from first detection to
//! community-wide immunity, how quickly a patch push reaches every member, and
//! how much time the manager plane takes per epoch.
//!
//! Since PR 6 the fleet does not mutate counters ad hoc: every accountable
//! occurrence is a [`MetricEvent`] appended to the fleet's metric log, and
//! [`FleetMetrics`] is a **fold** over that stream ([`FleetMetrics::apply`] one
//! event at a time, [`FleetMetrics::from_events`] from scratch). The fleet keeps
//! an incrementally-folded cache for cheap reads, but the log is the source of
//! truth — `tests/obs_accounting.rs` re-derives the aggregate from the log and
//! asserts equality, and the timing inside each event is the *same measurement*
//! the tracing plane records (via `cv_obs` timed spans), so the trace and the
//! metrics can never disagree. The `fleet_scale` binary and `EXPERIMENTS.md`
//! record captured runs.

use cv_isa::Addr;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// One accountable occurrence in a fleet's life.
///
/// Events carry the measured durations (where timing matters) so a fold over the
/// stream reproduces the aggregate exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricEvent {
    /// One epoch executed: `pages` presentations, execution wall time, manager
    /// plane wall time.
    Epoch {
        /// Page presentations executed across all members this epoch.
        pages: u64,
        /// Wall-clock time of the member-execution fan-out.
        execution: Duration,
        /// Wall-clock time of the manager plane (bucketing, responders, plan order).
        manager: Duration,
    },
    /// One epoch's responder pass.
    ManagerFanout {
        /// Wall time of the responders consuming the epoch's bucket.
        fanout: Duration,
    },
    /// One patch-push round reaching `members` members.
    PatchPush {
        /// Plans pushed this round.
        pushes: u64,
        /// Members each push reached.
        members: u64,
        /// Wall time of the propagation.
        elapsed: Duration,
    },
    /// The first failure report at a location (later reports at the same
    /// location fold to nothing).
    FirstFailure {
        /// The faulting address.
        location: Addr,
        /// The epoch the report arrived in.
        epoch: u64,
    },
    /// A location became protected fleet-wide.
    Protected {
        /// The faulting address.
        location: Addr,
        /// The epoch the repair survived evaluation in.
        epoch: u64,
    },
    /// Distributed learning traced `pages` pages.
    LearningPages {
        /// Pages traced.
        pages: u64,
    },
    /// The coordinator took a checkpoint of `bytes` encoded bytes.
    Snapshot {
        /// Encoded size of the checkpoint.
        bytes: u64,
    },
    /// A member bootstrapped from a `bytes`-byte full snapshot.
    Bootstrap {
        /// Snapshot bytes shipped.
        bytes: u64,
    },
    /// A member advanced by a shard-keyed delta instead of a full snapshot.
    DeltaSync {
        /// Delta bytes actually shipped.
        delta_bytes: u64,
        /// Full-snapshot bytes the delta stood in for.
        full_bytes: u64,
    },
    /// The coordinator cut a delta.
    DeltaCut {
        /// Dirty store shards the delta carries.
        dirty_shards: u64,
        /// Plan-stamped shards since the base (0 when the dirty tracker does
        /// not cover the base).
        plan_shards: u64,
        /// Wall time of the cut.
        elapsed: Duration,
    },
    /// A joiner reached its first completed presentation `epochs` epochs after
    /// syncing.
    JoinerImmunity {
        /// Epochs from sync to first completed presentation.
        epochs: u64,
    },
    /// One epoch's member-state memory accounting (the engine's copy-on-write
    /// plane).
    MemberResidency {
        /// Bytes proportional to the member count (the engine's slots).
        resident_bytes: u64,
        /// Bytes shared across all members (shared program, config table,
        /// per-worker materialized environments), amortized per member.
        shared_bytes: u64,
        /// Members the accounting covers.
        members: u64,
    },
    // --- Tier plane -------------------------------------------------------
    // One naming scheme for everything the manager tree does: `TierPush`
    // (downward plan fan-out) and `TierSync` (state sync served from a tier
    // coordinator instead of the root).
    // `RootSyncBypass` counts syncs that *should* have been tier-served but
    // read root state directly — zero whenever the tier plane is active.
    /// One tier of the hierarchical manager tree forwarded the epoch's plan.
    TierPush {
        /// Tier number, 1 = closest to the root coordinator.
        tier: u64,
        /// Coordinators (or member groups) receiving the plan at this tier.
        groups: u64,
        /// Members the push ultimately reaches.
        members: u64,
    },
    /// State (a delta or a full snapshot) crossed one tier link of the manager
    /// tree: a coordinator shipped `bytes` to `receivers` children at `tier`.
    /// `tier_delta_cuts` counts each **distinct delta payload** once — a tier
    /// refresh relays one payload to every row, so it counts once per row,
    /// while a member-serving ship counts per cut payload regardless of how
    /// many members it reaches.
    TierSync {
        /// Tier of the serving coordinator, 1 = directly under the root.
        tier: u64,
        /// Encoded payload size in bytes (counted once per receiver).
        bytes: u64,
        /// Children the payload was shipped to.
        receivers: u64,
        /// Whether the payload was a delta (`false` = full snapshot).
        delta: bool,
    },
    /// A sync read root state directly while the tier plane was active —
    /// the bottleneck the tree exists to remove. Tests hold this at zero.
    RootSyncBypass,
    /// One protocol phase's transport accounting, as deltas since the previous
    /// `Transport` event: what the backend sent/delivered/faulted plus the
    /// fleet-side reliability work (retransmits, duplicate suppressions).
    Transport {
        /// Envelopes handed to the backend (data + acks, retransmits included).
        sent: u64,
        /// Envelopes that reached a peer's inbox.
        delivered: u64,
        /// Envelopes the chaos plane dropped outright.
        dropped: u64,
        /// Envelopes the chaos plane duplicated.
        duplicated: u64,
        /// Unacked envelopes re-sent by the retransmit loop.
        retransmits: u64,
        /// Duplicate deliveries suppressed by the `(from, epoch, seq)` window.
        duplicates_suppressed: u64,
        /// Envelopes swallowed by an active partition.
        partition_dropped: u64,
    },
    /// Members that never acked a patch push within the retransmit budget:
    /// rolled back to their pre-push configuration and marked out of sync.
    TransportDesync {
        /// Members rolled back this push round.
        members: u64,
    },
    /// A transport-desynced member was brought back by the background resync
    /// pass.
    TransportResync {
        /// Whether a shard-keyed delta sufficed (`false` = full snapshot).
        delta: bool,
    },
    /// A member crashed with state loss.
    Crash,
    /// A member rejoined after a crash.
    Rejoin,
    /// A member joined mid-run with no state transfer.
    ColdJoin,
    /// A member joined mid-run from the coordinator's snapshot.
    WarmJoin,
}

/// The immunity timeline for one failure location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmunityRecord {
    /// Epoch in which the failure was first reported.
    pub first_failure_epoch: u64,
    /// Epoch in which a repair survived evaluation fleet-wide, if one has.
    pub protected_epoch: Option<u64>,
}

impl ImmunityRecord {
    /// Epochs from first detection to fleet-wide immunity.
    pub fn epochs_to_immunity(&self) -> Option<u64> {
        self.protected_epoch
            .map(|p| p.saturating_sub(self.first_failure_epoch))
    }
}

/// Aggregate metrics for one fleet: the fold of its [`MetricEvent`] stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Epochs executed.
    pub epochs: u64,
    /// Page presentations processed across all members.
    pub pages_processed: u64,
    /// Wall-clock time spent executing member runs (the parallel section).
    pub execution_time: Duration,
    /// Wall-clock time spent in the manager plane overall (bucketing, responders,
    /// plan order).
    pub manager_time: Duration,
    /// Wall-clock time of the responder pass of the manager (the responders
    /// consuming each epoch's bucket).
    pub manager_fanout_time: Duration,
    /// Wall-clock time spent distributing patches to members.
    pub patch_propagation_time: Duration,
    /// Patch pushes distributed (one push reaches every member).
    pub patch_pushes: u64,
    /// Per-member patch applications performed (pushes × members reached).
    pub patch_applications: u64,
    /// Learning pages traced during distributed learning.
    pub learning_pages: u64,
    /// Checkpoints taken by the coordinator.
    pub snapshots_taken: u64,
    /// Encoded size of the most recent checkpoint, in bytes.
    pub snapshot_bytes_last: u64,
    /// Encoded bytes across all checkpoints taken.
    pub snapshot_bytes_total: u64,
    /// Members bootstrapped from a full snapshot (warm joins + full resyncs).
    pub bootstraps: u64,
    /// Snapshot bytes shipped by bootstraps.
    pub bootstrap_bytes_total: u64,
    /// Members advanced by a shard-keyed delta instead of a full snapshot.
    pub delta_syncs: u64,
    /// Delta bytes actually shipped.
    pub delta_bytes_total: u64,
    /// Full-snapshot bytes the deltas stood in for.
    pub delta_full_bytes_total: u64,
    /// Deltas cut by the coordinator.
    pub delta_cuts: u64,
    /// Wall-clock time spent cutting deltas.
    pub delta_cut_time: Duration,
    /// Dirty store shards carried by the most recent delta cut.
    pub dirty_shards_last: u64,
    /// Dirty store shards summed across all delta cuts.
    pub dirty_shards_total: u64,
    /// Shards touched by patch-plan application since the most recent cut's
    /// base — the configuration-change footprint the plan stamps record (0 when
    /// the dirty tracker did not cover that base).
    pub plan_dirty_shards_last: u64,
    /// Member-proportional state bytes, from the most recent residency event.
    pub member_state_bytes_last: u64,
    /// Shared (amortized) state bytes, from the most recent residency event.
    pub shared_state_bytes_last: u64,
    /// Members covered by the most recent residency event.
    pub residency_members_last: u64,
    /// Manager-tree push tiers recorded.
    pub tier_pushes: u64,
    /// Depth of the most recent tree push (0 = flat, no tree configured).
    pub tier_depth_last: u64,
    /// Distinct delta payloads cut for tier links (see [`MetricEvent::TierSync`]).
    pub tier_delta_cuts: u64,
    /// Bytes shipped across tier links (payload size × receivers, summed).
    pub tier_sync_bytes: u64,
    /// Syncs that read root state directly while the tier plane was active.
    pub root_sync_bypass_count: u64,
    /// Members that crashed with state loss.
    pub crashes: u64,
    /// Members that rejoined after a crash.
    pub rejoins: u64,
    /// Members that joined mid-run with no state transfer.
    pub cold_joins: u64,
    /// Members that joined mid-run from the coordinator's snapshot.
    pub warm_joins: u64,
    /// Envelopes handed to the transport backend (data + acks + retransmits).
    pub envelopes_sent: u64,
    /// Envelopes the backend delivered to a peer's inbox.
    pub envelopes_delivered: u64,
    /// Envelopes the chaos plane dropped outright.
    pub envelopes_dropped: u64,
    /// Envelopes the chaos plane duplicated.
    pub envelopes_duplicated: u64,
    /// Unacked envelopes re-sent by the retransmit loop.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by the idempotence window.
    pub duplicates_suppressed: u64,
    /// Envelopes swallowed by active partitions.
    pub partition_drops: u64,
    /// Members rolled back after missing a patch push (transport desyncs).
    pub transport_desyncs: u64,
    /// Transport-desynced members brought back by the background resync pass.
    pub transport_resyncs: u64,
    /// Of those resyncs, how many shipped a shard-keyed delta instead of a
    /// full snapshot.
    pub transport_delta_resyncs: u64,
    /// Epochs from each (re)joining member's sync to its first completed
    /// presentation — the late-joiner time-to-immunity samples.
    joiner_immunity_epochs: Vec<u64>,
    /// Immunity timelines per failure location.
    immunity: BTreeMap<Addr, ImmunityRecord>,
}

impl FleetMetrics {
    /// Fold one event into the aggregate.
    pub fn apply(&mut self, event: &MetricEvent) {
        match event {
            MetricEvent::Epoch {
                pages,
                execution,
                manager,
            } => {
                self.epochs += 1;
                self.pages_processed += pages;
                self.execution_time += *execution;
                self.manager_time += *manager;
            }
            MetricEvent::ManagerFanout { fanout } => {
                self.manager_fanout_time += *fanout;
            }
            MetricEvent::PatchPush {
                pushes,
                members,
                elapsed,
            } => {
                self.patch_pushes += pushes;
                self.patch_applications += pushes * members;
                self.patch_propagation_time += *elapsed;
            }
            MetricEvent::FirstFailure { location, epoch } => {
                self.immunity.entry(*location).or_insert(ImmunityRecord {
                    first_failure_epoch: *epoch,
                    protected_epoch: None,
                });
            }
            MetricEvent::Protected { location, epoch } => {
                if let Some(record) = self.immunity.get_mut(location) {
                    record.protected_epoch.get_or_insert(*epoch);
                }
            }
            MetricEvent::LearningPages { pages } => {
                self.learning_pages += pages;
            }
            MetricEvent::Snapshot { bytes } => {
                self.snapshots_taken += 1;
                self.snapshot_bytes_last = *bytes;
                self.snapshot_bytes_total += bytes;
            }
            MetricEvent::Bootstrap { bytes } => {
                self.bootstraps += 1;
                self.bootstrap_bytes_total += bytes;
            }
            MetricEvent::DeltaSync {
                delta_bytes,
                full_bytes,
            } => {
                self.delta_syncs += 1;
                self.delta_bytes_total += delta_bytes;
                self.delta_full_bytes_total += full_bytes;
            }
            MetricEvent::DeltaCut {
                dirty_shards,
                plan_shards,
                elapsed,
            } => {
                self.delta_cuts += 1;
                self.delta_cut_time += *elapsed;
                self.dirty_shards_last = *dirty_shards;
                self.dirty_shards_total += dirty_shards;
                self.plan_dirty_shards_last = *plan_shards;
            }
            MetricEvent::JoinerImmunity { epochs } => {
                self.joiner_immunity_epochs.push(*epochs);
            }
            MetricEvent::MemberResidency {
                resident_bytes,
                shared_bytes,
                members,
            } => {
                self.member_state_bytes_last = *resident_bytes;
                self.shared_state_bytes_last = *shared_bytes;
                self.residency_members_last = *members;
            }
            MetricEvent::TierPush { tier, .. } => {
                self.tier_pushes += 1;
                self.tier_depth_last = self.tier_depth_last.max(*tier);
            }
            MetricEvent::TierSync {
                bytes,
                receivers,
                delta,
                ..
            } => {
                self.tier_sync_bytes += bytes * receivers;
                if *delta {
                    self.tier_delta_cuts += 1;
                }
            }
            MetricEvent::RootSyncBypass => self.root_sync_bypass_count += 1,
            MetricEvent::Transport {
                sent,
                delivered,
                dropped,
                duplicated,
                retransmits,
                duplicates_suppressed,
                partition_dropped,
            } => {
                self.envelopes_sent += sent;
                self.envelopes_delivered += delivered;
                self.envelopes_dropped += dropped;
                self.envelopes_duplicated += duplicated;
                self.retransmits += retransmits;
                self.duplicates_suppressed += duplicates_suppressed;
                self.partition_drops += partition_dropped;
            }
            MetricEvent::TransportDesync { members } => {
                self.transport_desyncs += members;
            }
            MetricEvent::TransportResync { delta } => {
                self.transport_resyncs += 1;
                if *delta {
                    self.transport_delta_resyncs += 1;
                }
            }
            MetricEvent::Crash => self.crashes += 1,
            MetricEvent::Rejoin => self.rejoins += 1,
            MetricEvent::ColdJoin => self.cold_joins += 1,
            MetricEvent::WarmJoin => self.warm_joins += 1,
        }
    }

    /// Fold a whole stream from scratch. Over the fleet's metric log, this
    /// reproduces the fleet's incrementally-folded aggregate exactly (asserted by
    /// `tests/obs_accounting.rs`).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a MetricEvent>) -> Self {
        let mut metrics = FleetMetrics::default();
        for event in events {
            metrics.apply(event);
        }
        metrics
    }

    /// Mean wall-clock time per delta cut, in microseconds.
    pub fn mean_delta_cut_micros(&self) -> f64 {
        if self.delta_cuts == 0 {
            0.0
        } else {
            self.delta_cut_time.as_secs_f64() * 1e6 / self.delta_cuts as f64
        }
    }

    /// The late-joiner time-to-immunity samples (epochs from sync to first
    /// completed presentation), in sync order.
    pub fn joiner_immunity_epochs(&self) -> &[u64] {
        &self.joiner_immunity_epochs
    }

    /// The worst late-joiner time-to-immunity observed, in epochs.
    pub fn max_joiner_immunity_epochs(&self) -> Option<u64> {
        self.joiner_immunity_epochs.iter().copied().max()
    }

    /// How many times smaller the shipped deltas were than the full snapshots they
    /// replaced (1.0 when no delta sync has happened).
    pub fn delta_savings(&self) -> f64 {
        if self.delta_bytes_total == 0 || self.delta_full_bytes_total == 0 {
            1.0
        } else {
            self.delta_full_bytes_total as f64 / self.delta_bytes_total as f64
        }
    }

    /// The immunity timeline for `location`, if a failure was ever reported there.
    pub fn immunity(&self, location: Addr) -> Option<ImmunityRecord> {
        self.immunity.get(&location).copied()
    }

    /// All immunity timelines.
    pub fn immunity_records(&self) -> impl Iterator<Item = (Addr, ImmunityRecord)> + '_ {
        self.immunity.iter().map(|(a, r)| (*a, *r))
    }

    /// Total member-state cost per member, in bytes: the member-proportional
    /// state plus the shared state amortized over the fleet, from the most
    /// recent residency accounting. 0.0 before any epoch has run.
    pub fn bytes_per_member(&self) -> f64 {
        if self.residency_members_last == 0 {
            0.0
        } else {
            (self.member_state_bytes_last + self.shared_state_bytes_last) as f64
                / self.residency_members_last as f64
        }
    }

    /// Share of state syncs (bootstraps + delta syncs) that read root state
    /// directly while the tier plane was active. 0.0 when no sync has happened
    /// — and held at exactly 0.0 by the tree-sync tests whenever tiers exist.
    pub fn root_sync_bypass_share(&self) -> f64 {
        let syncs = self.bootstraps + self.delta_syncs;
        if syncs == 0 {
            0.0
        } else {
            self.root_sync_bypass_count as f64 / syncs as f64
        }
    }

    /// Sustained throughput of the execution phase, in pages per second.
    pub fn pages_per_second(&self) -> f64 {
        let secs = self.execution_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.pages_processed as f64 / secs
        }
    }

    /// Mean wall-clock patch-propagation latency per push (time to reach the whole
    /// fleet).
    pub fn mean_push_latency(&self) -> Option<Duration> {
        if self.patch_pushes == 0 {
            None
        } else {
            Some(self.patch_propagation_time / self.patch_pushes as u32)
        }
    }

    /// Mean manager-plane time per epoch, in milliseconds.
    pub fn manager_ms_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.manager_time.as_secs_f64() * 1e3 / self.epochs as f64
        }
    }

    /// Render the aggregate as a JSON object (hand-rolled, matching the
    /// workspace's dependency-free JSON style). Key names are prefixed
    /// distinctly from the gated throughput keys in the bench files.
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\n{indent}  \"epochs\": {},\n{indent}  \"pages_processed\": {},\n\
             {indent}  \"execution_ms\": {:.3},\n{indent}  \"manager_ms\": {:.3},\n\
             {indent}  \"manager_fanout_ms\": {:.3},\n\
             {indent}  \"patch_propagation_ms\": {:.3},\n{indent}  \"patch_pushes\": {},\n\
             {indent}  \"patch_applications\": {},\n{indent}  \"learning_pages\": {},\n\
             {indent}  \"snapshots_taken\": {},\n{indent}  \"snapshot_bytes_last\": {},\n\
             {indent}  \"snapshot_bytes_total\": {},\n{indent}  \"bootstraps\": {},\n\
             {indent}  \"bootstrap_bytes_total\": {},\n{indent}  \"delta_syncs\": {},\n\
             {indent}  \"delta_bytes_total\": {},\n{indent}  \"delta_full_bytes_total\": {},\n\
             {indent}  \"delta_cuts\": {},\n{indent}  \"delta_cut_time_us\": {:.1},\n\
             {indent}  \"dirty_shards_last\": {},\n\
             {indent}  \"dirty_shards_total\": {},\n{indent}  \"plan_dirty_shards_last\": {},\n\
             {indent}  \"member_state_bytes\": {},\n{indent}  \"shared_state_bytes\": {},\n\
             {indent}  \"bytes_per_member\": {:.1},\n{indent}  \"tier_pushes\": {},\n\
             {indent}  \"tier_depth\": {},\n\
             {indent}  \"tier_delta_cuts\": {},\n{indent}  \"tier_sync_bytes\": {},\n\
             {indent}  \"root_sync_bypass_count\": {},\n\
             {indent}  \"root_sync_bypass_share\": {:.3},\n\
             {indent}  \"crashes\": {},\n{indent}  \"rejoins\": {},\n\
             {indent}  \"cold_joins\": {},\n{indent}  \"warm_joins\": {},\n\
             {indent}  \"envelopes_sent\": {},\n{indent}  \"envelopes_delivered\": {},\n\
             {indent}  \"envelopes_dropped\": {},\n{indent}  \"envelopes_duplicated\": {},\n\
             {indent}  \"retransmits\": {},\n{indent}  \"duplicates_suppressed\": {},\n\
             {indent}  \"partition_drops\": {},\n{indent}  \"transport_desyncs\": {},\n\
             {indent}  \"transport_resyncs\": {},\n{indent}  \"transport_delta_resyncs\": {}\n\
             {indent}}}",
            self.epochs,
            self.pages_processed,
            self.execution_time.as_secs_f64() * 1e3,
            self.manager_time.as_secs_f64() * 1e3,
            self.manager_fanout_time.as_secs_f64() * 1e3,
            self.patch_propagation_time.as_secs_f64() * 1e3,
            self.patch_pushes,
            self.patch_applications,
            self.learning_pages,
            self.snapshots_taken,
            self.snapshot_bytes_last,
            self.snapshot_bytes_total,
            self.bootstraps,
            self.bootstrap_bytes_total,
            self.delta_syncs,
            self.delta_bytes_total,
            self.delta_full_bytes_total,
            self.delta_cuts,
            self.delta_cut_time.as_secs_f64() * 1e6,
            self.dirty_shards_last,
            self.dirty_shards_total,
            self.plan_dirty_shards_last,
            self.member_state_bytes_last,
            self.shared_state_bytes_last,
            self.bytes_per_member(),
            self.tier_pushes,
            self.tier_depth_last,
            self.tier_delta_cuts,
            self.tier_sync_bytes,
            self.root_sync_bypass_count,
            self.root_sync_bypass_share(),
            self.crashes,
            self.rejoins,
            self.cold_joins,
            self.warm_joins,
            self.envelopes_sent,
            self.envelopes_delivered,
            self.envelopes_dropped,
            self.envelopes_duplicated,
            self.retransmits,
            self.duplicates_suppressed,
            self.partition_drops,
            self.transport_desyncs,
            self.transport_resyncs,
            self.transport_delta_resyncs,
        ));
        out
    }
}

impl fmt::Display for FleetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet metrics: {} epochs, {} pages ({:.0} pages/sec execution)",
            self.epochs,
            self.pages_processed,
            self.pages_per_second()
        )?;
        writeln!(
            f,
            "  time: execution {:?}, manager {:?}, patch propagation {:?}",
            self.execution_time, self.manager_time, self.patch_propagation_time
        )?;
        writeln!(
            f,
            "  manager plane: {:.3} ms/epoch",
            self.manager_ms_per_epoch()
        )?;
        writeln!(
            f,
            "  patches: {} pushes, {} member applications{}",
            self.patch_pushes,
            self.patch_applications,
            match self.mean_push_latency() {
                Some(lat) => format!(", mean push latency {lat:?}"),
                None => String::new(),
            }
        )?;
        if self.residency_members_last > 0 {
            writeln!(
                f,
                "  member state: {} bytes resident + {} shared across {} members \
                 ({:.1} bytes/member)",
                self.member_state_bytes_last,
                self.shared_state_bytes_last,
                self.residency_members_last,
                self.bytes_per_member()
            )?;
        }
        if self.tier_pushes > 0 {
            writeln!(
                f,
                "  manager tree: {} push tier(s), depth {}",
                self.tier_pushes, self.tier_depth_last
            )?;
        }
        if self.tier_sync_bytes > 0 || self.root_sync_bypass_count > 0 {
            writeln!(
                f,
                "  tier sync: {} delta cut(s), {} bytes across tier links, \
                 {} root bypass(es) ({:.1}% of syncs)",
                self.tier_delta_cuts,
                self.tier_sync_bytes,
                self.root_sync_bypass_count,
                self.root_sync_bypass_share() * 100.0
            )?;
        }
        if self.snapshots_taken > 0 || self.bootstraps > 0 || self.delta_syncs > 0 {
            writeln!(
                f,
                "  durability: {} checkpoint(s) (last {} bytes), {} bootstrap(s) ({} bytes), \
                 {} delta sync(s) ({} vs {} full bytes, {:.1}x saved)",
                self.snapshots_taken,
                self.snapshot_bytes_last,
                self.bootstraps,
                self.bootstrap_bytes_total,
                self.delta_syncs,
                self.delta_bytes_total,
                self.delta_full_bytes_total,
                self.delta_savings()
            )?;
        }
        if self.delta_cuts > 0 {
            writeln!(
                f,
                "  delta cuts: {}, mean {:.1}µs, last touched {} dirty shard(s) \
                 ({} plan-stamped)",
                self.delta_cuts,
                self.mean_delta_cut_micros(),
                self.dirty_shards_last,
                self.plan_dirty_shards_last
            )?;
        }
        if self.envelopes_sent > 0 {
            writeln!(
                f,
                "  transport: {} envelope(s) sent, {} delivered, {} retransmit(s), \
                 {} duplicate(s) suppressed",
                self.envelopes_sent,
                self.envelopes_delivered,
                self.retransmits,
                self.duplicates_suppressed
            )?;
        }
        if self.envelopes_dropped > 0 || self.partition_drops > 0 || self.transport_desyncs > 0 {
            writeln!(
                f,
                "  chaos: {} drop(s), {} duplicated, {} partition drop(s); {} desync(s), \
                 {} resync(s) ({} by delta)",
                self.envelopes_dropped,
                self.envelopes_duplicated,
                self.partition_drops,
                self.transport_desyncs,
                self.transport_resyncs,
                self.transport_delta_resyncs
            )?;
        }
        if self.crashes > 0 || self.cold_joins > 0 || self.warm_joins > 0 {
            writeln!(
                f,
                "  churn: {} crash(es), {} rejoin(s), {} warm join(s), {} cold join(s){}",
                self.crashes,
                self.rejoins,
                self.warm_joins,
                self.cold_joins,
                match self.max_joiner_immunity_epochs() {
                    Some(max) => format!(", joiner time-to-immunity <= {max} epoch(s)"),
                    None => String::new(),
                }
            )?;
        }
        for (addr, record) in &self.immunity {
            match record.epochs_to_immunity() {
                Some(epochs) => writeln!(
                    f,
                    "  failure 0x{addr:x}: immune after {epochs} epoch(s) (first seen epoch {})",
                    record.first_failure_epoch
                )?,
                None => writeln!(
                    f,
                    "  failure 0x{addr:x}: not yet immune (first seen epoch {})",
                    record.first_failure_epoch
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immunity_timeline_tracks_first_failure_and_protection() {
        let mut m = FleetMetrics::default();
        m.apply(&MetricEvent::FirstFailure {
            location: 0x40,
            epoch: 3,
        });
        // Later reports don't move the origin.
        m.apply(&MetricEvent::FirstFailure {
            location: 0x40,
            epoch: 5,
        });
        assert_eq!(m.immunity(0x40).unwrap().first_failure_epoch, 3);
        assert_eq!(m.immunity(0x40).unwrap().epochs_to_immunity(), None);
        m.apply(&MetricEvent::Protected {
            location: 0x40,
            epoch: 7,
        });
        // Protection epoch is sticky.
        m.apply(&MetricEvent::Protected {
            location: 0x40,
            epoch: 9,
        });
        assert_eq!(m.immunity(0x40).unwrap().epochs_to_immunity(), Some(4));
        assert!(m.immunity(0x99).is_none());
    }

    #[test]
    fn throughput_and_latency_aggregate() {
        let mut m = FleetMetrics::default();
        let epoch = MetricEvent::Epoch {
            pages: 500,
            execution: Duration::from_millis(250),
            manager: Duration::from_millis(10),
        };
        m.apply(&epoch);
        m.apply(&epoch);
        assert_eq!(m.pages_processed, 1000);
        assert!((m.pages_per_second() - 2000.0).abs() < 1.0);
        m.apply(&MetricEvent::PatchPush {
            pushes: 2,
            members: 1000,
            elapsed: Duration::from_millis(8),
        });
        assert_eq!(m.patch_applications, 2000);
        assert_eq!(m.mean_push_latency(), Some(Duration::from_millis(4)));
    }

    #[test]
    fn from_events_reproduces_an_incremental_fold() {
        let events = vec![
            MetricEvent::Epoch {
                pages: 100,
                execution: Duration::from_millis(5),
                manager: Duration::from_millis(1),
            },
            MetricEvent::ManagerFanout {
                fanout: Duration::from_micros(450),
            },
            MetricEvent::Snapshot { bytes: 2048 },
            MetricEvent::DeltaCut {
                dirty_shards: 3,
                plan_shards: 1,
                elapsed: Duration::from_micros(40),
            },
            MetricEvent::Crash,
            MetricEvent::Rejoin,
            MetricEvent::WarmJoin,
            MetricEvent::JoinerImmunity { epochs: 2 },
            MetricEvent::LearningPages { pages: 64 },
        ];
        let mut incremental = FleetMetrics::default();
        for e in &events {
            incremental.apply(e);
        }
        let replayed = FleetMetrics::from_events(&events);
        assert_eq!(incremental, replayed);
        assert_eq!(replayed.crashes, 1);
        assert_eq!(replayed.learning_pages, 64);
    }

    #[test]
    fn json_dump_has_churn_and_delta_counters() {
        let mut m = FleetMetrics::default();
        m.apply(&MetricEvent::Crash);
        m.apply(&MetricEvent::DeltaCut {
            dirty_shards: 2,
            plan_shards: 0,
            elapsed: Duration::from_micros(10),
        });
        let json = m.to_json("  ");
        assert!(json.contains("\"crashes\": 1"));
        assert!(json.contains("\"delta_cuts\": 1"));
        // Distinct from the gated bench keys: the gated files use
        // "pages_per_second_sequential"/"_parallel"; this dump must not
        // introduce a bare colliding occurrence of those exact keys.
        assert!(!json.contains("\"pages_per_second_sequential\""));
    }
}
