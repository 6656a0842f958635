//! Delta snapshots: what changed between two checkpoints, keyed by (epoch, shard).
//!
//! A member that already holds the epoch-`B` snapshot should not re-download the
//! whole state to reach epoch `T`; it needs only the entries that changed. A
//! [`DeltaSnapshot`] carries exactly that: per *store shard*, the check-address
//! entries that were added or modified between the base and target epochs; plus the
//! addresses whose entries disappeared, the target's learning counters, newly
//! discovered procedures, and the target's net patch plan.
//!
//! The shard keying uses the **same** [`ShardRouter`] as the live
//! `ShardedInvariantStore` and the manager plane — the delta's section table is
//! literally keyed by `SHARD_SECTION_BASE + shard`, and
//! [`Snapshot::apply_delta`](crate::Snapshot::apply_delta) re-validates every
//! entry's routing on apply, so a shard-count or hash change can never silently
//! scatter entries across the wrong shards.

use crate::codec;
use crate::error::StoreError;
use crate::snapshot::{Snapshot, SECTION_PLAN};
use crate::wire::{read_container, require_section, write_container, Reader, Writer};
use cv_core::PatchPlan;
use cv_inference::{
    DirtyEpochs, DirtySet, Invariant, InvariantDatabase, LearningStats, ShardRouter,
};
use cv_isa::Addr;
use std::collections::BTreeMap;

/// Magic bytes opening a delta container.
pub const DELTA_MAGIC: [u8; 4] = *b"CVDL";

/// Section id of the delta META section.
pub const SECTION_DELTA_META: u32 = 16;
/// Section id of the removed-addresses section.
pub const SECTION_REMOVED: u32 = 17;
/// Section id of the target learning-counter section.
pub const SECTION_STATS: u32 = 18;
/// Section id of the newly discovered procedure entries.
pub const SECTION_PROCS_ADDED: u32 = 19;
/// Per-shard entry sections use id `SHARD_SECTION_BASE + shard`.
pub const SHARD_SECTION_BASE: u32 = 0x100;

/// The changed entries owned by one store shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDelta {
    /// The shard index (under the snapshot's [`ShardRouter`]).
    pub shard: u32,
    /// Added or modified `(check address, invariants)` entries, ascending.
    pub entries: Vec<(Addr, Vec<Invariant>)>,
}

/// Everything that changed between a base snapshot and a target snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSnapshot {
    /// The epoch of the snapshot this delta was cut against.
    pub base_epoch: u64,
    /// The epoch the delta advances to.
    pub target_epoch: u64,
    /// The shard count both snapshots share.
    pub shard_count: u32,
    /// Addresses whose entries were dropped between base and target.
    pub removed: Vec<Addr>,
    /// Dirty shards only, ascending shard index.
    pub shards: Vec<ShardDelta>,
    /// The target's learning counters (replace the base's wholesale).
    pub stats: LearningStats,
    /// Procedure entries discovered since the base.
    pub procs_added: Vec<Addr>,
    /// The target's net patch plan (replaces the base's).
    pub plan: PatchPlan,
}

impl DeltaSnapshot {
    /// Diff two snapshots. Panics if their shard counts differ — a delta only makes
    /// sense under one routing.
    pub fn diff(base: &Snapshot, target: &Snapshot) -> DeltaSnapshot {
        assert_eq!(
            base.shard_count, target.shard_count,
            "snapshots must share one shard routing"
        );
        let _span = cv_obs::recorder()
            .span("store.delta_diff", "store")
            .arg("base_epoch", base.epoch)
            .arg("target_epoch", target.epoch);
        let router = ShardRouter::new(target.shard_count as usize);

        let base_entries: BTreeMap<Addr, &[Invariant]> = base.invariants.entries().collect();
        let mut removed: Vec<Addr> = Vec::new();
        let mut dirty: BTreeMap<u32, Vec<(Addr, Vec<Invariant>)>> = BTreeMap::new();
        let mut target_addrs: std::collections::BTreeSet<Addr> = Default::default();
        for (addr, invs) in target.invariants.entries() {
            target_addrs.insert(addr);
            if base_entries.get(&addr).copied() != Some(invs) {
                dirty
                    .entry(router.shard_of(addr) as u32)
                    .or_default()
                    .push((addr, invs.to_vec()));
            }
        }
        for addr in base_entries.keys() {
            if !target_addrs.contains(addr) {
                removed.push(*addr);
            }
        }

        let base_procs: std::collections::BTreeSet<Addr> =
            base.procedures.iter().copied().collect();
        let procs_added = target
            .procedures
            .iter()
            .copied()
            .filter(|p| !base_procs.contains(p))
            .collect();

        DeltaSnapshot {
            base_epoch: base.epoch,
            target_epoch: target.epoch,
            shard_count: target.shard_count,
            removed,
            shards: dirty
                .into_iter()
                .map(|(shard, entries)| ShardDelta { shard, entries })
                .collect(),
            stats: target.invariants.stats,
            procs_added,
            plan: target.plan.clone(),
        }
    }

    /// Number of dirty shards the delta carries.
    pub fn dirty_shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of added-or-modified entries across all dirty shards.
    pub fn changed_entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// True if base and target states are identical (only the epoch advances).
    pub fn is_identity(&self) -> bool {
        self.removed.is_empty() && self.shards.is_empty() && self.procs_added.is_empty()
    }

    /// Validate this delta's shard routing against an applier's shard count:
    /// the shard counts must agree and every entry must route (under
    /// [`ShardRouter`]) to the shard section that carries it. `apply_delta`
    /// runs this before mutating anything; intermediate tier coordinators run
    /// it on relayed deltas so a cross-tier misroute is caught at the tier
    /// that received it, not only at the root.
    pub fn validate_routing(&self, shard_count: u32) -> Result<(), StoreError> {
        if self.shard_count != shard_count {
            return Err(StoreError::ShardCountMismatch {
                delta: self.shard_count,
                snapshot: shard_count,
            });
        }
        let router = ShardRouter::new(shard_count as usize);
        for shard in &self.shards {
            for (addr, _) in &shard.entries {
                if router.shard_of(*addr) as u32 != shard.shard {
                    return Err(StoreError::Corrupt {
                        context: "delta entry routed to the wrong shard",
                    });
                }
            }
        }
        Ok(())
    }

    /// Encode into the versioned container format (same section-table machinery as
    /// full snapshots; shard payloads keyed by `SHARD_SECTION_BASE + shard`).
    pub fn encode(&self) -> Vec<u8> {
        let span = cv_obs::recorder()
            .span("store.delta_encode", "store")
            .arg("base_epoch", self.base_epoch)
            .arg("target_epoch", self.target_epoch)
            .arg("dirty_shards", self.shards.len() as u64);
        let mut meta = Writer::new();
        meta.u64(self.base_epoch);
        meta.u64(self.target_epoch);
        meta.u32(self.shard_count);

        let mut removed = Writer::new();
        removed.u32(self.removed.len() as u32);
        removed.u32_column(&self.removed);

        let mut stats = Writer::new();
        codec::write_stats(&mut stats, &self.stats);

        let mut procs = Writer::new();
        procs.u32(self.procs_added.len() as u32);
        procs.u32_column(&self.procs_added);

        let mut plan = Writer::new();
        codec::write_plan(&mut plan, &self.plan);

        let mut sections = vec![
            (SECTION_DELTA_META, meta.into_bytes()),
            (SECTION_REMOVED, removed.into_bytes()),
            (SECTION_STATS, stats.into_bytes()),
            (SECTION_PROCS_ADDED, procs.into_bytes()),
            (SECTION_PLAN, plan.into_bytes()),
        ];
        for shard in &self.shards {
            let mut w = Writer::new();
            let entries: Vec<(Addr, &[Invariant])> = shard
                .entries
                .iter()
                .map(|(a, v)| (*a, v.as_slice()))
                .collect();
            codec::write_entries(&mut w, &entries);
            sections.push((SHARD_SECTION_BASE + shard.shard, w.into_bytes()));
        }
        let bytes = write_container(DELTA_MAGIC, crate::FORMAT_VERSION, &sections);
        span.arg("bytes", bytes.len() as u64).finish();
        bytes
    }

    /// Decode a delta container, validating — with the shared [`ShardRouter`] —
    /// that every entry actually routes to the shard section that carries it.
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot, StoreError> {
        let _span = cv_obs::recorder()
            .span("store.delta_decode", "store")
            .arg("bytes", bytes.len() as u64);
        let sections = read_container(bytes, DELTA_MAGIC, crate::FORMAT_VERSION)?;

        let mut r = Reader::new(require_section(&sections, SECTION_DELTA_META)?);
        let base_epoch = r.u64("delta base epoch")?;
        let target_epoch = r.u64("delta target epoch")?;
        let shard_count = r.u32("delta shard count")?;
        if shard_count == 0 {
            return Err(StoreError::Corrupt {
                context: "delta shard count is zero",
            });
        }
        let router = ShardRouter::new(shard_count as usize);

        let mut r = Reader::new(require_section(&sections, SECTION_REMOVED)?);
        let n_removed = r.len_u32(4, "removed count")?;
        let removed = r.u32_column(n_removed, "removed addresses")?;

        let mut r = Reader::new(require_section(&sections, SECTION_STATS)?);
        let stats = codec::read_stats(&mut r)?;

        let mut r = Reader::new(require_section(&sections, SECTION_PROCS_ADDED)?);
        let n_procs = r.len_u32(4, "added procedure count")?;
        let procs_added = r.u32_column(n_procs, "added procedure entries")?;

        let mut r = Reader::new(require_section(&sections, SECTION_PLAN)?);
        let plan = codec::read_plan(&mut r)?;

        let mut shards = Vec::new();
        for (id, payload) in &sections {
            if *id < SHARD_SECTION_BASE {
                continue;
            }
            let shard = id - SHARD_SECTION_BASE;
            if shard >= shard_count {
                return Err(StoreError::Corrupt {
                    context: "shard section index out of range",
                });
            }
            let mut r = Reader::new(payload);
            let entries = codec::read_entries(&mut r)?;
            if !r.is_exhausted() {
                return Err(StoreError::Corrupt {
                    context: "trailing bytes after a shard section",
                });
            }
            if entries.is_empty() {
                // A shard section *claims* the shard is dirty; carrying no entries
                // means the claim and the payload disagree — reject rather than
                // let an apply silently treat the shard as clean.
                return Err(StoreError::Corrupt {
                    context: "dirty shard section carries no entries",
                });
            }
            for (addr, _) in &entries {
                if router.shard_of(*addr) as u32 != shard {
                    return Err(StoreError::Corrupt {
                        context: "entry routed to the wrong shard section",
                    });
                }
            }
            shards.push(ShardDelta { shard, entries });
        }
        shards.sort_by_key(|s| s.shard);
        if shards.windows(2).any(|w| w[0].shard == w[1].shard) {
            return Err(StoreError::Corrupt {
                context: "duplicate shard section",
            });
        }

        Ok(DeltaSnapshot {
            base_epoch,
            target_epoch,
            shard_count,
            removed,
            shards,
            stats,
            procs_added,
            plan,
        })
    }
}

/// Cuts a [`DeltaSnapshot`] from a base checkpoint and the live state — the one
/// cutter every production delta goes through.
///
/// [`DeltaSnapshot::diff`] costs O(database): it walks every entry of two full
/// snapshots even when one address changed. `DeltaBuilder` re-compares only the
/// *candidate* addresses against the live database. When the base's dirty-epoch
/// tracker covers it, the candidates are
/// [`DirtyEpochs::dirty_since`](cv_inference::DirtyEpochs::dirty_since) — a
/// superset of the addresses whose entries may differ from the base — and the cut
/// costs O(changed · log database). When the base predates the tracker's floor,
/// the candidates are every address in base ∪ live and every live procedure: the
/// full walk, O(database) like the diff, taken only by bases older than a
/// wholesale state install.
///
/// **Byte-identity contract**: the candidates are always a superset of the changed
/// addresses, so the cut delta is byte-for-byte the delta
/// `DeltaSnapshot::diff(base, target)` would produce from the materialized target
/// — same entries, same order, same encoding — proven by the `delta_incremental`
/// proptest suite over randomized epoch histories with resets. All wire guarantees
/// (shard-routing validation, apply semantics, the golden fixture) therefore hold
/// unchanged, and `diff` is only the oracle the tests compare against.
#[derive(Debug)]
pub struct DeltaBuilder<'a> {
    base: &'a Snapshot,
    /// What may differ from the base, or `None` when the tracker does not cover
    /// it and every address is a candidate.
    dirty: Option<DirtySet>,
}

impl<'a> DeltaBuilder<'a> {
    /// A builder cutting deltas against `base`, asking `tracker` what changed
    /// since it. Panics if the tracker's shard keying disagrees with the base's —
    /// one routing per delta, same rule as [`DeltaSnapshot::diff`].
    pub fn new(base: &'a Snapshot, tracker: &DirtyEpochs) -> Self {
        assert_eq!(
            base.shard_count as usize,
            tracker.shard_count(),
            "dirty tracker and base snapshot must share one shard routing"
        );
        DeltaBuilder {
            base,
            dirty: tracker.dirty_since(base.epoch),
        }
    }

    /// Shards stamped by patch-plan application since the base — the
    /// configuration-change footprint. 0 when the tracker does not cover the
    /// base: its plan stamps are gone.
    pub fn plan_shards(&self) -> usize {
        self.dirty
            .as_ref()
            .map_or(0, |dirty| dirty.plan_shards.len())
    }

    /// Cut the delta advancing the base to the live state: `invariants` is the
    /// coordinator's current database (its stats ride along wholesale),
    /// `procedures` its discovered procedure entries in snapshot order (read only
    /// by the full walk; a covered base takes the tracker's proc stamps), and
    /// `plan` is the current net patch plan (also carried wholesale, exactly as
    /// `diff` does).
    pub fn cut(
        &self,
        target_epoch: u64,
        invariants: &InvariantDatabase,
        procedures: impl IntoIterator<Item = Addr>,
        plan: PatchPlan,
    ) -> DeltaSnapshot {
        let span = cv_obs::recorder()
            .span("store.delta_cut", "store")
            .arg("base_epoch", self.base.epoch)
            .arg("target_epoch", target_epoch);
        let full;
        let candidates = match &self.dirty {
            Some(dirty) => dirty,
            None => {
                full = self.every_address(invariants, procedures);
                &full
            }
        };
        let _span = span.arg("candidates", candidates.dirty_addr_count() as u64);
        let mut removed: Vec<Addr> = Vec::new();
        let mut shards: Vec<ShardDelta> = Vec::new();
        for (shard, addrs) in candidates.per_shard.iter().enumerate() {
            let mut entries: Vec<(Addr, Vec<Invariant>)> = Vec::new();
            for &addr in addrs {
                // The same predicate `diff` applies to *every* address, evaluated
                // only for the candidates: any other address is unchanged.
                let base_entry = self.base.invariants.entry(addr);
                match invariants.entry(addr) {
                    Some(target_entry) => {
                        if base_entry != Some(target_entry) {
                            entries.push((addr, target_entry.to_vec()));
                        }
                    }
                    None => {
                        if base_entry.is_some() {
                            removed.push(addr);
                        }
                    }
                }
            }
            if !entries.is_empty() {
                shards.push(ShardDelta {
                    shard: shard as u32,
                    entries,
                });
            }
        }
        // Per-shard entry lists are ascending (candidates are sorted per shard);
        // removals must be *globally* ascending like the diff's base-order walk.
        removed.sort_unstable();

        let procs_added: Vec<Addr> = candidates
            .procs
            .iter()
            .copied()
            .filter(|p| self.base.procedures.binary_search(p).is_err())
            .collect();

        DeltaSnapshot {
            base_epoch: self.base.epoch,
            target_epoch,
            shard_count: self.base.shard_count,
            removed,
            shards,
            stats: invariants.stats,
            procs_added,
            plan,
        }
    }

    /// The full walk's candidates: every address in base ∪ live, routed to its
    /// shard in ascending order, and every live procedure.
    fn every_address(
        &self,
        invariants: &InvariantDatabase,
        procedures: impl IntoIterator<Item = Addr>,
    ) -> DirtySet {
        let router = ShardRouter::new(self.base.shard_count as usize);
        let mut addrs: Vec<Addr> = self
            .base
            .invariants
            .addrs()
            .chain(invariants.addrs())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let mut per_shard = vec![Vec::new(); router.shard_count()];
        for addr in addrs {
            per_shard[router.shard_of(addr)].push(addr);
        }
        DirtySet {
            per_shard,
            procs: procedures.into_iter().collect(),
            plan_shards: Vec::new(),
        }
    }
}

impl Snapshot {
    /// Advance this snapshot in place by applying a delta cut against it.
    ///
    /// Rejects (leaving `self` only partially un-advanced is impossible — routing
    /// and epochs are validated before any mutation) deltas whose base epoch or
    /// shard routing do not match.
    pub fn apply_delta(&mut self, delta: &DeltaSnapshot) -> Result<(), StoreError> {
        let _span = cv_obs::recorder()
            .span("store.delta_apply", "store")
            .arg("base_epoch", delta.base_epoch)
            .arg("target_epoch", delta.target_epoch)
            .arg("dirty_shards", delta.shards.len() as u64);
        if delta.base_epoch != self.epoch {
            return Err(StoreError::BaseMismatch {
                expected_epoch: delta.base_epoch,
                found_epoch: self.epoch,
            });
        }
        delta.validate_routing(self.shard_count)?;
        for addr in &delta.removed {
            self.invariants.set_entry(*addr, Vec::new());
        }
        for shard in &delta.shards {
            for (addr, invs) in &shard.entries {
                self.invariants.set_entry(*addr, invs.clone());
            }
        }
        self.invariants.stats = delta.stats;
        let mut procs: std::collections::BTreeSet<Addr> = self.procedures.iter().copied().collect();
        procs.extend(delta.procs_added.iter().copied());
        self.procedures = procs.into_iter().collect();
        self.plan = delta.plan.clone();
        self.epoch = delta.target_epoch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_inference::{InvariantDatabase, Variable};
    use cv_isa::{Operand, Reg};

    fn snapshot_with(entries: &[(Addr, i32)], epoch: u64) -> Snapshot {
        let mut invariants = InvariantDatabase::new();
        for (addr, min) in entries {
            invariants.insert(Invariant::LowerBound {
                var: Variable::read(*addr, 0, Operand::Reg(Reg::Ecx)),
                min: *min,
            });
        }
        invariants.recount();
        Snapshot {
            epoch,
            shard_count: 4,
            invariants,
            procedures: vec![0x4_0000],
            plan: PatchPlan::new(),
        }
    }

    #[test]
    fn diff_apply_reaches_the_target_exactly() {
        let base = snapshot_with(&[(0x1000, 1), (0x1004, 2), (0x1008, 3)], 5);
        let mut target = snapshot_with(&[(0x1000, 1), (0x1004, -9), (0x100C, 4)], 8);
        target.procedures.push(0x4_0040);
        let delta = DeltaSnapshot::diff(&base, &target);
        // 0x1004 changed, 0x100C added, 0x1008 removed, 0x1000 untouched.
        assert_eq!(delta.changed_entries(), 2);
        assert_eq!(delta.removed, vec![0x1008]);
        assert_eq!(delta.procs_added, vec![0x4_0040]);

        let mut advanced = base.clone();
        advanced.apply_delta(&delta).unwrap();
        assert_eq!(advanced, target);
    }

    #[test]
    fn delta_round_trips_byte_identically() {
        let base = snapshot_with(&[(0x1000, 1), (0x1004, 2)], 5);
        let target = snapshot_with(&[(0x1000, 7), (0x1010, 2)], 6);
        let delta = DeltaSnapshot::diff(&base, &target);
        let bytes = delta.encode();
        let decoded = DeltaSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn wrong_base_and_wrong_routing_are_rejected() {
        let base = snapshot_with(&[(0x1000, 1)], 5);
        let target = snapshot_with(&[(0x1000, 2)], 6);
        let delta = DeltaSnapshot::diff(&base, &target);

        let mut wrong_epoch = base.clone();
        wrong_epoch.epoch = 4;
        assert!(matches!(
            wrong_epoch.apply_delta(&delta),
            Err(StoreError::BaseMismatch { .. })
        ));

        let mut wrong_shards = base.clone();
        wrong_shards.shard_count = 8;
        assert!(matches!(
            wrong_shards.apply_delta(&delta),
            Err(StoreError::ShardCountMismatch { .. })
        ));

        // An entry moved to the wrong shard section must be caught by the shared
        // router on decode.
        let mut mangled = delta.clone();
        mangled.shards[0].shard = (mangled.shards[0].shard + 1) % 4;
        assert!(matches!(
            DeltaSnapshot::decode(&mangled.encode()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn incremental_cut_matches_diff_byte_for_byte() {
        use cv_inference::DirtyEpochs;

        let base = snapshot_with(&[(0x1000, 1), (0x1004, 2), (0x1008, 3)], 5);
        // Target state: 0x1004 rebound, 0x100C added, 0x1008 dropped, plus a new
        // procedure — built as live mutations stamped into a dirty tracker.
        let mut live = base.invariants.clone();
        let mut dirty = DirtyEpochs::new(4, 5);
        dirty.begin_epoch(8);
        live.set_entry(
            0x1004,
            vec![Invariant::LowerBound {
                var: Variable::read(0x1004, 0, Operand::Reg(Reg::Ecx)),
                min: -9,
            }],
        );
        dirty.mark(0x1004);
        live.set_entry(
            0x100C,
            vec![Invariant::LowerBound {
                var: Variable::read(0x100C, 0, Operand::Reg(Reg::Ecx)),
                min: 4,
            }],
        );
        dirty.mark(0x100C);
        live.set_entry(0x1008, Vec::new());
        dirty.mark(0x1008);
        live.recount();
        dirty.mark_proc(0x4_0040);
        // An address stamped dirty but unchanged (re-dirtied back to base) and a
        // proc the base already holds: the re-compare must filter both out.
        dirty.mark(0x1000);
        dirty.mark_proc(0x4_0000);

        let mut target = Snapshot {
            epoch: 8,
            shard_count: 4,
            invariants: live.clone(),
            procedures: vec![0x4_0000, 0x4_0040],
            plan: PatchPlan::new(),
        };
        target.invariants.stats = live.stats;

        let diffed = DeltaSnapshot::diff(&base, &target);
        let procs = target.procedures.iter().copied();
        let incremental =
            DeltaBuilder::new(&base, &dirty).cut(8, &live, procs.clone(), PatchPlan::new());
        assert_eq!(incremental, diffed);
        assert_eq!(incremental.encode(), diffed.encode());

        let mut advanced = base.clone();
        advanced.apply_delta(&incremental).unwrap();
        assert_eq!(advanced, target);

        // A tracker whose floor is past the base re-checks every address and
        // every live procedure, and cuts the same bytes.
        let mut uncovered = dirty.clone();
        uncovered.reset(6);
        let builder = DeltaBuilder::new(&base, &uncovered);
        assert_eq!(builder.plan_shards(), 0);
        let full = builder.cut(8, &live, procs, PatchPlan::new());
        assert_eq!(full.encode(), diffed.encode());
    }

    #[test]
    fn empty_dirty_shard_section_is_rejected() {
        let base = snapshot_with(&[(0x1000, 1)], 5);
        let target = snapshot_with(&[(0x1000, 2)], 6);
        let mut delta = DeltaSnapshot::diff(&base, &target);
        // Claim a dirty shard without carrying any entries for it.
        delta.shards[0].entries.clear();
        assert_eq!(
            DeltaSnapshot::decode(&delta.encode()),
            Err(StoreError::Corrupt {
                context: "dirty shard section carries no entries"
            })
        );
    }

    #[test]
    fn identity_delta_only_advances_the_epoch() {
        let base = snapshot_with(&[(0x1000, 1)], 5);
        let mut target = base.clone();
        target.epoch = 9;
        let delta = DeltaSnapshot::diff(&base, &target);
        assert!(delta.is_identity());
        let mut advanced = base.clone();
        advanced.apply_delta(&delta).unwrap();
        assert_eq!(advanced.epoch, 9);
        assert_eq!(advanced.invariants, base.invariants);
    }
}
