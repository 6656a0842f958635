//! The dirty-epoch plane: which check addresses changed, per shard, per epoch.
//!
//! Cutting a delta snapshot by diffing two fully materialized snapshots costs
//! O(database) no matter how little changed — the scaling wall for large community
//! databases. [`DirtyEpochs`] removes it: the coordinator stamps every mutation of
//! its invariant store (and every procedure discovery, and every shard a patch plan
//! touched) into a per-epoch bucket **as the mutation lands**, so
//! [`DirtyEpochs::dirty_since`] can answer "what may differ from the epoch-`B`
//! checkpoint?" in time proportional to what actually changed since `B` — never by
//! scanning the database.
//!
//! Shard keying uses the shared [`ShardRouter`], the same routing the sharded
//! store, the manager plane, and the snapshot/delta containers use.
//!
//! ## Soundness contract
//!
//! `dirty_since(B)` must return a **superset** of the addresses whose entries
//! differ between the epoch-`B` checkpoint and the current state (the delta cutter
//! re-compares each candidate against the base, so over-approximation only costs
//! cut time — under-approximation would silently drop changes). Two rules uphold
//! it:
//!
//! * Every mutation of the tracked state is stamped; a state swap whose mutation
//!   history is unknown (restoring a snapshot, replacing the model wholesale)
//!   [`reset`](DirtyEpochs::reset)s the tracker with a new *floor* — the earliest
//!   base epoch it can answer for. Below the floor it answers `None`, and the
//!   delta cutter re-checks every address instead.
//! * `dirty_since(B)` includes the bucket of epoch `B` itself, not just later
//!   buckets: a checkpoint labelled `B` may have been cut *before* later mutations
//!   stamped in the still-open epoch `B`, and the cheap re-compare makes the
//!   over-approximation free.

use crate::route::ShardRouter;
use cv_isa::Addr;
use std::collections::{BTreeMap, BTreeSet};

/// Everything that may differ between a base checkpoint and the current state:
/// the answer [`DirtyEpochs::dirty_since`] hands the delta cutter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Per shard, the check addresses stamped dirty, ascending and deduplicated.
    pub per_shard: Vec<Vec<Addr>>,
    /// Procedure entries discovered since the base, ascending and deduplicated.
    pub procs: Vec<Addr>,
    /// Shards stamped by patch-plan application (ascending, deduplicated) — the
    /// configuration-change footprint since the base, surfaced as the fleet's
    /// `plan_dirty_shards_last` metric. It never affects the delta payload (the
    /// plan rides wholesale in every delta), which is also why
    /// [`DirtySet::is_clean`] deliberately ignores it.
    pub plan_shards: Vec<u32>,
}

impl DirtySet {
    /// The shard count the set is keyed by.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Total dirty check addresses across all shards.
    pub fn dirty_addr_count(&self) -> usize {
        self.per_shard.iter().map(|s| s.len()).sum()
    }

    /// Number of shards with at least one dirty check address.
    pub fn dirty_shard_count(&self) -> usize {
        self.per_shard.iter().filter(|s| !s.is_empty()).count()
    }

    /// True if no *state content* (entries, procedures) was stamped since the
    /// base — plan stamps are excluded, since the plan is carried wholesale in
    /// every delta regardless.
    pub fn is_clean(&self) -> bool {
        self.per_shard.iter().all(|s| s.is_empty()) && self.procs.is_empty()
    }
}

/// Per-shard dirty-address buckets keyed by epoch, with a floor below which the
/// mutation history is unknown.
#[derive(Debug, Clone)]
pub struct DirtyEpochs {
    router: ShardRouter,
    /// The earliest base epoch `dirty_since` can answer for: the tracker has seen
    /// every mutation since the state that checkpoints at `floor` captured.
    floor: u64,
    /// The epoch mutations are currently stamped into.
    epoch: u64,
    /// Per shard: epoch → check addresses stamped dirty in that epoch.
    shards: Vec<BTreeMap<u64, BTreeSet<Addr>>>,
    /// Epoch → procedure entries discovered in that epoch.
    procs: BTreeMap<u64, BTreeSet<Addr>>,
    /// Epoch → shards stamped by patch-plan application in that epoch.
    plan_shards: BTreeMap<u64, BTreeSet<u32>>,
}

impl DirtyEpochs {
    /// A tracker over `shard_count` shards whose history is complete from
    /// `floor` on (a brand-new empty store uses floor 0: it has seen everything).
    pub fn new(shard_count: usize, floor: u64) -> Self {
        DirtyEpochs {
            router: ShardRouter::new(shard_count),
            floor,
            epoch: floor,
            shards: vec![BTreeMap::new(); shard_count.max(1)],
            procs: BTreeMap::new(),
            plan_shards: BTreeMap::new(),
        }
    }

    /// Number of shards addresses are routed across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The earliest base epoch [`DirtyEpochs::dirty_since`] can answer for.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// The epoch mutations are currently stamped into.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the stamping epoch (it never moves backwards).
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Forget all history and restart with complete knowledge from `floor` on —
    /// the state was just swapped wholesale (snapshot restore, model replacement)
    /// and nothing is known about how it differs from older checkpoints.
    pub fn reset(&mut self, floor: u64) {
        self.floor = floor;
        self.epoch = floor;
        for shard in &mut self.shards {
            shard.clear();
        }
        self.procs.clear();
        self.plan_shards.clear();
    }

    /// Stamp `addr` dirty in the current epoch (routing it to its shard).
    pub fn mark(&mut self, addr: Addr) {
        let shard = self.router.shard_of(addr);
        self.mark_in_shard(shard, addr);
    }

    /// Stamp `addr` dirty in the current epoch when the caller already routed it
    /// (the sharded store's merge paths know the owning shard).
    pub fn mark_in_shard(&mut self, shard: usize, addr: Addr) {
        debug_assert_eq!(self.router.shard_of(addr), shard, "addr routed off-shard");
        self.shards[shard]
            .entry(self.epoch)
            .or_default()
            .insert(addr);
    }

    /// Stamp a procedure entry discovered in the current epoch.
    pub fn mark_proc(&mut self, entry: Addr) {
        self.procs.entry(self.epoch).or_default().insert(entry);
    }

    /// Stamp a shard touched by patch-plan application in the current epoch.
    pub fn mark_plan_shard(&mut self, shard: usize) {
        self.plan_shards
            .entry(self.epoch)
            .or_default()
            .insert(shard as u32);
    }

    /// True if the tracker can answer `dirty_since(base_epoch)`.
    pub fn covers(&self, base_epoch: u64) -> bool {
        base_epoch >= self.floor
    }

    /// Everything stamped dirty in epochs `>= base_epoch` — a superset of what
    /// differs from the epoch-`base_epoch` checkpoint — or `None` when the base
    /// predates the tracker's floor and every address must be re-checked.
    ///
    /// Cost is proportional to the number of stamps since the base, not to the
    /// database size: buckets older than the base are never visited.
    pub fn dirty_since(&self, base_epoch: u64) -> Option<DirtySet> {
        if !self.covers(base_epoch) {
            return None;
        }
        let per_shard = self
            .shards
            .iter()
            .map(|buckets| {
                let mut addrs: BTreeSet<Addr> = BTreeSet::new();
                for (_, bucket) in buckets.range(base_epoch..) {
                    addrs.extend(bucket.iter().copied());
                }
                addrs.into_iter().collect()
            })
            .collect();
        let mut procs: BTreeSet<Addr> = BTreeSet::new();
        for (_, bucket) in self.procs.range(base_epoch..) {
            procs.extend(bucket.iter().copied());
        }
        let mut plan_shards: BTreeSet<u32> = BTreeSet::new();
        for (_, bucket) in self.plan_shards.range(base_epoch..) {
            plan_shards.extend(bucket.iter().copied());
        }
        Some(DirtySet {
            per_shard,
            procs: procs.into_iter().collect(),
            plan_shards: plan_shards.into_iter().collect(),
        })
    }

    /// Drop buckets older than `epoch` and raise the floor accordingly — bounds
    /// the tracker's memory on a long-lived coordinator. Bases older than the new
    /// floor take the cutter's full walk (the tracker reports not covering
    /// them); nothing is ever silently misanswered.
    pub fn retain_since(&mut self, epoch: u64) {
        if epoch <= self.floor {
            return;
        }
        for shard in &mut self.shards {
            *shard = shard.split_off(&epoch);
        }
        self.procs = self.procs.split_off(&epoch);
        self.plan_shards = self.plan_shards.split_off(&epoch);
        self.floor = epoch;
        self.epoch = self.epoch.max(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_accumulate_per_epoch_and_shard() {
        let mut dirty = DirtyEpochs::new(4, 0);
        dirty.begin_epoch(1);
        dirty.mark(0x1000);
        dirty.mark(0x1004);
        dirty.begin_epoch(2);
        dirty.mark(0x1000); // re-dirtied: appears once in any union
        dirty.mark_proc(0x4_0000);
        dirty.mark_plan_shard(3);

        let all = dirty.dirty_since(0).unwrap();
        assert_eq!(all.dirty_addr_count(), 2);
        assert_eq!(all.procs, vec![0x4_0000]);
        assert_eq!(all.plan_shards, vec![3]);
        for (shard, addrs) in all.per_shard.iter().enumerate() {
            for addr in addrs {
                assert_eq!(ShardRouter::route(*addr, 4), shard);
            }
        }

        // A base at epoch 2 still sees the epoch-2 stamps (the epoch is open when
        // a checkpoint is cut), but not the epoch-1-only ones.
        let since2 = dirty.dirty_since(2).unwrap();
        assert_eq!(since2.dirty_addr_count(), 1);
        let since3 = dirty.dirty_since(3).unwrap();
        assert!(since3.is_clean());
        assert_eq!(since3.shard_count(), 4);
    }

    #[test]
    fn floor_gates_answers_and_reset_forgets() {
        let mut dirty = DirtyEpochs::new(2, 5);
        assert!(!dirty.covers(4));
        assert!(dirty.dirty_since(4).is_none());
        dirty.begin_epoch(6);
        dirty.mark(0x2000);
        assert_eq!(dirty.dirty_since(5).unwrap().dirty_addr_count(), 1);

        dirty.reset(9);
        assert_eq!(dirty.floor(), 9);
        assert!(dirty.dirty_since(8).is_none());
        assert!(dirty.dirty_since(9).unwrap().is_clean());
    }

    #[test]
    fn epochs_never_move_backwards() {
        let mut dirty = DirtyEpochs::new(2, 0);
        dirty.begin_epoch(7);
        dirty.begin_epoch(3);
        assert_eq!(dirty.epoch(), 7);
    }

    #[test]
    fn retain_since_drops_old_buckets_and_raises_the_floor() {
        let mut dirty = DirtyEpochs::new(2, 0);
        for epoch in 1..=6u64 {
            dirty.begin_epoch(epoch);
            dirty.mark(0x1000 + epoch as Addr * 4);
        }
        dirty.retain_since(4);
        assert_eq!(dirty.floor(), 4);
        assert!(dirty.dirty_since(3).is_none());
        assert_eq!(dirty.dirty_since(4).unwrap().dirty_addr_count(), 3);
        // Retaining backwards is a no-op.
        dirty.retain_since(2);
        assert_eq!(dirty.floor(), 4);
    }
}
