//! The invariant database: learned invariants indexed by their check location.
//!
//! Community members upload locally inferred invariants to the central ClearView
//! manager, which merges them into a database of invariants consistent with every
//! execution observed so far (Section 3.1). The database — not the raw trace data — is
//! what crosses the network, and it is what the correlated-invariant identification step
//! consults when a failure is reported.

use crate::invariant::{Invariant, ONE_OF_LIMIT};
use crate::variable::Variable;
use cv_isa::Addr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters describing a learning session; carried with the database for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LearningStats {
    /// Trace events processed.
    pub events_processed: u64,
    /// Normal runs committed into the model.
    pub runs_committed: u64,
    /// Erroneous runs whose samples were discarded.
    pub runs_discarded: u64,
    /// Distinct variables observed.
    pub variables_observed: u64,
    /// Variables dropped by the equal-value deduplication optimization (Section 2.2.4).
    pub duplicates_removed: u64,
    /// Variables classified as pointers (lower-bound / less-than inference suppressed).
    pub pointers_classified: u64,
    /// One-of invariants inferred.
    pub one_of: u64,
    /// Lower-bound invariants inferred.
    pub lower_bound: u64,
    /// Less-than invariants inferred.
    pub less_than: u64,
    /// Stack-pointer-offset invariants inferred.
    pub sp_offset: u64,
}

impl LearningStats {
    /// Total number of invariants.
    pub fn total_invariants(&self) -> u64 {
        self.one_of + self.lower_bound + self.less_than + self.sp_offset
    }
}

/// Identity of an invariant irrespective of its learned parameters; used when merging
/// databases from different community members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InvariantKey {
    OneOf(Variable),
    LowerBound(Variable),
    LessThan(Variable, Variable),
    StackPointerOffset(Addr, Addr),
}

fn key_of(inv: &Invariant) -> InvariantKey {
    match inv {
        Invariant::OneOf { var, .. } => InvariantKey::OneOf(*var),
        Invariant::LowerBound { var, .. } => InvariantKey::LowerBound(*var),
        Invariant::LessThan { a, b } => InvariantKey::LessThan(*a, *b),
        Invariant::StackPointerOffset { proc_entry, at, .. } => {
            InvariantKey::StackPointerOffset(*proc_entry, *at)
        }
    }
}

/// Combine two learned instances of the "same" invariant into the weakest property that
/// is consistent with both sets of observations, or `None` if no such property of the
/// template remains.
fn combine(a: &Invariant, b: &Invariant) -> Option<Invariant> {
    match (a, b) {
        (Invariant::OneOf { var, values: va }, Invariant::OneOf { values: vb, .. }) => {
            let union: std::collections::BTreeSet<_> = va.union(vb).copied().collect();
            if union.len() <= ONE_OF_LIMIT {
                Some(Invariant::OneOf {
                    var: *var,
                    values: union,
                })
            } else {
                None
            }
        }
        (Invariant::LowerBound { var, min: ma }, Invariant::LowerBound { min: mb, .. }) => {
            Some(Invariant::LowerBound {
                var: *var,
                min: (*ma).min(*mb),
            })
        }
        (Invariant::LessThan { .. }, Invariant::LessThan { .. }) => Some(a.clone()),
        (
            Invariant::StackPointerOffset {
                proc_entry,
                at,
                offset: oa,
            },
            Invariant::StackPointerOffset { offset: ob, .. },
        ) => {
            if oa == ob {
                Some(Invariant::StackPointerOffset {
                    proc_entry: *proc_entry,
                    at: *at,
                    offset: *oa,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Learned invariants indexed by the address at which they are checked.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvariantDatabase {
    by_addr: BTreeMap<Addr, Vec<Invariant>>,
    /// Learning counters.
    pub stats: LearningStats,
}

impl InvariantDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an invariant (indexed by its check address).
    pub fn insert(&mut self, inv: Invariant) {
        self.by_addr.entry(inv.check_addr()).or_default().push(inv);
    }

    /// The invariants checked at `addr`.
    pub fn invariants_at(&self, addr: Addr) -> &[Invariant] {
        self.by_addr.get(&addr).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Iterate over every invariant.
    pub fn iter(&self) -> impl Iterator<Item = &Invariant> {
        self.by_addr.values().flatten()
    }

    /// Total number of invariants.
    pub fn len(&self) -> usize {
        self.by_addr.values().map(|v| v.len()).sum()
    }

    /// True if no invariants are stored.
    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }

    /// Addresses that carry at least one invariant.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.by_addr.keys().copied()
    }

    /// Iterate over `(check address, invariants)` entries in ascending address order
    /// — the canonical order the snapshot codec and delta differ consume.
    pub fn entries(&self) -> impl Iterator<Item = (Addr, &[Invariant])> + '_ {
        self.by_addr.iter().map(|(a, v)| (*a, v.as_slice()))
    }

    /// The entry stored at `addr`, distinguishing a missing entry (`None`) from a
    /// present one — the comparison the incremental delta cutter needs, where
    /// [`InvariantDatabase::invariants_at`] collapses both to an empty slice.
    pub fn entry(&self, addr: Addr) -> Option<&[Invariant]> {
        self.by_addr.get(&addr).map(|v| v.as_slice())
    }

    /// Replace the invariants stored at `addr` wholesale (an empty vector removes
    /// the entry). The delta-sync apply path uses this to install changed entries;
    /// callers must [`InvariantDatabase::recount`] once the batch is applied.
    pub fn set_entry(&mut self, addr: Addr, invs: Vec<Invariant>) {
        if invs.is_empty() {
            self.by_addr.remove(&addr);
        } else {
            self.by_addr.insert(addr, invs);
        }
    }

    /// The learned stack-pointer offset at instruction `at` for the procedure entered at
    /// `proc_entry`, if a unique one was observed. Used by return-from-procedure repairs.
    pub fn sp_offset(&self, proc_entry: Addr, at: Addr) -> Option<i32> {
        self.by_addr.get(&at).and_then(|invs| {
            invs.iter().find_map(|inv| match inv {
                Invariant::StackPointerOffset {
                    proc_entry: p,
                    offset,
                    ..
                } if *p == proc_entry => Some(*offset),
                _ => None,
            })
        })
    }

    /// Merge another database into this one.
    ///
    /// For invariants over a variable both members observed, the result is the weakest
    /// property consistent with both (one-of value sets union, lower bounds take the
    /// minimum); an invariant that cannot be reconciled is dropped. Invariants over
    /// variables only one member observed are kept — with amortized parallel learning
    /// each member traces a different part of the application, so its invariants are the
    /// only evidence for that region (Section 3.1).
    pub fn merge(&mut self, other: &InvariantDatabase) {
        self.merge_filtered(other, |_| true);
        // Keep the aggregate counters roughly meaningful after a merge.
        self.stats.events_processed += other.stats.events_processed;
        self.stats.runs_committed += other.stats.runs_committed;
        self.stats.runs_discarded += other.stats.runs_discarded;
        self.recount();
    }

    /// Merge only the invariants of `other` whose check address satisfies `keep`.
    ///
    /// Merging the same uploads into N shards, each restricted to the addresses it
    /// owns, gives shards whose union is exactly the sequential
    /// [`InvariantDatabase::merge`] result
    /// ([`InvariantDatabase::merge_into_shards`] does that in one scan).
    ///
    /// Unlike [`InvariantDatabase::merge`] this does **not** touch the learning
    /// counters — callers accumulating across shards must account for `other.stats`
    /// exactly once (see [`InvariantDatabase::absorb_run_stats`]).
    pub fn merge_filtered(&mut self, other: &InvariantDatabase, keep: impl FnMut(Addr) -> bool) {
        self.merge_filtered_observed(other, keep, |_| {});
    }

    /// [`InvariantDatabase::merge_filtered`] with change observation: `on_change` is
    /// called with every check address whose stored entry this merge actually
    /// modified (added, reshaped, or removed) — the hook the dirty-epoch plane uses
    /// to stamp mutations as they land, so delta snapshots can later be cut in
    /// O(changed) without diffing materialized bases.
    pub fn merge_filtered_observed(
        &mut self,
        other: &InvariantDatabase,
        mut keep: impl FnMut(Addr) -> bool,
        mut on_change: impl FnMut(Addr),
    ) {
        for (addr, invs) in &other.by_addr {
            if !keep(*addr) {
                continue;
            }
            if self.merge_addr(*addr, invs) {
                on_change(*addr);
            }
        }
    }

    /// Merge one address's invariants (in their stored order) into this database —
    /// the per-entry primitive shared by [`InvariantDatabase::merge_filtered`] and
    /// [`InvariantDatabase::merge_into_shards`]. Returns whether the stored entry
    /// actually changed (a merge that reproduces the existing entry bit-for-bit —
    /// same one-of sets, no lower bound moved — reports `false`).
    fn merge_addr(&mut self, addr: Addr, invs: &[Invariant]) -> bool {
        if invs.is_empty() {
            // An address whose invariants were all dropped by earlier merges must not
            // materialize an (empty) entry in this database.
            return false;
        }
        let slot = self.by_addr.entry(addr).or_default();
        let mut changed = false;
        for inv in invs {
            let key = key_of(inv);
            if let Some(pos) = slot.iter().position(|existing| key_of(existing) == key) {
                match combine(&slot[pos], inv) {
                    Some(combined) => {
                        if combined != slot[pos] {
                            slot[pos] = combined;
                            changed = true;
                        }
                    }
                    None => {
                        slot.remove(pos);
                        changed = true;
                    }
                }
            } else {
                slot.push(inv.clone());
                changed = true;
            }
        }
        if slot.is_empty() {
            // Every invariant was dropped: remove the slot rather than leaving an
            // empty entry behind — entry presence must mean "carries invariants",
            // or snapshots and deltas would encode dead entries.
            self.by_addr.remove(&addr);
        }
        changed
    }

    /// Merge `other` into a set of disjoint shards in **one scan**, routing every
    /// address entry straight to the shard [`InvariantDatabase::shard_of`] assigns it.
    ///
    /// Result-identical to every shard `i` running
    /// `merge_filtered(other, |addr| shard_of(addr, shards.len()) == i)`, but at
    /// monolithic cost: the per-shard formulation scans the whole upload once *per
    /// shard*, which is pure overhead when the merge runs on one thread. This is how
    /// the fleet's sharded invariant store merges. Does not touch learning counters
    /// (same contract as [`InvariantDatabase::merge_filtered`]).
    pub fn merge_into_shards(shards: &mut [InvariantDatabase], other: &InvariantDatabase) {
        Self::merge_into_shards_observed(shards, other, |_, _| {});
    }

    /// [`InvariantDatabase::merge_into_shards`] with change observation:
    /// `on_change(shard, addr)` fires for every entry the merge actually modified,
    /// already routed to its owning shard.
    pub fn merge_into_shards_observed(
        shards: &mut [InvariantDatabase],
        other: &InvariantDatabase,
        mut on_change: impl FnMut(usize, Addr),
    ) {
        assert!(!shards.is_empty(), "must have at least one shard");
        for (addr, invs) in &other.by_addr {
            let shard = Self::shard_of(*addr, shards.len());
            if shards[shard].merge_addr(*addr, invs) {
                on_change(shard, *addr);
            }
        }
    }

    /// Add `other`'s run counters (events processed, runs committed/discarded) to this
    /// database's counters without touching any invariants. The complement of
    /// [`InvariantDatabase::merge_filtered`] when a merge is split across shards.
    pub fn absorb_run_stats(&mut self, other: &LearningStats) {
        self.stats.events_processed += other.events_processed;
        self.stats.runs_committed += other.runs_committed;
        self.stats.runs_discarded += other.runs_discarded;
    }

    /// The shard (of `shard_count`) that owns check address `addr`.
    ///
    /// Delegates to [`ShardRouter`](crate::ShardRouter) — the one shard-routing
    /// implementation the sharded store, the manager plane, and the snapshot/delta
    /// persistence plane all share, so a shard-count or hash change cannot desync
    /// snapshots from the live store.
    pub fn shard_of(addr: Addr, shard_count: usize) -> usize {
        crate::ShardRouter::route(addr, shard_count)
    }

    /// Split this database into `shard_count` disjoint databases partitioned by
    /// [`InvariantDatabase::shard_of`]. The run counters are carried on shard 0 so
    /// that [`InvariantDatabase::fuse`] restores them; per-kind counters are recounted
    /// per shard.
    pub fn split(self, shard_count: usize) -> Vec<InvariantDatabase> {
        assert!(shard_count > 0, "shard_count must be positive");
        let mut shards = vec![InvariantDatabase::new(); shard_count];
        for (addr, invs) in self.by_addr {
            shards[Self::shard_of(addr, shard_count)]
                .by_addr
                .insert(addr, invs);
        }
        shards[0].absorb_run_stats(&self.stats);
        for shard in &mut shards {
            shard.recount();
        }
        shards
    }

    /// Reassemble a database from disjoint shards (the inverse of
    /// [`InvariantDatabase::split`]). Run counters are summed; per-kind counters are
    /// recounted. Panics if two shards carry invariants for the same address.
    pub fn fuse(shards: impl IntoIterator<Item = InvariantDatabase>) -> InvariantDatabase {
        let mut fused = InvariantDatabase::new();
        for shard in shards {
            fused.absorb_run_stats(&shard.stats);
            for (addr, invs) in shard.by_addr {
                let previous = fused.by_addr.insert(addr, invs);
                assert!(previous.is_none(), "shards overlap at address 0x{addr:x}");
            }
        }
        fused.recount();
        fused
    }

    /// Recompute the per-kind invariant counters from the stored invariants.
    pub fn recount(&mut self) {
        let (mut one_of, mut lower_bound, mut less_than, mut sp_offset) = (0u64, 0u64, 0u64, 0u64);
        for inv in self.iter() {
            match inv {
                Invariant::OneOf { .. } => one_of += 1,
                Invariant::LowerBound { .. } => lower_bound += 1,
                Invariant::LessThan { .. } => less_than += 1,
                Invariant::StackPointerOffset { .. } => sp_offset += 1,
            }
        }
        self.stats.one_of = one_of;
        self.stats.lower_bound = lower_bound;
        self.stats.less_than = less_than;
        self.stats.sp_offset = sp_offset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_isa::{Operand, Reg};

    fn var(addr: Addr) -> Variable {
        Variable::read(addr, 0, Operand::Reg(Reg::Ecx))
    }

    fn one_of(addr: Addr, values: &[u32]) -> Invariant {
        Invariant::OneOf {
            var: var(addr),
            values: values.iter().copied().collect(),
        }
    }

    #[test]
    fn insert_and_lookup_by_check_addr() {
        let mut db = InvariantDatabase::new();
        db.insert(one_of(0x1000, &[1, 2]));
        db.insert(Invariant::LowerBound {
            var: var(0x1000),
            min: 0,
        });
        db.insert(Invariant::LowerBound {
            var: var(0x2000),
            min: 5,
        });
        assert_eq!(db.len(), 3);
        assert_eq!(db.invariants_at(0x1000).len(), 2);
        assert_eq!(db.invariants_at(0x2000).len(), 1);
        assert!(db.invariants_at(0x3000).is_empty());
        assert_eq!(db.addrs().count(), 2);
    }

    #[test]
    fn merge_unions_one_of_values() {
        let mut a = InvariantDatabase::new();
        a.insert(one_of(0x1000, &[1, 2]));
        let mut b = InvariantDatabase::new();
        b.insert(one_of(0x1000, &[2, 3]));
        a.merge(&b);
        assert_eq!(a.len(), 1);
        match &a.invariants_at(0x1000)[0] {
            Invariant::OneOf { values, .. } => {
                assert_eq!(values.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3])
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn merge_drops_one_of_that_grows_past_the_limit() {
        let mut a = InvariantDatabase::new();
        a.insert(one_of(0x1000, &[1, 2, 3]));
        let mut b = InvariantDatabase::new();
        b.insert(one_of(0x1000, &[4, 5, 6]));
        a.merge(&b);
        assert!(a.invariants_at(0x1000).is_empty());
    }

    #[test]
    fn merge_takes_minimum_lower_bound() {
        let mut a = InvariantDatabase::new();
        a.insert(Invariant::LowerBound {
            var: var(0x1000),
            min: 3,
        });
        let mut b = InvariantDatabase::new();
        b.insert(Invariant::LowerBound {
            var: var(0x1000),
            min: -1,
        });
        a.merge(&b);
        match &a.invariants_at(0x1000)[0] {
            Invariant::LowerBound { min, .. } => assert_eq!(*min, -1),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn merge_keeps_invariants_only_one_member_observed() {
        let mut a = InvariantDatabase::new();
        a.insert(one_of(0x1000, &[1]));
        let mut b = InvariantDatabase::new();
        b.insert(one_of(0x2000, &[7]));
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn merge_drops_conflicting_sp_offsets() {
        let mut a = InvariantDatabase::new();
        a.insert(Invariant::StackPointerOffset {
            proc_entry: 0x1000,
            at: 0x1004,
            offset: 2,
        });
        let mut b = InvariantDatabase::new();
        b.insert(Invariant::StackPointerOffset {
            proc_entry: 0x1000,
            at: 0x1004,
            offset: 3,
        });
        a.merge(&b);
        assert!(a.invariants_at(0x1004).is_empty());
        assert_eq!(a.sp_offset(0x1000, 0x1004), None);
    }

    #[test]
    fn sp_offset_lookup() {
        let mut db = InvariantDatabase::new();
        db.insert(Invariant::StackPointerOffset {
            proc_entry: 0x1000,
            at: 0x1010,
            offset: 4,
        });
        assert_eq!(db.sp_offset(0x1000, 0x1010), Some(4));
        assert_eq!(db.sp_offset(0x2000, 0x1010), None);
    }

    #[test]
    fn shard_of_spreads_consecutive_code_addresses() {
        // Power-of-two shard counts are the shipped defaults; the hash must not
        // degenerate to `addr % shard_count` there.
        for shard_count in [4usize, 8, 16] {
            let mut hit = vec![false; shard_count];
            for addr in (0x40000u32..0x40400).step_by(4) {
                hit[InvariantDatabase::shard_of(addr, shard_count)] = true;
            }
            assert!(
                hit.iter().all(|h| *h),
                "stride-4 addresses must reach all {shard_count} shards"
            );
        }
    }

    #[test]
    fn split_and_fuse_round_trip() {
        let mut db = InvariantDatabase::new();
        for addr in (0x1000u32..0x1100).step_by(4) {
            db.insert(one_of(addr, &[1, 2]));
            db.insert(Invariant::LowerBound {
                var: var(addr),
                min: addr as i64 as i32,
            });
        }
        db.stats.events_processed = 77;
        db.stats.runs_committed = 9;
        db.recount();

        let shards = db.clone().split(7);
        assert_eq!(shards.len(), 7);
        assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), db.len());
        // Every shard holds only addresses it owns.
        for (i, shard) in shards.iter().enumerate() {
            for addr in shard.addrs() {
                assert_eq!(InvariantDatabase::shard_of(addr, 7), i);
            }
        }
        let fused = InvariantDatabase::fuse(shards);
        assert_eq!(fused, db);
    }

    #[test]
    fn filtered_merges_over_a_partition_match_a_full_merge() {
        let mut uploads = Vec::new();
        for member in 0u32..4 {
            let mut up = InvariantDatabase::new();
            for k in 0u32..40 {
                let addr = 0x2000 + (k * 8) % 96;
                up.insert(one_of(addr, &[member + k, k % 5]));
                up.insert(Invariant::LowerBound {
                    var: var(addr),
                    min: (member * k) as i32 - 3,
                });
            }
            up.stats.events_processed = 100 + member as u64;
            up.stats.runs_committed = member as u64;
            up.recount();
            uploads.push(up);
        }

        // Sequential reference: one monolithic merge per upload.
        let mut sequential = InvariantDatabase::new();
        for up in &uploads {
            sequential.merge(up);
        }

        // Sharded: each shard merges every upload restricted to its addresses, then
        // run counters are absorbed once per upload and the shards are fused.
        const SHARDS: usize = 5;
        let mut shards = vec![InvariantDatabase::new(); SHARDS];
        for (i, shard) in shards.iter_mut().enumerate() {
            for up in &uploads {
                shard.merge_filtered(up, |addr| InvariantDatabase::shard_of(addr, SHARDS) == i);
            }
        }
        let mut fused = InvariantDatabase::fuse(shards);
        for up in &uploads {
            fused.absorb_run_stats(&up.stats);
        }
        fused.recount();
        assert_eq!(fused, sequential);
    }

    #[test]
    fn observed_merges_report_only_real_changes() {
        let mut db = InvariantDatabase::new();
        db.insert(one_of(0x1000, &[1, 2]));
        db.insert(Invariant::LowerBound {
            var: var(0x2000),
            min: -5,
        });

        // Same one-of values, weaker lower bound: nothing changes.
        let mut same = InvariantDatabase::new();
        same.insert(one_of(0x1000, &[2, 1]));
        same.insert(Invariant::LowerBound {
            var: var(0x2000),
            min: 0,
        });
        let mut changed = Vec::new();
        db.merge_filtered_observed(&same, |_| true, |addr| changed.push(addr));
        assert!(changed.is_empty(), "no-op merge must not report changes");

        // New value at 0x1000, lower bound moves at 0x2000, new addr 0x3000.
        let mut moves = InvariantDatabase::new();
        moves.insert(one_of(0x1000, &[3]));
        moves.insert(Invariant::LowerBound {
            var: var(0x2000),
            min: -9,
        });
        moves.insert(one_of(0x3000, &[7]));
        db.merge_filtered_observed(&moves, |_| true, |addr| changed.push(addr));
        assert_eq!(changed, vec![0x1000, 0x2000, 0x3000]);
    }

    #[test]
    fn merges_never_leave_empty_entries_behind() {
        let mut a = InvariantDatabase::new();
        a.insert(one_of(0x1000, &[1, 2, 3]));
        let mut b = InvariantDatabase::new();
        b.insert(one_of(0x1000, &[4, 5, 6]));
        let mut changed = Vec::new();
        a.merge_filtered_observed(&b, |_| true, |addr| changed.push(addr));
        // The overflowing one-of was dropped; the emptied entry must vanish from
        // the map (presence means "carries invariants"), and the drop is a change.
        assert_eq!(changed, vec![0x1000]);
        assert_eq!(a.entry(0x1000), None);
        assert_eq!(a.addrs().count(), 0);
    }

    #[test]
    fn sharded_observed_merge_routes_change_reports() {
        let mut shards = vec![InvariantDatabase::new(); 4];
        let mut upload = InvariantDatabase::new();
        for addr in (0x1000u32..0x1040).step_by(4) {
            upload.insert(one_of(addr, &[1]));
        }
        let mut reported = Vec::new();
        InvariantDatabase::merge_into_shards_observed(&mut shards, &upload, |s, a| {
            reported.push((s, a))
        });
        assert_eq!(reported.len(), 16);
        for (shard, addr) in reported {
            assert_eq!(InvariantDatabase::shard_of(addr, 4), shard);
        }
    }

    #[test]
    fn recount_tracks_kinds() {
        let mut db = InvariantDatabase::new();
        db.insert(one_of(0x1000, &[1]));
        db.insert(Invariant::LowerBound {
            var: var(0x1001),
            min: 0,
        });
        db.insert(Invariant::LessThan {
            a: var(0x1002),
            b: var(0x1003),
        });
        db.recount();
        assert_eq!(db.stats.one_of, 1);
        assert_eq!(db.stats.lower_bound, 1);
        assert_eq!(db.stats.less_than, 1);
        assert_eq!(db.stats.total_invariants(), 3);
    }
}
