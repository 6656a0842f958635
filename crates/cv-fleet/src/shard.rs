//! The sharded invariant store.
//!
//! The central manager's `InvariantDatabase` is the write-hot structure of a learning
//! round: every member uploads its locally inferred invariants and all uploads must be
//! merged (Section 3.1 of the paper). A monolithic database serializes those merges.
//! [`ShardedInvariantStore`] partitions the database by check-address shard
//! ([`InvariantDatabase::shard_of`]): each shard owns a disjoint set of check
//! addresses. A batch of uploads merges in one pass on the calling thread
//! ([`InvariantDatabase::merge_into_shards_observed`]): each upload is scanned once and
//! every address entry routed straight to its owning shard, so the fused result is
//! bit-identical to the sequential merge (`tests/shard_parity.rs` proves this against
//! the seed's `InvariantDatabase::merge`). The partition is what the routing, the
//! dirty tracking and the deltas below are keyed by. A learning round's whole batch
//! merges in a fraction of a millisecond, less than a thread per shard took for the
//! same batch on a 2-vCPU machine, so the merge spawns no threads.
//!
//! **Dirty-epoch tracking.** The store is also where the persistence plane learns
//! what changed: the merge reports the entries it actually modified (the
//! `_observed` merge primitives), and the store stamps them — per shard, per epoch
//! — into an embedded [`DirtyEpochs`] tracker, which then answers "what may differ
//! from the epoch-B checkpoint?" in O(changed). That is what lets `cv-store`'s
//! `DeltaBuilder` cut deltas without materializing a target snapshot. A store
//! whose state was installed wholesale (warm restore, model replacement) must call
//! [`ShardedInvariantStore::reset_dirty`] with the epoch the new state corresponds
//! to; the cutter re-checks every address for older bases.

use cv_inference::{DirtyEpochs, InvariantDatabase};
use cv_isa::Addr;

/// A community invariant database partitioned by check-address shard.
#[derive(Debug, Clone)]
pub struct ShardedInvariantStore {
    shards: Vec<InvariantDatabase>,
    /// The dirty-epoch plane: which addresses each epoch's merges actually
    /// changed, per shard, plus procedure discoveries and plan-touched shards.
    dirty: DirtyEpochs,
}

impl ShardedInvariantStore {
    /// An empty store with `shard_count` shards (at least 1). An empty store has
    /// trivially complete mutation history, so its dirty floor is epoch 0.
    pub fn new(shard_count: usize) -> Self {
        ShardedInvariantStore {
            shards: vec![InvariantDatabase::new(); shard_count.max(1)],
            dirty: DirtyEpochs::new(shard_count.max(1), 0),
        }
    }

    /// Partition an existing database into a store. The database's mutation
    /// history is unknown, so the dirty floor starts at `u64::MAX` — no base can
    /// be answered incrementally until [`ShardedInvariantStore::reset_dirty`]
    /// declares which epoch this state corresponds to.
    pub fn from_database(db: InvariantDatabase, shard_count: usize) -> Self {
        ShardedInvariantStore {
            shards: db.split(shard_count.max(1)),
            dirty: DirtyEpochs::new(shard_count.max(1), u64::MAX),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of invariants across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if no invariants are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The individual shards (each holds only addresses it owns).
    pub fn shards(&self) -> &[InvariantDatabase] {
        &self.shards
    }

    /// The dirty-epoch tracker (what changed, per shard, per epoch).
    pub fn dirty(&self) -> &DirtyEpochs {
        &self.dirty
    }

    /// Advance the epoch subsequent mutations are stamped into.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.dirty.begin_epoch(epoch);
    }

    /// Restart dirty tracking with complete knowledge from `floor` on — the
    /// store's state was just installed wholesale and corresponds to the
    /// epoch-`floor` checkpoint (or, for a state no checkpoint equals, the first
    /// epoch after it).
    pub fn reset_dirty(&mut self, floor: u64) {
        self.dirty.reset(floor);
    }

    /// Stamp a procedure entry discovered in the current epoch (procedure
    /// discovery lives next to the invariants in snapshots, so its dirt is
    /// tracked here too).
    pub fn mark_proc(&mut self, entry: Addr) {
        self.dirty.mark_proc(entry);
    }

    /// Stamp the shards a patch plan's application touched in the current epoch
    /// (the configuration-change footprint reported in fleet metrics).
    pub fn mark_plan_shards(&mut self, shards: &[usize]) {
        for &shard in shards {
            self.dirty.mark_plan_shard(shard);
        }
    }

    /// Merge member uploads into the store in one scan of each upload, every
    /// address entry routed to the shard that owns it, and stamp the entries the
    /// merges actually changed into the dirty plane. Upload order is preserved per
    /// address and each upload's run counters are absorbed once, so the result
    /// equals merging the uploads sequentially into a monolithic database.
    pub fn merge_uploads(&mut self, uploads: &[InvariantDatabase]) {
        if uploads.is_empty() {
            return;
        }
        let dirty = &mut self.dirty;
        for upload in uploads {
            InvariantDatabase::merge_into_shards_observed(
                &mut self.shards,
                upload,
                |shard, addr| dirty.mark_in_shard(shard, addr),
            );
        }
        for shard in &mut self.shards {
            shard.recount();
        }
        for upload in uploads {
            self.shards[0].absorb_run_stats(&upload.stats);
        }
    }

    /// Fuse the shards into one monolithic database (the central manager's merged
    /// community model). Equal to the result of sequentially merging every upload the
    /// store has seen.
    pub fn snapshot(&self) -> InvariantDatabase {
        InvariantDatabase::fuse(self.shards.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_inference::{Invariant, Variable};
    use cv_isa::{Operand, Reg};

    fn upload(member: u32) -> InvariantDatabase {
        let mut db = InvariantDatabase::new();
        for k in 0u32..60 {
            let addr = 0x1000 + (k * 4) % 128;
            let var = Variable::read(addr, 0, Operand::Reg(Reg::Ecx));
            db.insert(Invariant::OneOf {
                var,
                values: [member + k, k % 4].into_iter().collect(),
            });
            db.insert(Invariant::LowerBound {
                var,
                min: (member as i32) - (k as i32),
            });
        }
        db.stats.events_processed = 1000 + member as u64;
        db.stats.runs_committed = 10 + member as u64;
        db.recount();
        db
    }

    #[test]
    fn sharded_merge_equals_sequential_monolithic_merge() {
        let mut single = InvariantDatabase::new();
        single.insert(Invariant::LowerBound {
            var: Variable::read(0x1000, 0, Operand::Reg(Reg::Ecx)),
            min: 1,
        });
        single.recount();
        let batches = [vec![single], (0..8).map(upload).collect::<Vec<_>>()];

        for uploads in &batches {
            let mut reference = InvariantDatabase::new();
            for up in uploads {
                reference.merge(up);
            }
            for shard_count in [1, 2, 5, 16] {
                let mut store = ShardedInvariantStore::new(shard_count);
                store.merge_uploads(uploads);
                assert_eq!(
                    store.snapshot(),
                    reference,
                    "shard_count={shard_count} diverged from the sequential merge"
                );
                assert_eq!(store.len(), reference.len());

                // On a fresh store every address the merge created is stamped
                // dirty, in the shard that owns it.
                let dirty = store
                    .dirty()
                    .dirty_since(0)
                    .expect("a fresh store covers epoch 0");
                for (index, shard) in store.shards().iter().enumerate() {
                    let mut held: Vec<Addr> = shard.addrs().collect();
                    held.sort_unstable();
                    assert_eq!(
                        dirty.per_shard[index], held,
                        "shard {index} of {shard_count}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_upload_batches_accumulate() {
        let uploads: Vec<_> = (0..6).map(upload).collect();
        let mut reference = InvariantDatabase::new();
        for up in &uploads {
            reference.merge(up);
        }

        let mut store = ShardedInvariantStore::new(4);
        store.merge_uploads(&uploads[..2]);
        store.merge_uploads(&uploads[2..]);
        assert_eq!(store.snapshot(), reference);
    }

    #[test]
    fn from_database_round_trips() {
        let mut db = InvariantDatabase::new();
        for up in (0..3).map(upload) {
            db.merge(&up);
        }
        let store = ShardedInvariantStore::from_database(db.clone(), 8);
        assert_eq!(store.shard_count(), 8);
        assert_eq!(store.snapshot(), db);
        // Unknown mutation history: no base can be answered incrementally until
        // reset_dirty declares an epoch.
        assert_eq!(store.dirty().dirty_since(0), None);
    }

    #[test]
    fn dirty_stamps_follow_epochs_and_resets() {
        let uploads: Vec<_> = (0..2).map(upload).collect();
        let mut store = ShardedInvariantStore::new(4);
        store.begin_epoch(1);
        store.merge_uploads(&uploads[..1]);
        store.begin_epoch(2);
        store.merge_uploads(&uploads[1..]);
        store.mark_proc(0x4_0000);
        store.mark_plan_shards(&[2, 0]);

        let since1 = store.dirty().dirty_since(1).unwrap();
        assert!(since1.dirty_addr_count() > 0);
        assert_eq!(since1.procs, vec![0x4_0000]);
        assert_eq!(since1.plan_shards, vec![0, 2]);
        // Epoch-2-only view: the second upload re-merges the same addresses with
        // new values, so stamps exist, but strictly fewer than the full history
        // only if epoch 1 touched addresses epoch 2 left alone — both views must
        // at least be supersets of nothing and subsets of the epoch-1 view.
        let since2 = store.dirty().dirty_since(2).unwrap();
        assert!(since2.dirty_addr_count() <= since1.dirty_addr_count());

        store.reset_dirty(9);
        assert_eq!(store.dirty().dirty_since(8), None);
        assert!(store.dirty().dirty_since(9).unwrap().is_clean());
    }
}
