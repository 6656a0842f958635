//! Byte-identity of the delta cutter.
//!
//! `DeltaSnapshot::diff` is the executable specification and the oracle here:
//! O(database), diffing two materialized snapshots. `DeltaBuilder` with the
//! store's `DirtyEpochs` tracker is the one production cutter: O(changed) for a
//! base the tracker covers, a walk over every address for an older one. These
//! tests prove its cuts **byte-identical** to the diff — same struct, same encoded
//! container — over:
//!
//! * randomized epoch histories at the store level (proptest): merges that add,
//!   reshape, drop (one-of overflow), and no-op entries; procedure discoveries;
//!   plan churn; checkpoints cut mid-epoch (the open-epoch ambiguity the
//!   inclusive `dirty_since` rule exists for); a tracker reset mid-history, as a
//!   wholesale model install does, which sends the earlier bases down the full
//!   walk;
//! * a real fleet history: learning, multi-failure epochs, mid-epoch churn kills,
//!   delta and full rejoins, warm and cold joiners;
//! * the restore seam: bases at or before the epoch a coordinator was restored
//!   from a snapshot at, which the tracker does not cover, still converge.

use cv_apps::{learning_suite, red_team_exploits, Browser, MULTI_FAILURE_TARGETS};
use cv_core::{ClearViewConfig, Directive, NetPatchState, PatchPlan};
use cv_fleet::{
    DeltaSnapshot, Fleet, FleetConfig, MembershipOp, Presentation, ShardedInvariantStore, Snapshot,
};
use cv_inference::{Invariant, InvariantDatabase, Variable};
use cv_isa::{Addr, Operand, Reg};
use cv_store::DeltaBuilder;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Deterministic SplitMix64 driving the history generator (proptest supplies the
/// seed; the shim has no recursive strategy support, and explicit control over
/// the op mix matters more than shrinking here).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A small upload drawn from a bounded address pool, so repeated merges overlap:
/// some entries union new one-of values (change), some reproduce the stored entry
/// (no-op the dirty plane must not over-report as a changed *entry*... it may
/// over-stamp, but the cutter must filter), and some overflow ONE_OF_LIMIT and
/// drop entries entirely (removals).
fn random_upload(rng: &mut Rng) -> InvariantDatabase {
    let mut db = InvariantDatabase::new();
    let entries = 1 + rng.below(12);
    for _ in 0..entries {
        let addr = 0x4_0000u32 + (rng.below(24) as Addr) * 4;
        // Two registers only: repeated merges must collide on the same variable,
        // so one-of unions overflow ONE_OF_LIMIT and drop entries (removals).
        let var = Variable::read(addr, 0, Operand::Reg(Reg::ALL[rng.below(2) as usize]));
        match rng.below(3) {
            0 => {
                let values: BTreeSet<u32> =
                    (0..1 + rng.below(3)).map(|_| rng.below(9) as u32).collect();
                db.insert(Invariant::OneOf { var, values });
            }
            1 => db.insert(Invariant::LowerBound {
                var,
                min: rng.below(7) as i32 - 3,
            }),
            _ => db.insert(Invariant::StackPointerOffset {
                proc_entry: addr & !0x3F,
                at: addr,
                offset: rng.below(3) as i32,
            }),
        }
    }
    db.stats.events_processed = rng.below(100);
    db.stats.runs_committed = rng.below(5);
    db.recount();
    db
}

/// A simulated coordinator: the sharded store (with its dirty plane), the
/// discovered procedures, and the net patch configuration — everything a
/// checkpoint captures.
struct Coordinator {
    store: ShardedInvariantStore,
    procs: BTreeSet<Addr>,
    net: NetPatchState,
    epoch: u64,
}

impl Coordinator {
    fn new(shard_count: usize) -> Self {
        Coordinator {
            store: ShardedInvariantStore::new(shard_count),
            procs: BTreeSet::new(),
            net: NetPatchState::new(),
            epoch: 0,
        }
    }

    fn checkpoint(&self) -> Snapshot {
        Snapshot {
            epoch: self.epoch,
            shard_count: self.store.shard_count() as u32,
            invariants: self.store.snapshot(),
            procedures: self.procs.iter().copied().collect(),
            plan: self.net.to_plan(),
        }
    }

    fn mutate(&mut self, rng: &mut Rng) {
        match rng.below(6) {
            // Merges dominate: they are the O(changed) workload the plane tracks.
            0..=2 => {
                let uploads: Vec<InvariantDatabase> =
                    (0..1 + rng.below(3)).map(|_| random_upload(rng)).collect();
                self.store.merge_uploads(&uploads);
            }
            3 => {
                let entry = 0x4_0000u32 + (rng.below(16) as Addr) * 0x40;
                if self.procs.insert(entry) {
                    self.store.mark_proc(entry);
                }
            }
            _ => {
                let mut plan = PatchPlan::new();
                let location = 0x4_0000u32 + (rng.below(24) as Addr) * 4;
                let directive = match rng.below(3) {
                    0 => Directive::InstallChecks(Vec::new()),
                    1 => Directive::RemoveChecks,
                    _ => Directive::RemoveRepair,
                };
                plan.push(location, directive);
                self.net.apply(&plan);
                let router = cv_inference::ShardRouter::new(self.store.shard_count());
                self.store.mark_plan_shards(&plan.shards_touched(&router));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_deltas_are_byte_identical_over_random_histories(
        seed in any::<u64>(),
        shard_count in 1usize..8,
        epochs in 2u64..8,
        reset_at in 0u64..8,
    ) {
        let mut rng = Rng(seed);
        let mut coordinator = Coordinator::new(shard_count);
        let mut bases: Vec<Snapshot> = vec![coordinator.checkpoint()];

        for epoch in 1..=epochs {
            coordinator.epoch = epoch;
            coordinator.store.begin_epoch(epoch);
            for _ in 0..1 + rng.below(4) {
                coordinator.mutate(&mut rng);
                // Sometimes cut a checkpoint *mid-epoch*, before more mutations
                // stamp into the still-open epoch — the case the inclusive
                // `dirty_since(base)` rule exists for.
                if rng.below(4) == 0 {
                    bases.push(coordinator.checkpoint());
                }
            }
            // A wholesale install forgets the tracker's history, as `set_model`
            // does: every base cut so far, and this epoch's closing one, now
            // takes the full walk.
            if epoch == reset_at {
                coordinator.store.reset_dirty(epoch + 1);
            }
            if rng.below(2) == 0 {
                bases.push(coordinator.checkpoint());
            }
        }

        let target = coordinator.checkpoint();
        let fused = coordinator.store.snapshot();
        for base in &bases {
            let diffed = DeltaSnapshot::diff(base, &target);
            let cut = DeltaBuilder::new(base, coordinator.store.dirty()).cut(
                target.epoch,
                &fused,
                target.procedures.iter().copied(),
                target.plan.clone(),
            );
            prop_assert_eq!(&cut, &diffed);
            prop_assert_eq!(cut.encode(), diffed.encode());

            let mut advanced = base.clone();
            advanced.apply_delta(&cut).unwrap();
            prop_assert_eq!(advanced, target.clone());
        }
    }
}

/// The epochs-to-protection ceiling for the fleet history below.
const MAX_EPOCHS: usize = 12;

/// A real fleet history — learning, two simultaneous exploits, mid-epoch churn
/// kills, delta + full rejoins, a warm and a cold joiner — with checkpoints cut
/// along the way; every recorded base must yield a cut byte-identical to the
/// diff. (That the live fleet's tracker covers every one of these bases is
/// checked in `cv-fleet`'s own unit tests, which can read the tracker.)
#[test]
fn fleet_history_cuts_identical_deltas_incrementally() {
    let browser = Browser::build();
    let exploits = red_team_exploits(&browser);
    let targets: Vec<_> = MULTI_FAILURE_TARGETS
        .iter()
        .take(2)
        .map(|(bug, sym)| {
            (
                exploits
                    .iter()
                    .find(|e| e.bugzilla == *bug)
                    .unwrap()
                    .clone(),
                browser.sym(sym),
            )
        })
        .collect();

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(48),
    );
    fleet.distributed_learning(&learning_suite());

    let mut bases = vec![fleet.checkpoint()];
    let batch: Vec<Presentation> = targets
        .iter()
        .enumerate()
        .map(|(k, (exploit, _))| Presentation::new(k, exploit.page()))
        .collect();

    // First epoch kills members 30..36 mid-epoch (they miss the patch push).
    fleet.run_epoch_churn(&batch, &[30, 31, 32, 33, 34, 35]);
    bases.push(fleet.checkpoint());
    for _ in 0..MAX_EPOCHS {
        if targets
            .iter()
            .all(|(_, loc)| fleet.is_protected_against(*loc))
        {
            break;
        }
        fleet.run_epoch(&batch);
    }
    for (_, loc) in &targets {
        assert!(fleet.is_protected_against(*loc), "fleet failed to immunize");
    }
    bases.push(fleet.checkpoint());

    // Churn: delta rejoins against two different generations of checkpoint, a
    // full rejoin, and joiners — all of which cut deltas / snapshots internally.
    fleet.apply_membership(MembershipOp::Rejoin {
        node: 30,
        checkpoint: Some(&bases[0]),
    });
    fleet.apply_membership(MembershipOp::Rejoin {
        node: 31,
        checkpoint: Some(&bases[1]),
    });
    fleet.apply_membership(MembershipOp::Rejoin {
        node: 32,
        checkpoint: None,
    });
    fleet.apply_membership(MembershipOp::JoinWarm);
    let cold = fleet.apply_membership(MembershipOp::JoinCold).nodes[0];
    fleet.apply_membership(MembershipOp::Resync(cold));
    fleet.run_epoch(&batch);
    bases.push(fleet.checkpoint());

    // Every base, old or new: cut == diff, byte for byte.
    let target = fleet.checkpoint();
    for base in &bases {
        let cut = fleet.delta_since(base);
        let diffed = DeltaSnapshot::diff(base, &target);
        assert_eq!(cut, diffed);
        assert_eq!(cut.encode(), diffed.encode());
        let mut advanced = base.clone();
        advanced.apply_delta(&cut).unwrap();
        assert_eq!(advanced, target);
    }

    let metrics = fleet.metrics();
    assert!(metrics.delta_cuts >= bases.len() as u64);
    assert!(metrics.dirty_shards_last <= fleet.shard_count() as u64);
}

/// Two checkpoints can share an epoch label (learning lands while the epoch is
/// open). A *live* coordinator handles that via the inclusive `dirty_since`
/// rule; a *restored* one has no mutation history for its label epoch at all,
/// so handing it the earlier same-label checkpoint must not produce an identity
/// delta — the member would silently miss the second learning round.
#[test]
fn restored_fleet_never_hands_identity_deltas_to_same_label_bases() {
    let browser = Browser::build();
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(16),
    );
    let pages = learning_suite();
    fleet.distributed_learning(&pages[..pages.len() / 2]);
    let first = fleet.checkpoint(); // epoch E, pre-second-learning
    fleet.distributed_learning(&pages[pages.len() / 2..]);
    let second = fleet.checkpoint(); // same epoch E, different state
    assert_eq!(first.epoch, second.epoch);
    assert_ne!(first, second);

    // The live coordinator covers both labels (inclusive rule) and cuts a
    // correct non-identity delta for the earlier variant.
    let live_delta = fleet.delta_since(&first);
    assert!(!live_delta.is_identity());
    assert_eq!(
        live_delta.encode(),
        DeltaSnapshot::diff(&first, &second).encode()
    );

    // The restored coordinator cannot tell the variants apart; its tracker does
    // not cover the same-label base, so the cutter re-checks every address
    // rather than claim it clean.
    let mut restored = Fleet::from_snapshot(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(16),
        &second,
    );
    let restored_delta = restored.delta_since(&first);
    assert!(!restored_delta.is_identity());
    assert_eq!(
        restored_delta.encode(),
        DeltaSnapshot::diff(&first, &restored.checkpoint()).encode()
    );
    let mut advanced = first.clone();
    advanced.apply_delta(&restored_delta).unwrap();
    assert_eq!(advanced.invariants, second.invariants);
}

/// A coordinator restored from a snapshot has no mutation history older than the
/// restore point: bases after it are cut from the dirty set, bases at or before
/// it by the full walk — and both converge members onto the same state.
#[test]
fn restored_fleet_cuts_pre_restore_bases_by_full_walk() {
    let browser = Browser::build();
    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(32),
    );
    fleet.distributed_learning(&learning_suite());
    let old_base = fleet.checkpoint(); // pre-restore generation
    let batch = [Presentation::new(0, exploit.page())];
    for _ in 0..MAX_EPOCHS {
        fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) {
            break;
        }
    }
    assert!(fleet.is_protected_against(location));
    let snapshot = fleet.checkpoint();

    let mut restored = Fleet::from_snapshot(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(32),
        &snapshot,
    );
    restored.run_epoch(&batch);
    let mid_base = restored.checkpoint(); // post-restore generation
    restored.run_epoch(&batch);
    let target = restored.checkpoint();

    // Only the post-restore base is covered. Both the pre-restore base *and* a
    // base carrying the restore snapshot's own epoch label take the full walk:
    // the restore has no mutation history for that epoch, and two different
    // checkpoints can share a label (learning lands mid-epoch), so claiming
    // coverage there could hand a member an identity delta for state it does
    // not hold. All three must equal the specification diff exactly.
    let from_mid = restored.delta_since(&mid_base);
    let from_restore_label = restored.delta_since(&snapshot);
    let from_old = restored.delta_since(&old_base);
    assert_eq!(restored.metrics().delta_cuts, 3);
    for (base, delta) in [
        (&mid_base, from_mid),
        (&snapshot, from_restore_label),
        (&old_base, from_old),
    ] {
        assert_eq!(delta.encode(), DeltaSnapshot::diff(base, &target).encode());
        let mut advanced = base.clone();
        advanced.apply_delta(&delta).unwrap();
        assert_eq!(advanced, target);
    }
}
