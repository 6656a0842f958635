//! Per-tier delta sync through the manager tree.
//!
//! A fleet larger than its fan-out serves every membership sync — warm joins,
//! delta and full rejoins, resyncs, and transport-desync healing — from the
//! manager tree's **leaf tier**, never the root. These tests pin the two
//! properties that make that safe:
//!
//! * **Byte-identity**: a tier coordinator's `DeltaBuilder` cut is canonical in
//!   the base and the state, so tiered sync yields member state and a
//!   [`BatchLog`](cv_fleet::BatchLog) byte-identical to root-direct sync —
//!   randomized churn histories (kills, delta/full rejoins, warm/cold joins)
//!   replayed at fan-outs {2, 8, 32} against the flat fleet prove it.
//! * **The root is actually bypassed**: every [`SyncOutcome`] of a tiered fleet
//!   names a leaf-tier coordinator as its source peer, and the
//!   `root_sync_bypass_count` metric stays zero — including while healing a
//!   partition on the chaos transport.
//!
//! Plus the typed misrouting guard: a delta relayed across tiers with the wrong
//! shard routing is rejected with [`TierSyncError::CrossTierMisroute`] before it
//! can corrupt a coordinator mirror.

use cv_apps::{evaluation_suite, learning_suite, red_team_exploits, Browser};
use cv_core::ClearViewConfig;
use cv_fleet::{
    tier_peer, ChaosConfig, DeltaSnapshot, Fleet, FleetConfig, MembershipOp, Presentation,
    Snapshot, SyncOutcome, SyncSource, TierRow, TierSyncError, TransportKind, COORDINATOR,
};
use cv_isa::Word;
use proptest::prelude::*;

const NODES: usize = 40;

/// One epoch of randomized churn history. Raw picks are reduced against the
/// alive (or down) member list at the moment the epoch runs, so every generated
/// plan is valid against every reachable fleet state.
#[derive(Debug, Clone)]
struct EpochPlan {
    /// (member pick, page pick) per presentation, in batch order.
    presentations: Vec<(usize, usize)>,
    /// Members killed mid-epoch (they miss the boundary push).
    kills: Vec<usize>,
    /// Rejoins at the boundary: `true` = delta against the pre-kill checkpoint,
    /// `false` = full-snapshot bootstrap.
    rejoins: Vec<bool>,
    /// Brand-new members: `true` = warm join, `false` = cold join + resync.
    joins: Vec<bool>,
}

fn arb_epoch() -> impl Strategy<Value = EpochPlan> {
    (
        prop::collection::vec((0usize..1024, 0usize..1024), 1..8),
        prop::collection::vec(0usize..1024, 0..3),
        prop::collection::vec(any::<bool>(), 0..3),
        prop::collection::vec(any::<bool>(), 0..2),
    )
        .prop_map(|(presentations, kills, rejoins, joins)| EpochPlan {
            presentations,
            kills,
            rejoins,
            joins,
        })
}

/// The page pool a history draws from: benign pages plus exploit pages repeated,
/// so failures (and patch pushes — state churn for the deltas) are common.
fn page_pool(browser: &Browser) -> Vec<Vec<Word>> {
    let mut pool = evaluation_suite();
    for exploit in red_team_exploits(browser) {
        for _ in 0..3 {
            pool.push(exploit.page().to_vec());
        }
    }
    pool
}

/// Replay one generated history at one manager-tree fan-out (0 = flat,
/// root-direct sync), collecting every [`SyncOutcome`] in op order.
fn run_history(
    fanout: usize,
    browser: &Browser,
    pool: &[Vec<Word>],
    epochs: &[EpochPlan],
) -> (Fleet, Vec<SyncOutcome>) {
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(NODES)
            .with_workers(2)
            .with_tree_fanout(fanout),
    );
    fleet.distributed_learning(&learning_suite());
    let mut outcomes = Vec::new();
    for plan in epochs {
        let alive: Vec<usize> = (0..fleet.node_count())
            .filter(|&n| fleet.is_member_alive(n))
            .collect();
        let batch: Vec<Presentation> = plan
            .presentations
            .iter()
            .map(|&(m, p)| Presentation::new(alive[m % alive.len()], pool[p % pool.len()].clone()))
            .collect();
        let mut kills: Vec<usize> = Vec::new();
        for &k in &plan.kills {
            let node = alive[k % alive.len()];
            if !kills.contains(&node) {
                kills.push(node);
            }
        }
        // Never take the whole fleet down: the next epoch needs someone alive.
        if kills.len() >= alive.len() {
            kills.pop();
        }
        // The pre-kill checkpoint is the base the delta rejoins advance from.
        let base = fleet.checkpoint();
        fleet.run_epoch_churn(&batch, &kills);
        for (i, &delta) in plan.rejoins.iter().enumerate() {
            let down: Vec<usize> = (0..fleet.node_count())
                .filter(|&n| !fleet.is_member_alive(n))
                .collect();
            if down.is_empty() {
                break;
            }
            let node = down[i % down.len()];
            outcomes.push(fleet.apply_membership(MembershipOp::Rejoin {
                node,
                checkpoint: delta.then_some(&base),
            }));
        }
        for &warm in &plan.joins {
            if warm {
                outcomes.push(fleet.apply_membership(MembershipOp::JoinWarm));
            } else {
                let cold = fleet.apply_membership(MembershipOp::JoinCold);
                let node = cold.nodes[0];
                outcomes.push(cold);
                outcomes.push(fleet.apply_membership(MembershipOp::Resync(node)));
            }
        }
    }
    // A deterministic tail so every history exercises the delta path at least
    // once: two members die mid-epoch and rejoin by delta from the pre-kill
    // checkpoint.
    let base = fleet.checkpoint();
    let tail: Vec<usize> = (0..fleet.node_count())
        .filter(|&n| fleet.is_member_alive(n))
        .take(2)
        .collect();
    fleet.run_epoch_churn(&[Presentation::new(tail[0], pool[0].clone())], &tail);
    for &node in &tail {
        outcomes.push(fleet.apply_membership(MembershipOp::Rejoin {
            node,
            checkpoint: Some(&base),
        }));
    }
    (fleet, outcomes)
}

/// The leaf tier a fleet of `members` serves member sync from at `fanout`
/// (the deepest coordinator row the push tiers produce).
fn leaf_tier(members: usize, fanout: usize) -> u32 {
    cv_core::ManagerTree::new(fanout)
        .coordinator_rows(members)
        .last()
        .expect("fleet outgrew the fan-out, so coordinator rows exist")
        .tier
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline byte-identity discipline: for every fan-out in {2, 8, 32},
    /// the same churn history replayed tiered and root-direct yields (a) a
    /// byte-identical `BatchLog`, (b) byte-identical final coordinator state,
    /// (c) identical per-op sync outcomes (nodes, delta-ness, byte counts) —
    /// while every tiered sync names a **leaf-tier coordinator**, not the
    /// root, as its source, and the root-bypass counter stays zero.
    #[test]
    fn tiered_sync_is_byte_identical_to_root_direct(
        epochs in prop::collection::vec(arb_epoch(), 1..4),
    ) {
        let browser = Browser::build();
        let pool = page_pool(&browser);
        let (mut flat, flat_outcomes) = run_history(0, &browser, &pool, &epochs);
        let flat_ckpt = flat.checkpoint().encode();

        for fanout in [2usize, 8, 32] {
            let (mut tiered, tiered_outcomes) = run_history(fanout, &browser, &pool, &epochs);

            // (a) Protocol history byte-identical.
            prop_assert_eq!(flat.log(), tiered.log());
            prop_assert_eq!(
                format!("{:?}", flat.log()),
                format!("{:?}", tiered.log())
            );
            // (b) Final member-visible state byte-identical.
            prop_assert_eq!(flat.model().invariants.clone(), tiered.model().invariants.clone());
            prop_assert_eq!(
                format!("{:?}", flat.net_state().to_plan()),
                format!("{:?}", tiered.net_state().to_plan())
            );
            // (c) Same ops, same deltas, same bytes — only the source differs.
            prop_assert_eq!(flat_outcomes.len(), tiered_outcomes.len());
            let leaf = leaf_tier(tiered.node_count(), fanout);
            for (f, t) in flat_outcomes.iter().zip(&tiered_outcomes) {
                prop_assert_eq!(&f.nodes, &t.nodes);
                prop_assert_eq!(f.delta, t.delta);
                prop_assert_eq!(f.bytes, t.bytes);
                if f.source_peer.is_some() {
                    // Root-direct syncs come from the coordinator peer...
                    prop_assert_eq!(f.source_peer, Some(COORDINATOR));
                    prop_assert_eq!(f.source_tier, Some(0));
                    // ...tiered syncs from the leaf coordinator row, never the
                    // root (NODES > fanout for every fan-out here).
                    prop_assert_eq!(t.source_peer, Some(tier_peer(leaf)));
                    prop_assert_eq!(t.source_tier, Some(leaf));
                }
            }
            // The tree carried real sync traffic; the root served none of it.
            prop_assert_eq!(tiered.metrics().root_sync_bypass_count, 0);
            prop_assert!(tiered.metrics().tier_sync_bytes > 0);
            prop_assert!(tiered.metrics().tier_delta_cuts > 0);
            prop_assert_eq!(flat.metrics().tier_sync_bytes, 0);
            prop_assert_eq!(flat.metrics().tier_delta_cuts, 0);
            prop_assert_eq!(flat.metrics().root_sync_bypass_count, 0);
            // And the tiered coordinator still checkpoints byte-identically.
            prop_assert_eq!(flat_ckpt.clone(), tiered.checkpoint().encode());
        }
    }
}

/// Partition healing at fan-out 8 on the chaos transport: the cut members
/// desync, heal through the transport resync pass — and that pass is served by
/// their **parent tier**, not the root. Delta resyncs flow, the bypass counter
/// stays zero, and the healed members are synced and immune.
#[test]
fn partition_heals_from_the_parent_tier_not_the_root() {
    let browser = Browser::build();
    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");
    let cut: Vec<usize> = (8..16).collect();

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(NODES)
            .with_workers(2)
            .with_tree_fanout(8)
            // No background loss: this test isolates the partition fault.
            .with_transport(TransportKind::Chaos(ChaosConfig::lossless(0x9A47))),
    );
    fleet.distributed_learning(&learning_suite());

    // One benign epoch so the partitioned members have a synced base > 0 to
    // delta from.
    let benign = evaluation_suite();
    fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);

    fleet.partition_members(&cut);
    let batch: Vec<Presentation> = [0usize, 20, 31]
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    for _ in 0..12 {
        fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) {
            break;
        }
    }
    assert!(fleet.is_protected_against(location));
    assert!(
        !fleet.transport_desynced().is_empty(),
        "partitioned members should have missed the patch push"
    );

    fleet.heal_partition();
    for _ in 0..8 {
        if fleet.transport_desynced().is_empty() {
            break;
        }
        fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);
    }
    assert!(
        fleet.transport_desynced().is_empty(),
        "members still desynced after healing: {:?}",
        fleet.transport_desynced()
    );

    let m = fleet.metrics();
    assert!(m.transport_resyncs > 0, "healed members never resynced");
    assert!(
        m.transport_delta_resyncs > 0,
        "healing should have used the delta plane, not full snapshots"
    );
    // The healing traffic flowed through the tree, never the root.
    assert_eq!(m.root_sync_bypass_count, 0);
    assert!(m.tier_sync_bytes > 0);
    assert!(m.tier_delta_cuts > 0);

    // The healed members are immune too.
    let verify: Vec<Presentation> = cut
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(outcome.blocked(), 0);
    assert_eq!(outcome.completed(), cut.len());
}

/// Build a small real snapshot pair (base, advanced) by driving a fleet one
/// protected epoch past its checkpoint.
fn snapshot_pair(browser: &Browser) -> (Snapshot, Snapshot, Fleet) {
    let exploit = red_team_exploits(browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(8).with_workers(2),
    );
    let base = fleet.checkpoint();
    fleet.distributed_learning(&learning_suite());
    let batch = vec![Presentation::new(0, exploit.page())];
    for _ in 0..12 {
        fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) {
            break;
        }
    }
    let current = fleet.checkpoint();
    (base, current, fleet)
}

/// A delta whose shard routing disagrees with the receiving coordinator — the
/// cross-tier misrouting fault — is rejected with a typed error *before* any
/// state is touched.
#[test]
fn cross_tier_misrouted_delta_is_rejected() {
    let browser = Browser::build();
    let (base, current, _fleet) = snapshot_pair(&browser);
    let mut row = TierRow::new(1, 4, base.clone());

    // Wrong shard count outright: the delta claims a different routing space.
    let mut wrong_count = DeltaSnapshot::diff(&base, &current);
    wrong_count.shard_count += 1;
    match row.apply_relayed(&wrong_count) {
        Err(TierSyncError::CrossTierMisroute { tier: 1, .. }) => {}
        other => panic!("expected CrossTierMisroute, got {other:?}"),
    }

    // Right shard count, but an entry filed under the wrong shard: the
    // per-entry routing validation catches the corruption.
    let mut misfiled = DeltaSnapshot::diff(&base, &current);
    let from = misfiled
        .shards
        .iter()
        .position(|s| !s.entries.is_empty())
        .expect("a protected epoch changes at least one entry");
    let to = (from + 1) % misfiled.shards.len();
    let entry = misfiled.shards[from].entries.remove(0);
    misfiled.shards[to].entries.push(entry);
    match row.apply_relayed(&misfiled) {
        Err(TierSyncError::CrossTierMisroute { tier: 1, .. }) => {}
        other => panic!("expected CrossTierMisroute, got {other:?}"),
    }

    // The row state is untouched by either rejected relay, and a clean delta
    // still applies and lands the row on the coordinator's exact state.
    assert_eq!(row.state(), &base);
    let clean = DeltaSnapshot::diff(&base, &current);
    row.apply_relayed(&clean).expect("clean delta applies");
    assert_eq!(row.state(), &current);
}

/// A relayed delta cut against a checkpoint the row does not hold is a stale
/// base — typed, with both epochs named.
#[test]
fn stale_base_relay_is_rejected() {
    let browser = Browser::build();
    let (base, current, mut fleet) = snapshot_pair(&browser);
    let mut row = TierRow::new(2, 3, current.clone());

    let stale = DeltaSnapshot::diff(&base, &current);
    match row.apply_relayed(&stale) {
        Err(TierSyncError::StaleBase {
            tier: 2,
            expected,
            found,
        }) => {
            assert_eq!(expected, current.epoch);
            assert_eq!(found, base.epoch);
        }
        other => panic!("expected StaleBase, got {other:?}"),
    }

    // A tier row is a `SyncSource` like the root: its cut against the same
    // base is byte-identical to the root's cut.
    let row_delta = row.delta_since(&base);
    let root_delta = fleet.delta_since(&base);
    assert_eq!(row_delta.encode(), root_delta.encode());
}

/// One history through every membership operation — crashes one at a time and
/// several at once, a delta rejoin and two full ones, a warm join, a cold join and
/// its resync — each counted once in the metrics.
#[test]
fn every_membership_op_is_counted_once() {
    let browser = Browser::build();
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(8).with_workers(2),
    );
    fleet.distributed_learning(&learning_suite());
    let base = fleet.checkpoint();
    let benign = evaluation_suite();
    fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);

    fleet.apply_membership(MembershipOp::Crash(&[3]));
    fleet.apply_membership(MembershipOp::Crash(&[4, 5]));
    assert_eq!(fleet.alive_count(), 5);

    for (node, checkpoint) in [(3, Some(&base)), (4, None), (5, None)] {
        fleet.apply_membership(MembershipOp::Rejoin { node, checkpoint });
    }
    assert_eq!(fleet.alive_count(), 8);
    assert!(fleet.is_member_synced(3));

    let warm = fleet.apply_membership(MembershipOp::JoinWarm).nodes[0];
    assert!(fleet.is_member_synced(warm));
    let cold = fleet.apply_membership(MembershipOp::JoinCold).nodes[0];
    assert!(!fleet.is_member_synced(cold));
    fleet.apply_membership(MembershipOp::Resync(cold));
    assert!(fleet.is_member_synced(cold));

    let m = fleet.metrics();
    assert_eq!(m.crashes, 3);
    assert_eq!(m.rejoins, 3);
    assert_eq!(m.delta_syncs, 1);
    assert_eq!(m.warm_joins, 1);
    assert_eq!(m.cold_joins, 1);
}
