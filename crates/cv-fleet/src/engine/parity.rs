//! Engine parity: the engine (shared image, interned patch configurations,
//! copy-on-write run state, an 8-byte slot per member) must be **observationally
//! identical** to a community in which every member owns a long-lived environment
//! of its own — `scheduler.rs`, the sequential reference.
//!
//! The check is in the engine, not here. In this crate's test build every
//! [`EventEngine`](super::EventEngine) carries the reference, forwards it every
//! `crash` / `rejoin` / `join` / `reset_and_apply` / `apply_plan`, and after every
//! `run_epoch` and `learn` asserts — with the two functions below — that both
//! returned the same thing. So every history any test in this crate drives is a
//! parity test, the failure names the first divergent call, and since a `Fleet` is
//! a deterministic function of what its engine returns, byte-identical `BatchLog`s
//! follow by induction. An integration test under `tests/` links the crate's
//! non-test build and does **not** carry the reference.
//!
//! The histories here are the ones built to reach what the engine does differently:
//! randomized mixes of benign traffic, repeated exploit presentations (monitor
//! failures, check installation, repair evaluation), members presented several
//! times within one epoch (one materialized environment serving run after run),
//! mid-epoch crash churn, rejoins through snapshot bootstrap and warm/cold joins;
//! a deterministic 1,000-member case; and a lossy-transport history whose members
//! are rolled back by `reset_and_apply`, resynced by delta and failed over.
//!
//! Hand-made mutants of `engine.rs`, each applied alone and each failing
//! `cargo test -p cv-fleet --lib`:
//!
//! * `apply_plan` skipping one alive member (member 3) — `run_epoch`'s lockstep
//!   assertion, in all three histories here: the member's digests lack the checks,
//!   then its page is blocked where the reference's is repaired;
//! * `successor` comparing units as a set, ignoring order —
//!   `tests::installation_order_distinguishes_configurations`;
//! * `run_worker` keying every materialisation by `EMPTY_CONFIG`, so a member runs
//!   on whatever configuration its worker materialised first — `run_epoch`'s
//!   lockstep assertion in the proptest (cold joiners and bootstrapped members hold
//!   other configurations than the rest) and in
//!   `tests::a_reset_member_holds_the_plan_and_nothing_else`;
//! * `learn` dealing page `i` to member `i + 1` — `learn`'s lockstep assertion, in
//!   all three histories here;
//! * `crash` keeping the member's configuration —
//!   `tests::a_bootstrapped_member_shares_the_configuration_of_those_pushed_to`;
//! * `reset_and_apply` building on the member's current configuration instead of
//!   `EMPTY_CONFIG` — `tests::a_reset_member_holds_the_plan_and_nothing_else`.

use super::RunRecord;
use crate::{ChaosConfig, Fleet, FleetConfig, MembershipOp, NodeId, Presentation, TransportKind};
use cv_apps::{evaluation_suite, learning_suite, red_team_exploits, Browser};
use cv_core::ClearViewConfig;
use cv_inference::LearnedModel;
use cv_isa::Word;
use proptest::prelude::*;

/// One epoch's records, field by field, against the reference's.
pub(super) fn assert_same_records(engine: &[RunRecord], reference: &[RunRecord]) {
    assert_eq!(engine.len(), reference.len(), "records in the epoch");
    for (ours, theirs) in engine.iter().zip(reference) {
        let (seq, node) = (theirs.seq, theirs.node);
        assert_eq!(ours.seq, seq, "batch position");
        assert_eq!(ours.node, node, "member of presentation {seq}");
        assert_eq!(
            ours.status, theirs.status,
            "status of presentation {seq} (member {node})"
        );
        assert_eq!(
            ours.rendered, theirs.rendered,
            "render of presentation {seq} (member {node})"
        );
        assert_eq!(
            ours.failure, theirs.failure,
            "failure of presentation {seq} (member {node})"
        );
        assert_eq!(
            ours.digests, theirs.digests,
            "digests of presentation {seq} (member {node})"
        );
    }
}

/// One learning round's local models against the reference's. The reference
/// returns a model for every up member, the engine only for those dealt a page: a
/// member the engine left out must have learned nothing.
pub(super) fn assert_same_learning(
    engine: &[(NodeId, LearnedModel)],
    reference: &[(NodeId, LearnedModel)],
) {
    let procs = |model: &LearnedModel| -> Vec<_> {
        model.procedures.procedures().map(|p| p.entry).collect()
    };
    let mut engine = engine.iter().peekable();
    for (node, theirs) in reference {
        match engine.next_if(|(n, _)| n == node) {
            Some((_, ours)) => {
                assert_eq!(
                    ours.invariants, theirs.invariants,
                    "invariants member {node} learned"
                );
                assert_eq!(
                    procs(ours),
                    procs(theirs),
                    "procedures member {node} discovered"
                );
            }
            None => assert!(
                theirs.invariants.is_empty() && theirs.procedures.is_empty(),
                "member {node} was dealt pages the engine never gave it"
            ),
        }
    }
    assert!(
        engine.next().is_none(),
        "the engine returned a model for a member that is down or unknown"
    );
}

/// One epoch of randomized fleet history. Raw picks are reduced against the
/// alive (or down) member list at the moment the epoch runs, so every generated
/// plan is valid against every reachable fleet state.
#[derive(Debug, Clone)]
struct EpochPlan {
    /// (member pick, page pick) per presentation, in batch order.
    presentations: Vec<(usize, usize)>,
    /// Members killed mid-epoch (they run their presentations, then miss the
    /// boundary push — the delta-sync failure mode).
    kills: Vec<usize>,
    /// Members rejoined (full-snapshot bootstrap) at the epoch boundary.
    rejoins: Vec<usize>,
    /// Brand-new members added at the boundary: `true` = warm join (snapshot
    /// bootstrap), `false` = cold join (alive but unsynced — digests dropped).
    joins: Vec<bool>,
}

fn arb_epoch() -> impl Strategy<Value = EpochPlan> {
    (
        prop::collection::vec((0usize..1024, 0usize..1024), 1..12),
        prop::collection::vec(0usize..1024, 0..3),
        prop::collection::vec(0usize..1024, 0..3),
        prop::collection::vec(any::<bool>(), 0..2),
    )
        .prop_map(|(presentations, kills, rejoins, joins)| EpochPlan {
            presentations,
            kills,
            rejoins,
            joins,
        })
}

/// The page pool a history draws from: the benign evaluation suite plus the
/// red-team exploit pages, exploits repeated so failures (and therefore check
/// installation, repair evaluation, and patch pushes) are common.
fn page_pool(browser: &Browser) -> Vec<Vec<Word>> {
    let mut pool = evaluation_suite();
    for exploit in red_team_exploits(browser) {
        for _ in 0..3 {
            pool.push(exploit.page().to_vec());
        }
    }
    pool
}

/// Replay one generated history; the engine checks itself at every call.
fn run_history(
    nodes: usize,
    workers: usize,
    browser: &Browser,
    pool: &[Vec<Word>],
    epochs: &[EpochPlan],
) -> Fleet {
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(nodes).with_workers(workers),
    );
    fleet.distributed_learning(&learning_suite());
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
        fleet.run_epoch_churn(&batch, &kills);
        for &r in &plan.rejoins {
            let down: Vec<usize> = (0..fleet.node_count())
                .filter(|&n| !fleet.is_member_alive(n))
                .collect();
            if down.is_empty() {
                break;
            }
            fleet.apply_membership(MembershipOp::Rejoin {
                node: down[r % down.len()],
                checkpoint: None,
            });
        }
        for &warm in &plan.joins {
            if warm {
                fleet.apply_membership(MembershipOp::JoinWarm);
            } else {
                fleet.apply_membership(MembershipOp::JoinCold);
            }
        }
    }
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn event_engine_is_observationally_identical_to_the_classic_scheduler(
        epochs in prop::collection::vec(arb_epoch(), 1..6),
        workers in 1usize..4,
    ) {
        let browser = Browser::build();
        let pool = page_pool(&browser);
        let fleet = run_history(16, workers, &browser, &pool, &epochs);
        // Every epoch ran, and was compared, to its end.
        prop_assert_eq!(fleet.metrics().epochs, epochs.len() as u64);
    }
}

#[test]
fn engines_agree_at_a_thousand_members() {
    let browser = Browser::build();
    let exploits = red_team_exploits(&browser);
    let exploit = exploits.iter().find(|e| e.bugzilla == 290162).unwrap();
    let benign = evaluation_suite();

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(1000).with_workers(4),
    );
    fleet.distributed_learning(&learning_suite());
    // Attack a handful of members amid benign background traffic until the
    // repair distributes, with one churn wave in the middle.
    for round in 0..8u64 {
        let mut batch: Vec<Presentation> = [3usize, 250, 251, 707, 999]
            .into_iter()
            .map(|node| Presentation::new(node, exploit.page()))
            .collect();
        for (i, page) in benign.iter().enumerate() {
            batch.push(Presentation::new((100 + i * 37) % 1000, page.clone()));
        }
        let kills: &[usize] = if round == 3 { &[40, 41, 42] } else { &[] };
        fleet.run_epoch_churn(&batch, kills);
        if round == 5 {
            for node in [40, 41, 42] {
                fleet.apply_membership(MembershipOp::Rejoin {
                    node,
                    checkpoint: None,
                });
            }
        }
    }

    // The history did real work: the attacked location is protected fleet-wide.
    let location = browser.sym("vuln_290162_call");
    assert!(fleet.is_protected_against(location));

    // The marginal cost of one more member is its slot. The ≤1 KiB *total*
    // per-member budget — which includes the fleet-wide shared state amortized
    // over the members — is gated at 10k+ members in the benches, where
    // amortization is real; at 1k members the one-off shared image dominates
    // any per-member figure.
    let marginal = fleet.metrics().member_state_bytes_last as f64 / fleet.node_count() as f64;
    assert!(
        marginal <= 256.0,
        "member-proportional state is {marginal:.1} B/member"
    );
}

/// The paths an in-process history never takes: envelopes dropped, duplicated and
/// reordered, a partition whose members miss the patch pushes and are rolled back
/// onto the configuration they last acknowledged (`reset_and_apply` on a member that
/// holds patches), delta resync after the heal, and a coordinator failover.
#[test]
fn engines_agree_through_loss_partition_and_failover() {
    let browser = Browser::build();
    let exploits = red_team_exploits(&browser);
    let exploit = exploits.iter().find(|e| e.bugzilla == 290162).unwrap();
    let location = browser.sym("vuln_290162_call");
    let benign = evaluation_suite();
    let config =
        || FleetConfig::new(32).with_transport(TransportKind::Chaos(ChaosConfig::standard(0x5EED)));

    let mut fleet = Fleet::new(browser.image.clone(), ClearViewConfig::default(), config());
    fleet.distributed_learning(&learning_suite());
    // One benign epoch so the cut members have a synced base to delta from.
    fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);

    fleet.partition_members(&(8..16).collect::<Vec<_>>());
    let attack: Vec<Presentation> = [0usize, 20, 31]
        .into_iter()
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    for _ in 0..24 {
        if fleet.is_protected_against(location) {
            break;
        }
        fleet.run_epoch(&attack);
    }
    assert!(fleet.is_protected_against(location));
    assert!(
        fleet.metrics().transport_desyncs > 0,
        "nobody was rolled back"
    );

    fleet.heal_partition();
    for _ in 0..16 {
        if fleet.transport_desynced().is_empty() {
            break;
        }
        let settle: Vec<Presentation> = benign
            .iter()
            .take(4)
            .enumerate()
            .map(|(node, page)| Presentation::new(node, page.clone()))
            .collect();
        fleet.run_epoch(&settle);
    }
    assert!(fleet.transport_desynced().is_empty());
    assert!(fleet.metrics().transport_resyncs > 0);

    let wave: Vec<Presentation> = (0..32)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    assert_eq!(fleet.run_epoch(&wave).blocked(), 0);

    let checkpoint = fleet.checkpoint();
    let mut restored = Fleet::from_snapshot(
        browser.image.clone(),
        ClearViewConfig::default(),
        config(),
        &checkpoint,
    );
    assert_eq!(restored.run_epoch(&wave).blocked(), 0);
}
