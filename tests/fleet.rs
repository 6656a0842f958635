//! Cross-crate integration test for the fleet engine at the scale the ROADMAP asks
//! for: a ≥1,000-member community where attacking a handful of members immunizes
//! everyone (the acceptance criterion for the cv-fleet subsystem).

use clearview::apps::{learning_suite, red_team_exploits, Browser};
use clearview::core::ClearViewConfig;
use clearview::fleet::{Fleet, FleetConfig, FleetMessage, Presentation};

#[test]
fn a_thousand_member_fleet_is_immunized_by_five_attacked_members() {
    const NODES: usize = 1_000;
    const ATTACKERS: [usize; 5] = [0, 123, 456, 789, 999];

    let browser = Browser::build();
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(NODES),
    );
    fleet.distributed_learning(&learning_suite());
    assert!(fleet.model().invariants.len() > 50);

    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");

    // Attack epochs: only five members are ever exposed.
    let mut protected_after = None;
    for round in 1..=12u64 {
        let batch: Vec<Presentation> = ATTACKERS
            .iter()
            .map(|&node| Presentation::new(node, exploit.page()))
            .collect();
        let outcome = fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) && outcome.completed() == ATTACKERS.len() {
            protected_after = Some(round);
            break;
        }
    }
    let protected_after = protected_after.expect("fleet reached immunity");

    // Every remaining member survives its first exposure via the distributed patch.
    let verify: Vec<Presentation> = (0..NODES)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(outcome.completed(), NODES, "all {NODES} members are immune");
    assert_eq!(outcome.blocked(), 0);

    // The immunity metric agrees with the protocol outcome.
    let record = fleet.metrics().immunity(location).expect("immunity record");
    assert_eq!(record.first_failure_epoch, 1);
    assert!(record.epochs_to_immunity().unwrap() <= protected_after);

    // Patch plans reached all members as single batched messages.
    assert!(fleet.log().messages().iter().any(
        |m| matches!(m, FleetMessage::PatchPushes { members, plan, .. }
            if *members == NODES && !plan.is_empty())
    ));
}
