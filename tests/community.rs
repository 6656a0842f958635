//! Cross-crate integration tests for the application community (Section 3 and
//! Section 4.3.5 of the paper): a small fleet with one worker, presented one page
//! per epoch — the seed's sequential community protocol.

use clearview::apps::{learning_suite, red_team_exploits, Browser};
use clearview::core::{ClearViewConfig, Directive};
use clearview::fleet::{Fleet, FleetConfig, FleetMessage};
use clearview::isa::Addr;
use clearview::runtime::RunStatus;

/// A community of `nodes` members that has learned the learning suite.
fn protected_community(nodes: usize) -> (Fleet, Browser) {
    let browser = Browser::build();
    let mut community = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(nodes).with_workers(1),
    );
    community.distributed_learning(&learning_suite());
    (community, browser)
}

/// Every failure location a repair was distributed for, in log order.
fn repairs_distributed(community: &Fleet) -> Vec<Addr> {
    community
        .log()
        .patch_plans()
        .flat_map(|plan| plan.ops())
        .filter(|op| matches!(op.directive, Directive::InstallRepair(_)))
        .map(|op| op.location)
        .collect()
}

#[test]
fn distributed_learning_merges_member_uploads() {
    let (community, _) = protected_community(3);
    assert!(community.model().invariants.len() > 50);
    let uploads: usize = community
        .log()
        .messages()
        .iter()
        .map(|m| match m {
            FleetMessage::InvariantUploads { uploads, .. } => uploads.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(uploads, 3, "every member uploads its local invariants");
}

#[test]
fn community_gains_immunity_without_exposure() {
    let (mut community, browser) = protected_community(3);
    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    // Only node 0 is ever attacked.
    let survived = (1..=10).any(|_| {
        matches!(
            community.present(0, exploit.page()).status,
            RunStatus::Completed
        )
    });
    assert!(survived, "the attacked member eventually survives");
    // Node 2 has never seen the attack, but the distributed patch protects it.
    let out = community.present(2, exploit.page());
    assert!(
        matches!(out.status, RunStatus::Completed),
        "an unexposed member survives its first exposure: {:?}",
        out.status
    );
    // The patch distribution is in the log.
    assert!(!repairs_distributed(&community).is_empty());
}

#[test]
fn simultaneous_exploits_are_handled_independently() {
    let (mut community, browser) = protected_community(2);
    let exploits = red_team_exploits(&browser);
    let a = exploits.iter().find(|e| e.bugzilla == 290162).unwrap();
    let b = exploits.iter().find(|e| e.bugzilla == 296134).unwrap();
    // Interleave two different exploits on two different members.
    for _ in 0..8 {
        community.present(0, a.page());
        community.present(1, b.page());
    }
    let a_loc = browser.sym("vuln_290162_call");
    let b_loc = browser.sym("vuln_296134_ret");
    assert!(
        community.is_protected_against(a_loc),
        "{:?}",
        community.phase_of(a_loc)
    );
    assert!(
        community.is_protected_against(b_loc),
        "{:?}",
        community.phase_of(b_loc)
    );
    // Both members now survive both attacks.
    for node in 0..2 {
        assert!(matches!(
            community.present(node, a.page()).status,
            RunStatus::Completed
        ));
        assert!(matches!(
            community.present(node, b.page()).status,
            RunStatus::Completed
        ));
    }
    assert_eq!(community.reports().len(), 2);
}

#[test]
fn simultaneous_exploits_across_members_are_repaired_independently() {
    let (mut community, browser) = protected_community(3);

    let exploits = red_team_exploits(&browser);
    let a = exploits.iter().find(|e| e.bugzilla == 312278).unwrap();
    let b = exploits.iter().find(|e| e.bugzilla == 311710).unwrap();

    // Different members are attacked with different exploits, interleaved
    // (Section 4.3.5: multiple concurrent failures).
    for _ in 0..15 {
        community.present(0, a.page());
        community.present(1, b.page());
    }
    assert!(community.is_protected_against(browser.sym("vuln_312278_call")));
    assert!(community.is_protected_against(browser.sym("vuln_311710a_call")));
    assert!(community.is_protected_against(browser.sym("vuln_311710b_call")));
    assert!(community.is_protected_against(browser.sym("vuln_311710c_call")));

    // Every member — including one never attacked — survives both exploits.
    for node in 0..3 {
        assert!(matches!(
            community.present(node, a.page()).status,
            RunStatus::Completed
        ));
        assert!(matches!(
            community.present(node, b.page()).status,
            RunStatus::Completed
        ));
    }

    // The learning data for the two failures was kept separate: reports exist for both
    // and each repairs its own failure location.
    let reports = community.reports();
    assert!(
        reports.len() >= 4,
        "one response per repaired defect, got {}",
        reports.len()
    );
    // Patch distributions exist for both exploits' failure locations.
    let distributed = repairs_distributed(&community);
    assert!(distributed.contains(&browser.sym("vuln_312278_call")));
    assert!(distributed.contains(&browser.sym("vuln_311710a_call")));
}

#[test]
fn benign_browsing_across_the_community_is_untouched() {
    let (mut community, _) = protected_community(2);
    for (i, page) in learning_suite().iter().enumerate() {
        let out = community.present(i % 2, page);
        assert!(matches!(out.status, RunStatus::Completed));
        assert!(!out.blocked);
    }
    assert!(community.reports().is_empty());
}

#[test]
fn benign_browsing_never_triggers_a_response() {
    let (mut community, _) = protected_community(2);
    for (i, page) in learning_suite().iter().enumerate() {
        let out = community.present(i % 2, page);
        assert!(matches!(out.status, RunStatus::Completed));
    }
    assert!(community.reports().is_empty());
    // No failure was ever reported to the console.
    assert!(!community
        .log()
        .messages()
        .iter()
        .any(|m| matches!(m, FleetMessage::Failures { .. })));
}
