//! Epoch-batched community behaviour: attacks on a few members immunize the whole
//! fleet, benign traffic never triggers a response, and the batched log carries the
//! protocol.

use cv_apps::{evaluation_suite, learning_suite, red_team_exploits, Browser, Exploit};
use cv_core::ClearViewConfig;
use cv_fleet::{Fleet, FleetConfig, FleetMessage, Presentation};

const NODES: usize = 96;

fn learned_fleet(nodes: usize, workers: usize) -> (Fleet, Browser) {
    let browser = Browser::build();
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(nodes).with_workers(workers),
    );
    fleet.distributed_learning(&learning_suite());
    (fleet, browser)
}

fn exploit(browser: &Browser, bugzilla: u32) -> Exploit {
    red_team_exploits(browser)
        .into_iter()
        .find(|e| e.bugzilla == bugzilla)
        .unwrap()
}

/// Run attack epochs (the same few members attacked every epoch) until the fleet is
/// protected or `max_epochs` elapse; returns the epochs used.
fn attack_until_protected(
    fleet: &mut Fleet,
    exploit: &Exploit,
    attackers: &[usize],
    location: u32,
    max_epochs: u64,
) -> u64 {
    for round in 1..=max_epochs {
        let batch: Vec<Presentation> = attackers
            .iter()
            .map(|&node| Presentation::new(node, exploit.page()))
            .collect();
        let outcome = fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) && outcome.completed() == batch.len() {
            return round;
        }
    }
    panic!(
        "fleet not protected after {max_epochs} epochs (phase: {:?})",
        fleet.phase_of(location)
    );
}

#[test]
fn a_few_attacked_members_immunize_the_whole_fleet() {
    let (mut fleet, browser) = learned_fleet(NODES, 4);
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");
    let attackers = [0usize, 17, 40, 41, 95];

    let epochs = attack_until_protected(&mut fleet, &exploit, &attackers, location, 12);
    assert!(epochs >= 3, "checking takes at least a couple of epochs");

    // Every member — almost all never attacked — now survives its first exposure.
    let verify: Vec<Presentation> = (0..NODES)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(
        outcome.completed(),
        NODES,
        "every member survives via the distributed patch"
    );

    // Immunity metrics recorded the timeline.
    let record = fleet.metrics().immunity(location).expect("immunity record");
    assert_eq!(record.first_failure_epoch, 1);
    assert!(record.epochs_to_immunity().is_some());

    // The batched log has a patch plan that reached every member.
    assert!(fleet.log().messages().iter().any(
        |m| matches!(m, FleetMessage::PatchPushes { members, plan, .. }
            if *members == NODES && !plan.is_empty())
    ));
}

#[test]
fn benign_epochs_never_trigger_a_response() {
    let (mut fleet, _) = learned_fleet(32, 4);
    let pages = evaluation_suite();
    let batch: Vec<Presentation> = pages
        .iter()
        .enumerate()
        .map(|(i, page)| Presentation::new(i % 32, page.clone()))
        .collect();
    for _ in 0..3 {
        let outcome = fleet.run_epoch(&batch);
        assert_eq!(outcome.completed(), batch.len());
        assert_eq!(outcome.blocked(), 0);
    }
    assert!(fleet.reports().is_empty());
    assert!(!fleet
        .log()
        .messages()
        .iter()
        .any(|m| matches!(m, FleetMessage::Failures { .. })));
    assert!(fleet.metrics().pages_per_second() > 0.0);
}

#[test]
fn parallel_and_sequential_fleets_reach_the_same_protocol_outcome() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");

    let mut outcomes = Vec::new();
    for (workers, parallel) in [(1, false), (4, true)] {
        let mut config = FleetConfig::new(24).with_workers(workers);
        if !parallel {
            config = config.sequential();
        }
        let mut fleet = Fleet::new(browser.image.clone(), ClearViewConfig::default(), config);
        fleet.distributed_learning(&learning_suite());
        let epochs = attack_until_protected(&mut fleet, &exploit, &[3, 9], location, 12);
        let verify: Vec<Presentation> = (0..24)
            .map(|node| Presentation::new(node, exploit.page()))
            .collect();
        let completed = fleet.run_epoch(&verify).completed();
        outcomes.push((epochs, completed, fleet.model().invariants.len()));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "worker fan-out must not change protocol behaviour"
    );
}

#[test]
fn distributed_learning_uploads_are_batched() {
    let (fleet, _) = learned_fleet(16, 2);
    let uploads: Vec<_> = fleet
        .log()
        .messages()
        .iter()
        .filter_map(|m| match m {
            FleetMessage::InvariantUploads { uploads, .. } => Some(uploads),
            _ => None,
        })
        .collect();
    assert_eq!(uploads.len(), 1, "one batch for the whole learning round");
    assert_eq!(uploads[0].len(), 16, "every member appears in the batch");
    assert!(fleet.model().invariants.len() > 50);
}
