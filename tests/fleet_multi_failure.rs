//! The multi-failure manager-plane acceptance test: a 1,000-member fleet is hit by
//! **eight distinct exploits at eight distinct failure locations in the same epoch**,
//! every location reaches `Phase::Protected`, and the final `BatchLog` of a fleet
//! whose members run on a worker pool is byte-identical to a one-worker fleet's —
//! the end-to-end proof that parallel member execution changes the fleet's
//! *latency*, never the manager's *decisions*.

use clearview::apps::{
    expanded_learning_suite, red_team_exploits, Browser, Exploit, MULTI_FAILURE_TARGETS,
};
use clearview::core::{learn_model, ClearViewConfig, Phase};
use clearview::fleet::{Fleet, FleetConfig, Presentation};
use clearview::inference::LearnedModel;
use clearview::runtime::MonitorConfig;

const NODES: usize = 1_000;
const ATTACK_EPOCHS: u64 = 12;

/// The eight simultaneously attacked defects and their failure locations — the
/// canonical list shared with the `fleet_scale` benchmark (see
/// `cv_apps::MULTI_FAILURE_TARGETS` for the 311710/307259 exclusion rationale).
const TARGETS: [(u32, &str); 8] = MULTI_FAILURE_TARGETS;

fn community_model(browser: &Browser) -> LearnedModel {
    learn_model(
        &browser.image,
        &expanded_learning_suite(),
        MonitorConfig::full(),
    )
    .0
}

/// Run the fixed multi-failure attack scenario: every epoch, each of the eight
/// exploits is presented to two members (sixteen presentations per epoch, all eight
/// failure locations active simultaneously).
fn run_scenario(browser: &Browser, model: LearnedModel, config: FleetConfig) -> Fleet {
    let exploits: Vec<Exploit> = {
        let all = red_team_exploits(browser);
        TARGETS
            .iter()
            .map(|(bug, _)| all.iter().find(|e| e.bugzilla == *bug).unwrap().clone())
            .collect()
    };
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::with_stack_walk(2),
        config,
    );
    fleet.set_model(model);
    for _ in 0..ATTACK_EPOCHS {
        let batch: Vec<Presentation> = exploits
            .iter()
            .enumerate()
            .flat_map(|(k, exploit)| {
                [5 * k, 5 * k + 500]
                    .into_iter()
                    .map(move |node| Presentation::new(node, exploit.page()))
            })
            .collect();
        fleet.run_epoch(&batch);
    }
    fleet
}

#[test]
fn eight_simultaneous_exploits_immunize_a_thousand_member_fleet() {
    let browser = Browser::build();
    let model = community_model(&browser);

    let mut fleet = run_scenario(&browser, model.clone(), FleetConfig::new(NODES));

    // Every one of the eight failure locations reached Protected.
    for (bug, sym) in TARGETS {
        let location = browser.sym(sym);
        assert_eq!(
            fleet.phase_of(location),
            Some(Phase::Protected),
            "exploit {bug} at {sym} did not reach Protected"
        );
        let record = fleet
            .metrics()
            .immunity(location)
            .expect("immunity record for an attacked location");
        assert_eq!(record.first_failure_epoch, 1);
        assert!(record.epochs_to_immunity().is_some());
    }

    // The sequential fleet (the seed shape: one worker) makes byte-identical
    // decisions for the same scenario.
    let sequential = run_scenario(&browser, model, FleetConfig::new(NODES).sequential());
    assert_eq!(
        sequential.log(),
        fleet.log(),
        "parallel and sequential fleets diverged on the multi-failure scenario"
    );
    assert_eq!(
        format!("{:?}", sequential.log()),
        format!("{:?}", fleet.log()),
        "logs must be byte-identical"
    );
    assert_eq!(
        format!("{:?}", sequential.reports()),
        format!("{:?}", fleet.reports())
    );
    assert_eq!(fleet.reports().len(), TARGETS.len());

    // Every member — almost all never attacked — survives its first exposure to
    // whichever of the eight exploits it draws.
    let exploits = red_team_exploits(&browser);
    let verify: Vec<Presentation> = (0..NODES)
        .map(|node| {
            let (bug, _) = TARGETS[node % TARGETS.len()];
            let exploit = exploits.iter().find(|e| e.bugzilla == bug).unwrap();
            Presentation::new(node, exploit.page())
        })
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(
        outcome.completed(),
        NODES,
        "all {NODES} members are immune to all eight exploits"
    );
    assert_eq!(outcome.blocked(), 0);
}
