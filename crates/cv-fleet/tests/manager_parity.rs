//! Sharded-manager correctness, mirroring `shard_parity.rs` for the manager plane:
//! a fleet whose responder state is partitioned across many shards, with its
//! members spread over several workers, must write a **byte-identical**
//! [`BatchLog`] — and reach byte-identical responder state — to a fleet with one
//! manager shard and one worker, the seed's single responder pass. The manager
//! pass itself runs on the calling thread either way; what varies is the worker
//! count and the shard count. The canonical [`PatchPlan`] merge (stable sort by
//! failure location) is what makes the histories comparable at all: without it,
//! op order within an epoch would depend on shard count.

use cv_apps::{learning_suite, red_team_exploits, Browser, Exploit};
use cv_core::ClearViewConfig;
use cv_fleet::{Fleet, FleetConfig, Presentation};

const NODES: usize = 48;
const EPOCHS: u64 = 10;

/// Build a fleet, learn, and run `EPOCHS` identical multi-failure epochs: three
/// distinct exploit locations attacked simultaneously, every epoch, on distinct
/// members.
fn run_scenario(config: FleetConfig) -> Fleet {
    let browser = Browser::build();
    let exploits: Vec<Exploit> = {
        let all = red_team_exploits(&browser);
        [290162u32, 296134, 312278]
            .iter()
            .map(|b| all.iter().find(|e| e.bugzilla == *b).unwrap().clone())
            .collect()
    };
    let mut fleet = Fleet::new(browser.image.clone(), ClearViewConfig::default(), config);
    fleet.distributed_learning(&learning_suite());

    for _ in 0..EPOCHS {
        let batch: Vec<Presentation> = exploits
            .iter()
            .enumerate()
            .flat_map(|(k, exploit)| {
                // Two attacked members per exploit, disjoint across exploits.
                [2 * k, 2 * k + 24]
                    .into_iter()
                    .map(|node| Presentation::new(node, exploit.page()))
            })
            .collect();
        fleet.run_epoch(&batch);
    }
    fleet
}

#[test]
fn workers_and_shards_do_not_change_the_log() {
    // The seed shape: one manager shard, one worker, no threads.
    let sequential = run_scenario(FleetConfig::new(NODES).sequential().with_manager_shards(1));
    // The sharded shape: responder state split 8 ways, members over 4 workers.
    let sharded = run_scenario(
        FleetConfig::new(NODES)
            .with_workers(4)
            .with_manager_shards(8),
    );

    // Both managers made the same decisions, in the same canonical order.
    assert_eq!(
        sequential.log(),
        sharded.log(),
        "the sharded, four-worker fleet diverged from the single-shard, one-worker fleet"
    );
    // Byte-identical histories, not merely structurally equal ones.
    assert_eq!(
        format!("{:?}", sequential.log()),
        format!("{:?}", sharded.log())
    );

    // The per-failure responder state agrees too (reports are location-sorted).
    assert_eq!(
        format!("{:?}", sequential.reports()),
        format!("{:?}", sharded.reports())
    );
    assert!(
        !sequential.reports().is_empty(),
        "the scenario produced real multi-failure responses"
    );

    // And the responses actually progressed: every attacked location is protected.
    let browser = Browser::build();
    for sym in ["vuln_290162_call", "vuln_296134_ret", "vuln_312278_call"] {
        let location = browser.sym(sym);
        assert!(
            sequential.is_protected_against(location),
            "sequential fleet failed to protect {sym}: {:?}",
            sequential.phase_of(location)
        );
        assert!(
            sharded.is_protected_against(location),
            "sharded fleet failed to protect {sym}: {:?}",
            sharded.phase_of(location)
        );
    }
}

#[test]
fn manager_shard_count_does_not_change_the_log() {
    let reference = run_scenario(FleetConfig::new(NODES).sequential().with_manager_shards(1));
    for manager_shards in [2, 3, 8, 32] {
        let fleet = run_scenario(
            FleetConfig::new(NODES)
                .sequential()
                .with_manager_shards(manager_shards),
        );
        assert_eq!(
            reference.log(),
            fleet.log(),
            "manager_shards={manager_shards} diverged from the single-shard manager"
        );
    }
}

#[test]
fn per_shard_manager_metrics_are_recorded() {
    let fleet = run_scenario(
        FleetConfig::new(NODES)
            .with_workers(4)
            .with_manager_shards(8),
    );
    let metrics = fleet.metrics();
    assert_eq!(metrics.manager_shard_times().len(), 8);
    assert!(
        metrics.manager_shard_times().iter().any(|d| !d.is_zero()),
        "at least one manager shard did measurable work"
    );
    assert!(metrics.manager_ms_per_epoch() > 0.0);
}
