//! The application community (Section 3): amortized learning across members, an attack
//! on one member, and immunity for members that were never exposed.
//!
//! A small fleet with one worker, presented one page per epoch, runs the paper's
//! sequential community protocol.
//!
//! Run with: `cargo run --example application_community`

use clearview::apps::{learning_suite, red_team_exploits, Browser};
use clearview::core::{ClearViewConfig, Directive};
use clearview::fleet::{Fleet, FleetConfig, FleetMessage};
use clearview::runtime::RunStatus;

fn main() {
    let browser = Browser::build();
    let mut community = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(4).with_workers(1),
    );

    // Amortized parallel learning: the learning pages are divided among the members;
    // each uploads only its locally inferred invariants.
    community.distributed_learning(&learning_suite());
    println!(
        "community of {} members learned {} invariants",
        community.node_count(),
        community.model().invariants.len()
    );

    // The attacker repeatedly targets member 0 with one exploit.
    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 312278)
        .unwrap();
    for attempt in 1..=8 {
        let out = community.present(0, exploit.page());
        let status = match out.status {
            RunStatus::Completed => "survived",
            RunStatus::Failure(_) => "blocked",
            RunStatus::Crash(_) => "crashed",
        };
        println!("attack {attempt} on member 0: {status}");
        if matches!(out.status, RunStatus::Completed) {
            break;
        }
    }

    // Member 3 has never seen this attack; the distributed patch protects it anyway.
    let out = community.present(3, exploit.page());
    println!(
        "member 3 (never exposed) presented with the exploit: {}",
        if matches!(out.status, RunStatus::Completed) {
            "survived — protection without exposure"
        } else {
            "NOT protected"
        }
    );

    // The console's log shows the protocol, one batch per kind per epoch.
    println!("\nmanagement console log:");
    for message in community.log().messages() {
        match message {
            FleetMessage::InvariantUploads { uploads, .. } => {
                for (node, invariants) in uploads {
                    println!("  member {node} uploaded {invariants} invariants");
                }
            }
            FleetMessage::Failures { failures, .. } => {
                for (node, location) in failures {
                    println!("  member {node} reported a failure at 0x{location:x}");
                }
            }
            FleetMessage::Observations {
                location, reports, ..
            } => {
                for (node, observations) in reports {
                    println!(
                        "  member {node} reported {observations} observations for 0x{location:x}"
                    );
                }
            }
            FleetMessage::PatchPushes { plan, .. } => {
                for op in plan.ops() {
                    let location = op.location;
                    match &op.directive {
                        Directive::InstallChecks(checks) => println!(
                            "  distributed {} invariant checks for 0x{location:x}",
                            checks.len()
                        ),
                        Directive::RemoveChecks => {
                            println!("  removed invariant checks for 0x{location:x}")
                        }
                        Directive::InstallRepair(repair) => println!(
                            "  distributed repair for 0x{location:x}: {}",
                            repair.description()
                        ),
                        Directive::RemoveRepair => {
                            println!("  removed repair for 0x{location:x}")
                        }
                    }
                }
            }
            FleetMessage::Bootstrap {
                members,
                snapshot_bytes,
                ..
            } => println!("  synced {members} member(s) from a {snapshot_bytes}-byte snapshot"),
            FleetMessage::DeltaSync {
                members,
                delta_bytes,
                ..
            } => println!("  synced {members} member(s) from a {delta_bytes}-byte delta"),
        }
    }
}
