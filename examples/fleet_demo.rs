//! Community-scale immunity (Section 3 at fleet scale): a 1,200-member fleet learns
//! in parallel, five members are attacked, and every member — including the 1,195
//! that never saw the exploit — becomes immune via the distributed patch.
//!
//! Run with: `cargo run --release --example fleet_demo [-- --churn] [-- --trace PATH]
//! [-- --huge]`
//!
//! With `--huge`, the fleet is one **million** members on the event engine, patch
//! distribution runs through a fan-out-32 manager tree (depth 3 over a million
//! members), and the same claim holds: every member — including the 999,995
//! never attacked — survives first exposure, at ~11 bytes of coordinator-resident
//! state per member.
//!
//! With `--churn`, the demo continues into the durability plane: 240 members (20%)
//! crash mid-epoch with total state loss, half rejoin by shard-keyed delta sync
//! against their last checkpoint and half by full snapshot bootstrap, late members
//! join warm from the coordinator's snapshot — and everyone is immune on first
//! exposure, without one epoch of replayed learning.
//!
//! With `--trace PATH`, the `cv-obs` recorder is enabled for the whole run and the
//! demo writes a Chrome `trace_event` JSON to PATH (open in `chrome://tracing` or
//! ui.perfetto.dev) plus a per-phase summary — counts, exact medians/p99, repair
//! timelines — to PATH's `.summary.json` sibling and to stdout.

use clearview::apps::{evaluation_suite, learning_suite, red_team_exploits, Browser};
use clearview::core::ClearViewConfig;
use clearview::fleet::{Fleet, FleetConfig, MembershipOp, Presentation};
use clearview::obs::{chrome_trace_json, recorder, Summary};

const NODES: usize = 1_200;
const HUGE_NODES: usize = 1_000_000;
const HUGE_TREE_FANOUT: usize = 32;

/// Five attacked members spread across the fleet. The rest of the fleet is
/// immunized purely by the distributed patch.
fn attackers(nodes: usize) -> [usize; 5] {
    if nodes == NODES {
        [3, 271, 502, 777, 1_111]
    } else {
        [
            3,
            nodes / 5 + 3,
            2 * nodes / 5 + 3,
            3 * nodes / 5 + 3,
            4 * nodes / 5 + 3,
        ]
    }
}

/// `--trace PATH`: the path the Chrome trace goes to, if tracing was requested.
fn trace_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            return Some(args.next().expect("--trace requires a path"));
        }
    }
    None
}

fn main() {
    let trace = trace_path();
    if trace.is_some() {
        recorder().set_enabled(true);
    }
    let huge = std::env::args().any(|a| a == "--huge");
    let nodes = if huge { HUGE_NODES } else { NODES };
    let mut config = FleetConfig::new(nodes);
    if huge {
        // A million members sit three coordinator tiers below the root at
        // fan-out 32: no coordinator ever contacts more than 32 nodes.
        config = config.with_tree_fanout(HUGE_TREE_FANOUT);
    }
    let browser = Browser::build();
    let mut fleet = Fleet::new(browser.image.clone(), ClearViewConfig::default(), config);
    println!(
        "fleet of {} members across {} workers",
        fleet.node_count(),
        fleet.worker_count()
    );

    // Amortized parallel learning: members trace disjoint shares, shard workers merge
    // the uploads in parallel.
    fleet.distributed_learning(&learning_suite());
    println!(
        "distributed learning merged {} invariants into {} shards",
        fleet.model().invariants.len(),
        fleet.shard_count()
    );

    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");

    // Benign background traffic plus the attackers hammering the same exploit.
    let benign = evaluation_suite();
    for round in 1..=10u64 {
        let mut batch: Vec<Presentation> = attackers(nodes)
            .iter()
            .map(|&node| Presentation::new(node, exploit.page()))
            .collect();
        for (i, page) in benign.iter().take(40).enumerate() {
            batch.push(Presentation::new(
                (round as usize * 53 + i * 13) % nodes,
                page.clone(),
            ));
        }
        let outcome = fleet.run_epoch(&batch);
        println!(
            "epoch {round}: {} presentations, {} blocked, {} completed — phase {:?}",
            outcome.outcomes.len(),
            outcome.blocked(),
            outcome.completed(),
            fleet.phase_of(location)
        );
        if fleet.is_protected_against(location) && outcome.blocked() == 0 {
            break;
        }
    }
    assert!(
        fleet.is_protected_against(location),
        "fleet failed to immunize: {:?}",
        fleet.phase_of(location)
    );

    // Every member survives its first exposure.
    let verify: Vec<Presentation> = (0..nodes)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    println!(
        "verification epoch: {}/{} members survive the exploit (unexposed members immune)",
        outcome.completed(),
        nodes
    );
    assert_eq!(outcome.completed(), nodes);

    if std::env::args().any(|a| a == "--churn") {
        churn_scenario(&mut fleet, &exploit, location);
    }

    if let Some(path) = &trace {
        write_trace(path, &fleet);
    }

    println!("\n{}", fleet.metrics());
    for report in fleet.reports() {
        println!("\n{report}");
    }
}

/// Export the recorded stream: Chrome trace to `path`, per-phase summary (the
/// per-phase breakdown `EXPERIMENTS.md` captures) to `path`'s `.summary.json`
/// sibling and stdout.
fn write_trace(path: &str, fleet: &Fleet) {
    let events = recorder().drain();
    std::fs::write(path, chrome_trace_json(&events)).expect("write chrome trace");
    let summary = Summary::build_for_fleet(&events, fleet.obs_id());
    let summary_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.summary.json"),
        None => format!("{path}.summary.json"),
    };
    std::fs::write(&summary_path, summary.to_json()).expect("write trace summary");
    println!("\nper-phase trace summary:\n{summary}");
    println!(
        "wrote {path} ({} events — open in chrome://tracing or ui.perfetto.dev) and {summary_path}",
        events.len()
    );
}

/// The durability-plane continuation: churn the immunized fleet and prove the
/// snapshot / delta-sync path restores fleet-wide immunity.
fn churn_scenario(fleet: &mut Fleet, exploit: &clearview::apps::Exploit, location: u32) {
    // The doomed members' last checkpoint — their delta-sync base.
    let base = fleet.checkpoint();
    println!(
        "\n-- churn: checkpoint at epoch {} ({} bytes encoded) --",
        base.epoch,
        fleet.metrics().snapshot_bytes_last
    );

    // A fifth of the fleet runs one more epoch and dies before its patch push.
    let nodes = fleet.node_count();
    let kills: Vec<usize> = (nodes / 2..nodes / 2 + nodes / 5).collect();
    let batch: Vec<Presentation> = attackers(nodes)
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    fleet.run_epoch_churn(&batch, &kills);
    println!(
        "killed {} members mid-epoch; {} of {} still up",
        kills.len(),
        fleet.alive_count(),
        fleet.node_count()
    );

    // Half rejoin from their checkpoint (delta), half lost everything (full).
    let half = kills.len() / 2;
    for &node in &kills[..half] {
        fleet.apply_membership(MembershipOp::Rejoin {
            node,
            checkpoint: Some(&base),
        });
    }
    for &node in &kills[half..] {
        fleet.apply_membership(MembershipOp::Rejoin {
            node,
            checkpoint: None,
        });
    }
    // Late joiners warm-start from the sync source's snapshot.
    let joiners: Vec<usize> = (0..10)
        .map(|_| fleet.apply_membership(MembershipOp::JoinWarm).nodes[0])
        .collect();
    println!(
        "rejoined {} by delta sync, {} by full bootstrap; {} late joiners warm-started",
        half,
        kills.len() - half,
        joiners.len()
    );

    // Everyone — survivors, rejoiners, joiners — survives first exposure.
    let verify: Vec<Presentation> = (0..fleet.node_count())
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    println!(
        "churn verification epoch: {}/{} members survive the exploit",
        outcome.completed(),
        fleet.node_count()
    );
    assert_eq!(outcome.completed(), fleet.node_count());
    assert!(fleet.is_protected_against(location));
    assert!(
        fleet.metrics().max_joiner_immunity_epochs().unwrap_or(0) <= 1,
        "warm joiners reach Protected in <= 1 epoch"
    );
    println!(
        "delta sync shipped {} bytes where full snapshots would have shipped {} ({:.1}x saved)",
        fleet.metrics().delta_bytes_total,
        fleet.metrics().delta_full_bytes_total,
        fleet.metrics().delta_savings()
    );
}
