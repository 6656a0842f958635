//! Chaos plane: the fleet protocol must survive lossy, reordered, duplicated,
//! and partitioned delivery — and stay *deterministic* while doing so.
//!
//! Every scenario here drives a real [`Fleet`] through the seeded
//! [`ChaosTransport`](cv_fleet::ChaosTransport): drops force ack-driven
//! retransmits and (when the retransmit budget runs out) per-member desync +
//! delta resync; duplicates exercise the `(from, epoch, seq)` idempotence
//! window; delays reorder envelopes across ticks; partitions cut whole member
//! ranges off until healed. The assertions are the strongest ones the fault
//! model allows: where delivery is merely reordered/duplicated (never lost),
//! the [`BatchLog`] must stay **byte-identical** to the in-process seed
//! transport; where envelopes are actually lost, the fleet must converge to
//! fleet-wide immunity with every member resynced, and identically-seeded runs
//! must retrace each other exactly.

use cv_apps::{evaluation_suite, learning_suite, red_team_exploits, Browser, Exploit};
use cv_core::ClearViewConfig;
use cv_fleet::{ChaosConfig, Fleet, FleetConfig, Presentation, TransportKind};
use cv_store::crc32;

fn exploit(browser: &Browser, bugzilla: u32) -> Exploit {
    red_team_exploits(browser)
        .into_iter()
        .find(|e| e.bugzilla == bugzilla)
        .unwrap()
}

fn build_fleet(browser: &Browser, nodes: usize, transport: TransportKind) -> Fleet {
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(nodes)
            .with_workers(4)
            .with_transport(transport),
    );
    fleet.distributed_learning(&learning_suite());
    fleet
}

/// A chaos history's cross-version golden: the CRC-32 of the rendered batch log
/// and the transport counters `envelopes_dropped / retransmits /
/// duplicates_suppressed / partition_drops / transport_desyncs /
/// transport_resyncs / transport_delta_resyncs`. Comparing two runs of one build
/// cannot catch a rewrite of the acked exchange that changes what chaos does;
/// these pins can. Regenerate them only for a change that is meant to alter the
/// protocol history, and say why where the change is recorded.
fn chaos_pin(fleet: &Fleet) -> (u32, [u64; 7]) {
    let m = fleet.metrics();
    (
        crc32(format!("{:?}", fleet.log()).as_bytes()),
        [
            m.envelopes_dropped,
            m.retransmits,
            m.duplicates_suppressed,
            m.partition_drops,
            m.transport_desyncs,
            m.transport_resyncs,
            m.transport_delta_resyncs,
        ],
    )
}

/// Attack a few members per epoch until the location is protected (or panic).
/// Under a lossy transport a presentation page can itself be dropped, so this
/// retries the same batch each epoch — exactly what a real attacker gives us.
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
        fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) {
            return round;
        }
    }
    panic!(
        "fleet not protected after {max_epochs} chaos epochs (phase: {:?})",
        fleet.phase_of(location)
    );
}

/// Run benign epochs until every member is transport-synced again (desynced
/// members are healed by the per-epoch resync pass as soon as their acks get
/// through).
fn settle(fleet: &mut Fleet, max_epochs: u64) {
    let benign = evaluation_suite();
    for _ in 0..max_epochs {
        if fleet.transport_desynced().is_empty() {
            return;
        }
        let batch: Vec<Presentation> = benign
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, page)| Presentation::new(i % fleet.node_count(), page.clone()))
            .collect();
        fleet.run_epoch(&batch);
    }
    panic!(
        "members still transport-desynced after {max_epochs} settle epochs: {:?}",
        fleet.transport_desynced()
    );
}

/// Duplication and reordering alone (no loss) must be *invisible*: the batch
/// log — the fleet's externally observable protocol history — stays
/// byte-identical to the in-process transport, and the suppressed-duplicate
/// counter proves the idempotence window did real work.
#[test]
fn duplicate_and_reorder_only_chaos_is_byte_identical_to_in_process() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");

    let run = |transport: TransportKind| {
        let mut fleet = build_fleet(&browser, 48, transport);
        attack_until_protected(&mut fleet, &exploit, &[0, 11, 40], location, 12);
        let verify: Vec<Presentation> = (0..48)
            .map(|node| Presentation::new(node, exploit.page()))
            .collect();
        fleet.run_epoch(&verify);
        fleet
    };

    let baseline = run(TransportKind::InProcess);
    let chaotic = run(TransportKind::Chaos(
        ChaosConfig::lossless(0xC0FFEE)
            .with_dup_per_mille(80)
            .with_delay_ticks(3),
    ));

    assert_eq!(
        baseline.log(),
        chaotic.log(),
        "reordered+duplicated delivery changed the protocol history"
    );
    assert_eq!(
        format!("{:?}", baseline.log()),
        format!("{:?}", chaotic.log()),
        "logs structurally equal but not byte-identical"
    );
    assert_eq!(baseline.model().invariants, chaotic.model().invariants);
    assert_eq!(
        format!("{:?}", baseline.net_state().to_plan()),
        format!("{:?}", chaotic.net_state().to_plan()),
    );
    assert!(
        chaotic.metrics().duplicates_suppressed > 0,
        "the dup rate should have produced suppressed duplicates"
    );
    assert_eq!(chaotic.metrics().envelopes_dropped, 0);
    assert!(chaotic.transport_desynced().is_empty());
}

/// The lossless socket backend serializes every envelope through a real
/// loopback TCP pair — and must still retrace the in-process log exactly.
#[test]
fn socket_transport_log_matches_in_process() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");

    let run = |transport: TransportKind| {
        let mut fleet = build_fleet(&browser, 24, transport);
        attack_until_protected(&mut fleet, &exploit, &[3, 9], location, 12);
        fleet
    };

    let in_process = run(TransportKind::InProcess);
    let socket = run(TransportKind::Socket);
    assert_eq!(
        in_process.log(),
        socket.log(),
        "socket framing changed the protocol history"
    );
    assert_eq!(in_process.model().invariants, socket.model().invariants);
    assert!(socket.metrics().envelopes_sent > 0);
    assert_eq!(socket.metrics().envelopes_dropped, 0);
}

/// 10% drop + 5% duplication + delay: envelopes are really lost, so the fleet
/// leans on retransmits and (when a push exhausts its budget) the desync →
/// delta-resync path — and still reaches fleet-wide immunity.
#[test]
fn fleet_converges_under_drops_and_duplicates() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");

    let mut fleet = build_fleet(
        &browser,
        96,
        TransportKind::Chaos(ChaosConfig::standard(0xBAD5EED)),
    );
    attack_until_protected(&mut fleet, &exploit, &[0, 17, 40, 41, 95], location, 24);
    settle(&mut fleet, 16);

    // Every member is synced onto the net plan, so immunity is fleet-wide: a
    // verify wave blocks nobody (dropped pages simply never run — they cannot
    // fail).
    let verify: Vec<Presentation> = (0..96)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(outcome.blocked(), 0, "a synced member was not immune");
    assert!(outcome.completed() > 0);

    let m = fleet.metrics();
    assert!(m.envelopes_dropped > 0, "chaos config produced no drops");
    assert!(m.retransmits > 0, "drops must force retransmits");
    assert!(
        m.duplicates_suppressed > 0,
        "dups + retransmits must hit the idempotence window"
    );
    assert!(fleet.transport_stats().dropped > 0);
}

/// Partition a contiguous member range for several epochs of real protocol
/// progress, then heal: the cut members must desync (their pushes cannot ack),
/// then rejoin through the existing delta-sync plane — not a full snapshot —
/// and end fully synced and immune.
#[test]
fn partitioned_members_rejoin_via_delta_resync() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");
    let cut: Vec<usize> = (8..16).collect();

    let mut fleet = build_fleet(
        &browser,
        32,
        // No background loss: this test isolates the partition fault.
        TransportKind::Chaos(ChaosConfig::lossless(0x9A47)),
    );
    // One benign epoch so the partitioned members have a synced base > 0 to
    // delta from.
    let benign = evaluation_suite();
    fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);

    fleet.partition_members(&cut);
    attack_until_protected(&mut fleet, &exploit, &[0, 20, 31], location, 12);
    assert!(
        !fleet.transport_desynced().is_empty(),
        "partitioned members should have missed the patch push"
    );
    for &node in &cut {
        assert!(!fleet.is_member_synced(node));
    }
    assert!(fleet.metrics().partition_drops > 0);
    assert!(fleet.metrics().transport_desyncs > 0);

    fleet.heal_partition();
    settle(&mut fleet, 8);

    let m = fleet.metrics();
    assert!(m.transport_resyncs > 0, "healed members never resynced");
    assert!(
        m.transport_delta_resyncs > 0,
        "resync should have used the delta plane, not full snapshots"
    );
    for &node in &cut {
        assert!(fleet.is_member_synced(node), "member {node} still desynced");
    }

    // The healed members are immune too.
    let verify: Vec<Presentation> = cut
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(outcome.blocked(), 0);
    assert_eq!(outcome.completed(), cut.len());
    assert_eq!(chaos_pin(&fleet), (0x07fb_b56a, [0, 616, 0, 672, 8, 8, 8]));
}

/// Chaos is *seeded*: two runs with the same seed retrace each other exactly,
/// and a coordinator that fails over from its latest checkpoint mid-history
/// continues deterministically — two identical failovers produce byte-identical
/// logs and equal final state.
#[test]
fn chaos_history_is_deterministic_and_failover_preserves_it() {
    let browser = Browser::build();
    let exploit = exploit(&browser, 290162);
    let location = browser.sym("vuln_290162_call");
    let transport = || TransportKind::Chaos(ChaosConfig::standard(0xD15EA5E));

    let run = || {
        let mut fleet = build_fleet(&browser, 32, transport());
        attack_until_protected(&mut fleet, &exploit, &[1, 2, 30], location, 24);
        fleet
    };
    let a = run();
    let b = run();
    assert_eq!(
        format!("{:?}", a.log()),
        format!("{:?}", b.log()),
        "same seed, different history"
    );
    assert_eq!(a.model().invariants, b.model().invariants);
    assert_eq!(a.metrics().envelopes_dropped, b.metrics().envelopes_dropped);
    assert_eq!(a.metrics().retransmits, b.metrics().retransmits);
    assert_eq!(chaos_pin(&a), (0x83db_d283, [32, 33, 28, 0, 0, 0, 0]));

    // Coordinator failover: checkpoint the surviving history, restart from it
    // under the same chaos seed, and keep going. Two identical failovers must
    // agree byte-for-byte.
    let mut source = run();
    let checkpoint = source.checkpoint();
    let resume = || {
        let mut fleet = Fleet::from_snapshot(
            browser.image.clone(),
            ClearViewConfig::default(),
            FleetConfig::new(32)
                .with_workers(4)
                .with_transport(transport()),
            &checkpoint,
        );
        // The restored fleet is already protected; drive mixed traffic through
        // the fresh transport to extend the history.
        let benign = evaluation_suite();
        for round in 0..4u64 {
            let mut batch: Vec<Presentation> =
                vec![Presentation::new((round as usize) % 32, exploit.page())];
            for (i, page) in benign.iter().take(3).enumerate() {
                batch.push(Presentation::new((7 + i * 11) % 32, page.clone()));
            }
            fleet.run_epoch(&batch);
        }
        fleet
    };
    let fa = resume();
    let fb = resume();
    assert!(
        fa.is_protected_against(location),
        "failover lost the repair"
    );
    assert_eq!(
        format!("{:?}", fa.log()),
        format!("{:?}", fb.log()),
        "failover broke determinism"
    );
    assert_eq!(fa.model().invariants, fb.model().invariants);
    assert_eq!(
        format!("{:?}", fa.net_state().to_plan()),
        format!("{:?}", fb.net_state().to_plan()),
    );
}

/// The acceptance bar from the issue: a 1,000-member fleet, exploits at
/// multiple code locations, the standard seeded fault mix (drops + dups +
/// delay) plus a mid-history partition — and the fleet still reaches immunity
/// at every attacked location with every member resynced.
#[test]
fn thousand_member_fleet_reaches_multi_location_immunity_under_chaos() {
    let browser = Browser::build();
    let targets: Vec<(Exploit, u32)> = [
        (269095u32, "vuln_269095_call"),
        (290162u32, "vuln_290162_call"),
    ]
    .into_iter()
    .map(|(bugzilla, sym)| (exploit(&browser, bugzilla), browser.sym(sym)))
    .collect();

    let mut fleet = build_fleet(
        &browser,
        1000,
        TransportKind::Chaos(ChaosConfig::standard(0xF1EE7)),
    );

    let benign = evaluation_suite();
    let mut partitioned = false;
    for round in 0..40u64 {
        let mut batch: Vec<Presentation> = Vec::new();
        for (which, (exploit, _)) in targets.iter().enumerate() {
            for k in 0..4usize {
                batch.push(Presentation::new(
                    (which * 499 + k * 113 + 3) % 1000,
                    exploit.page(),
                ));
            }
        }
        for (i, page) in benign.iter().take(4).enumerate() {
            batch.push(Presentation::new((100 + i * 37) % 1000, page.clone()));
        }
        if round == 2 && !partitioned {
            let cut: Vec<usize> = (600..620).collect();
            fleet.partition_members(&cut);
            partitioned = true;
        }
        if round == 6 && partitioned {
            fleet.heal_partition();
        }
        fleet.run_epoch(&batch);
        if round > 6
            && targets
                .iter()
                .all(|(_, loc)| fleet.is_protected_against(*loc))
        {
            break;
        }
    }
    for (_, loc) in &targets {
        assert!(
            fleet.is_protected_against(*loc),
            "location {loc:#x} never reached immunity under chaos"
        );
    }
    settle(&mut fleet, 16);

    let m = fleet.metrics();
    assert!(m.envelopes_dropped > 0);
    assert!(m.retransmits > 0);
    assert!(m.duplicates_suppressed > 0);
    assert!(m.partition_drops > 0);
    assert!(m.transport_resyncs > 0, "cut members must have resynced");

    // Fleet-wide: every member synced onto the net plan carrying both repairs.
    assert!(fleet.transport_desynced().is_empty());
    let verify: Vec<Presentation> = (0..1000)
        .step_by(97)
        .flat_map(|node| {
            targets
                .iter()
                .map(move |(exploit, _)| Presentation::new(node, exploit.page()))
        })
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(
        outcome.blocked(),
        0,
        "an immunized member was attacked and failed"
    );
    assert_eq!(
        chaos_pin(&fleet),
        (0x89a1_e3c5, [1021, 2478, 874, 1444, 20, 20, 20])
    );
}
