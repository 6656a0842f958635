//! Accounting invariants between the three observability surfaces:
//!
//! 1. the fleet's [`MetricEvent`] log is the source of truth — re-folding it
//!    with [`FleetMetrics::from_events`] must reproduce the incrementally-folded
//!    aggregate the fleet serves from [`Fleet::metrics`], field for field;
//! 2. the `cv-obs` trace and the metrics fold never disagree: each instrumented
//!    phase is measured once (`timed_span`) and the same `Duration` feeds both
//!    planes, so recorded span totals equal the derived metrics **exactly**;
//! 3. counters and churn instants match the fold one-for-one on a deterministic
//!    run (pages, patch applications, delta cuts, crashes, rejoins, joins).
//!
//! This file enables the **process-global** recorder, so it lives in its own
//! integration-test binary (cargo gives each test file its own process) and the
//! tests inside serialize on a mutex — the recorder stream must belong to one
//! test at a time.

use cv_apps::{learning_suite, red_team_exploits, Browser};
use cv_core::ClearViewConfig;
use cv_fleet::{Fleet, FleetConfig, FleetMetrics, MembershipOp, Presentation};
use cv_obs::{recorder, EventKind, Summary, TraceEvent};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes recorder access across the tests in this binary.
static RECORDER_GATE: Mutex<()> = Mutex::new(());

/// One deterministic fleet life: distributed learning, a checkpoint, eight
/// attacked epochs, churn (two crashes, one delta rejoin + one full rejoin, one
/// warm join), and a fleet-wide verification epoch. Exercises every accounting
/// path: epochs, fan-outs, patch pushes, snapshot, delta cut + sync, bootstrap,
/// and the churn counters.
fn run_fleet() -> Fleet {
    let browser = Browser::build();
    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(24).sequential(),
    );
    fleet.distributed_learning(&learning_suite());
    let base = fleet.checkpoint();

    let batch: Vec<Presentation> = (0..4)
        .map(|k| Presentation::new(k * 5, exploit.page()))
        .collect();
    for _ in 0..8 {
        fleet.run_epoch(&batch);
    }
    fleet.run_epoch_churn(&batch, &[20, 21]);
    fleet.apply_membership(MembershipOp::Rejoin {
        node: 20,
        checkpoint: Some(&base),
    });
    fleet.apply_membership(MembershipOp::Rejoin {
        node: 21,
        checkpoint: None,
    });
    fleet.apply_membership(MembershipOp::JoinWarm);

    let verify: Vec<Presentation> = (0..fleet.node_count())
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    fleet.run_epoch(&verify);
    fleet
}

/// Count the instants named `name` that are stamped with this fleet's id.
fn instants(events: &[TraceEvent], name: &str, fleet_id: u64) -> u64 {
    events
        .iter()
        .filter(|e| {
            e.name == name
                && matches!(e.kind, EventKind::Instant)
                && e.arg("fleet") == Some(fleet_id)
        })
        .count() as u64
}

#[test]
fn metric_log_refolds_to_the_served_aggregate_and_disabled_recorder_stays_empty() {
    let _gate = RECORDER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    recorder().set_enabled(false);
    recorder().drain();

    let fleet = run_fleet();

    // Zero-cost-when-disabled is also zero-*events*-when-disabled: the whole
    // fleet life above recorded nothing.
    assert!(
        recorder().is_empty(),
        "disabled recorder buffered {} event(s)",
        recorder().len()
    );

    // The served aggregate is exactly the fold of the event log.
    let metrics = fleet.metrics();
    let replayed = FleetMetrics::from_events(fleet.metric_log());
    assert_eq!(
        *metrics, replayed,
        "metric log does not refold to the aggregate"
    );

    // And the log actually carries the run (this is not a vacuous equality).
    assert_eq!(metrics.epochs, 10);
    assert!(metrics.pages_processed > 0);
    assert!(metrics.patch_pushes > 0);
    assert_eq!(metrics.snapshots_taken, 1);
    assert_eq!(metrics.delta_syncs, 1);
    assert_eq!(metrics.delta_cuts, 1);
    assert_eq!(metrics.crashes, 2);
    assert_eq!(metrics.rejoins, 2);
    assert_eq!(metrics.warm_joins, 1);
    assert!(
        metrics.execution_time > Duration::ZERO,
        "timed phases carry real durations"
    );
}

#[test]
fn recorded_spans_and_counters_reconcile_exactly_with_the_metrics_fold() {
    let _gate = RECORDER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    recorder().drain();
    recorder().set_enabled(true);

    let fleet = run_fleet();

    recorder().set_enabled(false);
    let events = recorder().drain();
    let metrics = fleet.metrics();
    let summary = Summary::build_for_fleet(&events, fleet.obs_id());
    let total = |name: &str| summary.phase(name).map_or(Duration::ZERO, |p| p.total);
    let count = |name: &str| summary.phase(name).map_or(0, |p| p.count);

    // Span totals equal the derived aggregate *exactly* — not within a
    // tolerance. `timed_span` measures once and both planes fold that one
    // measurement.
    assert_eq!(total("fleet.execution"), metrics.execution_time);
    assert_eq!(count("fleet.execution"), metrics.epochs);
    assert_eq!(total("fleet.manager"), metrics.manager_time);
    assert_eq!(total("fleet.manager_fanout"), metrics.manager_fanout_time);
    assert_eq!(total("fleet.delta_cut"), metrics.delta_cut_time);
    assert_eq!(count("fleet.delta_cut"), metrics.delta_cuts);
    // The push span runs every epoch; the metrics event folds in only rounds
    // that pushed a non-empty plan.
    assert_eq!(count("fleet.patch_push"), metrics.epochs);
    assert!(total("fleet.patch_push") >= metrics.patch_propagation_time);

    // Final counter samples are the fold's counters.
    assert_eq!(
        summary.counters.get("fleet.pages_processed").copied(),
        Some(metrics.pages_processed)
    );
    assert_eq!(
        summary.counters.get("fleet.patch_applications").copied(),
        Some(metrics.patch_applications)
    );

    // Churn instants match the churn counters one-for-one.
    let id = fleet.obs_id();
    assert_eq!(instants(&events, "churn.crash", id), metrics.crashes);
    assert_eq!(instants(&events, "churn.rejoin", id), metrics.rejoins);
    assert_eq!(instants(&events, "churn.join_warm", id), metrics.warm_joins);
    assert_eq!(instants(&events, "churn.join_cold", id), metrics.cold_joins);

    // The repair timeline for the attacked location ran detection → plan push →
    // protected, in that order.
    assert_eq!(
        summary.timelines.len(),
        1,
        "one failure location, one timeline"
    );
    let timeline = &summary.timelines[0];
    let names: Vec<&str> = timeline.events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names.first().copied(), Some("timeline.detected"));
    assert_eq!(names.last().copied(), Some("timeline.protected"));
    assert!(
        names.contains(&"timeline.plan_push"),
        "the plan push stage was recorded: {names:?}"
    );
    let protected_epoch = timeline.events.last().and_then(|e| e.epoch).unwrap();
    let record = metrics.immunity(timeline.location as u32).unwrap();
    assert_eq!(record.protected_epoch, Some(protected_epoch));
    assert_eq!(
        timeline.events.first().and_then(|e| e.epoch),
        Some(record.first_failure_epoch)
    );
}
