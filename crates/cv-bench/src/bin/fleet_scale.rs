//! Fleet-scale benchmark: sequential vs. parallel epoch scheduling throughput
//! (pages/sec), monolithic vs. sharded invariant-store merge, and — since the
//! manager plane was sharded — the multi-failure manager benchmark: N simultaneous
//! exploits at N distinct failure locations, where the sharded manager turns the
//! per-epoch responder pass from O(failures) into O(failures / workers). A captured
//! run is recorded in `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p cv-bench --bin fleet_scale [-- OPTIONS]`
//!
//! Options:
//!   --json          also write a `BENCH_fleet.json` record (pages/sec,
//!                   time-to-immunity, manager ms/epoch, speedups, snapshot/churn
//!                   columns; implies the churn scenario)
//!   --churn         run the churn scenario (kill 20% mid-epoch, rejoin half by
//!                   delta sync and half by full bootstrap, late-join warm + cold)
//!   --digest PATH   determinism mode: run only the log-producing scenarios
//!                   (multi-failure sequential + sharded, churn), assert the
//!                   sequential and sharded manager logs byte-identical, and
//!                   write every `BatchLog` record to PATH — CI runs this twice
//!                   and diffs the files, locking in the byte-identical-log
//!                   guarantee across runs. No timing-dependent output.
//!   --trace PATH    enable the `cv-obs` recorder and write a Chrome
//!                   `trace_event` JSON of the whole run to PATH, plus a
//!                   machine-readable per-phase summary (medians/p99, counters,
//!                   repair timelines) of the churn fleet to PATH's
//!                   `.summary.json` sibling; implies the churn scenario
//!   --workers N     worker threads for the parallel configurations (0 = one per core)
//!   --nodes N       community size (default 256)
//!   --epochs N      benign throughput epochs (default 4)
//!   --rounds N      measurement rounds for the throughput scenario (default 1).
//!                   With N > 1 each scheduler runs one untimed warmup round and
//!                   then N timed rounds; the flat pages/sec keys in
//!                   `BENCH_fleet.json` become medians, and a `"spread"` object
//!                   records median/min/max/MAD/IQR plus the raw samples per
//!                   metric — the shape `perf_gate` ingests.
//!   --tree-fanout N merge and push patch plans through a hierarchical manager
//!                   tree with fan-out N (0 = flat, the default)
//!   --sweep LIST    scale sweep: for each comma-separated member count (e.g.
//!                   `1000,10000,100000`) drive an event-engine fleet to
//!                   fleet-wide immunity, measure pages/sec and bytes/member,
//!                   print the table, and write one JSON row per point to
//!                   `BENCH_fleet_sweep.json` (gated by `bench_gate --cap`).
//!                   Runs only the sweep; other scenarios are skipped.
//!   --transport T   transport backend for every fleet this run builds:
//!                   `inprocess` (default) or `socket` (loopback TCP with real
//!                   envelope serialization). `--digest` with each must produce
//!                   byte-identical files — CI diffs them.
//!   --chaos SEED    chaos mode: run only the chaos scenario — a fleet on the
//!                   seeded lossy transport (drops, duplicates, delays) with a
//!                   mid-history partition — assert multi-location fleet-wide
//!                   immunity, print the transport counters, and write them to
//!                   `BENCH_fleet.json` (`"bench": "fleet_scale_chaos"`).
//!                   Combine with `--digest PATH` to dump the chaos run's
//!                   `BatchLog`: same seed → byte-identical dump, different
//!                   seed → different history. CI runs two seeds twice each.

use cv_apps::{
    evaluation_suite, expanded_learning_suite, learning_suite, red_team_exploits, Browser,
    MULTI_FAILURE_TARGETS,
};
use cv_bench::print_table;
use cv_core::{learn_model, ClearViewConfig};
use cv_fleet::{
    ChaosConfig, Fleet, FleetConfig, FleetMetrics, MembershipOp, Presentation,
    ShardedInvariantStore, TransportKind,
};
use cv_inference::{InvariantDatabase, LearnedModel, LearningFrontend};
use cv_obs::{chrome_trace_json, FixedHistogram, Summary, TraceEvent};
use cv_perf::MetricStats;
use cv_runtime::{EnvConfig, ManagedExecutionEnvironment, MonitorConfig};
use std::time::Instant;

const MERGE_MEMBERS: usize = 64;
const MERGE_ROUNDS: usize = 50;
const MANAGER_SHARDS: usize = 8;
const MULTI_FAILURE_EPOCHS: u64 = 10;

#[derive(Debug, Clone)]
struct Options {
    json: bool,
    churn: bool,
    digest: Option<String>,
    trace: Option<String>,
    workers: usize,
    nodes: usize,
    epochs: usize,
    rounds: usize,
    tree_fanout: usize,
    sweep: Option<Vec<usize>>,
    transport: String,
    chaos: Option<u64>,
}

impl Options {
    /// The transport every fleet in this run is built on (`--transport`).
    fn transport_kind(&self) -> TransportKind {
        match self.transport.as_str() {
            "inprocess" => TransportKind::InProcess,
            "socket" => TransportKind::Socket,
            other => panic!("--transport must be 'inprocess' or 'socket', got {other:?}"),
        }
    }
}

fn parse_options() -> Options {
    let mut opts = Options {
        json: false,
        churn: false,
        digest: None,
        trace: None,
        workers: 0,
        nodes: 256,
        epochs: 4,
        rounds: 1,
        tree_fanout: 0,
        sweep: None,
        transport: "inprocess".into(),
        chaos: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{name} requires a numeric argument"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--churn" => opts.churn = true,
            "--digest" => opts.digest = Some(args.next().expect("--digest requires a path")),
            "--trace" => opts.trace = Some(args.next().expect("--trace requires a path")),
            "--workers" => opts.workers = number("--workers"),
            "--nodes" => opts.nodes = number("--nodes").max(16),
            "--epochs" => opts.epochs = number("--epochs").max(1),
            "--rounds" => opts.rounds = number("--rounds").max(1),
            "--tree-fanout" => opts.tree_fanout = number("--tree-fanout"),
            "--transport" => {
                opts.transport = args.next().expect("--transport requires a backend name")
            }
            "--chaos" => {
                let seed = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("--chaos requires a numeric seed");
                opts.chaos = Some(seed);
            }
            "--sweep" => {
                let list = args
                    .next()
                    .expect("--sweep requires a comma-separated list");
                let points: Vec<usize> = list
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<usize>()
                            .unwrap_or_else(|_| panic!("--sweep: bad member count {p:?}"))
                            .max(16)
                    })
                    .collect();
                assert!(!points.is_empty(), "--sweep requires at least one point");
                opts.sweep = Some(points);
            }
            other => panic!("unknown option {other}"),
        }
    }
    // The JSON record carries the snapshot/churn columns, so --json implies the
    // churn scenario; the trace summary reports the churn fleet, so --trace does
    // too.
    opts.churn |= opts.json || opts.trace.is_some();
    opts
}

/// Run benign-traffic epochs (every member loads four pages per epoch) and return
/// (pages processed, execution seconds, pages/sec).
fn throughput(parallel: bool, workers: usize, opts: &Options) -> (u64, f64, f64) {
    let browser = Browser::build();
    let mut config = FleetConfig::new(opts.nodes)
        .with_workers(workers)
        .with_tree_fanout(opts.tree_fanout)
        .with_transport(opts.transport_kind());
    if !parallel {
        config = config.sequential();
    }
    let mut fleet = Fleet::new(browser.image.clone(), ClearViewConfig::default(), config);
    fleet.distributed_learning(&learning_suite());

    let pages = evaluation_suite();
    let mut batch = Vec::with_capacity(opts.nodes * 4);
    for node in 0..opts.nodes {
        for k in 0..4 {
            batch.push(Presentation::new(
                node,
                pages[(node * 4 + k) % pages.len()].clone(),
            ));
        }
    }

    for _ in 0..opts.epochs {
        let outcome = fleet.run_epoch(&batch);
        assert_eq!(
            outcome.completed(),
            batch.len(),
            "benign pages all complete"
        );
    }
    let metrics = fleet.metrics();
    (
        metrics.pages_processed,
        metrics.execution_time.as_secs_f64(),
        metrics.pages_per_second(),
    )
}

/// Produce `MERGE_MEMBERS` member uploads via amortized learning.
fn uploads() -> Vec<InvariantDatabase> {
    let browser = Browser::build();
    let pages = learning_suite();
    (0..MERGE_MEMBERS)
        .map(|member| {
            let mut env =
                ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::default());
            let mut frontend = LearningFrontend::new(browser.image.clone());
            for page in pages.iter().skip(member % pages.len()).step_by(4) {
                let result = env.run_with_tracer(page, &mut frontend);
                if result.is_completed() {
                    frontend.commit_run();
                } else {
                    frontend.discard_run();
                }
            }
            frontend.into_model().invariants
        })
        .collect()
}

/// Time `MERGE_ROUNDS` rounds of merging the uploads into a store (after two
/// untimed warmup rounds: allocator and cache state otherwise leak across the
/// configurations being compared).
fn merge_time(shards: usize, uploads: &[InvariantDatabase]) -> f64 {
    let round = |timed: bool| {
        let start = Instant::now();
        let mut store = ShardedInvariantStore::new(shards);
        store.merge_uploads(uploads);
        std::hint::black_box(store.len());
        if timed {
            start.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    round(false);
    round(false);
    (0..MERGE_ROUNDS).map(|_| round(true)).sum()
}

/// The outcome of one multi-failure manager run.
struct MultiFailureRun {
    manager_ms_per_epoch: f64,
    immune: usize,
    immunity_epochs: Vec<(u32, u64)>,
    /// The fleet's entire `BatchLog`, one record per line — timing-free, so two
    /// runs of the same scenario must produce byte-identical dumps.
    log: String,
}

/// Dump a fleet's batched console log, one `FleetMessage` record per line.
fn log_dump(fleet: &Fleet) -> String {
    let mut out = String::new();
    for message in fleet.log().messages() {
        out.push_str(&format!("{message:?}\n"));
    }
    out
}

/// Attack all eight defects simultaneously: every member presents the exploit page
/// of defect `member % 8`, every epoch. The manager therefore routes
/// `members × active-locations` digests per epoch — the responder load the sharded
/// plane parallelizes.
fn multi_failure(browser: &Browser, model: &LearnedModel, config: FleetConfig) -> MultiFailureRun {
    let all = red_team_exploits(browser);
    let exploits: Vec<_> = MULTI_FAILURE_TARGETS
        .iter()
        .map(|(b, _)| all.iter().find(|e| e.bugzilla == *b).unwrap().clone())
        .collect();
    let locations: Vec<(u32, u32)> = MULTI_FAILURE_TARGETS
        .iter()
        .map(|(bug, sym)| (*bug, browser.sym(sym)))
        .collect();

    let nodes = config.node_count;
    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::with_stack_walk(2),
        config,
    );
    fleet.set_model(model.clone());

    let batch: Vec<Presentation> = (0..nodes)
        .map(|node| Presentation::new(node, exploits[node % exploits.len()].page()))
        .collect();
    for _ in 0..MULTI_FAILURE_EPOCHS {
        fleet.run_epoch(&batch);
    }

    let metrics = fleet.metrics();
    let immunity_epochs: Vec<(u32, u64)> = locations
        .iter()
        .filter_map(|(bug, loc)| {
            metrics
                .immunity(*loc)
                .and_then(|r| r.epochs_to_immunity())
                .map(|e| (*bug, e))
        })
        .collect();
    MultiFailureRun {
        manager_ms_per_epoch: metrics.manager_ms_per_epoch(),
        immune: locations
            .iter()
            .filter(|(_, loc)| fleet.is_protected_against(*loc))
            .count(),
        immunity_epochs,
        log: log_dump(&fleet),
    }
}

/// The outcome of the churn scenario.
struct ChurnRun {
    killed: usize,
    rejoined_delta: usize,
    rejoined_full: usize,
    late_warm: usize,
    late_cold: usize,
    snapshot_bytes: u64,
    delta_bytes: u64,
    delta_full_bytes: u64,
    delta_savings: f64,
    joiner_tti_max: u64,
    immune_members: usize,
    total_members: usize,
    /// The fleet's `BatchLog` dump (see [`log_dump`]): the churn protocol
    /// history, including `Bootstrap`/`DeltaSync` records with their byte sizes.
    log: String,
    /// The churn fleet's full metrics aggregate — the `--json` record dumps it
    /// whole, and the `--trace` summary is reconciled against it.
    metrics: FleetMetrics,
    /// The churn fleet's `cv-obs` id, for filtering the recorded stream down to
    /// this fleet's events.
    obs_id: u64,
}

/// Kill 20% of the fleet mid-epoch (they miss that epoch's patch push), drive the
/// survivors to immunity, rejoin half the casualties by shard-keyed delta sync and
/// half by full bootstrap, late-join members warm (snapshot) and cold (resync),
/// then attack everyone: the whole fleet must be immune, with warm joiners
/// Protected in <= 1 epoch.
fn churn(browser: &Browser, opts: &Options) -> ChurnRun {
    let exploit = red_team_exploits(browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(opts.nodes)
            .with_workers(opts.workers)
            .with_tree_fanout(opts.tree_fanout)
            .with_transport(opts.transport_kind()),
    );
    fleet.distributed_learning(&learning_suite());
    let base = fleet.checkpoint();

    // Attack five members from the low half (the kill range below is the upper
    // half, so attackers survive the outage); a fifth of the fleet dies mid-epoch
    // in the first round.
    let attackers: Vec<usize> = (0..5).map(|k| k * (opts.nodes / 16)).collect();
    let batch: Vec<Presentation> = attackers
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    let kills: Vec<usize> = (opts.nodes / 2..opts.nodes / 2 + opts.nodes / 5).collect();
    fleet.run_epoch_churn(&batch, &kills);
    for _ in 0..12 {
        if fleet.is_protected_against(location) {
            break;
        }
        fleet.run_epoch(&batch);
    }
    assert!(
        fleet.is_protected_against(location),
        "fleet failed to immunize"
    );

    // Rejoin: half by delta against the pre-outage checkpoint, half full.
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
    // Late joiners: warm from the sync source's snapshot, cold + explicit resync.
    let late_warm = 8;
    let late_cold = 2;
    for _ in 0..late_warm {
        fleet.apply_membership(MembershipOp::JoinWarm);
    }
    for _ in 0..late_cold {
        let node = fleet.apply_membership(MembershipOp::JoinCold).nodes[0];
        fleet.apply_membership(MembershipOp::Resync(node));
    }

    // Everyone gets attacked; everyone must survive.
    let verify: Vec<Presentation> = (0..fleet.node_count())
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);

    let metrics = fleet.metrics();
    ChurnRun {
        killed: kills.len(),
        rejoined_delta: half,
        rejoined_full: kills.len() - half,
        late_warm,
        late_cold,
        snapshot_bytes: metrics.snapshot_bytes_last,
        delta_bytes: metrics.delta_bytes_total,
        delta_full_bytes: metrics.delta_full_bytes_total,
        delta_savings: metrics.delta_savings(),
        joiner_tti_max: metrics.max_joiner_immunity_epochs().unwrap_or(0),
        immune_members: outcome.completed(),
        total_members: fleet.node_count(),
        log: log_dump(&fleet),
        metrics: metrics.clone(),
        obs_id: fleet.obs_id(),
    }
}

/// One measured point of the scale sweep.
struct ScaleRow {
    members: usize,
    epochs_to_immunity: u64,
    pages_per_second: f64,
    bytes_per_member: f64,
    resident_bytes_per_member: f64,
    tier_depth: u64,
    tier_sync_bytes: u64,
    tier_delta_cuts: u64,
    root_sync_bypass_count: u64,
    root_sync_bypass_share: f64,
    immune_members: usize,
}

/// Drive one event-engine fleet of `nodes` members to fleet-wide immunity:
/// learn, attack five spread members with exploit 290162 until the community is
/// protected, run one full-fleet benign epoch (the throughput measurement that
/// matters at scale), then present the exploit to **every** member and require
/// every one to complete — the paper's immunized-members-that-were-never-attacked
/// claim, at six figures.
fn scale_point(browser: &Browser, nodes: usize, opts: &Options) -> ScaleRow {
    let exploit = red_team_exploits(browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");
    let fanout = if opts.tree_fanout == 0 {
        32
    } else {
        opts.tree_fanout
    };

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(nodes)
            .with_workers(opts.workers)
            .with_tree_fanout(fanout)
            .with_transport(opts.transport_kind()),
    );
    fleet.distributed_learning(&learning_suite());

    // Five attacked members spread across the fleet; everyone else is immunized
    // purely by the manager tree's patch push.
    let attackers: Vec<usize> = (0..5).map(|k| k * (nodes / 5) + 3).collect();
    let batch: Vec<Presentation> = attackers
        .iter()
        .map(|&node| Presentation::new(node, exploit.page()))
        .collect();
    for _ in 0..12 {
        fleet.run_epoch(&batch);
        if fleet.is_protected_against(location) {
            break;
        }
    }
    assert!(
        fleet.is_protected_against(location),
        "{nodes}-member fleet failed to immunize"
    );

    // A churn wave at scale: a twentieth of the fleet dies mid-epoch and
    // rejoins, half by delta against the pre-outage checkpoint and half by
    // full bootstrap — so the sweep also measures the sync plane, which a
    // fleet larger than the fan-out serves through the manager tree's leaf
    // tier instead of the root.
    let base = fleet.checkpoint();
    let kills: Vec<usize> = (nodes / 2..nodes / 2 + (nodes / 20).max(2)).collect();
    fleet.run_epoch_churn(&batch, &kills);
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

    // One full-fleet benign epoch: every member loads a page through its patched
    // configuration.
    let pages = evaluation_suite();
    let benign: Vec<Presentation> = (0..nodes)
        .map(|node| Presentation::new(node, pages[node % pages.len()].clone()))
        .collect();
    let outcome = fleet.run_epoch(&benign);
    assert_eq!(
        outcome.completed(),
        benign.len(),
        "benign pages all complete"
    );

    // Fleet-wide immunity: everyone gets attacked, everyone survives.
    let verify: Vec<Presentation> = (0..nodes)
        .map(|node| Presentation::new(node, exploit.page()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    let immune_members = outcome.completed();
    assert_eq!(
        immune_members,
        fleet.alive_count(),
        "{nodes}-member fleet failed fleet-wide immunity"
    );

    let metrics = fleet.metrics();
    ScaleRow {
        members: nodes,
        epochs_to_immunity: metrics
            .immunity(location)
            .and_then(|r| r.epochs_to_immunity())
            .unwrap_or(0),
        pages_per_second: metrics.pages_per_second(),
        bytes_per_member: metrics.bytes_per_member(),
        resident_bytes_per_member: metrics.member_state_bytes_last as f64 / nodes as f64,
        tier_depth: metrics.tier_depth_last,
        tier_sync_bytes: metrics.tier_sync_bytes,
        tier_delta_cuts: metrics.tier_delta_cuts,
        root_sync_bypass_count: metrics.root_sync_bypass_count,
        root_sync_bypass_share: metrics.root_sync_bypass_share(),
        immune_members,
    }
}

/// `--sweep`: measure each member count, print the scaling table, and write
/// `BENCH_fleet_sweep.json` — `bench_gate --cap` holds `bytes_per_member` to the
/// ≤ 1 KiB budget from there.
fn run_sweep(points: &[usize], opts: &Options) {
    let browser = Browser::build();
    let fanout = if opts.tree_fanout == 0 {
        32
    } else {
        opts.tree_fanout
    };
    let rows: Vec<ScaleRow> = points
        .iter()
        .map(|&nodes| {
            let start = Instant::now();
            let row = scale_point(&browser, nodes, opts);
            println!(
                "  {} members: immune {}/{} in {:.1}s",
                nodes,
                row.immune_members,
                nodes,
                start.elapsed().as_secs_f64()
            );
            row
        })
        .collect();

    print_table(
        &format!("Scale sweep (event engine, manager-tree fan-out {fanout})"),
        &[
            "members",
            "epochs to immunity",
            "pages/sec",
            "bytes/member",
            "resident B/member",
            "tier depth",
            "tier sync B",
            "root bypass",
            "immune",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.members.to_string(),
                    r.epochs_to_immunity.to_string(),
                    format!("{:.0}", r.pages_per_second),
                    format!("{:.1}", r.bytes_per_member),
                    format!("{:.1}", r.resident_bytes_per_member),
                    r.tier_depth.to_string(),
                    r.tier_sync_bytes.to_string(),
                    r.root_sync_bypass_count.to_string(),
                    format!("{}/{}", r.immune_members, r.members),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let point_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"members\": {},\n      \"epochs_to_immunity\": {},\n      \"pages_per_second\": {:.1},\n      \"bytes_per_member\": {:.1},\n      \"resident_bytes_per_member\": {:.1},\n      \"tier_depth\": {},\n      \"tier_sync_bytes\": {},\n      \"tier_delta_cuts\": {},\n      \"root_sync_bypass_count\": {},\n      \"root_sync_bypass_share\": {:.3},\n      \"immune_members\": {}\n    }}",
                r.members,
                r.epochs_to_immunity,
                r.pages_per_second,
                r.bytes_per_member,
                r.resident_bytes_per_member,
                r.tier_depth,
                r.tier_sync_bytes,
                r.tier_delta_cuts,
                r.root_sync_bypass_count,
                r.root_sync_bypass_share,
                r.immune_members,
            )
        })
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"fleet_scale_sweep\",\n  \"workers\": {},\n  \"cores\": {cores},\n  \"rounds\": 1,\n  \"warmups\": 0,\n  \"tree_fanout\": {fanout},\n  \"points\": [\n{}\n  ]\n}}\n",
        opts.workers,
        point_json.join(",\n"),
    );
    std::fs::write("BENCH_fleet_sweep.json", &json).expect("write BENCH_fleet_sweep.json");
    println!("\nwrote BENCH_fleet_sweep.json:\n{json}");
}

/// Write the Chrome trace (the whole process: every fleet this run built) to
/// `path`, and the churn fleet's per-phase summary to `path`'s `.summary.json`
/// sibling — after asserting the summary reconciles with the churn fleet's
/// [`FleetMetrics`].
fn write_trace(path: &str, mut events: Vec<TraceEvent>, run: &ChurnRun) {
    let churn_events = cv_obs::recorder().drain();
    let summary = Summary::build_for_fleet(&churn_events, run.obs_id);
    reconcile(&summary, &run.metrics);

    events.extend(churn_events);
    std::fs::write(path, chrome_trace_json(&events)).expect("write chrome trace");
    let summary_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.summary.json"),
        None => format!("{path}.summary.json"),
    };
    std::fs::write(&summary_path, summary.to_json()).expect("write trace summary");
    println!("\nchurn-fleet phase summary (reconciled against FleetMetrics):\n{summary}");
    println!(
        "wrote {path} ({} events — open in chrome://tracing or ui.perfetto.dev) \
         and {summary_path}",
        events.len()
    );
}

/// Assert the trace-derived per-phase totals agree with the metrics fold. Each
/// instrumented phase is measured **once** (`timed_span`) and the same
/// `Duration` feeds both the trace event and the `MetricEvent`, so the totals
/// are equal exactly, not approximately — any drift is an accounting bug.
fn reconcile(summary: &Summary, metrics: &FleetMetrics) {
    use std::time::Duration;
    let total = |name: &str| summary.phase(name).map_or(Duration::ZERO, |p| p.total);
    let count = |name: &str| summary.phase(name).map_or(0, |p| p.count);
    assert_eq!(total("fleet.execution"), metrics.execution_time);
    assert_eq!(count("fleet.execution"), metrics.epochs);
    assert_eq!(total("fleet.manager"), metrics.manager_time);
    assert_eq!(total("fleet.manager_fanout"), metrics.manager_fanout_time);
    assert_eq!(total("fleet.delta_cut"), metrics.delta_cut_time);
    assert_eq!(count("fleet.delta_cut"), metrics.delta_cuts);
    // The push span is recorded every epoch; the metrics event folds in only
    // the rounds that actually pushed a plan.
    assert!(total("fleet.patch_push") >= metrics.patch_propagation_time);
    assert_eq!(
        summary.counters.get("fleet.pages_processed").copied(),
        Some(metrics.pages_processed)
    );
    assert_eq!(
        summary.counters.get("fleet.patch_applications").copied(),
        Some(metrics.patch_applications)
    );
    println!(
        "\ntrace/metrics reconciliation: per-phase totals match the FleetMetrics fold exactly"
    );
}

/// Determinism mode (`--digest PATH`): run only the log-producing scenarios,
/// assert the sequential and sharded manager logs byte-identical (the PR 2
/// parity guarantee), and write every record to PATH. CI runs this twice and
/// diffs the two files: any nondeterminism in learning, routing, responder
/// driving, plan merging, or the delta-sync byte accounting shows up as a diff.
fn write_digest(path: &str, opts: &Options) {
    let browser = Browser::build();
    let model = learn_model(
        &browser.image,
        &expanded_learning_suite(),
        MonitorConfig::full(),
    )
    .0;
    let seq_run = multi_failure(
        &browser,
        &model,
        FleetConfig::new(opts.nodes)
            .sequential()
            .with_manager_shards(1)
            .with_transport(opts.transport_kind()),
    );
    let par_run = multi_failure(
        &browser,
        &model,
        FleetConfig::new(opts.nodes)
            .with_workers(opts.workers)
            .with_manager_shards(MANAGER_SHARDS)
            .with_transport(opts.transport_kind()),
    );
    assert_eq!(seq_run.immune, par_run.immune, "manager parity violated");
    assert_eq!(
        seq_run.log, par_run.log,
        "sequential and sharded managers must write byte-identical logs"
    );
    let churn_run = churn(&browser, opts);

    let digest = format!(
        "== multi-failure ({} members, {} exploits, sequential == sharded x{}) ==\n{}\n== churn ({} members) ==\n{}",
        opts.nodes,
        MULTI_FAILURE_TARGETS.len(),
        MANAGER_SHARDS,
        par_run.log,
        opts.nodes,
        churn_run.log,
    );
    std::fs::write(path, &digest).expect("write digest");
    println!(
        "wrote {} ({} lines, {} bytes) — run twice and diff to check determinism",
        path,
        digest.lines().count(),
        digest.len()
    );
}

/// `--chaos SEED`: drive one fleet on the seeded lossy transport — 10% drops,
/// 5% duplicates, delay-window reordering, plus a mid-history partition of a
/// contiguous member range — against exploits at two distinct code locations.
/// The fleet must reach immunity at both, resync every cut member via the
/// delta plane, and survive a fleet-wide verify wave; the transport counters
/// (retransmits, suppressed duplicates, partition recovery) land in
/// `BENCH_fleet.json`, and `--digest PATH` additionally dumps the `BatchLog`
/// for the CI seed-determinism diff.
fn run_chaos(seed: u64, opts: &Options) {
    if opts.trace.is_some() {
        cv_obs::recorder().set_enabled(true);
    }
    let browser = Browser::build();
    let targets: Vec<(u32, u32)> = [
        (269095u32, "vuln_269095_call"),
        (290162u32, "vuln_290162_call"),
    ]
    .into_iter()
    .map(|(bug, sym)| (bug, browser.sym(sym)))
    .collect();
    let all = red_team_exploits(&browser);
    let exploits: Vec<_> = targets
        .iter()
        .map(|(bug, _)| all.iter().find(|e| e.bugzilla == *bug).unwrap().clone())
        .collect();

    let mut fleet = Fleet::new(
        browser.image.clone(),
        ClearViewConfig::default(),
        FleetConfig::new(opts.nodes)
            .with_workers(opts.workers)
            .with_tree_fanout(opts.tree_fanout)
            .with_transport(TransportKind::Chaos(ChaosConfig::standard(seed))),
    );
    fleet.distributed_learning(&learning_suite());

    let nodes = opts.nodes;
    let cut: Vec<usize> = (nodes / 2..nodes / 2 + nodes / 8).collect();
    let benign = evaluation_suite();
    let mut epochs_run = 0u64;
    for round in 0..40u64 {
        let mut batch: Vec<Presentation> = Vec::new();
        for (which, exploit) in exploits.iter().enumerate() {
            for k in 0..4usize {
                batch.push(Presentation::new(
                    (which * (nodes / 2 - 1) + k * (nodes / 16) + 1) % nodes,
                    exploit.page(),
                ));
            }
        }
        for (i, page) in benign.iter().take(4).enumerate() {
            batch.push(Presentation::new((nodes / 4 + i * 7) % nodes, page.clone()));
        }
        if round == 2 {
            fleet.partition_members(&cut);
        }
        if round == 6 {
            fleet.heal_partition();
        }
        fleet.run_epoch(&batch);
        epochs_run = round + 1;
        if round > 6
            && targets
                .iter()
                .all(|(_, loc)| fleet.is_protected_against(*loc))
        {
            break;
        }
    }
    for (bug, loc) in &targets {
        assert!(
            fleet.is_protected_against(*loc),
            "chaos fleet (seed {seed}) never immunized defect {bug}"
        );
    }
    // Settle: benign epochs until every cut/desynced member is resynced.
    for _ in 0..16 {
        if fleet.transport_desynced().is_empty() {
            break;
        }
        fleet.run_epoch(&[Presentation::new(0, benign[0].clone())]);
    }
    assert!(
        fleet.transport_desynced().is_empty(),
        "chaos fleet (seed {seed}) still has desynced members: {:?}",
        fleet.transport_desynced()
    );
    // Fleet-wide immunity: a verify wave across the fleet blocks nobody (a
    // dropped page never runs — it cannot fail).
    let verify: Vec<Presentation> = (0..nodes)
        .flat_map(|node| {
            exploits
                .iter()
                .map(move |exploit| Presentation::new(node, exploit.page()))
        })
        .collect();
    let outcome = fleet.run_epoch(&verify);
    assert_eq!(
        outcome.blocked(),
        0,
        "an immunized member failed under chaos"
    );

    let m = fleet.metrics();
    assert!(m.envelopes_dropped > 0, "seeded chaos produced no drops");
    assert!(m.retransmits > 0, "drops must force retransmits");
    assert!(
        m.duplicates_suppressed > 0,
        "no duplicate was ever suppressed"
    );
    assert!(m.partition_drops > 0, "the partition dropped nothing");
    assert!(m.transport_resyncs > 0, "cut members never resynced");

    print_table(
        &format!(
            "Chaos scenario (seed {seed}, {nodes} members, {} partitioned)",
            cut.len()
        ),
        &["quantity", "value"],
        &[
            vec!["transport".into(), fleet.transport_name().to_string()],
            vec!["epochs to dual immunity".into(), epochs_run.to_string()],
            vec!["envelopes sent".into(), m.envelopes_sent.to_string()],
            vec![
                "envelopes delivered".into(),
                m.envelopes_delivered.to_string(),
            ],
            vec!["envelopes dropped".into(), m.envelopes_dropped.to_string()],
            vec![
                "envelopes duplicated".into(),
                m.envelopes_duplicated.to_string(),
            ],
            vec!["retransmits".into(), m.retransmits.to_string()],
            vec![
                "duplicates suppressed".into(),
                m.duplicates_suppressed.to_string(),
            ],
            vec!["partition drops".into(), m.partition_drops.to_string()],
            vec!["member desyncs".into(), m.transport_desyncs.to_string()],
            vec![
                "member resyncs (delta)".into(),
                format!("{} ({})", m.transport_resyncs, m.transport_delta_resyncs),
            ],
        ],
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"fleet_scale_chaos\",\n  \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"workers\": {},\n  \"cores\": {cores},\n  \"rounds\": 1,\n  \"warmups\": 0,\n  \"partitioned_members\": {},\n  \"epochs_to_immunity\": {epochs_run},\n  \"envelopes_sent\": {},\n  \"envelopes_delivered\": {},\n  \"envelopes_dropped\": {},\n  \"envelopes_duplicated\": {},\n  \"retransmits\": {},\n  \"duplicates_suppressed\": {},\n  \"partition_drops\": {},\n  \"transport_desyncs\": {},\n  \"transport_resyncs\": {},\n  \"transport_delta_resyncs\": {}\n}}\n",
        opts.workers,
        cut.len(),
        m.envelopes_sent,
        m.envelopes_delivered,
        m.envelopes_dropped,
        m.envelopes_duplicated,
        m.retransmits,
        m.duplicates_suppressed,
        m.partition_drops,
        m.transport_desyncs,
        m.transport_resyncs,
        m.transport_delta_resyncs,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json:\n{json}");

    if let Some(path) = &opts.digest {
        let digest = format!(
            "== chaos (seed {seed}, {nodes} members, {} partitioned) ==\n{}",
            cut.len(),
            log_dump(&fleet),
        );
        std::fs::write(path, &digest).expect("write chaos digest");
        println!(
            "wrote {} ({} lines) — same seed must reproduce it byte-identically",
            path,
            digest.lines().count()
        );
    }

    if let Some(path) = &opts.trace {
        // The partition-recovery timeline, straight from the cv-obs stream:
        // every `transport`-category instant the fleet recorded, in order —
        // partition cut, per-member desyncs while pushes cannot ack, heal,
        // and per-member resyncs (delta=1 when the delta plane was used).
        let events = cv_obs::recorder().drain();
        println!("\npartition-recovery timeline (cv-obs `transport` instants):");
        for event in events.iter().filter(|e| e.cat == "transport") {
            let detail: Vec<String> = event
                .args
                .iter()
                .filter(|(k, _)| *k != "fleet")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "  {:>10.3} ms  {:<18} {}",
                event.ts_nanos as f64 / 1e6,
                event.name,
                detail.join(" ")
            );
        }
        let summary = Summary::build_for_fleet(&events, fleet.obs_id());
        std::fs::write(path, chrome_trace_json(&events)).expect("write chrome trace");
        let summary_path = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.summary.json"),
            None => format!("{path}.summary.json"),
        };
        std::fs::write(&summary_path, summary.to_json()).expect("write trace summary");
        println!("\nchaos-fleet summary:\n{summary}");
        println!("wrote {path} and {summary_path}");
    }
}

fn main() {
    let opts = parse_options();
    if let Some(seed) = opts.chaos {
        run_chaos(seed, &opts);
        return;
    }
    if let Some(path) = opts.digest.clone() {
        // Determinism mode stays untraced: the digest is the byte-identical
        // BatchLog dump, and the recorder has nothing to add to it.
        write_digest(&path, &opts);
        return;
    }
    if let Some(points) = opts.sweep.clone() {
        run_sweep(&points, &opts);
        return;
    }
    if opts.trace.is_some() {
        cv_obs::recorder().set_enabled(true);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let worker_label = if opts.workers == 0 {
        format!("{cores} workers (auto)")
    } else {
        format!("{} workers", opts.workers)
    };
    println!(
        "fleet_scale: {} members, {} epochs x {} pages/epoch, {cores} cores, {worker_label}",
        opts.nodes,
        opts.epochs,
        opts.nodes * 4
    );

    // Multi-round measurement: with --rounds N > 1 each scheduler gets one
    // untimed warmup round, then N timed rounds. The headline numbers are
    // medians (robust to a single noisy round); the raw samples and the
    // span-style execution histograms feed the "spread" section of the record.
    let warmups: usize = if opts.rounds > 1 { 1 } else { 0 };
    for _ in 0..warmups {
        throughput(false, 1, &opts);
        throughput(true, opts.workers, &opts);
    }
    let mut seq_rates = Vec::with_capacity(opts.rounds);
    let mut par_rates = Vec::with_capacity(opts.rounds);
    let mut seq_hist = FixedHistogram::new();
    let mut par_hist = FixedHistogram::new();
    let mut seq_pages = 0u64;
    for _ in 0..opts.rounds {
        let (pages, secs, rate) = throughput(false, 1, &opts);
        let (par_pages, par_secs, par_rate) = throughput(true, opts.workers, &opts);
        assert_eq!(pages, par_pages);
        seq_pages = pages;
        seq_rates.push(rate);
        par_rates.push(par_rate);
        seq_hist.record(std::time::Duration::from_secs_f64(secs));
        par_hist.record(std::time::Duration::from_secs_f64(par_secs));
    }
    let seq_stats = MetricStats::from_samples(&seq_rates);
    let par_stats = MetricStats::from_samples(&par_rates);
    let (seq_rate, par_rate) = (seq_stats.median, par_stats.median);
    let seq_secs = seq_hist.total().as_secs_f64() / opts.rounds as f64;
    let par_secs = par_hist.total().as_secs_f64() / opts.rounds as f64;
    let scheduling_speedup = par_rate / seq_rate;

    print_table(
        "Epoch scheduling throughput",
        &["scheduler", "pages", "exec seconds", "pages/sec", "speedup"],
        &[
            vec![
                "sequential (1 worker)".into(),
                seq_pages.to_string(),
                format!("{seq_secs:.3}"),
                format!("{seq_rate:.0}"),
                "1.00x".into(),
            ],
            vec![
                format!("parallel ({worker_label})"),
                seq_pages.to_string(),
                format!("{par_secs:.3}"),
                format!("{par_rate:.0}"),
                format!("{scheduling_speedup:.2}x"),
            ],
        ],
    );

    let ups = uploads();
    let invariants: usize = ups.iter().map(|u| u.len()).sum();
    let mono = merge_time(1, &ups);
    // The JSON record keeps its `merge_sharded_parallel_seconds` key for this row.
    let sharded = merge_time(8, &ups);
    print_table(
        &format!(
            "Invariant-store merge ({MERGE_MEMBERS} uploads, {invariants} invariants, {MERGE_ROUNDS} rounds)"
        ),
        &["store", "seconds", "speedup vs monolithic"],
        &[
            vec!["monolithic".into(), format!("{mono:.3}"), "1.00x".into()],
            vec![
                "8 shards".into(),
                format!("{sharded:.3}"),
                format!("{:.2}x", mono / sharded),
            ],
        ],
    );

    // The multi-failure manager benchmark: all eight exploitable defects attacked at
    // distinct addresses in every epoch, across the whole community.
    let browser = Browser::build();
    let model = learn_model(
        &browser.image,
        &expanded_learning_suite(),
        MonitorConfig::full(),
    )
    .0;
    let seq_run = multi_failure(
        &browser,
        &model,
        FleetConfig::new(opts.nodes)
            .sequential()
            .with_manager_shards(1)
            .with_transport(opts.transport_kind()),
    );
    let par_run = multi_failure(
        &browser,
        &model,
        FleetConfig::new(opts.nodes)
            .with_workers(opts.workers)
            .with_manager_shards(MANAGER_SHARDS)
            .with_transport(opts.transport_kind()),
    );
    // Keep the benchmark honest before anything is reported or written: the
    // sharded manager must reach the same immunity as the sequential one.
    assert_eq!(seq_run.immune, par_run.immune, "manager parity violated");
    print_table(
        &format!(
            "Sharded manager plane ({} exploits at distinct addresses, {} members, {MULTI_FAILURE_EPOCHS} epochs)",
            MULTI_FAILURE_TARGETS.len(),
            opts.nodes
        ),
        &[
            "manager",
            "shards",
            "manager ms/epoch",
            "immune locations",
        ],
        &[
            vec![
                "sequential (seed shape)".into(),
                "1".into(),
                format!("{:.3}", seq_run.manager_ms_per_epoch),
                format!("{}/{}", seq_run.immune, MULTI_FAILURE_TARGETS.len()),
            ],
            vec![
                format!("sharded ({worker_label})"),
                MANAGER_SHARDS.to_string(),
                format!("{:.3}", par_run.manager_ms_per_epoch),
                format!("{}/{}", par_run.immune, MULTI_FAILURE_TARGETS.len()),
            ],
        ],
    );
    for (bug, epochs) in &par_run.immunity_epochs {
        println!("  defect {bug}: community-immune after {epochs} epoch(s)");
    }
    let manager_wall_ratio = if par_run.manager_ms_per_epoch > 0.0 {
        seq_run.manager_ms_per_epoch / par_run.manager_ms_per_epoch
    } else {
        1.0
    };
    println!(
        "manager wall-clock vs sequential: {manager_wall_ratio:.2}x \
         (the manager pass runs its shards on the calling thread, so expect ~1x)"
    );

    if scheduling_speedup > 1.0 {
        println!(
            "\nparallel epoch scheduling speedup: {scheduling_speedup:.2}x (> 1 on this machine)"
        );
    } else {
        println!("\nWARNING: no scheduling speedup measured (single-core machine?)");
    }

    let churn_run = if opts.churn {
        // Everything recorded so far — the throughput fleets, the merge rounds,
        // the two multi-failure fleets — belongs in the Chrome trace but not in
        // the per-fleet summary: drain it now so the stream that remains is
        // exactly the churn run's.
        let pre_churn_events = if opts.trace.is_some() {
            cv_obs::recorder().drain()
        } else {
            Vec::new()
        };
        let run = churn(&browser, &opts);
        print_table(
            &format!(
                "Churn scenario ({} members, 20% killed mid-epoch, exploit 290162)",
                opts.nodes
            ),
            &["quantity", "value"],
            &[
                vec!["killed mid-epoch".into(), run.killed.to_string()],
                vec![
                    "rejoined via delta sync".into(),
                    run.rejoined_delta.to_string(),
                ],
                vec![
                    "rejoined via full bootstrap".into(),
                    run.rejoined_full.to_string(),
                ],
                vec![
                    "late joins (warm / cold)".into(),
                    format!("{} / {}", run.late_warm, run.late_cold),
                ],
                vec!["snapshot bytes".into(), run.snapshot_bytes.to_string()],
                vec![
                    "delta bytes vs full".into(),
                    format!(
                        "{} vs {} ({:.1}x saved)",
                        run.delta_bytes, run.delta_full_bytes, run.delta_savings
                    ),
                ],
                vec![
                    "joiner time-to-immunity".into(),
                    format!("<= {} epoch(s)", run.joiner_tti_max),
                ],
                vec![
                    "immune members after verify".into(),
                    format!("{}/{}", run.immune_members, run.total_members),
                ],
            ],
        );
        assert_eq!(
            run.immune_members, run.total_members,
            "churned fleet failed fleet-wide immunity"
        );
        if let Some(path) = &opts.trace {
            write_trace(path, pre_churn_events, &run);
        }
        Some(run)
    } else {
        None
    };

    if opts.json {
        let immunity_entries: Vec<String> = par_run
            .immunity_epochs
            .iter()
            .map(|(bug, epochs)| format!("\"{bug}\": {epochs}"))
            .collect();
        let max_immunity = par_run
            .immunity_epochs
            .iter()
            .map(|(_, e)| *e)
            .max()
            .unwrap_or(0);
        let churn_json = match &churn_run {
            Some(run) => format!(
                ",\n  \"snapshot_bytes\": {},\n  \"churn_killed\": {},\n  \"churn_rejoined_delta\": {},\n  \"churn_rejoined_full\": {},\n  \"churn_late_warm\": {},\n  \"churn_late_cold\": {},\n  \"delta_bytes_total\": {},\n  \"delta_full_bytes_total\": {},\n  \"delta_savings\": {:.2},\n  \"joiner_time_to_immunity_epochs_max\": {},\n  \"churn_immune_members\": {},\n  \"churn_total_members\": {}",
                run.snapshot_bytes,
                run.killed,
                run.rejoined_delta,
                run.rejoined_full,
                run.late_warm,
                run.late_cold,
                run.delta_bytes,
                run.delta_full_bytes,
                run.delta_savings,
                run.joiner_tti_max,
                run.immune_members,
                run.total_members,
            ),
            None => String::new(),
        };
        // The full churn-fleet aggregate, delta-cut and churn counters included,
        // as one nested object — the gated throughput keys above stay flat and
        // untouched.
        let metrics_json = match &churn_run {
            Some(run) => format!(",\n  \"metrics\": {}", run.metrics.to_json("  ")),
            None => String::new(),
        };
        // Per-metric multi-round statistics in the canonical cv-perf shape:
        // rate spreads carry their raw samples, execution-time spreads come
        // from the log2-µs histograms (bounded memory at any round count).
        let spread_json = format!(
            ",\n  \"spread\": {{\n    \"pages_per_second_sequential\": {},\n    \"pages_per_second_parallel\": {},\n    \"execution_ms_sequential\": {},\n    \"execution_ms_parallel\": {}\n  }}",
            seq_stats.to_json(),
            par_stats.to_json(),
            MetricStats::from_histogram(&seq_hist).to_json(),
            MetricStats::from_histogram(&par_hist).to_json(),
        );
        let json = format!(
            "{{\n  \"bench\": \"fleet_scale\",\n  \"nodes\": {},\n  \"workers\": {},\n  \"cores\": {cores},\n  \"epochs\": {},\n  \"rounds\": {},\n  \"warmups\": {warmups},\n  \"pages_per_second_sequential\": {seq_rate:.1},\n  \"pages_per_second_parallel\": {par_rate:.1},\n  \"scheduling_speedup\": {scheduling_speedup:.3},\n  \"merge_monolithic_seconds\": {mono:.4},\n  \"merge_sharded_parallel_seconds\": {sharded:.4},\n  \"manager_ms_per_epoch_sequential\": {:.4},\n  \"manager_ms_per_epoch_sharded\": {:.4},\n  \"manager_shards\": {MANAGER_SHARDS},\n  \"multi_failure_locations\": {},\n  \"immune_locations\": {},\n  \"time_to_immunity_epochs_max\": {max_immunity},\n  \"time_to_immunity_epochs\": {{ {} }}{churn_json}{metrics_json}{spread_json}\n}}\n",
            opts.nodes,
            opts.workers,
            opts.epochs,
            opts.rounds,
            seq_run.manager_ms_per_epoch,
            par_run.manager_ms_per_epoch,
            MULTI_FAILURE_TARGETS.len(),
            par_run.immune,
            immunity_entries.join(", "),
        );
        std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
        println!("\nwrote BENCH_fleet.json:\n{json}");
    }
}
