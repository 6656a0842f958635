//! Snapshot-plane benchmark: encode/decode throughput of the columnar snapshot
//! format across invariant-database sizes, snapshot size per invariant, delta-sync
//! savings, cold-vs-warm time-to-immunity (how many epochs a process needs to
//! reach Protected starting from nothing vs. from a checkpoint), and the
//! delta-cut comparison: the O(database) materialized diff vs. the O(changed)
//! incremental cut from the dirty-epoch plane.
//!
//! Run with: `cargo run --release -p cv-bench --bin snapshot_bench [-- --json] [-- --rounds N]`
//!
//! Options:
//!   --json      also write a `BENCH_snapshot.json` record
//!   --rounds N  repeat each codec measurement N times (default 1; each round
//!               still averages over the inner `CODEC_ROUNDS` iterations). The
//!               flat `encode_mb_s`/`decode_mb_s` row values become medians and
//!               the record gains a `"spread"` object with per-size
//!               median/min/max/MAD/IQR stats — the shape `perf_gate` ingests.

use cv_apps::{learning_suite, red_team_exploits, Browser};
use cv_bench::print_table;
use cv_core::{ClearViewConfig, PatchPlan};
use cv_fleet::{DeltaSnapshot, Fleet, FleetConfig, Presentation, ShardedInvariantStore, Snapshot};
use cv_inference::{Invariant, InvariantDatabase, Variable};
use cv_isa::{Operand, Reg};
use cv_perf::MetricStats;
use cv_store::DeltaBuilder;
use std::time::Instant;

const CODEC_ROUNDS: u32 = 10;
const DELTA_ROUNDS: u32 = 20;
/// Entries mutated between base and target in the delta-cut benchmark — held
/// constant across database sizes so the incremental column isolates O(changed).
const DELTA_CHANGED: usize = 128;
const NODES: usize = 64;

/// A deterministic synthetic database with roughly `target` invariants, shaped
/// like learned state: per address, a one-of, a lower-bound, a less-than against
/// the previous site, and periodic sp-offsets.
fn synthetic_db(target: usize) -> InvariantDatabase {
    let mut db = InvariantDatabase::new();
    let mut addr = 0x4_0000u32;
    let mut prev: Option<Variable> = None;
    let mut count = 0usize;
    while count < target {
        let var = Variable::read(addr, 0, Operand::Reg(Reg::ALL[(addr as usize / 4) % 8]));
        db.insert(Invariant::OneOf {
            var,
            values: [addr ^ 0x1111, addr ^ 0x2222, addr ^ 0x3333]
                .into_iter()
                .collect(),
        });
        db.insert(Invariant::LowerBound {
            var,
            min: -(addr as i32 % 97),
        });
        count += 2;
        if let Some(prev) = prev {
            db.insert(Invariant::LessThan { a: prev, b: var });
            count += 1;
        }
        if addr.is_multiple_of(64) {
            db.insert(Invariant::StackPointerOffset {
                proc_entry: addr & !0xFF,
                at: addr,
                offset: (addr % 16) as i32,
            });
            count += 1;
        }
        prev = Some(var);
        addr += 4;
    }
    db.stats.events_processed = count as u64 * 100;
    db.stats.runs_committed = 64;
    db.recount();
    db
}

/// Untimed warmup passes per codec direction.
const CODEC_WARMUPS: u32 = 2;

struct CodecRow {
    invariants: usize,
    bytes: usize,
    encode: MetricStats,
    decode: MetricStats,
}

fn codec_throughput(invariants: usize, rounds: usize) -> CodecRow {
    let snap = Snapshot {
        epoch: 1,
        shard_count: 8,
        invariants: synthetic_db(invariants),
        procedures: (0..64).map(|k| 0x4_0000 + k * 0x100).collect(),
        plan: cv_core::PatchPlan::new(),
    };
    let bytes = snap.encode();

    // Untimed warmup rounds per direction: allocator and cache state
    // otherwise dominate the smallest row and make the CI bench gate flaky
    // (same reasoning as fleet_scale's merge warmups).
    for _ in 0..CODEC_WARMUPS {
        std::hint::black_box(snap.encode());
        std::hint::black_box(Snapshot::decode(&bytes).expect("decodes"));
    }

    // One MB/s sample per round, each averaged over the CODEC_ROUNDS inner
    // iterations; the spread across rounds is what perf_gate reasons about.
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);
    let mut encode_samples = Vec::with_capacity(rounds);
    let mut decode_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            std::hint::black_box(snap.encode());
        }
        let encode_secs = start.elapsed().as_secs_f64() / CODEC_ROUNDS as f64;
        encode_samples.push(mb / encode_secs);

        let start = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            std::hint::black_box(Snapshot::decode(&bytes).expect("decodes"));
        }
        let decode_secs = start.elapsed().as_secs_f64() / CODEC_ROUNDS as f64;
        decode_samples.push(mb / decode_secs);
    }

    CodecRow {
        invariants: snap.invariants.len(),
        bytes: bytes.len(),
        encode: MetricStats::from_samples(&encode_samples),
        decode: MetricStats::from_samples(&decode_samples),
    }
}

struct DeltaCutRow {
    invariants: usize,
    changed: usize,
    removed: usize,
    diff_us: f64,
    incremental_us: f64,
}

/// Measure cutting a delta over a `target`-invariant store after a fixed-size
/// mutation wave: the materialized `DeltaSnapshot::diff` (O(database), and the
/// target snapshot it needs is generously pre-materialized outside the timer)
/// vs. the dirty-epoch `DeltaBuilder` cut (O(changed); the timer includes the
/// builder's `dirty_since` query — the whole real path). Byte-identity of the two is
/// asserted every round, so this bench doubles as a release-mode regression
/// check.
fn delta_cut(target_invariants: usize) -> DeltaCutRow {
    let mut store = ShardedInvariantStore::new(8);
    store.begin_epoch(1);
    store.merge_uploads(&[synthetic_db(target_invariants)]);
    // The base checkpoint is cut in epoch 2, *after* the bulk load's epoch closed:
    // dirty_since(2) excludes the load and tracks only the wave below.
    store.begin_epoch(2);
    let base = Snapshot {
        epoch: 2,
        shard_count: store.shard_count() as u32,
        invariants: store.snapshot(),
        procedures: Vec::new(),
        plan: PatchPlan::new(),
    };

    // The mutation wave: every 0x20-stride address gets a moved lower bound (the
    // re-merge changes DELTA_CHANGED/2 existing entries and adds DELTA_CHANGED/2
    // past the end of the loaded range).
    store.begin_epoch(3);
    let mut wave = InvariantDatabase::new();
    for k in 0..DELTA_CHANGED as u32 {
        let addr = 0x4_0000 + k * 0x20;
        wave.insert(Invariant::LowerBound {
            var: Variable::read(addr, 0, Operand::Reg(Reg::ALL[(addr as usize / 4) % 8])),
            min: -1_000_000 - k as i32,
        });
    }
    wave.recount();
    store.merge_uploads(&[wave]);

    let fused = store.snapshot();
    let target = Snapshot {
        epoch: 3,
        shard_count: store.shard_count() as u32,
        invariants: fused.clone(),
        procedures: Vec::new(),
        plan: PatchPlan::new(),
    };

    let start = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        std::hint::black_box(DeltaSnapshot::diff(&base, &target));
    }
    let diff_us = start.elapsed().as_secs_f64() * 1e6 / DELTA_ROUNDS as f64;

    let start = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        let builder = DeltaBuilder::new(&base, store.dirty());
        std::hint::black_box(builder.cut(3, &fused, [], PatchPlan::new()));
    }
    let incremental_us = start.elapsed().as_secs_f64() * 1e6 / DELTA_ROUNDS as f64;

    let incremental = DeltaBuilder::new(&base, store.dirty()).cut(3, &fused, [], PatchPlan::new());
    let diffed = DeltaSnapshot::diff(&base, &target);
    assert_eq!(
        incremental.encode(),
        diffed.encode(),
        "incremental delta must be byte-identical to the diff-based one"
    );

    DeltaCutRow {
        invariants: fused.len(),
        changed: incremental.changed_entries(),
        removed: incremental.removed.len(),
        diff_us,
        incremental_us,
    }
}

struct WarmStartRun {
    cold_epochs: u64,
    warm_epochs: u64,
    snapshot_bytes: u64,
    delta_bytes: u64,
    full_bytes: u64,
}

/// Cold: a fresh fleet learns and responds from scratch — epochs of exploit
/// presentations until Protected. Warm: a fleet restored from the cold fleet's
/// checkpoint — Protected before its first epoch (0 epochs), verified by first
/// exposure surviving.
fn warm_start() -> WarmStartRun {
    let browser = Browser::build();
    let config = ClearViewConfig::default();
    let mut cold = Fleet::new(browser.image.clone(), config, FleetConfig::new(NODES));
    cold.distributed_learning(&learning_suite());

    let exploit = red_team_exploits(&browser)
        .into_iter()
        .find(|e| e.bugzilla == 290162)
        .unwrap();
    let location = browser.sym("vuln_290162_call");

    let base = cold.checkpoint();
    let mut cold_epochs = 0;
    for _ in 0..20 {
        cold.run_epoch(&[Presentation::new(0, exploit.page())]);
        cold_epochs += 1;
        if cold.is_protected_against(location) {
            break;
        }
    }
    assert!(cold.is_protected_against(location));

    let snapshot = cold.checkpoint();
    let snapshot_bytes = snapshot.encode().len() as u64;
    let delta = DeltaSnapshot::diff(&base, &snapshot);
    let delta_bytes = delta.encode().len() as u64;

    let mut warm = Fleet::from_snapshot(
        browser.image.clone(),
        config,
        FleetConfig::new(NODES),
        &snapshot,
    );
    // This bin is CI's snapshot-plane regression watch: a restore that is not
    // Protected must fail the job, not record a sentinel and exit green.
    assert!(
        warm.is_protected_against(location),
        "restored fleet must be Protected before its first epoch"
    );
    let warm_epochs = 0u64;
    // First exposure on a member that never saw the exploit in this process.
    let outcome = warm.run_epoch(&[Presentation::new(NODES - 1, exploit.page())]);
    assert_eq!(
        outcome.completed(),
        1,
        "warm member survives first exposure"
    );

    WarmStartRun {
        cold_epochs,
        warm_epochs,
        snapshot_bytes,
        delta_bytes,
        full_bytes: snapshot_bytes,
    }
}

fn main() {
    let mut json = false;
    let mut rounds = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("--rounds requires a numeric argument"))
                    .max(1)
            }
            other => panic!("unknown option {other}"),
        }
    }

    let rows: Vec<CodecRow> = [1_000usize, 10_000, 50_000]
        .into_iter()
        .map(|size| codec_throughput(size, rounds))
        .collect();
    print_table(
        &format!("Snapshot codec throughput ({CODEC_ROUNDS} rounds)"),
        &[
            "invariants",
            "snapshot bytes",
            "bytes/invariant",
            "encode MB/s",
            "decode MB/s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.invariants.to_string(),
                    r.bytes.to_string(),
                    format!("{:.1}", r.bytes as f64 / r.invariants as f64),
                    format!("{:.1}", r.encode.median),
                    format!("{:.1}", r.decode.median),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let delta_rows: Vec<DeltaCutRow> = [1_000usize, 10_000, 50_000]
        .into_iter()
        .map(delta_cut)
        .collect();
    print_table(
        &format!(
            "Delta cut: materialized diff vs. dirty-epoch incremental ({DELTA_ROUNDS} rounds, ~{DELTA_CHANGED} entries changed)"
        ),
        &[
            "invariants",
            "changed entries",
            "diff µs (O(db))",
            "incremental µs (O(changed))",
            "speedup",
        ],
        &delta_rows
            .iter()
            .map(|r| {
                vec![
                    r.invariants.to_string(),
                    format!("{} (+{} removed)", r.changed, r.removed),
                    format!("{:.1}", r.diff_us),
                    format!("{:.1}", r.incremental_us),
                    format!("{:.1}x", r.diff_us / r.incremental_us.max(0.001)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let run = warm_start();
    print_table(
        &format!("Cold vs. warm start ({NODES} members, exploit 290162)"),
        &["start", "epochs to Protected", "state transferred"],
        &[
            vec![
                "cold (learn + respond)".into(),
                run.cold_epochs.to_string(),
                "0 bytes (relearns everything)".into(),
            ],
            vec![
                "warm (from snapshot)".into(),
                run.warm_epochs.to_string(),
                format!("{} bytes (one snapshot)", run.snapshot_bytes),
            ],
            vec![
                "delta resync".into(),
                run.warm_epochs.to_string(),
                format!(
                    "{} bytes ({:.1}x less than full)",
                    run.delta_bytes,
                    run.full_bytes as f64 / run.delta_bytes.max(1) as f64
                ),
            ],
        ],
    );

    if json {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let codec_rows: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{ \"invariants\": {}, \"bytes\": {}, \"encode_mb_s\": {:.2}, \"decode_mb_s\": {:.2} }}",
                    r.invariants, r.bytes, r.encode.median, r.decode.median
                )
            })
            .collect();
        // Spread keys are unique per database size (the codec rows repeat the
        // same key names row to row): encode_mb_s_1k … decode_mb_s_50k.
        let spread_entries: Vec<String> = rows
            .iter()
            .map(|r| {
                let suffix = match r.invariants {
                    n if n < 10_000 => "1k",
                    n if n < 50_000 => "10k",
                    _ => "50k",
                };
                format!(
                    "    \"encode_mb_s_{suffix}\": {},\n    \"decode_mb_s_{suffix}\": {}",
                    r.encode.to_json(),
                    r.decode.to_json()
                )
            })
            .collect();
        let delta_cut_rows: Vec<String> = delta_rows
            .iter()
            .map(|r| {
                format!(
                    "{{ \"invariants\": {}, \"changed\": {}, \"diff_us\": {:.1}, \"incremental_us\": {:.1} }}",
                    r.invariants, r.changed, r.diff_us, r.incremental_us
                )
            })
            .collect();
        let out = format!(
            "{{\n  \"bench\": \"snapshot\",\n  \"format_version\": {},\n  \"cores\": {cores},\n  \"rounds\": {rounds},\n  \"warmups\": {CODEC_WARMUPS},\n  \"codec\": [\n    {}\n  ],\n  \"delta_cut\": [\n    {}\n  ],\n  \"cold_epochs_to_protected\": {},\n  \"warm_epochs_to_protected\": {},\n  \"snapshot_bytes\": {},\n  \"delta_bytes\": {},\n  \"delta_savings\": {:.2},\n  \"spread\": {{\n{}\n  }}\n}}\n",
            cv_store::FORMAT_VERSION,
            codec_rows.join(",\n    "),
            delta_cut_rows.join(",\n    "),
            run.cold_epochs,
            run.warm_epochs,
            run.snapshot_bytes,
            run.delta_bytes,
            run.full_bytes as f64 / run.delta_bytes.max(1) as f64,
            spread_entries.join(",\n"),
        );
        std::fs::write("BENCH_snapshot.json", &out).expect("write BENCH_snapshot.json");
        println!("\nwrote BENCH_snapshot.json:\n{out}");
    }
}
