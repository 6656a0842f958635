//! CI throughput gate: compare freshly produced `BENCH_*.json` records against
//! the committed baselines and fail on regressions beyond a tolerance.
//!
//! The benchmark bins (`fleet_scale`, `learning_overhead`, `snapshot_bench`)
//! write their records in CI, but until this gate nothing ever *checked* them —
//! a 10x throughput regression would upload a shiny artifact and stay green.
//! `bench_gate` parses the gated throughput metrics (higher-is-better only;
//! wall-clock noise on shared runners makes latency gating a flake machine) out
//! of both copies and fails the job when a fresh value drops more than the
//! tolerance below its baseline.
//!
//! Run with:
//!   `cargo run --release -p cv-bench --bin bench_gate -- [OPTIONS]`
//!
//! Options:
//!   --baseline DIR   directory holding the committed records (default `.`)
//!   --fresh DIR      directory holding the freshly produced records (default `.`)
//!   --tolerance F    allowed fractional drop, 0..1 (default 0.30 = fail
//!                    when fresh < 70% of baseline)
//!   --only FILE      gate only the metrics recorded in FILE (e.g.
//!                    `BENCH_fleet.json`) — the tracing-overhead guard compares
//!                    a recorder-enabled fleet run against the recorder-disabled
//!                    one at a tight tolerance without dragging the other bench
//!                    files into that comparison
//!   --cap FILE:KEY:MAX  (repeatable) absolute cap checked against the fresh
//!                    record only: every occurrence of KEY in FILE must be
//!                    <= MAX. For lower-is-better resource metrics with a fixed
//!                    budget instead of a baseline — the fleet-scale job holds
//!                    `BENCH_fleet_sweep.json:bytes_per_member:1024` this way.
//!   --caps-only      skip the baseline comparisons entirely and check only the
//!                    `--cap` budgets — for records (like the chaos transport
//!                    counters) that have caps but no gated throughput keys.
//!
//! The gate is also a *format* check: a gated metric missing from either copy,
//! or appearing a different number of times (array shape drift), fails — the
//! record schema is part of what CI pins.

use std::process::ExitCode;

/// The gated metrics: `(file, key, occurrences expected to match)` — every key is
/// a higher-is-better throughput. Occurrence counts are compared, not assumed,
/// so array-shaped records (the codec and delta-cut tables) are gated per row.
const GATES: &[(&str, &str)] = &[
    ("BENCH_fleet.json", "pages_per_second_sequential"),
    ("BENCH_fleet.json", "pages_per_second_parallel"),
    ("BENCH_learning.json", "events_per_second"),
    ("BENCH_snapshot.json", "encode_mb_s"),
    ("BENCH_snapshot.json", "decode_mb_s"),
];

/// What [`extract`] found for one key: the numeric occurrences in document
/// order, plus a note for every occurrence that was deliberately skipped
/// (JSON `null`, or a non-numeric value like the string `"NaN"`). Skips are
/// *reported*, never silent — a sentinel value quietly vanishing from a gated
/// comparison is exactly the kind of drift this bin exists to catch.
#[derive(Debug, Default, PartialEq)]
struct Extracted {
    values: Vec<f64>,
    notes: Vec<String>,
}

/// Extract every numeric value keyed by `key` from a (flat or nested) JSON text,
/// in document order. This deliberately avoids a JSON dependency: the records
/// are written by our own bins with `"key": number` shapes (plus the occasional
/// explicit `null` sentinel for a value a run could not measure — those are
/// skipped with a note, not treated as drift).
fn extract(json: &str, key: &str) -> Extracted {
    let needle = format!("\"{key}\"");
    let mut out = Extracted::default();
    let mut rest = json;
    let mut occurrence = 0usize;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let Some(after_colon) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let value = after_colon.trim_start();
        occurrence += 1;
        if let Some(after_null) = value.strip_prefix("null") {
            out.notes
                .push(format!("{key} occurrence {occurrence} is null — skipped"));
            rest = after_null;
            continue;
        }
        let end = value
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
            .unwrap_or(value.len());
        match value[..end].parse::<f64>() {
            Ok(number) => out.values.push(number),
            Err(_) => out.notes.push(format!(
                "{key} occurrence {occurrence} is not a JSON number (starts {:?}) — skipped",
                value.chars().take(8).collect::<String>()
            )),
        }
        rest = value;
    }
    out
}

/// One gated comparison that failed.
#[derive(Debug, PartialEq)]
enum Violation {
    /// The fresh value dropped more than the tolerance below the baseline.
    Regression {
        metric: String,
        baseline: f64,
        fresh: f64,
    },
    /// A gated metric is missing, or its occurrence count changed (format drift).
    Shape { metric: String, detail: String },
    /// A capped metric exceeded its absolute budget.
    Cap {
        metric: String,
        cap: f64,
        fresh: f64,
    },
}

/// Check one `--cap FILE:KEY:MAX` budget against the fresh record: every
/// occurrence of the key must be within the cap, and the key must occur at
/// least once (an absent budgeted metric is format drift, not a pass).
fn cap_metric(
    metric: &str,
    cap: f64,
    fresh: &[f64],
    violations: &mut Vec<Violation>,
) -> Vec<String> {
    if fresh.is_empty() {
        violations.push(Violation::Shape {
            metric: metric.to_string(),
            detail: "capped metric absent from fresh record".to_string(),
        });
        return Vec::new();
    }
    let mut lines = Vec::new();
    for (index, f) in fresh.iter().enumerate() {
        let ok = *f <= cap;
        let label = if fresh.len() == 1 {
            metric.to_string()
        } else {
            format!("{metric}[{index}]")
        };
        lines.push(format!(
            "  {} {label}: fresh {f:.1} vs cap {cap:.1}",
            if ok { "ok  " } else { "FAIL" },
        ));
        if !ok {
            violations.push(Violation::Cap {
                metric: label,
                cap,
                fresh: *f,
            });
        }
    }
    lines
}

/// Gate one metric: compare every occurrence pairwise.
fn gate_metric(
    metric: &str,
    baseline: &[f64],
    fresh: &[f64],
    tolerance: f64,
    violations: &mut Vec<Violation>,
) -> Vec<String> {
    if baseline.is_empty() || baseline.len() != fresh.len() {
        violations.push(Violation::Shape {
            metric: metric.to_string(),
            detail: format!(
                "baseline has {} occurrence(s), fresh has {}",
                baseline.len(),
                fresh.len()
            ),
        });
        return Vec::new();
    }
    let mut lines = Vec::new();
    for (index, (b, f)) in baseline.iter().zip(fresh).enumerate() {
        let floor = b * (1.0 - tolerance);
        let ok = *f >= floor;
        let label = if baseline.len() == 1 {
            metric.to_string()
        } else {
            format!("{metric}[{index}]")
        };
        lines.push(format!(
            "  {} {label}: baseline {b:.1}, fresh {f:.1} ({:+.1}%)",
            if ok { "ok  " } else { "FAIL" },
            (f / b - 1.0) * 100.0,
        ));
        if !ok {
            violations.push(Violation::Regression {
                metric: label,
                baseline: *b,
                fresh: *f,
            });
        }
    }
    lines
}

fn run(
    baseline_dir: &str,
    fresh_dir: &str,
    tolerance: f64,
    only: Option<&str>,
    caps: &[(String, String, f64)],
    caps_only: bool,
) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let mut current_file = "";
    let mut baseline_text = String::new();
    let mut fresh_text = String::new();
    let mut gated = 0usize;
    for (file, key) in GATES {
        if caps_only || only.is_some_and(|o| o != *file) {
            continue;
        }
        gated += 1;
        if *file != current_file {
            current_file = file;
            baseline_text = std::fs::read_to_string(format!("{baseline_dir}/{file}"))
                .map_err(|e| format!("cannot read baseline {baseline_dir}/{file}: {e}"))?;
            fresh_text = std::fs::read_to_string(format!("{fresh_dir}/{file}"))
                .map_err(|e| format!("cannot read fresh {fresh_dir}/{file}: {e}"))?;
            println!("{file}:");
        }
        let metric = format!("{file}::{key}");
        let baseline = extract(&baseline_text, key);
        let fresh = extract(&fresh_text, key);
        for note in baseline.notes.iter().chain(&fresh.notes) {
            println!("  note: {note}");
        }
        for line in gate_metric(
            &metric,
            &baseline.values,
            &fresh.values,
            tolerance,
            &mut violations,
        ) {
            println!("{line}");
        }
    }
    // Caps run against the fresh record only — they carry their own budget, so
    // no baseline copy (and no occurrence-count comparison) is involved, and
    // `--only` does not filter them: a cap passed explicitly is always meant.
    for (file, key, cap) in caps {
        gated += 1;
        let fresh_text = std::fs::read_to_string(format!("{fresh_dir}/{file}"))
            .map_err(|e| format!("cannot read fresh {fresh_dir}/{file}: {e}"))?;
        println!("{file} (caps):");
        let metric = format!("{file}::{key}");
        let fresh = extract(&fresh_text, key);
        for note in &fresh.notes {
            println!("  note: {note}");
        }
        for line in cap_metric(&metric, *cap, &fresh.values, &mut violations) {
            println!("{line}");
        }
    }
    if gated == 0 {
        return Err(match (caps_only, only) {
            (true, _) => "--caps-only requires at least one --cap".to_string(),
            (_, Some(file)) => format!("--only {file} matches no gated metric"),
            (_, None) => "no gated metrics".to_string(),
        });
    }
    Ok(violations)
}

fn main() -> ExitCode {
    let mut baseline_dir = ".".to_string();
    let mut fresh_dir = ".".to_string();
    let mut tolerance = 0.30f64;
    let mut only: Option<String> = None;
    let mut caps: Vec<(String, String, f64)> = Vec::new();
    let mut caps_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--baseline" => baseline_dir = value("--baseline"),
            "--fresh" => fresh_dir = value("--fresh"),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .parse()
                    .expect("--tolerance requires a number in 0..1");
                assert!(
                    (0.0..1.0).contains(&tolerance),
                    "--tolerance must be in 0..1"
                );
            }
            "--only" => only = Some(value("--only")),
            "--caps-only" => caps_only = true,
            "--cap" => {
                let spec = value("--cap");
                let mut parts = spec.splitn(3, ':');
                let (file, key, max) = (parts.next(), parts.next(), parts.next());
                let (Some(file), Some(key), Some(max)) = (file, key, max) else {
                    panic!("--cap requires FILE:KEY:MAX, got {spec:?}");
                };
                let max: f64 = max
                    .parse()
                    .unwrap_or_else(|_| panic!("--cap: MAX must be numeric, got {max:?}"));
                caps.push((file.to_string(), key.to_string(), max));
            }
            other => panic!("unknown option {other}"),
        }
    }

    println!(
        "bench_gate: baseline '{baseline_dir}', fresh '{fresh_dir}', tolerance {:.0}%{}",
        tolerance * 100.0,
        match &only {
            Some(file) => format!(", only {file}"),
            None => String::new(),
        }
    );
    match run(
        &baseline_dir,
        &fresh_dir,
        tolerance,
        only.as_deref(),
        &caps,
        caps_only,
    ) {
        Err(message) => {
            eprintln!("bench_gate error: {message}");
            ExitCode::FAILURE
        }
        Ok(violations) if violations.is_empty() => {
            println!("bench_gate: all gated throughput metrics within tolerance");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!("bench_gate: {} violation(s):", violations.len());
            for violation in &violations {
                match violation {
                    Violation::Regression {
                        metric,
                        baseline,
                        fresh,
                    } => eprintln!(
                        "  {metric}: fresh {fresh:.1} is below {:.0}% of baseline {baseline:.1}",
                        (1.0 - tolerance) * 100.0
                    ),
                    Violation::Shape { metric, detail } => {
                        eprintln!("  {metric}: record shape drifted ({detail})")
                    }
                    Violation::Cap { metric, cap, fresh } => {
                        eprintln!("  {metric}: fresh {fresh:.1} exceeds the {cap:.1} budget")
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = r#"{
  "bench": "snapshot",
  "codec": [
    { "invariants": 1001, "encode_mb_s": 87.82, "decode_mb_s": 150.57 },
    { "invariants": 10002, "encode_mb_s": 65.98, "decode_mb_s": 149.68 }
  ],
  "events_per_second": 11041893.6,
  "negative": -3.5
}"#;

    #[test]
    fn extract_finds_every_occurrence_in_order() {
        assert_eq!(extract(RECORD, "encode_mb_s").values, vec![87.82, 65.98]);
        assert_eq!(
            extract(RECORD, "events_per_second").values,
            vec![11041893.6]
        );
        assert_eq!(extract(RECORD, "negative").values, vec![-3.5]);
        // A key that prefixes another must not match it.
        assert!(extract(RECORD, "encode_mb").values.is_empty());
    }

    #[test]
    fn extract_skips_null_with_a_note() {
        let record = r#"{"manager_parallel_speedup": null, "pages_per_second": 100.0}"#;
        let got = extract(record, "manager_parallel_speedup");
        assert!(got.values.is_empty(), "null is not a numeric occurrence");
        assert_eq!(got.notes.len(), 1, "…but it is noted, never silent");
        assert!(got.notes[0].contains("null"), "{:?}", got.notes);
        // A null occurrence does not hide later numeric ones.
        let record = r#"{"speedup": null, "speedup": 2.5}"#;
        let got = extract(record, "speedup");
        assert_eq!(got.values, vec![2.5]);
        assert_eq!(got.notes.len(), 1);
    }

    #[test]
    fn extract_reports_missing_key_as_empty_without_notes() {
        let got = extract(RECORD, "missing_key");
        assert!(got.values.is_empty());
        assert!(
            got.notes.is_empty(),
            "a key that never appears is a shape question for the gate, not a skip"
        );
        // …and gate_metric turns that emptiness into a Shape violation.
        let mut violations = Vec::new();
        gate_metric("f::missing_key", &got.values, &[1.0], 0.30, &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
    }

    #[test]
    fn extract_skips_nan_string_with_a_note() {
        let record = r#"{"rate": "NaN", "rate": 5.0}"#;
        let got = extract(record, "rate");
        assert_eq!(got.values, vec![5.0], "the string \"NaN\" is not a number");
        assert_eq!(got.notes.len(), 1);
        assert!(
            got.notes[0].contains("not a JSON number"),
            "{:?}",
            got.notes
        );
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let mut violations = Vec::new();
        gate_metric("m", &[100.0], &[71.0], 0.30, &mut violations);
        assert!(violations.is_empty(), "a 29% drop is within 30% tolerance");
        gate_metric("m", &[100.0], &[69.0], 0.30, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { fresh, .. } if *fresh == 69.0
        ));
        // Improvements always pass.
        violations.clear();
        gate_metric("m", &[100.0], &[250.0], 0.30, &mut violations);
        assert!(violations.is_empty());
    }

    #[test]
    fn gate_fails_on_shape_drift() {
        let mut violations = Vec::new();
        gate_metric("m", &[100.0, 90.0], &[100.0], 0.30, &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
        violations.clear();
        gate_metric("m", &[], &[], 0.30, &mut violations);
        assert!(
            matches!(&violations[0], Violation::Shape { .. }),
            "a gated metric absent from both copies is drift, not a pass"
        );
    }

    #[test]
    fn only_filter_restricts_gating_to_one_file() {
        let dir = std::env::temp_dir().join("bench_gate_only_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_fleet.json"),
            "{\"pages_per_second_sequential\": 100.0, \"pages_per_second_parallel\": 200.0}\n",
        )
        .unwrap();
        let dir = dir.to_str().unwrap();
        // Only the fleet record exists, so an unfiltered run fails on the
        // missing learning/snapshot files — but `--only BENCH_fleet.json` gates
        // cleanly against the one file that is there.
        assert!(run(dir, dir, 0.05, None, &[], false).is_err());
        let violations = run(dir, dir, 0.05, Some("BENCH_fleet.json"), &[], false).unwrap();
        assert!(violations.is_empty(), "identical records gate clean");
        // A filter that matches nothing is an error, not a silent pass.
        assert!(run(dir, dir, 0.05, Some("BENCH_nope.json"), &[], false).is_err());
    }

    #[test]
    fn caps_only_skips_baselines_entirely() {
        let dir = std::env::temp_dir().join("bench_gate_caps_only_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Only a chaos record exists — no baseline files at all. --caps-only
        // must gate its budgets without touching the GATES table.
        std::fs::write(
            dir.join("BENCH_fleet.json"),
            "{\"bench\": \"fleet_scale_chaos\", \"retransmits\": 894, \"envelopes_dropped\": 114}\n",
        )
        .unwrap();
        let dir = dir.to_str().unwrap();
        let caps = vec![
            (
                "BENCH_fleet.json".to_string(),
                "retransmits".to_string(),
                2000.0,
            ),
            (
                "BENCH_fleet.json".to_string(),
                "envelopes_dropped".to_string(),
                500.0,
            ),
        ];
        let violations = run(dir, dir, 0.30, None, &caps, true).unwrap();
        assert!(violations.is_empty());
        // Over budget fails; --caps-only with no caps is an error, not a pass.
        let tight = vec![(
            "BENCH_fleet.json".to_string(),
            "retransmits".to_string(),
            100.0,
        )];
        let violations = run(dir, dir, 0.30, None, &tight, true).unwrap();
        assert!(matches!(&violations[0], Violation::Cap { .. }));
        assert!(run(dir, dir, 0.30, None, &[], true).is_err());
    }

    #[test]
    fn caps_bound_every_occurrence_and_require_presence() {
        let mut violations = Vec::new();
        // All occurrences within budget: clean.
        let lines = cap_metric("f::bytes", 1024.0, &[900.0, 1024.0], &mut violations);
        assert_eq!(lines.len(), 2);
        assert!(violations.is_empty());
        // One row over budget: a Cap violation naming the row.
        cap_metric("f::bytes", 1024.0, &[900.0, 1500.0], &mut violations);
        assert!(matches!(
            &violations[0],
            Violation::Cap { metric, fresh, .. } if metric == "f::bytes[1]" && *fresh == 1500.0
        ));
        // A budgeted metric absent from the record is drift, not a pass.
        violations.clear();
        cap_metric("f::bytes", 1024.0, &[], &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
    }

    #[test]
    fn cap_only_invocation_gates_without_baselines() {
        let dir = std::env::temp_dir().join("bench_gate_cap_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_fleet_sweep.json"),
            "{\"points\": [{\"bytes_per_member\": 500.0}, {\"bytes_per_member\": 800.0}]}\n",
        )
        .unwrap();
        let dir = dir.to_str().unwrap();
        let cap = |max: f64| {
            vec![(
                "BENCH_fleet_sweep.json".to_string(),
                "bytes_per_member".to_string(),
                max,
            )]
        };
        // `--only` names a file with no pairwise gates, but the cap still counts
        // toward "something was gated" — a cap-only run is not an error.
        let violations = run(
            dir,
            dir,
            0.30,
            Some("BENCH_fleet_sweep.json"),
            &cap(1024.0),
            false,
        )
        .unwrap();
        assert!(violations.is_empty());
        let violations = run(
            dir,
            dir,
            0.30,
            Some("BENCH_fleet_sweep.json"),
            &cap(600.0),
            false,
        )
        .unwrap();
        assert_eq!(violations.len(), 1);
        assert!(matches!(&violations[0], Violation::Cap { .. }));
    }

    #[test]
    fn array_rows_gate_individually() {
        let mut violations = Vec::new();
        let lines = gate_metric(
            "f::k",
            &[100.0, 100.0, 100.0],
            &[95.0, 60.0, 110.0],
            0.30,
            &mut violations,
        );
        assert_eq!(lines.len(), 3);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { metric, .. } if metric == "f::k[1]"
        ));
    }
}
