//! Every workload from one command. Runs are separate processes of this same
//! executable (so `peak_rss_mb` belongs to one workload), started one at a time
//! and **interleaved round-robin** across the workloads, so slow stretches of the
//! machine spread over all of them. The runner also holds the seed check: one
//! seed gives one digest and one set of exact counts; another seed gives
//! another digest.

use crate::harness::{self, RunArgs};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{out_dir, run_file_name};
use crate::workloads::NAMES;
use cv_perf::json::{self, fmt_f64, Value};
use cv_perf::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::process::Command;

/// Metrics that must repeat exactly for one seed.
const EXACT: [&str; 2] = ["epochs_to_immunity", "sync_bytes_per_rejoin"];

/// Untraced runs per workload.
const RUNS: usize = 3;

/// Seconds of the extra run that proves the seed is live.
const SEED_CHECK_SECONDS: f64 = 1.0;

/// One finished child run, read back from its record file.
struct Record {
    digest: f64,
    correct: bool,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if output.status.code().is_none_or(|c| c > 1) {
        return Err(format!(
            "{workload} (seed {seed}) did not finish: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let path = out_dir().join(run_file_name(workload, seed, trace));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let metrics = value
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), num(m, "value")?)))
        .collect();
    Ok(Record {
        digest: num(&value, "digest").unwrap_or(-1.0),
        correct: value.get("correct") == Some(&Value::Bool(true)),
        failed: num(&value, "failed").unwrap_or(-1.0),
        metrics,
    })
}

/// Median and `(max − min) / median` of one metric over the runs.
fn summarize(values: &[f64]) -> (f64, f64) {
    let m = median(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let range = if m == 0.0 { 0.0 } else { (hi - lo) / m.abs() };
    (m, range)
}

/// `--all`: [`RUNS`] untraced runs per workload round-robin, one traced run per
/// workload, one short run on a second seed. Writes `out/result.json`.
pub fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut complain = |message: String| {
        eprintln!("FAIL {message}");
        ok = false;
    };
    let mut untraced: BTreeMap<&str, Vec<Record>> = BTreeMap::new();
    for round in 0..RUNS {
        for name in NAMES {
            let record = child(name, seed, seconds, false)?;
            println!(
                "run {}/{RUNS} {name:<15} digest {:08x} failed {}",
                round + 1,
                record.digest as u32,
                record.failed
            );
            if !record.correct {
                complain(format!("{name} run {} is not correct", round + 1));
            }
            untraced.entry(name).or_default().push(record);
        }
    }
    let mut traced: BTreeMap<&str, Record> = BTreeMap::new();
    for name in NAMES {
        let record = child(name, seed, seconds, true)?;
        println!("traced  {name:<15} failed {}", record.failed);
        if !record.correct {
            complain(format!("{name} traced run is not correct"));
        }
        traced.insert(name, record);
    }

    // The seed check.
    for name in NAMES {
        let records = &untraced[name];
        let first = &records[0];
        for (i, r) in records.iter().enumerate().skip(1) {
            if r.digest != first.digest {
                complain(format!("{name}: run {} digest differs on one seed", i + 1));
            }
            for metric in EXACT {
                if r.metrics.get(metric) != first.metrics.get(metric) {
                    complain(format!("{name}: {metric} differs on one seed"));
                }
            }
        }
        let other = child(name, seed + 1, SEED_CHECK_SECONDS.min(seconds), false)?;
        if !other.correct {
            complain(format!("{name} is not correct on seed {}", seed + 1));
        }
        if other.digest == first.digest {
            complain(format!("{name}: digest ignores the seed"));
        }
    }

    // The merged result: median across runs with (max − min) / median beside it.
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"seed\": {seed},\n  \"seconds\": {},",
        fmt_f64(seconds)
    );
    let _ = writeln!(out, "  \"runs\": {RUNS},\n  \"workloads\": {{");
    for (w, name) in NAMES.iter().enumerate() {
        println!("\n{name}");
        let _ = writeln!(out, "    \"{name}\": {{\n      \"end_to_end\": {{");
        for (i, spec) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = untraced[name]
                .iter()
                .filter_map(|r| r.metrics.get(spec.name).copied())
                .collect();
            let (m, range) = summarize(&values);
            println!(
                "  {:<24} {m:>16.4} {:<6} range {:>6.2}%",
                spec.name,
                spec.unit,
                range * 100.0
            );
            let _ = writeln!(
                out,
                "        \"{}\": {{\"median\": {}, \"range\": {}, \"unit\": \"{}\"}}{}",
                spec.name,
                fmt_f64(m),
                fmt_f64(range),
                spec.unit,
                if i + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      }},\n      \"per_layer\": {{");
        for (i, spec) in PER_LAYER.iter().enumerate() {
            let v = traced[name].metrics.get(spec.name).copied().unwrap_or(0.0);
            println!("  {:<36} {v:>16.4} {}", spec.name, spec.unit);
            let _ = writeln!(
                out,
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{}",
                spec.name,
                fmt_f64(v),
                spec.unit,
                if i + 1 < PER_LAYER.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "      }}\n    }}{}",
            if w + 1 < NAMES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }},\n  \"ok\": {ok}\n}}");
    let path = out_dir().join("result.json");
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}

/// `--smoke`: every workload once, untraced and traced, tiny sizes, every
/// oracle on. A later CI step; the numbers mean nothing.
pub fn smoke(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for name in NAMES {
        for trace in [false, true] {
            let t = std::time::Instant::now();
            let run = harness::run(RunArgs {
                workload: name.to_string(),
                seed,
                seconds: 0.1,
                trace,
                smoke: true,
            })?;
            let declared = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            let good = run.correct && run.metrics.len() == declared;
            println!(
                "smoke {name:<15} trace {} {:>6.0} ms  attempted {:>6} failed {} {}",
                u8::from(trace),
                t.elapsed().as_secs_f64() * 1e3,
                run.attempted,
                run.failed,
                if good { "ok" } else { "FAIL" }
            );
            ok &= good;
        }
    }
    Ok(ok)
}
