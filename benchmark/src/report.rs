//! What a run leaves behind: the metric lines and the one-line JSON result on
//! standard output, and under `benchmark/out/` the full per-run record and, for
//! a traced run, the Chrome-format trace.

use crate::harness::RunReport;
use cv_perf::json::{escape, fmt_f64};
use std::fmt::Write;
use std::path::PathBuf;

/// `benchmark/out/`, beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-run record's file name.
pub fn run_file_name(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "run-{workload}-seed{seed}{}.json",
        if trace { "-trace" } else { "" }
    )
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn metrics_json(run: &RunReport) -> String {
    let entries: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                fmt_f64(finite(m.value)),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The result line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(run: &RunReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        metrics_json(run)
    )
}

/// The full record: the result line's content plus what is reported beside it.
pub fn record_json(run: &RunReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&run.args.workload));
    let _ = writeln!(out, "  \"seed\": {},", run.args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", fmt_f64(run.args.seconds));
    let _ = writeln!(out, "  \"trace\": {},", run.args.trace);
    let _ = writeln!(out, "  \"correct\": {},", run.correct);
    let _ = writeln!(out, "  \"attempted\": {},", run.attempted);
    let _ = writeln!(out, "  \"failed\": {},", run.failed);
    let _ = writeln!(out, "  \"digest\": {},", run.digest);
    let _ = writeln!(out, "  \"workers\": {},", crate::common::fleet_workers());
    let diagnostics: Vec<String> = run
        .diagnostics
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), fmt_f64(finite(*v))))
        .collect();
    let _ = writeln!(out, "  \"diagnostics\": {{{}}},", diagnostics.join(", "));
    if let Some(rec) = &run.recorder {
        let totals: Vec<String> = rec
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    escape(name),
                    t.count,
                    fmt_f64(t.total_ns as f64 / 1e6),
                    fmt_f64(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"spans\": {{{}}},", totals.join(", "));
        let counters: Vec<String> = rec
            .counters()
            .iter()
            .map(|(name, n)| format!("\"{}\": {n}", escape(name)))
            .collect();
        let _ = writeln!(out, "  \"counters\": {{{}}},", counters.join(", "));
        let _ = writeln!(out, "  \"spans_dropped\": {},", rec.dropped());
    }
    let _ = writeln!(out, "  \"metrics\": {}", metrics_json(run));
    out.push_str("}\n");
    out
}

/// Write the per-run record and, for a traced run, the trace.
pub fn write_files(run: &RunReport) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: String, content: String| {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        run_file_name(&run.args.workload, run.args.seed, run.args.trace),
        record_json(run),
    )?;
    if let Some(rec) = &run.recorder {
        write(
            format!("trace-{}.json", run.args.workload),
            rec.chrome_json(),
        )?;
    }
    Ok(())
}

/// Print every metric by name with its unit, then the result line last.
pub fn print(run: &RunReport) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}  workers {}",
        run.args.workload,
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.trace),
        crate::common::fleet_workers()
    );
    for (name, m) in &run.metrics {
        println!("  {name:<36} {:>16.4} {}", m.value, m.unit);
    }
    for (name, v) in &run.diagnostics {
        println!("  ({name:<34} {v:>16.4})");
    }
    println!(
        "  digest {:08x}  attempted {}  failed {}  correct {}",
        run.digest, run.attempted, run.failed, run.correct
    );
    println!("{}", result_line(run));
}
