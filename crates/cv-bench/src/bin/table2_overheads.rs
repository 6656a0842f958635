//! Regenerates Table 2 (Section 4.4.2): page-load overhead of each monitor
//! configuration relative to the bare application.
//!
//! The paper measures wall-clock seconds to load the 57 evaluation pages under each
//! configuration; this harness reports both the simulated cost-model overhead (the
//! number the shape comparison uses) and the real wall-clock time of the reproduction's
//! interpreter under each configuration (the fastest of 200 passes over the suite).

use cv_apps::{evaluation_suite, Browser};
use cv_bench::print_table;
use cv_runtime::{
    CostModel, EnvConfig, ExecutionStats, ManagedExecutionEnvironment, MonitorConfig,
};
use std::time::Instant;

/// Timed passes over the suite per configuration; the fastest one is reported, so
/// that a 57-page pass of some tens of microseconds is not lost in scheduler noise.
const TIMED_PASSES: usize = 200;

/// The suite's event counts from a cold cache (what the cost model prices) and the
/// wall-clock seconds of its fastest pass on the then-warm environment.
fn run_suite(browser: &Browser, monitors: MonitorConfig) -> (ExecutionStats, f64) {
    let mut env =
        ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::with_monitors(monitors));
    let pages = evaluation_suite();
    let pass = |env: &mut ManagedExecutionEnvironment| {
        let start = Instant::now();
        for page in &pages {
            let r = env.run(page);
            assert!(r.is_completed(), "evaluation pages are benign");
        }
        start.elapsed().as_secs_f64()
    };
    pass(&mut env);
    let stats = env.cumulative_stats();
    let fastest = (0..TIMED_PASSES)
        .map(|_| pass(&mut env))
        .fold(f64::INFINITY, f64::min);
    (stats, fastest)
}

fn main() {
    let browser = Browser::build();
    let cost = CostModel::default();
    let configs = [
        ("Bare application", MonitorConfig::bare(), 1.0),
        (
            "Memory Firewall",
            MonitorConfig::memory_firewall_only(),
            1.47,
        ),
        (
            "MF + Shadow Stack",
            MonitorConfig::firewall_and_shadow_stack(),
            1.97,
        ),
        (
            "MF + Heap Guard",
            MonitorConfig::firewall_and_heap_guard(),
            2.53,
        ),
        (
            "MF + Heap Guard + Shadow Stack",
            MonitorConfig::full(),
            3.03,
        ),
    ];
    let baseline = run_suite(&browser, MonitorConfig::bare());
    let base_cost = cost.cost(&baseline.0);
    let base_wall = baseline.1;

    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(name, monitors, paper_ratio)| {
            let (stats, wall) = run_suite(&browser, *monitors);
            let sim_ratio = cost.cost(&stats) / base_cost;
            let wall_ratio = wall / base_wall;
            vec![
                name.to_string(),
                format!("{:.0}", cost.cost(&stats)),
                format!("{sim_ratio:.2}"),
                format!("{wall_ratio:.2}"),
                format!("{paper_ratio:.2}"),
            ]
        })
        .collect();
    print_table(
        "Table 2 — page-load overhead per monitor configuration (57 evaluation pages)",
        &[
            "Configuration",
            "Simulated cost",
            "Overhead (simulated)",
            "Overhead (wall clock)",
            "Overhead (paper)",
        ],
        &rows,
    );
}
