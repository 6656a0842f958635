//! The event counts behind Tables 2 and 3, held to a recording.
//!
//! `SimTimeModel::run_seconds` and `CostModel::cost` turn a run's [`ExecutionStats`]
//! into the simulated page-load and repair times the paper's tables are compared on, so
//! a change to the code cache or to hook dispatch that moved one count would move a
//! published number without failing a behavioural test. `exec_stats_golden.txt` holds
//! every field of the stats of the 57 evaluation pages under each of the five monitor
//! configurations, from a cold cache (flushed before the page, as `present` runs it),
//! from a warm one, and from a warm one after patches were applied to it (two hooks at
//! every `ret`, one at every call: the hooked blocks are ejected and rebuilt). It was
//! recorded at the commit before the dense code cache and must never change unless the
//! guest or the counting rules do. Both run loops must render it byte for byte: the
//! block loop every protected run executes on, and the per-instruction loop learning
//! executes on (tracing nothing here). When the guest or the rules change, regenerate
//! it with
//!
//! ```text
//! cargo test --test exec_stats_golden regenerate_exec_stats_golden -- --ignored
//! ```
//!
//! The second test holds the shared-program environment to the classic one with the
//! same hooks installed, over the evaluation pages and the ten Red Team exploit pages.

use clearview::apps::{evaluation_suite, red_team_exploits, Browser};
use clearview::isa::{decode_all, Addr, BinaryImage, Inst, Word};
use clearview::runtime::{
    EnvConfig, ExecutionStats, Hook, HookAction, HookContext, ManagedExecutionEnvironment,
    MonitorConfig, ObservationKind, RecordingTracer, RunResult, SharedProgram,
};
use std::fmt::Write;

const GOLDEN: &str = include_str!("exec_stats_golden.txt");

/// A patch that checks and never repairs: one observation per execution.
struct Check;

impl Hook for Check {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        ctx.observe(ObservationKind::Satisfied);
        HookAction::Continue
    }
}

/// One hook at every call instruction, two at every `ret`, in address order.
fn patch_sites(image: &BinaryImage) -> Vec<Addr> {
    let mut sites = Vec::new();
    for iwa in decode_all(&image.code, image.layout.code_base).expect("image decodes") {
        match iwa.inst {
            Inst::Call { .. } | Inst::CallIndirect { .. } => sites.push(iwa.addr),
            Inst::Ret => sites.extend([iwa.addr, iwa.addr]),
            _ => {}
        }
    }
    sites
}

fn configs() -> [MonitorConfig; 5] {
    [
        MonitorConfig::bare(),
        MonitorConfig::memory_firewall_only(),
        MonitorConfig::firewall_and_shadow_stack(),
        MonitorConfig::firewall_and_heap_guard(),
        MonitorConfig::full(),
    ]
}

fn line(out: &mut String, config: MonitorConfig, pass: &str, page: usize, s: ExecutionStats) {
    writeln!(
        out,
        "{} {pass} {page} insts={} trace={} hooks={} fw={} hg={} ss={} built={} ejected={} runs={}",
        config.label(),
        s.instructions,
        s.trace_events,
        s.hook_invocations,
        s.firewall_checks,
        s.heap_guard_checks,
        s.shadow_stack_ops,
        s.blocks_built,
        s.blocks_ejected,
        s.runs,
    )
    .expect("writing to a String");
}

/// How a page is run: by the block loop or by the per-instruction loop.
type Runner = fn(&mut ManagedExecutionEnvironment, &[Word]) -> RunResult;

/// The protected run: the block loop.
fn block_loop(env: &mut ManagedExecutionEnvironment, page: &[Word]) -> RunResult {
    env.run(page)
}

/// The learning run's loop, with a tracer that traces no address.
fn per_instruction_loop(env: &mut ManagedExecutionEnvironment, page: &[Word]) -> RunResult {
    env.run_with_tracer(page, &mut RecordingTracer::with_filter([]))
}

/// Every page's stats under every configuration, cold, warm and patched.
fn record(run: Runner) -> String {
    let image = Browser::build().image;
    let pages = evaluation_suite();
    assert_eq!(pages.len(), 57);
    let sites = patch_sites(&image);
    let mut out = String::new();
    for config in configs() {
        let mut env =
            ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(config));
        for (i, page) in pages.iter().enumerate() {
            env.flush_cache();
            let r = run(&mut env, page);
            assert!(r.is_completed(), "evaluation pages are benign");
            line(&mut out, config, "cold", i, r.stats);
        }
        for (i, page) in pages.iter().enumerate() {
            line(&mut out, config, "warm", i, run(&mut env, page).stats);
        }
        for &addr in &sites {
            env.apply_hook(addr, Box::new(Check));
        }
        for (i, page) in pages.iter().enumerate() {
            let r = run(&mut env, page);
            assert_eq!(r.observations.len() as u64, r.stats.hook_invocations);
            line(&mut out, config, "patched", i, r.stats);
        }
    }
    out
}

fn assert_matches_the_recording(fresh: &str) {
    assert_eq!(fresh.lines().count(), 57 * 5 * 3);
    for (n, (got, want)) in fresh.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of exec_stats_golden.txt", n + 1);
    }
    assert_eq!(fresh, GOLDEN);
}

#[test]
fn evaluation_page_stats_match_the_recording() {
    assert_matches_the_recording(&record(block_loop));
}

/// The counts are the loops' common meaning, not one loop's: learning's loop, tracing
/// nothing, renders the same bytes.
#[test]
fn the_per_instruction_loop_matches_the_recording_too() {
    assert_matches_the_recording(&record(per_instruction_loop));
}

#[test]
#[ignore = "rewrites tests/exec_stats_golden.txt; run only when the guest or the counting rules change"]
fn regenerate_exec_stats_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/exec_stats_golden.txt");
    std::fs::write(path, record(block_loop)).expect("write the recording");
}

/// A classic and a shared-program environment carrying the same patches see the same
/// hook traffic: equal observations, in order, and equal invocation counts, on benign
/// pages and on every exploit — monitored (the attack is detected mid-run) and bare
/// (it lands, and some run injected code out of the heap).
#[test]
fn classic_and_shared_environments_dispatch_hooks_alike() {
    let browser = Browser::build();
    let mut pages = evaluation_suite();
    let exploits = red_team_exploits(&browser);
    assert_eq!(exploits.len(), 10);
    pages.extend(exploits.iter().map(|e| e.page().to_vec()));
    let sites = patch_sites(&browser.image);
    let program = SharedProgram::new(browser.image.clone());
    for monitors in [MonitorConfig::full(), MonitorConfig::bare()] {
        let config = EnvConfig::with_monitors(monitors);
        let mut classic = ManagedExecutionEnvironment::new(browser.image.clone(), config);
        let mut shared = ManagedExecutionEnvironment::with_shared(&program, config);
        for &addr in &sites {
            let a = classic.apply_hook(addr, Box::new(Check));
            let b = shared.apply_hook(addr, Box::new(Check));
            assert_eq!(a, b, "hook ids are handed out alike");
        }
        assert_eq!(classic.hooked_addrs(), shared.hooked_addrs());
        let mut invocations = 0;
        for page in &pages {
            let (a, b) = (classic.run(page), shared.run(page));
            assert_eq!(a.status, b.status, "{monitors:?} {page:?}");
            assert_eq!(a.rendered, b.rendered, "{monitors:?} {page:?}");
            assert_eq!(a.observations, b.observations, "{monitors:?} {page:?}");
            assert_eq!(a.stats.hook_invocations, b.stats.hook_invocations);
            assert_eq!(a.stats.instructions, b.stats.instructions);
            assert_eq!(a.stats.firewall_checks, b.stats.firewall_checks);
            assert_eq!(a.stats.heap_guard_checks, b.stats.heap_guard_checks);
            assert_eq!(a.stats.shadow_stack_ops, b.stats.shadow_stack_ops);
            invocations += a.stats.hook_invocations;
        }
        assert!(invocations > 0, "the patched sites are on the pages' paths");
    }
}
