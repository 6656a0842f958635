//! # cv-bench — experiment harnesses
//!
//! Shared driver code for the binaries that regenerate every
//! table and figure of the paper's evaluation (Section 4). Each binary prints the
//! paper's rows next to the values measured on this reproduction; `EXPERIMENTS.md`
//! records a captured run.
//!
//! | Target | Reproduces |
//! |---|---|
//! | `table1_presentations` | Table 1 + the Red Team summary (blocked / patched / false positives) |
//! | `table2_overheads` | Table 2 (page-load overhead per monitor configuration) |
//! | `table3_breakdown` | Table 3 (per-exploit patch-generation time breakdown) |
//! | `learning_overhead` | Section 4.4.1 (≈300× learning slowdown) |
//! | `patch_time_summary` | Section 4.4.3 (average minutes / executions to a patch) |
//! | `ablation_config` | Section 4.3.2 / 2.4.1 design-choice ablations |
//! | `fleet_scale` | Community-scale throughput: sequential vs. parallel epoch scheduling, monolithic vs. sharded invariant-store merges, and manager time under eight simultaneous failures (`cv-fleet`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cv_apps::{
    expanded_learning_suite, learning_suite, red_team_exploits, Browser, Exploit, Reconfiguration,
};
use cv_core::{learn_model, AttackTimeline, ClearViewConfig, ProtectedApplication};
use cv_inference::LearnedModel;
use cv_runtime::{MonitorConfig, RunStatus};

/// Maximum exploit presentations before the harness declares an exploit unpatched.
pub const MAX_PRESENTATIONS: u32 = 40;

/// The outcome of running the single-variant attack protocol for one exploit.
#[derive(Debug, Clone)]
pub struct ExploitRun {
    /// The exploit attacked.
    pub exploit: Exploit,
    /// Presentations until the patched application survived, if it ever did.
    pub presentations: Option<u32>,
    /// True if every presentation was blocked or survived (never silently compromised).
    pub always_contained: bool,
    /// The per-failure timelines recorded by the pipeline (one per defect repaired).
    pub timelines: Vec<AttackTimeline>,
}

/// Learn a model with the configuration appropriate for `exploit` (expanded learning
/// suite only when the exploit requires it).
pub fn model_for(browser: &Browser, exploit: &Exploit) -> LearnedModel {
    let pages = match exploit.reconfiguration {
        Reconfiguration::ExpandedLearning => expanded_learning_suite(),
        _ => learning_suite(),
    };
    learn_model(&browser.image, &pages, MonitorConfig::full()).0
}

/// The ClearView configuration appropriate for `exploit` (stack walking only when the
/// exploit requires the 285595 reconfiguration).
pub fn config_for(exploit: &Exploit) -> ClearViewConfig {
    match exploit.reconfiguration {
        Reconfiguration::StackWalk => ClearViewConfig::with_stack_walk(2),
        _ => ClearViewConfig::default(),
    }
}

/// Run the single-variant attack protocol (Section 4.3.1) for one exploit.
pub fn run_single_variant(
    browser: &Browser,
    exploit: &Exploit,
    model: LearnedModel,
    config: ClearViewConfig,
) -> ExploitRun {
    let mut app = ProtectedApplication::new(browser.image.clone(), model, config);
    let mut presentations = None;
    let mut always_contained = true;
    for i in 1..=MAX_PRESENTATIONS {
        let out = app.present(exploit.page());
        match out.status {
            RunStatus::Completed => {
                presentations = Some(i);
                break;
            }
            RunStatus::Failure(_) | RunStatus::Crash(_) => {
                if !out.blocked && !matches!(out.status, RunStatus::Crash(_)) {
                    always_contained = false;
                }
            }
        }
    }
    ExploitRun {
        exploit: exploit.clone(),
        presentations,
        always_contained,
        timelines: app.timelines(),
    }
}

/// Run the full Red Team protocol over all ten exploits, with per-exploit
/// reconfiguration where the paper applied it.
pub fn run_red_team(with_reconfiguration: bool) -> Vec<ExploitRun> {
    let browser = Browser::build();
    red_team_exploits(&browser)
        .into_iter()
        .map(|exploit| {
            let (model, config) = if with_reconfiguration {
                (model_for(&browser, &exploit), config_for(&exploit))
            } else {
                (
                    learn_model(&browser.image, &learning_suite(), MonitorConfig::full()).0,
                    ClearViewConfig::default(),
                )
            };
            run_single_variant(&browser, &exploit, model, config)
        })
        .collect()
}

/// Simple fixed-width table printer used by the harness binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_variant_protocol_patches_a_first_repair_exploit() {
        let browser = Browser::build();
        let exploit = red_team_exploits(&browser)
            .into_iter()
            .find(|e| e.bugzilla == 290162)
            .unwrap();
        let model = model_for(&browser, &exploit);
        let run = run_single_variant(&browser, &exploit, model, config_for(&exploit));
        assert_eq!(run.presentations, Some(4));
        assert!(run.always_contained);
        assert_eq!(run.timelines.len(), 1);
    }

    #[test]
    fn config_selection_matches_reconfiguration_needs() {
        let browser = Browser::build();
        for e in red_team_exploits(&browser) {
            let c = config_for(&e);
            match e.reconfiguration {
                Reconfiguration::StackWalk => assert_eq!(c.stack_procedures_considered, 2),
                _ => assert_eq!(c.stack_procedures_considered, 1),
            }
        }
    }
}
