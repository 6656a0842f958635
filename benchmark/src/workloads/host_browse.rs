//! `host_browse`: one patched, protected browser loading benign pages — the real
//! traffic of a protected community member. All the time is in `cv-runtime`'s
//! classic path (`Machine::new`, `CodeCache`) and `cv-core::present`; `cv-store`
//! and `cv-fleet` are never called.

use super::{OpResult, Rejoined, SetupFacts, Workload};
use crate::common::{benign_pool, reference_renderings, Digest, HostCheckpoint};
use crate::ladder;
use crate::rng::Rng;
use crate::spans::Recorder;
use cv_apps::{learning_suite, red_team_exploits, Browser, Exploit, DONE_MARKER};
use cv_core::{learn_model, ClearViewConfig, ProtectedApplication};
use cv_isa::Word;
use cv_perf::stats::median;
use cv_runtime::{MonitorConfig, RunStatus};
use std::time::Instant;

/// Exploit presentations after which a campaign counts as unpatched.
pub const MAX_PRESENTATIONS: u32 = 40;

/// Fresh applications the host set-ups attack; the last one is kept. One attack
/// is under a millisecond, so a set-up times several and reports their median
/// (`time_to_immunity_ms` where the timed operation is not an attack).
pub const SETUP_ATTACKS: usize = 8;

/// Present `exploit` to `app` until it is survived. Returns the presentations it
/// took, or `None` if the cap was reached.
pub fn attack_until_survived(app: &mut ProtectedApplication, exploit: &[Word]) -> Option<u32> {
    (1..=MAX_PRESENTATIONS).find(|_| matches!(app.present(exploit).status, RunStatus::Completed))
}

pub struct HostBrowse {
    browser: Browser,
    app: ProtectedApplication,
    exploits: Vec<Exploit>,
    pages: Vec<Vec<Word>>,
    expected: Vec<Vec<Word>>,
    checkpoint: HostCheckpoint,
    facts: SetupFacts,
    digest: Digest,
}

impl HostBrowse {
    pub fn setup(seed: u64, smoke: bool) -> HostBrowse {
        let browser = Browser::build();
        let (model, _) = learn_model(&browser.image, &learning_suite(), MonitorConfig::full());
        let config = ClearViewConfig::default();

        // The single-variant attack protocol for every exploit the default
        // configuration repairs, so their repairs are installed while browsing.
        let exploits: Vec<Exploit> = red_team_exploits(&browser)
            .into_iter()
            .filter(Exploit::patched_in_exercise)
            .collect();
        let mut attacks: Vec<(ProtectedApplication, u32, f64)> = (0..SETUP_ATTACKS)
            .map(|_| {
                let mut app =
                    ProtectedApplication::new(browser.image.clone(), model.clone(), config);
                let attack = Instant::now();
                let presentations = exploits
                    .iter()
                    .map(|e| {
                        attack_until_survived(&mut app, e.page()).unwrap_or_else(|| {
                            panic!("exploit {} must patch in set-up", e.bugzilla)
                        })
                    })
                    .sum();
                let ns = attack.elapsed().as_nanos() as f64 / exploits.len() as f64;
                (app, presentations, ns)
            })
            .collect();
        let attack_ns: Vec<f64> = attacks.iter().map(|a| a.2).collect();
        let (app, presentations, _) = attacks.pop().expect("at least one set-up attack");
        let immunity_ns = median(&attack_ns) as u64;

        let mut rng = Rng::new(seed);
        let pages = benign_pool(&mut rng, if smoke { 64 } else { 1024 });
        let expected = reference_renderings(&browser.image, &pages);
        let checkpoint = HostCheckpoint::capture(&app, &browser.image, config, exploits[0].page());
        let facts = SetupFacts {
            immunity_ns: Some(immunity_ns),
            immunity_epochs: Some(f64::from(presentations) / exploits.len() as f64),
            bytes_per_member: checkpoint.state_bytes(),
        };
        HostBrowse {
            browser,
            app,
            exploits,
            pages,
            expected,
            checkpoint,
            facts,
            digest: Digest::default(),
        }
    }
}

impl Workload for HostBrowse {
    fn op_count(&self) -> usize {
        self.pages.len()
    }

    fn run_op(&mut self, idx: usize, first_pass: bool, rec: &mut Recorder) -> OpResult {
        let span = rec.enter("core.present");
        let out = self.app.present(&self.pages[idx]);
        rec.exit(span);
        if first_pass {
            self.digest.outcome(&out.status, &out.rendered);
            self.digest.flush();
        }
        let ok = matches!(out.status, RunStatus::Completed)
            && out.rendered.last() == Some(&DONE_MARKER)
            && out.rendered == self.expected[idx];
        OpResult {
            pages: 1,
            failed: !ok,
            ..OpResult::default()
        }
    }

    fn digest(&mut self) -> u32 {
        self.digest.value()
    }

    fn setup_facts(&self) -> SetupFacts {
        self.facts
    }

    fn after_region(&mut self) -> bool {
        // Every installed repair still holds: each exploit is survived.
        self.exploits
            .iter()
            .all(|e| matches!(self.app.present(e.page()).status, RunStatus::Completed))
    }

    fn rejoin_once(&mut self) -> Option<Rejoined> {
        Some(self.checkpoint.restore())
    }

    fn ladder_inputs(&self) -> ladder::Inputs {
        ladder::Inputs::for_host(
            self.browser.image.clone(),
            self.pages.iter().take(64).cloned().collect(),
            learning_suite(),
            self.exploits.iter().map(|e| e.page().to_vec()).collect(),
            ClearViewConfig::default(),
            self.app
                .net_state()
                .repairs()
                .map(|(_, r)| r.clone())
                .collect(),
        )
    }
}
