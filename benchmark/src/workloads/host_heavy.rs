//! `host_heavy`: one protected application whose pages each run ~30k guest
//! instructions with a repair hook executing on every loop trip — the only
//! workload where per-instruction costs (fetch, hook lookup, Memory Firewall,
//! Shadow Stack, Heap Guard) dominate per-run set-up. Table 2's shape.

use super::host_browse::{attack_until_survived, SETUP_ATTACKS};
use super::{OpResult, Rejoined, SetupFacts, Workload};
use crate::common::{reference_renderings, Digest, HostCheckpoint};
use crate::guest::{HeavyGuest, HEAVY_DONE, TIMED_ITERATIONS};
use crate::ladder;
use crate::rng::Rng;
use crate::spans::Recorder;
use cv_core::{learn_model, ClearViewConfig, ProtectedApplication};
use cv_isa::Word;
use cv_patch::install_hooks;
use cv_perf::stats::median;
use cv_runtime::{EnvConfig, ManagedExecutionEnvironment, MonitorConfig, RunStatus};
use std::time::Instant;

pub struct HostHeavy {
    guest: HeavyGuest,
    app: ProtectedApplication,
    pages: Vec<Vec<Word>>,
    expected: Vec<Vec<Word>>,
    checkpoint: HostCheckpoint,
    facts: SetupFacts,
    digest: Digest,
}

impl HostHeavy {
    pub fn setup(seed: u64, smoke: bool) -> HostHeavy {
        let guest = HeavyGuest::build();
        let (model, _) = learn_model(&guest.image, &guest.learning_pages(), MonitorConfig::full());
        let mut attacks: Vec<(ProtectedApplication, u32, f64)> = (0..SETUP_ATTACKS)
            .map(|_| {
                let mut app = ProtectedApplication::new(
                    guest.image.clone(),
                    model.clone(),
                    ClearViewConfig::default(),
                );
                let attack = Instant::now();
                let presentations = attack_until_survived(&mut app, &guest.exploit_page())
                    .expect("the heavy guest's defect must patch in set-up");
                (app, presentations, attack.elapsed().as_nanos() as f64)
            })
            .collect();
        let attack_ns: Vec<f64> = attacks.iter().map(|a| a.2).collect();
        let (app, presentations, _) = attacks.pop().expect("at least one set-up attack");
        let immunity_ns = median(&attack_ns) as u64;
        assert!(app.is_protected_against(guest.call_site));

        let mut rng = Rng::new(seed);
        let pages: Vec<Vec<Word>> = (0..if smoke { 8 } else { 128 })
            .map(|_| guest.benign_page(TIMED_ITERATIONS, &mut rng))
            .collect();
        let expected = reference_renderings(&guest.image, &pages);
        let checkpoint = HostCheckpoint::capture(
            &app,
            &guest.image,
            ClearViewConfig::default(),
            &guest.exploit_page(),
        );
        let facts = SetupFacts {
            immunity_ns: Some(immunity_ns),
            immunity_epochs: Some(f64::from(presentations)),
            bytes_per_member: checkpoint.state_bytes(),
        };
        HostHeavy {
            guest,
            app,
            pages,
            expected,
            checkpoint,
            facts,
            digest: Digest::default(),
        }
    }

    /// Hook invocations of one page under the application's installed repairs,
    /// read from an environment carrying the same hooks (`present` does not
    /// return execution statistics).
    fn hook_invocations_per_page(&self) -> u64 {
        let mut env = ManagedExecutionEnvironment::new(
            self.guest.image.clone(),
            EnvConfig::with_monitors(MonitorConfig::full()),
        );
        for (_, repair) in self.app.net_state().repairs() {
            install_hooks(&mut env, repair.build_hooks());
        }
        env.run(&self.pages[0]).stats.hook_invocations
    }
}

impl Workload for HostHeavy {
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
            && out.rendered.last() == Some(&HEAVY_DONE)
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
        // The repair runs on (at least) every other loop trip, and still works.
        let hooked = self.hook_invocations_per_page() >= u64::from(TIMED_ITERATIONS) / 2;
        let exploit = self.guest.exploit_page();
        hooked && matches!(self.app.present(&exploit).status, RunStatus::Completed)
    }

    fn rejoin_once(&mut self) -> Option<Rejoined> {
        Some(self.checkpoint.restore())
    }

    fn ladder_inputs(&self) -> ladder::Inputs {
        ladder::Inputs::for_host(
            self.guest.image.clone(),
            self.pages.iter().take(16).cloned().collect(),
            self.guest.learning_pages(),
            vec![self.guest.exploit_page()],
            ClearViewConfig::default(),
            self.app
                .net_state()
                .repairs()
                .map(|(_, r)| r.clone())
                .collect(),
        )
    }
}
