//! `fleet_steady`: one long-lived, learned, immunised 4,096-member fleet running
//! full protected epochs — ROADMAP's "pages/sec through a full protected epoch".
//! Time is in the `cv-fleet` engine, the envelope codec and `cv-runtime`'s
//! copy-on-write path; the manager plane idles.

use super::{OpResult, Rejoined, SetupFacts, Workload};
use crate::common::{
    benign_pool, long_lived_targets, protected_fleet, reference_renderings, rejoin_wave, Digest,
    Target,
};
use crate::ladder;
use crate::rng::Rng;
use crate::spans::Recorder;
use cv_apps::{expanded_learning_suite, Browser};
use cv_fleet::{Fleet, Presentation};
use cv_isa::Word;
use cv_runtime::RunStatus;

/// Members of the long-lived fleets.
pub const NODES: usize = 4096;
/// Members of a long-lived fleet in `--smoke` mode.
pub const SMOKE_NODES: usize = 256;

/// One epoch's traffic: a presentation per member, and for each the index of
/// its page in the benign pool (`None` = an exploit page at a protected location).
struct Epoch {
    presentations: Vec<Presentation>,
    pool_index: Vec<Option<u32>>,
}

pub struct FleetSteady {
    browser: Browser,
    fleet: Fleet,
    targets: Vec<Target>,
    epochs: Vec<Epoch>,
    pool: Vec<Vec<Word>>,
    expected: Vec<Vec<Word>>,
    facts: SetupFacts,
    digest: Digest,
    rng: Rng,
}

impl FleetSteady {
    pub fn setup(seed: u64, smoke: bool) -> FleetSteady {
        let nodes = if smoke { SMOKE_NODES } else { NODES };
        let browser = Browser::build();
        let targets = long_lived_targets(&browser);
        let mut rng = Rng::new(seed);
        let (fleet, immunity) = protected_fleet(&browser, &targets, nodes, &mut rng);
        assert!(immunity.protected, "set-up attack must immunise the fleet");

        let pool = benign_pool(&mut rng, if smoke { 64 } else { 1024 });
        let expected = reference_renderings(&browser.image, &pool);
        // One benign page per member, 1% exploit pages at protected locations.
        let epochs = (0..if smoke { 2 } else { 32 })
            .map(|_| {
                let mut presentations = Vec::with_capacity(nodes);
                let mut pool_index = Vec::with_capacity(nodes);
                for node in 0..nodes {
                    if rng.below(100) == 0 {
                        let target = &targets[rng.below(targets.len() as u64) as usize];
                        presentations.push(Presentation::new(node, target.page.clone()));
                        pool_index.push(None);
                    } else {
                        let i = rng.below(pool.len() as u64) as usize;
                        presentations.push(Presentation::new(node, pool[i].clone()));
                        pool_index.push(Some(i as u32));
                    }
                }
                Epoch {
                    presentations,
                    pool_index,
                }
            })
            .collect();
        let facts = SetupFacts {
            immunity_ns: Some(immunity.wall.as_nanos() as u64),
            immunity_epochs: Some(immunity.epochs as f64),
            bytes_per_member: fleet.metrics().bytes_per_member(),
        };
        FleetSteady {
            browser,
            fleet,
            targets,
            epochs,
            pool,
            expected,
            facts,
            digest: Digest::default(),
            rng,
        }
    }
}

impl Workload for FleetSteady {
    fn op_count(&self) -> usize {
        self.epochs.len()
    }

    fn run_op(&mut self, idx: usize, first_pass: bool, rec: &mut Recorder) -> OpResult {
        let epoch = &self.epochs[idx];
        let span = rec.enter("fleet.run_epoch");
        let outcome = self.fleet.run_epoch(&epoch.presentations);
        rec.exit(span);

        let mut ok = outcome.outcomes.len() == epoch.presentations.len();
        for ((out, presentation), pool_index) in outcome
            .outcomes
            .iter()
            .zip(&epoch.presentations)
            .zip(&epoch.pool_index)
        {
            // Completed benign pages render what a bare environment renders;
            // exploit pages at protected locations are survived.
            ok &= out.node == presentation.node && matches!(out.status, RunStatus::Completed);
            if let Some(i) = pool_index {
                ok &= out.rendered == self.expected[*i as usize];
            }
            if first_pass {
                self.digest.outcome(&out.status, &out.rendered);
            }
        }
        ok &= self
            .targets
            .iter()
            .all(|t| self.fleet.is_protected_against(t.location));
        if first_pass {
            self.digest.flush();
        }
        OpResult {
            pages: outcome.outcomes.len() as u64,
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
        self.fleet.metrics().root_sync_bypass_count == 0
    }

    fn rejoin_once(&mut self) -> Option<Rejoined> {
        Some(rejoin_wave(
            &mut self.fleet,
            &self.targets[0],
            &mut self.rng,
        ))
    }

    fn ladder_inputs(&self) -> ladder::Inputs {
        ladder::Inputs::for_fleet(
            &self.browser,
            self.pool.iter().take(64).cloned().collect(),
            expanded_learning_suite(),
            &self.targets[0],
            self.fleet.node_count(),
            self.fleet.node_count(),
            false,
        )
    }
}
