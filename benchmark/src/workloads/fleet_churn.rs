//! `fleet_churn`: churn waves on one long-lived protected 4,096-member fleet —
//! the durability plane. Checkpoints, delta cuts, the `cv-store` codecs and
//! `cv-fleet`'s membership/tier sync work every wave and the interpreter runs
//! only a few hundred pages; learning merges write the store while delta cuts
//! read it, so a gain for one that costs the other shows here.

use super::fleet_steady::{NODES, SMOKE_NODES};
use super::{OpResult, Rejoined, SetupFacts, Workload};
use crate::common::{
    benign_page, benign_pool, long_lived_targets, protected_fleet, reference_renderings,
    rejoin_all, survives, Digest, Target, WAVE_KILLS,
};
use crate::ladder;
use crate::rng::Rng;
use crate::spans::Recorder;
use cv_apps::{expanded_learning_suite, Browser};
use cv_fleet::{Fleet, MembershipOp, NodeId, Presentation};
use cv_isa::Word;
use cv_runtime::RunStatus;

/// Fresh benign pages the community learns from each wave, so the store
/// mutates between the checkpoint and the rejoins.
pub const LEARN_PAGES_PER_WAVE: usize = 4;
/// Presentations in each wave's epoch: an exploit page for every member the
/// previous wave brought back, benign pages for the rest.
const PRESENTATIONS_PER_WAVE: usize = 256;

struct Wave {
    /// The epoch's traffic. The first `kills.len()` slots hold an exploit page
    /// each; their `node` is overwritten every wave with the members the
    /// previous wave brought back. The rest are benign pages.
    presentations: Vec<Presentation>,
    /// For each benign presentation, its page's index in the pool.
    pool_index: Vec<u32>,
    kills: Vec<NodeId>,
}

pub struct FleetChurn {
    browser: Browser,
    fleet: Fleet,
    targets: Vec<Target>,
    waves: Vec<Wave>,
    pool: Vec<Vec<Word>>,
    expected: Vec<Vec<Word>>,
    /// The stream every wave's learning pages are drawn from. It runs on across
    /// passes, so no wave learns the pages an earlier wave learned.
    learn_rng: Rng,
    /// The members the previous wave brought back, not yet shown an exploit.
    rejoined: Vec<NodeId>,
    /// Waves run, and those whose learning changed the store, so that the delta
    /// the rejoins were served carried dirty shards.
    waves_run: u64,
    dirty_waves: u64,
    facts: SetupFacts,
    digest: Digest,
}

impl FleetChurn {
    pub fn setup(seed: u64, smoke: bool) -> FleetChurn {
        let nodes = if smoke { SMOKE_NODES } else { NODES };
        let kills_per_wave = WAVE_KILLS.min(nodes / 2);
        let browser = Browser::build();
        let targets = long_lived_targets(&browser);
        let mut rng = Rng::new(seed);
        let (mut fleet, immunity) = protected_fleet(&browser, &targets, nodes, &mut rng);
        assert!(immunity.protected, "set-up attack must immunise the fleet");

        let pool = benign_pool(&mut rng, if smoke { 64 } else { 512 });
        let expected = reference_renderings(&browser.image, &pool);
        let waves = (0..if smoke { 2 } else { 16 })
            .map(|w| {
                let exploit = &targets[w % targets.len()].page;
                let mut presentations: Vec<Presentation> = (0..kills_per_wave)
                    .map(|_| Presentation::new(0, exploit.clone()))
                    .collect();
                let benign = PRESENTATIONS_PER_WAVE.min(nodes) - kills_per_wave;
                let mut pool_index = Vec::with_capacity(benign);
                for _ in 0..benign {
                    let i = rng.below(pool.len() as u64) as usize;
                    let node = rng.below(nodes as u64) as usize;
                    presentations.push(Presentation::new(node, pool[i].clone()));
                    pool_index.push(i as u32);
                }
                Wave {
                    presentations,
                    pool_index,
                    kills: rng.distinct(kills_per_wave, nodes),
                }
            })
            .collect();

        // A first crash and rejoin, so the first wave has members to verify.
        let rejoined = rng.distinct(kills_per_wave, nodes);
        let base = fleet.checkpoint();
        fleet.apply_membership(MembershipOp::Crash(&rejoined));
        let (_, ok) = rejoin_all(&mut fleet, &rejoined, &base);
        assert!(ok, "set-up rejoin must sync every member");

        let facts = SetupFacts {
            immunity_ns: Some(immunity.wall.as_nanos() as u64),
            immunity_epochs: Some(immunity.epochs as f64),
            bytes_per_member: fleet.metrics().bytes_per_member(),
        };
        FleetChurn {
            browser,
            fleet,
            targets,
            waves,
            pool,
            expected,
            learn_rng: Rng::new(seed ^ 0x6C65_6172_6E5F_7061),
            rejoined,
            waves_run: 0,
            dirty_waves: 0,
            facts,
            digest: Digest::default(),
        }
    }
}

impl Workload for FleetChurn {
    fn op_count(&self) -> usize {
        self.waves.len()
    }

    fn run_op(&mut self, idx: usize, first_pass: bool, rec: &mut Recorder) -> OpResult {
        let wave = &mut self.waves[idx];
        let fleet = &mut self.fleet;
        let learn: Vec<Vec<Word>> = (0..LEARN_PAGES_PER_WAVE)
            .map(|_| benign_page(&mut self.learn_rng))
            .collect();
        for (slot, &node) in wave.presentations.iter_mut().zip(&self.rejoined) {
            slot.node = node;
        }
        let cuts_before = fleet.metrics().delta_cuts;

        // The doomed members' last checkpoint: their delta-sync base.
        let span = rec.enter("fleet.checkpoint");
        let base = fleet.checkpoint();
        rec.exit(span);

        let span = rec.enter("fleet.learning");
        fleet.distributed_learning(&learn);
        rec.exit(span);

        // The members the previous wave brought back meet an exploit on first
        // exposure, others browse; the victims run their pages, then die before
        // the epoch's patch push.
        let span = rec.enter("fleet.run_epoch_churn");
        let outcome = fleet.run_epoch_churn(&wave.presentations, &wave.kills);
        rec.exit(span);
        let exploits = self.rejoined.len();
        let mut ok = outcome.outcomes.len() == wave.presentations.len()
            && outcome
                .outcomes
                .iter()
                .all(|out| matches!(out.status, RunStatus::Completed));
        for (out, i) in outcome.outcomes.iter().skip(exploits).zip(&wave.pool_index) {
            ok &= out.rendered == self.expected[*i as usize];
        }

        let span = rec.enter("fleet.rejoin");
        let (sync_bytes, rejoined) = rejoin_all(fleet, &wave.kills, &base);
        rec.exit(span);
        // The delta the rejoins were served was cut this wave. It carries dirty
        // shards when the wave's learning changed the store: four random pages
        // nearly always do, but a wave on which they teach nothing new has not
        // failed, so that is held over the whole run in `after_region`.
        let m = fleet.metrics();
        ok &= rejoined && m.delta_cuts > cuts_before;
        self.waves_run += 1;
        self.dirty_waves += u64::from(m.dirty_shards_last > 0);
        self.rejoined.clone_from(&wave.kills);

        if first_pass {
            for out in &outcome.outcomes {
                self.digest.outcome(&out.status, &out.rendered);
            }
            self.digest
                .words(&wave.kills.iter().map(|n| *n as Word).collect::<Vec<_>>());
            self.digest.word(sync_bytes as u32);
            self.digest.flush();
        }
        OpResult {
            pages: outcome.outcomes.len() as u64,
            rejoins: wave.kills.len() as u64,
            sync_bytes,
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
        // The last wave's members have not met an exploit yet.
        let immune = survives(&mut self.fleet, &self.rejoined, &self.targets[0]);
        let m = self.fleet.metrics();
        immune
            && m.root_sync_bypass_count == 0
            && m.tier_delta_cuts > 0
            && m.delta_savings() > 1.0
            // The region measured deltas that ship something, not empty ones.
            && self.dirty_waves * 2 >= self.waves_run
    }

    fn rejoin_once(&mut self) -> Option<Rejoined> {
        None
    }

    fn ladder_inputs(&self) -> ladder::Inputs {
        ladder::Inputs::for_fleet(
            &self.browser,
            self.pool.iter().take(64).cloned().collect(),
            expanded_learning_suite(),
            &self.targets[0],
            self.fleet.node_count(),
            self.waves[0].presentations.len(),
            true,
        )
    }
}
