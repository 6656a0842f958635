//! Pieces the workloads and the ladder share: page generators, the output
//! digest, bare-environment reference renderings, fleet construction, the
//! immunisation loop, and what a rejoin is on a fleet and on a single host.

use crate::rng::Rng;
use crate::workloads::Rejoined;
use cv_apps::{
    benign_array_311710, benign_gc_realloc_312278, benign_gif_285595, benign_grow_325403,
    benign_hostname_307259, benign_js_type_290162, benign_js_type_295854, benign_string_296134,
    benign_widget_269095, benign_widget_320182, evaluation_suite, expanded_learning_suite, feature,
    red_team_exploits, Browser, MULTI_FAILURE_TARGETS,
};
use cv_core::{ClearViewConfig, ProtectedApplication};
use cv_fleet::{Fleet, FleetConfig, MembershipOp, NodeId, Presentation};
use cv_isa::{Addr, BinaryImage, Word};
use cv_runtime::{EnvConfig, ManagedExecutionEnvironment, MonitorConfig, RunStatus, SharedProgram};
use cv_store::Snapshot;
use std::time::{Duration, Instant};

/// Fan-out of the manager tree on every fleet workload: with more than 32
/// members the leaf tier, not the root, is the `SyncSource`.
pub const TREE_FANOUT: usize = 32;

/// Members an exploit is presented to per attack epoch.
pub const ATTACKERS_PER_EXPLOIT: usize = 5;

/// Attack epochs after which a fleet that is still unprotected counts as failed.
pub const MAX_ATTACK_EPOCHS: u64 = 12;

/// Worker threads of every fleet: pinned so runs on bigger machines stay
/// comparable with this box (`nproc` = 2).
pub fn fleet_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The fleet configuration every fleet workload uses: event engine, in-process
/// transport, tree fan-out 32, pinned workers.
pub fn fleet_config(nodes: usize) -> FleetConfig {
    FleetConfig::new(nodes)
        .with_workers(fleet_workers())
        .with_tree_fanout(TREE_FANOUT)
}

/// The ClearView configuration under which all eight multi-failure targets
/// patch: the Section 4.3.2 stack-walk reconfiguration (the fleets also learn
/// from the expanded suite).
pub fn fleet_clearview_config() -> ClearViewConfig {
    ClearViewConfig::with_stack_walk(2)
}

/// One same-feature benign page for `feature_id`, from the `benign_*`
/// generator of that browser feature.
pub fn benign_page_of(feature_id: Word, rng: &mut Rng) -> Vec<Word> {
    match feature_id {
        feature::JS_TYPE_290162 => benign_js_type_290162(rng.word(), rng.word()),
        feature::JS_TYPE_295854 => benign_js_type_295854(rng.word(), rng.word()),
        feature::GC_REALLOC_312278 => benign_gc_realloc_312278(rng.word(), rng.word()),
        feature::WIDGET_269095 => benign_widget_269095(rng.word(), rng.word()),
        feature::WIDGET_320182 => benign_widget_320182(rng.word(), rng.word()),
        feature::STRING_296134 => benign_string_296134(rng.word() % 20, rng.word()),
        feature::ARRAY_311710 => {
            benign_array_311710(rng.word(), rng.word(), rng.word(), rng.word() % 2_000)
        }
        feature::GIF_285595 => benign_gif_285595(rng.word(), rng.word()),
        feature::GROW_325403 => benign_grow_325403(rng.word(), rng.word()),
        feature::HOSTNAME_307259 => benign_hostname_307259(rng.word()),
        other => panic!("no benign generator for feature {other}"),
    }
}

/// A benign page of a seed-chosen feature (all ten generators, equal weight).
pub fn benign_page(rng: &mut Rng) -> Vec<Word> {
    let feature_id = 1 + rng.below(10) as Word;
    benign_page_of(feature_id, rng)
}

/// `generated` seed-generated pages plus the 57-page evaluation suite, shuffled.
pub fn benign_pool(rng: &mut Rng, generated: usize) -> Vec<Vec<Word>> {
    let mut pages: Vec<Vec<Word>> = (0..generated).map(|_| benign_page(rng)).collect();
    pages.extend(evaluation_suite());
    rng.shuffle(&mut pages);
    pages
}

/// What an unprotected, unpatched environment renders for each page — the
/// reference a protected run must reproduce exactly (no false positive). Panics
/// if a page does not complete: the generators only emit benign pages.
pub fn reference_renderings(image: &BinaryImage, pages: &[Vec<Word>]) -> Vec<Vec<Word>> {
    // The shared/CoW path renders exactly what the classic path does, a
    // hundred times sooner per browser page — and this is set-up time.
    let mut env = ManagedExecutionEnvironment::with_shared(
        &SharedProgram::new(image.clone()),
        EnvConfig::with_monitors(MonitorConfig::bare()),
    );
    pages
        .iter()
        .map(|page| {
            let r = env.run(page);
            assert!(r.is_completed(), "benign page must complete bare: {page:?}");
            r.rendered
        })
        .collect()
}

/// A one-byte code for a run status, for the digest.
pub fn status_code(status: &RunStatus) -> u8 {
    match status {
        RunStatus::Completed => 0,
        RunStatus::Failure(_) => 1,
        RunStatus::Crash(_) => 2,
    }
}

/// The running CRC-32 digest of a workload's first-pass outputs.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    crc: u32,
    buf: Vec<u8>,
}

impl Digest {
    pub fn word(&mut self, w: u32) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[Word]) {
        self.word(ws.len() as u32);
        for w in ws {
            self.word(*w);
        }
    }

    pub fn outcome(&mut self, status: &RunStatus, rendered: &[Word]) {
        self.buf.push(status_code(status));
        self.words(rendered);
    }

    /// Fold the buffered bytes into the CRC (chained, so the digest depends on
    /// the order of the ops).
    pub fn flush(&mut self) {
        let mut chained = self.crc.to_le_bytes().to_vec();
        chained.append(&mut self.buf);
        self.crc = cv_store::crc32(&chained);
    }

    pub fn value(&mut self) -> u32 {
        if !self.buf.is_empty() {
            self.flush();
        }
        self.crc
    }
}

/// One exploit a fleet is attacked with.
#[derive(Debug, Clone)]
pub struct Target {
    pub bugzilla: u32,
    pub page: Vec<Word>,
    /// The failure location that must end up `Protected`.
    pub location: Addr,
}

/// The eight multi-failure targets, in `MULTI_FAILURE_TARGETS` order.
pub fn multi_failure_targets(browser: &Browser) -> Vec<Target> {
    let exploits = red_team_exploits(browser);
    MULTI_FAILURE_TARGETS
        .iter()
        .map(|(bug, sym)| Target {
            bugzilla: *bug,
            page: exploits
                .iter()
                .find(|e| e.bugzilla == *bug)
                .expect("multi-failure target is a Red Team exploit")
                .page()
                .to_vec(),
            location: browser.sym(sym),
        })
        .collect()
}

/// The three exploits the long-lived fleets (`fleet_steady`, `fleet_churn`) are
/// immunised against in set-up: one per repair strategy — set a function
/// pointer (290162), clamp a lower bound (296134), return from the enclosing
/// procedure (269095). Fixed, so `epochs_to_immunity` does not depend on the seed.
pub const LONG_LIVED_TARGETS: [u32; 3] = [290162, 296134, 269095];

pub fn long_lived_targets(browser: &Browser) -> Vec<Target> {
    let all = multi_failure_targets(browser);
    LONG_LIVED_TARGETS
        .iter()
        .map(|bug| {
            all.iter()
                .find(|t| t.bugzilla == *bug)
                .expect("long-lived target is a multi-failure target")
                .clone()
        })
        .collect()
}

/// What an immunisation took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Immunity {
    /// Attack epochs until every target location was `Protected`.
    pub epochs: u64,
    /// Wall-clock from the first attack epoch's start to that state.
    pub wall: Duration,
    /// Presentations the attack epochs ran.
    pub pages: u64,
    pub protected: bool,
}

/// Attack `fleet` until every target's location is protected: each epoch
/// presents every target's exploit to its `attackers` and `filler(epoch)` to
/// whoever else should be busy. `run` executes each epoch (callers wrap it in
/// their spans).
pub fn immunise(
    fleet: &mut Fleet,
    targets: &[Target],
    attackers: &[Vec<NodeId>],
    filler: &[Presentation],
    mut run: impl FnMut(&mut Fleet, &[Presentation]),
) -> Immunity {
    let mut batch: Vec<Presentation> = Vec::with_capacity(filler.len() + targets.len() * 8);
    for (target, nodes) in targets.iter().zip(attackers) {
        for &node in nodes {
            batch.push(Presentation::new(node, target.page.clone()));
        }
    }
    batch.extend(filler.iter().cloned());
    let start = Instant::now();
    let mut epochs = 0;
    let mut protected = false;
    while epochs < MAX_ATTACK_EPOCHS && !protected {
        run(fleet, &batch);
        epochs += 1;
        protected = targets
            .iter()
            .all(|t| fleet.is_protected_against(t.location));
    }
    Immunity {
        epochs,
        wall: start.elapsed(),
        pages: epochs * batch.len() as u64,
        protected,
    }
}

/// Seed-chosen attackers: `ATTACKERS_PER_EXPLOIT` distinct members per target,
/// no member attacked by two exploits.
pub fn choose_attackers(rng: &mut Rng, targets: usize, nodes: usize) -> Vec<Vec<NodeId>> {
    let all = rng.distinct(targets * ATTACKERS_PER_EXPLOIT, nodes);
    all.chunks(ATTACKERS_PER_EXPLOIT)
        .map(|c| c.to_vec())
        .collect()
}

/// A learned, immunised fleet: `Fleet::new` → `distributed_learning` of the
/// expanded suite → attack with the long-lived targets until all are protected.
pub fn protected_fleet(
    browser: &Browser,
    targets: &[Target],
    nodes: usize,
    rng: &mut Rng,
) -> (Fleet, Immunity) {
    let mut fleet = Fleet::new(
        browser.image.clone(),
        fleet_clearview_config(),
        fleet_config(nodes),
    );
    fleet.distributed_learning(&expanded_learning_suite());
    let attackers = choose_attackers(rng, targets.len(), nodes);
    let immunity = immunise(&mut fleet, targets, &attackers, &[], |f, batch| {
        f.run_epoch(batch);
    });
    (fleet, immunity)
}

/// Members crashed and rejoined per churn wave.
pub const WAVE_KILLS: usize = 64;

/// Rejoin `kills`: even positions by delta against `base`, odd ones by full
/// bootstrap. Returns the sync bytes and whether every member came back synced,
/// from a tier (never the root), with the delta smaller than the bootstrap.
pub fn rejoin_all(fleet: &mut Fleet, kills: &[NodeId], base: &Snapshot) -> (u64, bool) {
    let mut bytes = 0;
    let mut ok = true;
    let (mut delta_bytes, mut full_bytes) = (0, 0);
    for (i, &node) in kills.iter().enumerate() {
        let by_delta = i % 2 == 0;
        let outcome = fleet.apply_membership(MembershipOp::Rejoin {
            node,
            checkpoint: by_delta.then_some(base),
        });
        bytes += outcome.bytes;
        if by_delta {
            delta_bytes = outcome.bytes;
        } else {
            full_bytes = outcome.bytes;
        }
        ok &= outcome.delta == by_delta && fleet.is_member_synced(node);
    }
    ok &= kills.len() < 2 || delta_bytes < full_bytes;
    ok &= fleet.metrics().root_sync_bypass_count == 0;
    (bytes, ok)
}

/// Present `exploit` to every member of `nodes` in one epoch; true when all
/// survive it.
pub fn survives(fleet: &mut Fleet, nodes: &[NodeId], exploit: &Target) -> bool {
    let verify: Vec<Presentation> = nodes
        .iter()
        .map(|&node| Presentation::new(node, exploit.page.clone()))
        .collect();
    let outcome = fleet.run_epoch(&verify);
    outcome.outcomes.len() == nodes.len() && outcome.completed() == nodes.len()
}

/// The rejoin wave of the fleets whose own operation rejoins nobody
/// (`fleet_steady`, `fleet_outbreak`): checkpoint, crash `WAVE_KILLS`
/// seed-chosen members, rejoin them (half by delta, half by full bootstrap),
/// present `exploit` to each.
pub fn rejoin_wave(fleet: &mut Fleet, exploit: &Target, rng: &mut Rng) -> Rejoined {
    let kills = rng.distinct(WAVE_KILLS.min(fleet.node_count() / 2), fleet.node_count());
    let base = fleet.checkpoint();
    fleet.apply_membership(MembershipOp::Crash(&kills));
    let (sync_bytes, ok) = rejoin_all(fleet, &kills, &base);
    Rejoined {
        rejoins: kills.len() as u64,
        sync_bytes,
        ok: ok && survives(fleet, &kills, exploit),
    }
}

/// A protected host's encoded protection state (model + net patch plan) and
/// what coming back from it takes — the single-host counterpart of a fleet
/// member's rejoin.
pub struct HostCheckpoint {
    image: BinaryImage,
    config: ClearViewConfig,
    encoded: Vec<u8>,
    exploit: Vec<Word>,
}

impl HostCheckpoint {
    /// Capture `app`'s protection state; `exploit` is one it is protected
    /// against.
    pub fn capture(
        app: &ProtectedApplication,
        image: &BinaryImage,
        config: ClearViewConfig,
        exploit: &[Word],
    ) -> HostCheckpoint {
        HostCheckpoint {
            image: image.clone(),
            config,
            encoded: Snapshot::capture(0, 1, app.model(), app.net_state()).encode(),
            exploit: exploit.to_vec(),
        }
    }

    /// Bytes the host holds: its loaded address space, the image, and the
    /// encoded protection state it would restore from.
    pub fn state_bytes(&self) -> f64 {
        let image = &self.image;
        let words = image.layout.total_words() + image.code.len() + image.data.len();
        (words * std::mem::size_of::<Word>() + self.encoded.len()) as f64
    }

    /// The host comes back from a crash: decode the state, rebuild the model,
    /// `ProtectedApplication::restore`, survive the exploit on first exposure.
    pub fn restore(&self) -> Rejoined {
        let status = Snapshot::decode(&self.encoded).map(|snapshot| {
            let mut app = ProtectedApplication::restore(
                self.image.clone(),
                snapshot.restore_model(self.image.clone()),
                self.config,
                MonitorConfig::full(),
                &snapshot.bootstrap_plan(),
            );
            app.present(&self.exploit).status
        });
        Rejoined {
            rejoins: 1,
            sync_bytes: self.encoded.len() as u64,
            ok: matches!(status, Ok(RunStatus::Completed)),
        }
    }
}
